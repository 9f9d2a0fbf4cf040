//! The sharded schema registry: a thin facade over per-core
//! [`Shard`]s, each owning one hash partition of the name space.
//!
//! Ownership is static — `shard_of(name) = fnv1a(name) % shards` — so
//! every schema has exactly one home: the shard holding its compiled tree,
//! its raw source bytes (for WAL compaction dumps), and its prepared
//! artifact in that shard's LRU pool. Facade reads (`list`, `names`,
//! `snapshot`) merge the partitions; writes route to the owner. A
//! single-shard registry ([`Registry::single`]) behaves exactly like the
//! old monolithic one and is what unit tests use.

use qmatch_core::session::{CacheStats, MatchSession, PreparedSchema};
use qmatch_xsd::SchemaTree;
use std::sync::Arc;

use crate::metrics::RegistrySnapshot;
use crate::shard::{fnv1a, Shard};

/// Listing metadata for one registered schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaInfo {
    /// Registry name.
    pub name: String,
    /// Raw XSD bytes the schema was ingested from.
    pub source_bytes: u64,
    /// Compiled tree node count.
    pub nodes: usize,
    /// Compiled tree depth (edges from the root).
    pub max_depth: u32,
    /// Whether a prepared schema is currently resident on the owner shard.
    pub resident: bool,
}

/// The outcome of a registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Registered {
    /// Whether an existing schema of the same name was replaced.
    pub replaced: bool,
    /// Compiled tree node count.
    pub nodes: usize,
    /// Compiled tree depth.
    pub max_depth: u32,
}

/// A named-schema store partitioned across shared-nothing [`Shard`]s.
pub struct Registry {
    shards: Vec<Arc<Shard>>,
}

impl Registry {
    /// A registry of one shard per session (the server builds one per
    /// worker thread). A match runs on the source's shard over the
    /// target's artifact from its owner shard, so every session is made to
    /// intern through the first one's interner
    /// ([`MatchSession::share_interner`]).
    pub fn new(mut sessions: Vec<MatchSession>, max_resident: usize) -> Registry {
        let (first, rest) = sessions
            .split_first_mut()
            .expect("a registry needs at least one shard");
        for session in rest {
            session.share_interner(first);
        }
        let shards = sessions
            .into_iter()
            .enumerate()
            .map(|(i, session)| Arc::new(Shard::new(i, session, max_resident)))
            .collect();
        Registry { shards }
    }

    /// A single-shard registry — the old monolithic behavior, used by unit
    /// tests and embedders that do not need the sharded server.
    pub fn single(session: MatchSession, max_resident: usize) -> Registry {
        Registry::new(vec![session], max_resident)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard at `index`.
    pub fn shard(&self, index: usize) -> &Arc<Shard> {
        &self.shards[index]
    }

    /// All shards, in index order.
    pub fn shards(&self) -> &[Arc<Shard>] {
        &self.shards
    }

    /// Which shard owns `name`.
    pub fn shard_of(&self, name: &str) -> usize {
        (fnv1a(name.as_bytes()) % self.shards.len() as u64) as usize
    }

    /// The shard owning `name`.
    pub fn owner(&self, name: &str) -> &Arc<Shard> {
        &self.shards[self.shard_of(name)]
    }

    /// A session for configuration lookups (config is identical across
    /// shards; only per-shard caches differ).
    pub fn session(&self) -> &MatchSession {
        self.shards[0].session()
    }

    /// Registers (or replaces) a schema on its owner shard.
    pub fn register(&self, name: &str, tree: SchemaTree, source: &[u8]) -> Registered {
        self.owner(name).register(name, tree, source)
    }

    /// Removes a schema from its owner shard (tree, prepared artifact, and
    /// index entry). Returns whether the name was registered.
    pub fn remove(&self, name: &str) -> bool {
        self.owner(name).remove(name)
    }

    /// The prepared schema for `name` from its owner shard (re-preparing
    /// if evicted). `None` when the name is unknown.
    pub fn prepared(&self, name: &str) -> Option<Arc<PreparedSchema>> {
        self.owner(name).prepared(name)
    }

    /// Whether `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.owner(name).contains(name)
    }

    /// Number of registered schemas across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All registered names in sorted order (merged across shards).
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.shards.iter().flat_map(|s| s.names()).collect();
        names.sort();
        names
    }

    /// Listing metadata for every schema, sorted by name.
    pub fn list(&self) -> Vec<SchemaInfo> {
        let mut infos: Vec<SchemaInfo> = self.shards.iter().flat_map(|s| s.list()).collect();
        infos.sort_by(|a, b| a.name.cmp(&b.name));
        infos
    }

    /// Label-cache statistics summed across every shard's session.
    pub fn cache_stats(&self) -> CacheStats {
        let mut total = CacheStats {
            hits: 0,
            misses: 0,
            token_scores: 0,
            cached_pairs: 0,
        };
        for shard in &self.shards {
            let stats = shard.session().cache_stats();
            total.hits += stats.hits;
            total.misses += stats.misses;
            total.token_scores += stats.token_scores;
            total.cached_pairs += stats.cached_pairs;
        }
        total
    }

    /// A counters snapshot summed across shards, for metrics rendering.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let mut total = RegistrySnapshot::default();
        for shard in &self.shards {
            let s = shard.snapshot();
            total.schemas += s.schemas;
            total.resident += s.resident;
            total.prepare_hits += s.prepare_hits;
            total.prepare_misses += s.prepare_misses;
            total.evictions += s.evictions;
            total.label_hits += s.label_hits;
            total.label_misses += s.label_misses;
            total.label_token_scores += s.label_token_scores;
            total.label_cached_pairs += s.label_cached_pairs;
            total.index_candidates += s.index_candidates;
            total.index_filtered += s.index_filtered;
            total.deletes += s.deletes;
        }
        total
    }

    /// `(name, raw source bytes)` for every registered schema, sorted by
    /// name — the WAL compaction dump.
    pub fn dump(&self) -> Vec<(String, Arc<[u8]>)> {
        let mut out = Vec::with_capacity(self.len());
        for shard in &self.shards {
            shard.dump_into(&mut out);
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmatch_core::algorithms::Algorithm;
    use qmatch_core::model::MatchConfig;

    fn tree(root: &str) -> SchemaTree {
        SchemaTree::from_labels(root, &[(root, None), ("OrderNo", Some(0))])
    }

    fn registry(max_resident: usize) -> Registry {
        Registry::single(MatchSession::new(MatchConfig::default()), max_resident)
    }

    fn sharded(shards: usize, max_resident: usize) -> Registry {
        Registry::new(
            (0..shards)
                .map(|_| MatchSession::new(MatchConfig::default()))
                .collect(),
            max_resident,
        )
    }

    #[test]
    fn register_list_and_replace() {
        let r = registry(8);
        let first = r.register("po", tree("PO"), &[0u8; 100]);
        assert!(!first.replaced);
        assert_eq!(first.nodes, 2);
        let second = r.register("po", tree("PurchaseOrder"), &[0u8; 120]);
        assert!(second.replaced);
        assert_eq!(r.len(), 1);
        let infos = r.list();
        assert_eq!(infos.len(), 1);
        assert_eq!(infos[0].name, "po");
        assert_eq!(infos[0].source_bytes, 120);
        assert!(infos[0].resident);
        assert!(r.contains("po"));
        assert!(!r.contains("order"));
        assert_eq!(r.prepared("missing").map(|_| ()), None);
    }

    #[test]
    fn lru_evicts_and_prepares_again_on_demand() {
        let r = registry(2);
        r.register("a", tree("A"), b"x");
        r.register("b", tree("B"), b"x");
        r.register("c", tree("C"), b"x"); // evicts "a" (least recently used)
        let resident: Vec<_> = r.list().into_iter().filter(|i| i.resident).collect();
        assert_eq!(resident.len(), 2);
        assert!(!r.list().iter().any(|i| i.name == "a" && i.resident));
        assert_eq!(r.snapshot().evictions, 1);
        // "a" is still registered; using it re-prepares and evicts another.
        let prepared = r.prepared("a").expect("still registered");
        assert_eq!(prepared.tree().name(), "A");
        assert_eq!(r.snapshot().prepare_misses, 1);
        assert_eq!(r.snapshot().resident, 2);
    }

    #[test]
    fn hits_update_recency() {
        let r = registry(2);
        r.register("a", tree("A"), b"x");
        r.register("b", tree("B"), b"x");
        r.prepared("a").unwrap(); // touch "a" so "b" is now the LRU victim
        r.register("c", tree("C"), b"x");
        let resident: Vec<_> = r
            .list()
            .into_iter()
            .filter(|i| i.resident)
            .map(|i| i.name)
            .collect();
        assert_eq!(resident, ["a", "c"]);
        assert!(r.snapshot().prepare_hits >= 1);
    }

    #[test]
    fn concurrent_lookups_agree() {
        let r = Arc::new(registry(1));
        r.register("a", tree("A"), b"x");
        r.register("b", tree("B"), b"x"); // "a" evicted; lookups re-prepare
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let r = r.clone();
                std::thread::spawn(move || {
                    for _ in 0..10 {
                        let pa = r.prepared("a").unwrap();
                        let pb = r.prepared("b").unwrap();
                        let outcome = r.session().run(&Algorithm::Hybrid, &pa, &pb).unwrap();
                        assert!(outcome.total_qom.is_finite());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("lookup thread");
        }
        assert_eq!(r.snapshot().schemas, 2);
    }

    #[test]
    fn sharded_ownership_routes_and_merges() {
        let r = sharded(4, 8);
        let names = ["po1", "po2", "article", "book", "dcmd_item", "dcmd_ord"];
        for name in names {
            r.register(name, tree(name), name.as_bytes());
            // The owner shard holds it; every other shard does not.
            let owner = r.shard_of(name);
            for (i, shard) in r.shards().iter().enumerate() {
                assert_eq!(shard.contains(name), i == owner, "{name} on shard {i}");
            }
        }
        assert_eq!(r.len(), names.len());
        let mut sorted: Vec<&str> = names.to_vec();
        sorted.sort();
        assert_eq!(r.names(), sorted);
        assert_eq!(
            r.list().iter().map(|i| i.name.as_str()).collect::<Vec<_>>(),
            sorted
        );
        let dump = r.dump();
        assert_eq!(
            dump.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
            sorted,
            "dump is name-sorted for deterministic snapshots"
        );
        assert_eq!(r.snapshot().schemas, names.len() as u64);
        // Cross-shard prepared lookups work through the facade.
        for name in names {
            assert!(r.prepared(name).is_some(), "{name}");
        }
    }
}
