//! Shared-nothing registry shards and the worker loop that animates them.
//!
//! Schema ownership is static: `shard_of(name) = fnv1a(name) % shards`.
//! Each [`Shard`] owns one partition of the name space — the id form
//! ([`SchemaIds`]: the compiled tree with its interned label and property
//! tables) of every one of *its* schemas, the LRU-capped pool of prepared
//! artifacts laid out over them, and its own [`MatchSession`] (label
//! cache, matrix arena). A match on
//! `source` always executes on `shard_of(source)`'s thread, so the hot
//! per-session state is touched by exactly one thread; a cross-shard
//! *target* costs only an `Arc` clone of the owner's prepared artifact.
//! Every shard's session interns labels through one shared interner, so
//! artifacts are interchangeable between them — scores are bit-identical
//! regardless of which session runs the match.
//!
//! The reactor feeds shards through per-shard channels of [`Job`]s:
//! [`Job::Exec`] for single-shard work (PUT, `/match`), [`Job::Partial`]
//! for the scatter half of `/match/topk` — every shard ranks its own
//! partition, and the last one to finish merges the partials through a
//! total-order heap and emits the [`Completion`].

use crate::handlers::{self, ServeState, TopkPlan};
use crate::http::{Request, Response};
use crate::metrics::{Endpoint, RegistrySnapshot};
use qmatch_core::index::{CorpusIndex, Signature};
use qmatch_core::session::{MatchSession, PreparedSchema, SchemaIds};
use qmatch_core::trace::{Phase, Span};
use qmatch_core::{Algorithm, Candidate, Precision};
use qmatch_xsd::{SchemaTree, TreeProfile};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use crate::reactor::WakeFd;
use crate::registry::{Registered, SchemaInfo};

/// FNV-1a 64-bit — the shard-routing hash (stable across runs and
/// platforms, unlike `std`'s randomized hasher).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

struct Entry {
    /// The id form, built once at registration and kept while the name is
    /// registered: an LRU miss lays it out again without interning. Its
    /// root symbol and root properties are all a topk's root-QoM bound
    /// reads.
    ids: Arc<SchemaIds>,
    /// Raw XSD bytes as ingested — kept for snapshot compaction dumps.
    source: Arc<[u8]>,
    nodes: usize,
    max_depth: u32,
}

struct Resident {
    prepared: Arc<PreparedSchema>,
    /// Logical access time (monotone ticks), updated on every hit. An
    /// atomic so hits need only the shard's read lock.
    last_used: AtomicU64,
}

#[derive(Default)]
struct Inner {
    entries: BTreeMap<String, Entry>,
    resident: HashMap<String, Resident>,
    /// Shard-local candidate index over this partition's signatures,
    /// maintained on every registration (PUT and WAL replay both funnel
    /// through [`Shard::register`]).
    index: CorpusIndex,
}

/// One registry partition: the schemas this shard owns, their prepared
/// artifacts (LRU-capped), and the shard's private [`MatchSession`].
pub struct Shard {
    index: usize,
    session: MatchSession,
    inner: RwLock<Inner>,
    max_resident: usize,
    /// Logical clock for LRU ordering; shard-local (ownership is static,
    /// so cross-shard recency never needs comparing).
    tick: AtomicU64,
    prepare_hits: AtomicU64,
    prepare_misses: AtomicU64,
    evictions: AtomicU64,
    index_candidates: AtomicU64,
    index_filtered: AtomicU64,
    topk_dp_runs: AtomicU64,
    topk_bound_pruned: AtomicU64,
    deletes: AtomicU64,
}

impl Shard {
    /// A shard keeping at most `max_resident` prepared schemas
    /// materialized (0 is treated as 1 — the schema being used must fit).
    pub fn new(index: usize, session: MatchSession, max_resident: usize) -> Shard {
        Shard {
            index,
            session,
            inner: RwLock::new(Inner::default()),
            max_resident: max_resident.max(1),
            tick: AtomicU64::new(0),
            prepare_hits: AtomicU64::new(0),
            prepare_misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            index_candidates: AtomicU64::new(0),
            index_filtered: AtomicU64::new(0),
            topk_dp_runs: AtomicU64::new(0),
            topk_bound_pruned: AtomicU64::new(0),
            deletes: AtomicU64::new(0),
        }
    }

    /// This shard's position in the registry's shard vector.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The shard-private match session (label cache, matrix arena).
    pub fn session(&self) -> &MatchSession {
        &self.session
    }

    /// Registers (or replaces) a schema this shard owns. The tree is
    /// prepared eagerly so the first match does not pay preparation
    /// latency, and the shard keeps its id form for as long as the name is
    /// registered. A replacement is prepared and signed from scratch like a
    /// first registration and replaces the id form, so a re-`PUT` is equal
    /// to a fresh one by construction.
    pub fn register(&self, name: &str, tree: SchemaTree, source: &[u8]) -> Registered {
        let profile = TreeProfile::of(&tree);
        let prepared = Arc::new(self.session.prepare(tree));
        let signature = self.session.signature(&prepared);
        let ids = prepared.ids().clone();
        let mut inner = self.inner.write().expect("shard lock");
        inner.index.insert(name, signature);
        let tick = self.next_tick();
        let replaced = inner
            .entries
            .insert(
                name.to_owned(),
                Entry {
                    ids,
                    source: Arc::from(source),
                    nodes: profile.nodes,
                    max_depth: profile.max_depth,
                },
            )
            .is_some();
        inner.resident.insert(
            name.to_owned(),
            Resident {
                prepared,
                last_used: AtomicU64::new(tick),
            },
        );
        self.evict_over_cap(&mut inner, name);
        Registered {
            replaced,
            nodes: profile.nodes,
            max_depth: profile.max_depth,
        }
    }

    /// Removes a schema this shard owns: its id form (with the compiled
    /// tree), its resident prepared artifact, and its index entry. Returns whether the name
    /// was registered.
    pub fn remove(&self, name: &str) -> bool {
        let mut inner = self.inner.write().expect("shard lock");
        inner.index.remove(name);
        inner.resident.remove(name);
        let removed = inner.entries.remove(name).is_some();
        if removed {
            self.deletes.fetch_add(1, Ordering::Relaxed);
        }
        removed
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Evicts least-recently-used residents until the cap holds, never
    /// evicting `keep` (the schema just touched). Ties break by name so
    /// eviction never depends on `HashMap` iteration order.
    fn evict_over_cap(&self, inner: &mut Inner, keep: &str) {
        while inner.resident.len() > self.max_resident {
            let victim = inner
                .resident
                .iter()
                .filter(|(name, _)| *name != keep)
                .min_by(|(an, a), (bn, b)| {
                    a.last_used
                        .load(Ordering::Relaxed)
                        .cmp(&b.last_used.load(Ordering::Relaxed))
                        .then_with(|| an.cmp(bn))
                })
                .map(|(name, _)| name.clone());
            match victim {
                Some(name) => {
                    inner.resident.remove(&name);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => break,
            }
        }
    }

    /// The prepared schema for `name` (owned by this shard). If the LRU cap
    /// evicted it, only the layout step runs again, over the id form kept
    /// since registration ([`MatchSession::lay_out`]). `None` when the name
    /// is unknown.
    pub fn prepared(&self, name: &str) -> Option<Arc<PreparedSchema>> {
        {
            let inner = self.inner.read().expect("shard lock");
            if !inner.entries.contains_key(name) {
                return None;
            }
            if let Some(resident) = inner.resident.get(name) {
                resident
                    .last_used
                    .store(self.next_tick(), Ordering::Relaxed);
                self.prepare_hits.fetch_add(1, Ordering::Relaxed);
                return Some(resident.prepared.clone());
            }
        }
        self.prepare_misses.fetch_add(1, Ordering::Relaxed);
        let ids = {
            let inner = self.inner.read().expect("shard lock");
            inner.entries.get(name)?.ids.clone()
        };
        // Lay out outside any lock: pure work, possibly raced, harmless.
        let prepared = Arc::new(self.session.lay_out(ids));
        let mut inner = self.inner.write().expect("shard lock");
        if !inner.entries.contains_key(name) {
            return None; // deleted concurrently (future-proofing)
        }
        let tick = self.next_tick();
        let resident = inner
            .resident
            .entry(name.to_owned())
            .or_insert_with(|| Resident {
                prepared,
                last_used: AtomicU64::new(tick),
            });
        resident.last_used.store(tick, Ordering::Relaxed);
        let out = resident.prepared.clone();
        self.evict_over_cap(&mut inner, name);
        Some(out)
    }

    /// Whether this shard owns a schema called `name`.
    pub fn contains(&self, name: &str) -> bool {
        self.inner
            .read()
            .expect("shard lock")
            .entries
            .contains_key(name)
    }

    /// Number of schemas this shard owns.
    pub fn len(&self) -> usize {
        self.inner.read().expect("shard lock").entries.len()
    }

    /// True when the shard owns nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Names this shard owns, sorted.
    pub fn names(&self) -> Vec<String> {
        self.inner
            .read()
            .expect("shard lock")
            .entries
            .keys()
            .cloned()
            .collect()
    }

    /// The candidate floor of this shard's index: under the `auto` index
    /// policy, registries at or below this size rank exhaustively.
    pub fn candidate_floor(&self) -> usize {
        self.inner.read().expect("shard lock").index.params().floor
    }

    /// Candidate names from this shard's partition for an indexed topk
    /// query, sorted. The candidate predicate is pair-local (see
    /// `qmatch_core::index`), so the union across shards is independent
    /// of the shard count. Feeds the `qmatch_index_candidates` /
    /// `qmatch_index_filtered_total` counters.
    pub fn candidates(&self, query: &Signature) -> Vec<String> {
        let set = self
            .inner
            .read()
            .expect("shard lock")
            .index
            .candidates(query);
        self.index_candidates
            .fetch_add(set.names.len() as u64, Ordering::Relaxed);
        self.index_filtered
            .fetch_add(set.pruned as u64, Ordering::Relaxed);
        set.names
    }

    /// This shard's share of a topk: the top `k` of `names` (schemas this
    /// shard owns; unknown names are skipped) against `source`, through
    /// [`MatchSession::rank_topk`] — under `hybrid`, only candidates whose
    /// root-QoM bound can still reach the top `k` are prepared and matched.
    /// Feeds the `qmatch_topk_dp_runs_total` /
    /// `qmatch_topk_bound_pruned_total` counters.
    pub fn rank(
        &self,
        source: &PreparedSchema,
        names: &[String],
        algo: &Algorithm,
        k: usize,
        precision: Precision,
    ) -> Vec<(String, f64)> {
        let roots: Vec<(&str, Arc<SchemaIds>)> = {
            let inner = self.inner.read().expect("shard lock");
            names
                .iter()
                .filter_map(|name| Some((name.as_str(), inner.entries.get(name)?.ids.clone())))
                .collect()
        };
        let candidates: Vec<Candidate> = roots
            .iter()
            .map(|(name, ids)| {
                let root = ids.tree().root_id();
                Candidate {
                    name,
                    root: ids.symbol(root),
                    root_props: &ids.tree().node(root).properties,
                }
            })
            .collect();
        let topk = self
            .session
            .rank_topk(algo, source, &candidates, k, precision, |name| {
                self.prepared(name)
            })
            .expect("hybrid and cupid are infallible");
        self.topk_dp_runs
            .fetch_add(topk.work.dp_runs, Ordering::Relaxed);
        self.topk_bound_pruned
            .fetch_add(topk.work.bound_pruned, Ordering::Relaxed);
        topk.ranking
    }

    /// Listing metadata for this shard's partition, sorted by name.
    pub fn list(&self) -> Vec<SchemaInfo> {
        let inner = self.inner.read().expect("shard lock");
        inner
            .entries
            .iter()
            .map(|(name, entry)| SchemaInfo {
                name: name.clone(),
                source_bytes: entry.source.len() as u64,
                nodes: entry.nodes,
                max_depth: entry.max_depth,
                resident: inner.resident.contains_key(name),
            })
            .collect()
    }

    /// Appends `(name, raw source bytes)` for every owned schema — the
    /// compaction dump. Cheap: sources are shared `Arc<[u8]>`s.
    pub fn dump_into(&self, out: &mut Vec<(String, Arc<[u8]>)>) {
        let inner = self.inner.read().expect("shard lock");
        out.extend(
            inner
                .entries
                .iter()
                .map(|(name, entry)| (name.clone(), entry.source.clone())),
        );
    }

    /// This shard's contribution to the registry-wide counters snapshot.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let (schemas, resident, ids_bytes) = {
            let inner = self.inner.read().expect("shard lock");
            let ids = inner.entries.values().map(|e| e.ids.heap_bytes() as u64);
            (
                inner.entries.len() as u64,
                inner.resident.len() as u64,
                ids.sum(),
            )
        };
        let labels = self.session.cache_stats();
        RegistrySnapshot {
            schemas,
            resident,
            ids_bytes,
            prepare_hits: self.prepare_hits.load(Ordering::Relaxed),
            prepare_misses: self.prepare_misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            label_hits: labels.hits,
            label_misses: labels.misses,
            label_token_scores: labels.token_scores,
            label_graded_pairs: labels.graded_pairs,
            label_cached_pairs: labels.cached_pairs,
            index_candidates: self.index_candidates.load(Ordering::Relaxed),
            index_filtered: self.index_filtered.load(Ordering::Relaxed),
            topk_dp_runs: self.topk_dp_runs.load(Ordering::Relaxed),
            topk_bound_pruned: self.topk_bound_pruned.load(Ordering::Relaxed),
            deletes: self.deletes.load(Ordering::Relaxed),
        }
    }
}

/// Per-request bookkeeping that rides along a queued job and returns with
/// its [`Completion`].
#[derive(Debug, Clone)]
pub struct JobCtx {
    /// The reactor's connection token the response belongs to.
    pub token: u64,
    /// The `X-Request-Id` to echo (client-supplied or minted `q-N`).
    pub request_id: String,
    /// Numeric correlation id threaded into trace spans.
    pub rid: u64,
    /// When the request was fully parsed (request latency baseline).
    pub started: Instant,
    /// When the job entered the match queue (queue-wait baseline).
    pub enqueued: Instant,
    /// Absolute per-request deadline; expired jobs answer `503`.
    pub deadline: Instant,
    /// Request body bytes (for the request-phase span).
    pub body_len: u64,
}

/// The shared fan-out state of one `/match/topk` scatter-gather.
pub struct Scatter {
    /// The validated query (source artifact, `k`, precision, path).
    pub plan: TopkPlan,
    /// Request bookkeeping (one per scatter, shared by all partials).
    pub ctx: JobCtx,
    /// Shards still to report; the decrement-to-zero shard merges.
    pub remaining: AtomicUsize,
    /// Set when any shard saw the deadline expire — the merge answers 503.
    pub expired: AtomicBool,
    /// Per-shard partial rankings, gathered for the merge.
    pub partials: Mutex<Vec<(String, f64)>>,
}

/// One unit of work on a shard's queue.
pub enum Job {
    /// A whole request executing on its owner shard (PUT, `/match`).
    Exec {
        /// The parsed request (boxed: a `Request` carries its body buffer
        /// and header map, and would dwarf the `Partial` variant inline).
        req: Box<Request>,
        /// Response routing and timing bookkeeping.
        ctx: JobCtx,
        /// Endpoint label used if the job dies before the handler runs.
        endpoint: Endpoint,
    },
    /// One shard's share of a `/match/topk` scatter-gather.
    Partial {
        /// The scatter this partial belongs to.
        scatter: Arc<Scatter>,
    },
}

/// A finished job on its way back to the reactor.
pub struct Completion {
    /// The bookkeeping that accompanied the job.
    pub ctx: JobCtx,
    /// Endpoint label for the request counters.
    pub endpoint: Endpoint,
    /// The response to serialize (without `X-Request-Id`, which the
    /// reactor appends).
    pub response: Response,
}

/// The shard side of the completion channel: sending also kicks the
/// reactor's eventfd so a blocked `epoll_wait` returns immediately.
#[derive(Clone)]
pub struct CompletionSender {
    tx: Sender<Completion>,
    wake: Arc<WakeFd>,
}

impl CompletionSender {
    /// Pairs a channel sender with the reactor's wake fd.
    pub fn new(tx: Sender<Completion>, wake: Arc<WakeFd>) -> CompletionSender {
        CompletionSender { tx, wake }
    }

    /// Delivers one completion and wakes the reactor. A send error means
    /// the reactor is gone — the response has nowhere to go, so it is
    /// dropped silently.
    pub fn send(&self, completion: Completion) {
        let _ = self.tx.send(completion);
        self.wake.wake();
    }
}

/// The shard worker loop: drain jobs until the reactor hangs up the
/// channel. Runs on a dedicated thread named `qmatch-shard-{index}`.
pub fn run_worker(
    state: &ServeState,
    shard_index: usize,
    jobs: Receiver<Job>,
    done: CompletionSender,
) {
    let metrics = &state.metrics;
    while let Ok(job) = jobs.recv() {
        match job {
            Job::Exec { req, ctx, endpoint } => {
                let wait = ctx.enqueued.elapsed();
                metrics.record_queue_wait(wait.as_micros() as u64);
                metrics.record_phase(&Span {
                    rows: 1,
                    wall: wait,
                    request: ctx.rid,
                    ..Span::empty(Phase::Queue)
                });
                let (endpoint, response) = if Instant::now() >= ctx.deadline {
                    let response = handlers::finalize(
                        &req.path,
                        endpoint,
                        handlers::error(
                            503,
                            "deadline_exceeded",
                            "request exceeded its deadline budget in the match queue",
                        ),
                    );
                    (endpoint, response)
                } else {
                    let t0 = Instant::now();
                    let (endpoint, response) = handlers::handle(&req, state);
                    metrics.record_phase(&Span {
                        rows: 1,
                        cells: req.body.len() as u64,
                        wall: t0.elapsed(),
                        request: ctx.rid,
                        ..Span::empty(Phase::Shard)
                    });
                    (endpoint, response)
                };
                done.send(Completion {
                    ctx,
                    endpoint,
                    response,
                });
            }
            Job::Partial { scatter } => {
                let wait = scatter.ctx.enqueued.elapsed();
                metrics.record_queue_wait(wait.as_micros() as u64);
                metrics.record_phase(&Span {
                    rows: 1,
                    wall: wait,
                    request: scatter.ctx.rid,
                    ..Span::empty(Phase::Queue)
                });
                if Instant::now() >= scatter.ctx.deadline {
                    scatter.expired.store(true, Ordering::Relaxed);
                } else {
                    let t0 = Instant::now();
                    let partial = handlers::topk_partial(state, shard_index, &scatter.plan);
                    metrics.record_phase(&Span {
                        rows: partial.len() as u64,
                        wall: t0.elapsed(),
                        request: scatter.ctx.rid,
                        ..Span::empty(Phase::Shard)
                    });
                    scatter
                        .partials
                        .lock()
                        .expect("scatter partials lock")
                        .extend(partial);
                }
                // AcqRel so the merging shard observes every other shard's
                // partials written before its decrement.
                if scatter.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                    let response = if scatter.expired.load(Ordering::Relaxed) {
                        handlers::error(
                            503,
                            "deadline_exceeded",
                            "request exceeded its deadline budget in the match queue",
                        )
                    } else {
                        let partials = std::mem::take(
                            &mut *scatter.partials.lock().expect("scatter partials lock"),
                        );
                        metrics.record_scatter_gather(
                            scatter.ctx.enqueued.elapsed().as_micros() as u64
                        );
                        handlers::topk_render(&scatter.plan, partials)
                    };
                    let response =
                        handlers::finalize(&scatter.plan.path, Endpoint::MatchTopk, response);
                    done.send(Completion {
                        ctx: scatter.ctx.clone(),
                        endpoint: Endpoint::MatchTopk,
                        response,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmatch_core::model::MatchConfig;

    fn tree(root: &str) -> SchemaTree {
        SchemaTree::from_labels(root, &[(root, None), ("OrderNo", Some(0))])
    }

    fn shard(max_resident: usize) -> Shard {
        Shard::new(0, MatchSession::new(MatchConfig::default()), max_resident)
    }

    #[test]
    fn fnv1a_is_stable() {
        // Reference values for the 64-bit FNV-1a parameters.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a(b"po1"), fnv1a(b"po2"));
    }

    #[test]
    fn register_prepared_and_lru() {
        let s = shard(2);
        assert!(s.is_empty());
        let first = s.register("po", tree("PO"), b"<po/>");
        assert!(!first.replaced);
        assert_eq!(first.nodes, 2);
        assert!(s.register("po", tree("PO2"), b"<po v2/>").replaced);
        assert_eq!(s.len(), 1);
        assert_eq!(s.list()[0].source_bytes, 8);
        s.register("a", tree("A"), b"<a/>");
        s.register("b", tree("B"), b"<b/>"); // evicts the LRU ("po")
        assert_eq!(s.snapshot().evictions, 1);
        assert!(s.contains("po"), "evicted from residence, not the store");
        let prepared = s.prepared("po").expect("still registered");
        assert_eq!(prepared.tree().name(), "PO2");
        assert_eq!(s.snapshot().prepare_misses, 1);
        // The miss lays out the replacement's kept id form.
        prepared.assert_structural_eq(&s.session().prepare(tree("PO2")));
        assert_eq!(s.prepared("missing").map(|_| ()), None);
    }

    #[test]
    fn a_replacement_equals_a_fresh_registration() {
        let revised = || {
            SchemaTree::from_labels(
                "PO",
                &[("PO", None), ("OrderNumber", Some(0)), ("Qty", Some(0))],
            )
        };
        let resident =
            |s: &Shard, name: &str| s.list().iter().any(|i| i.name == name && i.resident);
        // Cap 2 keeps the old revision resident; cap 1 lets "other" evict
        // it, so the revision replaces an evicted name. `delete` removes
        // "po" before registering the revision; `miss` evicts the revision
        // again, so it is laid out from the id form the shard kept.
        for (max_resident, delete, miss) in [
            (2, false, false),
            (1, false, false),
            (1, false, true),
            (2, true, false),
            (1, true, true),
        ] {
            let case = format!("cap {max_resident}, delete {delete}, miss {miss}");
            let s = shard(max_resident);
            s.register("po", tree("PO"), b"<po/>");
            s.register("other", tree("O"), b"<o/>");
            let evicted = max_resident == 1;
            assert_eq!(s.snapshot().evictions, u64::from(evicted), "{case}");
            assert_eq!(resident(&s, "po"), !evicted, "{case}");
            if delete {
                assert!(s.remove("po"), "{case}");
                assert!(!s.register("po", revised(), b"<po v2/>").replaced, "{case}");
            } else {
                assert!(s.register("po", revised(), b"<po v2/>").replaced, "{case}");
            }
            if miss {
                s.prepared("other").expect("registered");
                assert!(!resident(&s, "po"), "{case}");
            }
            let misses = s.snapshot().prepare_misses;
            let prepared = s.prepared("po").expect("registered");
            assert_eq!(
                s.snapshot().prepare_misses - misses,
                u64::from(miss),
                "{case}"
            );
            assert!(resident(&s, "po"), "{case}");
            let scratch = s.session().prepare(revised());
            prepared.assert_structural_eq(&scratch);
            // The index answers every probe as a fresh registration's does;
            // only the revision's `Qty` admits "po" for the lone `Qty` probe.
            let fresh = shard(max_resident);
            fresh.register("other", tree("O"), b"<o/>");
            fresh.register("po", revised(), b"<po v2/>");
            let qty = SchemaTree::from_labels("Qty", &[("Qty", None)]);
            for probe in [tree("PO"), revised(), tree("O"), qty] {
                let signature = s.session().signature(&s.session().prepare(probe));
                assert_eq!(
                    s.candidates(&signature),
                    fresh.candidates(&signature),
                    "{case}"
                );
            }
        }
    }

    #[test]
    fn remove_clears_every_table_and_counts() {
        let s = shard(2);
        s.register("po", tree("PO"), b"<po/>");
        assert!(s.remove("po"));
        assert!(!s.contains("po"));
        assert!(s.is_empty());
        assert_eq!(s.prepared("po").map(|_| ()), None);
        assert_eq!(s.snapshot().deletes, 1);
        assert!(!s.remove("po"), "second delete is a no-op");
        assert_eq!(s.snapshot().deletes, 1);
        // A removed name can be registered afresh — and the re-register is
        // a first registration, not a replacement.
        let again = s.register("po", tree("PO"), b"<po v3/>");
        assert!(!again.replaced);
    }

    #[test]
    fn dump_preserves_raw_source_bytes() {
        let s = shard(4);
        s.register("a", tree("A"), b"<alpha/>");
        s.register("b", tree("B"), b"<beta/>");
        let mut dump = Vec::new();
        s.dump_into(&mut dump);
        dump.sort_by(|x, y| x.0.cmp(&y.0));
        assert_eq!(dump.len(), 2);
        assert_eq!(&*dump[0].1, b"<alpha/>".as_slice());
        assert_eq!(&*dump[1].1, b"<beta/>".as_slice());
    }
}
