//! Sublinear candidate generation for registry-scale top-k matching.
//!
//! `/v1/match/topk` (and any corpus-wide ranking) is O(registry) full DP
//! runs per query. This module trades that for an inverted index over
//! cheap per-schema signatures: folded distinct labels, their
//! [`tokenize`] tokens, character trigrams, consonant skeletons (stable
//! under vowel-dropping abbreviation), and thesaurus *concept* features
//! (each token's synonym-set representative plus its hypernym ancestors,
//! via [`Thesaurus::canonical_folded`]), plus node-count and max-depth
//! bands. A query walks the posting lists of its own features, scores
//! every schema that shares at least one feature with Dice and overlap
//! coefficients over the two feature sets, and only the survivors run
//! the full banded DP. The root QoM is dominated by label similarity
//! (the paper's §4 weighting) — and the linguistic matcher scores labels
//! through the same thesaurus the concept features hash, so enriched
//! feature-set similarity is a faithful cheap proxy for the expensive
//! score even across synonym- and abbreviation-drifted label sets.
//!
//! Two determinism rules keep indexed serving bit-identical where it
//! matters:
//!
//! - The candidate predicate is *pair-local* — a pure function of the
//!   query and candidate signatures, never a top-N competition across the
//!   corpus. Partitioning a registry across shards therefore never
//!   changes the global candidate set: sharded and single-shard indexed
//!   rankings are byte-identical.
//! - Under [`IndexPolicy::Auto`] a corpus at or below
//!   [`IndexParams::floor`] is ranked exhaustively, so small registries
//!   return exactly the bytes they returned before the index existed
//!   (the lossless-fallback rule, DESIGN.md §16).
//!
//! [`tokenize`]: qmatch_lexicon::tokenize()
//! [`Thesaurus::canonical_folded`]: qmatch_lexicon::Thesaurus::canonical_folded

use crate::algorithms::{Algorithm, MatchOutcome};
use crate::session::{MatchSession, PreparedSchema};
use crate::topk::Candidate;
use qmatch_lexicon::name_match::NameMatcher;
use qmatch_lexicon::thesaurus::Thesaurus;
use qmatch_lexicon::tokenize::Token;
use std::collections::HashMap;
use std::str::FromStr;

/// FNV-1a 64-bit over a namespace byte plus content — the feature hash.
/// Stable across sessions and platforms (unlike interned `Symbol` ids,
/// which are session-local), so signatures built by different shard
/// sessions are directly comparable.
fn feature_hash(namespace: u8, bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    hash ^= namespace as u64;
    hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

const NS_LABEL: u8 = b'L';
const NS_TOKEN: u8 = b'T';
const NS_GRAM: u8 = b'G';
const NS_SKELETON: u8 = b'K';
const NS_CONCEPT: u8 = b'C';

/// First character plus following consonants, capped at four characters —
/// exactly the form vowel-dropping abbreviations take ("billing" and
/// "blln" both skeletonize to `blln`), so a label and its abbreviation
/// share the feature. Idempotent by construction.
fn skeleton(token: &str) -> String {
    let mut out = String::new();
    let mut chars = token.chars();
    if let Some(first) = chars.next() {
        out.push(first);
    }
    for c in chars {
        if !"aeiou".contains(c) && out.len() < 4 {
            out.push(c);
        }
    }
    out
}

/// Whether the candidate index may gate the full DP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexPolicy {
    /// Never consult the index: every target runs the full DP.
    #[default]
    Off,
    /// Consult the index only above the candidate floor
    /// ([`IndexParams::floor`]); smaller corpora rank exhaustively, so
    /// their results stay bit-identical to `Off`.
    Auto,
    /// Always consult the index, regardless of corpus size.
    Force,
}

impl IndexPolicy {
    /// The name as accepted by `--index` and the `index=` query parameter.
    pub fn name(self) -> &'static str {
        match self {
            IndexPolicy::Off => "off",
            IndexPolicy::Auto => "auto",
            IndexPolicy::Force => "force",
        }
    }

    /// Whether the index gates a corpus of `corpus_len` schemas under this
    /// policy.
    pub fn engages(self, corpus_len: usize, params: &IndexParams) -> bool {
        match self {
            IndexPolicy::Off => false,
            IndexPolicy::Auto => corpus_len > params.floor,
            IndexPolicy::Force => true,
        }
    }
}

impl FromStr for IndexPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<IndexPolicy, String> {
        match s {
            "off" => Ok(IndexPolicy::Off),
            "auto" => Ok(IndexPolicy::Auto),
            "force" => Ok(IndexPolicy::Force),
            other => Err(format!(
                "unknown index policy {other:?} (use off|auto|force)"
            )),
        }
    }
}

/// Prefilter thresholds for candidate generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexParams {
    /// Minimum Dice coefficient over the combined feature sets for a
    /// schema to survive the prefilter.
    pub min_dice: f64,
    /// Minimum overlap coefficient (`|A∩B| / min(|A|,|B|)`) — an
    /// alternative admission path for size-asymmetric pairs, where a
    /// small schema contained in a large one scores a high QoM but Dice
    /// is diluted by the larger feature set. Either threshold admits.
    pub min_overlap: f64,
    /// Node-count band: candidates must have between `nodes / node_ratio`
    /// and `nodes * node_ratio` nodes.
    pub node_ratio: f64,
    /// Max-depth band: candidates must be within this many levels of the
    /// query's maximum depth.
    pub depth_band: u32,
    /// The lossless-fallback floor: under [`IndexPolicy::Auto`], corpora
    /// at or below this size are ranked exhaustively.
    pub floor: usize,
}

impl Default for IndexParams {
    fn default() -> Self {
        IndexParams {
            min_dice: 0.36,
            min_overlap: 0.40,
            node_ratio: 8.0,
            depth_band: 8,
            floor: 64,
        }
    }
}

/// The cheap per-schema signature the index stores and queries: the
/// sorted, deduplicated feature-hash set plus the structural band values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature {
    /// Sorted distinct hashes of folded labels, their tokens, character
    /// trigrams, consonant skeletons, and thesaurus concepts.
    features: Vec<u64>,
    /// Node count of the underlying tree.
    nodes: u32,
    /// Maximum nesting depth of the underlying tree (root = 0).
    depth: u32,
}

/// Pushes the concept features of one folded token: its synonym-set
/// representative (which short forms resolve through), plus the
/// representatives of its hypernym ancestors — so `po` (IS-A `order`) and
/// the `order` token of `PurchaseOrder` land on the same feature, as do
/// `book` and `article` through `publication`.
fn push_concepts(features: &mut Vec<u64>, thesaurus: &Thesaurus, token: &str) {
    let canonical_of = |t: &str| thesaurus.canonical_folded(t).map(str::to_owned);
    if let Some(canon) = canonical_of(token) {
        features.push(feature_hash(NS_CONCEPT, canon.as_bytes()));
        for ancestor in thesaurus.ancestors_folded(&canon) {
            let canon = canonical_of(&ancestor).unwrap_or(ancestor);
            features.push(feature_hash(NS_CONCEPT, canon.as_bytes()));
        }
    }
    for ancestor in thesaurus.ancestors_folded(token) {
        let canon = canonical_of(&ancestor).unwrap_or(ancestor);
        features.push(feature_hash(NS_CONCEPT, canon.as_bytes()));
    }
}

/// Pushes every feature one distinct folded label contributes: the label
/// hash, per-token hashes with consonant skeletons and thesaurus concepts,
/// and the character trigrams. A pure function of `(label, tokens,
/// thesaurus)`, so a signature is the deduplicated union of its distinct
/// labels' contributions.
fn push_label_features(
    features: &mut Vec<u64>,
    thesaurus: &Thesaurus,
    label: &str,
    label_tokens: &[Token],
) {
    let bytes = label.as_bytes();
    features.push(feature_hash(NS_LABEL, bytes));
    for token in label_tokens {
        let token = token.as_str();
        features.push(feature_hash(NS_TOKEN, token.as_bytes()));
        if token.len() >= 3 {
            features.push(feature_hash(NS_SKELETON, skeleton(token).as_bytes()));
        }
        push_concepts(features, thesaurus, token);
    }
    if bytes.len() < 3 {
        features.push(feature_hash(NS_GRAM, bytes));
    } else {
        for gram in bytes.windows(3) {
            features.push(feature_hash(NS_GRAM, gram));
        }
    }
}

impl Signature {
    /// Extracts the signature of a prepared schema. The matcher supplies
    /// the thesaurus the concept features hash through — use the same
    /// matcher (or one built from the same tables) on the insert and
    /// query sides, as [`MatchSession::signature`] does automatically.
    /// Given equal thesauri, signatures are a pure function of the tree:
    /// different sessions produce identical signatures.
    pub fn of(prepared: &PreparedSchema, matcher: &NameMatcher) -> Signature {
        let thesaurus = matcher.thesaurus();
        let symbols = prepared.distinct_symbols();
        let mut features = Vec::with_capacity(symbols.len() * 8);
        {
            let interner = prepared.ids.interner.read().expect("interner lock");
            for &symbol in symbols {
                let (label, tokens) = (interner.folded(symbol), interner.tokens(symbol));
                push_label_features(&mut features, thesaurus, label, tokens);
            }
        }
        features.sort_unstable();
        features.dedup();
        Signature {
            features,
            nodes: prepared.tree().len() as u32,
            depth: prepared.tree().max_depth(),
        }
    }

    /// Number of distinct features.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// True when the signature carries no features (an empty tree cannot
    /// exist, so this is only reachable through manual construction).
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Node count of the signed tree.
    pub fn nodes(&self) -> u32 {
        self.nodes
    }

    /// Maximum depth of the signed tree.
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Number of features the two sorted feature sets share.
    fn shared_features(&self, other: &Signature) -> usize {
        let (mut i, mut j, mut shared) = (0usize, 0usize, 0usize);
        while i < self.features.len() && j < other.features.len() {
            match self.features[i].cmp(&other.features[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    shared += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        shared
    }

    /// Dice coefficient between the two feature sets: `2|A∩B| / (|A|+|B|)`.
    pub fn dice(&self, other: &Signature) -> f64 {
        dice_from_shared(
            self.shared_features(other),
            self.features.len(),
            other.features.len(),
        )
    }

    /// Overlap coefficient between the two feature sets:
    /// `|A∩B| / min(|A|,|B|)`.
    pub fn overlap(&self, other: &Signature) -> f64 {
        let min_len = self.features.len().min(other.features.len());
        if min_len == 0 {
            return 0.0;
        }
        self.shared_features(other) as f64 / min_len as f64
    }

    /// Whether `candidate` survives every pair-local prefilter against
    /// this query signature. `shared` is the number of shared features
    /// (from the posting-list merge or a [`Signature::dice`]-style count).
    fn admits(&self, candidate: &Signature, shared: usize, params: &IndexParams) -> bool {
        let dice = dice_from_shared(shared, self.features.len(), candidate.features.len());
        let min_len = self.features.len().min(candidate.features.len());
        let overlap = if min_len == 0 {
            0.0
        } else {
            shared as f64 / min_len as f64
        };
        if dice < params.min_dice && overlap < params.min_overlap {
            return false;
        }
        let (lo, hi) = (
            (self.nodes as f64 / params.node_ratio).floor() as u32,
            (self.nodes as f64 * params.node_ratio).ceil() as u32,
        );
        if candidate.nodes < lo || candidate.nodes > hi {
            return false;
        }
        self.depth.abs_diff(candidate.depth) <= params.depth_band
    }
}

fn dice_from_shared(shared: usize, a: usize, b: usize) -> f64 {
    if a + b == 0 {
        return 0.0;
    }
    2.0 * shared as f64 / (a + b) as f64
}

/// Whether a single (source, target) pair survives the prefilter — the
/// pair-local predicate [`CorpusIndex::candidates`] applies through its
/// posting lists. Exposed for corpus-free callers (`qmatch evaluate
/// --index`).
pub fn pair_is_candidate(query: &Signature, candidate: &Signature, params: &IndexParams) -> bool {
    query.admits(candidate, query.shared_features(candidate), params)
}

/// The result of one candidate query: the surviving names plus the
/// counters the serve metrics export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateSet {
    /// Surviving schema names, sorted (deterministic scan order for the
    /// DP loop that follows).
    pub names: Vec<String>,
    /// Indexed schemas that shared at least one feature with the query
    /// and were therefore Dice-scored.
    pub scored: usize,
    /// Indexed schemas the prefilters excluded from the DP.
    pub pruned: usize,
}

/// One slot of the index: a name and its signature.
struct Doc {
    name: String,
    signature: Signature,
}

/// An inverted index from signature features to schema ids, with
/// replace-aware registration and pair-local candidate prefilters.
///
/// Maintained incrementally: a serve shard inserts on every PUT/replay
/// and queries on every indexed topk. All lookups are deterministic —
/// candidate sets depend only on the set of (name, signature) pairs
/// registered, not on insertion order or hash-map iteration order.
pub struct CorpusIndex {
    params: IndexParams,
    docs: Vec<Option<Doc>>,
    by_name: HashMap<String, u32>,
    postings: HashMap<u64, Vec<u32>>,
    free: Vec<u32>,
}

impl Default for CorpusIndex {
    fn default() -> Self {
        CorpusIndex::new(IndexParams::default())
    }
}

impl CorpusIndex {
    /// An empty index with explicit prefilter parameters.
    pub fn new(params: IndexParams) -> CorpusIndex {
        CorpusIndex {
            params,
            docs: Vec::new(),
            by_name: HashMap::new(),
            postings: HashMap::new(),
            free: Vec::new(),
        }
    }

    /// The prefilter parameters this index applies.
    pub fn params(&self) -> &IndexParams {
        &self.params
    }

    /// Number of indexed schemas.
    pub fn len(&self) -> usize {
        self.by_name.len()
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.by_name.is_empty()
    }

    /// Indexes (or replaces) a schema's signature under `name`.
    pub fn insert(&mut self, name: &str, signature: Signature) {
        self.remove(name);
        let id = match self.free.pop() {
            Some(id) => id,
            None => {
                self.docs.push(None);
                (self.docs.len() - 1) as u32
            }
        };
        for &feature in &signature.features {
            self.postings.entry(feature).or_default().push(id);
        }
        self.by_name.insert(name.to_owned(), id);
        self.docs[id as usize] = Some(Doc {
            name: name.to_owned(),
            signature,
        });
    }

    /// Drops a schema from the index; returns whether it was present.
    pub fn remove(&mut self, name: &str) -> bool {
        let Some(id) = self.by_name.remove(name) else {
            return false;
        };
        let doc = self.docs[id as usize].take().expect("doc slot in sync");
        for feature in &doc.signature.features {
            if let Some(list) = self.postings.get_mut(feature) {
                list.retain(|&d| d != id);
                if list.is_empty() {
                    self.postings.remove(feature);
                }
            }
        }
        self.free.push(id);
        true
    }

    /// The candidate set for `query`: every indexed schema sharing at
    /// least one feature is Dice-scored through the posting lists, and
    /// the pair-local prefilters ([`IndexParams`]) decide survival. Cost
    /// is the total length of the query features' posting lists — no DP,
    /// no string work.
    pub fn candidates(&self, query: &Signature) -> CandidateSet {
        let mut shared = vec![0u32; self.docs.len()];
        for feature in &query.features {
            if let Some(list) = self.postings.get(feature) {
                for &id in list {
                    shared[id as usize] += 1;
                }
            }
        }
        let mut names = Vec::new();
        let mut scored = 0usize;
        for (id, count) in shared.iter().enumerate() {
            if *count == 0 {
                continue;
            }
            scored += 1;
            let doc = self.docs[id].as_ref().expect("posted doc exists");
            if query.admits(&doc.signature, *count as usize, &self.params) {
                names.push(doc.name.clone());
            }
        }
        names.sort_unstable();
        CandidateSet {
            pruned: self.len() - names.len(),
            names,
            scored,
        }
    }
}

impl MatchSession {
    /// The candidate-index signature of a prepared schema, built through
    /// this session's matcher ([`Signature::of`] with
    /// [`MatchSession::matcher`]) — sessions sharing thesaurus tables
    /// produce identical signatures.
    pub fn signature(&self, prepared: &PreparedSchema) -> Signature {
        Signature::of(prepared, self.matcher())
    }

    /// Ranks `corpus` against `source` by hybrid root QoM and returns the
    /// top `k` as `(name, total_qom)` — descending score, ties broken by
    /// lexicographically smaller name. Entries named exactly like
    /// `exclude` (the source's own registry name, if any) are skipped.
    ///
    /// Under [`IndexPolicy::Off`] — and under [`IndexPolicy::Auto`] when
    /// the corpus is at or below [`IndexParams::floor`] — every entry is a
    /// candidate. Otherwise a throwaway [`CorpusIndex`] narrows the
    /// candidates (callers ranking the same corpus repeatedly should
    /// maintain a [`CorpusIndex`] themselves, as the serve shards do).
    /// [`MatchSession::rank_topk`] then runs the DP only on candidates
    /// whose root-QoM bound can still reach the top `k`.
    pub fn topk(
        &self,
        source: &PreparedSchema,
        corpus: &[(&str, &PreparedSchema)],
        k: usize,
        exclude: Option<&str>,
        policy: IndexPolicy,
    ) -> Vec<(String, f64)> {
        let params = IndexParams::default();
        let candidate_names = if policy.engages(corpus.len(), &params) {
            let mut index = CorpusIndex::new(params);
            for (name, prepared) in corpus {
                index.insert(name, self.signature(prepared));
            }
            Some(index.candidates(&self.signature(source)).names)
        } else {
            None
        };
        let admitted = |name: &str| {
            Some(name) != exclude
                && match &candidate_names {
                    Some(names) => names.binary_search_by(|n| n.as_str().cmp(name)).is_ok(),
                    None => true,
                }
        };
        let candidates: Vec<Candidate> = corpus
            .iter()
            .filter(|(name, _)| admitted(name))
            .map(|&(name, prepared)| Candidate::of(name, prepared))
            .collect();
        let by_name: HashMap<&str, &PreparedSchema> = corpus.iter().copied().collect();
        let fetch = |name: &str| by_name.get(name).copied();
        self.rank_topk(
            &Algorithm::Hybrid,
            source,
            &candidates,
            k,
            self.config().precision,
            fetch,
        )
        .expect("hybrid is infallible")
        .ranking
    }

    /// [`MatchSession::match_corpus`] with an [`IndexPolicy`] gate: pairs
    /// the prefilter prunes return `None` instead of paying the full DP.
    /// `Off` (and `Auto` at or below the floor) runs every pair, so the
    /// `Some` outcomes are bit-identical to [`MatchSession::match_corpus`].
    pub fn match_corpus_indexed(
        &self,
        pairs: &[(&PreparedSchema, &PreparedSchema)],
        policy: IndexPolicy,
    ) -> Vec<Option<MatchOutcome>> {
        let params = IndexParams::default();
        if !policy.engages(pairs.len(), &params) {
            return self.match_corpus(pairs).into_iter().map(Some).collect();
        }
        let admitted: Vec<bool> = pairs
            .iter()
            .map(|(s, t)| pair_is_candidate(&self.signature(s), &self.signature(t), &params))
            .collect();
        let survivors: Vec<(&PreparedSchema, &PreparedSchema)> = pairs
            .iter()
            .zip(&admitted)
            .filter(|(_, &a)| a)
            .map(|(pair, _)| *pair)
            .collect();
        let mut outcomes = self.match_corpus(&survivors).into_iter();
        admitted
            .into_iter()
            .map(|a| a.then(|| outcomes.next().expect("one outcome per survivor")))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::MatchConfig;
    use qmatch_xsd::SchemaTree;

    fn po() -> SchemaTree {
        SchemaTree::from_labels(
            "PO",
            &[
                ("PO", None),
                ("OrderNo", Some(0)),
                ("BillingAddress", Some(0)),
                ("ShippingAddress", Some(0)),
            ],
        )
    }

    fn order() -> SchemaTree {
        SchemaTree::from_labels(
            "Order",
            &[
                ("Order", None),
                ("OrderNo", Some(0)),
                ("BillingAddress", Some(0)),
            ],
        )
    }

    fn book() -> SchemaTree {
        SchemaTree::from_labels(
            "Book",
            &[("Book", None), ("Title", Some(0)), ("Isbn", Some(0))],
        )
    }

    #[test]
    fn policy_parses_and_round_trips() {
        for (name, policy) in [
            ("off", IndexPolicy::Off),
            ("auto", IndexPolicy::Auto),
            ("force", IndexPolicy::Force),
        ] {
            assert_eq!(name.parse::<IndexPolicy>().unwrap(), policy);
            assert_eq!(policy.name(), name);
        }
        assert!("banana".parse::<IndexPolicy>().is_err());
        let params = IndexParams::default();
        assert!(!IndexPolicy::Off.engages(1_000_000, &params));
        assert!(IndexPolicy::Force.engages(1, &params));
        assert!(!IndexPolicy::Auto.engages(params.floor, &params));
        assert!(IndexPolicy::Auto.engages(params.floor + 1, &params));
    }

    #[test]
    fn signatures_are_session_independent() {
        let tree = po();
        let a = MatchSession::new(MatchConfig::default());
        let b = MatchSession::new(MatchConfig::default());
        // Warm b's interner with other labels first, so the Symbol ids of
        // the PO labels differ between the two sessions.
        let other = book();
        let _ = b.prepare(&other);
        let sig_a = a.signature(&a.prepare(&tree));
        let sig_b = b.signature(&b.prepare(&tree));
        assert_eq!(sig_a, sig_b);
        assert_eq!(sig_a.nodes(), 4);
        assert_eq!(sig_a.depth(), 1);
        assert!(sig_a.len() > 4, "labels + tokens + trigrams");
    }

    #[test]
    fn dice_is_symmetric_and_bounded() {
        let session = MatchSession::new(MatchConfig::default());
        let (po, order, book) = (po(), order(), book());
        let sig_po = session.signature(&session.prepare(&po));
        let sig_order = session.signature(&session.prepare(&order));
        let sig_book = session.signature(&session.prepare(&book));
        assert_eq!(sig_po.dice(&sig_po), 1.0);
        assert!((sig_po.dice(&sig_order) - sig_order.dice(&sig_po)).abs() < 1e-12);
        assert!(sig_po.dice(&sig_order) > sig_po.dice(&sig_book));
        assert!(
            sig_po.dice(&sig_book) < 0.2,
            "unrelated schemas share little"
        );
    }

    #[test]
    fn index_inserts_replaces_and_removes() {
        let session = MatchSession::new(MatchConfig::default());
        let (po, order, book) = (po(), order(), book());
        let mut index = CorpusIndex::default();
        index.insert("po", session.signature(&session.prepare(&po)));
        index.insert("order", session.signature(&session.prepare(&order)));
        index.insert("book", session.signature(&session.prepare(&book)));
        assert_eq!(index.len(), 3);
        let query = session.signature(&session.prepare(&po));
        let cands = index.candidates(&query);
        assert!(cands.names.contains(&"po".to_owned()));
        assert!(cands.names.contains(&"order".to_owned()));
        assert!(!cands.names.contains(&"book".to_owned()), "{cands:?}");
        assert_eq!(cands.pruned + cands.names.len(), 3);
        // Replacing a name with an unrelated signature removes the old
        // postings: "order" stops being a candidate for PO queries.
        index.insert("order", session.signature(&session.prepare(&book)));
        assert_eq!(index.len(), 3);
        assert!(!index.candidates(&query).names.contains(&"order".to_owned()));
        assert!(index.remove("order"));
        assert!(!index.remove("order"));
        assert_eq!(index.len(), 2);
        // The freed slot is recycled without disturbing other docs.
        index.insert("order2", session.signature(&session.prepare(&order)));
        let cands = index.candidates(&query);
        assert_eq!(cands.names, vec!["order2".to_owned(), "po".to_owned()]);
    }

    #[test]
    fn candidate_sets_are_insertion_order_independent() {
        let session = MatchSession::new(MatchConfig::default());
        let trees = [("po", po()), ("order", order()), ("book", book())];
        let query = session.signature(&session.prepare(&trees[0].1));
        let mut forward = CorpusIndex::default();
        for (name, tree) in &trees {
            forward.insert(name, session.signature(&session.prepare(tree)));
        }
        let mut reverse = CorpusIndex::default();
        for (name, tree) in trees.iter().rev() {
            reverse.insert(name, session.signature(&session.prepare(tree)));
        }
        assert_eq!(forward.candidates(&query), reverse.candidates(&query));
    }

    #[test]
    fn bands_prune_structural_outliers() {
        let params = IndexParams {
            node_ratio: 2.0,
            depth_band: 1,
            ..IndexParams::default()
        };
        let session = MatchSession::new(MatchConfig::default());
        let small = po();
        // A deep chain reusing the same labels: high Dice, wrong shape.
        let deep = SchemaTree::from_labels(
            "PO",
            &[
                ("PO", None),
                ("OrderNo", Some(0)),
                ("BillingAddress", Some(1)),
                ("ShippingAddress", Some(2)),
                ("OrderNo", Some(3)),
                ("BillingAddress", Some(4)),
                ("ShippingAddress", Some(5)),
                ("OrderNo", Some(6)),
                ("BillingAddress", Some(7)),
            ],
        );
        let q = session.signature(&session.prepare(&small));
        let d = session.signature(&session.prepare(&deep));
        assert!(q.dice(&d) > params.min_dice);
        assert!(!pair_is_candidate(&q, &d, &params), "depth band prunes");
        assert!(pair_is_candidate(
            &q,
            &d,
            &IndexParams {
                depth_band: 8,
                node_ratio: 8.0,
                ..params
            }
        ));
    }

    #[test]
    fn topk_off_auto_below_floor_and_force_agree_on_small_corpora() {
        let session = MatchSession::new(MatchConfig::default());
        let (po_t, order_t, book_t) = (po(), order(), book());
        let (p, o, b) = (
            session.prepare(&po_t),
            session.prepare(&order_t),
            session.prepare(&book_t),
        );
        let corpus: Vec<(&str, &PreparedSchema)> = vec![("po", &p), ("order", &o), ("book", &b)];
        let off = session.topk(&p, &corpus, 5, Some("po"), IndexPolicy::Off);
        let auto = session.topk(&p, &corpus, 5, Some("po"), IndexPolicy::Auto);
        assert_eq!(off, auto, "below the floor, auto is exhaustive");
        assert_eq!(off[0].0, "order");
        assert_eq!(off.len(), 2);
        let force = session.topk(&p, &corpus, 5, Some("po"), IndexPolicy::Force);
        assert_eq!(force.len(), 1, "force prunes the unrelated book schema");
        assert_eq!(force[0], off[0]);
    }

    #[test]
    fn match_corpus_indexed_prunes_only_under_pressure() {
        let session = MatchSession::new(MatchConfig::default());
        let (po_t, order_t, book_t) = (po(), order(), book());
        let (p, o, b) = (
            session.prepare(&po_t),
            session.prepare(&order_t),
            session.prepare(&book_t),
        );
        let pairs: Vec<(&PreparedSchema, &PreparedSchema)> = vec![(&p, &o), (&p, &b)];
        let off = session.match_corpus_indexed(&pairs, IndexPolicy::Off);
        assert!(off.iter().all(Option::is_some));
        let auto = session.match_corpus_indexed(&pairs, IndexPolicy::Auto);
        assert!(
            auto.iter().all(Option::is_some),
            "two pairs sit below the floor"
        );
        let force = session.match_corpus_indexed(&pairs, IndexPolicy::Force);
        assert!(force[0].is_some(), "po/order survives the prefilter");
        assert!(force[1].is_none(), "po/book is pruned");
        let exhaustive = session.match_corpus(&pairs);
        assert_eq!(
            force[0].as_ref().unwrap().total_qom,
            exhaustive[0].total_qom,
            "surviving pairs score bit-identically"
        );
    }
}
