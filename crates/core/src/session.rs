//! The prepare-once/match-many session architecture.
//!
//! The matching engines consume per-schema facts — labels, tokens, wave
//! schedules, leaf partitions, property profiles — that are pure functions
//! of the [`SchemaTree`]. Recomputing them on every `match` call is wasted
//! work in exactly the workload the ROADMAP targets: one schema matched
//! against a whole corpus, repeatedly. This module splits that work at a
//! hard boundary:
//!
//! - [`MatchSession::prepare`] builds a [`PreparedSchema`] once per tree:
//!   interned [`Symbol`]s and case-folded labels, [`tokenize`] output per
//!   distinct label, the bottom-up and top-down wave schedules, the
//!   leaf/internal partition, and the per-node property profile.
//! - [`MatchSession::run`] runs any [`Algorithm`] over two prepared
//!   schemas, touching only integer indices and precomputed tables;
//!   [`MatchSession::match_corpus`] is its batch form.
//!
//! The session also owns the cross-schema label cache: every distinct
//! `(Symbol, Symbol)` pair is compared at most once per session, so the
//! cache survives across pairs of a corpus — generalizing the per-pair
//! [`LabelMatrix`] precomputation. Cached entries are pure functions of the
//! two labels and the matcher, so cached and freshly computed runs are
//! bit-identical (property-tested in `tests/session_equivalence.rs`).
//!
//! [`tokenize`]: qmatch_lexicon::tokenize()

use crate::algorithms::{
    composite_match_impl, cupid_match_impl, hybrid_match_impl, linguistic_match_impl,
    matcher_for_mode, root_category_with_label, structural_match_impl, tree_edit_match, Algorithm,
    CompositeError, LabelMatrix, MatchOutcome,
};
use crate::arena::{ArenaStats, MatchArena};
use crate::explain::{explain_with_label, Explanation};
use crate::intern::{Interner, SymMap, Symbol};
use crate::mapping::{extract_mapping, Mapping};
use crate::matrix::{Precision, SimMatrix};
use crate::model::MatchConfig;
use crate::par;
use crate::taxonomy::MatchCategory;
use crate::trace::{Phase, Span, Trace, TraceSink};
use qmatch_lexicon::name_match::{LabelGrade, NameMatch, NameMatcher};
use qmatch_lexicon::tokenize::Token;
use qmatch_xsd::{NodeId, Properties, SchemaTree};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Everything the engines need from one schema, derived once.
///
/// Owns its tree through an [`Arc`], so a prepared schema has no outward
/// lifetime: it can live in long-lived registries and move across worker
/// threads. The artifacts are dense tables indexed by [`NodeId::index`],
/// so the match hot path does no hashing and no string work.
pub struct PreparedSchema {
    pub(crate) tree: Arc<SchemaTree>,
    /// The interner `symbols` index: a session reads its label cache for
    /// this schema only when it interns through the same one.
    pub(crate) interner: Arc<Mutex<Interner>>,
    /// Per-node interned label (session-global symbol).
    pub(crate) symbols: Vec<Symbol>,
    /// Distinct symbols of this tree in first-seen (pre-order) order.
    pub(crate) distinct: Vec<Symbol>,
    /// Per-node index into `distinct` (the tree-local dense label id).
    pub(crate) node_distinct: Vec<u32>,
    /// Case-folded form per distinct label (owned copy from the interner).
    pub(crate) distinct_folded: Vec<String>,
    /// Token sequence per distinct label (owned copy from the interner).
    pub(crate) distinct_tokens: Vec<Vec<Token>>,
    /// Bottom-up wave schedule: wave `k` holds the nodes of height `k`.
    pub(crate) waves_height: Vec<Vec<NodeId>>,
    /// Top-down wave schedule: wave `k` holds the nodes at level `k`.
    pub(crate) waves_depth: Vec<Vec<NodeId>>,
    /// Dense per-node nesting levels.
    pub(crate) levels: Vec<u32>,
    /// Dense per-node leaf flags.
    pub(crate) leaf_flags: Vec<bool>,
    /// The leaf partition (pre-order).
    pub(crate) leaves: Vec<NodeId>,
    /// The internal-node partition (pre-order).
    pub(crate) internals: Vec<NodeId>,
    /// Per-node parent index (`u32::MAX` for the root).
    pub(crate) parents: Vec<u32>,
    /// Per-node index into `distinct_props` (the tree-local dense property
    /// profile id) — lets the kernels score properties once per distinct
    /// profile pair instead of once per node pair.
    pub(crate) node_props: Vec<u32>,
    /// One representative node per distinct property profile, in
    /// first-seen (pre-order) order.
    pub(crate) distinct_props: Vec<NodeId>,
}

/// The name the repository benchmark (`perfbench/`) spells the prepared
/// type with. It exists only because that frozen benchmark names it; no
/// code in this workspace may use it — write [`PreparedSchema`].
pub type OwnedPreparedSchema = PreparedSchema;

impl PreparedSchema {
    /// The underlying tree.
    pub fn tree(&self) -> &SchemaTree {
        &self.tree
    }

    /// Identity view of `self`. It exists only because the frozen
    /// repository benchmark (`perfbench/`) calls it on
    /// [`OwnedPreparedSchema`]; no code in this workspace may use it.
    pub fn prepared(&self) -> &PreparedSchema {
        self
    }

    /// The interned symbol of a node's label.
    pub fn symbol(&self, id: NodeId) -> Symbol {
        self.symbols[id.index()]
    }

    /// Number of distinct labels in this tree.
    pub fn distinct_labels(&self) -> usize {
        self.distinct.len()
    }

    /// The leaf nodes, in pre-order.
    pub fn leaves(&self) -> &[NodeId] {
        &self.leaves
    }

    /// The internal (non-leaf) nodes, in pre-order.
    pub fn internals(&self) -> &[NodeId] {
        &self.internals
    }

    /// Whether a node is a leaf (dense lookup).
    #[inline]
    pub fn is_leaf(&self, id: NodeId) -> bool {
        self.leaf_flags[id.index()]
    }

    /// A node's nesting level (dense lookup).
    #[inline]
    pub fn level(&self, id: NodeId) -> u32 {
        self.levels[id.index()]
    }

    /// A node's property profile (dense lookup).
    #[inline]
    pub fn props(&self, id: NodeId) -> &Properties {
        &self.tree.node(id).properties
    }

    /// Case-folded form of each distinct label, in first-seen (pre-order)
    /// order — the label set the candidate index signs.
    pub fn distinct_folded(&self) -> &[String] {
        &self.distinct_folded
    }

    /// Token sequence per distinct label, parallel to
    /// [`PreparedSchema::distinct_folded`].
    pub fn distinct_tokens(&self) -> &[Vec<Token>] {
        &self.distinct_tokens
    }

    pub(crate) fn waves_by_height(&self) -> &[Vec<NodeId>] {
        &self.waves_height
    }

    pub(crate) fn waves_by_depth(&self) -> &[Vec<NodeId>] {
        &self.waves_depth
    }

    /// Dense per-node nesting levels (kernel fast path).
    pub(crate) fn levels_raw(&self) -> &[u32] {
        &self.levels
    }

    /// Dense per-node leaf flags (kernel fast path).
    pub(crate) fn leaf_flags_raw(&self) -> &[bool] {
        &self.leaf_flags
    }

    /// Per-node parent index, `u32::MAX` for the root.
    pub(crate) fn parents_raw(&self) -> &[u32] {
        &self.parents
    }

    /// Per-node dense distinct-property-profile id.
    pub(crate) fn node_props_raw(&self) -> &[u32] {
        &self.node_props
    }

    /// One representative node per distinct property profile, indexed by
    /// the ids in [`PreparedSchema::node_props_raw`].
    pub(crate) fn distinct_props_raw(&self) -> &[NodeId] {
        &self.distinct_props
    }

    /// Test support: asserts every derived table of `self` equals `other`'s,
    /// naming the first differing table. Pins two preparations of the same
    /// tree (by value, by reference, through an `Arc`, or in another
    /// session) to each other in tests; not part of the stable API
    /// surface.
    #[doc(hidden)]
    pub fn assert_structural_eq(&self, other: &PreparedSchema) {
        assert_eq!(self.tree.len(), other.tree.len(), "tree length");
        assert_eq!(self.symbols, other.symbols, "symbols");
        assert_eq!(self.distinct, other.distinct, "distinct symbols");
        assert_eq!(self.node_distinct, other.node_distinct, "node_distinct");
        assert_eq!(self.distinct_folded, other.distinct_folded, "folded labels");
        assert_eq!(self.distinct_tokens, other.distinct_tokens, "tokens");
        assert_eq!(self.waves_height, other.waves_height, "waves_by_height");
        assert_eq!(self.waves_depth, other.waves_depth, "waves_by_depth");
        assert_eq!(self.levels, other.levels, "levels");
        assert_eq!(self.leaf_flags, other.leaf_flags, "leaf_flags");
        assert_eq!(self.leaves, other.leaves, "leaves");
        assert_eq!(self.internals, other.internals, "internals");
        assert_eq!(self.parents, other.parents, "parents");
        assert_eq!(self.node_props, other.node_props, "node_props");
        assert_eq!(self.distinct_props, other.distinct_props, "distinct_props");
    }
}

// Compile-time proof that the session types can be shared across worker
// threads: a serving registry holds one `MatchSession` plus prepared
// schemas behind `RwLock`/`Arc`, and that is only sound if these stay
// `Send + Sync` (no `Rc`, no un-synchronized interior mutability).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<MatchSession>();
    assert_send_sync::<PreparedSchema>();
    assert_send_sync::<CacheStats>();
};

/// Hit/miss counters of the session's cross-schema label cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Distinct-label-pair lookups answered from the cache.
    pub hits: u64,
    /// Distinct-label-pair lookups that had to run the linguistic matcher.
    pub misses: u64,
    /// Token pairs scored to resolve those misses: each build scores every
    /// distinct content-token pair its misses align once.
    pub token_scores: u64,
    /// Distinct label pairs the cache holds. The cache never evicts, so
    /// this only grows over a session's life.
    pub cached_pairs: u64,
}

impl CacheStats {
    /// Fraction of lookups answered from the cache (0.0 when none yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A long-lived matching context: configuration, the name matcher (with its
/// thesaurus), the label interner, the cross-schema label cache, and the
/// worker-thread count every engine run through it fans out to.
///
/// ```
/// use qmatch_core::algorithms::Algorithm;
/// use qmatch_core::session::MatchSession;
/// use qmatch_core::model::MatchConfig;
/// use qmatch_xsd::SchemaTree;
///
/// let session = MatchSession::new(MatchConfig::default());
/// let a = SchemaTree::from_labels("a", &[("a", None), ("OrderNo", Some(0))]);
/// let b = SchemaTree::from_labels("b", &[("b", None), ("OrderNo", Some(0))]);
/// let (pa, pb) = (session.prepare(&a), session.prepare(&b));
/// let outcome = session.run(&Algorithm::Hybrid, &pa, &pb).unwrap();
/// assert!(outcome.total_qom > 0.0);
/// // Prepared schemas are reusable: match again, labels come from cache.
/// let again = session.run(&Algorithm::Hybrid, &pa, &pb).unwrap();
/// assert_eq!(outcome.matrix, again.matrix);
/// ```
pub struct MatchSession {
    config: MatchConfig,
    matcher: NameMatcher,
    /// Shared with the sessions [`MatchSession::share_interner`] joined, so
    /// their prepared schemas carry the same symbols.
    interner: Arc<Mutex<Interner>>,
    /// Source symbol -> [`LabelRow`], shared across every pair matched in
    /// this session. One row per source label: a build resolves each row
    /// once, and the cache grows row by row.
    labels: Mutex<SymMap<LabelRow>>,
    hits: AtomicU64,
    misses: AtomicU64,
    token_scores: AtomicU64,
    cached_pairs: AtomicU64,
    trace: Trace,
    /// Pooled matrix/scratch buffers reused across matches (see
    /// [`MatchArena`]).
    arena: MatchArena,
    /// Worker threads the engines fan out to (see
    /// [`MatchSession::set_threads`]).
    threads: usize,
}

impl MatchSession {
    /// A session with the standard matcher for the config's lexicon mode
    /// (the built-in thesaurus under [`LexiconMode::Full`], an empty one
    /// otherwise).
    ///
    /// [`LexiconMode::Full`]: crate::model::LexiconMode::Full
    pub fn new(config: MatchConfig) -> MatchSession {
        MatchSession::with_matcher(config, matcher_for_mode(config.lexicon))
    }

    /// A session over a caller-supplied matcher (custom thesaurus).
    pub fn with_matcher(config: MatchConfig, matcher: NameMatcher) -> MatchSession {
        MatchSession {
            config,
            matcher,
            interner: Arc::default(),
            labels: Mutex::new(SymMap::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            token_scores: AtomicU64::new(0),
            cached_pairs: AtomicU64::new(0),
            trace: Trace::disabled(),
            arena: MatchArena::default(),
            threads: par::num_threads(),
        }
    }

    /// Makes this session intern labels through `other`'s interner, so a
    /// schema either session prepares can be matched by the other: the
    /// label cache is keyed by symbols, and symbols are only comparable
    /// within one interner. Clears this session's label cache; schemas it
    /// prepared before can no longer be matched by it.
    ///
    /// Takes `&mut self`, like [`MatchSession::set_trace_sink`], so the
    /// interner is fixed before the session is shared.
    pub fn share_interner(&mut self, other: &MatchSession) {
        self.interner = Arc::clone(&other.interner);
        self.labels.get_mut().expect("label cache lock").clear();
    }

    /// Panics unless both schemas' symbols index this session's interner:
    /// a foreign symbol would read another label pair's cached match.
    fn check_symbols(&self, source: &PreparedSchema, target: &PreparedSchema) {
        assert!(
            Arc::ptr_eq(&self.interner, &source.interner)
                && Arc::ptr_eq(&self.interner, &target.interner),
            "a schema prepared through another interner; see MatchSession::share_interner"
        );
    }

    /// Pins the number of worker threads this session's engines fan out to
    /// (clamped to at least 1; 1 runs everything on the calling thread). A
    /// new session starts at [`par::num_threads`]: `QMATCH_THREADS` when
    /// set, otherwise the machine's available parallelism. Scores are
    /// bit-identical for every thread count.
    ///
    /// Takes `&mut self`, like [`MatchSession::set_trace_sink`], so the
    /// count is fixed before the session is shared.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// Worker threads for a job of `cells` similarity cells: 1 below
    /// [`par::PAR_CELL_THRESHOLD`] (thread startup would dominate the
    /// work), the session's count above it.
    pub(crate) fn threads_for(&self, cells: usize) -> usize {
        if cells < par::PAR_CELL_THRESHOLD {
            1
        } else {
            self.threads
        }
    }

    /// The session's worker-thread count, for fan-outs over whole matches
    /// (composite components, corpus pairs) that no cell threshold gates.
    pub(crate) fn threads(&self) -> usize {
        self.threads
    }

    /// Installs a [`TraceSink`]: every subsequent prepare/match/selection
    /// through this session emits per-phase [`Span`]s into it. Tracing only
    /// observes — scores are bit-identical with and without a sink.
    ///
    /// Takes `&mut self` so a sink can only be (re)wired before the session
    /// is shared; a running session's trace handle is immutable.
    pub fn set_trace_sink(&mut self, sink: Arc<dyn TraceSink>) {
        self.trace = Trace::new(sink);
    }

    /// The session's trace handle, for callers that emit their own spans
    /// around session work (e.g. a server's request loop).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The session's configuration.
    pub fn config(&self) -> &MatchConfig {
        &self.config
    }

    /// The session's name matcher.
    pub fn matcher(&self) -> &NameMatcher {
        &self.matcher
    }

    /// Reuse/allocation counters of the session's buffer arena.
    pub fn arena_stats(&self) -> ArenaStats {
        self.arena.stats()
    }

    /// Returns a finished outcome's matrix buffer to the session arena so a
    /// later match of compatible precision can reuse it without allocating
    /// or re-zeroing. Purely an optimization — recycling never changes
    /// scores (property-tested: warm arena == cold arena, bit-identical).
    pub fn recycle(&self, outcome: MatchOutcome) {
        self.arena.put_matrix(outcome.matrix);
    }

    /// Cross-schema label-cache counters so far.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            token_scores: self.token_scores.load(Ordering::Relaxed),
            cached_pairs: self.cached_pairs.load(Ordering::Relaxed),
        }
    }

    /// Derives every per-schema artifact the engines consume. Labels seen in
    /// earlier `prepare` calls reuse their interned fold/tokenize work.
    ///
    /// The prepared schema owns its tree: pass the tree itself, an
    /// `Arc<SchemaTree>` the caller already shares (no copy), or
    /// `&SchemaTree` (copied into a fresh `Arc`).
    pub fn prepare(&self, tree: impl Into<Arc<SchemaTree>>) -> PreparedSchema {
        // Only the conversion is generic: the body below is compiled once,
        // in this crate, not again in every caller's crate.
        self.prepare_shared(tree.into())
    }

    fn prepare_shared(&self, tree: Arc<SchemaTree>) -> PreparedSchema {
        let t0 = self.trace.start();
        // Tree-local dense ids in first-seen order, exactly as the
        // per-pair interning did, so the label table layout (and thus
        // every downstream float) is unchanged.
        let mut distinct: Vec<Symbol> = Vec::new();
        let mut node_distinct = Vec::with_capacity(tree.len());
        let mut distinct_folded = Vec::new();
        let mut distinct_tokens = Vec::new();
        // Two passes, interning every label before deduplicating: one loop
        // doing both measured ~15 % slower on the 3753-node PDB schema.
        let symbols: Vec<Symbol> = {
            let mut interner = self.interner.lock().expect("interner lock");
            let symbols: Vec<Symbol> = tree
                .iter()
                .map(|(_, node)| interner.intern(&node.label))
                .collect();
            let mut local: SymMap<u32> = SymMap::default();
            for &symbol in &symbols {
                let next = local.len() as u32;
                let id = *local.entry(symbol).or_insert(next);
                if id == next {
                    distinct.push(symbol);
                    distinct_folded.push(interner.folded(symbol).to_owned());
                    distinct_tokens.push(interner.tokens(symbol).to_vec());
                }
                node_distinct.push(id);
            }
            symbols
        };
        let leaf_flags = tree.leaf_flags();
        let (leaves, internals) = tree
            .iter()
            .map(|(id, _)| id)
            .partition(|id| leaf_flags[id.index()]);
        let parents = tree
            .iter()
            .map(|(_, n)| n.parent.map_or(u32::MAX, |p| p.0))
            .collect();
        // The distinct property-profile dedup: properties scoring is a pure
        // function of the two profiles, so the kernels only score distinct
        // pairs.
        let mut node_props = Vec::with_capacity(tree.len());
        let mut distinct_props = Vec::new();
        let mut props_ids: HashMap<&Properties, u32> = HashMap::new();
        for (id, node) in tree.iter() {
            let next = props_ids.len() as u32;
            let k = *props_ids.entry(&node.properties).or_insert(next);
            if k == next {
                distinct_props.push(id);
            }
            node_props.push(k);
        }
        let prepared = PreparedSchema {
            interner: Arc::clone(&self.interner),
            symbols,
            distinct,
            node_distinct,
            distinct_folded,
            distinct_tokens,
            waves_height: crate::algorithms::waves_by_height(&tree),
            waves_depth: crate::algorithms::waves_by_depth(&tree),
            levels: tree.levels(),
            leaf_flags,
            leaves,
            internals,
            parents,
            node_props,
            distinct_props,
            tree,
        };
        self.trace.finish(
            t0,
            Span {
                rows: prepared.tree.len() as u64,
                cells: prepared.distinct.len() as u64,
                ..Span::empty(Phase::Prepare)
            },
        );
        prepared
    }

    /// Runs any [`Algorithm`] over two prepared schemas — the one entry
    /// point to every engine. Scheduling follows the session's thread count
    /// ([`MatchSession::set_threads`]); scores do not depend on it.
    ///
    /// Only [`Algorithm::Composite`] can fail (empty component list or
    /// mismatched weights); the other variants always return `Ok`.
    ///
    /// ```
    /// use qmatch_core::algorithms::Algorithm;
    /// use qmatch_core::model::MatchConfig;
    /// use qmatch_core::session::MatchSession;
    /// use qmatch_xsd::SchemaTree;
    ///
    /// let session = MatchSession::new(MatchConfig::default());
    /// let tree = SchemaTree::from_labels("a", &[("a", None), ("b", Some(0))]);
    /// let p = session.prepare(&tree);
    /// let outcome = session.run(&Algorithm::Hybrid, &p, &p).unwrap();
    /// assert!((outcome.total_qom - 1.0).abs() < 1e-9);
    /// ```
    pub fn run(
        &self,
        algorithm: &Algorithm,
        source: &PreparedSchema,
        target: &PreparedSchema,
    ) -> Result<MatchOutcome, CompositeError> {
        self.run_with_precision(algorithm, source, target, self.config.precision)
    }

    /// [`MatchSession::run`] with a per-call storage-[`Precision`] override
    /// (the `precision=` query parameter of `/v1/match*`). The config's
    /// precision is untouched; only this call's matrix storage changes.
    ///
    /// The hybrid, linguistic, structural, and CUPID kernels store in the
    /// requested precision natively; tree-edit and composite compute in
    /// `f64` and convert the finished matrix (identical rounding semantics:
    /// one nearest-`f32` round per cell).
    pub fn run_with_precision(
        &self,
        algorithm: &Algorithm,
        source: &PreparedSchema,
        target: &PreparedSchema,
        precision: Precision,
    ) -> Result<MatchOutcome, CompositeError> {
        Ok(match algorithm {
            Algorithm::Hybrid => self.hybrid_with(source, target, precision),
            Algorithm::Linguistic => self.linguistic_with(source, target, precision),
            Algorithm::Structural => self.structural_with(source, target, precision),
            Algorithm::Cupid => cupid_match_impl(
                source,
                target,
                self.config.cupid,
                &self.pair_labels(source, target),
                self.threads_for(source.tree().len() * target.tree().len()),
                &self.trace,
                &self.arena,
                precision,
            ),
            Algorithm::TreeEdit => convert_outcome(
                tree_edit_match(source.tree(), target.tree(), &self.config),
                precision,
            ),
            Algorithm::Composite {
                components,
                aggregation,
            } => convert_outcome(
                composite_match_impl(self, source, target, components, aggregation)?,
                precision,
            ),
        })
    }

    /// The hybrid (QMatch) engine at the config's precision — the in-crate
    /// shorthand for [`MatchSession::run`] with [`Algorithm::Hybrid`].
    pub(crate) fn hybrid(&self, source: &PreparedSchema, target: &PreparedSchema) -> MatchOutcome {
        self.hybrid_with(source, target, self.config.precision)
    }

    /// The hybrid engine at `precision` (also a composite component).
    pub(crate) fn hybrid_with(
        &self,
        source: &PreparedSchema,
        target: &PreparedSchema,
        precision: Precision,
    ) -> MatchOutcome {
        let labels = self.pair_labels(source, target);
        hybrid_match_impl(
            source,
            target,
            &self.config,
            &labels,
            self.threads_for(source.tree().len() * target.tree().len()),
            &self.trace,
            &self.arena,
            precision,
        )
    }

    /// The flat linguistic matcher (a composite component).
    pub(crate) fn linguistic_with(
        &self,
        source: &PreparedSchema,
        target: &PreparedSchema,
        precision: Precision,
    ) -> MatchOutcome {
        let labels = self.pair_labels(source, target);
        linguistic_match_impl(
            source,
            target,
            &labels,
            self.threads_for(source.tree().len() * target.tree().len()),
            &self.trace,
            &self.arena,
            precision,
        )
    }

    /// The structural matcher (labels unused — no cache traffic; a
    /// composite component).
    pub(crate) fn structural_with(
        &self,
        source: &PreparedSchema,
        target: &PreparedSchema,
        precision: Precision,
    ) -> MatchOutcome {
        structural_match_impl(
            source,
            target,
            &self.config,
            self.threads_for(source.tree().len() * target.tree().len()),
            &self.trace,
            &self.arena,
            precision,
        )
    }

    /// Extracts the 1:1 mapping from a finished similarity matrix at
    /// `threshold`, recording a [`Phase::Select`] span. Identical to
    /// [`extract_mapping`] — selection is deterministic and tracing only
    /// observes.
    pub fn select_mapping(&self, matrix: &SimMatrix, threshold: f64) -> Mapping {
        let t0 = self.trace.start();
        let mapping = extract_mapping(matrix, threshold);
        self.trace.finish(
            t0,
            Span {
                rows: matrix.rows() as u64,
                cells: (matrix.rows() * matrix.cols()) as u64,
                ..Span::empty(Phase::Select)
            },
        );
        mapping
    }

    /// Batch matching: the hybrid engine over every pair, fanned out over
    /// the session's threads, outcomes in input order. Prepared schemas may
    /// repeat across pairs — that is the point.
    pub fn match_corpus(&self, pairs: &[(&PreparedSchema, &PreparedSchema)]) -> Vec<MatchOutcome> {
        par::map_rows(pairs.len(), self.threads, |i| {
            let (source, target) = pairs[i];
            self.hybrid(source, target)
        })
    }

    /// Classifies the root pair on the paper's qualitative taxonomy (§2.2)
    /// from an existing hybrid outcome; the root-label comparison comes from
    /// the session cache.
    pub fn category(
        &self,
        source: &PreparedSchema,
        target: &PreparedSchema,
        outcome: &MatchOutcome,
    ) -> MatchCategory {
        let name = self.label_match(
            source,
            source.tree().root_id(),
            target,
            target.tree().root_id(),
        );
        root_category_with_label(
            source.tree(),
            target.tree(),
            &self.config,
            outcome,
            name.grade,
        )
    }

    /// Explains one node pair against an already-computed hybrid matrix,
    /// with the label axis served from the session cache.
    pub fn explain(
        &self,
        source: &PreparedSchema,
        target: &PreparedSchema,
        s: NodeId,
        t: NodeId,
        matrix: &SimMatrix,
    ) -> Explanation {
        let name = self.label_match(source, s, target, t);
        explain_with_label(
            source.tree(),
            target.tree(),
            s,
            t,
            &self.config,
            matrix,
            name,
        )
    }

    /// The label comparison for one node pair, through the session cache.
    pub fn label_match(
        &self,
        source: &PreparedSchema,
        s: NodeId,
        target: &PreparedSchema,
        t: NodeId,
    ) -> NameMatch {
        self.check_symbols(source, target);
        let i = source.node_distinct[s.index()] as usize;
        let j = target.node_distinct[t.index()] as usize;
        let cached = self
            .labels
            .lock()
            .expect("label cache lock")
            .get(&source.distinct[i])
            .and_then(|row| row.get(target.distinct[j]));
        if let Some(hit) = cached {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut computed = [UNFILLED];
        self.resolve_misses(
            source,
            target,
            &[i * target.distinct.len() + j],
            &mut computed,
        );
        computed[0]
    }

    /// Builds the dense per-pair label table from the session cache,
    /// computing (and caching) only the distinct pairs not seen before.
    pub(crate) fn pair_labels(
        &self,
        source: &PreparedSchema,
        target: &PreparedSchema,
    ) -> LabelMatrix {
        let t0 = self.trace.start();
        let rows = source.distinct.len();
        let cols = target.distinct.len();
        let mut table = vec![UNFILLED; rows * cols];
        let (hits, misses) = self.fill_table(source, target, &mut table);
        let matrix = LabelMatrix::from_parts(
            source.node_distinct.clone(),
            target.node_distinct.clone(),
            cols,
            table,
        );
        self.trace.finish(
            t0,
            Span {
                rows: rows as u64,
                cells: (rows * cols) as u64,
                cache_hits: hits,
                cache_misses: misses,
                ..Span::empty(Phase::Labels)
            },
        );
        matrix
    }

    /// The dense label matrix for a prepared pair, built through the
    /// session cache like the one every engine reads.
    pub fn label_matrix(&self, source: &PreparedSchema, target: &PreparedSchema) -> LabelMatrix {
        self.pair_labels(source, target)
    }

    /// Fills `table` — the dense `source × target` distinct-label table —
    /// from the session cache in one locked pass, then resolves every miss
    /// in one batch ([`MatchSession::resolve_misses`]). Returns the hit and
    /// miss counts, which it also adds to the session's.
    fn fill_table(
        &self,
        source: &PreparedSchema,
        target: &PreparedSchema,
        table: &mut [NameMatch],
    ) -> (u64, u64) {
        self.check_symbols(source, target);
        let cols = target.distinct.len();
        let mut missing: Vec<usize> = Vec::new();
        {
            let cache = self.labels.lock().expect("label cache lock");
            // A row the cache has never seen misses in full: room for those
            // up front, not by doubling.
            let unseen = source
                .distinct
                .iter()
                .filter(|&symbol| !cache.contains_key(symbol))
                .count();
            missing.reserve(unseen * cols);
            for (i, symbol) in source.distinct.iter().enumerate() {
                let Some(row) = cache.get(symbol) else {
                    missing.extend(i * cols..(i + 1) * cols);
                    continue;
                };
                for (j, &symbol) in target.distinct.iter().enumerate() {
                    match row.get(symbol) {
                        Some(hit) => table[i * cols + j] = hit,
                        None => missing.push(i * cols + j),
                    }
                }
            }
        }
        let misses = missing.len() as u64;
        let hits = (source.distinct.len() * cols) as u64 - misses;
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(misses, Ordering::Relaxed);
        if let Some(&first) = missing.first() {
            self.resolve_misses(source, target, &missing, &mut table[first..]);
        }
        (hits, misses)
    }

    /// Compares the label-cache misses `missing` (flat `i * cols + j`
    /// indices, ascending) through one per-build token table
    /// ([`MatchSession::compare_misses`]) into `out` — the table from the
    /// first miss on, so the match of `idx` lands at `out[idx - missing[0]]`
    /// — and caches them under one lock, counting the pairs new to the
    /// cache.
    fn resolve_misses(
        &self,
        source: &PreparedSchema,
        target: &PreparedSchema,
        missing: &[usize],
        out: &mut [NameMatch],
    ) {
        let (cols, first) = (target.distinct.len(), missing[0]);
        let scored = self.compare_misses(source, target, missing, out);
        self.token_scores.fetch_add(scored, Ordering::Relaxed);
        // Every row this build touches grows its known bits once, to the
        // largest target symbol.
        let bound = target.distinct.iter().max().map_or(0, |s| s.index() + 1);
        let mut added = 0;
        let mut cache = self.labels.lock().expect("label cache lock");
        // Ascending indices group by source row: one row lookup per row.
        let mut start = 0;
        while start < missing.len() {
            let i = missing[start] / cols;
            let end = start + missing[start..].partition_point(|&idx| idx / cols == i);
            let row = cache.entry(source.distinct[i]).or_default();
            row.grow(bound);
            for &idx in &missing[start..end] {
                added += u64::from(row.insert(target.distinct[idx % cols], out[idx - first]));
            }
            start = end;
        }
        self.cached_pairs.fetch_add(added, Ordering::Relaxed);
    }
}

/// One source label's row of the session label cache.
///
/// Almost every label pair of a schema collection is unrelated — the
/// cached match `{None, +0.0}` — so a row spends one bit per target symbol
/// on "this pair is cached" and keeps an entry only for the pairs whose
/// match is anything else. A cached pair with no entry reads back as
/// `{None, +0.0}`; a pair whose bit is clear is a miss.
#[derive(Default)]
struct LabelRow {
    /// Bit `t` is set once the pair with target symbol `t` is cached.
    known: Vec<u64>,
    /// The cached matches that are not bit-equal to `{None, +0.0}`.
    matches: SymMap<CachedMatch>,
}

impl LabelRow {
    /// The cached match of the pair with `target`, `None` on a miss.
    #[inline]
    fn get(&self, target: Symbol) -> Option<NameMatch> {
        let (word, bit) = (target.index() / 64, target.index() % 64);
        let known = self.known.get(word).is_some_and(|w| w >> bit & 1 == 1);
        known.then(|| self.matches.get(&target).map_or(UNFILLED, |m| m.get()))
    }

    /// Makes room for the known bits of every target symbol below `bound`.
    fn grow(&mut self, bound: usize) {
        let words = bound.div_ceil(64);
        if words > self.known.len() {
            self.known.reserve_exact(words - self.known.len());
            self.known.resize(words, 0);
        }
    }

    /// Caches `m` for the pair with `target`; returns whether the pair was
    /// new to the row.
    fn insert(&mut self, target: Symbol, m: NameMatch) -> bool {
        let (word, bit) = (target.index() / 64, target.index() % 64);
        self.grow(target.index() + 1);
        let new = self.known[word] >> bit & 1 == 0;
        self.known[word] |= 1 << bit;
        let unrelated =
            m.grade == LabelGrade::None && m.score.to_bits() == UNFILLED.score.to_bits();
        if !unrelated {
            self.matches.insert(target, CachedMatch::new(m));
        }
        new
    }
}

/// A [`NameMatch`] as a [`LabelRow`] keeps it: the score's bits in two
/// `u32` halves, so an entry with its [`Symbol`] key takes 16 bytes, not
/// the 24 an `f64`-aligned `NameMatch` would.
#[derive(Clone, Copy)]
struct CachedMatch {
    score: [u32; 2],
    grade: LabelGrade,
}

const _: () = assert!(std::mem::size_of::<(Symbol, CachedMatch)>() == 16);

impl CachedMatch {
    fn new(m: NameMatch) -> CachedMatch {
        let bits = m.score.to_bits();
        CachedMatch {
            score: [bits as u32, (bits >> 32) as u32],
            grade: m.grade,
        }
    }

    fn get(self) -> NameMatch {
        let [low, high] = self.score;
        NameMatch {
            grade: self.grade,
            score: f64::from_bits(u64::from(low) | u64::from(high) << 32),
        }
    }
}

/// The value a label table holds in a cell until it is filled, and the
/// match a [`LabelRow`] keeps no entry for.
const UNFILLED: NameMatch = NameMatch {
    grade: LabelGrade::None,
    score: 0.0,
};

/// Converts an outcome's matrix storage to `precision` (no-op when it
/// already matches); used by the algorithms whose kernels compute in `f64`.
fn convert_outcome(outcome: MatchOutcome, precision: Precision) -> MatchOutcome {
    MatchOutcome {
        matrix: outcome.matrix.with_precision(precision),
        total_qom: outcome.total_qom,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LexiconMode;
    use qmatch_xsd::SchemaTree;

    fn po() -> SchemaTree {
        SchemaTree::from_labels(
            "PO",
            &[
                ("PO", None),
                ("OrderNo", Some(0)),
                ("Lines", Some(0)),
                ("Item", Some(2)),
                ("Quantity", Some(2)),
            ],
        )
    }

    fn purchase_order() -> SchemaTree {
        SchemaTree::from_labels(
            "PurchaseOrder",
            &[
                ("PurchaseOrder", None),
                ("OrderNo", Some(0)),
                ("Items", Some(0)),
                ("Item", Some(2)),
                ("Qty", Some(2)),
            ],
        )
    }

    #[test]
    fn prepare_collects_the_artifacts() {
        let session = MatchSession::new(MatchConfig::default());
        let tree = po();
        let prepared = session.prepare(&tree);
        assert_eq!(prepared.distinct_labels(), 5);
        assert_eq!(prepared.leaves().len(), 3);
        assert_eq!(prepared.internals().len(), 2);
        assert!(prepared.is_leaf(NodeId(1)));
        assert!(!prepared.is_leaf(NodeId(2)));
        assert_eq!(prepared.level(NodeId(3)), 2);
        // Shared vocabulary across trees shares symbols.
        let other = purchase_order();
        let prepared2 = session.prepare(&other);
        assert_eq!(
            prepared.symbol(NodeId(1)),
            prepared2.symbol(NodeId(1)),
            "OrderNo interned once"
        );
        assert_ne!(prepared.symbol(NodeId(0)), prepared2.symbol(NodeId(0)));
    }

    #[test]
    fn cache_survives_across_pairs() {
        let session = MatchSession::new(MatchConfig::default());
        let (a, b) = (po(), purchase_order());
        let (pa, pb) = (session.prepare(&a), session.prepare(&b));
        let first = session.hybrid(&pa, &pb);
        let after_first = session.cache_stats();
        assert_eq!(after_first.hits, 0);
        assert_eq!(after_first.misses, 25, "5x5 distinct pairs computed once");
        let second = session.hybrid(&pa, &pb);
        let after_second = session.cache_stats();
        assert_eq!(after_second.misses, 25, "no new label work");
        assert_eq!(after_second.hits, 25);
        assert_eq!(first.matrix, second.matrix);
        assert!(after_second.hit_rate() > 0.49 && after_second.hit_rate() < 0.51);
    }

    #[test]
    fn label_match_agrees_with_pair_table() {
        let session = MatchSession::new(MatchConfig::default());
        let (a, b) = (po(), purchase_order());
        let (pa, pb) = (session.prepare(&a), session.prepare(&b));
        let table = session.pair_labels(&pa, &pb);
        for (sid, _) in a.iter() {
            for (tid, _) in b.iter() {
                assert_eq!(session.label_match(&pa, sid, &pb, tid), table.get(sid, tid));
            }
        }
    }

    #[test]
    fn category_and_explain_run_off_the_session() {
        let session = MatchSession::new(MatchConfig::default());
        let (a, b) = (po(), purchase_order());
        let (pa, pb) = (session.prepare(&a), session.prepare(&b));
        let outcome = session.hybrid(&pa, &pb);
        let category = session.category(&pa, &pb, &outcome);
        assert_eq!(
            category,
            crate::algorithms::hybrid_root_category_from(&a, &b, &MatchConfig::default(), &outcome)
        );
        let explanation = session.explain(&pa, &pb, a.root_id(), b.root_id(), &outcome.matrix);
        let direct = crate::explain::explain_with_matrix(
            &a,
            &b,
            a.root_id(),
            b.root_id(),
            &MatchConfig::default(),
            &outcome.matrix,
        );
        assert_eq!(explanation, direct);
    }

    #[test]
    fn match_corpus_reuses_prepared_schemas() {
        let session = MatchSession::new(MatchConfig::default());
        let (a, b) = (po(), purchase_order());
        let (pa, pb) = (session.prepare(&a), session.prepare(&b));
        let outcomes = session.match_corpus(&[(&pa, &pb), (&pa, &pa), (&pb, &pa)]);
        assert_eq!(outcomes.len(), 3);
        assert!((outcomes[1].total_qom - 1.0).abs() < 1e-9, "self-match");
        let single = session.hybrid(&pa, &pb);
        assert_eq!(outcomes[0].matrix, single.matrix);
    }

    #[test]
    fn thread_count_is_pinned_and_gated_by_the_cell_threshold() {
        let mut session = MatchSession::new(MatchConfig::default());
        assert_eq!(session.threads(), par::num_threads());
        session.set_threads(0);
        assert_eq!(session.threads(), 1, "zero clamps to one");
        session.set_threads(4);
        assert_eq!(session.threads_for(par::PAR_CELL_THRESHOLD - 1), 1);
        assert_eq!(session.threads_for(par::PAR_CELL_THRESHOLD), 4);
    }

    /// Symbols only compare within one interner: once a session shares
    /// another's, a schema the other prepared matches as if prepared here,
    /// and the label cache it fills does not poison later local matches.
    #[test]
    fn sessions_sharing_an_interner_match_each_others_schemas() {
        let owner = MatchSession::new(MatchConfig::default());
        let mut other = MatchSession::new(MatchConfig::default());
        other.share_interner(&owner);
        let book = SchemaTree::from_labels(
            "Book",
            &[("Book", None), ("Title", Some(0)), ("Author", Some(0))],
        );
        let (pa, pb) = (other.prepare(po()), owner.prepare(&book));
        let reference = MatchSession::new(MatchConfig::default());
        let want = reference.hybrid(&reference.prepare(po()), &reference.prepare(&book));
        assert_eq!(other.hybrid(&pa, &pb).matrix, want.matrix);
        assert_eq!(other.hybrid(&pa, &pa).total_qom, 1.0, "self-match");
    }

    #[test]
    #[should_panic(expected = "another interner")]
    fn a_schema_from_another_interner_is_refused() {
        let (a, b) = (
            MatchSession::new(MatchConfig::default()),
            MatchSession::new(MatchConfig::default()),
        );
        let (pa, pb) = (a.prepare(po()), b.prepare(purchase_order()));
        a.hybrid(&pa, &pb);
    }

    #[test]
    fn prepare_by_value_by_reference_and_by_arc_agree() {
        let session = MatchSession::new(MatchConfig::default());
        let (a, b) = (po(), purchase_order());
        let shared = Arc::new(po());
        let by_value = session.prepare(po());
        let by_ref = session.prepare(&a);
        let by_arc = session.prepare(shared.clone());
        by_value.assert_structural_eq(&by_ref);
        by_value.assert_structural_eq(&by_arc);
        assert!(
            Arc::ptr_eq(&by_arc.tree, &shared),
            "an Arc is kept, not copied"
        );
        let bits = |m: &SimMatrix| -> Vec<u64> {
            (0..m.rows() as u32)
                .flat_map(|r| m.row(NodeId(r)).iter().map(|v| v.to_bits()))
                .collect()
        };
        let pb = session.prepare(&b);
        let want = session.hybrid(&by_ref, &pb);
        for got in [session.hybrid(&by_value, &pb), session.hybrid(&by_arc, &pb)] {
            assert_eq!(bits(&got.matrix), bits(&want.matrix));
            assert_eq!(got.total_qom.to_bits(), want.total_qom.to_bits());
        }
    }

    #[test]
    fn prepared_schemas_outlive_the_callers_tree() {
        let session = Arc::new(MatchSession::new(MatchConfig::default()));
        let (a, b) = (po(), purchase_order());
        let (pa, pb) = (session.prepare(&a), session.prepare(&b));
        let want = session.hybrid(&pa, &pb);
        drop((a, b));
        let worker = session.clone();
        let got = std::thread::spawn(move || worker.hybrid(&pa, &pb))
            .join()
            .expect("worker thread");
        assert_eq!(got.matrix, want.matrix);
        assert_eq!(got.total_qom.to_bits(), want.total_qom.to_bits());
    }

    #[test]
    fn prepared_schemas_are_shareable_across_threads() {
        let session = Arc::new(MatchSession::new(MatchConfig::default()));
        let pa = Arc::new(session.prepare(po()));
        let pb = Arc::new(session.prepare(purchase_order()));
        let baseline = session.hybrid(&pa, &pb);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let (session, pa, pb) = (session.clone(), pa.clone(), pb.clone());
                std::thread::spawn(move || session.hybrid(&pa, &pb))
            })
            .collect();
        for h in handles {
            let outcome = h.join().expect("worker thread");
            assert_eq!(outcome.matrix, baseline.matrix);
        }
    }

    #[test]
    fn label_rows_read_back_every_match_bit_for_bit() {
        let m = |grade, score| NameMatch { grade, score };
        let values = [
            m(LabelGrade::None, 0.0),
            m(LabelGrade::None, -0.0),
            m(LabelGrade::None, 0.3),
            m(LabelGrade::Relaxed, 0.0),
            m(LabelGrade::Exact, 1.0),
        ];
        let bits = |m: NameMatch| (m.grade, m.score.to_bits());
        for value in values {
            let mut row = LabelRow::default();
            for t in [0, 63, 64] {
                assert!(row.get(Symbol(t)).is_none(), "a fresh row misses");
                assert!(row.insert(Symbol(t), value), "first insert is new");
                assert!(!row.insert(Symbol(t), value), "second insert is not");
            }
            for t in [0, 63, 64] {
                let got = row.get(Symbol(t)).expect("cached pair hits");
                assert_eq!(bits(got), bits(value), "symbol {t}");
            }
            assert!(row.get(Symbol(1)).is_none(), "an uncached pair in range");
            let past = Symbol(row.known.len() as u32 * 64);
            assert!(row.get(past).is_none(), "past the bits is a miss");
            // Only the `{None, +0.0}` match goes without an entry.
            let unrelated = bits(value) == bits(UNFILLED);
            assert_eq!(row.matches.is_empty(), unrelated, "{value:?}");
        }
    }

    #[test]
    fn exact_only_mode_uses_prefolded_labels() {
        let config = MatchConfig {
            lexicon: LexiconMode::ExactOnly,
            ..MatchConfig::default()
        };
        let session = MatchSession::new(config);
        let a = SchemaTree::from_labels("writer", &[("writer", None)]);
        let b = SchemaTree::from_labels("WRITER", &[("WRITER", None)]);
        let (pa, pb) = (session.prepare(&a), session.prepare(&b));
        let m = session.label_match(&pa, NodeId(0), &pb, NodeId(0));
        assert_eq!(m.grade, LabelGrade::Exact);
        let c = SchemaTree::from_labels("Author", &[("Author", None)]);
        let pc = session.prepare(&c);
        assert_eq!(
            session.label_match(&pa, NodeId(0), &pc, NodeId(0)).grade,
            LabelGrade::None,
            "no thesaurus in exact-only mode"
        );
    }
}
