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
use crate::intern::{Interner, Symbol};
use crate::mapping::{extract_mapping, Mapping};
use crate::matrix::{Precision, SimMatrix};
use crate::model::{LexiconMode, MatchConfig};
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
/// Borrowing the tree keeps preparation allocation-light; the artifacts are
/// dense tables indexed by [`NodeId::index`], so the match hot path does no
/// hashing and no string work.
pub struct PreparedSchema<'t> {
    pub(crate) tree: &'t SchemaTree,
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
    /// Per-node property profile (dense pointer table into the tree).
    pub(crate) props: Vec<&'t Properties>,
    /// Per-node parent index (`u32::MAX` for the root).
    pub(crate) parents: Vec<u32>,
    /// Per-node index into `distinct_props` (the tree-local dense property
    /// profile id) — lets the kernels score properties once per distinct
    /// profile pair instead of once per node pair.
    pub(crate) node_props: Vec<u32>,
    /// Distinct property profiles in first-seen (pre-order) order.
    pub(crate) distinct_props: Vec<&'t Properties>,
}

impl<'t> PreparedSchema<'t> {
    /// The underlying tree.
    pub fn tree(&self) -> &'t SchemaTree {
        self.tree
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
    pub fn props(&self, id: NodeId) -> &'t Properties {
        self.props[id.index()]
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

    /// Distinct property profiles, indexed by the ids in
    /// [`PreparedSchema::node_props_raw`].
    pub(crate) fn distinct_props_raw(&self) -> &[&'t Properties] {
        &self.distinct_props
    }

    /// Test support: asserts every derived table of `self` equals `other`'s,
    /// naming the first differing table. Pins the incremental re-prepare
    /// ([`MatchSession::reprepare`]) to the from-scratch
    /// [`MatchSession::prepare`] in property tests; not part of the stable
    /// API surface.
    #[doc(hidden)]
    pub fn assert_structural_eq(&self, other: &PreparedSchema<'_>) {
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
        assert_eq!(self.props, other.props, "props");
        assert_eq!(self.distinct_props, other.distinct_props, "distinct_props");
    }
}

/// A [`PreparedSchema`] that keeps its [`SchemaTree`] alive through an
/// [`Arc`], so it has no outward lifetime and can live in long-lived
/// registries shared across worker threads (the serving workload).
///
/// Constructed by [`MatchSession::prepare_owned`]; borrow the engine-facing
/// view with [`OwnedPreparedSchema::prepared`].
pub struct OwnedPreparedSchema {
    /// Internally borrows from the `Arc` allocation in `tree` below. The
    /// `'static` lifetime is a private fiction: it never escapes this
    /// struct (`prepared()` re-shortens it to the borrow of `self`), and
    /// the field order makes the borrower drop before the owner.
    prepared: PreparedSchema<'static>,
    tree: Arc<SchemaTree>,
}

impl OwnedPreparedSchema {
    /// The engine-facing prepared view, borrowed no longer than `self`.
    pub fn prepared(&self) -> &PreparedSchema<'_> {
        // Covariance over the tree lifetime shortens `'static` to the
        // lifetime of `&self`, so callers can never outlive the `Arc`.
        &self.prepared
    }

    /// The shared tree this prepared schema keeps alive.
    pub fn tree_arc(&self) -> &Arc<SchemaTree> {
        &self.tree
    }

    /// Assembles an owned prepared schema from a prepared view borrowing the
    /// `Arc` allocation of `tree`. Upholds the same invariant as
    /// [`MatchSession::prepare_owned`]: `prepared` must have been built from
    /// a `&'static SchemaTree` fabricated from this very `Arc`.
    pub(crate) fn from_raw_parts(
        prepared: PreparedSchema<'static>,
        tree: Arc<SchemaTree>,
    ) -> OwnedPreparedSchema {
        OwnedPreparedSchema { prepared, tree }
    }
}

// Compile-time proof that the session types can be shared across worker
// threads: a serving registry holds one `MatchSession` plus prepared
// schemas behind `RwLock`/`Arc`, and that is only sound if these stay
// `Send + Sync` (no `Rc`, no un-synchronized interior mutability).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<MatchSession>();
    assert_send_sync::<PreparedSchema<'static>>();
    assert_send_sync::<OwnedPreparedSchema>();
    assert_send_sync::<CacheStats>();
};

/// Hit/miss counters of the session's cross-schema label cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Distinct-label-pair lookups answered from the cache.
    pub hits: u64,
    /// Distinct-label-pair lookups that had to run the linguistic matcher.
    pub misses: u64,
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
    interner: Mutex<Interner>,
    /// `(Symbol, Symbol) -> NameMatch`, shared across every pair matched in
    /// this session.
    labels: Mutex<HashMap<(u32, u32), NameMatch>>,
    hits: AtomicU64,
    misses: AtomicU64,
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
    pub fn new(config: MatchConfig) -> MatchSession {
        MatchSession::with_matcher(config, matcher_for_mode(config.lexicon))
    }

    /// A session over a caller-supplied matcher (custom thesaurus).
    pub fn with_matcher(config: MatchConfig, matcher: NameMatcher) -> MatchSession {
        MatchSession {
            config,
            matcher,
            interner: Mutex::new(Interner::new()),
            labels: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            trace: Trace::disabled(),
            arena: MatchArena::default(),
            threads: par::num_threads(),
        }
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

    /// The session's buffer arena (for the evolve engine, which drives the
    /// kernels directly).
    pub(crate) fn arena(&self) -> &MatchArena {
        &self.arena
    }

    /// The session's label interner (for the incremental re-prepare).
    pub(crate) fn interner(&self) -> &Mutex<Interner> {
        &self.interner
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
        }
    }

    /// Derives every per-schema artifact the engines consume. Labels seen in
    /// earlier `prepare` calls reuse their interned fold/tokenize work.
    pub fn prepare<'t>(&self, tree: &'t SchemaTree) -> PreparedSchema<'t> {
        let t0 = self.trace.start();
        let mut symbols = Vec::with_capacity(tree.len());
        let mut distinct: Vec<Symbol> = Vec::new();
        let mut node_distinct = Vec::with_capacity(tree.len());
        let mut distinct_folded: Vec<String> = Vec::new();
        let mut distinct_tokens: Vec<Vec<Token>> = Vec::new();
        {
            let mut interner = self.interner.lock().expect("interner lock");
            // Tree-local dense ids in first-seen order, exactly as the
            // per-pair interning did, so the label table layout (and thus
            // every downstream float) is unchanged.
            let mut local: HashMap<Symbol, u32> = HashMap::new();
            for (_, node) in tree.iter() {
                let symbol = interner.intern(&node.label);
                symbols.push(symbol);
                let next = local.len() as u32;
                let id = *local.entry(symbol).or_insert(next);
                if id == next {
                    distinct.push(symbol);
                    distinct_folded.push(interner.folded(symbol).to_owned());
                    distinct_tokens.push(interner.tokens(symbol).to_vec());
                }
                node_distinct.push(id);
            }
        }
        let levels = tree.levels();
        let leaf_flags = tree.leaf_flags();
        let mut leaves = Vec::new();
        let mut internals = Vec::new();
        for (id, _) in tree.iter() {
            if leaf_flags[id.index()] {
                leaves.push(id);
            } else {
                internals.push(id);
            }
        }
        // Dense parent table (u32::MAX marks the root) and the distinct
        // property-profile dedup: properties scoring is a pure function of
        // the two profiles, so the kernels only score distinct pairs.
        let mut parents = Vec::with_capacity(tree.len());
        let mut node_props = Vec::with_capacity(tree.len());
        let mut distinct_props: Vec<&'t Properties> = Vec::new();
        let mut props_ids: HashMap<&'t Properties, u32> = HashMap::new();
        for (_, node) in tree.iter() {
            parents.push(node.parent.map_or(u32::MAX, |p| p.0));
            let next = props_ids.len() as u32;
            let id = *props_ids.entry(&node.properties).or_insert(next);
            if id == next {
                distinct_props.push(&node.properties);
            }
            node_props.push(id);
        }
        let prepared = PreparedSchema {
            tree,
            symbols,
            distinct,
            node_distinct,
            distinct_folded,
            distinct_tokens,
            waves_height: crate::algorithms::waves_by_height(tree),
            waves_depth: crate::algorithms::waves_by_depth(tree),
            levels,
            leaf_flags,
            leaves,
            internals,
            props: tree.iter().map(|(_, n)| &n.properties).collect(),
            parents,
            node_props,
            distinct_props,
        };
        self.trace.finish(
            t0,
            Span {
                rows: tree.len() as u64,
                cells: prepared.distinct.len() as u64,
                ..Span::empty(Phase::Prepare)
            },
        );
        prepared
    }

    /// Like [`MatchSession::prepare`], but the result owns the tree (via
    /// the `Arc`) instead of borrowing it, so it can be stored in a
    /// registry and shared across threads for the prepare-once/serve-many
    /// workload. Bit-identical to preparing the same tree by reference.
    pub fn prepare_owned(&self, tree: Arc<SchemaTree>) -> OwnedPreparedSchema {
        // SAFETY: the reference produced here points into the `Arc`
        // allocation, which is immutable (shared `Arc` contents are never
        // handed out mutably) and stays at a stable address for as long as
        // any clone of the `Arc` exists. The returned `OwnedPreparedSchema`
        // stores such a clone alongside the borrowing `PreparedSchema` and
        // only ever re-exposes it at the shorter lifetime of `&self`, so
        // the fabricated `'static` cannot be observed after the tree drops.
        let raw: &'static SchemaTree = unsafe { &*Arc::as_ptr(&tree) };
        let prepared = self.prepare(raw);
        OwnedPreparedSchema { prepared, tree }
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
        let i = source.node_distinct[s.index()] as usize;
        let j = target.node_distinct[t.index()] as usize;
        let key = (source.distinct[i].0, target.distinct[j].0);
        if let Some(&hit) = self.labels.lock().expect("label cache lock").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let computed = self.compare_distinct(source, i, target, j);
        self.labels
            .lock()
            .expect("label cache lock")
            .insert(key, computed);
        computed
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
        let mut table: Vec<Option<NameMatch>> = Vec::with_capacity(rows * cols);
        let mut missing: Vec<usize> = Vec::new();
        {
            let cache = self.labels.lock().expect("label cache lock");
            for i in 0..rows {
                for j in 0..cols {
                    let key = (source.distinct[i].0, target.distinct[j].0);
                    match cache.get(&key) {
                        Some(&hit) => table.push(Some(hit)),
                        None => {
                            missing.push(i * cols + j);
                            table.push(None);
                        }
                    }
                }
            }
        }
        let miss_count = missing.len() as u64;
        self.hits
            .fetch_add(rows as u64 * cols as u64 - miss_count, Ordering::Relaxed);
        self.misses.fetch_add(miss_count, Ordering::Relaxed);
        if !missing.is_empty() {
            // Misses are pure label comparisons — safe to fan out; the
            // values are identical however they are scheduled.
            let threads = self.threads_for(missing.len());
            let computed: Vec<NameMatch> = par::map_rows(missing.len(), threads, |k| {
                let idx = missing[k];
                self.compare_distinct(source, idx / cols, target, idx % cols)
            });
            let mut cache = self.labels.lock().expect("label cache lock");
            for (k, &idx) in missing.iter().enumerate() {
                let (i, j) = (idx / cols, idx % cols);
                cache.insert((source.distinct[i].0, target.distinct[j].0), computed[k]);
                table[idx] = Some(computed[k]);
            }
        }
        let matrix = LabelMatrix::from_parts(
            source.node_distinct.clone(),
            target.node_distinct.clone(),
            cols,
            table
                .into_iter()
                .map(|m| m.expect("table filled"))
                .collect(),
        );
        self.trace.finish(
            t0,
            Span {
                rows: rows as u64,
                cells: (rows * cols) as u64,
                cache_hits: rows as u64 * cols as u64 - miss_count,
                cache_misses: miss_count,
                ..Span::empty(Phase::Labels)
            },
        );
        matrix
    }

    /// The dense label matrix for a prepared pair — the reusable artifact
    /// [`MatchSession::rematch_evolved`] copies forward across revisions.
    pub fn label_matrix(&self, source: &PreparedSchema, target: &PreparedSchema) -> LabelMatrix {
        self.pair_labels(source, target)
    }

    /// Builds the label matrix for `(new_source, target)` by reusing
    /// `old_labels` — the matrix previously built for `(old_source,
    /// target)` in this session. Distinct labels present in both revisions
    /// copy their comparison row wholesale (label comparisons are pure in
    /// the symbol pair, so the copied row is bit-identical to a recompute);
    /// only the new revision's fresh labels go through the cache/compare
    /// path. Returns `None` when `old_labels` does not line up with
    /// `old_source`/`target`, in which case the caller must fall back to
    /// [`MatchSession::pair_labels`].
    pub(crate) fn pair_labels_evolved(
        &self,
        old_source: &PreparedSchema,
        old_labels: &LabelMatrix,
        new_source: &PreparedSchema,
        target: &PreparedSchema,
    ) -> Option<LabelMatrix> {
        let rows = new_source.distinct.len();
        let cols = target.distinct.len();
        if old_labels.distinct_cols_raw() != cols
            || old_labels.distinct_rows_raw() != old_source.distinct.len()
        {
            return None;
        }
        let t0 = self.trace.start();
        let old_row: HashMap<Symbol, usize> = old_source
            .distinct
            .iter()
            .enumerate()
            .map(|(i, &symbol)| (symbol, i))
            .collect();
        let placeholder = NameMatch {
            grade: LabelGrade::None,
            score: 0.0,
        };
        let mut table: Vec<NameMatch> = Vec::with_capacity(rows * cols);
        let mut fresh: Vec<usize> = Vec::new();
        for i in 0..rows {
            match old_row.get(&new_source.distinct[i]) {
                Some(&old_i) => table.extend_from_slice(old_labels.distinct_row_raw(old_i)),
                None => {
                    fresh.push(i);
                    table.resize(table.len() + cols, placeholder);
                }
            }
        }
        let copied = (rows - fresh.len()) as u64 * cols as u64;
        let mut hit_count = 0u64;
        let mut miss_count = 0u64;
        for &i in &fresh {
            for j in 0..cols {
                let key = (new_source.distinct[i].0, target.distinct[j].0);
                let cached = self
                    .labels
                    .lock()
                    .expect("label cache lock")
                    .get(&key)
                    .copied();
                let value = match cached {
                    Some(hit) => {
                        hit_count += 1;
                        hit
                    }
                    None => {
                        miss_count += 1;
                        let computed = self.compare_distinct(new_source, i, target, j);
                        self.labels
                            .lock()
                            .expect("label cache lock")
                            .insert(key, computed);
                        computed
                    }
                };
                table[i * cols + j] = value;
            }
        }
        self.hits.fetch_add(hit_count, Ordering::Relaxed);
        self.misses.fetch_add(miss_count, Ordering::Relaxed);
        let matrix = LabelMatrix::from_parts(
            new_source.node_distinct.clone(),
            target.node_distinct.clone(),
            cols,
            table,
        );
        self.trace.finish(
            t0,
            Span {
                rows: rows as u64,
                cells: (rows * cols) as u64,
                skipped: copied,
                cache_hits: hit_count,
                cache_misses: miss_count,
                ..Span::empty(Phase::Labels)
            },
        );
        Some(matrix)
    }

    /// One distinct-label-pair comparison, off the prepared (pre-folded,
    /// pre-tokenized) forms — no per-call `to_lowercase`, no re-tokenizing.
    fn compare_distinct(
        &self,
        source: &PreparedSchema,
        i: usize,
        target: &PreparedSchema,
        j: usize,
    ) -> NameMatch {
        match self.config.lexicon {
            LexiconMode::ExactOnly => {
                if source.distinct_folded[i] == target.distinct_folded[j] {
                    NameMatch {
                        grade: LabelGrade::Exact,
                        score: 1.0,
                    }
                } else {
                    NameMatch {
                        grade: LabelGrade::None,
                        score: 0.0,
                    }
                }
            }
            LexiconMode::Full | LexiconMode::FuzzyOnly => self
                .matcher
                .compare_tokens(&source.distinct_tokens[i], &target.distinct_tokens[j]),
        }
    }
}

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

    #[test]
    fn prepare_owned_matches_borrowed_bit_for_bit() {
        let session = MatchSession::new(MatchConfig::default());
        let (a, b) = (po(), purchase_order());
        let (pa, pb) = (session.prepare(&a), session.prepare(&b));
        let expected = session.hybrid(&pa, &pb);
        let oa = session.prepare_owned(Arc::new(po()));
        let ob = session.prepare_owned(Arc::new(purchase_order()));
        let got = session.hybrid(oa.prepared(), ob.prepared());
        assert_eq!(expected.matrix, got.matrix);
        assert_eq!(expected.total_qom, got.total_qom);
        assert_eq!(oa.tree_arc().len(), 5);
    }

    #[test]
    fn owned_prepared_schemas_are_shareable_across_threads() {
        let session = Arc::new(MatchSession::new(MatchConfig::default()));
        let oa = Arc::new(session.prepare_owned(Arc::new(po())));
        let ob = Arc::new(session.prepare_owned(Arc::new(purchase_order())));
        let baseline = session.hybrid(oa.prepared(), ob.prepared());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let (session, oa, ob) = (session.clone(), oa.clone(), ob.clone());
                std::thread::spawn(move || session.hybrid(oa.prepared(), ob.prepared()))
            })
            .collect();
        for h in handles {
            let outcome = h.join().expect("worker thread");
            assert_eq!(outcome.matrix, baseline.matrix);
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
