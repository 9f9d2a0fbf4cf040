//! The match algorithms: linguistic, structural, hybrid (QMatch, Figure 3),
//! and a tree-edit-distance baseline.
//!
//! The engines are selected through the [`Algorithm`] enum and executed by
//! [`MatchSession::run`] over prepared schemas; every run returns a
//! [`MatchOutcome`] holding the full node-pair similarity matrix plus the
//! whole-schema QoM, so mapping extraction and evaluation treat them
//! uniformly.
//!
//! The engines execute in level-synchronous *waves* (see DESIGN.md): the
//! label axis is precomputed into an immutable [`LabelMatrix`], and the
//! bottom-up TreeMatch recurrences fill whole source-node rows concurrently
//! on the session's worker threads. Every thread count — one included —
//! produces bit-identical matrices.

mod composite;
mod cupid;
mod hybrid;
mod linguistic;
mod structural;
mod tree_edit;

pub use composite::{Aggregation, Component, CompositeError};
pub use cupid::mapping_generation_leaves;
pub use hybrid::{hybrid_root_category, hybrid_root_category_from};

pub(crate) use composite::composite_match_impl;
pub(crate) use cupid::cupid_match_impl;
pub(crate) use hybrid::{hybrid_match_impl, root_category_with_label, root_qom_bound};
pub(crate) use linguistic::linguistic_match_impl;
pub(crate) use structural::structural_match_impl;
pub(crate) use tree_edit::tree_edit_match;

use crate::matrix::SimMatrix;
use crate::model::{LexiconMode, MatchConfig};
use crate::session::MatchSession;
use qmatch_lexicon::name_match::{LabelGrade, NameMatch, NameMatcher};
use qmatch_lexicon::thesaurus::Thesaurus;
use qmatch_lexicon::tokenize::tokenize;
use qmatch_xsd::{NodeId, SchemaTree};

/// Selects which engine [`MatchSession::run`] executes — the one entry
/// point to every engine.
///
/// Prepare each schema once with [`MatchSession::prepare`], then run any
/// algorithm over the prepared pair; label comparisons share the session's
/// cross-schema cache across runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Algorithm {
    /// QMatch (paper Figure 3) — the session default.
    Hybrid,
    /// CUPID-style label matcher (labels only).
    Linguistic,
    /// Label-free structure matcher.
    Structural,
    /// Full-fidelity CUPID (Madhavan et al., VLDB 2001): structural
    /// similarity propagation with `th_high`/`th_low` thresholds and
    /// `c_inc`/`c_dec` adjustment over the leaf initialization (see
    /// [`crate::model::CupidParams`]).
    Cupid,
    /// Nierman–Jagadish-style tree-edit-distance baseline.
    TreeEdit,
    /// COMA-style composite: run several components, aggregate per cell.
    Composite {
        /// The component matchers to run.
        components: Vec<Component>,
        /// How the component matrices combine.
        aggregation: Aggregation,
    },
}

impl Algorithm {
    /// Stable lowercase name (CLI/HTTP `algo=` values).
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Hybrid => "hybrid",
            Algorithm::Linguistic => "linguistic",
            Algorithm::Structural => "structural",
            Algorithm::Cupid => "cupid",
            Algorithm::TreeEdit => "tree-edit",
            Algorithm::Composite { .. } => "composite",
        }
    }
}

/// The result of running a match algorithm.
#[derive(Debug, Clone)]
pub struct MatchOutcome {
    /// Similarity for every (source node, target node) pair.
    pub matrix: SimMatrix,
    /// The whole-schema match value. For the recursive algorithms this is
    /// the QoM of the two roots (what Figure 3 "presents to the user"); for
    /// the flat linguistic matcher it is the mean best label similarity per
    /// source node.
    pub total_qom: f64,
}

/// The label matcher for a lexicon mode (with or without the thesaurus).
pub(crate) fn matcher_for_mode(mode: LexiconMode) -> NameMatcher {
    match mode {
        LexiconMode::Full => NameMatcher::with_default_thesaurus(),
        LexiconMode::FuzzyOnly | LexiconMode::ExactOnly => NameMatcher::new(Thesaurus::new()),
    }
}

/// Compares one label pair directly under a lexicon mode — the single-pair
/// (diagnostic) path; whole-schema runs go through [`LabelMatrix`], which
/// performs the identical computation per distinct pair.
pub(crate) fn compare_single_labels(
    a: &str,
    b: &str,
    mode: LexiconMode,
    matcher: &NameMatcher,
) -> NameMatch {
    match mode {
        LexiconMode::ExactOnly => {
            if a.to_lowercase() == b.to_lowercase() {
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
        LexiconMode::Full | LexiconMode::FuzzyOnly => {
            matcher.compare_tokens(&tokenize(a), &tokenize(b))
        }
    }
}

/// Precomputed label-similarity matrix shared by the engines.
///
/// Each distinct source/target label pair is compared exactly once into a
/// dense `distinct_src × distinct_tgt` table of [`NameMatch`]es; lookups are
/// then two array reads and a multiply — no hashing, no mutation, no locks.
/// The table is built by [`crate::session::MatchSession`], whose
/// cross-schema `(Symbol, Symbol)` cache means a distinct pair already seen
/// in an earlier match of the same session is not even re-compared; these
/// constructors spin up an ephemeral session for the one-shot case.
pub struct LabelMatrix {
    source_ids: Vec<u32>,
    target_ids: Vec<u32>,
    distinct_cols: usize,
    table: Vec<NameMatch>,
}

impl LabelMatrix {
    /// Builds the matrix for a lexicon mode (constructing the matcher).
    pub fn new(source: &SchemaTree, target: &SchemaTree, mode: LexiconMode) -> LabelMatrix {
        Self::with_matcher(source, target, mode, &matcher_for_mode(mode))
    }

    /// Builds the matrix over a caller-supplied matcher (custom thesaurus).
    pub fn with_matcher(
        source: &SchemaTree,
        target: &SchemaTree,
        mode: LexiconMode,
        matcher: &NameMatcher,
    ) -> LabelMatrix {
        let config = MatchConfig {
            lexicon: mode,
            ..MatchConfig::default()
        };
        let session = MatchSession::with_matcher(config, matcher.clone());
        let (sp, tp) = (session.prepare(source), session.prepare(target));
        session.pair_labels(&sp, &tp)
    }

    /// Assembles a matrix from session-computed parts: per-node distinct
    /// ids for both trees and the dense distinct-pair table.
    pub(crate) fn from_parts(
        source_ids: Vec<u32>,
        target_ids: Vec<u32>,
        distinct_cols: usize,
        table: Vec<NameMatch>,
    ) -> LabelMatrix {
        LabelMatrix {
            source_ids,
            target_ids,
            distinct_cols,
            table,
        }
    }

    /// The label comparison for a source and a target node.
    #[inline]
    pub fn get(&self, s: NodeId, t: NodeId) -> NameMatch {
        let row = self.source_ids[s.index()] as usize;
        let col = self.target_ids[t.index()] as usize;
        self.table[row * self.distinct_cols + col]
    }

    /// Number of distinct label pairs held (the table size).
    pub fn distinct_pairs(&self) -> usize {
        self.table.len()
    }

    /// The distinct score table flattened to `f64`, row-major — the hybrid
    /// kernel gathers label scores from its contiguous rows instead of going
    /// through [`LabelMatrix::get`]'s `NodeId` arithmetic per cell.
    pub(crate) fn score_table(&self) -> Vec<f64> {
        self.table.iter().map(|m| m.score).collect()
    }

    /// Per-source-node row indices into the distinct table.
    pub(crate) fn source_ids_raw(&self) -> &[u32] {
        &self.source_ids
    }

    /// Per-target-node column indices into the distinct table.
    pub(crate) fn target_ids_raw(&self) -> &[u32] {
        &self.target_ids
    }

    /// Width (distinct target labels) of the distinct table.
    pub(crate) fn distinct_cols_raw(&self) -> usize {
        self.distinct_cols
    }

    /// Height (distinct source labels) of the distinct table.
    pub(crate) fn distinct_rows_raw(&self) -> usize {
        self.table
            .len()
            .checked_div(self.distinct_cols)
            .unwrap_or(0)
    }
}

// The full table is thousands of cells; a dimensional summary is what a
// debug dump wants.
impl std::fmt::Debug for LabelMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LabelMatrix")
            .field("source_nodes", &self.source_ids.len())
            .field("target_nodes", &self.target_ids.len())
            .field("distinct_rows", &self.distinct_rows_raw())
            .field("distinct_cols", &self.distinct_cols)
            .finish_non_exhaustive()
    }
}

/// Post-order traversal of a tree's node ids (children before parents).
pub(crate) fn postorder(tree: &SchemaTree) -> Vec<NodeId> {
    // The arena is built pre-order, so reversing index order yields a valid
    // bottom-up order (every child has a higher index than its parent).
    (0..tree.len() as u32).rev().map(NodeId).collect()
}

/// Bottom-up waves for the TreeMatch DP: wave `k` holds every node of
/// *height* `k` (leaves first). A row's recurrence reads only child rows,
/// which sit in strictly lower waves, so all rows of one wave can be
/// computed concurrently.
pub(crate) fn waves_by_height(tree: &SchemaTree) -> Vec<Vec<NodeId>> {
    let mut height = vec![0u32; tree.len()];
    for idx in (0..tree.len()).rev() {
        // Children have higher indices, so their heights are already final.
        let node = tree.node(NodeId(idx as u32));
        height[idx] = node
            .children
            .iter()
            .map(|c| height[c.index()] + 1)
            .max()
            .unwrap_or(0);
    }
    let max_height = height.iter().copied().max().unwrap_or(0) as usize;
    let mut waves = vec![Vec::new(); max_height + 1];
    for (idx, &h) in height.iter().enumerate() {
        waves[h as usize].push(NodeId(idx as u32));
    }
    waves
}

/// Top-down waves: wave `k` holds every node at nesting level `k`. A
/// context row reads only the parent's row, one wave earlier.
pub(crate) fn waves_by_depth(tree: &SchemaTree) -> Vec<Vec<NodeId>> {
    let max_level = tree.iter().map(|(_, n)| n.level).max().unwrap_or(0) as usize;
    let mut waves = vec![Vec::new(); max_level + 1];
    for (id, node) in tree.iter() {
        waves[node.level as usize].push(id);
    }
    waves
}

/// Greedy 1:1 assignment over the cross product of two id slices: pairs are
/// taken in descending score order, skipping already-used nodes. Returns the
/// chosen pairs `(source_child_index, target_child_index, score)`.
pub(crate) fn greedy_assignment(
    scores: &[Vec<f64>], // scores[i][j] for source child i vs target child j
) -> Vec<(usize, usize, f64)> {
    let rows = scores.len();
    let cols = scores.first().map_or(0, Vec::len);
    let mut pairs: Vec<(usize, usize, f64)> = Vec::with_capacity(rows * cols);
    for (i, row) in scores.iter().enumerate() {
        for (j, &v) in row.iter().enumerate() {
            if v > 0.0 {
                pairs.push((i, j, v));
            }
        }
    }
    pairs.sort_by(|a, b| b.2.total_cmp(&a.2));
    let mut used_i = vec![false; rows];
    let mut used_j = vec![false; cols];
    let mut out = Vec::new();
    for (i, j, v) in pairs {
        if !used_i[i] && !used_j[j] {
            used_i[i] = true;
            used_j[j] = true;
            out.push((i, j, v));
        }
    }
    out
}

/// Test support: runs `algorithm` over two trees in a fresh session pinned
/// to `threads` workers.
#[cfg(test)]
pub(crate) fn run_trees(
    algorithm: &Algorithm,
    source: &SchemaTree,
    target: &SchemaTree,
    config: &MatchConfig,
    threads: usize,
) -> MatchOutcome {
    let mut session = MatchSession::new(*config);
    session.set_threads(threads);
    let (sp, tp) = (session.prepare(source), session.prepare(target));
    session.run(algorithm, &sp, &tp).expect("valid algorithm")
}

/// Test support: asserts `algorithm` gives bit-identical outcomes on one
/// and on four worker threads, over a 21×21-node pair — past
/// [`crate::par::PAR_CELL_THRESHOLD`], so four workers really split the
/// 16-leaf wave.
#[cfg(test)]
pub(crate) fn assert_thread_counts_agree(algorithm: &Algorithm) {
    // Root, four groups, four leaves per group (leaf labels suffixed by
    // their group), over partly overlapping vocabularies.
    fn tree(root: &str, groups: [&str; 4], leaves: [&str; 4]) -> SchemaTree {
        let mut entries: Vec<(String, Option<usize>)> = vec![(root.to_owned(), None)];
        for group in groups {
            let parent = entries.len();
            entries.push((group.to_owned(), Some(0)));
            for leaf in leaves {
                entries.push((format!("{leaf}{group}"), Some(parent)));
            }
        }
        let borrowed: Vec<(&str, Option<usize>)> =
            entries.iter().map(|(l, p)| (l.as_str(), *p)).collect();
        SchemaTree::from_labels(root, &borrowed)
    }
    let source = tree(
        "PO",
        ["Buyer", "Seller", "Lines", "Shipment"],
        ["Name", "Id", "Qty", "Date"],
    );
    let target = tree(
        "PurchaseOrder",
        ["Customer", "Vendor", "Items", "Delivery"],
        ["Name", "Number", "Quantity", "Date"],
    );
    assert!(source.len() * target.len() >= crate::par::PAR_CELL_THRESHOLD);
    let config = MatchConfig::default();
    let four = run_trees(algorithm, &source, &target, &config, 4);
    let one = run_trees(algorithm, &source, &target, &config, 1);
    assert_eq!(
        four.matrix,
        one.matrix,
        "{}: matrices diverge",
        algorithm.name()
    );
    assert_eq!(four.total_qom.to_bits(), one.total_qom.to_bits());
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmatch_xsd::SchemaTree;

    fn tiny() -> SchemaTree {
        SchemaTree::from_labels(
            "r",
            &[("r", None), ("a", Some(0)), ("b", Some(0)), ("c", Some(1))],
        )
    }

    #[test]
    fn postorder_puts_children_before_parents() {
        let t = tiny();
        let order = postorder(&t);
        let pos = |id: NodeId| order.iter().position(|&x| x == id).unwrap();
        for (id, node) in t.iter() {
            for &child in &node.children {
                assert!(
                    pos(child) < pos(id),
                    "child {child:?} must precede parent {id:?}"
                );
            }
        }
    }

    #[test]
    fn waves_by_height_order_children_strictly_below_parents() {
        let t = tiny();
        let waves = waves_by_height(&t);
        let wave_of = |id: NodeId| {
            waves
                .iter()
                .position(|w| w.contains(&id))
                .expect("every node sits in exactly one wave")
        };
        let mut seen = 0;
        for w in &waves {
            seen += w.len();
        }
        assert_eq!(seen, t.len());
        for (id, node) in t.iter() {
            for &child in &node.children {
                assert!(wave_of(child) < wave_of(id), "{child:?} below {id:?}");
            }
        }
        // r has height 2 via a→c; leaves b and c share wave 0.
        assert_eq!(waves.len(), 3);
        assert_eq!(waves[0], vec![NodeId(2), NodeId(3)]);
        assert_eq!(waves[1], vec![NodeId(1)]);
        assert_eq!(waves[2], vec![NodeId(0)]);
    }

    #[test]
    fn waves_by_depth_put_parents_strictly_before_children() {
        let t = tiny();
        let waves = waves_by_depth(&t);
        assert_eq!(waves[0], vec![NodeId(0)]);
        assert_eq!(waves[1], vec![NodeId(1), NodeId(2)]);
        assert_eq!(waves[2], vec![NodeId(3)]);
    }

    #[test]
    fn label_matrix_is_indexed_by_distinct_labels() {
        let s = SchemaTree::from_labels("x", &[("x", None), ("dup", Some(0)), ("dup", Some(0))]);
        let t = tiny();
        let m = LabelMatrix::new(&s, &t, LexiconMode::Full);
        let m1 = m.get(NodeId(1), NodeId(0));
        let m2 = m.get(NodeId(2), NodeId(0));
        assert_eq!(m1, m2);
        // 2 distinct source labels × 4 distinct target labels.
        assert_eq!(m.distinct_pairs(), 8, "table covers distinct label pairs");
    }

    #[test]
    fn label_matrix_exact_only_mode_is_string_equality() {
        let s = SchemaTree::from_labels("x", &[("Writer", None)]);
        let t = SchemaTree::from_labels("y", &[("Author", None)]);
        let full = LabelMatrix::new(&s, &t, LexiconMode::Full);
        assert_eq!(full.get(NodeId(0), NodeId(0)).grade, LabelGrade::Exact);
        let exact = LabelMatrix::new(&s, &t, LexiconMode::ExactOnly);
        assert_eq!(exact.get(NodeId(0), NodeId(0)).grade, LabelGrade::None);
        let s2 = SchemaTree::from_labels("x", &[("writer", None)]);
        let t2 = SchemaTree::from_labels("y", &[("WRITER", None)]);
        let exact2 = LabelMatrix::new(&s2, &t2, LexiconMode::ExactOnly);
        assert_eq!(exact2.get(NodeId(0), NodeId(0)).grade, LabelGrade::Exact);
    }

    #[test]
    fn label_matrix_fuzzy_only_mode_loses_synonyms_keeps_fuzzy() {
        let s = SchemaTree::from_labels("x", &[("Writer", None), ("Quantety", Some(0))]);
        let t = SchemaTree::from_labels("y", &[("Author", None), ("Quantity", Some(0))]);
        let fuzzy = LabelMatrix::new(&s, &t, LexiconMode::FuzzyOnly);
        assert_eq!(fuzzy.get(NodeId(0), NodeId(0)).grade, LabelGrade::None);
        assert_eq!(fuzzy.get(NodeId(1), NodeId(1)).grade, LabelGrade::Relaxed);
    }

    #[test]
    fn label_matrix_agrees_with_single_pair_comparison() {
        let s = tiny();
        let t = SchemaTree::from_labels("q", &[("q", None), ("a", Some(0)), ("zz", Some(0))]);
        for mode in [
            LexiconMode::Full,
            LexiconMode::FuzzyOnly,
            LexiconMode::ExactOnly,
        ] {
            let matrix = LabelMatrix::new(&s, &t, mode);
            let matcher = matcher_for_mode(mode);
            for (sid, sn) in s.iter() {
                for (tid, tn) in t.iter() {
                    let direct = compare_single_labels(&sn.label, &tn.label, mode, &matcher);
                    assert_eq!(
                        matrix.get(sid, tid),
                        direct,
                        "{:?} vs {:?}",
                        sn.label,
                        tn.label
                    );
                }
            }
        }
    }

    #[test]
    fn greedy_assignment_takes_best_disjoint_pairs() {
        let scores = vec![vec![0.9, 0.8], vec![0.85, 0.1]];
        let picks = greedy_assignment(&scores);
        // (0,0,0.9) first; then (1,0) blocked, (1,1,0.1) taken.
        assert_eq!(picks.len(), 2);
        assert_eq!(picks[0], (0, 0, 0.9));
        assert_eq!(picks[1], (1, 1, 0.1));
    }

    #[test]
    fn greedy_assignment_skips_zero_scores() {
        let scores = vec![vec![0.0, 0.0], vec![0.0, 0.7]];
        let picks = greedy_assignment(&scores);
        assert_eq!(picks, vec![(1, 1, 0.7)]);
    }

    #[test]
    fn greedy_assignment_empty_inputs() {
        assert!(greedy_assignment(&[]).is_empty());
        assert!(greedy_assignment(&[vec![], vec![]]).is_empty());
    }
}
