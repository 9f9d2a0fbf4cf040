//! The standalone structural matcher.
//!
//! Labels are ignored entirely; two nodes are similar when their *shapes*
//! agree — children (recursively), arity, properties (type/occurrence), and
//! nesting level. This is the paper's second baseline and the component that
//! lets QMatch match the structurally-identical but linguistically-disparate
//! schemas of Figures 7/8 (the Figure 9 experiment).
//!
//! The recursion mirrors CUPID's structural phase: similarity flows up from
//! the leaves through a greedy best-pair alignment of child sets, computed
//! bottom-up over all node pairs (the same memoized O(n·m) discipline as the
//! hybrid).

use super::{greedy_assignment, MatchOutcome};
use crate::arena::MatchArena;
use crate::matrix::{Precision, SimMatrix};
use crate::model::MatchConfig;
use crate::par;
use crate::props::compare_properties;
use crate::session::PreparedSchema;
use crate::trace::{Phase, Span, Trace};
use qmatch_xsd::NodeId;

/// Component weights of the structural similarity. Children dominate, as in
/// the hybrid's weight model; the remainder splits between arity, the
/// property shape, and the level.
const W_CHILDREN: f64 = 0.45;
const W_ARITY: f64 = 0.15;
const W_PROPS: f64 = 0.25;
const W_LEVEL: f64 = 0.15;

/// The structural engine over prepared artifacts. `total_qom` is the
/// similarity of the roots.
///
/// Both passes are wavefronted over up to `threads` workers: the bottom-up
/// shape DP by source-node height, the top-down context blend by
/// source-node depth. Every thread count yields bit-identical matrices.
pub(crate) fn structural_match_impl(
    source: &PreparedSchema,
    target: &PreparedSchema,
    config: &MatchConfig,
    threads: usize,
    trace: &Trace,
    arena: &MatchArena,
    precision: Precision,
) -> MatchOutcome {
    let (rows_n, cols_n) = (source.tree().len(), target.tree().len());
    // Both passes run in f64 (the context blend reads the shape matrix cell
    // by cell); an f32 request only converts the final matrix. The two big
    // intermediates come from — and the shape pass returns to — the arena.
    let t_alloc = trace.start();
    let mut matrix = arena.take_matrix(rows_n, cols_n, Precision::F64);
    let mut contextual = arena.take_matrix(rows_n, cols_n, Precision::F64);
    trace.finish(
        t_alloc,
        Span {
            rows: (2 * rows_n) as u64,
            cells: (2 * rows_n * cols_n) as u64,
            ..Span::empty(Phase::Alloc)
        },
    );
    for (w, wave) in source.waves_by_height().iter().enumerate() {
        let t0 = trace.start();
        let rows = par::map_rows(wave.len(), threads, |i| {
            structural_row(source, target, wave[i], config, &matrix)
        });
        for (&s, row) in wave.iter().zip(&rows) {
            matrix.set_row(s, row);
        }
        trace.finish(
            t0,
            Span {
                wave: w as u32,
                rows: wave.len() as u64,
                cells: (wave.len() * cols_n) as u64,
                ..Span::empty(Phase::StructuralWave)
            },
        );
    }
    // Top-down context pass: a pair is only as believable as its parents.
    // Without labels, two same-typed leaves at the same level and order are
    // indistinguishable; blending in the (already contextualized) parent
    // pair's similarity disambiguates them the way CUPID's structural phase
    // propagates context. A row depends only on the parent's row, one depth
    // wave earlier.
    for (w, wave) in source.waves_by_depth().iter().enumerate() {
        let t0 = trace.start();
        let rows = par::map_rows(wave.len(), threads, |i| {
            context_row(source, target, wave[i], &matrix, &contextual)
        });
        for (&s, row) in wave.iter().zip(&rows) {
            contextual.set_row(s, row);
        }
        trace.finish(
            t0,
            Span {
                wave: w as u32,
                rows: wave.len() as u64,
                cells: (wave.len() * cols_n) as u64,
                ..Span::empty(Phase::ContextWave)
            },
        );
    }
    // The shape matrix is internal: hand its buffer straight back.
    arena.put_matrix(matrix);
    let matrix = contextual.with_precision(precision);
    let total_qom = matrix.get(source.tree().root_id(), target.tree().root_id());
    MatchOutcome { matrix, total_qom }
}

/// One source node's row of the bottom-up shape DP.
fn structural_row(
    source: &PreparedSchema,
    target: &PreparedSchema,
    s: NodeId,
    config: &MatchConfig,
    matrix: &SimMatrix,
) -> Vec<f64> {
    let sn = source.tree().node(s);
    let s_leaf = source.is_leaf(s);
    let s_level = source.level(s);
    let s_props = source.props(s);
    (0..target.tree().len() as u32)
        .map(|t| {
            let t = NodeId(t);
            let t_props = target.props(t);
            match (s_leaf, target.is_leaf(t)) {
                // CUPID-style leaf similarity: the data type dominates (it
                // is the only structural evidence a leaf carries), with the
                // remaining properties and the nesting level refining it.
                (true, true) => {
                    let type_score =
                        crate::props::type_similarity(&s_props.data_type, &t_props.data_type);
                    let props_score = compare_properties(s_props, t_props).score;
                    let level_score = if s_level == target.level(t) { 1.0 } else { 0.0 };
                    0.6 * type_score + 0.2 * props_score + 0.2 * level_score
                }
                // A leaf carries no internal structure to align with a
                // subtree.
                (true, false) | (false, true) => 0.0,
                (false, false) => {
                    let tn = target.tree().node(t);
                    let scores: Vec<Vec<f64>> = sn
                        .children
                        .iter()
                        .map(|&cs| tn.children.iter().map(|&ct| matrix.get(cs, ct)).collect())
                        .collect();
                    let chosen = greedy_assignment(&scores);
                    let kept: f64 = chosen
                        .iter()
                        .filter(|(_, _, v)| *v >= config.threshold)
                        .map(|(_, _, v)| v)
                        .sum();
                    // Directional, like the paper's Rs (Eq. 4): the source's
                    // children must be covered; extra target children are
                    // not a penalty (the target schema may simply be richer).
                    let children_score = kept / sn.children.len() as f64;
                    let arity_score = arity_similarity(sn.children.len(), tn.children.len());
                    let props_score = compare_properties(s_props, t_props).score;
                    let level_score = if s_level == target.level(t) { 1.0 } else { 0.0 };
                    W_CHILDREN * children_score
                        + W_ARITY * arity_score
                        + W_PROPS * props_score
                        + W_LEVEL * level_score
                }
            }
        })
        .collect()
}

/// One source node's row of the top-down context blend.
fn context_row(
    source: &PreparedSchema,
    target: &PreparedSchema,
    s: NodeId,
    matrix: &SimMatrix,
    contextual: &SimMatrix,
) -> Vec<f64> {
    let sn = source.tree().node(s);
    (0..target.tree().len() as u32)
        .map(|t| {
            let t = NodeId(t);
            let tn = target.tree().node(t);
            let raw = matrix.get(s, t);
            match (sn.parent, tn.parent) {
                (None, None) => raw,
                (Some(ps), Some(pt)) => (1.0 - CONTEXT) * raw + CONTEXT * contextual.get(ps, pt),
                // A root never matches a non-root's context.
                _ => (1.0 - CONTEXT) * raw,
            }
        })
        .collect()
}

/// Weight of the parent-pair context in the top-down pass.
const CONTEXT: f64 = 0.25;

/// Directional arity fit: 1.0 when the target offers at least as many
/// children as the source needs, shrinking as the target falls short.
fn arity_similarity(source: usize, target: usize) -> f64 {
    match (source, target) {
        (0, 0) => 1.0,
        (0, _) | (_, 0) => 0.0,
        _ if target >= source => 1.0,
        _ => target as f64 / source as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{assert_thread_counts_agree, run_trees, Algorithm};
    use qmatch_xsd::SchemaTree;

    fn structural(source: &SchemaTree, target: &SchemaTree, config: &MatchConfig) -> MatchOutcome {
        run_trees(&Algorithm::Structural, source, target, config, 1)
    }

    fn library() -> SchemaTree {
        SchemaTree::from_labels(
            "Library",
            &[
                ("Library", None),
                ("Title", Some(0)),
                ("Book", Some(0)),
                ("number", Some(2)),
                ("character", Some(2)),
                ("Writer", Some(2)),
            ],
        )
    }

    fn human() -> SchemaTree {
        SchemaTree::from_labels(
            "human",
            &[
                ("human", None),
                ("head", Some(0)),
                ("body", Some(0)),
                ("hands", Some(2)),
                ("man", Some(2)),
                ("legs", Some(2)),
            ],
        )
    }

    #[test]
    fn identical_shapes_score_one() {
        // Figures 7/8: structurally identical, linguistically different.
        let out = structural(&library(), &human(), &MatchConfig::default());
        assert!(
            (out.total_qom - 1.0).abs() < 1e-9,
            "identical shapes must be structurally perfect: {}",
            out.total_qom
        );
    }

    #[test]
    fn self_match_is_one_everywhere_on_diagonal_structure() {
        let t = library();
        let out = structural(&t, &t, &MatchConfig::default());
        assert!((out.total_qom - 1.0).abs() < 1e-9);
        out.matrix.assert_normalized();
    }

    #[test]
    fn one_and_four_threads_agree_exactly() {
        assert_thread_counts_agree(&Algorithm::Structural);
    }

    #[test]
    fn different_shapes_score_lower() {
        let deep = SchemaTree::from_labels(
            "a",
            &[("a", None), ("b", Some(0)), ("c", Some(1)), ("d", Some(2))],
        );
        let wide = SchemaTree::from_labels(
            "a",
            &[("a", None), ("b", Some(0)), ("c", Some(0)), ("d", Some(0))],
        );
        let out = structural(&deep, &wide, &MatchConfig::default());
        assert!(out.total_qom < 0.8, "chain vs star: {}", out.total_qom);
    }

    #[test]
    fn leaf_vs_internal_gets_no_children_credit() {
        let leafy = SchemaTree::from_labels("x", &[("x", None)]);
        let nested = SchemaTree::from_labels("x", &[("x", None), ("y", Some(0))]);
        let out = structural(&leafy, &nested, &MatchConfig::default());
        // Children component 0, arity 0; props + level still match.
        assert!(out.total_qom < 0.5, "{}", out.total_qom);
    }

    #[test]
    fn arity_similarity_cases() {
        assert_eq!(arity_similarity(0, 0), 1.0);
        assert_eq!(arity_similarity(0, 3), 0.0);
        assert_eq!(arity_similarity(3, 0), 0.0);
        // Directional: a richer target fully covers the source's needs...
        assert_eq!(arity_similarity(2, 4), 1.0);
        // ...but a poorer target cannot.
        assert_eq!(arity_similarity(4, 2), 0.5);
        assert_eq!(arity_similarity(4, 4), 1.0);
    }

    #[test]
    fn level_mismatch_costs_the_level_component() {
        // Same subtree shape mounted at different depths.
        let shallow = SchemaTree::from_labels("r", &[("r", None), ("x", Some(0))]);
        let deep = SchemaTree::from_labels("r", &[("r", None), ("m", Some(0)), ("x", Some(1))]);
        let out = structural(&shallow, &deep, &MatchConfig::default());
        let s_x = shallow.find_by_label("x").unwrap();
        let d_x = deep.find_by_label("x").unwrap();
        let sim = out.matrix.get(s_x, d_x);
        assert!(
            sim < 1.0 && sim > 0.5,
            "leaf pair at different levels: {sim}"
        );
    }

    #[test]
    fn labels_are_completely_ignored() {
        let named = library();
        let renamed = SchemaTree::from_labels(
            "zzz",
            &[
                ("zzz", None),
                ("q1", Some(0)),
                ("q2", Some(0)),
                ("q3", Some(2)),
                ("q4", Some(2)),
                ("q5", Some(2)),
            ],
        );
        let a = structural(&named, &renamed, &MatchConfig::default());
        let b = structural(&named, &named, &MatchConfig::default());
        assert!((a.total_qom - b.total_qom).abs() < 1e-12);
    }
}
