//! Tree-edit-distance matcher — the Nierman–Jagadish-style baseline from the
//! paper's related work ([15]: "a structure-based similarity algorithm that
//! determines a match between XML documents based on measuring the edit
//! distance for the rooted XML trees").
//!
//! The distance is Selkow's degree-2 variant, the standard simplification
//! used for XML: relabeling applies to node pairs, and insertion/deletion
//! applies to whole subtrees (costing the subtree size). Children sequences
//! are aligned with an edit DP, and node-pair distances are memoized
//! bottom-up, giving the same O(n·m) pair discipline as the other matchers.

use super::{postorder, MatchOutcome};
use crate::matrix::SimMatrix;
use crate::model::MatchConfig;
use qmatch_xsd::{NodeId, SchemaTree};

/// Runs the tree-edit matcher. Cell `(s, t)` holds the normalized
/// similarity `1 − dist(s,t) / (|s| + |t|)` of the two subtrees;
/// `total_qom` is the root similarity. Reached through
/// [`Algorithm::TreeEdit`](super::Algorithm::TreeEdit).
pub(crate) fn tree_edit_match(
    source: &SchemaTree,
    target: &SchemaTree,
    _config: &MatchConfig,
) -> MatchOutcome {
    let s_sizes: Vec<usize> = (0..source.len())
        .map(|i| source.subtree_size(NodeId(i as u32)))
        .collect();
    let t_sizes: Vec<usize> = (0..target.len())
        .map(|i| target.subtree_size(NodeId(i as u32)))
        .collect();

    // dist[s][t], filled bottom-up so children are ready before parents.
    let mut dist = vec![vec![0.0f64; target.len()]; source.len()];
    for &s in &postorder(source) {
        let sn = source.node(s);
        for &t in &postorder(target) {
            let tn = target.node(t);
            let relabel = if sn.label.eq_ignore_ascii_case(&tn.label) {
                0.0
            } else {
                1.0
            };
            let forest = forest_distance(&sn.children, &tn.children, &dist, &s_sizes, &t_sizes);
            dist[s.index()][t.index()] = relabel + forest;
        }
    }

    let mut matrix = SimMatrix::zeros(source.len(), target.len());
    for (s_idx, row) in dist.iter().enumerate() {
        for (t_idx, &d) in row.iter().enumerate() {
            let denom = (s_sizes[s_idx] + t_sizes[t_idx]) as f64;
            matrix.set(NodeId(s_idx as u32), NodeId(t_idx as u32), 1.0 - d / denom);
        }
    }
    let total_qom = matrix.get(source.root_id(), target.root_id());
    MatchOutcome { matrix, total_qom }
}

/// Edit-distance alignment of two child sequences where substituting child
/// pair `(i, j)` costs their (already computed) subtree distance, and
/// deleting/inserting a child costs its subtree size.
fn forest_distance(
    s_children: &[NodeId],
    t_children: &[NodeId],
    dist: &[Vec<f64>],
    s_sizes: &[usize],
    t_sizes: &[usize],
) -> f64 {
    let n = s_children.len();
    let m = t_children.len();
    let mut dp = vec![vec![0.0f64; m + 1]; n + 1];
    for i in 1..=n {
        dp[i][0] = dp[i - 1][0] + s_sizes[s_children[i - 1].index()] as f64;
    }
    for j in 1..=m {
        dp[0][j] = dp[0][j - 1] + t_sizes[t_children[j - 1].index()] as f64;
    }
    for i in 1..=n {
        for j in 1..=m {
            let del = dp[i - 1][j] + s_sizes[s_children[i - 1].index()] as f64;
            let ins = dp[i][j - 1] + t_sizes[t_children[j - 1].index()] as f64;
            let sub = dp[i - 1][j - 1] + dist[s_children[i - 1].index()][t_children[j - 1].index()];
            dp[i][j] = del.min(ins).min(sub);
        }
    }
    dp[n][m]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(entries: &[(&str, Option<usize>)]) -> SchemaTree {
        SchemaTree::from_labels(entries[0].0, entries)
    }

    #[test]
    fn identical_trees_have_distance_zero() {
        let t = tree(&[("a", None), ("b", Some(0)), ("c", Some(0)), ("d", Some(1))]);
        let out = tree_edit_match(&t, &t, &MatchConfig::default());
        assert!((out.total_qom - 1.0).abs() < 1e-12);
        out.matrix.assert_normalized();
    }

    #[test]
    fn single_relabel_costs_one() {
        let a = tree(&[("r", None), ("x", Some(0)), ("y", Some(0))]);
        let b = tree(&[("r", None), ("x", Some(0)), ("z", Some(0))]);
        let out = tree_edit_match(&a, &b, &MatchConfig::default());
        // dist = 1, sizes 3 + 3 ⇒ sim = 1 - 1/6.
        assert!((out.total_qom - (1.0 - 1.0 / 6.0)).abs() < 1e-12);
    }

    #[test]
    fn relabel_is_case_insensitive() {
        let a = tree(&[("Root", None)]);
        let b = tree(&[("ROOT", None)]);
        let out = tree_edit_match(&a, &b, &MatchConfig::default());
        assert!((out.total_qom - 1.0).abs() < 1e-12);
    }

    #[test]
    fn subtree_deletion_costs_its_size() {
        let a = tree(&[
            ("r", None),
            ("keep", Some(0)),
            ("extra", Some(0)),
            ("deep", Some(2)),
        ]);
        let b = tree(&[("r", None), ("keep", Some(0))]);
        let out = tree_edit_match(&a, &b, &MatchConfig::default());
        // Delete the 2-node "extra" subtree: dist 2, sizes 4 + 2 ⇒ 1 - 2/6.
        assert!((out.total_qom - (1.0 - 2.0 / 6.0)).abs() < 1e-12);
    }

    #[test]
    fn completely_disjoint_trees_score_low() {
        let a = tree(&[("a", None), ("b", Some(0)), ("c", Some(0))]);
        let b = tree(&[("x", None), ("y", Some(0)), ("z", Some(0)), ("w", Some(0))]);
        let out = tree_edit_match(&a, &b, &MatchConfig::default());
        assert!(out.total_qom < 0.6, "{}", out.total_qom);
    }

    #[test]
    fn sibling_order_matters_in_the_ordered_distance() {
        let a = tree(&[("r", None), ("x", Some(0)), ("y", Some(0))]);
        let b = tree(&[("r", None), ("y", Some(0)), ("x", Some(0))]);
        let out = tree_edit_match(&a, &b, &MatchConfig::default());
        // Swapping needs two relabels (or delete+insert): dist 2 ⇒ 1 - 2/6.
        assert!((out.total_qom - (1.0 - 2.0 / 6.0)).abs() < 1e-12);
    }

    #[test]
    fn matrix_holds_all_subtree_pairs() {
        let a = tree(&[("r", None), ("x", Some(0))]);
        let b = tree(&[("r", None), ("x", Some(0))]);
        let out = tree_edit_match(&a, &b, &MatchConfig::default());
        // Leaf x vs leaf x: identical ⇒ 1.0.
        assert!((out.matrix.get(NodeId(1), NodeId(1)) - 1.0).abs() < 1e-12);
        // Root vs leaf x: relabel 0 (same label!) ... no: labels r vs x differ
        // ⇒ relabel 1 + delete child 1 = 2; sizes 2 + 1 ⇒ 1 - 2/3.
        assert!((out.matrix.get(NodeId(0), NodeId(1)) - (1.0 - 2.0 / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn triangle_of_shapes_orders_sensibly() {
        let base = tree(&[("r", None), ("a", Some(0)), ("b", Some(0)), ("c", Some(0))]);
        let near = tree(&[("r", None), ("a", Some(0)), ("b", Some(0)), ("d", Some(0))]);
        let far = tree(&[("q", None), ("e", Some(0))]);
        let config = MatchConfig::default();
        let sim_near = tree_edit_match(&base, &near, &config).total_qom;
        let sim_far = tree_edit_match(&base, &far, &config).total_qom;
        assert!(sim_near > sim_far);
    }
}
