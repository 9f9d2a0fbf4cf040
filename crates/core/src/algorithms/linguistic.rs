//! The standalone linguistic matcher (CUPID-style name matching).
//!
//! Every source/target node pair is scored purely on its labels via the
//! lexicon ([`qmatch_lexicon::NameMatcher`]); structure is ignored entirely.
//! This is one of the two baselines the paper compares QMatch against, and
//! also the component QMatch uses internally for its label axis.

use super::{LabelMatrix, MatchOutcome};
use crate::arena::MatchArena;
use crate::matrix::{Precision, Score, SimMatrix};
use crate::par;
use crate::session::PreparedSchema;
use crate::trace::{Phase, Span, Trace};

/// The linguistic engine over prepared artifacts. The outcome's `total_qom`
/// is the mean best label similarity per source node (a flat matcher has no
/// root recursion to summarize with). Rows fan out over up to `threads`
/// workers.
pub(crate) fn linguistic_match_impl(
    source: &PreparedSchema,
    target: &PreparedSchema,
    labels: &LabelMatrix,
    threads: usize,
    trace: &Trace,
    arena: &MatchArena,
    precision: Precision,
) -> MatchOutcome {
    let (rows_n, cols_n) = (source.tree().len(), target.tree().len());
    let t_alloc = trace.start();
    let mut matrix = arena.take_matrix(rows_n, cols_n, precision);
    trace.finish(
        t_alloc,
        Span {
            rows: rows_n as u64,
            cells: (rows_n * cols_n) as u64,
            ..Span::empty(Phase::Alloc)
        },
    );
    // A flat matcher: every row is independent, so this is one wave.
    let t0 = trace.start();
    match precision {
        Precision::F64 => fill_rows::<f64>(labels, threads, &mut matrix),
        Precision::F32 => fill_rows::<f32>(labels, threads, &mut matrix),
    }
    let total_qom = matrix.mean_best_per_source();
    trace.finish(
        t0,
        Span {
            rows: rows_n as u64,
            cells: (rows_n * cols_n) as u64,
            ..Span::empty(Phase::Linguistic)
        },
    );
    MatchOutcome { matrix, total_qom }
}

/// Writes every label score in place, one disjoint block of rows per
/// worker, gathering from the distinct score table's contiguous rows.
fn fill_rows<S: Score>(labels: &LabelMatrix, threads: usize, matrix: &mut SimMatrix) {
    let cols = matrix.cols();
    let ltab = labels.score_table();
    let lcols = labels.distinct_cols_raw();
    let (sids, tids) = (labels.source_ids_raw(), labels.target_ids_raw());
    let data = S::data_vec_mut(matrix).expect("matrix storage matches the kernel scalar");
    par::for_each_row_mut(data, cols, threads, |s, row| {
        let lrow = &ltab[sids[s] as usize * lcols..][..lcols];
        for (cell, &t) in row.iter_mut().zip(tids) {
            *cell = S::from_f64(lrow[t as usize]);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{assert_thread_counts_agree, run_trees, Algorithm};
    use crate::model::MatchConfig;
    use qmatch_xsd::SchemaTree;

    fn linguistic(source: &SchemaTree, target: &SchemaTree, config: &MatchConfig) -> MatchOutcome {
        run_trees(&Algorithm::Linguistic, source, target, config, 1)
    }

    fn po_like() -> (SchemaTree, SchemaTree) {
        let s = SchemaTree::from_labels(
            "PO",
            &[
                ("PO", None),
                ("OrderNo", Some(0)),
                ("Quantity", Some(0)),
                ("UnitOfMeasure", Some(0)),
            ],
        );
        let t = SchemaTree::from_labels(
            "PurchaseOrder",
            &[
                ("PurchaseOrder", None),
                ("OrderNo", Some(0)),
                ("Qty", Some(0)),
                ("UOM", Some(0)),
            ],
        );
        (s, t)
    }

    #[test]
    fn identical_labels_score_one() {
        let (s, t) = po_like();
        let out = linguistic(&s, &t, &MatchConfig::default());
        let s_orderno = s.find_by_label("OrderNo").unwrap();
        let t_orderno = t.find_by_label("OrderNo").unwrap();
        assert!((out.matrix.get(s_orderno, t_orderno) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn paper_relaxed_pairs_score_high_but_below_exact() {
        let (s, t) = po_like();
        let out = linguistic(&s, &t, &MatchConfig::default());
        let qty = out.matrix.get(
            s.find_by_label("Quantity").unwrap(),
            t.find_by_label("Qty").unwrap(),
        );
        let uom = out.matrix.get(
            s.find_by_label("UnitOfMeasure").unwrap(),
            t.find_by_label("UOM").unwrap(),
        );
        assert!(qty > 0.7 && qty < 1.0, "Quantity/Qty = {qty}");
        assert!(uom > 0.7 && uom < 1.0, "UnitOfMeasure/UOM = {uom}");
    }

    #[test]
    fn total_is_mean_best_per_source() {
        let (s, t) = po_like();
        let out = linguistic(&s, &t, &MatchConfig::default());
        assert!((out.total_qom - out.matrix.mean_best_per_source()).abs() < 1e-12);
        assert!(
            out.total_qom > 0.7,
            "PO schemas are linguistically close: {}",
            out.total_qom
        );
    }

    #[test]
    fn disparate_schemas_score_low() {
        let library = SchemaTree::from_labels(
            "Library",
            &[
                ("Library", None),
                ("Title", Some(0)),
                ("Book", Some(0)),
                ("number", Some(2)),
                ("character", Some(2)),
                ("Writer", Some(2)),
            ],
        );
        let human = SchemaTree::from_labels(
            "human",
            &[
                ("human", None),
                ("head", Some(0)),
                ("body", Some(0)),
                ("hands", Some(2)),
                ("man", Some(2)),
                ("legs", Some(2)),
            ],
        );
        let out = linguistic(&library, &human, &MatchConfig::default());
        assert!(
            out.total_qom < 0.4,
            "Fig. 9's linguistic score must be low: {}",
            out.total_qom
        );
    }

    #[test]
    fn self_match_totals_one() {
        let (s, _) = po_like();
        let out = linguistic(&s, &s, &MatchConfig::default());
        assert!((out.total_qom - 1.0).abs() < 1e-9);
        out.matrix.assert_normalized();
    }

    #[test]
    fn one_and_four_threads_agree_exactly() {
        assert_thread_counts_agree(&Algorithm::Linguistic);
    }

    #[test]
    fn matrix_dimensions_match_trees() {
        let (s, t) = po_like();
        let out = linguistic(&s, &t, &MatchConfig::default());
        assert_eq!(out.matrix.rows(), s.len());
        assert_eq!(out.matrix.cols(), t.len());
    }
}
