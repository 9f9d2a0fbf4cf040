//! COMA-style composite matching (the paper's §7 ongoing work: "evaluating
//! the quality of match and the performance of QMatch with other hybrid and
//! composite algorithms such as CUPID and COMA [5]").
//!
//! Where QMatch is a *hybrid* (one algorithm combining several kinds of
//! evidence inside its recursion), a *composite* matcher runs several
//! independent matchers and combines their similarity matrices afterwards.
//! This module implements the combination strategies COMA popularized —
//! max, min, average, and weighted sums — over any set of component
//! outcomes, so QMatch can be compared against (and itself participate in)
//! composite configurations.

use super::{tree_edit_match, MatchOutcome};
use crate::matrix::SimMatrix;
use crate::session::{MatchSession, PreparedSchema};
use crate::trace::{Phase, Span};
use qmatch_xsd::NodeId;

/// How component similarity matrices are aggregated per cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Aggregation {
    /// Optimistic: the best component wins (`COMA`'s `Max`).
    Max,
    /// Pessimistic: all components must agree (`COMA`'s `Min`).
    Min,
    /// The arithmetic mean (`COMA`'s `Average`).
    Average,
    /// A weighted sum; the weights are normalized over their total, so any
    /// positive weights work. Must supply one weight per component.
    Weighted(Vec<f64>),
}

/// A component matcher usable inside a composite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Component {
    /// CUPID-style label matcher.
    Linguistic,
    /// Label-free structure matcher.
    Structural,
    /// QMatch itself (a hybrid inside a composite, as COMA allows).
    Hybrid,
    /// Tree-edit-distance baseline.
    TreeEdit,
}

impl Component {
    /// Runs the component inside the composite's session, over prepared
    /// schemas (label comparisons come from the session's cross-schema
    /// cache) at the session's configured precision.
    fn run_in(
        self,
        session: &MatchSession,
        source: &PreparedSchema,
        target: &PreparedSchema,
    ) -> MatchOutcome {
        let precision = session.config().precision;
        match self {
            Component::Linguistic => session.linguistic_with(source, target, precision),
            Component::Structural => session.structural_with(source, target, precision),
            Component::Hybrid => session.hybrid_with(source, target, precision),
            // The edit-distance baseline has no per-schema artifacts to
            // amortize; it runs straight off the trees.
            Component::TreeEdit => tree_edit_match(source.tree(), target.tree(), session.config()),
        }
    }
}

/// Errors from composite construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompositeError {
    /// No components were supplied.
    NoComponents,
    /// A `Weighted` aggregation's weight count differs from the component
    /// count, or the weights are non-positive.
    BadWeights {
        /// Human-readable description.
        detail: &'static str,
    },
}

impl std::fmt::Display for CompositeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompositeError::NoComponents => f.write_str("composite needs at least one component"),
            CompositeError::BadWeights { detail } => write!(f, "bad weights: {detail}"),
        }
    }
}

impl std::error::Error for CompositeError {}

/// Runs `components` and combines their matrices with `aggregation` — the
/// engine behind [`Algorithm::Composite`](super::Algorithm::Composite).
///
/// The outcome's `total_qom` is the aggregated score of the two roots,
/// consistent with the recursive matchers.
pub(crate) fn composite_match_impl(
    session: &MatchSession,
    source: &PreparedSchema,
    target: &PreparedSchema,
    components: &[Component],
    aggregation: &Aggregation,
) -> Result<MatchOutcome, CompositeError> {
    if components.is_empty() {
        return Err(CompositeError::NoComponents);
    }
    if let Aggregation::Weighted(weights) = aggregation {
        if weights.len() != components.len() {
            return Err(CompositeError::BadWeights {
                detail: "need exactly one weight per component",
            });
        }
        if weights.iter().any(|&w| w <= 0.0 || !w.is_finite()) {
            return Err(CompositeError::BadWeights {
                detail: "weights must be positive and finite",
            });
        }
    }
    // Components are independent whole matchers — run them concurrently
    // (each may additionally wavefront internally). Their own spans record
    // through the shared session and may interleave across components.
    let outcomes: Vec<MatchOutcome> =
        crate::par::map_rows(components.len(), session.threads(), |i| {
            components[i].run_in(session, source, target)
        });
    let t0 = session.trace().start();
    let matrix = combine(outcomes.iter().map(|o| &o.matrix), aggregation);
    let total_qom = matrix.get(source.tree().root_id(), target.tree().root_id());
    // The component matrices are spent once combined: recycle their buffers
    // into the session arena for the next match.
    for outcome in outcomes {
        session.recycle(outcome);
    }
    session.trace().finish(
        t0,
        Span {
            rows: components.len() as u64,
            cells: (matrix.rows() * matrix.cols()) as u64,
            ..Span::empty(Phase::CompositeCombine)
        },
    );
    Ok(MatchOutcome { matrix, total_qom })
}

/// Combines pre-computed matrices (all must share dimensions).
pub fn combine<'m>(
    matrices: impl IntoIterator<Item = &'m SimMatrix>,
    aggregation: &Aggregation,
) -> SimMatrix {
    let matrices: Vec<&SimMatrix> = matrices.into_iter().collect();
    assert!(!matrices.is_empty(), "combine needs at least one matrix");
    let (rows, cols) = (matrices[0].rows(), matrices[0].cols());
    for m in &matrices {
        assert_eq!(
            (m.rows(), m.cols()),
            (rows, cols),
            "matrix dimensions must agree"
        );
    }
    let weights: Option<Vec<f64>> = match aggregation {
        Aggregation::Weighted(w) => {
            let total: f64 = w.iter().sum();
            Some(w.iter().map(|x| x / total).collect())
        }
        _ => None,
    };
    let mut out = SimMatrix::zeros(rows, cols);
    for r in 0..rows {
        for c in 0..cols {
            let (source, target) = (NodeId(r as u32), NodeId(c as u32));
            let cells = matrices.iter().map(|m| m.get(source, target));
            let value = match aggregation {
                Aggregation::Max => cells.fold(0.0f64, f64::max),
                Aggregation::Min => cells.fold(1.0f64, f64::min),
                Aggregation::Average => cells.sum::<f64>() / matrices.len() as f64,
                Aggregation::Weighted(_) => {
                    let weights = weights.as_ref().expect("validated above");
                    cells.zip(weights).map(|(v, w)| v * w).sum()
                }
            };
            out.set(source, target, value);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::Algorithm;
    use crate::model::MatchConfig;
    use qmatch_xsd::SchemaTree;

    fn composite(
        source: &SchemaTree,
        target: &SchemaTree,
        config: &MatchConfig,
        components: &[Component],
        aggregation: &Aggregation,
    ) -> Result<MatchOutcome, CompositeError> {
        let session = MatchSession::new(*config);
        let (sp, tp) = (session.prepare(source), session.prepare(target));
        let algorithm = Algorithm::Composite {
            components: components.to_vec(),
            aggregation: aggregation.clone(),
        };
        session.run(&algorithm, &sp, &tp)
    }

    fn trees() -> (SchemaTree, SchemaTree) {
        let a = SchemaTree::from_labels(
            "PO",
            &[("PO", None), ("OrderNo", Some(0)), ("Quantity", Some(0))],
        );
        let b = SchemaTree::from_labels(
            "PurchaseOrder",
            &[
                ("PurchaseOrder", None),
                ("OrderNo", Some(0)),
                ("Qty", Some(0)),
            ],
        );
        (a, b)
    }

    fn matrices() -> (SimMatrix, SimMatrix) {
        let mut a = SimMatrix::zeros(2, 2);
        a.set(NodeId(0), NodeId(0), 0.8);
        a.set(NodeId(1), NodeId(1), 0.2);
        let mut b = SimMatrix::zeros(2, 2);
        b.set(NodeId(0), NodeId(0), 0.4);
        b.set(NodeId(1), NodeId(1), 0.6);
        (a, b)
    }

    #[test]
    fn max_min_average_combinations() {
        let (a, b) = matrices();
        let max = combine([&a, &b], &Aggregation::Max);
        assert_eq!(max.get(NodeId(0), NodeId(0)), 0.8);
        assert_eq!(max.get(NodeId(1), NodeId(1)), 0.6);
        let min = combine([&a, &b], &Aggregation::Min);
        assert_eq!(min.get(NodeId(0), NodeId(0)), 0.4);
        assert_eq!(min.get(NodeId(1), NodeId(1)), 0.2);
        let avg = combine([&a, &b], &Aggregation::Average);
        assert!((avg.get(NodeId(0), NodeId(0)) - 0.6).abs() < 1e-12);
        assert!((avg.get(NodeId(1), NodeId(1)) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn weighted_combination_normalizes() {
        let (a, b) = matrices();
        // Weights 3:1 — no need to pre-normalize.
        let w = combine([&a, &b], &Aggregation::Weighted(vec![3.0, 1.0]));
        assert!((w.get(NodeId(0), NodeId(0)) - (0.75 * 0.8 + 0.25 * 0.4)).abs() < 1e-12);
    }

    #[test]
    fn single_matrix_is_identity_for_every_aggregation() {
        let (a, _) = matrices();
        for agg in [Aggregation::Max, Aggregation::Min, Aggregation::Average] {
            assert_eq!(combine([&a], &agg), a);
        }
        assert_eq!(combine([&a], &Aggregation::Weighted(vec![7.0])), a);
    }

    #[test]
    fn composite_runs_real_components() {
        let (s, t) = trees();
        let config = MatchConfig::default();
        let out = composite(
            &s,
            &t,
            &config,
            &[Component::Linguistic, Component::Structural],
            &Aggregation::Average,
        )
        .unwrap();
        out.matrix.assert_normalized();
        assert!(out.total_qom > 0.0);
    }

    #[test]
    fn composite_max_never_below_any_component() {
        let (s, t) = trees();
        let config = MatchConfig::default();
        let components = [
            Component::Linguistic,
            Component::Structural,
            Component::Hybrid,
        ];
        let out = composite(&s, &t, &config, &components, &Aggregation::Max).unwrap();
        for c in components {
            // A one-component composite is the component alone.
            let alone = composite(&s, &t, &config, &[c], &Aggregation::Max).unwrap();
            for (sid, tid, v) in alone.matrix.iter() {
                assert!(out.matrix.get(sid, tid) + 1e-12 >= v);
            }
        }
    }

    #[test]
    fn composite_rejects_bad_inputs() {
        let (s, t) = trees();
        let config = MatchConfig::default();
        assert_eq!(
            composite(&s, &t, &config, &[], &Aggregation::Max).unwrap_err(),
            CompositeError::NoComponents
        );
        assert!(matches!(
            composite(
                &s,
                &t,
                &config,
                &[Component::Linguistic],
                &Aggregation::Weighted(vec![1.0, 2.0])
            ),
            Err(CompositeError::BadWeights { .. })
        ));
        assert!(matches!(
            composite(
                &s,
                &t,
                &config,
                &[Component::Linguistic],
                &Aggregation::Weighted(vec![0.0])
            ),
            Err(CompositeError::BadWeights { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "dimensions")]
    fn combine_panics_on_dimension_mismatch() {
        let a = SimMatrix::zeros(2, 2);
        let b = SimMatrix::zeros(3, 2);
        combine([&a, &b], &Aggregation::Max);
    }

    #[test]
    fn error_messages() {
        assert!(CompositeError::NoComponents
            .to_string()
            .contains("at least one"));
        assert!(CompositeError::BadWeights { detail: "x" }
            .to_string()
            .contains("x"));
    }
}
