//! Human-readable explanation of a node-pair QoM: the per-axis scores and
//! grades, the children-axis decomposition (Rw, Rs, per-child best matches),
//! the weighted total, and the qualitative taxonomy category. This is the
//! paper's §2/§3 machinery surfaced for inspection — what a match UI would
//! show when the user asks "why did these two match (or not)?".

use crate::matrix::SimMatrix;
use crate::model::{children_qom, MatchConfig};
use crate::props::compare_properties;
use crate::taxonomy::{AxisGrade, CoverageGrade, MatchCategory};
use qmatch_lexicon::name_match::LabelGrade;
use qmatch_xsd::{NodeId, SchemaTree};
use std::fmt;

/// One atomic axis of the explanation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AxisExplanation {
    /// Numeric score in `[0, 1]`.
    pub score: f64,
    /// Qualitative grade.
    pub grade: AxisGrade,
    /// The weight applied (from the config).
    pub weight: f64,
}

impl AxisExplanation {
    /// The axis's contribution to the total QoM.
    pub fn contribution(&self) -> f64 {
        self.score * self.weight
    }
}

/// One source child's best target-child match in the children axis.
#[derive(Debug, Clone, PartialEq)]
pub struct ChildMatch {
    /// The source child's label.
    pub source_label: String,
    /// The best-matching target child's label (None when the target node
    /// has no children).
    pub target_label: Option<String>,
    /// The best QoM among the target children.
    pub best_qom: f64,
    /// Whether it cleared the child-match threshold and contributed.
    pub kept: bool,
}

/// The children-axis decomposition (Equations 3–5).
#[derive(Debug, Clone, PartialEq)]
pub struct ChildrenExplanation {
    /// Per-source-child best matches.
    pub children: Vec<ChildMatch>,
    /// Subtree weight `Rw` (Eq. 3).
    pub rw: f64,
    /// Cardinality ratio `Rs` (Eq. 4).
    pub rs: f64,
    /// `QoMC = (Rw + Rs) / 2` (Eq. 5); 1.0 for leaf–leaf pairs by default.
    pub qomc: f64,
    /// Coverage grade for the taxonomy.
    pub coverage: CoverageGrade,
}

/// A full explanation of one node pair under the hybrid model.
#[derive(Debug, Clone, PartialEq)]
pub struct Explanation {
    /// Source node's label path.
    pub source_path: String,
    /// Target node's label path.
    pub target_path: String,
    /// Label axis.
    pub label: AxisExplanation,
    /// Properties axis.
    pub properties: AxisExplanation,
    /// Level axis.
    pub level: AxisExplanation,
    /// Children axis (weight included in `children_axis`).
    pub children_axis: AxisExplanation,
    /// The children decomposition behind `children_axis.score`.
    pub children: ChildrenExplanation,
    /// The weighted total (equals the hybrid matrix cell).
    pub qom: f64,
    /// The §2.2 taxonomy category of the pair.
    pub category: MatchCategory,
}

/// Explains the pair `(s, t)` under the hybrid model. Runs a full hybrid
/// match internally (the children axis needs the recursive matrix).
pub fn explain_pair(
    source: &SchemaTree,
    target: &SchemaTree,
    s: NodeId,
    t: NodeId,
    config: &MatchConfig,
) -> Explanation {
    let session = crate::session::MatchSession::new(*config);
    let (sp, tp) = (session.prepare(source), session.prepare(target));
    let outcome = session.hybrid(&sp, &tp);
    explain_with_matrix(source, target, s, t, config, &outcome.matrix)
}

/// Explains a pair against an already-computed hybrid matrix (cheap; use
/// this when explaining several pairs of the same match run).
pub fn explain_with_matrix(
    source: &SchemaTree,
    target: &SchemaTree,
    s: NodeId,
    t: NodeId,
    config: &MatchConfig,
    matrix: &SimMatrix,
) -> Explanation {
    // One pair is explained at a time, so compare the two labels directly
    // rather than precomputing the full label matrix.
    let (sn, tn) = (source.node(s), target.node(t));
    let matcher = crate::algorithms::matcher_for_mode(config.lexicon);
    let name =
        crate::algorithms::compare_single_labels(&sn.label, &tn.label, config.lexicon, &matcher);
    explain_with_label(source, target, s, t, config, matrix, name)
}

/// The explanation with the label comparison supplied by the caller — the
/// session path serves it from its cross-schema cache.
pub(crate) fn explain_with_label(
    source: &SchemaTree,
    target: &SchemaTree,
    s: NodeId,
    t: NodeId,
    config: &MatchConfig,
    matrix: &SimMatrix,
    name: qmatch_lexicon::name_match::NameMatch,
) -> Explanation {
    let weights = config.weights;
    let (sn, tn) = (source.node(s), target.node(t));

    let label = AxisExplanation {
        score: name.score,
        grade: match name.grade {
            LabelGrade::Exact => AxisGrade::Exact,
            LabelGrade::Relaxed => AxisGrade::Relaxed,
            LabelGrade::None => AxisGrade::None,
        },
        weight: weights.label,
    };

    let props = compare_properties(&sn.properties, &tn.properties);
    let properties = AxisExplanation {
        score: props.score,
        grade: props.grade,
        weight: weights.properties,
    };

    let leaf_pair = sn.is_leaf() && tn.is_leaf();
    let level_exact = leaf_pair || sn.level == tn.level;
    let level = AxisExplanation {
        score: if level_exact { 1.0 } else { 0.0 },
        // §2.1: for the level axis, relaxed is synonymous with no match.
        grade: if level_exact {
            AxisGrade::Exact
        } else {
            AxisGrade::Relaxed
        },
        weight: weights.level,
    };

    // Children decomposition, mirroring the hybrid's best-per-source-child.
    let mut children = Vec::with_capacity(sn.children.len());
    let mut qom_sum = 0.0;
    let mut matched = 0usize;
    let mut any_relaxed = false;
    for &cs in &sn.children {
        let best = tn
            .children
            .iter()
            .map(|&ct| (ct, matrix.get(cs, ct)))
            .max_by(|a, b| a.1.total_cmp(&b.1));
        let (target_label, best_qom) = match best {
            Some((ct, v)) => (Some(target.node(ct).label.clone()), v),
            None => (None, 0.0),
        };
        let kept = best_qom >= config.threshold;
        if kept {
            qom_sum += best_qom;
            matched += 1;
            if best_qom < 0.999 {
                any_relaxed = true;
            }
        }
        children.push(ChildMatch {
            source_label: source.node(cs).label.clone(),
            target_label,
            best_qom,
            kept,
        });
    }
    let total = sn.children.len();
    let (rw, rs, qomc) = if leaf_pair {
        (1.0, 1.0, 1.0)
    } else if sn.is_leaf() != tn.is_leaf() {
        (0.0, 0.0, 0.0)
    } else {
        let n = total as f64;
        (
            qom_sum / n,
            matched as f64 / n,
            children_qom(qom_sum, matched, total),
        )
    };
    let coverage = CoverageGrade::classify(total, matched, any_relaxed);
    let children_axis = AxisExplanation {
        score: qomc,
        grade: coverage_to_axis(coverage),
        weight: weights.children,
    };

    let qom = matrix.get(s, t);
    let category = MatchCategory::combine(label.grade, properties.grade, level.grade, coverage);

    Explanation {
        source_path: source.path_labels(s).join("/"),
        target_path: target.path_labels(t).join("/"),
        label,
        properties,
        level,
        children_axis,
        children: ChildrenExplanation {
            children,
            rw,
            rs,
            qomc,
            coverage,
        },
        qom,
        category,
    }
}

fn coverage_to_axis(coverage: CoverageGrade) -> AxisGrade {
    match coverage {
        CoverageGrade::TotalExact => AxisGrade::Exact,
        CoverageGrade::None => AxisGrade::None,
        _ => AxisGrade::Relaxed,
    }
}

impl fmt::Display for Explanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}  vs  {}", self.source_path, self.target_path)?;
        writeln!(f, "  QoM = {:.3}   category: {}", self.qom, self.category)?;
        let axis = |f: &mut fmt::Formatter<'_>, name: &str, a: &AxisExplanation| {
            writeln!(
                f,
                "  {name:<10} score {:.3} × weight {:.2} = {:.3}   ({})",
                a.score,
                a.weight,
                a.contribution(),
                a.grade
            )
        };
        axis(f, "label", &self.label)?;
        axis(f, "properties", &self.properties)?;
        axis(f, "level", &self.level)?;
        axis(f, "children", &self.children_axis)?;
        if !self.children.children.is_empty() {
            writeln!(
                f,
                "  children axis: Rw {:.3}, Rs {:.3}, coverage {}",
                self.children.rw, self.children.rs, self.children.coverage
            )?;
            for c in &self.children.children {
                writeln!(
                    f,
                    "    {} -> {}  ({:.3}{})",
                    c.source_label,
                    c.target_label.as_deref().unwrap_or("∅"),
                    c.best_qom,
                    if c.kept { "" } else { ", below threshold" }
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{run_trees, Algorithm};

    fn po_trees() -> (SchemaTree, SchemaTree) {
        let source = SchemaTree::from_labels(
            "PO",
            &[
                ("PO", None),
                ("OrderNo", Some(0)),
                ("Quantity", Some(0)),
                ("UnitOfMeasure", Some(0)),
            ],
        );
        let target = SchemaTree::from_labels(
            "PurchaseOrder",
            &[
                ("PurchaseOrder", None),
                ("OrderNo", Some(0)),
                ("Qty", Some(0)),
                ("UOM", Some(0)),
            ],
        );
        (source, target)
    }

    #[test]
    fn explanation_total_matches_the_matrix_cell() {
        let (s, t) = po_trees();
        let config = MatchConfig::default();
        let outcome = run_trees(&Algorithm::Hybrid, &s, &t, &config, 1);
        for (sid, _) in s.iter() {
            for (tid, _) in t.iter() {
                let e = explain_with_matrix(&s, &t, sid, tid, &config, &outcome.matrix);
                assert!(
                    (e.qom - outcome.matrix.get(sid, tid)).abs() < 1e-12,
                    "{} vs {}",
                    e.source_path,
                    e.target_path
                );
                // The axis contributions must reconstruct the QoM.
                let reconstructed = e.label.contribution()
                    + e.properties.contribution()
                    + e.level.contribution()
                    + e.children_axis.contribution();
                assert!((reconstructed - e.qom).abs() < 1e-9, "{e}");
            }
        }
    }

    #[test]
    fn root_pair_explanation_reads_sensibly() {
        let (s, t) = po_trees();
        let e = explain_pair(&s, &t, s.root_id(), t.root_id(), &MatchConfig::default());
        assert_eq!(e.source_path, "PO");
        assert_eq!(e.target_path, "PurchaseOrder");
        assert_eq!(e.children.children.len(), 3);
        assert!(
            e.children.children.iter().all(|c| c.kept),
            "all PO children match"
        );
        assert_eq!(e.children.coverage, CoverageGrade::TotalRelaxed);
        assert_eq!(e.category, MatchCategory::TotalRelaxed);
        let text = e.to_string();
        assert!(text.contains("category: total relaxed"), "{text}");
        assert!(text.contains("OrderNo -> OrderNo"), "{text}");
        assert!(text.contains("Rw"), "{text}");
    }

    #[test]
    fn leaf_pair_has_default_exact_children_and_level() {
        let (s, t) = po_trees();
        let e = explain_pair(
            &s,
            &t,
            s.find_by_label("OrderNo").unwrap(),
            t.find_by_label("OrderNo").unwrap(),
            &MatchConfig::default(),
        );
        assert_eq!(e.children.qomc, 1.0);
        assert_eq!(e.level.score, 1.0);
        assert_eq!(e.category, MatchCategory::TotalExact);
        assert!((e.qom - 1.0).abs() < 1e-9);
    }

    #[test]
    fn leaf_vs_subtree_gets_zero_children() {
        let (s, t) = po_trees();
        let e = explain_pair(
            &s,
            &t,
            s.find_by_label("OrderNo").unwrap(),
            t.root_id(),
            &MatchConfig::default(),
        );
        assert_eq!(e.children.qomc, 0.0);
        assert_eq!(e.children_axis.contribution(), 0.0);
    }

    #[test]
    fn below_threshold_children_are_flagged() {
        let s = SchemaTree::from_labels("r", &[("r", None), ("zebra", Some(0))]);
        let t = SchemaTree::from_labels("r", &[("r", None), ("quark", Some(0))]);
        let e = explain_pair(&s, &t, s.root_id(), t.root_id(), &MatchConfig::default());
        let text = e.to_string();
        // zebra/quark: unrelated labels but same shape — the leaf pair
        // scores 0.7 (props + C), which clears the 0.5 default threshold.
        assert_eq!(e.children.children.len(), 1);
        let strict = MatchConfig {
            threshold: 0.9,
            ..MatchConfig::default()
        };
        let e2 = explain_pair(&s, &t, s.root_id(), t.root_id(), &strict);
        assert!(!e2.children.children[0].kept);
        assert!(e2.to_string().contains("below threshold"), "{text}");
    }
}
