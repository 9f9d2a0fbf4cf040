//! Weight determination (paper §5.1, Table 2).
//!
//! The paper selects the axis weights by sweeping candidate weight vectors
//! over schema pairs from several domains, comparing the QMatch output
//! against expected match values determined beforehand. This module
//! implements that sweep: a grid of unit-sum weight vectors is scored by the
//! *Overall* quality of the mapping each vector produces against the gold
//! standard, and the best vectors (and the per-axis ranges they span) are
//! reported.

use crate::eval::{evaluate, GoldStandard};
use crate::mapping::extract_mapping;
use crate::model::{MatchConfig, Weights};
use qmatch_xsd::SchemaTree;

/// One schema pair with its gold standard — a tuning task.
pub struct TuningTask<'a> {
    /// Human-readable pair name (e.g. `PO`).
    pub name: &'a str,
    /// Source schema.
    pub source: &'a SchemaTree,
    /// Target schema.
    pub target: &'a SchemaTree,
    /// Real matches.
    pub gold: &'a GoldStandard,
}

/// The score of one weight vector across all tasks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// The weight vector evaluated.
    pub weights: Weights,
    /// Mean Overall quality across the tasks.
    pub mean_overall: f64,
}

/// Generates all unit-sum weight vectors on a grid with the given `step`
/// (e.g. 0.1 yields 286 vectors). Components are multiples of `step`.
pub fn weight_grid(step: f64) -> Vec<Weights> {
    assert!(step > 0.0 && step <= 0.5, "step must be in (0, 0.5]");
    let n = (1.0 / step).round() as u32;
    let mut out = Vec::new();
    for l in 0..=n {
        for p in 0..=n - l {
            for h in 0..=n - l - p {
                let c = n - l - p - h;
                let to_f = |x: u32| x as f64 / n as f64;
                // Construction guarantees the unit sum.
                out.push(Weights {
                    label: to_f(l),
                    properties: to_f(p),
                    level: to_f(h),
                    children: to_f(c),
                });
            }
        }
    }
    out
}

/// Scores one weight vector: the mean Overall across the tasks, matching
/// with the given threshold.
pub fn score_weights(weights: Weights, tasks: &[TuningTask<'_>], threshold: f64) -> f64 {
    if tasks.is_empty() {
        return 0.0;
    }
    let config = MatchConfig {
        weights,
        threshold,
        ..MatchConfig::default()
    };
    let session = crate::session::MatchSession::new(config);
    let total: f64 = tasks
        .iter()
        .map(|task| {
            let (sp, tp) = (session.prepare(task.source), session.prepare(task.target));
            let outcome = session.hybrid(&sp, &tp);
            // Extraction adapts to the weight vector: the leaf constant
            // C = WH + WC shifts every score, so a fixed cut would bias the
            // sweep toward label-heavy vectors.
            let mapping = extract_mapping(&outcome.matrix, weights.acceptance_threshold());
            evaluate(&mapping, task.source, task.target, task.gold).overall
        })
        .sum();
    total / tasks.len() as f64
}

/// Runs the full sweep, returning every grid point sorted best-first.
pub fn sweep(tasks: &[TuningTask<'_>], step: f64, threshold: f64) -> Vec<SweepPoint> {
    let mut points: Vec<SweepPoint> = weight_grid(step)
        .into_iter()
        .map(|weights| SweepPoint {
            weights,
            mean_overall: score_weights(weights, tasks, threshold),
        })
        .collect();
    points.sort_by(|a, b| b.mean_overall.total_cmp(&a.mean_overall));
    points
}

/// Calibrates the mapping-acceptance threshold for one task: grid-searches
/// thresholds (step 0.01 over `[0.3, 1.0]`) against the gold standard and
/// returns `(best_threshold, best_overall)` — the paper's §7 claim that QoM
/// is "a useful tool for tuning existing schema match algorithms to output
/// at desired levels of matching", made executable. Ties prefer the lowest
/// threshold (more recall at equal Overall).
pub fn calibrate_threshold(task: &TuningTask<'_>, config: &MatchConfig) -> (f64, f64) {
    let session = crate::session::MatchSession::new(*config);
    let (sp, tp) = (session.prepare(task.source), session.prepare(task.target));
    let outcome = session.hybrid(&sp, &tp);
    let mut best = (0.3, f64::NEG_INFINITY);
    for step in 0..=70 {
        let threshold = 0.3 + step as f64 / 100.0;
        let mapping = extract_mapping(&outcome.matrix, threshold);
        let overall = evaluate(&mapping, task.source, task.target, task.gold).overall;
        if overall > best.1 + 1e-12 {
            best = (threshold, overall);
        }
    }
    best
}

/// The per-axis min/max among the best `top_n` sweep points — the "ideal
/// ranges" §5.1 reports (label 0.25–0.4, properties/level 0.1–0.2, children
/// 0.3–0.5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AxisRanges {
    /// Label-axis range.
    pub label: (f64, f64),
    /// Properties-axis range.
    pub properties: (f64, f64),
    /// Level-axis range.
    pub level: (f64, f64),
    /// Children-axis range.
    pub children: (f64, f64),
}

/// Computes the per-axis ranges spanned by the best `top_n` points.
pub fn best_ranges(points: &[SweepPoint], top_n: usize) -> AxisRanges {
    let top = &points[..top_n.min(points.len())];
    let range = |get: fn(&Weights) -> f64| {
        let lo = top
            .iter()
            .map(|p| get(&p.weights))
            .fold(f64::INFINITY, f64::min);
        let hi = top
            .iter()
            .map(|p| get(&p.weights))
            .fold(f64::NEG_INFINITY, f64::max);
        (lo, hi)
    };
    AxisRanges {
        label: range(|w| w.label),
        properties: range(|w| w.properties),
        level: range(|w| w.level),
        children: range(|w| w.children),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{run_trees, Algorithm};

    #[test]
    fn grid_is_unit_sum_and_complete() {
        let grid = weight_grid(0.1);
        // Compositions of 10 into 4 parts: C(13,3) = 286.
        assert_eq!(grid.len(), 286);
        for w in &grid {
            assert!(w.validate().is_ok(), "{w:?}");
        }
        // Extremes are present.
        assert!(grid.iter().any(|w| w.label == 1.0));
        assert!(grid.iter().any(|w| w.children == 1.0));
        // The paper's vector is on the grid.
        assert!(grid.iter().any(|w| (w.label - 0.3).abs() < 1e-9
            && (w.properties - 0.2).abs() < 1e-9
            && (w.level - 0.1).abs() < 1e-9
            && (w.children - 0.4).abs() < 1e-9));
    }

    #[test]
    fn coarser_grid_is_smaller() {
        // Compositions of 4 into 4 parts: C(7,3) = 35.
        assert_eq!(weight_grid(0.25).len(), 35);
        assert_eq!(weight_grid(0.5).len(), 10);
    }

    #[test]
    #[should_panic(expected = "step")]
    fn rejects_bad_step() {
        weight_grid(0.0);
    }

    fn tiny_task() -> (SchemaTree, SchemaTree, GoldStandard) {
        let s = SchemaTree::from_labels(
            "PO",
            &[("PO", None), ("OrderNo", Some(0)), ("Quantity", Some(0))],
        );
        let t = SchemaTree::from_labels(
            "PurchaseOrder",
            &[
                ("PurchaseOrder", None),
                ("OrderNo", Some(0)),
                ("Qty", Some(0)),
            ],
        );
        let gold = GoldStandard::from_pairs([
            ("PO", "PurchaseOrder"),
            ("PO/OrderNo", "PurchaseOrder/OrderNo"),
            ("PO/Quantity", "PurchaseOrder/Qty"),
        ]);
        (s, t, gold)
    }

    #[test]
    fn paper_weights_score_well_on_a_sane_task() {
        let (s, t, gold) = tiny_task();
        let tasks = [TuningTask {
            name: "PO",
            source: &s,
            target: &t,
            gold: &gold,
        }];
        let score = score_weights(Weights::PAPER, &tasks, 0.5);
        assert!(
            score > 0.9,
            "paper weights should solve the tiny task: {score}"
        );
    }

    #[test]
    fn sweep_sorts_best_first_and_keeps_all_points() {
        let (s, t, gold) = tiny_task();
        let tasks = [TuningTask {
            name: "PO",
            source: &s,
            target: &t,
            gold: &gold,
        }];
        let points = sweep(&tasks, 0.25, 0.5);
        assert_eq!(points.len(), 35);
        for w in points.windows(2) {
            assert!(w[0].mean_overall >= w[1].mean_overall);
        }
    }

    #[test]
    fn best_ranges_cover_top_points() {
        let (s, t, gold) = tiny_task();
        let tasks = [TuningTask {
            name: "PO",
            source: &s,
            target: &t,
            gold: &gold,
        }];
        let points = sweep(&tasks, 0.25, 0.5);
        let ranges = best_ranges(&points, 5);
        assert!(ranges.label.0 <= ranges.label.1);
        assert!(ranges.children.0 <= ranges.children.1);
        assert!(ranges.label.1 <= 1.0 && ranges.label.0 >= 0.0);
    }

    #[test]
    fn calibrated_threshold_beats_or_ties_any_fixed_choice() {
        let (s, t, gold) = tiny_task();
        let task = TuningTask {
            name: "PO",
            source: &s,
            target: &t,
            gold: &gold,
        };
        let config = MatchConfig::default();
        let (threshold, best) = calibrate_threshold(&task, &config);
        assert!((0.3..=1.0).contains(&threshold));
        // No fixed grid threshold can do better than the calibrated one.
        let outcome = run_trees(&Algorithm::Hybrid, &s, &t, &config, 1);
        for step in 0..=70 {
            let fixed = 0.3 + step as f64 / 100.0;
            let mapping = extract_mapping(&outcome.matrix, fixed);
            let overall = evaluate(&mapping, &s, &t, &gold).overall;
            assert!(best + 1e-9 >= overall, "fixed {fixed} beats calibrated");
        }
        assert!(best > 0.9, "the tiny task is solvable: {best}");
    }

    #[test]
    fn empty_tasks_score_zero() {
        assert_eq!(score_weights(Weights::PAPER, &[], 0.5), 0.0);
    }
}
