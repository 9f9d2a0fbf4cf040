//! Exact top-k ranking by a root-QoM bound.
//!
//! A top-k query ranks candidates by hybrid root QoM (`total_qom`),
//! descending, ties broken by the smaller name. Equation 1 scores the root
//! pair as `WL·L + WP·P + WH·H + WC·C` with every axis at most 1, so the
//! roots' label and property scores alone bound a candidate's `total_qom`
//! ([`MatchSession::root_qom_bounds`]) — no prepare, no label table, no DP.
//! [`MatchSession::rank_topk`] sorts the candidates by that bound and runs
//! the DP in that order, stopping once `k` entries are held and the next
//! bound is strictly below the current k-th score: no remaining candidate
//! can then reach the top `k`, not even by the name tie-break. The result
//! is the ranking of an exhaustive run over the same candidates, bit for
//! bit (DESIGN.md §19).
//!
//! The bound is a property of the hybrid engine's root cell; every other
//! algorithm (CUPID's `total_qom` is a mean over source nodes) ranks
//! exhaustively.

use crate::algorithms::{root_qom_bound, Algorithm, CompositeError};
use crate::intern::Symbol;
use crate::matrix::Precision;
use crate::props::compare_properties;
use crate::session::{MatchSession, PreparedSchema};
use qmatch_xsd::Properties;
use std::cmp::Ordering;
use std::ops::Deref;

/// A schema a ranking may run the engine on, as the bounded search sees it
/// before preparing it.
#[derive(Debug, Clone, Copy)]
pub struct Candidate<'a> {
    /// The name the ranking reports and breaks ties by.
    pub name: &'a str,
    /// The root label's symbol, interned through the ranking session's
    /// interner (or one it shares).
    pub root: Symbol,
    /// The root node's properties.
    pub root_props: &'a Properties,
}

impl<'a> Candidate<'a> {
    /// The candidate facts of a prepared schema registered as `name`.
    pub fn of(name: &'a str, prepared: &'a PreparedSchema) -> Candidate<'a> {
        let root = prepared.tree().root_id();
        Candidate {
            name,
            root: prepared.symbol(root),
            root_props: prepared.props(root),
        }
    }
}

/// What one ranking cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TopkWork {
    /// Candidates the engine ran on.
    pub dp_runs: u64,
    /// Candidates the bound ruled out before any prepare or engine run.
    pub bound_pruned: u64,
}

/// A finished ranking.
#[derive(Debug, Clone, PartialEq)]
pub struct Topk {
    /// The top `k` as `(name, total_qom)`: QoM descending, ties broken by
    /// the lexicographically smaller name.
    pub ranking: Vec<(String, f64)>,
    /// The work it took.
    pub work: TopkWork,
}

/// The ranking order: QoM descending, then name ascending.
fn rank_order(a: (&str, f64), b: (&str, f64)) -> Ordering {
    b.1.total_cmp(&a.1).then_with(|| a.0.cmp(b.0))
}

impl MatchSession {
    /// An upper bound on the hybrid `total_qom` of `source` against each
    /// candidate, in order. Reads the roots' label scores through the
    /// session label cache (one lookup per distinct root label; a miss is
    /// graded and cached like a label-matrix build's).
    pub fn root_qom_bounds(
        &self,
        source: &PreparedSchema,
        candidates: &[Candidate<'_>],
    ) -> Vec<f64> {
        let roots: Vec<Symbol> = candidates.iter().map(|c| c.root).collect();
        let labels = self.root_label_scores(source, &roots);
        let source_props = source.props(source.tree().root_id());
        let weights = &self.config().weights;
        candidates
            .iter()
            .zip(labels)
            .map(|(c, label)| {
                let properties = compare_properties(source_props, c.root_props).score;
                root_qom_bound(weights, label, properties)
            })
            .collect()
    }

    /// The top `k` of `candidates` against `source` under `algorithm` at
    /// `precision`. `fetch` supplies a candidate's prepared schema by name
    /// and is called only for candidates the engine runs on; a `None`
    /// skips the candidate.
    ///
    /// Under [`Algorithm::Hybrid`] the candidates run in bound order
    /// ([`MatchSession::root_qom_bounds`]) until no remaining bound can
    /// reach the k-th score; any other algorithm runs every candidate. The
    /// ranking equals that of running every candidate, sorting and
    /// truncating to `k`. Only [`Algorithm::Composite`] can fail.
    pub fn rank_topk<P, F>(
        &self,
        algorithm: &Algorithm,
        source: &PreparedSchema,
        candidates: &[Candidate<'_>],
        k: usize,
        precision: Precision,
        mut fetch: F,
    ) -> Result<Topk, CompositeError>
    where
        P: Deref<Target = PreparedSchema>,
        F: FnMut(&str) -> Option<P>,
    {
        if k == 0 {
            return Ok(Topk {
                ranking: Vec::new(),
                work: TopkWork::default(),
            });
        }
        let order: Vec<(f64, &str)> = if *algorithm == Algorithm::Hybrid {
            let mut order: Vec<(f64, &str)> = self
                .root_qom_bounds(source, candidates)
                .into_iter()
                .zip(candidates.iter().map(|c| c.name))
                .collect();
            order.sort_by(|a, b| rank_order((a.1, a.0), (b.1, b.0)));
            order
        } else {
            // No bound: an infinite one never stops the scan.
            candidates.iter().map(|c| (f64::INFINITY, c.name)).collect()
        };
        scan(&order, k, |name| {
            let Some(target) = fetch(name) else {
                return Ok(None);
            };
            let outcome = self.run_with_precision(algorithm, source, &target, precision)?;
            let qom = outcome.total_qom;
            self.recycle(outcome);
            Ok(Some(qom))
        })
    }
}

/// The threshold scan over `order` — `(bound, name)` pairs in bound order —
/// keeping the top `k >= 1` by [`rank_order`]. `score` runs the engine on
/// a name (`None` skips it). The scan stops once `k` entries are held and
/// the next bound is strictly below the k-th score: a candidate whose
/// bound equals that score may still tie it and win on the name.
fn scan<E>(
    order: &[(f64, &str)],
    k: usize,
    mut score: impl FnMut(&str) -> Result<Option<f64>, E>,
) -> Result<Topk, E> {
    let mut work = TopkWork::default();
    let mut top: Vec<(&str, f64)> = Vec::new();
    for (at, &(bound, name)) in order.iter().enumerate() {
        if top.len() == k && bound < top[k - 1].1 {
            work.bound_pruned = (order.len() - at) as u64;
            break;
        }
        let Some(qom) = score(name)? else {
            continue;
        };
        work.dp_runs += 1;
        let entry = (name, qom);
        let at = top.partition_point(|&held| rank_order(held, entry) == Ordering::Less);
        if at < k {
            top.insert(at, entry);
            top.truncate(k);
        }
    }
    Ok(Topk {
        ranking: top
            .into_iter()
            .map(|(name, qom)| (name.to_owned(), qom))
            .collect(),
        work,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;

    /// Scans `(bound, name, score)` rows given in bound order.
    fn run(rows: &[(f64, &str, f64)], k: usize) -> Topk {
        let order: Vec<(f64, &str)> = rows.iter().map(|&(b, n, _)| (b, n)).collect();
        let scores: std::collections::HashMap<&str, f64> =
            rows.iter().map(|&(_, n, s)| (n, s)).collect();
        scan::<Infallible>(&order, k, |name| Ok(Some(scores[name]))).unwrap()
    }

    #[test]
    fn a_bound_equal_to_the_kth_score_is_still_scanned() {
        // "a" can only tie "z"'s 0.5, but wins the tie on its name.
        let topk = run(&[(0.9, "z", 0.5), (0.5, "a", 0.5), (0.4, "b", 0.4)], 1);
        assert_eq!(topk.ranking, [("a".to_owned(), 0.5)]);
        assert_eq!(
            topk.work,
            TopkWork {
                dp_runs: 2,
                bound_pruned: 1
            }
        );
    }

    #[test]
    fn the_scan_keeps_the_exhaustive_order_and_counts_its_work() {
        let rows = [
            (0.95, "m", 0.6),
            (0.9, "c", 0.7),
            (0.9, "d", 0.7),
            (0.8, "a", 0.2),
            (0.65, "x", 0.65),
            (0.3, "y", 0.3),
            (0.2, "b", 0.2),
        ];
        let topk = run(&rows, 2);
        assert_eq!(topk.ranking, [("c".to_owned(), 0.7), ("d".to_owned(), 0.7)]);
        // "x" (bound 0.65) is below the 2nd score 0.7: it and the rest prune.
        assert_eq!(
            topk.work,
            TopkWork {
                dp_runs: 4,
                bound_pruned: 3
            }
        );
        // With k above the candidate count nothing prunes.
        let all = run(&rows, 10);
        assert_eq!(all.work.bound_pruned, 0);
        let names: Vec<&str> = all.ranking.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["c", "d", "x", "m", "y", "a", "b"]);
    }

    #[test]
    fn skipped_candidates_count_as_neither_run_nor_pruned() {
        let order = [(0.9, "gone"), (0.8, "kept")];
        let topk =
            scan::<Infallible>(&order, 1, |name| Ok((name == "kept").then_some(0.5))).unwrap();
        assert_eq!(topk.ranking, [("kept".to_owned(), 0.5)]);
        assert_eq!(
            topk.work,
            TopkWork {
                dp_runs: 1,
                bound_pruned: 0
            }
        );
    }
}
