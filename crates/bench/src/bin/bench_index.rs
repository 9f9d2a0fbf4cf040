//! Candidate-generation index benchmark and recall harness.
//!
//! Builds drifted synthetic registries (1k/2k/10k schemas by default, 100k
//! with `--full`) from the paper corpus via
//! `qmatch_datasets::drift::synthetic_registry`, then answers top-k
//! queries four ways: exhaustively (the full hybrid DP against every
//! registered schema, the from-scratch reference), through
//! `qmatch_core::index::CorpusIndex` (DP for every prefilter survivor),
//! and through `MatchSession::rank_topk` — the ranking `/v1/match/topk`
//! serves — over the index's survivors and over every schema (DP only
//! while a candidate's root-QoM bound can still reach the top k). For each
//! registry size it records DP invocations of each, candidates examined,
//! recall@k of the indexed ranking against the exhaustive one, and wall
//! times to `BENCH_index.json`, among them the cost of the root-QoM bound
//! itself over the whole registry (`bound_ms`: one root-label lookup on a
//! cold label cache and one property comparison per schema).
//!
//! `cargo run --release -p qmatch-bench --bin bench_index [OUT.json] [--test] [--gate] [--full]`
//!
//! * `--test` — smoke mode: one tiny registry, no JSON written (unless an
//!   output path is given explicitly).
//! * `--gate` — CI accuracy gate: pinned-seed 1k-schema registry, output
//!   restricted to deterministic counts (no wall times, so two runs are
//!   byte-identical), exit 1 if recall@10 under the `auto` policy drops
//!   below 1.0, if a bounded ranking differs from its exhaustive reference,
//!   or if the bound inside the index runs more DPs than the index alone.
//! * `--full` — also measure the 100k-schema registry (slow; not run in
//!   CI).
//!
//! The indexed ranking uses the same total order as the exhaustive one
//! (QoM descending, name ascending), so whenever the candidate set covers
//! the true top-k the two rankings are identical, not merely overlapping.

use qmatch_core::index::{CorpusIndex, IndexParams, IndexPolicy, Signature};
use qmatch_core::model::MatchConfig;
use qmatch_core::report::Table;
use qmatch_core::session::{MatchSession, PreparedSchema};
use qmatch_core::{Algorithm, Candidate, TopkWork};
use qmatch_datasets::drift::{synthetic_registry, GATE_SEED};
use std::collections::HashSet;
use std::time::Instant;

/// Ranked targets for `query` over the prepared schemas at `subset`
/// indices: QoM descending, name ascending, truncated to `k` — the exact
/// order `MatchSession::rank_topk` and `/v1/match/topk` produce. The
/// from-scratch reference: every schema of the subset runs the DP.
fn rank_subset(
    session: &MatchSession,
    names: &[String],
    prepared: &[PreparedSchema],
    query: usize,
    subset: &[usize],
    k: usize,
) -> Vec<(String, f64)> {
    let mut ranking: Vec<(String, f64)> = Vec::with_capacity(subset.len());
    for &i in subset {
        if i == query {
            continue;
        }
        let outcome = session
            .run(&Algorithm::Hybrid, &prepared[query], &prepared[i])
            .expect("hybrid is infallible");
        ranking.push((names[i].clone(), outcome.total_qom));
        session.recycle(outcome);
    }
    ranking.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    ranking.truncate(k);
    ranking
}

/// [`rank_subset`] through `MatchSession::rank_topk`: the DP runs only
/// while a candidate's root-QoM bound can still reach the top `k`.
fn rank_bounded(
    session: &MatchSession,
    names: &[String],
    prepared: &[PreparedSchema],
    query: usize,
    subset: &[usize],
    k: usize,
) -> (Vec<(String, f64)>, TopkWork) {
    let candidates: Vec<Candidate> = subset
        .iter()
        .filter(|&&i| i != query)
        .map(|&i| Candidate::of(&names[i], &prepared[i]))
        .collect();
    let fetch = |name: &str| {
        names
            .binary_search_by(|n| n.as_str().cmp(name))
            .ok()
            .map(|i| &prepared[i])
    };
    let topk = session
        .rank_topk(
            &Algorithm::Hybrid,
            &prepared[query],
            &candidates,
            k,
            session.config().precision,
            fetch,
        )
        .expect("hybrid is infallible");
    (topk.ranking, topk.work)
}

/// Everything one registry size produces.
struct SizeStats {
    size: usize,
    queries: usize,
    k: usize,
    index_build_ms: f64,
    exhaustive_dp: u64,
    indexed_dp: u64,
    /// DP runs of the bounded ranking over the index's candidates.
    bounded_dp: u64,
    /// DP runs of the bounded ranking over every schema.
    bounded_all_dp: u64,
    /// Queries whose bounded rankings differ from their exhaustive
    /// references.
    mismatches: usize,
    candidates_mean: f64,
    min_recall: f64,
    mean_recall: f64,
    exhaustive_ms_per_query: f64,
    indexed_ms_per_query: f64,
    bounded_ms_per_query: f64,
    /// Wall time of the root-QoM bounds of every schema but the query, on
    /// a session whose label cache is cold.
    bound_ms_per_query: f64,
    /// Per-query lines for `--gate` output.
    per_query: Vec<QueryStats>,
}

/// One query's deterministic counts.
struct QueryStats {
    name: String,
    candidates: usize,
    recall: f64,
    bounded_dp: u64,
    bounded_all_dp: u64,
}

impl SizeStats {
    fn dp_reduction(&self) -> f64 {
        if self.indexed_dp == 0 {
            0.0
        } else {
            self.exhaustive_dp as f64 / self.indexed_dp as f64
        }
    }
}

fn run_size(count: usize, queries: usize, k: usize) -> SizeStats {
    let registry = synthetic_registry(count, GATE_SEED);
    let names: Vec<String> = registry.iter().map(|(n, _)| n.clone()).collect();
    let session = MatchSession::new(MatchConfig::default());
    let prepared: Vec<PreparedSchema> = registry.iter().map(|(_, t)| session.prepare(t)).collect();

    let build_start = Instant::now();
    let signatures: Vec<Signature> = prepared.iter().map(|p| session.signature(p)).collect();
    let mut index = CorpusIndex::default();
    for (name, signature) in names.iter().zip(&signatures) {
        index.insert(name, signature.clone());
    }
    let index_build_ms = build_start.elapsed().as_secs_f64() * 1e3;

    // Warm the session (thesaurus build, arena) outside the timed loops.
    let warm = session
        .run(&Algorithm::Hybrid, &prepared[0], &prepared[0])
        .expect("hybrid is infallible");
    session.recycle(warm);

    let all: Vec<usize> = (0..count).collect();
    let everyone: Vec<Candidate> = names
        .iter()
        .zip(&prepared)
        .map(|(name, p)| Candidate::of(name, p))
        .collect();
    let query_set: Vec<usize> = (0..queries).map(|j| j * count / queries).collect();
    let mut exhaustive_dp = 0u64;
    let mut indexed_dp = 0u64;
    let mut bounded_dp = 0u64;
    let mut bounded_all_dp = 0u64;
    let mut mismatches = 0usize;
    let mut candidates_total = 0usize;
    let mut exhaustive_secs = 0.0f64;
    let mut indexed_secs = 0.0f64;
    let mut bounded_secs = 0.0f64;
    let mut bound_secs = 0.0f64;
    let mut per_query = Vec::with_capacity(queries);
    for &q in &query_set {
        let start = Instant::now();
        let truth = rank_subset(&session, &names, &prepared, q, &all, k);
        exhaustive_secs += start.elapsed().as_secs_f64();
        exhaustive_dp += (count - 1) as u64;

        let start = Instant::now();
        let candidates = index.candidates(&signatures[q]);
        let subset: Vec<usize> = candidates
            .names
            .iter()
            .map(|n| names.binary_search(n).expect("candidate is registered"))
            .collect();
        let indexed = rank_subset(&session, &names, &prepared, q, &subset, k);
        indexed_secs += start.elapsed().as_secs_f64();
        indexed_dp += subset.iter().filter(|&&i| i != q).count() as u64;
        candidates_total += candidates.names.len();

        let start = Instant::now();
        let (answer, inside) = rank_bounded(&session, &names, &prepared, q, &subset, k);
        bounded_secs += start.elapsed().as_secs_f64();
        let (everywhere, all_work) = rank_bounded(&session, &names, &prepared, q, &all, k);
        bounded_dp += inside.dp_runs;
        bounded_all_dp += all_work.dp_runs;
        mismatches += usize::from(answer != indexed || everywhere != truth);

        // The bound alone over the whole registry, from a cold label cache:
        // a session sharing only the interner.
        let mut cold = MatchSession::new(MatchConfig::default());
        cold.share_interner(&session);
        let others: Vec<Candidate> = everyone
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != q)
            .map(|(_, c)| *c)
            .collect();
        let start = Instant::now();
        let bounds = cold.root_qom_bounds(&prepared[q], &others);
        bound_secs += start.elapsed().as_secs_f64();
        assert_eq!(bounds.len(), count - 1);

        let truth_names: HashSet<&str> = truth.iter().map(|(n, _)| n.as_str()).collect();
        let hits = answer
            .iter()
            .filter(|(n, _)| truth_names.contains(n.as_str()))
            .count();
        let recall = if truth_names.is_empty() {
            1.0
        } else {
            hits as f64 / truth_names.len() as f64
        };
        per_query.push(QueryStats {
            name: names[q].clone(),
            candidates: candidates.names.len(),
            recall,
            bounded_dp: inside.dp_runs,
            bounded_all_dp: all_work.dp_runs,
        });
    }

    let min_recall = per_query.iter().map(|q| q.recall).fold(1.0, f64::min);
    let mean_recall = per_query.iter().map(|q| q.recall).sum::<f64>() / per_query.len() as f64;
    SizeStats {
        size: count,
        queries,
        k,
        index_build_ms,
        exhaustive_dp,
        indexed_dp,
        bounded_dp,
        bounded_all_dp,
        mismatches,
        candidates_mean: candidates_total as f64 / queries as f64,
        min_recall,
        mean_recall,
        exhaustive_ms_per_query: exhaustive_secs * 1e3 / queries as f64,
        indexed_ms_per_query: indexed_secs * 1e3 / queries as f64,
        bounded_ms_per_query: bounded_secs * 1e3 / queries as f64,
        bound_ms_per_query: bound_secs * 1e3 / queries as f64,
        per_query,
    }
}

fn main() {
    let mut out_path: Option<String> = None;
    let mut smoke = false;
    let mut gate = false;
    let mut full = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--test" => smoke = true,
            "--gate" => gate = true,
            "--full" => full = true,
            other if !other.starts_with('-') => out_path = Some(other.to_owned()),
            other => {
                eprintln!(
                    "unknown flag {other}; usage: bench_index [OUT.json] [--test] [--gate] [--full]"
                );
                std::process::exit(2);
            }
        }
    }

    if gate {
        // The accuracy gate: deterministic output only (counts, recalls —
        // never wall times), so CI can diff two runs byte-for-byte.
        let k = 10;
        let stats = run_size(1000, 20, k);
        let engages = IndexPolicy::Auto.engages(stats.size, &IndexParams::default());
        println!(
            "accuracy-gate: size={} queries={} k={k} policy=auto engaged={engages} seed={GATE_SEED:#x}",
            stats.size, stats.queries
        );
        for q in &stats.per_query {
            println!(
                "query {}: candidates={} recall@{k}={:.3} bounded_dp={} bounded_all_dp={}",
                q.name, q.candidates, q.recall, q.bounded_dp, q.bounded_all_dp
            );
        }
        println!(
            "recall@{k} min={:.3} mean={:.3} dp_reduction={:.1}x ({} -> {})",
            stats.min_recall,
            stats.mean_recall,
            stats.dp_reduction(),
            stats.exhaustive_dp,
            stats.indexed_dp
        );
        println!(
            "bounded: dp={} (index {}) dp_all={} mismatches={}",
            stats.bounded_dp, stats.indexed_dp, stats.bounded_all_dp, stats.mismatches
        );
        if !engages
            || stats.min_recall < 1.0
            || stats.mismatches > 0
            || stats.bounded_dp > stats.indexed_dp
        {
            println!("FAIL");
            std::process::exit(1);
        }
        println!("PASS");
        return;
    }

    // Smoke mode writes no JSON unless a path was given explicitly.
    let out_path = match (out_path, smoke) {
        (Some(p), _) => Some(p),
        (None, false) => Some("BENCH_index.json".to_owned()),
        (None, true) => None,
    };
    let sizes: Vec<(usize, usize)> = if smoke {
        vec![(200, 8)]
    } else if full {
        vec![(1000, 20), (2000, 20), (10_000, 12), (100_000, 8)]
    } else {
        vec![(1000, 20), (2000, 20), (10_000, 12)]
    };

    let mut table = Table::new([
        "size",
        "queries",
        "build ms",
        "exh DP",
        "idx DP",
        "bound DP",
        "bound-all DP",
        "reduction",
        "recall@10",
        "exh ms/q",
        "idx ms/q",
        "bound ms/q",
        "bound-only ms/q",
    ]);
    let mut entries = Vec::new();
    for (count, queries) in sizes {
        let stats = run_size(count, queries, 10);
        table.row([
            stats.size.to_string(),
            stats.queries.to_string(),
            format!("{:.1}", stats.index_build_ms),
            stats.exhaustive_dp.to_string(),
            stats.indexed_dp.to_string(),
            stats.bounded_dp.to_string(),
            stats.bounded_all_dp.to_string(),
            format!("{:.1}x", stats.dp_reduction()),
            format!("{:.3}", stats.min_recall),
            format!("{:.1}", stats.exhaustive_ms_per_query),
            format!("{:.1}", stats.indexed_ms_per_query),
            format!("{:.1}", stats.bounded_ms_per_query),
            format!("{:.2}", stats.bound_ms_per_query),
        ]);
        entries.push(format!(
            "    {{\"size\": {}, \"queries\": {}, \"k\": {}, \
             \"index_build_ms\": {:.3}, \"exhaustive_dp\": {}, \
             \"indexed_dp\": {}, \"bounded_dp\": {}, \"bounded_all_dp\": {}, \
             \"bounded_mismatches\": {}, \"dp_reduction\": {:.3}, \
             \"candidates_mean\": {:.1}, \"recall_at_10_min\": {:.3}, \
             \"recall_at_10_mean\": {:.3}, \"exhaustive_topk_ms\": {:.3}, \
             \"indexed_topk_ms\": {:.3}, \"bounded_topk_ms\": {:.3}, \
             \"bound_ms\": {:.3}}}",
            stats.size,
            stats.queries,
            stats.k,
            stats.index_build_ms,
            stats.exhaustive_dp,
            stats.indexed_dp,
            stats.bounded_dp,
            stats.bounded_all_dp,
            stats.mismatches,
            stats.dp_reduction(),
            stats.candidates_mean,
            stats.min_recall,
            stats.mean_recall,
            stats.exhaustive_ms_per_query,
            stats.indexed_ms_per_query,
            stats.bounded_ms_per_query,
            stats.bound_ms_per_query,
        ));
    }

    println!("Candidate index: exhaustive vs prefiltered top-k (seed {GATE_SEED:#x})\n");
    print!("{}", table.render());

    if let Some(out_path) = out_path {
        let json = format!(
            "{{\n  \"bench\": \"index\",\n  \"seed\": {GATE_SEED},\n  \"sizes\": [\n{}\n  ]\n}}\n",
            entries.join(",\n")
        );
        std::fs::write(&out_path, json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
        println!("\nwrote {out_path}");
    }
}
