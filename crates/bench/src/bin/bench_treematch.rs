//! Perf accounting for the parallel TreeMatch engine: times a session pinned
//! to one worker thread (`seq_ms`) against one at the default thread count
//! (`par_ms`, [`par::num_threads`]) on synthetic trees of 10²–10⁴ nodes
//! (self-matches, bounded label vocabulary) and writes the results to
//! `BENCH_treematch.json` so future changes can track the trajectory.
//!
//! Also splits the session API into its two phases — `prepare_ms` is the
//! once-per-schema cost (interning, tokenization, wave construction) and
//! `match_ms` is the warm-cache per-pair cost, i.e. what a corpus run pays
//! for every pair after the first. Timed matches recycle their outcome back
//! into the session arena, exactly like `match_corpus` / `/v1/match/topk`,
//! so `alloc_ms` (the `Phase::Alloc` wall time) collapses to the pool-pull
//! cost after the first pair. `cache_hit_rate` is the session's label-cache
//! hit fraction at the end of the timed matches.
//!
//! Every shape is measured at both storage precisions; each JSON entry
//! carries a `"precision"` tag ("f64" is the bit-exact default, "f32" the
//! memory-lean mode). `peak_rss_mib` is the resident-set high-water delta
//! (`VmHWM`, reset per measurement via `/proc/self/clear_refs`) across the
//! cold matrix allocation plus the timed matches — the number the f32 mode
//! exists to cut. `skipped_cells` counts child-row cells the band prefilter
//! proved unreachable and never read. Both are 0 where procfs is missing.
//!
//! The timed matches run with no trace sink attached (the `NullSink` fast
//! path); a separate recorder-attached warm run supplies the per-phase
//! breakdown (`phases` in the JSON), whose wall times should sum to within
//! ~10% of `match_ms`.
//!
//! `cargo run --release -p qmatch-bench --bin bench_treematch [OUT.json] [--test] [--trace]`
//!
//! * `--test`  — smoke mode: only the smallest shape, no JSON written
//!   (unless an output path is given explicitly). Used by CI's
//!   trace-overhead check.
//! * `--trace` — attach a [`Recorder`] to the
//!   timed f64 matches and print its per-phase report. This deliberately
//!   puts the recorder on the hot path, so `match_ms` then includes trace
//!   overhead; comparing a `--test` run against a `--test --trace` run
//!   bounds the recorder's cost.
//!
//! The speedup column only exceeds 1.0 on multicore hardware; the `threads`
//! and `cores` fields record what the run had available.

use qmatch_bench::synth_tree::{balanced_tree_with_vocab, SCHEMA_VOCAB};
use qmatch_core::algorithms::Algorithm;
use qmatch_core::matrix::Precision;
use qmatch_core::model::MatchConfig;
use qmatch_core::par;
use qmatch_core::report::Table;
use qmatch_core::session::MatchSession;
use qmatch_core::trace::{Phase, Recorder};
use qmatch_xsd::SchemaTree;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Median wall time of `runs` invocations.
fn time_median<F: FnMut() -> f64>(runs: usize, mut f: F) -> Duration {
    let mut samples: Vec<Duration> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed()
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

/// Peak resident set (`VmHWM`) in MiB. `None` off Linux or when procfs is
/// unavailable — callers fall back to reporting 0.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Resets the RSS high-water mark so each measurement window starts at the
/// current resident set. Writing `5` to `/proc/self/clear_refs` is the
/// documented Linux mechanism; elsewhere this is a no-op and the peak
/// numbers degrade to process-lifetime maxima.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// One-shot hybrid match on a fresh session pinned to `threads` workers:
/// prepare both trees, then match.
fn one_shot(tree: &SchemaTree, config: &MatchConfig, threads: usize) -> f64 {
    let mut session = MatchSession::new(*config);
    session.set_threads(threads);
    let (sp, tp) = (session.prepare(tree), session.prepare(tree));
    session
        .run(&Algorithm::Hybrid, &sp, &tp)
        .expect("hybrid is infallible")
        .total_qom
}

/// What one (shape, precision) measurement produces.
struct PrecisionRun {
    match_ms: f64,
    labels_ms: f64,
    wave_ms: f64,
    alloc_ms: f64,
    skipped_cells: u64,
    peak_rss_mib: f64,
    cache_hit_rate: f64,
    /// The recorder pinned on the timed session under `--trace`.
    timed_recorder: Option<Arc<Recorder>>,
}

/// Times the warm per-pair match at one storage precision and captures the
/// RSS high-water delta of its working set.
///
/// The traced twin session is warmed (and its matrix recycled) *before* the
/// RSS window opens, so the window covers exactly one cold matrix
/// acquisition — the sink-free session's — plus the arena-warm timed loop.
fn measure_precision(
    tree: &SchemaTree,
    config: &MatchConfig,
    precision: Precision,
    runs: usize,
    trace: bool,
) -> PrecisionRun {
    let pconfig = MatchConfig {
        precision,
        ..*config
    };
    let mut session = MatchSession::new(pconfig);
    let timed_recorder = trace.then(|| Arc::new(Recorder::default()));
    if let Some(rec) = &timed_recorder {
        session.set_trace_sink(rec.clone());
    }
    let (sp, tp) = (session.prepare(tree), session.prepare(tree));

    // Per-phase breakdown from a separate recorder-attached session so the
    // match timings stay sink-free. The sink-free and traced matches are
    // interleaved so both medians sample the same noise regime — their
    // totals must agree to ~10%, which a sequential "time all, then trace
    // all" layout does not guarantee on a busy machine.
    let traced = Arc::new(Recorder::default());
    let mut traced_session = MatchSession::new(pconfig);
    traced_session.set_trace_sink(traced.clone());
    let (tsp, ttp) = (traced_session.prepare(tree), traced_session.prepare(tree));
    let warm = traced_session.run(&Algorithm::Hybrid, &tsp, &ttp).unwrap();
    std::hint::black_box(warm.total_qom);
    traced_session.recycle(warm);

    reset_peak_rss();
    let rss_floor = peak_rss_mib().unwrap_or(0.0);
    let warm = session.run(&Algorithm::Hybrid, &sp, &tp).unwrap();
    std::hint::black_box(warm.total_qom);
    session.recycle(warm);

    let mut match_samples: Vec<Duration> = Vec::with_capacity(runs);
    let mut phase_samples: Vec<(f64, f64, f64)> = Vec::with_capacity(runs);
    for _ in 0..runs {
        let start = Instant::now();
        let outcome = session.run(&Algorithm::Hybrid, &sp, &tp).unwrap();
        std::hint::black_box(outcome.total_qom);
        match_samples.push(start.elapsed());
        session.recycle(outcome);
        traced.reset();
        let outcome = traced_session.run(&Algorithm::Hybrid, &tsp, &ttp).unwrap();
        std::hint::black_box(outcome.total_qom);
        traced_session.recycle(outcome);
        phase_samples.push((
            traced.phase_stats(Phase::Labels).wall_ms(),
            traced.phase_stats(Phase::HybridWave).wall_ms(),
            traced.phase_stats(Phase::Alloc).wall_ms(),
        ));
    }
    let rss_peak = peak_rss_mib().unwrap_or(0.0);
    // The prefilter's skip count is a deterministic function of the pair;
    // the last traced run's stats are as good as any.
    let skipped_cells = traced.phase_stats(Phase::HybridWave).skipped;

    match_samples.sort();
    phase_samples.sort_by(|a, b| (a.0 + a.1).total_cmp(&(b.0 + b.1)));
    let (labels_ms, wave_ms, alloc_ms) = phase_samples[runs / 2];
    PrecisionRun {
        match_ms: match_samples[runs / 2].as_secs_f64() * 1e3,
        labels_ms,
        wave_ms,
        alloc_ms,
        skipped_cells,
        peak_rss_mib: (rss_peak - rss_floor).max(0.0),
        cache_hit_rate: session.cache_stats().hit_rate(),
        timed_recorder,
    }
}

fn main() {
    let mut out_path: Option<String> = None;
    let mut smoke = false;
    let mut trace = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--test" => smoke = true,
            "--trace" => trace = true,
            other if !other.starts_with('-') => out_path = Some(other.to_owned()),
            other => {
                eprintln!(
                    "unknown flag {other}; usage: bench_treematch [OUT.json] [--test] [--trace]"
                );
                std::process::exit(2);
            }
        }
    }
    // Smoke mode writes no JSON unless a path was given explicitly.
    let out_path = match (out_path, smoke) {
        (Some(p), _) => Some(p),
        (None, false) => Some("BENCH_treematch.json".to_owned()),
        (None, true) => None,
    };
    let config = MatchConfig::default();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = par::num_threads();

    // (branch, depth) ladders spanning ~10² to ~10⁴ nodes.
    let shapes: &[(usize, usize)] = if smoke {
        &[(4, 3)]
    } else {
        &[(4, 3), (3, 6), (3, 8)]
    };
    let mut table = Table::new([
        "nodes",
        "pairs n*m",
        "seq ms",
        "par ms",
        "speedup",
        "prep ms",
        "match ms",
        "rss MiB",
        "f32 ms",
        "f32 MiB",
    ]);
    let mut entries = Vec::new();
    for &(branch, depth) in shapes {
        let tree = balanced_tree_with_vocab(branch, depth, SCHEMA_VOCAB);
        let n = tree.len();
        // Larger trees get fewer repetitions; the DP dominates either way.
        let runs = if n >= 5000 { 3 } else { 7 };
        // One untimed run per engine: thesaurus construction and allocator
        // warm-up would otherwise land entirely on the first sample.
        std::hint::black_box(one_shot(&tree, &config, 1));
        std::hint::black_box(one_shot(&tree, &config, threads));
        let seq = time_median(runs, || one_shot(&tree, &config, 1));
        let par = time_median(runs, || one_shot(&tree, &config, threads));

        // Session split: prepare is the once-per-schema cost; the
        // per-precision runs below measure the warm-cache per-pair cost.
        let session = MatchSession::new(config);
        std::hint::black_box(session.prepare(&tree).distinct_labels());
        let prepare = time_median(runs, || session.prepare(&tree).distinct_labels() as f64);
        drop(session);

        let exact = measure_precision(&tree, &config, Precision::F64, runs, trace);
        let lean = measure_precision(&tree, &config, Precision::F32, runs, false);

        let seq_ms = seq.as_secs_f64() * 1e3;
        let par_ms = par.as_secs_f64() * 1e3;
        let prepare_ms = prepare.as_secs_f64() * 1e3;
        let speedup = seq_ms / par_ms;
        table.row([
            n.to_string(),
            (n * n).to_string(),
            format!("{seq_ms:.2}"),
            format!("{par_ms:.2}"),
            format!("{speedup:.2}x"),
            format!("{prepare_ms:.2}"),
            format!("{:.2}", exact.match_ms),
            format!("{:.1}", exact.peak_rss_mib),
            format!("{:.2}", lean.match_ms),
            format!("{:.1}", lean.peak_rss_mib),
        ]);
        entries.push(format!(
            "    {{\"nodes\": {n}, \"pairs\": {}, \"precision\": \"f64\", \
             \"seq_ms\": {seq_ms:.3}, \
             \"par_ms\": {par_ms:.3}, \"speedup\": {speedup:.3}, \
             \"prepare_ms\": {prepare_ms:.3}, \"match_ms\": {:.3}, \
             \"alloc_ms\": {:.3}, \"peak_rss_mib\": {:.3}, \
             \"skipped_cells\": {}, \"cache_hit_rate\": {:.3}, \
             \"phases\": {{\"labels_ms\": {:.3}, \"hybrid_wave_ms\": {:.3}}}}}",
            n * n,
            exact.match_ms,
            exact.alloc_ms,
            exact.peak_rss_mib,
            exact.skipped_cells,
            exact.cache_hit_rate,
            exact.labels_ms,
            exact.wave_ms,
        ));
        entries.push(format!(
            "    {{\"nodes\": {n}, \"pairs\": {}, \"precision\": \"f32\", \
             \"match_ms\": {:.3}, \
             \"alloc_ms\": {:.3}, \"peak_rss_mib\": {:.3}, \
             \"skipped_cells\": {}, \"cache_hit_rate\": {:.3}, \
             \"phases\": {{\"labels_ms\": {:.3}, \"hybrid_wave_ms\": {:.3}}}}}",
            n * n,
            lean.match_ms,
            lean.alloc_ms,
            lean.peak_rss_mib,
            lean.skipped_cells,
            lean.cache_hit_rate,
            lean.labels_ms,
            lean.wave_ms,
        ));

        if let Some(rec) = &exact.timed_recorder {
            println!("--- trace report ({n} nodes, timed session) ---");
            print!("{}", rec.report());
            println!();
        }
    }

    println!("TreeMatch engine: one thread vs {threads} thread(s) ({cores} core(s))\n");
    print!("{}", table.render());

    if let Some(out_path) = out_path {
        let json = format!(
            "{{\n  \"bench\": \"treematch\",\n  \"threads\": {threads},\n  \"cores\": {cores},\n  \"sizes\": [\n{}\n  ]\n}}\n",
            entries.join(",\n")
        );
        std::fs::write(&out_path, json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
        println!("\nwrote {out_path}");
    }
}
