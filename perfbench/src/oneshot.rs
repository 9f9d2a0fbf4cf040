//! `oneshot-cold`: what `qmatch match a.xsd b.xsd` does, once per op. No
//! server, no registry: every op parses and compiles both XSD texts,
//! builds a fresh `MatchSession` (cold label cache), prepares both trees,
//! runs the hybrid matcher and selects the mapping.
//!
//! Main op: PIR against a seeded `mutation_chain` revision of itself at
//! 5-30% drift. Side op: the paper's three gold pairs (PO, Book, DCMD),
//! run back to back and timed as one sample, so every pair moves it.

use crate::common::{
    self, ms, percentile, sorted, to_xsd, HostProbe, Report, Rng, Timeline, Tracer,
};
use crate::Args;
use qmatch_core::eval::{evaluate, GoldStandard};
use qmatch_core::model::MatchConfig;
use qmatch_core::trace::{Phase, Recorder};
use qmatch_core::{Algorithm, CacheStats, MatchSession};
use qmatch_datasets::{corpus, drift, gold, synth};
use qmatch_xsd::{parse_schema_with_limits, IngestLimits, SchemaTree};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-layer metrics of layers a one-shot match never calls: no registry,
/// index, evolution, WAL or server.
pub const IDLE_LAYERS: &[&str] = &[
    "index.signature_ms",
    "index.candidates_ms",
    "index.candidates",
    "index.useful_frac",
    "shard.resident_hit_rate",
    "shard.reprepares_per_query",
    "evolve.diff_ms",
    "evolve.reprepare_ms",
    "evolve.incremental_frac",
    "evolve.closure_frac",
    "persist.append_ms",
    "persist.compactions",
    "persist.wal_bytes",
    "serve.overhead_ms",
    "serve.queue_wait_ms",
    "serve.response_bytes",
    "serve.phase.labels_ms",
    "serve.phase.hybrid_wave_ms",
    "serve.phase.prepare_ms",
    "serve.phase.alloc_ms",
];

/// Distinct PIR revisions the main op cycles through.
const REVISIONS: usize = 8;
/// The run sets up this many times; after each set-up it times one chunk
/// of `--seconds / CHUNKS`, continuing the op stream, so the timed work
/// is spread over the whole run.
const CHUNKS: usize = 5;
/// Main-op percentile reported as `main_ms_tail`.
pub const TAIL: f64 = 0.75;
/// Latency limit for `goodput_ops_s`, far above the measured tail.
const MAIN_LIMIT_MS: f64 = 1500.0;
/// Share of op wall time the layer self times may leave unexplained.
const SPLIT_TOLERANCE: f64 = 0.03;

struct Pair {
    name: String,
    source: String,
    target: String,
    /// `Some` for the gold pairs: the gold standard and the hybrid F1
    /// recorded in `BENCH_quality.json`.
    gold: Option<(GoldStandard, f64)>,
    /// Reference output: `(source, target, score bits)` per selected
    /// correspondence, then the total QoM bits.
    reference: (Vec<(u32, u32, u64)>, u64),
}

/// One op's output in comparable form.
type Output = (Vec<(u32, u32, u64)>, u64);

struct Inputs {
    mains: Vec<Pair>,
    sides: Vec<Pair>,
}

/// The hybrid F1 `BENCH_quality.json` records for `pair`.
fn recorded_f1(pair: &str) -> f64 {
    let text = std::fs::read_to_string("BENCH_quality.json")
        .expect("BENCH_quality.json at the checkout root");
    let needle = format!("\"pair\": \"{pair}\", \"algorithm\": \"hybrid\"");
    let line = text
        .lines()
        .find(|l| l.contains(&needle))
        .unwrap_or_else(|| panic!("no hybrid row for {pair} in BENCH_quality.json"));
    let rest = &line[line.find("\"f1\": ").expect("f1 field") + 6..];
    rest[..rest.find([',', '}']).expect("f1 value end")]
        .trim()
        .parse()
        .expect("numeric f1")
}

fn compile(text: &str, limits: &IngestLimits) -> SchemaTree {
    let schema = parse_schema_with_limits(text, limits).expect("generated XSD parses");
    SchemaTree::compile_with_limits(&schema, limits).expect("generated XSD compiles")
}

/// Generates every input from the seed and computes each pair's reference
/// output on one warm session (the warm-up pass).
fn setup(seed: u64) -> Inputs {
    let limits = IngestLimits::default();
    let base = &synth::protein_corpus().pir_xsd;
    let pir = synth::pir();
    let mut rng = Rng::new(seed);
    let mut mains: Vec<Pair> = (0..REVISIONS)
        .map(|i| {
            let intensity = 0.05 + 0.25 * i as f64 / (REVISIONS - 1) as f64;
            let revision = &drift::mutation_chain(pir, 1, intensity, rng.next_u64())[0];
            Pair {
                name: format!("pir-r{i}"),
                source: base.clone(),
                target: to_xsd(revision),
                gold: None,
                reference: (Vec::new(), 0),
            }
        })
        .collect();
    let mut sides: Vec<Pair> = [
        ("PO", corpus::po1_xsd(), corpus::po2_xsd(), gold::po_gold()),
        (
            "BOOK",
            corpus::article_xsd(),
            corpus::book_xsd(),
            gold::book_gold(),
        ),
        (
            "DCMD",
            corpus::dcmd_item_xsd(),
            corpus::dcmd_ord_xsd(),
            gold::dcmd_gold(),
        ),
    ]
    .into_iter()
    .map(|(name, s, t, g)| Pair {
        name: name.to_owned(),
        source: s.to_owned(),
        target: t.to_owned(),
        gold: Some((g, recorded_f1(name))),
        reference: (Vec::new(), 0),
    })
    .collect();
    let session = MatchSession::new(MatchConfig::default());
    let threshold = session.config().weights.acceptance_threshold();
    for pair in mains.iter_mut().chain(sides.iter_mut()) {
        let (s, t) = (
            compile(&pair.source, &limits),
            compile(&pair.target, &limits),
        );
        let (sp, tp) = (session.prepare(&s), session.prepare(&t));
        let outcome = session.run(&Algorithm::Hybrid, &sp, &tp).expect("hybrid");
        let mapping = session.select_mapping(&outcome.matrix, threshold);
        pair.reference = (
            mapping
                .pairs
                .iter()
                .map(|c| (c.source.0, c.target.0, c.score.to_bits()))
                .collect(),
            outcome.total_qom.to_bits(),
        );
    }
    Inputs { mains, sides }
}

/// One cold match from XSD text to mapping, with a span around every
/// layer call. `phases`, when given, is installed as the fresh session's
/// trace sink: the label-matrix build inside the hybrid run then shows as
/// a `lexicon.label` child of `hybrid.match`, from the session's own
/// `Labels` phase time.
fn run_pair(pair: &Pair, phases: Option<&Arc<Recorder>>, t: &mut Tracer) -> (Output, CacheStats) {
    let limits = IngestLimits::default();
    let (ss, ts) = t.span("xsd.parse", |_| {
        (
            parse_schema_with_limits(&pair.source, &limits).expect("source parses"),
            parse_schema_with_limits(&pair.target, &limits).expect("target parses"),
        )
    });
    let (s, tt) = t.span("xsd.compile", |_| {
        (
            SchemaTree::compile_with_limits(&ss, &limits).expect("source compiles"),
            SchemaTree::compile_with_limits(&ts, &limits).expect("target compiles"),
        )
    });
    let session = t.span("session.new", |_| {
        let mut session = MatchSession::new(MatchConfig::default());
        if let Some(phases) = phases {
            session.set_trace_sink(phases.clone());
        }
        session
    });
    let (sp, tp) = t.span("session.prepare", |_| {
        (session.prepare(&s), session.prepare(&tt))
    });
    let outcome = t.span("hybrid.match", |t| {
        let labels = phases.map(|p| p.phase_stats(Phase::Labels).wall_us);
        let outcome = session.run(&Algorithm::Hybrid, &sp, &tp).expect("hybrid");
        if let (Some(p), Some(before)) = (phases, labels) {
            let us = p.phase_stats(Phase::Labels).wall_us - before;
            t.inner("lexicon.label", us * 1000);
        }
        outcome
    });
    let stats = session.cache_stats();
    let threshold = session.config().weights.acceptance_threshold();
    let mapping = t.span("mapping.select", |_| {
        session.select_mapping(&outcome.matrix, threshold)
    });
    let out = (
        mapping
            .pairs
            .iter()
            .map(|c| (c.source.0, c.target.0, c.score.to_bits()))
            .collect(),
        outcome.total_qom.to_bits(),
    );
    // Freeing the session (label cache, matcher) and the matrix is part
    // of every one-shot match.
    t.span("session.drop", |_| drop((outcome, sp, tp, session)));
    (out, stats)
}

/// Sorted main and side latencies of the timed ops.
fn class_times(ops: &[(bool, bool)], times: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let pick = |main: bool| {
        sorted(
            ops.iter()
                .zip(times)
                .filter(|((m, _), _)| *m == main)
                .map(|(_, t)| *t)
                .collect(),
        )
    };
    (pick(true), pick(false))
}

/// One op of the stream: even positions are main ops (the revisions in a
/// seeded order), odd positions the side op (every gold pair once).
fn is_main(i: usize) -> bool {
    i.is_multiple_of(2)
}

/// Runs op `i` of the stream under one root span; returns the output
/// checks that failed, and the main op's cache statistics.
fn run_op(
    inputs: &Inputs,
    order: &[usize],
    i: usize,
    phases: Option<&Arc<Recorder>>,
    t: &mut Tracer,
) -> (Vec<String>, Option<CacheStats>) {
    t.next_op();
    let pairs: Vec<&Pair> = if is_main(i) {
        vec![&inputs.mains[order[(i / 2) % order.len()]]]
    } else {
        inputs.sides.iter().collect()
    };
    t.span(if is_main(i) { "op.main" } else { "op.side" }, |t| {
        let mut failures = Vec::new();
        let mut stats = None;
        for pair in pairs {
            let (out, s) = run_pair(pair, phases, t);
            if out != pair.reference {
                failures.push(format!("{}: mapping differs from the reference", pair.name));
            }
            stats = Some(s);
        }
        (failures, stats.filter(|_| is_main(i)))
    })
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let mut calib = vec![common::calib_ms()];
    let probe = HostProbe::new();
    let mut off = Tracer::new(false);
    let mut setups = Vec::new();
    let mut timeline = Timeline::default();
    // Per timed op: main or side, and whether its output checked out.
    let mut ops: Vec<(bool, bool)> = Vec::new();
    let mut inputs = None;
    let mut order = Vec::new();
    for _ in 0..CHUNKS {
        let before = probe.sample();
        let t0 = Instant::now();
        let generated = setup(args.seed);
        let raw = t0.elapsed().as_secs_f64();
        setups.push((raw, HostProbe::adjust(raw, before, probe.sample())));
        order = (0..generated.mains.len()).collect();
        Rng::new(args.seed ^ 0x0E).shuffle(&mut order);
        // One timed chunk, untraced. However short, it reaches one op of
        // each class.
        let deadline =
            Instant::now() + Duration::from_secs_f64(args.seconds as f64 / CHUNKS as f64);
        let first = ops.len();
        while Instant::now() < deadline || ops.len() < first + 2 {
            let i = ops.len();
            let t0 = Instant::now();
            let (failures, _) = run_op(&generated, &order, i, None, &mut off);
            timeline.push(&probe, ms(t0));
            report.attempted += 1;
            ops.push((is_main(i), failures.is_empty()));
            for failure in failures {
                report.fail(failure);
            }
        }
        timeline.finish(&probe);
        calib.push(common::calib_ms());
        inputs = Some(generated);
    }
    let inputs = inputs.expect("set up at least once");
    let rss = common::peak_rss_mib();

    // Gold pairs reproduce their recorded F1 (every side op already
    // equals its reference bit for bit).
    let limits = IngestLimits::default();
    for pair in &inputs.sides {
        let (gold, want) = pair.gold.as_ref().expect("side pairs carry gold");
        let (s, t) = (
            compile(&pair.source, &limits),
            compile(&pair.target, &limits),
        );
        let mapping = qmatch_core::Mapping {
            pairs: pair
                .reference
                .0
                .iter()
                .map(|&(a, b, score)| qmatch_core::Correspondence {
                    source: qmatch_xsd::NodeId(a),
                    target: qmatch_xsd::NodeId(b),
                    score: f64::from_bits(score),
                })
                .collect(),
        };
        let f1 = evaluate(&mapping, &s, &t, gold).f1();
        if (f1 - want).abs() > 1e-6 {
            report.fail(format!("{}: F1 {f1:.6} != recorded {want:.6}", pair.name));
        }
    }

    let raw = class_times(&ops, timeline.raw());
    let adjusted = class_times(&ops, &timeline.adjusted());
    let good = ops
        .iter()
        .zip(timeline.adjusted())
        .filter(|((main, ok), ms)| *main && *ok && *ms <= MAIN_LIMIT_MS)
        .count();
    let (tail, beyond) = percentile(&adjusted.0, TAIL);
    eprintln!(
        "# oneshot-cold: {} main, {} side ops; main_ms_tail = p{} with {beyond} samples beyond",
        adjusted.0.len(),
        adjusted.1.len(),
        TAIL * 100.0
    );
    report.set(
        "setup_s",
        common::median(&setups.iter().map(|s| s.1).collect::<Vec<_>>()),
        "s",
    );
    report.set(
        "ok_frac",
        (report.attempted - report.failed) as f64 / report.attempted as f64,
        "frac",
    );
    report.set("peak_rss_mib", rss, "MiB");
    report.set("main_ms_p50", percentile(&adjusted.0, 0.5).0, "ms");
    report.set("main_ms_tail", tail, "ms");
    report.set("side_ms_p50", percentile(&adjusted.1, 0.5).0, "ms");
    report.set(
        "goodput_ops_s",
        good as f64 / (adjusted.0.iter().chain(&adjusted.1).sum::<f64>() / 1e3),
        "1/s",
    );
    let raw_setup = common::median(&setups.iter().map(|s| s.0).collect::<Vec<_>>());
    eprintln!(
        "{}",
        common::raw_line(raw_setup, &raw.0, TAIL, &raw.1, timeline.samples())
    );

    if args.trace {
        traced(
            args,
            &inputs,
            &order,
            percentile(&raw.0, 0.5).0,
            &mut report,
        );
        calib.push(common::calib_ms());
        report.set("host.calib_ms", common::median(&calib), "ms");
    }
    println!("{}", common::host_line(0, &calib));
    report
}

/// The traced run: the op stream's first two passes over every revision,
/// with a span around every layer call. A fixed op count makes every
/// count it reports repeat exactly at a fixed seed.
fn traced(args: &Args, inputs: &Inputs, order: &[usize], untraced_p50: f64, report: &mut Report) {
    let mut tracer = Tracer::new(true);
    let phases = Arc::new(Recorder::with_capacity(1));
    let (mut comparisons, mut hit_rates) = (Vec::new(), Vec::new());
    for i in 0..4 * REVISIONS {
        let (failures, stats) = run_op(inputs, order, i, Some(&phases), &mut tracer);
        for failure in failures {
            report.fail(format!("traced {failure}"));
        }
        if let Some(stats) = stats {
            comparisons.push(stats.misses as f64);
            hit_rates.push(stats.hit_rate());
        }
    }
    let walls = tracer.op_walls();
    let selfs = tracer.self_times();
    // Layer-split check: the layer spans account for the op's wall time.
    let mut worst: f64 = 0.0;
    let mut traced_main = Vec::new();
    for (op, (root, wall)) in &walls {
        let own = selfs[op].get(root).copied().unwrap_or(0.0);
        worst = worst.max(own / wall);
        if *root == "op.main" {
            traced_main.push(*wall);
        }
    }
    if worst > SPLIT_TOLERANCE {
        report.fail(format!(
            "layer split: {:.2}% of an op's wall time is outside every layer span (tolerance {:.0}%)",
            worst * 100.0,
            SPLIT_TOLERANCE * 100.0
        ));
    }
    let traced_p50 = common::median(&traced_main);
    let main_ops = traced_main.len();
    let p = |names: &[&str]| common::layer_ms(&tracer, names, main_ops);
    report.set("xsd.parse_ms", p(&["xsd.parse"]), "ms");
    report.set("xsd.compile_ms", p(&["xsd.compile"]), "ms");
    report.set("xsd.bytes", median_bytes(inputs), "bytes");
    report.set("lexicon.label_ms", p(&["lexicon.label"]), "ms");
    report.set("lexicon.comparisons", common::median(&comparisons), "count");
    report.set("lexicon.hit_rate", common::median(&hit_rates), "frac");
    report.set("session.prepare_ms", p(&["session.prepare"]), "ms");
    report.set("hybrid.match_ms", p(&["hybrid.match"]), "ms");
    report.set("hybrid.cells", median_cells(inputs), "count");
    report.set("mapping.select_ms", p(&["mapping.select"]), "ms");
    report.set("trace.overhead_ms", traced_p50 - untraced_p50, "ms");
    report.set("trace.split_residual_frac", worst, "frac");
    report.set("trace.main_ms_p50", traced_p50, "ms");
    if let Err(e) =
        tracer.write(&crate::out_dir().join(format!("spans-oneshot-cold-{}.jsonl", args.seed)))
    {
        eprintln!("# cannot write spans: {e}");
    }
}

fn median_bytes(inputs: &Inputs) -> f64 {
    let bytes: Vec<f64> = inputs
        .mains
        .iter()
        .map(|p| (p.source.len() + p.target.len()) as f64)
        .collect();
    common::median(&bytes)
}

fn median_cells(inputs: &Inputs) -> f64 {
    let limits = IngestLimits::default();
    let cells: Vec<f64> = inputs
        .mains
        .iter()
        .map(|p| (compile(&p.source, &limits).len() * compile(&p.target, &limits).len()) as f64)
        .collect();
    common::median(&cells)
}
