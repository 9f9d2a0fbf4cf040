//! The QMatch benchmark: one command, three workloads, every output
//! checked.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload oneshot-cold|serve-resident|serve-churn \
//!     --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --steady RUNS --workload W [--seconds S] [--trace 0|1]
//! ```
//!
//! Run from the repository root. The last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The exit
//! code is non-zero when any output check failed. `--steady` runs the
//! workload RUNS times in fresh processes (seeds 1..=RUNS) and prints
//! each metric's median and quartile spread. See `perfbench/DESIGN.md`.

mod common;
mod oneshot;
mod serve;

use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics and their units, printed by every `--trace 0` run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ok_frac", "frac"),
    ("peak_rss_mib", "MiB"),
    ("main_ms_p50", "ms"),
    ("main_ms_tail", "ms"),
    ("side_ms_p50", "ms"),
    ("goodput_ops_s", "1/s"),
];

/// Per-layer metrics and their units, printed by every `--trace 1` run.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("xsd.parse_ms", "ms"),
    ("xsd.compile_ms", "ms"),
    ("xsd.bytes", "bytes"),
    ("lexicon.label_ms", "ms"),
    ("lexicon.comparisons", "count"),
    ("lexicon.hit_rate", "frac"),
    ("session.prepare_ms", "ms"),
    ("hybrid.match_ms", "ms"),
    ("hybrid.cells", "count"),
    ("mapping.select_ms", "ms"),
    ("index.signature_ms", "ms"),
    ("index.candidates_ms", "ms"),
    ("index.candidates", "count"),
    ("index.useful_frac", "frac"),
    ("shard.resident_hit_rate", "frac"),
    ("shard.reprepares_per_query", "count"),
    ("evolve.diff_ms", "ms"),
    ("evolve.reprepare_ms", "ms"),
    ("evolve.incremental_frac", "frac"),
    ("evolve.closure_frac", "frac"),
    ("persist.append_ms", "ms"),
    ("persist.compactions", "count"),
    ("persist.wal_bytes", "bytes"),
    ("serve.overhead_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.response_bytes", "bytes"),
    ("serve.phase.labels_ms", "ms"),
    ("serve.phase.hybrid_wave_ms", "ms"),
    ("serve.phase.prepare_ms", "ms"),
    ("serve.phase.alloc_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.split_residual_frac", "frac"),
    ("host.calib_ms", "ms"),
    ("trace.main_ms_p50", "ms"),
];

pub const WORKLOADS: [&str; 3] = ["oneshot-cold", "serve-resident", "serve-churn"];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub steady: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 15,
        trace: false,
        steady: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--steady" => {
                args.steady = Some(value()?.parse().map_err(|e| format!("--steady: {e}"))?)
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

/// Where traced runs leave their span files (inside the checkout).
pub fn out_dir() -> PathBuf {
    PathBuf::from(".perfbench-out")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The inputs and the repository's data files are read relative to the
    // checkout root; refuse to run anywhere else.
    if !std::path::Path::new("crates/core/Cargo.toml").is_file() {
        eprintln!("perfbench: run from the repository root");
        return ExitCode::from(2);
    }
    if let Some(runs) = args.steady {
        return steady(&args, runs);
    }
    // One library thread: per-wave thread handoffs would put
    // sub-millisecond jitter into every match.
    std::env::set_var("QMATCH_THREADS", "1");
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let _ = common::CPUS.set((nproc, pin_to_current_cpu()));
    let (mut report, idle) = match args.workload.as_str() {
        "oneshot-cold" => (oneshot::run(&args), oneshot::IDLE_LAYERS),
        "serve-resident" => (
            serve::run(&args, serve::Mode::Resident),
            serve::idle_layers(serve::Mode::Resident),
        ),
        _ => (
            serve::run(&args, serve::Mode::Churn),
            serve::idle_layers(serve::Mode::Churn),
        ),
    };
    let metrics: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for &(name, unit) in metrics {
        match report.metrics.get(name) {
            Some(&(_, got)) if got == unit => {}
            Some(&(_, got)) => report.fail(format!("{name} reported in {got}, not {unit}")),
            // A layer the workload never calls did no work: it reports 0.
            // Any other metric left unset is a fault of the benchmark.
            None if idle.contains(&name) => report.set(name, 0.0, unit),
            None => report.fail(format!("{name} was not measured")),
        }
    }
    for failure in &report.failures {
        eprintln!("# check failed: {failure}");
    }
    if report.failed > 0 {
        eprintln!(
            "# {} of {} ops failed their output check",
            report.failed, report.attempted
        );
        return ExitCode::from(1);
    }
    let names: Vec<&str> = metrics.iter().map(|&(name, _)| name).collect();
    println!("{}", report.json_line(&names));
    ExitCode::SUCCESS
}

/// Pins this thread, and so every thread it starts later (the server's
/// reactor and shard worker), to the CPU it runs on now. The host probe
/// then times the core the ops run on. With one closed-loop client, the
/// client, reactor and worker take turns rather than compete.
fn pin_to_current_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    // SAFETY: `sched_getcpu` takes no arguments and only returns a number.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu)
        .ok()
        .filter(|&cpu| cpu < mask.len() * 64)?;
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialized buffer of exactly the size
    // passed, which the call only reads; pid 0 names the calling thread.
    // A failure leaves the affinity as it was, which is harmless.
    let status = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (status == 0).then_some(cpu)
}

/// Steadiness mode: the workload `runs` times in fresh processes, then
/// each metric's median and (q3 - q1) / median, as
/// `statistics.quantiles(values, n=4)` computes the quartiles.
fn steady(args: &Args, runs: usize) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let names: Vec<&str> = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    }
    .iter()
    .map(|&(name, _)| name)
    .collect();
    let mut values: Vec<Vec<f64>> = vec![Vec::new(); names.len()];
    for seed in 1..=runs as u64 {
        let out = std::process::Command::new(&exe)
            .args(["--workload", &args.workload, "--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .expect("spawn a benchmark run");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or_default();
        if !out.status.success() {
            eprintln!(
                "seed {seed}: run failed\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            return ExitCode::from(1);
        }
        for (i, name) in names.iter().enumerate() {
            let key = format!("\"{name}\": {{\"value\": ");
            let at = last.find(&key).expect("metric in result line") + key.len();
            let rest = &last[at..];
            values[i].push(
                rest[..rest.find(',').expect("value end")]
                    .parse()
                    .expect("number"),
            );
        }
        let stderr = String::from_utf8_lossy(&out.stderr);
        for note in stdout
            .lines()
            .chain(stderr.lines())
            .filter(|l| l.starts_with('#'))
        {
            eprintln!("seed {seed}: {note}");
        }
        eprintln!("seed {seed}: {last}");
    }
    println!("{} x{runs}, {} s each", args.workload, args.seconds);
    for (name, v) in names.iter().zip(&values) {
        let (q1, q2, q3) = quartiles(v);
        let spread = if q2 == 0.0 { 0.0 } else { (q3 - q1) / q2 };
        println!("{name:28} median {q2:12.4}  spread {spread:.4}");
    }
    ExitCode::SUCCESS
}

/// Python's `statistics.quantiles(data, n=4)` (exclusive method).
fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let s = common::sorted(values.to_vec());
    let n = s.len();
    if n < 2 {
        return (s[0], s[0], s[0]);
    }
    let q = |k: usize| {
        let m = (n + 1) as f64 * k as f64 / 4.0;
        let j = (m.floor() as usize).clamp(1, n - 1);
        let delta = m - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    let median = if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    };
    (q(1), median, q(3))
}
