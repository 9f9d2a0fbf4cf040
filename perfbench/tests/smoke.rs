//! Smoke test of the benchmark itself: a one-second run of every workload,
//! untraced and traced, must pass every output check (`ok_frac` = 1) and
//! print every metric by name with its unit.
//!
//! `cargo test --release --manifest-path perfbench/Cargo.toml`

use std::path::Path;
use std::process::Command;

const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ok_frac", "frac"),
    ("peak_rss_mib", "MiB"),
    ("main_ms_p50", "ms"),
    ("main_ms_tail", "ms"),
    ("side_ms_p50", "ms"),
    ("goodput_ops_s", "1/s"),
];

const PER_LAYER: [(&str, &str); 34] = [
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

fn run(workload: &str, trace: bool) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let out = Command::new(env!("CARGO_BIN_EXE_qmatch-perfbench"))
        .current_dir(root)
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("run the benchmark");
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    stdout.lines().last().expect("a result line").to_owned()
}

fn value(line: &str, name: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = line
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing from {line}"))
        + key.len();
    let rest = &line[at..];
    rest[..rest.find(',').expect("value end")]
        .parse()
        .expect("numeric value")
}

/// Asserts `name` prints in `line` as `{"value": <number>, "unit": unit}`.
fn assert_metric(line: &str, workload: &str, name: &str, unit: &str) {
    let needle = format!("\"{name}\": {{\"value\": ");
    let at = line
        .find(&needle)
        .unwrap_or_else(|| panic!("{workload}: {name} missing from {line}"));
    // The metric's own object, up to its closing brace.
    let object = &line[at..at + line[at..].find('}').expect("object end")];
    assert!(
        object.ends_with(&format!("\"unit\": \"{unit}\"")),
        "{workload}: {object} lacks unit {unit}"
    );
    assert!(value(line, name).is_finite(), "{workload}: {object}");
}

#[test]
fn every_workload_passes_its_checks_and_prints_every_metric() {
    for workload in ["oneshot-cold", "serve-resident", "serve-churn"] {
        let line = run(workload, false);
        assert!(line.starts_with("{\"correct\": true, "), "{line}");
        assert!(line.contains("\"failed\": 0,"), "{line}");
        for (name, unit) in END_TO_END {
            assert_metric(&line, workload, name, unit);
        }
        assert_eq!(value(&line, "ok_frac"), 1.0, "{workload}");
        assert!(value(&line, "main_ms_p50") > 0.0, "{workload}");

        let traced = run(workload, true);
        assert!(traced.starts_with("{\"correct\": true, "), "{traced}");
        for (name, unit) in PER_LAYER {
            assert_metric(&traced, workload, name, unit);
        }
        assert!(value(&traced, "hybrid.match_ms") > 0.0, "{workload}");
    }
}
