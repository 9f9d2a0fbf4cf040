//! Schema-evolution benchmark: incremental re-prepare vs scratch prepare
//! across mutation intensities.
//!
//! Models the serve hot-update workload — a chain of `PUT`s replacing one
//! registered schema — with `qmatch_datasets::drift::mutation_chain`. For
//! every transition the harness runs what a serve re-`PUT` runs,
//! `diff_trees` + `reprepare` from the resident revision, and a scratch
//! `prepare` of the same tree. Every transition must agree twice: the two
//! prepared schemas are structurally identical (`assert_structural_eq`),
//! and a hybrid match of each against a fixed target gives bit-identical
//! matrices and total QoM. The wall-time split goes to
//! `BENCH_evolve.json`.
//!
//! `cargo run --release -p qmatch-bench --bin bench_evolve [OUT.json] [--test] [--gate]`
//!
//! * `--test` — smoke mode: one short small-schema chain, no JSON written
//!   (unless an output path is given explicitly).
//! * `--gate` — CI re-prepare gate: pinned-seed chains over the small and
//!   medium bases, output restricted to deterministic counts (no wall
//!   times, so two runs are byte-identical).
//!
//! Every mode exits 1 if any transition diverges from the scratch path.
//! The default (JSON) mode adds the large PDB chain (3753 nodes).

use qmatch_core::algorithms::Algorithm;
use qmatch_core::model::MatchConfig;
use qmatch_core::report::Table;
use qmatch_core::session::MatchSession;
use qmatch_datasets::drift::{mutation_chain, GATE_SEED};
use qmatch_datasets::{corpus, synth};
use qmatch_xsd::SchemaTree;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// One `(base, fixed target)` evolution workload.
struct Workload {
    name: &'static str,
    base: SchemaTree,
    target: SchemaTree,
    steps: usize,
}

/// Everything one `(workload, intensity)` chain produces.
struct ChainStats {
    workload: &'static str,
    nodes: usize,
    intensity: f64,
    transitions: usize,
    shape_changed: usize,
    recompute_rows: usize,
    rows_full: usize,
    dirty_fraction_mean: f64,
    /// Transitions whose re-prepared schema or hybrid match differed from
    /// the scratch path's.
    divergent: usize,
    diff_ms: f64,
    reprepare_ms: f64,
    scratch_prepare_ms: f64,
}

impl ChainStats {
    /// Scratch prepare time over the re-`PUT` path's diff + re-prepare.
    fn end_to_end_speedup(&self) -> f64 {
        self.scratch_prepare_ms / (self.diff_ms + self.reprepare_ms).max(1e-9)
    }
}

fn run_chain(workload: &Workload, intensity: f64, seed: u64) -> ChainStats {
    let session = MatchSession::new(MatchConfig::default());
    let target = session.prepare(&workload.target);
    let chain = mutation_chain(&workload.base, workload.steps, intensity, seed);

    // The registered revision, as serve holds it before a hot update
    // arrives. Prepared schemas own their trees, so one revision's
    // artifacts carry across loop iterations.
    let mut prev = session.prepare(&workload.base);

    let mut stats = ChainStats {
        workload: workload.name,
        nodes: workload.base.len(),
        intensity,
        transitions: 0,
        shape_changed: 0,
        recompute_rows: 0,
        rows_full: 0,
        dirty_fraction_mean: 0.0,
        divergent: 0,
        diff_ms: 0.0,
        reprepare_ms: 0.0,
        scratch_prepare_ms: 0.0,
    };
    let (mut diff_secs, mut reprepare_secs, mut scratch_secs) = (0.0f64, 0.0f64, 0.0f64);
    for next_tree in chain {
        // Both paths share one tree, as serve's do, and intern the
        // revision's fresh labels; whichever ran first would pay for that.
        // Intern them outside both timed regions so the split measures the
        // prepare work, not arrival order.
        let next_tree = Arc::new(next_tree);
        drop(session.prepare(Arc::clone(&next_tree)));

        let start = Instant::now();
        let diff = session.diff_trees(prev.tree(), &next_tree);
        diff_secs += start.elapsed().as_secs_f64();

        let start = Instant::now();
        let new = session.reprepare(&prev, Arc::clone(&next_tree), &diff);
        reprepare_secs += start.elapsed().as_secs_f64();

        let start = Instant::now();
        let scratch = session.prepare(next_tree);
        scratch_secs += start.elapsed().as_secs_f64();

        let structural = catch_unwind(AssertUnwindSafe(|| new.assert_structural_eq(&scratch)));
        let got = session.run(&Algorithm::Hybrid, &new, &target).unwrap();
        let want = session.run(&Algorithm::Hybrid, &scratch, &target).unwrap();
        if structural.is_err()
            || got.matrix != want.matrix
            || got.total_qom.to_bits() != want.total_qom.to_bits()
        {
            eprintln!(
                "re-prepare diverged from scratch on {} step {} (intensity {intensity})",
                workload.name, stats.transitions
            );
            stats.divergent += 1;
        }
        session.recycle(got);
        session.recycle(want);

        stats.transitions += 1;
        stats.shape_changed += usize::from(diff.shape_changed());
        stats.recompute_rows += diff.recompute_count();
        stats.rows_full += new.tree().len();
        stats.dirty_fraction_mean += diff.dirty_fraction();
        prev = new;
    }

    let n = stats.transitions.max(1) as f64;
    stats.dirty_fraction_mean /= n;
    stats.diff_ms = diff_secs * 1e3 / n;
    stats.reprepare_ms = reprepare_secs * 1e3 / n;
    stats.scratch_prepare_ms = scratch_secs * 1e3 / n;
    stats
}

fn small_workloads(steps: usize) -> Vec<Workload> {
    vec![
        Workload {
            name: "po1",
            base: corpus::po1(),
            target: corpus::po2(),
            steps,
        },
        Workload {
            name: "pir",
            base: synth::pir().clone(),
            target: corpus::po2(),
            steps,
        },
    ]
}

fn main() {
    let mut out_path: Option<String> = None;
    let mut smoke = false;
    let mut gate = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--test" => smoke = true,
            "--gate" => gate = true,
            other if !other.starts_with('-') => out_path = Some(other.to_owned()),
            other => {
                eprintln!("unknown flag {other}; usage: bench_evolve [OUT.json] [--test] [--gate]");
                std::process::exit(2);
            }
        }
    }

    if gate {
        // The re-prepare gate: deterministic output only (counts and
        // diff-derived fractions — never wall times), so CI can diff two
        // runs byte-for-byte.
        let intensities = [0.02, 0.15, 0.45];
        println!("reprepare-gate: seed={GATE_SEED:#x} intensities={intensities:?}");
        let mut divergent = 0;
        for workload in small_workloads(8) {
            for &intensity in &intensities {
                let stats = run_chain(&workload, intensity, GATE_SEED);
                println!(
                    "chain {} ({} nodes) intensity={intensity}: transitions={} \
                     shape_changed={} recompute_rows={}/{} dirty_mean={:.4} divergent={}",
                    stats.workload,
                    stats.nodes,
                    stats.transitions,
                    stats.shape_changed,
                    stats.recompute_rows,
                    stats.rows_full,
                    stats.dirty_fraction_mean,
                    stats.divergent,
                );
                divergent += stats.divergent;
            }
        }
        if divergent > 0 {
            println!("FAIL");
            std::process::exit(1);
        }
        println!("PASS");
        return;
    }

    // Smoke mode writes no JSON unless a path was given explicitly.
    let out_path = match (out_path, smoke) {
        (Some(p), _) => Some(p),
        (None, false) => Some("BENCH_evolve.json".to_owned()),
        (None, true) => None,
    };
    let (workloads, intensities): (Vec<Workload>, &[f64]) = if smoke {
        (small_workloads(3), &[0.15])
    } else {
        let mut workloads = small_workloads(6);
        workloads.push(Workload {
            name: "pdb",
            base: synth::pdb().clone(),
            target: synth::pir().clone(),
            steps: 6,
        });
        (workloads, &[0.02, 0.05, 0.15, 0.45])
    };

    let mut table = Table::new([
        "chain",
        "nodes",
        "intensity",
        "shape chg",
        "recompute",
        "dirty",
        "diff ms",
        "reprep ms",
        "scratch ms",
        "speedup",
    ]);
    let mut entries = Vec::new();
    let mut divergent = 0;
    for workload in &workloads {
        for &intensity in intensities {
            let stats = run_chain(workload, intensity, GATE_SEED);
            divergent += stats.divergent;
            table.row([
                stats.workload.to_owned(),
                stats.nodes.to_string(),
                format!("{intensity}"),
                format!("{}/{}", stats.shape_changed, stats.transitions),
                format!("{}/{}", stats.recompute_rows, stats.rows_full),
                format!("{:.3}", stats.dirty_fraction_mean),
                format!("{:.3}", stats.diff_ms),
                format!("{:.3}", stats.reprepare_ms),
                format!("{:.3}", stats.scratch_prepare_ms),
                format!("{:.2}x", stats.end_to_end_speedup()),
            ]);
            entries.push(format!(
                "    {{\"chain\": \"{}\", \"nodes\": {}, \"intensity\": {}, \
                 \"transitions\": {}, \"shape_changed\": {}, \
                 \"recompute_rows\": {}, \"rows_full\": {}, \
                 \"dirty_fraction_mean\": {:.4}, \"diff_ms\": {:.3}, \
                 \"reprepare_ms\": {:.3}, \"scratch_prepare_ms\": {:.3}, \
                 \"end_to_end_speedup\": {:.2}}}",
                stats.workload,
                stats.nodes,
                stats.intensity,
                stats.transitions,
                stats.shape_changed,
                stats.recompute_rows,
                stats.rows_full,
                stats.dirty_fraction_mean,
                stats.diff_ms,
                stats.reprepare_ms,
                stats.scratch_prepare_ms,
                stats.end_to_end_speedup(),
            ));
        }
    }

    println!(
        "Schema evolution: diff + re-prepare vs scratch prepare (seed {GATE_SEED:#x}, ms per transition)\n"
    );
    print!("{}", table.render());
    if divergent > 0 {
        println!("\n{divergent} transition(s) diverged from the scratch path");
        std::process::exit(1);
    }

    if let Some(out_path) = out_path {
        let json = format!(
            "{{\n  \"bench\": \"evolve\",\n  \"seed\": {GATE_SEED},\n  \"chains\": [\n{}\n  ]\n}}\n",
            entries.join(",\n")
        );
        std::fs::write(&out_path, json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
        println!("\nwrote {out_path}");
    }
}
