//! Schema-evolution benchmark: incremental vs full re-match across
//! mutation intensities.
//!
//! Models the serve hot-update workload — a chain of `PUT`s replacing one
//! registered schema — with `qmatch_datasets::drift::mutation_chain`. For
//! every transition the harness runs both paths against a fixed target:
//! the full hybrid recompute, and the diff-guided incremental path
//! (`diff_trees` + `reprepare` + `rematch_evolved`, threading each step's
//! outcome *and label matrix* into the next). Bit-identity of the two similarity
//! matrices is asserted on every single transition; the wall-time split
//! goes to `BENCH_evolve.json`.
//!
//! `cargo run --release -p qmatch-bench --bin bench_evolve [OUT.json] [--test] [--gate]`
//!
//! * `--test` — smoke mode: one short small-schema chain, no JSON written
//!   (unless an output path is given explicitly).
//! * `--gate` — CI evolution gate: pinned-seed chains over the small and
//!   medium bases, output restricted to deterministic counts (no wall
//!   times, so two runs are byte-identical), exit 1 unless every
//!   transition is bit-identical, the incremental path engages on every
//!   low-intensity transition, and heavy intensity trips the fallback.
//!
//! The default (JSON) mode adds the large PDB chain (3753 nodes), where
//! the low-intensity speedup headline lives (README, "Schema
//! evolution").

use qmatch_core::algorithms::Algorithm;
use qmatch_core::model::MatchConfig;
use qmatch_core::report::Table;
use qmatch_core::session::MatchSession;
use qmatch_datasets::drift::{mutation_chain, GATE_SEED};
use qmatch_datasets::{corpus, synth};
use qmatch_xsd::SchemaTree;
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
    incremental_runs: usize,
    fallback_runs: usize,
    rows_recomputed: usize,
    rows_full: usize,
    dirty_fraction_mean: f64,
    full_ms_per_rematch: f64,
    incremental_ms_per_rematch: f64,
    /// Incremental wall including diff + re-prepare, not just the kernel.
    end_to_end_ms_per_rematch: f64,
}

impl ChainStats {
    fn rematch_speedup(&self) -> f64 {
        self.full_ms_per_rematch / self.incremental_ms_per_rematch.max(1e-9)
    }

    fn end_to_end_speedup(&self) -> f64 {
        self.full_ms_per_rematch / self.end_to_end_ms_per_rematch.max(1e-9)
    }
}

fn run_chain(workload: &Workload, intensity: f64, seed: u64) -> ChainStats {
    let session = MatchSession::new(MatchConfig::default());
    let target = session.prepare(&workload.target);
    let chain = mutation_chain(&workload.base, workload.steps, intensity, seed);

    // Warm start: the registered revision and its resident match outcome,
    // exactly what the serve fast path holds before a hot update arrives.
    // Prepared schemas own their trees, so one revision's artifacts carry
    // across loop iterations.
    let mut prev = session.prepare(&workload.base);
    let mut previous = session.run(&Algorithm::Hybrid, &prev, &target).unwrap();
    // The resident revision's label matrix, threaded through the chain so
    // each step copies unchanged label rows instead of re-walking the
    // session cache — the serve fast path's steady state.
    let mut labels = session.label_matrix(&prev, &target);

    let mut stats = ChainStats {
        workload: workload.name,
        nodes: workload.base.len(),
        intensity,
        transitions: 0,
        incremental_runs: 0,
        fallback_runs: 0,
        rows_recomputed: 0,
        rows_full: 0,
        dirty_fraction_mean: 0.0,
        full_ms_per_rematch: 0.0,
        incremental_ms_per_rematch: 0.0,
        end_to_end_ms_per_rematch: 0.0,
    };
    let mut full_secs = 0.0f64;
    let mut rematch_secs = 0.0f64;
    let mut end_to_end_secs = 0.0f64;
    for next_tree in chain {
        let start = Instant::now();
        let diff = session.diff_trees(prev.tree(), &next_tree);
        let new = session.reprepare(&prev, next_tree, &diff);
        let prep_secs = start.elapsed().as_secs_f64();

        // Both paths draw label similarities from the same session cache;
        // whichever runs first would absorb the misses for the revision's
        // fresh labels. Warm the cache outside both timed regions so the
        // split measures the DP work, not cache-arrival order.
        let warm = session.run(&Algorithm::Hybrid, &new, &target).unwrap();
        session.recycle(warm);

        let start = Instant::now();
        let got = session.rematch_evolved(&prev, &labels, &new, &target, &diff, &previous);
        rematch_secs += start.elapsed().as_secs_f64();
        end_to_end_secs += prep_secs + start.elapsed().as_secs_f64();

        let start = Instant::now();
        let want = session.run(&Algorithm::Hybrid, &new, &target).unwrap();
        full_secs += start.elapsed().as_secs_f64();

        assert_eq!(
            got.outcome.matrix, want.matrix,
            "incremental re-match diverged from full on {} step {} \
             (intensity {intensity}, incremental={})",
            workload.name, stats.transitions, got.incremental,
        );
        assert_eq!(got.outcome.total_qom, want.total_qom);

        stats.transitions += 1;
        if got.incremental {
            stats.incremental_runs += 1;
        } else {
            stats.fallback_runs += 1;
        }
        stats.rows_recomputed += got.rows_recomputed;
        stats.rows_full += new.tree().len();
        stats.dirty_fraction_mean += diff.dirty_fraction();

        session.recycle(previous);
        session.recycle(want);
        previous = got.outcome;
        labels = got.labels;
        prev = new;
    }
    session.recycle(previous);

    let n = stats.transitions.max(1) as f64;
    stats.dirty_fraction_mean /= n;
    stats.full_ms_per_rematch = full_secs * 1e3 / n;
    stats.incremental_ms_per_rematch = rematch_secs * 1e3 / n;
    stats.end_to_end_ms_per_rematch = end_to_end_secs * 1e3 / n;
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
        // The evolution gate: deterministic output only (counts and
        // diff-derived fractions — never wall times), so CI can diff two
        // runs byte-for-byte. Bit-identity is asserted inside run_chain;
        // the gate additionally pins the *planner*: low intensity must
        // stay on the incremental path, heavy intensity must fall back.
        let intensities = [0.02, 0.15, 0.45];
        println!("evolution-gate: seed={GATE_SEED:#x} intensities={intensities:?}");
        let mut failed = false;
        for workload in small_workloads(8) {
            for &intensity in &intensities {
                let stats = run_chain(&workload, intensity, GATE_SEED);
                println!(
                    "chain {} ({} nodes) intensity={intensity}: transitions={} \
                     incremental={} fallback={} rows={}/{} dirty_mean={:.4}",
                    stats.workload,
                    stats.nodes,
                    stats.transitions,
                    stats.incremental_runs,
                    stats.fallback_runs,
                    stats.rows_recomputed,
                    stats.rows_full,
                    stats.dirty_fraction_mean,
                );
                // A single insert can push a small tree past the fallback
                // threshold, so low intensity demands a three-quarter
                // majority on the incremental path, not unanimity.
                if intensity <= 0.02 && stats.incremental_runs * 4 < stats.transitions * 3 {
                    println!("  ^ low-intensity chain left the incremental path");
                    failed = true;
                }
                if intensity >= 0.45 && stats.fallback_runs == 0 {
                    println!("  ^ heavy-intensity chain never exercised the fallback");
                    failed = true;
                }
            }
        }
        if failed {
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
        "inc/fall",
        "rows",
        "dirty",
        "full ms",
        "inc ms",
        "speedup",
        "e2e ms",
    ]);
    let mut entries = Vec::new();
    for workload in &workloads {
        for &intensity in intensities {
            let stats = run_chain(workload, intensity, GATE_SEED);
            table.row([
                stats.workload.to_owned(),
                stats.nodes.to_string(),
                format!("{intensity}"),
                format!("{}/{}", stats.incremental_runs, stats.fallback_runs),
                format!("{}/{}", stats.rows_recomputed, stats.rows_full),
                format!("{:.3}", stats.dirty_fraction_mean),
                format!("{:.2}", stats.full_ms_per_rematch),
                format!("{:.2}", stats.incremental_ms_per_rematch),
                format!("{:.1}x", stats.rematch_speedup()),
                format!("{:.2}", stats.end_to_end_ms_per_rematch),
            ]);
            entries.push(format!(
                "    {{\"chain\": \"{}\", \"nodes\": {}, \"intensity\": {}, \
                 \"transitions\": {}, \"incremental_runs\": {}, \
                 \"fallback_runs\": {}, \"rows_recomputed\": {}, \
                 \"rows_full\": {}, \"dirty_fraction_mean\": {:.4}, \
                 \"full_ms_per_rematch\": {:.3}, \
                 \"incremental_ms_per_rematch\": {:.3}, \
                 \"rematch_speedup\": {:.2}, \
                 \"end_to_end_ms_per_rematch\": {:.3}, \
                 \"end_to_end_speedup\": {:.2}}}",
                stats.workload,
                stats.nodes,
                stats.intensity,
                stats.transitions,
                stats.incremental_runs,
                stats.fallback_runs,
                stats.rows_recomputed,
                stats.rows_full,
                stats.dirty_fraction_mean,
                stats.full_ms_per_rematch,
                stats.incremental_ms_per_rematch,
                stats.rematch_speedup(),
                stats.end_to_end_ms_per_rematch,
                stats.end_to_end_speedup(),
            ));
        }
    }

    println!("Schema evolution: incremental vs full re-match (seed {GATE_SEED:#x})\n");
    print!("{}", table.render());

    if let Some(out_path) = out_path {
        let json = format!(
            "{{\n  \"bench\": \"evolve\",\n  \"seed\": {GATE_SEED},\n  \"chains\": [\n{}\n  ]\n}}\n",
            entries.join(",\n")
        );
        std::fs::write(&out_path, json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
        println!("\nwrote {out_path}");
    }
}
