//! Cross-crate property tests pinning the schema-evolution subsystem
//! (`qmatch_core::diff` / `qmatch_core::evolve`) to its from-scratch
//! counterparts over the drift generator's workloads. They live in this
//! crate because `qmatch-datasets` depends on `qmatch-core` — the reverse
//! dev-dependency would be a cycle.

use qmatch_core::algorithms::Algorithm;
use qmatch_core::model::MatchConfig;
use qmatch_core::session::MatchSession;
use qmatch_datasets::corpus;
use qmatch_datasets::drift::{mutation_chain, synthetic_registry, GATE_SEED};
use qmatch_datasets::synth;
use qmatch_xsd::SchemaTree;

fn labels(tree: &SchemaTree) -> Vec<String> {
    tree.iter().map(|(_, n)| n.label.clone()).collect()
}

/// Registry generation is prefix-stable for *every* seed, not just the
/// pinned gate seed: a larger registry extends a smaller one element for
/// element. (The committed BENCH/gate numbers rely on this staying true.)
#[test]
fn registry_prefixes_are_stable_across_seeds() {
    for seed in [GATE_SEED, GATE_SEED + 1, 0xDEAD_BEEF, 42] {
        let small = synthetic_registry(24, seed);
        let large = synthetic_registry(60, seed);
        for ((na, ta), (nb, tb)) in small.iter().zip(&large) {
            assert_eq!(na, nb, "seed {seed:#x}");
            assert_eq!(labels(ta), labels(tb), "seed {seed:#x} {na}");
        }
    }
}

/// Mutation chains are prefix-stable across seeds too: chains of
/// different lengths from the same `(base, intensity, seed)` agree on
/// their common prefix, and different seeds diverge.
#[test]
fn mutation_chain_prefixes_are_stable_across_seeds() {
    let base = corpus::po1();
    for seed in [GATE_SEED, GATE_SEED ^ 0x5555, 7] {
        let long = mutation_chain(&base, 8, 0.3, seed);
        let short = mutation_chain(&base, 4, 0.3, seed);
        for (a, b) in short.iter().zip(&long) {
            assert_eq!(labels(a), labels(b), "seed {seed:#x}");
        }
    }
    let a = mutation_chain(&base, 4, 0.3, GATE_SEED);
    let b = mutation_chain(&base, 4, 0.3, GATE_SEED + 1);
    assert_ne!(labels(&a[3]), labels(&b[3]), "seeds must diverge");
}

/// Incremental re-preparation is structurally identical to preparing the
/// new revision from scratch, over >1000 drift-generated transitions
/// spanning every corpus base and mutation intensities from near-noop to
/// heavy rewrite.
#[test]
fn incremental_reprepare_equals_scratch_over_mutation_chains() {
    let session = MatchSession::new(MatchConfig::default());
    let bases = [
        corpus::po1(),
        corpus::po2(),
        corpus::article(),
        corpus::book(),
        corpus::dcmd_item(),
        corpus::dcmd_ord(),
    ];
    let intensities = [0.02, 0.1, 0.3, 0.7];
    let mut transitions = 0usize;
    for (b, base) in bases.iter().enumerate() {
        for (i, &intensity) in intensities.iter().enumerate() {
            for s in 0..7u64 {
                let seed = GATE_SEED ^ ((b as u64) << 32) ^ ((i as u64) << 16) ^ s;
                let mut prev = base.clone();
                for next in mutation_chain(base, 6, intensity, seed) {
                    let old = session.prepare(&prev);
                    let diff = session.diff_trees(&prev, &next);
                    let incremental = session.reprepare(&old, &next, &diff);
                    let scratch = session.prepare(&next);
                    incremental.assert_structural_eq(&scratch);
                    transitions += 1;
                    prev = next;
                }
            }
        }
    }
    assert!(
        transitions >= 1000,
        "covered only {transitions} transitions"
    );
}

/// Incremental re-match (diff-guided row reuse, with its lossless
/// fallback) is bit-identical to a full hybrid recompute on every
/// transition of drift-generated mutation chains — the tentpole's
/// correctness claim.
#[test]
fn incremental_rematch_is_bit_identical_over_drift_chains() {
    let session = MatchSession::new(MatchConfig::default());
    let target_tree = corpus::po2();
    let target = session.prepare(&target_tree);
    let mut incremental_runs = 0usize;
    let mut fallback_runs = 0usize;
    let small_bases = [corpus::po1(), corpus::book(), corpus::dcmd_ord()];
    let chains = small_bases
        .iter()
        .enumerate()
        .flat_map(|(b, base)| {
            [0.02, 0.15, 0.45]
                .into_iter()
                .enumerate()
                .map(move |(i, intensity)| {
                    let seed = GATE_SEED ^ ((b as u64) << 8) ^ (i as u64);
                    (base.clone(), mutation_chain(base, 8, intensity, seed))
                })
        })
        // One large chain: PIR (231 nodes) at low intensity, where the
        // incremental path engages on nearly every step.
        .chain(std::iter::once((
            synth::pir().clone(),
            mutation_chain(synth::pir(), 6, 0.05, GATE_SEED),
        )));
    for (base, chain) in chains {
        let mut prev_tree = base;
        for next_tree in chain {
            let prev = session.prepare(&prev_tree);
            let previous = session.run(&Algorithm::Hybrid, &prev, &target).unwrap();
            let diff = session.diff_trees(&prev_tree, &next_tree);
            let new = session.reprepare(&prev, &next_tree, &diff);
            let got = session.rematch(&new, &target, &diff, &previous);
            let want = session.run(&Algorithm::Hybrid, &new, &target).unwrap();
            assert_eq!(
                got.outcome.matrix,
                want.matrix,
                "{} ({} nodes, {} recompute rows, incremental={})",
                next_tree.name(),
                next_tree.len(),
                diff.recompute_count(),
                got.incremental,
            );
            assert_eq!(got.outcome.total_qom, want.total_qom);
            // The label-reuse variant must agree bit-for-bit too, and label
            // reuse must not perturb the incremental-vs-fallback decision.
            let prev_labels = session.label_matrix(&prev, &target);
            let evolved =
                session.rematch_evolved(&prev, &prev_labels, &new, &target, &diff, &previous);
            assert_eq!(
                evolved.outcome.matrix,
                want.matrix,
                "rematch_evolved diverged on {} ({} nodes)",
                next_tree.name(),
                next_tree.len(),
            );
            assert_eq!(evolved.outcome.total_qom, want.total_qom);
            assert_eq!(evolved.incremental, got.incremental);
            session.recycle(evolved.outcome);
            if got.incremental {
                incremental_runs += 1;
            } else {
                fallback_runs += 1;
            }
            session.recycle(previous);
            session.recycle(got.outcome);
            session.recycle(want);
            prev_tree = next_tree;
        }
    }
    assert!(
        incremental_runs >= 10,
        "the incremental path barely ran ({incremental_runs} of {} transitions)",
        incremental_runs + fallback_runs
    );
    assert!(
        fallback_runs >= 1,
        "heavy-intensity chains should trip the fallback at least once"
    );
}
