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
/// heavy rewrite — and a hybrid match over the re-prepared schema is
/// bit-identical to one over the scratch schema, the path a serve re-`PUT`
/// takes.
#[test]
fn incremental_reprepare_equals_scratch_over_mutation_chains() {
    let session = MatchSession::new(MatchConfig::default());
    let target = session.prepare(corpus::po2());
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
                    let got = session
                        .run(&Algorithm::Hybrid, &incremental, &target)
                        .unwrap();
                    let want = session.run(&Algorithm::Hybrid, &scratch, &target).unwrap();
                    assert_eq!(
                        got.matrix,
                        want.matrix,
                        "{} ({} nodes, {} recompute rows)",
                        next.name(),
                        next.len(),
                        diff.recompute_count(),
                    );
                    assert_eq!(got.total_qom.to_bits(), want.total_qom.to_bits());
                    session.recycle(got);
                    session.recycle(want);
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
