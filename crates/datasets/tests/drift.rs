//! Prefix-stability of the drift generator (`qmatch_datasets::drift`)
//! across seeds: the synthetic registries and mutation chains the index
//! benchmark, the lexicon bench and the repository benchmark draw from.

use qmatch_datasets::corpus;
use qmatch_datasets::drift::{mutation_chain, synthetic_registry, GATE_SEED};
use qmatch_xsd::SchemaTree;

fn labels(tree: &SchemaTree) -> Vec<String> {
    tree.iter().map(|(_, n)| n.label.clone()).collect()
}

/// Registry generation is prefix-stable for *every* seed, not just the
/// pinned gate seed: a larger registry extends a smaller one element for
/// element. (The committed BENCH_index.json numbers rely on this staying
/// true.)
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
