//! Property-based tests over randomly generated schema trees: the invariants
//! every matcher must hold regardless of input shape.
//!
//! Randomized with the in-repo deterministic PRNG (`qmatch-prng`) — fixed
//! seeds, so every run draws the same trees and a failing case reproduces
//! from its index.

use qmatch::prelude::*;
use qmatch::xsd::SchemaTree;
use qmatch_prng::SmallRng;

/// Runs `algorithm` over two trees in a fresh session.
fn run(
    algorithm: Algorithm,
    source: &SchemaTree,
    target: &SchemaTree,
    config: &MatchConfig,
) -> MatchOutcome {
    let session = MatchSession::new(*config);
    let (sp, tp) = (session.prepare(source), session.prepare(target));
    session.run(&algorithm, &sp, &tp).expect("valid algorithm")
}

const CASES: usize = 64;

/// A random tree as `(label, parent)` entries valid for
/// `SchemaTree::from_labels` (parents always precede children).
fn random_tree(rng: &mut SmallRng, max_nodes: usize) -> SchemaTree {
    const FIRST: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
    const REST: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
    let nodes = rng.gen_range(1..=max_nodes);
    let mut labels: Vec<(String, Option<usize>)> = Vec::with_capacity(nodes);
    for i in 0..nodes {
        let len = rng.gen_range(0..10usize);
        let mut label = String::new();
        label.push(FIRST[rng.gen_range(0..FIRST.len())] as char);
        for _ in 0..len {
            label.push(REST[rng.gen_range(0..REST.len())] as char);
        }
        let parent = if i == 0 {
            None
        } else {
            Some(rng.gen_range(0..i))
        };
        labels.push((label, parent));
    }
    let borrowed: Vec<(&str, Option<usize>)> =
        labels.iter().map(|(l, p)| (l.as_str(), *p)).collect();
    SchemaTree::from_labels("random", &borrowed)
}

#[test]
fn hybrid_scores_stay_in_unit_range() {
    let mut rng = SmallRng::seed_from_u64(0xB1);
    for case in 0..CASES {
        let a = random_tree(&mut rng, 24);
        let b = random_tree(&mut rng, 24);
        let outcome = run(Algorithm::Hybrid, &a, &b, &MatchConfig::default());
        outcome.matrix.assert_normalized();
        assert!(
            (0.0..=1.0).contains(&outcome.total_qom),
            "case {case}: {}",
            outcome.total_qom
        );
    }
}

#[test]
fn structural_scores_stay_in_unit_range() {
    let mut rng = SmallRng::seed_from_u64(0xB2);
    for _ in 0..CASES {
        let a = random_tree(&mut rng, 24);
        let b = random_tree(&mut rng, 24);
        run(Algorithm::Structural, &a, &b, &MatchConfig::default())
            .matrix
            .assert_normalized();
    }
}

#[test]
fn linguistic_scores_stay_in_unit_range() {
    let mut rng = SmallRng::seed_from_u64(0xB3);
    for _ in 0..CASES {
        let a = random_tree(&mut rng, 24);
        let b = random_tree(&mut rng, 24);
        run(Algorithm::Linguistic, &a, &b, &MatchConfig::default())
            .matrix
            .assert_normalized();
    }
}

#[test]
fn tree_edit_scores_stay_in_unit_range() {
    let mut rng = SmallRng::seed_from_u64(0xB4);
    for _ in 0..CASES {
        let a = random_tree(&mut rng, 16);
        let b = random_tree(&mut rng, 16);
        run(Algorithm::TreeEdit, &a, &b, &MatchConfig::default())
            .matrix
            .assert_normalized();
    }
}

#[test]
fn self_match_is_always_perfect() {
    let mut rng = SmallRng::seed_from_u64(0xB5);
    let config = MatchConfig::default();
    for case in 0..CASES {
        let a = random_tree(&mut rng, 24);
        assert!(
            (run(Algorithm::Hybrid, &a, &a, &config).total_qom - 1.0).abs() < 1e-9,
            "case {case}"
        );
        assert!(
            (run(Algorithm::Structural, &a, &a, &config).total_qom - 1.0).abs() < 1e-9,
            "case {case}"
        );
        assert!(
            (run(Algorithm::TreeEdit, &a, &a, &config).total_qom - 1.0).abs() < 1e-9,
            "case {case}"
        );
        // The flat linguistic total is a mean of per-node bests, all 1.0.
        assert!(
            (run(Algorithm::Linguistic, &a, &a, &config).total_qom - 1.0).abs() < 1e-9,
            "case {case}"
        );
    }
}

#[test]
fn linguistic_matrix_is_transpose_symmetric() {
    let mut rng = SmallRng::seed_from_u64(0xB6);
    let config = MatchConfig::default();
    for case in 0..CASES {
        let a = random_tree(&mut rng, 12);
        let b = random_tree(&mut rng, 12);
        // Label similarity has no direction.
        let ab = run(Algorithm::Linguistic, &a, &b, &config);
        let ba = run(Algorithm::Linguistic, &b, &a, &config);
        for (s, t, v) in ab.matrix.iter() {
            assert!((v - ba.matrix.get(t, s)).abs() < 1e-9, "case {case}");
        }
    }
}

#[test]
fn mapping_extraction_is_injective_and_thresholded() {
    let mut rng = SmallRng::seed_from_u64(0xB7);
    for case in 0..CASES {
        let a = random_tree(&mut rng, 16);
        let b = random_tree(&mut rng, 16);
        let threshold = rng.gen_range(0.0..1.0f64);
        let outcome = run(Algorithm::Hybrid, &a, &b, &MatchConfig::default());
        let mapping = extract_mapping(&outcome.matrix, threshold);
        let mut sources = std::collections::HashSet::new();
        let mut targets = std::collections::HashSet::new();
        for c in &mapping.pairs {
            assert!(c.score >= threshold, "case {case}");
            assert!(sources.insert(c.source), "case {case}: source used twice");
            assert!(targets.insert(c.target), "case {case}: target used twice");
        }
    }
}

#[test]
fn raising_the_threshold_never_grows_the_mapping() {
    let mut rng = SmallRng::seed_from_u64(0xB8);
    for case in 0..CASES {
        let a = random_tree(&mut rng, 16);
        let b = random_tree(&mut rng, 16);
        let outcome = run(Algorithm::Hybrid, &a, &b, &MatchConfig::default());
        let mut last = usize::MAX;
        for step in 0..=10 {
            let mapping = extract_mapping(&outcome.matrix, step as f64 / 10.0);
            assert!(mapping.len() <= last, "case {case} step {step}");
            last = mapping.len();
        }
    }
}

#[test]
fn total_exact_weight_identity_holds_for_any_weights() {
    let mut rng = SmallRng::seed_from_u64(0xB9);
    for case in 0..CASES {
        let l = rng.gen_range(0.0..1.0f64);
        let p = rng.gen_range(0.0..1.0f64);
        let h = rng.gen_range(0.0..1.0f64);
        // Normalize three free components into a unit-sum vector.
        let rest = l + p + h;
        let (l, p, h) = if rest > 1.0 {
            (l / rest, p / rest, h / rest)
        } else {
            (l, p, h)
        };
        let c = (1.0 - l - p - h).max(0.0);
        let Ok(weights) = Weights::new(l, p, h, c) else {
            continue;
        };
        assert!(
            (weights.qom(1.0, 1.0, 1.0, 1.0) - 1.0).abs() < 1e-9,
            "case {case}"
        );
        assert!(
            (weights.leaf_qom(1.0, 1.0) - 1.0).abs() < 1e-9,
            "case {case}"
        );
    }
}

#[test]
fn evaluation_counts_are_consistent() {
    use qmatch::core::mapping::path_of;
    let mut rng = SmallRng::seed_from_u64(0xBA);
    for case in 0..CASES {
        let a = random_tree(&mut rng, 12);
        let b = random_tree(&mut rng, 12);
        let outcome = run(Algorithm::Hybrid, &a, &b, &MatchConfig::default());
        let mapping = extract_mapping(&outcome.matrix, 0.6);
        // Gold = the first half of the predictions plus a fabricated miss.
        let mut gold = qmatch::core::GoldStandard::new();
        for c in mapping.pairs.iter().take(mapping.len() / 2) {
            gold.add(&path_of(&a, c.source), &path_of(&b, c.target));
        }
        gold.add("no/such/source", "no/such/target");
        let q = evaluate(&mapping, &a, &b, &gold);
        assert_eq!(
            q.true_positives + q.false_positives,
            mapping.len(),
            "case {case}"
        );
        assert_eq!(
            q.true_positives + q.false_negatives,
            gold.len(),
            "case {case}"
        );
        assert!(q.precision >= 0.0 && q.precision <= 1.0, "case {case}");
        assert!(q.recall >= 0.0 && q.recall <= 1.0, "case {case}");
        assert!(q.overall <= 1.0, "case {case}");
    }
}
