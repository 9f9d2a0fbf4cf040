//! Every engine must be indistinguishable across thread counts: a session
//! pinned to one worker and a session pinned to four run the same
//! `MatchSession::run` code path and must produce bit-identical matrices
//! and totals on random trees, and repeated runs must be deterministic.
//!
//! Four workers split each wave's rows across scoped threads even on a
//! single-core machine, so the threaded path is exercised everywhere.

use qmatch_core::algorithms::{Aggregation, Algorithm, Component, MatchOutcome};
use qmatch_core::matrix::Precision;
use qmatch_core::model::MatchConfig;
use qmatch_core::session::MatchSession;
use qmatch_prng::SmallRng;
use qmatch_xsd::SchemaTree;

const CASES: usize = 48;

/// A random tree with 1..=max_nodes nodes; labels drawn from a small
/// vocabulary so label interning sees collisions, plus a random suffix arm
/// so distinct labels appear too.
fn random_tree(rng: &mut SmallRng, max_nodes: usize) -> SchemaTree {
    const VOCAB: &[&str] = &[
        "name", "id", "order", "item", "quantity", "price", "date", "address",
    ];
    let nodes = rng.gen_range(1..=max_nodes);
    let mut labels: Vec<(String, Option<usize>)> = Vec::with_capacity(nodes);
    for i in 0..nodes {
        let label = if rng.gen_bool(0.7) {
            VOCAB[rng.gen_range(0..VOCAB.len())].to_owned()
        } else {
            format!("n{}", rng.gen_range(0..1000u32))
        };
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

fn session_with_threads(config: MatchConfig, threads: usize) -> MatchSession {
    let mut session = MatchSession::new(config);
    session.set_threads(threads);
    session
}

fn assert_bit_identical(a: &MatchOutcome, b: &MatchOutcome, what: &str) {
    assert_eq!(a.matrix, b.matrix, "{what}: matrices diverge");
    assert_eq!(
        a.total_qom.to_bits(),
        b.total_qom.to_bits(),
        "{what}: totals diverge: {} vs {}",
        a.total_qom,
        b.total_qom
    );
}

/// Runs `algorithm` over `CASES` random pairs (up to 64×64 nodes, well past
/// the parallel cell threshold) on a one-thread and a four-thread session.
fn assert_thread_counts_agree(algorithm: &Algorithm, config: MatchConfig, seed: u64) {
    let one = session_with_threads(config, 1);
    let four = session_with_threads(config, 4);
    let mut rng = SmallRng::seed_from_u64(seed);
    for case in 0..CASES {
        let a = random_tree(&mut rng, 64);
        let b = random_tree(&mut rng, 64);
        let (sp1, tp1) = (one.prepare(&a), one.prepare(&b));
        let (sp4, tp4) = (four.prepare(&a), four.prepare(&b));
        assert_bit_identical(
            &four.run(algorithm, &sp4, &tp4).unwrap(),
            &one.run(algorithm, &sp1, &tp1).unwrap(),
            &format!("{} case {case}", algorithm.name()),
        );
    }
}

#[test]
fn hybrid_is_bit_identical_across_thread_counts() {
    assert_thread_counts_agree(&Algorithm::Hybrid, MatchConfig::default(), 0xD1);
}

#[test]
fn hybrid_f32_is_bit_identical_across_thread_counts() {
    let config = MatchConfig {
        precision: Precision::F32,
        ..MatchConfig::default()
    };
    assert_thread_counts_agree(&Algorithm::Hybrid, config, 0xD6);
}

#[test]
fn structural_is_bit_identical_across_thread_counts() {
    assert_thread_counts_agree(&Algorithm::Structural, MatchConfig::default(), 0xD2);
}

#[test]
fn linguistic_is_bit_identical_across_thread_counts() {
    assert_thread_counts_agree(&Algorithm::Linguistic, MatchConfig::default(), 0xD3);
}

#[test]
fn composite_is_bit_identical_across_thread_counts() {
    let algorithm = Algorithm::Composite {
        components: vec![
            Component::Linguistic,
            Component::Structural,
            Component::Hybrid,
        ],
        aggregation: Aggregation::Average,
    };
    assert_thread_counts_agree(&algorithm, MatchConfig::default(), 0xD7);
}

#[test]
fn repeated_four_thread_runs_are_deterministic() {
    let session = session_with_threads(MatchConfig::default(), 4);
    let mut rng = SmallRng::seed_from_u64(0xD4);
    for case in 0..CASES {
        let a = random_tree(&mut rng, 64);
        let b = random_tree(&mut rng, 64);
        let (sp, tp) = (session.prepare(&a), session.prepare(&b));
        let first = session.run(&Algorithm::Hybrid, &sp, &tp).unwrap();
        let second = session.run(&Algorithm::Hybrid, &sp, &tp).unwrap();
        assert_bit_identical(&first, &second, &format!("case {case}"));
    }
}

#[test]
fn match_corpus_is_bit_identical_across_thread_counts_and_order_preserving() {
    let config = MatchConfig::default();
    let mut rng = SmallRng::seed_from_u64(0xD5);
    let pairs: Vec<(SchemaTree, SchemaTree)> = (0..12)
        .map(|_| (random_tree(&mut rng, 40), random_tree(&mut rng, 40)))
        .collect();
    let batch = |threads: usize| {
        let session = session_with_threads(config, threads);
        let prepared: Vec<_> = pairs
            .iter()
            .map(|(s, t)| (session.prepare(s), session.prepare(t)))
            .collect();
        let refs: Vec<_> = prepared.iter().map(|(s, t)| (s, t)).collect();
        session.match_corpus(&refs)
    };
    let (four, one) = (batch(4), batch(1));
    assert_eq!(four.len(), pairs.len());
    let single = session_with_threads(config, 1);
    for (i, ((o4, o1), (s, t))) in four.iter().zip(&one).zip(&pairs).enumerate() {
        assert_bit_identical(o4, o1, &format!("pair {i}: four vs one thread"));
        let (sp, tp) = (single.prepare(s), single.prepare(t));
        assert_bit_identical(
            o4,
            &single.run(&Algorithm::Hybrid, &sp, &tp).unwrap(),
            &format!("pair {i}: batch vs single match"),
        );
    }
}
