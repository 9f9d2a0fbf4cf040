//! A long-lived session (`MatchSession::prepare` once, `run` many times)
//! must answer exactly like a fresh single-pair session: bit-identical
//! similarity matrices and totals on random trees, whatever either
//! session's thread count.
//!
//! The cross-schema label cache makes this non-trivial — a cached
//! `NameMatch` is reused verbatim across pairs, so these tests also pin
//! down that warming the cache can never change a matrix. The long-lived
//! sessions run on four worker threads, the fresh ones on one.

use qmatch_core::algorithms::{Algorithm, MatchOutcome};
use qmatch_core::model::MatchConfig;
use qmatch_core::session::{MatchSession, PreparedSchema};
use qmatch_prng::SmallRng;
use qmatch_xsd::SchemaTree;

const CASES: usize = 48;

fn session_with_threads(config: MatchConfig, threads: usize) -> MatchSession {
    let mut session = MatchSession::new(config);
    session.set_threads(threads);
    session
}

fn run(
    session: &MatchSession,
    algorithm: &Algorithm,
    sp: &PreparedSchema,
    tp: &PreparedSchema,
) -> MatchOutcome {
    session.run(algorithm, sp, tp).unwrap()
}

/// `algorithm` over `(a, b)` in a fresh one-thread session — the reference
/// a long-lived session must reproduce.
fn fresh(
    algorithm: &Algorithm,
    a: &SchemaTree,
    b: &SchemaTree,
    config: MatchConfig,
) -> MatchOutcome {
    let session = session_with_threads(config, 1);
    let (sp, tp) = (session.prepare(a), session.prepare(b));
    run(&session, algorithm, &sp, &tp)
}

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

#[test]
fn long_lived_session_matches_fresh_sessions_for_every_engine() {
    let mut rng = SmallRng::seed_from_u64(0xE1);
    let config = MatchConfig::default();
    let session = session_with_threads(config, 4);
    for case in 0..CASES {
        // Up to 64×64 nodes: comfortably past the parallel cell threshold.
        let a = random_tree(&mut rng, 64);
        let b = random_tree(&mut rng, 64);
        let (sp, tp) = (session.prepare(&a), session.prepare(&b));
        for algorithm in [
            Algorithm::Hybrid,
            Algorithm::Structural,
            Algorithm::Linguistic,
        ] {
            assert_bit_identical(
                &run(&session, &algorithm, &sp, &tp),
                &fresh(&algorithm, &a, &b, config),
                &format!("case {case} {}", algorithm.name()),
            );
        }
    }
}

#[test]
fn warm_cache_and_repeated_matching_are_bit_identical() {
    let mut rng = SmallRng::seed_from_u64(0xE3);
    let config = MatchConfig::default();
    let session = session_with_threads(config, 4);
    for case in 0..CASES {
        let a = random_tree(&mut rng, 64);
        let b = random_tree(&mut rng, 64);
        let (sp, tp) = (session.prepare(&a), session.prepare(&b));
        // By this iteration the cache holds entries from every earlier pair;
        // a fresh session has none. Both must agree, and re-running the warm
        // session must be a fixed point.
        let warm = run(&session, &Algorithm::Hybrid, &sp, &tp);
        let warm_again = run(&session, &Algorithm::Hybrid, &sp, &tp);
        assert_bit_identical(&warm, &warm_again, &format!("case {case} (rerun)"));
        assert_bit_identical(
            &warm,
            &fresh(&Algorithm::Hybrid, &a, &b, config),
            &format!("case {case} (cold vs warm)"),
        );
    }
}

#[test]
fn prepare_once_equals_prepare_per_pair() {
    let mut rng = SmallRng::seed_from_u64(0xE4);
    let config = MatchConfig::default();
    let trees: Vec<SchemaTree> = (0..8).map(|_| random_tree(&mut rng, 40)).collect();
    let session = session_with_threads(config, 4);
    let prepared: Vec<_> = trees.iter().map(|t| session.prepare(t)).collect();
    for (i, sp) in prepared.iter().enumerate() {
        for (j, tp) in prepared.iter().enumerate() {
            let once = run(&session, &Algorithm::Hybrid, sp, tp);
            // Re-preparing the same trees (same or a fresh session) must
            // yield the same artifacts and hence the same matrix.
            let (sp2, tp2) = (session.prepare(&trees[i]), session.prepare(&trees[j]));
            assert_bit_identical(
                &once,
                &run(&session, &Algorithm::Hybrid, &sp2, &tp2),
                &format!("pair ({i},{j}) re-prepared"),
            );
        }
    }
}

#[test]
fn match_corpus_equals_pairwise_session_matching() {
    let mut rng = SmallRng::seed_from_u64(0xE5);
    let config = MatchConfig::default();
    let trees: Vec<(SchemaTree, SchemaTree)> = (0..12)
        .map(|_| (random_tree(&mut rng, 40), random_tree(&mut rng, 40)))
        .collect();
    let session = session_with_threads(config, 4);
    let prepared: Vec<_> = trees
        .iter()
        .map(|(s, t)| (session.prepare(s), session.prepare(t)))
        .collect();
    let refs: Vec<_> = prepared.iter().map(|(s, t)| (s, t)).collect();
    let batch = session.match_corpus(&refs);
    assert_eq!(batch.len(), trees.len());
    for (i, (out, (sp, tp))) in batch.iter().zip(&prepared).enumerate() {
        let pairwise = run(&session, &Algorithm::Hybrid, sp, tp);
        assert_bit_identical(out, &pairwise, &format!("pair {i}"));
        let (s, t) = &trees[i];
        assert_bit_identical(
            out,
            &fresh(&Algorithm::Hybrid, s, t, config),
            &format!("pair {i} vs fresh one-thread session"),
        );
    }
}
