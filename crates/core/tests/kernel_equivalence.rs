//! Exactness contracts of the banded DP kernel (DESIGN.md §14).
//!
//! The hybrid engine restructures Figure 3's recursion — distinct-pair score
//! tables, a band scatter over target parents, label-upper-bound and
//! cross-kind prefilters, arena-recycled buffers, and optional `f32`
//! storage. None of that may change what the default path computes:
//!
//! - the banded/pruned kernel is **bit-identical** to a naive in-test
//!   transcription of the paper recursion, at every threshold (pruning is
//!   provably lossless, not approximate);
//! - a warm arena (recycled, stale buffers) matches a cold one bit for bit;
//! - opt-in `Precision::F32` stays within 1e-6 of the `f64` scores and
//!   extracts the identical mapping on every corpus pair tested.

use qmatch_core::algorithms::Algorithm;
use qmatch_core::mapping::extract_mapping;
use qmatch_core::matrix::{Precision, SimMatrix};
use qmatch_core::model::{children_qom, MatchConfig, Weights};
use qmatch_core::props::compare_properties;
use qmatch_core::session::MatchSession;
use qmatch_core::trace::{Phase, Recorder};
use qmatch_core::LabelMatrix;
use qmatch_prng::SmallRng;
use qmatch_xsd::{NodeId, SchemaTree};
use std::sync::Arc;

/// Random tree in the same style as the parallel-equivalence suite: a small
/// vocabulary (so labels collide and the lexicon has synonyms to find) mixed
/// with unique names, random parents, up to `max_nodes` nodes.
fn random_tree(rng: &mut SmallRng, max_nodes: usize) -> SchemaTree {
    const VOCAB: [&str; 8] = [
        "order", "item", "quantity", "price", "customer", "address", "date", "number",
    ];
    let n = rng.gen_range(2..=max_nodes.max(2));
    let mut labels: Vec<(String, Option<usize>)> = vec![("root".to_string(), None)];
    for i in 1..n {
        let label = if rng.gen_bool(0.7) {
            VOCAB[rng.gen_range(0..VOCAB.len())].to_string()
        } else {
            format!("n{}", rng.gen_range(0..1000u32))
        };
        labels.push((label, Some(rng.gen_range(0..i))));
    }
    let borrowed: Vec<(&str, Option<usize>)> =
        labels.iter().map(|(l, p)| (l.as_str(), *p)).collect();
    SchemaTree::from_labels("root", &borrowed)
}

/// A naive, unpruned, cell-at-a-time transcription of the Figure 3
/// recursion — the reference the production kernel must reproduce bit for
/// bit. Child sums accumulate in source-child order, exactly as specified.
fn reference_hybrid(source: &SchemaTree, target: &SchemaTree, config: &MatchConfig) -> SimMatrix {
    let labels = LabelMatrix::new(source, target, config.lexicon);
    let w = config.weights;
    let mut matrix = SimMatrix::zeros(source.len(), target.len());
    // Children follow their parents in storage order, so reverse id order
    // visits every child before its parent (bottom-up).
    for si in (0..source.len() as u32).rev() {
        let s = NodeId(si);
        let sn = source.node(s);
        let s_leaf = sn.children.is_empty();
        for ti in 0..target.len() as u32 {
            let t = NodeId(ti);
            let tn = target.node(t);
            let t_leaf = tn.children.is_empty();
            let l = labels.get(s, t).score;
            let p = compare_properties(&sn.properties, &tn.properties).score;
            let v = if s_leaf && t_leaf {
                w.leaf_qom(l, p)
            } else {
                let mut qom_sum = 0.0f64;
                let mut matched = 0usize;
                for &cs in &sn.children {
                    let best = tn
                        .children
                        .iter()
                        .map(|&ct| matrix.get(cs, ct))
                        .fold(0.0f64, f64::max);
                    if best >= config.threshold {
                        qom_sum += best;
                        matched += 1;
                    }
                }
                let qomc = if s_leaf != t_leaf {
                    0.0
                } else {
                    children_qom(qom_sum, matched, sn.children.len())
                };
                let qomh = if sn.level == tn.level { 1.0 } else { 0.0 };
                w.qom(l, p, qomh, qomc)
            };
            matrix.set(s, t, v);
        }
    }
    matrix
}

fn session_hybrid(source: &SchemaTree, target: &SchemaTree, config: &MatchConfig) -> SimMatrix {
    let session = MatchSession::new(*config);
    let (sp, tp) = (session.prepare(source), session.prepare(target));
    session
        .run(&Algorithm::Hybrid, &sp, &tp)
        .expect("hybrid is infallible")
        .matrix
}

#[test]
fn banded_kernel_is_bit_identical_to_the_reference_recursion() {
    // The thresholds sweep the prefilters from fully inert (0.0 keeps every
    // child pair) to aggressive (0.99 engages both the full-row and the
    // cross-kind prune on most label pairs).
    let mut rng = SmallRng::seed_from_u64(0x9a41);
    for case in 0..24 {
        let source = random_tree(&mut rng, 40);
        let target = random_tree(&mut rng, 40);
        for threshold in [0.0, 0.5, 0.9, 0.99] {
            let config = MatchConfig {
                threshold,
                ..MatchConfig::default()
            };
            let expected = reference_hybrid(&source, &target, &config);
            let got = session_hybrid(&source, &target, &config);
            assert_eq!(
                got, expected,
                "case {case}, threshold {threshold}: banded kernel diverged"
            );
        }
    }
}

#[test]
fn pruning_stays_exact_under_extreme_weights() {
    // All weight on one axis stresses the upper bounds: label-only makes the
    // label bound tight, children-only makes it vacuous.
    let mut rng = SmallRng::seed_from_u64(0x517e);
    let weightings = [
        Weights::new(1.0, 0.0, 0.0, 0.0).unwrap(),
        Weights::new(0.0, 0.0, 0.0, 1.0).unwrap(),
        Weights::new(0.5, 0.1, 0.1, 0.3).unwrap(),
    ];
    for weights in weightings {
        let source = random_tree(&mut rng, 30);
        let target = random_tree(&mut rng, 30);
        for threshold in [0.5, 0.95] {
            let config = MatchConfig {
                weights,
                threshold,
                ..MatchConfig::default()
            };
            let expected = reference_hybrid(&source, &target, &config);
            let got = session_hybrid(&source, &target, &config);
            assert_eq!(got, expected, "weights {weights:?}, threshold {threshold}");
        }
    }
}

#[test]
fn high_threshold_actually_skips_cells() {
    // Observability check: on label-disparate schemas a strict threshold
    // must engage the prefilters (trace spans count the skipped cells) —
    // and the matrices above proved doing so loses nothing.
    let source = SchemaTree::from_labels(
        "alpha",
        &[
            ("alpha", None),
            ("beta", Some(0)),
            ("gamma", Some(1)),
            ("delta", Some(1)),
        ],
    );
    let target = SchemaTree::from_labels(
        "omega",
        &[
            ("omega", None),
            ("psi", Some(0)),
            ("chi", Some(1)),
            ("phi", Some(1)),
        ],
    );
    let recorder = Arc::new(Recorder::default());
    let mut session = MatchSession::new(MatchConfig {
        threshold: 0.95,
        ..MatchConfig::default()
    });
    session.set_trace_sink(recorder.clone());
    let (sp, tp) = (session.prepare(&source), session.prepare(&target));
    session.run(&Algorithm::Hybrid, &sp, &tp).unwrap();
    assert!(
        recorder.phase_stats(Phase::HybridWave).skipped > 0,
        "strict threshold on disjoint labels must skip cells"
    );
}

#[test]
fn warm_arena_is_bit_identical_to_cold() {
    // One long-lived session recycles every outcome back into its arena, so
    // later matches run on *stale* (non-zeroed) buffers; a fresh session per
    // pair never reuses anything. The matrices must agree bit for bit.
    let mut rng = SmallRng::seed_from_u64(0xa3e1);
    let pairs: Vec<(SchemaTree, SchemaTree)> = (0..12)
        .map(|_| (random_tree(&mut rng, 35), random_tree(&mut rng, 35)))
        .collect();
    let config = MatchConfig::default();
    let warm = MatchSession::new(config);
    for (source, target) in &pairs {
        let (sp, tp) = (warm.prepare(source), warm.prepare(target));
        let outcome = warm.run(&Algorithm::Hybrid, &sp, &tp).unwrap();

        let cold = MatchSession::new(config);
        let (cs, ct) = (cold.prepare(source), cold.prepare(target));
        let fresh = cold.run(&Algorithm::Hybrid, &cs, &ct).unwrap();

        assert_eq!(outcome.matrix, fresh.matrix, "warm arena changed scores");
        assert_eq!(outcome.total_qom.to_bits(), fresh.total_qom.to_bits());
        warm.recycle(outcome);
    }
    let stats = warm.arena_stats();
    assert!(
        stats.matrix_reuses > 0,
        "recycling must actually reuse buffers: {stats:?}"
    );
}

#[test]
fn f32_scores_stay_within_tolerance_and_extract_the_same_mapping() {
    let mut rng = SmallRng::seed_from_u64(0x5eed);
    let config = MatchConfig::default();
    let session = MatchSession::new(config);
    let f32_session = MatchSession::new(MatchConfig {
        precision: Precision::F32,
        ..config
    });
    for case in 0..16 {
        let source = random_tree(&mut rng, 40);
        let target = random_tree(&mut rng, 40);
        let (sp, tp) = (session.prepare(&source), session.prepare(&target));
        let exact = session.run(&Algorithm::Hybrid, &sp, &tp).unwrap();
        let (fp, gp) = (f32_session.prepare(&source), f32_session.prepare(&target));
        let lean = f32_session.run(&Algorithm::Hybrid, &fp, &gp).unwrap();

        assert_eq!(lean.matrix.precision(), Precision::F32);
        let diff = exact.matrix.max_abs_diff(&lean.matrix);
        assert!(diff <= 1e-6, "case {case}: f32 drifted by {diff}");
        assert!((exact.total_qom - lean.total_qom).abs() <= 1e-6);

        // The extracted correspondences must be the same pairs. (Scores may
        // differ in the last bits; order of equal-score ties is pinned by
        // the deterministic (score, source, target) sort on both sides.)
        let accept = config.weights.acceptance_threshold();
        let expected: Vec<(NodeId, NodeId)> = extract_mapping(&exact.matrix, accept)
            .pairs
            .iter()
            .map(|c| (c.source, c.target))
            .collect();
        let got: Vec<(NodeId, NodeId)> = extract_mapping(&lean.matrix, accept)
            .pairs
            .iter()
            .map(|c| (c.source, c.target))
            .collect();
        assert_eq!(got, expected, "case {case}: mapping changed under f32");
    }
}

#[test]
fn f32_and_f64_agree_for_every_algorithm() {
    let mut rng = SmallRng::seed_from_u64(0xbeef);
    let source = random_tree(&mut rng, 30);
    let target = random_tree(&mut rng, 30);
    let session = MatchSession::new(MatchConfig::default());
    let (sp, tp) = (session.prepare(&source), session.prepare(&target));
    for algo in [
        Algorithm::Hybrid,
        Algorithm::Linguistic,
        Algorithm::Structural,
    ] {
        let exact = session
            .run_with_precision(&algo, &sp, &tp, Precision::F64)
            .unwrap();
        let lean = session
            .run_with_precision(&algo, &sp, &tp, Precision::F32)
            .unwrap();
        assert_eq!(exact.matrix.precision(), Precision::F64);
        assert_eq!(lean.matrix.precision(), Precision::F32);
        let diff = exact.matrix.max_abs_diff(&lean.matrix);
        assert!(diff <= 1e-6, "{}: drift {diff}", algo.name());
        session.recycle(exact);
        session.recycle(lean);
    }
}
