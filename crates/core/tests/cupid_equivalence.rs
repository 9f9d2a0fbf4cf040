//! The CUPID engine must be indistinguishable across thread counts —
//! bit-identical matrices on random trees for one and four workers — and,
//! stronger, invariant to *how* the wavefront is scheduled: any worker
//! count yields the same bytes, because propagation flags are computed
//! against the immutable pre-pass leaf similarities and applied once per
//! leaf pair.

use qmatch_core::algorithms::{mapping_generation_leaves, Algorithm};
use qmatch_core::model::MatchConfig;
use qmatch_core::session::MatchSession;
use qmatch_prng::SmallRng;
use qmatch_xsd::SchemaTree;

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

fn session_with_threads(threads: usize) -> MatchSession {
    let mut session = MatchSession::new(MatchConfig::default());
    session.set_threads(threads);
    session
}

#[test]
fn cupid_is_bit_identical_across_thread_counts() {
    let one = session_with_threads(1);
    // Wave-scheduling invariance: reslicing the wavefront across any number
    // of workers never shows in the output bytes.
    let many: Vec<(usize, MatchSession)> = [2, 3, 4, 8]
        .into_iter()
        .map(|threads| (threads, session_with_threads(threads)))
        .collect();
    let mut rng = SmallRng::seed_from_u64(0xC0BD);
    for case in 0..32 {
        // Up to 64×64 nodes: comfortably past the parallel cell threshold.
        let a = random_tree(&mut rng, 64);
        let b = random_tree(&mut rng, 64);
        let (pa, pb) = (one.prepare(&a), one.prepare(&b));
        let want = one.run(&Algorithm::Cupid, &pa, &pb).unwrap();
        for (threads, session) in &many {
            let (pa, pb) = (session.prepare(&a), session.prepare(&b));
            let got = session.run(&Algorithm::Cupid, &pa, &pb).unwrap();
            assert_eq!(
                got.matrix, want.matrix,
                "case {case}: {threads} worker(s) diverge from one"
            );
            assert_eq!(
                got.total_qom.to_bits(),
                want.total_qom.to_bits(),
                "case {case}: totals diverge: {} vs {}",
                got.total_qom,
                want.total_qom
            );
        }
    }
}

#[test]
fn cupid_leaf_mapping_is_leaf_anchored_and_one_to_one() {
    let session = MatchSession::new(MatchConfig::default());
    let mut rng = SmallRng::seed_from_u64(0xC0FF);
    let threshold = MatchConfig::default().cupid.th_accept;
    for case in 0..32 {
        let a = random_tree(&mut rng, 48);
        let b = random_tree(&mut rng, 48);
        let (pa, pb) = (session.prepare(&a), session.prepare(&b));
        let outcome = session.run(&Algorithm::Cupid, &pa, &pb).unwrap();
        let mapping = mapping_generation_leaves(&pa, &pb, &outcome.matrix, threshold);
        let mut sources = std::collections::HashSet::new();
        let mut targets = std::collections::HashSet::new();
        for c in &mapping.pairs {
            assert!(
                pa.leaves().contains(&c.source) && pb.leaves().contains(&c.target),
                "case {case}: pair ({:?}, {:?}) is not leaf-to-leaf",
                c.source,
                c.target
            );
            assert!(
                c.score >= threshold,
                "case {case}: accepted score {} below th_accept",
                c.score
            );
            assert!(sources.insert(c.source), "case {case}: source reused");
            assert!(targets.insert(c.target), "case {case}: target reused");
        }
        session.recycle(outcome);
    }
}
