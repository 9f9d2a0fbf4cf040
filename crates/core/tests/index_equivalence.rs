//! The candidate index must never change *what* a ranking says, only how
//! much DP it costs: whenever the prefilter's candidate set covers the
//! true top-k, the force-indexed ranking is bit-identical to the
//! exhaustive one — same names, same order, same float bits. And under
//! `IndexPolicy::Auto` a corpus at or below the floor ranks exhaustively,
//! so small registries cannot be perturbed by the index at all (the
//! lossless-fallback rule, DESIGN.md §16).

use qmatch_core::index::{CorpusIndex, IndexParams, IndexPolicy};
use qmatch_core::model::MatchConfig;
use qmatch_core::session::{MatchSession, PreparedSchema};
use qmatch_prng::SmallRng;
use qmatch_xsd::SchemaTree;
use std::collections::HashSet;

/// A random tree whose labels are drawn from one of three disjoint
/// vocabularies, so corpora contain lexically-related families (high
/// feature overlap within a family, little across) — the regime the
/// prefilter is designed for.
fn random_tree(rng: &mut SmallRng, family: usize, max_nodes: usize) -> SchemaTree {
    const VOCABS: [&[&str]; 3] = [
        &[
            "order", "item", "quantity", "price", "shipping", "billing", "address",
        ],
        &[
            "book",
            "title",
            "author",
            "publisher",
            "isbn",
            "edition",
            "chapter",
        ],
        &[
            "protein",
            "residue",
            "sequence",
            "structure",
            "atom",
            "chain",
            "model",
        ],
    ];
    let vocab = VOCABS[family % VOCABS.len()];
    let nodes = rng.gen_range(8..=max_nodes);
    let mut labels: Vec<(String, Option<usize>)> = Vec::with_capacity(nodes);
    for i in 0..nodes {
        let label = if rng.gen_bool(0.9) {
            vocab[rng.gen_range(0..vocab.len())].to_owned()
        } else {
            format!("x{}", rng.gen_range(0..100u32))
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

fn random_corpus(rng: &mut SmallRng, count: usize) -> Vec<(String, SchemaTree)> {
    (0..count)
        .map(|i| (format!("doc-{i:03}"), random_tree(rng, i, 24)))
        .collect()
}

fn bits(ranking: &[(String, f64)]) -> Vec<(String, u64)> {
    ranking
        .iter()
        .map(|(n, q)| (n.clone(), q.to_bits()))
        .collect()
}

#[test]
fn forced_topk_is_bit_identical_whenever_candidates_cover_the_truth() {
    let session = MatchSession::new(MatchConfig::default());
    let mut rng = SmallRng::seed_from_u64(0x1DEC5);
    let k = 5;
    let mut covered_cases = 0usize;
    for case in 0..12 {
        let corpus = random_corpus(&mut rng, 80);
        let prepared: Vec<PreparedSchema> =
            corpus.iter().map(|(_, t)| session.prepare(t)).collect();
        let refs: Vec<(&str, &PreparedSchema)> = corpus
            .iter()
            .zip(&prepared)
            .map(|((n, _), p)| (n.as_str(), p))
            .collect();
        let query = rng.gen_range(0..corpus.len());
        let source = &prepared[query];
        let exclude = Some(corpus[query].0.as_str());

        let exhaustive = session.topk(source, &refs, k, exclude, IndexPolicy::Off);
        let forced = session.topk(source, &refs, k, exclude, IndexPolicy::Force);

        // Reconstruct the candidate set the forced ranking was gated by.
        let mut index = CorpusIndex::default();
        for (name, prepared) in &refs {
            index.insert(name, session.signature(prepared));
        }
        let candidates: HashSet<String> = index
            .candidates(&session.signature(source))
            .names
            .into_iter()
            .collect();

        // Every forced entry must be a candidate, and its score must be
        // the exhaustive score for that name (the DP is untouched).
        for (name, qom) in &forced {
            assert!(
                candidates.contains(name),
                "case {case}: {name} not a candidate"
            );
            if let Some((_, truth)) = exhaustive.iter().find(|(n, _)| n == name) {
                assert_eq!(qom.to_bits(), truth.to_bits(), "case {case}: {name}");
            }
        }
        // The covering property: candidates ⊇ true top-k ⇒ identical
        // (name, score-bits) sequences, not merely overlapping sets.
        if exhaustive.iter().all(|(n, _)| candidates.contains(n)) {
            covered_cases += 1;
            assert_eq!(
                bits(&forced),
                bits(&exhaustive),
                "case {case}: covered candidates must reproduce the ranking"
            );
        }
    }
    assert!(
        covered_cases >= 8,
        "only {covered_cases}/12 cases covered their top-k — prefilter thresholds drifted"
    );
}

#[test]
fn auto_at_or_below_the_floor_is_exhaustive() {
    let session = MatchSession::new(MatchConfig::default());
    let mut rng = SmallRng::seed_from_u64(0xF100);
    let floor = IndexParams::default().floor;
    let corpus = random_corpus(&mut rng, floor);
    let prepared: Vec<PreparedSchema> = corpus.iter().map(|(_, t)| session.prepare(t)).collect();
    let refs: Vec<(&str, &PreparedSchema)> = corpus
        .iter()
        .zip(&prepared)
        .map(|((n, _), p)| (n.as_str(), p))
        .collect();
    for query in [0usize, floor / 2, floor - 1] {
        let source = &prepared[query];
        let exclude = Some(corpus[query].0.as_str());
        let off = session.topk(source, &refs, 10, exclude, IndexPolicy::Off);
        let auto = session.topk(source, &refs, 10, exclude, IndexPolicy::Auto);
        assert_eq!(
            bits(&off),
            bits(&auto),
            "query {query}: floor fallback broke"
        );
    }
}

#[test]
fn above_the_floor_auto_and_force_agree() {
    // Above the floor both policies consult the same index with the same
    // pair-local predicate, so their rankings must be identical.
    let session = MatchSession::new(MatchConfig::default());
    let mut rng = SmallRng::seed_from_u64(0xAB0E);
    let corpus = random_corpus(&mut rng, IndexParams::default().floor + 16);
    let prepared: Vec<PreparedSchema> = corpus.iter().map(|(_, t)| session.prepare(t)).collect();
    let refs: Vec<(&str, &PreparedSchema)> = corpus
        .iter()
        .zip(&prepared)
        .map(|((n, _), p)| (n.as_str(), p))
        .collect();
    let source = &prepared[3];
    let exclude = Some(corpus[3].0.as_str());
    let auto = session.topk(source, &refs, 8, exclude, IndexPolicy::Auto);
    let force = session.topk(source, &refs, 8, exclude, IndexPolicy::Force);
    assert_eq!(bits(&auto), bits(&force));
}
