//! The session's cold label build scores each distinct token pair once,
//! from a per-build token table, and grades every label pair from that
//! table. These tests pin it to the from-scratch reference
//! (`NameMatcher::compare_tokens`) bit for bit — grade and score bits — on
//! every distinct label pair of the paper's gold pairs, PIR × PDB and a few
//! drift families, under both token-aligning lexicon modes and at one and
//! four worker threads. They also pin the counted work: the token pairs a
//! cold build scores, and that a warm build scores none.

use qmatch::core::model::{LexiconMode, MatchConfig};
use qmatch::core::session::{MatchSession, PreparedSchema};
use qmatch::datasets::{corpus, drift, synth};
use qmatch::lexicon::name_match::content_positions;
use qmatch::xsd::{NodeId, SchemaTree};
use std::collections::HashSet;

fn session(mode: LexiconMode, threads: usize) -> MatchSession {
    let config = MatchConfig::builder()
        .lexicon(mode)
        .build()
        .expect("valid config");
    let mut session = MatchSession::new(config);
    session.set_threads(threads);
    session
}

/// One node per distinct label, in the prepared schema's distinct order
/// (first seen in pre-order).
fn representatives(prepared: &PreparedSchema) -> Vec<NodeId> {
    let mut seen = HashSet::new();
    prepared
        .tree()
        .iter()
        .map(|(id, _)| id)
        .filter(|&id| seen.insert(prepared.symbol(id)))
        .collect()
}

/// PDB (3753 distinct labels), or in unoptimized builds a flat tree of
/// every 16th of its labels: the from-scratch reference over all 867k PIR ×
/// PDB label pairs takes about 3 s optimized and over 30 s unoptimized.
/// The label axis ignores structure, so the flat tree exercises the same
/// label pairs as the nodes it keeps.
fn pdb() -> SchemaTree {
    let pdb = synth::pdb();
    if !cfg!(debug_assertions) {
        return pdb.clone();
    }
    let mut labels: Vec<(&str, Option<usize>)> = vec![(pdb.node(NodeId(0)).label.as_str(), None)];
    labels.extend(
        pdb.iter()
            .skip(1)
            .step_by(16)
            .map(|(_, node)| (node.label.as_str(), Some(0))),
    );
    SchemaTree::from_labels(pdb.name(), &labels)
}

fn pairs() -> Vec<(String, SchemaTree, SchemaTree)> {
    let mut pairs = vec![
        ("PO".to_owned(), corpus::po1(), corpus::po2()),
        ("BOOK".to_owned(), corpus::article(), corpus::book()),
        ("DCMD".to_owned(), corpus::dcmd_item(), corpus::dcmd_ord()),
        ("PIR x PDB".to_owned(), synth::pir().clone(), pdb()),
    ];
    let family = drift::synthetic_registry(8, 11);
    for k in 0..4 {
        let (a, b) = (&family[k], &family[k + 4]);
        pairs.push((format!("{} x {}", a.0, b.0), a.1.clone(), b.1.clone()));
    }
    let revision = drift::mutation_chain(synth::pir(), 1, 0.3, 5).remove(0);
    pairs.push(("PIR x rev".to_owned(), synth::pir().clone(), revision));
    // Registered acronyms whose expansion matches only through a synonym
    // (`po` is "purchase order", `buy` a synonym of `purchase`; `doi` ends
    // in "identifier", a synonym of `accession`), on the row side and on
    // the column side: no initials check catches these.
    let codes = [
        ("Codes", None),
        ("PO", Some(0)),
        ("DigitalObjectAccession", Some(0)),
    ];
    let refs = [("Refs", None), ("BuyOrder", Some(0)), ("DOI", Some(0))];
    pairs.push((
        "acronyms".to_owned(),
        SchemaTree::from_labels("Codes", &codes),
        SchemaTree::from_labels("Refs", &refs),
    ));
    let (a, b) = edge_labels();
    pairs.push(("edge labels".to_owned(), a, b));
    pairs
}

/// Labels at the edges of the build: stopword-only labels (which align all
/// their tokens), labels of five and more content tokens (more than 16
/// alignment cells), and non-ASCII tokens a char off each other.
fn edge_labels() -> (SchemaTree, SchemaTree) {
    let source = [
        ("Edges", None),
        ("OfThe", Some(0)),
        ("To_A", Some(0)),
        ("PurchaseOrderShippingAddressLineNumberOfTheItem", Some(0)),
        ("GrößeDerLieferung", Some(0)),
        ("NuméroDeCommande", Some(0)),
        ("DescriptonOfTheQuantiy", Some(0)),
    ];
    let target = [
        ("Edge", None),
        ("TheOf", Some(0)),
        ("A_To", Some(0)),
        ("Of", Some(0)),
        ("ShippingAddressLineNumberOfPurchaseOrderItems", Some(0)),
        ("GrösseDerLieferungen", Some(0)),
        ("NumeroCommande", Some(0)),
        ("NumérosDeCommandes", Some(0)),
        ("DescriptionOfTheQuantity", Some(0)),
    ];
    (
        SchemaTree::from_labels("Edges", &source),
        SchemaTree::from_labels("Edge", &target),
    )
}

#[test]
fn cold_label_builds_equal_the_from_scratch_reference_bit_for_bit() {
    for mode in [LexiconMode::Full, LexiconMode::FuzzyOnly] {
        for (name, a, b) in pairs() {
            // The reference: every distinct label pair scored from scratch.
            let reference_session = session(mode, 1);
            let (sp, tp) = (reference_session.prepare(&a), reference_session.prepare(&b));
            let matcher = reference_session.matcher();
            let reference: Vec<_> = sp
                .distinct_tokens()
                .iter()
                .flat_map(|x| {
                    tp.distinct_tokens()
                        .iter()
                        .map(move |y| matcher.compare_tokens(x, y))
                })
                .collect();
            for threads in [1, 4] {
                let s = session(mode, threads);
                let (sp, tp) = (s.prepare(&a), s.prepare(&b));
                let labels = s.label_matrix(&sp, &tp);
                let (rows, cols) = (representatives(&sp), representatives(&tp));
                for (i, &x) in rows.iter().enumerate() {
                    for (j, &y) in cols.iter().enumerate() {
                        let (got, want) = (labels.get(x, y), reference[i * cols.len() + j]);
                        assert!(
                            got.grade == want.grade && got.score.to_bits() == want.score.to_bits(),
                            "{name} {mode:?} threads {threads}: {:?} vs {:?}: {got:?} != {want:?}",
                            sp.distinct_tokens()[i],
                            tp.distinct_tokens()[j],
                        );
                    }
                }
                // The explain path's single-pair lookups agree too.
                let (x, y) = (rows[rows.len() / 2], cols[cols.len() / 2]);
                let fresh = session(mode, threads);
                let (fp, fq) = (fresh.prepare(&a), fresh.prepare(&b));
                assert_eq!(fresh.label_match(&fp, x, &fq, y), labels.get(x, y));
            }
        }
    }
}

#[test]
fn a_cold_build_scores_each_distinct_content_token_pair_once() {
    let pir = synth::pir();
    let revision = drift::mutation_chain(pir, 1, 0.15, 42).remove(0);
    check_cold_counts(pir, &revision, 1);
    let (a, b) = edge_labels();
    for threads in [1, 4] {
        check_cold_counts(&a, &b, threads);
    }
}

/// A cold build of `a × b` misses every distinct label pair and scores
/// exactly the distinct content-token pairs they align; a warm build (and
/// a warm single-pair lookup) hits and scores nothing.
fn check_cold_counts(a: &SchemaTree, b: &SchemaTree, threads: usize) {
    let s = session(LexiconMode::Full, threads);
    let (sp, tp) = (s.prepare(a), s.prepare(b));
    // Every distinct label pair misses in a fresh session; the distinct
    // content-token pairs those misses align, by token text.
    let mut expected = HashSet::new();
    for x in sp.distinct_tokens() {
        for y in tp.distinct_tokens() {
            for p in content_positions(x) {
                for q in content_positions(y) {
                    expected.insert((x[p].as_str(), y[q].as_str()));
                }
            }
        }
    }
    let cells = (sp.distinct_labels() * tp.distinct_labels()) as u64;
    let cold = s.label_matrix(&sp, &tp);
    let stats = s.cache_stats();
    assert_eq!((stats.hits, stats.misses), (0, cells));
    assert_eq!(stats.token_scores, expected.len() as u64);
    assert!(stats.token_scores > 0);
    // A warm build (and a warm single-pair lookup) scores nothing.
    let warm = s.label_matrix(&sp, &tp);
    let root = NodeId(0);
    assert_eq!(s.label_match(&sp, root, &tp, root), cold.get(root, root));
    let again = s.cache_stats();
    assert_eq!(again.hits, cells + 1);
    assert_eq!(again.misses, cells);
    assert_eq!(again.token_scores, stats.token_scores);
    for (id, _) in a.iter() {
        assert_eq!(warm.get(id, root), cold.get(id, root));
    }
}

/// One build's distinct-label pairs against the from-scratch reference,
/// bit for bit, and its new pairs added to `seen`. Returns the build's
/// expected `(hits, misses)`: a pair is a hit iff an earlier build of the
/// session compared it.
fn check_build(
    s: &MatchSession,
    sp: &PreparedSchema,
    tp: &PreparedSchema,
    seen: &mut HashSet<(usize, usize)>,
    what: &str,
) -> (u64, u64) {
    let labels = s.label_matrix(sp, tp);
    let (mut hits, mut misses) = (0, 0);
    for (i, &x) in representatives(sp).iter().enumerate() {
        for (j, &y) in representatives(tp).iter().enumerate() {
            let (a, b) = (&sp.distinct_tokens()[i], &tp.distinct_tokens()[j]);
            let (got, want) = (labels.get(x, y), s.matcher().compare_tokens(a, b));
            assert!(
                got.grade == want.grade && got.score.to_bits() == want.score.to_bits(),
                "{what}: {a:?} vs {b:?}: {got:?} != {want:?}",
            );
            if seen.insert((sp.symbol(x).index(), tp.symbol(y).index())) {
                misses += 1;
            } else {
                hits += 1;
            }
        }
    }
    (hits, misses)
}

#[test]
fn partially_cached_rows_across_builds_read_back_bit_for_bit() {
    let (a, b, c) = (corpus::po1(), corpus::book(), synth::pir().clone());
    for threads in [1, 4] {
        let s = session(LexiconMode::Full, threads);
        let (pa, pb) = (s.prepare(&a), s.prepare(&b));
        let mut seen = HashSet::new();
        let mut want = check_build(&s, &pa, &pb, &mut seen, "A x B");
        // C is interned after the A x B build, so its fresh labels lie past
        // the known bits that build gave A's rows.
        let pc = s.prepare(&c);
        let bound = |p: &PreparedSchema| p.tree().iter().map(|(id, _)| p.symbol(id).index()).max();
        let words = bound(&pa).max(bound(&pb)).expect("labels") / 64 + 1;
        assert!(
            bound(&pc).expect("labels") >= words * 64,
            "C lies past the bits"
        );
        let (hits, misses) = check_build(&s, &pa, &pc, &mut seen, "A x C");
        want = (want.0 + hits, want.1 + misses);
        // B ∪ C under a fresh root: every row of A is cached for every
        // column but the root's.
        let mut union = vec![("UnionRoot", None)];
        let mut labels = HashSet::new();
        for tree in [&b, &c] {
            for (_, node) in tree.iter() {
                if labels.insert(node.label.as_str()) {
                    union.push((node.label.as_str(), Some(0)));
                }
            }
        }
        let pu = s.prepare(SchemaTree::from_labels("BC", &union));
        let (hits, misses) = check_build(&s, &pa, &pu, &mut seen, "A x (B u C)");
        assert_eq!(
            misses as usize,
            pa.distinct_labels(),
            "only the root is new"
        );
        want = (want.0 + hits, want.1 + misses);
        let stats = s.cache_stats();
        assert_eq!((stats.hits, stats.misses), want, "threads {threads}");
        assert_eq!(stats.cached_pairs, seen.len() as u64);
    }
}
