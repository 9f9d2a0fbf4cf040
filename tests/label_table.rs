//! The session's cold label build finds the token pairs that can score
//! above 0 by joins, scores each once into a sparse table, and grades only
//! the label pairs that can be related; every other pair is
//! `{None, +0.0}`. These tests pin it to the from-scratch reference
//! (`NameMatcher::compare_tokens`) bit for bit — grade and score bits — on
//! every distinct label pair of the paper's gold pairs, PIR × PDB, a few
//! drift families and edge labels, under both token-aligning lexicon modes
//! and a custom thesaurus, at one and four worker threads. They also pin
//! the counted work: the candidate token pairs a cold build scores, the
//! label pairs it grades, and that a warm build does neither.

use qmatch::core::model::{LexiconMode, MatchConfig};
use qmatch::core::session::{MatchSession, PreparedSchema};
use qmatch::datasets::{corpus, drift, synth};
use qmatch::lexicon::name_match::{content_positions, LabelGrade};
use qmatch::lexicon::{NameMatcher, Thesaurus, Token};
use qmatch::xsd::{NodeId, SchemaTree};
use std::collections::HashSet;

/// The lexicons a cold build is checked under: the two token-aligning
/// modes, and the full mode over [`custom_thesaurus`].
fn lexicons() -> [(LexiconMode, Option<Thesaurus>); 3] {
    [
        (LexiconMode::Full, None),
        (LexiconMode::FuzzyOnly, None),
        (LexiconMode::Full, Some(custom_thesaurus())),
    ]
}

fn session(mode: LexiconMode, thesaurus: Option<&Thesaurus>, threads: usize) -> MatchSession {
    let config = MatchConfig::builder()
        .lexicon(mode)
        .build()
        .expect("valid config");
    let mut session = match thesaurus {
        Some(t) => MatchSession::with_matcher(config, NameMatcher::new(t.clone())),
        None => MatchSession::new(config),
    };
    session.set_threads(threads);
    session
}

/// A thesaurus with hypernym chains (one longer than the hypernym walk's
/// hop bound, one cycle, and two shapes where the walk and the ancestor
/// closure each reach a concept the other does not), co-hyponyms, synonyms
/// a chain runs through, and registered abbreviations and acronyms, single-
/// and multi-word.
fn custom_thesaurus() -> Thesaurus {
    let mut t = Thesaurus::new();
    t.add_synonyms(["car", "auto", "automobile"]);
    t.add_hypernym("sedan", "car");
    t.add_hypernym("car", "vehicle");
    t.add_hypernym("truck", "vehicle");
    t.add_hypernym("vehicle", "machine");
    t.add_hypernym("lathe", "machine");
    t.add_hypernym("coupe", "auto");
    t.add_hypernym("loopa", "loopb");
    t.add_hypernym("loopb", "loopa");
    for k in 0..70 {
        t.add_hypernym(&chain(k), &chain(k + 1));
    }
    // More parents than the ancestor closure keeps (65): only the
    // hypernym walk reaches `spoke` and its parent `rim`.
    for k in 0..70 {
        t.add_hypernym("hub", &word("leaf", k));
    }
    t.add_hypernym("hub", "spoke");
    t.add_hypernym("spoke", "rim");
    // A chain of diamonds the walk re-enters until its hop bound runs out
    // before it pops `side`: only the ancestor closure reaches `sidetop`,
    // which `perch` also has.
    t.add_hypernym("climb", "side");
    t.add_hypernym("climb", "heavy");
    t.add_hypernym("side", "sidetop");
    t.add_hypernym("perch", "sidetop");
    t.add_hypernym("heavy", &word("dia", 0));
    t.add_hypernym("heavy", &word("dib", 0));
    for k in 0..8 {
        for top in [word("dia", k), word("dib", k)] {
            t.add_hypernym(&top, &word("dic", k));
        }
        t.add_hypernym(&word("dic", k), &word("dia", k + 1));
        t.add_hypernym(&word("dic", k), &word("dib", k + 1));
    }
    t.add_abbreviation("veh", "vehicle");
    t.add_acronym("vin", ["vehicle", "identification", "number"]);
    t.add_acronym("mfr", ["maker"]);
    t.add_synonyms(["maker", "manufacturer"]);
    t
}

/// The `k`-th word of the long hypernym chain.
fn chain(k: usize) -> String {
    word("link", k)
}

/// `stem` and `k` in two letters: one token.
fn word(stem: &str, k: usize) -> String {
    let letter = |d: usize| char::from(b'a' + d as u8);
    format!("{stem}{}{}", letter(k / 26), letter(k % 26))
}

/// The token sequence of each distinct label of `prepared`, in its
/// distinct order, read from the session interner by symbol.
fn distinct_tokens(s: &MatchSession, prepared: &PreparedSchema) -> Vec<Vec<Token>> {
    s.with_interner(|interner| {
        let symbols = prepared.distinct_symbols().iter();
        symbols.map(|&x| interner.tokens(x).to_vec()).collect()
    })
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
    let (a, b) = thesaurus_labels();
    pairs.push(("thesaurus labels".to_owned(), a, b));
    pairs
}

/// Labels over [`custom_thesaurus`]: hypernyms near and far along the
/// chains, co-hyponyms, synonyms, and abbreviations and acronyms.
fn thesaurus_labels() -> (SchemaTree, SchemaTree) {
    let far = [chain(0), chain(30), chain(64), chain(66), chain(70)];
    let mut source = vec![
        ("Fleet", None),
        ("SedanModel", Some(0)),
        ("TruckBed", Some(0)),
        ("CoupeTrim", Some(0)),
        ("VehType", Some(0)),
        ("VIN", Some(0)),
        ("Mfr", Some(0)),
        ("LoopA", Some(0)),
        ("Lathe", Some(0)),
        ("HubCap", Some(0)),
        ("ClimbRate", Some(0)),
    ];
    source.extend(far[..3].iter().map(|w| (w.as_str(), Some(0))));
    let mut target = vec![
        ("Garage", None),
        ("CarModel", Some(0)),
        ("VehicleBed", Some(0)),
        ("AutomobileTrim", Some(0)),
        ("Vehicle_Type", Some(0)),
        ("VehicleIdentificationNumber", Some(0)),
        ("ManufacturerName", Some(0)),
        ("LoopB", Some(0)),
        ("Machine", Some(0)),
        ("Truck", Some(0)),
        ("RimCap", Some(0)),
        ("PerchRate", Some(0)),
        ("SideTop", Some(0)),
    ];
    target.extend(far[1..].iter().map(|w| (w.as_str(), Some(0))));
    (
        SchemaTree::from_labels("Fleet", &source),
        SchemaTree::from_labels("Garage", &target),
    )
}

/// Labels at the edges of the build: stopword-only labels (which align all
/// their tokens), labels of five and more content tokens (more than 16
/// alignment cells), non-ASCII tokens a char off each other, a fuzzy pair
/// whose first chars differ, tokens over 255 chars (no sketch bound),
/// labels with no tokens and `#`.
fn edge_labels() -> (SchemaTree, SchemaTree) {
    let long = "a".repeat(300);
    let long_near = format!("{}b", "a".repeat(299));
    let long_label = format!("Long{}", "x".repeat(260));
    let source = [
        ("Edges", None),
        ("OfThe", Some(0)),
        ("To_A", Some(0)),
        ("PurchaseOrderShippingAddressLineNumberOfTheItem", Some(0)),
        ("GrößeDerLieferung", Some(0)),
        ("NuméroDeCommande", Some(0)),
        ("DescriptonOfTheQuantiy", Some(0)),
        ("Kwantity", Some(0)),
        ("StrandTurn", Some(0)),
        (long.as_str(), Some(0)),
        (long_label.as_str(), Some(0)),
        ("__", Some(0)),
        ("#", Some(0)),
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
        ("Quantity", Some(0)),
        ("TransitStrn", Some(0)),
        (long_near.as_str(), Some(0)),
        (long.as_str(), Some(0)),
        ("--", Some(0)),
        ("_", Some(0)),
        ("Number", Some(0)),
    ];
    (
        SchemaTree::from_labels("Edges", &source),
        SchemaTree::from_labels("Edge", &target),
    )
}

#[test]
fn cold_label_builds_equal_the_from_scratch_reference_bit_for_bit() {
    for (mode, thesaurus) in lexicons() {
        let thesaurus = thesaurus.as_ref();
        for (name, a, b) in pairs() {
            // The reference: every distinct label pair scored from scratch.
            let reference_session = session(mode, thesaurus, 1);
            let (sp, tp) = (reference_session.prepare(&a), reference_session.prepare(&b));
            let matcher = reference_session.matcher();
            let row_tokens = distinct_tokens(&reference_session, &sp);
            let col_tokens = distinct_tokens(&reference_session, &tp);
            let reference: Vec<_> = row_tokens
                .iter()
                .flat_map(|x| col_tokens.iter().map(move |y| matcher.compare_tokens(x, y)))
                .collect();
            for threads in [1, 4] {
                let s = session(mode, thesaurus, threads);
                let (sp, tp) = (s.prepare(&a), s.prepare(&b));
                let labels = s.label_matrix(&sp, &tp);
                let (rows, cols) = (representatives(&sp), representatives(&tp));
                for (i, &x) in rows.iter().enumerate() {
                    for (j, &y) in cols.iter().enumerate() {
                        let (got, want) = (labels.get(x, y), reference[i * cols.len() + j]);
                        assert!(
                            got.grade == want.grade && got.score.to_bits() == want.score.to_bits(),
                            "{name} {mode:?} threads {threads}: {:?} vs {:?}: {got:?} != {want:?}",
                            row_tokens[i],
                            col_tokens[j],
                        );
                    }
                }
                // The explain path's single-pair lookups agree too.
                let (x, y) = (rows[rows.len() / 2], cols[cols.len() / 2]);
                let fresh = session(mode, thesaurus, threads);
                let (fp, fq) = (fresh.prepare(&a), fresh.prepare(&b));
                assert_eq!(fresh.label_match(&fp, x, &fq, y), labels.get(x, y));
            }
        }
    }
}

#[test]
fn a_cold_build_scores_each_distinct_content_token_pair_once() {
    // PIR × a 15 % revision: 231 × 231 distinct labels, 56,133 distinct
    // content-token pairs. Scoring every one of those and grading every
    // label pair was the work before the joins.
    let pir = synth::pir();
    let revision = drift::mutation_chain(pir, 1, 0.15, 42).remove(0);
    let (scored, graded) = check_cold_counts(pir, &revision, 1);
    assert_eq!((scored, graded), (2062, 2703));
    let cells = 231 * 231;
    assert!(scored * 10 <= cells && graded * 10 <= cells);
    let (a, b) = edge_labels();
    let one = check_cold_counts(&a, &b, 1);
    assert_eq!(
        check_cold_counts(&a, &b, 4),
        one,
        "thread-count independent"
    );
}

/// A cold build of `a × b` misses every distinct label pair, scores each
/// candidate token pair once — at least every content-token pair that
/// scores above 0, at most every one the misses align — and grades every
/// label pair that is not `{None, +0.0}` and no more than the misses; a
/// warm build (and a warm single-pair lookup) hits and does no work.
/// Returns the token pairs scored and the label pairs graded.
fn check_cold_counts(a: &SchemaTree, b: &SchemaTree, threads: usize) -> (u64, u64) {
    let s = session(LexiconMode::Full, None, threads);
    let (sp, tp) = (s.prepare(a), s.prepare(b));
    let matcher = s.matcher();
    // Every distinct label pair misses in a fresh session; the distinct
    // content-token pairs those misses align, by token text, and those
    // that score above 0 (a one-token label's score is its token's).
    let mut aligned = HashSet::new();
    let mut related = 0;
    let (row_tokens, col_tokens) = (distinct_tokens(&s, &sp), distinct_tokens(&s, &tp));
    for x in &row_tokens {
        for y in &col_tokens {
            for p in content_positions(x) {
                for q in content_positions(y) {
                    aligned.insert((x[p].as_str(), y[q].as_str()));
                }
            }
            let m = matcher.compare_tokens(x, y);
            related += u64::from(m.grade != LabelGrade::None || m.score.to_bits() != 0);
        }
    }
    let one = |t: &str| [Token(t.to_owned())];
    let positive = aligned
        .iter()
        .filter(|(x, y)| matcher.compare_tokens(&one(x), &one(y)).score > 0.0)
        .count() as u64;
    let cells = (sp.distinct_labels() * tp.distinct_labels()) as u64;
    let cold = s.label_matrix(&sp, &tp);
    let stats = s.cache_stats();
    assert_eq!((stats.hits, stats.misses), (0, cells));
    assert!(positive > 0);
    assert!((positive..=aligned.len() as u64).contains(&stats.token_scores));
    assert!(related > 0);
    assert!((related..=cells).contains(&stats.graded_pairs));
    // A warm build (and a warm single-pair lookup) does no work.
    let warm = s.label_matrix(&sp, &tp);
    let root = NodeId(0);
    assert_eq!(s.label_match(&sp, root, &tp, root), cold.get(root, root));
    let again = s.cache_stats();
    assert_eq!(again.hits, cells + 1);
    assert_eq!(again.misses, cells);
    assert_eq!(again.token_scores, stats.token_scores);
    assert_eq!(again.graded_pairs, stats.graded_pairs);
    for (id, _) in a.iter() {
        assert_eq!(warm.get(id, root), cold.get(id, root));
    }
    (stats.token_scores, stats.graded_pairs)
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
    let (row_tokens, col_tokens) = (distinct_tokens(s, sp), distinct_tokens(s, tp));
    let (mut hits, mut misses) = (0, 0);
    for (i, &x) in representatives(sp).iter().enumerate() {
        for (j, &y) in representatives(tp).iter().enumerate() {
            let (a, b) = (&row_tokens[i], &col_tokens[j]);
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
        let s = session(LexiconMode::Full, None, threads);
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

/// A flat tree of the `k`-th of `n` equal runs of `labels` through the
/// `m`-th, the first label the root of the others.
fn runs(name: &str, labels: &[String], n: usize, k: usize, m: usize) -> SchemaTree {
    let run = &labels[labels.len() * k / n..labels.len() * (m + 1) / n];
    let nodes: Vec<(&str, Option<usize>)> = run
        .iter()
        .enumerate()
        .map(|(at, label)| (label.as_str(), (at > 0).then_some(0)))
        .collect();
    SchemaTree::from_labels(name, &nodes)
}

#[test]
fn partly_warm_builds_join_some_rows_and_align_the_others_bit_for_bit() {
    // Two warm-up builds leave a third of the source rows missing a quarter
    // of the target's columns (few: aligned), a third missing three
    // quarters (joined, partly cached) and a third missing every column
    // (joined).
    let revision = drift::mutation_chain(synth::pir(), 1, 0.15, 42).remove(0);
    let mut cases = vec![("PIR x rev", synth::pir().clone(), revision)];
    let (a, b) = edge_labels();
    cases.push(("edge labels", a, b));
    let (a, b) = thesaurus_labels();
    cases.push(("thesaurus labels", a, b));
    for (mode, thesaurus) in lexicons() {
        let thesaurus = thesaurus.as_ref();
        for (name, a, b) in &cases {
            for threads in [1, 4] {
                let s = session(mode, thesaurus, threads);
                let (sp, tp) = (s.prepare(a), s.prepare(b));
                let labels = |p: &PreparedSchema| -> Vec<String> {
                    let nodes = representatives(p).into_iter();
                    nodes.map(|id| p.tree().node(id).label.clone()).collect()
                };
                let (rows, cols) = (labels(&sp), labels(&tp));
                for (third, quarters) in [(0, 3), (1, 1)] {
                    let warm_rows = s.prepare(runs("rows", &rows, 3, third, third));
                    let warm_cols = s.prepare(runs("cols", &cols, 4, 0, quarters - 1));
                    s.label_matrix(&warm_rows, &warm_cols);
                }
                let before = s.cache_stats();
                let mut seen = HashSet::new();
                let what = format!("{name} {mode:?} threads {threads}");
                check_build(&s, &sp, &tp, &mut seen, &what);
                let after = s.cache_stats();
                let missed = after.misses - before.misses;
                assert!(missed > 0 && after.graded_pairs - before.graded_pairs <= missed);
            }
        }
    }
}
