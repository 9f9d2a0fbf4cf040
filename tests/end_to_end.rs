//! Cross-crate integration tests: the full pipeline (XSD text → model →
//! schema tree → match → mapping → evaluation) plus pinned experiment
//! shapes, so a regression in any layer that would change the paper's
//! reproduced results fails CI rather than silently skewing EXPERIMENTS.md.

use qmatch::core::algorithms::hybrid_root_category;
use qmatch::core::taxonomy::MatchCategory;
use qmatch::datasets::{corpus, figures, gold, table1_rows};
use qmatch::prelude::*;

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

fn hybrid_quality(
    source: &SchemaTree,
    target: &SchemaTree,
    real: &qmatch::core::GoldStandard,
) -> MatchQuality {
    let config = MatchConfig::default();
    let outcome = run(Algorithm::Hybrid, source, target, &config);
    let mapping = extract_mapping(&outcome.matrix, config.weights.acceptance_threshold());
    evaluate(&mapping, source, target, real)
}

#[test]
fn table1_reconstruction_is_exact() {
    for row in table1_rows() {
        assert!(
            row.matches_paper(),
            "{}: paper ({},{}) vs repro ({},{})",
            row.name,
            row.paper_elements,
            row.paper_depth,
            row.actual_elements,
            row.actual_depth
        );
    }
}

#[test]
fn full_pipeline_from_raw_xsd_text() {
    // Parse from source text, not from the cached corpus accessors.
    let schema = parse_schema(corpus::po1_xsd()).expect("PO1 XSD parses");
    let source = SchemaTree::compile(&schema).expect("PO1 compiles");
    let schema = parse_schema(corpus::po2_xsd()).expect("PO2 XSD parses");
    let target = SchemaTree::compile(&schema).expect("PO2 compiles");

    let config = MatchConfig::default();
    let outcome = run(Algorithm::Hybrid, &source, &target, &config);
    assert!(outcome.total_qom > 0.6 && outcome.total_qom < 1.0);

    let mapping = extract_mapping(&outcome.matrix, config.weights.acceptance_threshold());
    let quality = evaluate(&mapping, &source, &target, &gold::po_gold());
    assert!(
        quality.precision >= 0.85,
        "PO precision: {}",
        quality.precision
    );
    assert!(quality.recall >= 0.7, "PO recall: {}", quality.recall);
}

#[test]
fn figure5_shape_hybrid_wins_every_small_domain() {
    let config = MatchConfig::default();
    let cases = [
        ("PO", corpus::po1(), corpus::po2(), gold::po_gold()),
        ("BOOK", corpus::article(), corpus::book(), gold::book_gold()),
        (
            "DCMD",
            corpus::dcmd_item(),
            corpus::dcmd_ord(),
            gold::dcmd_gold(),
        ),
    ];
    for (name, source, target, real) in cases {
        let hybrid = hybrid_quality(&source, &target, &real).overall;
        let ling = {
            let out = run(Algorithm::Linguistic, &source, &target, &config);
            evaluate(&extract_mapping(&out.matrix, 0.5), &source, &target, &real).overall
        };
        let structural = {
            let out = run(Algorithm::Structural, &source, &target, &config);
            evaluate(&extract_mapping(&out.matrix, 0.95), &source, &target, &real).overall
        };
        assert!(
            hybrid >= ling && hybrid >= structural,
            "{name}: hybrid {hybrid} must beat linguistic {ling} and structural {structural}"
        );
    }
}

#[test]
fn figure6_shape_hybrid_finds_the_most_true_positives() {
    let config = MatchConfig::default();
    let cases = [
        ("PO", corpus::po1(), corpus::po2(), gold::po_gold()),
        ("BOOK", corpus::article(), corpus::book(), gold::book_gold()),
        (
            "DCMD",
            corpus::dcmd_item(),
            corpus::dcmd_ord(),
            gold::dcmd_gold(),
        ),
    ];
    for (name, source, target, real) in cases {
        let hybrid_tp = hybrid_quality(&source, &target, &real).true_positives;
        let ling_tp = {
            let out = run(Algorithm::Linguistic, &source, &target, &config);
            evaluate(&extract_mapping(&out.matrix, 0.5), &source, &target, &real).true_positives
        };
        let structural_tp = {
            let out = run(Algorithm::Structural, &source, &target, &config);
            evaluate(&extract_mapping(&out.matrix, 0.95), &source, &target, &real).true_positives
        };
        assert!(
            hybrid_tp >= ling_tp && hybrid_tp >= structural_tp,
            "{name}: hybrid TP {hybrid_tp} vs linguistic {ling_tp} / structural {structural_tp}"
        );
    }
}

#[test]
fn figure9_shape_hybrid_gravitates_to_the_higher_component() {
    let config = MatchConfig::default();
    let library = figures::library_fig7();
    let human = figures::human_fig8();
    let ling = run(Algorithm::Linguistic, &library, &human, &config).total_qom;
    let structural = run(Algorithm::Structural, &library, &human, &config).total_qom;
    let hybrid = run(Algorithm::Hybrid, &library, &human, &config).total_qom;
    assert!(ling < 0.4, "linguistic must be low: {ling}");
    assert!(structural > 0.9, "structural must be high: {structural}");
    assert!(
        hybrid > ling && hybrid < structural,
        "hybrid {hybrid} between {ling} and {structural}"
    );
    assert!(
        hybrid >= (ling + structural) / 2.0 - 0.05,
        "hybrid {hybrid} gravitates toward the higher value"
    );
}

#[test]
fn worked_example_po_root_is_a_relaxed_match() {
    // §2.2 classifies the Figures 1/2 root match as total relaxed; our PO2
    // test schema adds an Item wrapper that PO1's Lines cannot cover, so the
    // faithful classification here is a *relaxed* (total or partial) match —
    // never exact, never none.
    let category = hybrid_root_category(&corpus::po1(), &corpus::po2(), &MatchConfig::default());
    assert!(
        matches!(
            category,
            MatchCategory::TotalRelaxed | MatchCategory::PartialRelaxed
        ),
        "got {category}"
    );
    // The figure-2 schema matches the figure-1 schema totally (every child
    // of PO finds a counterpart).
    let category = hybrid_root_category(
        &figures::po_fig1(),
        &figures::purchase_order_fig2(),
        &MatchConfig::default(),
    );
    assert!(
        matches!(category, MatchCategory::TotalRelaxed),
        "Figures 1/2 are the paper's total-relaxed example, got {category}"
    );
}

#[test]
fn self_match_is_perfect_for_every_corpus_schema() {
    let config = MatchConfig::default();
    for tree in [
        corpus::po1(),
        corpus::po2(),
        corpus::article(),
        corpus::book(),
        corpus::dcmd_item(),
        corpus::dcmd_ord(),
    ] {
        let outcome = run(Algorithm::Hybrid, &tree, &tree, &config);
        assert!(
            (outcome.total_qom - 1.0).abs() < 1e-9,
            "{} self-match: {}",
            tree.name(),
            outcome.total_qom
        );
        let mapping = extract_mapping(&outcome.matrix, config.weights.acceptance_threshold());
        // Every node must map to itself.
        for c in &mapping.pairs {
            if c.score >= 0.999 {
                assert_eq!(c.source, c.target, "{}: {:?}", tree.name(), c);
            }
        }
    }
}

#[test]
fn corpus_schemas_round_trip_through_the_writer() {
    for src in [
        corpus::po1_xsd(),
        corpus::po2_xsd(),
        corpus::article_xsd(),
        corpus::book_xsd(),
        corpus::dcmd_item_xsd(),
        corpus::dcmd_ord_xsd(),
    ] {
        let original = parse_schema(src).unwrap();
        let rendered = qmatch::xsd::write_schema(&original);
        let reparsed = parse_schema(&rendered).expect("rendered corpus schema parses");
        assert_eq!(original, reparsed);
        // And the schema tree (what the matchers see) is identical too.
        assert_eq!(
            SchemaTree::compile(&original).unwrap(),
            SchemaTree::compile(&reparsed).unwrap()
        );
    }
}

#[test]
fn tree_edit_baseline_agrees_on_identity_and_difference() {
    let config = MatchConfig::default();
    let same = run(Algorithm::TreeEdit, &corpus::po1(), &corpus::po1(), &config).total_qom;
    assert!((same - 1.0).abs() < 1e-12);
    let diff = run(
        Algorithm::TreeEdit,
        &corpus::po1(),
        &corpus::book(),
        &config,
    )
    .total_qom;
    assert!(diff < same);
}

#[test]
fn all_algorithms_emit_normalized_matrices_on_all_small_pairs() {
    let config = MatchConfig::default();
    let pairs = [
        (corpus::po1(), corpus::po2()),
        (corpus::article(), corpus::book()),
        (corpus::dcmd_item(), corpus::dcmd_ord()),
        (figures::library_fig7(), figures::human_fig8()),
    ];
    for (source, target) in &pairs {
        for outcome in [
            run(Algorithm::Linguistic, source, target, &config),
            run(Algorithm::Structural, source, target, &config),
            run(Algorithm::Hybrid, source, target, &config),
            run(Algorithm::TreeEdit, source, target, &config),
        ] {
            outcome.matrix.assert_normalized();
            assert_eq!(outcome.matrix.rows(), source.len());
            assert_eq!(outcome.matrix.cols(), target.len());
        }
    }
}

#[test]
fn weights_ablation_label_only_vs_children_only() {
    // Sanity of the weight model end to end: a label-only configuration
    // reduces the hybrid to (leafwise) linguistic behaviour, a children-only
    // configuration to structural-coverage behaviour.
    let library = figures::library_fig7();
    let human = figures::human_fig8();
    let label_only = MatchConfig::with_weights(Weights::new(1.0, 0.0, 0.0, 0.0).unwrap());
    let children_only = MatchConfig::with_weights(Weights::new(0.0, 0.0, 0.0, 1.0).unwrap());
    let low = run(Algorithm::Hybrid, &library, &human, &label_only).total_qom;
    let high = run(Algorithm::Hybrid, &library, &human, &children_only).total_qom;
    assert!(low < 0.35, "{low}");
    assert!(high > 0.6, "{high}");
}
