//! The paper's motivating scenario end-to-end: match the two purchase-order
//! schemas of Figures 1/2, compare all three algorithms (plus the tree-edit
//! baseline), classify the root match on the qualitative taxonomy, and score
//! everything against the manually determined real matches.
//!
//! ```sh
//! cargo run --example purchase_orders
//! ```

use qmatch::core::report::{f3, Table};
use qmatch::datasets::{corpus, gold};
use qmatch::prelude::*;

fn main() {
    let source = corpus::po1();
    let target = corpus::po2();
    let real = gold::po_gold();
    let config = MatchConfig::default();

    println!(
        "matching {} ({} elements, depth {}) against {} ({} elements, depth {})\n",
        source.name(),
        source.element_count(),
        source.max_depth(),
        target.name(),
        target.element_count(),
        target.max_depth()
    );

    // A session prepares each schema once (interning, tokenization, wave
    // construction) and shares the label cache across every run below.
    let session = MatchSession::new(config);
    let (sp, tp) = (session.prepare(&source), session.prepare(&target));

    // One hybrid run serves both the qualitative classification (paper
    // §2.2) and the quantitative comparison below.
    let run = |algorithm| session.run(&algorithm, &sp, &tp).unwrap();
    let hybrid_outcome = run(Algorithm::Hybrid);
    let category = session.category(&sp, &tp, &hybrid_outcome);
    println!("taxonomy: the root match is classified \"{category}\"\n");

    // Quantitative comparison of all algorithms.
    let runs: [(&str, MatchOutcomeAndMapping); 4] = [
        ("Linguistic", select(run(Algorithm::Linguistic), 0.5)),
        ("Structural", select(run(Algorithm::Structural), 0.95)),
        (
            "Hybrid (QMatch)",
            select(hybrid_outcome, config.weights.acceptance_threshold()),
        ),
        ("TreeEdit [15]", select(run(Algorithm::TreeEdit), 0.5)),
    ];

    let mut table = Table::new([
        "algorithm",
        "total QoM",
        "found",
        "correct",
        "precision",
        "recall",
        "overall",
    ]);
    for (name, (outcome, mapping)) in &runs {
        let quality = evaluate(mapping, &source, &target, &real);
        table.row([
            (*name).to_owned(),
            f3(outcome.total_qom),
            mapping.len().to_string(),
            quality.true_positives.to_string(),
            f3(quality.precision),
            f3(quality.recall),
            f3(quality.overall),
        ]);
    }
    print!("{}", table.render());

    // Show the hybrid's actual correspondences.
    let (_, hybrid_mapping) = &runs[2].1;
    println!("\nQMatch correspondences:");
    print!("{}", hybrid_mapping.display(&source, &target));
    println!("\nmanually determined real matches: {}", real.len());
}

type MatchOutcomeAndMapping = (qmatch::core::MatchOutcome, Mapping);

fn select(outcome: qmatch::core::MatchOutcome, threshold: f64) -> MatchOutcomeAndMapping {
    let mapping = extract_mapping(&outcome.matrix, threshold);
    (outcome, mapping)
}
