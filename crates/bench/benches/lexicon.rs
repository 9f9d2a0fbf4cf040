//! Microbenchmarks for the linguistic substrate: tokenization, string
//! metrics, full label comparison (the inner loop of the linguistic and
//! hybrid matchers — Figure 4's dominant cost at protein scale), and a
//! session's cold label build over the per-build token table.
//!
//! `cargo bench -p qmatch-bench --bench lexicon`

use qmatch_bench::harness::Harness;
use qmatch_core::model::MatchConfig;
use qmatch_core::session::MatchSession;
use qmatch_datasets::{drift, synth};
use qmatch_lexicon::metrics::{bigram_dice, jaro_winkler, levenshtein};
use qmatch_lexicon::{tokenize, NameMatcher};
use std::hint::black_box;
use std::sync::Arc;

const LABEL_PAIRS: &[(&str, &str)] = &[
    ("OrderNo", "OrderNo"),
    ("Quantity", "Qty"),
    ("UnitOfMeasure", "UOM"),
    ("PurchaseOrderNumber", "PONumber"),
    ("BillingAddress", "BillTo"),
    ("classification151", "clss151"),
    ("Library", "human"),
];

fn main() {
    let h = Harness::from_env();

    h.bench("lexicon/metrics/levenshtein", || {
        for (x, y) in LABEL_PAIRS {
            black_box(levenshtein(black_box(x), black_box(y)));
        }
    });
    h.bench("lexicon/metrics/jaro_winkler", || {
        for (x, y) in LABEL_PAIRS {
            black_box(jaro_winkler(black_box(x), black_box(y)));
        }
    });
    h.bench("lexicon/metrics/bigram_dice", || {
        for (x, y) in LABEL_PAIRS {
            black_box(bigram_dice(black_box(x), black_box(y)));
        }
    });

    h.bench("lexicon/tokenize", || {
        for (x, y) in LABEL_PAIRS {
            black_box(tokenize(black_box(x)));
            black_box(tokenize(black_box(y)));
        }
    });

    let matcher = NameMatcher::with_default_thesaurus();
    h.bench("lexicon/compare", || {
        for (x, y) in LABEL_PAIRS {
            black_box(matcher.compare(black_box(x), black_box(y)));
        }
    });
    let tokenized: Vec<_> = LABEL_PAIRS
        .iter()
        .map(|(x, y)| (tokenize(x), tokenize(y)))
        .collect();
    h.bench("lexicon/compare_tokens(pretokenized)", || {
        for (tx, ty) in &tokenized {
            black_box(matcher.compare_tokens(black_box(tx), black_box(ty)));
        }
    });
    h.bench("lexicon/thesaurus_build", || {
        black_box(NameMatcher::with_default_thesaurus())
    });

    // Every distinct label pair of PIR × a 15 % revision misses in a fresh
    // session, so each iteration is one whole cold label build (plus the
    // session's construction and the two prepares it needs).
    let pir = Arc::new(synth::pir().clone());
    let revision = Arc::new(drift::mutation_chain(&pir, 1, 0.15, 42).remove(0));
    h.bench("lexicon/cold_label_build", || {
        let mut session = MatchSession::new(MatchConfig::default());
        session.set_threads(1);
        let (source, target) = (
            session.prepare(pir.clone()),
            session.prepare(revision.clone()),
        );
        black_box(session.label_matrix(&source, &target))
    });
}
