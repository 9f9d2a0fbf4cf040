#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Shared experiment harness for the paper's tables and figures.
//!
//! Each binary in `src/bin/` regenerates one published artifact:
//!
//! | binary                | artifact  |
//! |-----------------------|-----------|
//! | `table1`              | Table 1 — test-schema characteristics |
//! | `table2`              | Table 2 — weight determination sweep |
//! | `fig4`                | Figure 4 — runtime vs total elements |
//! | `fig5`                | Figure 5 — Overall quality per domain |
//! | `fig6`                | Figure 6 — manual vs found matches |
//! | `fig9`                | Figure 9 — structurally identical / linguistically different |
//! | `ablation_threshold`  | child-match threshold sweep (design ablation) |
//! | `ablation_linguistic` | lexicon-component ablation |

pub mod harness;
pub mod synth_tree;

use qmatch_core::algorithms::{Algorithm as CoreAlgorithm, MatchOutcome};
use qmatch_core::eval::GoldStandard;
use qmatch_core::model::MatchConfig;
use qmatch_core::session::MatchSession;
use qmatch_datasets::{corpus, figures, gold, synth};
use qmatch_xsd::SchemaTree;

/// The three algorithms the paper evaluates, plus the related-work
/// tree-edit baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// CUPID-style label matcher.
    Linguistic,
    /// Label-free structure matcher.
    Structural,
    /// QMatch (Figure 3).
    Hybrid,
    /// Nierman–Jagadish-style tree edit distance (the paper's related work \[15\]).
    TreeEdit,
}

impl Algorithm {
    /// The three algorithms of the paper's evaluation, in figure order.
    pub const PAPER: [Algorithm; 3] = [
        Algorithm::Linguistic,
        Algorithm::Structural,
        Algorithm::Hybrid,
    ];

    /// Display name used in the figures.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Linguistic => "Linguistic",
            Algorithm::Structural => "Structural",
            Algorithm::Hybrid => "Hybrid",
            Algorithm::TreeEdit => "TreeEdit",
        }
    }

    /// The corresponding [`qmatch_core::algorithms::Algorithm`] selector.
    pub fn core(self) -> CoreAlgorithm {
        match self {
            Algorithm::Linguistic => CoreAlgorithm::Linguistic,
            Algorithm::Structural => CoreAlgorithm::Structural,
            Algorithm::Hybrid => CoreAlgorithm::Hybrid,
            Algorithm::TreeEdit => CoreAlgorithm::TreeEdit,
        }
    }

    /// Runs the algorithm.
    pub fn run(
        self,
        source: &SchemaTree,
        target: &SchemaTree,
        config: &MatchConfig,
    ) -> MatchOutcome {
        let session = MatchSession::new(*config);
        let (sp, tp) = (session.prepare(source), session.prepare(target));
        session
            .run(&self.core(), &sp, &tp)
            .expect("non-composite algorithms are infallible")
    }

    /// The mapping-extraction (acceptance) threshold for this algorithm's
    /// score distribution — delegates to
    /// [`qmatch_core::quality::default_threshold`], the single source of
    /// truth the CLI and serve handlers also use. The scales differ by
    /// construction: linguistic scores are label similarities where 0.5
    /// already means a relaxed match, while the hybrid's leaf equation
    /// (Eq. 2) gives *any* leaf pair the constant `C = WH + WC = 0.5` head
    /// start, and the structural matcher concentrates compatible leaves
    /// near 1.0.
    pub fn extraction_threshold(self, config: &MatchConfig) -> f64 {
        qmatch_core::quality::default_threshold(&self.core(), config)
    }

    /// Runs the algorithm and extracts its mapping at
    /// [`Algorithm::extraction_threshold`].
    pub fn run_and_extract(
        self,
        source: &SchemaTree,
        target: &SchemaTree,
        config: &MatchConfig,
    ) -> (MatchOutcome, qmatch_core::mapping::Mapping) {
        let outcome = self.run(source, target, config);
        let mapping = qmatch_core::mapping::extract_mapping(
            &outcome.matrix,
            self.extraction_threshold(config),
        );
        (outcome, mapping)
    }
}

/// Batch-runs the hybrid matcher over a corpus of evaluated pairs via a
/// [`MatchSession`] — one shared thesaurus and label cache, each schema
/// prepared once, parallel over the pairs — and extracts each mapping at
/// the hybrid acceptance threshold. Outcomes come back in corpus order and
/// are identical to per-pair [`Algorithm::run_and_extract`] calls.
pub fn hybrid_batch(
    pairs: &[Pair],
    config: &MatchConfig,
) -> Vec<(MatchOutcome, qmatch_core::mapping::Mapping)> {
    let session = MatchSession::new(*config);
    let prepared: Vec<_> = pairs
        .iter()
        .map(|p| (session.prepare(&p.source), session.prepare(&p.target)))
        .collect();
    let refs: Vec<_> = prepared.iter().map(|(s, t)| (s, t)).collect();
    let threshold = Algorithm::Hybrid.extraction_threshold(config);
    session
        .match_corpus(&refs)
        .into_iter()
        .map(|outcome| {
            let mapping = qmatch_core::mapping::extract_mapping(&outcome.matrix, threshold);
            (outcome, mapping)
        })
        .collect()
}

/// One evaluated schema pair with its gold standard.
pub struct Pair {
    /// Domain name as the figures label it.
    pub name: &'static str,
    /// Source schema.
    pub source: SchemaTree,
    /// Target schema.
    pub target: SchemaTree,
    /// Real matches.
    pub gold: GoldStandard,
}

impl Pair {
    /// Total elements across both schemas (Figure 4's x axis).
    pub fn total_elements(&self) -> usize {
        self.source.element_count() + self.target.element_count()
    }
}

/// PO1 vs PO2.
pub fn po_pair() -> Pair {
    Pair {
        name: "PO",
        source: corpus::po1(),
        target: corpus::po2(),
        gold: gold::po_gold(),
    }
}

/// Article vs Book.
pub fn book_pair() -> Pair {
    Pair {
        name: "BOOK",
        source: corpus::article(),
        target: corpus::book(),
        gold: gold::book_gold(),
    }
}

/// DCMDItem vs DCMDOrd (the XBench pair).
pub fn dcmd_pair() -> Pair {
    Pair {
        name: "DCMD",
        source: corpus::dcmd_item(),
        target: corpus::dcmd_ord(),
        gold: gold::dcmd_gold(),
    }
}

/// PIR vs PDB (the synthetic protein pair).
pub fn protein_pair() -> Pair {
    Pair {
        name: "Protein",
        source: synth::pir().clone(),
        target: synth::pdb().clone(),
        gold: synth::protein_gold().clone(),
    }
}

/// Library vs human (Figures 7/8, evaluated in Figure 9).
pub fn library_human_pair() -> Pair {
    Pair {
        name: "Library/Human",
        source: figures::library_fig7(),
        target: figures::human_fig8(),
        gold: gold::library_human_gold(),
    }
}

/// The four domain pairs of Figures 5, in paper order.
pub fn figure5_pairs() -> Vec<Pair> {
    vec![po_pair(), book_pair(), dcmd_pair(), protein_pair()]
}

/// The three pairs of Figure 6 (the protein pair is omitted there — the
/// paper could not manually match thousands of elements; we *can*, but the
/// figure is reproduced as published).
pub fn figure6_pairs() -> Vec<Pair> {
    vec![po_pair(), book_pair(), dcmd_pair()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hybrid_batch_matches_per_pair_runs() {
        let config = MatchConfig::default();
        let pairs = vec![po_pair(), book_pair()];
        let batch = hybrid_batch(&pairs, &config);
        assert_eq!(batch.len(), pairs.len());
        for (pair, (outcome, mapping)) in pairs.iter().zip(&batch) {
            let (single, single_mapping) =
                Algorithm::Hybrid.run_and_extract(&pair.source, &pair.target, &config);
            assert_eq!(outcome.matrix, single.matrix, "{}", pair.name);
            assert_eq!(mapping.pairs, single_mapping.pairs, "{}", pair.name);
        }
    }

    #[test]
    fn figure4_x_axis_totals() {
        assert_eq!(po_pair().total_elements(), 19);
        assert_eq!(book_pair().total_elements(), 24);
        assert_eq!(dcmd_pair().total_elements(), 91);
        assert_eq!(protein_pair().total_elements(), 3984);
    }

    #[test]
    fn all_algorithms_run_on_the_po_pair() {
        let pair = po_pair();
        let config = MatchConfig::default();
        for algo in [
            Algorithm::Linguistic,
            Algorithm::Structural,
            Algorithm::Hybrid,
            Algorithm::TreeEdit,
        ] {
            let out = algo.run(&pair.source, &pair.target, &config);
            assert!(
                out.total_qom >= 0.0 && out.total_qom <= 1.0,
                "{}: {}",
                algo.name(),
                out.total_qom
            );
            assert_eq!(out.matrix.rows(), pair.source.len());
        }
    }

    #[test]
    fn figure5_has_four_domains_figure6_three() {
        let f5: Vec<_> = figure5_pairs().iter().map(|p| p.name).collect();
        assert_eq!(f5, ["PO", "BOOK", "DCMD", "Protein"]);
        let f6: Vec<_> = figure6_pairs().iter().map(|p| p.name).collect();
        assert_eq!(f6, ["PO", "BOOK", "DCMD"]);
    }

    #[test]
    fn algorithm_names_are_figure_labels() {
        let names: Vec<_> = Algorithm::PAPER.iter().map(|a| a.name()).collect();
        assert_eq!(names, ["Linguistic", "Structural", "Hybrid"]);
    }
}
