//! The first-class quality-evaluation API: one place that turns an
//! [`Algorithm`] run into precision / recall / F1 / overall against a gold
//! mapping, with the typed gold-file parsing and the unified report schema
//! every evaluation surface (the `qmatch evaluate` CLI, `evaluate --all`,
//! `bench_quality`) renders.
//!
//! The module exists so that accuracy is measured the same way everywhere:
//! each algorithm's mapping is extracted by *its own* convention (CUPID is
//! leaf-anchored via [`mapping_generation_leaves`], everything else is the
//! greedy 1:1 extraction at the algorithm's default acceptance threshold),
//! and every consumer shares [`default_threshold`] instead of hard-coding
//! its own copy.

use crate::algorithms::{mapping_generation_leaves, Algorithm, CompositeError};
use crate::eval::{evaluate, GoldStandard, MatchQuality};
use crate::mapping::{extract_mapping, Mapping};
use crate::model::MatchConfig;
use crate::report::Table;
use crate::session::{MatchSession, PreparedSchema};
use std::fmt;

/// A gold-file parse error, carrying the file name and 1-based line so the
/// message renders as `file:line: what went wrong`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoldParseError {
    /// The file (or other source descriptor) being parsed.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for GoldParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.file, self.line, self.message)
    }
}

impl std::error::Error for GoldParseError {}

/// Parses gold-standard text: one real match per line as
/// `source/path<TAB>target/path`, `#` comments, blank lines skipped.
/// Duplicate pairs are rejected (they would silently inflate nothing —
/// [`GoldStandard`] is a set — but they always indicate a curation mistake,
/// so the parser reports them with the line of the second occurrence).
pub fn parse_gold(file: &str, text: &str) -> Result<GoldStandard, GoldParseError> {
    let err = |line: usize, message: String| GoldParseError {
        file: file.to_owned(),
        line,
        message,
    };
    let mut gold = GoldStandard::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let content = match raw.find('#') {
            Some(pos) => &raw[..pos],
            None => raw,
        };
        if content.trim().is_empty() {
            continue;
        }
        // Split before trimming so that an empty field ("path<TAB>") is
        // reported as such rather than silently merged into its neighbour.
        let Some((source, target)) = content.split_once('\t') else {
            return Err(err(
                line,
                format!("expected 'source<TAB>target', got {:?}", content.trim()),
            ));
        };
        let (source, target) = (source.trim(), target.trim());
        if source.is_empty() || target.is_empty() {
            return Err(err(line, "empty path".to_owned()));
        }
        if gold.contains(source, target) {
            return Err(err(
                line,
                format!("duplicate gold pair {source:?} -> {target:?}"),
            ));
        }
        gold.add(source, target);
    }
    Ok(gold)
}

/// The default mapping-acceptance threshold of an algorithm — the single
/// source of truth the CLI, the serve handlers, and the quality harness all
/// share. Hybrid (and the COMA-style composite, which aggregates scores on
/// the same scale) cuts at the weight-derived acceptance threshold (0.78
/// for the paper's weights), CUPID at its `th_accept`, the baselines at
/// the values the experiments pin.
pub fn default_threshold(algorithm: &Algorithm, config: &MatchConfig) -> f64 {
    match algorithm {
        Algorithm::Hybrid | Algorithm::Composite { .. } => config.weights.acceptance_threshold(),
        Algorithm::Linguistic => 0.5,
        Algorithm::Structural => 0.95,
        Algorithm::Cupid => config.cupid.th_accept,
        Algorithm::TreeEdit => 0.5,
    }
}

/// Extracts the mapping an algorithm's outcome proposes, by that
/// algorithm's own convention: leaf-anchored generation for CUPID, greedy
/// 1:1 extraction at [`default_threshold`] for everything else.
pub fn extract_for(
    algorithm: &Algorithm,
    session: &MatchSession,
    source: &PreparedSchema,
    target: &PreparedSchema,
    matrix: &crate::matrix::SimMatrix,
) -> Mapping {
    let threshold = default_threshold(algorithm, session.config());
    match algorithm {
        Algorithm::Cupid => mapping_generation_leaves(source, target, matrix, threshold),
        _ => extract_mapping(matrix, threshold),
    }
}

/// One evaluated (pair, algorithm) cell of a quality report.
#[derive(Debug, Clone)]
pub struct QualityRow {
    /// The schema pair's display name (e.g. `po1-po2`).
    pub pair: String,
    /// The algorithm's stable name ([`Algorithm::name`]).
    pub algorithm: String,
    /// The extraction threshold the mapping used.
    pub threshold: f64,
    /// Precision / recall / overall plus the raw counts.
    pub quality: MatchQuality,
}

/// Runs an algorithm over a prepared pair and scores its mapping against
/// the gold standard — the one evaluation path every surface calls.
pub fn evaluate_algorithm(
    session: &MatchSession,
    algorithm: &Algorithm,
    pair: &str,
    source: &PreparedSchema,
    target: &PreparedSchema,
    gold: &GoldStandard,
) -> Result<QualityRow, CompositeError> {
    let outcome = session.run(algorithm, source, target)?;
    let mapping = extract_for(algorithm, session, source, target, &outcome.matrix);
    let quality = evaluate(&mapping, source.tree(), target.tree(), gold);
    let threshold = default_threshold(algorithm, session.config());
    session.recycle(outcome);
    Ok(QualityRow {
        pair: pair.to_owned(),
        algorithm: algorithm.name().to_owned(),
        threshold,
        quality,
    })
}

/// A deterministic multi-row quality report with the unified column schema
/// (`pair`, `algorithm`, `|R|`, `|P|`, `|I|`, precision, recall, F1,
/// overall) shared by single-pair `evaluate`, `evaluate --all`, and
/// `bench_quality`.
#[derive(Debug, Clone, Default)]
pub struct QualityReport {
    /// The evaluated rows, in insertion order.
    pub rows: Vec<QualityRow>,
}

impl QualityReport {
    /// An empty report.
    pub fn new() -> QualityReport {
        QualityReport::default()
    }

    /// Appends one evaluated row.
    pub fn push(&mut self, row: QualityRow) {
        self.rows.push(row);
    }

    /// Renders the unified table. Scores print with three decimals — enough
    /// to compare, short enough to stay byte-stable across platforms (the
    /// underlying arithmetic is deterministic).
    pub fn render(&self) -> String {
        let mut table = Table::new([
            "pair",
            "algorithm",
            "|R|",
            "|P|",
            "|I|",
            "precision",
            "recall",
            "f1",
            "overall",
        ]);
        for row in &self.rows {
            let q = &row.quality;
            table.row([
                row.pair.clone(),
                row.algorithm.clone(),
                q.real().to_string(),
                q.predicted().to_string(),
                q.true_positives.to_string(),
                format!("{:.3}", q.precision),
                format!("{:.3}", q.recall),
                format!("{:.3}", q.f1()),
                format!("{:.3}", q.overall),
            ]);
        }
        table.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmatch_xsd::SchemaTree;

    fn po_pair() -> (SchemaTree, SchemaTree) {
        let s = SchemaTree::from_labels(
            "PO",
            &[("PO", None), ("OrderNo", Some(0)), ("Quantity", Some(0))],
        );
        let t = SchemaTree::from_labels(
            "Order",
            &[("Order", None), ("OrderNo", Some(0)), ("Qty", Some(0))],
        );
        (s, t)
    }

    #[test]
    fn parse_gold_accepts_the_file_format() {
        let gold = parse_gold("g.tsv", "# header\nA/x\tB/y\n\nC/z\tD/w # ok\n").unwrap();
        assert_eq!(gold.len(), 2);
        assert!(gold.contains("A/x", "B/y"));
    }

    #[test]
    fn parse_gold_rejects_duplicates_with_file_and_line() {
        let err = parse_gold("g.tsv", "A/x\tB/y\nC/z\tD/w\nA/x\tB/y\n").unwrap_err();
        assert_eq!(err.line, 3);
        assert_eq!(err.file, "g.tsv");
        let msg = err.to_string();
        assert!(msg.starts_with("g.tsv:3:"), "{msg}");
        assert!(msg.contains("duplicate"), "{msg}");
    }

    #[test]
    fn parse_gold_reports_malformed_lines() {
        let err = parse_gold("bad.tsv", "no tab here\n").unwrap_err();
        assert_eq!((err.file.as_str(), err.line), ("bad.tsv", 1));
        let err = parse_gold("bad.tsv", "A/x\t   \n").unwrap_err();
        assert!(err.message.contains("empty path"));
    }

    #[test]
    fn default_thresholds_are_algorithm_specific() {
        let config = MatchConfig::default();
        let hybrid = default_threshold(&Algorithm::Hybrid, &config);
        assert!((hybrid - 0.78).abs() < 1e-9, "{hybrid}");
        assert_eq!(default_threshold(&Algorithm::Cupid, &config), 0.7);
        assert_eq!(default_threshold(&Algorithm::Linguistic, &config), 0.5);
        assert_eq!(default_threshold(&Algorithm::Structural, &config), 0.95);
        assert_eq!(default_threshold(&Algorithm::TreeEdit, &config), 0.5);
    }

    #[test]
    fn evaluate_algorithm_scores_a_perfect_self_match() {
        let (s, _) = po_pair();
        let session = MatchSession::new(MatchConfig::default());
        let (sp, tp) = (session.prepare(&s), session.prepare(&s));
        let gold = GoldStandard::from_pairs([
            ("PO", "PO"),
            ("PO/OrderNo", "PO/OrderNo"),
            ("PO/Quantity", "PO/Quantity"),
        ]);
        let row =
            evaluate_algorithm(&session, &Algorithm::Hybrid, "self", &sp, &tp, &gold).unwrap();
        assert_eq!(row.quality.recall, 1.0);
        assert_eq!(row.quality.precision, 1.0);
        assert_eq!(row.algorithm, "hybrid");
    }

    #[test]
    fn cupid_rows_are_leaf_anchored() {
        let (s, _) = po_pair();
        let session = MatchSession::new(MatchConfig::default());
        let (sp, tp) = (session.prepare(&s), session.prepare(&s));
        let out = session.run(&Algorithm::Cupid, &sp, &tp).unwrap();
        let mapping = extract_for(&Algorithm::Cupid, &session, &sp, &tp, &out.matrix);
        assert!(!mapping.is_empty());
        for c in &mapping.pairs {
            assert!(sp.is_leaf(c.source));
        }
    }

    #[test]
    fn report_renders_the_unified_schema() {
        let mut report = QualityReport::new();
        report.push(QualityRow {
            pair: "po1-po2".into(),
            algorithm: "hybrid".into(),
            threshold: 0.78,
            quality: crate::eval::from_counts(8, 1, 1),
        });
        let text = report.render();
        for col in ["pair", "algorithm", "|R|", "|P|", "|I|", "f1", "overall"] {
            assert!(text.contains(col), "missing column {col}:\n{text}");
        }
        assert!(text.contains("po1-po2"));
        assert!(text.contains("0.889"), "precision 8/9:\n{text}");
    }
}
