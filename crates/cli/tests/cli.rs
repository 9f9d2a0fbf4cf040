//! Integration tests for the `qmatch` binary: real process invocations over
//! corpus schemas written to a temp directory.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

fn binary() -> &'static str {
    env!("CARGO_BIN_EXE_qmatch")
}

/// A test's own temp directory, removed when the test ends.
struct TempDir(PathBuf);

impl std::ops::Deref for TempDir {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Writes the corpus PO schemas and a gold file to a fresh temp dir — one
/// per call, so tests running in parallel never rewrite a file another
/// test is reading.
fn setup() -> TempDir {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "qmatch-cli-test-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("po1.xsd"), qmatch_datasets::corpus::po1_xsd()).unwrap();
    std::fs::write(dir.join("po2.xsd"), qmatch_datasets::corpus::po2_xsd()).unwrap();
    let mut gold = String::new();
    gold.push_str("# PO gold standard\n");
    for (s, t) in qmatch_datasets::gold::po_gold().iter() {
        gold.push_str(&format!("{s}\t{t}\n"));
    }
    std::fs::write(dir.join("po.gold.tsv"), gold).unwrap();
    TempDir(dir)
}

fn run(args: &[&str]) -> Output {
    Command::new(binary())
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

/// The cell under `column` in the unified quality report row whose
/// `algorithm` column matches (robust against column-width changes).
fn report_cell(text: &str, algorithm: &str, column: &str) -> String {
    let header = text
        .lines()
        .find(|l| l.starts_with("pair"))
        .unwrap_or_else(|| panic!("no report header in {text}"));
    let index = header
        .split_whitespace()
        .position(|c| c == column)
        .unwrap_or_else(|| panic!("no column {column:?} in {header:?}"));
    let row = text
        .lines()
        .find(|l| l.split_whitespace().nth(1) == Some(algorithm))
        .unwrap_or_else(|| panic!("no row for algorithm {algorithm:?} in {text}"));
    row.split_whitespace()
        .nth(index)
        .unwrap_or_else(|| panic!("row {row:?} has no column {index}"))
        .to_owned()
}

#[test]
fn help_prints_usage_and_succeeds() {
    let out = run(&["help"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("USAGE"));
    assert!(stdout(&out).contains("--weights"));
}

#[test]
fn match_command_end_to_end() {
    let dir = setup();
    let po1 = dir.join("po1.xsd");
    let po2 = dir.join("po2.xsd");
    let out = run(&["match", po1.to_str().unwrap(), po2.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("total QoM"), "{text}");
    assert!(
        text.contains("PO/OrderNo -> PurchaseOrder/OrderNo"),
        "{text}"
    );
}

#[test]
fn match_total_only_prints_a_single_number() {
    let dir = setup();
    let out = run(&[
        "match",
        dir.join("po1.xsd").to_str().unwrap(),
        dir.join("po2.xsd").to_str().unwrap(),
        "--total-only",
    ]);
    assert!(out.status.success());
    let text = stdout(&out);
    let trimmed = text.trim();
    assert!(
        trimmed.parse::<f64>().is_ok(),
        "expected one number, got {trimmed:?}"
    );
}

#[test]
fn match_with_custom_weights_and_algorithm() {
    let dir = setup();
    let po1 = dir.join("po1.xsd");
    let po2 = dir.join("po2.xsd");
    for algo in ["linguistic", "structural", "tree-edit", "hybrid"] {
        let out = run(&[
            "match",
            po1.to_str().unwrap(),
            po2.to_str().unwrap(),
            "--algorithm",
            algo,
            "--weights",
            "0.4,0.1,0.1,0.4",
            "--total-only",
        ]);
        assert!(out.status.success(), "{algo}: {}", stderr(&out));
    }
}

#[test]
fn emit_gold_round_trips_through_evaluate() {
    let dir = setup();
    let po1 = dir.join("po1.xsd");
    let po2 = dir.join("po2.xsd");
    let out = run(&[
        "match",
        po1.to_str().unwrap(),
        po2.to_str().unwrap(),
        "--emit-gold",
    ]);
    assert!(out.status.success());
    let emitted = stdout(&out);
    assert!(emitted.contains('\t'), "{emitted}");
    let emitted_path = dir.join("emitted.tsv");
    std::fs::write(&emitted_path, &emitted).unwrap();
    // Evaluating against the matcher's own output scores perfectly.
    let out = run(&[
        "evaluate",
        po1.to_str().unwrap(),
        po2.to_str().unwrap(),
        "--gold",
        emitted_path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert_eq!(report_cell(&text, "hybrid", "precision"), "1.000", "{text}");
    assert_eq!(report_cell(&text, "hybrid", "recall"), "1.000", "{text}");
}

#[test]
fn evaluate_against_real_gold() {
    let dir = setup();
    let out = run(&[
        "evaluate",
        dir.join("po1.xsd").to_str().unwrap(),
        dir.join("po2.xsd").to_str().unwrap(),
        "--gold",
        dir.join("po.gold.tsv").to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert_eq!(report_cell(&text, "hybrid", "|R|"), "9", "{text}");
    assert!(text.contains("precision"), "{text}");
    assert!(text.contains("overall"), "{text}");
}

#[test]
fn inspect_prints_the_tree() {
    let dir = setup();
    let out = run(&["inspect", dir.join("po1.xsd").to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("PO: 10 nodes (10 elements, 0 attributes), 7 leaves"),
        "{text}"
    );
    assert!(text.contains("depth 3"), "{text}");
    assert!(text.contains("fan-out"), "{text}");
    assert!(text.contains("UnitOfMeasure"), "{text}");
    assert!(text.contains("positiveInteger"), "{text}");
}

#[test]
fn missing_file_fails_with_message() {
    let out = run(&["inspect", "/no/such/file.xsd"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("cannot read"));
}

#[test]
fn bad_arguments_exit_2_with_usage() {
    let out = run(&["match", "only-one.xsd"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("USAGE"));
}

#[test]
fn invalid_schema_fails_cleanly() {
    let dir = setup();
    let bad = dir.join("bad.xsd");
    std::fs::write(&bad, "<not-a-schema/>").unwrap();
    let out = run(&["inspect", bad.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("xs:schema"), "{}", stderr(&out));
}

#[test]
fn validate_command_accepts_and_rejects() {
    let dir = setup();
    let instance_ok = dir.join("ok.xml");
    std::fs::write(
        &instance_ok,
        r#"<PO><OrderNo>7</OrderNo>
            <PurchaseInfo>
              <BillingAddr>1 Main St</BillingAddr>
              <ShippingAddr>2 Side St</ShippingAddr>
              <Lines><Item>bolt</Item><Quantity>3</Quantity><UnitOfMeasure>box</UnitOfMeasure></Lines>
            </PurchaseInfo>
            <PurchaseDate>2005-04-05</PurchaseDate></PO>"#,
    )
    .unwrap();
    let out = run(&[
        "validate",
        dir.join("po1.xsd").to_str().unwrap(),
        instance_ok.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{} {}", stdout(&out), stderr(&out));
    assert!(stdout(&out).contains("is valid"));

    let instance_bad = dir.join("bad.xml");
    std::fs::write(
        &instance_bad,
        r#"<PO><OrderNo>not-a-number</OrderNo><PurchaseDate>2005-04-05</PurchaseDate></PO>"#,
    )
    .unwrap();
    let out = run(&[
        "validate",
        dir.join("po1.xsd").to_str().unwrap(),
        instance_bad.to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    assert!(stdout(&out).contains("PO/OrderNo"), "{}", stdout(&out));
    assert!(
        stderr(&out).contains("validation error"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn generate_then_validate_round_trips() {
    let dir = setup();
    let po1 = dir.join("po1.xsd");
    let out = run(&["generate", po1.to_str().unwrap(), "--seed", "3"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let instance_path = dir.join("generated.xml");
    std::fs::write(&instance_path, stdout(&out)).unwrap();
    let out = run(&[
        "validate",
        po1.to_str().unwrap(),
        instance_path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{} {}", stdout(&out), stderr(&out));
    assert!(stdout(&out).contains("is valid"));
}

#[test]
fn generate_respects_seed_and_root() {
    let dir = setup();
    let po1 = dir.join("po1.xsd");
    let a = run(&["generate", po1.to_str().unwrap(), "--seed", "1"]);
    let b = run(&["generate", po1.to_str().unwrap(), "--seed", "1"]);
    let c = run(&["generate", po1.to_str().unwrap(), "--seed", "2"]);
    assert_eq!(stdout(&a), stdout(&b), "same seed is deterministic");
    assert_ne!(stdout(&a), stdout(&c), "different seed differs");
    let bad = run(&["generate", po1.to_str().unwrap(), "--root", "NoSuchRoot"]);
    assert!(!bad.status.success());
}

#[test]
fn explain_shows_axis_decomposition() {
    let dir = setup();
    let out = run(&[
        "match",
        dir.join("po1.xsd").to_str().unwrap(),
        dir.join("po2.xsd").to_str().unwrap(),
        "--explain",
        "PO/PurchaseInfo/Lines",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("top candidates for PO/PurchaseInfo/Lines"),
        "{text}"
    );
    assert!(text.contains("label"), "{text}");
    assert!(text.contains("children"), "{text}");
    assert!(text.contains("category:"), "{text}");

    let bad = run(&[
        "match",
        dir.join("po1.xsd").to_str().unwrap(),
        dir.join("po2.xsd").to_str().unwrap(),
        "--explain",
        "PO/NoSuchNode",
    ]);
    assert!(!bad.status.success());
    assert!(stderr(&bad).contains("not found"), "{}", stderr(&bad));
}

#[test]
fn batch_subcommand_matches_a_corpus() {
    let dir = setup();
    let po1 = dir.join("po1.xsd");
    let po2 = dir.join("po2.xsd");
    let pairs = dir.join("pairs.tsv");
    // Tab-separated, whitespace-separated, comments, and blanks all parse.
    std::fs::write(
        &pairs,
        format!(
            "# corpus\n{}\t{}\n\n{} {}\n",
            po1.display(),
            po2.display(),
            po1.display(),
            po1.display(),
        ),
    )
    .unwrap();
    let out = run(&["match-many", pairs.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("2 pair(s)"), "{text}");
    assert!(text.contains("total QoM"), "{text}");
    assert!(text.contains("10x10"), "node counts shown: {text}");

    // --total-only prints one TSV line per pair; the self-match is perfect.
    let out = run(&["match-many", pairs.to_str().unwrap(), "--total-only"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "{text}");
    assert!(lines[1].ends_with("1.000"), "{}", lines[1]);

    // Malformed lines are rejected with their line number.
    let bad = dir.join("bad-pairs.tsv");
    std::fs::write(&bad, "only-one-field\n").unwrap();
    let out = run(&["match-many", bad.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("bad-pairs.tsv:1"), "{}", stderr(&out));
}

#[test]
fn batch_subcommand_rejects_wrong_column_count() {
    let dir = setup();
    let po1 = dir.join("po1.xsd");
    let bad = dir.join("three-pairs.tsv");
    // A valid first row must not mask the malformed second row.
    std::fs::write(
        &bad,
        format!(
            "{}\t{}\n{}\t{}\textra-field\n",
            po1.display(),
            po1.display(),
            po1.display(),
            po1.display()
        ),
    )
    .unwrap();
    let out = run(&["match-many", bad.to_str().unwrap()]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("three-pairs.tsv:2"), "{err}");
    assert!(err.contains("2 fields"), "{err}");
    assert!(err.contains("got 3"), "{err}");
}

#[test]
fn batch_subcommand_rejects_empty_path() {
    let dir = setup();
    let po1 = dir.join("po1.xsd");
    // A trailing tab means the target path is empty.
    let bad = dir.join("empty-pairs.tsv");
    std::fs::write(&bad, format!("{}\t\n", po1.display())).unwrap();
    let out = run(&["match-many", bad.to_str().unwrap()]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("empty-pairs.tsv:1"), "{err}");
    assert!(err.contains("empty target schema path"), "{err}");

    // Leading tab: the source path is the empty one.
    let bad2 = dir.join("empty-source-pairs.tsv");
    std::fs::write(&bad2, format!("\t{}\n", po1.display())).unwrap();
    let out = run(&["match-many", bad2.to_str().unwrap()]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("empty-source-pairs.tsv:1"), "{err}");
    assert!(err.contains("empty source schema path"), "{err}");
}

#[test]
fn thesaurus_extension_changes_the_match() {
    let dir = setup();
    // Two tiny schemas whose labels only relate through a custom synonym.
    let a = dir.join("a.xsd");
    let b = dir.join("b.xsd");
    std::fs::write(
        &a,
        r#"<xs:schema xmlns:xs="x"><xs:element name="Aerodrome" type="xs:string"/></xs:schema>"#,
    )
    .unwrap();
    std::fs::write(
        &b,
        r#"<xs:schema xmlns:xs="x"><xs:element name="Airport" type="xs:string"/></xs:schema>"#,
    )
    .unwrap();
    let thesaurus = dir.join("aviation.thesaurus");
    std::fs::write(&thesaurus, "syn: aerodrome, airport\n").unwrap();

    let plain = run(&[
        "match",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--algorithm",
        "linguistic",
        "--total-only",
    ]);
    let tuned = run(&[
        "match",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--algorithm",
        "linguistic",
        "--total-only",
        "--thesaurus",
        thesaurus.to_str().unwrap(),
    ]);
    assert!(
        plain.status.success() && tuned.status.success(),
        "{}",
        stderr(&tuned)
    );
    let before: f64 = stdout(&plain).trim().parse().unwrap();
    let after: f64 = stdout(&tuned).trim().parse().unwrap();
    assert!(before < 0.5, "unrelated without the thesaurus: {before}");
    assert!((after - 1.0).abs() < 1e-6, "synonyms are exact: {after}");

    // A malformed thesaurus file is reported with its line number.
    std::fs::write(&thesaurus, "syn: lonely\n").unwrap();
    let bad = run(&[
        "match",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--thesaurus",
        thesaurus.to_str().unwrap(),
    ]);
    assert!(!bad.status.success());
    assert!(stderr(&bad).contains("line 1"), "{}", stderr(&bad));
}

#[test]
fn matrix_csv_is_written() {
    let dir = setup();
    let csv_path = dir.join("matrix.csv");
    let out = run(&[
        "match",
        dir.join("po1.xsd").to_str().unwrap(),
        dir.join("po2.xsd").to_str().unwrap(),
        "--matrix-csv",
        csv_path.to_str().unwrap(),
        "--total-only",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let csv = std::fs::read_to_string(&csv_path).unwrap();
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines.len(), 11, "header + 10 PO1 rows");
    assert!(lines[0].contains("PurchaseOrder/OrderNo"));
    assert!(csv.contains("PO/PurchaseInfo/Lines"));
}
