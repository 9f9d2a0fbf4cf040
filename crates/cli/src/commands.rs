//! Command implementations: load schemas, run algorithms, print reports.

use crate::args::{AlgorithmChoice, Command, MatchOptions, USAGE};
use crate::gold_file;
use qmatch_core::algorithms::{mapping_generation_leaves, Algorithm, MatchOutcome};
use qmatch_core::eval::evaluate;
use qmatch_core::index::{pair_is_candidate, IndexParams, IndexPolicy};
use qmatch_core::mapping::{extract_mapping, path_of, Mapping};
use qmatch_core::matrix::SimMatrix;
use qmatch_core::quality::{self, QualityReport, QualityRow};
use qmatch_core::report::{f3, Table};
use qmatch_core::session::{MatchSession, PreparedSchema};
use qmatch_core::trace::Recorder;
use qmatch_xsd::{parse_schema, NodeKind, SchemaTree};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A command failure with context (file, phase).
#[derive(Debug)]
pub struct CommandError(String);

impl fmt::Display for CommandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CommandError {}

fn fail(message: impl Into<String>) -> CommandError {
    CommandError(message.into())
}

/// Executes a parsed command.
pub fn run(command: Command) -> Result<(), CommandError> {
    match command {
        Command::Help => {
            println!("{USAGE}");
            Ok(())
        }
        Command::Inspect { schema, root } => inspect(&schema, root.as_deref()),
        Command::Diff { old, new, root } => diff_command(&old, &new, root.as_deref()),
        Command::Validate { schema, instance } => validate_instance(&schema, &instance),
        Command::Generate { schema, root, seed } => generate(&schema, root.as_deref(), seed),
        Command::Fuzz {
            seed,
            cases,
            budget_ms,
            repro_dir,
        } => fuzz(seed, cases, budget_ms, &repro_dir),
        Command::Serve {
            addr,
            shards,
            max_schemas,
            queue_depth,
            deadline_ms,
            data_dir,
            fsync_batch_ms,
            options,
        } => serve(
            &addr,
            shards,
            max_schemas,
            queue_depth,
            deadline_ms,
            data_dir.as_deref(),
            fsync_batch_ms,
            &options,
        ),
        Command::Match {
            source,
            target,
            options,
        } => {
            let (source_tree, target_tree) = load_pair(&source, &target, &options)?;
            let (session, recorder) = build_session(&options)?;
            let (prepared_source, prepared_target) =
                (session.prepare(&source_tree), session.prepare(&target_tree));
            let (algorithm, outcome, threshold) =
                execute(&session, &prepared_source, &prepared_target, &options);
            emit_trace(&session, recorder.as_deref());
            if let Some(csv_path) = &options.matrix_csv {
                let csv = outcome.matrix.to_csv(&source_tree, &target_tree);
                std::fs::write(csv_path, csv)
                    .map_err(|e| fail(format!("cannot write {csv_path}: {e}")))?;
            }
            if options.total_only {
                println!("{}", f3(outcome.total_qom));
                return Ok(());
            }
            if let Some(path) = &options.explain {
                if options.algorithm != AlgorithmChoice::Hybrid {
                    return Err(fail("--explain requires the hybrid algorithm"));
                }
                return explain(&session, &prepared_source, &prepared_target, &outcome, path);
            }
            if options.emit_gold {
                let mapping = extract_at(
                    &algorithm,
                    &prepared_source,
                    &prepared_target,
                    &outcome.matrix,
                    threshold,
                );
                let mut gold = qmatch_core::eval::GoldStandard::new();
                for (s, t) in mapping.to_path_pairs(&source_tree, &target_tree) {
                    gold.add(&s, &t);
                }
                print!("{}", gold_file::render_gold(&gold));
                return Ok(());
            }
            println!(
                "{} ({} nodes) vs {} ({} nodes) — {} algorithm",
                source_tree.name(),
                source_tree.len(),
                target_tree.name(),
                target_tree.len(),
                options.algorithm.name()
            );
            println!("total QoM: {}\n", f3(outcome.total_qom));
            let mapping = extract_at(
                &algorithm,
                &prepared_source,
                &prepared_target,
                &outcome.matrix,
                threshold,
            );
            println!("correspondences (threshold {}):", f3(threshold));
            print!("{}", mapping.display(&source_tree, &target_tree));
            if mapping.is_empty() {
                println!("(none)");
            }
            Ok(())
        }
        Command::MatchMany { pairs, options } => batch_command(&pairs, &options),
        Command::EvaluateAll { options } => evaluate_all_command(&options),
        Command::Evaluate {
            source,
            target,
            gold,
            options,
        } => {
            let (source_tree, target_tree) = load_pair(&source, &target, &options)?;
            let gold_text = std::fs::read_to_string(&gold)
                .map_err(|e| fail(format!("cannot read {gold}: {e}")))?;
            let gold_set =
                gold_file::parse_gold(&gold, &gold_text).map_err(|e| fail(e.to_string()))?;
            let (session, recorder) = build_session(&options)?;
            let (prepared_source, prepared_target) =
                (session.prepare(&source_tree), session.prepare(&target_tree));
            let (algorithm, outcome, threshold) =
                execute(&session, &prepared_source, &prepared_target, &options);
            emit_trace(&session, recorder.as_deref());
            let mapping = extract_at(
                &algorithm,
                &prepared_source,
                &prepared_target,
                &outcome.matrix,
                threshold,
            );
            let quality = evaluate(&mapping, &source_tree, &target_tree, &gold_set);

            // The same column schema `evaluate --all` and bench_quality
            // render, so single-pair runs line up with corpus reports.
            let mut report = QualityReport::new();
            report.push(QualityRow {
                pair: format!("{}-{}", source_tree.name(), target_tree.name()),
                algorithm: algorithm.name().to_owned(),
                threshold,
                quality,
            });
            print!("{}", report.render());
            if options.index != IndexPolicy::Off {
                // Report what the candidate prefilter would have decided
                // for this pair, so gold-standard runs can audit it.
                let qs = session.signature(&prepared_source);
                let ts = session.signature(&prepared_target);
                let admitted = pair_is_candidate(&qs, &ts, &IndexParams::default());
                let mut table = Table::new(["measure", "value"]);
                table.row(["index policy".to_owned(), options.index.name().to_owned()]);
                table.row(["prefilter dice".to_owned(), f3(qs.dice(&ts))]);
                table.row([
                    "prefilter".to_owned(),
                    if admitted { "candidate" } else { "pruned" }.to_owned(),
                ]);
                print!("{}", table.render());
            }

            // List errors for post-match repair, like a matcher UI would.
            let predicted = mapping.to_path_pairs(&source_tree, &target_tree);
            let mut shown_header = false;
            for c in &mapping.pairs {
                let key = (
                    path_of(&source_tree, c.source),
                    path_of(&target_tree, c.target),
                );
                if !gold_set.contains(&key.0, &key.1) {
                    if !shown_header {
                        println!("\nfalse positives:");
                        shown_header = true;
                    }
                    println!("  {} -> {}", key.0, key.1);
                }
            }
            let mut shown_header = false;
            for (s, t) in gold_set.iter() {
                if !predicted.iter().any(|(a, b)| a == s && b == t) {
                    if !shown_header {
                        println!("\nmissed matches:");
                        shown_header = true;
                    }
                    println!("  {s} -> {t}");
                }
            }
            Ok(())
        }
    }
}

/// Splits one pairs-file line into its fields: tab-separated when a tab is
/// present, whitespace-separated otherwise.
fn pairs_line_fields(line: &str) -> Vec<&str> {
    if line.contains('\t') {
        // Keep empty fields: `a<TAB>` must surface as an empty path error,
        // not silently collapse to one field.
        line.split('\t').map(str::trim).collect()
    } else {
        line.split_whitespace().collect()
    }
}

/// `match-many`: batch-match a whole corpus of schema pairs with the hybrid
/// algorithm — one session, so the thesaurus build, every schema's prepared
/// artifacts, and the distinct-label-pair comparisons are all shared across
/// the corpus; pairs run in parallel.
/// The built-in corpus: every schema pair with a non-empty gold standard,
/// in the paper's figure order. (Library/Human is excluded — the paper
/// publishes no gold for it, so quality scores would be degenerate.)
fn corpus_pairs() -> Vec<(
    &'static str,
    SchemaTree,
    SchemaTree,
    qmatch_core::GoldStandard,
)> {
    use qmatch_datasets::{corpus, gold, synth};
    vec![
        ("PO", corpus::po1(), corpus::po2(), gold::po_gold()),
        ("BOOK", corpus::article(), corpus::book(), gold::book_gold()),
        (
            "DCMD",
            corpus::dcmd_item(),
            corpus::dcmd_ord(),
            gold::dcmd_gold(),
        ),
        (
            "Protein",
            synth::pir().clone(),
            synth::pdb().clone(),
            synth::protein_gold().clone(),
        ),
    ]
}

/// The algorithms `evaluate --all` (and `bench_quality`) compare: QMatch,
/// full CUPID, and the tree-edit baseline.
const EVALUATED_ALGORITHMS: [Algorithm; 3] =
    [Algorithm::Hybrid, Algorithm::Cupid, Algorithm::TreeEdit];

/// `evaluate --all`: one deterministic quality report over every corpus
/// pair x every evaluated algorithm, through one shared session.
fn evaluate_all_command(options: &MatchOptions) -> Result<(), CommandError> {
    let (session, recorder) = build_session(options)?;
    let pairs = corpus_pairs();
    let mut report = QualityReport::new();
    for (name, source, target, gold) in &pairs {
        let (sp, tp) = (session.prepare(source), session.prepare(target));
        for algorithm in &EVALUATED_ALGORITHMS {
            let row = quality::evaluate_algorithm(&session, algorithm, name, &sp, &tp, gold)
                .map_err(|e| fail(e.to_string()))?;
            report.push(row);
        }
    }
    emit_trace(&session, recorder.as_deref());
    println!(
        "{} corpus pair(s) x {} algorithm(s), each at its own acceptance threshold",
        pairs.len(),
        EVALUATED_ALGORITHMS.len()
    );
    print!("{}", report.render());
    Ok(())
}

fn batch_command(pairs_path: &str, options: &MatchOptions) -> Result<(), CommandError> {
    let text = std::fs::read_to_string(pairs_path)
        .map_err(|e| fail(format!("cannot read {pairs_path}: {e}")))?;
    // Parse and validate every row before loading anything: a malformed
    // corpus file should fail fast with the offending line number.
    let mut rows: Vec<(String, String)> = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        // Trim spaces but keep boundary tabs: `SOURCE<TAB>` is a row with
        // an empty target path, not a one-field row.
        let line = raw.trim_matches(|c| c == ' ' || c == '\r');
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields = pairs_line_fields(line);
        if fields.len() != 2 {
            return Err(fail(format!(
                "{pairs_path}:{}: expected `SOURCE.xsd TAB TARGET.xsd` (2 fields), got {} in {line:?}",
                lineno + 1,
                fields.len()
            )));
        }
        if let Some(which) = fields.iter().position(|f| f.is_empty()) {
            return Err(fail(format!(
                "{pairs_path}:{}: empty {} schema path in {line:?}",
                lineno + 1,
                if which == 0 { "source" } else { "target" }
            )));
        }
        rows.push((fields[0].to_owned(), fields[1].to_owned()));
    }
    if rows.is_empty() {
        return Err(fail(format!("{pairs_path} lists no schema pairs")));
    }
    // Load and prepare each distinct schema file once, however many corpus
    // rows reference it.
    let mut index_of: HashMap<&str, usize> = HashMap::new();
    let mut trees: Vec<SchemaTree> = Vec::new();
    for (source, target) in &rows {
        for path in [source.as_str(), target.as_str()] {
            if !index_of.contains_key(path) {
                index_of.insert(path, trees.len());
                trees.push(load_tree(path, None)?);
            }
        }
    }
    let (session, recorder) = build_session(options)?;
    let prepared: Vec<PreparedSchema> = trees.iter().map(|t| session.prepare(t)).collect();
    let corpus: Vec<(&PreparedSchema, &PreparedSchema)> = rows
        .iter()
        .map(|(s, t)| {
            (
                &prepared[index_of[s.as_str()]],
                &prepared[index_of[t.as_str()]],
            )
        })
        .collect();
    let outcomes = session.match_corpus_indexed(&corpus, options.index);
    emit_trace(&session, recorder.as_deref());
    let threshold = options
        .threshold
        .unwrap_or_else(|| options.config.weights.acceptance_threshold());
    if options.total_only {
        for ((source, target), outcome) in rows.iter().zip(&outcomes) {
            match outcome {
                Some(outcome) => println!("{source}\t{target}\t{}", f3(outcome.total_qom)),
                None => println!("{source}\t{target}\tpruned"),
            }
        }
        return Ok(());
    }
    let mut table = Table::new(["source", "target", "nodes", "total QoM", "matches"]);
    for (((source, target), outcome), (sp, tp)) in rows.iter().zip(&outcomes).zip(&corpus) {
        let (qom, matches) = match outcome {
            Some(outcome) => {
                let mapping = extract_mapping(&outcome.matrix, threshold);
                (f3(outcome.total_qom), mapping.len().to_string())
            }
            None => ("pruned".to_owned(), "-".to_owned()),
        };
        table.row([
            source.clone(),
            target.clone(),
            format!("{}x{}", sp.tree().len(), tp.tree().len()),
            qom,
            matches,
        ]);
    }
    // The index note only appears when the prefilter is on, so default
    // runs keep their byte-identical output.
    let index_note = match options.index {
        IndexPolicy::Off => String::new(),
        policy => format!(", index {}", policy.name()),
    };
    println!(
        "{} pair(s), hybrid algorithm, acceptance threshold {}{index_note}",
        rows.len(),
        f3(threshold)
    );
    print!("{}", table.render());
    Ok(())
}

/// `match --explain`: show the QoM decomposition of the named source node
/// against its best target candidates. Reuses the already-computed hybrid
/// `outcome` and the session's cached label comparisons instead of paying
/// the match a second time.
fn explain(
    session: &MatchSession,
    source: &PreparedSchema,
    target: &PreparedSchema,
    outcome: &MatchOutcome,
    source_path: &str,
) -> Result<(), CommandError> {
    let Some(sid) = source.tree().find_by_path(source_path) else {
        return Err(fail(format!(
            "source node {source_path:?} not found (paths look like {:?})",
            path_of(source.tree(), source.tree().root_id())
        )));
    };
    let mut candidates: Vec<(qmatch_xsd::NodeId, f64)> = target
        .tree()
        .iter()
        .map(|(tid, _)| (tid, outcome.matrix.get(sid, tid)))
        .collect();
    candidates.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("top candidates for {source_path}:\n");
    for (tid, _) in candidates.into_iter().take(3) {
        let explanation = session.explain(source, target, sid, tid, &outcome.matrix);
        println!("{explanation}");
    }
    Ok(())
}

fn generate(schema_path: &str, root: Option<&str>, seed: u64) -> Result<(), CommandError> {
    let text = std::fs::read_to_string(schema_path)
        .map_err(|e| fail(format!("cannot read {schema_path}: {e}")))?;
    let schema = parse_schema(&text).map_err(|e| fail(format!("{schema_path}: {e}")))?;
    let options = qmatch_datasets::instances::InstanceOptions {
        seed,
        ..qmatch_datasets::instances::InstanceOptions::default()
    };
    let instance = match root {
        Some(name) => qmatch_datasets::instances::generate_instance_of(&schema, name, &options),
        None => qmatch_datasets::instances::generate_instance(&schema, &options),
    }
    .ok_or_else(|| fail("schema has no matching global element to generate"))?;
    println!("<?xml version=\"1.0\"?>");
    print!("{instance}");
    Ok(())
}

fn fuzz(
    seed: u64,
    cases: u64,
    budget_ms: Option<u64>,
    repro_dir: &str,
) -> Result<(), CommandError> {
    let config = qmatch_fuzz::FuzzConfig {
        seed,
        cases,
        budget_ms,
        repro_dir: repro_dir.into(),
        ..qmatch_fuzz::FuzzConfig::default()
    };
    let summary = qmatch_fuzz::run(&config);
    println!("{}", summary.line());
    for failure in &summary.failures {
        eprintln!(
            "case {} failed oracle {}: {:?}{}",
            failure.case,
            failure.failure.tag(),
            failure.failure,
            failure
                .repro_path
                .as_deref()
                .map(|p| format!(" (repro: {})", p.display()))
                .unwrap_or_default(),
        );
    }
    if summary.is_clean() {
        Ok(())
    } else {
        Err(fail(format!(
            "fuzzing found {} crasher(s) and {} oracle violation(s)",
            summary.crashers, summary.violations
        )))
    }
}

fn validate_instance(schema_path: &str, instance_path: &str) -> Result<(), CommandError> {
    let schema_text = std::fs::read_to_string(schema_path)
        .map_err(|e| fail(format!("cannot read {schema_path}: {e}")))?;
    let schema = parse_schema(&schema_text).map_err(|e| fail(format!("{schema_path}: {e}")))?;
    let instance_text = std::fs::read_to_string(instance_path)
        .map_err(|e| fail(format!("cannot read {instance_path}: {e}")))?;
    let document = qmatch_xsd::validate::parse_document(&instance_text)
        .map_err(|e| fail(format!("{instance_path}: {e}")))?;
    let report = qmatch_xsd::validate(&document, &schema)
        .map_err(|e| fail(format!("{instance_path}: {e}")))?;
    if report.is_valid() {
        println!("{instance_path} is valid against {schema_path}");
        Ok(())
    } else {
        for error in &report.errors {
            println!("{error}");
        }
        Err(fail(format!("{} validation error(s)", report.errors.len())))
    }
}

fn load_tree(path: &str, root: Option<&str>) -> Result<SchemaTree, CommandError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| fail(format!("cannot read {path}: {e}")))?;
    let schema = parse_schema(&text).map_err(|e| fail(format!("{path}: {e}")))?;
    match root {
        Some(name) => {
            SchemaTree::compile_element(&schema, name).map_err(|e| fail(format!("{path}: {e}")))
        }
        None => SchemaTree::compile(&schema).map_err(|e| fail(format!("{path}: {e}"))),
    }
}

fn load_pair(
    source: &str,
    target: &str,
    options: &MatchOptions,
) -> Result<(SchemaTree, SchemaTree), CommandError> {
    Ok((
        load_tree(source, options.source_root.as_deref())?,
        load_tree(target, options.target_root.as_deref())?,
    ))
}

/// Boots the HTTP match server and blocks until SIGINT/SIGTERM, then
/// prints the activity summary to stderr.
#[allow(clippy::too_many_arguments)]
fn serve(
    addr: &str,
    shards: usize,
    max_schemas: usize,
    queue_depth: usize,
    deadline_ms: u64,
    data_dir: Option<&str>,
    fsync_batch_ms: u64,
    options: &MatchOptions,
) -> Result<(), CommandError> {
    let config = qmatch_serve::ServerConfig {
        addr: addr.to_owned(),
        threads: shards,
        max_resident: max_schemas,
        limits: qmatch_xsd::IngestLimits::default(),
        config: options.config,
        matcher: load_matcher(options)?,
        queue_depth,
        deadline: std::time::Duration::from_millis(deadline_ms),
        data_dir: data_dir.map(std::path::PathBuf::from),
        fsync_batch: std::time::Duration::from_millis(fsync_batch_ms),
        ..qmatch_serve::ServerConfig::default()
    };
    qmatch_serve::install_signal_handlers();
    let server =
        qmatch_serve::Server::bind(config).map_err(|e| fail(format!("cannot bind {addr}: {e}")))?;
    let bound = server
        .local_addr()
        .map_err(|e| fail(format!("cannot resolve listen address: {e}")))?;
    eprintln!("qmatch-serve listening on http://{bound} (ctrl-c or SIGTERM to stop)");
    let summary = server
        .run()
        .map_err(|e| fail(format!("server error: {e}")))?;
    eprintln!("{summary}");
    Ok(())
}

/// Loads the (optionally extended) name matcher for the lexicon-driven
/// algorithms.
fn load_matcher(
    options: &MatchOptions,
) -> Result<Option<qmatch_lexicon::NameMatcher>, CommandError> {
    let Some(path) = &options.thesaurus else {
        return Ok(None);
    };
    let text =
        std::fs::read_to_string(path).map_err(|e| fail(format!("cannot read {path}: {e}")))?;
    let mut thesaurus = qmatch_lexicon::builtin::default_thesaurus();
    qmatch_lexicon::extend_from_text(&mut thesaurus, &text)
        .map_err(|e| fail(format!("{path}: {e}")))?;
    Ok(Some(qmatch_lexicon::NameMatcher::new(thesaurus)))
}

/// Builds the match session for a command invocation: the configuration
/// plus the (optionally extended) name matcher. With `--trace`, a
/// [`Recorder`] is installed on the session and returned alongside it so
/// the caller can print the per-phase report once the work is done.
fn build_session(
    options: &MatchOptions,
) -> Result<(MatchSession, Option<Arc<Recorder>>), CommandError> {
    let mut session = match load_matcher(options)? {
        Some(matcher) => MatchSession::with_matcher(options.config, matcher),
        None => MatchSession::new(options.config),
    };
    let recorder = options.trace.then(|| {
        let recorder = Arc::new(Recorder::default());
        session.set_trace_sink(recorder.clone());
        recorder
    });
    Ok((session, recorder))
}

/// Prints the `--trace` per-phase report to stderr, keeping stdout clean
/// for the match result itself, followed by the session's label-cache
/// counters (the candidate token pairs its cold label comparisons scored
/// and the label pairs they graded in full).
fn emit_trace(session: &MatchSession, recorder: Option<&Recorder>) {
    if let Some(recorder) = recorder {
        eprint!("{}", recorder.report());
        let stats = session.cache_stats();
        eprintln!(
            "label cache: {} hits, {} misses, {} token scores, {} graded pairs",
            stats.hits, stats.misses, stats.token_scores, stats.graded_pairs
        );
    }
}

/// The [`Algorithm`] selector behind a CLI algorithm choice — the CLI
/// reuses the core enum end-to-end instead of its own algo strings.
fn core_algorithm(choice: AlgorithmChoice) -> Algorithm {
    match choice {
        AlgorithmChoice::Hybrid => Algorithm::Hybrid,
        AlgorithmChoice::Linguistic => Algorithm::Linguistic,
        AlgorithmChoice::Structural => Algorithm::Structural,
        AlgorithmChoice::Cupid => Algorithm::Cupid,
        AlgorithmChoice::TreeEdit => Algorithm::TreeEdit,
    }
}

/// Extracts a mapping by the algorithm's own convention at an explicit
/// threshold: CUPID is leaf-anchored (`mapping_generation_leaves`), every
/// other algorithm uses the greedy 1:1 extraction.
fn extract_at(
    algorithm: &Algorithm,
    source: &PreparedSchema,
    target: &PreparedSchema,
    matrix: &SimMatrix,
    threshold: f64,
) -> Mapping {
    match algorithm {
        Algorithm::Cupid => mapping_generation_leaves(source, target, matrix, threshold),
        _ => extract_mapping(matrix, threshold),
    }
}

/// Runs the selected algorithm over prepared schemas and returns the
/// selector, the outcome, and the effective acceptance threshold (the
/// shared [`quality::default_threshold`] unless `--threshold` overrode
/// it).
fn execute(
    session: &MatchSession,
    source: &PreparedSchema,
    target: &PreparedSchema,
    options: &MatchOptions,
) -> (Algorithm, MatchOutcome, f64) {
    let algorithm = core_algorithm(options.algorithm);
    let default_threshold = quality::default_threshold(&algorithm, &options.config);
    let outcome = session
        .run(&algorithm, source, target)
        .expect("built-in algorithms are infallible");
    (
        algorithm,
        outcome,
        options.threshold.unwrap_or(default_threshold),
    )
}

fn inspect(path: &str, root: Option<&str>) -> Result<(), CommandError> {
    let tree = load_tree(path, root)?;
    println!("{}: {}\n", tree.name(), qmatch_xsd::TreeProfile::of(&tree));
    for (id, node) in tree.iter() {
        let indent = "  ".repeat(node.level as usize);
        let marker = match node.kind {
            NodeKind::Element => "",
            NodeKind::Attribute => "@",
        };
        let occurs = format!(
            "[{}..{}]",
            node.properties.min_occurs, node.properties.max_occurs
        );
        println!(
            "{indent}{marker}{}  : {}  {}  (order {}, level {}{})",
            node.label,
            node.properties.data_type,
            occurs,
            node.properties.order,
            node.level,
            if node.is_leaf() { ", leaf" } else { "" }
        );
        let _ = id;
    }
    Ok(())
}

/// `qmatch diff`: the typed edit script between two revisions of a schema,
/// plus a summary of the per-kind op counts and how many nodes of the new
/// revision the drift touched.
fn diff_command(old: &str, new: &str, root: Option<&str>) -> Result<(), CommandError> {
    let old_tree = load_tree(old, root)?;
    let new_tree = load_tree(new, root)?;
    let diff = qmatch_core::diff::TreeDiff::compute(&old_tree, &new_tree);
    println!(
        "{} ({} nodes) -> {} ({} nodes)",
        old_tree.name(),
        old_tree.len(),
        new_tree.name(),
        new_tree.len()
    );
    if diff.is_identity() {
        println!("revisions are identical: no edits");
        return Ok(());
    }
    println!("\nedit script ({} op(s)):", diff.ops().len());
    for op in diff.ops() {
        println!("  {op}");
    }
    let counts = diff.op_counts();
    let mut table = Table::new(["measure", "value"]);
    table.row(["renames".to_owned(), counts.renames.to_string()]);
    table.row(["moves".to_owned(), counts.moves.to_string()]);
    table.row([
        "inserts".to_owned(),
        format!("{} ({} node(s))", counts.inserts, counts.inserted_nodes),
    ]);
    table.row([
        "deletes".to_owned(),
        format!("{} ({} node(s))", counts.deletes, counts.deleted_nodes),
    ]);
    table.row(["prop changes".to_owned(), counts.prop_changes.to_string()]);
    table.row([
        "dirty nodes".to_owned(),
        format!(
            "{} / {} ({})",
            diff.dirty_count(),
            new_tree.len(),
            f3(diff.dirty_fraction())
        ),
    ]);
    table.row(["shape changed".to_owned(), diff.shape_changed().to_string()]);
    println!();
    print!("{}", table.render());
    Ok(())
}
