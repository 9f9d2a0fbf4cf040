//! Hand-rolled argument parsing (no external dependencies): subcommands,
//! `--flag value` and `--flag=value` options, and typed validation.

use qmatch_core::index::IndexPolicy;
use qmatch_core::model::{LexiconMode, MatchConfig};
use std::fmt;

/// The usage text shown on parse errors and by `qmatch help`.
pub const USAGE: &str = "\
qmatch — hybrid XML schema matching (QMatch, ICDE 2005)

USAGE:
    qmatch match <SOURCE.xsd> <TARGET.xsd> [options]
    qmatch match-many <PAIRS.tsv> [options]
    qmatch inspect <SCHEMA.xsd> [--root NAME]
    qmatch diff <OLD.xsd> <NEW.xsd> [--root NAME]
    qmatch evaluate <SOURCE.xsd> <TARGET.xsd> --gold <GOLD.tsv> [options]
    qmatch evaluate --all [options]
    qmatch validate <SCHEMA.xsd> <INSTANCE.xml>
    qmatch generate <SCHEMA.xsd> [--seed N] [--root NAME]
    qmatch fuzz [--seed N] [--cases N] [--budget-ms N] [--repro-dir PATH]
    qmatch serve [--addr HOST:PORT] [--shards N] [--max-schemas N]
    qmatch help

MATCH / EVALUATE OPTIONS:
    --algorithm <hybrid|linguistic|structural|cupid|tree-edit>
                                 (default: hybrid)
    --weights <WL,WP,WH,WC>      axis weights, must sum to 1
                                 (default: 0.3,0.2,0.1,0.4 — the paper's Table 2)
    --child-threshold <0..1>     Figure 3's child-match threshold (default: 0.5)
    --threshold <0..1>           mapping acceptance threshold
                                 (default: adapted to the weights)
    --lexicon <full|fuzzy|exact> linguistic resources (default: full)
    --precision <f64|f32>        similarity-matrix storage (default: f64;
                                 f32 halves matrix memory, scores within 1e-6)
    --thesaurus <FILE>           extend the built-in thesaurus from a file
                                 (directives: syn/hyp/acr/abbr — see README)
    --source-root <NAME>         global element to compile in SOURCE
    --target-root <NAME>         global element to compile in TARGET
    --total-only                 print only the total QoM
    --emit-gold                  print the mapping in gold-file format
                                 (bootstrap a gold standard by correcting it)
    --explain <SOURCE/PATH>      explain the QoM of this source node's best
                                 candidates (hybrid only)
    --matrix-csv <FILE>          also write the full similarity matrix as CSV
    --trace                      print a per-phase pipeline timing report
                                 (prepare, labels, waves) to stderr
    --index <off|auto|force>     candidate prefilter for match-many/evaluate
                                 (default: off; auto engages only above the
                                 candidate floor, force always prefilters)

INSPECT / DIFF / GENERATE OPTIONS:
    --root <NAME>                global element to compile (diff applies it
                                 to both revisions)
    --seed <N>                   generation seed (generate only; default 7)

DIFF:
    diff treats OLD and NEW as two revisions of one schema and prints the
    typed edit script (rename/move/insert/delete/prop-change) plus the
    dirty-node summary: changed nodes and the DP rows they invalidate.

FUZZ OPTIONS:
    --seed <N>                   master fuzzing seed (default 0)
    --cases <N>                  number of cases (default 1000)
    --budget-ms <N>              wall-clock budget; stops early when exceeded
    --repro-dir <PATH>           where minimized repros go (default fuzz-repro)

SERVE OPTIONS:
    --addr <HOST:PORT>           listen address (default: 127.0.0.1:8080)
    --shards <N>                 registry shards, one request worker each
                                 (default: 0 = all cores)
    --max-schemas <N>            LRU cap on resident prepared schemas, per
                                 shard (default: 64); bounds only the layouts
                                 (waves, levels, partitions): the compact id
                                 form of every registered schema is kept, so
                                 a miss re-interns nothing
    --queue-depth <N>            max queued-or-executing match jobs before
                                 requests answer 429 (default: 512)
    --deadline-ms <N>            per-request budget; jobs that outlive it in
                                 the queue answer 503 (default: 30000)
    --data-dir <PATH>            durable registry directory (WAL + snapshots,
                                 replayed on boot; default: in-memory only)
    --fsync-batch-ms <N>         WAL group-commit window: 0 fsyncs every
                                 accepted write before its response; N > 0
                                 fsyncs at most once per window, trading a
                                 bounded crash-loss window for PUT/DELETE
                                 throughput (default: 0)
    --precision <f32|f64>        default similarity-matrix precision; the
                                 precision= query parameter still wins
    also accepts --weights/--child-threshold/--lexicon/--thesaurus for the
    shard sessions; per-request knobs (algorithm, threshold, explain) travel
    as query parameters instead.

EVALUATE --all:
    runs QMatch (hybrid), full CUPID, and the tree-edit baseline across
    every built-in corpus pair with a gold standard (PO, BOOK, DCMD,
    Protein)
    and prints one deterministic report with the unified column schema
    (pair, algorithm, |R|, |P|, |I|, precision, recall, f1, overall).
    Takes the session options (--weights/--lexicon/--precision/...), but
    no schema files, --gold, or per-pair flags.

GOLD FILE FORMAT (evaluate):
    one real match per line:  <source/label/path> TAB <target/label/path>
    '#' starts a comment; blank lines are ignored; duplicate pairs are
    rejected with their file:line.

PAIRS FILE FORMAT (match-many):
    one schema pair per line:  <SOURCE.xsd> TAB <TARGET.xsd>
    '#' starts a comment; blank lines are ignored. The whole corpus is
    matched with the hybrid algorithm in one parallel batch; accepts the
    weight/threshold/lexicon/thesaurus options and --total-only.
";

/// Which match algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgorithmChoice {
    /// QMatch (the default).
    Hybrid,
    /// Label-only matcher.
    Linguistic,
    /// Structure-only matcher.
    Structural,
    /// Full CUPID (similarity propagation + leaf-anchored mapping).
    Cupid,
    /// Tree-edit-distance baseline.
    TreeEdit,
}

impl AlgorithmChoice {
    /// The name as accepted on the command line.
    pub fn name(self) -> &'static str {
        match self {
            AlgorithmChoice::Hybrid => "hybrid",
            AlgorithmChoice::Linguistic => "linguistic",
            AlgorithmChoice::Structural => "structural",
            AlgorithmChoice::Cupid => "cupid",
            AlgorithmChoice::TreeEdit => "tree-edit",
        }
    }
}

/// Options shared by `match` and `evaluate`.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchOptions {
    /// The algorithm to run.
    pub algorithm: AlgorithmChoice,
    /// Algorithm configuration (weights, child threshold, lexicon).
    pub config: MatchConfig,
    /// Mapping acceptance threshold; `None` = adapt to the algorithm.
    pub threshold: Option<f64>,
    /// Root element override for the source schema.
    pub source_root: Option<String>,
    /// Root element override for the target schema.
    pub target_root: Option<String>,
    /// Print only the total QoM (match command).
    pub total_only: bool,
    /// Print the mapping in gold-file format (match command).
    pub emit_gold: bool,
    /// Explain this source node's candidates (match command, hybrid only).
    pub explain: Option<String>,
    /// Path of a thesaurus-extension file.
    pub thesaurus: Option<String>,
    /// Write the similarity matrix as CSV to this path (match command).
    pub matrix_csv: Option<String>,
    /// Print a per-phase pipeline timing report to stderr.
    pub trace: bool,
    /// Candidate-index policy for match-many/evaluate.
    pub index: IndexPolicy,
}

impl Default for MatchOptions {
    fn default() -> Self {
        MatchOptions {
            algorithm: AlgorithmChoice::Hybrid,
            config: MatchConfig::default(),
            threshold: None,
            source_root: None,
            target_root: None,
            total_only: false,
            emit_gold: false,
            explain: None,
            thesaurus: None,
            matrix_csv: None,
            trace: false,
            index: IndexPolicy::Off,
        }
    }
}

/// A fully parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `qmatch match`.
    Match {
        /// Source schema path.
        source: String,
        /// Target schema path.
        target: String,
        /// Options.
        options: MatchOptions,
    },
    /// `qmatch match-many`.
    MatchMany {
        /// Path of the pairs file (one `SOURCE TAB TARGET` line per pair).
        pairs: String,
        /// Options (hybrid only).
        options: MatchOptions,
    },
    /// `qmatch inspect`.
    Inspect {
        /// Schema path.
        schema: String,
        /// Root element override.
        root: Option<String>,
    },
    /// `qmatch diff`.
    Diff {
        /// Old schema revision path.
        old: String,
        /// New schema revision path.
        new: String,
        /// Root element override, applied to both revisions.
        root: Option<String>,
    },
    /// `qmatch evaluate`.
    Evaluate {
        /// Source schema path.
        source: String,
        /// Target schema path.
        target: String,
        /// Gold-standard file path.
        gold: String,
        /// Options.
        options: MatchOptions,
    },
    /// `qmatch evaluate --all`: every corpus pair x every evaluated
    /// algorithm, one deterministic report.
    EvaluateAll {
        /// Session options (config knobs only; per-pair flags rejected).
        options: MatchOptions,
    },
    /// `qmatch generate`.
    Generate {
        /// Schema path.
        schema: String,
        /// Root element override.
        root: Option<String>,
        /// RNG seed.
        seed: u64,
    },
    /// `qmatch validate`.
    Validate {
        /// Schema path.
        schema: String,
        /// Instance document path.
        instance: String,
    },
    /// `qmatch fuzz`.
    Fuzz {
        /// Master fuzzing seed.
        seed: u64,
        /// Number of cases to run.
        cases: u64,
        /// Optional wall-clock budget in milliseconds.
        budget_ms: Option<u64>,
        /// Directory for minimized repro files.
        repro_dir: String,
    },
    /// `qmatch serve`.
    Serve {
        /// Listen address (`HOST:PORT`).
        addr: String,
        /// Registry shard / worker thread count (0 = available
        /// parallelism).
        shards: usize,
        /// LRU cap on resident prepared schemas, per shard.
        max_schemas: usize,
        /// Max queued-or-executing match jobs before requests answer 429.
        queue_depth: usize,
        /// Per-request deadline budget in milliseconds.
        deadline_ms: u64,
        /// Durable registry directory (`None` serves in-memory only).
        data_dir: Option<String>,
        /// WAL group-commit window in milliseconds (0 = per-write fsync).
        fsync_batch_ms: u64,
        /// Session options (weights, lexicon, precision, thesaurus).
        options: MatchOptions,
    },
    /// `qmatch help`.
    Help,
}

/// A parse failure with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

fn err(message: impl Into<String>) -> ArgError {
    ArgError(message.into())
}

/// Parses a command line (without the program name).
pub fn parse<'a>(argv: impl IntoIterator<Item = &'a str>) -> Result<Command, ArgError> {
    let mut args = argv.into_iter().peekable();
    let sub = args.next().ok_or_else(|| err("missing subcommand"))?;
    match sub {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "match" => {
            let (positional, options) = parse_common(args)?;
            options.reject_all(sub)?;
            let [source, target] = two_positional(positional, "match")?;
            Ok(Command::Match {
                source,
                target,
                options: options.build()?,
            })
        }
        "match-many" => {
            let (positional, options) = parse_common(args)?;
            options.reject_all(sub)?;
            let [pairs] = one_positional(positional, "match-many")?;
            let options = options.build()?;
            if options.algorithm != AlgorithmChoice::Hybrid {
                return Err(err(
                    "match-many always runs the hybrid matcher; --algorithm is not supported",
                ));
            }
            if options.explain.is_some()
                || options.emit_gold
                || options.matrix_csv.is_some()
                || options.source_root.is_some()
                || options.target_root.is_some()
            {
                return Err(err("match-many does not accept per-pair options \
                     (--explain/--emit-gold/--matrix-csv/--source-root/--target-root)"));
            }
            Ok(Command::MatchMany { pairs, options })
        }
        "inspect" => {
            let (positional, options) = parse_common(args)?;
            options.reject_match_options("inspect")?;
            let [schema] = one_positional(positional, "inspect")?;
            Ok(Command::Inspect {
                schema,
                root: options.root,
            })
        }
        "diff" => {
            let (positional, options) = parse_common(args)?;
            options.reject_match_options("diff")?;
            let [old, new] = two_positional(positional, "diff")?;
            Ok(Command::Diff {
                old,
                new,
                root: options.root,
            })
        }
        "generate" => {
            let (positional, options) = parse_common(args)?;
            options.reject_match_options("generate")?;
            let [schema] = one_positional(positional, "generate")?;
            let seed = match &options.seed {
                None => 7,
                Some(s) => s
                    .parse::<u64>()
                    .map_err(|_| err(format!("--seed {s:?} is not an unsigned integer")))?,
            };
            Ok(Command::Generate {
                schema,
                root: options.root,
                seed,
            })
        }
        "validate" => {
            let (positional, options) = parse_common(args)?;
            options.reject_match_options("validate")?;
            let [schema, instance] = two_positional(positional, "validate")?;
            Ok(Command::Validate { schema, instance })
        }
        "fuzz" => {
            let (positional, options) = parse_common(args)?;
            options.reject_match_options("fuzz")?;
            if !positional.is_empty() {
                return Err(err("fuzz takes no positional arguments"));
            }
            if options.root.is_some() {
                return Err(err("fuzz does not accept --root"));
            }
            let parse_u64 = |value: &Option<String>, flag: &str| -> Result<Option<u64>, ArgError> {
                value
                    .as_deref()
                    .map(|v| {
                        v.parse::<u64>()
                            .map_err(|_| err(format!("{flag} {v:?} is not an unsigned integer")))
                    })
                    .transpose()
            };
            Ok(Command::Fuzz {
                seed: parse_u64(&options.seed, "--seed")?.unwrap_or(0),
                cases: parse_u64(&options.cases, "--cases")?.unwrap_or(1000),
                budget_ms: parse_u64(&options.budget_ms, "--budget-ms")?,
                repro_dir: options
                    .repro_dir
                    .clone()
                    .unwrap_or_else(|| "fuzz-repro".to_owned()),
            })
        }
        "serve" => {
            let (positional, options) = parse_common(args)?;
            options.reject_all(sub)?;
            if !positional.is_empty() {
                return Err(err("serve takes no positional arguments"));
            }
            let parse_count = |value: &Option<String>,
                               flag: &str|
             -> Result<Option<usize>, ArgError> {
                value
                    .as_deref()
                    .map(|v| {
                        v.parse::<usize>()
                            .map_err(|_| err(format!("{flag} {v:?} is not an unsigned integer")))
                    })
                    .transpose()
            };
            let shards = parse_count(&options.shards, "--shards")?.unwrap_or(0);
            let max_schemas = parse_count(&options.max_schemas, "--max-schemas")?.unwrap_or(64);
            if max_schemas == 0 {
                return Err(err("--max-schemas must be at least 1"));
            }
            let queue_depth = parse_count(&options.queue_depth, "--queue-depth")?.unwrap_or(512);
            if queue_depth == 0 {
                return Err(err("--queue-depth must be at least 1"));
            }
            let deadline_ms = match options.deadline_ms.as_deref() {
                Some(v) => v
                    .parse::<u64>()
                    .map_err(|_| err(format!("--deadline-ms {v:?} is not an unsigned integer")))?,
                None => 30_000,
            };
            if deadline_ms == 0 {
                return Err(err("--deadline-ms must be at least 1"));
            }
            let fsync_batch_ms = match options.fsync_batch_ms.as_deref() {
                Some(v) => v.parse::<u64>().map_err(|_| {
                    err(format!("--fsync-batch-ms {v:?} is not an unsigned integer"))
                })?,
                None => 0,
            };
            if fsync_batch_ms > 0 && options.data_dir.is_none() {
                return Err(err(
                    "--fsync-batch-ms only applies to a durable registry; give --data-dir too",
                ));
            }
            let data_dir = options.data_dir.clone();
            let addr = options
                .addr
                .clone()
                .unwrap_or_else(|| "127.0.0.1:8080".to_owned());
            let built = options.build()?;
            if built.algorithm != AlgorithmChoice::Hybrid
                || built.threshold.is_some()
                || built.explain.is_some()
                || built.total_only
                || built.emit_gold
                || built.matrix_csv.is_some()
                || built.source_root.is_some()
                || built.target_root.is_some()
                || built.trace
                || built.index != IndexPolicy::Off
            {
                return Err(err(
                    "serve configures per-request knobs over HTTP; only \
                     --weights/--child-threshold/--lexicon/--precision/--thesaurus apply",
                ));
            }
            Ok(Command::Serve {
                addr,
                shards,
                max_schemas,
                queue_depth,
                deadline_ms,
                data_dir,
                fsync_batch_ms,
                options: built,
            })
        }
        "evaluate" => {
            let (positional, options) = parse_common(args)?;
            if options.all {
                if !positional.is_empty() {
                    return Err(err(
                        "evaluate --all runs the built-in corpus; it takes no schema files",
                    ));
                }
                if options.gold.is_some() {
                    return Err(err(
                        "evaluate --all scores against the built-in gold standards; \
                         --gold does not apply",
                    ));
                }
                let built = options.build()?;
                if built.algorithm != AlgorithmChoice::Hybrid
                    || built.threshold.is_some()
                    || built.explain.is_some()
                    || built.total_only
                    || built.emit_gold
                    || built.matrix_csv.is_some()
                    || built.source_root.is_some()
                    || built.target_root.is_some()
                {
                    return Err(err(
                        "evaluate --all always runs hybrid vs cupid vs tree-edit at their \
                         own thresholds; only session options \
                         (--weights/--child-threshold/--lexicon/--precision/--thesaurus/--trace) \
                         apply",
                    ));
                }
                return Ok(Command::EvaluateAll { options: built });
            }
            let [source, target] = two_positional(positional, "evaluate")?;
            let gold = options
                .gold
                .clone()
                .ok_or_else(|| err("evaluate requires --gold <FILE> (or --all)"))?;
            Ok(Command::Evaluate {
                source,
                target,
                gold,
                options: options.build()?,
            })
        }
        other => Err(err(format!("unknown subcommand {other:?}"))),
    }
}

/// Raw option values before validation.
#[derive(Debug, Default, Clone)]
struct RawOptions {
    algorithm: Option<String>,
    weights: Option<String>,
    child_threshold: Option<String>,
    threshold: Option<String>,
    lexicon: Option<String>,
    precision: Option<String>,
    source_root: Option<String>,
    target_root: Option<String>,
    root: Option<String>,
    seed: Option<String>,
    gold: Option<String>,
    cases: Option<String>,
    budget_ms: Option<String>,
    repro_dir: Option<String>,
    addr: Option<String>,
    shards: Option<String>,
    max_schemas: Option<String>,
    queue_depth: Option<String>,
    deadline_ms: Option<String>,
    data_dir: Option<String>,
    fsync_batch_ms: Option<String>,
    all: bool,
    total_only: bool,
    emit_gold: bool,
    explain: Option<String>,
    thesaurus: Option<String>,
    matrix_csv: Option<String>,
    trace: bool,
    index: Option<String>,
}

impl RawOptions {
    fn build(&self) -> Result<MatchOptions, ArgError> {
        let mut options = MatchOptions::default();
        if let Some(a) = &self.algorithm {
            options.algorithm = match a.as_str() {
                "hybrid" => AlgorithmChoice::Hybrid,
                "linguistic" => AlgorithmChoice::Linguistic,
                "structural" => AlgorithmChoice::Structural,
                "cupid" => AlgorithmChoice::Cupid,
                "tree-edit" => AlgorithmChoice::TreeEdit,
                other => return Err(err(format!("unknown algorithm {other:?}"))),
            };
        }
        // The config options funnel through MatchConfig::builder, which
        // owns the validation (unit-sum weights, threshold range).
        let mut builder = MatchConfig::builder();
        if let Some(w) = &self.weights {
            let parts: Vec<f64> = w
                .split(',')
                .map(|p| p.trim().parse::<f64>())
                .collect::<Result<_, _>>()
                .map_err(|_| err(format!("--weights {w:?} is not four numbers")))?;
            let [l, p, h, c]: [f64; 4] = parts
                .try_into()
                .map_err(|_| err("--weights needs exactly four comma-separated numbers"))?;
            builder = builder.weights(l, p, h, c);
        }
        if let Some(t) = &self.child_threshold {
            let parsed: f64 = t
                .parse()
                .map_err(|_| err(format!("--child-threshold {t:?} is not a number")))?;
            builder = builder.threshold(parsed);
        }
        if let Some(mode) = &self.lexicon {
            builder = builder.lexicon(match mode.as_str() {
                "full" => LexiconMode::Full,
                "fuzzy" => LexiconMode::FuzzyOnly,
                "exact" => LexiconMode::ExactOnly,
                other => return Err(err(format!("unknown lexicon mode {other:?}"))),
            });
        }
        if let Some(p) = &self.precision {
            builder = builder.precision_name(p);
        }
        options.config = builder.build().map_err(|e| err(e.to_string()))?;
        if let Some(t) = &self.threshold {
            options.threshold = Some(parse_unit(t, "--threshold")?);
        }
        options.source_root = self.source_root.clone();
        options.target_root = self.target_root.clone();
        options.total_only = self.total_only;
        options.emit_gold = self.emit_gold;
        options.explain = self.explain.clone();
        options.thesaurus = self.thesaurus.clone();
        options.matrix_csv = self.matrix_csv.clone();
        options.trace = self.trace;
        if let Some(policy) = &self.index {
            options.index = policy.parse::<IndexPolicy>().map_err(err)?;
        }
        Ok(options)
    }

    fn reject_all(&self, sub: &str) -> Result<(), ArgError> {
        if self.all {
            return Err(err(format!("--all only applies to evaluate, not {sub}")));
        }
        Ok(())
    }

    fn reject_match_options(&self, sub: &str) -> Result<(), ArgError> {
        self.reject_all(sub)?;
        if self.algorithm.is_some()
            || self.weights.is_some()
            || self.threshold.is_some()
            || self.child_threshold.is_some()
            || self.lexicon.is_some()
            || self.precision.is_some()
            || self.total_only
            || self.emit_gold
            || self.explain.is_some()
            || self.thesaurus.is_some()
            || self.matrix_csv.is_some()
            || self.trace
            || self.index.is_some()
        {
            return Err(err(format!("{sub} does not accept match options")));
        }
        Ok(())
    }
}

fn parse_unit(value: &str, flag: &str) -> Result<f64, ArgError> {
    let parsed: f64 = value
        .parse()
        .map_err(|_| err(format!("{flag} {value:?} is not a number")))?;
    if !(0.0..=1.0).contains(&parsed) {
        return Err(err(format!("{flag} must lie in [0, 1], got {parsed}")));
    }
    Ok(parsed)
}

fn parse_common<'a>(
    args: impl Iterator<Item = &'a str>,
) -> Result<(Vec<String>, RawOptions), ArgError> {
    let mut positional = Vec::new();
    let mut options = RawOptions::default();
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        if let Some(flag) = arg.strip_prefix("--") {
            // Support both `--flag value` and `--flag=value`.
            let (name, inline_value) = match flag.split_once('=') {
                Some((n, v)) => (n, Some(v.to_owned())),
                None => (flag, None),
            };
            let take = |args: &mut dyn Iterator<Item = &'a str>| -> Result<String, ArgError> {
                if let Some(v) = &inline_value {
                    Ok(v.clone())
                } else {
                    args.next()
                        .map(str::to_owned)
                        .ok_or_else(|| err(format!("--{name} needs a value")))
                }
            };
            match name {
                "algorithm" => options.algorithm = Some(take(&mut args)?),
                "weights" => options.weights = Some(take(&mut args)?),
                "child-threshold" => options.child_threshold = Some(take(&mut args)?),
                "threshold" => options.threshold = Some(take(&mut args)?),
                "lexicon" => options.lexicon = Some(take(&mut args)?),
                "precision" => options.precision = Some(take(&mut args)?),
                "source-root" => options.source_root = Some(take(&mut args)?),
                "target-root" => options.target_root = Some(take(&mut args)?),
                "root" => options.root = Some(take(&mut args)?),
                "seed" => options.seed = Some(take(&mut args)?),
                "gold" => options.gold = Some(take(&mut args)?),
                "cases" => options.cases = Some(take(&mut args)?),
                "budget-ms" => options.budget_ms = Some(take(&mut args)?),
                "repro-dir" => options.repro_dir = Some(take(&mut args)?),
                "addr" => options.addr = Some(take(&mut args)?),
                "shards" => options.shards = Some(take(&mut args)?),
                "max-schemas" => options.max_schemas = Some(take(&mut args)?),
                "queue-depth" => options.queue_depth = Some(take(&mut args)?),
                "deadline-ms" => options.deadline_ms = Some(take(&mut args)?),
                "data-dir" => options.data_dir = Some(take(&mut args)?),
                "fsync-batch-ms" => options.fsync_batch_ms = Some(take(&mut args)?),
                "all" => options.all = true,
                "total-only" => options.total_only = true,
                "emit-gold" => options.emit_gold = true,
                "trace" => options.trace = true,
                "explain" => options.explain = Some(take(&mut args)?),
                "index" => options.index = Some(take(&mut args)?),
                "thesaurus" => options.thesaurus = Some(take(&mut args)?),
                "matrix-csv" => options.matrix_csv = Some(take(&mut args)?),
                other => return Err(err(format!("unknown option --{other}"))),
            }
        } else {
            positional.push(arg.to_owned());
        }
    }
    Ok((positional, options))
}

fn one_positional(mut positional: Vec<String>, sub: &str) -> Result<[String; 1], ArgError> {
    if positional.len() != 1 {
        return Err(err(format!(
            "{sub} needs exactly one schema file, got {}",
            positional.len()
        )));
    }
    Ok([positional.remove(0)])
}

fn two_positional(positional: Vec<String>, sub: &str) -> Result<[String; 2], ArgError> {
    let [a, b]: [String; 2] = positional
        .try_into()
        .map_err(|v: Vec<String>| err(format!("{sub} needs SOURCE and TARGET, got {}", v.len())))?;
    Ok([a, b])
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmatch_core::model::Weights;

    #[test]
    fn parses_match_with_defaults() {
        let cmd = parse(["match", "a.xsd", "b.xsd"]).unwrap();
        let Command::Match {
            source,
            target,
            options,
        } = cmd
        else {
            panic!()
        };
        assert_eq!(source, "a.xsd");
        assert_eq!(target, "b.xsd");
        assert_eq!(options.algorithm, AlgorithmChoice::Hybrid);
        assert_eq!(options.config, MatchConfig::default());
        assert_eq!(options.threshold, None);
    }

    #[test]
    fn parses_all_match_options() {
        let cmd = parse([
            "match",
            "a.xsd",
            "b.xsd",
            "--algorithm",
            "linguistic",
            "--weights",
            "0.25,0.25,0.25,0.25",
            "--child-threshold",
            "0.6",
            "--threshold=0.7",
            "--lexicon",
            "fuzzy",
            "--source-root",
            "PO",
            "--target-root=Order",
            "--total-only",
        ])
        .unwrap();
        let Command::Match { options, .. } = cmd else {
            panic!()
        };
        assert_eq!(options.algorithm, AlgorithmChoice::Linguistic);
        assert_eq!(
            options.config.weights,
            Weights::new(0.25, 0.25, 0.25, 0.25).unwrap()
        );
        assert_eq!(options.config.threshold, 0.6);
        assert_eq!(options.threshold, Some(0.7));
        assert_eq!(options.config.lexicon, LexiconMode::FuzzyOnly);
        assert_eq!(options.source_root.as_deref(), Some("PO"));
        assert_eq!(options.target_root.as_deref(), Some("Order"));
        assert!(options.total_only);
        assert!(!options.trace);
    }

    #[test]
    fn parses_precision_flag() {
        use qmatch_core::matrix::Precision;
        let cmd = parse(["match", "a.xsd", "b.xsd", "--precision", "f32"]).unwrap();
        let Command::Match { options, .. } = cmd else {
            panic!()
        };
        assert_eq!(options.config.precision, Precision::F32);
        // Default stays f64; match-many takes it as a session-wide knob.
        let cmd = parse(["match-many", "p.tsv", "--precision=f64"]).unwrap();
        let Command::MatchMany { options, .. } = cmd else {
            panic!()
        };
        assert_eq!(options.config.precision, Precision::F64);
        // Unknown names fail through the typed ConfigError path.
        assert!(parse(["match", "a", "b", "--precision", "f16"]).is_err());
        // serve takes it as the session-wide default (the precision= query
        // parameter still wins per request); inspect has none.
        let cmd = parse(["serve", "--precision", "f32"]).unwrap();
        let Command::Serve { options, .. } = cmd else {
            panic!()
        };
        assert_eq!(options.config.precision, Precision::F32);
        assert!(parse(["inspect", "a.xsd", "--precision", "f32"]).is_err());
    }

    #[test]
    fn parses_index_flag() {
        let cmd = parse(["match-many", "p.tsv", "--index", "force"]).unwrap();
        let Command::MatchMany { options, .. } = cmd else {
            panic!()
        };
        assert_eq!(options.index, IndexPolicy::Force);
        let cmd = parse(["evaluate", "a", "b", "--gold", "g.tsv", "--index=auto"]).unwrap();
        let Command::Evaluate { options, .. } = cmd else {
            panic!()
        };
        assert_eq!(options.index, IndexPolicy::Auto);
        // Off by default, so plain runs stay exhaustive.
        let cmd = parse(["match", "a.xsd", "b.xsd"]).unwrap();
        let Command::Match { options, .. } = cmd else {
            panic!()
        };
        assert_eq!(options.index, IndexPolicy::Off);
        // Junk values and non-session subcommands are rejected.
        assert!(parse(["match-many", "p.tsv", "--index", "banana"]).is_err());
        assert!(parse(["inspect", "a.xsd", "--index", "auto"]).is_err());
        assert!(parse(["serve", "--index", "force"]).is_err());
    }

    #[test]
    fn parses_trace_flag() {
        let cmd = parse(["match", "a.xsd", "b.xsd", "--trace"]).unwrap();
        let Command::Match { options, .. } = cmd else {
            panic!()
        };
        assert!(options.trace);
        // Session-running subcommands accept it; the others reject it.
        assert!(parse(["match-many", "p.tsv", "--trace"]).is_ok());
        assert!(parse(["evaluate", "a", "b", "--gold", "g.tsv", "--trace"]).is_ok());
        assert!(parse(["inspect", "a.xsd", "--trace"]).is_err());
        assert!(parse(["serve", "--trace"]).is_err());
    }

    #[test]
    fn parses_the_batch_subcommand() {
        let cmd = parse([
            "match-many",
            "pairs.tsv",
            "--lexicon",
            "exact",
            "--total-only",
        ])
        .unwrap();
        let Command::MatchMany { pairs, options } = cmd else {
            panic!()
        };
        assert_eq!(pairs, "pairs.tsv");
        assert_eq!(options.config.lexicon, LexiconMode::ExactOnly);
        assert!(options.total_only);
    }

    #[test]
    fn batch_subcommand_rejects_per_pair_options() {
        assert!(parse(["match-many"]).is_err());
        assert!(parse(["match-many", "a.tsv", "b.tsv"]).is_err());
        assert!(parse(["match-many", "p.tsv", "--algorithm", "linguistic"]).is_err());
        assert!(parse(["match-many", "p.tsv", "--explain", "PO/Qty"]).is_err());
        assert!(parse(["match-many", "p.tsv", "--emit-gold"]).is_err());
        assert!(parse(["match-many", "p.tsv", "--matrix-csv", "m.csv"]).is_err());
        assert!(parse(["match-many", "p.tsv", "--source-root", "PO"]).is_err());
    }

    #[test]
    fn parses_inspect_and_evaluate() {
        assert_eq!(
            parse(["inspect", "a.xsd", "--root", "PO"]).unwrap(),
            Command::Inspect {
                schema: "a.xsd".into(),
                root: Some("PO".into())
            }
        );
        let cmd = parse(["evaluate", "a.xsd", "b.xsd", "--gold", "g.tsv"]).unwrap();
        let Command::Evaluate { gold, .. } = cmd else {
            panic!()
        };
        assert_eq!(gold, "g.tsv");
    }

    #[test]
    fn parses_generate() {
        assert_eq!(
            parse(["generate", "s.xsd"]).unwrap(),
            Command::Generate {
                schema: "s.xsd".into(),
                root: None,
                seed: 7
            }
        );
        assert_eq!(
            parse(["generate", "s.xsd", "--seed", "42", "--root", "PO"]).unwrap(),
            Command::Generate {
                schema: "s.xsd".into(),
                root: Some("PO".into()),
                seed: 42
            }
        );
        assert!(parse(["generate", "s.xsd", "--seed", "minus-one"]).is_err());
    }

    #[test]
    fn parses_validate() {
        assert_eq!(
            parse(["validate", "s.xsd", "i.xml"]).unwrap(),
            Command::Validate {
                schema: "s.xsd".into(),
                instance: "i.xml".into()
            }
        );
        assert!(parse(["validate", "s.xsd"]).is_err());
        assert!(parse(["validate", "s.xsd", "i.xml", "--algorithm", "hybrid"]).is_err());
    }

    #[test]
    fn parses_fuzz() {
        assert_eq!(
            parse(["fuzz"]).unwrap(),
            Command::Fuzz {
                seed: 0,
                cases: 1000,
                budget_ms: None,
                repro_dir: "fuzz-repro".into(),
            }
        );
        assert_eq!(
            parse([
                "fuzz",
                "--seed",
                "42",
                "--cases=20000",
                "--budget-ms",
                "60000",
                "--repro-dir",
                "out/repro",
            ])
            .unwrap(),
            Command::Fuzz {
                seed: 42,
                cases: 20000,
                budget_ms: Some(60000),
                repro_dir: "out/repro".into(),
            }
        );
        assert!(parse(["fuzz", "extra.xsd"]).is_err());
        assert!(parse(["fuzz", "--seed", "minus-one"]).is_err());
        assert!(parse(["fuzz", "--cases", "many"]).is_err());
        assert!(parse(["fuzz", "--root", "PO"]).is_err());
        assert!(parse(["fuzz", "--algorithm", "hybrid"]).is_err());
    }

    #[test]
    fn parses_serve() {
        let cmd = parse(["serve"]).unwrap();
        let Command::Serve {
            addr,
            shards,
            max_schemas,
            queue_depth,
            deadline_ms,
            data_dir,
            fsync_batch_ms,
            options,
        } = cmd
        else {
            panic!()
        };
        assert_eq!(addr, "127.0.0.1:8080");
        assert_eq!(shards, 0);
        assert_eq!(max_schemas, 64);
        assert_eq!(queue_depth, 512);
        assert_eq!(deadline_ms, 30_000);
        assert_eq!(data_dir, None);
        assert_eq!(fsync_batch_ms, 0, "per-write durability by default");
        assert_eq!(options.config, MatchConfig::default());
        let cmd = parse([
            "serve",
            "--addr",
            "0.0.0.0:9000",
            "--shards=4",
            "--max-schemas",
            "8",
            "--queue-depth",
            "16",
            "--deadline-ms=2500",
            "--data-dir",
            "/var/lib/qmatch",
            "--fsync-batch-ms=25",
            "--lexicon",
            "exact",
        ])
        .unwrap();
        let Command::Serve {
            addr,
            shards,
            max_schemas,
            queue_depth,
            deadline_ms,
            data_dir,
            fsync_batch_ms,
            options,
        } = cmd
        else {
            panic!()
        };
        assert_eq!(addr, "0.0.0.0:9000");
        assert_eq!(shards, 4);
        assert_eq!(max_schemas, 8);
        assert_eq!(queue_depth, 16);
        assert_eq!(deadline_ms, 2500);
        assert_eq!(data_dir.as_deref(), Some("/var/lib/qmatch"));
        assert_eq!(fsync_batch_ms, 25);
        assert_eq!(options.config.lexicon, LexiconMode::ExactOnly);
    }

    #[test]
    fn serve_rejects_per_request_options() {
        assert!(parse(["serve", "extra.xsd"]).is_err());
        assert!(
            parse(["serve", "--threads", "2"]).is_err(),
            "no --threads alias"
        );
        assert!(parse(["serve", "--shards", "many"]).is_err());
        assert!(parse(["serve", "--max-schemas", "0"]).is_err());
        assert!(parse(["serve", "--queue-depth", "0"]).is_err());
        assert!(parse(["serve", "--deadline-ms", "0"]).is_err());
        assert!(parse(["serve", "--deadline-ms", "soon"]).is_err());
        assert!(parse(["serve", "--algorithm", "linguistic"]).is_err());
        assert!(parse(["serve", "--threshold", "0.5"]).is_err());
        assert!(parse(["serve", "--explain", "PO/Qty"]).is_err());
        assert!(parse(["serve", "--total-only"]).is_err());
        assert!(parse(["serve", "--source-root", "PO"]).is_err());
        assert!(parse(["serve", "--fsync-batch-ms", "soon"]).is_err());
        // Group commit without a durable registry is a configuration
        // mistake, not a silent no-op.
        assert!(parse(["serve", "--fsync-batch-ms", "25"]).is_err());
        assert!(parse(["serve", "--data-dir", "d", "--fsync-batch-ms", "0"]).is_ok());
    }

    #[test]
    fn parses_diff() {
        assert_eq!(
            parse(["diff", "old.xsd", "new.xsd"]).unwrap(),
            Command::Diff {
                old: "old.xsd".into(),
                new: "new.xsd".into(),
                root: None
            }
        );
        assert_eq!(
            parse(["diff", "old.xsd", "new.xsd", "--root", "PO"]).unwrap(),
            Command::Diff {
                old: "old.xsd".into(),
                new: "new.xsd".into(),
                root: Some("PO".into())
            }
        );
        assert!(parse(["diff", "only-one.xsd"]).is_err());
        assert!(parse(["diff", "a.xsd", "b.xsd", "--algorithm", "hybrid"]).is_err());
        assert!(parse(["diff", "a.xsd", "b.xsd", "--trace"]).is_err());
    }

    #[test]
    fn help_variants() {
        for h in ["help", "--help", "-h"] {
            assert_eq!(parse([h]).unwrap(), Command::Help);
        }
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse([] as [&str; 0]).is_err());
        assert!(parse(["frobnicate"]).is_err());
        assert!(parse(["match", "only-one.xsd"]).is_err());
        assert!(parse(["match", "a", "b", "c"]).is_err());
        assert!(parse(["inspect"]).is_err());
        assert!(parse(["evaluate", "a", "b"]).is_err(), "--gold is required");
        assert!(parse(["match", "a", "b", "--algorithm", "quantum"]).is_err());
        assert!(parse(["match", "a", "b", "--weights", "1,2"]).is_err());
        assert!(parse(["match", "a", "b", "--weights", "0.5,0.5,0.5,0.5"]).is_err());
        assert!(parse(["match", "a", "b", "--threshold", "1.5"]).is_err());
        assert!(parse(["match", "a", "b", "--threshold"]).is_err());
        assert!(parse(["match", "a", "b", "--lexicon", "psychic"]).is_err());
        assert!(parse(["match", "a", "b", "--no-such-flag"]).is_err());
        assert!(parse(["inspect", "a", "--algorithm", "hybrid"]).is_err());
    }

    #[test]
    fn weights_accept_unit_sum_variants() {
        let cmd = parse(["match", "a", "b", "--weights", "0.4, 0.1, 0.2, 0.3"]).unwrap();
        let Command::Match { options, .. } = cmd else {
            panic!()
        };
        assert!((options.config.weights.label - 0.4).abs() < 1e-12);
    }

    #[test]
    fn parses_evaluate_all() {
        let cmd = parse(["evaluate", "--all"]).unwrap();
        let Command::EvaluateAll { options } = cmd else {
            panic!()
        };
        assert_eq!(options.config, MatchConfig::default());
        // Session options thread through; --trace is allowed.
        let cmd = parse(["evaluate", "--all", "--lexicon", "exact", "--trace"]).unwrap();
        let Command::EvaluateAll { options } = cmd else {
            panic!()
        };
        assert_eq!(options.config.lexicon, LexiconMode::ExactOnly);
        assert!(options.trace);
        // No schema files, no --gold, no per-pair or algorithm knobs.
        assert!(parse(["evaluate", "--all", "a.xsd", "b.xsd"]).is_err());
        assert!(parse(["evaluate", "--all", "--gold", "g.tsv"]).is_err());
        assert!(parse(["evaluate", "--all", "--algorithm", "cupid"]).is_err());
        assert!(parse(["evaluate", "--all", "--threshold", "0.5"]).is_err());
        assert!(parse(["evaluate", "--all", "--emit-gold"]).is_err());
        // --all stays an evaluate-only flag.
        assert!(parse(["match", "a.xsd", "b.xsd", "--all"]).is_err());
        assert!(parse(["match-many", "p.tsv", "--all"]).is_err());
        assert!(parse(["inspect", "a.xsd", "--all"]).is_err());
        assert!(parse(["serve", "--all"]).is_err());
    }

    #[test]
    fn tree_edit_has_one_spelling() {
        let cmd = parse(["match", "a.xsd", "b.xsd", "--algorithm", "tree-edit"]).unwrap();
        let Command::Match { options, .. } = cmd else {
            panic!()
        };
        assert_eq!(options.algorithm, AlgorithmChoice::TreeEdit);
        assert!(parse(["match", "a.xsd", "b.xsd", "--algorithm", "treeedit"]).is_err());
    }

    #[test]
    fn algorithm_names_round_trip() {
        for (choice, name) in [
            (AlgorithmChoice::Hybrid, "hybrid"),
            (AlgorithmChoice::Linguistic, "linguistic"),
            (AlgorithmChoice::Structural, "structural"),
            (AlgorithmChoice::Cupid, "cupid"),
            (AlgorithmChoice::TreeEdit, "tree-edit"),
        ] {
            assert_eq!(choice.name(), name);
            let cmd = parse(["match", "a", "b", "--algorithm", name]).unwrap();
            let Command::Match { options, .. } = cmd else {
                panic!()
            };
            assert_eq!(options.algorithm, choice);
        }
    }
}
