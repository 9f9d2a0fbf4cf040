#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Deterministic, structure-aware fuzzing harness for the QMatch ingestion
//! pipeline.
//!
//! No external fuzzing engine: case generation is driven by the in-repo
//! [`qmatch_prng::SmallRng`], so any failure reproduces from `--seed` and
//! the case index alone, on any platform. Each run mixes three input modes:
//!
//! - **valid** (~40%): structure-aware generated schemas ([`gen`]) that
//!   must pass the round-trip and match-equivalence oracles;
//! - **byte-mutated** (~40%): valid schemas corrupted at the byte level
//!   ([`mutate::mutate_bytes`]) that must fail cleanly or still pass;
//! - **structured** (~20%): schema-aware corruptions
//!   ([`mutate::mutate_structure`]) that target the XSD layer.
//!
//! Every [`LABEL_ORACLE_EVERY`]th case also runs the label-table oracle
//! ([`oracle::check_labels`]) on random identifier lists, from an RNG
//! stream of its own so the schema cases are the same with or without it.
//!
//! The oracles live in [`oracle`]; failing inputs are shrunk by
//! [`minimize`] and written to a repro directory.

pub mod gen;
pub mod minimize;
pub mod mutate;
pub mod oracle;

use oracle::{check_case, check_labels, CaseOutcome, OracleFailure};
use qmatch_core::{MatchConfig, MatchSession};
use qmatch_prng::SmallRng;
use qmatch_xml::IngestLimits;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Odd constant (golden-ratio based) decorrelating per-case seeds.
const CASE_SEED_MIX: u64 = 0x9E37_79B9_7F4A_7C15;
/// Separates the label oracle's RNG stream from the schema cases'.
const LABEL_SEED_MIX: u64 = 0xD1B5_4A32_D192_ED03;
/// The label-table oracle runs on every case index divisible by this.
pub const LABEL_ORACLE_EVERY: u64 = 4;

/// A fuzzing run's configuration.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Master seed; every case derives its own RNG from this and its index.
    pub seed: u64,
    /// Number of cases to attempt.
    pub cases: u64,
    /// Optional wall-clock budget. When set, the run stops early once
    /// exceeded — which makes the summary line timing-dependent, so CI
    /// determinism checks should leave it unset.
    pub budget_ms: Option<u64>,
    /// Where to write minimized repro files (created on first failure).
    pub repro_dir: PathBuf,
    /// Ingestion limits applied to every case.
    pub limits: IngestLimits,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0,
            cases: 1000,
            budget_ms: None,
            repro_dir: PathBuf::from("fuzz-repro"),
            limits: IngestLimits::default(),
        }
    }
}

/// One recorded failure.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Index of the failing case.
    pub case: u64,
    /// Which oracle failed, with its message.
    pub failure: OracleFailure,
    /// The minimized failing input (for the label-table oracle, its mode
    /// and identifier lists).
    pub minimized: String,
    /// Repro file path, if writing it succeeded.
    pub repro_path: Option<PathBuf>,
}

/// Aggregated result of a run.
#[derive(Debug, Clone, Default)]
pub struct FuzzSummary {
    /// The master seed the run used.
    pub seed: u64,
    /// Cases requested.
    pub cases: u64,
    /// Cases actually executed (less than `cases` only under `--budget-ms`).
    pub executed: u64,
    /// Cases per input mode.
    pub valid: u64,
    /// Byte-mutated cases.
    pub mutated: u64,
    /// Structure-mutated cases.
    pub structured: u64,
    /// Cases whose input parsed into a schema.
    pub parse_ok: u64,
    /// Cases rejected with a typed error.
    pub parse_err: u64,
    /// Round-trip oracle executions.
    pub round_trips: u64,
    /// Match-equivalence oracle executions.
    pub match_checks: u64,
    /// Label-table oracle executions.
    pub label_checks: u64,
    /// Panics caught.
    pub crashers: u64,
    /// Non-panic oracle violations.
    pub violations: u64,
    /// Details of every failure, in case order.
    pub failures: Vec<Failure>,
}

impl FuzzSummary {
    /// The deterministic one-line summary (no timing — that goes to stderr).
    pub fn line(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "qmatch-fuzz: seed={} cases={} executed={} valid={} mutated={} structured={} \
             parse_ok={} parse_err={} round_trips={} match_checks={} label_checks={} crashers={} \
             violations={}",
            self.seed,
            self.cases,
            self.executed,
            self.valid,
            self.mutated,
            self.structured,
            self.parse_ok,
            self.parse_err,
            self.round_trips,
            self.match_checks,
            self.label_checks,
            self.crashers,
            self.violations
        );
        s
    }

    /// True when no crasher or violation was observed.
    pub fn is_clean(&self) -> bool {
        self.crashers == 0 && self.violations == 0
    }
}

/// The input modes a case can take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Valid,
    ByteMutated,
    Structured,
}

fn pick_mode(rng: &mut SmallRng) -> Mode {
    match rng.gen_range(0..10u32) {
        0..=3 => Mode::Valid,
        4..=7 => Mode::ByteMutated,
        _ => Mode::Structured,
    }
}

/// Builds the input for case `i` of a run seeded with `seed`. Exposed so a
/// failure can be regenerated without re-running the whole campaign.
pub fn case_input(seed: u64, i: u64) -> String {
    let mut rng = case_rng(seed, i);
    let mode = pick_mode(&mut rng);
    build_input(&mut rng, mode)
}

fn case_rng(seed: u64, i: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ i.wrapping_mul(CASE_SEED_MIX))
}

fn build_input(rng: &mut SmallRng, mode: Mode) -> String {
    match mode {
        Mode::Valid => gen::gen_schema(rng).text,
        Mode::ByteMutated => {
            let generated = gen::gen_schema(rng);
            mutate::mutate_bytes(rng, &generated.text)
        }
        Mode::Structured => {
            let generated = gen::gen_schema(rng);
            mutate::mutate_structure(rng, &generated)
        }
    }
}

/// Runs a fuzzing campaign. Prints nothing; the caller decides how to
/// report the returned [`FuzzSummary`].
pub fn run(config: &FuzzConfig) -> FuzzSummary {
    let match_config = MatchConfig::builder()
        .build()
        .expect("the default match configuration is valid");
    let mut session = MatchSession::new(match_config);
    let mut summary = FuzzSummary {
        seed: config.seed,
        cases: config.cases,
        ..FuzzSummary::default()
    };
    let started = Instant::now();

    // Expected panics (the no-panic oracle catches them) would spam stderr
    // through the default hook; silence it for the duration of the run.
    let previous_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    for i in 0..config.cases {
        if let Some(budget) = config.budget_ms {
            if started.elapsed().as_millis() as u64 > budget {
                break;
            }
        }
        let mut rng = case_rng(config.seed, i);
        let mode = pick_mode(&mut rng);
        match mode {
            Mode::Valid => summary.valid += 1,
            Mode::ByteMutated => summary.mutated += 1,
            Mode::Structured => summary.structured += 1,
        }
        let input = build_input(&mut rng, mode);
        summary.executed += 1;

        match check_case(&input, &mut session, &config.limits) {
            Ok(outcome) => record_outcome(&mut summary, outcome),
            Err(failure) => {
                match failure {
                    OracleFailure::Panic(_) => summary.crashers += 1,
                    _ => summary.violations += 1,
                }
                let minimized = shrink(&input, &failure, &mut session, &config.limits);
                let repro_path =
                    write_repro(&config.repro_dir, config.seed, i, &failure, &minimized);
                summary.failures.push(Failure {
                    case: i,
                    failure,
                    minimized,
                    repro_path,
                });
            }
        }
        if i % LABEL_ORACLE_EVERY == 0 {
            let mut label_rng = SmallRng::seed_from_u64(
                config.seed ^ i.wrapping_mul(CASE_SEED_MIX) ^ LABEL_SEED_MIX,
            );
            summary.label_checks += 1;
            if let Err((failure, lists)) = check_labels(&mut label_rng) {
                match failure {
                    OracleFailure::Panic(_) => summary.crashers += 1,
                    _ => summary.violations += 1,
                }
                let repro_path = write_repro(&config.repro_dir, config.seed, i, &failure, &lists);
                summary.failures.push(Failure {
                    case: i,
                    failure,
                    minimized: lists,
                    repro_path,
                });
            }
        }
    }

    std::panic::set_hook(previous_hook);
    summary
}

fn record_outcome(summary: &mut FuzzSummary, outcome: CaseOutcome) {
    if outcome.parsed {
        summary.parse_ok += 1;
    } else {
        summary.parse_err += 1;
    }
    if outcome.round_tripped {
        summary.round_trips += 1;
    }
    if outcome.matched {
        summary.match_checks += 1;
    }
}

/// Shrinks a failing input while the same oracle keeps failing.
fn shrink(
    input: &str,
    failure: &OracleFailure,
    session: &mut MatchSession,
    limits: &IngestLimits,
) -> String {
    let tag = failure.tag();
    minimize::minimize(
        input,
        &mut |candidate: &str| matches!(check_case(candidate, session, limits), Err(f) if f.tag() == tag),
    )
}

fn write_repro(
    dir: &Path,
    seed: u64,
    case: u64,
    failure: &OracleFailure,
    minimized: &str,
) -> Option<PathBuf> {
    std::fs::create_dir_all(dir).ok()?;
    let path = dir.join(format!("{}-seed{}-case{}.xsd", failure.tag(), seed, case));
    let header = format!(
        "<!-- qmatch-fuzz repro: oracle={} seed={} case={}\n     regenerate: qmatch-fuzz --seed {} --cases {}\n     failure: {:?} -->\n",
        failure.tag(),
        seed,
        case,
        seed,
        case + 1,
        failure,
    );
    std::fs::write(&path, format!("{header}{minimized}")).ok()?;
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_run_is_deterministic_and_clean() {
        let config = FuzzConfig {
            seed: 42,
            cases: 150,
            repro_dir: std::env::temp_dir().join("qmatch-fuzz-test-repro"),
            ..FuzzConfig::default()
        };
        let a = run(&config);
        let b = run(&config);
        assert_eq!(a.line(), b.line());
        assert!(a.is_clean(), "failures: {:?}", a.failures);
        assert_eq!(a.executed, 150);
        // All three modes and all four oracles exercised.
        assert!(a.valid > 0 && a.mutated > 0 && a.structured > 0);
        assert!(a.round_trips > 0 && a.match_checks > 0 && a.parse_err > 0);
        assert_eq!(a.label_checks, 150_u64.div_ceil(LABEL_ORACLE_EVERY));
    }

    #[test]
    fn case_inputs_regenerate_identically() {
        assert_eq!(case_input(7, 3), case_input(7, 3));
        assert_ne!(case_input(7, 3), case_input(7, 4));
    }

    #[test]
    fn budget_stops_early() {
        let config = FuzzConfig {
            seed: 1,
            cases: u64::MAX / 2,
            budget_ms: Some(50),
            repro_dir: std::env::temp_dir().join("qmatch-fuzz-test-repro"),
            ..FuzzConfig::default()
        };
        let summary = run(&config);
        assert!(summary.executed < summary.cases);
    }

    #[test]
    fn summary_line_is_stable_format() {
        let summary = FuzzSummary {
            seed: 9,
            cases: 10,
            executed: 10,
            ..FuzzSummary::default()
        };
        let line = summary.line();
        assert!(line.starts_with("qmatch-fuzz: seed=9 cases=10 executed=10"));
        assert!(line.ends_with("crashers=0 violations=0"));
    }
}
