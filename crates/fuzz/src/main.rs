//! CLI for the deterministic fuzzing harness.
//!
//! The summary line (stdout) is a pure function of `--seed` and `--cases`;
//! timing goes to stderr so two runs with the same arguments are
//! byte-identical on stdout. Exit status: 0 clean, 1 on crashers or oracle
//! violations, 2 on argument errors.

#![forbid(unsafe_code)]

use qmatch_fuzz::{run, FuzzConfig};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "\
usage: qmatch-fuzz [--seed N] [--cases N] [--budget-ms N] [--repro-dir PATH]

Deterministic structure-aware fuzzer for the QMatch ingestion pipeline.

options:
  --seed N        master seed (default 0); every case derives from it
  --cases N       number of cases to run (default 1000)
  --budget-ms N   optional wall-clock budget; stops early when exceeded
                  (makes the summary timing-dependent)
  --repro-dir P   directory for minimized repro files (default fuzz-repro)
";

fn parse_args(args: &[String]) -> Result<FuzzConfig, String> {
    let mut config = FuzzConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--seed" => {
                config.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed must be an unsigned integer".to_owned())?;
            }
            "--cases" => {
                config.cases = value("--cases")?
                    .parse()
                    .map_err(|_| "--cases must be an unsigned integer".to_owned())?;
            }
            "--budget-ms" => {
                config.budget_ms = Some(
                    value("--budget-ms")?
                        .parse()
                        .map_err(|_| "--budget-ms must be an unsigned integer".to_owned())?,
                );
            }
            "--repro-dir" => {
                config.repro_dir = value("--repro-dir")?.into();
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(config)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_args(&args) {
        Ok(config) => config,
        Err(message) => {
            if message.is_empty() {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {message}");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    let started = Instant::now();
    let summary = run(&config);
    println!("{}", summary.line());
    eprintln!(
        "qmatch-fuzz: finished in {:.1}s",
        started.elapsed().as_secs_f64()
    );
    for failure in &summary.failures {
        eprintln!(
            "qmatch-fuzz: case {} failed oracle {}: {:?}{}",
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
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
