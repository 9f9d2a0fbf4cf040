//! `qmatch` — match, inspect, and evaluate XML Schemas from the command line.
//!
//! ```text
//! qmatch match  source.xsd target.xsd [options]   run a match algorithm
//! qmatch inspect schema.xsd [--root NAME]         print the schema tree
//! qmatch evaluate source.xsd target.xsd --gold g  score against real matches
//! ```
//!
//! Run `qmatch help` for the full option reference.

#![forbid(unsafe_code)]

mod args;
mod commands;
mod gold_file;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match args::parse(argv.iter().map(String::as_str)) {
        Ok(command) => match commands::run(command) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("error: {e}\n");
            eprintln!("{}", args::USAGE);
            ExitCode::from(2)
        }
    }
}
