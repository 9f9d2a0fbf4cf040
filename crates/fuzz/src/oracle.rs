//! The three fuzzing oracles.
//!
//! 1. **No-panic**: every stage of the pipeline (parse → resolve → compile →
//!    match) returns `Ok` or a typed `Err` — a panic is a crasher.
//! 2. **Round-trip**: a schema that parses must survive
//!    `write_schema` → re-parse and compare equal (the writer and parser
//!    agree on the object model).
//! 3. **Thread-count equivalence**: a hybrid `MatchSession::run` with the
//!    session pinned to four worker threads and again pinned to one must
//!    produce bit-identical similarity matrices and total QoM for the same
//!    pair. Four workers split every wave above the parallel cell
//!    threshold even on a one-CPU machine, so the threaded path is
//!    exercised wherever the oracle runs.
//! 4. **Label table**: a cold label build over random identifier lists
//!    ([`crate::gen::gen_identifiers`]) grades every distinct label pair
//!    bit-identically (grade and score bits) to scoring its tokens from
//!    scratch (`NameMatcher::compare_tokens`).

use qmatch_core::{Algorithm, LexiconMode, MatchConfig, MatchSession, PreparedSchema};
use qmatch_prng::SmallRng;
use qmatch_xml::IngestLimits;
use qmatch_xsd::{parse_schema_with_limits, write_schema, NodeId, Schema, SchemaTree};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Why a fuzz case failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OracleFailure {
    /// The pipeline panicked (message extracted from the payload).
    Panic(String),
    /// write → re-parse diverged from the original schema.
    RoundTrip(String),
    /// Four-thread and one-thread hybrid matching disagreed.
    ParSeqDivergence(String),
    /// A cold label build disagreed with the from-scratch label comparison.
    LabelDivergence(String),
}

impl OracleFailure {
    /// Short machine-readable tag (used in repro file names).
    pub fn tag(&self) -> &'static str {
        match self {
            OracleFailure::Panic(_) => "panic",
            OracleFailure::RoundTrip(_) => "roundtrip",
            OracleFailure::ParSeqDivergence(_) => "parseq",
            OracleFailure::LabelDivergence(_) => "labels",
        }
    }

    /// True for a crash (panic) as opposed to a semantic oracle violation.
    pub fn is_crash(&self) -> bool {
        matches!(self, OracleFailure::Panic(_))
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// What a passing case did, for the run statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CaseOutcome {
    /// The input parsed into a schema.
    pub parsed: bool,
    /// The round-trip oracle ran.
    pub round_tripped: bool,
    /// The match-equivalence oracle ran.
    pub matched: bool,
}

/// Trees above this size skip the match oracle (quadratic cost; the point
/// is equivalence, not throughput on big trees — the bench covers those).
const MATCH_ORACLE_MAX_NODES: usize = 96;

/// Runs all applicable oracles on one input. `Ok` carries which oracles ran;
/// `Err` is a crasher or violation. The match oracle re-pins `session`'s
/// thread count; its label cache carries over from case to case.
pub fn check_case(
    input: &str,
    session: &mut MatchSession,
    limits: &IngestLimits,
) -> Result<CaseOutcome, OracleFailure> {
    // Oracle 1: no stage may panic. Typed errors end the case cleanly.
    let parsed = catch_unwind(AssertUnwindSafe(|| parse_schema_with_limits(input, limits)));
    let schema: Schema = match parsed {
        Err(payload) => return Err(OracleFailure::Panic(panic_message(payload))),
        Ok(Err(_)) => return Ok(CaseOutcome::default()),
        Ok(Ok(schema)) => schema,
    };

    // Oracle 2 and 3 run inside catch_unwind too: a panic anywhere past
    // parsing is just as much a crasher.
    let rest = catch_unwind(AssertUnwindSafe(|| {
        let rendered = write_schema(&schema);
        let reparsed = match parse_schema_with_limits(&rendered, limits) {
            Ok(s) => s,
            Err(e) => {
                return Err(OracleFailure::RoundTrip(format!(
                    "rendered schema fails to re-parse: {e}"
                )))
            }
        };
        if reparsed != schema {
            return Err(OracleFailure::RoundTrip(
                "re-parsed schema differs from the original".to_owned(),
            ));
        }
        let mut outcome = CaseOutcome {
            parsed: true,
            round_tripped: true,
            matched: false,
        };

        let tree = match SchemaTree::compile_with_limits(&schema, limits) {
            Ok(t) => t,
            Err(_) => return Ok(outcome), // typed compile errors are clean
        };
        if tree.len() <= MATCH_ORACLE_MAX_NODES {
            let prepared = session.prepare(&tree);
            let mut self_match = |threads: usize| {
                session.set_threads(threads);
                session
                    .run(&Algorithm::Hybrid, &prepared, &prepared)
                    .expect("hybrid is infallible")
            };
            let (par, seq) = (self_match(4), self_match(1));
            if par.matrix != seq.matrix {
                return Err(OracleFailure::ParSeqDivergence(
                    "similarity matrices differ".to_owned(),
                ));
            }
            if par.total_qom.to_bits() != seq.total_qom.to_bits() {
                return Err(OracleFailure::ParSeqDivergence(format!(
                    "total QoM differs: four threads {} vs one thread {}",
                    par.total_qom, seq.total_qom
                )));
            }
            outcome.matched = true;
        }
        Ok(outcome)
    }));
    match rest {
        Err(payload) => Err(OracleFailure::Panic(panic_message(payload))),
        Ok(result) => result,
    }
}

/// Runs the label-table oracle on two identifier lists drawn from `rng`,
/// in a fresh session (every label pair is a cold miss) of a random
/// token-aligning lexicon mode, pinned to four worker threads. On failure
/// the message names the label pair; the lists are returned alongside for
/// the repro.
pub fn check_labels(rng: &mut SmallRng) -> Result<(), (OracleFailure, String)> {
    let counts = (rng.gen_range(1..=32usize), rng.gen_range(1..=32usize));
    let source = crate::gen::gen_identifiers(rng, counts.0);
    let target = crate::gen::gen_identifiers(rng, counts.1);
    let mode = if rng.gen_bool(0.5) {
        LexiconMode::Full
    } else {
        LexiconMode::FuzzyOnly
    };
    let tree = |name: &str, labels: &[String]| {
        let entries: Vec<(&str, Option<usize>)> = labels
            .iter()
            .enumerate()
            .map(|(i, label)| (label.as_str(), (i > 0).then_some(0)))
            .collect();
        SchemaTree::from_labels(name, &entries)
    };
    let config = MatchConfig::builder()
        .lexicon(mode)
        .build()
        .expect("a lexicon mode alone is a valid configuration");
    let mut session = MatchSession::new(config);
    session.set_threads(4);
    let (sp, tp) = (
        session.prepare(tree("source", &source)),
        session.prepare(tree("target", &target)),
    );
    let repro = || format!("{mode:?}\nsource: {source:?}\ntarget: {target:?}\n");
    let check = |session: &MatchSession, sp: &PreparedSchema, tp: &PreparedSchema| {
        let built = catch_unwind(AssertUnwindSafe(|| session.label_matrix(sp, tp)));
        let labels = match built {
            Ok(labels) => labels,
            Err(payload) => return Err((OracleFailure::Panic(panic_message(payload)), repro())),
        };
        let (rows, cols) = (representatives(sp), representatives(tp));
        // The reference reads each distinct label's tokens from the
        // session interner by symbol.
        session.with_interner(|interner| {
            for (i, &x) in rows.iter().enumerate() {
                for (j, &y) in cols.iter().enumerate() {
                    let a = interner.tokens(sp.distinct_symbols()[i]);
                    let b = interner.tokens(tp.distinct_symbols()[j]);
                    let (got, want) = (labels.get(x, y), session.matcher().compare_tokens(a, b));
                    if got.grade != want.grade || got.score.to_bits() != want.score.to_bits() {
                        let message =
                            format!("{a:?} vs {b:?}: table {got:?}, from scratch {want:?}");
                        return Err((OracleFailure::LabelDivergence(message), repro()));
                    }
                }
            }
            Ok(())
        })
    };
    // A cold build of every pair.
    check(&session, &sp, &tp)?;
    // A partially warm one: source × a prefix of the target first, then
    // source × the whole target, whose rows then miss only the rest.
    let mut warming = MatchSession::new(config);
    warming.set_threads(4);
    let cut = rng.gen_range(1..=target.len());
    let prefix = warming.prepare(tree("target", &target[..cut]));
    let (sp, tp) = (
        warming.prepare(tree("source", &source)),
        warming.prepare(tree("target", &target)),
    );
    check(&warming, &sp, &prefix)?;
    check(&warming, &sp, &tp)
}

/// One node per distinct label, in the prepared schema's distinct order.
fn representatives(prepared: &PreparedSchema) -> Vec<NodeId> {
    let mut seen = HashSet::new();
    prepared
        .tree()
        .iter()
        .map(|(id, _)| id)
        .filter(|&id| seen.insert(prepared.symbol(id)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmatch_core::MatchConfig;

    fn session() -> MatchSession {
        MatchSession::new(MatchConfig::default())
    }

    #[test]
    fn valid_schema_passes_all_oracles() {
        let src = r#"<xs:schema xmlns:xs="x">
          <xs:element name="PO"><xs:complexType><xs:sequence>
            <xs:element name="OrderNo" type="xs:integer"/>
            <xs:element name="ShipTo" type="xs:string"/>
          </xs:sequence></xs:complexType></xs:element>
        </xs:schema>"#;
        let outcome = check_case(src, &mut session(), &IngestLimits::default()).unwrap();
        assert!(outcome.parsed && outcome.round_tripped && outcome.matched);
    }

    #[test]
    fn clean_parse_errors_are_not_failures() {
        let outcome =
            check_case("<not-a-schema/>", &mut session(), &IngestLimits::default()).unwrap();
        assert!(!outcome.parsed);
        let outcome = check_case("<<<", &mut session(), &IngestLimits::default()).unwrap();
        assert!(!outcome.parsed);
    }

    #[test]
    fn failure_tags_are_stable() {
        assert_eq!(OracleFailure::Panic("p".into()).tag(), "panic");
        assert_eq!(OracleFailure::RoundTrip("r".into()).tag(), "roundtrip");
        assert_eq!(OracleFailure::ParSeqDivergence("d".into()).tag(), "parseq");
        assert_eq!(OracleFailure::LabelDivergence("l".into()).tag(), "labels");
        assert!(OracleFailure::Panic("p".into()).is_crash());
        assert!(!OracleFailure::RoundTrip("r".into()).is_crash());
    }

    #[test]
    fn random_identifier_lists_pass_the_label_oracle() {
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..40 {
            assert_eq!(check_labels(&mut rng), Ok(()));
        }
    }
}
