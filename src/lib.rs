#![warn(missing_docs)]

//! QMatch — a hybrid match algorithm for XML Schemas (ICDE 2005 reproduction).
//!
//! This facade crate re-exports the public API of the workspace:
//!
//! - [`xml`] — from-scratch XML pull parser and DOM ([`qmatch_xml`]).
//! - [`xsd`] — XSD model, parser, and schema-tree compiler ([`qmatch_xsd`]).
//! - [`lexicon`] — tokenization, string metrics, and the domain thesaurus
//!   ([`qmatch_lexicon`]).
//! - [`core`] — the QoM taxonomy, weight model, and the linguistic,
//!   structural, and hybrid QMatch algorithms ([`qmatch_core`]).
//! - [`datasets`] — the reconstructed evaluation corpus and gold standards
//!   ([`qmatch_datasets`]).
//!
//! # Quickstart
//!
//! ```
//! use qmatch::prelude::*;
//!
//! let source = qmatch::datasets::corpus::po1();
//! let target = qmatch::datasets::corpus::po2();
//! let session = MatchSession::new(MatchConfig::default());
//! let (sp, tp) = (session.prepare(&source), session.prepare(&target));
//! let result = session.run(&Algorithm::Hybrid, &sp, &tp).unwrap();
//! assert!(result.total_qom > 0.0);
//! ```

pub use qmatch_core as core;
pub use qmatch_datasets as datasets;
pub use qmatch_lexicon as lexicon;
pub use qmatch_xml as xml;
pub use qmatch_xsd as xsd;

/// Convenient single-line import for the common workflow.
pub mod prelude {
    pub use qmatch_core::algorithms::{
        Aggregation, Algorithm, Component, CompositeError, MatchOutcome,
    };
    pub use qmatch_core::eval::{evaluate, MatchQuality};
    pub use qmatch_core::mapping::{extract_mapping, Mapping};
    pub use qmatch_core::model::{ConfigError, MatchConfig, MatchConfigBuilder, Weights};
    pub use qmatch_core::session::{MatchSession, PreparedSchema};
    pub use qmatch_core::trace::{NullSink, Phase, PhaseStats, Recorder, Span, Trace, TraceSink};
    pub use qmatch_xsd::{parse_schema, SchemaTree};
}
