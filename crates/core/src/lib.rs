#![warn(missing_docs)]
#![deny(unsafe_code)]

//! The paper's contribution: the QoM match taxonomy, the weight-based match
//! model, and the QMatch hybrid algorithm, together with the standalone
//! linguistic and structural matchers it is evaluated against.
//!
//! # Architecture
//!
//! - [`taxonomy`] — the qualitative grades of §2 (exact/relaxed per axis,
//!   total/partial coverage, and their combination into match categories).
//! - [`model`] — the quantitative weight model of §3 (Equations 1–6) and
//!   [`model::MatchConfig`].
//! - [`props`] — property-axis comparison (type lattice, occurrence
//!   constraints, order, nillable/default/fixed).
//! - [`matrix`] — the dense node-pair similarity matrix all algorithms emit,
//!   in either storage precision ([`matrix::Precision`]).
//! - [`arena`] — the session-owned buffer pool ([`arena::MatchArena`])
//!   reusing matrix and kernel-scratch allocations across matches.
//! - [`diff`] — deterministic tree diff between two schema revisions: a
//!   typed edit script ([`diff::EditOp`]) plus the per-node dirty set
//!   ([`diff::TreeDiff`]), printed by `qmatch diff`.
//! - [`algorithms`] — the engines behind [`algorithms::Algorithm`]:
//!   linguistic, structural, hybrid (Figure 3), full-fidelity CUPID,
//!   COMA-style composite, and a tree-edit-distance baseline (related work
//!   \[15\]).
//! - [`par`] — scoped-thread wave execution; a session's thread count
//!   (`QMATCH_THREADS` by default) selects how many workers each wave uses,
//!   and every count produces bit-identical matrices.
//! - [`intern`] — the label interner ([`intern::Symbol`]): case-folding and
//!   tokenization happen once per distinct label.
//! - [`session`] — the prepare-once/match-many API
//!   ([`session::MatchSession`], [`session::PreparedSchema`]) with the
//!   cross-schema label cache; [`session::MatchSession::run`] is the one
//!   entry point to every engine.
//! - [`topk`] — exact top-k ranking that runs the DP only on candidates
//!   whose root-QoM bound can still reach the top `k`.
//! - [`mapping`] — extraction of 1:1 correspondences from a matrix.
//! - [`trace`] — zero-dependency pipeline observability: [`trace::Span`]s
//!   per phase through a [`trace::TraceSink`] (see DESIGN.md §13).
//! - [`eval`] — Precision / Recall / Overall (§5).
//! - [`quality`] — the evaluation surface on top of [`eval`]: per-algorithm
//!   mapping extraction, typed gold-file parsing, and the unified quality
//!   report (DESIGN.md §18).
//! - [`tuning`] — the weight-determination sweep behind Table 2.
//! - [`report`] — plain-text tables for the experiment binaries.
//!
//! # Example
//!
//! ```
//! use qmatch_core::algorithms::Algorithm;
//! use qmatch_core::model::MatchConfig;
//! use qmatch_core::session::MatchSession;
//! use qmatch_xsd::SchemaTree;
//!
//! let library = SchemaTree::from_labels("Library", &[
//!     ("Library", None), ("Title", Some(0)), ("Book", Some(0)),
//!     ("number", Some(2)), ("character", Some(2)), ("Writer", Some(2)),
//! ]);
//! let session = MatchSession::new(MatchConfig::default());
//! let prepared = session.prepare(&library);
//! let outcome = session.run(&Algorithm::Hybrid, &prepared, &prepared).unwrap();
//! assert!((outcome.total_qom - 1.0).abs() < 1e-9, "self-match is total exact");
//! ```

pub mod algorithms;
pub mod arena;
pub mod diff;
pub mod eval;
pub mod explain;
pub mod index;
pub mod intern;
pub mod mapping;
pub mod matrix;
pub mod model;
pub mod par;
pub mod props;
pub mod quality;
pub mod report;
pub mod session;
pub mod taxonomy;
mod token_table;
pub mod topk;
pub mod trace;
pub mod tuning;

pub use algorithms::{
    mapping_generation_leaves, Aggregation, Algorithm, Component, CompositeError, LabelMatrix,
    MatchOutcome,
};
pub use arena::{ArenaStats, MatchArena};
pub use diff::{EditCounts, EditOp, TreeDiff};
pub use eval::{evaluate, GoldStandard, MatchQuality};
pub use explain::{explain_pair, Explanation};
pub use index::{
    pair_is_candidate, CandidateSet, CorpusIndex, IndexParams, IndexPolicy, Signature,
};
pub use intern::{Interner, Symbol};
pub use mapping::{extract_mapping, select, Correspondence, Mapping, Selection};
pub use matrix::{MatrixIndexError, Precision, SimMatrix};
pub use model::{ConfigError, CupidParams, LexiconMode, MatchConfig, MatchConfigBuilder, Weights};
pub use quality::{
    default_threshold, evaluate_algorithm, parse_gold, GoldParseError, QualityReport, QualityRow,
};
pub use session::{CacheStats, MatchSession, OwnedPreparedSchema, PreparedSchema};
pub use taxonomy::{AxisGrade, CoverageGrade, MatchCategory};
pub use topk::{Candidate, Topk, TopkWork};
pub use trace::{NullSink, Phase, PhaseStats, Recorder, Span, Trace, TraceSink};
