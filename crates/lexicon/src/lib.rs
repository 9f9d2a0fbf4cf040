#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Linguistic substrate for QMatch: identifier tokenization, string
//! similarity metrics, and an embedded domain thesaurus.
//!
//! The paper's label-axis match grades (§2.1) are driven by a linguistic
//! matcher in the style of CUPID, which the authors back with a WordNet-like
//! resource. No offline WordNet is available in this environment, so this
//! crate ships a curated [`Thesaurus`] with the same interface semantics:
//!
//! - **exact** label match = identical string, or synonym/ontology match;
//! - **relaxed** label match = hypernym, acronym, or abbreviation match;
//! - anything else falls back to fuzzy string metrics.
//!
//! The built-in thesaurus ([`builtin::default_thesaurus`]) covers the
//! domains the paper evaluates: purchase orders / inventory, books and
//! publications, proteins, the library example (Fig. 7), and human anatomy
//! (Fig. 8), plus generic data-modeling vocabulary.
//!
//! # Example
//!
//! ```
//! use qmatch_lexicon::{NameMatcher, LabelGrade};
//!
//! let matcher = NameMatcher::with_default_thesaurus();
//! // "Unit Of Measure" vs the acronym "UOM": a relaxed match (paper §2.1).
//! let m = matcher.compare("Unit Of Measure", "UOM");
//! assert_eq!(m.grade, LabelGrade::Relaxed);
//! // "OrderNo" vs "OrderNo": exact.
//! assert_eq!(matcher.compare("OrderNo", "OrderNo").grade, LabelGrade::Exact);
//! ```

pub mod builtin;
pub mod join;
pub mod metrics;
pub mod name_match;
pub mod thesaurus;
pub mod thesaurus_file;
pub mod tokenize;

pub use name_match::{LabelGrade, NameMatch, NameMatcher, TokenForm};
pub use thesaurus::{Relation, Thesaurus, TokenEntry};
pub use thesaurus_file::{extend_from_text, parse_thesaurus};
pub use tokenize::{tokenize, Token};
