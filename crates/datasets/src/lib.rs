#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! The reconstructed evaluation corpus for the QMatch experiments.
//!
//! The paper evaluates on schemas from four domains (Table 1):
//!
//! | schema   | elements | max depth |
//! |----------|----------|-----------|
//! | PO1      | 10       | 3         |
//! | PO2      | 9        | 3         |
//! | Article  | 18       | 3         |
//! | Book     | 6        | 2         |
//! | DCMDItem | 38       | 2         |
//! | DCMDOrd  | 53       | 3         |
//! | PIR      | 231      | 6         |
//! | PDB      | 3753     | 7         |
//!
//! The original files were published only in a UMass-Lowell MS thesis that
//! is not retrievable, so this crate *reconstructs* them (see DESIGN.md §4):
//! [`corpus`] holds hand-written XSDs constrained to the published element
//! counts and depths (PO1 is the paper's Figure 1 verbatim), [`synth`]
//! generates the two protein schemas at their published scale with a known
//! ground truth, [`figures`] holds the Library/Human illustration schemas of
//! Figures 7/8, and [`gold`] curates the manually-determined real matches
//! (`R`) for every evaluated pair.

pub mod corpus;
pub mod drift;
pub mod figures;
pub mod gold;
pub mod instances;
pub mod stats;
pub mod synth;

pub use stats::{table1_rows, Table1Row};
