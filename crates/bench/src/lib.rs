//! Experiment support for the dbph reproduction.
//!
//! The binaries in `src/bin/` regenerate every table/figure-equivalent
//! artifact of the paper, each printing its tables from a seed; the
//! Criterion benches in `benches/` cover the layer-level performance
//! claims, and `perfbench/` at the repository root measures a whole
//! encrypted session end to end. This
//! library crate only holds shared report formatting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;

pub use report::Table;
