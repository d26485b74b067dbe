//! Reproducible workload generators for the dbph experiments.
//!
//! Every experiment binary (`crates/bench/src/bin/`) regenerates from
//! a 64-bit seed: generators here take a
//! [`dbph_crypto::DeterministicRng`] (or a raw seed) and produce the
//! same relations and query mixes on every platform.
//!
//! * [`hospital`] — the paper's §2 worked example: patients across
//!   three hospitals with flow distribution `(0.2, 0.3, 0.5)` and
//!   outcome ratio `(0.08 fatal, 0.92 healthy)`.
//! * [`employees`] — `Emp`-style relations at benchmark scales.
//! * [`distributions`] — categorical and Zipf samplers over an
//!   [`dbph_crypto::EntropySource`].
//! * [`queries`] — exact-select workloads drawn from a relation's own
//!   values (so selectivities are realistic).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod distributions;
pub mod employees;
pub mod hospital;
pub mod queries;

pub use distributions::{Categorical, Zipf};
pub use employees::EmployeeGen;
pub use hospital::HospitalConfig;
