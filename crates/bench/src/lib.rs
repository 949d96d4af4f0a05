//! Experiment harness: one module per table/figure/claim of the paper.
//!
//! Every experiment returns a structured result plus a formatted report
//! so the `repro` binary and the test suite share one implementation.
//! The experiment index lives in DESIGN.md; measured-vs-published
//! numbers are recorded in EXPERIMENTS.md.

pub mod experiments;
pub mod svg;
