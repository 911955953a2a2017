//! # choir-testbed — the experiment harness
//!
//! Reproduces every table and figure of the Choir paper's evaluation
//! (Sec. 9) on the simulated urban testbed: one module per figure under
//! [`experiments`], each returning a [`report::FigureReport`] with the
//! same rows/series the paper plots. The `figures` binary runs them from
//! the command line; the `accuracy` binary prints the estimator's
//! accuracy ledger ([`accuracy`]).

#![deny(missing_docs)]

pub mod ablations;
pub mod accuracy;
pub mod experiments;
pub mod report;
pub mod topology;

pub use experiments::{run_all, Scale};
pub use report::{FigureReport, Series};
pub use topology::{Location, Topology};
