//! # cej-bench
//!
//! Reproduces the tables and figures of the paper's evaluation (Section VI)
//! and hosts the one CI gate that has not yet moved into a test.
//!
//! * **`paper_figs`** (`src/bin/paper_figs.rs`): one table-driven binary over
//!   Figures 8-17, Table II and the cost-model validation; figure names are
//!   its arguments, no argument runs all twelve.  Each entry prints the rows
//!   / series the paper reports and asserts nothing.  Input sizes are scaled
//!   down from the paper's server-scale runs (the paper's sizes are noted
//!   beside each entry); set the `CEJ_SCALE` environment variable to grow or
//!   shrink them (`CEJ_SCALE=2` doubles cardinalities).
//! * **`ivm_gate`** (`src/bin/ivm_gate.rs`): the delta-vs-recompute floor of
//!   incremental view maintenance, read against `ci/ivm_baseline.json`.
//!
//! Whether a change made the system *faster* is decided by the repo
//! benchmark under `benchmark/`, not here; invariants (byte-identity, recall,
//! q-error) are asserted by `cargo test`.
//!
//! The [`harness`] module provides the shared timing and printing helpers;
//! [`experiments`] provides the parameterised experiment bodies shared by
//! related figures (e.g. Figures 15-17 all call
//! [`experiments::scan_vs_probe`]); [`report`] emits the machine-readable
//! JSON summary `ivm_gate` writes and reads back.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod experiments;
pub mod harness;
pub mod report;
