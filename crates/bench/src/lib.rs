//! # cej-bench
//!
//! Reproduces the tables and figures of the paper's evaluation (Section VI).
//!
//! * **`paper_figs`** (`src/bin/paper_figs.rs`): one table-driven binary over
//!   Figures 8-17, Table II and the cost-model validation; figure names are
//!   its arguments, no argument runs all twelve.  Each entry prints the rows
//!   / series the paper reports and asserts nothing.  Input sizes are scaled
//!   down from the paper's server-scale runs (the paper's sizes are noted
//!   beside each entry); set the `CEJ_SCALE` environment variable to grow or
//!   shrink them (`CEJ_SCALE=2` doubles cardinalities).
//!
//! Whether a change made the system *faster* is decided by the repo
//! benchmark under `benchmark/`, not here; invariants (byte-identity, recall,
//! q-error) are asserted by `cargo test`.
//!
//! The [`harness`] module provides the shared timing and printing helpers;
//! [`experiments`] provides the parameterised experiment bodies shared by
//! related figures (e.g. Figures 15-17 all call
//! [`experiments::scan_vs_probe`]).  A series whose operator variant the
//! engine does not run — Figure 10's fixed loop order, Figure 12's
//! one-vector-at-a-time inner — is the experiment's own loop there, held to
//! the operator's pairs by its unit tests.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod experiments;
pub mod harness;
