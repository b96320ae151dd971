//! # dante-bench
//!
//! The figure/table regeneration harness of the *Dante* reproduction:
//!
//! * [`record`] — experiment records ([`record::FigureRecord`])
//!   printable as tables and serializable to JSON, plus the
//!   [`record::RunScale`] sizing knobs (`DANTE_FULL=1` for
//!   paper-fidelity Monte-Carlo).
//! * [`figures`] — one function per paper artifact (`fig01`..`fig15`,
//!   `table1`..`table3`, `headlines`).
//!
//! Each artifact also has a binary (`cargo run -p dante-bench --release
//! --bin fig13`). End-to-end performance is measured by the standalone
//! `perfbench` package (see `BENCHMARK.json`).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod figures;
pub mod json;
pub mod record;

pub use record::{FigureRecord, RunScale, Series};
