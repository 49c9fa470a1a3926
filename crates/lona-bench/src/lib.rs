//! # lona-bench
//!
//! Benchmark harness regenerating **every figure** of the paper's
//! evaluation section (Figures 1–6: runtime vs. k for Base /
//! LONA-Forward / LONA-Backward on three datasets × SUM/AVG), plus the
//! ablations DESIGN.md calls out (A1–A8).
//!
//! Two entry points:
//!
//! * the `figures` binary — one-shot timed sweeps at configurable
//!   scale, printing the paper-style series and CSV rows (this is
//!   what EXPERIMENTS.md records), and `--ablation NAME|all` for the
//!   ablation tables (A7 is the worker-count sweep of every
//!   algorithm family);
//! * the criterion benches (`benches/fig*_*.rs`, `benches/ablations.rs`,
//!   `benches/hot_loops.rs`) — statistically grounded microbenchmarks
//!   at smoke scale.
//!
//! End-to-end wall-clock measurement (a graph through to a ranked
//! answer, under load) is the benchmark in `suite/`, which does not
//! link this crate.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ablations;
pub mod figures;
pub mod report;
pub mod workload;

pub use figures::{run_figure, FigureData, FigureSpec, SeriesPoint, FIGURES, K_VALUES};
pub use workload::Workload;
