//! # lona-bench
//!
//! Benchmark harness regenerating **every figure** of the paper's
//! evaluation section (Figures 1–6: runtime vs. k for Base /
//! LONA-Forward / LONA-Backward on three datasets × SUM/AVG), plus the
//! ablations DESIGN.md calls out (A1–A6).
//!
//! Two entry points:
//!
//! * the `figures` binary — one-shot timed sweeps at configurable
//!   scale, printing the paper-style series and CSV rows (this is
//!   what EXPERIMENTS.md records), plus `--scaling` for the
//!   thread-scaling figure (emits `BENCH_scaling.json`) and
//!   `--throughput` for the batch-vs-sequential sweep (emits
//!   `BENCH_throughput.json`; `--check` applies the deterministic
//!   work-counter gate CI relies on), and `--shards` for the
//!   scatter-gather sweep over partition strategies and shard counts
//!   (emits `BENCH_shards.json`; `--check` gates on the cross-shard
//!   work ratio and the TA skip counters), and `--serve` for the
//!   loopback serve-throughput sweep (emits `BENCH_serve.json`;
//!   `--check` gates on response identity, the work ratio, and a
//!   warm post-warm-up resident state), and `--startup` for the
//!   cold-parse vs. compiled-mmap startup comparison (emits
//!   `BENCH_startup.json`; `--check` gates on result identity and a
//!   zero index-build counter on the mapped path), and `--locality`
//!   for the natural-vs-reordered Base-scan comparison (emits
//!   `BENCH_locality.json`; `--check` gates on identical Base work
//!   counters under every numbering, value/rank agreement, and both
//!   compiled-container shapes round-tripping), and `--updates` for
//!   the incremental-update repair-vs-rebuild comparison (emits
//!   `BENCH_updates.json`; `--check` gates on query-result identity,
//!   a zero build counter on the repaired state, and repair counters
//!   proving the work stayed local);
//! * the criterion benches (`benches/fig*_*.rs`, `benches/ablations.rs`)
//!   — statistically grounded microbenchmarks at smoke scale.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ablations;
pub mod figures;
pub mod locality;
pub mod report;
pub mod scaling;
pub mod serve_bench;
pub mod shard_scaling;
pub mod startup;
pub mod throughput;
pub mod updates;
pub mod workload;

pub use figures::{run_figure, FigureData, FigureSpec, SeriesPoint, FIGURES, K_VALUES};
pub use locality::{run_locality, LocalityData, OrderRun};
pub use scaling::{run_scaling, ScalingData, ScalingPoint, THREAD_COUNTS};
pub use serve_bench::{run_serve_bench, ServeBenchData, ServePoint, SERVE_CLIENTS, SERVE_WORKERS};
pub use shard_scaling::{run_shard_scaling, ShardCell, ShardScalingData, SHARD_COUNTS};
pub use startup::{run_startup, StartupData};
pub use throughput::{run_throughput, ThroughputData, ThroughputPoint, BATCH_THREADS};
pub use updates::{run_updates, UpdatesData};
pub use workload::Workload;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fresh staging directory under `parent`, created and unique to
/// this call (pid plus a process-wide counter), so concurrent runs —
/// parallel tests in one process included — never share files. The
/// caller removes it when done.
pub(crate) fn staging_dir(parent: &Path, tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = parent.join(format!("{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create staging directory");
    dir
}
