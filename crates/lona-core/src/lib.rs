//! # lona-core
//!
//! The LONA (LOcal Neighborhood Aggregation) framework from
//! *Top-K Aggregation Queries over Large Networks* (Yan, He, Zhu, Han;
//! ICDE 2010): top-k queries over h-hop neighborhood aggregates with
//! forward pruning via a **differential index** (Eq. 1/2) and backward
//! pruning via **partial score distribution** (Eq. 3).
//!
//! ## The problem
//!
//! Given a network with per-node relevance scores `f : V -> [0, 1]`,
//! find the `k` nodes whose h-hop neighborhoods carry the highest
//! aggregate score (`SUM` or `AVG`; Definitions 1–3 of the paper).
//! Evaluating every node costs `~m^h · |V|` edge accesses; the LONA
//! algorithms prune most of those evaluations with upper bounds.
//!
//! ## Quick start
//!
//! ```
//! use lona_core::{Aggregate, Algorithm, LonaEngine, TopKQuery};
//! use lona_gen::generators::barabasi_albert;
//! use lona_relevance::MixtureBuilder;
//!
//! // A scale-free network and a paper-style relevance mixture.
//! let g = barabasi_albert(2_000, 4, 42).unwrap();
//! let scores = MixtureBuilder::new(0.01).build(&g, 42);
//!
//! // 2-hop top-10 SUM query, all three of the paper's algorithms.
//! let mut engine = LonaEngine::new(&g, 2);
//! let query = TopKQuery::new(10, Aggregate::Sum);
//! let base = engine.run(&Algorithm::Base, &query, &scores);
//! let forward = engine.run(&Algorithm::forward(), &query, &scores);
//! let backward = engine.run(&Algorithm::backward(), &query, &scores);
//!
//! assert!(forward.same_values(&base, 1e-9));
//! assert!(backward.same_values(&base, 1e-9));
//! // The pruned algorithms do strictly less exact work:
//! assert!(forward.stats.nodes_evaluated < base.stats.nodes_evaluated);
//! ```
//!
//! ## Module map
//!
//! * [`aggregate`] — SUM / AVG / distance-weighted SUM semantics;
//! * [`neighborhood`] — the instrumented h-hop scanner;
//! * [`index`] — the size index `N(v)` and differential index
//!   `delta(v − u)`;
//! * [`bounds`] — Equations 1–3 with soundness notes;
//! * [`topk`] — the bounded top-k heap / `topklbound`;
//! * [`exec`] — parallel-execution primitives: thread resolution,
//!   work-stealing chunks, the shared rising threshold;
//! * [`algo`] — Base, LONA-Forward, BackwardNaive, LONA-Backward,
//!   each one worker loop run on however many workers it is given;
//! * [`compiled`] — the `lona compile` container: graph + scores +
//!   indexes packed into one mmap-able file for zero-build startup;
//! * [`delta`] — incremental index maintenance: repair the ≤h-hop
//!   dirty region of a [`SizeIndex`] / [`DiffIndex`] after an
//!   [`lona_graph::OverlayGraph`] delta instead of rebuilding (the
//!   [`DiffIndex`] when a plan first reads it);
//! * [`engine`] — index lifecycle + dispatch;
//! * [`plan`] — the cost-based per-query planner (algorithm + worker
//!   count, with an override escape hatch);
//! * [`batch`] — multi-query execution over the worker pool
//!   (inter-query parallelism for small queries, intra-query for
//!   large ones, indexes built once per batch);
//! * [`shard`] — scatter-gather execution over a partitioned graph
//!   with a TA-style cross-shard top-k merge;
//! * [`serve`] — the resident TCP query service: versioned codec,
//!   micro-batched admission queue, and warm per-radius engine state
//!   behind concurrent connections;
//! * [`validate`] — brute-force oracle for tests.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod aggregate;
pub mod algo;
pub mod batch;
pub mod bounds;
pub mod compiled;
pub mod delta;
pub mod engine;
pub mod exec;
pub mod index;
pub mod neighborhood;
pub mod plan;
pub mod result;
pub mod serve;
pub mod shard;
pub mod stats;
pub mod topk;
pub mod validate;

pub use aggregate::Aggregate;
pub use algo::{Algorithm, BackwardOptions, ForwardOptions, GammaSpec, ProcessingOrder};
pub use batch::{BatchMode, BatchOptions, BatchQuery, BatchResult};
pub use compiled::{compile_to_file, compile_to_vec, CompileSpec, CompiledGraph};
pub use delta::{repair_engine_state, GraphDelta, OverlayGraph, RepairStats};
pub use engine::{EngineState, LonaEngine, TopKQuery};
pub use exec::SharedThreshold;
pub use index::{DiffIndex, SizeIndex};
pub use plan::{plan_query, Plan, PlanReason, PlannerConfig};
pub use result::QueryResult;
pub use serve::{
    ClientBuilder, ErrorCode, ScoreRef, ServeClient, ServeOptions, Server, ServerBuilder,
    StatsReport,
};
pub use shard::{
    CoordinatorStats, ShardOptions, ShardRunReport, ShardedBatchResult, ShardedEngine,
    ShardedResult,
};
pub use stats::QueryStats;
pub use topk::TopKHeap;
