//! # lona
//!
//! A complete Rust implementation of **LONA** — the Local Neighborhood
//! Aggregation framework from *Top-K Aggregation Queries over Large
//! Networks* (Xifeng Yan, Bin He, Feida Zhu, Jiawei Han; ICDE 2010) —
//! together with every substrate the paper depends on.
//!
//! The problem: given a network whose nodes carry relevance scores
//! `f : V -> [0, 1]`, find the `k` nodes whose h-hop neighborhoods
//! have the highest aggregate score (SUM or AVG). LONA answers these
//! queries up to an order of magnitude faster than the naive scan by
//! pruning with a pre-computed *differential index* (forward) or a
//! *partial score distribution* (backward).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`graph`] — CSR graph storage, traversal, analytics, I/O;
//! * [`gen`] — synthetic network generators and the three
//!   paper-dataset profiles;
//! * [`relevance`] — relevance-function framework (binary blacking,
//!   exponential mixture, random-walk smoothing);
//! * [`core`] — the LONA engine: aggregates, indexes, bounds, and the
//!   Base / LONA-Forward / BackwardNaive / LONA-Backward algorithms;
//! * [`relational`] — the RDBMS-style self-join baseline the paper
//!   motivates against.
//!
//! ## Quickstart
//!
//! ```
//! use lona::prelude::*;
//!
//! // A collaboration-network stand-in and a 1%-blacked relevance mix.
//! let profile = DatasetProfile::smoke(DatasetKind::Collaboration, 42);
//! let g = profile.generate().unwrap();
//! let scores = MixtureBuilder::new(0.01).build(&g, 42);
//!
//! // Who has the most relevant 2-hop neighborhood?
//! let mut engine = LonaEngine::new(&g, 2);
//! let query = TopKQuery::new(10, Aggregate::Sum);
//! let top = engine.run(&Algorithm::backward(), &query, &scores);
//! assert_eq!(top.entries.len(), 10);
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and DESIGN.md /
//! EXPERIMENTS.md for the reproduction methodology.

#![warn(missing_docs)]

pub use lona_core as core;
pub use lona_gen as gen;
pub use lona_graph as graph;
pub use lona_relational as relational;
pub use lona_relevance as relevance;

/// The stable serve surface: client, server builder, wire types, and
/// stats — everything an application embedding (or talking to) a
/// `lona serve` instance needs, re-exported under one path so
/// downstream code is insulated from internal module moves.
pub mod serve {
    pub use lona_core::serve::{binary_scores, serve_algorithm, validate_request};
    pub use lona_core::serve::{
        AdmissionQueue, Admit, ClientBuilder, CodecError, ErrorCode, Inbound, LatencyHistogram,
        Reply, Request, Response, ScoreRef, ServeClient, ServeMetrics, ServeOptions, ServeStats,
        Server, ServerBuilder, StatsReport, UpdateReport,
    };
}

/// One-stop imports for applications.
pub mod prelude {
    pub use lona_core::{
        Aggregate, Algorithm, BackwardOptions, BatchMode, BatchOptions, BatchQuery, BatchResult,
        CompiledGraph, CoordinatorStats, EngineState, ForwardOptions, GammaSpec, LonaEngine, Plan,
        PlanReason, PlannerConfig, ProcessingOrder, QueryResult, QueryStats, ServeClient,
        ServeOptions, Server, ServerBuilder, ShardOptions, ShardedEngine, ShardedResult, TopKQuery,
    };
    pub use lona_gen::{DatasetKind, DatasetProfile};
    pub use lona_graph::{
        partition, CsrGraph, GraphBuilder, GraphDelta, NodeId, NodeOrder, OverlayGraph,
        PartitionStrategy,
    };
    pub use lona_relevance::{binary_blacking, MixtureBuilder, Relevance, ScoreVec};
}
