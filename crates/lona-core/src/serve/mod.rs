//! `lona serve`: a resident query service with micro-batched
//! admission, bounded-queue backpressure, and optional sharded
//! routing.
//!
//! The paper's engine is one-shot: parse, build indexes, answer,
//! exit. This module keeps the expensive parts — the graph and the
//! per-hop-radius [`crate::engine::EngineState`] index sets — warm
//! behind a std-only TCP server, and turns concurrent client
//! requests into the batched execution the engine already optimizes
//! for:
//!
//! * [`codec`] — the versioned length-prefixed wire format (v1
//!   requests carry inline source sets; v2 adds named relevance
//!   references, structured error codes with retry-after hints, and
//!   stats frames), with total decoding — malformed bytes become
//!   typed errors, never panics;
//! * [`queue`] — the **bounded** admission queue, which coalesces
//!   requests arriving within a short window into micro-batches,
//!   sheds with `Busy` once full, and carries graph updates in the
//!   same FIFO so admission order is execution order;
//! * [`metrics`] — lock-cheap counters and base-2 log latency
//!   histograms, answered by the `Stats` wire request even under
//!   full load;
//! * [`server`] — the accept/handler/batcher threads around one
//!   shared queue; each micro-batch is a single batch call against
//!   the warm single-engine state or a [`crate::shard::ShardedEngine`],
//!   so union-of-index-needs planning and the worker pool are
//!   amortized across clients;
//! * [`client`] — a builder-configured blocking client
//!   ([`ServeClient::connect`]`(addr).timeout(..).retries(..).open()`),
//!   used by `lona client`, `lona stats`, the loopback tests, and
//!   the serve benchmark.
//!
//! The load-bearing property (argued in `server`, enforced by
//! `tests/serve_smoke.rs` and `tests/serve_stress.rs`): responses are
//! **bit-identical to a sequential
//! [`crate::engine::LonaEngine::run`] loop** over the same requests,
//! at any worker count, any micro-batch composition,
//! and either backend (single-engine or sharded). DESIGN.md §10 has
//! the v1 wire format and admission policy; §12 covers the bounded
//! queue, shedding rule, histograms, the v2 layout, and the sharded
//! byte-identity argument.

pub mod client;
pub mod codec;
pub mod metrics;
pub mod queue;
pub mod server;

pub use client::{ClientBuilder, ServeClient};
pub use codec::{
    bucket_upper_bound, histogram_count, histogram_quantile, histogram_quantile_checked,
    CodecError, ErrorCode, Inbound, Reply, Request, Response, ScoreRef, ServeStats, StatsReport,
    UpdateReport,
};
pub use metrics::{LatencyHistogram, ServeMetrics};
pub use queue::{AdmissionQueue, Admit, Pending, UpdateJob, Work};
pub use server::{
    binary_scores, serve_algorithm, validate_request, ServeOptions, Server, ServerBuilder,
};
