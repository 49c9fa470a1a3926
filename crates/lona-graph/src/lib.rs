//! # lona-graph
//!
//! In-memory graph substrate for the LONA top-k neighborhood aggregation
//! framework (Yan, He, Zhu, Han — *Top-K Aggregation Queries over Large
//! Networks*, ICDE 2010).
//!
//! The paper assumes "memory-resident large networks, as having them on
//! disk would not be practical in terms of graph traversal". This crate
//! provides that substrate:
//!
//! * [`CsrGraph`] — a compressed-sparse-row adjacency structure with
//!   `u32` node ids, optional edge weights, and O(1) neighbor slices.
//! * [`GraphBuilder`] — safe construction from edge lists with
//!   deduplication, self-loop policy, and undirected symmetrization.
//! * [`traversal`] — epoch-stamped visited sets and BFS; the visited
//!   sets back the h-hop scanner at the heart of every LONA algorithm.
//! * [`algo`] — connected components, degree statistics, triangle
//!   counting and distance sampling used to characterize datasets.
//! * [`io`] — the whitespace edge-list text format. The one binary
//!   format is `lona-core`'s compiled container, read back through
//!   [`CsrGraphMmap`].
//! * [`mod@partition`] — edge-cut sharding with halo replication, the
//!   storage layer of the scatter-gather engine.
//! * [`OverlayGraph`] — an owned CSR spliced from an immutable base
//!   plus a score-override map, so a running engine can apply
//!   [`GraphDelta`] batches without a rebuild.
//! * [`GraphStore`] / [`mapped`] — the storage abstraction: every
//!   engine loop reads through a [`CsrView`] slice bundle, provided
//!   either by the in-RAM [`CsrGraph`] or by [`CsrGraphMmap`] over a
//!   read-only memory map of a compiled file (zero-copy startup).
//!
//! ## Quick example
//!
//! ```
//! use lona_graph::{GraphBuilder, NodeId};
//!
//! let g = GraphBuilder::undirected()
//!     .add_edge(0, 1)
//!     .add_edge(1, 2)
//!     .add_edge(2, 0)
//!     .build()
//!     .unwrap();
//! assert_eq!(g.num_nodes(), 3);
//! assert_eq!(g.num_edges(), 3);
//! assert_eq!(g.degree(NodeId(0)), 2);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod algo;
mod builder;
mod csr;
mod error;
pub mod io;
pub mod mapped;
mod node;
mod overlay;
pub mod partition;
mod store;
pub mod traversal;

pub use builder::{GraphBuilder, SelfLoopPolicy};
pub use csr::{CsrGraph, CsrView, EdgeIter, NeighborIter};
pub use error::GraphError;
pub use mapped::{CsrGraphMmap, MapSlice, Pod};
pub use node::NodeId;
pub use overlay::{AppliedDelta, GraphDelta, OverlayGraph};
pub use partition::{partition, PartitionStrategy, Shard, ShardLoc, ShardedGraph};
pub use store::GraphStore;

// The mapped backend's buffer type, re-exported so downstream crates
// (the compiled-file loader) need no direct memmap2 dependency.
pub use memmap2::Mmap;

/// The node numbering a compiled container is packed in. The input
/// numbering is the only one; the type exists so that existing
/// `CompileSpec { order: NodeOrder::Natural, .. }` literals keep
/// compiling.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum NodeOrder {
    /// The input numbering, unchanged.
    Natural,
}

/// Result alias for graph operations.
pub type Result<T> = std::result::Result<T, GraphError>;
