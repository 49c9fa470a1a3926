//! Traversal primitives: epoch-stamped visited sets and BFS. The
//! engine's reusable h-hop scanner,
//! `lona_core::neighborhood::NeighborhoodScanner`, is built on
//! [`EpochSet`].

mod bfs;
mod visited;

pub use bfs::{bfs_distances, Bfs};
pub use visited::EpochSet;
