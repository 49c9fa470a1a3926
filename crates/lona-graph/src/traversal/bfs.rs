//! Breadth-first search.

use std::collections::VecDeque;

use crate::csr::CsrGraph;
use crate::node::NodeId;

use super::visited::EpochSet;

/// A breadth-first traversal yielding `(node, distance)` pairs starting
/// from (and including) the source at distance 0.
///
/// `Bfs` allocates per instance and is intended for one-off full
/// traversals (components, distance sampling). Repeated bounded-depth
/// expansions belong in `lona_core::neighborhood::NeighborhoodScanner`,
/// which reuses its buffers across calls.
pub struct Bfs<'a> {
    g: &'a CsrGraph,
    queue: VecDeque<(NodeId, u32)>,
    visited: EpochSet,
}

impl<'a> Bfs<'a> {
    /// Start a BFS from `source`.
    pub fn new(g: &'a CsrGraph, source: NodeId) -> Self {
        let mut visited = EpochSet::new(g.num_nodes());
        visited.insert(source.0);
        let mut queue = VecDeque::new();
        queue.push_back((source, 0));
        Bfs { g, queue, visited }
    }
}

impl Iterator for Bfs<'_> {
    type Item = (NodeId, u32);

    fn next(&mut self) -> Option<Self::Item> {
        let (u, d) = self.queue.pop_front()?;
        for &v in self.g.neighbors(u) {
            if self.visited.insert(v.0) {
                self.queue.push_back((v, d + 1));
            }
        }
        Some((u, d))
    }
}

/// Exact single-source shortest-path distances (in hops) to every node;
/// unreachable nodes get `u32::MAX`.
pub fn bfs_distances(g: &CsrGraph, source: NodeId) -> Vec<u32> {
    let mut dist = vec![u32::MAX; g.num_nodes()];
    for (v, d) in Bfs::new(g, source) {
        dist[v.index()] = d;
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn path_graph(n: u32) -> CsrGraph {
        GraphBuilder::undirected()
            .extend_edges((0..n - 1).map(|i| (i, i + 1)))
            .build()
            .unwrap()
    }

    #[test]
    fn bfs_yields_source_first_at_distance_zero() {
        let g = path_graph(4);
        let first = Bfs::new(&g, NodeId(2)).next().unwrap();
        assert_eq!(first, (NodeId(2), 0));
    }

    #[test]
    fn distances_on_a_path() {
        let g = path_graph(5);
        assert_eq!(bfs_distances(&g, NodeId(0)), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs_distances(&g, NodeId(2)), vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn unreachable_marked_max() {
        let g = GraphBuilder::undirected()
            .with_num_nodes(4)
            .add_edge(0, 1)
            .build()
            .unwrap();
        let d = bfs_distances(&g, NodeId(0));
        assert_eq!(d[0], 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], u32::MAX);
        assert_eq!(d[3], u32::MAX);
    }

    #[test]
    fn bfs_visits_each_node_once() {
        let g = GraphBuilder::undirected()
            .add_edge(0, 1)
            .add_edge(0, 2)
            .add_edge(1, 2)
            .add_edge(2, 3)
            .build()
            .unwrap();
        let mut seen: Vec<_> = Bfs::new(&g, NodeId(0)).map(|(v, _)| v.0).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn distances_are_nondecreasing_in_bfs_order() {
        let g = GraphBuilder::undirected()
            .add_edge(0, 1)
            .add_edge(0, 2)
            .add_edge(1, 3)
            .add_edge(2, 3)
            .add_edge(3, 4)
            .build()
            .unwrap();
        let ds: Vec<u32> = Bfs::new(&g, NodeId(0)).map(|(_, d)| d).collect();
        assert!(ds.windows(2).all(|w| w[0] <= w[1]));
    }
}
