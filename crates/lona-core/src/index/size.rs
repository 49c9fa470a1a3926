//! The h-hop neighborhood-size index `N(v)`.

use lona_graph::{CsrView, MapSlice, NodeId};

use crate::exec;
use crate::index::U32Store;
use crate::neighborhood::NeighborhoodScanner;

/// `N(v) = |S_h(v)|` for every node, at a fixed hop radius.
///
/// One full sweep of the graph (the cost of a single Base query);
/// amortized across every subsequent query on the same graph. The
/// build runs on all available cores. Alternatively the payload can be
/// a zero-copy view into a compiled file ([`SizeIndex::from_mapped`]),
/// skipping the build entirely.
#[derive(Clone, Debug)]
pub struct SizeIndex {
    hops: u32,
    sizes: U32Store,
}

impl PartialEq for SizeIndex {
    fn eq(&self, other: &Self) -> bool {
        self.hops == other.hops && self.as_slice() == other.as_slice()
    }
}

impl Eq for SizeIndex {}

impl SizeIndex {
    /// Build the index for `g` at radius `hops`.
    pub fn build(g: CsrView<'_>, hops: u32) -> Self {
        let n = g.num_nodes();
        let mut sizes = vec![0u32; n];
        let threads = if n < 1024 {
            1
        } else {
            exec::resolve_threads(0, n)
        };

        exec::partition_mut(&mut sizes, threads, |start, slice| {
            let mut scanner = NeighborhoodScanner::new(n);
            for (i, slot) in slice.iter_mut().enumerate() {
                let u = NodeId((start + i) as u32);
                let (count, _) = scanner.size_scan(g, u, hops);
                *slot = count as u32;
            }
        });
        SizeIndex {
            hops,
            sizes: U32Store::Owned(sizes),
        }
    }

    /// Wrap an already-computed payload (the delta-repair path, which
    /// patches a copy of an existing index instead of rebuilding).
    pub(crate) fn from_owned(hops: u32, sizes: Vec<u32>) -> Self {
        SizeIndex {
            hops,
            sizes: U32Store::Owned(sizes),
        }
    }

    /// Wrap a zero-copy view of a compiled file's size section. No
    /// build, no copy; the compiled loader cross-checks the length
    /// against the mapped graph before calling this.
    pub fn from_mapped(hops: u32, sizes: MapSlice<u32>) -> Self {
        SizeIndex {
            hops,
            sizes: U32Store::Mapped(sizes),
        }
    }

    /// The hop radius this index was built for.
    pub fn hops(&self) -> u32 {
        self.hops
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// `N(v)` — the proper h-hop neighborhood size of `v`.
    #[inline(always)]
    pub fn get(&self, v: NodeId) -> usize {
        self.as_slice()[v.index()] as usize
    }

    /// Raw slice access for hot loops.
    #[inline(always)]
    pub fn as_slice(&self) -> &[u32] {
        self.sizes.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lona_graph::traversal::bfs_distances;
    use lona_graph::{CsrGraph, GraphBuilder};

    fn reference_sizes(g: &CsrGraph, h: u32) -> Vec<u32> {
        (0..g.num_nodes() as u32)
            .map(|u| {
                let d = bfs_distances(g, NodeId(u));
                d.iter().filter(|&&x| x != 0 && x <= h).count() as u32
            })
            .collect()
    }

    #[test]
    fn matches_bfs_reference_small() {
        let g = GraphBuilder::undirected()
            .extend_edges([(0, 1), (1, 2), (2, 3), (3, 4), (1, 4), (0, 5)])
            .build()
            .unwrap();
        for h in 1..=3 {
            let idx = SizeIndex::build(g.view(), h);
            assert_eq!(idx.as_slice(), &reference_sizes(&g, h)[..], "h={h}");
        }
    }

    #[test]
    fn parallel_build_matches_serial() {
        // Big enough to take the parallel path (>= 1024 nodes).
        let mut b = GraphBuilder::undirected();
        for i in 0u32..2000 {
            b.push_edge(i, (i + 1) % 2000);
            b.push_edge(i, (i * 13 + 7) % 2000);
        }
        let g = b.build().unwrap();
        let idx = SizeIndex::build(g.view(), 2);
        assert_eq!(idx.as_slice(), &reference_sizes(&g, 2)[..]);
    }

    #[test]
    fn isolated_nodes_have_zero() {
        let g = GraphBuilder::undirected()
            .with_num_nodes(3)
            .add_edge(0, 1)
            .build()
            .unwrap();
        let idx = SizeIndex::build(g.view(), 2);
        assert_eq!(idx.get(NodeId(2)), 0);
    }
}
