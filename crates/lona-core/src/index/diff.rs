//! The differential index `delta(v − u) = |S_h(v) \ S_h(u)|`.

use std::sync::atomic::{AtomicU32, Ordering};

use lona_graph::{CsrView, MapSlice, NodeId};

use crate::exec::{self, ChunkCursor};
use crate::index::{SizeIndex, U32Store};
use crate::neighborhood::NeighborhoodScanner;

/// Per-edge differential index (paper §III).
///
/// For every adjacency entry `u -> v` the index stores
/// `delta(v − u) = |S_h(v) \ S_h(u)|`: how many of `v`'s h-hop
/// neighbors are *not* h-hop neighbors of `u`. When forward processing
/// has just evaluated `F(u)` exactly, Eq. 1 turns this number into an
/// upper bound for the yet-unevaluated neighbor `v`.
///
/// Entries are laid out parallel to the CSR adjacency array, so the
/// lookup for neighbor `i` of `u` is one array read.
///
/// ## Build strategy
///
/// `delta(v − u) = N(v) − |S(u) ∩ S(v)|`, and the intersection is
/// symmetric — so per undirected edge one intersection count yields
/// *both* directions:
///
/// 1. mark `S(u)` in an epoch set (one h-hop expansion);
/// 2. for each neighbor `v > u`, expand `S(v)` counting marked nodes
///    → `|S(u) ∩ S(v)|`;
/// 3. `delta(v − u) = N(v) − inter`, `delta(u − v) = N(u) − inter`.
///
/// Total: `n + m` neighborhood expansions — the offline cost the paper
/// accepts for its pre-computed index. The build parallelizes over
/// source nodes; both directions of an edge are written by the thread
/// owning the lower endpoint, through relaxed atomics (each slot is
/// written exactly once).
#[derive(Clone, Debug)]
pub struct DiffIndex {
    hops: u32,
    deltas: U32Store,
}

impl PartialEq for DiffIndex {
    fn eq(&self, other: &Self) -> bool {
        self.hops == other.hops && self.as_slice() == other.as_slice()
    }
}

impl Eq for DiffIndex {}

impl DiffIndex {
    /// Build the index for `g` at radius `hops`, given the matching
    /// [`SizeIndex`].
    ///
    /// # Panics
    /// Panics if `g` is directed (Eq. 1's soundness needs mutual
    /// adjacency; see `bounds.rs`) or if `sizes` was built at a
    /// different radius.
    pub fn build(g: CsrView<'_>, hops: u32, sizes: &SizeIndex) -> Self {
        assert!(
            !g.is_directed(),
            "the differential index requires an undirected graph"
        );
        assert_eq!(
            sizes.hops(),
            hops,
            "size index was built for h={}",
            sizes.hops()
        );
        assert_eq!(
            sizes.len(),
            g.num_nodes(),
            "size index covers a different graph"
        );

        let entries = g.num_adjacency_entries();
        let deltas: Vec<AtomicU32> = (0..entries).map(|_| AtomicU32::new(0)).collect();
        Self::build_impl(g, hops, sizes, deltas)
    }

    fn build_impl(g: CsrView<'_>, hops: u32, sizes: &SizeIndex, deltas: Vec<AtomicU32>) -> Self {
        let n = g.num_nodes();
        let threads = exec::resolve_threads(0, n);
        let deltas_ref = &deltas;
        // Work-stealing chunks: per-node cost is the whole incident
        // neighborhood expansion, so hub-heavy ranges would starve a
        // static partition.
        let cursor = ChunkCursor::new(n, threads);

        exec::run_workers(threads, |_| {
            let mut marker = NeighborhoodScanner::new(n);
            let mut expander = NeighborhoodScanner::new(n);
            while let Some(range) = cursor.next() {
                for u_idx in range {
                    let u = NodeId(u_idx as u32);
                    let n_u = sizes.get(u) as u32;
                    if g.neighbors(u).iter().all(|&v| v.0 < u.0) {
                        continue;
                    }
                    marker.mark(g, u, hops);
                    let u_range = g.adjacency_range(u);
                    for (i, &v) in g.neighbors(u).iter().enumerate() {
                        if v.0 < u.0 {
                            continue;
                        }
                        let mut inter = 0u32;
                        expander.for_each(g, v, hops, |w| {
                            if marker.marked(NodeId(w)) {
                                inter += 1;
                            }
                        });
                        let n_v = sizes.get(v) as u32;
                        debug_assert!(inter <= n_v && inter <= n_u);
                        // delta(v − u) lives at u's entry for v:
                        deltas_ref[u_range.start + i].store(n_v - inter, Ordering::Relaxed);
                        // delta(u − v) lives at v's entry for u:
                        let back = g
                            .adjacency_index(v, u)
                            .expect("undirected edge must exist both ways");
                        deltas_ref[back].store(n_u - inter, Ordering::Relaxed);
                    }
                }
            }
        });

        let deltas = deltas.into_iter().map(AtomicU32::into_inner).collect();
        DiffIndex {
            hops,
            deltas: U32Store::Owned(deltas),
        }
    }

    /// Wrap an already-computed payload (the delta-repair path, which
    /// patches entries of an existing index instead of rebuilding).
    pub(crate) fn from_owned(hops: u32, deltas: Vec<u32>) -> Self {
        DiffIndex {
            hops,
            deltas: U32Store::Owned(deltas),
        }
    }

    /// Wrap a zero-copy view of a compiled file's differential-index
    /// section. No build, no copy; the compiled loader cross-checks
    /// the length against the mapped graph's adjacency array first.
    pub fn from_mapped(hops: u32, deltas: MapSlice<u32>) -> Self {
        DiffIndex {
            hops,
            deltas: U32Store::Mapped(deltas),
        }
    }

    /// The hop radius this index was built for.
    pub fn hops(&self) -> u32 {
        self.hops
    }

    /// Number of adjacency entries covered.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Raw slice access (one `u32` per adjacency entry).
    #[inline(always)]
    pub fn as_slice(&self) -> &[u32] {
        self.deltas.as_slice()
    }

    /// `delta(v − u)` where `v` is the neighbor at `adjacency_pos`
    /// within `u`'s adjacency range (see
    /// [`lona_graph::CsrGraph::adjacency_range`]).
    #[inline(always)]
    pub fn delta_at(&self, adjacency_pos: usize) -> u32 {
        self.as_slice()[adjacency_pos]
    }

    /// `delta(v − u)` by endpoint lookup (binary search; prefer
    /// [`DiffIndex::delta_at`] in loops that already track positions).
    pub fn delta(&self, g: CsrView<'_>, u: NodeId, v: NodeId) -> Option<u32> {
        g.adjacency_index(u, v).map(|pos| self.as_slice()[pos])
    }

    /// Approximate resident memory, in bytes.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(self.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lona_graph::traversal::bfs_distances;
    use lona_graph::{CsrGraph, GraphBuilder};

    /// Brute-force `delta(v − u)` via BFS distance sets.
    fn reference_delta(g: &CsrGraph, u: NodeId, v: NodeId, h: u32) -> u32 {
        let du = bfs_distances(g, u);
        let dv = bfs_distances(g, v);
        (0..g.num_nodes() as u32)
            .filter(|&w| {
                let in_sv = w != v.0 && dv[w as usize] <= h;
                let in_su = w != u.0 && du[w as usize] <= h;
                in_sv && !in_su
            })
            .count() as u32
    }

    fn check_graph(g: &CsrGraph, h: u32) {
        let sizes = SizeIndex::build(g.view(), h);
        let idx = DiffIndex::build(g.view(), h, &sizes);
        for u in g.nodes() {
            for &v in g.neighbors(u) {
                assert_eq!(
                    idx.delta(g.view(), u, v).unwrap(),
                    reference_delta(g, u, v, h),
                    "delta({v:?} - {u:?}) at h={h}"
                );
            }
        }
    }

    #[test]
    fn matches_reference_on_path() {
        let g = GraphBuilder::undirected()
            .extend_edges((0..5).map(|i| (i, i + 1)))
            .build()
            .unwrap();
        check_graph(&g, 1);
        check_graph(&g, 2);
    }

    #[test]
    fn matches_reference_on_clustered_graph() {
        // Two triangles joined by a bridge.
        let g = GraphBuilder::undirected()
            .extend_edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)])
            .build()
            .unwrap();
        check_graph(&g, 1);
        check_graph(&g, 2);
        check_graph(&g, 3);
    }

    #[test]
    fn matches_reference_on_star() {
        let g = GraphBuilder::undirected()
            .extend_edges((1..=6).map(|i| (0, i)))
            .build()
            .unwrap();
        check_graph(&g, 1);
        check_graph(&g, 2);
    }

    #[test]
    #[should_panic(expected = "undirected")]
    fn directed_graph_rejected() {
        let g = GraphBuilder::directed().add_edge(0, 1).build().unwrap();
        let sizes = SizeIndex::build(g.view(), 2);
        let _ = DiffIndex::build(g.view(), 2, &sizes);
    }

    #[test]
    #[should_panic(expected = "size index was built for")]
    fn hop_mismatch_rejected() {
        let g = GraphBuilder::undirected().add_edge(0, 1).build().unwrap();
        let sizes = SizeIndex::build(g.view(), 1);
        let _ = DiffIndex::build(g.view(), 2, &sizes);
    }
}
