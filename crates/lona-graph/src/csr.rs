//! Compressed-sparse-row graph storage.
//!
//! Two types share one layout:
//!
//! * [`CsrGraph`] owns its arrays (the builder/parser output);
//! * [`CsrView`] borrows them — a `Copy` bundle of slices that every
//!   traversal loop takes by value, so in-RAM and memory-mapped
//!   backends compile to the same monomorphic inner loops.
//!
//! [`CsrGraph`] methods all delegate to its view; any type that can
//! produce a [`CsrView`] (see [`crate::GraphStore`]) gets the whole
//! read API for free.

use crate::node::NodeId;

/// A static graph in compressed-sparse-row (CSR) form.
///
/// Neighbors of node `u` occupy the contiguous slice
/// `targets[offsets[u] .. offsets[u + 1]]`, sorted by target id. For
/// undirected graphs every edge is stored in both endpoint lists, so
/// `degree(u)` is the usual undirected degree. Optional edge weights
/// are stored in a parallel array.
///
/// This layout gives the two properties every LONA inner loop needs:
/// neighbor access is a bounds-checked slice (no hashing, no pointer
/// chasing) and iteration over a neighborhood is a linear scan over
/// adjacent memory.
#[derive(Clone, Debug)]
pub struct CsrGraph {
    /// `num_nodes + 1` offsets into `targets`.
    offsets: Vec<u32>,
    /// Flattened, per-source-sorted adjacency lists.
    targets: Vec<NodeId>,
    /// Optional weights parallel to `targets`.
    weights: Option<Vec<f32>>,
    /// Logical edge count (undirected edges counted once).
    num_edges: usize,
    /// Whether the graph was built as directed.
    directed: bool,
}

/// A borrowed CSR graph: the slice bundle every traversal loop reads.
///
/// `Copy`, 5 words wide — pass it by value. Produced by
/// [`CsrGraph::view`] over owned arrays or by the memory-mapped
/// backend over file-backed sections; the read API is identical and
/// the compiled code is the same either way.
#[derive(Copy, Clone, Debug)]
pub struct CsrView<'a> {
    offsets: &'a [u32],
    targets: &'a [NodeId],
    weights: Option<&'a [f32]>,
    num_edges: usize,
    directed: bool,
}

impl<'a> CsrView<'a> {
    /// Assemble a view from raw slices. The caller guarantees the CSR
    /// invariants (non-empty monotone offsets ending at
    /// `targets.len()`, in-range sorted targets, weights parallel to
    /// targets); both in-crate constructors validate eagerly.
    pub(crate) fn from_raw(
        offsets: &'a [u32],
        targets: &'a [NodeId],
        weights: Option<&'a [f32]>,
        num_edges: usize,
        directed: bool,
    ) -> Self {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(*offsets.last().unwrap() as usize, targets.len());
        if let Some(w) = weights {
            debug_assert_eq!(w.len(), targets.len());
        }
        CsrView {
            offsets,
            targets,
            weights,
            num_edges,
            directed,
        }
    }

    /// Number of nodes.
    #[inline(always)]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of logical edges (an undirected edge counts once).
    #[inline(always)]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Number of stored adjacency entries (`2 * num_edges` for
    /// undirected graphs without self-loops).
    #[inline(always)]
    pub fn num_adjacency_entries(&self) -> usize {
        self.targets.len()
    }

    /// Whether the graph was built as directed.
    #[inline(always)]
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// Whether edge weights are stored.
    #[inline(always)]
    pub fn has_weights(&self) -> bool {
        self.weights.is_some()
    }

    /// Out-degree of `u` (undirected degree for undirected graphs).
    #[inline(always)]
    pub fn degree(&self, u: NodeId) -> usize {
        let i = u.index();
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// The sorted neighbor slice of `u`.
    #[inline(always)]
    pub fn neighbors(&self, u: NodeId) -> &'a [NodeId] {
        let i = u.index();
        &self.targets[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The weight slice parallel to [`CsrView::neighbors`], if the
    /// graph carries weights.
    #[inline(always)]
    pub fn neighbor_weights(&self, u: NodeId) -> Option<&'a [f32]> {
        let w = self.weights?;
        let i = u.index();
        Some(&w[self.offsets[i] as usize..self.offsets[i + 1] as usize])
    }

    /// Iterate `(neighbor, weight)` pairs of `u`; weight defaults to
    /// `1.0` on unweighted graphs.
    pub fn weighted_neighbors(&self, u: NodeId) -> NeighborIter<'a> {
        let i = u.index();
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        NeighborIter {
            targets: &self.targets[lo..hi],
            weights: self.weights.map(|w| &w[lo..hi]),
            pos: 0,
        }
    }

    /// Whether the edge `(u, v)` exists (binary search on the sorted
    /// neighbor slice — O(log degree)).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// The global adjacency-array range holding `u`'s neighbors.
    ///
    /// Per-edge side tables (like LONA's differential index) are laid
    /// out parallel to the adjacency array; this range addresses the
    /// slice belonging to `u`.
    #[inline(always)]
    pub fn adjacency_range(&self, u: NodeId) -> std::ops::Range<usize> {
        let i = u.index();
        self.offsets[i] as usize..self.offsets[i + 1] as usize
    }

    /// Global adjacency-array position of the entry `u -> v`, if the
    /// edge exists.
    pub fn adjacency_index(&self, u: NodeId, v: NodeId) -> Option<usize> {
        let pos = self.neighbors(u).binary_search(&v).ok()?;
        Some(self.offsets[u.index()] as usize + pos)
    }

    /// Weight of edge `(u, v)` if present; `1.0` on unweighted graphs.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<f32> {
        let pos = self.neighbors(u).binary_search(&v).ok()?;
        Some(match self.weights {
            Some(w) => w[self.offsets[u.index()] as usize + pos],
            None => 1.0,
        })
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + 'a {
        (0..self.num_nodes() as u32).map(NodeId)
    }

    /// Iterator over unique edges. For undirected graphs each edge is
    /// yielded once with `u <= v`; for directed graphs every stored
    /// `(source, target)` arc is yielded.
    pub fn edges(&self) -> EdgeIter<'a> {
        EdgeIter {
            g: *self,
            u: 0,
            pos: 0,
        }
    }

    /// Sum of all degrees divided by node count.
    pub fn mean_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            return 0.0;
        }
        self.targets.len() as f64 / self.num_nodes() as f64
    }

    /// Approximate resident memory of the structure, in bytes (for
    /// mapped backends this is the mapped span, resident or not).
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(self.offsets)
            + std::mem::size_of_val(self.targets)
            + self.weights.map_or(0, std::mem::size_of_val)
    }

    /// The raw offsets array (`num_nodes + 1` entries).
    #[inline(always)]
    pub fn offsets(&self) -> &'a [u32] {
        self.offsets
    }

    /// The raw flattened adjacency array.
    #[inline(always)]
    pub fn targets(&self) -> &'a [NodeId] {
        self.targets
    }

    /// The raw weight array parallel to [`CsrView::targets`], if any.
    #[inline(always)]
    pub fn weights(&self) -> Option<&'a [f32]> {
        self.weights
    }
}

impl CsrGraph {
    /// Assemble a CSR graph from raw parts. Used by [`crate::GraphBuilder`]
    /// and the crate's other constructors (overlay compaction,
    /// partitioning, mapped-to-owned copies); invariants are checked
    /// with debug assertions (the callers validate eagerly).
    pub(crate) fn from_parts(
        offsets: Vec<u32>,
        targets: Vec<NodeId>,
        weights: Option<Vec<f32>>,
        num_edges: usize,
        directed: bool,
    ) -> Self {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(*offsets.last().unwrap() as usize, targets.len());
        if let Some(w) = &weights {
            debug_assert_eq!(w.len(), targets.len());
        }
        CsrGraph {
            offsets,
            targets,
            weights,
            num_edges,
            directed,
        }
    }

    /// Borrow the graph as a [`CsrView`] — the form every engine loop
    /// consumes.
    #[inline(always)]
    pub fn view(&self) -> CsrView<'_> {
        CsrView {
            offsets: &self.offsets,
            targets: &self.targets,
            weights: self.weights.as_deref(),
            num_edges: self.num_edges,
            directed: self.directed,
        }
    }

    /// Number of nodes.
    #[inline(always)]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of logical edges (an undirected edge counts once).
    #[inline(always)]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Number of stored adjacency entries (`2 * num_edges` for
    /// undirected graphs without self-loops).
    #[inline(always)]
    pub fn num_adjacency_entries(&self) -> usize {
        self.targets.len()
    }

    /// Whether the graph was built as directed.
    #[inline(always)]
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// Whether edge weights are stored.
    #[inline(always)]
    pub fn has_weights(&self) -> bool {
        self.weights.is_some()
    }

    /// Out-degree of `u` (undirected degree for undirected graphs).
    #[inline(always)]
    pub fn degree(&self, u: NodeId) -> usize {
        self.view().degree(u)
    }

    /// The sorted neighbor slice of `u`.
    #[inline(always)]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        self.view().neighbors(u)
    }

    /// The weight slice parallel to [`CsrGraph::neighbors`], if the
    /// graph carries weights.
    #[inline(always)]
    pub fn neighbor_weights(&self, u: NodeId) -> Option<&[f32]> {
        self.view().neighbor_weights(u)
    }

    /// Iterate `(neighbor, weight)` pairs of `u`; weight defaults to
    /// `1.0` on unweighted graphs.
    pub fn weighted_neighbors(&self, u: NodeId) -> NeighborIter<'_> {
        self.view().weighted_neighbors(u)
    }

    /// Whether the edge `(u, v)` exists (binary search on the sorted
    /// neighbor slice — O(log degree)).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.view().has_edge(u, v)
    }

    /// The global adjacency-array range holding `u`'s neighbors.
    ///
    /// Per-edge side tables (like LONA's differential index) are laid
    /// out parallel to the adjacency array; this range addresses the
    /// slice belonging to `u`.
    #[inline(always)]
    pub fn adjacency_range(&self, u: NodeId) -> std::ops::Range<usize> {
        self.view().adjacency_range(u)
    }

    /// Global adjacency-array position of the entry `u -> v`, if the
    /// edge exists.
    pub fn adjacency_index(&self, u: NodeId, v: NodeId) -> Option<usize> {
        self.view().adjacency_index(u, v)
    }

    /// Weight of edge `(u, v)` if present; `1.0` on unweighted graphs.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<f32> {
        self.view().edge_weight(u, v)
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.view().nodes()
    }

    /// Iterator over unique edges. For undirected graphs each edge is
    /// yielded once with `u <= v`; for directed graphs every stored
    /// `(source, target)` arc is yielded.
    pub fn edges(&self) -> EdgeIter<'_> {
        self.view().edges()
    }

    /// Sum of all degrees divided by node count.
    pub fn mean_degree(&self) -> f64 {
        self.view().mean_degree()
    }

    /// Approximate resident memory of the structure, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.view().memory_bytes()
    }
}

/// Iterator over `(neighbor, weight)` pairs of one node.
pub struct NeighborIter<'a> {
    targets: &'a [NodeId],
    weights: Option<&'a [f32]>,
    pos: usize,
}

impl<'a> Iterator for NeighborIter<'a> {
    type Item = (NodeId, f32);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if self.pos >= self.targets.len() {
            return None;
        }
        let v = self.targets[self.pos];
        let w = self.weights.map_or(1.0, |w| w[self.pos]);
        self.pos += 1;
        Some((v, w))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.targets.len() - self.pos;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for NeighborIter<'_> {}

/// Iterator over unique edges of a CSR graph (either backend).
pub struct EdgeIter<'a> {
    g: CsrView<'a>,
    u: u32,
    pos: usize,
}

impl<'a> Iterator for EdgeIter<'a> {
    type Item = (NodeId, NodeId, f32);

    fn next(&mut self) -> Option<Self::Item> {
        let n = self.g.num_nodes() as u32;
        while self.u < n {
            let u = NodeId(self.u);
            let nbrs = self.g.neighbors(u);
            while self.pos < nbrs.len() {
                let v = nbrs[self.pos];
                let idx = self.g.offsets[u.index()] as usize + self.pos;
                self.pos += 1;
                // For undirected graphs, emit each edge from its lower
                // endpoint only (self-loops are emitted once).
                if self.g.directed || u <= v {
                    let w = self.g.weights.map_or(1.0, |w| w[idx]);
                    return Some((u, v, w));
                }
            }
            self.u += 1;
            self.pos = 0;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn triangle_plus_tail() -> CsrGraph {
        // 0-1, 1-2, 2-0 triangle, plus 2-3 tail.
        GraphBuilder::undirected()
            .add_edge(0, 1)
            .add_edge(1, 2)
            .add_edge(2, 0)
            .add_edge(2, 3)
            .build()
            .unwrap()
    }

    #[test]
    fn counts_and_degrees() {
        let g = triangle_plus_tail();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.num_adjacency_entries(), 8);
        assert_eq!(g.degree(NodeId(2)), 3);
        assert_eq!(g.degree(NodeId(3)), 1);
        assert!((g.mean_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn mean_degree_of_empty_graph_is_zero_not_nan() {
        // 0/0 would be NaN; the empty graph must pin to 0.0 on both
        // the owned graph and its borrowed view.
        let g = GraphBuilder::undirected()
            .with_num_nodes(0)
            .build()
            .unwrap();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.mean_degree(), 0.0);
        assert_eq!(g.view().mean_degree(), 0.0);
        // Edgeless-but-nonempty exercises the same ratio without the
        // guard: still finite, still zero.
        let g = GraphBuilder::undirected()
            .with_num_nodes(3)
            .build()
            .unwrap();
        assert_eq!(g.mean_degree(), 0.0);
        assert!(g.view().mean_degree().is_finite());
    }

    #[test]
    fn view_matches_owner() {
        let g = triangle_plus_tail();
        let v = g.view();
        assert_eq!(v.num_nodes(), g.num_nodes());
        assert_eq!(v.num_edges(), g.num_edges());
        assert_eq!(v.num_adjacency_entries(), g.num_adjacency_entries());
        assert_eq!(v.is_directed(), g.is_directed());
        assert_eq!(v.neighbors(NodeId(2)), g.neighbors(NodeId(2)));
        assert_eq!(v.adjacency_range(NodeId(1)), g.adjacency_range(NodeId(1)));
        assert_eq!(v.offsets().len(), g.num_nodes() + 1);
        assert_eq!(v.targets().len(), g.num_adjacency_entries());
        // Copy semantics: a view can be duplicated freely.
        let v2 = v;
        assert_eq!(v2.degree(NodeId(2)), v.degree(NodeId(2)));
    }

    #[test]
    fn neighbors_are_sorted() {
        let g = triangle_plus_tail();
        assert_eq!(g.neighbors(NodeId(2)), &[NodeId(0), NodeId(1), NodeId(3)]);
        for u in g.nodes() {
            let nbrs = g.neighbors(u);
            assert!(nbrs.windows(2).all(|w| w[0] < w[1]), "unsorted at {u:?}");
        }
    }

    #[test]
    fn has_edge_is_symmetric_for_undirected() {
        let g = triangle_plus_tail();
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(g.has_edge(NodeId(1), NodeId(0)));
        assert!(!g.has_edge(NodeId(0), NodeId(3)));
    }

    #[test]
    fn edge_iter_yields_each_edge_once() {
        let g = triangle_plus_tail();
        let edges: Vec<_> = g.edges().map(|(u, v, _)| (u.0, v.0)).collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2), (2, 3)]);
    }

    #[test]
    fn directed_edges_kept_as_arcs() {
        let g = GraphBuilder::directed()
            .add_edge(0, 1)
            .add_edge(1, 0)
            .add_edge(1, 2)
            .build()
            .unwrap();
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(NodeId(0)), 1);
        assert_eq!(g.degree(NodeId(1)), 2);
        assert_eq!(g.degree(NodeId(2)), 0);
        let arcs: Vec<_> = g.edges().map(|(u, v, _)| (u.0, v.0)).collect();
        assert_eq!(arcs, vec![(0, 1), (1, 0), (1, 2)]);
    }

    #[test]
    fn weighted_neighbors_default_weight_is_one() {
        let g = triangle_plus_tail();
        let pairs: Vec<_> = g.weighted_neighbors(NodeId(2)).collect();
        assert_eq!(
            pairs,
            vec![(NodeId(0), 1.0), (NodeId(1), 1.0), (NodeId(3), 1.0)]
        );
        assert_eq!(g.edge_weight(NodeId(2), NodeId(3)), Some(1.0));
        assert_eq!(g.edge_weight(NodeId(0), NodeId(3)), None);
    }

    #[test]
    fn weights_follow_sorted_targets() {
        let g = GraphBuilder::undirected()
            .add_weighted_edge(0, 2, 2.5)
            .add_weighted_edge(0, 1, 0.5)
            .build()
            .unwrap();
        assert!(g.has_weights());
        assert_eq!(g.neighbor_weights(NodeId(0)), Some(&[0.5, 2.5][..]));
        assert_eq!(g.edge_weight(NodeId(2), NodeId(0)), Some(2.5));
        assert_eq!(g.view().weights().map(|w| w.len()), Some(4));
    }

    #[test]
    fn memory_accounting_nonzero() {
        let g = triangle_plus_tail();
        assert!(g.memory_bytes() >= 8 * 4 + 5 * 4);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::undirected()
            .with_num_nodes(0)
            .build()
            .unwrap();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.mean_degree(), 0.0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn isolated_nodes_have_empty_slices() {
        let g = GraphBuilder::undirected()
            .with_num_nodes(5)
            .add_edge(0, 1)
            .build()
            .unwrap();
        assert_eq!(g.num_nodes(), 5);
        assert!(g.neighbors(NodeId(4)).is_empty());
        assert_eq!(g.degree(NodeId(4)), 0);
    }
}
