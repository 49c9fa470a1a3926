//! Cache-locality execution: run queries on a renumbered graph,
//! answer in original node ids.
//!
//! [`lona_graph::order`] computes a node [`Permutation`] (degree- or
//! BFS-ordered) whose point is memory layout: the h-hop scans of hot
//! nodes touch `offsets[v]` / `scores[v]` for ids that now sit close
//! together, so the per-edge cost drops from a cache miss toward a
//! streaming read. The renumbering is an implementation detail the
//! caller must never observe — this module wraps it so everything
//! going *in* (score vectors, source ids) is mapped into the
//! reordered space and everything coming *out* (ranked entries) is
//! mapped back, with ties re-broken by **original** id so ranked
//! output is identical to the natural-order engine wherever values
//! are distinct.
//!
//! Agreement with the natural-order engine is exact for counters and
//! Max, and within the workspace-standard 1e-9 for Sum/Avg: the
//! scanner accumulates depth-major, ascending-id within depth (see
//! [`crate::neighborhood`]), so the summation *sets* per depth are
//! numbering-independent even though the ascending-id order inside a
//! depth differs between numberings.

use lona_graph::order::{reorder, NodeOrder, Permutation};
use lona_graph::{CsrGraph, GraphStore, NodeId};
use lona_relevance::ScoreVec;

use crate::algo::Algorithm;
use crate::engine::{EngineState, LonaEngine, TopKQuery};
use crate::result::QueryResult;

/// Carry a score vector into the reordered id space:
/// `new[i] = old[new_to_old(i)]`.
///
/// Values are moved, never recomputed, so the permuted vector is
/// bit-identical to the original up to position.
pub fn permute_scores(perm: &Permutation, scores: &ScoreVec) -> ScoreVec {
    assert_eq!(
        perm.len(),
        scores.len(),
        "permutation covers {} nodes but scores cover {}",
        perm.len(),
        scores.len()
    );
    let old = scores.as_slice();
    ScoreVec::new(perm.new_to_old().iter().map(|&o| old[o as usize]).collect())
}

/// Map ranked entries from the reordered id space back to original
/// ids and restore the canonical output order: descending value,
/// ties broken by ascending *original* id.
///
/// The re-sort matters: the engine broke value ties by reordered id,
/// which would leak the numbering into the output.
pub fn map_entries_to_original(perm: &Permutation, entries: &mut [(NodeId, f64)]) {
    for e in entries.iter_mut() {
        e.0 = perm.to_old(e.0);
    }
    entries.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0 .0.cmp(&b.0 .0)));
}

/// A [`LonaEngine`] running over a renumbered copy of the graph.
///
/// Owns the reordered CSR, the permutation, and the warm
/// [`EngineState`] (indexes are built against the reordered graph and
/// reused across queries). Queries take scores and return entries in
/// the *original* id space.
///
/// ```
/// use lona_core::locality::ReorderedEngine;
/// use lona_core::{Aggregate, Algorithm, LonaEngine, TopKQuery};
/// use lona_gen::generators::barabasi_albert;
/// use lona_graph::NodeOrder;
/// use lona_relevance::MixtureBuilder;
///
/// let g = barabasi_albert(500, 3, 7).unwrap();
/// let scores = MixtureBuilder::new(0.05).build(&g, 7);
/// let query = TopKQuery::new(10, Aggregate::Sum);
///
/// let natural = LonaEngine::new(&g, 2).run(&Algorithm::forward(), &query, &scores);
/// let mut deg = ReorderedEngine::new(&g, NodeOrder::Degree, 2);
/// let reordered = deg.run(&Algorithm::forward(), &query, &scores);
/// assert!(reordered.same_values(&natural, 1e-9));
/// ```
#[derive(Debug)]
pub struct ReorderedEngine {
    graph: CsrGraph,
    perm: Permutation,
    order: NodeOrder,
    hops: u32,
    state: EngineState,
}

impl ReorderedEngine {
    /// Renumber `g` under `order` and wrap an engine around the copy.
    pub fn new<G: GraphStore + ?Sized>(g: &G, order: NodeOrder, hops: u32) -> Self {
        let view = g.csr();
        let perm = order.compute(view);
        let graph = reorder(view, &perm);
        ReorderedEngine {
            graph,
            perm,
            order,
            hops,
            state: EngineState::new(),
        }
    }

    /// Wrap an engine around an already-reordered graph + permutation
    /// (the compiled-container load path, where both come off the
    /// mmap without recomputation).
    pub fn from_parts(graph: CsrGraph, perm: Permutation, order: NodeOrder, hops: u32) -> Self {
        assert_eq!(
            graph.num_nodes(),
            perm.len(),
            "graph has {} nodes but the permutation covers {}",
            graph.num_nodes(),
            perm.len()
        );
        ReorderedEngine {
            graph,
            perm,
            order,
            hops,
            state: EngineState::new(),
        }
    }

    /// The node order this engine was built with.
    pub fn order(&self) -> NodeOrder {
        self.order
    }

    /// The applied permutation (new ↔ original ids).
    pub fn permutation(&self) -> &Permutation {
        &self.perm
    }

    /// The renumbered graph.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// Index builds charged so far (see [`EngineState::index_builds`]).
    pub fn index_builds(&self) -> u32 {
        self.state.index_builds()
    }

    /// Run one query. `scores` is in the **original** id space; the
    /// returned entries are too.
    pub fn run(
        &mut self,
        algorithm: &Algorithm,
        query: &TopKQuery,
        scores: &ScoreVec,
    ) -> QueryResult {
        let permuted = permute_scores(&self.perm, scores);
        self.run_permuted(algorithm, query, &permuted)
    }

    /// Run one query whose `scores` are already in the reordered id
    /// space (e.g. permuted once and reused across many queries).
    /// Returned entries are mapped back to original ids.
    pub fn run_permuted(
        &mut self,
        algorithm: &Algorithm,
        query: &TopKQuery,
        scores: &ScoreVec,
    ) -> QueryResult {
        let state = std::mem::take(&mut self.state);
        let mut engine = LonaEngine::from_state(&self.graph, self.hops, state);
        let mut result = engine.run(algorithm, query, scores);
        self.state = engine.into_state();
        map_entries_to_original(&self.perm, &mut result.entries);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Aggregate;
    use lona_gen::generators::barabasi_albert;
    use lona_relevance::MixtureBuilder;

    fn workload() -> (CsrGraph, ScoreVec) {
        let g = barabasi_albert(600, 3, 11).unwrap();
        let scores = MixtureBuilder::new(0.05).build(&g, 11);
        (g, scores)
    }

    #[test]
    fn permute_scores_moves_values() {
        let (g, scores) = workload();
        let perm = NodeOrder::Degree.compute(g.view());
        let p = permute_scores(&perm, &scores);
        for new in 0..g.num_nodes() as u32 {
            let old = perm.to_old(NodeId(new));
            assert_eq!(
                p.get(NodeId(new)).to_bits(),
                scores.get(old).to_bits(),
                "score must move with its node"
            );
        }
    }

    #[test]
    fn every_order_matches_natural_values() {
        let (g, scores) = workload();
        let query = TopKQuery::new(12, Aggregate::Sum);
        let base = LonaEngine::new(&g, 2).run(&Algorithm::Base, &query, &scores);
        let fwd = LonaEngine::new(&g, 2).run(&Algorithm::forward(), &query, &scores);
        for order in [NodeOrder::Degree, NodeOrder::Bfs] {
            let mut eng = ReorderedEngine::new(&g, order, 2);
            // Base scans every node fully, so its counters are a
            // numbering-independent invariant. Pruned algorithms are
            // only value-gated: which nodes escape pruning depends on
            // tie-breaks in the bound order, which the numbering sets.
            let rb = eng.run(&Algorithm::Base, &query, &scores);
            assert!(
                rb.same_values(&base, 1e-9),
                "{order} Base values diverged from natural"
            );
            assert_eq!(
                rb.stats.edges_traversed, base.stats.edges_traversed,
                "{order} Base must touch the same number of adjacency entries"
            );
            assert_eq!(rb.stats.nodes_evaluated, base.stats.nodes_evaluated);
            let rf = eng.run(&Algorithm::forward(), &query, &scores);
            assert!(
                rf.same_values(&fwd, 1e-9),
                "{order} forward values diverged from natural"
            );
        }
    }

    #[test]
    fn orders_agree_and_containers_roundtrip() {
        use crate::compiled::{compile_to_vec, CompileSpec, CompiledGraph};

        let (g, scores) = workload();
        let sum = TopKQuery::new(10, Aggregate::Sum);
        let natural = LonaEngine::new(&g, 2).run(&Algorithm::Base, &sum, &scores);
        // Original ids must match wherever values are distinct beyond
        // 1e-9; a closer pair is a tie the numberings may break apart.
        let ranks_agree = |r: &QueryResult| {
            r.entries.len() == natural.entries.len()
                && r.entries
                    .iter()
                    .zip(&natural.entries)
                    .all(|(a, b)| a.0 == b.0 || (a.1 - b.1).abs() <= 1e-9)
        };
        for order in [NodeOrder::Degree, NodeOrder::Bfs] {
            let mut eng = ReorderedEngine::new(&g, order, 2);
            let r = eng.run(&Algorithm::Base, &sum, &scores);
            assert!(ranks_agree(&r), "{order} ranked different nodes");
            for agg in [Aggregate::Avg, Aggregate::Max] {
                let q = TopKQuery::new(10, agg);
                let want = LonaEngine::new(&g, 2).run(&Algorithm::Base, &q, &scores);
                let got = eng.run(&Algorithm::Base, &q, &scores);
                let eps = if agg == Aggregate::Max { 0.0 } else { 1e-9 };
                assert!(got.same_values(&want, eps), "{order} {agg:?} diverged");
            }
        }

        // A natural container carries no permutation and answers
        // bit-identically; a degree container recovers its order and,
        // mapped back, does the same Base work and ranking as natural.
        for order in [NodeOrder::Natural, NodeOrder::Degree] {
            let spec = CompileSpec {
                graph: g.view(),
                scores: Some(&scores),
                hops: &[2],
                with_diff: true,
                order,
            };
            let c = CompiledGraph::from_bytes(compile_to_vec(&spec).unwrap()).unwrap();
            assert_eq!(c.order(), order);
            let embedded = c.scores().cloned().unwrap();
            let state = c.engine_state(2).unwrap();
            let mut engine = LonaEngine::from_state(&c, 2, state);
            let mut r = engine.run(&Algorithm::Base, &sum, &embedded);
            assert_eq!(r.stats.edges_traversed, natural.stats.edges_traversed);
            assert_eq!(r.stats.nodes_evaluated, natural.stats.nodes_evaluated);
            match c.permutation() {
                None => {
                    assert_eq!(order, NodeOrder::Natural);
                    let bits = |q: &QueryResult| -> Vec<(NodeId, u64)> {
                        q.entries.iter().map(|e| (e.0, e.1.to_bits())).collect()
                    };
                    assert_eq!(bits(&r), bits(&natural));
                }
                Some(perm) => {
                    assert_eq!(order, NodeOrder::Degree);
                    map_entries_to_original(perm, &mut r.entries);
                    assert!(r.same_values(&natural, 1e-9) && ranks_agree(&r));
                }
            }
        }
    }

    #[test]
    fn entries_come_back_in_original_ids() {
        let (g, scores) = workload();
        let n = g.num_nodes() as u32;
        let mut eng = ReorderedEngine::new(&g, NodeOrder::Bfs, 2);
        let query = TopKQuery::new(8, Aggregate::Max);
        let r = eng.run(&Algorithm::Base, &query, &scores);
        let natural = LonaEngine::new(&g, 2).run(&Algorithm::Base, &query, &scores);
        // Max is a bit-identical aggregate, so values match exactly.
        for (a, b) in r.entries.iter().zip(natural.entries.iter()) {
            assert_eq!(a.1.to_bits(), b.1.to_bits(), "Max must be bit-identical");
        }
        for &(node, _) in &r.entries {
            assert!(node.0 < n, "entry {node} escaped the original id space");
        }
    }

    #[test]
    fn state_is_warm_across_queries() {
        let (g, scores) = workload();
        let mut eng = ReorderedEngine::new(&g, NodeOrder::Degree, 2);
        let query = TopKQuery::new(5, Aggregate::Sum);
        let _ = eng.run(&Algorithm::forward(), &query, &scores);
        let builds = eng.index_builds();
        let _ = eng.run(&Algorithm::forward(), &query, &scores);
        assert_eq!(eng.index_builds(), builds, "indexes must be reused");
    }

    #[test]
    fn tie_break_is_by_original_id() {
        let mut entries = vec![(NodeId(0), 1.0), (NodeId(1), 1.0)];
        // Identity permutation of size 2: map-back keeps ids, sort
        // must order the tie by ascending original id.
        let perm = Permutation::identity(2);
        entries.swap(0, 1);
        map_entries_to_original(&perm, &mut entries);
        assert_eq!(entries, vec![(NodeId(0), 1.0), (NodeId(1), 1.0)]);
    }
}
