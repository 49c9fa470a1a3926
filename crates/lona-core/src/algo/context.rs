//! Shared execution context handed to each algorithm.

use lona_graph::{CsrView, NodeId};
use lona_relevance::ScoreVec;

use crate::aggregate::Aggregate;
use crate::engine::TopKQuery;
use crate::index::{DiffIndex, SizeIndex};
use crate::neighborhood::{NeighborhoodScanner, ScanResult};
use crate::result::QueryResult;
use crate::stats::QueryStats;
use crate::topk::TopKHeap;

/// Everything an algorithm needs to run one query.
pub(crate) struct Ctx<'a> {
    /// The graph as a `Copy` slice bundle — identical for the in-RAM
    /// and memory-mapped backends, so every algorithm body is
    /// backend-agnostic machine code.
    pub g: CsrView<'a>,
    pub hops: u32,
    /// Raw score slice (`scores[u]` = `f(u)`).
    pub scores: &'a [f64],
    /// The owning score vector (carries the cached backward
    /// distribution order; `scores` above is its slice).
    pub score_vec: &'a ScoreVec,
    pub query: &'a TopKQuery,
    pub sizes: Option<&'a SizeIndex>,
    pub diffs: Option<&'a DiffIndex>,
    /// Candidate mask: only `true` nodes are eligible for the top-k
    /// (every node still contributes as a neighbor / distributor).
    /// `None` = every node is a candidate. The sharded engine sets
    /// this to a shard's ownership mask so halo replicas are never
    /// reported (their own neighborhoods are truncated).
    pub candidates: Option<&'a [bool]>,
}

impl<'a> Ctx<'a> {
    /// Non-zero `(node, score)` pairs in descending score order — the
    /// backward distribution order. Computed once per score vector
    /// and cached there (the sort is O(nnz log nnz); batch and serve
    /// traffic runs many backward queries against one vector).
    pub fn nonzero_descending(&self) -> &'a [(NodeId, f64)] {
        self.score_vec.nonzero_descending_cached()
    }

    /// Whether `u` is eligible for the top-k.
    #[inline(always)]
    pub fn is_candidate(&self, u: NodeId) -> bool {
        self.candidates.is_none_or(|m| m[u.index()])
    }
}

impl<'a> Ctx<'a> {
    /// `f(u)` — the relevance score of `u`.
    #[inline(always)]
    pub fn f(&self, u: NodeId) -> f64 {
        self.scores[u.index()]
    }

    /// `Some(f(u))` when the query includes self, else `None`.
    #[inline(always)]
    pub fn self_score(&self, u: NodeId) -> Option<f64> {
        self.query.include_self.then(|| self.f(u))
    }

    /// Run the aggregate-appropriate exact scan of `u` and record its
    /// work in `stats`. Returns the scan plus the finalized aggregate.
    #[inline]
    pub fn evaluate(
        &self,
        scanner: &mut NeighborhoodScanner,
        u: NodeId,
        stats: &mut QueryStats,
    ) -> (ScanResult, f64) {
        let scan = match self.query.aggregate {
            Aggregate::DistanceWeightedSum => {
                scanner.distance_weighted_scan(self.g, u, self.hops, self.scores)
            }
            Aggregate::Max => scanner.max_scan(self.g, u, self.hops, self.scores),
            _ => scanner.sum_scan(self.g, u, self.hops, self.scores),
        };
        stats.nodes_evaluated += 1;
        stats.edges_traversed += scan.edges;
        let value = self
            .query
            .aggregate
            .finalize(scan.mass, scan.count, self.self_score(u));
        (scan, value)
    }

    /// The size index, which the engine guarantees is present for the
    /// algorithms that declared they need it.
    #[inline]
    pub fn sizes(&self) -> &SizeIndex {
        self.sizes
            .expect("engine must prepare the size index for this algorithm")
    }
}

/// Fold the per-worker `(heap, stats)` pairs of a worker loop into one
/// result. Offering every entry into worker 0's heap keeps the global
/// `(value desc, id asc)` order, and a single worker's heap is taken
/// as is — one worker pays no merge pass.
pub(crate) fn fold_workers(parts: Vec<(TopKHeap, QueryStats)>) -> QueryResult {
    let mut parts = parts.into_iter();
    let (mut topk, mut stats) = parts
        .next()
        .expect("a worker loop runs at least one worker");
    for (heap, s) in parts {
        for (node, value) in heap.into_sorted_vec() {
            topk.offer(node, value);
        }
        stats.merge(&s);
    }
    QueryResult {
        entries: topk.into_sorted_vec(),
        stats,
    }
}
