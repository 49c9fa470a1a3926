//! LONA-Forward (Algorithm 1): forward processing with
//! differential-index pruning.
//!
//! After evaluating `F(u)` exactly, every unpruned neighbor `v` gets
//! the Eq. 1/2 upper bound from `delta(v − u)`; neighbors whose bound
//! falls strictly below `topklbound` are added to the pruned list and
//! never pay an exact expansion.
//!
//! The loop runs on one or more workers. Workers steal chunks of the
//! processing order from a [`ChunkCursor`]; each owns a private scanner
//! and a private top-k heap. Node states live in a shared atomic array
//! so that a prune discovered by one worker spares *every* worker the
//! expansion, and `topklbound` is a [`SharedThreshold`] that workers
//! raise as their heaps fill. With one worker the shared threshold is
//! exactly the heap's own `threshold()`, so the loop is Algorithm 1.
//!
//! Soundness (DESIGN.md §7): when any worker prunes `v` it holds
//! `F(v) ≤ bound < t`, where `t` is the k-th best value of some fully
//! populated heap at that moment. Those k nodes were evaluated
//! exactly, so k nodes strictly beat `v` and `v` cannot enter the
//! final top-k. Stale threshold reads only make `t` smaller — pruning
//! less, never wrongly. Every evaluated node's aggregate is computed
//! by the same deterministic scan, so the answer is bit-identical at
//! every worker count, whichever interleaving the scheduler picks.

use std::sync::atomic::{AtomicU8, Ordering};

use lona_graph::NodeId;

use crate::aggregate::Aggregate;
use crate::algo::context::{fold_workers, Ctx};
use crate::algo::ForwardOptions;
use crate::algo::ProcessingOrder;
use crate::bounds::{avg_from_sum_bound, forward_max_bound, forward_sum_bound};
use crate::exec::{self, ChunkCursor, SharedThreshold};
use crate::index::SizeIndex;
use crate::neighborhood::NeighborhoodScanner;
use crate::result::QueryResult;
use crate::stats::QueryStats;
use crate::topk::TopKHeap;

/// Per-node processing states (stats invariant: every candidate ends
/// up either evaluated or pruned).
const PENDING: u8 = 0;
const EVALUATED: u8 = 1;
const PRUNED: u8 = 2;

pub(crate) fn run(ctx: &Ctx<'_>, opts: &ForwardOptions, threads: usize) -> QueryResult {
    assert!(
        !ctx.g.is_directed(),
        "LONA-Forward pruning requires an undirected graph (Eq. 1 needs mutual adjacency)"
    );
    let diffs = ctx
        .diffs
        .expect("engine must prepare the differential index");
    let sizes = ctx.sizes();
    let n = ctx.g.num_nodes();
    let threads = exec::resolve_threads(threads, n);

    // `order` contains candidates only; non-candidates start PRUNED
    // without being counted: they are outside the top-k universe,
    // never evaluated, and never bounded.
    let order = order(ctx, opts.order);
    let num_candidates = order.len();
    let state: Vec<AtomicU8> = (0..n)
        .map(|i| {
            AtomicU8::new(if ctx.is_candidate(NodeId(i as u32)) {
                PENDING
            } else {
                PRUNED
            })
        })
        .collect();
    let shared = SharedThreshold::new();
    // Small chunks propagate the threshold early; the claim is one
    // fetch_add so even chunk=1 would be cheap next to an expansion.
    let cursor = ChunkCursor::with_chunk(
        num_candidates,
        (num_candidates / (threads * 16)).clamp(1, 256),
    );

    let result = fold_workers(exec::run_workers(threads, |_| {
        let mut scanner = NeighborhoodScanner::new(n);
        let mut topk = TopKHeap::new(ctx.query.k);
        let mut stats = QueryStats::default();
        while let Some(range) = cursor.next() {
            for &u in &order[range] {
                // Claim u: losing the race means another worker pruned
                // it in the meantime (chunks themselves are disjoint).
                if state[u.index()]
                    .compare_exchange(PENDING, EVALUATED, Ordering::Relaxed, Ordering::Relaxed)
                    .is_err()
                {
                    continue;
                }

                let (scan, value) = ctx.evaluate(&mut scanner, u, &mut stats);
                topk.offer(u, value);
                if topk.is_full() {
                    shared.raise(topk.threshold());
                }

                // pruneNodes(u, F(u), G, topklbound) against the best
                // bound any worker has proven; no pruning power until
                // some heap holds k results.
                let lbound = shared.get();
                if lbound == f64::NEG_INFINITY {
                    continue;
                }
                let f_sum_u = scan.raw_mass + ctx.self_score(u).unwrap_or(0.0);
                let adj = ctx.g.adjacency_range(u);
                for (i, &v) in ctx.g.neighbors(u).iter().enumerate() {
                    if state[v.index()].load(Ordering::Relaxed) != PENDING {
                        continue;
                    }
                    let delta = diffs.delta_at(adj.start + i);
                    let bound = neighbor_bound(ctx, sizes, f_sum_u, value, delta, v);
                    if bound < lbound
                        && state[v.index()]
                            .compare_exchange(PENDING, PRUNED, Ordering::Relaxed, Ordering::Relaxed)
                            .is_ok()
                    {
                        stats.nodes_pruned += 1;
                    }
                }
            }
        }
        (topk, stats)
    }));
    debug_assert_eq!(
        result.stats.nodes_evaluated + result.stats.nodes_pruned,
        num_candidates
    );
    result
}

/// Eq. 1/2 upper bound for the not-yet-evaluated neighbor `v` of a
/// just-evaluated `u`. `f_sum_u` is u's plain-sum aggregate under the
/// query's self-inclusion semantics; `value_u` is u's finalized
/// aggregate (only MAX's bound consumes it).
fn neighbor_bound(
    ctx: &Ctx<'_>,
    sizes: &SizeIndex,
    f_sum_u: f64,
    value_u: f64,
    delta: u32,
    v: NodeId,
) -> f64 {
    let include_self = ctx.query.include_self;
    let n_v = sizes.get(v);
    let f_v = ctx.f(v);
    match ctx.query.aggregate {
        Aggregate::Avg => {
            let sum_bound = forward_sum_bound(f_sum_u, delta, n_v, f_v, include_self);
            avg_from_sum_bound(sum_bound, n_v, include_self)
        }
        // DistanceWeightedSum values are ≤ their plain-sum
        // counterparts, so the SUM bound stays valid.
        Aggregate::Sum | Aggregate::DistanceWeightedSum => {
            forward_sum_bound(f_sum_u, delta, n_v, f_v, include_self)
        }
        // MAX uses its own (weaker) differential bound.
        Aggregate::Max => forward_max_bound(value_u, delta, f_v, include_self),
    }
}

/// Materialize the processing order (candidates only — halo nodes of
/// a sharded run never enter the queue).
fn order(ctx: &Ctx<'_>, order: ProcessingOrder) -> Vec<NodeId> {
    let n = ctx.g.num_nodes() as u32;
    let mut ids: Vec<NodeId> = (0..n)
        .map(NodeId)
        .filter(|&u| ctx.is_candidate(u))
        .collect();
    match order {
        ProcessingOrder::NodeId => {}
        ProcessingOrder::DegreeDescending => {
            ids.sort_by_key(|&u| std::cmp::Reverse(ctx.g.degree(u)));
        }
        ProcessingOrder::ScoreDescending => {
            ids.sort_by(|&a, &b| ctx.f(b).total_cmp(&ctx.f(a)).then(a.cmp(&b)));
        }
    }
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::base_forward;
    use crate::engine::TopKQuery;
    use crate::index::{DiffIndex, SizeIndex};
    use lona_graph::{CsrGraph, GraphBuilder};
    use lona_relevance::ScoreVec;

    fn run_forward(
        g: &CsrGraph,
        scores: &[f64],
        h: u32,
        query: &TopKQuery,
        order: ProcessingOrder,
        threads: usize,
    ) -> QueryResult {
        let sizes = SizeIndex::build(g.view(), h);
        let diffs = DiffIndex::build(g.view(), h, &sizes);
        let score_vec = ScoreVec::new(scores.to_vec());
        let ctx = Ctx {
            g: g.view(),
            hops: h,
            scores,
            score_vec: &score_vec,
            query,
            sizes: Some(&sizes),
            diffs: Some(&diffs),
            candidates: None,
        };
        run(&ctx, &ForwardOptions { order }, threads)
    }

    fn two_communities() -> (CsrGraph, Vec<f64>) {
        // Dense high-scoring triangle {0,1,2} + low-scoring tail 3-4-5.
        let g = GraphBuilder::undirected()
            .extend_edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5)])
            .build()
            .unwrap();
        let scores = vec![1.0, 1.0, 1.0, 0.0, 0.0, 0.0];
        (g, scores)
    }

    fn clique_ring(n: u32) -> (CsrGraph, Vec<f64>) {
        let mut b = GraphBuilder::undirected();
        for c in 0..n / 6 {
            let base = c * 6;
            for i in 0..6 {
                for j in (i + 1)..6 {
                    b.push_edge(base + i, base + j);
                }
            }
            b.push_edge(base, (base + 6) % n);
        }
        let g = b.build().unwrap();
        let scores: Vec<f64> = (0..n).map(|i| ((i * 31) % 97) as f64 / 97.0).collect();
        (g, scores)
    }

    #[test]
    fn agrees_with_base_on_all_orders() {
        for (g, scores) in [two_communities(), clique_ring(120)] {
            for aggregate in [
                Aggregate::Sum,
                Aggregate::Avg,
                Aggregate::Max,
                Aggregate::DistanceWeightedSum,
            ] {
                for h in 1..=3 {
                    for k in [1, 2, 4, 20] {
                        let query = TopKQuery::new(k, aggregate);
                        let score_vec = ScoreVec::new(scores.to_vec());
                        let ctx = Ctx {
                            g: g.view(),
                            hops: h,
                            scores: &scores,
                            score_vec: &score_vec,
                            query: &query,
                            sizes: None,
                            diffs: None,
                            candidates: None,
                        };
                        let expect = base_forward::run(&ctx, 1);
                        for order in [
                            ProcessingOrder::NodeId,
                            ProcessingOrder::DegreeDescending,
                            ProcessingOrder::ScoreDescending,
                        ] {
                            let one = run_forward(&g, &scores, h, &query, order, 1);
                            for threads in [1, 3] {
                                let got = run_forward(&g, &scores, h, &query, order, threads);
                                let case =
                                    format!("h={h} k={k} {aggregate:?} {order:?} t={threads}");
                                assert!(
                                    got.same_values(&expect, 1e-9),
                                    "{case}: {:?} vs {:?}",
                                    got.values(),
                                    expect.values()
                                );
                                // The answer does not depend on the worker count.
                                assert_eq!(got.nodes(), one.nodes(), "{case}");
                                assert_eq!(got.values(), one.values(), "{case}");
                                assert_eq!(
                                    got.stats.nodes_evaluated + got.stats.nodes_pruned,
                                    g.num_nodes(),
                                    "state accounting broken: {case}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pruning_actually_fires() {
        // Big clustered graph where differential deltas are small:
        // a clique ring. With k=1 most of the ring must be prunable.
        let mut b = GraphBuilder::undirected();
        let n = 60u32;
        for c in 0..n / 6 {
            let base = c * 6;
            for i in 0..6 {
                for j in (i + 1)..6 {
                    b.push_edge(base + i, base + j);
                }
            }
            b.push_edge(base, (base + 6) % n); // ring link
        }
        let g = b.build().unwrap();
        // One hot clique, everything else cold.
        let scores: Vec<f64> = (0..n).map(|i| if i < 6 { 1.0 } else { 0.01 }).collect();
        let query = TopKQuery::new(1, Aggregate::Sum);
        let res = run_forward(&g, &scores, 2, &query, ProcessingOrder::NodeId, 1);
        assert!(
            res.stats.nodes_pruned > 0,
            "no pruning on a pruning-friendly graph"
        );
        assert_eq!(
            res.stats.nodes_pruned + res.stats.nodes_evaluated,
            g.num_nodes(),
            "state accounting broken"
        );
    }

    #[test]
    fn exclude_self_agrees_with_base() {
        let (g, scores) = two_communities();
        let query = TopKQuery::new(3, Aggregate::Avg).include_self(false);
        let score_vec = ScoreVec::new(scores.to_vec());
        let ctx = Ctx {
            g: g.view(),
            hops: 2,
            scores: &scores,
            score_vec: &score_vec,
            query: &query,
            sizes: None,
            diffs: None,
            candidates: None,
        };
        let expect = base_forward::run(&ctx, 1);
        let got = run_forward(&g, &scores, 2, &query, ProcessingOrder::NodeId, 1);
        assert!(got.same_values(&expect, 1e-9));
    }

    #[test]
    #[should_panic(expected = "undirected")]
    fn directed_rejected() {
        let g = GraphBuilder::directed().add_edge(0, 1).build().unwrap();
        let scores = vec![1.0, 1.0];
        let query = TopKQuery::new(1, Aggregate::Sum);
        let score_vec = ScoreVec::new(scores.to_vec());
        let ctx = Ctx {
            g: g.view(),
            hops: 1,
            scores: &scores,
            score_vec: &score_vec,
            query: &query,
            sizes: None,
            diffs: None,
            candidates: None,
        };
        let _ = run(&ctx, &ForwardOptions::default(), 1);
    }
}
