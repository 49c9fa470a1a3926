//! LONA-Backward (§IV): partial backward distribution with
//! threshold-algorithm verification.
//!
//! 1. Every node with `f(u) > γ` scatters its score to `S_h(u)` in
//!    descending score order;
//! 2. every node then carries the Eq. 3 upper bound
//!    `partial + γ·(N(v) − received) + [self]·f(v)`;
//! 3. candidates are verified best-bound-first with exact forward
//!    expansions until the next bound cannot beat `topklbound` —
//!    everything after that line is discarded unevaluated.
//!
//! Two structural fast paths fall out of the bound:
//!
//! * γ = 0 (binary scores): the bound *is* the exact sum, so no
//!   verification expansions run at all;
//! * a candidate all of whose neighbors distributed (`received =
//!   N(v)`) is likewise exact.
//!
//! Each phase runs on one or more workers:
//!
//! * **Distribution** — the above-γ distributor list is split into
//!   contiguous blocks, one per worker; each worker scatters into a
//!   *private* `partial`/`received` pair, and the pairs fold into
//!   worker 0's in fixed worker order. Private buffers keep the hot
//!   inner loop free of atomics, and the fixed fold order keeps the
//!   floating-point result deterministic for a given worker count
//!   (worker-local sums group differently than one worker's, so
//!   worker counts agree to rounding — the suite's 1e-9 tolerance —
//!   not bit-for-bit). One worker folds nothing.
//! * **Bounds** — embarrassingly parallel over node ranges, then one
//!   sort by descending bound.
//! * **Verification** — workers claim candidates in bound order from
//!   a [`ChunkCursor`] (the distributed form of the paper's
//!   best-bound-first walk), verify against private heaps, and raise
//!   a [`SharedThreshold`] as the heaps fill. A worker stops as soon
//!   as the next bound cannot beat the shared threshold; since bounds
//!   descend along the cursor, everything later is unreachable too.
//!   With one worker the shared threshold is the heap's own, and
//!   every Eq. 3 bound is ≥ 0, so the stop rule is the serial TA
//!   stop. More workers may verify up to `threads · k` extra
//!   borderline candidates (each heap must fill before it can raise
//!   the threshold) — wasted work, never wrong answers.
//!
//! The stop rule (`bound <= threshold`) may discard a candidate whose
//! exact value *ties* the k-th best; the merged heap then holds an
//! equal-valued node instead, so the value sequence is unchanged but
//! the node set can resolve ties differently across worker counts
//! (and schedules). That is within the cross-algorithm contract —
//! `QueryResult::same_values` defines agreement over values precisely
//! because the paper's top-k semantics allow any tie-breaking.

use lona_graph::NodeId;

use crate::aggregate::Aggregate;
use crate::algo::context::{fold_workers, Ctx};
use crate::algo::BackwardOptions;
use crate::bounds::{backward_max_bound, backward_sum_bound};
use crate::exec::{self, ChunkCursor, SharedThreshold};
use crate::neighborhood::NeighborhoodScanner;
use crate::result::QueryResult;
use crate::stats::QueryStats;
use crate::topk::TopKHeap;

pub(crate) fn run(ctx: &Ctx<'_>, opts: &BackwardOptions, threads: usize) -> QueryResult {
    assert!(
        !ctx.g.is_directed(),
        "backward distribution requires an undirected graph (u ∈ S(v) ⟺ v ∈ S(u))"
    );
    let n = ctx.g.num_nodes();
    let threads = exec::resolve_threads(threads, n);
    let gamma = opts.gamma.resolve_slice(ctx.scores);

    // --- Phase 1: partial distribution above γ, descending order. ---
    let nonzero = ctx.nonzero_descending();
    let distributors = &nonzero[..nonzero.iter().take_while(|&&(_, f_u)| f_u > gamma).count()];
    let dist_threads = exec::resolve_threads(threads, distributors.len());
    let block = distributors.len().div_ceil(dist_threads);
    let mut buffers = exec::run_workers(dist_threads, |t| {
        let start = (t * block).min(distributors.len());
        let end = ((t + 1) * block).min(distributors.len());
        let mut partial = vec![0.0f64; n];
        let mut received = vec![0u32; n];
        let mut edges = 0u64;
        let mut scanner = NeighborhoodScanner::new(n);
        for &(u, f_u) in &distributors[start..end] {
            edges += distribute_one(ctx, &mut scanner, u, f_u, &mut partial, &mut received);
        }
        (partial, received, edges)
    })
    .into_iter();
    let (mut partial, mut received, mut dist_edges) = buffers
        .next()
        .expect("distribution runs at least one worker");
    let max_agg = ctx.query.aggregate == Aggregate::Max;
    for (p, r, edges) in buffers {
        dist_edges += edges;
        for i in 0..n {
            if max_agg {
                partial[i] = partial[i].max(p[i]);
            } else {
                partial[i] += p[i];
            }
            received[i] += r[i];
        }
    }

    // --- Phase 2: Eq. 3 bounds for every candidate node (halo nodes
    // of a sharded run are ineligible). ---
    let mut candidates: Vec<(NodeId, f64)> = (0..n as u32)
        .map(NodeId)
        .filter(|&v| ctx.is_candidate(v))
        .map(|v| (v, 0.0))
        .collect();
    let num_candidates = candidates.len();
    exec::partition_mut(&mut candidates, threads, |_, slice| {
        for (v, bound) in slice.iter_mut() {
            *bound = candidate_bound(ctx, gamma, &partial, &received, *v);
        }
    });
    candidates.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

    // --- Phase 3: verification in bound order with TA early stop. ---
    // Chunk of 4: candidates near the front are expensive hub
    // expansions, and a fine-grained cursor keeps the stop line tight.
    let cursor = ChunkCursor::with_chunk(num_candidates, 4);
    let shared = SharedThreshold::new();
    let mut result = fold_workers(exec::run_workers(threads, |_| {
        let mut scanner = NeighborhoodScanner::new(n);
        let mut topk = TopKHeap::new(ctx.query.k);
        let mut stats = QueryStats::default();
        'work: while let Some(range) = cursor.next() {
            for &(v, bound) in &candidates[range] {
                // Everything from here on is bounded at or below a
                // full heap's floor — the shared threshold is only
                // ever raised by heaps holding k exact results — so
                // discard it unevaluated.
                if bound <= shared.get() {
                    break 'work;
                }
                let value =
                    verify_one(ctx, &mut scanner, &mut stats, gamma, &partial, &received, v);
                topk.offer(v, value);
                if topk.is_full() {
                    shared.raise(topk.threshold());
                }
            }
        }
        (topk, stats)
    }));
    // Every verified candidate was either exact from its bound or
    // evaluated; the rest were discarded by the stop rule.
    let stats = &mut result.stats;
    stats.nodes_pruned = num_candidates - (stats.exact_from_bound + stats.nodes_evaluated);
    stats.nodes_distributed = distributors.len();
    stats.edges_traversed += dist_edges;
    result
}

/// Scatter `f_u` over `S_h(u)` into `partial`/`received` under the
/// query's aggregate semantics; returns the edges traversed.
fn distribute_one(
    ctx: &Ctx<'_>,
    scanner: &mut NeighborhoodScanner,
    u: NodeId,
    f_u: f64,
    partial: &mut [f64],
    received: &mut [u32],
) -> u64 {
    match ctx.query.aggregate {
        Aggregate::DistanceWeightedSum => {
            let (_, e) = scanner.for_each_depth(ctx.g, u, ctx.hops, |v, depth| {
                partial[v as usize] += f_u / depth as f64;
                received[v as usize] += 1;
            });
            e
        }
        Aggregate::Max => {
            let (_, e) = scanner.for_each(ctx.g, u, ctx.hops, |v| {
                let p = &mut partial[v as usize];
                if f_u > *p {
                    *p = f_u;
                }
                received[v as usize] += 1;
            });
            e
        }
        Aggregate::Sum | Aggregate::Avg => {
            let (_, e) = scanner.for_each(ctx.g, u, ctx.hops, |v| {
                partial[v as usize] += f_u;
                received[v as usize] += 1;
            });
            e
        }
    }
}

/// The Eq. 3 upper bound for candidate `v` after distribution. With
/// γ = 0 the unknown term vanishes and N(v) is only needed for AVG
/// denominators — this is how the backward method runs index-free on
/// binary workloads.
fn candidate_bound(ctx: &Ctx<'_>, gamma: f64, partial: &[f64], received: &[u32], v: NodeId) -> f64 {
    let aggregate = ctx.query.aggregate;
    let include_self = ctx.query.include_self;
    let f_v = ctx.f(v);
    match aggregate {
        Aggregate::Max => {
            if gamma > 0.0 {
                backward_max_bound(
                    partial[v.index()],
                    received[v.index()],
                    ctx.sizes().get(v),
                    gamma,
                    f_v,
                    include_self,
                )
            } else {
                // γ = 0: unknown neighbors contribute nothing.
                aggregate.finalize(partial[v.index()], 0, include_self.then_some(f_v))
            }
        }
        _ => {
            let sum_bound = if gamma > 0.0 {
                let n_v = ctx.sizes().get(v);
                backward_sum_bound(
                    partial[v.index()],
                    received[v.index()],
                    n_v,
                    gamma,
                    f_v,
                    include_self,
                )
            } else {
                partial[v.index()] + if include_self { f_v } else { 0.0 }
            };
            match aggregate {
                Aggregate::Avg => {
                    let denom = ctx.sizes().get(v) + usize::from(include_self);
                    if denom == 0 {
                        0.0
                    } else {
                        sum_bound / denom as f64
                    }
                }
                _ => sum_bound,
            }
        }
    }
}

/// Produce the exact aggregate of candidate `v`: straight from the
/// bound when it is already exact (γ = 0, or every neighbor
/// distributed and the aggregate is distance-blind), otherwise via a
/// full forward expansion. Updates `stats` accordingly.
fn verify_one(
    ctx: &Ctx<'_>,
    scanner: &mut NeighborhoodScanner,
    stats: &mut QueryStats,
    gamma: f64,
    partial: &[f64],
    received: &[u32],
    v: NodeId,
) -> f64 {
    let aggregate = ctx.query.aggregate;
    let weighted = aggregate == Aggregate::DistanceWeightedSum;
    let exact_known =
        gamma == 0.0 || (received[v.index()] as usize == ctx.sizes().get(v) && !weighted);
    if exact_known {
        stats.exact_from_bound += 1;
        let mass = partial[v.index()];
        let count = match aggregate {
            Aggregate::Avg => ctx.sizes().get(v),
            _ => 0,
        };
        aggregate.finalize(mass, count, ctx.self_score(v))
    } else {
        let (_, value) = ctx.evaluate(scanner, v, stats);
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::base_forward;
    use crate::algo::GammaSpec;
    use crate::engine::TopKQuery;
    use crate::index::SizeIndex;
    use lona_graph::{CsrGraph, GraphBuilder};
    use lona_relevance::ScoreVec;

    fn gadget() -> (CsrGraph, Vec<f64>) {
        // Two triangles bridged: {0,1,2} hot, {3,4,5} cold.
        let g = GraphBuilder::undirected()
            .extend_edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)])
            .build()
            .unwrap();
        let scores = vec![1.0, 0.8, 0.6, 0.3, 0.1, 0.05];
        (g, scores)
    }

    fn run_backward(
        g: &CsrGraph,
        scores: &[f64],
        h: u32,
        query: &TopKQuery,
        gamma: GammaSpec,
        threads: usize,
    ) -> QueryResult {
        let sizes = SizeIndex::build(g.view(), h);
        let score_vec = ScoreVec::new(scores.to_vec());
        let ctx = Ctx {
            g: g.view(),
            hops: h,
            scores,
            score_vec: &score_vec,
            query,
            sizes: Some(&sizes),
            diffs: None,
            candidates: None,
        };
        run(&ctx, &BackwardOptions { gamma }, threads)
    }

    #[test]
    fn agrees_with_base_across_gammas() {
        let (g, scores) = gadget();
        for aggregate in [
            Aggregate::Sum,
            Aggregate::Avg,
            Aggregate::DistanceWeightedSum,
        ] {
            for h in 1..=3 {
                for k in [1, 3, 6] {
                    for gamma in [
                        GammaSpec::Fixed(0.0),
                        GammaSpec::Fixed(0.2),
                        GammaSpec::Fixed(0.7),
                        GammaSpec::Fixed(2.0), // nothing distributes
                        GammaSpec::NonzeroQuantile(0.5),
                        GammaSpec::NonzeroQuantile(0.9),
                    ] {
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
                        for threads in [1, 3] {
                            let got = run_backward(&g, &scores, h, &query, gamma, threads);
                            assert!(
                                got.same_values(&expect, 1e-9),
                                "{aggregate:?} h={h} k={k} {gamma:?} t={threads}: {:?} vs {:?}",
                                got.values(),
                                expect.values()
                            );
                            // Verified (= n − pruned) candidates split
                            // between the exact fast path and full
                            // expansions.
                            assert_eq!(
                                g.num_nodes() - got.stats.nodes_pruned,
                                got.stats.exact_from_bound + got.stats.nodes_evaluated
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn binary_scores_never_expand() {
        let mut b = GraphBuilder::undirected();
        for i in 0..50u32 {
            b.push_edge(i, (i + 1) % 50);
            b.push_edge(i, (i + 7) % 50);
        }
        let g = b.build().unwrap();
        let scores: Vec<f64> = (0..50)
            .map(|i| if i % 10 == 0 { 1.0 } else { 0.0 })
            .collect();
        let query = TopKQuery::new(5, Aggregate::Sum);
        // Quantile of identical non-zero scores falls back to γ = 0.
        for threads in [1, 3] {
            let res = run_backward(&g, &scores, 2, &query, GammaSpec::default(), threads);
            assert_eq!(res.stats.nodes_evaluated, 0, "binary path must not expand");
            assert_eq!(res.stats.nodes_distributed, 5);
            assert!(res.stats.exact_from_bound > 0);
        }
    }

    #[test]
    fn early_termination_prunes_most_candidates() {
        // Hot region far above everything else -> verification stops
        // after a handful of candidates.
        let mut b = GraphBuilder::undirected();
        for i in 0..200u32 {
            b.push_edge(i, (i + 1) % 200);
        }
        let g = b.build().unwrap();
        let mut scores = vec![0.001; 200];
        for s in scores.iter_mut().take(5) {
            *s = 1.0;
        }
        let query = TopKQuery::new(3, Aggregate::Sum);
        let res = run_backward(&g, &scores, 2, &query, GammaSpec::Fixed(0.5), 1);
        assert!(
            res.stats.nodes_pruned > 150,
            "expected strong pruning, got {}",
            res.stats.nodes_pruned
        );
    }

    #[test]
    fn include_self_false_agrees() {
        let (g, scores) = gadget();
        let query = TopKQuery::new(4, Aggregate::Avg).include_self(false);
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
        let got = run_backward(&g, &scores, 2, &query, GammaSpec::Fixed(0.4), 1);
        assert!(got.same_values(&expect, 1e-9));
    }
}
