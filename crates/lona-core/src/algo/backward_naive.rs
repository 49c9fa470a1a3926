//! BackwardNaive (Algorithm 2): full backward distribution.
//!
//! Every node with a non-zero score scatters it to its whole h-hop
//! neighborhood; afterwards all aggregates are exact and the top-k is
//! a single pass. "There is one exception when the relevance function
//! is 0-1 binary: it can skip nodes with 0 score" — and that skip is
//! structural here: zero-score nodes simply never distribute, so with
//! blacking ratio r only `r·|V|` expansions run instead of `|V|`.

use lona_graph::NodeId;

use crate::aggregate::Aggregate;
use crate::algo::context::Ctx;
use crate::neighborhood::NeighborhoodScanner;
use crate::result::QueryResult;
use crate::stats::QueryStats;
use crate::topk::TopKHeap;

pub(crate) fn run(ctx: &Ctx<'_>) -> QueryResult {
    assert!(
        !ctx.g.is_directed(),
        "backward distribution requires an undirected graph (u ∈ S(v) ⟺ v ∈ S(u))"
    );
    let n = ctx.g.num_nodes();
    let mut scanner = NeighborhoodScanner::new(n);
    let mut stats = QueryStats::default();
    let aggregate = ctx.query.aggregate;

    // Distribution phase: skip zero nodes. SUM/AVG accumulate, the
    // distance-weighted variant divides by hop distance, MAX keeps a
    // running maximum — all three remain exact after a full pass.
    let mut partial = vec![0.0f64; n];
    for i in 0..n as u32 {
        let u = NodeId(i);
        let f_u = ctx.f(u);
        if f_u <= 0.0 {
            continue;
        }
        stats.nodes_distributed += 1;
        let edges = match aggregate {
            Aggregate::DistanceWeightedSum => {
                let (_, edges) = scanner.for_each_depth(ctx.g, u, ctx.hops, |v, depth| {
                    partial[v as usize] += f_u / depth as f64;
                });
                edges
            }
            Aggregate::Max => {
                let (_, edges) = scanner.for_each(ctx.g, u, ctx.hops, |v| {
                    let p = &mut partial[v as usize];
                    if f_u > *p {
                        *p = f_u;
                    }
                });
                edges
            }
            Aggregate::Sum | Aggregate::Avg => {
                let (_, edges) =
                    scanner.for_each(ctx.g, u, ctx.hops, |v| partial[v as usize] += f_u);
                edges
            }
        };
        stats.edges_traversed += edges;
    }

    // Selection phase: every aggregate is now exact. Only candidates
    // compete (halo nodes of a sharded run received partial mass as
    // neighbors but are not eligible results).
    let mut topk = TopKHeap::new(ctx.query.k);
    for i in 0..n as u32 {
        let u = NodeId(i);
        if !ctx.is_candidate(u) {
            continue;
        }
        let mass = partial[u.index()];
        let count = match ctx.query.aggregate {
            Aggregate::Avg => ctx.sizes().get(u),
            _ => 0, // count is irrelevant for SUM finalization
        };
        let value = ctx.query.aggregate.finalize(mass, count, ctx.self_score(u));
        topk.offer(u, value);
    }

    QueryResult {
        entries: topk.into_sorted_vec(),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::base_forward;
    use crate::engine::TopKQuery;
    use crate::index::SizeIndex;
    use lona_graph::{CsrGraph, GraphBuilder};
    use lona_relevance::ScoreVec;

    fn gadget() -> (CsrGraph, Vec<f64>) {
        // 0-1-2-3-4 path plus chord 1-3.
        let g = GraphBuilder::undirected()
            .extend_edges([(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)])
            .build()
            .unwrap();
        let scores = vec![0.9, 0.0, 0.5, 0.0, 0.3];
        (g, scores)
    }

    fn run_naive(g: &CsrGraph, scores: &[f64], h: u32, query: &TopKQuery) -> QueryResult {
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
        run(&ctx)
    }

    #[test]
    fn agrees_with_base_all_aggregates() {
        let (g, scores) = gadget();
        for aggregate in [
            Aggregate::Sum,
            Aggregate::Avg,
            Aggregate::DistanceWeightedSum,
        ] {
            for h in 1..=3 {
                for include_self in [true, false] {
                    let query = TopKQuery::new(5, aggregate).include_self(include_self);
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
                    let got = run_naive(&g, &scores, h, &query);
                    assert!(
                        got.same_values(&expect, 1e-9),
                        "{aggregate:?} h={h} self={include_self}: {:?} vs {:?}",
                        got.values(),
                        expect.values()
                    );
                }
            }
        }
    }

    #[test]
    fn zero_nodes_are_skipped() {
        let (g, scores) = gadget();
        let query = TopKQuery::new(2, Aggregate::Sum);
        let res = run_naive(&g, &scores, 2, &query);
        // Only the three non-zero nodes distribute.
        assert_eq!(res.stats.nodes_distributed, 3);
        assert_eq!(res.stats.nodes_evaluated, 0, "no forward expansions at all");
    }

    #[test]
    fn binary_sparse_distribution_is_cheap() {
        let mut b = GraphBuilder::undirected();
        for i in 0..100u32 {
            b.push_edge(i, (i + 1) % 100);
        }
        let g = b.build().unwrap();
        let mut scores = vec![0.0; 100];
        scores[7] = 1.0;
        let query = TopKQuery::new(3, Aggregate::Sum).include_self(false);
        let res = run_naive(&g, &scores, 2, &query);
        assert_eq!(res.stats.nodes_distributed, 1);
        // Winners are the nodes within 2 hops of node 7.
        assert_eq!(res.values(), vec![1.0, 1.0, 1.0]);
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
        let _ = run(&ctx);
    }
}
