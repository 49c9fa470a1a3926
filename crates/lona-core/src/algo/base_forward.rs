//! The "Base" algorithm: naive forward processing without pruning.
//!
//! This is the paper's baseline in every figure: "check each node in
//! the network, find its h-hop neighbors, aggregate their values
//! together and then choose the k nodes with the highest aggregate
//! values." Cost: one full h-hop expansion per node — the `m^h · |V|`
//! edge accesses the introduction calls unaffordable.

use lona_graph::NodeId;

use crate::algo::context::{fold_workers, Ctx};
use crate::exec::{self, ChunkCursor};
use crate::neighborhood::NeighborhoodScanner;
use crate::result::QueryResult;
use crate::stats::QueryStats;
use crate::topk::TopKHeap;

/// Evaluate every candidate on `threads` workers (0 = one per core).
/// Workers steal node-id chunks and keep private scanners and heaps;
/// exact evaluation commutes, so every worker count returns the same
/// entries bit for bit, and one worker visits nodes in id order.
pub(crate) fn run(ctx: &Ctx<'_>, threads: usize) -> QueryResult {
    let n = ctx.g.num_nodes();
    let threads = exec::resolve_threads(threads, n);
    let cursor = ChunkCursor::new(n, threads);
    fold_workers(exec::run_workers(threads, |_| {
        let mut scanner = NeighborhoodScanner::new(n);
        let mut topk = TopKHeap::new(ctx.query.k);
        let mut stats = QueryStats::default();
        while let Some(range) = cursor.next() {
            for i in range {
                let u = NodeId(i as u32);
                if !ctx.is_candidate(u) {
                    continue;
                }
                let (_, value) = ctx.evaluate(&mut scanner, u, &mut stats);
                topk.offer(u, value);
            }
        }
        (topk, stats)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::Aggregate;
    use crate::engine::TopKQuery;
    use lona_graph::GraphBuilder;
    use lona_relevance::ScoreVec;

    #[test]
    fn star_center_wins_sum() {
        // Star: center 0, leaves 1..=4, all scores 1.
        let g = GraphBuilder::undirected()
            .extend_edges((1..=4).map(|i| (0, i)))
            .build()
            .unwrap();
        let scores = vec![1.0; 5];
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
        let res = run(&ctx, 1);
        assert_eq!(res.entries[0].0, NodeId(0));
        assert_eq!(res.entries[0].1, 5.0); // 4 leaves + self
        assert_eq!(res.stats.nodes_evaluated, 5);
        assert_eq!(res.stats.nodes_pruned, 0);
    }

    #[test]
    fn avg_normalizes_by_size() {
        // Path 0-1-2: with h=1, ends average over 2 nodes, middle over 3.
        let g = GraphBuilder::undirected()
            .extend_edges([(0, 1), (1, 2)])
            .build()
            .unwrap();
        let scores = vec![0.0, 1.0, 0.0];
        let query = TopKQuery::new(3, Aggregate::Avg);
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
        let res = run(&ctx, 1);
        // F(0) = (0 + 1)/2 = 0.5 = F(2); F(1) = 1/3.
        let values = res.values();
        assert!((values[0] - 0.5).abs() < 1e-12);
        assert!((values[2] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn exclude_self_changes_values() {
        let g = GraphBuilder::undirected().add_edge(0, 1).build().unwrap();
        let scores = vec![1.0, 0.25];
        let query = TopKQuery::new(2, Aggregate::Sum).include_self(false);
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
        let res = run(&ctx, 1);
        // F(1) = f(0) = 1.0 ; F(0) = f(1) = 0.25
        assert_eq!(res.entries[0], (NodeId(1), 1.0));
        assert_eq!(res.entries[1], (NodeId(0), 0.25));
    }

    #[test]
    fn worker_count_changes_neither_answer_nor_counters() {
        let mut b = GraphBuilder::undirected();
        for i in 0..600u32 {
            b.push_edge(i, (i + 1) % 600);
            b.push_edge(i, (i * 7 + 3) % 600);
        }
        let g = b.build().unwrap();
        let scores: Vec<f64> = (0..600).map(|i| ((i * 13) % 100) as f64 / 100.0).collect();
        let score_vec = ScoreVec::new(scores.to_vec());
        for aggregate in [Aggregate::Sum, Aggregate::Avg, Aggregate::Max] {
            let query = TopKQuery::new(12, aggregate);
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
            let one = run(&ctx, 1);
            assert_eq!(one.stats.nodes_evaluated, g.num_nodes());
            for threads in [2usize, 3, 8] {
                let got = run(&ctx, threads);
                assert_eq!(got.nodes(), one.nodes(), "{aggregate:?} t={threads}");
                assert_eq!(got.values(), one.values(), "{aggregate:?} t={threads}");
                assert_eq!(got.stats.nodes_evaluated, one.stats.nodes_evaluated);
                assert_eq!(got.stats.edges_traversed, one.stats.edges_traversed);
            }
        }
    }
}
