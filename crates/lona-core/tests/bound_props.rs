//! Property tests: the pruning bounds of Equations 1–3 are true upper
//! bounds on random inputs, and the h-hop neighborhoods and indexes
//! they are computed from match their BFS definitions.

use proptest::prelude::*;

use lona_core::bounds::{avg_from_sum_bound, backward_sum_bound, forward_sum_bound};
use lona_core::index::{DiffIndex, SizeIndex};
use lona_core::neighborhood::NeighborhoodScanner;
use lona_core::validate::brute_force_value;
use lona_core::{Aggregate, GammaSpec, TopKQuery};
use lona_graph::traversal::bfs_distances;
use lona_graph::{CsrGraph, GraphBuilder};
use lona_relevance::ScoreVec;

fn arb_graph_scores() -> impl Strategy<Value = (CsrGraph, ScoreVec)> {
    (3u32..20, 0usize..50)
        .prop_flat_map(|(n, m)| {
            (
                Just(n),
                proptest::collection::vec((0..n, 0..n), m),
                proptest::collection::vec(0.0f64..=1.0, n as usize),
            )
        })
        .prop_map(|(n, edges, scores)| {
            (
                GraphBuilder::undirected()
                    .with_num_nodes(n)
                    .extend_edges(edges)
                    .build()
                    .unwrap(),
                ScoreVec::new(scores),
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(80))]

    /// Eq. 1 / Eq. 2: the forward differential bound dominates the
    /// true aggregate of every neighbor, for SUM, AVG and the
    /// distance-weighted SUM, under both self-inclusion semantics.
    #[test]
    fn forward_bound_is_upper_bound(
        (g, scores) in arb_graph_scores(),
        h in 1u32..4,
        include_self in proptest::bool::ANY,
    ) {
        let sizes = SizeIndex::build(g.view(), h);
        let diffs = DiffIndex::build(g.view(), h, &sizes);
        for u in g.nodes() {
            let f_sum_u =
                brute_force_value(&g, &scores, h, u, Aggregate::Sum, include_self);
            for &v in g.neighbors(u) {
                let delta = diffs.delta(g.view(), u, v).unwrap();
                let n_v = sizes.get(v);
                let sum_bound =
                    forward_sum_bound(f_sum_u, delta, n_v, scores.get(v), include_self);

                let true_sum =
                    brute_force_value(&g, &scores, h, v, Aggregate::Sum, include_self);
                prop_assert!(
                    sum_bound >= true_sum - 1e-9,
                    "Eq.1 violated at ({u:?},{v:?}): bound {sum_bound} < true {true_sum}"
                );

                let avg_bound = avg_from_sum_bound(sum_bound, n_v, include_self);
                let true_avg =
                    brute_force_value(&g, &scores, h, v, Aggregate::Avg, include_self);
                prop_assert!(
                    avg_bound >= true_avg - 1e-9,
                    "Eq.2 violated at ({u:?},{v:?}): bound {avg_bound} < true {true_avg}"
                );

                let true_dw = brute_force_value(
                    &g, &scores, h, v, Aggregate::DistanceWeightedSum, include_self,
                );
                prop_assert!(
                    sum_bound >= true_dw - 1e-9,
                    "SUM bound must dominate weighted SUM at ({u:?},{v:?})"
                );
            }
        }
    }

    /// Eq. 3: the backward partial-distribution bound dominates the
    /// true SUM for every node and any γ.
    #[test]
    fn backward_bound_is_upper_bound(
        (g, scores) in arb_graph_scores(),
        h in 1u32..4,
        gamma in 0.0f64..1.0,
        include_self in proptest::bool::ANY,
    ) {
        let n = g.num_nodes();
        let sizes = SizeIndex::build(g.view(), h);

        // Simulate the distribution phase exactly as the algorithm does.
        let mut partial = vec![0.0f64; n];
        let mut received = vec![0u32; n];
        for u in g.nodes() {
            let f_u = scores.get(u);
            if f_u <= gamma {
                continue;
            }
            let dist = bfs_distances(&g, u);
            for v in 0..n as u32 {
                if v != u.0 && dist[v as usize] != u32::MAX && dist[v as usize] <= h {
                    partial[v as usize] += f_u;
                    received[v as usize] += 1;
                }
            }
        }

        for v in g.nodes() {
            let bound = backward_sum_bound(
                partial[v.index()],
                received[v.index()],
                sizes.get(v),
                gamma,
                scores.get(v),
                include_self,
            );
            let true_sum = brute_force_value(&g, &scores, h, v, Aggregate::Sum, include_self);
            prop_assert!(
                bound >= true_sum - 1e-9,
                "Eq.3 violated at {v:?} (γ={gamma}): bound {bound} < true {true_sum}"
            );
        }
    }

    /// `NeighborhoodScanner::for_each` visits exactly the h-hop ball
    /// `S_h(u) = {v ≠ u : dist(u, v) ≤ h}`, each member once. One
    /// scanner serves every source, so no state may leak between scans.
    #[test]
    fn scanner_visits_exact_h_hop_ball(
        (g, _) in arb_graph_scores(),
        h in 1u32..4,
    ) {
        let mut scanner = NeighborhoodScanner::new(g.num_nodes());
        for u in g.nodes() {
            let dist = bfs_distances(&g, u);
            let expect: Vec<u32> = (0..g.num_nodes() as u32)
                .filter(|&v| v != u.0 && dist[v as usize] <= h)
                .collect();
            let mut got = Vec::new();
            let (count, _) = scanner.for_each(g.view(), u, h, |v| got.push(v));
            prop_assert_eq!(count, got.len());
            got.sort_unstable();
            prop_assert_eq!(got, expect, "S_{}({:?})", h, u);
        }
    }

    /// The differential index always matches its set-difference
    /// definition, and is bounded by N(v).
    #[test]
    fn diff_index_definition(
        (g, _) in arb_graph_scores(),
        h in 1u32..4,
    ) {
        let sizes = SizeIndex::build(g.view(), h);
        let diffs = DiffIndex::build(g.view(), h, &sizes);
        for u in g.nodes() {
            let du = bfs_distances(&g, u);
            for &v in g.neighbors(u) {
                let dv = bfs_distances(&g, v);
                let expect = (0..g.num_nodes() as u32)
                    .filter(|&w| {
                        let in_sv = w != v.0 && dv[w as usize] <= h;
                        let in_su = w != u.0 && du[w as usize] <= h;
                        in_sv && !in_su
                    })
                    .count() as u32;
                let got = diffs.delta(g.view(), u, v).unwrap();
                prop_assert_eq!(got, expect, "delta({:?} - {:?})", v, u);
                prop_assert!(got as usize <= sizes.get(v));
            }
        }
    }

    /// γ resolution invariants: the resolved threshold is always
    /// non-negative and below the max nonzero score (or zero).
    #[test]
    fn gamma_resolution_invariants(
        scores in proptest::collection::vec(0.0f64..=1.0, 1..50),
        q in 0.0f64..=1.0,
    ) {
        let sv = ScoreVec::new(scores);
        let gamma = GammaSpec::NonzeroQuantile(q).resolve(&sv);
        prop_assert!(gamma >= 0.0);
        let max = sv.nonzero_quantile(1.0);
        prop_assert!(gamma < max || (gamma == 0.0 && max == 0.0),
            "gamma {gamma} vs max {max}");
    }
}

#[test]
fn query_construction_sanity() {
    let q = TopKQuery::new(5, Aggregate::Avg).include_self(false);
    assert_eq!(q.k, 5);
    assert!(!q.include_self);
}
