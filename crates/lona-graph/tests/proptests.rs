//! Property tests for the graph substrate.

use proptest::prelude::*;

use lona_graph::{CsrGraph, GraphBuilder};

/// Strategy: a random simple undirected graph with up to `n` nodes.
fn arb_graph(max_nodes: u32, max_edges: usize) -> impl Strategy<Value = CsrGraph> {
    (2..=max_nodes)
        .prop_flat_map(move |n| {
            (
                Just(n),
                proptest::collection::vec((0..n, 0..n), 0..=max_edges),
            )
        })
        .prop_map(|(n, edges)| {
            GraphBuilder::undirected()
                .with_num_nodes(n)
                .extend_edges(edges)
                .build()
                .expect("arbitrary graph must build")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CSR invariants: sorted unique neighbor slices, symmetric
    /// adjacency, consistent entry counts.
    #[test]
    fn csr_invariants(g in arb_graph(40, 120)) {
        let mut entries = 0usize;
        for u in g.nodes() {
            let nbrs = g.neighbors(u);
            entries += nbrs.len();
            // sorted strictly ascending => unique
            prop_assert!(nbrs.windows(2).all(|w| w[0] < w[1]));
            for &v in nbrs {
                prop_assert!(v.index() < g.num_nodes());
                prop_assert!(g.has_edge(v, u), "asymmetric edge {u:?}->{v:?}");
                prop_assert_ne!(v, u, "self-loop survived default policy");
            }
        }
        prop_assert_eq!(entries, g.num_adjacency_entries());
        prop_assert_eq!(entries, 2 * g.num_edges());
        prop_assert_eq!(g.edges().count(), g.num_edges());
    }

    /// Builder is idempotent: rebuilding from the emitted edge list
    /// yields the same adjacency.
    #[test]
    fn rebuild_from_edges(g in arb_graph(30, 90)) {
        let mut b = GraphBuilder::undirected().with_num_nodes(g.num_nodes() as u32);
        for (u, v, _) in g.edges() {
            b.push_edge(u.0, v.0);
        }
        let g2 = b.build().unwrap();
        for u in g.nodes() {
            prop_assert_eq!(g.neighbors(u), g2.neighbors(u));
        }
    }

    /// Degrees sum to twice the edge count (handshake lemma).
    #[test]
    fn handshake_lemma(g in arb_graph(50, 200)) {
        let sum: usize = g.nodes().map(|u| g.degree(u)).sum();
        prop_assert_eq!(sum, 2 * g.num_edges());
    }
}
