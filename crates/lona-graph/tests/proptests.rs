//! Property tests for the graph substrate.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use lona_graph::{
    CsrGraph, GraphBuilder, GraphDelta, GraphStore, NodeId, OverlayGraph, SelfLoopPolicy,
};

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

/// Edge weights the splice property draws from; `1.0` is the most
/// likely, so unweighted graphs often stay unweighted for a while.
const WEIGHTS: [f32; 5] = [1.0, 1.0, 1.0, 0.5, 2.0];

/// One random delta of the splice property. Beyond its random
/// operations it may delete the previous delta's inserts and
/// re-insert its own first delete with a new weight.
#[derive(Debug, Clone)]
struct SpliceDelta {
    deletes: Vec<(u32, u32)>,
    inserts: Vec<(u32, u32, f32)>,
    undo_previous: bool,
    reinsert_first_delete: bool,
}

#[derive(Debug, Clone)]
struct SpliceCase {
    n: u32,
    directed: bool,
    weighted: bool,
    keep_loops: bool,
    edges: Vec<(u32, u32, f32)>,
    deltas: Vec<SpliceDelta>,
}

fn arb_splice_case() -> impl Strategy<Value = SpliceCase> {
    (
        2u32..10,
        proptest::bool::ANY,
        proptest::bool::ANY,
        proptest::bool::ANY,
    )
        .prop_flat_map(|(n, directed, weighted, keep_loops)| {
            let edge = (0..n, 0..n, 0..WEIGHTS.len());
            let delta = (
                proptest::collection::vec((0..n, 0..n), 0..5),
                proptest::collection::vec((0..n, 0..n, 0..WEIGHTS.len()), 0..5),
                proptest::bool::ANY,
                proptest::bool::ANY,
            );
            (
                Just((n, directed, weighted, keep_loops)),
                proptest::collection::vec(edge, 0..24),
                proptest::collection::vec(delta, 1..6),
            )
        })
        .prop_map(|((n, directed, weighted, keep_loops), edges, deltas)| {
            let distinct = |(u, v): &(u32, u32)| u != v;
            SpliceCase {
                n,
                directed,
                weighted,
                keep_loops,
                edges: edges
                    .into_iter()
                    .map(|(u, v, w)| (u, v, WEIGHTS[w]))
                    .collect(),
                deltas: deltas
                    .into_iter()
                    .map(|(deletes, inserts, undo_previous, reinsert)| SpliceDelta {
                        deletes: deletes.into_iter().filter(distinct).collect(),
                        inserts: inserts
                            .into_iter()
                            .filter(|&(u, v, _)| u != v)
                            .map(|(u, v, w)| (u, v, WEIGHTS[w]))
                            .collect(),
                        undo_previous,
                        reinsert_first_delete: reinsert,
                    })
                    .collect(),
            }
        })
}

/// `GraphBuilder` over a live edge set, weighted exactly when asked.
fn build_reference(
    case: &SpliceCase,
    live: &BTreeMap<(u32, u32), f32>,
    weighted: bool,
) -> CsrGraph {
    let mut b = if case.directed {
        GraphBuilder::directed()
    } else {
        GraphBuilder::undirected()
    }
    .with_num_nodes(case.n)
    .self_loops(if case.keep_loops {
        SelfLoopPolicy::Keep
    } else {
        SelfLoopPolicy::Drop
    });
    for (&(u, v), &w) in live {
        if weighted {
            b.push_weighted_edge(u, v, w);
        } else {
            b.push_edge(u, v);
        }
    }
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The overlay's splice equals a `GraphBuilder` rebuild byte for
    /// byte after every apply — offsets, targets, weights or their
    /// absence, edge count — on directed and undirected, weighted and
    /// unweighted graphs, and `AppliedDelta` reports exactly the
    /// model's effective changes.
    #[test]
    fn splice_equals_a_rebuild_byte_for_byte(case in arb_splice_case()) {
        let canon = |u: u32, v: u32| {
            if !case.directed && u > v { (v, u) } else { (u, v) }
        };
        let base = build_reference(
            &case,
            &case.edges.iter().map(|&(u, v, w)| (canon(u, v), w)).fold(
                BTreeMap::new(),
                |mut m, (e, w)| {
                    m.entry(e).or_insert(w);
                    m
                },
            ),
            case.weighted,
        );
        // The model: the live edge set and whether the graph stores
        // weights (the base's flag, then set for good by the first
        // applied insert of a weight other than 1.0).
        let mut live: BTreeMap<(u32, u32), f32> =
            base.edges().map(|(u, v, w)| ((u.0, v.0), w)).collect();
        let mut weighted = base.has_weights();

        let mut overlay = OverlayGraph::new(&base);
        let mut previous_inserts: Vec<(u32, u32)> = Vec::new();
        for d in &case.deltas {
            let mut delta = GraphDelta::new();
            let mut deletes = d.deletes.clone();
            if d.undo_previous {
                deletes.extend(previous_inserts.iter().copied());
            }
            for &(u, v) in &deletes {
                delta = delta.delete(u, v);
            }
            let mut inserts = d.inserts.clone();
            if let (true, Some(&(u, v))) = (d.reinsert_first_delete, deletes.first()) {
                inserts.push((v, u, 2.0));
            }
            for &(u, v, w) in &inserts {
                delta = delta.insert_weighted(u, v, w);
            }

            // Model: deletes of live edges, then inserts of edges not
            // live after them, the first weight winning.
            let before = live.clone();
            let mut touched = BTreeSet::new();
            let (mut deleted, mut inserted) = (0u64, 0u64);
            for &(u, v) in &deletes {
                let e = canon(u, v);
                if live.remove(&e).is_some() {
                    deleted += 1;
                    touched.extend([e.0, e.1]);
                }
            }
            for &(u, v, w) in &inserts {
                let e = canon(u, v);
                if let std::collections::btree_map::Entry::Vacant(slot) = live.entry(e) {
                    slot.insert(w);
                    inserted += 1;
                    touched.extend([e.0, e.1]);
                    weighted |= w != 1.0;
                }
            }
            previous_inserts = inserts.iter().map(|&(u, v, _)| (u, v)).collect();

            let applied = overlay.apply(&delta).unwrap();
            prop_assert_eq!(applied.deleted, deleted);
            prop_assert_eq!(applied.inserted, inserted);
            let want_touched: Vec<NodeId> = touched.into_iter().map(NodeId).collect();
            prop_assert_eq!(&applied.touched, &want_touched);

            let got = overlay.csr();
            let want = build_reference(&case, &live, weighted);
            prop_assert_eq!(got.offsets(), want.view().offsets());
            prop_assert_eq!(got.targets(), want.view().targets());
            prop_assert_eq!(got.num_edges(), want.num_edges());
            prop_assert_eq!(got.is_directed(), want.is_directed());
            if live.is_empty() {
                // A builder stages no weighted edge for an empty edge
                // set, so it cannot be built weighted; the splice keeps
                // an empty weight array once the graph is weighted.
                prop_assert_eq!(got.weights().unwrap_or(&[]), &[] as &[f32]);
                prop_assert_eq!(got.has_weights(), weighted);
            } else {
                prop_assert_eq!(got.weights(), want.view().weights());
            }

            // `old` is the graph before this delta.
            match &applied.old {
                None => prop_assert_eq!(inserted + deleted, 0),
                Some(old) => {
                    let was = build_reference(&case, &before, old.has_weights());
                    prop_assert_eq!(old.view().offsets(), was.view().offsets());
                    prop_assert_eq!(old.view().targets(), was.view().targets());
                }
            }
        }
    }
}
