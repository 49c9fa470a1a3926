//! Property tests for the incremental-update path: on random graphs
//! under random delta sequences (inserts, deletes, score overrides,
//! interleaved compactions), the overlay must stay structurally
//! identical to a from-scratch rebuild, incrementally repaired indexes
//! must equal freshly built ones — the differential index once its
//! deferred repair is finished — and every algorithm × aggregate must
//! answer on the repaired state exactly as a fresh engine does on the
//! rebuilt graph (bit-identical for SUM/MAX, 1e-9 for AVG) — with the
//! repaired state's build counter pinned at zero.

use std::collections::BTreeMap;
use std::time::Duration;

use proptest::prelude::*;

use lona_core::delta::{apply_score_overrides, repair_engine_state};
use lona_core::{
    compile_to_vec, Aggregate, Algorithm, BackwardOptions, CompileSpec, CompiledGraph, DiffIndex,
    EngineState, ForwardOptions, GammaSpec, LonaEngine, ProcessingOrder, TopKQuery,
};
use lona_graph::{CsrGraph, GraphBuilder, GraphDelta, GraphStore, NodeOrder, OverlayGraph};
use lona_relevance::ScoreVec;

/// One random delta: staged edge ops, score overrides, and whether to
/// compact the overlay right after applying it.
#[derive(Debug, Clone)]
struct DeltaCase {
    inserts: Vec<(u32, u32)>,
    deletes: Vec<(u32, u32)>,
    scores: Vec<(u32, f64)>,
    compact_after: bool,
}

#[derive(Debug, Clone)]
struct Case {
    g: CsrGraph,
    scores: ScoreVec,
    deltas: Vec<DeltaCase>,
    h: u32,
    k: usize,
}

/// Every serial algorithm family and processing order.
fn algorithms() -> Vec<Algorithm> {
    vec![
        Algorithm::Base,
        Algorithm::LonaForward(ForwardOptions {
            order: ProcessingOrder::NodeId,
        }),
        Algorithm::LonaForward(ForwardOptions {
            order: ProcessingOrder::DegreeDescending,
        }),
        Algorithm::LonaForward(ForwardOptions {
            order: ProcessingOrder::ScoreDescending,
        }),
        Algorithm::BackwardNaive,
        Algorithm::LonaBackward(BackwardOptions {
            gamma: GammaSpec::Fixed(0.0),
        }),
        Algorithm::LonaBackward(BackwardOptions {
            gamma: GammaSpec::NonzeroQuantile(0.9),
        }),
    ]
}

fn arb_case() -> impl Strategy<Value = Case> {
    (4u32..20, 0usize..40)
        .prop_flat_map(|(n, m)| {
            (
                Just(n),
                proptest::collection::vec((0..n, 0..n), m),
                proptest::collection::vec(0.0f64..=1.0, n as usize),
                proptest::collection::vec(
                    (
                        proptest::collection::vec((0..n, 0..n), 0..6),
                        proptest::collection::vec((0..n, 0..n), 0..6),
                        proptest::collection::vec((0..n, 0.0f64..=1.0), 0..4),
                        0u8..2,
                    ),
                    1..4,
                ),
                1u32..4,
                1usize..8,
            )
        })
        .prop_map(|(n, edges, scores, deltas, h, k)| Case {
            g: GraphBuilder::undirected()
                .with_num_nodes(n)
                .extend_edges(edges.into_iter().filter(|(u, v)| u != v))
                .build()
                .unwrap(),
            scores: ScoreVec::new(scores),
            deltas: deltas
                .into_iter()
                .map(|(ins, del, sc, compact_after)| DeltaCase {
                    inserts: ins.into_iter().filter(|(u, v)| u != v).collect(),
                    deletes: del.into_iter().filter(|(u, v)| u != v).collect(),
                    scores: sc,
                    compact_after: compact_after == 1,
                })
                .collect(),
            h,
            k,
        })
}

fn canon(u: u32, v: u32) -> (u32, u32) {
    (u.min(v), u.max(v))
}

/// Mirror of the overlay's edge semantics on a plain edge set:
/// deletes before inserts, inserting an existing edge is a no-op,
/// deleting an absent edge is a no-op.
fn apply_to_model(model: &mut BTreeMap<(u32, u32), ()>, d: &DeltaCase) {
    for &(u, v) in &d.deletes {
        model.remove(&canon(u, v));
    }
    for &(u, v) in &d.inserts {
        model.entry(canon(u, v)).or_insert(());
    }
}

fn to_delta(d: &DeltaCase) -> GraphDelta {
    let mut delta = GraphDelta::new();
    for &(u, v) in &d.deletes {
        delta = delta.delete(u, v);
    }
    for &(u, v) in &d.inserts {
        delta = delta.insert(u, v);
    }
    for &(u, s) in &d.scores {
        delta = delta.override_score(u, s);
    }
    delta
}

fn rebuild(n: u32, model: &BTreeMap<(u32, u32), ()>) -> CsrGraph {
    GraphBuilder::undirected()
        .with_num_nodes(n)
        .extend_edges(model.keys().copied())
        .build()
        .unwrap()
}

fn edge_list(g: &CsrGraph) -> Vec<(u32, u32, u32)> {
    g.edges().map(|(u, v, w)| (u.0, v.0, w.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// After ANY interleaving of inserts, deletes, score overrides and
    /// compactions: the overlay equals a rebuild, repaired indexes
    /// equal fresh ones with zero builds charged, counters stay
    /// conserved, and every algorithm answers identically.
    #[test]
    fn overlay_and_repair_match_rebuild(case in arb_case()) {
        let n = case.g.num_nodes() as u32;
        let mut model: BTreeMap<(u32, u32), ()> =
            case.g.edges().map(|(u, v, _)| (canon(u.0, v.0), ())).collect();

        let mut state = EngineState::new();
        state.prepare_size_index(case.g.view(), case.h);
        state.prepare_diff_index(case.g.view(), case.h);

        let mut overlay = OverlayGraph::new(&case.g);
        let mut edges_changed = false;
        for d in &case.deltas {
            apply_to_model(&mut model, d);
            let applied = overlay.apply(&to_delta(d)).unwrap();
            if let Some(old) = &applied.old {
                edges_changed = true;
                let (repaired, stats) =
                    repair_engine_state(old.view(), overlay.csr(), &applied.touched, state);
                state = repaired;
                // Conservation: every index unit is repaired, provably
                // skipped or deferred to its first reader — exactly one.
                let full = (overlay.csr().num_nodes()
                    + overlay.csr().num_adjacency_entries()) as u64;
                prop_assert_eq!(
                    stats.entries_repaired + stats.rebuild_avoided_units + stats.deferred_units,
                    full,
                    "unit accounting broke"
                );
            }
            if d.compact_after {
                overlay.compact();
            }
        }

        // Structure: the overlay's merged CSR is the rebuilt graph.
        let rebuilt = rebuild(n, &model);
        let merged: Vec<(u32, u32, u32)> = overlay
            .csr()
            .edges()
            .map(|(u, v, w)| (u.0, v.0, w.to_bits()))
            .collect();
        prop_assert_eq!(&merged, &edge_list(&rebuilt));

        // The differential repair waits for its first reader, and
        // finishing it is an install: no time charged, no build.
        if edges_changed {
            prop_assert!(state.diff_index().is_none(), "diff repair was not deferred");
        }
        prop_assert_eq!(
            state.prepare_diff_index(overlay.csr(), case.h),
            Duration::ZERO
        );

        // Indexes: repaired state equals a from-scratch build, and if
        // any edge changed the repaired state charged zero builds.
        let mut fresh = EngineState::new();
        fresh.prepare_size_index(rebuilt.view(), case.h);
        fresh.prepare_diff_index(rebuilt.view(), case.h);
        prop_assert_eq!(state.size_index(), fresh.size_index());
        prop_assert_eq!(state.diff_index(), fresh.diff_index());
        prop_assert_eq!(
            state.diff_index(),
            Some(&DiffIndex::build(rebuilt.view(), case.h, fresh.size_index().unwrap()))
        );
        if edges_changed {
            prop_assert_eq!(state.index_builds(), 0);
        }

        // Scores: overrides land last-wins with ScoreVec clamping.
        let updated = apply_score_overrides(&case.scores, overlay.score_overrides());
        let mut want = case.scores.as_slice().to_vec();
        for d in &case.deltas {
            for &(u, s) in &d.scores {
                want[u as usize] = s;
            }
        }
        let want = ScoreVec::new(want);
        prop_assert_eq!(updated.as_slice(), want.as_slice());

        // Queries: every algorithm × aggregate on the repaired state
        // answers exactly as a fresh engine on the rebuilt graph.
        let mut warm = LonaEngine::from_state(&overlay, case.h, state);
        let mut cold = LonaEngine::new(&rebuilt, case.h);
        for aggregate in [Aggregate::Sum, Aggregate::Avg, Aggregate::Max] {
            let query = TopKQuery::new(case.k, aggregate);
            for algorithm in algorithms() {
                let w = warm.run(&algorithm, &query, &updated);
                let c = cold.run(&algorithm, &query, &updated);
                if aggregate == Aggregate::Avg {
                    prop_assert!(
                        w.same_values(&c, 1e-9),
                        "{:?} AVG diverged: {:?} vs {:?}", algorithm, w.entries, c.entries
                    );
                } else {
                    prop_assert_eq!(w.entries.len(), c.entries.len());
                    for (a, b) in w.entries.iter().zip(c.entries.iter()) {
                        prop_assert_eq!(a.0, b.0, "{:?} {:?} ranked different nodes",
                            algorithm, aggregate);
                        prop_assert_eq!(a.1.to_bits(), b.1.to_bits(),
                            "{:?} {:?} diverged", algorithm, aggregate);
                    }
                }
            }
        }
        prop_assert_eq!(warm.state().index_builds(), if edges_changed { 0 } else { 2 });
    }

    /// `compact()` + `into_graph()` round-trips through the compiled
    /// container: compile the mutated graph, map it back, and the
    /// warm-state engine answers bit-identically with zero builds.
    #[test]
    fn compacted_overlay_roundtrips_through_compile(case in arb_case()) {
        let n = case.g.num_nodes() as u32;
        let mut model: BTreeMap<(u32, u32), ()> =
            case.g.edges().map(|(u, v, _)| (canon(u.0, v.0), ())).collect();
        let mut overlay = OverlayGraph::new(&case.g);
        for d in &case.deltas {
            apply_to_model(&mut model, d);
            overlay.apply(&to_delta(d)).unwrap();
        }
        let updated = apply_score_overrides(&case.scores, overlay.score_overrides());
        let g2 = overlay.into_graph();
        prop_assert_eq!(&edge_list(&g2), &edge_list(&rebuild(n, &model)));

        let bytes = compile_to_vec(&CompileSpec {
            graph: g2.view(),
            scores: Some(&updated),
            hops: &[case.h],
            with_diff: true,
            order: NodeOrder::Natural,
        })
        .unwrap();
        let c = CompiledGraph::from_bytes(bytes).unwrap();
        let state = c.engine_state(case.h).unwrap();
        let mut warm = LonaEngine::from_state(&c, case.h, state);
        let mut cold = LonaEngine::new(&g2, case.h);
        let query = TopKQuery::new(case.k, Aggregate::Sum);
        for algorithm in algorithms() {
            let w = warm.run(&algorithm, &query, &updated);
            let c = cold.run(&algorithm, &query, &updated);
            prop_assert_eq!(w.entries.len(), c.entries.len());
            for (a, b) in w.entries.iter().zip(c.entries.iter()) {
                prop_assert_eq!(a.0, b.0);
                prop_assert_eq!(a.1.to_bits(), b.1.to_bits());
            }
        }
        prop_assert_eq!(warm.state().index_builds(), 0);
    }
}
