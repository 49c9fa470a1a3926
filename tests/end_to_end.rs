//! End-to-end integration: profile generation → relevance → query →
//! cross-algorithm agreement, spanning every crate through the facade.

use lona::core::validate::brute_force_topk;
use lona::core::{compile_to_vec, CompileSpec};
use lona::prelude::*;

fn smoke_graph(kind: DatasetKind, seed: u64) -> lona::graph::CsrGraph {
    // Tiny versions of the three profiles: fast but structurally real.
    DatasetProfile {
        kind,
        scale: 0.004,
        seed,
    }
    .generate()
    .expect("profile generation must succeed")
}

#[test]
fn all_profiles_all_algorithms_agree() {
    for kind in DatasetKind::ALL {
        let g = smoke_graph(kind, 17);
        let scores = MixtureBuilder::new(0.02).lambda(5.0).build(&g, 17);
        let mut engine = LonaEngine::new(&g, 2);
        for aggregate in [Aggregate::Sum, Aggregate::Avg] {
            let query = TopKQuery::new(20, aggregate);
            let base = engine.run(&Algorithm::Base, &query, &scores);
            for alg in [
                Algorithm::forward(),
                Algorithm::BackwardNaive,
                Algorithm::backward(),
            ] {
                let got = engine.run(&alg, &query, &scores);
                assert!(
                    got.same_values(&base, 1e-9),
                    "{kind:?} {aggregate:?} {alg}: {:?} vs {:?}",
                    &got.values()[..5.min(got.entries.len())],
                    &base.values()[..5.min(base.entries.len())],
                );
            }
        }
    }
}

#[test]
fn engine_matches_oracle_on_collaboration_smoke() {
    let g = smoke_graph(DatasetKind::Collaboration, 3);
    let scores = MixtureBuilder::new(0.05).build(&g, 3);
    let query = TopKQuery::new(10, Aggregate::Avg);
    let oracle = brute_force_topk(&g, &scores, 2, &query);
    let mut engine = LonaEngine::new(&g, 2);
    let got = engine.run(&Algorithm::backward(), &query, &scores);
    assert!(got.same_values(&oracle, 1e-9));
}

#[test]
fn pruning_effectiveness_on_collaboration_profile() {
    // The collaboration profile is the forward-pruning showcase:
    // heavy-tailed neighborhood sizes let Eq. 1's capacity side prune
    // every small-neighborhood node once topklbound rises, and the
    // clustered structure keeps deltas small. Workload = the paper's
    // exponential mixture at r = 1% (Figure 1's setting).
    let g = DatasetProfile {
        kind: DatasetKind::Collaboration,
        scale: 0.1,
        seed: 9,
    }
    .generate()
    .unwrap();
    let scores = MixtureBuilder::new(0.01).lambda(5.0).build(&g, 9);
    let mut engine = LonaEngine::new(&g, 2);
    let query = TopKQuery::new(10, Aggregate::Sum);

    let base = engine.run(&Algorithm::Base, &query, &scores);
    let fwd = engine.run(&Algorithm::forward(), &query, &scores);
    let bwd = engine.run(&Algorithm::backward(), &query, &scores);

    assert!(fwd.same_values(&base, 1e-9));
    assert!(bwd.same_values(&base, 1e-9));
    assert!(
        fwd.stats.prune_rate() > 0.3,
        "forward pruning too weak on the collaboration profile: {}",
        fwd.stats
    );
    assert!(
        bwd.stats.edges_traversed < base.stats.edges_traversed / 2,
        "backward should touch far fewer edges: {} vs {}",
        bwd.stats.edges_traversed,
        base.stats.edges_traversed
    );
}

#[test]
fn hop_radius_one_and_three() {
    // h = 3 runs on a 3k-node graph: Base scans every node's 3-hop
    // ball, about two minutes on the 12k-node smoke graph in a debug
    // build. Forward still evaluates 1,445 of the 3k nodes, so its
    // pruning path is exercised.
    for (h, scale) in [(1u32, 0.004), (3, 0.001)] {
        let g = DatasetProfile {
            kind: DatasetKind::Citation,
            scale,
            seed: 21,
        }
        .generate()
        .unwrap();
        let scores = MixtureBuilder::new(0.03).build(&g, 21);
        let mut engine = LonaEngine::new(&g, h);
        let query = TopKQuery::new(8, Aggregate::Sum);
        let base = engine.run(&Algorithm::Base, &query, &scores);
        let fwd = engine.run(&Algorithm::forward(), &query, &scores);
        let bwd = engine.run(&Algorithm::backward(), &query, &scores);
        assert!(fwd.same_values(&base, 1e-9), "h={h} forward");
        assert!(bwd.same_values(&base, 1e-9), "h={h} backward");
    }
}

/// Pack `g`, with size and differential indexes at each of `hops`,
/// into a compiled container and load it back from the bytes.
fn container_round_trip(g: &CsrGraph, hops: &[u32]) -> CompiledGraph {
    let bytes = compile_to_vec(&CompileSpec {
        graph: g.view(),
        scores: None,
        hops,
        with_diff: true,
        order: NodeOrder::Natural,
    })
    .unwrap();
    CompiledGraph::from_bytes(bytes).unwrap()
}

#[test]
fn graph_round_trip_preserves_query_results() {
    // Generate → compile → reload → identical answers.
    let g = smoke_graph(DatasetKind::Intrusion, 8);
    let c = container_round_trip(&g, &[]);

    let scores = binary_blacking(g.num_nodes(), 0.2, 8);
    let query = TopKQuery::new(10, Aggregate::Sum);
    let mut e1 = LonaEngine::new(&g, 2);
    let mut e2 = LonaEngine::new(&c, 2);
    let r1 = e1.run(&Algorithm::backward(), &query, &scores);
    let r2 = e2.run(&Algorithm::backward(), &query, &scores);
    assert_eq!(r1.nodes(), r2.nodes());
    assert_eq!(r1.values(), r2.values());
}

#[test]
fn index_serialization_round_trip_through_engine() {
    let g = smoke_graph(DatasetKind::Collaboration, 5);
    let mut engine = LonaEngine::new(&g, 2);
    let scores = MixtureBuilder::new(0.02).build(&g, 5);
    let query = TopKQuery::new(5, Aggregate::Avg);
    let expect = engine.run(&Algorithm::forward(), &query, &scores);

    // The container's indexes, installed into a fresh engine over the
    // in-RAM graph, answer alike and are never rebuilt.
    let state = container_round_trip(&g, &[2]).engine_state(2).unwrap();
    let mut fresh = LonaEngine::new(&g, 2);
    fresh.set_size_index(state.size_index().unwrap().clone());
    fresh.set_diff_index(state.diff_index().unwrap().clone());
    let got = fresh.run(&Algorithm::forward(), &query, &scores);
    assert_eq!(got.nodes(), expect.nodes());
    assert_eq!(got.values(), expect.values());
    assert_eq!(got.stats.index_build, std::time::Duration::ZERO);
}

#[test]
fn deterministic_across_runs() {
    let mk = || {
        let g = smoke_graph(DatasetKind::Citation, 77);
        let scores = MixtureBuilder::new(0.01).walk_steps(2).build(&g, 77);
        let mut engine = LonaEngine::new(&g, 2);
        engine.run(
            &Algorithm::backward(),
            &TopKQuery::new(15, Aggregate::Sum),
            &scores,
        )
    };
    let a = mk();
    let b = mk();
    assert_eq!(a.nodes(), b.nodes());
    assert_eq!(a.values(), b.values());
}
