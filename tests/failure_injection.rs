//! Failure injection: invalid configurations must fail loudly and
//! precisely, never return wrong answers. Corrupted compiled
//! containers are covered by lona-core's `compile_props`.

use lona::core::SizeIndex;
use lona::prelude::*;

fn small_graph() -> lona::graph::CsrGraph {
    GraphBuilder::undirected()
        .extend_edges([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        .build()
        .unwrap()
}

#[test]
#[should_panic(expected = "hop radius mismatch")]
fn engine_rejects_foreign_hop_index() {
    let g = small_graph();
    let idx = SizeIndex::build(g.view(), 1);
    let mut engine = LonaEngine::new(&g, 2);
    engine.set_size_index(idx);
}

#[test]
#[should_panic(expected = "node count mismatch")]
fn engine_rejects_foreign_graph_index() {
    let g = small_graph();
    let other = GraphBuilder::undirected().add_edge(0, 1).build().unwrap();
    let idx = SizeIndex::build(other.view(), 2);
    let mut engine = LonaEngine::new(&g, 2);
    engine.set_size_index(idx);
}

#[test]
#[should_panic(expected = "undirected")]
fn backward_on_directed_graph_panics() {
    let g = GraphBuilder::directed()
        .add_edge(0, 1)
        .add_edge(1, 2)
        .build()
        .unwrap();
    let scores = ScoreVec::new(vec![1.0, 0.5, 0.0]);
    let mut engine = LonaEngine::new(&g, 2);
    let _ = engine.run(
        &Algorithm::backward(),
        &TopKQuery::new(1, Aggregate::Sum),
        &scores,
    );
}

#[test]
fn base_on_directed_graph_works() {
    // The naive baseline has no undirectedness requirement.
    let g = GraphBuilder::directed()
        .add_edge(0, 1)
        .add_edge(1, 2)
        .build()
        .unwrap();
    let scores = ScoreVec::new(vec![0.0, 0.5, 1.0]);
    let mut engine = LonaEngine::new(&g, 2);
    let r = engine.run(
        &Algorithm::Base,
        &TopKQuery::new(1, Aggregate::Sum).include_self(false),
        &scores,
    );
    // F(0) = f(1) + f(2) = 1.5 (out-reachability semantics).
    assert_eq!(r.entries[0], (NodeId(0), 1.5));
}

#[test]
fn nan_and_out_of_range_scores_are_sanitized() {
    let g = small_graph();
    let scores = ScoreVec::new(vec![f64::NAN, -3.0, 7.0, 0.5]);
    assert_eq!(scores.as_slice(), &[0.0, 0.0, 1.0, 0.5]);
    let mut engine = LonaEngine::new(&g, 2);
    let base = engine.run(
        &Algorithm::Base,
        &TopKQuery::new(4, Aggregate::Sum),
        &scores,
    );
    let bwd = engine.run(
        &Algorithm::backward(),
        &TopKQuery::new(4, Aggregate::Sum),
        &scores,
    );
    assert!(bwd.same_values(&base, 1e-12));
    assert!(base.values().iter().all(|v| v.is_finite()));
}

#[test]
fn all_zero_scores_are_a_valid_query() {
    let g = small_graph();
    let scores = ScoreVec::zeros(g.num_nodes());
    let mut engine = LonaEngine::new(&g, 2);
    for alg in [
        Algorithm::Base,
        Algorithm::forward(),
        Algorithm::BackwardNaive,
        Algorithm::backward(),
    ] {
        let r = engine.run(&alg, &TopKQuery::new(2, Aggregate::Avg), &scores);
        assert_eq!(r.entries.len(), 2, "{alg}");
        assert!(r.values().iter().all(|&v| v == 0.0), "{alg}");
    }
}

#[test]
fn single_node_graph_queries() {
    let g = GraphBuilder::undirected()
        .with_num_nodes(1)
        .build()
        .unwrap();
    let scores = ScoreVec::new(vec![0.7]);
    let mut engine = LonaEngine::new(&g, 2);
    for alg in [Algorithm::Base, Algorithm::forward(), Algorithm::backward()] {
        let r = engine.run(&alg, &TopKQuery::new(1, Aggregate::Sum), &scores);
        assert_eq!(r.entries, vec![(NodeId(0), 0.7)], "{alg}");
    }
}
