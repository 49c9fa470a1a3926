//! Property tests for the worker loops: Base, LONA-Forward and
//! LONA-Backward agree with their one-worker runs across random
//! graphs, scores, aggregates, γ policies, and worker counts
//! {1, 2, 3, 7}.

use proptest::prelude::*;

use lona_core::{
    Aggregate, Algorithm, BackwardOptions, ForwardOptions, GammaSpec, LonaEngine, ProcessingOrder,
    TopKQuery,
};
use lona_graph::{CsrGraph, GraphBuilder};
use lona_relevance::ScoreVec;

const THREAD_COUNTS: [usize; 4] = [1, 2, 3, 7];

#[derive(Debug, Clone)]
struct Case {
    g: CsrGraph,
    scores: ScoreVec,
    h: u32,
    k: usize,
    aggregate: Aggregate,
    include_self: bool,
}

fn arb_aggregate() -> impl Strategy<Value = Aggregate> {
    prop_oneof![
        Just(Aggregate::Sum),
        Just(Aggregate::Avg),
        Just(Aggregate::DistanceWeightedSum),
        Just(Aggregate::Max)
    ]
}

fn arb_case() -> impl Strategy<Value = Case> {
    (4u32..40, 0usize..120)
        .prop_flat_map(|(n, m)| {
            (
                Just(n),
                proptest::collection::vec((0..n, 0..n), m),
                proptest::collection::vec(0.0f64..=1.0, n as usize),
                1u32..4,
                1usize..10,
                arb_aggregate(),
                proptest::bool::ANY,
            )
        })
        .prop_map(|(n, edges, scores, h, k, aggregate, include_self)| {
            // Mostly-zero scores: the paper's sparse-relevance regime.
            let scores: Vec<f64> = scores
                .into_iter()
                .enumerate()
                .map(|(i, s)| if i % 3 == 0 { s } else { 0.0 })
                .collect();
            Case {
                g: GraphBuilder::undirected()
                    .with_num_nodes(n)
                    .extend_edges(edges)
                    .build()
                    .unwrap(),
                scores: ScoreVec::new(scores),
                h,
                k,
                aggregate,
                include_self,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// LONA-Forward matches its one-worker run for every processing
    /// order and worker count.
    #[test]
    fn forward_matches_one_worker(case in arb_case()) {
        let query = TopKQuery::new(case.k, case.aggregate).include_self(case.include_self);
        let mut engine = LonaEngine::new(&case.g, case.h);
        for order in [
            ProcessingOrder::NodeId,
            ProcessingOrder::DegreeDescending,
            ProcessingOrder::ScoreDescending,
        ] {
            let opts = ForwardOptions { order };
            let algorithm = Algorithm::LonaForward(opts);
            let serial = engine.run(&algorithm, &query, &case.scores);
            for threads in THREAD_COUNTS {
                let parallel = engine.run_threads(&algorithm, threads, &query, &case.scores);
                prop_assert!(
                    parallel.same_values(&serial, 1e-9),
                    "forward t={threads} {order:?} h={} k={} {:?}: {:?} vs {:?}",
                    case.h,
                    case.k,
                    case.aggregate,
                    parallel.values(),
                    serial.values()
                );
                // Prunes are strict, so every node that could tie into
                // the top-k is evaluated exactly: same entries.
                prop_assert_eq!(parallel.nodes(), serial.nodes(), "forward t={}", threads);
                prop_assert_eq!(parallel.values(), serial.values(), "forward t={}", threads);
                // Pruning races only ever evaluate MORE nodes than
                // one worker, never fewer prunes than zero; the state
                // machine still accounts for every node.
                prop_assert_eq!(
                    parallel.stats.nodes_evaluated + parallel.stats.nodes_pruned,
                    case.g.num_nodes()
                );
            }
        }
    }

    /// LONA-Backward matches its one-worker run for several γ
    /// policies and every worker count.
    #[test]
    fn backward_matches_one_worker(case in arb_case()) {
        let query = TopKQuery::new(case.k, case.aggregate).include_self(case.include_self);
        let mut engine = LonaEngine::new(&case.g, case.h);
        for gamma in [
            GammaSpec::Fixed(0.0),
            GammaSpec::Fixed(0.3),
            GammaSpec::NonzeroQuantile(0.5),
            GammaSpec::Auto,
        ] {
            let opts = BackwardOptions { gamma };
            let algorithm = Algorithm::LonaBackward(opts);
            let serial = engine.run(&algorithm, &query, &case.scores);
            for threads in THREAD_COUNTS {
                let parallel = engine.run_threads(&algorithm, threads, &query, &case.scores);
                prop_assert!(
                    parallel.same_values(&serial, 1e-9),
                    "backward t={threads} {gamma:?} h={} k={} {:?}: {:?} vs {:?}",
                    case.h,
                    case.k,
                    case.aggregate,
                    parallel.values(),
                    serial.values()
                );
            }
        }
    }

    /// Base is bit-identical to its one-worker run (exact evaluation
    /// commutes) at every worker count.
    #[test]
    fn base_matches_one_worker(case in arb_case()) {
        let query = TopKQuery::new(case.k, case.aggregate).include_self(case.include_self);
        let mut engine = LonaEngine::new(&case.g, case.h);
        let serial = engine.run(&Algorithm::Base, &query, &case.scores);
        for threads in THREAD_COUNTS {
            let parallel = engine.run_threads(&Algorithm::Base, threads, &query, &case.scores);
            prop_assert_eq!(parallel.nodes(), serial.nodes(), "t={}", threads);
            prop_assert_eq!(parallel.values(), serial.values(), "t={}", threads);
        }
    }
}
