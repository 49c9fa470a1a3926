//! CI smoke: on a fixed seed graph, Base, LONA-Forward and
//! LONA-Backward return the same results at every worker count, and a
//! one-worker run does exactly the work of the paper's serial
//! algorithms.
//!
//! Base partitions exact evaluations, so its results must be
//! *bit-identical* at 2 and 4 workers, node sets included. The same
//! holds for LONA-Forward: its prune rule is strictly conservative, so
//! every node that can reach the top-k is evaluated by the same
//! deterministic scan. LONA-Backward is compared on *values* only
//! (within the suite-wide 1e-9 tolerance): its distribution phase
//! groups floating-point sums per worker, and its verification stop
//! line may resolve exactly-tied boundary candidates to different
//! (equal-valued) nodes — the paper's top-k semantics allow any
//! tie-breaking (`QueryResult::same_values`).

use lona::prelude::*;

/// The fixed workload: smoke-scale collaboration network, paper-style
/// relevance mixture, both with pinned seeds.
fn fixed_workload() -> (lona::graph::CsrGraph, ScoreVec) {
    let g = DatasetProfile::smoke(DatasetKind::Collaboration, 2024)
        .generate()
        .unwrap();
    let scores = MixtureBuilder::new(0.02).build(&g, 2024);
    (g, scores)
}

const AGGREGATES: [Aggregate; 2] = [Aggregate::Sum, Aggregate::Avg];
const KS: [usize; 3] = [1, 10, 50];

fn assert_worker_counts_agree(alg: Algorithm, threads: usize, bit_identical: bool) {
    let (g, scores) = fixed_workload();
    let mut engine = LonaEngine::new(&g, 2);
    for aggregate in AGGREGATES {
        for k in KS {
            let query = TopKQuery::new(k, aggregate);
            let one = engine.run(&alg, &query, &scores);
            let many = engine.run_threads(&alg, threads, &query, &scores);
            if bit_identical {
                assert_eq!(
                    many.nodes(),
                    one.nodes(),
                    "{alg} t={threads} node set diverged ({aggregate:?}, k={k})"
                );
                assert_eq!(
                    many.values(),
                    one.values(),
                    "{alg} t={threads} values diverged ({aggregate:?}, k={k})"
                );
            } else {
                assert!(
                    many.same_values(&one, 1e-9),
                    "{alg} t={threads} values diverged ({aggregate:?}, k={k}): {:?} vs {:?}",
                    many.values(),
                    one.values()
                );
            }
        }
    }
}

/// One row of pinned counters: `(nodes_evaluated, nodes_pruned,
/// edges_traversed, nodes_distributed, exact_from_bound)` for each
/// `(aggregate, k)` cell in `AGGREGATES × KS` order.
type Counters = [(usize, usize, u64, usize, usize); 6];

/// A one-worker run must do exactly the paper's serial algorithm's
/// work: the literals are that algorithm's counters on this workload,
/// so any drift means the loop visits, prunes or stops differently.
fn assert_one_worker_counters(alg: Algorithm, expect: Counters) {
    let (g, scores) = fixed_workload();
    let mut engine = LonaEngine::new(&g, 2);
    let mut cells = expect.iter();
    for aggregate in AGGREGATES {
        for k in KS {
            let s = engine
                .run(&alg, &TopKQuery::new(k, aggregate), &scores)
                .stats;
            let got = (
                s.nodes_evaluated,
                s.nodes_pruned,
                s.edges_traversed,
                s.nodes_distributed,
                s.exact_from_bound,
            );
            assert_eq!(got, *cells.next().unwrap(), "{alg} {aggregate:?} k={k}");
        }
    }
}

#[test]
fn base_one_worker_counters_are_pinned() {
    let full = (4000, 0, 400_914, 0, 0);
    assert_one_worker_counters(Algorithm::Base, [full; 6]);
}

#[test]
fn forward_one_worker_counters_are_pinned() {
    assert_one_worker_counters(
        Algorithm::forward(),
        [
            (735, 3265, 73_469, 0, 0),
            (839, 3161, 111_283, 0, 0),
            (1329, 2671, 183_564, 0, 0),
            (3965, 35, 396_132, 0, 0),
            (3978, 22, 397_538, 0, 0),
            (3984, 16, 398_596, 0, 0),
        ],
    );
}

#[test]
fn backward_one_worker_counters_are_pinned() {
    assert_one_worker_counters(
        Algorithm::backward(),
        [
            (5, 3995, 105_047, 1000, 0),
            (18, 3982, 112_168, 1000, 0),
            (236, 3764, 162_269, 1000, 0),
            (737, 3263, 162_187, 1000, 0),
            (2607, 1393, 373_836, 1000, 0),
            (3846, 154, 488_449, 1000, 0),
        ],
    );
}

#[test]
fn base_is_identical_at_every_worker_count() {
    assert_worker_counts_agree(Algorithm::Base, 2, true);
    assert_worker_counts_agree(Algorithm::Base, 4, true);
}

#[test]
fn forward_is_identical_at_every_worker_count() {
    // Every surviving candidate is evaluated by the same scan, so
    // values are bit-identical, not just within tolerance.
    assert_worker_counts_agree(Algorithm::forward(), 2, true);
    assert_worker_counts_agree(Algorithm::forward(), 4, true);
}

#[test]
fn backward_agrees_at_every_worker_count() {
    assert_worker_counts_agree(Algorithm::backward(), 2, false);
    assert_worker_counts_agree(Algorithm::backward(), 4, false);
}
