//! CI smoke: on a fixed-seed graph, `LonaEngine::run_batch` returns
//! results **bit-identical** to a sequential `Engine::run` loop over
//! the same plans, at thread counts {1, 2, 4} — and the one index
//! build is charged to the batch, never to individual queries.
//!
//! Batch mode is also held to a work budget: at one worker it may do
//! at most 1.25x the work (edge accesses plus node visits) of a
//! sequential planned loop, and exactly the same work on every run.
//! Like exact results, work counters cannot flake on a noisy or
//! single-core runner; wall-clock throughput is the benchmark's
//! (`suite/`) analytic-batch workload.

use std::time::Duration;

use lona::prelude::*;

mod common;
use common::work_units;

/// The fixed workload: smoke-scale collaboration network with a
/// paper-style relevance mixture, both seeds pinned.
fn fixed_workload() -> (lona::graph::CsrGraph, ScoreVec) {
    let g = DatasetProfile::smoke(DatasetKind::Collaboration, 2024)
        .generate()
        .unwrap();
    let scores = MixtureBuilder::new(0.02).build(&g, 2024);
    (g, scores)
}

/// A mixed query load: selective and loose k, SUM and AVG, with and
/// without the self term — enough to exercise several planner
/// branches in one batch.
fn fixed_queries(n: usize) -> Vec<TopKQuery> {
    let ks = [1usize, 5, 10, 50, n / 2];
    let aggregates = [Aggregate::Sum, Aggregate::Avg];
    (0..20)
        .map(|i| {
            TopKQuery::new(ks[i % ks.len()].max(1), aggregates[i % 2]).include_self(i % 3 != 0)
        })
        .collect()
}

#[test]
fn batch_is_bit_identical_to_sequential_loop() {
    let (g, scores) = fixed_workload();
    let queries = fixed_queries(g.num_nodes());
    let batch: Vec<BatchQuery<'_>> = queries
        .iter()
        .map(|q| BatchQuery::new(*q, &scores))
        .collect();

    for threads in [1usize, 2, 4] {
        let mut batch_engine = LonaEngine::new(&g, 2);
        let out = batch_engine.run_batch(&batch, &BatchOptions::with_threads(threads));
        assert_eq!(out.results.len(), queries.len());

        // The sequential reference: Engine::run with the same plans,
        // on a fresh engine, in order.
        let mut serial_engine = LonaEngine::new(&g, 2);
        for (i, (query, plan)) in queries.iter().zip(&out.plans).enumerate() {
            let expect = serial_engine.run(&plan.algorithm, query, &scores);
            assert_eq!(
                out.results[i].entries,
                expect.entries,
                "threads={threads} query {i} ({}, {}) diverged from the sequential loop",
                plan.algorithm,
                plan.reason.name()
            );
        }
    }

    // Work budget: a one-worker batch does at most 1.25x the work of
    // a sequential planned loop on a fresh engine, and the same work
    // on every run.
    let planned_work = || -> u64 {
        let mut engine = LonaEngine::new(&g, 2);
        let cfg = PlannerConfig::default();
        queries
            .iter()
            .map(|q| work_units(&engine.run_planned(q, &scores, &cfg).1.stats))
            .sum()
    };
    let batch_work = || {
        let out = LonaEngine::new(&g, 2).run_batch(&batch, &BatchOptions::with_threads(1));
        work_units(&out.stats)
    };
    let (sequential, batched) = (planned_work(), batch_work());
    assert!(sequential > 0 && batched > 0);
    assert!(
        batched as f64 <= 1.25 * sequential as f64,
        "one-worker batch did {:.3}x the sequential work ({batched} vs {sequential}), limit 1.25",
        batched as f64 / sequential as f64
    );
    assert_eq!(planned_work(), sequential, "sequential work must reproduce");
    assert_eq!(batch_work(), batched, "batch work must reproduce");
}

#[test]
fn batch_charges_the_index_build_once() {
    let (g, scores) = fixed_workload();
    // All-forward batch: every query needs the differential index.
    let queries: Vec<TopKQuery> = (1..=8).map(|k| TopKQuery::new(k, Aggregate::Sum)).collect();
    let batch: Vec<BatchQuery<'_>> = queries
        .iter()
        .map(|q| BatchQuery::new(*q, &scores).force(Algorithm::forward()))
        .collect();

    let mut engine = LonaEngine::new(&g, 2);
    let out = engine.run_batch(&batch, &BatchOptions::with_threads(2));
    assert!(
        out.index_build > Duration::ZERO,
        "a cold engine must pay the diff-index build"
    );
    assert_eq!(out.stats.index_build, out.index_build, "charged once");
    for (i, r) in out.results.iter().enumerate() {
        assert_eq!(
            r.stats.index_build,
            Duration::ZERO,
            "query {i} was charged an index build inside a batch"
        );
    }

    // Warm engine: nothing left to charge.
    let again = engine.run_batch(&batch, &BatchOptions::with_threads(2));
    assert_eq!(again.index_build, Duration::ZERO);
}

#[test]
fn planner_covers_multiple_branches_on_the_smoke_workload() {
    let (g, scores) = fixed_workload();
    let queries = fixed_queries(g.num_nodes());
    let batch: Vec<BatchQuery<'_>> = queries
        .iter()
        .map(|q| BatchQuery::new(*q, &scores))
        .collect();
    let mut engine = LonaEngine::new(&g, 2);
    let out = engine.run_batch(&batch, &BatchOptions::with_threads(1));
    let reasons: std::collections::BTreeSet<&'static str> =
        out.plans.iter().map(|p| p.reason.name()).collect();
    assert!(
        reasons.len() >= 2,
        "the mixed load should hit more than one planner branch, got {reasons:?}"
    );
}
