//! CI smoke for the sharded scatter-gather engine, on fixed seeds:
//!
//! * sharded results equal the single engine — bit-identical entries
//!   for forced order-preserving algorithms (SUM/MAX), values to 1e-9
//!   for planner-chosen runs and AVG — for every partition strategy
//!   and shard count in {1, 2, 4, 8};
//! * on seeded skewed-score workloads the TA coordinator provably
//!   skips at least one shard re-query at every multi-shard count
//!   (asserted via the deterministic coordinator counters, never wall
//!   clock);
//! * on id-locality graphs the cross-shard work ratio of contiguous
//!   partitions stays within a 1.25 budget at 1, 2, 4 and 8 shards.

use lona::prelude::*;

mod common;
use common::work_units;

/// The fixed paper-style workload: smoke-scale collaboration network
/// with a relevance mixture, both seeds pinned.
fn fixed_workload() -> (CsrGraph, ScoreVec) {
    let g = DatasetProfile::smoke(DatasetKind::Collaboration, 2024)
        .generate()
        .unwrap();
    let scores = MixtureBuilder::new(0.02).build(&g, 2024);
    (g, scores)
}

/// A community-structured graph whose ids align with contiguous
/// partitioning: 4 communities of 24 nodes (the shared
/// `community_path` fixture from `lona-gen`).
fn community_graph() -> CsrGraph {
    lona::gen::generators::community_path(4, 24).unwrap()
}

#[test]
fn sharded_equals_single_engine_on_fixed_seed() {
    let (g, scores) = fixed_workload();
    // Single-engine references, one per (aggregate, k).
    let mut single = LonaEngine::new(&g, 2);
    let cases: Vec<(TopKQuery, QueryResult)> = [Aggregate::Sum, Aggregate::Avg, Aggregate::Max]
        .into_iter()
        .flat_map(|aggregate| [1usize, 10, 50].map(|k| TopKQuery::new(k, aggregate)))
        .map(|q| {
            let r = single.run(&Algorithm::Base, &q, &scores);
            (q, r)
        })
        .collect();
    for strategy in PartitionStrategy::ALL {
        for shards in [1usize, 2, 4, 8] {
            let sharded = partition(&g, shards, strategy, 2).unwrap();
            if shards == 1 {
                // One shard is the whole graph: no cut, no replicas.
                assert_eq!(sharded.edge_cut(), 0, "{strategy}");
                assert!((sharded.replication_factor() - 1.0).abs() < 1e-12);
            }
            let mut engine = ShardedEngine::new(&sharded, 2);
            for (query, expect) in &cases {
                let got = engine.run(query, &scores, &ShardOptions::default());
                assert!(
                    got.result.same_values(expect, 1e-9),
                    "{strategy} x{shards} {:?} k={} diverged",
                    query.aggregate,
                    query.k
                );
                if shards == 1 {
                    assert_eq!(got.coordinator.requeries_skipped, 0, "{strategy}");
                }
            }
        }
    }
}

#[test]
fn sharded_forced_sum_is_bit_identical() {
    let (g, scores) = fixed_workload();
    let query = TopKQuery::new(10, Aggregate::Sum);
    let forces = [
        Algorithm::Base,
        Algorithm::BackwardNaive,
        Algorithm::forward(),
    ];
    let mut single = LonaEngine::new(&g, 2);
    let expects: Vec<QueryResult> = forces
        .iter()
        .map(|force| single.run(force, &query, &scores))
        .collect();
    for strategy in PartitionStrategy::ALL {
        for shards in [2usize, 4, 8] {
            let sharded = partition(&g, shards, strategy, 2).unwrap();
            let mut engine = ShardedEngine::new(&sharded, 2);
            for (force, expect) in forces.iter().zip(&expects) {
                let opts = ShardOptions::default().force(*force);
                let got = engine.run(&query, &scores, &opts);
                assert_eq!(
                    got.result.entries, expect.entries,
                    "{strategy} x{shards} {force}: entries must be bit-identical"
                );
            }
        }
    }
}

#[test]
fn ta_coordinator_skips_requeries_under_skew() {
    // Strictly graded community scores: community 0 is hot, each next
    // one ~20x colder. Contiguous sharding aligns shards with
    // communities; the forward family's adaptive k' leaves every
    // shard incomplete after round 1, and the cold shards' upper
    // bounds fall below the global threshold.
    let g = community_graph();
    let scores = ScoreVec::from_fn(g.num_nodes(), |u| {
        [1.0, 0.05, 0.0025, 0.000125][(u.0 / 24) as usize]
    });
    let query = TopKQuery::new(8, Aggregate::Sum);

    let mut single = LonaEngine::new(&g, 2);
    let expect = single.run(&Algorithm::forward(), &query, &scores);

    let sharded = partition(&g, 4, PartitionStrategy::Contiguous, 2).unwrap();
    let mut engine = ShardedEngine::new(&sharded, 2);
    let opts = ShardOptions::default().force(Algorithm::forward());
    let got = engine.run(&query, &scores, &opts);

    assert_eq!(got.result.entries, expect.entries, "identity under skew");
    let c = &got.coordinator;
    assert!(
        c.requeries_skipped >= 1,
        "TA rule skipped no shard re-query: {c:?}"
    );
    assert!(
        c.edges_saved_estimate > 0.0,
        "no saved work recorded: {c:?}"
    );
    assert_eq!(c.rounds, 2, "the hot shard must force a second round");
    assert!(
        c.shards_requeried + c.requeries_skipped <= c.shards_queried,
        "coordinator accounting inconsistent: {c:?}"
    );
    // The skipped shards are the cold tail, never the hot shard.
    for report in &got.reports {
        if report.skipped {
            assert!(report.shard >= 1, "hot shard 0 wrongly skipped");
        }
    }

    // 8 communities of 24 with scores 0.45^community, k = 12: every
    // multi-shard contiguous partition must skip a re-query.
    let g = lona::gen::generators::community_path(8, 24).unwrap();
    let scores = ScoreVec::from_fn(g.num_nodes(), |u| 0.45f64.powi((u.0 / 24) as i32));
    let query = TopKQuery::new(12, Aggregate::Sum);
    let expect = LonaEngine::new(&g, 2).run(&Algorithm::forward(), &query, &scores);
    let opts = ShardOptions::with_threads(1).force(Algorithm::forward());
    for shards in [2usize, 4, 8] {
        let sharded = partition(&g, shards, PartitionStrategy::Contiguous, 2).unwrap();
        let got = ShardedEngine::new(&sharded, 2).run(&query, &scores, &opts);
        assert!(
            got.result.same_values(&expect, 1e-9),
            "x{shards}: skew diverged"
        );
        assert!(
            got.coordinator.requeries_skipped >= 1,
            "x{shards}: TA rule skipped no shard re-query: {:?}",
            got.coordinator
        );
        assert!(got.coordinator.edges_saved_estimate > 0.0, "x{shards}");
    }
}

#[test]
fn cross_shard_work_ratio_is_bounded_on_locality_graph() {
    // Planner-chosen sparse mixture on community graphs: total shard
    // work (all rounds) of a contiguous partition must stay within
    // 1.25x of the single engine's. Two inputs: 4 communities with 3
    // queries at the default worker budget, and 8 communities with a
    // 4-query mixture (MAX included) at one worker, where every shard
    // count in {1, 2, 4, 8} is checked.
    let mixture = |n: usize| {
        ScoreVec::from_fn(n, |u| {
            if u.0 % 16 == 0 {
                (((u.0 * 31) % 13) + 1) as f64 / 13.0
            } else {
                0.0
            }
        })
    };
    let inputs = [
        (
            community_graph(),
            vec![
                TopKQuery::new(10, Aggregate::Sum),
                TopKQuery::new(5, Aggregate::Avg),
                TopKQuery::new(20, Aggregate::Sum),
            ],
            ShardOptions::default(),
            vec![2usize, 4],
        ),
        (
            lona::gen::generators::community_path(8, 24).unwrap(),
            vec![
                TopKQuery::new(10, Aggregate::Sum),
                TopKQuery::new(5, Aggregate::Avg),
                TopKQuery::new(20, Aggregate::Sum),
                TopKQuery::new(10, Aggregate::Max),
            ],
            ShardOptions::with_threads(1),
            vec![1usize, 2, 4, 8],
        ),
    ];

    for (g, queries, opts, shard_counts) in &inputs {
        let scores = mixture(g.num_nodes());
        let mut single_work = 0u64;
        let mut single = LonaEngine::new(g, 2);
        let cfg = PlannerConfig::default();
        let mut expect = Vec::new();
        for q in queries {
            let (_, r) = single.run_planned(q, &scores, &cfg);
            single_work += work_units(&r.stats);
            expect.push(r);
        }

        for &shards in shard_counts {
            let sharded = partition(g, shards, PartitionStrategy::Contiguous, 2).unwrap();
            let mut engine = ShardedEngine::new(&sharded, 2);
            let mut work = 0u64;
            for (q, exp) in queries.iter().zip(&expect) {
                let got = engine.run(q, &scores, opts);
                assert!(got.result.same_values(exp, 1e-9));
                work += work_units(&got.result.stats);
            }
            let ratio = work as f64 / single_work as f64;
            assert!(
                ratio <= 1.25,
                "{} nodes x{shards}: cross-shard work ratio {ratio:.3} exceeds 1.25 \
                 ({work} vs {single_work})",
                g.num_nodes()
            );
        }
    }
}

#[test]
fn work_counters_are_reproducible() {
    let g = community_graph();
    let scores = ScoreVec::from_fn(g.num_nodes(), |u| ((u.0 * 7) % 11) as f64 / 11.0);
    let query = TopKQuery::new(6, Aggregate::Sum);
    for strategy in PartitionStrategy::ALL {
        for shards in [1usize, 2, 4, 8] {
            let run = || {
                let sharded = partition(&g, shards, strategy, 2).unwrap();
                let mut engine = ShardedEngine::new(&sharded, 2);
                let out = engine.run(&query, &scores, &ShardOptions::default());
                (
                    work_units(&out.result.stats),
                    out.coordinator.requeries_skipped,
                    out.coordinator.shards_requeried,
                    out.result.entries.clone(),
                )
            };
            assert_eq!(
                run(),
                run(),
                "{strategy} x{shards}: sharded execution must be deterministic"
            );
        }
    }
}
