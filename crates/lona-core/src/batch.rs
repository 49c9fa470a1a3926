//! Batched multi-query execution.
//!
//! The paper evaluates one query at a time; a serving system gets
//! thousands. This module amortizes what can be amortized — the graph
//! is already shared via [`LonaEngine`], and the indexes a batch needs
//! are built **once, up front**, as the union of every planned
//! query's requirements — and then schedules execution over the
//! [`crate::exec`] worker pool:
//!
//! * **inter-query parallelism** when the batch is many small
//!   queries: each worker runs whole one-worker queries
//!   claimed from a work-stealing cursor;
//! * **intra-query parallelism** when the batch is a few large
//!   queries: queries run one after another, each planned with the
//!   whole thread budget.
//!
//! ## Determinism
//!
//! A batch returns **bit-identical results** to running each query
//! through [`LonaEngine::run`] with the same algorithm, at any thread
//! count: inter-query mode runs one-worker plans (just on different
//! threads), and intra-query mode only splits Base and LONA-Forward,
//! whose answers do not depend on the worker count (DESIGN.md §8).
//! `batch_props` and `tests/batch_smoke.rs` hold this line.
//!
//! ## Stats
//!
//! Per-query [`QueryStats`] are merged into [`BatchResult::stats`].
//! Because indexes are prepared before any query runs, every
//! per-query `index_build` is zero and the one real build is charged
//! exactly once, to the batch — summing per-query charges (what a
//! naive fold over [`LonaEngine::run`] results would do when each
//! run triggers a cached build probe) cannot double-count here by
//! construction. `stats.index_build` carries that single charge and
//! `stats.runtime` the batch execution wall time.

use std::time::{Duration, Instant};

use lona_relevance::ScoreVec;

use crate::algo::Algorithm;
use crate::engine::{IndexNeeds, LonaEngine, TopKQuery};
use crate::exec::{map_indexed, resolve_threads};
use crate::plan::{plan_query, Plan, PlannerConfig, INTRA_PARALLEL_FLOOR};
use crate::result::QueryResult;
use crate::stats::QueryStats;

/// One query of a batch: the query itself, its relevance scores
/// (borrowed — many queries typically share one vector), and an
/// optional per-query planner override.
#[derive(Copy, Clone, Debug)]
pub struct BatchQuery<'s> {
    /// The top-k query.
    pub query: TopKQuery,
    /// Relevance scores for this query (`len == graph.num_nodes()`).
    pub scores: &'s ScoreVec,
    /// Per-query override: run exactly this algorithm instead of
    /// consulting the planner (wins over [`BatchOptions::force`]).
    pub force: Option<Algorithm>,
}

impl<'s> BatchQuery<'s> {
    /// A planner-chosen batch query.
    pub fn new(query: TopKQuery, scores: &'s ScoreVec) -> Self {
        BatchQuery {
            query,
            scores,
            force: None,
        }
    }

    /// Set the per-query algorithm override.
    pub fn force(mut self, algorithm: Algorithm) -> Self {
        self.force = Some(algorithm);
        self
    }
}

/// Batch execution knobs. The default budget is one worker per core.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct BatchOptions {
    /// Total worker budget for the batch (0 = one per core). The
    /// scheduler decides whether to spend it across queries or
    /// within them.
    pub threads: usize,
    /// Batch-wide planner override (a per-query
    /// [`BatchQuery::force`] still wins).
    pub force: Option<Algorithm>,
}

impl BatchOptions {
    /// Options with an explicit thread budget.
    pub fn with_threads(threads: usize) -> Self {
        BatchOptions {
            threads,
            ..Default::default()
        }
    }
}

/// How the scheduler spent the thread budget.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BatchMode {
    /// Workers ran whole queries concurrently (one-worker plans).
    InterQuery,
    /// Queries ran one after another, each with the full budget.
    IntraQuery,
}

impl BatchMode {
    /// Short label for reports.
    pub fn name(self) -> &'static str {
        match self {
            BatchMode::InterQuery => "inter-query",
            BatchMode::IntraQuery => "intra-query",
        }
    }
}

/// Everything a batch run returns.
#[derive(Clone, Debug)]
pub struct BatchResult {
    /// Per-query results, in input order.
    pub results: Vec<QueryResult>,
    /// Per-query plans, in input order.
    pub plans: Vec<Plan>,
    /// Merged work counters. `index_build` is the one up-front build
    /// charge; `runtime` is the batch execution wall time (excluding
    /// that build).
    pub stats: QueryStats,
    /// Index build time, also available separately from the merged
    /// stats.
    pub index_build: Duration,
    /// Which parallelism the scheduler picked.
    pub mode: BatchMode,
    /// Worker budget the scheduler resolved (after 0 → per-core).
    pub threads: usize,
}

impl BatchResult {
    /// Queries per second over the execution wall time (builds
    /// excluded, matching the sequential-loop comparison where the
    /// engine's indexes are likewise warm after the first query).
    pub fn queries_per_second(&self) -> f64 {
        if self.results.is_empty() {
            return 0.0;
        }
        let secs = self.stats.runtime.as_secs_f64();
        if secs <= 0.0 {
            f64::INFINITY
        } else {
            self.results.len() as f64 / secs
        }
    }
}

/// Plan every query at a given per-query thread budget.
fn plan_all(
    engine: &LonaEngine<'_>,
    batch: &[BatchQuery<'_>],
    opts: &BatchOptions,
    per_query_threads: usize,
) -> Vec<Plan> {
    batch
        .iter()
        .map(|bq| {
            let cfg = PlannerConfig {
                threads: per_query_threads,
                allow_index_build: true,
                force: bq.force.or(opts.force),
            };
            plan_query(engine, &bq.query, bq.scores, &cfg)
        })
        .collect()
}

/// Execute a batch against one engine. Exposed via
/// [`LonaEngine::run_batch`].
pub(crate) fn run(
    engine: &mut LonaEngine<'_>,
    batch: &[BatchQuery<'_>],
    opts: &BatchOptions,
) -> BatchResult {
    for (i, bq) in batch.iter().enumerate() {
        assert_eq!(
            bq.scores.len(),
            engine.graph().num_nodes(),
            "batch query {i}: score vector covers {} nodes but the graph has {}",
            bq.scores.len(),
            engine.graph().num_nodes()
        );
    }

    let threads = resolve_threads(opts.threads, usize::MAX);

    // Scheduling policy (DESIGN.md §8): plan at one worker first; if the
    // *average* query clears the intra-parallel cost floor the batch
    // is "few large queries" and each gets the whole budget, else
    // "many small queries" and workers steal whole queries (a short
    // batch simply feeds fewer workers — map_indexed clamps — which
    // still beats running small queries one after another).
    let single_plans = plan_all(engine, batch, opts, 1);
    let mean_cost = if batch.is_empty() {
        0.0
    } else {
        single_plans.iter().map(|p| p.cost).sum::<f64>() / batch.len() as f64
    };
    let intra = threads > 1 && mean_cost >= INTRA_PARALLEL_FLOOR;
    let (mode, plans) = if intra {
        (
            BatchMode::IntraQuery,
            plan_all(engine, batch, opts, threads),
        )
    } else {
        (BatchMode::InterQuery, single_plans)
    };

    // Build the union of every plan's index needs once, before any
    // query runs: the build is charged to the batch exactly once and
    // every per-query index_build stays zero.
    let mut needs = IndexNeeds::default();
    for (plan, bq) in plans.iter().zip(batch) {
        needs.merge(IndexNeeds::of(&plan.algorithm, &bq.query, bq.scores));
    }
    let index_build = engine.prepare_needs(needs);

    let t = Instant::now();
    let engine_ref: &LonaEngine<'_> = engine;
    let run = |plan: &Plan, bq: &BatchQuery<'_>| {
        engine_ref.run_prepared_threads(&plan.algorithm, plan.threads, &bq.query, bq.scores)
    };
    let results = match mode {
        // map_indexed(1, ..) is a plain sequential loop, so a
        // single-threaded batch *is* the one-worker reference execution.
        BatchMode::InterQuery => map_indexed(threads.min(batch.len().max(1)), batch.len(), |i| {
            run(&plans[i], &batch[i])
        }),
        BatchMode::IntraQuery => plans.iter().zip(batch).map(|(p, bq)| run(p, bq)).collect(),
    };
    let wall = t.elapsed();

    let mut stats = QueryStats::default();
    for r in &results {
        debug_assert_eq!(
            r.stats.index_build,
            Duration::ZERO,
            "prepared queries must not charge builds"
        );
        stats.merge(&r.stats);
    }
    stats.index_build = index_build;
    stats.runtime = wall;

    BatchResult {
        results,
        plans,
        stats,
        index_build,
        mode,
        threads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::Aggregate;
    use crate::plan::PlanReason;
    use lona_graph::{CsrGraph, GraphBuilder};

    fn ring(n: u32) -> CsrGraph {
        GraphBuilder::undirected()
            .extend_edges((0..n).map(|i| (i, (i + 1) % n)))
            .build()
            .unwrap()
    }

    fn mixed_batch(scores: &[ScoreVec]) -> Vec<BatchQuery<'_>> {
        let aggregates = [Aggregate::Sum, Aggregate::Avg, Aggregate::Sum];
        (0..scores.len())
            .map(|i| {
                BatchQuery::new(
                    TopKQuery::new(1 + (i % 5), aggregates[i % 3]),
                    &scores[i % scores.len()],
                )
            })
            .collect()
    }

    fn score_pool(n: usize) -> Vec<ScoreVec> {
        vec![
            ScoreVec::from_fn(n, |u| if u.0 % 16 == 0 { 1.0 } else { 0.0 }),
            ScoreVec::from_fn(n, |u| (u.0 % 7) as f64 / 7.0 + 0.1),
            ScoreVec::from_fn(n, |u| ((u.0 * 31) % 13) as f64 / 13.0),
        ]
    }

    #[test]
    fn empty_batch_is_fine() {
        let g = ring(10);
        let mut engine = LonaEngine::new(&g, 2);
        let out = engine.run_batch(&[], &BatchOptions::default());
        assert!(out.results.is_empty());
        assert!(out.plans.is_empty());
        assert_eq!(out.stats.nodes_evaluated, 0);
        assert_eq!(out.queries_per_second(), 0.0);
    }

    #[test]
    fn batch_matches_serial_loop_exactly() {
        let g = ring(80);
        let scores = score_pool(80);
        let batch = mixed_batch(&scores);
        for threads in [1, 2, 4] {
            let mut batch_engine = LonaEngine::new(&g, 2);
            let out = batch_engine.run_batch(&batch, &BatchOptions::with_threads(threads));

            let mut serial_engine = LonaEngine::new(&g, 2);
            for (i, (bq, plan)) in batch.iter().zip(&out.plans).enumerate() {
                let expect = serial_engine.run(&plan.algorithm, &bq.query, bq.scores);
                assert_eq!(
                    out.results[i].entries, expect.entries,
                    "threads={threads} query {i} diverged"
                );
            }
        }
    }

    #[test]
    fn index_build_charged_once_across_batch() {
        // The regression the satellite task asks for: a batch of
        // forward queries must charge the diff-index build to the
        // batch exactly once, with every per-query charge zero.
        let g = ring(60);
        let scores = score_pool(60);
        let batch: Vec<BatchQuery<'_>> = (0..8)
            .map(|_| {
                BatchQuery::new(TopKQuery::new(2, Aggregate::Sum), &scores[1])
                    .force(Algorithm::forward())
            })
            .collect();
        let mut engine = LonaEngine::new(&g, 2);
        let out = engine.run_batch(&batch, &BatchOptions::with_threads(2));
        for (i, r) in out.results.iter().enumerate() {
            assert_eq!(
                r.stats.index_build,
                Duration::ZERO,
                "query {i} charged a build"
            );
        }
        assert_eq!(out.stats.index_build, out.index_build);

        // A second batch on the warm engine charges nothing at all.
        let again = engine.run_batch(&batch, &BatchOptions::with_threads(2));
        assert_eq!(again.index_build, Duration::ZERO);
        assert_eq!(again.stats.index_build, Duration::ZERO);
    }

    #[test]
    fn merged_counters_sum_per_query_work() {
        let g = ring(50);
        let scores = score_pool(50);
        let batch = mixed_batch(&scores);
        let mut engine = LonaEngine::new(&g, 2);
        let out = engine.run_batch(&batch, &BatchOptions::with_threads(1));
        let evaluated: usize = out.results.iter().map(|r| r.stats.nodes_evaluated).sum();
        let edges: u64 = out.results.iter().map(|r| r.stats.edges_traversed).sum();
        assert_eq!(out.stats.nodes_evaluated, evaluated);
        assert_eq!(out.stats.edges_traversed, edges);
    }

    #[test]
    fn overrides_apply_per_query_and_batch_wide() {
        let g = ring(40);
        let scores = score_pool(40);
        let query = TopKQuery::new(3, Aggregate::Sum);
        let batch = [
            BatchQuery::new(query, &scores[0]),
            BatchQuery::new(query, &scores[0]).force(Algorithm::Base),
        ];
        let opts = BatchOptions {
            threads: 1,
            force: Some(Algorithm::BackwardNaive),
        };
        let mut engine = LonaEngine::new(&g, 2);
        let out = engine.run_batch(&batch, &opts);
        assert_eq!(out.plans[0].algorithm, Algorithm::BackwardNaive);
        assert_eq!(out.plans[0].reason, PlanReason::Forced);
        assert_eq!(out.plans[1].algorithm, Algorithm::Base, "per-query wins");
    }

    #[test]
    fn small_batches_of_small_queries_stay_inter_query() {
        let g = ring(60);
        let scores = score_pool(60);
        let batch = mixed_batch(&scores);
        let mut engine = LonaEngine::new(&g, 2);
        let out = engine.run_batch(&batch, &BatchOptions::with_threads(2));
        assert_eq!(out.mode, BatchMode::InterQuery);
        for plan in &out.plans {
            assert_eq!(plan.threads, 1, "inter-query plans run one worker");
        }
        assert_eq!(out.threads, 2);
    }

    #[test]
    fn few_large_queries_go_intra_query() {
        let g = ring(200_000);
        let scores = ScoreVec::from_fn(200_000, |u| (u.0 % 7) as f64 / 7.0 + 0.1);
        let batch = [BatchQuery::new(TopKQuery::new(10, Aggregate::Sum), &scores)];
        let mut engine = LonaEngine::new(&g, 2);
        let out = engine.run_batch(&batch, &BatchOptions::with_threads(2));
        assert_eq!(out.mode, BatchMode::IntraQuery);
        assert_eq!(out.plans[0].threads, 2, "large query gets the budget");
    }

    #[test]
    #[should_panic(expected = "batch query 1")]
    fn score_length_mismatch_names_the_query() {
        let g = ring(10);
        let good = ScoreVec::zeros(10);
        let bad = ScoreVec::zeros(9);
        let query = TopKQuery::new(1, Aggregate::Sum);
        let batch = [BatchQuery::new(query, &good), BatchQuery::new(query, &bad)];
        let mut engine = LonaEngine::new(&g, 2);
        let _ = engine.run_batch(&batch, &BatchOptions::default());
    }

    #[test]
    fn mode_names_are_stable() {
        assert_eq!(BatchMode::InterQuery.name(), "inter-query");
        assert_eq!(BatchMode::IntraQuery.name(), "intra-query");
    }
}
