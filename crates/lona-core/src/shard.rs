//! Sharded scatter-gather execution with a TA-style cross-shard
//! merge.
//!
//! One [`ShardedEngine`] serves top-k queries over a
//! [`ShardedGraph`]: each shard owns a disjoint slice of the nodes
//! and carries enough halo (see [`mod@lona_graph::partition`]) to
//! evaluate every owned node's h-hop aggregate **exactly** without
//! cross-shard traffic. Execution is scatter-gather:
//!
//! 1. **Scatter** — every non-empty shard plans its own sub-query
//!    with the cost-based planner ([`crate::plan`]) against its own
//!    warm [`EngineState`], and runs it for an adaptive `k' <= k`
//!    (ADiT-style: proportional to the shard's owned share when the
//!    planned algorithm benefits from a tight local threshold, the
//!    full `k` when its cost is k-insensitive, because a re-query
//!    would repeat the same work).
//! 2. **Gather** — the coordinator merges shard results into one
//!    global heap; its k-th value is the global threshold `τ`
//!    (Fagin et al.'s threshold algorithm, with shards as the sorted
//!    access streams).
//! 3. **Re-query** — a shard that returned a full `k' < k` prefix
//!    *might* hold more of the global top-k. Its remaining nodes are
//!    bounded above by `min(static shard bound, last returned
//!    value)`; only shards whose bound still reaches `τ` are
//!    re-queried (at full `k`), the rest are **skipped** — the work
//!    the counters in [`CoordinatorStats`] account for. One re-query
//!    round suffices: afterwards every shard is either complete or
//!    provably unable to contribute.
//!
//! ## Result identity
//!
//! Local ids inside a shard ascend in global-id order, so every
//! per-node scan and backward accumulation adds the same floats in
//! the same order as the single-graph run — per-node values are
//! bit-identical, and the merged heap applies the same
//! `(value desc, id asc)` tie-break as a single engine. DESIGN.md §9
//! gives the full soundness argument (including why the skip rule
//! must use a strict `bound < τ`).

use std::time::{Duration, Instant};

use lona_graph::partition::{Shard, ShardedGraph};
use lona_graph::NodeId;
use lona_relevance::ScoreVec;

use crate::aggregate::Aggregate;
use crate::algo::Algorithm;
use crate::batch::BatchQuery;
use crate::engine::{EngineState, IndexNeeds, LonaEngine, TopKQuery};
use crate::exec;
use crate::plan::{plan_query, Plan, PlannerConfig};
use crate::result::QueryResult;
use crate::stats::QueryStats;
use crate::topk::TopKHeap;

/// Extra results requested beyond a shard's proportional share in the
/// first round, so mild skew rarely forces a second round.
pub const SHARD_K_SLACK: usize = 2;

/// Knobs for sharded execution. The default scatter budget is one
/// worker per core.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct ShardOptions {
    /// Worker budget for the cross-shard scatter (0 = one per core).
    /// With more than one shard, per-shard plans run one worker and
    /// the budget is spent running shards concurrently.
    pub threads: usize,
    /// Planner override applied to every shard.
    pub force: Option<Algorithm>,
    /// Override the adaptive first-round `k'` (clamped to `[1, k]`).
    /// Mostly for tests and benches; `None` = adaptive.
    pub initial_k: Option<usize>,
}

impl ShardOptions {
    /// Options with an explicit scatter thread budget.
    pub fn with_threads(threads: usize) -> Self {
        ShardOptions {
            threads,
            ..Default::default()
        }
    }

    /// Set the planner override.
    pub fn force(mut self, algorithm: Algorithm) -> Self {
        self.force = Some(algorithm);
        self
    }
}

/// What happened on one shard during one sharded query.
#[derive(Clone, Debug)]
pub struct ShardRunReport {
    /// Shard index.
    pub shard: usize,
    /// The round-1 plan (`None` for shards that own no nodes).
    pub plan: Option<Plan>,
    /// First-round `k'`.
    pub k_first: usize,
    /// Results the first round returned.
    pub returned_first: usize,
    /// Upper bound on the shard's unreturned nodes at gather time
    /// (`-∞` when the shard was already complete).
    pub upper_bound: f64,
    /// Whether the coordinator re-queried this shard at full `k`.
    pub requeried: bool,
    /// Whether a possible re-query was skipped because the bound fell
    /// below the global threshold.
    pub skipped: bool,
}

/// The coordinator's deterministic work accounting.
#[derive(Clone, Debug, Default)]
pub struct CoordinatorStats {
    /// Scatter-gather rounds executed (1 or 2).
    pub rounds: usize,
    /// Shards queried in round 1 (shards owning at least one node).
    pub shards_queried: usize,
    /// Shards re-queried at full `k` in round 2.
    pub shards_requeried: usize,
    /// Shards that had unreturned nodes but whose upper bound fell
    /// below the global threshold — re-queries the TA rule saved.
    pub requeries_skipped: usize,
    /// Planner cost estimate (edge accesses) of the skipped
    /// re-queries: deterministic "work saved by shard pruning".
    pub edges_saved_estimate: f64,
    /// Final global threshold (the k-th best merged value).
    pub threshold: f64,
}

/// Result of one sharded query.
#[derive(Clone, Debug)]
pub struct ShardedResult {
    /// Merged top-k in **global** node ids, plus work counters summed
    /// over every shard run of every round (`index_build` is the
    /// total charged this query; `runtime` is end-to-end).
    pub result: QueryResult,
    /// Per-shard accounts, indexed by shard.
    pub reports: Vec<ShardRunReport>,
    /// Coordinator accounting.
    pub coordinator: CoordinatorStats,
}

/// Result of a sharded batch.
#[derive(Clone, Debug)]
pub struct ShardedBatchResult {
    /// Per-query results, in input order.
    pub results: Vec<ShardedResult>,
    /// Merged work counters across the batch.
    pub stats: QueryStats,
    /// Total index build time charged across the batch (warm after
    /// the first query that needs each index).
    pub index_build: Duration,
}

/// First-round `k'` for one shard (the ADiT-style adaptation).
///
/// * Algorithms whose cost is **k-insensitive** (Base scans every
///   candidate; the backward family's distribution phase ignores `k`)
///   are asked for the full `k` immediately — a re-query would repeat
///   the same work for nothing.
/// * LONA-Forward benefits from a small `k'`: the local `topklbound`
///   rises faster and prunes more, so the shard is asked for its
///   proportional share of `k` plus [`SHARD_K_SLACK`].
fn first_round_k(
    k: usize,
    planned: &Algorithm,
    owned: usize,
    total_owned: usize,
    opts: &ShardOptions,
) -> usize {
    if let Some(v) = opts.initial_k {
        return v.clamp(1, k);
    }
    match planned {
        Algorithm::LonaForward(_) => {
            let share = (k * owned).div_ceil(total_owned.max(1));
            (share + SHARD_K_SLACK).clamp(1, k)
        }
        _ => k,
    }
}

/// Index-free static upper bound on any owned node's aggregate in
/// this shard, from the raw score slice:
///
/// * SUM / distance-weighted SUM: Σ of positive member scores — an
///   h-hop ball is a subset of the member set and every term appears
///   at most once;
/// * AVG / MAX: the maximum member score, clamped at 0 (the empty
///   average and the empty maximum are defined as 0).
fn static_bound(local_scores: &[f64], aggregate: Aggregate) -> f64 {
    match aggregate {
        Aggregate::Sum | Aggregate::DistanceWeightedSum => {
            local_scores.iter().map(|&f| f.max(0.0)).sum()
        }
        Aggregate::Avg | Aggregate::Max => local_scores.iter().fold(0.0, |m, &f| m.max(f)),
    }
}

/// The shard's upper bound at gather time: the static bound, refined
/// by the size index when the shard's plan happened to build one
/// (`f_max · (N(u) + [self])` over owned nodes bounds any SUM), and
/// finally clamped by the sorted-access bound — the last (smallest)
/// value the shard returned, which every unreturned node is ≤ by the
/// shard's own ordering.
fn shard_upper_bound(
    shard: &Shard,
    state: &EngineState,
    local_scores: &[f64],
    query: &TopKQuery,
    last_returned: f64,
) -> f64 {
    let mut bound = static_bound(local_scores, query.aggregate);
    if let Some(sizes) = state.size_index() {
        if matches!(
            query.aggregate,
            Aggregate::Sum | Aggregate::DistanceWeightedSum
        ) {
            let f_max = local_scores.iter().fold(0.0f64, |m, &f| m.max(f));
            let self_term = usize::from(query.include_self);
            let mut best = f64::NEG_INFINITY;
            for (i, &owned) in shard.owned_mask().iter().enumerate() {
                if owned {
                    let n_u = sizes.get(NodeId(i as u32)) + self_term;
                    best = best.max(f_max * n_u as f64);
                }
            }
            bound = bound.min(best);
        }
    }
    bound.min(last_returned)
}

/// Scatter-gather engine over a partitioned graph.
///
/// Holds one warm [`EngineState`] (size/differential indexes) per
/// shard; indexes are built lazily by the first query that needs them
/// and reused across queries, exactly like a single [`LonaEngine`].
///
/// ```
/// use lona_core::{Aggregate, LonaEngine, ShardOptions, ShardedEngine, TopKQuery};
/// use lona_gen::generators::watts_strogatz;
/// use lona_graph::{partition, PartitionStrategy};
/// use lona_relevance::binary_blacking;
///
/// let g = watts_strogatz(300, 6, 0.02, 7).unwrap();
/// let scores = binary_blacking(g.num_nodes(), 0.05, 7);
/// let query = TopKQuery::new(8, Aggregate::Sum);
///
/// let mut single = LonaEngine::new(&g, 2);
/// let expect = single.run(&lona_core::Algorithm::Base, &query, &scores);
///
/// let sharded = partition(&g, 4, PartitionStrategy::Contiguous, 2).unwrap();
/// let mut engine = ShardedEngine::new(&sharded, 2);
/// let got = engine.run(&query, &scores, &ShardOptions::default());
/// assert!(got.result.same_values(&expect, 1e-9));
/// ```
pub struct ShardedEngine<'g> {
    sharded: &'g ShardedGraph,
    hops: u32,
    states: Vec<EngineState>,
}

impl<'g> ShardedEngine<'g> {
    /// Create an engine over `sharded` at hop radius `hops`.
    ///
    /// # Panics
    /// Panics if `hops == 0` or if `hops` exceeds the partition's
    /// halo depth — beyond it, owned neighborhoods are truncated and
    /// the exactness invariant breaks.
    pub fn new(sharded: &'g ShardedGraph, hops: u32) -> Self {
        assert!(hops >= 1, "hop radius must be at least 1");
        assert!(
            hops <= sharded.halo_hops(),
            "hop radius {hops} exceeds the partition's halo depth {} — repartition with \
             halo_hops >= {hops} to keep owned neighborhoods exact",
            sharded.halo_hops()
        );
        let states = (0..sharded.num_shards())
            .map(|_| EngineState::new())
            .collect();
        ShardedEngine {
            sharded,
            hops,
            states,
        }
    }

    /// Reassemble an engine around previously extracted per-shard
    /// states (see [`ShardedEngine::into_states`]) — how a resident
    /// server keeps shard indexes warm across micro-batches without
    /// holding a borrow of the partition between them.
    ///
    /// # Panics
    /// Panics under the same `hops` rules as [`ShardedEngine::new`],
    /// or if `states` does not hold exactly one state per shard.
    pub fn from_states(sharded: &'g ShardedGraph, hops: u32, states: Vec<EngineState>) -> Self {
        assert!(hops >= 1, "hop radius must be at least 1");
        assert!(
            hops <= sharded.halo_hops(),
            "hop radius {hops} exceeds the partition's halo depth {}",
            sharded.halo_hops()
        );
        assert_eq!(
            states.len(),
            sharded.num_shards(),
            "need exactly one engine state per shard"
        );
        ShardedEngine {
            sharded,
            hops,
            states,
        }
    }

    /// Extract the per-shard states (warm indexes included), consuming
    /// the engine. Pair with [`ShardedEngine::from_states`].
    pub fn into_states(self) -> Vec<EngineState> {
        self.states
    }

    /// The partitioned graph.
    pub fn sharded_graph(&self) -> &ShardedGraph {
        self.sharded
    }

    /// The hop radius.
    pub fn hops(&self) -> u32 {
        self.hops
    }

    /// Per-shard score slices in local-id order.
    fn local_scores(&self, scores: &ScoreVec) -> Vec<ScoreVec> {
        let global = scores.as_slice();
        self.sharded
            .shards()
            .iter()
            .map(|shard| {
                ScoreVec::new(
                    shard
                        .global_ids()
                        .iter()
                        .map(|g| global[g.index()])
                        .collect(),
                )
            })
            .collect()
    }

    /// Assemble a transient engine around shard `s`'s warm state
    /// (candidate-masked), hand it to `f`, and put the state back.
    fn with_engine<T>(&mut self, s: usize, f: impl FnOnce(&mut LonaEngine<'_>) -> T) -> T {
        let shard = self.sharded.shard(s);
        let state = std::mem::take(&mut self.states[s]);
        let mut engine = LonaEngine::from_state(shard.graph(), self.hops, state)
            .with_candidates(shard.owned_mask());
        let out = f(&mut engine);
        self.states[s] = engine.into_state();
        out
    }

    /// Plan one shard's sub-query and build whatever the plan needs;
    /// returns the plan and the charged build time.
    fn plan_and_prepare(
        &mut self,
        s: usize,
        query: &TopKQuery,
        local: &ScoreVec,
        opts: &ShardOptions,
        per_shard_threads: usize,
    ) -> (Plan, Duration) {
        let cfg = PlannerConfig {
            threads: per_shard_threads,
            allow_index_build: true,
            force: opts.force,
        };
        self.with_engine(s, |engine| {
            let plan = plan_query(engine, query, local, &cfg);
            let took = engine.prepare_needs(IndexNeeds::of(&plan.algorithm, query, local));
            (plan, took)
        })
    }

    /// Run one top-k query across every shard and merge.
    ///
    /// # Panics
    /// Panics if `scores.len()` differs from the global node count.
    pub fn run(
        &mut self,
        query: &TopKQuery,
        scores: &ScoreVec,
        opts: &ShardOptions,
    ) -> ShardedResult {
        assert_eq!(
            scores.len(),
            self.sharded.num_global_nodes(),
            "score vector covers {} nodes but the graph has {}",
            scores.len(),
            self.sharded.num_global_nodes()
        );
        let t0 = Instant::now();
        let num_shards = self.sharded.num_shards();
        let total_owned: usize = self.sharded.shards().iter().map(Shard::owned_count).sum();
        let local_scores = self.local_scores(scores);
        // With several shards the scatter takes the thread budget and
        // per-shard plans run one worker; a single shard gets the
        // whole budget for intra-query parallelism.
        let per_shard_threads = if num_shards > 1 { 1 } else { opts.threads };

        // --- Round 1: plan + prepare (sequential; builds are
        // internally parallel), then scatter (read-only, parallel
        // across shards). ---
        let mut plans: Vec<Option<Plan>> = vec![None; num_shards];
        let mut sub_queries: Vec<TopKQuery> = vec![*query; num_shards];
        let mut index_build = Duration::ZERO;
        for s in 0..num_shards {
            if self.sharded.shard(s).owned_count() == 0 {
                continue;
            }
            // Probe at full k to learn the algorithm family, choose
            // k' from its cost structure, then plan the actual
            // sub-query (reusing the probe when k' == k — the two
            // plans are identical then) and build what it needs.
            let owned = self.sharded.shard(s).owned_count();
            let cfg = PlannerConfig {
                threads: per_shard_threads,
                allow_index_build: true,
                force: opts.force,
            };
            let local = &local_scores[s];
            let (plan, sub, took) = self.with_engine(s, |engine| {
                let probe = plan_query(engine, query, local, &cfg);
                let k1 = first_round_k(query.k, &probe.algorithm, owned, total_owned, opts);
                let sub = TopKQuery { k: k1, ..*query };
                let plan = if k1 == query.k {
                    probe
                } else {
                    plan_query(engine, &sub, local, &cfg)
                };
                let took = engine.prepare_needs(IndexNeeds::of(&plan.algorithm, &sub, local));
                (plan, sub, took)
            });
            index_build += took;
            plans[s] = Some(plan);
            sub_queries[s] = sub;
        }

        let scatter_threads = exec::resolve_threads(opts.threads, num_shards.max(1));
        let round1: Vec<Option<QueryResult>> = {
            let states = &self.states;
            let plans = &plans;
            let subs = &sub_queries;
            let locals = &local_scores;
            let sharded = self.sharded;
            let hops = self.hops;
            exec::map_indexed(scatter_threads, num_shards, |s| {
                plans[s].as_ref().map(|plan| {
                    let shard = sharded.shard(s);
                    states[s].dispatch(
                        shard.graph().view(),
                        hops,
                        Some(shard.owned_mask()),
                        &plan.algorithm,
                        plan.threads,
                        &subs[s],
                        &locals[s],
                    )
                })
            })
        };

        // --- Gather: merge round-1 results, raise the threshold. ---
        let mut stats = QueryStats::default();
        let mut heap = TopKHeap::new(query.k);
        for (s, result) in round1.iter().enumerate() {
            if let Some(r) = result {
                stats.merge(&r.stats);
                let shard = self.sharded.shard(s);
                for &(local, value) in &r.entries {
                    heap.offer(shard.to_global(local), value);
                }
            }
        }
        let tau = heap.threshold(); // -∞ until k results exist

        // --- Re-query decision (the TA rule). ---
        let mut coordinator = CoordinatorStats {
            rounds: 1,
            shards_queried: round1.iter().flatten().count(),
            threshold: f64::NEG_INFINITY,
            ..Default::default()
        };
        let mut reports: Vec<ShardRunReport> = Vec::with_capacity(num_shards);
        let mut requery: Vec<usize> = Vec::new();
        for s in 0..num_shards {
            let (k_first, returned_first) = (
                sub_queries[s].k,
                round1[s].as_ref().map_or(0, |r| r.entries.len()),
            );
            let mut report = ShardRunReport {
                shard: s,
                plan: plans[s],
                k_first,
                returned_first,
                upper_bound: f64::NEG_INFINITY,
                requeried: false,
                skipped: false,
            };
            if let Some(r) = &round1[s] {
                let shard = self.sharded.shard(s);
                // Complete: asked for the full k, returned fewer than
                // asked (exhausted), or returned every owned node.
                let complete = k_first >= query.k
                    || r.entries.len() < k_first
                    || r.entries.len() >= shard.owned_count();
                if !complete {
                    let bound = shard_upper_bound(
                        shard,
                        &self.states[s],
                        local_scores[s].as_slice(),
                        query,
                        r.threshold(),
                    );
                    report.upper_bound = bound;
                    // Strict skip rule: an unreturned node with value
                    // == τ could still win its tie on a smaller
                    // global id, so only `bound < τ` may skip.
                    if bound >= tau {
                        report.requeried = true;
                        requery.push(s);
                    } else {
                        report.skipped = true;
                        coordinator.requeries_skipped += 1;
                        coordinator.edges_saved_estimate += plans[s].map_or(0.0, |p| p.cost);
                    }
                }
            }
            reports.push(report);
        }

        // --- Round 2: re-query the surviving shards at full k. ---
        let mut latest: Vec<Option<QueryResult>> = round1;
        if !requery.is_empty() {
            coordinator.rounds = 2;
            coordinator.shards_requeried = requery.len();
            let mut round2_plans: Vec<Option<Plan>> = vec![None; num_shards];
            for &s in &requery {
                let (plan, took) =
                    self.plan_and_prepare(s, query, &local_scores[s], opts, per_shard_threads);
                index_build += took;
                round2_plans[s] = Some(plan);
            }
            let rq_threads = exec::resolve_threads(opts.threads, requery.len());
            let second: Vec<QueryResult> = {
                let states = &self.states;
                let locals = &local_scores;
                let sharded = self.sharded;
                let hops = self.hops;
                let round2_plans = &round2_plans;
                let requery = &requery;
                exec::map_indexed(rq_threads, requery.len(), |i| {
                    let s = requery[i];
                    let shard = sharded.shard(s);
                    let plan = round2_plans[s].as_ref().expect("planned above");
                    states[s].dispatch(
                        shard.graph().view(),
                        hops,
                        Some(shard.owned_mask()),
                        &plan.algorithm,
                        plan.threads,
                        query,
                        &locals[s],
                    )
                })
            };
            for (i, result) in second.into_iter().enumerate() {
                stats.merge(&result.stats);
                latest[requery[i]] = Some(result);
            }
        }

        // --- Final merge over each shard's latest (complete or
        // threshold-dominated) result. ---
        let mut final_heap = TopKHeap::new(query.k);
        for (s, result) in latest.iter().enumerate() {
            if let Some(r) = result {
                let shard = self.sharded.shard(s);
                for &(local, value) in &r.entries {
                    final_heap.offer(shard.to_global(local), value);
                }
            }
        }
        let entries = final_heap.into_sorted_vec();
        coordinator.threshold = entries.last().map_or(f64::NEG_INFINITY, |e| e.1);

        stats.index_build = index_build;
        stats.runtime = t0.elapsed();
        ShardedResult {
            result: QueryResult { entries, stats },
            reports,
            coordinator,
        }
    }

    /// Run a batch of queries through the sharded engine, reusing the
    /// per-shard index state across queries (warm after the first
    /// query that needs each index — the batch analogue of
    /// the batch layer's build-once policy, here amortized by
    /// the engine's persistent states rather than an upfront union).
    pub fn run_batch(
        &mut self,
        batch: &[BatchQuery<'_>],
        opts: &ShardOptions,
    ) -> ShardedBatchResult {
        let mut results = Vec::with_capacity(batch.len());
        let mut stats = QueryStats::default();
        let mut index_build = Duration::ZERO;
        for bq in batch {
            let per_query = ShardOptions {
                force: bq.force.or(opts.force),
                ..*opts
            };
            let out = self.run(&bq.query, bq.scores, &per_query);
            index_build += out.result.stats.index_build;
            stats.merge(&out.result.stats);
            results.push(out);
        }
        ShardedBatchResult {
            results,
            stats,
            index_build,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lona_graph::{partition, CsrGraph, PartitionStrategy};

    /// The shared community fixture: ids are community-contiguous, so
    /// contiguous partitioning aligns shards with communities.
    fn community_path(c: u32, size: u32) -> CsrGraph {
        lona_gen::generators::community_path(c, size).unwrap()
    }

    fn mixture_scores(n: usize) -> ScoreVec {
        ScoreVec::from_fn(n, |u| {
            if u.0 % 5 == 0 {
                ((u.0 * 31) % 13) as f64 / 13.0 + 0.1
            } else {
                0.0
            }
        })
    }

    fn dense_scores(n: usize) -> ScoreVec {
        ScoreVec::from_fn(n, |u| ((u.0 * 7) % 11) as f64 / 11.0 + 0.05)
    }

    #[test]
    fn matches_single_engine_across_strategies_and_counts() {
        let g = community_path(4, 16);
        let n = g.num_nodes();
        for scores in [mixture_scores(n), dense_scores(n)] {
            for aggregate in [Aggregate::Sum, Aggregate::Avg, Aggregate::Max] {
                let query = TopKQuery::new(6, aggregate);
                let mut single = LonaEngine::new(&g, 2);
                let expect = single.run(&Algorithm::Base, &query, &scores);
                for strategy in PartitionStrategy::ALL {
                    for shards in [1usize, 2, 4, 8] {
                        let sharded = partition(&g, shards, strategy, 2).unwrap();
                        let mut engine = ShardedEngine::new(&sharded, 2);
                        let got = engine.run(&query, &scores, &ShardOptions::default());
                        assert!(
                            got.result.same_values(&expect, 1e-9),
                            "{strategy} x{shards} {aggregate:?}: {:?} vs {:?}",
                            got.result.values(),
                            expect.values()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn forced_exact_algorithms_are_bit_identical() {
        // Base, BackwardNaive and LONA-Forward evaluate (or
        // accumulate) in global traversal order inside each shard, so
        // the merged entries — nodes AND values — equal the
        // single-engine run bit for bit.
        let g = community_path(4, 16);
        let n = g.num_nodes();
        let scores = dense_scores(n);
        for force in [
            Algorithm::Base,
            Algorithm::BackwardNaive,
            Algorithm::forward(),
        ] {
            for aggregate in [
                Aggregate::Sum,
                Aggregate::Avg,
                Aggregate::DistanceWeightedSum,
                Aggregate::Max,
            ] {
                let query = TopKQuery::new(7, aggregate);
                let mut single = LonaEngine::new(&g, 2);
                let expect = single.run(&force, &query, &scores);
                for strategy in PartitionStrategy::ALL {
                    for shards in [2usize, 4, 8] {
                        let sharded = partition(&g, shards, strategy, 2).unwrap();
                        let mut engine = ShardedEngine::new(&sharded, 2);
                        let opts = ShardOptions::default().force(force);
                        let got = engine.run(&query, &scores, &opts);
                        assert_eq!(
                            got.result.entries, expect.entries,
                            "{strategy} x{shards} {force} {aggregate:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn skewed_scores_skip_cold_shard_requeries() {
        // Communities with strictly graded score levels; contiguous
        // sharding aligns them. With adaptive k' < k the hot shards
        // must be re-queried while the cold tail is provably
        // dominated and skipped — the TA rule at work.
        let g = community_path(4, 24);
        let n = g.num_nodes();
        let levels = [1.0, 0.5, 0.05, 0.001];
        let scores = ScoreVec::from_fn(n, |u| levels[(u.0 / 24) as usize]);
        let query = TopKQuery::new(8, Aggregate::Sum);

        let mut single = LonaEngine::new(&g, 2);
        let expect = single.run(&Algorithm::Base, &query, &scores);

        let sharded = partition(&g, 4, PartitionStrategy::Contiguous, 2).unwrap();
        let mut engine = ShardedEngine::new(&sharded, 2);
        // Force the forward family so the adaptive k' rule applies.
        let opts = ShardOptions::default().force(Algorithm::forward());
        let got = engine.run(&query, &scores, &opts);

        assert_eq!(got.result.entries, expect.entries, "identity under skew");
        assert!(
            got.coordinator.requeries_skipped >= 1,
            "TA rule skipped nothing: {:?}",
            got.coordinator
        );
        assert_eq!(got.coordinator.rounds, 2, "hot shard needs a round 2");
        assert!(got.coordinator.edges_saved_estimate > 0.0);
        let skipped: Vec<usize> = got
            .reports
            .iter()
            .filter(|r| r.skipped)
            .map(|r| r.shard)
            .collect();
        assert!(
            skipped.iter().all(|&s| s >= 2),
            "only cold shards may be skipped: {skipped:?}"
        );
    }

    #[test]
    fn adaptive_k_is_cost_structure_aware() {
        // Backward-family plans ask for the full k at once (their
        // distribution cost ignores k); forward plans ask for the
        // proportional share plus slack.
        assert_eq!(
            first_round_k(8, &Algorithm::backward(), 25, 100, &ShardOptions::default()),
            8
        );
        assert_eq!(
            first_round_k(8, &Algorithm::Base, 25, 100, &ShardOptions::default()),
            8
        );
        assert_eq!(
            first_round_k(8, &Algorithm::forward(), 25, 100, &ShardOptions::default()),
            2 + SHARD_K_SLACK
        );
        // Override wins, clamped to [1, k].
        let opts = ShardOptions {
            initial_k: Some(99),
            ..Default::default()
        };
        assert_eq!(first_round_k(8, &Algorithm::forward(), 25, 100, &opts), 8);
    }

    #[test]
    fn more_shards_than_nodes_and_tiny_k() {
        let g = community_path(1, 6);
        let scores = dense_scores(6);
        let query = TopKQuery::new(1, Aggregate::Sum);
        let sharded = partition(&g, 8, PartitionStrategy::Contiguous, 2).unwrap();
        let mut engine = ShardedEngine::new(&sharded, 2);
        let got = engine.run(&query, &scores, &ShardOptions::default());
        let mut single = LonaEngine::new(&g, 2);
        let expect = single.run(&Algorithm::Base, &query, &scores);
        assert_eq!(got.result.entries, expect.entries);
        assert_eq!(
            got.coordinator.shards_queried,
            sharded
                .shards()
                .iter()
                .filter(|s| s.owned_count() > 0)
                .count()
        );
    }

    #[test]
    fn k_larger_than_graph_returns_everything() {
        let g = community_path(2, 8);
        let scores = dense_scores(16);
        let sharded = partition(&g, 4, PartitionStrategy::Hash, 2).unwrap();
        let mut engine = ShardedEngine::new(&sharded, 2);
        let got = engine.run(
            &TopKQuery::new(50, Aggregate::Sum),
            &scores,
            &ShardOptions::default(),
        );
        assert_eq!(got.result.entries.len(), 16);
    }

    #[test]
    fn batch_reuses_warm_state() {
        let g = community_path(3, 12);
        let n = g.num_nodes();
        let scores = dense_scores(n);
        let sharded = partition(&g, 3, PartitionStrategy::Contiguous, 2).unwrap();
        let mut engine = ShardedEngine::new(&sharded, 2);
        let query = TopKQuery::new(4, Aggregate::Sum);
        let batch = [
            BatchQuery::new(query, &scores).force(Algorithm::forward()),
            BatchQuery::new(query, &scores).force(Algorithm::forward()),
        ];
        let out = engine.run_batch(&batch, &ShardOptions::default());
        assert_eq!(out.results.len(), 2);
        assert_eq!(
            out.results[0].result.entries, out.results[1].result.entries,
            "same query, same answer"
        );
        // Second query must charge no index build: states stayed warm.
        assert_eq!(
            out.results[1].result.stats.index_build,
            Duration::ZERO,
            "warm state rebuilt an index"
        );
    }

    #[test]
    fn include_self_false_agrees() {
        let g = community_path(3, 10);
        let scores = mixture_scores(30);
        let query = TopKQuery::new(5, Aggregate::Avg).include_self(false);
        let mut single = LonaEngine::new(&g, 2);
        let expect = single.run(&Algorithm::Base, &query, &scores);
        let sharded = partition(&g, 3, PartitionStrategy::Contiguous, 2).unwrap();
        let mut engine = ShardedEngine::new(&sharded, 2);
        let got = engine.run(&query, &scores, &ShardOptions::default());
        assert!(got.result.same_values(&expect, 1e-9));
    }

    #[test]
    #[should_panic(expected = "halo depth")]
    fn hops_beyond_halo_rejected() {
        let g = community_path(2, 8);
        let sharded = partition(&g, 2, PartitionStrategy::Contiguous, 1).unwrap();
        let _ = ShardedEngine::new(&sharded, 2);
    }

    #[test]
    #[should_panic(expected = "score vector covers")]
    fn score_length_mismatch_rejected() {
        let g = community_path(2, 8);
        let sharded = partition(&g, 2, PartitionStrategy::Contiguous, 2).unwrap();
        let mut engine = ShardedEngine::new(&sharded, 2);
        let _ = engine.run(
            &TopKQuery::new(1, Aggregate::Sum),
            &ScoreVec::zeros(3),
            &ShardOptions::default(),
        );
    }
}
