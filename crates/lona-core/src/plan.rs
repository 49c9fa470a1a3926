//! Cost-based per-query planning.
//!
//! The paper's evaluation hands each query to a caller-chosen
//! algorithm; a serving system cannot afford that. Following the
//! middleware tradition of adaptive strategy selection (Fagin et al.'s
//! threshold algorithms choose access paths by cost; ADiT picks a
//! distributed top-k strategy per query), the planner here inspects
//! the query (`k`, aggregate), the engine (hop radius, which indexes
//! are already built), the graph (size, mean degree) and the score
//! vector (sparsity) and returns the [`Algorithm`] plus the worker
//! count to run it on — with an explicit override escape hatch for
//! callers that know better.
//!
//! The cost model and the decision rules are documented in
//! DESIGN.md §8; every branch returns a [`PlanReason`] so batch
//! reports (and tests) can see *why* an algorithm was chosen.

use lona_relevance::ScoreVec;

use crate::algo::Algorithm;
use crate::engine::{LonaEngine, TopKQuery};
use crate::exec::resolve_threads;

/// Score vectors with at most this fraction of non-zero entries are
/// "sparse": backward distribution touches only the non-zero nodes,
/// so its cost scales with `nnz` while the forward family scales with
/// `n` (DESIGN.md §8).
pub const SPARSE_FRACTION: f64 = 0.125;

/// Queries asking for at most this fraction of the graph are
/// "selective": the top-k threshold rises fast enough for the
/// differential bounds to prune most evaluations. Larger `k` leaves
/// the forward bounds toothless and Base wins on constant factors.
pub const SELECTIVE_K_FRACTION: f64 = 0.125;

/// Estimated edge accesses below which one query is not worth
/// splitting across threads: worker spawn + shared-threshold traffic
/// cost more than they save (the batch layer still runs *different*
/// queries concurrently below this floor).
pub const INTRA_PARALLEL_FLOOR: f64 = 150_000.0;

/// Why the planner chose what it chose.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PlanReason {
    /// The caller forced an algorithm via [`PlannerConfig::force`].
    Forced,
    /// Sparse scores: backward distribution visits only non-zero
    /// nodes (the paper's motivating regime).
    SparseBackward,
    /// Selective `k` with the differential index available (built or
    /// buildable): forward pruning pays.
    SmallKForward,
    /// The preferred algorithm needs an index that is absent and the
    /// config forbids building one; fell back to an index-free plan.
    IndexAbsentFallback,
    /// Nothing prunes (dense scores, large `k`): exhaustive Base has
    /// the best constant factors.
    ExhaustiveBase,
}

impl PlanReason {
    /// Short label for reports.
    pub fn name(self) -> &'static str {
        match self {
            PlanReason::Forced => "forced",
            PlanReason::SparseBackward => "sparse-backward",
            PlanReason::SmallKForward => "small-k-forward",
            PlanReason::IndexAbsentFallback => "index-absent-fallback",
            PlanReason::ExhaustiveBase => "exhaustive-base",
        }
    }
}

/// Planner knobs. The default plans a standalone one-worker query
/// and may build any index it wants.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct PlannerConfig {
    /// Worker budget for *this* query (0 = one per core). The planner
    /// only spends it on Base and LONA-Forward, and only when the
    /// query is big enough to amortize the split
    /// ([`INTRA_PARALLEL_FLOOR`]).
    pub threads: usize,
    /// May the plan require indexes that are not built yet? Batch
    /// execution leaves this on and instead builds the *union* of
    /// every plan's needs once, up front (`batch::run`); turn it off
    /// to plan strictly against the engine's current index state
    /// (e.g. a latency-sensitive caller that cannot absorb a build).
    pub allow_index_build: bool,
    /// Escape hatch: run exactly this algorithm, skipping every rule.
    pub force: Option<Algorithm>,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            threads: 1,
            allow_index_build: true,
            force: None,
        }
    }
}

impl PlannerConfig {
    /// A config with a worker budget (other knobs default).
    pub fn with_threads(threads: usize) -> Self {
        PlannerConfig {
            threads,
            ..Default::default()
        }
    }

    /// Set the override escape hatch.
    pub fn force(mut self, algorithm: Algorithm) -> Self {
        self.force = Some(algorithm);
        self
    }
}

/// The planner's verdict for one query.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Plan {
    /// What to run.
    pub algorithm: Algorithm,
    /// How many workers to run it on (≥ 1).
    pub threads: usize,
    /// Which rule fired.
    pub reason: PlanReason,
    /// Estimated edge accesses of the chosen plan (the cost model of
    /// DESIGN.md §8; a scheduling weight, not a prediction in
    /// seconds).
    pub cost: f64,
}

/// Per-node cost of one exact h-hop evaluation, in edge accesses,
/// capped by the whole adjacency (an h-hop ball never scans an edge
/// endpoint twice per visit level beyond the full graph).
fn per_node_scan_cost(n: usize, adjacency: usize, hops: u32) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let mean_deg = adjacency as f64 / n as f64;
    // d · (d-1)^(h-1) frontier growth, clamped to the full adjacency.
    let mut cost = mean_deg;
    for _ in 1..hops {
        cost *= (mean_deg - 1.0).max(1.0);
    }
    cost.min(adjacency as f64).max(1.0)
}

/// Estimated edge accesses for `algorithm` on this engine/query/score
/// combination. Exposed for tests and for the batch scheduler, which
/// uses it to pick inter- vs. intra-query parallelism.
pub fn estimate_cost(
    engine: &LonaEngine<'_>,
    algorithm: &Algorithm,
    query: &TopKQuery,
    scores: &ScoreVec,
) -> f64 {
    estimate_with_nnz(engine, algorithm, query, scores.nonzero_count())
}

/// [`estimate_cost`] with the non-zero count precomputed, so
/// [`plan_query`] pays the O(n) score scan once per query instead of
/// once per consulted estimate.
fn estimate_with_nnz(
    engine: &LonaEngine<'_>,
    algorithm: &Algorithm,
    query: &TopKQuery,
    nnz: usize,
) -> f64 {
    let g = engine.graph();
    let n = g.num_nodes();
    let per_node = per_node_scan_cost(n, g.num_adjacency_entries(), engine.hops());
    let nnz = nnz as f64;
    match algorithm {
        Algorithm::Base => n as f64 * per_node,
        Algorithm::LonaForward(_) => {
            // Pruning leaves roughly the top-k band plus a margin of
            // near-misses to evaluate exactly.
            let survival = (query.k as f64 / n.max(1) as f64).clamp(0.05, 1.0);
            n as f64 * per_node * survival + n as f64
        }
        Algorithm::BackwardNaive => nnz * per_node + n as f64,
        Algorithm::LonaBackward(_) => nnz * per_node + query.k as f64 * per_node + n as f64,
    }
}

/// The worker count for a planner-chosen algorithm: the whole budget
/// for Base and LONA-Forward when the estimated cost amortizes the
/// split, else one. Base and LONA-Forward return the same entries at
/// every worker count; LONA-Backward's worker-local sums agree only to
/// floating-point rounding, and BackwardNaive has no worker loop, so
/// both always get one worker and every plan stays bit-reproducible.
fn plan_threads(algorithm: &Algorithm, budget: usize, cost: f64) -> usize {
    match algorithm {
        Algorithm::Base | Algorithm::LonaForward(_) if cost >= INTRA_PARALLEL_FLOOR => budget,
        _ => 1,
    }
}

/// Plan one query against the engine's current state.
///
/// Decision rules, in order (each maps to a [`PlanReason`]):
///
/// 1. **Override** — `cfg.force` wins unconditionally.
/// 2. **Sparse scores** → LONA-Backward: distribution cost follows
///    `nnz`, not `n`. Skipped when the aggregate needs the size index,
///    it is absent, and `cfg` forbids building it.
/// 3. **Selective `k`** → LONA-Forward when the differential index is
///    built or buildable; otherwise the **index-absent fallback**
///    picks the cheaper of Base and BackwardNaive among the plans
///    that need nothing the engine doesn't already have.
/// 4. **Everything else** → Base: with dense scores and a loose
///    threshold, bounds prune too little to beat the naive scan.
pub fn plan_query(
    engine: &LonaEngine<'_>,
    query: &TopKQuery,
    scores: &ScoreVec,
    cfg: &PlannerConfig,
) -> Plan {
    let g = engine.graph();
    let n = g.num_nodes();
    let threads = resolve_threads(cfg.threads, n.max(1));
    let nnz = scores.nonzero_count();

    // A forced plan runs on one worker: the caller picked the
    // algorithm, not a worker split.
    if let Some(forced) = cfg.force {
        return Plan {
            algorithm: forced,
            threads: 1,
            reason: PlanReason::Forced,
            cost: estimate_with_nnz(engine, &forced, query, nnz),
        };
    }
    let sparse = (nnz as f64) <= SPARSE_FRACTION * n as f64;
    let selective = (query.k as f64) <= SELECTIVE_K_FRACTION * n as f64;
    let size_ok = engine.size_index().is_some() || cfg.allow_index_build;
    let diff_ok = engine.diff_index().is_some() || cfg.allow_index_build;

    // Sparse regime: backward distribution. With nnz ≤ n/8 the Auto γ
    // policy resolves to 0 (distribute everything — exact bounds), so
    // the only index backward can need here is the size index for
    // size-normalizing aggregates.
    if sparse && nnz > 0 && (!query.aggregate.needs_size() || size_ok) {
        let algorithm = Algorithm::backward();
        let cost = estimate_with_nnz(engine, &algorithm, query, nnz);
        return Plan {
            algorithm,
            threads: plan_threads(&algorithm, threads, cost),
            reason: PlanReason::SparseBackward,
            cost,
        };
    }

    // Selective k: forward pruning, if the differential index is
    // available or we are allowed to build it.
    if selective {
        if diff_ok && size_ok {
            let algorithm = Algorithm::forward();
            let cost = estimate_with_nnz(engine, &algorithm, query, nnz);
            return Plan {
                algorithm,
                threads: plan_threads(&algorithm, threads, cost),
                reason: PlanReason::SmallKForward,
                cost,
            };
        }
        // Index-absent fallback: stay index-free. BackwardNaive beats
        // Base whenever fewer than all nodes score non-zero, but for
        // size-normalizing aggregates it needs the size index too.
        let backward_ok = nnz < n && (!query.aggregate.needs_size() || size_ok);
        let algorithm = if backward_ok {
            Algorithm::BackwardNaive
        } else {
            Algorithm::Base
        };
        let cost = estimate_with_nnz(engine, &algorithm, query, nnz);
        return Plan {
            algorithm,
            threads: plan_threads(&algorithm, threads, cost),
            reason: PlanReason::IndexAbsentFallback,
            cost,
        };
    }

    // Dense scores, loose threshold: nothing prunes; run Base.
    let cost = estimate_with_nnz(engine, &Algorithm::Base, query, nnz);
    Plan {
        algorithm: Algorithm::Base,
        threads: plan_threads(&Algorithm::Base, threads, cost),
        reason: PlanReason::ExhaustiveBase,
        cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::Aggregate;
    use lona_graph::{CsrGraph, GraphBuilder};

    fn ring(n: u32) -> CsrGraph {
        GraphBuilder::undirected()
            .extend_edges((0..n).map(|i| (i, (i + 1) % n)))
            .build()
            .unwrap()
    }

    fn sparse_scores(n: usize) -> ScoreVec {
        ScoreVec::from_fn(n, |u| if u.0 % 16 == 0 { 1.0 } else { 0.0 })
    }

    fn dense_scores(n: usize) -> ScoreVec {
        ScoreVec::from_fn(n, |u| (u.0 % 7) as f64 / 7.0 + 0.1)
    }

    #[test]
    fn override_wins_over_every_rule() {
        let g = ring(64);
        let engine = LonaEngine::new(&g, 2);
        let query = TopKQuery::new(2, Aggregate::Sum);
        let cfg = PlannerConfig::default().force(Algorithm::BackwardNaive);
        let plan = plan_query(&engine, &query, &sparse_scores(64), &cfg);
        assert_eq!(plan.algorithm, Algorithm::BackwardNaive);
        assert_eq!(plan.reason, PlanReason::Forced);
    }

    #[test]
    fn sparse_scores_pick_backward() {
        let g = ring(64);
        let engine = LonaEngine::new(&g, 2);
        let query = TopKQuery::new(2, Aggregate::Sum);
        let plan = plan_query(
            &engine,
            &query,
            &sparse_scores(64),
            &PlannerConfig::default(),
        );
        assert_eq!(plan.algorithm, Algorithm::backward());
        assert_eq!(plan.reason, PlanReason::SparseBackward);
    }

    #[test]
    fn small_k_dense_scores_pick_forward() {
        let g = ring(64);
        let engine = LonaEngine::new(&g, 2);
        let query = TopKQuery::new(2, Aggregate::Sum);
        let plan = plan_query(
            &engine,
            &query,
            &dense_scores(64),
            &PlannerConfig::default(),
        );
        assert_eq!(plan.algorithm, Algorithm::forward());
        assert_eq!(plan.reason, PlanReason::SmallKForward);
    }

    #[test]
    fn index_absent_fallback_stays_index_free() {
        let g = ring(64);
        let engine = LonaEngine::new(&g, 2);
        let query = TopKQuery::new(2, Aggregate::Sum);
        let cfg = PlannerConfig {
            allow_index_build: false,
            ..Default::default()
        };
        // Dense-but-not-full scores, small k, no index built: the
        // forward rule would need the diff index, so the fallback
        // fires and picks the index-free BackwardNaive.
        let mut scores = dense_scores(64);
        scores = ScoreVec::from_fn(64, |u| if u.0 == 0 { 0.0 } else { scores.get(u) });
        let plan = plan_query(&engine, &query, &scores, &cfg);
        assert_eq!(plan.reason, PlanReason::IndexAbsentFallback);
        assert_eq!(plan.algorithm, Algorithm::BackwardNaive);

        // With every node scoring non-zero, BackwardNaive degenerates
        // to full distribution and the fallback is Base.
        let plan = plan_query(&engine, &query, &dense_scores(64), &cfg);
        assert_eq!(plan.reason, PlanReason::IndexAbsentFallback);
        assert_eq!(plan.algorithm, Algorithm::Base);
    }

    #[test]
    fn index_present_unlocks_forward_without_builds() {
        let g = ring(64);
        let mut engine = LonaEngine::new(&g, 2);
        engine.prepare_diff_index();
        let cfg = PlannerConfig {
            allow_index_build: false,
            ..Default::default()
        };
        let query = TopKQuery::new(2, Aggregate::Sum);
        let plan = plan_query(&engine, &query, &dense_scores(64), &cfg);
        assert_eq!(plan.reason, PlanReason::SmallKForward);
        assert_eq!(plan.algorithm, Algorithm::forward());
    }

    #[test]
    fn large_k_dense_scores_pick_base() {
        let g = ring(64);
        let engine = LonaEngine::new(&g, 2);
        let query = TopKQuery::new(32, Aggregate::Sum);
        let plan = plan_query(
            &engine,
            &query,
            &dense_scores(64),
            &PlannerConfig::default(),
        );
        assert_eq!(plan.algorithm, Algorithm::Base);
        assert_eq!(plan.reason, PlanReason::ExhaustiveBase);
    }

    #[test]
    fn avg_without_size_index_cannot_go_backward() {
        let g = ring(64);
        let engine = LonaEngine::new(&g, 2);
        let query = TopKQuery::new(40, Aggregate::Avg);
        let cfg = PlannerConfig {
            allow_index_build: false,
            ..Default::default()
        };
        // Sparse scores but AVG needs the size index: the sparse rule
        // is skipped and large k sends it to Base.
        let plan = plan_query(&engine, &query, &sparse_scores(64), &cfg);
        assert_eq!(plan.algorithm, Algorithm::Base);
    }

    #[test]
    fn small_queries_never_split_threads() {
        let g = ring(64);
        let engine = LonaEngine::new(&g, 2);
        let query = TopKQuery::new(2, Aggregate::Sum);
        let plan = plan_query(
            &engine,
            &query,
            &sparse_scores(64),
            &PlannerConfig::with_threads(4),
        );
        assert_eq!(plan.threads, 1, "64-node query is below the floor");
        assert_eq!(plan.algorithm, Algorithm::backward());
    }

    #[test]
    fn big_queries_split_threads_deterministically() {
        // A graph big enough to clear INTRA_PARALLEL_FLOOR on the
        // forward estimate.
        let g = ring(200_000);
        let engine = LonaEngine::new(&g, 2);
        let query = TopKQuery::new(10, Aggregate::Sum);
        let cfg = PlannerConfig::with_threads(4);
        let plan = plan_query(&engine, &query, &dense_scores(200_000), &cfg);
        assert_eq!(plan.algorithm, Algorithm::forward());
        assert_eq!(plan.threads, 4);

        // Backward always runs on one worker...
        let plan = plan_query(&engine, &query, &sparse_scores(200_000), &cfg);
        assert_eq!(plan.algorithm, Algorithm::backward());
        assert_eq!(plan.threads, 1);
        // ...and so does a forced plan.
        let plan = plan_query(
            &engine,
            &query,
            &dense_scores(200_000),
            &cfg.force(Algorithm::Base),
        );
        assert_eq!(plan.threads, 1);
    }

    #[test]
    fn cost_estimates_order_sanely() {
        let g = ring(1000);
        let engine = LonaEngine::new(&g, 2);
        let query = TopKQuery::new(5, Aggregate::Sum);
        let scores = sparse_scores(1000);
        let base = estimate_cost(&engine, &Algorithm::Base, &query, &scores);
        let fwd = estimate_cost(&engine, &Algorithm::forward(), &query, &scores);
        let bwd = estimate_cost(&engine, &Algorithm::backward(), &query, &scores);
        assert!(fwd < base, "forward prunes: {fwd} < {base}");
        assert!(bwd < base, "sparse backward beats base: {bwd} < {base}");
    }

    #[test]
    fn reason_names_are_stable() {
        assert_eq!(PlanReason::Forced.name(), "forced");
        assert_eq!(PlanReason::SparseBackward.name(), "sparse-backward");
        assert_eq!(PlanReason::SmallKForward.name(), "small-k-forward");
        assert_eq!(
            PlanReason::IndexAbsentFallback.name(),
            "index-absent-fallback"
        );
        assert_eq!(PlanReason::ExhaustiveBase.name(), "exhaustive-base");
    }
}
