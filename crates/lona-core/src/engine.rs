//! The query engine: index lifecycle + algorithm dispatch.

use std::time::{Duration, Instant};

use lona_graph::{CsrView, GraphStore};
use lona_relevance::ScoreVec;

use crate::aggregate::Aggregate;
use crate::algo::{self, context::Ctx, Algorithm};
use crate::batch::{self, BatchOptions, BatchQuery, BatchResult};
use crate::delta::DeferredDiff;
use crate::index::{DiffIndex, SizeIndex};
use crate::plan::{plan_query, Plan, PlannerConfig};
use crate::result::QueryResult;

/// Which indexes an `(algorithm, query, scores)` combination needs
/// before it can run. Shared between [`LonaEngine::run`] (which
/// builds them on the fly) and the batch layer (which builds the
/// union for a whole batch up front, so the cost is charged once).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct IndexNeeds {
    /// The size index `|N_h(v)|`.
    pub size: bool,
    /// The differential index (implies the size index).
    pub diff: bool,
}

impl IndexNeeds {
    /// Compute the needs for one dispatch.
    pub(crate) fn of(algorithm: &Algorithm, query: &TopKQuery, scores: &ScoreVec) -> Self {
        match algorithm {
            Algorithm::Base => IndexNeeds::default(),
            Algorithm::LonaForward(_) => IndexNeeds {
                size: true,
                diff: true,
            },
            Algorithm::BackwardNaive => IndexNeeds {
                size: query.aggregate.needs_size(),
                diff: false,
            },
            Algorithm::LonaBackward(opts) => {
                let gamma = opts.gamma.resolve(scores);
                IndexNeeds {
                    size: gamma > 0.0 || query.aggregate.needs_size(),
                    diff: false,
                }
            }
        }
    }

    /// Union with another need set.
    pub(crate) fn merge(&mut self, other: IndexNeeds) {
        self.size |= other.size;
        self.diff |= other.diff;
    }
}

/// A top-k neighborhood aggregation query (Definition 3): find the `k`
/// nodes whose h-hop neighborhoods yield the highest aggregate score.
/// The hop radius lives on the engine (indexes are per-radius); the
/// query carries everything else.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TopKQuery {
    /// Number of results (`k ≥ 1`).
    pub k: usize,
    /// The aggregate `F`.
    pub aggregate: Aggregate,
    /// Whether `F(u)` includes `f(u)` itself (default `true`; both of
    /// the paper's bound equations add the self term — DESIGN.md §1).
    pub include_self: bool,
}

impl TopKQuery {
    /// A query with the default self-inclusive semantics.
    pub fn new(k: usize, aggregate: Aggregate) -> Self {
        assert!(k >= 1, "k must be at least 1");
        TopKQuery {
            k,
            aggregate,
            include_self: true,
        }
    }

    /// Override self inclusion.
    pub fn include_self(mut self, yes: bool) -> Self {
        self.include_self = yes;
        self
    }
}

/// The reusable index state of an engine, decoupled from the graph
/// borrow.
///
/// [`LonaEngine`] owns one of these; the sharded engine
/// ([`crate::shard::ShardedEngine`]) owns one **per shard** and
/// assembles transient engines around them with
/// [`LonaEngine::from_state`] / [`LonaEngine::into_state`]. Keeping
/// the state separate from the `&'g CsrGraph` borrow is what lets one
/// coordinator hold N warm index sets without N self-referential
/// engine structs.
///
/// The state also carries the read-only dispatch: given a graph it
/// was prepared against, it can execute any algorithm whose index
/// needs are satisfied — this is the `&self` entry point every
/// parallel scatter path uses.
#[derive(Debug, Default)]
pub struct EngineState {
    size_index: Option<SizeIndex>,
    diff_index: Option<DiffIndex>,
    /// A differential-index repair deferred across graph deltas
    /// ([`crate::delta`]); while it is pending, `diff_index` is
    /// `None`.
    pending_diff: Option<DeferredDiff>,
    /// How many index *builds* this state has actually performed
    /// (cached reuse and [`EngineState::install_size_index`]-style
    /// installs do not count). Deterministic — unlike build wall time
    /// on a 1-core container — so tests and CI can gate "the compiled
    /// path built nothing" exactly.
    builds: u32,
}

impl EngineState {
    /// Fresh state with no indexes built.
    pub fn new() -> Self {
        EngineState::default()
    }

    /// Number of index builds this state has performed (see the field
    /// doc: installs and cache hits are free).
    pub fn index_builds(&self) -> u32 {
        self.builds
    }

    /// Assemble a state around pre-built indexes — e.g. views mapped
    /// from a compiled file. Counts zero builds: the whole point of
    /// the compiled path is that [`EngineState::index_builds`] stays 0.
    pub fn from_indexes(size: Option<SizeIndex>, diff: Option<DiffIndex>) -> Self {
        EngineState {
            size_index: size,
            diff_index: diff,
            pending_diff: None,
            builds: 0,
        }
    }

    /// The state across a graph delta: `size` is the size index
    /// already repaired onto the new graph, and the differential
    /// index's repair is deferred — a new pending repair from
    /// `old_offsets` (the previous graph's row offsets), or `dirty`
    /// folded into the one already pending. Counts zero builds.
    pub(crate) fn after_delta(
        self,
        size: SizeIndex,
        old_offsets: &[u32],
        dirty: Vec<bool>,
    ) -> EngineState {
        let pending_diff = match (self.diff_index, self.pending_diff) {
            (Some(index), _) => Some(DeferredDiff::new(index, old_offsets, dirty)),
            (None, Some(mut pending)) => {
                pending.extend(&dirty);
                Some(pending)
            }
            (None, None) => None,
        };
        EngineState {
            size_index: Some(size),
            diff_index: None,
            pending_diff,
            builds: 0,
        }
    }

    /// Whether a differential-index repair is pending.
    pub(crate) fn diff_repair_pending(&self) -> bool {
        self.pending_diff.is_some()
    }

    /// Build (or reuse) the size index for `(g, hops)`; returns the
    /// build time (zero when cached).
    ///
    /// # Panics
    /// Panics if a cached index does not match `(g, hops)` — reusing
    /// state across graphs or radii would silently corrupt results.
    pub fn prepare_size_index(&mut self, g: CsrView<'_>, hops: u32) -> Duration {
        if let Some(idx) = &self.size_index {
            assert_eq!(idx.hops(), hops, "cached size index hop radius mismatch");
            assert_eq!(
                idx.len(),
                g.num_nodes(),
                "cached size index node count mismatch"
            );
            return Duration::ZERO;
        }
        let t = Instant::now();
        self.size_index = Some(SizeIndex::build(g, hops));
        self.builds += 1;
        t.elapsed()
    }

    /// Build (or reuse) the differential index (building the size
    /// index first if needed); returns the total build time. A repair
    /// deferred across graph deltas is finished here, on `g`, the
    /// current graph: that is an install, not a build, so it charges
    /// zero time and no build.
    ///
    /// # Panics
    /// Panics if a cached index does not match `(g, hops)`.
    pub fn prepare_diff_index(&mut self, g: CsrView<'_>, hops: u32) -> Duration {
        if let Some(idx) = &self.diff_index {
            assert_eq!(idx.hops(), hops, "cached diff index hop radius mismatch");
            assert_eq!(
                idx.len(),
                g.num_adjacency_entries(),
                "cached diff index entry count mismatch"
            );
            return Duration::ZERO;
        }
        if let Some(pending) = self.pending_diff.take() {
            let sizes = self
                .size_index
                .as_ref()
                .expect("a deferred repair keeps its size index");
            assert_eq!(sizes.hops(), hops, "cached size index hop radius mismatch");
            self.diff_index = Some(pending.finish(g, sizes));
            return Duration::ZERO;
        }
        let mut took = self.prepare_size_index(g, hops);
        let t = Instant::now();
        self.diff_index = Some(DiffIndex::build(g, hops, self.size_index.as_ref().unwrap()));
        self.builds += 1;
        took += t.elapsed();
        took
    }

    /// Build whatever `needs` asks for; returns the charged time.
    pub(crate) fn prepare_needs(
        &mut self,
        g: CsrView<'_>,
        hops: u32,
        needs: IndexNeeds,
    ) -> Duration {
        let mut took = Duration::ZERO;
        if needs.diff {
            took += self.prepare_diff_index(g, hops);
        } else if needs.size {
            took += self.prepare_size_index(g, hops);
        }
        took
    }

    /// The size index, if prepared.
    pub fn size_index(&self) -> Option<&SizeIndex> {
        self.size_index.as_ref()
    }

    /// The differential index, if prepared; `None` while a repair of
    /// it is pending (see [`EngineState::prepare_diff_index`]).
    pub fn diff_index(&self) -> Option<&DiffIndex> {
        self.diff_index.as_ref()
    }

    /// Read-only dispatch against prepared state: build the context,
    /// run on `threads` workers (0 = one per core; BackwardNaive
    /// always runs on the calling thread), stamp the runtime.
    /// `index_build` is left at zero for the caller to fill.
    /// `candidates`, when given, restricts the top-k to masked nodes
    /// (see [`crate::shard`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn dispatch(
        &self,
        g: CsrView<'_>,
        hops: u32,
        candidates: Option<&[bool]>,
        algorithm: &Algorithm,
        threads: usize,
        query: &TopKQuery,
        scores: &ScoreVec,
    ) -> QueryResult {
        let ctx = Ctx {
            g,
            hops,
            scores: scores.as_slice(),
            score_vec: scores,
            query,
            sizes: self.size_index.as_ref(),
            diffs: self.diff_index.as_ref(),
            candidates,
        };

        let t = Instant::now();
        let mut result = match algorithm {
            Algorithm::Base => algo::base_forward::run(&ctx, threads),
            Algorithm::LonaForward(opts) => algo::lona_forward::run(&ctx, opts, threads),
            Algorithm::BackwardNaive => algo::backward_naive::run(&ctx),
            Algorithm::LonaBackward(opts) => algo::lona_backward::run(&ctx, opts, threads),
        };
        result.stats.runtime = t.elapsed();
        result.stats.index_build = Duration::ZERO;
        result
    }
}

/// Execution engine for one `(graph, hop radius)` pair.
///
/// The engine owns the lazily-built indexes (its [`EngineState`]) so
/// their cost is paid once and amortized across queries, mirroring
/// the paper's setting where the differential index "needs to be
/// pre-computed and stored".
/// Index builds triggered inside [`LonaEngine::run`] are charged to
/// that run's `stats.index_build`; call the `prepare_*` methods first
/// to study query cost in isolation (the benches do).
///
/// ```
/// use lona_core::{Algorithm, Aggregate, LonaEngine, TopKQuery};
/// use lona_gen::generators::erdos_renyi_gnm;
/// use lona_relevance::binary_blacking;
///
/// let g = erdos_renyi_gnm(500, 1500, 7).unwrap();
/// let scores = binary_blacking(g.num_nodes(), 0.05, 7);
/// let mut engine = LonaEngine::new(&g, 2);
///
/// let query = TopKQuery::new(10, Aggregate::Sum);
/// let base = engine.run(&Algorithm::Base, &query, &scores);
/// let fwd = engine.run(&Algorithm::forward(), &query, &scores);
/// let bwd = engine.run(&Algorithm::backward(), &query, &scores);
/// assert!(base.same_values(&fwd, 1e-9));
/// assert!(base.same_values(&bwd, 1e-9));
/// ```
pub struct LonaEngine<'g> {
    g: CsrView<'g>,
    hops: u32,
    state: EngineState,
    /// Top-k candidate mask (`None` = every node); see
    /// [`LonaEngine::with_candidates`].
    candidates: Option<&'g [bool]>,
}

impl<'g> LonaEngine<'g> {
    /// Create an engine for `g` at hop radius `hops` (the paper
    /// evaluates `hops = 2`). `g` may be any [`GraphStore`] backend —
    /// the in-RAM [`lona_graph::CsrGraph`] or the memory-mapped
    /// [`lona_graph::CsrGraphMmap`]; the engine reads through the
    /// same [`CsrView`] either way.
    ///
    /// # Panics
    /// Panics if `hops == 0`.
    pub fn new<G: GraphStore + ?Sized>(g: &'g G, hops: u32) -> Self {
        Self::from_state(g, hops, EngineState::new())
    }

    /// Assemble an engine around existing (possibly warm) index
    /// state. The sharded coordinator uses this to run one shard's
    /// query without rebuilding that shard's indexes; the compiled
    /// loader uses it to start with mapped indexes and zero builds.
    ///
    /// # Panics
    /// Panics if `hops == 0` or if `state` holds indexes that do not
    /// match `(g, hops)`.
    pub fn from_state<G: GraphStore + ?Sized>(g: &'g G, hops: u32, state: EngineState) -> Self {
        let g = g.csr();
        assert!(hops >= 1, "hop radius must be at least 1");
        if let Some(idx) = state.size_index() {
            assert_eq!(idx.hops(), hops, "size index hop radius mismatch");
            assert_eq!(idx.len(), g.num_nodes(), "size index node count mismatch");
        }
        if let Some(idx) = state.diff_index() {
            assert_eq!(idx.hops(), hops, "diff index hop radius mismatch");
            assert_eq!(
                idx.len(),
                g.num_adjacency_entries(),
                "diff index entry count mismatch"
            );
        }
        LonaEngine {
            g,
            hops,
            state,
            candidates: None,
        }
    }

    /// Restrict the top-k to the masked nodes. Every node still
    /// contributes to its neighbors' aggregates and may distribute
    /// its score; only *eligibility for the result* is masked. The
    /// sharded engine passes each shard's ownership mask here so halo
    /// replicas (whose own neighborhoods are truncated) are never
    /// reported.
    ///
    /// # Panics
    /// Panics if the mask length differs from the node count.
    pub fn with_candidates(mut self, mask: &'g [bool]) -> Self {
        assert_eq!(
            mask.len(),
            self.g.num_nodes(),
            "candidate mask covers {} nodes but the graph has {}",
            mask.len(),
            self.g.num_nodes()
        );
        self.candidates = Some(mask);
        self
    }

    /// Take the index state back out (the inverse of
    /// [`LonaEngine::from_state`]).
    pub fn into_state(self) -> EngineState {
        self.state
    }

    /// The engine's index state.
    pub fn state(&self) -> &EngineState {
        &self.state
    }

    /// The underlying graph, as the backend-agnostic slice view.
    pub fn graph(&self) -> CsrView<'g> {
        self.g
    }

    /// The hop radius.
    pub fn hops(&self) -> u32 {
        self.hops
    }

    /// The candidate mask, if any.
    pub fn candidates(&self) -> Option<&[bool]> {
        self.candidates
    }

    /// Build (or reuse) the size index; returns the build time (zero
    /// when cached).
    pub fn prepare_size_index(&mut self) -> Duration {
        self.state.prepare_size_index(self.g, self.hops)
    }

    /// Build (or reuse) the differential index (building the size
    /// index first if needed); returns the total build time.
    pub fn prepare_diff_index(&mut self) -> Duration {
        self.state.prepare_diff_index(self.g, self.hops)
    }

    /// Access the size index, if prepared.
    pub fn size_index(&self) -> Option<&SizeIndex> {
        self.state.size_index()
    }

    /// Access the differential index, if prepared.
    pub fn diff_index(&self) -> Option<&DiffIndex> {
        self.state.diff_index()
    }

    /// Install a previously serialized size index.
    ///
    /// # Panics
    /// Panics on hop-radius or node-count mismatch.
    pub fn set_size_index(&mut self, idx: SizeIndex) {
        assert_eq!(idx.hops(), self.hops, "size index hop radius mismatch");
        assert_eq!(
            idx.len(),
            self.g.num_nodes(),
            "size index node count mismatch"
        );
        self.state.size_index = Some(idx);
    }

    /// Install a previously serialized differential index (clearing
    /// a pending repair of the old one).
    ///
    /// # Panics
    /// Panics on hop-radius or entry-count mismatch.
    pub fn set_diff_index(&mut self, idx: DiffIndex) {
        assert_eq!(idx.hops(), self.hops, "diff index hop radius mismatch");
        assert_eq!(
            idx.len(),
            self.g.num_adjacency_entries(),
            "diff index entry count mismatch"
        );
        self.state.diff_index = Some(idx);
        self.state.pending_diff = None;
    }

    /// Run one query with the chosen algorithm on one worker.
    ///
    /// Missing indexes the algorithm needs are built on the fly and
    /// charged to `stats.index_build`.
    ///
    /// # Panics
    /// Panics if `scores.len() != graph.num_nodes()`.
    pub fn run(
        &mut self,
        algorithm: &Algorithm,
        query: &TopKQuery,
        scores: &ScoreVec,
    ) -> QueryResult {
        self.run_threads(algorithm, 1, query, scores)
    }

    /// [`LonaEngine::run`] on `threads` workers (0 = one per core).
    /// Base and LONA-Forward return the same entries at every worker
    /// count; LONA-Backward agrees on values to floating-point
    /// rounding (DESIGN.md §7); BackwardNaive always runs on the
    /// calling thread.
    ///
    /// # Panics
    /// Panics if `scores.len() != graph.num_nodes()`.
    pub fn run_threads(
        &mut self,
        algorithm: &Algorithm,
        threads: usize,
        query: &TopKQuery,
        scores: &ScoreVec,
    ) -> QueryResult {
        assert_eq!(
            scores.len(),
            self.g.num_nodes(),
            "score vector covers {} nodes but the graph has {}",
            scores.len(),
            self.g.num_nodes()
        );

        // Prepare whatever this (algorithm, query) combination needs.
        let index_build = self.prepare_needs(IndexNeeds::of(algorithm, query, scores));
        let mut result = self.dispatch(algorithm, threads, query, scores);
        result.stats.index_build = index_build;
        result
    }

    /// Build whatever `needs` asks for; returns the charged time
    /// (zero when everything was already cached).
    pub(crate) fn prepare_needs(&mut self, needs: IndexNeeds) -> Duration {
        self.state.prepare_needs(self.g, self.hops, needs)
    }

    /// Run one query on one worker against the *current* index
    /// state, without building anything — the read-only dispatch the
    /// batch layer issues from many worker threads at once.
    ///
    /// # Panics
    /// Panics if `scores.len() != graph.num_nodes()` or if the
    /// algorithm needs an index that has not been prepared (call
    /// [`LonaEngine::run`] or the `prepare_*` methods first).
    pub fn run_prepared(
        &self,
        algorithm: &Algorithm,
        query: &TopKQuery,
        scores: &ScoreVec,
    ) -> QueryResult {
        self.run_prepared_threads(algorithm, 1, query, scores)
    }

    /// [`LonaEngine::run_prepared`] on `threads` workers.
    pub(crate) fn run_prepared_threads(
        &self,
        algorithm: &Algorithm,
        threads: usize,
        query: &TopKQuery,
        scores: &ScoreVec,
    ) -> QueryResult {
        assert_eq!(
            scores.len(),
            self.g.num_nodes(),
            "score vector covers {} nodes but the graph has {}",
            scores.len(),
            self.g.num_nodes()
        );
        let needs = IndexNeeds::of(algorithm, query, scores);
        assert!(
            !needs.size || self.state.size_index.is_some(),
            "run_prepared: {algorithm} needs the size index but it is not built"
        );
        assert!(
            !needs.diff || self.state.diff_index.is_some(),
            "run_prepared: {algorithm} needs the differential index but it is not built"
        );
        self.dispatch(algorithm, threads, query, scores)
    }

    /// Plan one query with the cost-based planner (DESIGN.md §8) and
    /// run the chosen algorithm, building any index the plan needs.
    /// Returns the plan alongside the result so callers can report
    /// *why* an algorithm ran.
    pub fn run_planned(
        &mut self,
        query: &TopKQuery,
        scores: &ScoreVec,
        cfg: &PlannerConfig,
    ) -> (Plan, QueryResult) {
        let plan = plan_query(self, query, scores, cfg);
        let result = self.run_threads(&plan.algorithm, plan.threads, query, scores);
        (plan, result)
    }

    /// Run a whole batch of queries: plan each one, build the union
    /// of required indexes once, then execute with inter-query
    /// parallelism (many small queries) or intra-query parallelism
    /// (few large ones). See [`crate::batch`] for the policy.
    pub fn run_batch(&mut self, batch: &[BatchQuery<'_>], opts: &BatchOptions) -> BatchResult {
        batch::run(self, batch, opts)
    }

    /// Shared read-only dispatch, delegated to the state.
    fn dispatch(
        &self,
        algorithm: &Algorithm,
        threads: usize,
        query: &TopKQuery,
        scores: &ScoreVec,
    ) -> QueryResult {
        self.state.dispatch(
            self.g,
            self.hops,
            self.candidates,
            algorithm,
            threads,
            query,
            scores,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lona_graph::{CsrGraph, GraphBuilder};

    fn ring(n: u32) -> CsrGraph {
        GraphBuilder::undirected()
            .extend_edges((0..n).map(|i| (i, (i + 1) % n)))
            .build()
            .unwrap()
    }

    #[test]
    fn all_algorithms_agree_end_to_end() {
        let g = ring(40);
        let scores = ScoreVec::from_fn(40, |u| ((u.0 * 37) % 11) as f64 / 10.0);
        let mut engine = LonaEngine::new(&g, 2);
        for aggregate in [
            Aggregate::Sum,
            Aggregate::Avg,
            Aggregate::DistanceWeightedSum,
        ] {
            let query = TopKQuery::new(5, aggregate);
            let base = engine.run(&Algorithm::Base, &query, &scores);
            for alg in [
                Algorithm::forward(),
                Algorithm::BackwardNaive,
                Algorithm::backward(),
            ] {
                let got = engine.run(&alg, &query, &scores);
                assert!(
                    got.same_values(&base, 1e-9),
                    "{alg} {aggregate:?}: {:?} vs {:?}",
                    got.values(),
                    base.values()
                );
            }
        }
    }

    #[test]
    fn worker_counts_agree_end_to_end() {
        let g = ring(300);
        let scores = ScoreVec::from_fn(300, |u| ((u.0 * 53) % 17) as f64 / 16.0);
        let mut engine = LonaEngine::new(&g, 2);
        for aggregate in [Aggregate::Sum, Aggregate::Avg] {
            let query = TopKQuery::new(7, aggregate);
            for alg in [Algorithm::Base, Algorithm::forward(), Algorithm::backward()] {
                let one = engine.run(&alg, &query, &scores);
                let got = engine.run_threads(&alg, 3, &query, &scores);
                assert!(
                    got.same_values(&one, 1e-9),
                    "{alg} {aggregate:?}: {:?} vs {:?}",
                    got.values(),
                    one.values()
                );
            }
        }
    }

    #[test]
    fn index_build_charged_once() {
        let g = ring(30);
        let scores = ScoreVec::from_fn(30, |u| (u.0 % 2) as f64);
        let mut engine = LonaEngine::new(&g, 2);
        let query = TopKQuery::new(3, Aggregate::Sum);
        let first = engine.run(&Algorithm::forward(), &query, &scores);
        let second = engine.run(&Algorithm::forward(), &query, &scores);
        // Building tiny indexes can take < 1 timer tick, so assert via
        // the cached path instead: the second run must charge nothing.
        assert_eq!(second.stats.index_build, Duration::ZERO);
        let _ = first;
    }

    #[test]
    fn prepare_methods_are_idempotent() {
        let g = ring(20);
        let mut engine = LonaEngine::new(&g, 2);
        let _ = engine.prepare_diff_index();
        assert_eq!(engine.prepare_size_index(), Duration::ZERO);
        assert_eq!(engine.prepare_diff_index(), Duration::ZERO);
        assert!(engine.size_index().is_some());
        assert!(engine.diff_index().is_some());
        // Two real builds (size + diff); the cached retries were free.
        assert_eq!(engine.state().index_builds(), 2);
    }

    #[test]
    fn installed_indexes_do_not_count_as_builds() {
        let g = ring(12);
        let mut a = LonaEngine::new(&g, 2);
        a.prepare_diff_index();
        let size = a.size_index().unwrap().clone();
        let diff = a.diff_index().unwrap().clone();

        let mut b = LonaEngine::new(&g, 2);
        b.set_size_index(size);
        b.set_diff_index(diff);
        assert_eq!(b.prepare_diff_index(), Duration::ZERO);
        assert_eq!(b.state().index_builds(), 0);
    }

    #[test]
    fn engine_runs_identically_on_a_plain_view() {
        let g = ring(40);
        let scores = ScoreVec::from_fn(40, |u| ((u.0 * 37) % 11) as f64 / 10.0);
        let query = TopKQuery::new(5, Aggregate::Sum);
        let view = g.view();
        let mut owned = LonaEngine::new(&g, 2);
        let mut viewed = LonaEngine::new(&view, 2);
        let a = owned.run(&Algorithm::backward(), &query, &scores);
        let b = viewed.run(&Algorithm::backward(), &query, &scores);
        assert_eq!(a.entries, b.entries);
    }

    #[test]
    fn k_larger_than_n_returns_all() {
        let g = ring(5);
        let scores = ScoreVec::from_fn(5, |_| 1.0);
        let mut engine = LonaEngine::new(&g, 1);
        let res = engine.run(
            &Algorithm::Base,
            &TopKQuery::new(50, Aggregate::Sum),
            &scores,
        );
        assert_eq!(res.entries.len(), 5);
    }

    #[test]
    #[should_panic(expected = "score vector covers")]
    fn score_length_mismatch_rejected() {
        let g = ring(5);
        let scores = ScoreVec::zeros(4);
        let mut engine = LonaEngine::new(&g, 1);
        let _ = engine.run(
            &Algorithm::Base,
            &TopKQuery::new(1, Aggregate::Sum),
            &scores,
        );
    }

    #[test]
    #[should_panic(expected = "hop radius must be at least 1")]
    fn zero_hops_rejected() {
        let g = ring(5);
        let _ = LonaEngine::new(&g, 0);
    }
}
