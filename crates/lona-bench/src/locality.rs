//! The cache-locality workload: the same queries on the natural
//! numbering and on degree-/BFS-reordered copies of the graph.
//!
//! Wall-clock per-edge costs go to `BENCH_locality.json` for the
//! trajectory; the CI gate ([`guard`]) is deterministic only — the
//! Base scan's work counters (`edges_traversed`, `nodes_evaluated`)
//! must be identical under every numbering, values must agree (1e-9
//! for SUM/AVG, bit-identical for MAX), the back-mapped top-k must
//! rank the same nodes, and a pre-`--order` compiled container must
//! still load and answer bit-identically. Timing is reported, never
//! gated on.
//!
//! Only the Base scan's counters are gated: a full scan touches every
//! adjacency entry exactly once per evaluation, so its counters are a
//! numbering-independent invariant. The pruned algorithms evaluate a
//! numbering-*dependent* node set (bound-order tie-breaks), so they
//! are value-gated only.

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use lona_core::locality::map_entries_to_original;
use lona_core::{
    compile_to_file, Aggregate, Algorithm, CompileSpec, CompiledGraph, LonaEngine, QueryResult,
    ReorderedEngine, TopKQuery,
};
use lona_gen::DatasetKind;
use lona_graph::NodeOrder;

use crate::report::format_duration;
use crate::workload::Workload;

/// Hop radius of every query (the paper's 2).
const HOPS: u32 = 2;
/// Result size of every query.
const K: usize = 10;

/// One node order's measured run.
#[derive(Clone, Debug)]
pub struct OrderRun {
    /// Order name (`natural` / `degree` / `bfs`).
    pub order: String,
    /// Adjacency entries touched by the Base SUM scan
    /// (numbering-invariant, CI-gated).
    pub base_edges: u64,
    /// Exact evaluations performed by the Base SUM scan
    /// (numbering-invariant, CI-gated).
    pub base_nodes: usize,
    /// Time spent computing + applying the permutation (zero for
    /// natural). Reported, never gated.
    pub reorder: Duration,
    /// Wall time of the Base SUM scan. Reported, never gated.
    pub base_scan: Duration,
    /// Whether SUM/AVG agreed with natural within 1e-9, MAX
    /// bit-identically, and the pruned forward run within 1e-9.
    pub values_match: bool,
    /// Whether the back-mapped Base SUM top-k ranked the same
    /// original node ids as the natural engine at every position
    /// where values are distinct beyond 1e-9 (tied positions may
    /// swap; see `ranks_agree`).
    pub ranks_match: bool,
}

impl OrderRun {
    /// Seconds per adjacency entry in the Base scan — the per-edge
    /// cost the reordering exists to shrink.
    pub fn ns_per_edge(&self) -> f64 {
        if self.base_edges == 0 {
            0.0
        } else {
            self.base_scan.as_secs_f64() * 1e9 / self.base_edges as f64
        }
    }
}

/// One measured locality comparison.
#[derive(Clone, Debug)]
pub struct LocalityData {
    /// Workload description line.
    pub workload: String,
    /// Hop radius of every query.
    pub hops: u32,
    /// Result size of every query.
    pub k: usize,
    /// The natural-order reference run.
    pub natural: OrderRun,
    /// The reordered runs (degree, bfs).
    pub reordered: Vec<OrderRun>,
    /// Whether a compiled container written *without* `--order` (the
    /// pre-Perm-section shape) loaded as natural, carried no
    /// permutation, and answered bit-identically to the in-memory
    /// engine.
    pub compiled_roundtrip: bool,
    /// Whether a `--order degree` container round-tripped: order and
    /// permutation recovered, Base counters identical, back-mapped
    /// values within 1e-9 of natural.
    pub ordered_container: bool,
}

/// The deterministic CI gate: identical Base work counters under
/// every numbering, matching values and ranks, and both container
/// shapes round-tripping. Never wall clock.
pub fn guard(data: &LocalityData) -> Result<(), String> {
    for run in &data.reordered {
        if run.base_edges != data.natural.base_edges {
            return Err(format!(
                "{} order touched {} adjacency entries in the Base scan; natural touched {}",
                run.order, run.base_edges, data.natural.base_edges
            ));
        }
        if run.base_nodes != data.natural.base_nodes {
            return Err(format!(
                "{} order evaluated {} nodes in the Base scan; natural evaluated {}",
                run.order, run.base_nodes, data.natural.base_nodes
            ));
        }
        if !run.values_match {
            return Err(format!("{} order values diverged from natural", run.order));
        }
        if !run.ranks_match {
            return Err(format!(
                "{} order ranked different nodes than natural",
                run.order
            ));
        }
    }
    if !data.compiled_roundtrip {
        return Err("a pre-`--order` compiled container no longer answers identically".into());
    }
    if !data.ordered_container {
        return Err("the `--order degree` compiled container failed its round-trip".into());
    }
    Ok(())
}

/// The natural-order reference answers every comparison is judged
/// against.
struct NaturalReference {
    base_sum: QueryResult,
    base_avg: QueryResult,
    base_max: QueryResult,
    forward_sum: QueryResult,
}

fn natural_reference(
    engine: &mut LonaEngine<'_>,
    scores: &lona_relevance::ScoreVec,
) -> NaturalReference {
    NaturalReference {
        base_sum: engine.run(&Algorithm::Base, &TopKQuery::new(K, Aggregate::Sum), scores),
        base_avg: engine.run(&Algorithm::Base, &TopKQuery::new(K, Aggregate::Avg), scores),
        base_max: engine.run(&Algorithm::Base, &TopKQuery::new(K, Aggregate::Max), scores),
        forward_sum: engine.run(
            &Algorithm::forward(),
            &TopKQuery::new(K, Aggregate::Sum),
            scores,
        ),
    }
}

/// Descending value sequences must be bit-identical (MAX is computed
/// by `f64::max` under every numbering, so not even the last bit may
/// move).
fn max_bits_match(a: &QueryResult, b: &QueryResult) -> bool {
    a.entries.len() == b.entries.len()
        && a.entries
            .iter()
            .zip(b.entries.iter())
            .all(|(x, y)| x.1.to_bits() == y.1.to_bits())
}

/// Rank identity wherever values are distinct: at each position the
/// original node ids must match, except where the two lists carry
/// values within 1e-9 of each other — a tie the two numberings may
/// legitimately break differently (their last summation bits differ,
/// so an exact tie in one order can be a 1-ulp gap in the other).
fn ranks_agree(a: &QueryResult, b: &QueryResult) -> bool {
    a.entries.len() == b.entries.len()
        && a.entries
            .iter()
            .zip(b.entries.iter())
            .all(|(x, y)| x.0 == y.0 || (x.1 - y.1).abs() <= 1e-9)
}

fn one_order(
    g: &lona_graph::CsrGraph,
    scores: &lona_relevance::ScoreVec,
    order: NodeOrder,
    natural: &NaturalReference,
) -> OrderRun {
    let t = Instant::now();
    let mut eng = ReorderedEngine::new(g, order, HOPS);
    let reorder = t.elapsed();

    let t = Instant::now();
    let base_sum = eng.run(&Algorithm::Base, &TopKQuery::new(K, Aggregate::Sum), scores);
    let base_scan = t.elapsed();
    let base_avg = eng.run(&Algorithm::Base, &TopKQuery::new(K, Aggregate::Avg), scores);
    let base_max = eng.run(&Algorithm::Base, &TopKQuery::new(K, Aggregate::Max), scores);
    let forward_sum = eng.run(
        &Algorithm::forward(),
        &TopKQuery::new(K, Aggregate::Sum),
        scores,
    );

    OrderRun {
        order: order.to_string(),
        base_edges: base_sum.stats.edges_traversed,
        base_nodes: base_sum.stats.nodes_evaluated,
        reorder,
        base_scan,
        values_match: base_sum.same_values(&natural.base_sum, 1e-9)
            && base_avg.same_values(&natural.base_avg, 1e-9)
            && max_bits_match(&base_max, &natural.base_max)
            && forward_sum.same_values(&natural.forward_sum, 1e-9),
        ranks_match: ranks_agree(&base_sum, &natural.base_sum),
    }
}

/// A container written without `--order` must stay byte-compatible:
/// load as natural, carry no permutation, answer bit-identically.
fn natural_container_roundtrips(
    g: &lona_graph::CsrGraph,
    scores: &lona_relevance::ScoreVec,
    natural: &NaturalReference,
    path: &Path,
) -> bool {
    let spec = CompileSpec {
        graph: g.view(),
        scores: Some(scores),
        hops: &[HOPS],
        with_diff: true,
        order: NodeOrder::Natural,
    };
    if compile_to_file(&spec, path).is_err() {
        return false;
    }
    let Ok(c) = CompiledGraph::load(path) else {
        return false;
    };
    if c.order() != NodeOrder::Natural || c.permutation().is_some() {
        return false;
    }
    let Some(state) = c.engine_state(HOPS) else {
        return false;
    };
    let Some(embedded) = c.scores().cloned() else {
        return false;
    };
    let mut engine = LonaEngine::from_state(&c, HOPS, state);
    let r = engine.run(
        &Algorithm::Base,
        &TopKQuery::new(K, Aggregate::Sum),
        &embedded,
    );
    r.stats.edges_traversed == natural.base_sum.stats.edges_traversed
        && r.entries.len() == natural.base_sum.entries.len()
        && r.entries
            .iter()
            .zip(natural.base_sum.entries.iter())
            .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
}

/// A `--order degree` container must recover its order + permutation
/// and, after back-mapping, agree with the natural engine.
fn ordered_container_roundtrips(
    g: &lona_graph::CsrGraph,
    scores: &lona_relevance::ScoreVec,
    natural: &NaturalReference,
    path: &Path,
) -> bool {
    let spec = CompileSpec {
        graph: g.view(),
        scores: Some(scores),
        hops: &[HOPS],
        with_diff: true,
        order: NodeOrder::Degree,
    };
    if compile_to_file(&spec, path).is_err() {
        return false;
    }
    let Ok(c) = CompiledGraph::load(path) else {
        return false;
    };
    if c.order() != NodeOrder::Degree {
        return false;
    }
    let Some(perm) = c.permutation().cloned() else {
        return false;
    };
    let Some(state) = c.engine_state(HOPS) else {
        return false;
    };
    // Embedded scores are already permuted into the container's
    // numbering; the answer comes back in that numbering too.
    let Some(embedded) = c.scores().cloned() else {
        return false;
    };
    let mut engine = LonaEngine::from_state(&c, HOPS, state);
    let mut r = engine.run(
        &Algorithm::Base,
        &TopKQuery::new(K, Aggregate::Sum),
        &embedded,
    );
    map_entries_to_original(&perm, &mut r.entries);
    r.stats.edges_traversed == natural.base_sum.stats.edges_traversed
        && r.stats.nodes_evaluated == natural.base_sum.stats.nodes_evaluated
        && r.same_values(&natural.base_sum, 1e-9)
        && ranks_agree(&r, &natural.base_sum)
}

/// Run the comparison on the paper's collaboration workload at
/// `scale`, staging compiled files in a fresh subdirectory of `dir`
/// (removed afterwards).
pub fn run_locality(scale: f64, seed: u64, dir: &Path) -> LocalityData {
    let workload = Workload::paper(DatasetKind::Collaboration, scale, 0.01, seed);
    let (g, scores) = workload.build();
    let description = workload.describe(&g, &scores);

    let mut engine = LonaEngine::new(&g, HOPS);
    let t = Instant::now();
    let warmup = engine.run(
        &Algorithm::Base,
        &TopKQuery::new(K, Aggregate::Sum),
        &scores,
    );
    let natural_scan = t.elapsed();
    let natural_ref = natural_reference(&mut engine, &scores);
    debug_assert_eq!(
        warmup.stats.edges_traversed,
        natural_ref.base_sum.stats.edges_traversed
    );

    let natural = OrderRun {
        order: NodeOrder::Natural.to_string(),
        base_edges: natural_ref.base_sum.stats.edges_traversed,
        base_nodes: natural_ref.base_sum.stats.nodes_evaluated,
        reorder: Duration::ZERO,
        base_scan: natural_scan,
        values_match: true,
        ranks_match: true,
    };
    let reordered = [NodeOrder::Degree, NodeOrder::Bfs]
        .into_iter()
        .map(|order| one_order(&g, &scores, order, &natural_ref))
        .collect();

    let dir = crate::staging_dir(dir, "locality");
    let natural_path = dir.join("locality-natural.lona");
    let ordered_path = dir.join("locality-degree.lona");
    let compiled_roundtrip = natural_container_roundtrips(&g, &scores, &natural_ref, &natural_path);
    let ordered_container = ordered_container_roundtrips(&g, &scores, &natural_ref, &ordered_path);
    let _ = std::fs::remove_dir_all(&dir);

    LocalityData {
        workload: description,
        hops: HOPS,
        k: K,
        natural,
        reordered,
        compiled_roundtrip,
        ordered_container,
    }
}

/// Render the comparison as the ASCII table EXPERIMENTS.md embeds.
pub fn ascii_table(data: &LocalityData) -> String {
    let mut out = String::from("Cache locality (natural vs. reordered Base scan)\n");
    let _ = writeln!(out, "  workload: {}", data.workload);
    let _ = writeln!(
        out,
        "  hops: {}  k: {}  natural container round-trip: {}  ordered container round-trip: {}",
        data.hops, data.k, data.compiled_roundtrip, data.ordered_container
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "  {:<8} {:>12} {:>10} {:>12} {:>12} {:>10} {:>7} {:>6}",
        "order", "edges", "evals", "reorder", "scan", "ns/edge", "values", "ranks"
    );
    for run in std::iter::once(&data.natural).chain(data.reordered.iter()) {
        let _ = writeln!(
            out,
            "  {:<8} {:>12} {:>10} {:>12} {:>12} {:>10.2} {:>7} {:>6}",
            run.order,
            run.base_edges,
            run.base_nodes,
            format_duration(run.reorder),
            format_duration(run.base_scan),
            run.ns_per_edge(),
            run.values_match,
            run.ranks_match,
        );
    }
    out
}

/// Render as machine-readable JSON (`BENCH_locality.json`).
/// Hand-rolled like the other reports: no serde, flat schema.
pub fn json(data: &LocalityData) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"experiment\": \"locality\",");
    let _ = writeln!(out, "  \"workload\": \"{}\",", escape(&data.workload));
    let _ = writeln!(out, "  \"hops\": {}, \"k\": {},", data.hops, data.k);
    let _ = writeln!(
        out,
        "  \"compiled_roundtrip\": {}, \"ordered_container\": {},",
        data.compiled_roundtrip, data.ordered_container
    );
    out.push_str("  \"orders\": [\n");
    let runs: Vec<&OrderRun> = std::iter::once(&data.natural)
        .chain(data.reordered.iter())
        .collect();
    for (i, run) in runs.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"order\": \"{}\", \"base_edges\": {}, \"base_nodes\": {}, \
             \"reorder_s\": {:.9}, \"base_scan_s\": {:.9}, \"ns_per_edge\": {:.3}, \
             \"values_match\": {}, \"ranks_match\": {}}}{}",
            escape(&run.order),
            run.base_edges,
            run.base_nodes,
            run.reorder.as_secs_f64(),
            run.base_scan.as_secs_f64(),
            run.ns_per_edge(),
            run.values_match,
            run.ranks_match,
            if i + 1 == runs.len() { "" } else { "," }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> LocalityData {
        let dir = std::env::temp_dir().join("lona-locality-bench");
        run_locality(0.004, 7, &dir)
    }

    #[test]
    fn orders_agree_and_containers_roundtrip() {
        let data = tiny();
        assert_eq!(data.reordered.len(), 2);
        for run in &data.reordered {
            assert_eq!(run.base_edges, data.natural.base_edges, "{}", run.order);
            assert_eq!(run.base_nodes, data.natural.base_nodes, "{}", run.order);
            assert!(run.values_match, "{} values diverged", run.order);
            assert!(run.ranks_match, "{} ranks diverged", run.order);
        }
        assert!(data.compiled_roundtrip);
        assert!(data.ordered_container);
        assert!(guard(&data).is_ok(), "{:?}", guard(&data));
    }

    #[test]
    fn guard_rejects_each_divergence() {
        let mut data = tiny();
        data.reordered[0].base_edges += 1;
        assert!(guard(&data).unwrap_err().contains("adjacency entries"));
        let mut data = tiny();
        data.reordered[1].values_match = false;
        assert!(guard(&data).unwrap_err().contains("values diverged"));
        let mut data = tiny();
        data.reordered[0].ranks_match = false;
        assert!(guard(&data).unwrap_err().contains("ranked different"));
        let mut data = tiny();
        data.compiled_roundtrip = false;
        assert!(guard(&data).unwrap_err().contains("pre-`--order`"));
        let mut data = tiny();
        data.ordered_container = false;
        assert!(guard(&data).unwrap_err().contains("degree"));
    }

    #[test]
    fn json_is_well_formed_enough() {
        let data = tiny();
        let j = json(&data);
        assert!(j.starts_with("{\n"));
        assert!(j.trim_end().ends_with('}'));
        assert!(j.contains("\"experiment\": \"locality\""));
        assert!(j.contains("\"order\": \"natural\""));
        assert!(j.contains("\"order\": \"degree\""));
        assert!(j.contains("\"order\": \"bfs\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn table_renders() {
        let data = tiny();
        let t = ascii_table(&data);
        assert!(t.contains("Cache locality"));
        assert!(t.contains("natural"));
        assert!(t.contains("degree"));
        assert!(t.contains("bfs"));
        assert!(t.contains("ns/edge"));
    }
}
