//! The startup-latency workload: cold edge-list startup (parse +
//! index build + first query) vs. compiled-file startup (map +
//! validate + first query, zero builds).
//!
//! Wall-clock numbers go to `BENCH_startup.json` for the trajectory;
//! the CI gate ([`guard`]) is deterministic only — first-query results
//! bit-identical across the two paths, and the mapped path's
//! [`lona_core::EngineState::index_builds`] counter exactly zero.
//! Timing is reported, never gated on.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;
use std::time::{Duration, Instant};

use lona_core::{compile_to_file, Algorithm, CompileSpec, CompiledGraph, LonaEngine, TopKQuery};
use lona_gen::DatasetKind;
use lona_graph::io::{read_edge_list, write_edge_list, EdgeListOptions};
use lona_graph::NodeOrder;
use lona_relevance::ScoreVec;

use crate::report::format_duration;
use crate::workload::Workload;

/// Hop radius of the packed indexes and every query (the paper's 2).
const HOPS: u32 = 2;

/// One measured startup comparison.
#[derive(Clone, Debug)]
pub struct StartupData {
    /// Workload description line.
    pub workload: String,
    /// Hop radius the indexes cover.
    pub hops: u32,
    /// Edge-list file size on disk.
    pub edge_list_bytes: u64,
    /// Compiled file size on disk.
    pub compiled_bytes: u64,
    /// Cold path: read + parse the edge list into a CSR graph.
    pub parse: Duration,
    /// Cold path: index builds charged to the first queries.
    pub index_build: Duration,
    /// Cold path: first-query latency (builds included).
    pub cold_first_query: Duration,
    /// Compiled path: map + validate the container.
    pub map_load: Duration,
    /// Compiled path: first-query latency (no builds).
    pub warm_first_query: Duration,
    /// The mapped engine's build counter after the first queries —
    /// must be exactly zero (deterministic, CI-gated).
    pub mapped_index_builds: u32,
    /// Whether both paths' first-query results were bit-identical.
    pub results_match: bool,
}

impl StartupData {
    /// Cold time-to-first-result / compiled time-to-first-result.
    pub fn startup_speedup(&self) -> f64 {
        let cold = (self.parse + self.cold_first_query).as_secs_f64();
        let warm = (self.map_load + self.warm_first_query).as_secs_f64();
        if warm > 0.0 {
            cold / warm
        } else {
            f64::INFINITY
        }
    }
}

/// The deterministic CI gate: identical first-query results and a
/// zero build counter on the mapped path. Never wall clock.
pub fn guard(data: &StartupData) -> Result<(), String> {
    if !data.results_match {
        return Err("compiled-path results diverged from the parsed path".into());
    }
    if data.mapped_index_builds != 0 {
        return Err(format!(
            "the mapped path performed {} index build(s); the compiled file must supply them all",
            data.mapped_index_builds
        ));
    }
    Ok(())
}

/// The first queries both paths answer: one backward (size index) and
/// one forward (differential index) top-10 SUM, so both packed index
/// sections are actually read.
fn first_queries(engine: &mut LonaEngine<'_>, scores: &ScoreVec) -> Vec<(u32, u64)> {
    let query = TopKQuery::new(10, lona_core::Aggregate::Sum);
    let mut out = Vec::new();
    for algorithm in [Algorithm::backward(), Algorithm::forward()] {
        let result = engine.run(&algorithm, &query, scores);
        out.extend(result.entries.iter().map(|&(u, v)| (u.0, v.to_bits())));
    }
    out
}

/// Run the comparison on the paper's citation workload at `scale`,
/// staging the edge list and compiled file in a fresh subdirectory of
/// `dir` (removed afterwards).
pub fn run_startup(scale: f64, seed: u64, dir: &Path) -> StartupData {
    let workload = Workload::paper(DatasetKind::Citation, scale, 0.01, seed);
    let (g, scores) = workload.build();
    let description = workload.describe(&g, &scores);

    let dir = crate::staging_dir(dir, "startup");
    let edge_path = dir.join("startup.edges");
    let compiled_path = dir.join("startup.lona");
    write_edge_list(
        &g,
        BufWriter::new(File::create(&edge_path).expect("create edge list")),
    )
    .expect("write edge list");
    compile_to_file(
        &CompileSpec {
            graph: g.view(),
            scores: Some(&scores),
            hops: &[HOPS],
            with_diff: true,
            order: NodeOrder::Natural,
        },
        &compiled_path,
    )
    .expect("compile workload");
    let edge_list_bytes = std::fs::metadata(&edge_path).map(|m| m.len()).unwrap_or(0);
    let compiled_bytes = std::fs::metadata(&compiled_path)
        .map(|m| m.len())
        .unwrap_or(0);

    // --- Cold path: parse, then first queries (builds charged). ---
    let t = Instant::now();
    let parsed = read_edge_list(
        BufReader::new(File::open(&edge_path).expect("open edge list")),
        &EdgeListOptions::default(),
    )
    .expect("parse edge list");
    let parse = t.elapsed();

    let mut cold_engine = LonaEngine::new(&parsed, HOPS);
    let t = Instant::now();
    let cold_entries = first_queries(&mut cold_engine, &scores);
    let cold_first_query = t.elapsed();
    let index_build = {
        // Re-derive the charged build time deterministically: both
        // indexes were built during the first queries.
        let mut probe = lona_core::EngineState::new();
        let took = probe.prepare_diff_index(parsed.view(), HOPS);
        debug_assert_eq!(probe.index_builds(), 2);
        took
    };

    // --- Compiled path: map + validate, then first queries. ---
    let t = Instant::now();
    let compiled = CompiledGraph::load(&compiled_path).expect("load compiled file");
    let map_load = t.elapsed();
    let warm_scores = compiled
        .scores()
        .cloned()
        .expect("compiled workload embeds scores");
    let state = compiled
        .engine_state(HOPS)
        .expect("compiled workload packs the query radius");
    let mut warm_engine = LonaEngine::from_state(&compiled, HOPS, state);
    let t = Instant::now();
    let warm_entries = first_queries(&mut warm_engine, &warm_scores);
    let warm_first_query = t.elapsed();
    let mapped_index_builds = warm_engine.state().index_builds();

    let _ = std::fs::remove_dir_all(&dir);

    StartupData {
        workload: description,
        hops: HOPS,
        edge_list_bytes,
        compiled_bytes,
        parse,
        index_build,
        cold_first_query,
        map_load,
        warm_first_query,
        mapped_index_builds,
        results_match: cold_entries == warm_entries,
    }
}

/// Render the comparison as the ASCII table EXPERIMENTS.md embeds.
pub fn ascii_table(data: &StartupData) -> String {
    let mut out = String::from("Startup latency (edge-list parse+build vs. compiled mmap)\n");
    let _ = writeln!(out, "  workload: {}", data.workload);
    let _ = writeln!(
        out,
        "  edge list: {} bytes  compiled: {} bytes  results match: {}  \
         mapped builds: {}",
        data.edge_list_bytes, data.compiled_bytes, data.results_match, data.mapped_index_builds
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "  {:<10} {:>14} {:>14} {:>16} {:>16}",
        "path", "load", "index build", "first query", "time to result"
    );
    let _ = writeln!(
        out,
        "  {:<10} {:>14} {:>14} {:>16} {:>16}",
        "edge list",
        format_duration(data.parse),
        format_duration(data.index_build),
        format_duration(data.cold_first_query),
        format_duration(data.parse + data.cold_first_query),
    );
    let _ = writeln!(
        out,
        "  {:<10} {:>14} {:>14} {:>16} {:>16}",
        "compiled",
        format_duration(data.map_load),
        "0 (mapped)",
        format_duration(data.warm_first_query),
        format_duration(data.map_load + data.warm_first_query),
    );
    let _ = writeln!(
        out,
        "\n  time-to-first-result speedup: {:.1}x",
        data.startup_speedup()
    );
    out
}

/// Render as machine-readable JSON (`BENCH_startup.json`).
/// Hand-rolled like the other reports: no serde, flat schema.
pub fn json(data: &StartupData) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"experiment\": \"startup\",");
    let _ = writeln!(out, "  \"workload\": \"{}\",", escape(&data.workload));
    let _ = writeln!(out, "  \"hops\": {},", data.hops);
    let _ = writeln!(
        out,
        "  \"edge_list_bytes\": {}, \"compiled_bytes\": {},",
        data.edge_list_bytes, data.compiled_bytes
    );
    let _ = writeln!(
        out,
        "  \"cold\": {{\"parse_s\": {:.9}, \"index_build_s\": {:.9}, \
         \"first_query_s\": {:.9}}},",
        data.parse.as_secs_f64(),
        data.index_build.as_secs_f64(),
        data.cold_first_query.as_secs_f64()
    );
    let _ = writeln!(
        out,
        "  \"compiled\": {{\"map_load_s\": {:.9}, \"first_query_s\": {:.9}, \
         \"index_builds\": {}}},",
        data.map_load.as_secs_f64(),
        data.warm_first_query.as_secs_f64(),
        data.mapped_index_builds
    );
    let _ = writeln!(
        out,
        "  \"results_match\": {}, \"startup_speedup\": {:.3}",
        data.results_match,
        data.startup_speedup()
    );
    out.push_str("}\n");
    out
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> StartupData {
        let dir = std::env::temp_dir().join("lona-startup-bench");
        run_startup(0.004, 7, &dir)
    }

    #[test]
    fn startup_paths_agree_and_mapped_builds_nothing() {
        let data = tiny();
        assert!(data.results_match, "paths must answer identically");
        assert_eq!(data.mapped_index_builds, 0);
        assert!(data.compiled_bytes > 0);
        assert!(data.edge_list_bytes > 0);
        assert!(guard(&data).is_ok(), "{:?}", guard(&data));
    }

    #[test]
    fn guard_rejects_divergence_and_builds() {
        let mut data = tiny();
        data.results_match = false;
        assert!(guard(&data).unwrap_err().contains("diverged"));
        let mut data = tiny();
        data.mapped_index_builds = 1;
        assert!(guard(&data).unwrap_err().contains("index build"));
    }

    #[test]
    fn json_is_well_formed_enough() {
        let data = tiny();
        let j = json(&data);
        assert!(j.starts_with("{\n"));
        assert!(j.trim_end().ends_with('}'));
        assert!(j.contains("\"map_load_s\""));
        assert!(j.contains("\"index_builds\": 0"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn table_renders() {
        let data = tiny();
        let t = ascii_table(&data);
        assert!(t.contains("Startup latency"));
        assert!(t.contains("edge list"));
        assert!(t.contains("compiled"));
        assert!(t.contains("speedup"));
    }
}
