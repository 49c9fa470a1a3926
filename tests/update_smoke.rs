//! CI smoke for incremental updates: on a fixed-seed graph, `lona
//! update` must repair its indexes without a single rebuild and
//! `--verify` must prove them equal to fresh ones; and a live `lona
//! serve` instance must apply an UPDATE frame **between** two query
//! batches on one connection — the first batch answering on the old
//! graph, the second bit-identical to a fresh engine on the mutated
//! graph — with a repair report whose `rebuild_avoided_units` is
//! strictly positive.
//!
//! Counters and bytes cannot flake on a noisy runner; repair wall
//! clock is the benchmark's (`suite/`) update-mix workload.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use lona::core::serve::{binary_scores, Reply, ServeClient, ServeOptions, Server};
use lona::prelude::*;

use lona_cli::args::Command;
use lona_cli::commands::execute;

const SEED: u64 = 2024;
const HOPS: u32 = 2;

fn fixed_workload() -> CsrGraph {
    DatasetProfile::smoke(DatasetKind::Collaboration, SEED)
        .generate()
        .unwrap()
}

/// A localized deterministic delta for `g`: delete its first edge and
/// insert one edge between two non-adjacent nodes.
fn fixed_delta(g: &CsrGraph) -> GraphDelta {
    let (du, dv, _) = g.edges().next().expect("workload has edges");
    let n = g.num_nodes() as u32;
    let pivot = NodeId(n / 2);
    let insert_to = (0..n)
        .map(|d| NodeId((pivot.0 + n / 3 + d) % n))
        .find(|&v| v != pivot && !g.neighbors(pivot).contains(&v))
        .expect("pivot is not connected to everything");
    GraphDelta::new()
        .delete(du.0, dv.0)
        .insert(pivot.0, insert_to.0)
}

fn delta_text(d: &GraphDelta) -> String {
    let mut out = String::new();
    for &(u, v) in &d.deletes {
        out.push_str(&format!("del {u} {v}\n"));
    }
    for &(u, v, _) in &d.inserts {
        out.push_str(&format!("add {u} {v}\n"));
    }
    out
}

#[test]
fn cli_update_repairs_in_place_and_verifies() {
    let dir = std::env::temp_dir().join(format!("lona-update-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let edges = dir.join("smoke.edges").to_string_lossy().into_owned();
    let delta_path = dir.join("smoke.delta").to_string_lossy().into_owned();
    let out_path = dir
        .join("smoke.updated.edges")
        .to_string_lossy()
        .into_owned();

    execute(&Command::Generate {
        kind: DatasetKind::Collaboration,
        out: edges.clone(),
        scale: 0.01,
        seed: SEED,
    })
    .expect("generate graph");
    let g = lona::graph::io::read_edge_list(
        std::io::BufReader::new(std::fs::File::open(&edges).expect("open edge list")),
        &lona::graph::io::EdgeListOptions::default(),
    )
    .expect("parse edge list");
    let delta = fixed_delta(&g);
    std::fs::write(&delta_path, delta_text(&delta)).expect("write delta");

    let run = execute(&Command::Update {
        input: edges,
        delta: delta_path,
        out: Some(out_path.clone()),
        hops: vec![1, HOPS],
        scores: None,
        scores_out: None,
        verify: true,
    })
    .expect("update succeeds");
    assert!(run.ok);
    assert!(run.report.contains("+1 -1 edges"), "{}", run.report);
    assert!(run.report.contains("entries repaired"), "{}", run.report);
    assert!(
        run.report.contains("verify: repaired indexes match"),
        "{}",
        run.report
    );

    // The written graph is the overlay result: same edge count (one
    // in, one out), and exactly the mutated edge set.
    let g2 = lona::graph::io::read_edge_list(
        std::io::BufReader::new(std::fs::File::open(&out_path).expect("open updated list")),
        &lona::graph::io::EdgeListOptions::default(),
    )
    .expect("parse updated list");
    assert_eq!(g2.num_nodes(), g.num_nodes());
    assert_eq!(g2.num_edges(), g.num_edges());
    let mut overlay = OverlayGraph::new(&g);
    overlay.apply(&delta).unwrap();
    let want: Vec<(u32, u32)> = overlay
        .into_graph()
        .edges()
        .map(|(u, v, _)| (u.0, v.0))
        .collect();
    let got: Vec<(u32, u32)> = g2.edges().map(|(u, v, _)| (u.0, v.0)).collect();
    assert_eq!(got, want);
}

/// The deterministic request mix for the server half.
fn request_spec(idx: usize, num_nodes: usize) -> (Vec<u32>, usize, Aggregate) {
    let sources: Vec<u32> = (0..1 + idx % 3)
        .map(|s| ((idx * 37 + s * 101) % num_nodes) as u32)
        .collect();
    let k = [1usize, 5, 17][idx % 3];
    let aggregate = [Aggregate::Sum, Aggregate::Avg, Aggregate::Max][(idx / 2) % 3];
    (sources, k, aggregate)
}

fn reference(g: &CsrGraph, indexes: std::ops::Range<usize>) -> Vec<Vec<(u32, u64)>> {
    let n = g.num_nodes();
    let mut engine = LonaEngine::new(g, HOPS);
    indexes
        .map(|idx| {
            let (sources, k, aggregate) = request_spec(idx, n);
            let scores = binary_scores(&sources, n);
            let out = engine.run_batch(
                &[BatchQuery::new(TopKQuery::new(k, aggregate), &scores)],
                &BatchOptions::with_threads(1),
            );
            out.results[0]
                .entries
                .iter()
                .map(|&(u, v)| (u.0, v.to_bits()))
                .collect()
        })
        .collect()
}

fn run_batch(
    client: &mut ServeClient,
    n: usize,
    indexes: std::ops::Range<usize>,
) -> Vec<Vec<(u32, u64)>> {
    indexes
        .map(|idx| {
            let (sources, k, aggregate) = request_spec(idx, n);
            match client.query(&sources, k, HOPS, aggregate, true).unwrap() {
                Reply::Ok(resp) => resp
                    .entries
                    .iter()
                    .map(|&(u, v)| (u, v.to_bits()))
                    .collect(),
                Reply::Err { message, .. } => panic!("request {idx} rejected: {message}"),
            }
        })
        .collect()
}

#[test]
fn live_server_applies_update_between_batches() {
    let g = fixed_workload();
    let n = g.num_nodes();
    let delta = fixed_delta(&g);

    // Mutated reference graph for the second batch.
    let mut overlay = OverlayGraph::new(&g);
    overlay.apply(&delta).unwrap();
    let g2 = overlay.into_graph();

    // Warm per-radius state so the update has indexes to repair.
    let mut warm = EngineState::new();
    warm.prepare_diff_index(g.view(), HOPS);
    let mut states = BTreeMap::new();
    states.insert(HOPS, warm);

    let graph = Arc::new(g.clone());
    let mut server = Server::builder(graph)
        .options(ServeOptions {
            threads: 2,
            window: Duration::from_millis(1),
            ..Default::default()
        })
        .warm(states)
        .bind("127.0.0.1:0")
        .expect("bind server");
    let addr = server.local_addr();
    let mut client = ServeClient::connect(addr)
        .retries(3)
        .open()
        .expect("connect");

    // Batch 1 answers on the old graph.
    assert_eq!(run_batch(&mut client, n, 0..8), reference(&g, 0..8));

    // The update executes at its admission position and reports a
    // strictly local repair of the warm radius-2 state.
    let report = client.update(&delta).expect("update applies");
    assert_eq!(report.inserted, 1, "{report:?}");
    assert_eq!(report.deleted, 1, "{report:?}");
    assert_eq!(report.states_repaired, 1, "{report:?}");
    assert!(report.rebuild_avoided_units > 0, "{report:?}");
    assert!(report.entries_repaired > 0, "{report:?}");
    assert!(report.dirty_nodes > 0, "{report:?}");
    assert!(
        (report.dirty_nodes as usize) <= n,
        "dirty region larger than the graph: {report:?}"
    );

    // Batch 2 answers bit-identically to a fresh engine on the
    // mutated graph — warm state repaired, not rebuilt.
    assert_eq!(run_batch(&mut client, n, 8..16), reference(&g2, 8..16));

    // Score overrides are rejected client-side before any frame.
    let bad = GraphDelta::new().override_score(0, 0.5);
    let err = client.update(&bad).unwrap_err();
    assert!(err.to_string().contains("score overrides"), "{err}");

    drop(client);
    server.shutdown();
}
