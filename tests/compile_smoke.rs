//! CI smoke for `lona compile`: on a fixed-seed graph, the compiled
//! path must be **byte-identical** to the edge-list path — `lona
//! topk` output modulo timing lines, `lona batch` stdout and the
//! `workers/shards` summary lines exactly — and a server started from
//! a compiled file must never charge an index build to any request,
//! including the very first one (zero post-startup builds is the
//! format's whole claim).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use lona::prelude::*;

use lona_cli::args::{AlgorithmChoice, Command};
use lona_cli::commands::{execute, parse_query_lines, run_batch_file, BatchRunOptions};

mod common;
use common::TempDir;

const SEED: u64 = 2024;
const HOPS: u32 = 2;

/// Stage a fixed-seed edge list and its compiled twin in a fresh temp
/// dir. Scores are left to the default mixture on both paths, which
/// the compile command mirrors from `lona topk` — that shared
/// derivation is itself part of what this smoke pins down.
fn stage() -> (TempDir, String, String) {
    let dir = TempDir::new("lona-compile-smoke");
    let edges = dir
        .path()
        .join("smoke.edges")
        .to_string_lossy()
        .into_owned();
    let packed = dir.path().join("smoke.lona").to_string_lossy().into_owned();

    execute(&Command::Generate {
        kind: DatasetKind::Collaboration,
        out: edges.clone(),
        scale: 0.01,
        seed: SEED,
    })
    .expect("generate graph");
    execute(&Command::Compile {
        input: edges.clone(),
        out: packed.clone(),
        scores: None,
        blacking: 0.01,
        binary: false,
        seed: 42,
        hops: vec![1, HOPS],
        order: NodeOrder::Natural,
    })
    .expect("compile graph");
    (dir, edges, packed)
}

fn topk_cmd(input: &str, compiled: bool, algorithm: AlgorithmChoice) -> Command {
    Command::TopK {
        input: input.to_string(),
        compiled,
        k: 10,
        hops: HOPS,
        aggregate: Aggregate::Sum,
        algorithm,
        scores: None,
        blacking: 0.01,
        binary: false,
        seed: 42,
        exclude_self: false,
        threads: 1,
        shards: 1,
        strategy: PartitionStrategy::Contiguous,
    }
}

/// Everything but the timing lines — those legitimately differ
/// between a run that builds indexes and one that maps them.
fn ranked_lines(output: &str) -> Vec<&str> {
    output
        .lines()
        .filter(|l| {
            let l = l.trim_start();
            !l.starts_with("work:") && !l.starts_with("index build charged:")
        })
        .collect()
}

#[test]
fn topk_is_identical_between_compiled_and_edge_list() {
    let (_dir, edges, packed) = stage();
    for algorithm in [
        AlgorithmChoice::Base,
        AlgorithmChoice::Forward,
        AlgorithmChoice::Backward,
    ] {
        let cold = execute(&topk_cmd(&edges, false, algorithm))
            .expect("edge-list topk")
            .report;
        let warm = execute(&topk_cmd(&packed, true, algorithm))
            .expect("compiled topk")
            .report;
        assert_eq!(
            ranked_lines(&cold),
            ranked_lines(&warm),
            "{algorithm:?}: ranked output diverged"
        );
        assert!(
            !warm.contains("index build charged"),
            "{algorithm:?}: the compiled path reported an index build:\n{warm}"
        );
    }
}

/// The deterministic query mix: sources, k, radius and aggregate all
/// derive from the line index.
fn query_file(num_nodes: usize) -> String {
    (0..24)
        .map(|i| {
            let s1 = (i * 37) % num_nodes;
            let s2 = (i * 101 + 7) % num_nodes;
            let k = [1, 5, 17, 50][i % 4];
            let hops = 1 + (i % 2) as u32;
            let agg = ["sum", "avg", "dwsum", "max"][(i / 2) % 4];
            format!("{s1},{s2}/{k}/{hops}/{agg}\n")
        })
        .collect()
}

#[test]
fn batch_stdout_and_summary_are_byte_identical() {
    let (_dir, edges, packed) = stage();
    let g = lona::graph::io::read_edge_list(
        std::io::BufReader::new(std::fs::File::open(&edges).expect("open edge list")),
        &lona::graph::io::EdgeListOptions::default(),
    )
    .expect("parse edge list");
    let c = CompiledGraph::load(std::path::Path::new(&packed)).expect("load compiled file");
    let queries = query_file(g.num_nodes());

    for shards in [1usize, 2] {
        let opts = BatchRunOptions {
            threads: 2,
            force: None,
            sequential: false,
            chunk: 8,
            include_self: true,
            shards,
            strategy: PartitionStrategy::Contiguous,
        };

        let lines = parse_query_lines(&queries, g.num_nodes());
        let mut cold_out = Vec::new();
        let cold = run_batch_file(&g, &lines, &opts, BTreeMap::new(), None, &mut cold_out)
            .expect("edge-list batch");
        let mut warm_out = Vec::new();
        let warm = run_batch_file(
            &c,
            &lines,
            &opts,
            c.warm_states(),
            c.permutation(),
            &mut warm_out,
        )
        .expect("compiled batch");

        assert_eq!(
            String::from_utf8(cold_out).unwrap(),
            String::from_utf8(warm_out).unwrap(),
            "shards={shards}: batch stdout diverged"
        );
        // The summary carries the `workers {n}  shards {n}` line; the
        // timing fields differ between runs, so compare the stable
        // lines (everything that is not a wall-clock report).
        let stable = |s: &str| -> Vec<String> {
            s.lines()
                .filter(|l| l.trim_start().starts_with("workers") || l.contains("plan "))
                .map(str::to_string)
                .collect()
        };
        assert_eq!(
            stable(&cold.describe()),
            stable(&warm.describe()),
            "shards={shards}: summary diverged"
        );
        assert!(stable(&cold.describe())
            .iter()
            .any(|l| l.contains(&format!("workers 2  shards {shards}"))));
        assert_eq!(cold.queries, 24);
        assert_eq!(warm.queries, 24);
    }
}

#[test]
fn compiled_server_never_builds_an_index() {
    let (_dir, _edges, packed) = stage();
    let c = CompiledGraph::load(std::path::Path::new(&packed)).expect("load compiled file");
    let warm = c.warm_states();
    assert_eq!(warm.keys().copied().collect::<Vec<_>>(), vec![1, HOPS]);

    let mut server = Server::builder(Arc::new(c))
        .options(ServeOptions {
            threads: 2,
            window: Duration::from_millis(1),
            ..Default::default()
        })
        .warm(warm)
        .bind("127.0.0.1:0")
        .expect("bind server");
    let addr = server.local_addr();

    let mut client = ServeClient::connect(addr).open().expect("connect");
    for idx in 0..16usize {
        let sources: Vec<u32> = vec![(idx * 37 % 64) as u32, (idx * 13 % 64) as u32];
        let k = [1usize, 5, 17, 50][idx % 4];
        let aggregate = [
            Aggregate::Sum,
            Aggregate::Avg,
            Aggregate::DistanceWeightedSum,
            Aggregate::Max,
        ][(idx / 2) % 4];
        let hops = 1 + (idx % 2) as u32;
        match client
            .query(&sources, k, hops, aggregate, true)
            .expect("query")
        {
            lona::core::serve::Reply::Ok(resp) => {
                assert_eq!(
                    resp.stats.index_build_nanos, 0,
                    "request {idx} (hops {hops}) charged an index build on a compiled server"
                );
            }
            lona::core::serve::Reply::Err { message, .. } => {
                panic!("request {idx} failed: {message}")
            }
        }
    }
    drop(client);
    server.shutdown();
}
