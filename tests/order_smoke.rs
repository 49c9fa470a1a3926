//! CI smoke for `lona compile --order`: on a fixed-seed graph, a
//! degree- or BFS-reordered container must answer `lona topk` and
//! `lona batch` with the same ranked output as the edge-list path —
//! node ids in the *original* numbering, renumbering invisible — and
//! a container compiled without `--order` (the pre-Perm-section
//! shape) must load as natural order with no permutation attached.

use std::collections::BTreeMap;

use lona::graph::GraphStore;
use lona::prelude::*;

use lona_cli::args::{AlgorithmChoice, Command};
use lona_cli::commands::{execute, parse_query_lines, run_batch_file, BatchRunOptions};

mod common;
use common::TempDir;

const SEED: u64 = 4040;
const HOPS: u32 = 2;

/// Stage a fixed-seed edge list plus one compiled container per node
/// order in a fresh temp dir.
fn stage() -> (TempDir, String, BTreeMap<&'static str, String>) {
    let dir = TempDir::new("lona-order-smoke");
    let edges = dir
        .path()
        .join("smoke.edges")
        .to_string_lossy()
        .into_owned();
    execute(&Command::Generate {
        kind: DatasetKind::Collaboration,
        out: edges.clone(),
        scale: 0.01,
        seed: SEED,
    })
    .expect("generate graph");

    let mut packed = BTreeMap::new();
    for (name, order) in [
        ("natural", NodeOrder::Natural),
        ("degree", NodeOrder::Degree),
        ("bfs", NodeOrder::Bfs),
    ] {
        let out = dir
            .path()
            .join(format!("smoke-{name}.lona"))
            .to_string_lossy()
            .into_owned();
        execute(&Command::Compile {
            input: edges.clone(),
            out: out.clone(),
            scores: None,
            blacking: 0.01,
            binary: false,
            seed: 42,
            hops: vec![1, HOPS],
            order,
        })
        .expect("compile graph");
        packed.insert(name, out);
    }
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
/// between runs.
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
fn container_without_order_flag_loads_as_natural() {
    let (_dir, _edges, packed) = stage();
    let c = CompiledGraph::load(std::path::Path::new(&packed["natural"]))
        .expect("load natural container");
    assert_eq!(c.order(), NodeOrder::Natural);
    assert!(
        c.permutation().is_none(),
        "a natural container must not carry a Perm section"
    );
}

#[test]
fn ordered_container_recovers_order_and_permutation() {
    let (_dir, _edges, packed) = stage();
    for (name, order) in [("degree", NodeOrder::Degree), ("bfs", NodeOrder::Bfs)] {
        let c = CompiledGraph::load(std::path::Path::new(&packed[name]))
            .expect("load ordered container");
        assert_eq!(c.order(), order, "{name}");
        let perm = c
            .permutation()
            .expect("an ordered container carries its permutation");
        assert_eq!(perm.len(), c.csr().num_nodes(), "{name}");
    }

    // A full Base scan's work is a graph property, not a numbering
    // property: every container reports the natural one's counters.
    let base_work = |name: &str| {
        let c = CompiledGraph::load(std::path::Path::new(&packed[name])).unwrap();
        let scores = c.scores().cloned().expect("embedded scores");
        let state = c.engine_state(HOPS).expect("packed radius");
        let query = TopKQuery::new(10, Aggregate::Sum);
        let r = LonaEngine::from_state(&c, HOPS, state).run(&Algorithm::Base, &query, &scores);
        (r.stats.edges_traversed, r.stats.nodes_evaluated)
    };
    let natural = base_work("natural");
    for name in ["degree", "bfs"] {
        assert_eq!(base_work(name), natural, "{name}: Base work counters moved");
    }
}

#[test]
fn topk_output_is_identical_across_orders() {
    let (_dir, edges, packed) = stage();
    for algorithm in [
        AlgorithmChoice::Base,
        AlgorithmChoice::Forward,
        AlgorithmChoice::Backward,
    ] {
        let reference = execute(&topk_cmd(&edges, false, algorithm))
            .expect("edge-list topk")
            .report;
        for name in ["natural", "degree", "bfs"] {
            let got = execute(&topk_cmd(&packed[name], true, algorithm))
                .expect("compiled topk")
                .report;
            assert_eq!(
                ranked_lines(&reference),
                ranked_lines(&got),
                "{algorithm:?} on the {name} container: ranked output diverged"
            );
        }
    }
}

/// The deterministic query mix — sources are *original* node ids, so
/// this exercises the old→new source mapping on ordered containers.
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
fn batch_stdout_is_identical_across_orders() {
    let (_dir, edges, packed) = stage();
    let g = lona::graph::io::read_edge_list(
        std::io::BufReader::new(std::fs::File::open(&edges).expect("open edge list")),
        &lona::graph::io::EdgeListOptions::default(),
    )
    .expect("parse edge list");
    let queries = query_file(g.num_nodes());
    let lines = parse_query_lines(&queries, g.num_nodes());
    let opts = BatchRunOptions {
        threads: 2,
        force: None,
        sequential: false,
        chunk: 8,
        include_self: true,
        shards: 1,
        strategy: PartitionStrategy::Contiguous,
    };

    let mut reference = Vec::new();
    run_batch_file(&g, &lines, &opts, BTreeMap::new(), None, &mut reference)
        .expect("edge-list batch");
    let reference = String::from_utf8(reference).unwrap();

    for name in ["natural", "degree", "bfs"] {
        let c =
            CompiledGraph::load(std::path::Path::new(&packed[name])).expect("load compiled file");
        let mut out = Vec::new();
        run_batch_file(
            &c,
            &lines,
            &opts,
            c.warm_states(),
            c.permutation(),
            &mut out,
        )
        .expect("compiled batch");
        let out = String::from_utf8(out).unwrap();
        if name == "natural" {
            // The natural container is the pre-`--order` shape: its
            // answers must be byte-identical to the edge-list path.
            assert_eq!(reference, out, "{name} container: batch stdout diverged");
        } else {
            // A renumbered container may legitimately break value
            // *ties at the k boundary* differently — everything else
            // must agree: see `lines_agree_modulo_boundary_ties`.
            for (want, got) in reference.lines().zip(out.lines()) {
                lines_agree_modulo_boundary_ties(want, got, name);
            }
            assert_eq!(reference.lines().count(), out.lines().count(), "{name}");
        }
    }
}

/// Two batch result lines agree modulo boundary ties when (a) their
/// formatted value sequences are identical and (b) every value group
/// *above* the line's minimum value contains the same node ids. Only
/// the group at the minimum — the k-boundary tie set, where the
/// engine must pick some of many equals — may differ between
/// numberings.
fn lines_agree_modulo_boundary_ties(want: &str, got: &str, name: &str) {
    let parse = |line: &str| -> Vec<(String, String)> {
        line.split_once(':')
            .map(|(_, entries)| entries.trim())
            .unwrap_or("")
            .split_whitespace()
            .map(|e| {
                let (id, val) = e.split_once('=').expect("id=value entry");
                (id.to_string(), val.to_string())
            })
            .collect()
    };
    let a = parse(want);
    let b = parse(got);
    let vals = |v: &[(String, String)]| -> Vec<String> { v.iter().map(|e| e.1.clone()).collect() };
    assert_eq!(
        vals(&a),
        vals(&b),
        "{name}: value sequence diverged\n  want: {want}\n  got:  {got}"
    );
    let min = a.last().map(|e| e.1.clone());
    let above = |v: &[(String, String)]| -> std::collections::BTreeSet<String> {
        v.iter()
            .filter(|e| Some(&e.1) != min.as_ref())
            .map(|e| e.0.clone())
            .collect()
    };
    assert_eq!(
        above(&a),
        above(&b),
        "{name}: ids above the boundary tie diverged\n  want: {want}\n  got:  {got}"
    );
}
