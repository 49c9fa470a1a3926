//! CI smoke for `lona serve`: on a fixed-seed graph, 32 concurrent
//! TCP clients receive responses **bit-identical** to a sequential
//! engine loop over the same query set, at every worker count — and
//! after one warm-up request per hop radius, no served request is
//! ever charged an index build (the resident state stays warm).
//!
//! Each reply's work counters must also equal those of its request
//! run through `serve_algorithm` — the algorithm the server actually
//! forces — on a resident engine, and a stats poll after the burst
//! must report zero shed requests. Counters and bytes cannot flake on
//! a noisy runner; wall-clock serving is the benchmark's (`suite/`)
//! point-serve workload.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use lona::core::serve::{
    binary_scores, serve_algorithm, Reply, ServeClient, ServeOptions, ServeStats, Server,
};
use lona::prelude::*;

mod common;
use common::work_units;

const CLIENTS: usize = 32;
const REQUESTS_PER_CLIENT: usize = 3;
const HOPS: u32 = 2;

fn fixed_workload() -> CsrGraph {
    DatasetProfile::smoke(DatasetKind::Collaboration, 2024)
        .generate()
        .unwrap()
}

/// The deterministic request mix: request `idx` (global across all
/// clients) fully determines sources, k, aggregate and the self term,
/// so the server-side answers can be checked against a sequential
/// reference computed once.
fn request_spec(idx: usize, num_nodes: usize) -> (Vec<u32>, usize, Aggregate, bool) {
    let n_sources = 1 + idx % 5;
    let sources: Vec<u32> = (0..n_sources)
        .map(|s| ((idx * 37 + s * 101) % num_nodes) as u32)
        .collect();
    let k = [1usize, 5, 17, 50][idx % 4];
    let aggregate = [
        Aggregate::Sum,
        Aggregate::Avg,
        Aggregate::DistanceWeightedSum,
        Aggregate::Max,
    ][(idx / 2) % 4];
    (sources, k, aggregate, !idx.is_multiple_of(3))
}

/// Sequential reference: one single-query `run_batch` per request on
/// a resident engine — by the batch determinism contract this is the
/// same as an `Engine::run` loop with the planner's algorithms, which
/// the first few requests double-check explicitly.
fn sequential_reference(g: &CsrGraph) -> Vec<Vec<(u32, u64)>> {
    let n = g.num_nodes();
    let mut engine = LonaEngine::new(g, HOPS);
    let mut check_engine = LonaEngine::new(g, HOPS);
    (0..CLIENTS * REQUESTS_PER_CLIENT)
        .map(|idx| {
            let (sources, k, aggregate, include_self) = request_spec(idx, n);
            let scores = binary_scores(&sources, n);
            let query = TopKQuery::new(k, aggregate).include_self(include_self);
            let out = engine.run_batch(
                &[BatchQuery::new(query, &scores)],
                &BatchOptions::with_threads(1),
            );
            let entries: Vec<(u32, u64)> = out.results[0]
                .entries
                .iter()
                .map(|&(u, v)| (u.0, v.to_bits()))
                .collect();
            if idx < 6 {
                let direct = check_engine.run(&out.plans[0].algorithm, &query, &scores);
                let direct_bits: Vec<(u32, u64)> = direct
                    .entries
                    .iter()
                    .map(|&(u, v)| (u.0, v.to_bits()))
                    .collect();
                assert_eq!(
                    entries, direct_bits,
                    "request {idx}: singleton batch diverged from Engine::run"
                );
            }
            entries
        })
        .collect()
}

/// What the server runs for each request: its [`serve_algorithm`]
/// (the planner's choice with LONA-Backward lowered to BackwardNaive)
/// at one worker on a resident engine.
fn served_reference(g: &CsrGraph) -> Vec<QueryStats> {
    let n = g.num_nodes();
    let mut engine = LonaEngine::new(g, HOPS);
    (0..CLIENTS * REQUESTS_PER_CLIENT)
        .map(|idx| {
            let (sources, k, aggregate, include_self) = request_spec(idx, n);
            let scores = binary_scores(&sources, n);
            let query = TopKQuery::new(k, aggregate).include_self(include_self);
            let algorithm = serve_algorithm(&engine, &query, &scores);
            engine.run(&algorithm, &query, &scores).stats
        })
        .collect()
}

/// The deterministic work counters of a reply.
fn counters(stats: &ServeStats) -> [u64; 5] {
    [
        stats.nodes_evaluated,
        stats.nodes_pruned,
        stats.edges_traversed,
        stats.nodes_distributed,
        stats.exact_from_bound,
    ]
}

#[test]
fn concurrent_clients_are_bit_identical_to_sequential_loop() {
    let graph = Arc::new(fixed_workload());
    let n = graph.num_nodes();
    let expect = sequential_reference(&graph);
    let served = served_reference(&graph);
    let reference_work: u64 = served.iter().map(work_units).sum();

    for workers in [1usize, 4] {
        let mut server = Server::builder(Arc::clone(&graph))
            .options(ServeOptions {
                threads: workers,
                window: Duration::from_millis(2),
                ..Default::default()
            })
            .bind("127.0.0.1:0")
            .unwrap();
        let addr = server.local_addr();

        // Warm-up: run the full mix once over a single connection so
        // every index any of its plans needs is built and resident.
        // (A single request only warms its own plan's needs — e.g. a
        // k=1 SUM may never touch the differential index that a
        // large-k forward plan requires.)
        let mut warm = ServeClient::connect(addr).open().unwrap();
        for (idx, expected) in expect.iter().enumerate() {
            let (sources, k, aggregate, include_self) = request_spec(idx, n);
            match warm
                .query(&sources, k, HOPS, aggregate, include_self)
                .unwrap()
            {
                Reply::Ok(resp) => {
                    let bits: Vec<(u32, u64)> = resp
                        .entries
                        .iter()
                        .map(|&(u, v)| (u, v.to_bits()))
                        .collect();
                    assert_eq!(
                        &bits, expected,
                        "workers={workers}: warm-up request {idx} diverged"
                    );
                }
                Reply::Err { message, .. } => panic!("warm-up {idx} rejected: {message}"),
            }
        }

        // (request index, entry bits, reply stats)
        type Observed = (usize, Vec<(u32, u64)>, ServeStats);
        let collected: Vec<Observed> = thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|client| {
                    s.spawn(move || {
                        let mut conn = ServeClient::connect(addr).open().unwrap();
                        (0..REQUESTS_PER_CLIENT)
                            .map(|j| {
                                let idx = client * REQUESTS_PER_CLIENT + j;
                                let (sources, k, aggregate, include_self) = request_spec(idx, n);
                                match conn
                                    .query(&sources, k, HOPS, aggregate, include_self)
                                    .unwrap()
                                {
                                    Reply::Ok(resp) => (
                                        idx,
                                        resp.entries
                                            .iter()
                                            .map(|&(u, v)| (u, v.to_bits()))
                                            .collect::<Vec<_>>(),
                                        resp.stats,
                                    ),
                                    Reply::Err { message, .. } => {
                                        panic!("request {idx} rejected: {message}")
                                    }
                                }
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });

        assert_eq!(collected.len(), CLIENTS * REQUESTS_PER_CLIENT);
        for (idx, entries, stats) in &collected {
            assert_eq!(
                entries, &expect[*idx],
                "workers={workers}: request {idx} diverged from the sequential loop"
            );
            assert_eq!(
                stats.index_build_nanos, 0,
                "workers={workers}: request {idx} was charged an index build after warm-up"
            );
            assert!(
                stats.batch_size >= 1,
                "batch_size must count the request itself"
            );
            assert_eq!(
                counters(stats),
                counters(&ServeStats::from_query(&served[*idx])),
                "workers={workers}: request {idx} did different work than its serve_algorithm run"
            );
        }
        let served_work: u64 = collected.iter().map(|(_, _, s)| s.work_units()).sum();
        assert_eq!(
            served_work, reference_work,
            "workers={workers}: served work differs from the serve_algorithm reference"
        );

        // The default queue capacity dwarfs 32 clients: nothing sheds.
        let report = warm.stats().unwrap();
        assert_eq!(report.shed, 0, "workers={workers}: requests were shed");

        server.shutdown();
    }
}

/// Server-side validation rejects hostile requests with the same
/// messages the CLI parser uses, and the connection stays usable for
/// the next (valid) request.
#[test]
fn invalid_requests_are_rejected_without_killing_the_connection() {
    let graph = Arc::new(fixed_workload());
    let n = graph.num_nodes() as u32;
    let mut server = Server::builder(Arc::clone(&graph))
        .options(ServeOptions {
            threads: 1,
            ..Default::default()
        })
        .bind("127.0.0.1:0")
        .unwrap();
    let mut conn = ServeClient::connect(server.local_addr()).open().unwrap();

    for (sources, k, hops, needle) in [
        (vec![0u32], 0usize, 2u32, "k must be at least 1"),
        (vec![0], 5, 0, "hops must be at least 1"),
        (vec![0], 5, 99, "exceeds the server limit"),
        (vec![], 5, 2, "source set is empty"),
        (vec![n + 7], 5, 2, "out of range"),
    ] {
        match conn.query(&sources, k, hops, Aggregate::Sum, true).unwrap() {
            Reply::Err { message, .. } => {
                assert!(message.contains(needle), "got {message:?}, want {needle:?}")
            }
            Reply::Ok(_) => panic!("hostile request (needle {needle:?}) was accepted"),
        }
    }

    // The same connection still serves a valid query afterwards.
    match conn.query(&[0, 1], 3, 2, Aggregate::Sum, true).unwrap() {
        Reply::Ok(resp) => assert_eq!(resp.entries.len(), 3),
        Reply::Err { message, .. } => panic!("valid follow-up rejected: {message}"),
    }
    server.shutdown();
}
