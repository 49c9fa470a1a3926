//! Hot-loop microbenches: the three `NeighborhoodScanner` scan
//! kernels and the two index builds, each measured against the
//! in-RAM `CsrGraph` and the mmap-backed `CsrGraphMmap` loaded from a
//! compiled file. The interesting number is the per-edge-visit delta
//! between the two backends — the compiled format's claim is that
//! mapped reads cost the same as heap reads. The `update_barrier`
//! group times what a server's UPDATE barrier runs on the compiled
//! container's warm state: an edge swap and its inverse through
//! `OverlayGraph::apply` and `repair_engine_state`, with and without
//! a reader forcing the deferred differential-index repair.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use lona_bench::workload::Workload;
use lona_core::delta::repair_engine_state;
use lona_core::{compile_to_file, CompileSpec, CompiledGraph, DiffIndex, SizeIndex};
use lona_gen::DatasetKind;
use lona_graph::{CsrGraph, CsrView, GraphDelta, GraphStore, NodeId, NodeOrder, OverlayGraph};
use lona_relevance::ScoreVec;

const HOPS: u32 = 2;
/// Nodes scanned per iteration — enough to touch a spread of degrees.
const SAMPLE: u32 = 64;
/// Seed of the `update_barrier` group's edge swap.
const SWAP_SEED: u64 = 7;

fn configure(group: &mut criterion::BenchmarkGroup<'_, criterion::measurement::WallTime>) {
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
}

/// Build the workload once and stage both backends: the in-RAM graph
/// and the same graph round-tripped through a compiled file.
fn backends() -> (CsrGraph, CompiledGraph, ScoreVec) {
    let workload = Workload::paper(DatasetKind::Collaboration, 0.05, 0.01, 42);
    let (g, scores) = workload.build();
    let path = std::env::temp_dir().join(format!("lona-hot-loops-{}.lona", std::process::id()));
    compile_to_file(
        &CompileSpec {
            graph: g.view(),
            scores: Some(&scores),
            hops: &[HOPS],
            with_diff: true,
            order: NodeOrder::Natural,
        },
        &path,
    )
    .expect("compile workload");
    let compiled = CompiledGraph::load(&path).expect("load compiled file");
    let _ = std::fs::remove_file(&path);
    (g, compiled, scores)
}

/// Spread the sample across the id space so both hubs and leaves get
/// scanned.
fn sample_nodes(n: u32) -> Vec<NodeId> {
    let stride = (n / SAMPLE).max(1);
    (0..n)
        .step_by(stride as usize)
        .take(SAMPLE as usize)
        .map(NodeId)
        .collect()
}

fn scans(c: &mut Criterion) {
    let (g, compiled, scores) = backends();
    let nodes = sample_nodes(g.num_nodes() as u32);
    let f = scores.as_slice();

    for (kernel, scan) in [
        (
            "sum_scan",
            (|s: &mut lona_core::neighborhood::NeighborhoodScanner,
              v: lona_graph::CsrView<'_>,
              u: NodeId,
              f: &[f64]| s.sum_scan(v, u, HOPS, f).mass)
                as fn(&mut _, lona_graph::CsrView<'_>, NodeId, &[f64]) -> f64,
        ),
        ("distance_weighted_scan", |s, v, u, f| {
            s.distance_weighted_scan(v, u, HOPS, f).mass
        }),
        ("max_scan", |s, v, u, f| s.max_scan(v, u, HOPS, f).mass),
    ] {
        let mut group = c.benchmark_group(kernel);
        configure(&mut group);
        for (backend, view) in [("in_ram", g.view()), ("mmap", compiled.csr())] {
            let mut scanner = lona_core::neighborhood::NeighborhoodScanner::new(view.num_nodes());
            group.bench_with_input(BenchmarkId::new(backend, SAMPLE), &view, |b, view| {
                b.iter(|| {
                    let mut acc = 0.0;
                    for &u in &nodes {
                        acc += scan(&mut scanner, *view, u, f);
                    }
                    criterion::black_box(acc)
                })
            });
        }
        group.finish();
    }
}

fn index_builds(c: &mut Criterion) {
    let (g, compiled, _scores) = backends();

    let mut group = c.benchmark_group("size_index_build");
    configure(&mut group);
    for (backend, view) in [("in_ram", g.view()), ("mmap", compiled.csr())] {
        group.bench_with_input(BenchmarkId::new(backend, HOPS), &view, |b, view| {
            b.iter(|| criterion::black_box(SizeIndex::build(*view, HOPS)))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("diff_index_build");
    configure(&mut group);
    for (backend, view) in [("in_ram", g.view()), ("mmap", compiled.csr())] {
        let sizes = SizeIndex::build(view, HOPS);
        group.bench_with_input(BenchmarkId::new(backend, HOPS), &view, |b, view| {
            b.iter(|| criterion::black_box(DiffIndex::build(*view, HOPS, &sizes)))
        });
    }
    group.finish();
}

/// One seeded edge swap on `g` and its inverse: delete an existing
/// edge, insert an absent one between two other nodes.
fn seeded_swap(g: CsrView<'_>, seed: u64) -> (GraphDelta, GraphDelta) {
    // SplitMix64: a reproducible stream without a dependency.
    let mut state = seed;
    let mut next = |bound: usize| {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % bound as u64) as u32
    };
    let n = g.num_nodes();
    let (du, dv) = loop {
        let u = NodeId(next(n));
        if g.degree(u) > 0 {
            break (u.0, g.neighbors(u)[next(g.degree(u)) as usize].0);
        }
    };
    let (iu, iv) = loop {
        let (u, v) = (next(n), next(n));
        if u != v && !g.has_edge(NodeId(u), NodeId(v)) {
            break (u, v);
        }
    };
    (
        GraphDelta::new().delete(du, dv).insert(iu, iv),
        GraphDelta::new().delete(iu, iv).insert(du, dv),
    )
}

fn update_barrier(c: &mut Criterion) {
    let (_g, compiled, _scores) = backends();
    let (swap, inverse) = seeded_swap(compiled.csr(), SWAP_SEED);

    let mut group = c.benchmark_group("update_barrier");
    configure(&mut group);
    // `swap_and_inverse` is the barrier alone; `with_diff_reader` also
    // finishes the deferred differential repair after each delta, as
    // a LONA-Forward query behind the barrier would.
    for (label, read_diff) in [("swap_and_inverse", false), ("with_diff_reader", true)] {
        let mut overlay = OverlayGraph::new(&compiled);
        let mut state = compiled.engine_state(HOPS);
        group.bench_function(BenchmarkId::new(label, HOPS), |b| {
            b.iter(|| {
                for delta in [&swap, &inverse] {
                    let applied = overlay.apply(delta).expect("the swap applies");
                    let old = applied.old.expect("the swap changes edges");
                    let warm = state.take().expect("warm state");
                    let (mut next, stats) =
                        repair_engine_state(old.view(), overlay.csr(), &applied.touched, warm);
                    if read_diff {
                        next.prepare_diff_index(overlay.csr(), HOPS);
                    }
                    state = Some(next);
                    criterion::black_box(stats);
                }
            })
        });
    }
    group.finish();
}

criterion_group!(hot_loops, scans, index_builds, update_barrier);
criterion_main!(hot_loops);
