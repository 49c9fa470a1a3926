//! Per-layer replays for the traced run. The benchmark calls each
//! layer's public functions on the workload's own staged inputs, one
//! span per call, and reads the counters the calls return. Every layer
//! is replayed on every workload, so each per-layer metric has a value
//! on each; which end-to-end metric it should move is in the README.

use std::hint::black_box;
use std::time::Duration;

use lona_core::serve::codec::{decode_inbound, decode_reply, encode_reply_v2, encode_request_v2};
use lona_core::serve::{
    binary_scores, serve_algorithm, Reply, Request, Response, ScoreRef, ServeStats,
};
use lona_core::{
    plan_query, repair_engine_state, BatchMode, BatchOptions, BatchQuery, CompiledGraph,
    EngineState, GraphDelta, LonaEngine, OverlayGraph, PlannerConfig, QueryResult, TopKQuery,
};
use lona_graph::GraphStore;
use lona_relevance::ScoreVec;

use crate::inputs::{Staged, Workload, HOPS, REPLAY_SWAPS};
use crate::measure::{analytic_query, parse_edge_list, request_query, Report};
use crate::stats::mean;
use crate::trace::Tracer;

/// Serve requests the engine, plan, batch and codec replays use.
const REPLAY_QUERIES: usize = 128;
/// Codec calls are sub-microsecond; each frame is coded this often.
const CODEC_ROUNDS: usize = 20;

fn micros_per(d: Duration, calls: usize) -> f64 {
    d.as_secs_f64() * 1e6 / calls.max(1) as f64
}

/// Apply `f` to every item [`CODEC_ROUNDS`] times inside one span;
/// returns the last round's outputs and the time per call in µs.
fn per_call<T, U>(
    tr: &mut Tracer,
    name: &str,
    parent: u64,
    items: &[T],
    f: impl Fn(&T) -> U,
) -> (Vec<U>, f64) {
    let (out, t) = tr.time(name, parent, || {
        for _ in 1..CODEC_ROUNDS {
            black_box(items.iter().map(&f).collect::<Vec<_>>());
        }
        items.iter().map(&f).collect::<Vec<_>>()
    });
    (out, micros_per(t, items.len() * CODEC_ROUNDS))
}

/// Replay every layer and add its metrics to `rep`.
pub fn run(w: Workload, st: &Staged, tr: &mut Tracer, rep: &mut Report) -> Result<(), String> {
    let root = tr.begin("replay", 0);

    let (g, t) = tr.time("io.read_edge_list", root, || parse_edge_list(st));
    let g = g?;
    rep.put("io.parse_s", t.as_secs_f64(), "s");

    let (c, t) = tr.time("compiled.load", root, || {
        CompiledGraph::load(&st.container())
    });
    c.map_err(|e| format!("cannot load the container: {e}"))?;
    rep.put("compiled.load_s", t.as_secs_f64(), "s");
    let bytes = std::fs::metadata(st.container()).map_or(0, |m| m.len());
    rep.put("compiled.file_mb", bytes as f64 / 1e6, "MB");

    let mut state = EngineState::new();
    let (_, t) = tr.time("index.prepare_size_index", root, || {
        state.prepare_size_index(g.view(), HOPS)
    });
    rep.put("index.size_build_s", t.as_secs_f64(), "s");
    let (_, t) = tr.time("index.prepare_diff_index", root, || {
        state.prepare_diff_index(g.view(), HOPS)
    });
    rep.put("index.diff_build_s", t.as_secs_f64(), "s");
    let mut engine = LonaEngine::from_state(&g, HOPS, state);
    let n = g.num_nodes();

    // Serve request preparation, on the staged serve requests.
    let reqs = &st.requests[..REPLAY_QUERIES.min(st.requests.len())];
    let queries: Vec<TopKQuery> = reqs.iter().map(request_query).collect();
    let (scores, t) = tr.time("serve.binary_scores", root, || {
        reqs.iter()
            .map(|r| binary_scores(&r.sources, n))
            .collect::<Vec<_>>()
    });
    rep.put("serve.scores_us", micros_per(t, reqs.len()), "us");
    let (forced, t) = tr.time("serve.serve_algorithm", root, || {
        queries
            .iter()
            .zip(&scores)
            .map(|(q, s)| serve_algorithm(&engine, q, s))
            .collect::<Vec<_>>()
    });
    rep.put("serve.plan_us", micros_per(t, reqs.len()), "us");

    // The replay set: serve requests forced to what the server runs, or
    // one analytic query per (relevance, k, aggregate) cell, planned.
    let set: Vec<(TopKQuery, &ScoreVec, Option<_>)> = match w {
        Workload::AnalyticBatch => {
            let mut cells = Vec::new();
            st.queries
                .iter()
                .filter(|q| {
                    let new = !cells.contains(&q.cell());
                    cells.push(q.cell());
                    new
                })
                .map(|q| (analytic_query(q), &st.vectors[q.vector], None))
                .collect()
        }
        _ => queries
            .iter()
            .zip(&scores)
            .zip(&forced)
            .map(|((q, s), a)| (*q, s, Some(*a)))
            .collect(),
    };

    let cfg = PlannerConfig::default();
    let (plans, t) = tr.time("plan.plan_query", root, || {
        set.iter()
            .map(|(q, s, _)| plan_query(&engine, q, s, &cfg))
            .collect::<Vec<_>>()
    });
    rep.put("plan.us", micros_per(t, set.len()), "us");
    for (family, name) in [
        ("base", "Base"),
        ("forward", "Forward"),
        ("backward", "Backward"),
        ("backward_naive", "BackwardNaive"),
    ] {
        let hits = plans
            .iter()
            .filter(|p| p.algorithm.name().trim_start_matches("Parallel") == name)
            .count();
        rep.put(
            &format!("plan.share.{family}"),
            hits as f64 / plans.len() as f64,
            "ratio",
        );
    }

    let algorithms: Vec<_> = set
        .iter()
        .zip(&plans)
        .map(|((_, _, f), p)| f.unwrap_or(p.algorithm))
        .collect();
    let results: Vec<QueryResult> = set
        .iter()
        .zip(&algorithms)
        .map(|((q, s, _), a)| {
            tr.time("engine.run_prepared", root, || engine.run_prepared(a, q, s))
                .0
        })
        .collect();
    let sum = |f: fn(&QueryResult) -> f64| results.iter().map(f).sum::<f64>();
    let serial_s = sum(|r| r.stats.runtime.as_secs_f64());
    let edges = sum(|r| r.stats.edges_traversed as f64);
    let evaluated = sum(|r| r.stats.nodes_evaluated as f64);
    let pruned = sum(|r| r.stats.nodes_pruned as f64);
    // Of the exact evaluations, at most k per query end in the answer;
    // a plan that evaluates nothing exactly wastes none.
    let useful: f64 = set
        .iter()
        .zip(&results)
        .map(|((q, _, _), r)| q.k.min(r.stats.nodes_evaluated) as f64)
        .sum();
    let count = results.len() as f64;
    rep.put("engine.ms", serial_s * 1e3 / count, "ms");
    rep.put("engine.edges", edges / count, "count");
    rep.put("engine.evaluated", evaluated / count, "count");
    rep.put(
        "engine.pruned_frac",
        pruned / (evaluated + pruned).max(1.0),
        "ratio",
    );
    rep.put(
        "engine.distributed",
        sum(|r| r.stats.nodes_distributed as f64) / count,
        "count",
    );
    let useful_frac = if evaluated > 0.0 {
        useful / evaluated
    } else {
        1.0
    };
    rep.put("engine.useful_frac", useful_frac, "ratio");
    rep.put("engine.ns_per_edge", serial_s * 1e9 / edges.max(1.0), "ns");

    let batch: Vec<BatchQuery<'_>> = set
        .iter()
        .map(|&(q, s, f)| match f {
            Some(a) => BatchQuery::new(q, s).force(a),
            None => BatchQuery::new(q, s),
        })
        .collect();
    let (out, wall) = tr.time("batch.run_batch", root, || {
        engine.run_batch(&batch, &BatchOptions::default())
    });
    rep.put("batch.wall_s", wall.as_secs_f64(), "s");
    rep.put(
        "batch.intra_frac",
        f64::from(out.mode == BatchMode::IntraQuery),
        "ratio",
    );
    rep.put(
        "batch.efficiency",
        serial_s / (wall.as_secs_f64() * out.threads as f64),
        "ratio",
    );

    // The codec on this workload's own frames: its serve requests, and
    // replies carrying the replayed answers.
    let requests: Vec<Request> = reqs
        .iter()
        .enumerate()
        .map(|(i, r)| Request {
            id: i as u64,
            scores: ScoreRef::Sources(r.sources.clone()),
            k: r.k,
            hops: HOPS,
            aggregate: r.aggregate,
            include_self: r.include_self,
        })
        .collect();
    let replies: Vec<Reply> = results
        .iter()
        .enumerate()
        .map(|(i, r)| {
            Reply::Ok(Response {
                id: i as u64,
                entries: r.entries.iter().map(|&(u, v)| (u.0, v)).collect(),
                stats: ServeStats::from_query(&r.stats),
            })
        })
        .collect();
    let (req_frames, us) = per_call(
        tr,
        "codec.encode_request_v2",
        root,
        &requests,
        encode_request_v2,
    );
    rep.put("codec.req_encode_us", us, "us");
    let (req_ok, us) = per_call(tr, "codec.decode_inbound", root, &req_frames, |f| {
        black_box(decode_inbound(f)).is_ok()
    });
    rep.put("codec.req_decode_us", us, "us");
    let (reply_frames, us) = per_call(tr, "codec.encode_reply_v2", root, &replies, encode_reply_v2);
    rep.put("codec.reply_encode_us", us, "us");
    let (reply_ok, us) = per_call(tr, "codec.decode_reply", root, &reply_frames, |f| {
        black_box(decode_reply(f)).is_ok()
    });
    rep.put("codec.reply_decode_us", us, "us");
    if req_ok.contains(&false) || reply_ok.contains(&false) {
        return Err("the codec rejected a frame it encoded".into());
    }
    let mean_len =
        |frames: &[Vec<u8>]| mean(&frames.iter().map(|f| f.len() as f64).collect::<Vec<_>>());
    rep.put("codec.req_bytes", mean_len(&req_frames), "bytes");
    rep.put("codec.reply_bytes", mean_len(&reply_frames), "bytes");

    // The update path on the staged swaps: overlay apply, index repair
    // of the warm state, compaction.
    let mut state = engine.into_state();
    let mut overlay = OverlayGraph::new(&g);
    let (mut apply, mut repair, mut compact) = (Vec::new(), Vec::new(), Vec::new());
    let (mut dirty, mut repaired, mut avoided) = (Vec::new(), 0.0, 0.0);
    for s in st.swaps.iter().take(REPLAY_SWAPS) {
        let delta = GraphDelta::new()
            .delete(s.del.0, s.del.1)
            .insert(s.ins.0, s.ins.1);
        let (applied, t) = tr.time("overlay.apply", root, || overlay.apply(&delta));
        let applied = applied.map_err(|e| format!("staged swap does not apply: {e}"))?;
        apply.push(t.as_secs_f64() * 1e3);
        let old = applied
            .old
            .as_ref()
            .ok_or("a staged swap changed nothing")?;
        let ((next, stats), t) = tr.time("delta.repair_engine_state", root, || {
            repair_engine_state(old.view(), overlay.csr(), &applied.touched, state)
        });
        state = next;
        repair.push(t.as_secs_f64() * 1e3);
        dirty.push(stats.dirty_nodes as f64);
        repaired += stats.entries_repaired as f64;
        avoided += stats.rebuild_avoided_units as f64;
        let (_, t) = tr.time("overlay.compact", root, || overlay.compact());
        compact.push(t.as_secs_f64() * 1e3);
    }
    rep.put("overlay.apply_ms", mean(&apply), "ms");
    rep.put("overlay.compact_ms", mean(&compact), "ms");
    rep.put("delta.repair_ms", mean(&repair), "ms");
    rep.put("delta.dirty_nodes", mean(&dirty), "count");
    rep.put(
        "delta.entries_repaired",
        repaired / apply.len().max(1) as f64,
        "count",
    );
    rep.put(
        "delta.repaired_frac",
        repaired / (repaired + avoided).max(1.0),
        "ratio",
    );
    tr.end(root);
    Ok(())
}
