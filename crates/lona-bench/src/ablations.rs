//! Ablation experiments A1–A8 (DESIGN.md §5): each isolates one
//! design choice the paper leaves open.

use std::fmt::Write as _;
use std::time::Instant;

use lona_core::{
    Aggregate, Algorithm, BackwardOptions, ForwardOptions, GammaSpec, LonaEngine, ProcessingOrder,
    TopKQuery,
};
use lona_gen::DatasetKind;
use lona_relational::{topk_aggregation, EdgeTable, ScoreColumn};

use crate::report::format_duration;
use crate::workload::Workload;

/// A1 — forward processing order. Algorithm 1 leaves the node queue
/// order unspecified; this measures how much it matters.
pub fn ordering(scale: f64, seed: u64) -> String {
    let workload = Workload::paper(DatasetKind::Collaboration, scale, 0.01, seed);
    let (g, scores) = workload.build();
    let mut engine = LonaEngine::new(&g, 2);
    engine.prepare_diff_index();
    let query = TopKQuery::new(100, Aggregate::Sum);

    let mut out = String::from("A1. LONA-Forward processing order (collaboration, SUM, k=100)\n");
    let _ = writeln!(out, "  workload: {}", workload.describe(&g, &scores));
    let _ = writeln!(
        out,
        "  {:<10} {:>12} {:>12} {:>12}",
        "order", "runtime", "evaluated", "pruned"
    );
    for order in [
        ProcessingOrder::NodeId,
        ProcessingOrder::DegreeDescending,
        ProcessingOrder::ScoreDescending,
    ] {
        let alg = Algorithm::LonaForward(ForwardOptions { order });
        let r = engine.run(&alg, &query, &scores);
        let _ = writeln!(
            out,
            "  {:<10} {:>12} {:>12} {:>12}",
            order.name(),
            format_duration(r.stats.runtime),
            r.stats.nodes_evaluated,
            r.stats.nodes_pruned
        );
    }
    out
}

/// A2 — backward threshold γ. §IV says "higher than a given threshold
/// γ" without choosing one; this sweeps the distribution quantile.
pub fn gamma(scale: f64, seed: u64) -> String {
    let workload = Workload::paper(DatasetKind::Collaboration, scale, 0.01, seed);
    let (g, scores) = workload.build();
    let mut engine = LonaEngine::new(&g, 2);
    engine.prepare_size_index();
    let query = TopKQuery::new(100, Aggregate::Sum);

    let mut out = String::from("A2. LONA-Backward gamma (collaboration, SUM, k=100)\n");
    let _ = writeln!(
        out,
        "  {:<16} {:>12} {:>12} {:>14} {:>12}",
        "gamma", "runtime", "distributed", "verified-exact", "expanded"
    );
    let specs: [(String, GammaSpec); 6] = [
        ("fixed 0 (all)".into(), GammaSpec::Fixed(0.0)),
        ("quantile 0.50".into(), GammaSpec::NonzeroQuantile(0.5)),
        ("quantile 0.70".into(), GammaSpec::NonzeroQuantile(0.7)),
        ("quantile 0.90".into(), GammaSpec::NonzeroQuantile(0.9)),
        ("quantile 0.99".into(), GammaSpec::NonzeroQuantile(0.99)),
        ("fixed 0.999".into(), GammaSpec::Fixed(0.999)),
    ];
    for (label, gamma) in specs {
        let alg = Algorithm::LonaBackward(BackwardOptions { gamma });
        let r = engine.run(&alg, &query, &scores);
        let _ = writeln!(
            out,
            "  {:<16} {:>12} {:>12} {:>14} {:>12}",
            label,
            format_duration(r.stats.runtime),
            r.stats.nodes_distributed,
            r.stats.exact_from_bound,
            r.stats.nodes_evaluated
        );
    }
    out
}

/// A3 — index build cost vs per-query savings (the amortization
/// argument behind "pre-computed and stored").
pub fn index_build(scale: f64, seed: u64) -> String {
    let mut out = String::from("A3. Index build cost vs per-query savings (SUM, k=100)\n");
    let _ = writeln!(
        out,
        "  {:<14} {:>12} {:>12} {:>12} {:>12} {:>14}",
        "dataset", "size-idx", "diff-idx", "Base query", "Fwd query", "breakeven@"
    );
    for kind in DatasetKind::ALL {
        let workload = Workload::paper(kind, scale, 0.01, seed);
        let (g, scores) = workload.build();
        let mut engine = LonaEngine::new(&g, 2);
        let t_size = engine.prepare_size_index();
        let t_diff = engine.prepare_diff_index();
        let query = TopKQuery::new(100.min(g.num_nodes()), Aggregate::Sum);
        let base = engine.run(&Algorithm::Base, &query, &scores);
        let fwd = engine.run(&Algorithm::forward(), &query, &scores);
        let saving = base.stats.runtime.as_secs_f64() - fwd.stats.runtime.as_secs_f64();
        let breakeven = if saving > 0.0 {
            format!("{:.0} queries", (t_size + t_diff).as_secs_f64() / saving)
        } else {
            "never".into()
        };
        let _ = writeln!(
            out,
            "  {:<14} {:>12} {:>12} {:>12} {:>12} {:>14}",
            kind.name(),
            format_duration(t_size),
            format_duration(t_diff),
            format_duration(base.stats.runtime),
            format_duration(fwd.stats.runtime),
            breakeven
        );
    }
    out
}

/// A4 — blacking ratio sweep: how score sparsity drives each
/// algorithm (the paper fixes r per figure; Fig. 5's discussion says
/// low r hurts LONA-Forward on AVG).
pub fn blacking(scale: f64, seed: u64) -> String {
    let mut out = String::from("A4. Blacking ratio sweep (collaboration, k=100)\n");
    let _ = writeln!(
        out,
        "  {:<8} {:<6} {:>12} {:>12} {:>12}",
        "r", "aggr", "Base", "Forward", "Backward"
    );
    for aggregate in [Aggregate::Sum, Aggregate::Avg] {
        for r in [0.001, 0.01, 0.05, 0.2, 0.5] {
            let workload = Workload::paper(DatasetKind::Collaboration, scale, r, seed);
            let (g, scores) = workload.build();
            let mut engine = LonaEngine::new(&g, 2);
            engine.prepare_diff_index();
            let query = TopKQuery::new(100, aggregate);
            let base = engine.run(&Algorithm::Base, &query, &scores);
            let fwd = engine.run(&Algorithm::forward(), &query, &scores);
            let bwd = engine.run(&Algorithm::backward(), &query, &scores);
            let _ = writeln!(
                out,
                "  {:<8} {:<6} {:>12} {:>12} {:>12}",
                r,
                aggregate.name(),
                format_duration(base.stats.runtime),
                format_duration(fwd.stats.runtime),
                format_duration(bwd.stats.runtime)
            );
        }
    }
    out
}

/// A5 — hop radius: the paper tests 2-hop ("much harder than 1-hop
/// ... more popular than 3+"); this shows the cost growth per hop.
pub fn hops(scale: f64, seed: u64) -> String {
    let workload = Workload::paper(DatasetKind::Collaboration, scale, 0.01, seed);
    let (g, scores) = workload.build();
    let mut out = String::from("A5. Hop radius (collaboration, SUM, k=100)\n");
    let _ = writeln!(
        out,
        "  {:<4} {:>12} {:>12} {:>12} {:>14}",
        "h", "Base", "Forward", "Backward", "index build"
    );
    for h in 1..=3u32 {
        let mut engine = LonaEngine::new(&g, h);
        let built = engine.prepare_diff_index();
        let query = TopKQuery::new(100, Aggregate::Sum);
        let base = engine.run(&Algorithm::Base, &query, &scores);
        let fwd = engine.run(&Algorithm::forward(), &query, &scores);
        let bwd = engine.run(&Algorithm::backward(), &query, &scores);
        let _ = writeln!(
            out,
            "  {:<4} {:>12} {:>12} {:>12} {:>14}",
            h,
            format_duration(base.stats.runtime),
            format_duration(fwd.stats.runtime),
            format_duration(bwd.stats.runtime),
            format_duration(built)
        );
    }
    out
}

/// A6 — graph engine vs the relational self-join plan (§II's
/// motivation).
pub fn relational(scale: f64, seed: u64) -> String {
    let workload = Workload::paper(DatasetKind::Collaboration, scale, 0.01, seed);
    let (g, scores) = workload.build();
    let mut engine = LonaEngine::new(&g, 2);
    engine.prepare_diff_index();
    let query = TopKQuery::new(100, Aggregate::Sum);

    let mut out =
        String::from("A6. Graph engine vs relational self-join (collaboration, SUM, k=100)\n");
    let _ = writeln!(out, "  workload: {}", workload.describe(&g, &scores));
    for (name, alg) in [
        ("Base", Algorithm::Base),
        ("Forward", Algorithm::forward()),
        ("Backward", Algorithm::backward()),
    ] {
        let r = engine.run(&alg, &query, &scores);
        let _ = writeln!(
            out,
            "  {:<12} {:>12}",
            name,
            format_duration(r.stats.runtime)
        );
    }

    let table = EdgeTable::from_graph(&g);
    let col = ScoreColumn::new(scores.as_slice().to_vec());
    let t = Instant::now();
    let (_, plan) = topk_aggregation(&table, &col, g.num_nodes(), 2, query.k, false, true);
    let took = t.elapsed();
    let _ = writeln!(
        out,
        "  {:<12} {:>12}   (self-join materialized {} rows; distinct {} -> {})",
        "Relational",
        format_duration(took),
        plan.join_output_rows,
        plan.rows_before_distinct,
        plan.rows_after_distinct
    );
    out
}

/// A7 — thread scaling of every algorithm family (the shared-memory
/// form of the paper's "distribute into multiple machines" plan):
/// Base, Forward and Backward at 1, 2, 4 and 8 workers through
/// [`LonaEngine::run_threads`], each against its one-worker run.
pub fn threads(scale: f64, seed: u64) -> String {
    let workload = Workload::paper(DatasetKind::Citation, scale, 0.01, seed);
    let (g, scores) = workload.build();
    let mut engine = LonaEngine::new(&g, 2);
    engine.prepare_diff_index();
    let query = TopKQuery::new(100.min(g.num_nodes()), Aggregate::Sum);

    let mut out = String::from("A7. Thread scaling, all families (citation, SUM, k=100)\n");
    let _ = writeln!(out, "  workload: {}", workload.describe(&g, &scores));
    let _ = writeln!(
        out,
        "  {:<10} {:>8} {:>12} {:>9}",
        "family", "threads", "runtime", "speedup"
    );
    for (name, alg) in [
        ("Base", Algorithm::Base),
        ("Forward", Algorithm::forward()),
        ("Backward", Algorithm::backward()),
    ] {
        let runs = [1usize, 2, 4, 8].map(|threads| {
            let r = engine.run_threads(&alg, threads, &query, &scores);
            (threads, r.stats.runtime)
        });
        let one_worker = runs[0].1;
        for (threads, runtime) in runs {
            let _ = writeln!(
                out,
                "  {:<10} {:>8} {:>12} {:>8.2}x",
                name,
                threads,
                format_duration(runtime),
                one_worker.as_secs_f64() / runtime.as_secs_f64().max(1e-9)
            );
        }
    }
    out
}

/// A8 — scaling: runtime growth with graph size at fixed k. The
/// paper's cost analysis predicts Base grows with `m^h·|V|`; the LONA
/// variants should grow strictly slower, widening the gap as the
/// network grows (the reason "up to 10×" shows at their 3M-node
/// scale).
pub fn scaling(max_scale: f64, seed: u64) -> String {
    let mut out = String::from("A8. Scaling (citation, SUM, k=100)\n");
    let _ = writeln!(
        out,
        "  {:<8} {:>9} {:>12} {:>12} {:>12} {:>10}",
        "scale", "nodes", "Base", "Forward", "Backward", "Base/Bwd"
    );
    for factor in [0.25, 0.5, 1.0] {
        let scale = max_scale * factor;
        let workload = Workload::paper(DatasetKind::Citation, scale, 0.01, seed);
        let (g, scores) = workload.build();
        let mut engine = LonaEngine::new(&g, 2);
        engine.prepare_diff_index();
        let query = TopKQuery::new(100, Aggregate::Sum);
        let base = engine.run(&Algorithm::Base, &query, &scores);
        let fwd = engine.run(&Algorithm::forward(), &query, &scores);
        let bwd = engine.run(&Algorithm::backward(), &query, &scores);
        let ratio = base.stats.runtime.as_secs_f64() / bwd.stats.runtime.as_secs_f64().max(1e-9);
        let _ = writeln!(
            out,
            "  {:<8.3} {:>9} {:>12} {:>12} {:>12} {:>9.1}x",
            scale,
            g.num_nodes(),
            format_duration(base.stats.runtime),
            format_duration(fwd.stats.runtime),
            format_duration(bwd.stats.runtime),
            ratio
        );
    }
    out
}

/// Run one ablation by name; `None` for an unknown name.
pub fn run(name: &str, scale: f64, seed: u64) -> Option<String> {
    Some(match name {
        "ordering" => ordering(scale, seed),
        "gamma" => gamma(scale, seed),
        "index" => index_build(scale, seed),
        "blacking" => blacking(scale, seed),
        "hops" => hops(scale, seed),
        "relational" => relational(scale, seed),
        "threads" => threads(scale, seed),
        "scaling" => scaling(scale, seed),
        _ => return None,
    })
}

/// All ablation names in presentation order.
pub const ALL: [&str; 8] = [
    "ordering",
    "gamma",
    "index",
    "blacking",
    "hops",
    "relational",
    "threads",
    "scaling",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_ablation_runs_at_tiny_scale() {
        for name in ALL {
            let report = run(name, 0.004, 3).unwrap();
            assert!(report.starts_with('A'), "{name} report malformed: {report}");
            assert!(report.lines().count() >= 3, "{name} report too short");
            if name == "threads" {
                assert_threads_table(&report);
            }
        }
    }

    /// A7 covers every family at every worker count, with speedups
    /// measured against that family's one-worker run.
    fn assert_threads_table(report: &str) {
        for family in ["Base", "Forward", "Backward"] {
            let rows: Vec<Vec<&str>> = report
                .lines()
                .map(|l| l.split_whitespace().collect::<Vec<_>>())
                .filter(|cols| cols.first() == Some(&family))
                .collect();
            let workers: Vec<&str> = rows.iter().map(|cols| cols[1]).collect();
            assert_eq!(workers, ["1", "2", "4", "8"], "{family}: {report}");
            assert_eq!(rows[0].last(), Some(&"1.00x"), "{family}: {report}");
        }
    }

    #[test]
    fn unknown_ablation_is_none() {
        assert!(run("nope", 0.01, 1).is_none());
    }
}
