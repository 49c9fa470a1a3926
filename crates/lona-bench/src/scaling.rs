//! The thread-scaling figure: speedup vs. worker count for every
//! algorithm family on the paper's 2-hop SUM workload.
//!
//! The paper closes by proposing to "partition large networks into
//! subnetworks and distribute them into multiple machines"; this
//! figure measures the shared-memory realization of that plan across
//! all three families — Base, Forward and Backward, each one worker
//! loop run at every worker count — with the one-worker run as each
//! family's baseline.
//!
//! [`json`] renders the machine-readable `BENCH_scaling.json` the
//! repo root accumulates so the perf trajectory is diffable across
//! commits (`cargo run --release -p lona-bench --bin figures -- --scaling`).

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use lona_core::{Aggregate, Algorithm, LonaEngine, TopKQuery};
use lona_gen::DatasetKind;

use crate::report::format_duration;
use crate::workload::Workload;

/// Thread counts the sweep measures (1 = one worker, the baseline).
pub const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One `(family, threads)` measurement.
#[derive(Clone, Debug)]
pub struct ScalingPoint {
    /// Algorithm family ("Base", "Forward", "Backward").
    pub family: &'static str,
    /// Worker count (1 = the baseline).
    pub threads: usize,
    /// Best-of-reps wall time.
    pub runtime: Duration,
    /// One-worker runtime of the same family / this runtime.
    pub speedup: f64,
}

/// A measured thread-scaling sweep.
#[derive(Clone, Debug)]
pub struct ScalingData {
    /// Workload description line.
    pub workload: String,
    /// Hop radius (the paper's 2).
    pub hops: u32,
    /// Result size.
    pub k: usize,
    /// Aggregate swept (SUM — the paper's headline workload).
    pub aggregate: Aggregate,
    /// All measurements, grouped by family in [`THREAD_COUNTS`] order.
    pub points: Vec<ScalingPoint>,
}

impl ScalingData {
    /// The speedup of one family at a thread count, if measured.
    pub fn speedup(&self, family: &str, threads: usize) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.family == family && p.threads == threads)
            .map(|p| p.speedup)
    }
}

/// The algorithm of one family; the sweep runs it at every worker
/// count through [`LonaEngine::run_threads`].
fn family_algorithm(family: &str) -> Algorithm {
    match family {
        "Base" => Algorithm::Base,
        "Forward" => Algorithm::forward(),
        "Backward" => Algorithm::backward(),
        other => unreachable!("unknown family {other}"),
    }
}

/// All three families.
pub const FAMILIES: [&str; 3] = ["Base", "Forward", "Backward"];

/// Run the sweep: the paper's 2-hop SUM citation workload, k = 100,
/// every family × every thread count, best-of-`reps` wall times.
pub fn run_scaling(scale: f64, seed: u64, reps: usize, thread_counts: &[usize]) -> ScalingData {
    let workload = Workload::paper(DatasetKind::Citation, scale, 0.01, seed);
    let (g, scores) = workload.build();
    let description = workload.describe(&g, &scores);
    let k = 100.min(g.num_nodes());
    let query = TopKQuery::new(k, Aggregate::Sum);

    let mut engine = LonaEngine::new(&g, 2);
    engine.prepare_diff_index(); // pay every index up front

    let time_best = |engine: &mut LonaEngine<'_>, algorithm: &Algorithm, threads| -> Duration {
        let mut best: Option<Duration> = None;
        for _ in 0..reps.max(1) {
            let t = Instant::now();
            let _ = engine.run_threads(algorithm, threads, &query, &scores);
            let took = t.elapsed();
            if best.is_none_or(|b| took < b) {
                best = Some(took);
            }
        }
        best.unwrap()
    };

    let mut points = Vec::with_capacity(FAMILIES.len() * thread_counts.len());
    for family in FAMILIES {
        let algorithm = family_algorithm(family);
        // The one-worker baseline is measured unconditionally so
        // speedups are well-defined whatever thread_counts the caller
        // passes (its measurement is reused for a threads == 1 entry).
        let serial_runtime = time_best(&mut engine, &algorithm, 1);
        for &threads in thread_counts {
            let runtime = if threads == 1 {
                serial_runtime
            } else {
                time_best(&mut engine, &algorithm, threads)
            };
            points.push(ScalingPoint {
                family,
                threads,
                runtime,
                speedup: serial_runtime.as_secs_f64() / runtime.as_secs_f64().max(1e-9),
            });
        }
    }

    ScalingData {
        workload: description,
        hops: 2,
        k,
        aggregate: Aggregate::Sum,
        points,
    }
}

/// Render the sweep as the ASCII table EXPERIMENTS.md embeds.
pub fn ascii_table(data: &ScalingData) -> String {
    let mut out = String::from("Thread scaling (2-hop SUM, all algorithm families)\n");
    let _ = writeln!(out, "  workload: {}", data.workload);
    let _ = writeln!(out, "  k = {}, hops = {}", data.k, data.hops);
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "  {:<10} {:>8} {:>12} {:>9}",
        "family", "threads", "runtime", "speedup"
    );
    for p in &data.points {
        let _ = writeln!(
            out,
            "  {:<10} {:>8} {:>12} {:>8.2}x",
            p.family,
            p.threads,
            format_duration(p.runtime),
            p.speedup
        );
    }
    out
}

/// Render the sweep as machine-readable JSON (`BENCH_scaling.json`).
/// Hand-rolled: the workspace has no serde, and the schema is flat.
pub fn json(data: &ScalingData) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"experiment\": \"scaling\",");
    let _ = writeln!(out, "  \"workload\": \"{}\",", escape(&data.workload));
    let _ = writeln!(out, "  \"hops\": {},", data.hops);
    let _ = writeln!(out, "  \"k\": {},", data.k);
    let _ = writeln!(out, "  \"aggregate\": \"{}\",", data.aggregate.name());
    let _ = writeln!(out, "  \"series\": [");
    for (fi, family) in FAMILIES.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"family\": \"{family}\",");
        let _ = writeln!(out, "      \"points\": [");
        let family_points: Vec<&ScalingPoint> =
            data.points.iter().filter(|p| p.family == *family).collect();
        for (pi, p) in family_points.iter().enumerate() {
            let _ = writeln!(
                out,
                "        {{\"threads\": {}, \"runtime_s\": {:.6}, \"speedup\": {:.3}}}{}",
                p.threads,
                p.runtime.as_secs_f64(),
                p.speedup,
                if pi + 1 < family_points.len() {
                    ","
                } else {
                    ""
                }
            );
        }
        let _ = writeln!(out, "      ]");
        let _ = writeln!(
            out,
            "    }}{}",
            if fi + 1 < FAMILIES.len() { "," } else { "" }
        );
    }
    let _ = writeln!(out, "  ]");
    out.push_str("}\n");
    out
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_measures_all_cells() {
        let data = run_scaling(0.004, 7, 1, &[1, 2]);
        assert_eq!(data.points.len(), FAMILIES.len() * 2);
        for family in FAMILIES {
            assert_eq!(data.speedup(family, 1), Some(1.0), "{family} baseline");
            assert!(data.speedup(family, 2).unwrap() > 0.0);
        }
    }

    #[test]
    fn baseline_is_serial_whatever_the_slice_order() {
        // thread_counts that does not *start* with 1: every speedup
        // must still be runtime(serial)/runtime(t), never a 1.0
        // placeholder.
        let data = run_scaling(0.004, 7, 1, &[2, 1]);
        for family in FAMILIES {
            let serial = data
                .points
                .iter()
                .find(|p| p.family == family && p.threads == 1)
                .expect("threads=1 point present");
            assert_eq!(serial.speedup, 1.0, "{family} serial baseline");
            let two = data
                .points
                .iter()
                .find(|p| p.family == family && p.threads == 2)
                .unwrap();
            let expect = serial.runtime.as_secs_f64() / two.runtime.as_secs_f64().max(1e-9);
            assert!(
                (two.speedup - expect).abs() < 1e-12,
                "{family}: speedup {} not measured against serial ({expect})",
                two.speedup
            );
        }
    }

    #[test]
    fn json_is_well_formed_enough() {
        let data = run_scaling(0.004, 7, 1, &[1, 2]);
        let j = json(&data);
        assert!(j.starts_with("{\n"));
        assert!(j.trim_end().ends_with('}'));
        assert_eq!(j.matches("\"family\"").count(), 3);
        assert_eq!(j.matches("\"threads\"").count(), 6);
        // Balanced braces and brackets (flat schema, no nesting tricks).
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn table_renders() {
        let data = run_scaling(0.004, 7, 1, &[1, 2]);
        let t = ascii_table(&data);
        assert!(t.contains("Thread scaling"));
        assert!(t.contains("Forward"));
        assert!(t.contains("speedup"));
    }
}
