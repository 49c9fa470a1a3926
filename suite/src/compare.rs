//! `suite compare A/ B/`: the runs of a parent (A) against those of a
//! change (B), one row per (workload, end-to-end metric) plus the error
//! rate, judged with the bounds in BENCHMARK.json.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::json::{self, Json};
use crate::stats::{median, quartiles};

/// One untraced, valid run read from a result file.
struct Run {
    seed: u64,
    metrics: BTreeMap<String, f64>,
    attempted: f64,
    failed: f64,
}

/// Every untraced run in `dir` whose fixed-rate phases kept their
/// schedule, by workload, in seed order.
fn load(dir: &Path) -> Result<BTreeMap<String, Vec<Run>>, String> {
    let mut out: BTreeMap<String, Vec<Run>> = BTreeMap::new();
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !name.starts_with("result-") || !name.ends_with(".json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let v = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let flag = |k: &str| v.get(k).and_then(Json::as_bool);
        if flag("trace") == Some(true) || flag("valid") == Some(false) {
            continue;
        }
        let num = |k: &str| v.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let metrics = v
            .get("metrics")
            .and_then(Json::as_object)
            .map(|m| {
                m.iter()
                    .filter_map(|(k, x)| Some((k.clone(), x.get("value")?.as_f64()?)))
                    .collect()
            })
            .unwrap_or_default();
        let workload = v.get("workload").and_then(Json::as_str).unwrap_or("?");
        out.entry(workload.to_string()).or_default().push(Run {
            seed: num("seed") as u64,
            metrics,
            attempted: num("attempted"),
            failed: num("failed"),
        });
    }
    for runs in out.values_mut() {
        runs.sort_by_key(|r| r.seed);
    }
    Ok(out)
}

/// The verdict for one metric, by the rule the benchmark fixes:
/// - regressed: B's median is worse than A's by more than `bound`;
/// - improved: B wins at least nine tenths of the seed-paired runs and
///   the medians differ by more than A's interquartile range;
/// - unresolved: either side's spread is wider than `bound`, unless
///   every run of B reads better than every run of A;
/// - unchanged otherwise.
pub fn judge(
    a: &[f64],
    b: &[f64],
    pairs: &[(f64, f64)],
    lower_better: bool,
    bound: f64,
) -> &'static str {
    let better = |x: f64, y: f64| if lower_better { x < y } else { x > y };
    let (ma, mb) = (median(a), median(b));
    let rel = |d: f64, m: f64| if m == 0.0 { 0.0 } else { d / m.abs() };
    let worse_by = rel(if lower_better { mb - ma } else { ma - mb }, ma);
    let ((q1a, q3a), (q1b, q3b)) = (quartiles(a), quartiles(b));
    let spread = rel(q3a - q1a, ma).max(rel(q3b - q1b, mb));
    let wins = pairs.iter().filter(|(pa, pb)| better(*pb, *pa)).count();
    let all_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    if worse_by > bound {
        "regressed"
    } else if !pairs.is_empty()
        && wins * 10 >= pairs.len() * 9
        && better(mb, ma)
        && (mb - ma).abs() > q3a - q1a
    {
        "improved"
    } else if spread > bound && !all_better {
        "unresolved"
    } else {
        "unchanged"
    }
}

/// Compare the result files in `a` and `b`; returns the table and
/// whether any row regressed.
pub fn compare(a: &Path, b: &Path, bench: &Json) -> Result<(String, bool), String> {
    let (runs_a, runs_b) = (load(a)?, load(b)?);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<15} {:<15} {:>12} {:>10} {:>12} {:>10} {:>6}  verdict",
        "workload", "metric", "A median", "A IQR", "B median", "B IQR", "wins"
    );
    let mut regressed = false;
    for (workload, ra) in &runs_a {
        let Some(rb) = runs_b.get(workload) else {
            continue;
        };
        for m in bench.get("end_to_end").map(Json::as_array).unwrap_or(&[]) {
            let name = m.get("name").and_then(Json::as_str).unwrap_or("");
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let lower = m.get("better").and_then(Json::as_str) == Some("lower");
            let values = |runs: &[Run]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.metrics.get(name).copied())
                    .collect()
            };
            let (va, vb) = (values(ra), values(rb));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let pairs: Vec<(f64, f64)> = ra
                .iter()
                .filter_map(|x| {
                    let y = rb.iter().find(|y| y.seed == x.seed)?;
                    Some((*x.metrics.get(name)?, *y.metrics.get(name)?))
                })
                .collect();
            let verdict = judge(&va, &vb, &pairs, lower, bound);
            regressed |= verdict == "regressed";
            let iqr = |v: &[f64]| {
                let (q1, q3) = quartiles(v);
                q3 - q1
            };
            let better = |&(x, y): &(f64, f64)| if lower { y < x } else { y > x };
            let _ = writeln!(
                out,
                "{:<15} {:<15} {:>12.4} {:>10.4} {:>12.4} {:>10.4} {:>3}/{:<2}  {verdict}",
                workload,
                name,
                median(&va),
                iqr(&va),
                median(&vb),
                iqr(&vb),
                pairs.iter().filter(|p| better(p)).count(),
                pairs.len()
            );
        }
        let rate = |runs: &[Run]| {
            let attempted: f64 = runs.iter().map(|r| r.attempted).sum();
            runs.iter().map(|r| r.failed).sum::<f64>() / attempted.max(1.0)
        };
        let (ea, eb) = (rate(ra), rate(rb));
        let verdict = if eb > ea { "regressed" } else { "unchanged" };
        regressed |= eb > ea;
        let _ = writeln!(
            out,
            "{:<15} {:<15} {:>12.6} {:>10} {:>12.6} {:>10} {:>6}  {verdict}",
            workload, "error_rate", ea, "", eb, "", ""
        );
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_rule() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0];
        let pair =
            |b: &[f64]| -> Vec<(f64, f64)> { a.iter().copied().zip(b.iter().copied()).collect() };
        let same = a.map(|x| x + 0.01);
        assert_eq!(judge(&a, &same, &pair(&same), true, 0.1), "unchanged");
        let slower = a.map(|x| x * 1.2);
        assert_eq!(judge(&a, &slower, &pair(&slower), true, 0.1), "regressed");
        let faster = a.map(|x| x * 0.9);
        assert_eq!(judge(&a, &faster, &pair(&faster), true, 0.1), "improved");
        let noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0];
        assert_eq!(judge(&a, &noisy, &pair(&noisy), true, 0.1), "unresolved");
        // Higher-is-better metrics flip the direction.
        assert_eq!(judge(&a, &slower, &pair(&slower), false, 0.1), "improved");
    }
}
