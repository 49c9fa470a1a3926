//! `suite`: one end-to-end benchmark of the LONA workspace.
//!
//! ```text
//! suite run --workload <point-serve|analytic-batch|update-mix|all> --seed N
//!           [--seconds S] [--trace 0|1] [--out DIR] [--tiny]
//! suite compare A/ B/
//! ```
//!
//! `run` stages each workload's inputs in one child process, measures
//! them in a fresh one, prints every metric by name with its unit,
//! writes one result file per workload, and ends with a single JSON
//! line: `correct`, `attempted`, `failed`, and the `end_to_end` metrics
//! of BENCHMARK.json (the `per_layer` ones with `--trace 1`, which also
//! writes `trace-<workload>.jsonl`). The README has the workloads,
//! metrics and baseline.

mod compare;
mod inputs;
mod json;
mod loadgen;
mod measure;
mod replay;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use inputs::{Staged, Workload};
use json::{quote, Json};
use measure::Report;
use trace::Tracer;

/// The benchmark definition: workloads, metrics and their bounds.
const BENCHMARK: &str = include_str!("../../BENCHMARK.json");
/// FNV-1a fingerprints of the inputs `stage` makes for
/// [`FINGERPRINT_SEED`]; a mismatch means a generator changed what the
/// benchmark measures.
const FINGERPRINTS: &str = include_str!("../fingerprints.txt");
const FINGERPRINT_SEED: u64 = 42;
/// Staged inputs and results, relative to the checkout root.
const WORK_DIR: &str = ".bench_build/suite";
/// Staging plus measuring one workload must end within this.
const WORKLOAD_DEADLINE: Duration = Duration::from_secs(170);
const DEFAULT_SECONDS: f64 = 30.0;

const USAGE: &str = "usage:
  suite run --workload <point-serve|analytic-batch|update-mix|all> --seed N
            [--seconds S] [--trace 0|1] [--out DIR] [--tiny]
  suite compare A/ B/";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = cli(&args).unwrap_or_else(|e| {
        eprintln!("suite: {e}");
        2
    });
    std::process::exit(code);
}

struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Stage every workload at a few thousand nodes (the smoke test).
    tiny: bool,
    out: PathBuf,
    dir: Option<PathBuf>,
    rest: Vec<String>,
}

fn flag_value<'a>(
    it: &mut impl Iterator<Item = &'a String>,
    name: &str,
) -> Result<&'a String, String> {
    it.next().ok_or_else(|| format!("{name} needs a value"))
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        workload: None,
        seed: FINGERPRINT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        tiny: false,
        out: Path::new(WORK_DIR).join("results"),
        dir: None,
        rest: Vec::new(),
    };
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" => f.workload = Some(flag_value(&mut it, a)?.clone()),
            "--seed" => {
                f.seed = flag_value(&mut it, a)?
                    .parse()
                    .map_err(|_| "--seed needs a whole number")?
            }
            "--seconds" => {
                f.seconds = flag_value(&mut it, a)?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?
            }
            // `--trace 0|1`, or a bare `--trace`.
            "--trace" => {
                f.trace = true;
                if let Some(v @ ("0" | "1")) = it.peek().map(|s| s.as_str()) {
                    f.trace = v == "1";
                    it.next();
                }
            }
            "--tiny" => f.tiny = true,
            "--out" => f.out = PathBuf::from(flag_value(&mut it, a)?),
            "--dir" => f.dir = Some(PathBuf::from(flag_value(&mut it, a)?)),
            s if s.starts_with("--") => return Err(format!("unknown flag {s}\n{USAGE}")),
            _ => f.rest.push(a.clone()),
        }
    }
    Ok(f)
}

fn cli(args: &[String]) -> Result<i32, String> {
    let (cmd, rest) = args.split_first().ok_or(USAGE)?;
    let f = parse_flags(rest)?;
    let workload = || Workload::parse(f.workload.as_deref().ok_or("--workload is required")?);
    let dir = || f.dir.clone().ok_or("--dir is required");
    match cmd.as_str() {
        "run" => run(&f),
        "compare" => {
            let [a, b] = &f.rest[..] else {
                return Err(USAGE.into());
            };
            let (table, regressed) = compare::compare(Path::new(a), Path::new(b), &bench()?)?;
            print!("{table}");
            Ok(regressed as i32)
        }
        // The child processes `run` and `measure` start.
        "serve" => measure::serve_until_eof(&dir()?).map(|_| 0),
        "stage" => inputs::stage(workload()?, f.seed, f.seconds, &dir()?, f.tiny).map(|_| 0),
        "measure" => {
            let w = workload()?;
            let staged = Staged::load(&dir()?)?;
            let mut tr = Tracer::new(f.trace);
            let report = measure::measure(w, &staged, f.seconds, &mut tr)?;
            if tr.on() {
                create_dir(&f.out)?;
                tr.write_jsonl(&f.out.join(format!("trace-{}.jsonl", w.name())))?;
            }
            print!("{}", report.to_lines());
            Ok(0)
        }
        _ => Err(USAGE.into()),
    }
}

fn bench() -> Result<Json, String> {
    json::parse(BENCHMARK).map_err(|e| format!("BENCHMARK.json: {e}"))
}

/// `(name, unit)` of each metric in one BENCHMARK.json section.
fn bench_metrics(bench: &Json, section: &str) -> Vec<(String, String)> {
    let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
    bench
        .get(section)
        .map(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

fn create_dir(dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))
}

/// Run this binary as a child with `args`, kill it at `deadline`, and
/// return its standard output.
fn child(args: &[String], deadline: Instant) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let mut proc = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start `suite {}`: {e}", args[0]))?;
    let mut stdout = proc.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        stdout.read_to_string(&mut text).map(|_| text)
    });
    let status = loop {
        match proc.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            outcome => {
                let _ = proc.kill();
                let _ = proc.wait();
                break Err(match outcome {
                    Err(e) => e.to_string(),
                    _ => "did not finish in time".into(),
                });
            }
        }
    };
    let text = reader.join().expect("output reader panicked");
    match status {
        Ok(s) if s.success() => {
            text.map_err(|e| format!("cannot read `suite {}` output: {e}", args[0]))
        }
        Ok(s) => Err(format!("`suite {}` failed ({s})", args[0])),
        Err(e) => Err(format!("`suite {}`: {e}", args[0])),
    }
}

/// The commit the checkout was made from, read from `.git` in the
/// current directory only ("unknown" outside a git checkout).
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let rev = read("HEAD").and_then(|head| match head.trim().strip_prefix("ref: ") {
        None => Some(head.trim().to_string()),
        Some(r) => read(r).map(|s| s.trim().to_string()).or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split(' ').next())
                .map(str::to_string)
        }),
    });
    rev.unwrap_or_else(|| "unknown".into())
}

/// Refuse inputs that no longer match the recorded fingerprints.
fn check_fingerprints(w: Workload, seed: u64, staged: &Staged) -> Result<(), String> {
    if seed != FINGERPRINT_SEED {
        return Ok(());
    }
    for (component, hash) in &staged.fingerprints {
        let recorded =
            FINGERPRINTS
                .lines()
                .find_map(|l| match l.split_whitespace().collect::<Vec<_>>()[..] {
                    [name, c, h] if name == w.name() && c == component => Some(h),
                    _ => None,
                });
        match recorded {
            Some(h) if h == hash => {}
            Some(h) => {
                return Err(format!(
                    "{} inputs drifted: {component} fingerprint {hash}, recorded {h}; \
                     a generator changed what the benchmark measures",
                    w.name()
                ))
            }
            None => {
                return Err(format!(
                    "no recorded fingerprint for {} {component}",
                    w.name()
                ))
            }
        }
    }
    Ok(())
}

/// Stage and measure one workload. A traced run measures twice, half
/// the time each: untraced, then traced; the ratio of their end-to-end
/// metrics is the tracing overhead.
fn run_workload(w: Workload, f: &Flags, bench: &Json) -> Result<(Staged, Report), String> {
    let deadline = Instant::now() + WORKLOAD_DEADLINE;
    let dir = Path::new(WORK_DIR).join(format!("stage-{}-{}", w.name(), f.seed));
    let _ = std::fs::remove_dir_all(&dir);
    let args = |cmd: &str, seconds: f64, trace: bool| -> Vec<String> {
        let mut a: Vec<String> = [cmd, "--workload", w.name(), "--seed"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        a.push(f.seed.to_string());
        for (k, v) in [
            ("--seconds", seconds.to_string()),
            ("--dir", dir.display().to_string()),
            ("--trace", (trace as u8).to_string()),
            ("--out", f.out.display().to_string()),
        ] {
            a.push(k.into());
            a.push(v);
        }
        a
    };
    let mut stage = args("stage", f.seconds, false);
    if f.tiny {
        stage.push("--tiny".into());
    }
    let measured = child(&stage, deadline).and_then(|_| {
        let staged = Staged::load(&dir)?;
        if !f.tiny {
            check_fingerprints(w, f.seed, &staged)?;
        }
        let measure = |seconds, trace| {
            Report::from_lines(&child(&args("measure", seconds, trace), deadline)?)
        };
        let report = if f.trace {
            let base = measure(f.seconds / 2.0, false)?;
            let mut traced = measure(f.seconds / 2.0, true)?;
            for (name, _) in bench_metrics(bench, "end_to_end") {
                if let (Some(a), Some(b)) = (base.get(&name), traced.get(&name)) {
                    let ratio = b.1 / a.1;
                    traced.put(&format!("overhead.{name}"), ratio, "ratio");
                }
            }
            traced
        } else {
            measure(f.seconds, false)?
        };
        Ok((staged, report))
    });
    let _ = std::fs::remove_dir_all(&dir);
    measured
}

fn run(f: &Flags) -> Result<i32, String> {
    let bench = bench()?;
    let spec = f.workload.as_deref().ok_or("--workload is required")?;
    let workloads = match spec {
        "all" => Workload::ALL.to_vec(),
        one => vec![Workload::parse(one)?],
    };
    create_dir(&f.out)?;
    let section = if f.trace { "per_layer" } else { "end_to_end" };
    let wanted = bench_metrics(&bench, section);
    let (rev, nproc) = (
        git_rev(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut last_line = Vec::new();
    for &w in &workloads {
        let (staged, rep) = run_workload(w, f, &bench)?;
        println!(
            "== {} (seed {}, {} s, nproc {nproc}, rev {rev}{})",
            w.name(),
            f.seed,
            f.seconds,
            if f.trace { ", traced" } else { "" }
        );
        println!("   input: {}", staged.description);
        for (name, value, unit) in &rep.metrics {
            println!("   {name:<26} {value:>14.6} {unit}");
        }
        println!(
            "   attempted {}  failed {}  wrong {}  error_rate {:.6}  valid {}",
            rep.attempted,
            rep.failed,
            rep.wrong,
            (rep.failed + rep.wrong) as f64 / rep.attempted.max(1) as f64,
            rep.valid
        );
        let file = f.out.join(format!(
            "result-{}-seed{}{}.json",
            w.name(),
            f.seed,
            if f.trace { "-trace" } else { "" }
        ));
        std::fs::write(&file, result_json(w, f, &rev, nproc, &staged, &rep))
            .map_err(|e| format!("cannot write {}: {e}", file.display()))?;

        correct &= rep.wrong == 0;
        attempted += rep.attempted;
        failed += rep.failed + rep.wrong;
        for (name, unit) in &wanted {
            let (_, value, _) = rep
                .get(name)
                .ok_or_else(|| format!("{} did not measure {name}", w.name()))?;
            let key = match workloads.len() {
                1 => name.clone(),
                _ => format!("{}/{name}", w.name()),
            };
            last_line.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&key),
                json::num(*value),
                quote(unit)
            ));
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        last_line.join(", ")
    );
    Ok(if correct { 0 } else { 1 })
}

/// One run's result file: everything `compare` and a reader need.
fn result_json(
    w: Workload,
    f: &Flags,
    rev: &str,
    nproc: usize,
    st: &Staged,
    rep: &Report,
) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"workload\": {},", quote(w.name()));
    let _ = writeln!(out, "  \"seed\": {},", f.seed);
    let _ = writeln!(out, "  \"seconds\": {},", json::num(f.seconds));
    let _ = writeln!(out, "  \"trace\": {},", f.trace);
    let _ = writeln!(out, "  \"nproc\": {nproc},");
    let _ = writeln!(out, "  \"git_rev\": {},", quote(rev));
    let _ = writeln!(out, "  \"input\": {},", quote(&st.description));
    let prints: Vec<String> = st
        .fingerprints
        .iter()
        .map(|(k, v)| format!("{}: {}", quote(k), quote(v)))
        .collect();
    let _ = writeln!(out, "  \"fingerprints\": {{{}}},", prints.join(", "));
    let _ = writeln!(out, "  \"valid\": {},", rep.valid);
    let _ = writeln!(out, "  \"correct\": {},", rep.wrong == 0);
    let _ = writeln!(out, "  \"attempted\": {},", rep.attempted);
    let _ = writeln!(out, "  \"failed\": {},", rep.failed + rep.wrong);
    let metrics: Vec<String> = rep
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "    {}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                json::num(*value),
                quote(unit)
            )
        })
        .collect();
    let _ = writeln!(out, "  \"metrics\": {{\n{}\n  }}", metrics.join(",\n"));
    out.push_str("}\n");
    out
}
