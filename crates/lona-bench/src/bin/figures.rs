//! Regenerate the paper's figures and ablations from the command line.
//!
//! ```sh
//! # All six figures at the default (figure) scales:
//! cargo run --release -p lona-bench --bin figures
//!
//! # One figure, custom scale/seed/repetitions:
//! cargo run --release -p lona-bench --bin figures -- --fig 2 --scale 0.05 --reps 5
//!
//! # Ablations (A7 is the worker-count sweep):
//! cargo run --release -p lona-bench --bin figures -- --ablation all
//!
//! # Quick smoke (small scales, 1 rep):
//! cargo run --release -p lona-bench --bin figures -- --quick
//! ```
//!
//! CSV files land in `results/` next to the workspace root.

use std::path::PathBuf;
use std::process::ExitCode;

use lona_bench::{ablations, figures::FIGURES, report, run_figure};
use lona_gen::{DatasetKind, DatasetProfile};

const USAGE: &str = "usage: figures [--fig N|all] [--ablation NAME|all] \
                     [--scale F] [--seed N] [--reps N] [--out DIR] [--quick]";

#[derive(Debug)]
struct Args {
    fig: Option<u32>,
    ablation: Option<String>,
    scale: Option<f64>,
    seed: u64,
    reps: usize,
    quick: bool,
    /// `--out DIR` if given; figures default to `results/`.
    out_dir: Option<PathBuf>,
}

/// What the command line asks for.
#[derive(Debug)]
enum Invocation {
    Run(Args),
    Help,
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Invocation, String> {
    let mut args = Args {
        fig: None,
        ablation: None,
        scale: None,
        seed: 42,
        reps: 3,
        quick: false,
        out_dir: None,
    };
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--fig" => {
                let v = value("--fig")?;
                if v != "all" {
                    let known: Vec<u32> = FIGURES.iter().map(|s| s.id).collect();
                    match v.parse() {
                        Ok(id) if known.contains(&id) => args.fig = Some(id),
                        _ => return Err(format!("unknown figure `{v}` (known: {known:?})")),
                    }
                }
            }
            "--ablation" => args.ablation = Some(value("--ablation")?),
            "--scale" => {
                args.scale = Some(
                    value("--scale")?
                        .parse()
                        .map_err(|e| format!("bad scale: {e}"))?,
                )
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?
            }
            "--reps" => {
                args.reps = value("--reps")?
                    .parse()
                    .map_err(|e| format!("bad reps: {e}"))?
            }
            "--out" => args.out_dir = Some(PathBuf::from(value("--out")?)),
            "--quick" => args.quick = true,
            "--help" | "-h" => return Ok(Invocation::Help),
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    Ok(Invocation::Run(args))
}

fn figure_scale(dataset: DatasetKind, args: &Args) -> f64 {
    if let Some(s) = args.scale {
        return s;
    }
    if args.quick {
        return DatasetProfile::smoke(dataset, 0).scale;
    }
    DatasetProfile::figure_default(dataset, 0).scale
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Invocation::Run(a)) => a,
        Ok(Invocation::Help) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let reps = if args.quick { 1 } else { args.reps };

    // Ablation-only invocation.
    if let Some(name) = &args.ablation {
        let scale = args.scale.unwrap_or(if args.quick { 0.01 } else { 0.1 });
        let names: Vec<&str> = if name == "all" {
            ablations::ALL.to_vec()
        } else {
            vec![name.as_str()]
        };
        for n in names {
            match ablations::run(n, scale, args.seed) {
                Some(report) => println!("{report}"),
                None => {
                    eprintln!("unknown ablation `{n}` (known: {:?})", ablations::ALL);
                    return ExitCode::FAILURE;
                }
            }
        }
        return ExitCode::SUCCESS;
    }

    let out_dir = args
        .out_dir
        .clone()
        .unwrap_or_else(|| PathBuf::from("results"));
    if std::fs::create_dir_all(&out_dir).is_err() {
        eprintln!("cannot create output directory {out_dir:?}");
        return ExitCode::FAILURE;
    }

    for spec in FIGURES
        .iter()
        .filter(|s| args.fig.is_none_or(|f| f == s.id))
    {
        let scale = figure_scale(spec.dataset, &args);
        eprintln!("running {} at scale {scale} (reps {reps})...", spec.title());
        let data = run_figure(spec, scale, args.seed, reps);
        println!("{}", report::ascii_table(&data));
        let csv_path = out_dir.join(format!("fig{}.csv", spec.id));
        if let Err(e) = std::fs::write(&csv_path, report::csv(&data)) {
            eprintln!("failed to write {csv_path:?}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("  -> {csv_path:?}");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Invocation, String> {
        parse_args(argv.iter().map(|s| s.to_string()))
    }

    #[test]
    fn help_is_not_an_error() {
        for flag in ["--help", "-h"] {
            assert!(matches!(parse(&[flag]), Ok(Invocation::Help)), "{flag}");
        }
        // Even after other flags.
        assert!(matches!(
            parse(&["--quick", "--help"]),
            Ok(Invocation::Help)
        ));
    }

    #[test]
    fn figure_ids_outside_the_paper_are_rejected() {
        for bad in ["0", "7", "-1", "two"] {
            let err = parse(&["--fig", bad]).unwrap_err();
            assert!(err.contains("unknown figure"), "{bad}: {err}");
            assert!(err.contains("[1, 2, 3, 4, 5, 6]"), "{bad}: {err}");
        }
        for id in 1..=6u32 {
            match parse(&["--fig", &id.to_string()]) {
                Ok(Invocation::Run(args)) => assert_eq!(args.fig, Some(id)),
                other => panic!("--fig {id}: {other:?}"),
            }
        }
        match parse(&["--fig", "all"]) {
            Ok(Invocation::Run(args)) => assert_eq!(args.fig, None),
            other => panic!("--fig all: {other:?}"),
        }
    }
}
