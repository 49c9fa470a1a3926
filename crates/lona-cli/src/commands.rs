//! Subcommand implementations. Each returns its report as an
//! [`Execution`] (text plus an ok/failed verdict) so the logic is
//! unit-testable; `main` only prints and maps the verdict onto the
//! process exit code.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write as IoWrite};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lona_core::delta::{apply_score_overrides, repair_engine_state, RepairStats};
use lona_core::exec::resolve_threads;
use lona_core::serve::{
    histogram_count, histogram_quantile_checked, ErrorCode, Reply, ServeClient, ServeOptions,
    Server, StatsReport,
};
use lona_core::{
    compile_to_file, Aggregate, Algorithm, BatchOptions, BatchQuery, CompileSpec, CompiledGraph,
    EngineState, LonaEngine, PlannerConfig, ShardOptions, ShardedEngine, TopKQuery,
};
use lona_gen::DatasetProfile;
use lona_graph::algo::{
    clustering_coefficient, connected_components, core_decomposition, estimate_distances,
    DegreeStats,
};
use lona_graph::io::{read_edge_list, write_edge_list, EdgeListOptions};
use lona_graph::partition::{partition, PartitionStrategy, ShardedGraph};
use lona_graph::{CsrGraph, GraphDelta, GraphStore, NodeOrder, OverlayGraph};
use lona_relevance::{MixtureBuilder, ScoreVec};

use crate::args::{AlgorithmChoice, Command};

/// The outcome of a successfully-executed command: the text to print
/// on stdout plus whether the run counts as a success for the exit
/// code. `Err(String)` from [`execute`] still means "could not run at
/// all"; `ok: false` means "ran, printed its output, but some of the
/// work failed" — e.g. `lona client` received error replies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Execution {
    /// Text for stdout (already-streamed commands return empty).
    pub report: String,
    /// Whether the process should exit 0.
    pub ok: bool,
}

impl Execution {
    fn done(report: String) -> Execution {
        Execution { report, ok: true }
    }
}

/// Execute a parsed command; returns the text to print and the exit
/// verdict.
pub fn execute(command: &Command) -> Result<Execution, String> {
    match command {
        Command::Help => Ok(Execution::done(crate::args::USAGE.to_string())),
        Command::Stats { input } => {
            // A socket address polls a running server; anything else
            // is a graph on disk.
            if input.parse::<std::net::SocketAddr>().is_ok() {
                remote_stats(input).map(Execution::done)
            } else {
                stats(input).map(Execution::done)
            }
        }
        Command::Generate {
            kind,
            out,
            scale,
            seed,
        } => {
            let profile = DatasetProfile {
                kind: *kind,
                scale: *scale,
                seed: *seed,
            };
            generate(&profile, out).map(Execution::done)
        }
        Command::Compile {
            input,
            out,
            scores,
            blacking,
            binary,
            seed,
            hops,
        } => compile_cmd(
            input,
            out,
            scores.as_deref(),
            *blacking,
            *binary,
            *seed,
            hops,
        )
        .map(Execution::done),
        Command::Update {
            input,
            delta,
            out,
            hops,
            scores,
            scores_out,
            verify,
        } => update_cmd(
            input,
            delta,
            out.as_deref(),
            hops,
            scores.as_deref(),
            scores_out.as_deref(),
            *verify,
        )
        .map(Execution::done),
        Command::Compact {
            input,
            out,
            delta,
            hops,
        } => compact_cmd(input, out, delta.as_deref(), hops.as_deref()).map(Execution::done),
        Command::Shard {
            input,
            shards,
            strategy,
            halo,
        } => shard_report(input, *shards, *strategy, *halo).map(Execution::done),
        Command::Batch {
            input,
            compiled,
            queries,
            threads,
            algorithm,
            sequential,
            chunk,
            exclude_self,
            shards,
            strategy,
        } => {
            if *sequential && *shards > 1 {
                return Err("--sequential and --shards are mutually exclusive".into());
            }
            let text = read_text(queries)?;
            let opts = BatchRunOptions {
                threads: *threads,
                force: *algorithm,
                sequential: *sequential,
                chunk: *chunk,
                include_self: !*exclude_self,
                shards: *shards,
                strategy: *strategy,
            };
            // Stream result lines to stdout as each chunk completes;
            // the summary goes to stderr so batch and --sequential
            // stdout stay byte-identical.
            let stdout = std::io::stdout();
            let mut lock = stdout.lock();
            // Per-line parsing: malformed lines become `q{i} error:`
            // result lines instead of aborting the whole batch.
            let summary = if *compiled {
                let c = load_compiled(input)?;
                let lines = parse_query_lines(&text, c.csr().num_nodes());
                run_batch_file(&c, &lines, &opts, c.warm_states(), &mut lock)?
            } else {
                let g = load_graph(input)?;
                let lines = parse_query_lines(&text, g.num_nodes());
                run_batch_file(&g, &lines, &opts, BTreeMap::new(), &mut lock)?
            };
            lock.flush().map_err(|e| format!("stdout: {e}"))?;
            eprint!("{}", summary.describe());
            Ok(Execution::done(String::new()))
        }
        Command::Serve {
            input,
            compiled,
            addr,
            threads,
            window_us,
            max_batch,
            shards,
            strategy,
            halo,
            register,
            queue_capacity,
            max_connections,
            io_timeout_ms,
        } => serve_forever(
            input,
            *compiled,
            addr,
            ServeOptions {
                threads: *threads,
                window: Duration::from_micros(*window_us),
                max_batch: *max_batch,
                queue_capacity: *queue_capacity,
                max_connections: *max_connections,
                io_timeout: match *io_timeout_ms {
                    0 => None,
                    ms => Some(Duration::from_millis(ms)),
                },
                ..Default::default()
            },
            if *shards > 1 {
                Some((*shards, *strategy, *halo))
            } else {
                None
            },
            register,
        )
        .map(Execution::done),
        Command::Client {
            addr,
            queries,
            exclude_self,
        } => {
            let stdout = std::io::stdout();
            let mut lock = stdout.lock();
            let run = run_client_file(addr, queries, !*exclude_self, &mut lock)?;
            lock.flush().map_err(|e| format!("stdout: {e}"))?;
            eprint!("{}", run.summary);
            // Any error reply — local parse failure or a server-side
            // rejection — fails the invocation for scripting.
            Ok(Execution {
                report: String::new(),
                ok: run.errors == 0,
            })
        }
        Command::TopK {
            input,
            compiled,
            k,
            hops,
            aggregate,
            algorithm,
            scores,
            blacking,
            binary,
            seed,
            exclude_self,
            threads,
            shards,
            strategy,
        } => {
            if *compiled {
                let c = load_compiled(input)?;
                let score_vec = match scores {
                    Some(path) => load_scores(path, c.csr().num_nodes())?,
                    None => c.scores().cloned().ok_or_else(|| {
                        format!("{input} carries no score vector; pass --scores FILE")
                    })?,
                };
                if *shards > 1 {
                    return sharded_topk(
                        &c,
                        &score_vec,
                        *k,
                        *hops,
                        *aggregate,
                        *algorithm,
                        !*exclude_self,
                        *threads,
                        *shards,
                        *strategy,
                    )
                    .map(Execution::done);
                }
                return topk(
                    &c,
                    &score_vec,
                    *k,
                    *hops,
                    *aggregate,
                    *algorithm,
                    !*exclude_self,
                    *threads,
                    c.engine_state(*hops),
                )
                .map(Execution::done);
            }
            let g = load_graph(input)?;
            let score_vec = match scores {
                Some(path) => load_scores(path, g.num_nodes())?,
                None => {
                    let mut mix = MixtureBuilder::new(*blacking);
                    if *binary {
                        mix = mix.binary();
                    }
                    mix.build(&g, *seed)
                }
            };
            if *shards > 1 {
                sharded_topk(
                    &g,
                    &score_vec,
                    *k,
                    *hops,
                    *aggregate,
                    *algorithm,
                    !*exclude_self,
                    *threads,
                    *shards,
                    *strategy,
                )
                .map(Execution::done)
            } else {
                topk(
                    &g,
                    &score_vec,
                    *k,
                    *hops,
                    *aggregate,
                    *algorithm,
                    !*exclude_self,
                    *threads,
                    None,
                )
                .map(Execution::done)
            }
        }
    }
}

fn load_compiled(path: &str) -> Result<CompiledGraph, String> {
    CompiledGraph::load(Path::new(path)).map_err(|e| format!("cannot load {path}: {e}"))
}

fn load_graph(path: &str) -> Result<CsrGraph, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    read_edge_list(BufReader::new(file), &EdgeListOptions::default())
        .map_err(|e| format!("cannot parse {path}: {e}"))
}

fn load_scores(path: &str, n: usize) -> Result<ScoreVec, String> {
    let text = read_text(path)?;
    let values: Result<Vec<f64>, String> = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
        .map(|(i, l)| {
            l.trim()
                .parse::<f64>()
                .map_err(|e| format!("{path}:{}: bad score: {e}", i + 1))
        })
        .collect();
    let values = values?;
    if values.len() != n {
        return Err(format!(
            "{path} has {} scores but the graph has {n} nodes",
            values.len()
        ));
    }
    Ok(ScoreVec::new(values))
}

fn stats(input: &str) -> Result<String, String> {
    let g = load_graph(input)?;
    let deg = DegreeStats::of(&g);
    let cc = connected_components(&g);
    let cores = core_decomposition(&g);
    let dist = estimate_distances(&g, 16);

    let mut out = String::new();
    let _ = writeln!(out, "graph: {input}");
    let _ = writeln!(
        out,
        "  nodes {}  edges {}  {}  memory {:.1} MiB",
        g.num_nodes(),
        g.num_edges(),
        if g.is_directed() {
            "directed"
        } else {
            "undirected"
        },
        g.memory_bytes() as f64 / (1024.0 * 1024.0)
    );
    let _ = writeln!(
        out,
        "  degree: mean {:.2}  median {}  p99 {}  max {}",
        deg.mean, deg.median, deg.p99, deg.max
    );
    let _ = writeln!(
        out,
        "  components: {} (largest {})",
        cc.num_components(),
        cc.largest()
    );
    let _ = writeln!(out, "  degeneracy (max k-core): {}", cores.degeneracy);
    if g.num_edges() <= 2_000_000 {
        let _ = writeln!(
            out,
            "  clustering (transitivity): {:.4}",
            clustering_coefficient(&g)
        );
    }
    let _ = writeln!(
        out,
        "  distances (sampled {} sources): mean {:.2}  eff. diameter {}  max seen {}",
        dist.sources, dist.mean_distance, dist.effective_diameter, dist.max_distance
    );
    Ok(out)
}

/// One histogram line of the remote-stats report: p50/p95/p99 are
/// bucket upper bounds of the server's base-2 log histograms, so each
/// is an overestimate by at most 2x — honest enough for load triage,
/// cheap enough to record on every request.
fn stats_line(out: &mut String, label: &str, buckets: &[u64], unit: &str) {
    let n = histogram_count(buckets);
    // A histogram with no observations has no quantiles; render `-`
    // rather than a fabricated 0µs latency.
    let q = |q: f64| match histogram_quantile_checked(buckets, q) {
        Some(v) => format!("{v}{unit}"),
        None => "-".to_string(),
    };
    let _ = writeln!(
        out,
        "  {label:<11} p50 {}  p95 {}  p99 {}  ({n} samples)",
        q(0.50),
        q(0.95),
        q(0.99),
    );
}

/// Render a [`StatsReport`] as the `lona stats <addr>` report.
pub fn format_stats_report(addr: &str, r: &StatsReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "serve stats @ {addr}:");
    let _ = writeln!(
        out,
        "  connections {}  rejected {}  queue depth {}",
        r.connections, r.conn_rejected, r.queue_depth
    );
    let _ = writeln!(
        out,
        "  admitted {}  shed {}  error replies {}  rejected frames {}  \
         timeouts {}  index builds {}",
        r.admitted, r.shed, r.error_replies, r.rejected_frames, r.timeouts, r.index_builds
    );
    stats_line(&mut out, "queue wait:", &r.queue_wait, "µs");
    stats_line(&mut out, "dispatch:", &r.dispatch, "µs");
    stats_line(&mut out, "end-to-end:", &r.end_to_end, "µs");
    stats_line(&mut out, "batch size:", &r.batch_size, "");
    out
}

/// `lona stats <addr>`: poll a running `lona serve` for its counters
/// and latency histograms.
fn remote_stats(addr: &str) -> Result<String, String> {
    let mut client = ServeClient::connect(addr)
        .timeout(Duration::from_secs(10))
        .open()
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let report = client.stats().map_err(|e| format!("{addr}: {e}"))?;
    Ok(format_stats_report(addr, &report))
}

fn generate(profile: &DatasetProfile, out_path: &str) -> Result<String, String> {
    let g = profile
        .generate()
        .map_err(|e| format!("generation failed: {e}"))?;
    let file = File::create(out_path).map_err(|e| format!("cannot create {out_path}: {e}"))?;
    write_edge_list(&g, BufWriter::new(file)).map_err(|e| format!("write failed: {e}"))?;
    Ok(format!("{}\nwritten to {out_path}\n", profile.describe(&g)))
}

/// `lona shard`: partition a graph and report the shard layout.
fn shard_report(
    input: &str,
    shards: usize,
    strategy: PartitionStrategy,
    halo: u32,
) -> Result<String, String> {
    let g = load_graph(input)?;
    if g.is_directed() {
        return Err("sharding requires an undirected graph".into());
    }
    let sharded = partition(&g, shards, strategy, halo).map_err(|e| e.to_string())?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{input}: {} nodes, {} edges -> {} shards ({strategy}, halo {halo})",
        g.num_nodes(),
        g.num_edges(),
        sharded.num_shards()
    );
    let _ = writeln!(
        out,
        "  edge cut: {}  replication factor: {:.3}",
        sharded.edge_cut(),
        sharded.replication_factor()
    );
    for (i, shard) in sharded.shards().iter().enumerate() {
        let _ = writeln!(
            out,
            "  shard {i}: owned {:<8} halo {:<8} boundary {:<8} edges {}",
            shard.owned_count(),
            shard.halo_count(),
            shard.boundary_count(),
            shard.graph().num_edges()
        );
    }
    Ok(out)
}

/// `lona compile`: pack graph + scores + per-radius indexes into one
/// mmap-able file. The score default mirrors `lona topk`'s generation
/// exactly, so a compiled run and an edge-list run of the same seed
/// answer identically.
fn compile_cmd(
    input: &str,
    out: &str,
    scores: Option<&str>,
    blacking: f64,
    binary: bool,
    seed: u64,
    hops: &[u32],
) -> Result<String, String> {
    let g = load_graph(input)?;
    let score_vec = match scores {
        Some(path) => load_scores(path, g.num_nodes())?,
        None => {
            let mut mix = MixtureBuilder::new(blacking);
            if binary {
                mix = mix.binary();
            }
            mix.build(&g, seed)
        }
    };
    let spec = CompileSpec {
        graph: g.view(),
        scores: Some(&score_vec),
        hops,
        with_diff: true,
        order: NodeOrder::Natural,
    };
    compile_to_file(&spec, Path::new(out)).map_err(|e| format!("compile failed: {e}"))?;
    let bytes = std::fs::metadata(out)
        .map(|m| m.len())
        .map_err(|e| format!("cannot stat {out}: {e}"))?;
    Ok(format!(
        "{} nodes, {} edges, radii {hops:?} -> compiled {out} ({bytes} bytes)\n",
        g.num_nodes(),
        g.num_edges(),
    ))
}

/// `lona update`: apply a text delta to an edge-list graph and repair
/// per-radius indexes incrementally instead of rebuilding them. The
/// report prints the deterministic repair counters (dirty nodes,
/// entries repaired, rebuild-avoided units, and the differential-index
/// units deferred to their first reader) so scripts and CI can gate on
/// "the repair stayed local" without trusting wall-clock.
fn update_cmd(
    input: &str,
    delta_path: &str,
    out: Option<&str>,
    hops: &[u32],
    scores: Option<&str>,
    scores_out: Option<&str>,
    verify: bool,
) -> Result<String, String> {
    let g = load_graph(input)?;
    let delta =
        GraphDelta::parse_str(&read_text(delta_path)?).map_err(|e| format!("{delta_path}: {e}"))?;
    if delta.is_empty() {
        return Err(format!("{delta_path} contains no operations"));
    }
    if !delta.score_overrides.is_empty() && scores.is_none() {
        return Err(format!(
            "{delta_path} contains score overrides; pass --scores FILE to apply them"
        ));
    }
    if scores_out.is_some() && scores.is_none() {
        return Err("--scores-out requires --scores".into());
    }
    let score_vec = scores.map(|p| load_scores(p, g.num_nodes())).transpose()?;
    let (n, old_edges) = (g.num_nodes(), g.num_edges());

    // Build the per-radius indexes on the *old* graph first — this is
    // the warm state a long-running deployment already holds, and the
    // thing delta-repair exists to preserve.
    let mut states: BTreeMap<u32, EngineState> = BTreeMap::new();
    for &h in hops {
        let mut st = EngineState::new();
        st.prepare_size_index(g.view(), h);
        st.prepare_diff_index(g.view(), h);
        states.insert(h, st);
    }

    let mut overlay = OverlayGraph::new(g);
    let applied = overlay.apply(&delta).map_err(|e| e.to_string())?;

    let mut out_text = String::new();
    let _ = writeln!(
        out_text,
        "update {input} + {delta_path}: +{} -{} edges, {} score overrides",
        applied.inserted, applied.deleted, applied.scores_overridden
    );
    let _ = writeln!(
        out_text,
        "  nodes {n}  edges {old_edges} -> {}",
        overlay.csr().num_edges()
    );

    let mut repaired: BTreeMap<u32, EngineState> = BTreeMap::new();
    let mut total = RepairStats::default();
    for (h, st) in states {
        match &applied.old {
            Some(old) => {
                let (st, stats) =
                    repair_engine_state(old.view(), overlay.csr(), &applied.touched, st);
                let _ = writeln!(out_text, "  radius {h}: {}", repair_line(&stats));
                // A repaired state counts zero builds — the gate that
                // proves no full rebuild hid inside the repair.
                if st.index_builds() != 0 {
                    return Err(format!(
                        "radius {h}: repair triggered {} full index builds",
                        st.index_builds()
                    ));
                }
                total.merge(&stats);
                repaired.insert(h, st);
            }
            None => {
                let _ = writeln!(
                    out_text,
                    "  radius {h}: score-only delta, indexes untouched"
                );
                repaired.insert(h, st);
            }
        }
    }
    if applied.old.is_some() && hops.len() > 1 {
        let _ = writeln!(out_text, "  total: {}", repair_line(&total));
    }

    if verify {
        for (&h, st) in &mut repaired {
            // Finish the deferred differential repair the way a query
            // would; it stays an install, not a build.
            let builds = st.index_builds();
            st.prepare_diff_index(overlay.csr(), h);
            if st.index_builds() != builds {
                return Err(format!(
                    "radius {h}: finishing the repair triggered {} full index builds",
                    st.index_builds() - builds
                ));
            }
            let mut fresh = EngineState::new();
            fresh.prepare_size_index(overlay.csr(), h);
            fresh.prepare_diff_index(overlay.csr(), h);
            if fresh.size_index() != st.size_index() {
                return Err(format!("radius {h}: repaired size index != fresh rebuild"));
            }
            if fresh.diff_index() != st.diff_index() {
                return Err(format!("radius {h}: repaired diff index != fresh rebuild"));
            }
        }
        let _ = writeln!(
            out_text,
            "  verify: repaired indexes match a fresh rebuild at radii {hops:?}"
        );
    }

    if let Some(base) = &score_vec {
        let updated = apply_score_overrides(base, overlay.score_overrides());
        if let Some(path) = scores_out {
            let mut text = String::new();
            for s in updated.as_slice() {
                let _ = writeln!(text, "{s}");
            }
            std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
            let _ = writeln!(out_text, "  updated scores -> {path}");
        }
    }

    if let Some(path) = out {
        let file = File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
        write_edge_list(&overlay.into_graph(), BufWriter::new(file))
            .map_err(|e| format!("write failed: {e}"))?;
        let _ = writeln!(out_text, "  updated graph -> {path}");
    }
    Ok(out_text)
}

/// One `lona update` counter line.
fn repair_line(stats: &RepairStats) -> String {
    format!(
        "dirty nodes {}  entries repaired {}  rebuild avoided {} units  deferred {} units",
        stats.dirty_nodes,
        stats.entries_repaired,
        stats.rebuild_avoided_units,
        stats.deferred_units
    )
}

/// `lona compact`: fold an optional delta into a compiled container
/// and re-emit it as a fresh file, with freshly built indexes.
fn compact_cmd(
    input: &str,
    out: &str,
    delta: Option<&str>,
    hops: Option<&[u32]>,
) -> Result<String, String> {
    let c = load_compiled(input)?;
    let mut score_vec = c.scores().cloned();
    let (n, old_edges) = (c.csr().num_nodes(), c.csr().num_edges());

    let mut overlay = OverlayGraph::new(&c);
    let mut applied_line = String::new();
    if let Some(path) = delta {
        let d = GraphDelta::parse_str(&read_text(path)?).map_err(|e| format!("{path}: {e}"))?;
        let applied = overlay.apply(&d).map_err(|e| e.to_string())?;
        if applied.scores_overridden > 0 {
            let base = score_vec.as_ref().ok_or_else(|| {
                format!("{input} carries no score vector; cannot apply score overrides")
            })?;
            score_vec = Some(apply_score_overrides(base, overlay.score_overrides()));
        }
        let _ = writeln!(
            applied_line,
            "  applied {path}: +{} -{} edges, {} score overrides",
            applied.inserted, applied.deleted, applied.scores_overridden
        );
    }
    let new_g = overlay.into_graph();

    let radii: Vec<u32> = match hops {
        Some(h) => h.to_vec(),
        None => c.hops_list(),
    };
    let spec = CompileSpec {
        graph: new_g.view(),
        scores: score_vec.as_ref(),
        hops: &radii,
        with_diff: true,
        order: NodeOrder::Natural,
    };
    compile_to_file(&spec, Path::new(out)).map_err(|e| format!("compile failed: {e}"))?;
    // The whole point is a loadable container; prove it.
    let reloaded = load_compiled(out)?;
    let bytes = std::fs::metadata(out)
        .map(|m| m.len())
        .map_err(|e| format!("cannot stat {out}: {e}"))?;
    Ok(format!(
        "compact {input} -> {out}: {n} nodes, {old_edges} -> {} edges, radii {radii:?} \
         ({bytes} bytes)\n{applied_line}",
        reloaded.csr().num_edges(),
    ))
}

fn read_text(path: &str) -> Result<String, String> {
    let mut text = String::new();
    File::open(path)
        .and_then(|mut f| f.read_to_string(&mut text))
        .map_err(|e| format!("cannot read {path}: {e}"))?;
    Ok(text)
}

/// Map a CLI algorithm choice onto a concrete [`Algorithm`].
fn choice_to_algorithm(choice: AlgorithmChoice) -> Algorithm {
    match choice {
        AlgorithmChoice::Base => Algorithm::Base,
        AlgorithmChoice::Forward => Algorithm::forward(),
        AlgorithmChoice::BackwardNaive => Algorithm::BackwardNaive,
        AlgorithmChoice::Backward => Algorithm::backward(),
    }
}

/// One parsed line of a batch query file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuerySpec {
    /// Nodes scored 1 (binary relevance); every other node scores 0.
    /// Empty when `named` carries the relevance reference instead.
    pub sources: Vec<u32>,
    /// A server-registered relevance function (`@name/...` lines,
    /// `lona client` only — a local batch has no registry).
    pub named: Option<String>,
    /// Number of results.
    pub k: usize,
    /// Hop radius.
    pub hops: u32,
    /// Aggregate function.
    pub aggregate: Aggregate,
}

/// One non-blank, non-comment line of a query file: its 1-based line
/// number and either the parsed spec or the reason it was rejected.
/// Malformed lines flow through the batch as `q{i} error:` result
/// lines instead of aborting everything after them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryLine {
    /// 1-based line number in the source file.
    pub lineno: usize,
    /// The parsed spec, or why this line was rejected (message
    /// without the `line N:` prefix — callers add placement).
    pub parsed: Result<QuerySpec, String>,
}

/// Parse one query line: `source-set/k/hops/aggregate`, e.g.
/// `3,17,29/10/2/sum`, or (when `allow_named`) `@name/k/hops/agg` to
/// reference a server-registered relevance function. k=0, hops=0,
/// empty source sets and out-of-range nodes are rejected here, at
/// parse time.
fn parse_query_line(line: &str, num_nodes: usize, allow_named: bool) -> Result<QuerySpec, String> {
    let fields: Vec<&str> = line.split('/').collect();
    if fields.len() != 4 {
        return Err(format!(
            "expected `source-set/k/hops/aggregate`, got {} field(s)",
            fields.len()
        ));
    }
    let relevance = fields[0].trim();
    let (sources, named) = if let Some(name) = relevance.strip_prefix('@') {
        if !allow_named {
            return Err(format!(
                "named relevance `@{name}` requires `lona client` against \
                 a server started with --register"
            ));
        }
        let name = name.trim();
        if name.is_empty() {
            return Err("empty relevance function name".into());
        }
        (Vec::new(), Some(name.to_string()))
    } else {
        let sources: Vec<u32> = relevance
            .split(',')
            .map(|s| {
                let s = s.trim();
                s.parse::<u32>()
                    .map_err(|e| format!("bad source node `{s}`: {e}"))
            })
            .collect::<Result<_, _>>()?;
        if sources.is_empty() {
            return Err("empty source set".into());
        }
        for &u in &sources {
            if (u as usize) >= num_nodes {
                return Err(format!(
                    "source node {u} out of range (graph has {num_nodes} nodes)"
                ));
            }
        }
        (sources, None)
    };
    let k: usize = fields[1]
        .trim()
        .parse()
        .map_err(|e| format!("bad k `{}`: {e}", fields[1].trim()))?;
    if k == 0 {
        return Err("k must be at least 1".into());
    }
    let hops: u32 = fields[2]
        .trim()
        .parse()
        .map_err(|e| format!("bad hops `{}`: {e}", fields[2].trim()))?;
    if hops == 0 {
        return Err("hops must be at least 1".into());
    }
    let aggregate: Aggregate = fields[3].trim().parse()?;
    Ok(QuerySpec {
        sources,
        named,
        k,
        hops,
        aggregate,
    })
}

/// Parse a batch query file line by line: one
/// `source-set/k/hops/aggregate` per line, `#` comments and blank
/// lines ignored. Every surviving line gets an entry — bad lines
/// carry their error instead of poisoning the rest of the file. Pass
/// `usize::MAX` as `num_nodes` to defer source-range checking (the
/// client mode does; the server re-validates against its own graph).
pub fn parse_query_lines(text: &str, num_nodes: usize) -> Vec<QueryLine> {
    parse_lines_inner(text, num_nodes, false)
}

/// [`parse_query_lines`] for `lona client`: source-range checks are
/// deferred to the server (pass-through of `usize::MAX`), and
/// `@name/k/hops/agg` lines referencing a server-registered relevance
/// function are accepted.
pub fn parse_client_query_lines(text: &str) -> Vec<QueryLine> {
    parse_lines_inner(text, usize::MAX, true)
}

fn parse_lines_inner(text: &str, num_nodes: usize, allow_named: bool) -> Vec<QueryLine> {
    text.lines()
        .enumerate()
        .filter(|(_, raw)| {
            let line = raw.trim();
            !line.is_empty() && !line.starts_with('#')
        })
        .map(|(i, raw)| QueryLine {
            lineno: i + 1,
            parsed: parse_query_line(raw.trim(), num_nodes, allow_named),
        })
        .collect()
}

/// Strict variant of [`parse_query_lines`]: the first bad line fails
/// the whole file, with the line number in the message.
pub fn parse_query_file(text: &str, num_nodes: usize) -> Result<Vec<QuerySpec>, String> {
    parse_query_lines(text, num_nodes)
        .into_iter()
        .map(|l| l.parsed.map_err(|e| format!("line {}: {e}", l.lineno)))
        .collect()
}

/// Options for [`run_batch_file`].
#[derive(Clone, Debug)]
pub struct BatchRunOptions {
    /// Worker budget (0 = one per core).
    pub threads: usize,
    /// Planner override for every query.
    pub force: Option<AlgorithmChoice>,
    /// Run a plain sequential `Engine::run` loop instead of the batch
    /// subsystem (the determinism reference).
    pub sequential: bool,
    /// Queries per processing chunk.
    pub chunk: usize,
    /// Whether `F(u)` includes `f(u)`.
    pub include_self: bool,
    /// Shard count (1 = single engine; more routes every query
    /// through the scatter-gather engine).
    pub shards: usize,
    /// Partition strategy when `shards > 1`.
    pub strategy: PartitionStrategy,
}

/// What a batch run reports to stderr (kept off stdout so batch and
/// sequential stdout stay byte-identical).
#[derive(Clone, Debug, Default)]
pub struct BatchSummary {
    /// Queries executed.
    pub queries: usize,
    /// Total execution wall time (index builds excluded).
    pub wall: Duration,
    /// Total index build time charged (once per engine).
    pub index_build: Duration,
    /// `(plan label, count)` histogram, label-sorted.
    pub plan_counts: BTreeMap<String, usize>,
    /// Whether the batch subsystem (vs. the sequential loop) ran.
    pub batched: bool,
    /// Resolved worker count the run was given.
    pub workers: usize,
    /// Shard count the run executed with (1 = single engine).
    pub shards: usize,
    /// Sharded runs only: re-queries the TA coordinator skipped,
    /// summed over the batch.
    pub requeries_skipped: usize,
    /// Malformed query lines answered with `q{i} error:` lines.
    pub errors: usize,
}

impl BatchSummary {
    /// Render the stderr report.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        let secs = self.wall.as_secs_f64();
        let qps = if secs > 0.0 {
            self.queries as f64 / secs
        } else {
            f64::INFINITY
        };
        let _ = writeln!(
            out,
            "{} {} queries in {:.3?} ({qps:.0} q/s), index build {:.3?}",
            if self.batched {
                "batch:"
            } else {
                "sequential:"
            },
            self.queries,
            self.wall,
            self.index_build,
        );
        // Workers and shards on one line so a reader can check the
        // two knobs were set consistently at a glance.
        let _ = writeln!(out, "  workers {}  shards {}", self.workers, self.shards);
        if self.errors > 0 {
            let _ = writeln!(out, "  rejected {} malformed line(s)", self.errors);
        }
        if self.shards > 1 {
            let _ = writeln!(
                out,
                "  coordinator: {} shard re-queries skipped",
                self.requeries_skipped
            );
        }
        for (label, count) in &self.plan_counts {
            let _ = writeln!(out, "  plan {label}: {count}");
        }
        out
    }
}

/// Write one query's result line. This line format is the byte-level
/// contract between batch and sequential mode: it must not depend on
/// timing, plan choice, or thread count.
fn write_result_line(
    sink: &mut dyn IoWrite,
    index: usize,
    spec: &QuerySpec,
    entries: &[(lona_graph::NodeId, f64)],
) -> Result<(), String> {
    let mut line = format!(
        "q{index} k={} hops={} agg={}:",
        spec.k,
        spec.hops,
        spec.aggregate.name()
    );
    for (node, value) in entries {
        let _ = write!(line, " {node}={value:.6}");
    }
    line.push('\n');
    sink.write_all(line.as_bytes())
        .map_err(|e| format!("write failed: {e}"))
}

/// Write one rejected query's error line. Same placement and `q{i}`
/// indexing as result lines, so output order always mirrors input
/// order — and the line is identical whether the rejection happened
/// at local parse time (`lona batch`) or on the server
/// (`lona client`), which reuses the same message text.
fn write_error_line(
    sink: &mut dyn IoWrite,
    index: usize,
    lineno: usize,
    reason: &str,
) -> Result<(), String> {
    writeln!(sink, "q{index} error: line {lineno}: {reason}")
        .map_err(|e| format!("write failed: {e}"))
}

/// Execute a parsed query file against one graph, streaming one line
/// per query-file line (input order) to `sink`: a result line for
/// every valid query, a `q{i} error:` line for every malformed one.
///
/// Queries are processed in chunks of `opts.chunk` (bounding score
/// vector memory); within a chunk they are grouped by hop radius —
/// engines and their indexes are per-radius and persist across
/// chunks, so index builds amortize over the whole file. `warm` seeds
/// per-radius engine states (the compiled path passes its mapped
/// indexes; radii not covered fall back to building as usual).
pub fn run_batch_file<G: GraphStore + ?Sized>(
    g: &G,
    lines: &[QueryLine],
    opts: &BatchRunOptions,
    warm: BTreeMap<u32, EngineState>,
    sink: &mut dyn IoWrite,
) -> Result<BatchSummary, String> {
    let num_nodes = g.csr().num_nodes();
    let mut warm = warm;
    // Sharded mode partitions once, at the deepest hop radius any
    // query needs, so every per-hops engine stays exact.
    let sharded_graph: Option<ShardedGraph> = if opts.shards > 1 {
        if g.csr().is_directed() {
            return Err("--shards requires an undirected graph".into());
        }
        let halo = lines
            .iter()
            .filter_map(|l| l.parsed.as_ref().ok())
            .map(|s| s.hops)
            .max()
            .unwrap_or(2);
        Some(partition(g, opts.shards, opts.strategy, halo).map_err(|e| e.to_string())?)
    } else {
        None
    };
    let mut engines: BTreeMap<u32, LonaEngine<'_>> = BTreeMap::new();
    let mut sharded_engines: BTreeMap<u32, ShardedEngine<'_>> = BTreeMap::new();
    let mut summary = BatchSummary {
        batched: !opts.sequential,
        workers: resolve_threads(opts.threads, usize::MAX),
        shards: opts.shards,
        ..Default::default()
    };

    for (chunk_start, chunk) in lines
        .chunks(opts.chunk.max(1))
        .enumerate()
        .map(|(ci, c)| (ci * opts.chunk.max(1), c))
    {
        // Valid queries of this chunk, with their chunk positions;
        // malformed lines skip execution and surface as error lines
        // in the output pass below.
        let valid: Vec<(usize, &QuerySpec)> = chunk
            .iter()
            .enumerate()
            .filter_map(|(i, l)| l.parsed.as_ref().ok().map(|s| (i, s)))
            .collect();

        // Materialize this chunk's binary score vectors.
        let score_vecs: Vec<ScoreVec> = valid
            .iter()
            .map(|(_, spec)| {
                let mut values = vec![0.0; num_nodes];
                for &u in &spec.sources {
                    values[u as usize] = 1.0;
                }
                ScoreVec::new(values)
            })
            .collect();
        let queries: Vec<TopKQuery> = valid
            .iter()
            .map(|(_, spec)| TopKQuery::new(spec.k, spec.aggregate).include_self(opts.include_self))
            .collect();

        let mut results: Vec<Option<Vec<(lona_graph::NodeId, f64)>>> = vec![None; valid.len()];

        if opts.sequential {
            // The determinism reference: a plain Engine::run loop in
            // file order, planned per query with a serial budget.
            for (i, &(_, spec)) in valid.iter().enumerate() {
                let engine =
                    engines
                        .entry(spec.hops)
                        .or_insert_with(|| match warm.remove(&spec.hops) {
                            Some(state) => LonaEngine::from_state(g, spec.hops, state),
                            None => LonaEngine::new(g, spec.hops),
                        });
                let cfg = PlannerConfig {
                    threads: 1,
                    force: opts.force.map(choice_to_algorithm),
                    ..Default::default()
                };
                let t = Instant::now();
                let (plan, result) = engine.run_planned(&queries[i], &score_vecs[i], &cfg);
                summary.wall += t.elapsed() - result.stats.index_build;
                summary.index_build += result.stats.index_build;
                *summary
                    .plan_counts
                    .entry(format!(
                        "{} ({})",
                        plan.algorithm.name(),
                        plan.reason.name()
                    ))
                    .or_default() += 1;
                results[i] = Some(result.entries);
            }
        } else if let Some(sg) = &sharded_graph {
            // Sharded scatter-gather: group by hop radius, one
            // ShardedEngine (with warm per-shard indexes) per radius.
            let mut by_hops: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
            for (i, (_, spec)) in valid.iter().enumerate() {
                by_hops.entry(spec.hops).or_default().push(i);
            }
            for (hops, indices) in by_hops {
                let engine = sharded_engines
                    .entry(hops)
                    .or_insert_with(|| ShardedEngine::new(sg, hops));
                let batch: Vec<BatchQuery<'_>> = indices
                    .iter()
                    .map(|&i| {
                        let mut bq = BatchQuery::new(queries[i], &score_vecs[i]);
                        if let Some(choice) = opts.force {
                            bq = bq.force(choice_to_algorithm(choice));
                        }
                        bq
                    })
                    .collect();
                let shard_opts = ShardOptions {
                    threads: opts.threads,
                    ..Default::default()
                };
                let out = engine.run_batch(&batch, &shard_opts);
                summary.index_build += out.index_build;
                for sr in &out.results {
                    summary.wall += sr
                        .result
                        .stats
                        .runtime
                        .saturating_sub(sr.result.stats.index_build);
                    summary.requeries_skipped += sr.coordinator.requeries_skipped;
                    for report in &sr.reports {
                        if let Some(plan) = &report.plan {
                            *summary
                                .plan_counts
                                .entry(format!(
                                    "{} ({})",
                                    plan.algorithm.name(),
                                    plan.reason.name()
                                ))
                                .or_default() += 1;
                        }
                    }
                }
                for (slot, sr) in indices.iter().zip(out.results) {
                    results[*slot] = Some(sr.result.entries);
                }
            }
        } else {
            // Group the chunk by hop radius and hand each group to
            // the batch subsystem.
            let mut by_hops: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
            for (i, (_, spec)) in valid.iter().enumerate() {
                by_hops.entry(spec.hops).or_default().push(i);
            }
            for (hops, indices) in by_hops {
                let engine = engines
                    .entry(hops)
                    .or_insert_with(|| match warm.remove(&hops) {
                        Some(state) => LonaEngine::from_state(g, hops, state),
                        None => LonaEngine::new(g, hops),
                    });
                let batch: Vec<BatchQuery<'_>> = indices
                    .iter()
                    .map(|&i| {
                        let mut bq = BatchQuery::new(queries[i], &score_vecs[i]);
                        if let Some(choice) = opts.force {
                            bq = bq.force(choice_to_algorithm(choice));
                        }
                        bq
                    })
                    .collect();
                let out = engine.run_batch(&batch, &BatchOptions::with_threads(opts.threads));
                summary.wall += out.stats.runtime;
                summary.index_build += out.index_build;
                for plan in &out.plans {
                    *summary
                        .plan_counts
                        .entry(format!(
                            "{} ({})",
                            plan.algorithm.name(),
                            plan.reason.name()
                        ))
                        .or_default() += 1;
                }
                for (slot, result) in indices.iter().zip(out.results) {
                    results[*slot] = Some(result.entries);
                }
            }
        }

        // Output pass: walk the chunk in input order, interleaving
        // result lines (identical across sequential/batch/sharded
        // modes) with error lines for malformed inputs.
        let mut results = results.into_iter();
        for (i, line) in chunk.iter().enumerate() {
            match &line.parsed {
                Ok(spec) => {
                    let entries = results
                        .next()
                        .flatten()
                        .expect("every valid chunk query produced a result");
                    write_result_line(sink, chunk_start + i, spec, &entries)?;
                    summary.queries += 1;
                }
                Err(reason) => {
                    write_error_line(sink, chunk_start + i, line.lineno, reason)?;
                    summary.errors += 1;
                }
            }
        }
    }
    Ok(summary)
}

/// Configure and bind one [`Server`] from CLI-level inputs: the warm
/// states (compiled path), every `--register NAME=SCOREFILE` pair,
/// and the optional `--shards` routing.
fn build_server<G: GraphStore + Send + Sync + 'static>(
    graph: Arc<G>,
    addr: &str,
    opts: ServeOptions,
    sharding: Option<(usize, PartitionStrategy, u32)>,
    register: &[(String, String)],
    warm: BTreeMap<u32, EngineState>,
) -> Result<Server, String> {
    let num_nodes = graph.csr().num_nodes();
    let mut builder = Server::builder(graph).options(opts).warm(warm);
    for (name, path) in register {
        builder = builder.register(name.clone(), load_scores(path, num_nodes)?);
    }
    if let Some((shards, strategy, halo)) = sharding {
        builder = builder.shards(shards, strategy, halo);
    }
    builder
        .bind(addr)
        .map_err(|e| format!("cannot bind {addr}: {e}"))
}

/// `lona serve`: host the graph behind the resident query service.
/// Blocks until the process is killed; status goes to stderr. With
/// `compiled`, the input is mapped rather than parsed and the batcher
/// starts warm with the file's per-radius indexes — zero index builds
/// after startup for the packed radii.
fn serve_forever(
    input: &str,
    compiled: bool,
    addr: &str,
    opts: ServeOptions,
    sharding: Option<(usize, PartitionStrategy, u32)>,
    register: &[(String, String)],
) -> Result<String, String> {
    let server = if compiled {
        let c = load_compiled(input)?;
        let warm = c.warm_states();
        eprintln!(
            "lona serve: {input}: {} nodes, {} edges (compiled, warm radii {:?})",
            c.csr().num_nodes(),
            c.csr().num_edges(),
            c.hops_list(),
        );
        build_server(Arc::new(c), addr, opts, sharding, register, warm)?
    } else {
        let g = Arc::new(load_graph(input)?);
        eprintln!(
            "lona serve: {input}: {} nodes, {} edges",
            g.num_nodes(),
            g.num_edges()
        );
        build_server(g, addr, opts, sharding, register, BTreeMap::new())?
    };
    let backend_note = match sharding {
        Some((shards, strategy, halo)) => format!("{shards} shards ({strategy}, halo {halo})"),
        None => "single engine".to_string(),
    };
    eprintln!(
        "lona serve: listening on {} (window {:?}, max batch {}, workers {}, {backend_note}, \
         queue capacity {}, {} relevance function(s) registered)",
        server.local_addr(),
        opts.window,
        opts.max_batch,
        if opts.threads == 0 {
            "per-core".to_string()
        } else {
            opts.threads.to_string()
        },
        opts.queue_capacity,
        register.len(),
    );
    loop {
        std::thread::park();
    }
}

/// What one `lona client` run did, for the summary line and the
/// process exit code.
#[derive(Clone, Debug, Default)]
pub struct ClientRun {
    /// The stderr summary text.
    pub summary: String,
    /// Queries answered with results.
    pub served: usize,
    /// Error lines printed — local parse failures plus server
    /// rejections. Any of these fails the invocation.
    pub errors: usize,
}

/// `lona client`: run a batch query file against a running
/// `lona serve`, writing one line per query-file line to `sink` —
/// byte-identical to what `lona batch` prints for the same file on
/// the same graph. Locally unparseable lines error without a round
/// trip; the server's own rejections (which reuse the same message
/// text, e.g. out-of-range sources) land on the same `q{i} error:`
/// format. `@name/k/hops/agg` lines run against the server-registered
/// relevance function `name`.
pub fn run_client_file(
    addr: &str,
    queries_path: &str,
    include_self: bool,
    sink: &mut dyn IoWrite,
) -> Result<ClientRun, String> {
    let text = read_text(queries_path)?;
    // Source-range checks are deferred: only the server knows its
    // graph's node count.
    let lines = parse_client_query_lines(&text);
    let mut client = ServeClient::connect(addr)
        .open()
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;

    let mut served = 0usize;
    let mut errors = 0usize;
    let mut runtime_nanos = 0u64;
    let mut index_build_nanos = 0u64;
    let mut queue_nanos = 0u64;
    let mut serve_nanos = 0u64;
    for (index, line) in lines.iter().enumerate() {
        let spec = match &line.parsed {
            Ok(spec) => spec,
            Err(reason) => {
                write_error_line(sink, index, line.lineno, reason)?;
                errors += 1;
                continue;
            }
        };
        let reply = match &spec.named {
            Some(name) => client.query_named(name, spec.k, spec.hops, spec.aggregate, include_self),
            None => client.query(
                &spec.sources,
                spec.k,
                spec.hops,
                spec.aggregate,
                include_self,
            ),
        }
        .map_err(|e| format!("{addr}: {e}"))?;
        match reply {
            Reply::Ok(resp) => {
                let entries: Vec<(lona_graph::NodeId, f64)> = resp
                    .entries
                    .iter()
                    .map(|&(node, value)| (lona_graph::NodeId(node), value))
                    .collect();
                write_result_line(sink, index, spec, &entries)?;
                served += 1;
                runtime_nanos += resp.stats.runtime_nanos;
                index_build_nanos += resp.stats.index_build_nanos;
                queue_nanos += resp.stats.queue_nanos;
                serve_nanos += resp.stats.serve_nanos;
            }
            Reply::Err { code, message, .. } => {
                // Validation rejections (`BadRequest`) reuse the exact
                // message a local `lona batch` parse would emit, so
                // the error line stays byte-identical between the two
                // paths; other codes (busy, internal) have no batch
                // counterpart and carry their code tag.
                let reason = if code == ErrorCode::BadRequest {
                    message
                } else {
                    format!("[{}] {message}", code.name())
                };
                write_error_line(sink, index, line.lineno, &reason)?;
                errors += 1;
            }
        }
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "client: {served} served, {errors} rejected, engine time {:.3?}, \
         index build charged {:.3?}",
        Duration::from_nanos(runtime_nanos),
        Duration::from_nanos(index_build_nanos),
    );
    if served > 0 {
        let _ = writeln!(
            out,
            "  mean latency: queue {:?}  serve {:?}",
            Duration::from_nanos(queue_nanos / served as u64),
            Duration::from_nanos(serve_nanos / served as u64),
        );
    }
    Ok(ClientRun {
        summary: out,
        served,
        errors,
    })
}

#[allow(clippy::too_many_arguments)]
fn topk<G: GraphStore + ?Sized>(
    g: &G,
    scores: &ScoreVec,
    k: usize,
    hops: u32,
    aggregate: lona_core::Aggregate,
    choice: AlgorithmChoice,
    include_self: bool,
    threads: usize,
    warm: Option<EngineState>,
) -> Result<String, String> {
    let algorithm = choice_to_algorithm(choice);
    let mut engine = match warm {
        Some(state) => LonaEngine::from_state(g, hops, state),
        None => LonaEngine::new(g, hops),
    };
    let query = TopKQuery::new(k, aggregate).include_self(include_self);
    let result = engine.run_threads(&algorithm, threads, &query, scores);

    let mut out = String::new();
    let worker_note = match threads {
        1 => String::new(),
        0 => " (threads: all cores)".to_string(),
        t => format!(" (threads: {t})"),
    };
    let _ = writeln!(
        out,
        "top-{k} {} over {hops}-hop neighborhoods via {}{worker_note}:",
        aggregate.name().to_uppercase(),
        algorithm.name()
    );
    for (rank, (node, value)) in result.entries.iter().enumerate() {
        let _ = writeln!(out, "  #{:<3} node {:<8} F = {:.6}", rank + 1, node, value);
    }
    let _ = writeln!(out, "\nwork: {}", result.stats);
    if result.stats.index_build > std::time::Duration::ZERO {
        let _ = writeln!(out, "index build charged: {:?}", result.stats.index_build);
    }
    Ok(out)
}

/// `lona topk --shards N`: one query through the scatter-gather
/// engine.
#[allow(clippy::too_many_arguments)]
fn sharded_topk<G: GraphStore + ?Sized>(
    g: &G,
    scores: &ScoreVec,
    k: usize,
    hops: u32,
    aggregate: lona_core::Aggregate,
    choice: AlgorithmChoice,
    include_self: bool,
    threads: usize,
    shards: usize,
    strategy: PartitionStrategy,
) -> Result<String, String> {
    if g.csr().is_directed() {
        return Err("--shards requires an undirected graph".into());
    }
    let sharded = partition(g, shards, strategy, hops).map_err(|e| e.to_string())?;
    let mut engine = ShardedEngine::new(&sharded, hops);
    let query = TopKQuery::new(k, aggregate).include_self(include_self);
    let opts = ShardOptions {
        threads,
        force: Some(choice_to_algorithm(choice)),
        ..Default::default()
    };
    let out = engine.run(&query, scores, &opts);

    let mut text = String::new();
    let _ = writeln!(
        text,
        "top-{k} {} over {hops}-hop neighborhoods via scatter-gather \
         ({shards} shards, {strategy}, {} forced on every shard):",
        aggregate.name().to_uppercase(),
        choice_to_algorithm(choice).name()
    );
    for (rank, (node, value)) in out.result.entries.iter().enumerate() {
        let _ = writeln!(text, "  #{:<3} node {:<8} F = {:.6}", rank + 1, node, value);
    }
    let c = &out.coordinator;
    let _ = writeln!(
        text,
        "\ncoordinator: rounds {}  queried {}  re-queried {}  skipped {}  \
         est. edges saved {:.0}",
        c.rounds, c.shards_queried, c.shards_requeried, c.requeries_skipped, c.edges_saved_estimate
    );
    let _ = writeln!(
        text,
        "partition: edge cut {}  replication {:.3}",
        sharded.edge_cut(),
        sharded.replication_factor()
    );
    let _ = writeln!(text, "work: {}", out.result.stats);
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("lona-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    fn write_sample_graph(path: &str) {
        std::fs::write(path, "# sample\n0 1\n1 2\n2 0\n2 3\n3 4\n").unwrap();
    }

    #[test]
    fn stats_reports_counts() {
        let p = tmp("stats.txt");
        write_sample_graph(&p);
        let out = stats(&p).unwrap();
        assert!(out.contains("nodes 5"));
        assert!(out.contains("edges 5"));
        assert!(out.contains("degeneracy"));
    }

    #[test]
    fn generate_and_stats_round_trip() {
        let p = tmp("gen.txt");
        let cmd = parse(&[
            "generate".into(),
            "collaboration".into(),
            "--out".into(),
            p.clone(),
            "--scale".into(),
            "0.003".into(),
        ])
        .unwrap();
        let out = execute(&cmd).unwrap().report;
        assert!(out.contains("written to"));
        assert!(stats(&p).unwrap().contains("nodes"));
    }

    #[test]
    fn topk_with_generated_scores() {
        let p = tmp("topk.txt");
        write_sample_graph(&p);
        let cmd = parse(&[
            "topk".into(),
            p,
            "--k".into(),
            "3".into(),
            "--algorithm".into(),
            "base".into(),
        ])
        .unwrap();
        let out = execute(&cmd).unwrap().report;
        assert!(out.contains("top-3 SUM"));
        assert!(
            out.lines()
                .filter(|l| l.trim_start().starts_with('#'))
                .count()
                == 3
        );
    }

    #[test]
    fn topk_with_score_file_and_all_algorithms() {
        let p = tmp("topk2.txt");
        write_sample_graph(&p);
        let s = tmp("scores.txt");
        std::fs::write(&s, "1.0\n0.0\n0.5\n0.0\n1.0\n").unwrap();
        for alg in ["base", "forward", "backward", "backward-naive"] {
            let cmd = parse(&[
                "topk".into(),
                p.clone(),
                "--scores".into(),
                s.clone(),
                "--algorithm".into(),
                alg.into(),
                "--k".into(),
                "2".into(),
            ])
            .unwrap();
            let out = execute(&cmd).unwrap().report;
            assert!(out.contains("top-2"), "{alg}: {out}");
        }
    }

    #[test]
    fn query_file_parses_and_validates() {
        let text = "\
# a comment
0,2/3/2/sum

4/1/1/avg
  1 , 3 /2/2/dwsum
";
        let specs = parse_query_file(text, 5).unwrap();
        assert_eq!(specs.len(), 3);
        assert_eq!(specs[0].sources, vec![0, 2]);
        assert_eq!(specs[0].k, 3);
        assert_eq!(specs[0].hops, 2);
        assert_eq!(specs[0].aggregate, Aggregate::Sum);
        assert_eq!(specs[1].aggregate, Aggregate::Avg);
        assert_eq!(specs[2].sources, vec![1, 3]);

        for (bad, needle) in [
            ("0/3/2", "3 field(s)"),
            ("9/3/2/sum", "out of range"),
            ("x/3/2/sum", "bad source node"),
            ("0/0/2/sum", "k must be"),
            ("0/3/0/sum", "hops must be"),
            ("0/3/2/median", "line 1"),
            ("/3/2/sum", "bad source node"),
        ] {
            let err = parse_query_file(bad, 5).unwrap_err();
            assert!(err.contains(needle), "{bad}: {err}");
        }
    }

    fn batch_output(
        lines: &[QueryLine],
        g: &CsrGraph,
        opts: &BatchRunOptions,
    ) -> (String, BatchSummary) {
        let mut sink = Vec::new();
        let summary = run_batch_file(g, lines, opts, BTreeMap::new(), &mut sink).unwrap();
        (String::from_utf8(sink).unwrap(), summary)
    }

    #[test]
    fn batch_and_sequential_are_byte_identical() {
        let p = tmp("batch_graph.txt");
        write_sample_graph(&p);
        let g = load_graph(&p).unwrap();
        let text = "\
0,2/3/2/sum
4/1/1/avg
1,3/2/2/sum
0/5/2/avg
2,3,4/2/1/dwsum
";
        let lines = parse_query_lines(text, g.num_nodes());
        let base = BatchRunOptions {
            threads: 1,
            force: None,
            sequential: true,
            chunk: 2, // exercise chunk boundaries
            include_self: true,
            shards: 1,
            strategy: PartitionStrategy::Contiguous,
        };
        let (sequential, seq_summary) = batch_output(&lines, &g, &base);
        assert_eq!(sequential.lines().count(), lines.len());
        assert!(sequential.starts_with("q0 k=3 hops=2 agg=sum:"));
        assert!(!seq_summary.batched);

        for threads in [1, 2, 4] {
            let opts = BatchRunOptions {
                threads,
                sequential: false,
                ..base.clone()
            };
            let (batched, summary) = batch_output(&lines, &g, &opts);
            assert_eq!(batched, sequential, "threads={threads}");
            assert!(summary.batched);
            assert_eq!(summary.queries, lines.len());
        }
    }

    #[test]
    fn malformed_lines_error_in_place_and_the_rest_still_run() {
        let p = tmp("batch_graph_err.txt");
        write_sample_graph(&p);
        let g = load_graph(&p).unwrap();
        // Lines 3 and 5 are bad (k=0; out-of-range source); 1, 4 and
        // 6 must still be answered, with indexes following input
        // order across the error lines.
        let text = "\
0,2/3/2/sum
# comment lines keep their file line numbers
0/0/2/sum
4/1/1/avg
9/1/2/sum
1,3/2/2/sum
";
        let lines = parse_query_lines(text, g.num_nodes());
        assert_eq!(lines.len(), 5, "comment line is skipped");
        let base = BatchRunOptions {
            threads: 1,
            force: None,
            sequential: true,
            chunk: 2, // error lines must survive chunk boundaries
            include_self: true,
            shards: 1,
            strategy: PartitionStrategy::Contiguous,
        };
        let (sequential, summary) = batch_output(&lines, &g, &base);
        assert_eq!(summary.queries, 3);
        assert_eq!(summary.errors, 2);
        assert!(summary.describe().contains("rejected 2 malformed line(s)"));

        let out: Vec<&str> = sequential.lines().collect();
        assert_eq!(out.len(), 5);
        assert!(out[0].starts_with("q0 k=3 hops=2 agg=sum:"), "{}", out[0]);
        assert_eq!(out[1], "q1 error: line 3: k must be at least 1");
        assert!(out[2].starts_with("q2 k=1 hops=1 agg=avg:"), "{}", out[2]);
        assert_eq!(
            out[3],
            "q3 error: line 5: source node 9 out of range (graph has 5 nodes)"
        );
        assert!(out[4].starts_with("q4 k=2 hops=2 agg=sum:"), "{}", out[4]);

        // Error placement is part of the byte contract: batch mode
        // (any thread count) prints the identical interleaving.
        for threads in [1, 4] {
            let opts = BatchRunOptions {
                threads,
                sequential: false,
                ..base.clone()
            };
            let (batched, summary) = batch_output(&lines, &g, &opts);
            assert_eq!(batched, sequential, "threads={threads}");
            assert_eq!(summary.errors, 2);
        }
    }

    #[test]
    fn parse_query_lines_keeps_file_line_numbers() {
        let lines = parse_query_lines("# head\n\n0/1/1/sum\nbad\n", 5);
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].lineno, 3);
        assert!(lines[0].parsed.is_ok());
        assert_eq!(lines[1].lineno, 4);
        assert!(lines[1].parsed.as_ref().unwrap_err().contains("field(s)"));
    }

    #[test]
    fn batch_respects_algorithm_override() {
        let p = tmp("batch_graph2.txt");
        write_sample_graph(&p);
        let g = load_graph(&p).unwrap();
        let lines = parse_query_lines("0,1/2/2/sum\n2/1/2/sum\n", g.num_nodes());
        let opts = BatchRunOptions {
            threads: 1,
            force: Some(AlgorithmChoice::Base),
            sequential: false,
            chunk: 1024,
            include_self: true,
            shards: 1,
            strategy: PartitionStrategy::Contiguous,
        };
        let (_, summary) = batch_output(&lines, &g, &opts);
        assert_eq!(summary.plan_counts.len(), 1);
        assert!(
            summary
                .plan_counts
                .keys()
                .next()
                .unwrap()
                .contains("Base (forced)"),
            "{:?}",
            summary.plan_counts
        );
    }

    #[test]
    fn batch_command_end_to_end() {
        let p = tmp("batch_graph3.txt");
        write_sample_graph(&p);
        let q = tmp("batch_queries.txt");
        std::fs::write(&q, "0/2/2/sum\n1,4/3/2/avg\n").unwrap();
        let cmd = parse(&["batch".into(), p, q]).unwrap();
        // execute() streams to the real stdout and returns an empty
        // report; success is what we can assert here (the streaming
        // path itself is covered by the sink-based tests above).
        let run = execute(&cmd).unwrap();
        assert_eq!(run.report, "");
        assert!(run.ok);
    }

    fn write_two_community_graph(path: &str) {
        // Two triangles bridged by one edge: ids are community-local,
        // so contiguous sharding aligns with structure.
        std::fs::write(path, "0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n2 3\n").unwrap();
    }

    #[test]
    fn shard_command_reports_layout() {
        let p = tmp("shard_graph.txt");
        write_two_community_graph(&p);
        let cmd = parse(&[
            "shard".into(),
            p,
            "--shards".into(),
            "2".into(),
            "--halo".into(),
            "2".into(),
        ])
        .unwrap();
        let out = execute(&cmd).unwrap().report;
        assert!(out.contains("2 shards"), "{out}");
        assert!(out.contains("edge cut: 1"), "{out}");
        assert!(out.contains("shard 0: owned 3"), "{out}");
        assert!(out.contains("replication factor"), "{out}");
    }

    #[test]
    fn sharded_topk_matches_single_engine_output_values() {
        let p = tmp("sharded_topk.txt");
        write_two_community_graph(&p);
        let s = tmp("sharded_scores.txt");
        std::fs::write(&s, "1.0\n0.5\n0.25\n0.125\n0.0\n1.0\n").unwrap();
        let single = execute(
            &parse(&[
                "topk".into(),
                p.clone(),
                "--scores".into(),
                s.clone(),
                "--algorithm".into(),
                "base".into(),
                "--k".into(),
                "3".into(),
            ])
            .unwrap(),
        )
        .unwrap()
        .report;
        let sharded = execute(
            &parse(&[
                "topk".into(),
                p,
                "--scores".into(),
                s,
                "--algorithm".into(),
                "base".into(),
                "--k".into(),
                "3".into(),
                "--shards".into(),
                "2".into(),
            ])
            .unwrap(),
        )
        .unwrap()
        .report;
        assert!(sharded.contains("scatter-gather (2 shards"), "{sharded}");
        assert!(sharded.contains("coordinator: rounds"), "{sharded}");
        // The ranked result lines must agree with the single engine.
        let pick = |text: &str| -> Vec<String> {
            text.lines()
                .filter(|l| l.trim_start().starts_with('#'))
                .map(|l| l.trim().to_string())
                .collect()
        };
        assert_eq!(pick(&sharded), pick(&single));
    }

    #[test]
    fn sharded_batch_matches_unsharded_lines_and_reports_shards() {
        let p = tmp("sharded_batch.txt");
        write_two_community_graph(&p);
        let g = load_graph(&p).unwrap();
        let lines = parse_query_lines("0,5/3/2/sum\n2/2/1/avg\n1,3/4/2/sum\n", g.num_nodes());
        let base = BatchRunOptions {
            threads: 1,
            force: None,
            sequential: false,
            chunk: 1024,
            include_self: true,
            shards: 1,
            strategy: PartitionStrategy::Contiguous,
        };
        let (plain, plain_summary) = batch_output(&lines, &g, &base);
        assert_eq!(plain_summary.shards, 1);
        assert!(plain_summary.describe().contains("workers 1  shards 1"));

        let opts = BatchRunOptions { shards: 2, ..base };
        let (sharded, summary) = batch_output(&lines, &g, &opts);
        assert_eq!(sharded, plain, "sharded result lines diverged");
        assert_eq!(summary.shards, 2);
        let text = summary.describe();
        assert!(text.contains("workers 1  shards 2"), "{text}");
        assert!(text.contains("coordinator:"), "{text}");
    }

    #[test]
    fn sequential_and_shards_conflict() {
        let p = tmp("conflict.txt");
        write_sample_graph(&p);
        let q = tmp("conflict_queries.txt");
        std::fs::write(&q, "0/2/2/sum\n").unwrap();
        let cmd = parse(&[
            "batch".into(),
            p,
            q,
            "--sequential".into(),
            "--shards".into(),
            "2".into(),
        ])
        .unwrap();
        let err = execute(&cmd).unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn client_lines_match_local_batch_byte_for_byte() {
        let p = tmp("serve_graph.txt");
        write_sample_graph(&p);
        let g = load_graph(&p).unwrap();
        // Line 2 is locally unparseable; line 4's source 9 parses but
        // only the server can reject it (the client defers range
        // checks). Both must land on the same q{i} error: format that
        // `lona batch` prints.
        let text = "\
0,2/3/2/sum
0/0/2/sum
4/1/1/avg
9/1/2/sum
1,3/2/2/sum
";
        let q = tmp("serve_queries.txt");
        std::fs::write(&q, text).unwrap();

        let local_lines = parse_query_lines(text, g.num_nodes());
        let opts = BatchRunOptions {
            threads: 1,
            force: None,
            sequential: true,
            chunk: 1024,
            include_self: true,
            shards: 1,
            strategy: PartitionStrategy::Contiguous,
        };
        let (local, _) = batch_output(&local_lines, &g, &opts);

        let server = Server::builder(Arc::new(g))
            .options(ServeOptions {
                threads: 1,
                ..Default::default()
            })
            .bind("127.0.0.1:0")
            .unwrap();
        let addr = server.local_addr().to_string();
        let mut sink = Vec::new();
        let run = run_client_file(&addr, &q, true, &mut sink).unwrap();
        let remote = String::from_utf8(sink).unwrap();

        assert_eq!(remote, local, "client output diverged from lona batch");
        assert_eq!((run.served, run.errors), (3, 2));
        let summary = &run.summary;
        assert!(summary.contains("3 served, 2 rejected"), "{summary}");
        assert!(summary.contains("mean latency"), "{summary}");
    }

    #[test]
    fn client_connect_failure_is_a_clean_error() {
        let q = tmp("client_queries.txt");
        std::fs::write(&q, "0/1/1/sum\n").unwrap();
        // A port from the ephemeral range with nothing bound: connect
        // must fail fast with context, not panic.
        let err = run_client_file("127.0.0.1:1", &q, true, &mut Vec::new()).unwrap_err();
        assert!(err.contains("cannot connect"), "{err}");
    }

    #[test]
    fn compile_then_topk_matches_edge_list_output() {
        let p = tmp("compile_graph.txt");
        write_sample_graph(&p);
        let c = tmp("compile_graph.lona");
        let out =
            execute(&parse(&["compile".into(), p.clone(), "--out".into(), c.clone()]).unwrap())
                .unwrap()
                .report;
        assert!(out.contains("compiled"), "{out}");

        // Same seed/blacking defaults on both paths, so the ranked
        // result lines must agree byte for byte; only the timing
        // lines (work:, index build charged:) may differ.
        let plain = execute(&parse(&["topk".into(), p, "--k".into(), "3".into()]).unwrap())
            .unwrap()
            .report;
        let mapped = execute(
            &parse(&[
                "topk".into(),
                c,
                "--compiled".into(),
                "--k".into(),
                "3".into(),
            ])
            .unwrap(),
        )
        .unwrap()
        .report;
        let ranked = |text: &str| -> Vec<String> {
            text.lines()
                .filter(|l| !l.starts_with("work:") && !l.starts_with("index build charged:"))
                .map(str::to_string)
                .collect()
        };
        assert_eq!(ranked(&mapped), ranked(&plain));
        // The compiled path starts warm at the default radius: no
        // index-build line can appear.
        assert!(!mapped.contains("index build charged"), "{mapped}");
    }

    #[test]
    fn update_repairs_indexes_and_writes_outputs() {
        let p = tmp("update_graph.txt");
        write_sample_graph(&p);
        let d = tmp("update_delta.txt");
        std::fs::write(&d, "# delta\nadd 0 4\ndel 2 3\nscore 1 0.5\n").unwrap();
        let s = tmp("update_scores.txt");
        std::fs::write(&s, "1.0\n0.0\n0.5\n0.0\n1.0\n").unwrap();
        let g_out = tmp("update_graph_out.txt");
        let s_out = tmp("update_scores_out.txt");
        let cmd = parse(&[
            "update".into(),
            p,
            d,
            "--hops".into(),
            "1,2".into(),
            "--scores".into(),
            s,
            "--scores-out".into(),
            s_out.clone(),
            "--out".into(),
            g_out.clone(),
            "--verify".into(),
        ])
        .unwrap();
        let out = execute(&cmd).unwrap().report;
        assert!(out.contains("+1 -1 edges, 1 score overrides"), "{out}");
        assert!(out.contains("entries repaired"), "{out}");
        assert!(out.contains("rebuild avoided"), "{out}");
        // Each radius line and the total line report the deferred
        // differential-index units.
        assert_eq!(out.matches("deferred").count(), 3, "{out}");
        assert!(out.contains("verify: repaired indexes match"), "{out}");
        // add 0-4 and del 2-3 cancel out in count but not in shape.
        let g2 = load_graph(&g_out).unwrap();
        assert_eq!(g2.num_nodes(), 5);
        assert_eq!(g2.num_edges(), 5);
        let scores2 = load_scores(&s_out, 5).unwrap();
        assert_eq!(scores2.as_slice()[1], 0.5);
    }

    #[test]
    fn update_verifies_a_score_only_delta() {
        let p = tmp("update_score_only.txt");
        write_sample_graph(&p);
        let d = tmp("update_score_only_delta.txt");
        std::fs::write(&d, "score 1 0.5\n").unwrap();
        let s = tmp("update_score_only_scores.txt");
        std::fs::write(&s, "1.0\n0.0\n0.5\n0.0\n1.0\n").unwrap();
        let cmd = parse(&[
            "update".into(),
            p,
            d,
            "--scores".into(),
            s,
            "--verify".into(),
        ])
        .unwrap();
        let out = execute(&cmd).unwrap().report;
        assert!(out.contains("score-only delta, indexes untouched"), "{out}");
        assert!(out.contains("verify: repaired indexes match"), "{out}");
    }

    #[test]
    fn update_rejects_score_delta_without_scores() {
        let p = tmp("update_noscores.txt");
        write_sample_graph(&p);
        let d = tmp("update_noscores_delta.txt");
        std::fs::write(&d, "score 0 0.25\n").unwrap();
        let cmd = parse(&["update".into(), p, d]).unwrap();
        let err = execute(&cmd).unwrap_err();
        assert!(err.contains("--scores"), "{err}");
    }

    #[test]
    fn compact_folds_delta_and_answers_like_a_plain_engine() {
        let p = tmp("compact_graph.txt");
        write_sample_graph(&p);
        // Distinct 1-hop sums everywhere, so the ranking has no ties
        // to hide a difference behind.
        let s = tmp("compact_scores.txt");
        std::fs::write(&s, "0.9\n0.1\n0.5\n0.3\n0.7\n").unwrap();
        let c1 = tmp("compact_in.lona");
        execute(
            &parse(&[
                "compile".into(),
                p,
                "--out".into(),
                c1.clone(),
                "--scores".into(),
                s,
            ])
            .unwrap(),
        )
        .unwrap();
        let d = tmp("compact_delta.txt");
        std::fs::write(&d, "add 0 4\nscore 3 0.8\n").unwrap();
        let c2 = tmp("compact_out.lona");
        let out = execute(
            &parse(&[
                "compact".into(),
                c1,
                "--out".into(),
                c2.clone(),
                "--delta".into(),
                d,
            ])
            .unwrap(),
        )
        .unwrap()
        .report;
        assert!(out.contains("5 -> 6 edges"), "{out}");
        assert!(out.contains("+1 -0 edges, 1 score overrides"), "{out}");

        // The compacted container must answer exactly like a plain
        // engine on the hand-mutated graph and scores.
        let p2 = tmp("compact_graph_mut.txt");
        std::fs::write(&p2, "0 1\n1 2\n2 0\n2 3\n3 4\n0 4\n").unwrap();
        let s2 = tmp("compact_scores_mut.txt");
        std::fs::write(&s2, "0.9\n0.1\n0.5\n0.8\n0.7\n").unwrap();
        let plain = execute(
            &parse(&[
                "topk".into(),
                p2,
                "--k".into(),
                "3".into(),
                "--hops".into(),
                "1".into(),
                "--scores".into(),
                s2,
            ])
            .unwrap(),
        )
        .unwrap()
        .report;
        let mapped = execute(
            &parse(&[
                "topk".into(),
                c2,
                "--compiled".into(),
                "--k".into(),
                "3".into(),
                "--hops".into(),
                "1".into(),
            ])
            .unwrap(),
        )
        .unwrap()
        .report;
        let ranked = |text: &str| -> Vec<String> {
            text.lines()
                .filter(|l| l.trim_start().starts_with('#'))
                .map(str::to_string)
                .collect()
        };
        assert_eq!(ranked(&mapped), ranked(&plain));
    }

    #[test]
    fn stats_report_renders_dashes_for_empty_histograms() {
        let r = StatsReport {
            queue_wait: vec![0; 40],
            dispatch: vec![0; 40],
            end_to_end: vec![0; 40],
            batch_size: vec![0; 40],
            ..Default::default()
        };
        let out = format_stats_report("127.0.0.1:0", &r);
        assert!(out.contains("p50 -  p95 -  p99 -  (0 samples)"), "{out}");
    }

    #[test]
    fn compiled_batch_is_byte_identical_to_edge_list_batch() {
        let p = tmp("compile_batch.txt");
        write_sample_graph(&p);
        let g = load_graph(&p).unwrap();
        let c = tmp("compile_batch.lona");
        execute(&parse(&["compile".into(), p, "--out".into(), c.clone()]).unwrap()).unwrap();

        let text = "0,2/3/2/sum\n4/1/1/avg\n1,3/2/2/dwsum\n";
        let lines = parse_query_lines(text, g.num_nodes());
        let opts = BatchRunOptions {
            threads: 1,
            force: None,
            sequential: false,
            chunk: 1024,
            include_self: true,
            shards: 1,
            strategy: PartitionStrategy::Contiguous,
        };
        let (plain, _) = batch_output(&lines, &g, &opts);

        let compiled = load_compiled(&c).unwrap();
        let mut sink = Vec::new();
        let summary =
            run_batch_file(&compiled, &lines, &opts, compiled.warm_states(), &mut sink).unwrap();
        let mapped = String::from_utf8(sink).unwrap();
        assert_eq!(mapped, plain, "compiled batch output diverged");
        assert_eq!(summary.queries, 3);
    }

    #[test]
    fn compiled_without_scores_needs_a_score_file() {
        let p = tmp("compile_noscores.txt");
        write_sample_graph(&p);
        let g = load_graph(&p).unwrap();
        let c = tmp("compile_noscores.lona");
        lona_core::compile_to_file(
            &CompileSpec {
                graph: g.view(),
                scores: None,
                hops: &[2],
                with_diff: true,
                order: NodeOrder::Natural,
            },
            Path::new(&c),
        )
        .unwrap();
        let err = execute(&parse(&["topk".into(), c, "--compiled".into()]).unwrap()).unwrap_err();
        assert!(err.contains("no score vector"), "{err}");
    }

    #[test]
    fn corrupt_compiled_file_is_a_clean_error() {
        let c = tmp("corrupt.lona");
        std::fs::write(&c, b"LONACPK1 but not really a compiled file").unwrap();
        let err = load_compiled(&c).unwrap_err();
        assert!(err.contains("cannot load"), "{err}");
    }

    #[test]
    fn score_length_mismatch_is_an_error() {
        let p = tmp("topk3.txt");
        write_sample_graph(&p);
        let s = tmp("short_scores.txt");
        std::fs::write(&s, "1.0\n0.0\n").unwrap();
        let cmd = parse(&["topk".into(), p, "--scores".into(), s]).unwrap();
        let err = execute(&cmd).unwrap_err();
        assert!(err.contains("2 scores"), "{err}");
    }

    #[test]
    fn missing_file_is_an_error() {
        let err = stats("/nonexistent/graph.txt").unwrap_err();
        assert!(err.contains("cannot open"));
    }
}
