//! The measured process: set the program up from staged inputs, drive
//! the workload's timed traffic, check the answers, and report every
//! metric by name with its unit.

use std::collections::BTreeMap;
use std::ffi::c_int;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lona_core::serve::{binary_scores, serve_algorithm, Reply, ServeStats, StatsReport};
use lona_core::{
    BatchOptions, BatchQuery, CompiledGraph, EngineState, LonaEngine, PlannerConfig, QueryResult,
    ServeClient, Server, TopKQuery,
};
use lona_graph::io::{read_edge_list, EdgeListOptions};
use lona_graph::{CsrGraph, GraphStore};

use crate::inputs::{apply_swaps, AnalyticQuery, Phase, ServeReq, Staged, Workload, HOPS};
use crate::loadgen::{self, Done, Kind, Op, Outcome, Pace};
use crate::replay;
use crate::stats::{mean, median, percentile};
use crate::trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// point-serve checks every this-many-th reply against the oracle.
const CHECK_EVERY: usize = 8;
/// Queries update-mix sends after its timed phases, checked against a
/// fresh engine on the final graph.
const PROBES: usize = 64;
/// Serve-layer probe queries of the traced analytic-batch run.
const ANALYTIC_PROBES: usize = 128;
/// analytic-batch repeats its batch at least this often.
const MIN_BATCH_REPS: usize = 3;
/// A fixed-rate phase whose generator ran later than this at p99 is
/// not a valid measurement.
const MAX_LAG_MS: f64 = 1.0;
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// What one measured process found.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// `(name, value, unit)`, in the order measured.
    pub metrics: Vec<(String, f64, String)>,
    pub attempted: u64,
    /// Busy and error replies, transport failures and timeouts.
    pub failed: u64,
    /// Answers that differ from the oracle.
    pub wrong: u64,
    /// Every fixed-rate phase kept its schedule.
    pub valid: bool,
}

impl Report {
    fn new() -> Report {
        Report {
            valid: true,
            ..Report::default()
        }
    }

    pub fn put(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.retain(|m| m.0 != name);
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    pub fn get(&self, name: &str) -> Option<&(String, f64, String)> {
        self.metrics.iter().find(|m| m.0 == name)
    }

    /// The tab-separated form a measure child prints for its parent.
    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(out, "metric\t{name}\t{value}\t{unit}");
        }
        let _ = writeln!(out, "count\tattempted\t{}", self.attempted);
        let _ = writeln!(out, "count\tfailed\t{}", self.failed);
        let _ = writeln!(out, "count\twrong\t{}", self.wrong);
        let _ = writeln!(out, "count\tvalid\t{}", self.valid as u8);
        out
    }

    pub fn from_lines(text: &str) -> Result<Report, String> {
        let mut r = Report::new();
        for line in text.lines() {
            let f: Vec<&str> = line.split('\t').collect();
            let bad = || format!("bad report line `{line}`");
            match f[..] {
                ["metric", name, value, unit] => {
                    r.put(name, value.parse().map_err(|_| bad())?, unit);
                }
                ["count", name, value] => {
                    let v: u64 = value.parse().map_err(|_| bad())?;
                    match name {
                        "attempted" => r.attempted = v,
                        "failed" => r.failed = v,
                        "wrong" => r.wrong = v,
                        "valid" => r.valid = v == 1,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(bad()),
            }
        }
        Ok(r)
    }
}

/// The program serving a staged container in a process of its own
/// (`suite serve`), so its set-up time and memory are the program's
/// alone and the load generator shares nothing with it but loopback.
struct ServerProcess {
    child: Child,
    addr: SocketAddr,
}

impl ServerProcess {
    fn start(dir: &Path) -> Result<ServerProcess, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
        let mut child = Command::new(exe)
            .arg("serve")
            .arg("--dir")
            .arg(dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start the server process: {e}"))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("stdout is piped");
        let read = BufReader::new(stdout).read_line(&mut line);
        // Owned before the address is checked, so a failed start still
        // stops and reaps the child.
        let mut server = ServerProcess {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        match (read, line.trim().parse()) {
            (Ok(_), Ok(addr)) => server.addr = addr,
            _ => return Err("the server process did not report its address".into()),
        }
        Ok(server)
    }

    fn peak_rss_mib(&self) -> Result<f64, String> {
        peak_rss_mib(&self.child.id().to_string())
    }
}

impl Drop for ServerProcess {
    /// Closing its stdin asks the server to drain and exit; it is killed
    /// if it has not within a few seconds. Either way it is waited for.
    fn drop(&mut self) {
        drop(self.child.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(5);
        while let Ok(None) = self.child.try_wait() {
            if Instant::now() >= deadline {
                let _ = self.child.kill();
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = self.child.wait();
    }
}

/// Move this process to the `SCHED_IDLE` policy, which any process
/// may choose for itself.
fn schedule_idle() -> Result<(), String> {
    #[repr(C)]
    struct SchedParam {
        sched_priority: c_int,
    }
    extern "C" {
        fn sched_setscheduler(pid: c_int, policy: c_int, param: *const SchedParam) -> c_int;
    }
    const SCHED_IDLE: c_int = 5;
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `param` outlives the call; pid 0 is the calling process.
    match unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } {
        0 => Ok(()),
        _ => Err(format!(
            "sched_setscheduler failed: {}",
            std::io::Error::last_os_error()
        )),
    }
}

/// `suite serve`: map the staged container, serve it on an ephemeral
/// loopback port, print the address, and run until stdin closes.
///
/// The server yields the CPU to the load generator the moment one of
/// its threads wakes: on two cores, a generator thread woken on the core
/// where the batcher runs a 25 ms index repair otherwise waits for the
/// next scheduler tick, and the open-loop schedule runs milliseconds
/// late. The server still gets every cycle the generator leaves idle.
pub fn serve_until_eof(dir: &Path) -> Result<(), String> {
    if let Err(e) = schedule_idle() {
        eprintln!("suite serve: {e}; the load generator may run late");
    }
    let c = Arc::new(
        CompiledGraph::load(&dir.join("graph.lona"))
            .map_err(|e| format!("cannot load the container: {e}"))?,
    );
    let server = Server::builder(Arc::clone(&c))
        .warm(c.warm_states())
        .bind("127.0.0.1:0")
        .map_err(|e| format!("cannot start the server: {e}"))?;
    let mut out = std::io::stdout();
    writeln!(out, "{}", server.local_addr())
        .and_then(|_| out.flush())
        .map_err(|e| format!("cannot report the address: {e}"))?;
    let _ = std::io::stdin().read_to_end(&mut Vec::new());
    drop(server);
    Ok(())
}

/// Measure one workload from its staged directory.
pub fn measure(w: Workload, st: &Staged, seconds: f64, tr: &mut Tracer) -> Result<Report, String> {
    match w {
        Workload::AnalyticBatch => analytic(st, seconds, tr),
        _ => serve(w, st, seconds, tr),
    }
}

/// Peak resident memory (`VmHWM`) of process `pid` ("self" for this
/// one), in MiB.
fn peak_rss_mib(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {path}"))
}

/// The staged edge list, parsed by the program.
pub fn parse_edge_list(st: &Staged) -> Result<CsrGraph, String> {
    let path = st.edge_list();
    let file = File::open(&path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    let opts = EdgeListOptions {
        directed: false,
        num_nodes: Some(st.num_nodes as u32),
    };
    read_edge_list(BufReader::new(file), &opts)
        .map_err(|e| format!("cannot parse the edge list: {e}"))
}

pub fn request_query(req: &ServeReq) -> TopKQuery {
    TopKQuery::new(req.k, req.aggregate).include_self(req.include_self)
}

pub fn analytic_query(q: &AnalyticQuery) -> TopKQuery {
    TopKQuery::new(q.k, q.aggregate)
}

/// An answer as exact bits: ranked node ids and value bit patterns.
pub fn answer_bits(entries: impl IntoIterator<Item = (u32, f64)>) -> Vec<(u32, u64)> {
    entries.into_iter().map(|(u, v)| (u, v.to_bits())).collect()
}

/// [`answer_bits`] of an in-process result.
fn result_bits(r: &QueryResult) -> Vec<(u32, u64)> {
    answer_bits(r.entries.iter().map(|&(u, v)| (u.0, v)))
}

/// What the server must answer for `req`: an in-process engine forced
/// to the algorithm the server forces. `engine` must hold both indexes.
pub fn oracle(engine: &LonaEngine<'_>, req: &ServeReq) -> Vec<(u32, u64)> {
    let scores = binary_scores(&req.sources, engine.graph().num_nodes());
    let query = request_query(req);
    let algorithm = serve_algorithm(engine, &query, &scores);
    let result = engine.run_prepared(&algorithm, &query, &scores);
    result_bits(&result)
}

/// Check every answered query whose entries were kept; returns how
/// many differ from the oracle.
pub fn check_replies(engine: &LonaEngine<'_>, requests: &[ServeReq], done: &[Done]) -> u64 {
    let mut wrong = 0;
    for d in done {
        if let (Kind::Query, Outcome::Ok(r)) = (d.kind, &d.outcome) {
            if !r.entries.is_empty()
                && oracle(engine, &requests[d.input]) != answer_bits(r.entries.iter().copied())
            {
                wrong += 1;
            }
        }
    }
    wrong
}

/// The ops one connection sends in one phase. Query connections
/// interleave the phase's slice of the request pool; update-mix's
/// second connection carries the UPDATE schedule.
#[allow(clippy::too_many_arguments)]
fn conn_ops<'a>(
    st: &'a Staged,
    w: Workload,
    phase_index: usize,
    phase: &Phase,
    conn: usize,
    next_req: usize,
    next_swap: usize,
) -> (Pace, Box<dyn Iterator<Item = Op> + Send + 'a>) {
    let tag = (phase_index as u64 + 1) << 40;
    let query_conns = if w == Workload::UpdateMix { 1 } else { 2 };
    if conn >= query_conns {
        let rate = phase.update_rate;
        let ops = (0..phase.updates()).map(move |j| {
            let due = Duration::from_secs_f64((j as f64 + 0.5) / rate);
            let input = next_swap + j;
            Op::update(input, &st.swaps[input], tag | 1 << 39 | (j as u64 + 1), due)
        });
        return (Pace::Open, Box::new(ops));
    }
    let pool = st.requests.len();
    let check = w == Workload::PointServe;
    let query = move |j: usize, due: Duration| {
        let input = (next_req + j) % pool;
        let keep = check && input.is_multiple_of(CHECK_EVERY);
        Op::query(input, &st.requests[input], tag | (j as u64 + 1), due, keep)
    };
    match phase.query_rate {
        Some(rate) => {
            let ops = (conn..phase.fixed_queries())
                .step_by(query_conns)
                .map(move |j| query(j, Duration::from_secs_f64(j as f64 / rate)));
            (Pace::Open, Box::new(ops))
        }
        None => {
            let ops = (conn..)
                .step_by(query_conns)
                .map(move |j| query(j, Duration::ZERO));
            (Pace::Closed, Box::new(ops))
        }
    }
}

/// Run one phase over every connection at once.
fn run_phase(
    conns: &mut [TcpStream],
    plans: Vec<(Pace, Box<dyn Iterator<Item = Op> + Send + '_>)>,
    len: Duration,
    start: Instant,
) -> Vec<Done> {
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(plans)
            .map(|(conn, (pace, ops))| s.spawn(move || loadgen::drive(conn, ops, pace, len, start)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load generator thread panicked"))
            .collect()
    })
}

/// Rebuild one phase's spans from the replies: `client.request` from
/// send to reply, and inside it `server.total`, `queue.wait` and
/// `engine.run` from the reply's nanosecond fields (the server side is
/// centred in the client span: wire time is split evenly). Returns the
/// client span id and server stats of each answered query.
fn trace_phase(
    tr: &mut Tracer,
    name: &str,
    start: Instant,
    len: Duration,
    done: &[Done],
) -> Vec<(u64, ServeStats)> {
    let base = tr.ns(start);
    let phase = tr.span(name, 0, 0, base, base + len.as_nanos() as u64);
    let mut answered = Vec::new();
    for d in done {
        let (s, e) = (
            base + d.sent.as_nanos() as u64,
            base + d.done.as_nanos() as u64,
        );
        match (d.kind, &d.outcome) {
            (Kind::Query, Outcome::Ok(r)) => {
                let client = tr.span("client.request", phase, d.id, s, e);
                let st = &r.stats;
                let s0 = s + (e - s).saturating_sub(st.serve_nanos) / 2;
                let server = tr.span("server.total", client, d.id, s0, s0 + st.serve_nanos);
                tr.span("queue.wait", server, d.id, s0, s0 + st.queue_nanos);
                let e0 = s0 + st.queue_nanos;
                tr.span("engine.run", server, d.id, e0, e0 + st.runtime_nanos);
                answered.push((client, st.clone()));
            }
            (Kind::Query, _) => {
                tr.span("client.request", phase, d.id, s, e);
            }
            (Kind::Update, _) => {
                tr.span("client.update", phase, d.id, s, e);
            }
        }
    }
    answered
}

/// Per-layer metrics of the admission queue, batcher and wire, from the
/// traced phase's replies and a final stats frame.
fn serve_layers(
    rep: &mut Report,
    tr: &Tracer,
    answered: &[(u64, ServeStats)],
    stats: &StatsReport,
) {
    let self_ns = tr.self_ns();
    let micros = |f: fn(&ServeStats) -> u64| -> Vec<f64> {
        answered.iter().map(|(_, s)| f(s) as f64 / 1e3).collect()
    };
    let wire: Vec<f64> = answered
        .iter()
        .map(|(id, _)| self_ns[*id as usize - 1] as f64 / 1e3)
        .collect();
    for (name, v) in [
        ("queue.wait_us", micros(|s| s.queue_nanos)),
        ("server.engine_us", micros(|s| s.runtime_nanos)),
        ("server.total_us", micros(|s| s.serve_nanos)),
        ("wire.us", wire),
    ] {
        rep.put(&format!("{name}.p50"), percentile(&v, 0.5), "us");
        rep.put(&format!("{name}.p99"), percentile(&v, 0.99), "us");
    }
    let batch: Vec<f64> = answered
        .iter()
        .map(|(_, s)| f64::from(s.batch_size))
        .collect();
    rep.put("queue.batch_mean", mean(&batch), "count");
    rep.put("queue.shed", stats.shed as f64, "count");
    rep.put("server.index_builds", stats.index_builds as f64, "count");
    rep.put("server.timeouts", stats.timeouts as f64, "count");
}

fn poll_stats(addr: SocketAddr) -> Result<StatsReport, String> {
    ServeClient::connect(addr)
        .timeout(IO_TIMEOUT)
        .open()
        .and_then(|mut c| c.stats())
        .map_err(|e| format!("stats poll failed: {e}"))
}

/// Count attempts and failures of a phase's ops; updates must report
/// exactly the one deleted and one inserted edge each swap carries.
fn account(rep: &mut Report, done: &[Done]) {
    for d in done {
        rep.attempted += 1;
        if let Outcome::Failed(why) = &d.outcome {
            if rep.failed < 3 {
                eprintln!("suite: {:?} {} failed: {why}", d.kind, d.id);
            }
            rep.failed += 1;
        }
        if let Outcome::Updated(u) = &d.outcome {
            rep.wrong += ((u.inserted, u.deleted) != (1, 1)) as u64;
        }
    }
}

fn serve(w: Workload, st: &Staged, seconds: f64, tr: &mut Tracer) -> Result<Report, String> {
    let mut rep = Report::new();
    let first = st.requests.first().ok_or("no staged requests")?;

    // Set-up: a fresh server process maps and validates the staged
    // container and binds; the first answer ends it. The last server
    // stays up for the timed phases.
    let mut setup_s = Vec::new();
    let mut setup_answers = Vec::new();
    let mut live = None;
    for _ in 0..SETUP_REPS {
        drop(live.take());
        let span = tr.begin("setup", 0);
        let t0 = Instant::now();
        let (server, _) = tr.time("server.start", span, || ServerProcess::start(&st.dir));
        let server = server?;
        let (reply, _) = tr.time("client.first_answer", span, || {
            let mut client = ServeClient::connect(server.addr)
                .timeout(IO_TIMEOUT)
                .open()?;
            client.query(
                &first.sources,
                first.k,
                HOPS,
                first.aggregate,
                first.include_self,
            )
        });
        setup_s.push(t0.elapsed().as_secs_f64());
        tr.end(span);
        setup_answers.push(reply.map_err(|e| format!("first query failed: {e}"))?);
        live = Some(server);
    }
    let server = live.expect("at least one set-up");
    rep.put("setup_s", median(&setup_s), "s");

    let addr = server.addr;
    let mut conns = [loadgen::connect(addr)?, loadgen::connect(addr)?];
    let (mut next_req, mut next_swap) = (0, 0);
    let mut runs = Vec::new();
    for (i, phase) in w.phases(seconds).into_iter().enumerate() {
        let plans = (0..conns.len())
            .map(|c| conn_ops(st, w, i, &phase, c, next_req, next_swap))
            .collect();
        let len = Duration::from_secs_f64(phase.secs);
        let start = Instant::now();
        let done = run_phase(&mut conns, plans, len, start);
        next_req += phase.request_budget();
        next_swap += phase.updates();
        runs.push((phase, start, done));
    }
    rep.put("rss_mb", server.peak_rss_mib()?, "MiB");

    let main = match w {
        Workload::PointServe => "full",
        _ => "mixed",
    };
    let answered_ms = |done: &[Done], kind: Kind| -> Vec<f64> {
        done.iter()
            .filter(|d| d.kind == kind && !d.failed())
            .map(Done::latency_ms)
            .collect()
    };
    // Each phase ran in several rounds; pool the rounds of each phase.
    let mut lag: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut latency: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut updates = Vec::new();
    let (mut saturated, mut saturated_s) = (0, 0.0);
    for (phase, _, done) in &runs {
        account(&mut rep, done);
        updates.extend(answered_ms(done, Kind::Update));
        if phase.query_rate.is_some() {
            lag.entry(phase.name)
                .or_default()
                .extend(done.iter().map(Done::lag_ms));
            latency
                .entry(phase.name)
                .or_default()
                .extend(answered_ms(done, Kind::Query));
        } else {
            let len = Duration::from_secs_f64(phase.secs);
            saturated += done
                .iter()
                .filter(|d| d.kind == Kind::Query && !d.failed() && d.done <= len)
                .count();
            saturated_s += phase.secs;
        }
    }
    for (name, lat) in &latency {
        let suffix = if *name == main {
            String::new()
        } else {
            format!(".{name}")
        };
        for (p, q) in [("p50", 0.5), ("p95", 0.95), ("p99", 0.99)] {
            rep.put(&format!("lat_{p}_ms{suffix}"), percentile(lat, q), "ms");
        }
    }
    rep.put("throughput_qps", saturated as f64 / saturated_s, "1/s");
    if !updates.is_empty() {
        rep.put("update_p50_ms", percentile(&updates, 0.5), "ms");
        rep.put("update_p90_ms", percentile(&updates, 0.9), "ms");
    }
    let lag_p99 = lag
        .values()
        .map(|l| percentile(l, 0.99))
        .fold(0.0, f64::max);
    rep.valid = lag_p99 <= MAX_LAG_MS;
    rep.put("loadgen.lag_ms.p99", lag_p99, "ms");
    let all = runs.iter().flat_map(|r| &r.2);
    rep.put("loadgen.sent", all.clone().count() as f64, "count");
    rep.put(
        "loadgen.completed",
        all.filter(|d| !d.failed()).count() as f64,
        "count",
    );
    let stats = poll_stats(addr)?;

    // Answers. The oracle maps the same container, with its indexes.
    let container = CompiledGraph::load(&st.container())
        .map_err(|e| format!("cannot load the container: {e}"))?;
    let state = container
        .engine_state(HOPS)
        .ok_or("the container has no radius-2 indexes")?;
    let base = LonaEngine::from_state(&container, HOPS, state);
    for reply in &setup_answers {
        rep.attempted += 1;
        match reply {
            Reply::Ok(r) => {
                rep.wrong += (oracle(&base, first) != answer_bits(r.entries.iter().copied())) as u64
            }
            Reply::Err { .. } => rep.failed += 1,
        }
    }
    if w == Workload::PointServe {
        for (_, _, done) in &runs {
            rep.wrong += check_replies(&base, &st.requests, done);
        }
    } else {
        // The server's graph moved on with every UPDATE; probe it and
        // check against a fresh engine on the final graph, rebuilt by
        // the benchmark from the swaps it sent.
        let ops = (0..PROBES.min(st.requests.len())).map(|j| {
            Op::query(
                j,
                &st.requests[j],
                (1 << 41) | (j as u64 + 1),
                Duration::ZERO,
                true,
            )
        });
        let start = Instant::now();
        let probes = loadgen::drive(&mut conns[0], ops, Pace::Closed, IO_TIMEOUT, start);
        account(&mut rep, &probes);
        let after = apply_swaps(container.csr(), &st.swaps[..next_swap]);
        let mut fresh = LonaEngine::new(&after, HOPS);
        fresh.prepare_diff_index();
        rep.wrong += check_replies(&fresh, &st.requests, &probes);
    }

    if tr.on() {
        let mut answered = Vec::new();
        for (phase, start, done) in &runs {
            let len = Duration::from_secs_f64(phase.secs);
            let a = trace_phase(tr, &format!("phase.{}", phase.name), *start, len, done);
            if phase.name == main {
                answered.extend(a);
            }
        }
        serve_layers(&mut rep, tr, &answered, &stats);
        rep.put("index.builds", stats.index_builds as f64, "count");
        replay::run(w, st, tr, &mut rep)?;
    }
    Ok(rep)
}

fn analytic(st: &Staged, seconds: f64, tr: &mut Tracer) -> Result<Report, String> {
    let mut rep = Report::new();
    let q0 = st.queries.first().ok_or("no staged queries")?;
    let cfg = PlannerConfig::default();

    // Set-up: staged edge list -> parsed, size and diff index built,
    // first answer.
    let mut setup_s = Vec::new();
    let mut setup_answers = Vec::new();
    let mut live = None;
    for _ in 0..SETUP_REPS {
        drop(live.take());
        let span = tr.begin("setup", 0);
        let t0 = Instant::now();
        let (g, _) = tr.time("io.read_edge_list", span, || parse_edge_list(st));
        let g = Arc::new(g?);
        let mut engine = LonaEngine::new(&*g, HOPS);
        tr.time("index.prepare_diff_index", span, || {
            engine.prepare_diff_index()
        });
        let ((_, first), _) = tr.time("engine.first_answer", span, || {
            engine.run_planned(&analytic_query(q0), &st.vectors[q0.vector], &cfg)
        });
        setup_s.push(t0.elapsed().as_secs_f64());
        tr.end(span);
        setup_answers.push(result_bits(&first));
        let state = engine.into_state();
        live = Some((g, state));
    }
    let (g, state) = live.expect("at least one set-up");
    rep.put("setup_s", median(&setup_s), "s");

    // Timed: the whole query set as one batch, closed loop, repeated.
    let mut engine = LonaEngine::from_state(&*g, HOPS, state);
    let batch: Vec<BatchQuery<'_>> = st
        .queries
        .iter()
        .map(|q| BatchQuery::new(analytic_query(q), &st.vectors[q.vector]))
        .collect();
    let opts = BatchOptions::default();
    let start = Instant::now();
    let (mut walls, mut lat) = (Vec::new(), Vec::new());
    let mut reference: Vec<Vec<(u32, u64)>> = Vec::new();
    // Start another repetition only if one more fits in `seconds`.
    while walls.len() < MIN_BATCH_REPS
        || start.elapsed().as_secs_f64() + walls.last().copied().unwrap_or(0.0) <= seconds
    {
        let (out, wall) = tr.time("batch.run_batch", 0, || engine.run_batch(&batch, &opts));
        walls.push(wall.as_secs_f64());
        lat.extend(
            out.results
                .iter()
                .map(|r| r.stats.runtime.as_secs_f64() * 1e3),
        );
        let answers: Vec<_> = out.results.iter().map(result_bits).collect();
        if reference.is_empty() {
            reference = answers;
        } else {
            rep.wrong += answers
                .iter()
                .zip(&reference)
                .filter(|(a, b)| a != b)
                .count() as u64;
        }
    }
    rep.attempted += (walls.len() * batch.len()) as u64;
    let qps: Vec<f64> = walls.iter().map(|w| batch.len() as f64 / w).collect();
    rep.put("lat_p50_ms", percentile(&lat, 0.5), "ms");
    rep.put("lat_p95_ms", percentile(&lat, 0.95), "ms");
    rep.put("throughput_qps", median(&qps), "1/s");
    rep.put("rss_mb", peak_rss_mib("self")?, "MiB");
    rep.put("batch.reps", walls.len() as f64, "count");

    // Answers: the set-up's first answer and one query per (relevance,
    // k, aggregate) cell against a serial planned run.
    for a in &setup_answers {
        rep.attempted += 1;
        rep.wrong += (*a != reference[0]) as u64;
    }
    let mut cells = Vec::new();
    for (i, q) in st.queries.iter().enumerate() {
        if cells.contains(&q.cell()) {
            continue;
        }
        cells.push(q.cell());
        let (_, r) = engine.run_planned(&analytic_query(q), &st.vectors[q.vector], &cfg);
        rep.attempted += 1;
        rep.wrong += (result_bits(&r) != reference[i]) as u64;
    }

    if tr.on() {
        rep.put(
            "index.builds",
            f64::from(engine.state().index_builds()),
            "count",
        );
        // The serve layers on this workload's graph: a server warm with
        // the same indexes, probed closed-loop with staged requests.
        let warm =
            EngineState::from_indexes(engine.size_index().cloned(), engine.diff_index().cloned());
        let server = Server::builder(Arc::clone(&g))
            .warm(BTreeMap::from([(HOPS, warm)]))
            .bind("127.0.0.1:0")
            .map_err(|e| format!("cannot start the server: {e}"))?;
        let mut conn = loadgen::connect(server.local_addr())?;
        let ops = (0..ANALYTIC_PROBES.min(st.requests.len()))
            .map(|j| Op::query(j, &st.requests[j], j as u64 + 1, Duration::ZERO, true));
        let start = Instant::now();
        let done = loadgen::drive(&mut conn, ops, Pace::Closed, IO_TIMEOUT, start);
        account(&mut rep, &done);
        rep.wrong += check_replies(&engine, &st.requests, &done);
        let stats = poll_stats(server.local_addr())?;
        let answered = trace_phase(tr, "phase.probe", start, start.elapsed(), &done);
        serve_layers(&mut rep, tr, &answered, &stats);
        drop((conn, server));
        replay::run(Workload::AnalyticBatch, st, tr, &mut rep)?;
    }
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::stage;

    #[test]
    fn the_oracle_rejects_a_planted_wrong_answer() {
        let dir = std::env::temp_dir().join(format!("suite-oracle-test-{}", std::process::id()));
        stage(Workload::PointServe, 5, 1.0, &dir, true).unwrap();
        let st = Staged::load(&dir).unwrap();
        let c = CompiledGraph::load(&st.container()).unwrap();
        let engine = LonaEngine::from_state(&c, HOPS, c.engine_state(HOPS).unwrap());
        let done: Vec<Done> = (0..8)
            .map(|i| Done {
                kind: Kind::Query,
                input: i,
                id: i as u64,
                due: Duration::ZERO,
                sent: Duration::ZERO,
                done: Duration::ZERO,
                outcome: Outcome::Ok(lona_core::serve::Response {
                    id: i as u64,
                    entries: oracle(&engine, &st.requests[i])
                        .into_iter()
                        .map(|(u, bits)| (u, f64::from_bits(bits)))
                        .collect(),
                    stats: ServeStats::default(),
                }),
            })
            .collect();
        assert_eq!(check_replies(&engine, &st.requests, &done), 0);
        let mut planted = done.clone();
        let Outcome::Ok(r) = &mut planted[3].outcome else {
            unreachable!()
        };
        r.entries[0].1 = f64::from_bits(r.entries[0].1.to_bits() ^ 1);
        assert_eq!(check_replies(&engine, &st.requests, &planted), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
