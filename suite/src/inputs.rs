//! Workload definitions and input staging.
//!
//! `suite stage` runs in its own process and writes every input a
//! measured run needs into one directory: the graph as an edge list
//! and as a compiled container, the request stream, the edge-swap
//! stream and (analytic-batch) the relevance vectors and query set.
//! The measured process then only loads them, so its set-up time and
//! memory cover the program's own load path and nothing the generator
//! did. Everything derives from `--seed`; the same seed stages the same
//! bytes, which the FNV-1a fingerprints pin.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use lona_core::{compile_to_file, Aggregate, CompileSpec};
use lona_gen::{DatasetKind, DatasetProfile};
use lona_graph::io::write_edge_list;
use lona_graph::{CsrGraph, CsrView, GraphBuilder, NodeOrder};
use lona_relevance::{MixtureBuilder, ScoreVec};

/// Hop radius of every query and index (the paper's 2).
pub const HOPS: u32 = 2;

/// Every workload's network comes from this generator seed; `--seed`
/// varies the traffic on it. Each generated graph has its own hubs, and
/// from one generator seed to the next they moved repair cost by 20%
/// and per-query cost by 10%, more than the changes the benchmark must
/// detect.
const GRAPH_SEED: u64 = 1;

/// Edge swaps the per-layer replay of the update path applies (one
/// repair costs up to a second on the citation graph's hubs).
pub const REPLAY_SWAPS: usize = 4;

/// Rounds of every traffic phase in a run.
const ROUNDS: usize = 4;

/// The closed-loop saturation phase draws requests from the staged
/// pool at up to this rate before it starts reusing them.
const SATURATION_CAP_RPS: f64 = 5000.0;

/// Serve-style requests staged for analytic-batch, whose serve-layer
/// replays and probe phase use them.
const ANALYTIC_REQUESTS: usize = 256;

/// Requests the fingerprint covers (a prefix, so it does not depend on
/// `--seconds`).
const FINGERPRINT_REQUESTS: usize = 4096;

/// Edge swaps the fingerprint covers (at least [`REPLAY_SWAPS`]).
const FINGERPRINT_SWAPS: usize = 64;

/// One of the benchmark's workloads.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    PointServe,
    AnalyticBatch,
    UpdateMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PointServe,
        Workload::AnalyticBatch,
        Workload::UpdateMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PointServe => "point-serve",
            Workload::AnalyticBatch => "analytic-batch",
            Workload::UpdateMix => "update-mix",
        }
    }

    pub fn parse(s: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| {
                format!("unknown workload `{s}` (point-serve|analytic-batch|update-mix)")
            })
    }

    /// The generated network: a citation graph (scale-free, strong
    /// hubs) for the two read workloads, the clustered collaboration
    /// graph for update-mix. `tiny` shrinks each to a few thousand
    /// nodes for the smoke test.
    fn dataset(self, tiny: bool) -> (DatasetKind, f64) {
        match (self, tiny) {
            // 150k nodes / 750k edges: the 13 MB container spills L2.
            (Workload::PointServe, false) => (DatasetKind::Citation, 0.05),
            // 30k nodes / 150k edges: millions of edge accesses per
            // query, so a 48-query batch takes about three seconds.
            (Workload::AnalyticBatch, false) => (DatasetKind::Citation, 0.01),
            // 40k nodes / 175k edges: the 1.5 MB CSR fits L2.
            (Workload::UpdateMix, false) => (DatasetKind::Collaboration, 1.0),
            (Workload::PointServe, true) => (DatasetKind::Citation, 0.002),
            (Workload::AnalyticBatch, true) => (DatasetKind::Citation, 0.001),
            (Workload::UpdateMix, true) => (DatasetKind::Collaboration, 0.05),
        }
    }

    /// The timed traffic phases of a serve workload, splitting
    /// `seconds` between them (analytic-batch has none: it repeats its
    /// batch for the whole time instead). The phases run in
    /// [`ROUNDS`] rounds, so each metric samples the whole run instead
    /// of one stretch of it that a burst of host noise may cover.
    pub fn phases(self, seconds: f64) -> Vec<Phase> {
        let shares: &[(&'static str, f64, Option<f64>, f64)] = match self {
            Workload::PointServe => &[
                ("half", 0.3, Some(150.0), 0.0),
                ("full", 0.4, Some(300.0), 0.0),
                ("saturate", 0.3, None, 0.0),
            ],
            Workload::AnalyticBatch => &[],
            Workload::UpdateMix => &[
                ("mixed", 0.7, Some(150.0), 4.0),
                ("saturate", 0.3, None, 4.0),
            ],
        };
        (0..ROUNDS)
            .flat_map(|_| shares.iter())
            .map(|&(name, share, query_rate, update_rate)| Phase {
                name,
                secs: share * seconds / ROUNDS as f64,
                query_rate,
                update_rate,
            })
            .collect()
    }
}

/// One timed phase of serve traffic.
#[derive(Clone, Debug)]
pub struct Phase {
    pub name: &'static str,
    pub secs: f64,
    /// Open-loop query rate (requests/s); `None` is the closed-loop
    /// saturation phase, one request outstanding per query connection.
    pub query_rate: Option<f64>,
    /// Open-loop UPDATE rate on the second connection.
    pub update_rate: f64,
}

impl Phase {
    /// Open-loop queries this phase schedules.
    pub fn fixed_queries(&self) -> usize {
        self.query_rate
            .map_or(0, |r| (r * self.secs).floor() as usize)
    }

    /// UPDATE frames this phase schedules.
    pub fn updates(&self) -> usize {
        (self.update_rate * self.secs).floor() as usize
    }

    /// Requests this phase may draw from the pool.
    pub fn request_budget(&self) -> usize {
        match self.query_rate {
            Some(_) => self.fixed_queries(),
            None => (SATURATION_CAP_RPS * self.secs).ceil() as usize,
        }
    }
}

/// One serve request: an inline binary source set.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeReq {
    pub sources: Vec<u32>,
    pub k: usize,
    pub aggregate: Aggregate,
    pub include_self: bool,
}

/// One UPDATE: delete an existing edge, insert an absent one, so the
/// edge count stays constant.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct EdgeSwap {
    pub del: (u32, u32),
    pub ins: (u32, u32),
}

/// One analytic-batch query: relevance vector index, k, aggregate.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct AnalyticQuery {
    pub vector: usize,
    pub k: usize,
    pub aggregate: Aggregate,
}

/// Dense relevance vectors (mixture with support 0.5 — the planner
/// picks LONA-Forward), then sparse ones (the paper's mixture, 6%
/// non-zero — LONA-Backward).
const DENSE_VECTORS: usize = 3;
const SPARSE_VECTORS: usize = 2;
const ANALYTIC_KS: [usize; 3] = [10, 100, 1000];
/// Copies of each (relevance, k, aggregate) cell in the query set:
/// three quarters of the 48 queries are dense.
const DENSE_COPIES: usize = 6;
const SPARSE_COPIES: usize = 2;

impl AnalyticQuery {
    /// The (relevance, k, aggregate) cell this query belongs to.
    pub fn cell(&self) -> (bool, usize, Aggregate) {
        (self.vector < DENSE_VECTORS, self.k, self.aggregate)
    }
}

/// Everything `stage` wrote, read back.
pub struct Staged {
    pub dir: PathBuf,
    pub description: String,
    pub num_nodes: usize,
    pub requests: Vec<ServeReq>,
    pub swaps: Vec<EdgeSwap>,
    pub vectors: Vec<ScoreVec>,
    pub queries: Vec<AnalyticQuery>,
    pub fingerprints: Vec<(String, String)>,
}

impl Staged {
    pub fn edge_list(&self) -> PathBuf {
        self.dir.join("graph.el")
    }

    pub fn container(&self) -> PathBuf {
        self.dir.join("graph.lona")
    }

    /// Read a staged directory.
    pub fn load(dir: &Path) -> Result<Staged, String> {
        let read = |name: &str| {
            std::fs::read_to_string(dir.join(name))
                .map_err(|e| format!("cannot read staged {name}: {e}"))
        };
        let mut staged = Staged {
            dir: dir.to_path_buf(),
            description: String::new(),
            num_nodes: 0,
            requests: read("requests.txt")?
                .lines()
                .map(parse_request)
                .collect::<Result<_, _>>()?,
            swaps: read("swaps.txt")?
                .lines()
                .map(parse_swap)
                .collect::<Result<_, _>>()?,
            vectors: Vec::new(),
            queries: Vec::new(),
            fingerprints: Vec::new(),
        };
        for line in read("inputs.txt")?.lines() {
            let (key, value) = line.split_once(' ').unwrap_or((line, ""));
            match key {
                "description" => staged.description = value.to_string(),
                "nodes" => staged.num_nodes = value.parse().map_err(|_| "bad node count")?,
                "vectors" => {
                    let count: usize = value.parse().map_err(|_| "bad vector count")?;
                    for i in 0..count {
                        let raw = std::fs::read(dir.join(format!("scores-{i}.bin")))
                            .map_err(|e| format!("cannot read scores-{i}.bin: {e}"))?;
                        let scores = raw
                            .chunks_exact(8)
                            .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
                            .collect();
                        staged.vectors.push(ScoreVec::new(scores));
                    }
                    staged.queries = read("queries.txt")?
                        .lines()
                        .map(parse_analytic)
                        .collect::<Result<_, _>>()?;
                }
                k if k.starts_with("fingerprint.") => staged
                    .fingerprints
                    .push((k["fingerprint.".len()..].to_string(), value.to_string())),
                _ => {}
            }
        }
        Ok(staged)
    }
}

/// SplitMix64: a tiny seeded generator, so the request and swap
/// streams depend on nothing outside this file.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// FNV-1a 64 over a stream of little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn put(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, x: u64) {
        self.put(&x.to_le_bytes());
    }

    fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

fn agg_name(a: Aggregate) -> &'static str {
    match a {
        Aggregate::Avg => "avg",
        _ => "sum",
    }
}

fn parse_agg(s: &str) -> Result<Aggregate, String> {
    match s {
        "sum" => Ok(Aggregate::Sum),
        "avg" => Ok(Aggregate::Avg),
        _ => Err(format!("bad aggregate `{s}`")),
    }
}

fn parse_request(line: &str) -> Result<ServeReq, String> {
    let f: Vec<&str> = line.split(' ').collect();
    let bad = || format!("bad request line `{line}`");
    if f.len() != 4 {
        return Err(bad());
    }
    Ok(ServeReq {
        k: f[0].parse().map_err(|_| bad())?,
        aggregate: parse_agg(f[1])?,
        include_self: f[2] == "1",
        sources: f[3]
            .split(',')
            .map(|s| s.parse().map_err(|_| bad()))
            .collect::<Result<_, _>>()?,
    })
}

fn parse_swap(line: &str) -> Result<EdgeSwap, String> {
    let v: Vec<u32> = line
        .split(' ')
        .map(|s| s.parse().map_err(|_| format!("bad swap line `{line}`")))
        .collect::<Result<_, _>>()?;
    match v[..] {
        [a, b, c, d] => Ok(EdgeSwap {
            del: (a, b),
            ins: (c, d),
        }),
        _ => Err(format!("bad swap line `{line}`")),
    }
}

fn parse_analytic(line: &str) -> Result<AnalyticQuery, String> {
    let f: Vec<&str> = line.split(' ').collect();
    let bad = || format!("bad query line `{line}`");
    if f.len() != 3 {
        return Err(bad());
    }
    Ok(AnalyticQuery {
        vector: f[0].parse().map_err(|_| bad())?,
        k: f[1].parse().map_err(|_| bad())?,
        aggregate: parse_agg(f[2])?,
    })
}

/// `count` serve requests: 1–5 distinct seeded source nodes,
/// k ∈ {1, 10, 50}, SUM or AVG, `include_self` varied.
fn make_requests(n: usize, count: usize, rng: &mut Rng) -> Vec<ServeReq> {
    (0..count)
        .map(|_| {
            let want = 1 + rng.below(5) as usize;
            let mut sources = Vec::with_capacity(want);
            while sources.len() < want.min(n) {
                let s = rng.below(n as u64) as u32;
                if !sources.contains(&s) {
                    sources.push(s);
                }
            }
            ServeReq {
                sources,
                k: [1, 10, 50][rng.below(3) as usize],
                aggregate: [Aggregate::Sum, Aggregate::Avg][rng.below(2) as usize],
                include_self: rng.below(2) == 0,
            }
        })
        .collect()
}

/// Mutable adjacency the swap generator and the final-graph oracle
/// both walk.
fn adjacency(g: CsrView<'_>) -> Vec<Vec<u32>> {
    g.nodes()
        .map(|u| g.neighbors(u).iter().map(|v| v.0).collect())
        .collect()
}

fn unlink(adj: &mut [Vec<u32>], u: u32, v: u32) {
    adj[u as usize].retain(|&w| w != v);
    adj[v as usize].retain(|&w| w != u);
}

/// `count` swaps, each against the graph left by the ones before it:
/// delete a seeded node's seeded edge, insert a seeded absent edge.
fn make_swaps(g: CsrView<'_>, count: usize, rng: &mut Rng) -> Vec<EdgeSwap> {
    let n = g.num_nodes() as u64;
    let mut adj = adjacency(g);
    (0..count)
        .map(|_| {
            let u = loop {
                let u = rng.below(n) as usize;
                if !adj[u].is_empty() {
                    break u as u32;
                }
            };
            let v = adj[u as usize][rng.below(adj[u as usize].len() as u64) as usize];
            unlink(&mut adj, u, v);
            let (a, b) = loop {
                let (a, b) = (rng.below(n) as u32, rng.below(n) as u32);
                let same = (a, b) == (u, v) || (a, b) == (v, u);
                if a != b && !same && !adj[a as usize].contains(&b) {
                    break (a, b);
                }
            };
            adj[a as usize].push(b);
            adj[b as usize].push(a);
            EdgeSwap {
                del: (u, v),
                ins: (a, b),
            }
        })
        .collect()
}

/// The graph after `swaps`, rebuilt from scratch: the oracle the
/// server's incrementally repaired state is checked against.
pub fn apply_swaps(g: CsrView<'_>, swaps: &[EdgeSwap]) -> CsrGraph {
    let mut adj = adjacency(g);
    for s in swaps {
        unlink(&mut adj, s.del.0, s.del.1);
        adj[s.ins.0 as usize].push(s.ins.1);
        adj[s.ins.1 as usize].push(s.ins.0);
    }
    let mut b = GraphBuilder::undirected().with_num_nodes(g.num_nodes() as u32);
    for (u, row) in adj.iter().enumerate() {
        for &v in row.iter().filter(|&&v| v > u as u32) {
            b.push_edge(u as u32, v);
        }
    }
    b.build().expect("swapped graph builds")
}

/// Relevance vectors and the 48-query analytic set, shuffled.
fn make_analytic(g: &CsrGraph, rng: &mut Rng) -> (Vec<ScoreVec>, Vec<AnalyticQuery>) {
    let mut vectors = Vec::new();
    for i in 0..DENSE_VECTORS + SPARSE_VECTORS {
        let support = if i < DENSE_VECTORS { 0.5 } else { 0.05 };
        let mix = MixtureBuilder::new(0.01)
            .support(support)
            .lambda(5.0)
            .walk_blacking(4);
        vectors.push(mix.build(g, rng.next_u64()));
    }
    let mut queries = Vec::new();
    for dense in [true, false] {
        for k in ANALYTIC_KS {
            for aggregate in [Aggregate::Sum, Aggregate::Avg] {
                let (copies, first, count) = if dense {
                    (DENSE_COPIES, 0, DENSE_VECTORS)
                } else {
                    (SPARSE_COPIES, DENSE_VECTORS, SPARSE_VECTORS)
                };
                for c in 0..copies {
                    queries.push(AnalyticQuery {
                        vector: first + c % count,
                        k,
                        aggregate,
                    });
                }
            }
        }
    }
    for i in (1..queries.len()).rev() {
        queries.swap(i, rng.below(i as u64 + 1) as usize);
    }
    (vectors, queries)
}

/// Fingerprints of the generated inputs, by component.
fn fingerprints(
    g: &CsrGraph,
    vectors: &[ScoreVec],
    requests: &[ServeReq],
    swaps: &[EdgeSwap],
) -> Vec<(&'static str, String)> {
    let mut graph = Fnv::new();
    graph.word(g.num_nodes() as u64);
    for (u, v, _) in g.edges() {
        graph.word(u64::from(u.0) << 32 | u64::from(v.0));
    }
    let mut scores = Fnv::new();
    for v in vectors {
        for x in v.as_slice() {
            scores.word(x.to_bits());
        }
    }
    let mut reqs = Fnv::new();
    for r in requests.iter().take(FINGERPRINT_REQUESTS) {
        reqs.word(r.k as u64);
        reqs.put(&[
            matches!(r.aggregate, Aggregate::Avg) as u8,
            r.include_self as u8,
        ]);
        reqs.word(r.sources.len() as u64);
        for &s in &r.sources {
            reqs.word(u64::from(s));
        }
    }
    let mut sw = Fnv::new();
    for s in swaps.iter().take(FINGERPRINT_SWAPS) {
        for x in [s.del.0, s.del.1, s.ins.0, s.ins.1] {
            sw.word(u64::from(x));
        }
    }
    vec![
        ("graph", graph.hex()),
        ("scores", scores.hex()),
        ("requests", reqs.hex()),
        ("swaps", sw.hex()),
    ]
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Generate and write every input of `workload` for a run of
/// `seconds` into `dir`. `inputs.txt` is written last and marks a
/// complete staging.
pub fn stage(
    workload: Workload,
    seed: u64,
    seconds: f64,
    dir: &Path,
    tiny: bool,
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let (kind, scale) = workload.dataset(tiny);
    let g = DatasetProfile {
        kind,
        scale,
        seed: GRAPH_SEED,
    }
    .generate()
    .map_err(|e| format!("graph generation failed: {e}"))?;
    let n = g.num_nodes();

    let el = dir.join("graph.el");
    let mut w = BufWriter::new(File::create(&el).map_err(|e| format!("{}: {e}", el.display()))?);
    write_edge_list(&g, &mut w).map_err(|e| format!("cannot write edge list: {e}"))?;
    w.flush()
        .map_err(|e| format!("cannot write edge list: {e}"))?;
    let container = dir.join("graph.lona");
    compile_to_file(
        &CompileSpec {
            graph: g.view(),
            scores: None,
            hops: &[HOPS],
            with_diff: true,
            order: NodeOrder::Natural,
        },
        &container,
    )
    .map_err(|e| format!("cannot compile the container: {e}"))?;

    let phases = workload.phases(seconds);
    // Streams are generated in order, so the fingerprinted prefixes are
    // the same whatever `seconds` asks for beyond them.
    let pool = match workload {
        Workload::AnalyticBatch => ANALYTIC_REQUESTS,
        _ => phases
            .iter()
            .map(Phase::request_budget)
            .sum::<usize>()
            .max(FINGERPRINT_REQUESTS),
    };
    let swap_count = phases
        .iter()
        .map(Phase::updates)
        .sum::<usize>()
        .max(FINGERPRINT_SWAPS);
    let requests = make_requests(n, pool, &mut Rng::new(seed ^ 0x7265_7175_6573_7473));
    let swaps = make_swaps(g.view(), swap_count, &mut Rng::new(seed ^ 0x7377_6170_7300));
    let (vectors, queries) = match workload {
        Workload::AnalyticBatch => make_analytic(&g, &mut Rng::new(seed ^ 0x616e_616c_7974)),
        _ => (Vec::new(), Vec::new()),
    };

    let mut text = String::new();
    for r in &requests {
        let sources: Vec<String> = r.sources.iter().map(u32::to_string).collect();
        let _ = writeln!(
            text,
            "{} {} {} {}",
            r.k,
            agg_name(r.aggregate),
            r.include_self as u8,
            sources.join(",")
        );
    }
    write_file(&dir.join("requests.txt"), &text)?;
    text.clear();
    for s in &swaps {
        let _ = writeln!(text, "{} {} {} {}", s.del.0, s.del.1, s.ins.0, s.ins.1);
    }
    write_file(&dir.join("swaps.txt"), &text)?;
    text.clear();
    for q in &queries {
        let _ = writeln!(text, "{} {} {}", q.vector, q.k, agg_name(q.aggregate));
    }
    write_file(&dir.join("queries.txt"), &text)?;
    for (i, v) in vectors.iter().enumerate() {
        let bytes: Vec<u8> = v.as_slice().iter().flat_map(|x| x.to_le_bytes()).collect();
        std::fs::write(dir.join(format!("scores-{i}.bin")), bytes)
            .map_err(|e| format!("cannot write scores: {e}"))?;
    }

    let container_mb = std::fs::metadata(&container).map_or(0, |m| m.len()) as f64 / 1e6;
    let mut info = format!(
        "description {} scale {scale}: {n} nodes, {} edges, container {container_mb:.1} MB; \
         {} requests; {} edge swaps",
        kind.name(),
        g.num_edges(),
        requests.len(),
        swaps.len()
    );
    if !queries.is_empty() {
        let _ = write!(
            info,
            "; {} queries over {} relevance vectors",
            queries.len(),
            vectors.len()
        );
    }
    let _ = write!(info, "\nnodes {n}\nvectors {}\n", vectors.len());
    for (name, hash) in fingerprints(&g, &vectors, &requests, &swaps) {
        let _ = writeln!(info, "fingerprint.{name} {hash}");
    }
    write_file(&dir.join("inputs.txt"), &info)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lona_graph::NodeId;

    #[test]
    fn swaps_keep_the_edge_count_and_apply_in_order() {
        let g = DatasetProfile {
            kind: DatasetKind::Collaboration,
            scale: 0.02,
            seed: 3,
        }
        .generate()
        .unwrap();
        let swaps = make_swaps(g.view(), 20, &mut Rng::new(9));
        let after = apply_swaps(g.view(), &swaps);
        assert_eq!(after.num_edges(), g.num_edges());
        let last = swaps.last().unwrap();
        assert!(after.has_edge(NodeId(last.ins.0), NodeId(last.ins.1)));
    }

    #[test]
    fn one_seed_stages_the_same_fingerprints() {
        let base = std::env::temp_dir().join(format!("suite-stage-test-{}", std::process::id()));
        for w in Workload::ALL {
            let prints = |name: &str, seed| {
                let dir = base.join(format!("{}-{name}", w.name()));
                stage(w, seed, 1.0, &dir, true).unwrap();
                Staged::load(&dir).unwrap().fingerprints
            };
            let (a, b, c) = (prints("a", 7), prints("b", 7), prints("c", 8));
            assert_eq!(a, b, "{}: one seed, two fingerprints", w.name());
            assert_ne!(a, c, "{}: two seeds, one fingerprint", w.name());
        }
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn analytic_set_is_three_quarters_dense() {
        let g = DatasetProfile {
            kind: DatasetKind::Citation,
            scale: 0.0005,
            seed: 1,
        }
        .generate()
        .unwrap();
        let (vectors, queries) = make_analytic(&g, &mut Rng::new(1));
        assert_eq!(vectors.len(), DENSE_VECTORS + SPARSE_VECTORS);
        assert_eq!(queries.len(), 48);
        assert_eq!(queries.iter().filter(|q| q.cell().0).count(), 36);
    }
}
