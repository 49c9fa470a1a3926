//! Hand-rolled argument parsing.

use lona_core::Aggregate;
use lona_gen::DatasetKind;
use lona_graph::PartitionStrategy;

/// Which algorithm the `topk` subcommand should run.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum AlgorithmChoice {
    /// Naive forward baseline.
    Base,
    /// LONA-Forward (differential index).
    Forward,
    /// Full backward distribution.
    BackwardNaive,
    /// LONA-Backward (partial distribution).
    Backward,
}

impl std::str::FromStr for AlgorithmChoice {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "base" => Ok(AlgorithmChoice::Base),
            "forward" => Ok(AlgorithmChoice::Forward),
            "backward-naive" => Ok(AlgorithmChoice::BackwardNaive),
            "backward" => Ok(AlgorithmChoice::Backward),
            other => Err(format!(
                "unknown algorithm `{other}` (base|forward|backward|backward-naive)"
            )),
        }
    }
}

/// A parsed invocation.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// `lona stats <edgelist|HOST:PORT>` — a socket address polls a
    /// running `lona serve` for its counters and latency histograms;
    /// anything else is treated as an edge-list path.
    Stats {
        /// Input edge-list path, or a server address.
        input: String,
    },
    /// `lona generate <kind> --out <file> [--scale S] [--seed N]`
    Generate {
        /// Dataset profile kind.
        kind: DatasetKind,
        /// Output path (edge-list text).
        out: String,
        /// Linear scale (default 0.1).
        scale: f64,
        /// Generator seed (default 42).
        seed: u64,
    },
    /// `lona compile <edgelist> --out <file> [--scores FILE |
    /// --blacking R [--binary]] [--seed N] [--hops H1,H2,...]` — pack
    /// the graph, a score vector, and pre-built per-radius indexes
    /// into one mmap-able file for zero-build startup.
    Compile {
        /// Input edge-list path.
        input: String,
        /// Output compiled-file path.
        out: String,
        /// Score file to embed; `None` = generate the same mixture
        /// `lona topk` would (so compiled and edge-list runs agree).
        scores: Option<String>,
        /// Blacking ratio for generated scores (default 0.01).
        blacking: f64,
        /// Generate pure 0/1 scores.
        binary: bool,
        /// Score generation seed (default 42).
        seed: u64,
        /// Hop radii to pre-build indexes for (default `[2]`).
        hops: Vec<u32>,
    },
    /// `lona update <edgelist> <deltafile> [--out FILE]
    /// [--hops H1,H2,...] [--scores FILE] [--scores-out FILE]
    /// [--verify]` — apply a batch of edge inserts/deletes (and score
    /// overrides when `--scores` is given) through the CSR overlay,
    /// repair the per-radius indexes incrementally, print the
    /// deterministic repair counters, and write the updated graph.
    Update {
        /// Input edge-list path.
        input: String,
        /// Delta file: `add u v [w]` / `del u v` / `score u x` lines,
        /// `#` comments and blank lines ignored.
        delta: String,
        /// Updated edge-list output path (`None` = don't write).
        out: Option<String>,
        /// Hop radii whose indexes are built pre-delta and repaired
        /// (default `[2]`).
        hops: Vec<u32>,
        /// Score file the delta's `score` lines override (required
        /// when the delta has any).
        scores: Option<String>,
        /// Where to write the post-override scores.
        scores_out: Option<String>,
        /// Cross-check every repaired index against a from-scratch
        /// rebuild of the updated graph.
        verify: bool,
    },
    /// `lona compact <compiled> --out FILE [--delta FILE]
    /// [--hops H1,H2,...]` — re-emit a compiled container, optionally
    /// applying a delta (edges and score overrides) first; the output
    /// loads with the same zero-build startup as `lona compile`.
    Compact {
        /// Input compiled-file path.
        input: String,
        /// Output compiled-file path.
        out: String,
        /// Delta file to apply before re-packing.
        delta: Option<String>,
        /// Hop radii to pre-build indexes for (`None` = the radii the
        /// input container carries).
        hops: Option<Vec<u32>>,
    },
    /// `lona topk <edgelist> [flags]`
    TopK {
        /// Input edge-list path.
        input: String,
        /// Treat `input` as a compiled file (`lona compile` output)
        /// instead of an edge list.
        compiled: bool,
        /// Number of results (default 10).
        k: usize,
        /// Hop radius (default 2).
        hops: u32,
        /// Aggregate function (default sum).
        aggregate: Aggregate,
        /// Algorithm (default backward).
        algorithm: AlgorithmChoice,
        /// Score file (one score per line); `None` = generate.
        scores: Option<String>,
        /// Blacking ratio for generated scores (default 0.01).
        blacking: f64,
        /// Generate pure 0/1 scores.
        binary: bool,
        /// Score generation seed (default 42).
        seed: u64,
        /// Exclude each node's own score from its aggregate.
        exclude_self: bool,
        /// Worker count for the query (default 1; 0 = one per core;
        /// BackwardNaive always runs one). With `--shards` it is the
        /// scatter budget instead (default 0 = one per core).
        threads: usize,
        /// Shard count (default 1 = single engine). With more than
        /// one shard the query runs through the scatter-gather
        /// engine.
        shards: usize,
        /// Partition strategy for `--shards` (default contiguous).
        strategy: PartitionStrategy,
    },
    /// `lona batch <edgelist> <queryfile> [flags]`
    Batch {
        /// Input edge-list path.
        input: String,
        /// Treat `input` as a compiled file.
        compiled: bool,
        /// Query file: one query per line as
        /// `source-set/k/hops/aggregate` (e.g. `3,17,29/10/2/sum`),
        /// where the source set is the comma-separated nodes scored 1
        /// (binary relevance); `#` comments and blank lines ignored.
        queries: String,
        /// Worker budget for the batch (default 0 = one per core).
        threads: usize,
        /// Planner override: run every query with this algorithm
        /// instead of consulting the cost-based planner.
        algorithm: Option<AlgorithmChoice>,
        /// Bypass the batch subsystem: run each query through a plain
        /// sequential `Engine::run` loop (the determinism reference —
        /// stdout is byte-identical to batch mode for planner-chosen
        /// plans and for every `--algorithm` override).
        sequential: bool,
        /// Queries per processing chunk (default 1024; bounds score
        /// vector memory while results stream out).
        chunk: usize,
        /// Exclude each node's own score from its aggregate.
        exclude_self: bool,
        /// Shard count (default 1 = single engine).
        shards: usize,
        /// Partition strategy for `--shards` (default contiguous).
        strategy: PartitionStrategy,
    },
    /// `lona shard <edgelist> --shards N [--strategy S] [--halo H]`
    Shard {
        /// Input edge-list path.
        input: String,
        /// Number of shards.
        shards: usize,
        /// Partition strategy (default contiguous).
        strategy: PartitionStrategy,
        /// Halo depth (default 2, the paper's hop radius — queries
        /// stay exact for any `hops <= halo`).
        halo: u32,
    },
    /// `lona serve <edgelist> [--addr A] [--threads N] [--window-us N]
    /// [--max-batch N] [--shards N [--strategy S] [--halo H]]
    /// [--register NAME=SCOREFILE]... [--queue-capacity N]
    /// [--max-connections N] [--io-timeout-ms N]` — the resident
    /// query service. Blocks until killed.
    Serve {
        /// Input edge-list path.
        input: String,
        /// Treat `input` as a compiled file: start warm with its
        /// packed per-radius indexes, building nothing at startup.
        compiled: bool,
        /// Listen address (default `127.0.0.1:7878`; port 0 picks an
        /// ephemeral port, reported on stderr).
        addr: String,
        /// Worker budget per micro-batch (default 0 = one per core).
        threads: usize,
        /// Admission window in microseconds (default 500). Purely a
        /// latency/throughput dial; answers never depend on it.
        window_us: u64,
        /// Micro-batch size cap (default 64).
        max_batch: usize,
        /// Shard count (default 1 = single warm engine; more routes
        /// every query through the scatter-gather engine).
        shards: usize,
        /// Partition strategy for `--shards` (default contiguous).
        strategy: PartitionStrategy,
        /// Halo depth when sharded (default 2). The server clamps its
        /// hop-radius limit to the halo so answers stay exact.
        halo: u32,
        /// Named relevance functions to register, as
        /// `(name, score file)` pairs from repeated `--register`.
        register: Vec<(String, String)>,
        /// Bounded admission-queue capacity (default 1024); requests
        /// beyond it are shed with `Busy`.
        queue_capacity: usize,
        /// Concurrent connection cap (default 1024).
        max_connections: usize,
        /// Per-connection read/write timeout in milliseconds
        /// (default 30000; 0 disables the timeout).
        io_timeout_ms: u64,
    },
    /// `lona client <addr> <queryfile> [--exclude-self]` — run a
    /// batch query file against a running `lona serve`, printing
    /// result lines byte-identical to `lona batch` on the same
    /// graph.
    Client {
        /// Server address, e.g. `127.0.0.1:7878`.
        addr: String,
        /// Query file (same format as `lona batch`).
        queries: String,
        /// Exclude each node's own score from its aggregate.
        exclude_self: bool,
    },
    /// `lona help` / `--help`
    Help,
}

/// Usage text.
pub const USAGE: &str = "\
lona — top-k neighborhood aggregation queries over large networks (ICDE 2010)

USAGE:
  lona stats    <edgelist|HOST:PORT>   (a socket address polls a running
                 `lona serve` for counters and latency percentiles)
  lona generate <collaboration|citation|intrusion> --out FILE [--scale S] [--seed N]
  lona compile  <edgelist> --out FILE [--scores FILE | --blacking R [--binary]]
                [--seed N] [--hops H1,H2,...]
  lona update   <edgelist> <deltafile> [--out FILE] [--hops H1,H2,...]
                [--scores FILE [--scores-out FILE]] [--verify]
                (delta lines: `add u v [w]`, `del u v`, `score u x`;
                 prints the deterministic index-repair counters)
  lona compact  <compiled> --out FILE [--delta FILE] [--hops H1,H2,...]
                (re-pack a compiled container, applying a delta first)
  lona topk     <edgelist|compiled --compiled> [--k N] [--hops H]
                [--aggregate sum|avg|max|dwsum]
                [--algorithm base|forward|backward|backward-naive] [--threads N]
                [--scores FILE | --blacking R [--binary]] [--seed N] [--exclude-self]
                [--shards N [--strategy contiguous|hash|degree]]
  lona batch    <edgelist|compiled --compiled> <queryfile> [--threads N]
                [--algorithm CHOICE]
                [--sequential] [--chunk N] [--exclude-self]
                [--shards N [--strategy contiguous|hash|degree]]
                (query file: one `source-set/k/hops/aggregate` per line,
                 e.g. `3,17,29/10/2/sum`)
  lona shard    <edgelist> --shards N [--strategy contiguous|hash|degree] [--halo H]
  lona serve    <edgelist|compiled --compiled> [--addr HOST:PORT] [--threads N]
                [--window-us N] [--max-batch N]
                [--shards N [--strategy contiguous|hash|degree] [--halo H]]
                [--register NAME=SCOREFILE]... [--queue-capacity N]
                [--max-connections N] [--io-timeout-ms N]
  lona client   <HOST:PORT> <queryfile> [--exclude-self]
                (query lines may also reference a server-registered
                 relevance function: `@NAME/k/hops/aggregate`)
  lona help
";

/// One subcommand and every argument it reads. [`SUBCOMMANDS`] is the
/// only list of them: [`Flags::split`] rejects any other `--flag` and
/// any surplus or missing positional, and the parse arms read
/// arguments only through the [`Flags`] it returns.
struct Spec {
    name: &'static str,
    /// What each positional argument is, in order (the "missing …"
    /// message names it).
    positionals: &'static [&'static str],
    /// Flags that take a value (`--k 5`).
    values: &'static [&'static str],
    /// Boolean flags (`--binary`), which take none.
    switches: &'static [&'static str],
}

const SUBCOMMANDS: &[Spec] = &[
    Spec {
        name: "stats",
        positionals: &["edgelist path"],
        values: &[],
        switches: &[],
    },
    Spec {
        name: "generate",
        positionals: &["dataset kind"],
        values: &["--out", "--scale", "--seed"],
        switches: &[],
    },
    Spec {
        name: "compile",
        positionals: &["edgelist path"],
        values: &["--out", "--scores", "--blacking", "--seed", "--hops"],
        switches: &["--binary"],
    },
    Spec {
        name: "update",
        positionals: &["edgelist path", "delta file path"],
        values: &["--out", "--hops", "--scores", "--scores-out"],
        switches: &["--verify"],
    },
    Spec {
        name: "compact",
        positionals: &["compiled file path"],
        values: &["--out", "--delta", "--hops"],
        switches: &[],
    },
    Spec {
        name: "topk",
        positionals: &["edgelist path"],
        values: &[
            "--k",
            "--hops",
            "--aggregate",
            "--algorithm",
            "--threads",
            "--scores",
            "--blacking",
            "--seed",
            "--shards",
            "--strategy",
        ],
        switches: &["--compiled", "--binary", "--exclude-self"],
    },
    Spec {
        name: "batch",
        positionals: &["edgelist path", "query file path"],
        values: &[
            "--threads",
            "--algorithm",
            "--chunk",
            "--shards",
            "--strategy",
        ],
        switches: &["--compiled", "--sequential", "--exclude-self"],
    },
    Spec {
        name: "shard",
        positionals: &["edgelist path"],
        values: &["--shards", "--strategy", "--halo"],
        switches: &[],
    },
    Spec {
        name: "serve",
        positionals: &["edgelist path"],
        values: &[
            "--addr",
            "--threads",
            "--window-us",
            "--max-batch",
            "--shards",
            "--strategy",
            "--halo",
            "--register",
            "--queue-capacity",
            "--max-connections",
            "--io-timeout-ms",
        ],
        switches: &["--compiled"],
    },
    Spec {
        name: "client",
        positionals: &["server address", "query file path"],
        values: &[],
        switches: &["--exclude-self"],
    },
];

/// Parse a full argument vector (without the program name).
pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter().map(String::as_str);
    let sub = it.next().ok_or_else(|| USAGE.to_string())?;
    if matches!(sub, "help" | "--help" | "-h") {
        return Ok(Command::Help);
    }
    let spec = SUBCOMMANDS
        .iter()
        .find(|spec| spec.name == sub)
        .ok_or_else(|| format!("unknown subcommand `{sub}`\n\n{USAGE}"))?;
    let rest: Vec<&str> = it.collect();
    let a = Flags::split(spec, &rest)?;

    match sub {
        "stats" => {
            let input = a.positional(0);
            Ok(Command::Stats { input })
        }
        "compile" => {
            let input = a.positional(0);
            let out = a.value("--out").ok_or("compile requires --out FILE")?;
            let hops = match a.value("--hops") {
                None => vec![2],
                Some(list) => parse_hops_list(&list)?,
            };
            Ok(Command::Compile {
                input,
                out,
                scores: a.value("--scores"),
                blacking: a.blacking()?,
                binary: a.has("--binary"),
                seed: a.parsed("--seed")?.unwrap_or(42),
                hops,
            })
        }
        "update" => {
            let input = a.positional(0);
            let delta = a.positional(1);
            let hops = match a.value("--hops") {
                None => vec![2],
                Some(list) => parse_hops_list(&list)?,
            };
            Ok(Command::Update {
                input,
                delta,
                out: a.value("--out"),
                hops,
                scores: a.value("--scores"),
                scores_out: a.value("--scores-out"),
                verify: a.has("--verify"),
            })
        }
        "compact" => {
            let input = a.positional(0);
            let out = a.value("--out").ok_or("compact requires --out FILE")?;
            let hops = match a.value("--hops") {
                None => None,
                Some(list) => Some(parse_hops_list(&list)?),
            };
            Ok(Command::Compact {
                input,
                out,
                delta: a.value("--delta"),
                hops,
            })
        }
        "serve" => {
            let input = a.positional(0);
            let max_batch: usize = a.parsed("--max-batch")?.unwrap_or(64);
            if max_batch == 0 {
                return Err("--max-batch must be at least 1".into());
            }
            let shards: usize = a.parsed("--shards")?.unwrap_or(1);
            if shards == 0 {
                return Err("--shards must be at least 1".into());
            }
            let halo: u32 = a.parsed("--halo")?.unwrap_or(2);
            if halo == 0 {
                return Err("--halo must be at least 1".into());
            }
            let queue_capacity: usize = a.parsed("--queue-capacity")?.unwrap_or(1024);
            if queue_capacity == 0 {
                return Err("--queue-capacity must be at least 1".into());
            }
            let max_connections: usize = a.parsed("--max-connections")?.unwrap_or(1024);
            if max_connections == 0 {
                return Err("--max-connections must be at least 1".into());
            }
            let register = a
                .values("--register")
                .into_iter()
                .map(|spec| match spec.split_once('=') {
                    Some((name, path)) if !name.trim().is_empty() && !path.trim().is_empty() => {
                        Ok((name.trim().to_string(), path.trim().to_string()))
                    }
                    _ => Err(format!("bad --register `{spec}` (expected NAME=SCOREFILE)")),
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok(Command::Serve {
                input,
                compiled: a.has("--compiled"),
                addr: a.value("--addr").unwrap_or_else(|| "127.0.0.1:7878".into()),
                threads: a.parsed("--threads")?.unwrap_or(0),
                window_us: a.parsed("--window-us")?.unwrap_or(500),
                max_batch,
                shards,
                strategy: a
                    .parsed("--strategy")?
                    .unwrap_or(PartitionStrategy::Contiguous),
                halo,
                register,
                queue_capacity,
                max_connections,
                io_timeout_ms: a.parsed("--io-timeout-ms")?.unwrap_or(30_000),
            })
        }
        "client" => {
            let addr = a.positional(0);
            let queries = a.positional(1);
            Ok(Command::Client {
                addr,
                queries,
                exclude_self: a.has("--exclude-self"),
            })
        }
        "generate" => {
            let kind: DatasetKind = a.positional(0).parse()?;
            let out = a.value("--out").ok_or("generate requires --out FILE")?;
            let scale: f64 = a.parsed("--scale")?.unwrap_or(0.1);
            if !(scale.is_finite() && scale > 0.0) {
                return Err("--scale must be a positive number".into());
            }
            Ok(Command::Generate {
                kind,
                out,
                scale,
                seed: a.parsed("--seed")?.unwrap_or(42),
            })
        }
        "batch" => {
            let input = a.positional(0);
            let queries = a.positional(1);
            let chunk: usize = a.parsed("--chunk")?.unwrap_or(1024);
            if chunk == 0 {
                return Err("--chunk must be at least 1".into());
            }
            let shards: usize = a.parsed("--shards")?.unwrap_or(1);
            if shards == 0 {
                return Err("--shards must be at least 1".into());
            }
            Ok(Command::Batch {
                input,
                compiled: a.has("--compiled"),
                queries,
                threads: a.parsed("--threads")?.unwrap_or(0),
                algorithm: a.parsed("--algorithm")?,
                sequential: a.has("--sequential"),
                chunk,
                exclude_self: a.has("--exclude-self"),
                shards,
                strategy: a
                    .parsed("--strategy")?
                    .unwrap_or(PartitionStrategy::Contiguous),
            })
        }
        "shard" => {
            let input = a.positional(0);
            let shards: usize = a.parsed("--shards")?.ok_or("shard requires --shards N")?;
            if shards == 0 {
                return Err("--shards must be at least 1".into());
            }
            let halo: u32 = a.parsed("--halo")?.unwrap_or(2);
            if halo == 0 {
                return Err("--halo must be at least 1".into());
            }
            Ok(Command::Shard {
                input,
                shards,
                strategy: a
                    .parsed("--strategy")?
                    .unwrap_or(PartitionStrategy::Contiguous),
                halo,
            })
        }
        "topk" => {
            let input = a.positional(0);
            let k: usize = a.parsed("--k")?.unwrap_or(10);
            if k == 0 {
                return Err("k must be at least 1".into());
            }
            let hops: u32 = a.parsed("--hops")?.unwrap_or(2);
            if hops == 0 {
                return Err("hops must be at least 1".into());
            }
            let shards: usize = a.parsed("--shards")?.unwrap_or(1);
            if shards == 0 {
                return Err("--shards must be at least 1".into());
            }
            Ok(Command::TopK {
                input,
                compiled: a.has("--compiled"),
                k,
                hops,
                aggregate: a.parsed("--aggregate")?.unwrap_or(Aggregate::Sum),
                algorithm: a
                    .parsed("--algorithm")?
                    .unwrap_or(AlgorithmChoice::Backward),
                scores: a.value("--scores"),
                blacking: a.blacking()?,
                binary: a.has("--binary"),
                seed: a.parsed("--seed")?.unwrap_or(42),
                exclude_self: a.has("--exclude-self"),
                // One worker keeps single-engine output byte-identical;
                // a sharded run scatters on every core by default.
                threads: a
                    .parsed("--threads")?
                    .unwrap_or(if shards > 1 { 0 } else { 1 }),
                shards,
                strategy: a
                    .parsed("--strategy")?
                    .unwrap_or(PartitionStrategy::Contiguous),
            })
        }
        other => unreachable!("`lona {other}` is in SUBCOMMANDS but has no parse arm"),
    }
}

/// Parse a `--hops` radius list: comma-separated positive integers.
/// Duplicates collapse and out-of-order entries are sorted, so
/// `2,2,1` builds the same indexes as `1,2` — per-radius index state
/// is keyed by radius, so order and multiplicity carry no meaning.
pub fn parse_hops_list(list: &str) -> Result<Vec<u32>, String> {
    let mut hops = list
        .split(',')
        .map(|s| {
            let s = s.trim();
            s.parse::<u32>()
                .map_err(|e| format!("bad --hops entry `{s}`: {e}"))
                .and_then(|h| {
                    if h == 0 {
                        Err("hop radius 0 cannot be indexed".into())
                    } else {
                        Ok(h)
                    }
                })
        })
        .collect::<Result<Vec<u32>, String>>()?;
    hops.sort_unstable();
    hops.dedup();
    Ok(hops)
}

/// A subcommand's arguments, split against its [`Spec`].
struct Flags<'a> {
    spec: &'static Spec,
    positionals: Vec<&'a str>,
    /// `(flag, value)` pairs in argument order.
    values: Vec<(&'a str, &'a str)>,
    switches: Vec<&'a str>,
}

impl<'a> Flags<'a> {
    /// Split `rest` into positionals and flags. Every `--flag` must be
    /// one `spec` declares, a valued flag takes the next argument, and
    /// there must be exactly as many positionals as `spec` names.
    fn split(spec: &'static Spec, rest: &[&'a str]) -> Result<Self, String> {
        let mut flags = Flags {
            spec,
            positionals: Vec::new(),
            values: Vec::new(),
            switches: Vec::new(),
        };
        let mut it = rest.iter().copied();
        while let Some(arg) = it.next() {
            if !arg.starts_with("--") {
                flags.positionals.push(arg);
            } else if spec.switches.contains(&arg) {
                flags.switches.push(arg);
            } else if spec.values.contains(&arg) {
                let value = it.next().ok_or_else(|| format!("{arg} requires a value"))?;
                flags.values.push((arg, value));
            } else {
                return Err(format!("unknown flag `{arg}` for `lona {}`", spec.name));
            }
        }
        if let Some(missing) = spec.positionals.get(flags.positionals.len()) {
            return Err(format!("missing {missing}"));
        }
        if let Some(extra) = flags.positionals.get(spec.positionals.len()) {
            return Err(format!(
                "unexpected argument `{extra}` for `lona {}`",
                spec.name
            ));
        }
        Ok(flags)
    }

    /// The i-th non-flag argument ([`Flags::split`] has checked that
    /// the spec names it and that it is present).
    fn positional(&self, index: usize) -> String {
        self.positionals[index].to_string()
    }

    /// Every value of a repeatable valued flag, in argument order.
    fn values(&self, flag: &str) -> Vec<String> {
        assert!(
            self.spec.values.contains(&flag),
            "`lona {}` does not declare {flag}",
            self.spec.name
        );
        self.values
            .iter()
            .filter(|(f, _)| *f == flag)
            .map(|(_, v)| v.to_string())
            .collect()
    }

    /// Raw value of a valued flag, if present (the first, if repeated).
    fn value(&self, flag: &str) -> Option<String> {
        self.values(flag).into_iter().next()
    }

    /// Parsed value of a valued flag, if present.
    fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.value(flag) {
            None => Ok(None),
            Some(v) => v
                .parse::<T>()
                .map(Some)
                .map_err(|e| format!("bad {flag} `{v}`: {e}")),
        }
    }

    /// The `--blacking` ratio (default 0.01), refused outside
    /// `[0, 1]` (NaN included) before the generator asserts on it.
    fn blacking(&self) -> Result<f64, String> {
        let ratio = self.parsed("--blacking")?.unwrap_or(0.01);
        if (0.0..=1.0).contains(&ratio) {
            Ok(ratio)
        } else {
            Err("--blacking must be in [0, 1]".into())
        }
    }

    /// Whether a boolean flag is present.
    fn has(&self, flag: &str) -> bool {
        assert!(
            self.spec.switches.contains(&flag),
            "`lona {}` does not declare {flag}",
            self.spec.name
        );
        self.switches.contains(&flag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn stats_parses() {
        assert_eq!(
            parse(&v(&["stats", "g.txt"])).unwrap(),
            Command::Stats {
                input: "g.txt".into()
            }
        );
        assert!(parse(&v(&["stats"])).is_err());
    }

    #[test]
    fn generate_parses_with_defaults() {
        let c = parse(&v(&["generate", "citation", "--out", "x.txt"])).unwrap();
        match c {
            Command::Generate {
                kind,
                out,
                scale,
                seed,
            } => {
                assert_eq!(kind, DatasetKind::Citation);
                assert_eq!(out, "x.txt");
                assert_eq!(scale, 0.1);
                assert_eq!(seed, 42);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn generate_requires_out() {
        assert!(parse(&v(&["generate", "citation"])).is_err());
    }

    #[test]
    fn topk_full_flags() {
        let c = parse(&v(&[
            "topk",
            "g.txt",
            "--k",
            "25",
            "--hops",
            "3",
            "--aggregate",
            "avg",
            "--algorithm",
            "forward",
            "--blacking",
            "0.2",
            "--binary",
            "--seed",
            "7",
            "--exclude-self",
            "--threads",
            "6",
        ]))
        .unwrap();
        match c {
            Command::TopK {
                k,
                hops,
                aggregate,
                algorithm,
                binary,
                blacking,
                seed,
                exclude_self,
                threads,
                ..
            } => {
                assert_eq!(k, 25);
                assert_eq!(hops, 3);
                assert_eq!(aggregate, Aggregate::Avg);
                assert_eq!(algorithm, AlgorithmChoice::Forward);
                assert!(binary);
                assert_eq!(blacking, 0.2);
                assert_eq!(seed, 7);
                assert!(exclude_self);
                assert_eq!(threads, 6);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn algorithm_choices_parse() {
        for (name, expect) in [
            ("base", AlgorithmChoice::Base),
            ("forward", AlgorithmChoice::Forward),
            ("backward", AlgorithmChoice::Backward),
            ("backward-naive", AlgorithmChoice::BackwardNaive),
        ] {
            let c = parse(&v(&["topk", "g.txt", "--algorithm", name])).unwrap();
            match c {
                Command::TopK {
                    algorithm, threads, ..
                } => {
                    assert_eq!(algorithm, expect, "{name}");
                    assert_eq!(threads, 1, "default is one worker");
                }
                other => panic!("{other:?}"),
            }
        }
        let err = parse(&v(&["topk", "g.txt", "--algorithm", "parallel-forward"])).unwrap_err();
        assert!(
            err.contains("base|forward|backward|backward-naive"),
            "{err}"
        );
    }

    #[test]
    fn topk_defaults() {
        let c = parse(&v(&["topk", "g.txt"])).unwrap();
        match c {
            Command::TopK {
                k,
                hops,
                aggregate,
                algorithm,
                scores,
                ..
            } => {
                assert_eq!(k, 10);
                assert_eq!(hops, 2);
                assert_eq!(aggregate, Aggregate::Sum);
                assert_eq!(algorithm, AlgorithmChoice::Backward);
                assert!(scores.is_none());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn topk_threads_default_depends_on_shards() {
        for (args, expect) in [
            (&["topk", "g.txt"][..], 1),
            (&["topk", "g.txt", "--shards", "4"][..], 0),
            (&["topk", "g.txt", "--shards", "4", "--threads", "2"][..], 2),
            (&["topk", "g.txt", "--threads", "0"][..], 0),
        ] {
            match parse(&v(args)).unwrap() {
                Command::TopK { threads, .. } => assert_eq!(threads, expect, "{args:?}"),
                other => panic!("{other:?}"),
            }
        }
        assert!(parse(&v(&["topk", "g.txt", "--shards", "0"])).is_err());
    }

    #[test]
    fn batch_parses_with_defaults() {
        let c = parse(&v(&["batch", "g.txt", "q.txt"])).unwrap();
        match c {
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
                assert_eq!(input, "g.txt");
                assert!(!compiled);
                assert_eq!(queries, "q.txt");
                assert_eq!(threads, 0);
                assert_eq!(algorithm, None);
                assert!(!sequential);
                assert_eq!(chunk, 1024);
                assert!(!exclude_self);
                assert_eq!(shards, 1);
                assert_eq!(strategy, PartitionStrategy::Contiguous);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn shard_command_parses() {
        let c = parse(&v(&[
            "shard",
            "g.txt",
            "--shards",
            "4",
            "--strategy",
            "hash",
            "--halo",
            "3",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Shard {
                input: "g.txt".into(),
                shards: 4,
                strategy: PartitionStrategy::Hash,
                halo: 3,
            }
        );
        assert!(parse(&v(&["shard", "g.txt"])).is_err(), "--shards required");
        assert!(parse(&v(&["shard", "g.txt", "--shards", "0"])).is_err());
        assert!(parse(&v(&["shard", "g.txt", "--shards", "2", "--halo", "0"])).is_err());
    }

    #[test]
    fn sharded_topk_and_batch_parse() {
        let c = parse(&v(&[
            "topk",
            "g.txt",
            "--shards",
            "4",
            "--strategy",
            "degree",
        ]))
        .unwrap();
        match c {
            Command::TopK {
                shards, strategy, ..
            } => {
                assert_eq!(shards, 4);
                assert_eq!(strategy, PartitionStrategy::DegreeBalanced);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&v(&["topk", "g.txt", "--shards", "0"])).is_err());
        let c = parse(&v(&["batch", "g.txt", "q.txt", "--shards", "2"])).unwrap();
        match c {
            Command::Batch {
                shards, strategy, ..
            } => {
                assert_eq!(shards, 2);
                assert_eq!(strategy, PartitionStrategy::Contiguous);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&v(&["batch", "g.txt", "q.txt", "--shards", "0"])).is_err());
    }

    #[test]
    fn batch_full_flags() {
        let c = parse(&v(&[
            "batch",
            "g.txt",
            "q.txt",
            "--threads",
            "4",
            "--algorithm",
            "forward",
            "--sequential",
            "--chunk",
            "64",
            "--exclude-self",
        ]))
        .unwrap();
        match c {
            Command::Batch {
                threads,
                algorithm,
                sequential,
                chunk,
                exclude_self,
                ..
            } => {
                assert_eq!(threads, 4);
                assert_eq!(algorithm, Some(AlgorithmChoice::Forward));
                assert!(sequential);
                assert_eq!(chunk, 64);
                assert!(exclude_self);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn batch_requires_both_paths_and_sane_chunk() {
        assert!(parse(&v(&["batch", "g.txt"])).is_err());
        assert!(parse(&v(&["batch", "g.txt", "q.txt", "--chunk", "0"])).is_err());
        // --sequential is boolean: the query file after it must still
        // be seen as a positional.
        let c = parse(&v(&["batch", "--sequential", "g.txt", "q.txt"])).unwrap();
        match c {
            Command::Batch {
                input, sequential, ..
            } => {
                assert_eq!(input, "g.txt");
                assert!(sequential);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn serve_parses_with_defaults_and_flags() {
        let c = parse(&v(&["serve", "g.txt"])).unwrap();
        assert_eq!(
            c,
            Command::Serve {
                input: "g.txt".into(),
                compiled: false,
                addr: "127.0.0.1:7878".into(),
                threads: 0,
                window_us: 500,
                max_batch: 64,
                shards: 1,
                strategy: PartitionStrategy::Contiguous,
                halo: 2,
                register: vec![],
                queue_capacity: 1024,
                max_connections: 1024,
                io_timeout_ms: 30_000,
            }
        );
        let c = parse(&v(&[
            "serve",
            "g.txt",
            "--addr",
            "0.0.0.0:9000",
            "--threads",
            "4",
            "--window-us",
            "250",
            "--max-batch",
            "16",
            "--shards",
            "4",
            "--strategy",
            "hash",
            "--halo",
            "3",
            "--register",
            "pagerank=pr.txt",
            "--register",
            "uniform=u.txt",
            "--queue-capacity",
            "32",
            "--max-connections",
            "8",
            "--io-timeout-ms",
            "0",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Serve {
                input: "g.txt".into(),
                compiled: false,
                addr: "0.0.0.0:9000".into(),
                threads: 4,
                window_us: 250,
                max_batch: 16,
                shards: 4,
                strategy: PartitionStrategy::Hash,
                halo: 3,
                register: vec![
                    ("pagerank".into(), "pr.txt".into()),
                    ("uniform".into(), "u.txt".into()),
                ],
                queue_capacity: 32,
                max_connections: 8,
                io_timeout_ms: 0,
            }
        );
        assert!(parse(&v(&["serve"])).is_err(), "edgelist required");
        assert!(parse(&v(&["serve", "g.txt", "--max-batch", "0"])).is_err());
        assert!(parse(&v(&["serve", "g.txt", "--shards", "0"])).is_err());
        assert!(parse(&v(&["serve", "g.txt", "--halo", "0"])).is_err());
        assert!(parse(&v(&["serve", "g.txt", "--queue-capacity", "0"])).is_err());
        assert!(parse(&v(&["serve", "g.txt", "--max-connections", "0"])).is_err());
        assert!(parse(&v(&["serve", "g.txt", "--register", "nofile"])).is_err());
        assert!(parse(&v(&["serve", "g.txt", "--register"])).is_err());
    }

    #[test]
    fn client_parses() {
        let c = parse(&v(&["client", "127.0.0.1:7878", "q.txt", "--exclude-self"])).unwrap();
        assert_eq!(
            c,
            Command::Client {
                addr: "127.0.0.1:7878".into(),
                queries: "q.txt".into(),
                exclude_self: true,
            }
        );
        assert!(parse(&v(&["client", "127.0.0.1:7878"])).is_err());
    }

    #[test]
    fn bad_values_error_cleanly() {
        assert!(parse(&v(&["topk", "g.txt", "--k", "many"])).is_err());
        assert!(parse(&v(&["topk", "g.txt", "--aggregate", "median"])).is_err());
        assert!(parse(&v(&["generate", "socialnet", "--out", "x"])).is_err());
        assert!(parse(&v(&["frobnicate"])).is_err());
        // Zero would panic in the engine, so topk refuses it up front;
        // an out-of-range blacking ratio would panic in the generator,
        // and a scale that is not positive would write a bogus graph.
        for (args, want) in [
            (&["topk", "g.txt", "--k", "0"][..], "k must be at least 1"),
            (
                &["topk", "g.txt", "--hops", "0"][..],
                "hops must be at least 1",
            ),
            (
                &["topk", "c.el", "--blacking", "2"][..],
                "--blacking must be in [0, 1]",
            ),
            (
                &["compile", "c.el", "--out", "x", "--blacking", "-1"][..],
                "--blacking must be in [0, 1]",
            ),
            (
                &["compile", "c.el", "--out", "x", "--blacking", "nan"][..],
                "--blacking must be in [0, 1]",
            ),
            (
                &["generate", "citation", "--out", "y.el", "--scale", "-1"][..],
                "--scale must be a positive number",
            ),
            (
                &["generate", "citation", "--out", "y.el", "--scale", "nan"][..],
                "--scale must be a positive number",
            ),
            (
                &["generate", "citation", "--out", "y.el", "--scale", "0"][..],
                "--scale must be a positive number",
            ),
        ] {
            assert_eq!(parse(&v(args)).unwrap_err(), want, "{args:?}");
        }
    }

    #[test]
    fn flags_a_subcommand_does_not_read_are_rejected() {
        for (args, want) in [
            (
                &["topk", "g.el", "--kk", "2"][..],
                "unknown flag `--kk` for `lona topk`",
            ),
            (
                &["topk", "--verbose", "g.el"][..],
                "unknown flag `--verbose` for `lona topk`",
            ),
            (
                &["serve", "g.el", "--window", "100"][..],
                "unknown flag `--window` for `lona serve`",
            ),
            // A flag of another subcommand is unknown here too.
            (
                &["stats", "g.el", "--k", "3"][..],
                "unknown flag `--k` for `lona stats`",
            ),
        ] {
            assert_eq!(parse(&v(args)).unwrap_err(), want, "{args:?}");
        }
        let err = parse(&v(&["convert", "a", "b"])).unwrap_err();
        assert!(err.starts_with("unknown subcommand `convert`"), "{err}");
    }

    #[test]
    fn positionals_are_counted_against_the_table() {
        for (args, want) in [
            (
                &["topk", "c.el", "other.lona", "--k", "2"][..],
                "unexpected argument `other.lona` for `lona topk`",
            ),
            (
                &["batch", "c.el", "q.txt", "extra"][..],
                "unexpected argument `extra` for `lona batch`",
            ),
            (&["batch", "c.el"][..], "missing query file path"),
            (&["client", "127.0.0.1:7878"][..], "missing query file path"),
            (&["update", "c.el"][..], "missing delta file path"),
            (&["compact", "--out", "x"][..], "missing compiled file path"),
            (&["generate", "--out", "x"][..], "missing dataset kind"),
        ] {
            assert_eq!(parse(&v(args)).unwrap_err(), want, "{args:?}");
        }
    }

    /// Each subcommand's USAGE entry names exactly the flags, and as
    /// many `<…>` positionals, as its `SUBCOMMANDS` entry declares,
    /// and every entry has a parse arm.
    #[test]
    fn usage_names_exactly_the_declared_flags() {
        let lines: Vec<&str> = USAGE.lines().collect();
        for spec in SUBCOMMANDS {
            let start = lines
                .iter()
                .position(|l| l.split_whitespace().take(2).eq(["lona", spec.name]))
                .unwrap_or_else(|| panic!("USAGE has no `lona {}` entry", spec.name));
            let entry: String = lines[start..]
                .iter()
                .enumerate()
                .take_while(|(i, l)| *i == 0 || !l.trim_start().starts_with("lona "))
                .map(|(_, l)| *l)
                .collect();
            let mut named: Vec<&str> = entry
                .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .filter(|w| w.starts_with("--"))
                .collect();
            named.sort_unstable();
            named.dedup();
            let mut declared: Vec<&str> =
                spec.values.iter().chain(spec.switches).copied().collect();
            declared.sort_unstable();
            assert_eq!(named, declared, "lona {}", spec.name);
            assert_eq!(
                entry.matches('<').count(),
                spec.positionals.len(),
                "lona {}",
                spec.name
            );
            // Reaching the arm, not `unreachable!`, is the check here.
            let args: Vec<&str> = std::iter::once(spec.name)
                .chain(spec.positionals.iter().map(|_| "x"))
                .collect();
            let _ = parse(&v(&args));
        }
        assert_eq!(
            lines.iter().filter(|l| l.starts_with("  lona ")).count(),
            SUBCOMMANDS.len() + 1,
            "one USAGE entry per subcommand, plus `lona help`"
        );
    }

    #[test]
    fn compile_parses_with_defaults_and_hops_list() {
        let c = parse(&v(&["compile", "g.txt", "--out", "g.lona"])).unwrap();
        assert_eq!(
            c,
            Command::Compile {
                input: "g.txt".into(),
                out: "g.lona".into(),
                scores: None,
                blacking: 0.01,
                binary: false,
                seed: 42,
                hops: vec![2],
            }
        );
        let c = parse(&v(&[
            "compile", "g.txt", "--out", "g.lona", "--hops", "1,2,3", "--binary", "--seed", "7",
        ]))
        .unwrap();
        match c {
            Command::Compile {
                hops, binary, seed, ..
            } => {
                assert_eq!(hops, vec![1, 2, 3]);
                assert!(binary);
                assert_eq!(seed, 7);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&v(&["compile", "g.txt"])).is_err(), "--out required");
        assert!(parse(&v(&["compile", "g.txt", "--out", "x", "--hops", "0"])).is_err());
        assert!(parse(&v(&["compile", "g.txt", "--out", "x", "--hops", "2,x"])).is_err());
    }

    #[test]
    fn compiled_flag_is_boolean_on_topk_batch_serve() {
        // --compiled takes no value: the path after it must still be
        // seen as a positional.
        let c = parse(&v(&["topk", "--compiled", "g.lona", "--k", "3"])).unwrap();
        match c {
            Command::TopK {
                input, compiled, k, ..
            } => {
                assert_eq!(input, "g.lona");
                assert!(compiled);
                assert_eq!(k, 3);
            }
            other => panic!("{other:?}"),
        }
        let c = parse(&v(&["batch", "--compiled", "g.lona", "q.txt"])).unwrap();
        match c {
            Command::Batch {
                input,
                compiled,
                queries,
                ..
            } => {
                assert_eq!(input, "g.lona");
                assert!(compiled);
                assert_eq!(queries, "q.txt");
            }
            other => panic!("{other:?}"),
        }
        let c = parse(&v(&["serve", "g.lona", "--compiled"])).unwrap();
        match c {
            Command::Serve {
                input, compiled, ..
            } => {
                assert_eq!(input, "g.lona");
                assert!(compiled);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn update_parses_with_defaults_and_flags() {
        let c = parse(&v(&["update", "g.txt", "d.txt"])).unwrap();
        assert_eq!(
            c,
            Command::Update {
                input: "g.txt".into(),
                delta: "d.txt".into(),
                out: None,
                hops: vec![2],
                scores: None,
                scores_out: None,
                verify: false,
            }
        );
        let c = parse(&v(&[
            "update",
            "g.txt",
            "d.txt",
            "--out",
            "g2.txt",
            "--hops",
            "1,3",
            "--scores",
            "s.txt",
            "--scores-out",
            "s2.txt",
            "--verify",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Update {
                input: "g.txt".into(),
                delta: "d.txt".into(),
                out: Some("g2.txt".into()),
                hops: vec![1, 3],
                scores: Some("s.txt".into()),
                scores_out: Some("s2.txt".into()),
                verify: true,
            }
        );
        // --verify is boolean: a positional after it must survive.
        let c = parse(&v(&["update", "--verify", "g.txt", "d.txt"])).unwrap();
        match c {
            Command::Update { input, verify, .. } => {
                assert_eq!(input, "g.txt");
                assert!(verify);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&v(&["update", "g.txt"])).is_err(), "delta required");
        assert!(parse(&v(&["update", "g.txt", "d.txt", "--hops", "0"])).is_err());
    }

    #[test]
    fn compact_parses() {
        let c = parse(&v(&["compact", "g.lona", "--out", "g2.lona"])).unwrap();
        assert_eq!(
            c,
            Command::Compact {
                input: "g.lona".into(),
                out: "g2.lona".into(),
                delta: None,
                hops: None,
            }
        );
        let c = parse(&v(&[
            "compact", "g.lona", "--out", "g2.lona", "--delta", "d.txt", "--hops", "3,1",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Compact {
                input: "g.lona".into(),
                out: "g2.lona".into(),
                delta: Some("d.txt".into()),
                hops: Some(vec![1, 3]),
            }
        );
        assert!(parse(&v(&["compact", "g.lona"])).is_err(), "--out required");
        assert!(parse(&v(&["compact", "g.lona", "--out", "x", "--hops", "0"])).is_err());
    }

    #[test]
    fn hops_lists_are_sorted_deduped_and_validated() {
        assert_eq!(parse_hops_list("2").unwrap(), vec![2]);
        assert_eq!(parse_hops_list("2,2,1").unwrap(), vec![1, 2]);
        assert_eq!(parse_hops_list(" 3 , 1 , 2 , 1 ").unwrap(), vec![1, 2, 3]);
        // Hostile shapes fail with a message, never panic.
        for bad in ["0", "1,0", "", ",", "1,,2", "x", "1,x", "-1", "4294967296"] {
            let err = parse_hops_list(bad).unwrap_err();
            assert!(!err.is_empty(), "{bad:?}");
        }
        // The compile and update paths both route through the helper.
        let c = parse(&v(&["compile", "g.txt", "--out", "x", "--hops", "2,1,2"])).unwrap();
        match c {
            Command::Compile { hops, .. } => assert_eq!(hops, vec![1, 2]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn help_variants() {
        for h in ["help", "--help", "-h"] {
            assert_eq!(parse(&v(&[h])).unwrap(), Command::Help);
        }
    }

    #[test]
    fn positional_after_flags() {
        let c = parse(&v(&["topk", "--k", "5", "g.txt"])).unwrap();
        match c {
            Command::TopK { input, k, .. } => {
                assert_eq!(input, "g.txt");
                assert_eq!(k, 5);
            }
            other => panic!("{other:?}"),
        }
    }
}
