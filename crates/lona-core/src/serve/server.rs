//! The resident query service.
//!
//! [`Server`] owns three kinds of threads around one shared
//! [`AdmissionQueue`]:
//!
//! * an **accept loop** that turns each TCP connection into a
//!   detached handler thread (up to
//!   [`ServeOptions::max_connections`]; beyond that the connection
//!   gets one `Busy` frame and is closed);
//! * **connection handlers** that read frames, decode + validate
//!   requests (every failure becomes a per-request error reply — the
//!   connection survives), resolve the relevance scores (inline
//!   binary sets or the named registry), answer stats polls
//!   directly, and block on a reply channel;
//! * one **batcher** that owns the warm engine state — per-hop-radius
//!   [`EngineState`]s in single mode, per-hop-radius *per-shard*
//!   state vectors in sharded mode — pulls micro-batches off the
//!   queue, and runs each hop group through a single batch call.
//!
//! ## Backpressure
//!
//! The admission queue is bounded ([`ServeOptions::queue_capacity`]).
//! A request arriving at a full queue is **shed**: the handler
//! replies `Busy` immediately with a retry-after hint (one admission
//! window plus a millisecond) and the shed is counted. Nothing ever
//! blocks on admission, so a saturated server stays responsive —
//! stats polls bypass the queue entirely and answer even under full
//! load. Shedding is deterministic: it depends only on the number of
//! requests waiting, never on timing inside the engine.
//!
//! ## Byte identity
//!
//! Responses are **bit-identical to a sequential
//! [`LonaEngine::run`] loop** over the same requests — at any worker
//! count, any micro-batch composition, and (new in this revision)
//! whether the backend is the single engine or a [`ShardedEngine`]:
//!
//! 1. every request's algorithm is **forced** to
//!    [`serve_algorithm`]: the global planner's choice, with
//!    `LonaBackward → BackwardNaive`; forced plans run one worker.
//!    The plan depends only on `(graph, query, scores)` (the planner
//!    runs with `allow_index_build = true`), so both backends force
//!    the same algorithm for the same request;
//! 2. the forced set {Base, LONA-Forward, BackwardNaive} is exactly
//!    the set the sharded engine reproduces **bit for bit** against
//!    the single engine (`shard.rs::forced_exact_algorithms_are_
//!    bit_identical` holds that line across strategies, shard counts,
//!    and all four aggregates);
//! 3. `run_batch` returns results bit-identical to a one-worker loop
//!    over its own plans
//!    (`tests/batch_smoke.rs`), and each request's result depends
//!    only on its own `(query, scores)` — batch-mates contribute
//!    nothing — so *how* requests coalesce cannot change any answer.
//!
//! For the binary source sets every v1 request carries, the forcing
//! in step 1 is invisible: with γ = 0 the partial backward bound is
//! already exact and `LonaBackward` distributes in the same
//! ascending-id order as `BackwardNaive` (all scores tie at 1.0), so
//! the two produce identical bytes. For non-binary named relevance
//! the forcing is what *makes* the two backends agree — different
//! summation orders would otherwise differ in the last float bit.
//!
//! Timing fields ([`ServeStats`] latencies, batch size) are the only
//! execution-dependent parts of a response, and they are excluded
//! from the identity contract. `tests/serve_smoke.rs` and
//! `tests/serve_stress.rs` check the whole claim end-to-end over
//! real sockets.
//!
//! ## Index amortization
//!
//! The engine states persist across micro-batches, so index builds
//! happen once per hop radius (per shard) for the life of the
//! server. Each response reports the build time its micro-batch was
//! charged ([`ServeStats::index_build_nanos`]); after the first
//! batch at a given radius it is zero — the regression surface the
//! serve smoke and stress tests gate on.

use std::collections::BTreeMap;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lona_graph::order::Permutation;
use lona_graph::{
    partition, CsrView, GraphDelta, GraphStore, NodeId, OverlayGraph, PartitionStrategy,
    ShardedGraph,
};
use lona_relevance::ScoreVec;

use crate::algo::Algorithm;
use crate::batch::{BatchOptions, BatchQuery};
use crate::delta::{repair_engine_state, RepairStats};
use crate::engine::{EngineState, LonaEngine, TopKQuery};
use crate::plan::{plan_query, PlannerConfig};
use crate::shard::{ShardOptions, ShardedEngine};

use super::codec::{
    decode_inbound, duration_nanos, encode_reply_version, encode_stats_reply, encode_update_reply,
    peek_request_id, read_frame, write_frame, ErrorCode, Inbound, Reply, Request, Response,
    ScoreRef, ServeStats, UpdateReport, MAX_FRAME, VERSION, VERSION_2,
};
use super::metrics::ServeMetrics;
use super::queue::{AdmissionQueue, Admit, Pending, UpdateJob, Work};

/// Server knobs.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ServeOptions {
    /// Worker budget per micro-batch (0 = one per core), passed to
    /// [`BatchOptions::threads`] (or the shard scatter in sharded
    /// mode).
    pub threads: usize,
    /// Admission window: how long the batcher keeps draining after
    /// the first request of a micro-batch. Purely a
    /// throughput/latency dial — answers never depend on it.
    pub window: Duration,
    /// Micro-batch size cap.
    pub max_batch: usize,
    /// Largest frame accepted or sent.
    pub max_frame: usize,
    /// Largest accepted hop radius — indexes are per-radius and
    /// their build cost grows quickly with `h`, so an unbounded
    /// client-supplied radius would be a trivial resource-exhaustion
    /// vector. In sharded mode this is additionally clamped to the
    /// partition's halo depth.
    pub max_hops: u32,
    /// Admission-queue bound: requests beyond this many waiting are
    /// shed with `Busy` instead of queued.
    pub queue_capacity: usize,
    /// Per-listener connection limit: connections beyond this many
    /// concurrent get one `Busy` frame and are closed.
    pub max_connections: usize,
    /// Per-connection read/write timeout (`None` = block forever,
    /// the pre-hardening behaviour). A tripped timeout closes that
    /// connection only.
    pub io_timeout: Option<Duration>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            threads: 0,
            window: Duration::from_micros(500),
            max_batch: 64,
            max_frame: MAX_FRAME,
            max_hops: 8,
            queue_capacity: 1024,
            max_connections: 1024,
            io_timeout: Some(Duration::from_secs(30)),
        }
    }
}

/// Validate a decoded request against the graph the server hosts.
/// The error text is the wire message; `lona client` reprints it
/// verbatim, so it matches the CLI's own parse-time messages.
pub fn validate_request(req: &Request, num_nodes: usize, max_hops: u32) -> Result<(), String> {
    if req.k == 0 {
        return Err("k must be at least 1".into());
    }
    if req.hops == 0 {
        return Err("hops must be at least 1".into());
    }
    if req.hops > max_hops {
        return Err(format!(
            "hop radius {} exceeds the server limit of {max_hops}",
            req.hops
        ));
    }
    match &req.scores {
        ScoreRef::Sources(sources) => {
            if sources.is_empty() {
                return Err("source set is empty".into());
            }
            for &s in sources {
                if (s as usize) >= num_nodes {
                    return Err(format!(
                        "source node {s} out of range (graph has {num_nodes} nodes)"
                    ));
                }
            }
        }
        // Registry membership is checked where the registry lives
        // (the handler); an empty name is never registered.
        ScoreRef::Named(_) => {}
    }
    Ok(())
}

/// Binary relevance for a validated source set: 1.0 at each source,
/// 0 elsewhere.
pub fn binary_scores(sources: &[u32], num_nodes: usize) -> ScoreVec {
    let mut raw = vec![0.0; num_nodes];
    for &s in sources {
        raw[s as usize] = 1.0;
    }
    ScoreVec::new(raw)
}

/// The algorithm the service forces for one request: the global
/// planner's choice, with the partial backward method lowered to the
/// exhaustive `BackwardNaive`. Every member of the resulting set —
/// Base, LONA-Forward, BackwardNaive — is bit-reproducible between the
/// single engine and the sharded engine (see the module docs), which
/// is what makes `--shards N` byte-identical to single-engine serve
/// for arbitrary (not just binary) relevance.
pub fn serve_algorithm(
    plan_engine: &LonaEngine<'_>,
    query: &TopKQuery,
    scores: &ScoreVec,
) -> Algorithm {
    let plan = plan_query(plan_engine, query, scores, &PlannerConfig::default());
    match plan.algorithm {
        Algorithm::LonaBackward(_) => Algorithm::BackwardNaive,
        other => other,
    }
}

/// Sharded-mode configuration recorded by the builder.
#[derive(Copy, Clone, Debug)]
struct Sharding {
    shards: usize,
    strategy: PartitionStrategy,
    halo: u32,
}

/// Configure-then-bind construction for [`Server`]. Obtained from
/// [`Server::builder`]; every knob is optional.
///
/// ```no_run
/// # use std::sync::Arc;
/// # use lona_core::serve::server::{Server, ServeOptions};
/// # let graph: Arc<lona_graph::CsrGraph> = unimplemented!();
/// # let pagerank: lona_relevance::ScoreVec = unimplemented!();
/// let server = Server::builder(graph)
///     .options(ServeOptions::default())
///     .register("pagerank", pagerank)
///     .shards(4, lona_graph::PartitionStrategy::Contiguous, 2)
///     .bind("127.0.0.1:0")?;
/// # std::io::Result::Ok(())
/// ```
pub struct ServerBuilder<G> {
    graph: Arc<G>,
    opts: ServeOptions,
    warm: BTreeMap<u32, EngineState>,
    registry: BTreeMap<String, Arc<ScoreVec>>,
    sharding: Option<Sharding>,
    permutation: Option<Arc<Permutation>>,
}

impl<G: GraphStore + Send + Sync + 'static> ServerBuilder<G> {
    /// Replace the options wholesale.
    pub fn options(mut self, opts: ServeOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Seed the batcher with pre-built per-hop-radius engine states
    /// (e.g. indexes mapped from a compiled file). Applies to the
    /// single-engine backend; a sharded backend warms its per-shard
    /// indexes on first use instead.
    pub fn warm(mut self, warm: BTreeMap<u32, EngineState>) -> Self {
        self.warm = warm;
        self
    }

    /// Register a named relevance function clients can reference via
    /// a v2 request instead of inlining a source set. Names are
    /// case-sensitive; re-registering a name replaces it.
    pub fn register(mut self, name: impl Into<String>, scores: ScoreVec) -> Self {
        self.registry.insert(name.into(), Arc::new(scores));
        self
    }

    /// Route micro-batches through a [`ShardedEngine`] over a
    /// `shards`-way partition with the given strategy and halo
    /// depth. The effective hop-radius limit becomes
    /// `min(max_hops, halo)` — beyond the halo, owned neighborhoods
    /// would be truncated. Requires an undirected graph.
    pub fn shards(mut self, shards: usize, strategy: PartitionStrategy, halo: u32) -> Self {
        self.sharding = Some(Sharding {
            shards,
            strategy,
            halo,
        });
        self
    }

    /// Declare that `graph` is numbered under `perm` (an `--order`
    /// compiled file): inline source sets are mapped into the packed
    /// id space on the way in, registered relevance vectors are
    /// permuted once at bind, and every reply's entries are mapped
    /// back to original ids (ties re-broken by original id) on the
    /// way out — the renumbering is invisible on the wire.
    pub fn permutation(mut self, perm: Permutation) -> Self {
        self.permutation = Some(Arc::new(perm));
        self
    }

    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// start the service threads.
    pub fn bind(self, addr: impl ToSocketAddrs) -> io::Result<Server> {
        let ServerBuilder {
            graph,
            mut opts,
            warm,
            mut registry,
            sharding,
            permutation,
        } = self;
        let num_nodes = graph.csr().num_nodes();
        for (name, scores) in &registry {
            if scores.len() != num_nodes {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "registered relevance `{name}` scores {} nodes but the graph has \
                         {num_nodes}",
                        scores.len()
                    ),
                ));
            }
        }
        if let Some(perm) = &permutation {
            if perm.len() != num_nodes {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "permutation covers {} nodes but the graph has {num_nodes}",
                        perm.len()
                    ),
                ));
            }
            // Registered vectors arrive in original ids; carry them
            // into the packed space once, not per query.
            for scores in registry.values_mut() {
                *scores = Arc::new(crate::locality::permute_scores(perm, scores));
            }
        }

        let backend = match sharding {
            None => Backend::Single { states: warm },
            Some(s) => {
                if s.shards == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        "need at least one shard",
                    ));
                }
                if s.halo == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        "halo depth must be at least 1",
                    ));
                }
                if graph.csr().is_directed() {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        "sharded serving requires an undirected graph",
                    ));
                }
                opts.max_hops = opts.max_hops.min(s.halo);
                let sharded = partition(&*graph, s.shards, s.strategy, s.halo)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
                Backend::Sharded {
                    sharded: Box::new(sharded),
                    states: BTreeMap::new(),
                }
            }
        };

        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let queue = Arc::new(AdmissionQueue::with_capacity(opts.queue_capacity));
        let stop = Arc::new(AtomicBool::new(false));
        let metrics = Arc::new(ServeMetrics::default());
        let registry = Arc::new(registry);

        let accept = {
            let graph = Arc::clone(&graph);
            let queue = Arc::clone(&queue);
            let stop = Arc::clone(&stop);
            let metrics = Arc::clone(&metrics);
            std::thread::Builder::new()
                .name("lona-serve-accept".into())
                .spawn(move || {
                    accept_loop(
                        listener,
                        graph,
                        queue,
                        stop,
                        opts,
                        metrics,
                        registry,
                        permutation,
                    )
                })?
        };
        let batcher = {
            let graph = Arc::clone(&graph);
            let queue = Arc::clone(&queue);
            let metrics = Arc::clone(&metrics);
            std::thread::Builder::new()
                .name("lona-serve-batch".into())
                .spawn(move || batch_loop(graph, backend, queue, opts, metrics))?
        };

        Ok(Server {
            addr: local,
            queue,
            stop,
            metrics,
            accept: Some(accept),
            batcher: Some(batcher),
        })
    }
}

/// The batcher's engine state: one warm [`EngineState`] per hop
/// radius, or — in sharded mode — the owned partition plus one state
/// *vector* (one per shard) per hop radius.
enum Backend {
    Single {
        states: BTreeMap<u32, EngineState>,
    },
    Sharded {
        sharded: Box<ShardedGraph>,
        states: BTreeMap<u32, Vec<EngineState>>,
    },
}

/// A running `lona serve` instance. Dropping it (or calling
/// [`Server::shutdown`]) stops the accept loop and the batcher;
/// requests already admitted are still answered (graceful drain).
pub struct Server {
    addr: SocketAddr,
    queue: Arc<AdmissionQueue>,
    stop: Arc<AtomicBool>,
    metrics: Arc<ServeMetrics>,
    accept: Option<JoinHandle<()>>,
    batcher: Option<JoinHandle<()>>,
}

impl Server {
    /// Start configuring a server over `graph`. The graph is
    /// `Arc`-shared because handler and batcher threads outlive any
    /// scoped borrow; any [`GraphStore`] backend works (in-RAM or
    /// memory-mapped).
    pub fn builder<G: GraphStore + Send + Sync + 'static>(graph: Arc<G>) -> ServerBuilder<G> {
        ServerBuilder {
            graph,
            opts: ServeOptions::default(),
            warm: BTreeMap::new(),
            registry: BTreeMap::new(),
            sharding: None,
            permutation: None,
        }
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A live view of the server's counters and histograms — the
    /// same data the `Stats` wire request reports.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// Stop accepting, drain admitted requests, and join the service
    /// threads. Idempotent.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // The accept loop is blocked in `accept()`; a throwaway
        // connection wakes it to observe the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        self.queue.close();
        if let Some(t) = self.batcher.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[allow(clippy::too_many_arguments)]
fn accept_loop<G: GraphStore + Send + Sync + 'static>(
    listener: TcpListener,
    graph: Arc<G>,
    queue: Arc<AdmissionQueue>,
    stop: Arc<AtomicBool>,
    opts: ServeOptions,
    metrics: Arc<ServeMetrics>,
    registry: Arc<BTreeMap<String, Arc<ScoreVec>>>,
    permutation: Option<Arc<Permutation>>,
) {
    let active = Arc::new(AtomicUsize::new(0));
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        if active.load(Ordering::SeqCst) >= opts.max_connections.max(1) {
            let rejected = ServeMetrics::bump(&metrics.conn_rejected);
            let peer = peer_of(&stream);
            eprintln!(
                "lona-serve: refusing connection from {peer}: {} connection limit reached \
                 (total refused: {rejected})",
                opts.max_connections
            );
            // One best-effort Busy frame so the client learns why,
            // then drop the stream. No request was read, so there is
            // no version to mirror; v2 carries the code + retry hint
            // (PR-5 clients never saw this frame — the limit did not
            // exist — so nothing older can be confused by it).
            let reply = Reply::busy(
                0,
                retry_hint_micros(&opts),
                "connection limit reached; retry shortly",
            );
            let mut w = BufWriter::new(stream);
            let _ = write_frame(
                &mut w,
                &encode_reply_version(&reply, VERSION_2),
                opts.max_frame,
            )
            .and_then(|_| w.flush());
            continue;
        }
        ServeMetrics::bump(&metrics.connections);
        active.fetch_add(1, Ordering::SeqCst);
        let graph = Arc::clone(&graph);
        let queue = Arc::clone(&queue);
        let metrics = Arc::clone(&metrics);
        let registry = Arc::clone(&registry);
        let permutation = permutation.clone();
        let active_in_handler = Arc::clone(&active);
        // Handlers are detached: they exit when their client closes
        // (or on shutdown, when the queue refuses admissions and the
        // reply channels drop).
        let spawned = std::thread::Builder::new()
            .name("lona-serve-conn".into())
            .spawn(move || {
                handle_connection(stream, graph, queue, opts, metrics, registry, permutation);
                active_in_handler.fetch_sub(1, Ordering::SeqCst);
            });
        if spawned.is_err() {
            active.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

fn peer_of(stream: &TcpStream) -> String {
    stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "<unknown>".into())
}

/// The `Busy` retry-after hint: one admission window (the time for
/// the batcher to drain at least one micro-batch) plus a millisecond
/// of slack.
fn retry_hint_micros(opts: &ServeOptions) -> u64 {
    u64::try_from(opts.window.as_micros()).unwrap_or(u64::MAX) + 1000
}

/// Serve one connection: a strict frame-in/frame-out loop. Decode
/// and validation failures answer with [`Reply::Err`] and keep the
/// connection (each rejected frame is logged and counted);
/// framing/transport failures and timeouts close this connection
/// only.
#[allow(clippy::too_many_arguments)]
fn handle_connection<G: GraphStore + Send + Sync>(
    stream: TcpStream,
    graph: Arc<G>,
    queue: Arc<AdmissionQueue>,
    opts: ServeOptions,
    metrics: Arc<ServeMetrics>,
    registry: Arc<BTreeMap<String, Arc<ScoreVec>>>,
    permutation: Option<Arc<Permutation>>,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(opts.io_timeout);
    let _ = stream.set_write_timeout(opts.io_timeout);
    let peer = peer_of(&stream);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);

    loop {
        let payload = match read_frame(&mut reader, opts.max_frame) {
            Ok(Some(p)) => p,
            // Clean EOF at a frame boundary: the peer is done.
            Ok(None) => return,
            Err(e) => {
                match e.kind() {
                    // A tripped read timeout: the peer went quiet
                    // holding a connection slot.
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => {
                        let n = ServeMetrics::bump(&metrics.timeouts);
                        eprintln!("lona-serve: closing {peer}: read timeout (total timeouts: {n})");
                    }
                    // Oversized length prefix or EOF mid-frame: a
                    // malformed frame after which the stream can no
                    // longer be trusted to be frame-aligned.
                    io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof => {
                        let n = ServeMetrics::bump(&metrics.rejected_frames);
                        eprintln!(
                            "lona-serve: rejected frame from {peer}: {e} \
                             (total rejected: {n}); closing connection"
                        );
                    }
                    // Plain transport failure (reset, broken pipe):
                    // nothing was rejected, the peer just vanished.
                    _ => {}
                }
                return;
            }
        };
        let received = Instant::now();

        let (request, version) = match decode_inbound(&payload) {
            Ok((Inbound::Stats { id }, _)) => {
                // Stats polls bypass the queue so they answer even
                // when admission is saturated.
                let report = metrics.report(queue.len() as u64);
                let ok = write_frame(
                    &mut writer,
                    &encode_stats_reply(id, &report),
                    opts.max_frame,
                )
                .and_then(|_| writer.flush());
                if ok.is_err() {
                    return;
                }
                continue;
            }
            Ok((Inbound::Update { id, delta }, _)) => {
                // Updates ride the admission queue like queries, so
                // a client's `query; update; query` executes in
                // exactly that order on the batcher thread.
                let outcome =
                    admit_update(id, delta, &graph, &queue, &opts, permutation.as_deref());
                metrics
                    .end_to_end
                    .record(received.elapsed().as_micros() as u64);
                let frame = match outcome {
                    Ok(report) => encode_update_reply(id, &report),
                    Err(reply) => {
                        ServeMetrics::bump(&metrics.error_replies);
                        if matches!(
                            reply,
                            Reply::Err {
                                code: ErrorCode::Busy,
                                ..
                            }
                        ) {
                            ServeMetrics::bump(&metrics.shed);
                        }
                        // The UPDATE kind itself is v2-only, so the
                        // error reply can always carry v2 fields.
                        encode_reply_version(&reply, VERSION_2)
                    }
                };
                let ok =
                    write_frame(&mut writer, &frame, opts.max_frame).and_then(|_| writer.flush());
                if ok.is_err() {
                    return;
                }
                continue;
            }
            Ok((Inbound::Query(req), version)) => (req, version),
            Err(e) => {
                // The frame was well-delimited but its payload does
                // not decode: log + count, reply, keep the
                // connection (the stream is still frame-aligned).
                let n = ServeMetrics::bump(&metrics.rejected_frames);
                eprintln!("lona-serve: rejected frame from {peer}: {e} (total rejected: {n})");
                ServeMetrics::bump(&metrics.error_replies);
                let reply = Reply::err(
                    peek_request_id(&payload),
                    ErrorCode::BadRequest,
                    e.to_string(),
                );
                let ok = write_frame(
                    &mut writer,
                    &encode_reply_version(&reply, VERSION),
                    opts.max_frame,
                )
                .and_then(|_| writer.flush());
                if ok.is_err() {
                    return;
                }
                continue;
            }
        };

        let mut reply = answer(
            request,
            &graph,
            &registry,
            &queue,
            &opts,
            permutation.as_deref(),
        );
        match &mut reply {
            Reply::Ok(r) => r.stats.serve_nanos = duration_nanos(received.elapsed()),
            Reply::Err { code, .. } => {
                ServeMetrics::bump(&metrics.error_replies);
                // The only Busy source on this path is a full
                // admission queue, so the shed counter is exact.
                if *code == ErrorCode::Busy {
                    ServeMetrics::bump(&metrics.shed);
                }
            }
        }
        metrics
            .end_to_end
            .record(received.elapsed().as_micros() as u64);
        let ok = write_frame(
            &mut writer,
            &encode_reply_version(&reply, version),
            opts.max_frame,
        )
        .and_then(|_| writer.flush());
        if ok.is_err() {
            return;
        }
    }
}

/// Produce the reply for one decoded query, blocking on the batcher
/// for admitted requests. Metrics for admission/shed are recorded on
/// the queue and mirrored into the shared metrics by the caller's
/// counters here.
fn answer<G: GraphStore>(
    request: Request,
    graph: &Arc<G>,
    registry: &BTreeMap<String, Arc<ScoreVec>>,
    queue: &AdmissionQueue,
    opts: &ServeOptions,
    perm: Option<&Permutation>,
) -> Reply {
    let id = request.id;
    let num_nodes = graph.csr().num_nodes();
    if let Err(message) = validate_request(&request, num_nodes, opts.max_hops) {
        return Reply::err(id, ErrorCode::BadRequest, message);
    }
    let scores = match &request.scores {
        // Inline sources arrive in original ids; a permuted backend
        // carries them into the packed space (same node count, so the
        // validation above holds in either numbering).
        ScoreRef::Sources(sources) => match perm {
            Some(p) => {
                let mapped: Vec<u32> = sources.iter().map(|&u| p.to_new(NodeId(u)).0).collect();
                Arc::new(binary_scores(&mapped, num_nodes))
            }
            None => Arc::new(binary_scores(sources, num_nodes)),
        },
        ScoreRef::Named(name) => match registry.get(name) {
            Some(v) => Arc::clone(v),
            None => {
                return Reply::err(
                    id,
                    ErrorCode::BadRequest,
                    format!("unknown relevance function `{name}`"),
                )
            }
        },
    };
    let (tx, rx) = mpsc::channel();
    match queue.push(Work::Query(Pending {
        request,
        scores,
        enqueued: Instant::now(),
        reply: tx,
    })) {
        Admit::Admitted => {}
        Admit::Busy { waiting } => {
            let retry = retry_hint_micros(opts);
            return Reply::busy(
                id,
                retry,
                format!("admission queue is full ({waiting} waiting); retry in {retry} µs"),
            );
        }
        Admit::Closed => return Reply::err(id, ErrorCode::Internal, "server is shutting down"),
    }
    match rx.recv() {
        Ok(mut reply) => {
            if let (Some(p), Reply::Ok(r)) = (perm, &mut reply) {
                // Back to original ids, ties re-broken by original id
                // so the wire result is numbering-independent.
                for e in r.entries.iter_mut() {
                    e.0 = p.to_old(NodeId(e.0)).0;
                }
                r.entries
                    .sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            }
            reply
        }
        Err(_) => Reply::err(id, ErrorCode::Internal, "server is shutting down"),
    }
}

/// Validate and admit one graph update, blocking on the batcher for
/// the applied outcome. Wire score overrides are rejected here: the
/// serving path owns relevance through the registry, and silently
/// mutating a registered vector would change other clients' answers.
fn admit_update<G: GraphStore>(
    id: u64,
    mut delta: GraphDelta,
    graph: &Arc<G>,
    queue: &AdmissionQueue,
    opts: &ServeOptions,
    perm: Option<&Permutation>,
) -> Result<UpdateReport, Reply> {
    if !delta.score_overrides.is_empty() {
        return Err(Reply::err(
            id,
            ErrorCode::Unsupported,
            "score overrides are not accepted over the wire; register a relevance \
             function instead",
        ));
    }
    // Endpoint validation happens in original ids, so error messages
    // match what the client sent (the overlay would reject the same
    // ops later, but in the packed numbering).
    let num_nodes = graph.csr().num_nodes();
    let check = |u: u32, v: u32| -> Result<(), Reply> {
        for e in [u, v] {
            if (e as usize) >= num_nodes {
                return Err(Reply::err(
                    id,
                    ErrorCode::BadRequest,
                    format!("delta endpoint {e} out of range (graph has {num_nodes} nodes)"),
                ));
            }
        }
        if u == v {
            return Err(Reply::err(
                id,
                ErrorCode::BadRequest,
                format!("delta self-loop ({u}, {v}) is not allowed"),
            ));
        }
        Ok(())
    };
    for &(u, v, _) in &delta.inserts {
        check(u, v)?;
    }
    for &(u, v) in &delta.deletes {
        check(u, v)?;
    }
    if let Some(p) = perm {
        // Endpoints arrive in original ids; carry them into the
        // packed space like inline source sets.
        for e in delta.inserts.iter_mut() {
            e.0 = p.to_new(NodeId(e.0)).0;
            e.1 = p.to_new(NodeId(e.1)).0;
        }
        for e in delta.deletes.iter_mut() {
            e.0 = p.to_new(NodeId(e.0)).0;
            e.1 = p.to_new(NodeId(e.1)).0;
        }
    }
    let (tx, rx) = mpsc::channel();
    match queue.push(Work::Update(UpdateJob {
        id,
        delta,
        enqueued: Instant::now(),
        reply: tx,
    })) {
        Admit::Admitted => {}
        Admit::Busy { waiting } => {
            let retry = retry_hint_micros(opts);
            return Err(Reply::busy(
                id,
                retry,
                format!("admission queue is full ({waiting} waiting); retry in {retry} µs"),
            ));
        }
        Admit::Closed => {
            return Err(Reply::err(
                id,
                ErrorCode::Internal,
                "server is shutting down",
            ))
        }
    }
    match rx.recv() {
        Ok(outcome) => outcome,
        Err(_) => Err(Reply::err(
            id,
            ErrorCode::Internal,
            "server is shutting down",
        )),
    }
}

/// The batcher: pull micro-batches, split them into FIFO segments at
/// update boundaries, run each contiguous query segment grouped by
/// hop radius (indexes and engines are per-radius) against the warm
/// backend state, apply each update at its exact queue position, and
/// fan the results back out.
fn batch_loop<G: GraphStore>(
    graph: Arc<G>,
    mut backend: Backend,
    queue: Arc<AdmissionQueue>,
    opts: ServeOptions,
    metrics: Arc<ServeMetrics>,
) {
    // All graph mutation goes through the overlay; `compact()` after
    // each applied delta keeps the hot path scanning a plain CSR.
    let mut overlay = OverlayGraph::new(graph);
    while let Some(batch) = queue.next_batch(opts.window, opts.max_batch) {
        let exec_start = Instant::now();
        metrics.batch_size.record(batch.len() as u64);
        for w in &batch {
            metrics.admitted.fetch_add(1, Ordering::Relaxed);
            let enqueued = match w {
                Work::Query(p) => p.enqueued,
                Work::Update(j) => j.enqueued,
            };
            metrics
                .queue_wait
                .record(exec_start.saturating_duration_since(enqueued).as_micros() as u64);
        }
        // FIFO segments: queries coalesce as before, but an update
        // acts as a barrier at its queue position — a client's
        // `query; update; query` observes the first answer on the
        // old graph and the second on the new one.
        let mut run: Vec<Pending> = Vec::new();
        for w in batch {
            match w {
                Work::Query(p) => run.push(p),
                Work::Update(job) => {
                    run_queries(
                        overlay.csr(),
                        &mut backend,
                        std::mem::take(&mut run),
                        exec_start,
                        &opts,
                        &metrics,
                    );
                    apply_update(&mut overlay, &mut backend, job, &metrics);
                }
            }
        }
        run_queries(
            overlay.csr(),
            &mut backend,
            run,
            exec_start,
            &opts,
            &metrics,
        );
    }
}

/// Run one contiguous query segment: group by hop radius and push
/// each group through the warm backend state.
fn run_queries(
    graph: CsrView<'_>,
    backend: &mut Backend,
    segment: Vec<Pending>,
    exec_start: Instant,
    opts: &ServeOptions,
    metrics: &ServeMetrics,
) {
    if segment.is_empty() {
        return;
    }
    let mut by_hops: BTreeMap<u32, Vec<Pending>> = BTreeMap::new();
    for p in segment {
        by_hops.entry(p.request.hops).or_default().push(p);
    }
    for (hops, group) in by_hops {
        let dispatch_start = Instant::now();
        match backend {
            Backend::Single { states } => {
                let state = states.remove(&hops).unwrap_or_default();
                let state = run_group_single(graph, hops, state, group, exec_start, opts, metrics);
                states.insert(hops, state);
            }
            Backend::Sharded { sharded, states } => {
                let shard_states = states.remove(&hops).unwrap_or_else(|| {
                    (0..sharded.num_shards())
                        .map(|_| EngineState::new())
                        .collect()
                });
                let shard_states = run_group_sharded(
                    graph,
                    sharded,
                    hops,
                    shard_states,
                    group,
                    exec_start,
                    opts,
                    metrics,
                );
                states.insert(hops, shard_states);
            }
        }
        metrics
            .dispatch
            .record(dispatch_start.elapsed().as_micros() as u64);
    }
}

/// Apply one admitted delta to the overlay, repair every warm engine
/// state's indexes incrementally (the dirty-region walk in
/// [`crate::delta`]), compact the overlay back into a plain CSR, and
/// reply with the deterministic repair counters.
fn apply_update<B: GraphStore>(
    overlay: &mut OverlayGraph<B>,
    backend: &mut Backend,
    job: UpdateJob,
    metrics: &ServeMetrics,
) {
    let Backend::Single { states } = backend else {
        // A sharded backend would need halo re-partitioning, not
        // index repair; sharded serving stays read-only for now.
        let _ = job.reply.send(Err(Reply::err(
            job.id,
            ErrorCode::Unsupported,
            "graph updates are not supported by the sharded backend",
        )));
        return;
    };
    let applied = match overlay.apply(&job.delta) {
        Ok(a) => a,
        Err(e) => {
            let _ = job.reply.send(Err(Reply::err(
                job.id,
                ErrorCode::BadRequest,
                e.to_string(),
            )));
            return;
        }
    };
    let mut stats = RepairStats::default();
    let mut states_repaired = 0u32;
    if let Some(old) = &applied.old {
        let keys: Vec<u32> = states.keys().copied().collect();
        for hops in keys {
            let state = states.remove(&hops).expect("key just listed");
            let repairable = state.size_index().is_some() && !applied.touched.is_empty();
            let (state, st) =
                repair_engine_state(old.view(), overlay.csr(), &applied.touched, state);
            if repairable {
                states_repaired += 1;
                stats.merge(&st);
            }
            states.insert(hops, state);
        }
    }
    // Fold the log back into a contiguous CSR so subsequent query
    // segments scan plain adjacency, not an overlay.
    overlay.compact();
    ServeMetrics::bump(&metrics.updates_applied);
    let _ = job.reply.send(Ok(UpdateReport {
        inserted: applied.inserted,
        deleted: applied.deleted,
        dirty_nodes: stats.dirty_nodes,
        entries_repaired: stats.entries_repaired,
        rebuild_avoided_units: stats.rebuild_avoided_units,
        states_repaired,
    }));
}

/// Force every request in `group` to its [`serve_algorithm`],
/// planning against `plan_engine` (state-independent: the planner
/// runs with `allow_index_build = true`).
fn forced_queries(
    plan_engine: &LonaEngine<'_>,
    group: &[Pending],
) -> (Vec<TopKQuery>, Vec<Algorithm>) {
    let queries: Vec<TopKQuery> = group
        .iter()
        .map(|p| {
            TopKQuery::new(p.request.k, p.request.aggregate).include_self(p.request.include_self)
        })
        .collect();
    let forces: Vec<Algorithm> = queries
        .iter()
        .zip(group)
        .map(|(q, p)| serve_algorithm(plan_engine, q, &p.scores))
        .collect();
    (queries, forces)
}

/// Deliver one request's reply from its engine result pieces.
fn deliver(
    p: Pending,
    entries: &[(lona_graph::NodeId, f64)],
    mut stats: ServeStats,
    extra: (u64, u64, u32),
) {
    let (index_build_nanos, queue_nanos, batch_size) = extra;
    stats.index_build_nanos = index_build_nanos;
    stats.queue_nanos = queue_nanos;
    stats.batch_size = batch_size;
    let reply = Reply::Ok(Response {
        id: p.request.id,
        entries: entries.iter().map(|&(node, v)| (node.0, v)).collect(),
        stats,
    });
    // A handler that gave up (connection died) just means nobody
    // is listening; the batch ran regardless.
    let _ = p.reply.send(reply);
}

/// Run one same-radius group through the single engine and deliver
/// replies. Returns the (now warm) engine state.
#[allow(clippy::too_many_arguments)]
fn run_group_single(
    graph: CsrView<'_>,
    hops: u32,
    state: EngineState,
    group: Vec<Pending>,
    exec_start: Instant,
    opts: &ServeOptions,
    metrics: &ServeMetrics,
) -> EngineState {
    // Plans are state-independent (the planner runs with
    // `allow_index_build = true`), so a cold throwaway engine plans
    // exactly like the warm serving engine would — and exactly like
    // the sharded backend's planner does.
    let plan_engine = LonaEngine::new(&graph, hops);
    let (queries, forces) = forced_queries(&plan_engine, &group);
    let batch: Vec<BatchQuery<'_>> = queries
        .iter()
        .zip(&group)
        .zip(&forces)
        .map(|((q, p), &f)| BatchQuery::new(*q, &p.scores).force(f))
        .collect();

    let mut engine = LonaEngine::from_state(&graph, hops, state);
    let out = engine.run_batch(&batch, &BatchOptions::with_threads(opts.threads));
    let index_build_nanos = duration_nanos(out.index_build);
    if index_build_nanos > 0 {
        ServeMetrics::bump(&metrics.index_builds);
    }
    let batch_size = group.len() as u32;

    for (p, result) in group.into_iter().zip(out.results) {
        let stats = ServeStats::from_query(&result.stats);
        let queue_nanos = duration_nanos(exec_start.saturating_duration_since(p.enqueued));
        deliver(
            p,
            &result.entries,
            stats,
            (index_build_nanos, queue_nanos, batch_size),
        );
    }
    engine.into_state()
}

/// Run one same-radius group through the sharded engine and deliver
/// replies. Returns the (now warm) per-shard states. Identical
/// responses to [`run_group_single`] by the forced-exactness
/// argument in the module docs.
#[allow(clippy::too_many_arguments)]
fn run_group_sharded(
    graph: CsrView<'_>,
    sharded: &ShardedGraph,
    hops: u32,
    states: Vec<EngineState>,
    group: Vec<Pending>,
    exec_start: Instant,
    opts: &ServeOptions,
    metrics: &ServeMetrics,
) -> Vec<EngineState> {
    // Plans are state-independent, so a cold throwaway engine over
    // the *global* graph plans exactly like the single backend does.
    let plan_engine = LonaEngine::new(&graph, hops);
    let (queries, forces) = forced_queries(&plan_engine, &group);
    let batch: Vec<BatchQuery<'_>> = queries
        .iter()
        .zip(&group)
        .zip(&forces)
        .map(|((q, p), &f)| BatchQuery::new(*q, &p.scores).force(f))
        .collect();

    let mut engine = ShardedEngine::from_states(sharded, hops, states);
    let shard_opts = ShardOptions {
        threads: opts.threads,
        ..ShardOptions::default()
    };
    let out = engine.run_batch(&batch, &shard_opts);
    let index_build_nanos = duration_nanos(out.index_build);
    if index_build_nanos > 0 {
        ServeMetrics::bump(&metrics.index_builds);
    }
    let batch_size = group.len() as u32;

    for (p, sharded_result) in group.into_iter().zip(out.results) {
        let stats = ServeStats::from_query(&sharded_result.result.stats);
        let queue_nanos = duration_nanos(exec_start.saturating_duration_since(p.enqueued));
        deliver(
            p,
            &sharded_result.result.entries,
            stats,
            (index_build_nanos, queue_nanos, batch_size),
        );
    }
    engine.into_states()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::Aggregate;

    fn req(sources: Vec<u32>, k: usize, hops: u32) -> Request {
        Request {
            id: 1,
            scores: ScoreRef::Sources(sources),
            k,
            hops,
            aggregate: Aggregate::Sum,
            include_self: true,
        }
    }

    #[test]
    fn validation_rejects_each_bad_shape_with_a_clear_message() {
        let cases = [
            (req(vec![0], 0, 2), "k must be at least 1"),
            (req(vec![0], 1, 0), "hops must be at least 1"),
            (req(vec![0], 1, 99), "exceeds the server limit"),
            (req(vec![], 1, 2), "source set is empty"),
            (req(vec![10], 1, 2), "source node 10 out of range"),
        ];
        for (r, want) in cases {
            let err = validate_request(&r, 10, 8).unwrap_err();
            assert!(err.contains(want), "{err:?} missing {want:?}");
        }
        assert!(validate_request(&req(vec![0, 9], 1, 2), 10, 8).is_ok());
        // Named references defer registry membership to the handler
        // but still hit the shape checks.
        let named = Request {
            scores: ScoreRef::Named("x".into()),
            ..req(vec![], 1, 2)
        };
        assert!(validate_request(&named, 10, 8).is_ok());
        let named_bad_k = Request {
            scores: ScoreRef::Named("x".into()),
            ..req(vec![], 0, 2)
        };
        assert!(validate_request(&named_bad_k, 10, 8).is_err());
    }

    #[test]
    fn binary_scores_mark_exactly_the_sources() {
        let s = binary_scores(&[1, 3], 5);
        assert_eq!(s.as_slice(), &[0.0, 1.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn default_options_are_sane() {
        let o = ServeOptions::default();
        assert_eq!(o.threads, 0);
        assert!(o.max_batch >= 1);
        assert_eq!(o.max_frame, MAX_FRAME);
        assert!(o.max_hops >= 2, "the paper's h=2 must be servable");
        assert!(o.queue_capacity >= 1);
        assert!(o.max_connections >= 1);
        assert!(o.io_timeout.unwrap() >= Duration::from_secs(1));
    }

    #[test]
    fn serve_algorithm_never_picks_a_partial_backward_plan() {
        use lona_graph::GraphBuilder;
        let mut b = GraphBuilder::undirected();
        for i in 0..64u32 {
            b.push_edge(i, (i + 1) % 64);
            b.push_edge(i, (i + 5) % 64);
        }
        let g = b.build().unwrap();
        let engine = LonaEngine::new(&g, 2);
        // Sparse binary scores steer the planner backward; dense
        // scores steer it elsewhere. Either way the forced algorithm
        // must land in the bit-reproducible set.
        for scores in [
            binary_scores(&[3], 64),
            ScoreVec::from_fn(64, |u| 1.0 / (u.0 + 1) as f64),
        ] {
            for k in [1usize, 5, 50] {
                let q = TopKQuery::new(k, Aggregate::Sum);
                let forced = serve_algorithm(&engine, &q, &scores);
                assert!(
                    matches!(
                        forced,
                        Algorithm::Base | Algorithm::BackwardNaive | Algorithm::LonaForward(_)
                    ),
                    "k={k}: forced {forced}"
                );
            }
        }
    }
}
