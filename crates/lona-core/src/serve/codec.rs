//! The versioned wire format of `lona serve`.
//!
//! Every message travels as one **length-prefixed frame**: a
//! little-endian `u32` payload length followed by that many payload
//! bytes. The payload itself starts with a three-byte header —
//! magic [`MAGIC`], version, message kind — and then the
//! kind-specific body, all encoded with the vendored `bytes`
//! accessors (fixed-width little-endian, no padding, no endianness
//! surprises across machines):
//!
//! ```text
//! frame      := len:u32le payload[len]
//! payload    := magic:u8 version:u8 kind:u8 body
//!
//! # version 1 (PR 5, still accepted bit-for-bit)
//! request.v1 := id:u64 k:u32 hops:u32 aggregate:u8 include_self:u8
//!               n_sources:u32 source:u32 * n_sources        (kind 1)
//! error.v1   := id:u64 msg_len:u32 msg_utf8[msg_len]        (kind 3)
//!
//! # version 2
//! request.v2 := id:u64 k:u32 hops:u32 aggregate:u8 include_self:u8
//!               sel:u8 body                                 (kind 1)
//!               sel 0: n_sources:u32 source:u32 * n_sources
//!               sel 1: name_len:u32 name_utf8[name_len]
//! error.v2   := id:u64 code:u8 retry_after_micros:u64
//!               msg_len:u32 msg_utf8[msg_len]               (kind 3)
//! statsreq   := id:u64                                      (kind 4)
//! statsrep   := id:u64 counter:u64 * 9
//!               (n_buckets:u32 bucket:u64 * n_buckets) * 4  (kind 5)
//!
//! # both versions
//! ok         := id:u64 n_entries:u32 (node:u32 value:f64)*
//!               stats(7 x u64) queue_nanos:u64 serve_nanos:u64
//!               batch_size:u32                              (kind 2)
//! ```
//!
//! The stats-reply counters travel in a fixed order: connections,
//! conn_rejected, admitted, shed, error_replies, rejected_frames,
//! timeouts, index_builds, queue_depth. The four histograms follow in
//! the order queue-wait, dispatch, end-to-end (all microseconds),
//! then micro-batch size (requests). Buckets are base-2 logarithmic:
//! bucket `i` counts observations whose value `v` satisfies
//! `floor(log2(max(v, 1))) == i`.
//!
//! The **deterministic** part of an `ok` body is `id` + the entry
//! list: nodes and exact `f64` bit patterns as the engine produced
//! them. Latency and work-counter fields describe one particular
//! execution and are excluded from the byte-identity contract
//! (DESIGN.md §10, §12).
//!
//! A server mirrors the version of the request in its reply, so a
//! PR-5-era client speaking v1 keeps receiving v1 frames (its error
//! bodies carry no code/retry fields; decoded v1 errors default to
//! [`ErrorCode::BadRequest`] with a zero retry hint).
//!
//! Decoding is total: every failure mode (truncated frame, oversized
//! length prefix, bad magic/version/kind/tag, trailing bytes) returns
//! a [`CodecError`] instead of panicking, so one malformed client
//! cannot take a connection handler down.

use std::io::{self, Read, Write};

use bytes::{Buf, BufMut};

use lona_graph::GraphDelta;

use crate::aggregate::Aggregate;
use crate::stats::QueryStats;

/// First payload byte of every message.
pub const MAGIC: u8 = b'L';
/// The original wire format version (PR 5).
pub const VERSION: u8 = 1;
/// The extended wire format: named relevance selectors, structured
/// error codes, stats frames.
pub const VERSION_2: u8 = 2;
/// Frames larger than this are rejected before allocation: a corrupt
/// or hostile length prefix must not trigger a multi-gigabyte
/// allocation. 16 MiB fits ~2M two-hop result entries.
pub const MAX_FRAME: usize = 16 << 20;

const KIND_REQUEST: u8 = 1;
const KIND_OK: u8 = 2;
const KIND_ERROR: u8 = 3;
const KIND_STATS_REQ: u8 = 4;
const KIND_STATS_REPLY: u8 = 5;
const KIND_UPDATE: u8 = 6;
const KIND_UPDATE_REPLY: u8 = 7;

/// Number of `u64` counters in a stats reply, in wire order.
const STATS_COUNTERS: usize = 9;
/// Number of histograms in a stats reply, in wire order.
const STATS_HISTOGRAMS: usize = 4;

/// Why a payload failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The payload ended before the structure it promised.
    Truncated,
    /// The payload has bytes left after a complete message.
    TrailingBytes(usize),
    /// First byte was not [`MAGIC`].
    BadMagic(u8),
    /// Version byte this build does not speak.
    BadVersion(u8),
    /// Unknown message kind.
    BadKind(u8),
    /// Unknown aggregate tag.
    BadAggregate(u8),
    /// A boolean field held something other than 0/1.
    BadBool(u8),
    /// An error message was not valid UTF-8.
    BadUtf8,
    /// Unknown error-code tag in a v2 error reply.
    BadErrorCode(u8),
    /// Unknown relevance selector tag in a v2 request.
    BadSelector(u8),
    /// A message kind arrived under a version that does not define it
    /// (e.g. a stats request in a v1 frame).
    KindNeedsV2(u8),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "payload truncated"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing byte(s) after message"),
            CodecError::BadMagic(b) => write!(f, "bad magic byte 0x{b:02x}"),
            CodecError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            CodecError::BadKind(k) => write!(f, "unknown message kind {k}"),
            CodecError::BadAggregate(a) => write!(f, "unknown aggregate tag {a}"),
            CodecError::BadBool(b) => write!(f, "boolean field holds {b}"),
            CodecError::BadUtf8 => write!(f, "error message is not valid UTF-8"),
            CodecError::BadErrorCode(c) => write!(f, "unknown error code {c}"),
            CodecError::BadSelector(s) => write!(f, "unknown relevance selector {s}"),
            CodecError::KindNeedsV2(k) => {
                write!(f, "message kind {k} requires protocol version 2")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// The machine-readable class of an error reply, so clients can
/// branch on kind (retry on [`ErrorCode::Busy`], give up on
/// [`ErrorCode::BadRequest`]) without parsing message text.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request itself is malformed or fails validation; retrying
    /// it unchanged will fail identically.
    BadRequest,
    /// The server shed the request under load; retry after the hint.
    Busy,
    /// The request is well-formed but names a capability this server
    /// does not offer.
    Unsupported,
    /// The server failed internally (e.g. shutting down mid-request).
    Internal,
}

impl ErrorCode {
    fn tag(self) -> u8 {
        match self {
            ErrorCode::BadRequest => 0,
            ErrorCode::Busy => 1,
            ErrorCode::Unsupported => 2,
            ErrorCode::Internal => 3,
        }
    }

    fn from_tag(tag: u8) -> Result<ErrorCode, CodecError> {
        match tag {
            0 => Ok(ErrorCode::BadRequest),
            1 => Ok(ErrorCode::Busy),
            2 => Ok(ErrorCode::Unsupported),
            3 => Ok(ErrorCode::Internal),
            other => Err(CodecError::BadErrorCode(other)),
        }
    }

    /// Stable lowercase name, used in CLI output.
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::Busy => "busy",
            ErrorCode::Unsupported => "unsupported",
            ErrorCode::Internal => "internal",
        }
    }
}

/// How a request names its relevance function: an inline binary
/// source set (the only v1 form), or the name of a score vector the
/// server registered at startup (`--register name=scorefile`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScoreRef {
    /// Nodes scored 1 (binary relevance); every other node scores 0.
    Sources(Vec<u32>),
    /// A server-registered named relevance function (v2 only).
    Named(String),
}

impl ScoreRef {
    /// True when this reference can travel in a v1 frame.
    pub fn is_v1_compatible(&self) -> bool {
        matches!(self, ScoreRef::Sources(_))
    }
}

/// One top-k query as it crosses the wire: the relevance reference
/// plus the query shape. `id` is chosen by the client and echoed
/// verbatim in the response, so pipelined requests can be matched up.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// The relevance function: inline sources or a registered name.
    pub scores: ScoreRef,
    /// Number of results.
    pub k: usize,
    /// Hop radius.
    pub hops: u32,
    /// Aggregate function.
    pub aggregate: Aggregate,
    /// Whether `F(u)` includes `f(u)` itself.
    pub include_self: bool,
}

/// A decoded inbound frame: a query, a stats poll, or a graph update.
#[derive(Clone, Debug, PartialEq)]
pub enum Inbound {
    /// A top-k query to admit.
    Query(Request),
    /// A stats poll (answered directly, never queued).
    Stats {
        /// Correlation id echoed in the stats reply.
        id: u64,
    },
    /// A graph delta to apply between micro-batches (wire v2 only).
    Update {
        /// Correlation id echoed in the update reply.
        id: u64,
        /// The edge mutations. The wire carries score overrides too,
        /// but the server rejects them (named-score resolution happens
        /// at admission, so an override could not apply FIFO).
        delta: GraphDelta,
    },
}

/// Execution metadata attached to a successful response. Everything
/// here describes *one particular* execution (latency, micro-batch
/// size, work counters) and is excluded from the byte-identity
/// contract; the deterministic result is [`Response::entries`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// The query's own work counters ([`QueryStats`] minus its
    /// `Duration` fields, which travel as the nanos below).
    pub nodes_evaluated: u64,
    /// Nodes eliminated by an upper bound before evaluation.
    pub nodes_pruned: u64,
    /// Adjacency entries touched.
    pub edges_traversed: u64,
    /// Backward only: nodes whose score was distributed.
    pub nodes_distributed: u64,
    /// Backward only: exact values taken straight from the bound.
    pub exact_from_bound: u64,
    /// Index build time charged to the micro-batch this request rode
    /// in. Zero once the resident engine is warm — the regression
    /// surface the serve smoke test gates on.
    pub index_build_nanos: u64,
    /// In-engine execution time of this query.
    pub runtime_nanos: u64,
    /// Time spent in the admission queue before the micro-batch
    /// started executing.
    pub queue_nanos: u64,
    /// End-to-end server-side latency (receipt to response write).
    pub serve_nanos: u64,
    /// Requests coalesced into the `run_batch` call that served this
    /// one (same graph, same hop radius).
    pub batch_size: u32,
}

impl ServeStats {
    /// Capture the counter fields of one [`QueryStats`].
    pub fn from_query(stats: &QueryStats) -> Self {
        ServeStats {
            nodes_evaluated: stats.nodes_evaluated as u64,
            nodes_pruned: stats.nodes_pruned as u64,
            edges_traversed: stats.edges_traversed,
            nodes_distributed: stats.nodes_distributed as u64,
            exact_from_bound: stats.exact_from_bound as u64,
            index_build_nanos: duration_nanos(stats.index_build),
            runtime_nanos: duration_nanos(stats.runtime),
            queue_nanos: 0,
            serve_nanos: 0,
            batch_size: 1,
        }
    }

    /// Deterministic work units of this response: adjacency entries
    /// touched plus nodes evaluated, pruned and distributed. This is
    /// the unit the smoke tests' work budgets count.
    pub fn work_units(&self) -> u64 {
        self.edges_traversed + self.nodes_evaluated + self.nodes_pruned + self.nodes_distributed
    }
}

/// Saturating `Duration` → whole nanoseconds.
pub(crate) fn duration_nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A successful answer: the ranked entries exactly as the engine
/// produced them, plus execution metadata.
#[derive(Clone, Debug, PartialEq)]
pub struct Response {
    /// Echo of the request id.
    pub id: u64,
    /// `(node, aggregate)` pairs, best first — bit-identical to a
    /// sequential `Engine::run` loop over the same requests.
    pub entries: Vec<(u32, f64)>,
    /// Execution metadata (not part of the identity contract).
    pub stats: ServeStats,
}

/// Either side of a response frame: the answer, or a per-request
/// error that leaves the connection alive.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// The query ran.
    Ok(Response),
    /// The query was rejected, with the offending request's id
    /// (0 when the id itself was unreadable).
    Err {
        /// Echo of the request id, if it could be read.
        id: u64,
        /// Machine-readable rejection class.
        code: ErrorCode,
        /// For [`ErrorCode::Busy`]: how long the client should wait
        /// before retrying, in microseconds. Zero otherwise.
        retry_after_micros: u64,
        /// Human-readable rejection reason.
        message: String,
    },
}

impl Reply {
    /// The correlation id either arm carries.
    pub fn id(&self) -> u64 {
        match self {
            Reply::Ok(r) => r.id,
            Reply::Err { id, .. } => *id,
        }
    }

    /// A non-Busy error reply (retry hint zero).
    pub fn err(id: u64, code: ErrorCode, message: impl Into<String>) -> Reply {
        Reply::Err {
            id,
            code,
            retry_after_micros: 0,
            message: message.into(),
        }
    }

    /// A Busy (load-shed) reply carrying a retry-after hint.
    pub fn busy(id: u64, retry_after_micros: u64, message: impl Into<String>) -> Reply {
        Reply::Err {
            id,
            code: ErrorCode::Busy,
            retry_after_micros,
            message: message.into(),
        }
    }
}

/// The server-side counters and latency histograms a stats reply
/// carries. Counters are cumulative since bind; `queue_depth` is the
/// instantaneous admission-queue length at snapshot time.
///
/// Histogram buckets are base-2 logarithmic: bucket `i` counts
/// observations `v` with `floor(log2(max(v, 1))) == i`. Latency
/// histograms are in microseconds; the batch-size histogram counts
/// requests per micro-batch.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatsReport {
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Connections refused because the per-listener limit was hit.
    pub conn_rejected: u64,
    /// Requests admitted to the queue.
    pub admitted: u64,
    /// Requests shed with `Busy` because the queue was full.
    pub shed: u64,
    /// Error replies sent (validation/decode failures, shutdown).
    pub error_replies: u64,
    /// Frames rejected before producing a request (bad header, kind
    /// mismatch — logged one line each, connection kept alive when
    /// the frame itself was intact).
    pub rejected_frames: u64,
    /// Connections closed by a read/write timeout.
    pub timeouts: u64,
    /// Index builds charged to micro-batches (zero after warm-up on
    /// a compiled-file server — the deterministic CI gate).
    pub index_builds: u64,
    /// Admission-queue length at snapshot time.
    pub queue_depth: u64,
    /// Queue-wait latency histogram (µs).
    pub queue_wait: Vec<u64>,
    /// Dispatch (engine execution) latency histogram (µs).
    pub dispatch: Vec<u64>,
    /// End-to-end server-side latency histogram (µs).
    pub end_to_end: Vec<u64>,
    /// Micro-batch size histogram (requests per dispatch).
    pub batch_size: Vec<u64>,
}

/// Total observations in one histogram.
pub fn histogram_count(buckets: &[u64]) -> u64 {
    buckets.iter().sum()
}

/// Approximate quantile of a base-2 log histogram: the **upper bound**
/// of the bucket holding the q-quantile observation (`2^(i+1) − 1`),
/// or 0 when the histogram is empty. `q` is clamped to `[0, 1]`.
pub fn histogram_quantile(buckets: &[u64], q: f64) -> u64 {
    let total = histogram_count(buckets);
    if total == 0 {
        return 0;
    }
    let q = q.clamp(0.0, 1.0);
    // Rank of the target observation, 1-based.
    let rank = ((q * total as f64).ceil() as u64).max(1);
    let mut seen = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return bucket_upper_bound(i);
        }
    }
    bucket_upper_bound(buckets.len().saturating_sub(1))
}

/// [`histogram_quantile`] that distinguishes "no observations" from a
/// genuine 0-bound estimate: `None` on an empty histogram. Renderers
/// use this to print `-` instead of a fake p99.
pub fn histogram_quantile_checked(buckets: &[u64], q: f64) -> Option<u64> {
    if histogram_count(buckets) == 0 {
        None
    } else {
        Some(histogram_quantile(buckets, q))
    }
}

/// Largest value a bucket can hold: `2^(i+1) − 1` (bucket 0 covers
/// values 0 and 1).
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i >= 63 {
        u64::MAX
    } else {
        (2u64 << i) - 1
    }
}

fn aggregate_tag(a: Aggregate) -> u8 {
    match a {
        Aggregate::Sum => 0,
        Aggregate::Avg => 1,
        Aggregate::DistanceWeightedSum => 2,
        Aggregate::Max => 3,
    }
}

fn aggregate_from_tag(tag: u8) -> Result<Aggregate, CodecError> {
    match tag {
        0 => Ok(Aggregate::Sum),
        1 => Ok(Aggregate::Avg),
        2 => Ok(Aggregate::DistanceWeightedSum),
        3 => Ok(Aggregate::Max),
        other => Err(CodecError::BadAggregate(other)),
    }
}

const SEL_SOURCES: u8 = 0;
const SEL_NAMED: u8 = 1;

/// Checked cursor over a payload: every accessor verifies the bytes
/// exist before delegating to the `bytes` shim (whose own accessors
/// panic on underflow — fine for trusted snapshots, not for frames
/// off a socket).
struct Take<'a> {
    rest: &'a [u8],
}

impl<'a> Take<'a> {
    fn need(&self, n: usize) -> Result<(), CodecError> {
        if self.rest.remaining() < n {
            Err(CodecError::Truncated)
        } else {
            Ok(())
        }
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        self.need(1)?;
        Ok(self.rest.get_u8())
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        self.need(4)?;
        Ok(self.rest.get_u32_le())
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        self.need(8)?;
        Ok(self.rest.get_u64_le())
    }

    fn f64(&mut self) -> Result<f64, CodecError> {
        self.need(8)?;
        Ok(self.rest.get_f64_le())
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        self.need(n)?;
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    fn finish(self) -> Result<(), CodecError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes(self.rest.len()))
        }
    }
}

fn put_header(out: &mut Vec<u8>, version: u8, kind: u8) {
    out.put_u8(MAGIC);
    out.put_u8(version);
    out.put_u8(kind);
}

/// Parse the three-byte header; returns `(version, kind)`. Both
/// protocol versions are accepted here — per-kind decoders enforce
/// which versions define them.
fn take_header(t: &mut Take<'_>) -> Result<(u8, u8), CodecError> {
    let magic = t.u8()?;
    if magic != MAGIC {
        return Err(CodecError::BadMagic(magic));
    }
    let version = t.u8()?;
    if version != VERSION && version != VERSION_2 {
        return Err(CodecError::BadVersion(version));
    }
    let kind = t.u8()?;
    Ok((version, kind))
}

fn take_utf8(t: &mut Take<'_>) -> Result<String, CodecError> {
    let n = t.u32()? as usize;
    let raw = t.bytes(n)?;
    std::str::from_utf8(raw)
        .map(str::to_string)
        .map_err(|_| CodecError::BadUtf8)
}

/// Encode a request payload (header included, length prefix not).
/// Inline source sets travel as version-1 frames — bit-identical to
/// what a PR-5 client sends — so a v1-only server keeps answering
/// them; named references require version 2.
pub fn encode_request(req: &Request) -> Vec<u8> {
    match req.scores {
        ScoreRef::Sources(_) => encode_request_version(req, VERSION),
        ScoreRef::Named(_) => encode_request_version(req, VERSION_2),
    }
}

/// Encode a request as a version-2 frame regardless of its selector.
pub fn encode_request_v2(req: &Request) -> Vec<u8> {
    encode_request_version(req, VERSION_2)
}

fn encode_request_version(req: &Request, version: u8) -> Vec<u8> {
    let mut out = Vec::with_capacity(3 + 8 + 4 + 4 + 3 + 4 + 4 * 16);
    put_header(&mut out, version, KIND_REQUEST);
    out.put_u64_le(req.id);
    out.put_u32_le(req.k as u32);
    out.put_u32_le(req.hops);
    out.put_u8(aggregate_tag(req.aggregate));
    out.put_u8(req.include_self as u8);
    match (&req.scores, version) {
        (ScoreRef::Sources(sources), VERSION) => {
            out.put_u32_le(sources.len() as u32);
            for &s in sources {
                out.put_u32_le(s);
            }
        }
        (ScoreRef::Sources(sources), _) => {
            out.put_u8(SEL_SOURCES);
            out.put_u32_le(sources.len() as u32);
            for &s in sources {
                out.put_u32_le(s);
            }
        }
        (ScoreRef::Named(name), _) => {
            assert!(
                version == VERSION_2,
                "named relevance requires wire version 2"
            );
            out.put_u8(SEL_NAMED);
            let bytes = name.as_bytes();
            out.put_u32_le(bytes.len() as u32);
            out.put_slice(bytes);
        }
    }
    out
}

/// Encode a stats poll (always version 2).
pub fn encode_stats_request(id: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(3 + 8);
    put_header(&mut out, VERSION_2, KIND_STATS_REQ);
    out.put_u64_le(id);
    out
}

/// What a server-side update did, echoed back in the UPDATE reply.
/// All counters are deterministic (see `delta::RepairStats`), so
/// clients and CI can gate on them exactly. They count the update
/// barrier's own work: the size-index repair. A differential index's
/// repair is deferred to the first LONA-Forward plan that reads it
/// and is not counted here.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct UpdateReport {
    /// Edges actually inserted (no-op inserts excluded).
    pub inserted: u64,
    /// Edges actually deleted (no-op deletes excluded).
    pub deleted: u64,
    /// Nodes in the ≤h-hop dirty region, summed over repaired states.
    pub dirty_nodes: u64,
    /// Size-index entries recomputed, summed over repaired states.
    pub entries_repaired: u64,
    /// Size-index entries a full rebuild would have recomputed but
    /// the repair copied, summed over repaired states.
    pub rebuild_avoided_units: u64,
    /// Warm engine states whose indexes were repaired in place.
    pub states_repaired: u32,
}

/// Encode a graph-update request (always version 2). Edge weights
/// travel as `f64` (lossless for the graph's `f32` weights).
pub fn encode_update_request(id: u64, delta: &GraphDelta) -> Vec<u8> {
    let mut out = Vec::with_capacity(
        3 + 8
            + 4
            + 16 * delta.inserts.len()
            + 4
            + 8 * delta.deletes.len()
            + 4
            + 12 * delta.score_overrides.len(),
    );
    put_header(&mut out, VERSION_2, KIND_UPDATE);
    out.put_u64_le(id);
    out.put_u32_le(delta.inserts.len() as u32);
    for &(u, v, w) in &delta.inserts {
        out.put_u32_le(u);
        out.put_u32_le(v);
        out.put_f64_le(w as f64);
    }
    out.put_u32_le(delta.deletes.len() as u32);
    for &(u, v) in &delta.deletes {
        out.put_u32_le(u);
        out.put_u32_le(v);
    }
    out.put_u32_le(delta.score_overrides.len() as u32);
    for &(u, s) in &delta.score_overrides {
        out.put_u32_le(u);
        out.put_f64_le(s);
    }
    out
}

/// Encode an UPDATE reply (always version 2; the request kind itself
/// requires v2).
pub fn encode_update_reply(id: u64, report: &UpdateReport) -> Vec<u8> {
    let mut out = Vec::with_capacity(3 + 8 + 5 * 8 + 4);
    put_header(&mut out, VERSION_2, KIND_UPDATE_REPLY);
    out.put_u64_le(id);
    out.put_u64_le(report.inserted);
    out.put_u64_le(report.deleted);
    out.put_u64_le(report.dirty_nodes);
    out.put_u64_le(report.entries_repaired);
    out.put_u64_le(report.rebuild_avoided_units);
    out.put_u32_le(report.states_repaired);
    out
}

/// Decode an UPDATE reply payload. Error frames arrive as regular
/// [`Reply::Err`] replies — callers fall back to [`decode_reply`] on
/// [`CodecError::BadKind`].
pub fn decode_update_reply(payload: &[u8]) -> Result<(u64, UpdateReport), CodecError> {
    let mut t = Take { rest: payload };
    let (_, kind) = take_header(&mut t)?;
    if kind != KIND_UPDATE_REPLY {
        return Err(CodecError::BadKind(kind));
    }
    let id = t.u64()?;
    let report = UpdateReport {
        inserted: t.u64()?,
        deleted: t.u64()?,
        dirty_nodes: t.u64()?,
        entries_repaired: t.u64()?,
        rebuild_avoided_units: t.u64()?,
        states_repaired: t.u32()?,
    };
    t.finish()?;
    Ok((id, report))
}

/// Decode any inbound (client → server) payload. Returns the message
/// and the wire version it arrived under, so replies can mirror it.
pub fn decode_inbound(payload: &[u8]) -> Result<(Inbound, u8), CodecError> {
    let mut t = Take { rest: payload };
    let (version, kind) = take_header(&mut t)?;
    match kind {
        KIND_REQUEST => {
            let id = t.u64()?;
            let k = t.u32()? as usize;
            let hops = t.u32()?;
            let aggregate = aggregate_from_tag(t.u8()?)?;
            let include_self = match t.u8()? {
                0 => false,
                1 => true,
                other => return Err(CodecError::BadBool(other)),
            };
            let scores = if version == VERSION {
                ScoreRef::Sources(take_sources(&mut t)?)
            } else {
                match t.u8()? {
                    SEL_SOURCES => ScoreRef::Sources(take_sources(&mut t)?),
                    SEL_NAMED => ScoreRef::Named(take_utf8(&mut t)?),
                    other => return Err(CodecError::BadSelector(other)),
                }
            };
            t.finish()?;
            Ok((
                Inbound::Query(Request {
                    id,
                    scores,
                    k,
                    hops,
                    aggregate,
                    include_self,
                }),
                version,
            ))
        }
        KIND_STATS_REQ => {
            if version != VERSION_2 {
                return Err(CodecError::KindNeedsV2(kind));
            }
            let id = t.u64()?;
            t.finish()?;
            Ok((Inbound::Stats { id }, version))
        }
        KIND_UPDATE => {
            if version != VERSION_2 {
                return Err(CodecError::KindNeedsV2(kind));
            }
            let id = t.u64()?;
            let mut delta = GraphDelta::new();
            // Hostile-count guard: every count must be coverable by
            // the remaining bytes before a Vec is sized from it.
            let n_inserts = t.u32()? as usize;
            t.need(n_inserts.saturating_mul(16))?;
            delta.inserts.reserve(n_inserts);
            for _ in 0..n_inserts {
                let (u, v) = (t.u32()?, t.u32()?);
                delta.inserts.push((u, v, t.f64()? as f32));
            }
            let n_deletes = t.u32()? as usize;
            t.need(n_deletes.saturating_mul(8))?;
            delta.deletes.reserve(n_deletes);
            for _ in 0..n_deletes {
                let (u, v) = (t.u32()?, t.u32()?);
                delta.deletes.push((u, v));
            }
            let n_scores = t.u32()? as usize;
            t.need(n_scores.saturating_mul(12))?;
            delta.score_overrides.reserve(n_scores);
            for _ in 0..n_scores {
                let u = t.u32()?;
                delta.score_overrides.push((u, t.f64()?));
            }
            t.finish()?;
            Ok((Inbound::Update { id, delta }, version))
        }
        other => Err(CodecError::BadKind(other)),
    }
}

fn take_sources(t: &mut Take<'_>) -> Result<Vec<u32>, CodecError> {
    let n_sources = t.u32()? as usize;
    // The count must be coverable by the remaining bytes before the
    // Vec is sized from it.
    t.need(n_sources.saturating_mul(4))?;
    let mut sources = Vec::with_capacity(n_sources);
    for _ in 0..n_sources {
        sources.push(t.u32()?);
    }
    Ok(sources)
}

/// Decode a request payload (either version). Stats polls are
/// rejected with [`CodecError::BadKind`] — use [`decode_inbound`]
/// when both kinds are expected.
pub fn decode_request(payload: &[u8]) -> Result<Request, CodecError> {
    match decode_inbound(payload)? {
        (Inbound::Query(req), _) => Ok(req),
        (Inbound::Stats { .. }, _) => Err(CodecError::BadKind(KIND_STATS_REQ)),
        (Inbound::Update { .. }, _) => Err(CodecError::BadKind(KIND_UPDATE)),
    }
}

/// Best-effort peek at the correlation id of a request payload whose
/// full decode failed, so the error response can still be matched to
/// the request that caused it. Returns 0 when even the id is
/// unreadable.
pub fn peek_request_id(payload: &[u8]) -> u64 {
    let mut t = Take { rest: payload };
    take_header(&mut t)
        .and_then(|_| t.u64())
        .unwrap_or_default()
}

/// Encode a reply as a version-1 frame. v1 error bodies carry only
/// id + message; the code and retry hint are dropped (a v1 client
/// has no field to read them from).
pub fn encode_reply(reply: &Reply) -> Vec<u8> {
    encode_reply_version(reply, VERSION)
}

/// Encode a reply as a version-2 frame (structured error code +
/// retry-after hint on the error arm).
pub fn encode_reply_v2(reply: &Reply) -> Vec<u8> {
    encode_reply_version(reply, VERSION_2)
}

/// Encode a reply under the given wire version — servers call this
/// with the version the request arrived under.
pub fn encode_reply_version(reply: &Reply, version: u8) -> Vec<u8> {
    match reply {
        Reply::Ok(r) => {
            let mut out = Vec::with_capacity(3 + 8 + 4 + 12 * r.entries.len() + 9 * 8 + 4);
            put_header(&mut out, version, KIND_OK);
            out.put_u64_le(r.id);
            out.put_u32_le(r.entries.len() as u32);
            for &(node, value) in &r.entries {
                out.put_u32_le(node);
                out.put_f64_le(value);
            }
            let s = &r.stats;
            for v in [
                s.nodes_evaluated,
                s.nodes_pruned,
                s.edges_traversed,
                s.nodes_distributed,
                s.exact_from_bound,
                s.index_build_nanos,
                s.runtime_nanos,
                s.queue_nanos,
                s.serve_nanos,
            ] {
                out.put_u64_le(v);
            }
            out.put_u32_le(s.batch_size);
            out
        }
        Reply::Err {
            id,
            code,
            retry_after_micros,
            message,
        } => {
            let bytes = message.as_bytes();
            let mut out = Vec::with_capacity(3 + 8 + 1 + 8 + 4 + bytes.len());
            put_header(&mut out, version, KIND_ERROR);
            out.put_u64_le(*id);
            if version == VERSION_2 {
                out.put_u8(code.tag());
                out.put_u64_le(*retry_after_micros);
            }
            out.put_u32_le(bytes.len() as u32);
            out.put_slice(bytes);
            out
        }
    }
}

/// Decode a reply payload (either version). A v1 error body decodes
/// with [`ErrorCode::BadRequest`] and a zero retry hint — the only
/// errors a v1 server ever sent were rejection messages.
pub fn decode_reply(payload: &[u8]) -> Result<Reply, CodecError> {
    let mut t = Take { rest: payload };
    let (version, kind) = take_header(&mut t)?;
    match kind {
        KIND_OK => {
            let id = t.u64()?;
            let n = t.u32()? as usize;
            t.need(n.saturating_mul(12))?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                let node = t.u32()?;
                let value = t.f64()?;
                entries.push((node, value));
            }
            let stats = ServeStats {
                nodes_evaluated: t.u64()?,
                nodes_pruned: t.u64()?,
                edges_traversed: t.u64()?,
                nodes_distributed: t.u64()?,
                exact_from_bound: t.u64()?,
                index_build_nanos: t.u64()?,
                runtime_nanos: t.u64()?,
                queue_nanos: t.u64()?,
                serve_nanos: t.u64()?,
                batch_size: t.u32()?,
            };
            t.finish()?;
            Ok(Reply::Ok(Response { id, entries, stats }))
        }
        KIND_ERROR => {
            let id = t.u64()?;
            let (code, retry_after_micros) = if version == VERSION_2 {
                (ErrorCode::from_tag(t.u8()?)?, t.u64()?)
            } else {
                (ErrorCode::BadRequest, 0)
            };
            let message = take_utf8(&mut t)?;
            t.finish()?;
            Ok(Reply::Err {
                id,
                code,
                retry_after_micros,
                message,
            })
        }
        other => Err(CodecError::BadKind(other)),
    }
}

/// Encode a stats reply (always version 2).
pub fn encode_stats_reply(id: u64, report: &StatsReport) -> Vec<u8> {
    let mut out = Vec::with_capacity(
        3 + 8
            + STATS_COUNTERS * 8
            + STATS_HISTOGRAMS * 4
            + 8 * (report.queue_wait.len()
                + report.dispatch.len()
                + report.end_to_end.len()
                + report.batch_size.len()),
    );
    put_header(&mut out, VERSION_2, KIND_STATS_REPLY);
    out.put_u64_le(id);
    for v in [
        report.connections,
        report.conn_rejected,
        report.admitted,
        report.shed,
        report.error_replies,
        report.rejected_frames,
        report.timeouts,
        report.index_builds,
        report.queue_depth,
    ] {
        out.put_u64_le(v);
    }
    for hist in [
        &report.queue_wait,
        &report.dispatch,
        &report.end_to_end,
        &report.batch_size,
    ] {
        out.put_u32_le(hist.len() as u32);
        for &b in hist.iter() {
            out.put_u64_le(b);
        }
    }
    out
}

/// Decode a stats reply; returns `(id, report)`.
pub fn decode_stats_reply(payload: &[u8]) -> Result<(u64, StatsReport), CodecError> {
    let mut t = Take { rest: payload };
    let (version, kind) = take_header(&mut t)?;
    if kind != KIND_STATS_REPLY {
        return Err(CodecError::BadKind(kind));
    }
    if version != VERSION_2 {
        return Err(CodecError::KindNeedsV2(kind));
    }
    let id = t.u64()?;
    let mut counters = [0u64; STATS_COUNTERS];
    for c in counters.iter_mut() {
        *c = t.u64()?;
    }
    let mut hists: Vec<Vec<u64>> = Vec::with_capacity(STATS_HISTOGRAMS);
    for _ in 0..STATS_HISTOGRAMS {
        let n = t.u32()? as usize;
        t.need(n.saturating_mul(8))?;
        let mut buckets = Vec::with_capacity(n);
        for _ in 0..n {
            buckets.push(t.u64()?);
        }
        hists.push(buckets);
    }
    t.finish()?;
    let batch_size = hists.pop().unwrap_or_default();
    let end_to_end = hists.pop().unwrap_or_default();
    let dispatch = hists.pop().unwrap_or_default();
    let queue_wait = hists.pop().unwrap_or_default();
    Ok((
        id,
        StatsReport {
            connections: counters[0],
            conn_rejected: counters[1],
            admitted: counters[2],
            shed: counters[3],
            error_replies: counters[4],
            rejected_frames: counters[5],
            timeouts: counters[6],
            index_builds: counters[7],
            queue_depth: counters[8],
            queue_wait,
            dispatch,
            end_to_end,
            batch_size,
        },
    ))
}

/// Read one length-prefixed frame. `Ok(None)` is a clean EOF at a
/// frame boundary (the peer closed); EOF mid-frame is an error. A
/// length prefix above `max_frame` is rejected **before** any
/// allocation.
pub fn read_frame(r: &mut impl Read, max_frame: usize) -> io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_bytes[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid length prefix",
                ))
            }
            n => filled += n,
        }
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > max_frame {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {max_frame}-byte limit"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Write one length-prefixed frame. Payloads above `max_frame` are
/// refused — the peer would drop the connection on receipt anyway.
pub fn write_frame(w: &mut impl Write, payload: &[u8], max_frame: usize) -> io::Result<()> {
    if payload.len() > max_frame {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "frame of {} bytes exceeds the {max_frame}-byte limit",
                payload.len()
            ),
        ));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> Request {
        Request {
            id: 77,
            scores: ScoreRef::Sources(vec![0, 3, 17]),
            k: 5,
            hops: 2,
            aggregate: Aggregate::Avg,
            include_self: true,
        }
    }

    fn named_request() -> Request {
        Request {
            id: 78,
            scores: ScoreRef::Named("pagerank".into()),
            k: 3,
            hops: 1,
            aggregate: Aggregate::Sum,
            include_self: false,
        }
    }

    fn sample_response() -> Response {
        Response {
            id: 77,
            entries: vec![(4, 1.5), (9, -0.0), (2, f64::MIN_POSITIVE)],
            stats: ServeStats {
                nodes_evaluated: 10,
                nodes_pruned: 20,
                edges_traversed: 30,
                nodes_distributed: 2,
                exact_from_bound: 1,
                index_build_nanos: 0,
                runtime_nanos: 1234,
                queue_nanos: 55,
                serve_nanos: 99,
                batch_size: 8,
            },
        }
    }

    fn sample_stats() -> StatsReport {
        StatsReport {
            connections: 9,
            conn_rejected: 1,
            admitted: 100,
            shed: 7,
            error_replies: 3,
            rejected_frames: 2,
            timeouts: 1,
            index_builds: 4,
            queue_depth: 5,
            queue_wait: vec![0, 1, 2, 3],
            dispatch: vec![10; 40],
            end_to_end: vec![],
            batch_size: vec![5],
        }
    }

    /// The v1 request layout is pinned byte-for-byte: a PR-5-era
    /// client must interoperate forever.
    #[test]
    fn v1_request_layout_is_pinned() {
        #[rustfmt::skip]
        let golden: &[u8] = &[
            0x4C, 1, 1,                      // magic 'L', version 1, kind request
            77, 0, 0, 0, 0, 0, 0, 0,         // id
            5, 0, 0, 0,                      // k
            2, 0, 0, 0,                      // hops
            1,                               // aggregate Avg
            1,                               // include_self
            3, 0, 0, 0,                      // n_sources
            0, 0, 0, 0,                      // source 0
            3, 0, 0, 0,                      // source 3
            17, 0, 0, 0,                     // source 17
        ];
        assert_eq!(encode_request(&sample_request()), golden);
        assert_eq!(decode_request(golden).unwrap(), sample_request());
    }

    #[test]
    fn v1_error_layout_is_pinned() {
        let reply = Reply::err(3, ErrorCode::Internal, "no");
        #[rustfmt::skip]
        let golden: &[u8] = &[
            0x4C, 1, 3,                      // magic, version 1, kind error
            3, 0, 0, 0, 0, 0, 0, 0,          // id
            2, 0, 0, 0,                      // msg_len
            b'n', b'o',
        ];
        assert_eq!(encode_reply(&reply), golden);
        // The v1 body has no code field: it decodes as BadRequest/0.
        assert_eq!(
            decode_reply(golden).unwrap(),
            Reply::err(3, ErrorCode::BadRequest, "no")
        );
    }

    #[test]
    fn request_round_trips() {
        let req = sample_request();
        assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
        // The same request forced onto v2 round-trips identically.
        assert_eq!(decode_request(&encode_request_v2(&req)).unwrap(), req);
        let named = named_request();
        assert_eq!(decode_request(&encode_request(&named)).unwrap(), named);
    }

    #[test]
    fn inbound_reports_the_wire_version() {
        let (q, v) = decode_inbound(&encode_request(&sample_request())).unwrap();
        assert_eq!((q, v), (Inbound::Query(sample_request()), VERSION));
        let (q, v) = decode_inbound(&encode_request_v2(&sample_request())).unwrap();
        assert_eq!((q, v), (Inbound::Query(sample_request()), VERSION_2));
        let (s, v) = decode_inbound(&encode_stats_request(42)).unwrap();
        assert_eq!((s, v), (Inbound::Stats { id: 42 }, VERSION_2));
    }

    #[test]
    fn stats_request_rejected_under_v1() {
        let mut payload = encode_stats_request(42);
        payload[1] = VERSION;
        assert_eq!(
            decode_inbound(&payload).unwrap_err(),
            CodecError::KindNeedsV2(KIND_STATS_REQ)
        );
    }

    #[test]
    fn reply_round_trips_bit_exactly() {
        let reply = Reply::Ok(sample_response());
        for encoded in [encode_reply(&reply), encode_reply_v2(&reply)] {
            let back = decode_reply(&encoded).unwrap();
            match (&reply, &back) {
                (Reply::Ok(a), Reply::Ok(b)) => {
                    assert_eq!(a.id, b.id);
                    assert_eq!(a.stats, b.stats);
                    // -0.0 == 0.0 under PartialEq; the contract is bit
                    // identity.
                    assert_eq!(a.entries.len(), b.entries.len());
                    for (x, y) in a.entries.iter().zip(&b.entries) {
                        assert_eq!(x.0, y.0);
                        assert_eq!(x.1.to_bits(), y.1.to_bits());
                    }
                }
                other => panic!("{other:?}"),
            }
        }
        // v2 errors keep their code and retry hint.
        let err = Reply::busy(3, 1500, "nope — busy");
        assert_eq!(decode_reply(&encode_reply_v2(&err)).unwrap(), err);
        // v1 errors flatten to BadRequest/0 but keep the message.
        assert_eq!(
            decode_reply(&encode_reply(&err)).unwrap(),
            Reply::err(3, ErrorCode::BadRequest, "nope — busy")
        );
    }

    #[test]
    fn stats_reply_round_trips() {
        let report = sample_stats();
        let payload = encode_stats_reply(42, &report);
        assert_eq!(decode_stats_reply(&payload).unwrap(), (42, report));
    }

    fn sample_delta() -> GraphDelta {
        GraphDelta::new()
            .insert(3, 17)
            .insert_weighted(4, 18, 2.5)
            .delete(0, 9)
            .override_score(17, 0.85)
    }

    fn sample_update_report() -> UpdateReport {
        UpdateReport {
            inserted: 2,
            deleted: 1,
            dirty_nodes: 12,
            entries_repaired: 40,
            rebuild_avoided_units: 960,
            states_repaired: 3,
        }
    }

    #[test]
    fn update_frames_round_trip() {
        let delta = sample_delta();
        let (inb, v) = decode_inbound(&encode_update_request(9, &delta)).unwrap();
        assert_eq!((inb, v), (Inbound::Update { id: 9, delta }, VERSION_2));
        // Empty deltas are legal frames.
        let (inb, _) = decode_inbound(&encode_update_request(1, &GraphDelta::new())).unwrap();
        assert_eq!(
            inb,
            Inbound::Update {
                id: 1,
                delta: GraphDelta::new()
            }
        );
        let report = sample_update_report();
        let payload = encode_update_reply(9, &report);
        assert_eq!(decode_update_reply(&payload).unwrap(), (9, report));
    }

    #[test]
    fn update_rejected_under_v1() {
        let mut payload = encode_update_request(9, &sample_delta());
        payload[1] = VERSION;
        assert_eq!(
            decode_inbound(&payload).unwrap_err(),
            CodecError::KindNeedsV2(KIND_UPDATE)
        );
        // And decode_request never yields an update.
        let payload = encode_update_request(9, &sample_delta());
        assert_eq!(
            decode_request(&payload).unwrap_err(),
            CodecError::BadKind(KIND_UPDATE)
        );
    }

    #[test]
    fn hostile_update_counts_do_not_allocate() {
        // A frame claiming u32::MAX inserts with no bytes behind it
        // must fail on the length check, not in Vec::with_capacity.
        let mut payload = Vec::new();
        put_header(&mut payload, VERSION_2, KIND_UPDATE);
        payload.put_u64_le(1);
        payload.put_u32_le(u32::MAX);
        assert!(matches!(
            decode_inbound(&payload).unwrap_err(),
            CodecError::Truncated
        ));
    }

    #[test]
    fn update_reply_decoder_rejects_other_kinds() {
        let err_frame = encode_reply_v2(&Reply::err(9, ErrorCode::Unsupported, "no"));
        assert_eq!(
            decode_update_reply(&err_frame).unwrap_err(),
            CodecError::BadKind(KIND_ERROR)
        );
    }

    #[test]
    fn every_truncation_is_rejected_not_panicking() {
        let frames = [
            encode_request(&sample_request()),
            encode_request_v2(&sample_request()),
            encode_request(&named_request()),
            encode_stats_request(42),
            encode_update_request(9, &sample_delta()),
            encode_update_reply(9, &sample_update_report()),
            encode_reply(&Reply::Ok(sample_response())),
            encode_reply_v2(&Reply::busy(1, 9, "x")),
            encode_reply(&Reply::err(1, ErrorCode::BadRequest, "x")),
            encode_stats_reply(1, &sample_stats()),
        ];
        for full in &frames {
            for cut in 0..full.len() {
                let prefix = &full[..cut];
                let inb = decode_inbound(prefix);
                let rep = decode_reply(prefix);
                let sta = decode_stats_reply(prefix);
                let upd = decode_update_reply(prefix);
                assert!(
                    inb.is_err() && rep.is_err() && sta.is_err() && upd.is_err(),
                    "prefix of {cut} accepted"
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = encode_request(&sample_request());
        payload.push(0);
        assert_eq!(
            decode_request(&payload).unwrap_err(),
            CodecError::TrailingBytes(1)
        );
        let mut payload = encode_stats_reply(1, &sample_stats());
        payload.push(0);
        assert_eq!(
            decode_stats_reply(&payload).unwrap_err(),
            CodecError::TrailingBytes(1)
        );
        let mut payload = encode_update_request(1, &sample_delta());
        payload.push(0);
        assert_eq!(
            decode_inbound(&payload).unwrap_err(),
            CodecError::TrailingBytes(1)
        );
        let mut payload = encode_update_reply(1, &sample_update_report());
        payload.push(0);
        assert_eq!(
            decode_update_reply(&payload).unwrap_err(),
            CodecError::TrailingBytes(1)
        );
    }

    #[test]
    fn header_violations_name_the_byte() {
        let good = encode_request(&sample_request());
        let mut bad = good.clone();
        bad[0] = b'X';
        assert_eq!(
            decode_request(&bad).unwrap_err(),
            CodecError::BadMagic(b'X')
        );
        let mut bad = good.clone();
        bad[1] = 9;
        assert_eq!(decode_request(&bad).unwrap_err(), CodecError::BadVersion(9));
        let mut bad = good;
        bad[2] = 200;
        assert_eq!(decode_request(&bad).unwrap_err(), CodecError::BadKind(200));
    }

    #[test]
    fn bad_selector_and_code_are_named() {
        let mut payload = encode_request_v2(&sample_request());
        payload[21] = 9; // the selector byte follows the 21-byte prefix
        assert_eq!(
            decode_request(&payload).unwrap_err(),
            CodecError::BadSelector(9)
        );
        let mut payload = encode_reply_v2(&Reply::err(1, ErrorCode::Internal, "x"));
        payload[11] = 200; // code byte follows header + id
        assert_eq!(
            decode_reply(&payload).unwrap_err(),
            CodecError::BadErrorCode(200)
        );
    }

    #[test]
    fn hostile_counts_do_not_allocate() {
        // A request claiming u32::MAX sources with a near-empty body
        // must fail on the length check, not attempt a 16 GiB Vec.
        let mut payload = encode_request(&Request {
            scores: ScoreRef::Sources(vec![]),
            ..sample_request()
        });
        let n = payload.len();
        payload[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_request(&payload).unwrap_err(), CodecError::Truncated);

        // Same for a stats reply claiming a giant histogram.
        let mut payload = encode_stats_reply(
            1,
            &StatsReport {
                batch_size: vec![],
                ..sample_stats()
            },
        );
        let n = payload.len();
        payload[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_stats_reply(&payload).unwrap_err(),
            CodecError::Truncated
        );
    }

    #[test]
    fn frame_round_trip_and_limits() {
        let payload = encode_request(&sample_request());
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload, MAX_FRAME).unwrap();
        let mut r = &wire[..];
        assert_eq!(read_frame(&mut r, MAX_FRAME).unwrap().unwrap(), payload);
        assert!(read_frame(&mut r, MAX_FRAME).unwrap().is_none(), "EOF");

        // Oversized length prefix: rejected before allocation.
        let mut hostile = Vec::new();
        hostile.extend_from_slice(&(u32::MAX).to_le_bytes());
        let err = read_frame(&mut &hostile[..], MAX_FRAME).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Oversized writes are refused symmetrically.
        let big = vec![0u8; 65];
        assert!(write_frame(&mut Vec::new(), &big, 64).is_err());

        // Truncation inside the length prefix and inside the payload.
        assert!(read_frame(&mut &wire[..2], MAX_FRAME).is_err());
        assert!(read_frame(&mut &wire[..wire.len() - 1], MAX_FRAME).is_err());
    }

    #[test]
    fn peek_id_survives_bad_bodies() {
        let mut payload = encode_request(&sample_request());
        payload[16] = 250; // corrupt the aggregate tag region
        assert_eq!(peek_request_id(&payload), 77);
        assert_eq!(peek_request_id(&payload[..4]), 0);
        assert_eq!(peek_request_id(b""), 0);
    }

    #[test]
    fn aggregate_tags_cover_every_variant() {
        for a in [
            Aggregate::Sum,
            Aggregate::Avg,
            Aggregate::DistanceWeightedSum,
            Aggregate::Max,
        ] {
            assert_eq!(aggregate_from_tag(aggregate_tag(a)).unwrap(), a);
        }
        assert_eq!(
            aggregate_from_tag(200).unwrap_err(),
            CodecError::BadAggregate(200)
        );
    }

    #[test]
    fn error_codes_cover_every_variant() {
        for c in [
            ErrorCode::BadRequest,
            ErrorCode::Busy,
            ErrorCode::Unsupported,
            ErrorCode::Internal,
        ] {
            assert_eq!(ErrorCode::from_tag(c.tag()).unwrap(), c);
            assert!(!c.name().is_empty());
        }
        assert_eq!(
            ErrorCode::from_tag(99).unwrap_err(),
            CodecError::BadErrorCode(99)
        );
    }

    #[test]
    fn histogram_quantiles_hit_bucket_upper_bounds() {
        // Pinned: empty histograms report 0, never a garbage bucket
        // bound; the checked variant makes the emptiness explicit.
        assert_eq!(histogram_quantile(&[], 0.5), 0);
        assert_eq!(histogram_quantile(&[0, 0, 0], 0.5), 0);
        assert_eq!(histogram_quantile_checked(&[], 0.99), None);
        assert_eq!(histogram_quantile_checked(&[0; 40], 0.99), None);
        assert_eq!(histogram_quantile_checked(&[0, 1], 0.99), Some(3));
        // 10 observations in bucket 3 ([8, 16)): every quantile lands
        // on its upper bound 15.
        let mut h = vec![0u64; 8];
        h[3] = 10;
        for q in [0.0, 0.5, 0.95, 1.0] {
            assert_eq!(histogram_quantile(&h, q), 15, "q={q}");
        }
        // Split 50/50 between buckets 0 and 4: the median sits in
        // bucket 0, p95 in bucket 4.
        let mut h = vec![0u64; 8];
        h[0] = 50;
        h[4] = 50;
        assert_eq!(histogram_quantile(&h, 0.5), 1);
        assert_eq!(histogram_quantile(&h, 0.95), 31);
        assert_eq!(histogram_count(&h), 100);
        assert_eq!(bucket_upper_bound(0), 1);
        assert_eq!(bucket_upper_bound(63), u64::MAX);
    }
}
