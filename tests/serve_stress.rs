//! CI stress for the hardened `lona serve`: saturation, hostile
//! peers, protocol compatibility, and the sharded backend — gated
//! entirely on **deterministic accounting identities and exact
//! bytes**, never on wall clock.
//!
//! The identities this file holds:
//!
//! * every reply under saturation is either `Ok` — byte-identical to
//!   the same request served sequentially — or `Busy`, and the
//!   server's `shed` counter equals the number of `Busy` replies the
//!   clients observed;
//! * a sharded server (`--shards N`) answers a mixed workload
//!   (inline source sets *and* registered non-binary relevance)
//!   byte-identically to the single-engine server;
//! * malformed frames are counted and rejected without killing
//!   sibling connections, and hand-pinned **v1 golden bytes** — what
//!   a PR-5-era client puts on the wire — still get correct v1
//!   replies.

use std::io::Write as _;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

use lona::core::serve::codec::{encode_request, read_frame, write_frame, MAX_FRAME};
use lona::core::serve::{
    histogram_count, ErrorCode, Reply, Request, ScoreRef, ServeClient, ServeOptions, Server,
};
use lona::prelude::*;

const HOPS: u32 = 2;

fn fixed_workload() -> CsrGraph {
    DatasetProfile::smoke(DatasetKind::Collaboration, 2024)
        .generate()
        .unwrap()
}

/// A deterministic non-binary relevance function for the named
/// registry: strictly positive everywhere, no ties.
fn harmonic_scores(n: usize) -> ScoreVec {
    ScoreVec::from_fn(n, |u| 1.0 / (u.0 + 1) as f64)
}

/// The deterministic saturation mix: request `idx` fully determines
/// its shape, so admitted replies can be checked against a
/// sequential warm-up pass over the same indices.
fn flood_spec(idx: usize, num_nodes: usize) -> (Vec<u32>, usize, Aggregate, bool) {
    let n_sources = 1 + idx % 4;
    let sources: Vec<u32> = (0..n_sources)
        .map(|s| ((idx * 41 + s * 97) % num_nodes) as u32)
        .collect();
    let k = [5usize, 17, 50, 50][idx % 4];
    let aggregate = [
        Aggregate::Sum,
        Aggregate::Avg,
        Aggregate::DistanceWeightedSum,
        Aggregate::Max,
    ][idx % 4];
    (sources, k, aggregate, !idx.is_multiple_of(3))
}

fn entry_bits(entries: &[(u32, f64)]) -> Vec<(u32, u64)> {
    entries.iter().map(|&(u, v)| (u, v.to_bits())).collect()
}

/// Saturate a tiny bounded queue from concurrent clients. Every
/// reply must be `Ok` (byte-identical to the sequential pass) or
/// `Busy`, the wire `shed` counter must equal the observed `Busy`
/// count exactly, and a stats poll must answer *during* saturation.
/// All gates are counting identities — nothing depends on how fast
/// the machine drained the burst.
#[test]
fn saturation_sheds_busy_and_admitted_replies_stay_byte_identical() {
    const CLIENTS: usize = 16;
    const PER_CLIENT: usize = 8;
    const MAX_ROUNDS: usize = 20;

    let graph = Arc::new(fixed_workload());
    let n = graph.num_nodes();
    let mut server = Server::builder(Arc::clone(&graph))
        .options(ServeOptions {
            threads: 1,
            window: Duration::from_micros(200),
            max_batch: 2,
            queue_capacity: 4,
            ..Default::default()
        })
        .bind("127.0.0.1:0")
        .unwrap();
    let addr = server.local_addr();

    // Sequential reference pass (also warms every radius-2 index the
    // mix needs). A lone client can never fill the queue, so every
    // reply here must be Ok.
    let mut warm = ServeClient::connect(addr).open().unwrap();
    let expect: Vec<Vec<(u32, u64)>> = (0..CLIENTS * PER_CLIENT)
        .map(|idx| {
            let (sources, k, aggregate, include_self) = flood_spec(idx, n);
            match warm
                .query(&sources, k, HOPS, aggregate, include_self)
                .unwrap()
            {
                Reply::Ok(resp) => entry_bits(&resp.entries),
                Reply::Err { message, .. } => panic!("warm-up {idx} rejected: {message}"),
            }
        })
        .collect();
    let warm_n = (CLIENTS * PER_CLIENT) as u64;

    // Burst rounds until the queue actually shed (with capacity 4,
    // micro-batches of 2 and 16 concurrent clients this is the first
    // round in practice; the loop only removes the scheduling
    // assumption). The identities below hold for every round.
    let ok_total = AtomicU64::new(0);
    let busy_total = AtomicU64::new(0);
    let mut rounds = 0u64;
    for _ in 0..MAX_ROUNDS {
        rounds += 1;
        let barrier = Barrier::new(CLIENTS + 1);
        thread::scope(|s| {
            for client in 0..CLIENTS {
                let (barrier, expect) = (&barrier, &expect);
                let (ok_total, busy_total) = (&ok_total, &busy_total);
                s.spawn(move || {
                    let mut conn = ServeClient::connect(addr).open().unwrap();
                    barrier.wait();
                    for j in 0..PER_CLIENT {
                        let idx = client * PER_CLIENT + j;
                        let (sources, k, aggregate, include_self) = flood_spec(idx, n);
                        match conn
                            .query(&sources, k, HOPS, aggregate, include_self)
                            .unwrap()
                        {
                            Reply::Ok(resp) => {
                                assert_eq!(
                                    entry_bits(&resp.entries),
                                    expect[idx],
                                    "request {idx} diverged under saturation"
                                );
                                ok_total.fetch_add(1, Ordering::Relaxed);
                            }
                            Reply::Err {
                                code,
                                retry_after_micros,
                                message,
                                ..
                            } => {
                                assert_eq!(code, ErrorCode::Busy, "unexpected error: {message}");
                                assert!(retry_after_micros > 0, "Busy must carry a retry hint");
                                assert!(
                                    message.contains("admission queue is full"),
                                    "unexpected Busy message: {message}"
                                );
                                busy_total.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                });
            }
            // Observability under load: stats polls bypass the queue,
            // so they must answer while the burst is in flight.
            let mut observer = ServeClient::connect(addr).open().unwrap();
            barrier.wait();
            for _ in 0..3 {
                observer.stats().expect("stats poll under saturation");
            }
        });
        if busy_total.load(Ordering::Relaxed) > 0 {
            break;
        }
    }

    let ok_total = ok_total.load(Ordering::Relaxed);
    let busy_total = busy_total.load(Ordering::Relaxed);
    assert!(busy_total > 0, "no shed in {rounds} saturation rounds");
    assert_eq!(
        ok_total + busy_total,
        rounds * (CLIENTS * PER_CLIENT) as u64,
        "every request got exactly one reply"
    );

    // The accounting identities, via the wire stats endpoint.
    let mut poll = ServeClient::connect(addr).open().unwrap();
    let r = poll.stats().unwrap();
    assert_eq!(r.shed, busy_total, "shed counter vs observed Busy replies");
    assert_eq!(
        r.admitted,
        warm_n + ok_total,
        "admitted vs observed Ok replies"
    );
    assert_eq!(r.error_replies, busy_total, "Busy is the only error here");
    assert_eq!(r.rejected_frames, 0);
    assert_eq!(r.timeouts, 0);
    assert_eq!(r.conn_rejected, 0);
    assert_eq!(r.queue_depth, 0, "all bursts fully drained");
    assert_eq!(
        histogram_count(&r.end_to_end),
        warm_n + ok_total + busy_total,
        "every query reply is one end-to-end sample"
    );
    assert_eq!(
        histogram_count(&r.queue_wait),
        r.admitted,
        "every admitted request is one queue-wait sample"
    );
    assert!(histogram_count(&r.batch_size) >= 1);
    // The in-process view and the wire view are the same counters.
    let local = server.metrics().report(0);
    assert_eq!((local.shed, local.admitted), (r.shed, r.admitted));
    server.shutdown();
    // Dispatch latency is recorded *after* a batch's replies are
    // delivered, so its count is only settled once the batcher has
    // joined. The whole mix runs at one hop radius, so each batch is
    // exactly one dispatched hop group.
    let local = server.metrics().report(0);
    assert_eq!(
        histogram_count(&local.dispatch),
        histogram_count(&local.batch_size),
        "one dispatch sample per single-radius micro-batch"
    );
}

/// The sharded-vs-single workload mix: inline source sets and the
/// registered named function, all four aggregates, both hop radii.
fn mixed_spec(idx: usize, num_nodes: usize) -> Request {
    let scores = if idx % 3 == 2 {
        ScoreRef::Named("harmonic".to_string())
    } else {
        let n_sources = 1 + idx % 4;
        ScoreRef::Sources(
            (0..n_sources)
                .map(|s| ((idx * 53 + s * 89) % num_nodes) as u32)
                .collect(),
        )
    };
    Request {
        id: 0, // assigned per connection
        scores,
        k: [1usize, 5, 17, 50][idx % 4],
        hops: 1 + (idx % 2) as u32,
        aggregate: [
            Aggregate::Sum,
            Aggregate::Avg,
            Aggregate::DistanceWeightedSum,
            Aggregate::Max,
        ][(idx / 2) % 4],
        include_self: !idx.is_multiple_of(3),
    }
}

/// Run the mixed workload from concurrent clients and return the
/// entry bits per request index (panicking on any error reply).
fn run_mixed_workload(addr: std::net::SocketAddr, total: usize, n: usize) -> Vec<Vec<(u32, u64)>> {
    const CLIENTS: usize = 6;
    let per_client = total.div_ceil(CLIENTS);
    let mut out: Vec<(usize, Vec<(u32, u64)>)> = thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                s.spawn(move || {
                    let mut conn = ServeClient::connect(addr).open().unwrap();
                    (client * per_client..((client + 1) * per_client).min(total))
                        .map(|idx| {
                            let mut req = mixed_spec(idx, n);
                            req.id = idx as u64 + 1;
                            match conn.request(&req).unwrap() {
                                Reply::Ok(resp) => (idx, entry_bits(&resp.entries)),
                                Reply::Err { message, .. } => {
                                    panic!("request {idx} rejected: {message}")
                                }
                            }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    out.sort_by_key(|(idx, _)| *idx);
    out.into_iter().map(|(_, bits)| bits).collect()
}

/// `--shards N` must be invisible in the bytes: the same mixed
/// workload (inline sources *and* named non-binary relevance —
/// the case where the algorithm forcing, not score ties, carries
/// the identity) answers identically on every backend.
#[test]
fn sharded_backend_is_byte_identical_to_single_engine_on_mixed_workload() {
    const TOTAL: usize = 48;
    let graph = Arc::new(fixed_workload());
    let n = graph.num_nodes();
    let opts = ServeOptions {
        threads: 2,
        window: Duration::from_millis(1),
        ..Default::default()
    };

    let mut single = Server::builder(Arc::clone(&graph))
        .options(opts)
        .register("harmonic", harmonic_scores(n))
        .bind("127.0.0.1:0")
        .unwrap();
    let reference = run_mixed_workload(single.local_addr(), TOTAL, n);
    single.shutdown();

    for (shards, strategy) in [
        (2usize, PartitionStrategy::Contiguous),
        (4, PartitionStrategy::Hash),
        (3, PartitionStrategy::DegreeBalanced),
    ] {
        let mut sharded = Server::builder(Arc::clone(&graph))
            .options(opts)
            .register("harmonic", harmonic_scores(n))
            .shards(shards, strategy, HOPS)
            .bind("127.0.0.1:0")
            .unwrap();
        let got = run_mixed_workload(sharded.local_addr(), TOTAL, n);
        for (idx, (want, have)) in reference.iter().zip(&got).enumerate() {
            assert_eq!(
                want, have,
                "shards={shards} {strategy:?}: request {idx} diverged from single engine"
            );
        }
        sharded.shutdown();
    }
}

/// Malformed payloads get one structured error reply and the
/// connection survives; malformed *framing* closes that connection
/// only. Both are counted, and a sibling connection keeps serving
/// throughout.
#[test]
fn hostile_frames_are_counted_and_do_not_kill_siblings() {
    let graph = Arc::new(fixed_workload());
    let mut server = Server::builder(Arc::clone(&graph))
        .options(ServeOptions {
            threads: 1,
            ..Default::default()
        })
        .bind("127.0.0.1:0")
        .unwrap();
    let addr = server.local_addr();

    let mut sibling = ServeClient::connect(addr).open().unwrap();
    assert!(matches!(
        sibling
            .query(&[0, 1], 3, HOPS, Aggregate::Sum, true)
            .unwrap(),
        Reply::Ok(_)
    ));

    // (a) A well-delimited frame whose payload is garbage: one
    // BadRequest reply, connection stays frame-aligned and usable.
    let mut hostile = TcpStream::connect(addr).unwrap();
    write_frame(&mut hostile, &[0xFF; 8], MAX_FRAME).unwrap();
    let payload = read_frame(&mut hostile, MAX_FRAME)
        .unwrap()
        .expect("error reply");
    match lona::core::serve::codec::decode_reply(&payload).unwrap() {
        Reply::Err { code, message, .. } => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert!(!message.is_empty());
        }
        Reply::Ok(_) => panic!("garbage payload was accepted"),
    }
    let valid = Request {
        id: 42,
        scores: ScoreRef::Sources(vec![0]),
        k: 2,
        hops: HOPS,
        aggregate: Aggregate::Sum,
        include_self: true,
    };
    write_frame(&mut hostile, &encode_request(&valid), MAX_FRAME).unwrap();
    let payload = read_frame(&mut hostile, MAX_FRAME)
        .unwrap()
        .expect("reply after garbage");
    match lona::core::serve::codec::decode_reply(&payload).unwrap() {
        Reply::Ok(resp) => assert_eq!(resp.id, 42),
        Reply::Err { message, .. } => panic!("valid request after garbage rejected: {message}"),
    }

    // (b) A hostile length prefix (over the frame cap): the server
    // must close this connection without reading the "body".
    hostile
        .write_all(&u32::try_from(MAX_FRAME + 1).unwrap().to_le_bytes())
        .unwrap();
    hostile.flush().unwrap();
    match read_frame(&mut hostile, MAX_FRAME) {
        Ok(None) | Err(_) => {} // EOF (or reset): the server hung up
        Ok(Some(p)) => panic!("server replied to an oversized frame: {p:?}"),
    }

    // Observing the close orders us after the server's bookkeeping:
    // both rejects are now counted, and the sibling never noticed.
    match sibling
        .query(&[2, 3], 3, HOPS, Aggregate::Sum, true)
        .unwrap()
    {
        Reply::Ok(_) => {}
        Reply::Err { message, .. } => panic!("sibling was damaged: {message}"),
    }
    let r = sibling.stats().unwrap();
    assert_eq!(r.rejected_frames, 2, "garbage payload + oversized prefix");
    assert_eq!(r.error_replies, 1, "only the payload reject got a reply");
    server.shutdown();
}

/// Hand-pinned v1 wire bytes — **not** produced by this build's
/// encoder — must still be answered correctly, with the reply
/// mirrored in a v1 frame. This is the compat contract for clients
/// built before named relevance, error codes, and stats existed.
#[test]
fn v1_golden_frame_bytes_get_correct_v1_replies() {
    let graph = Arc::new(fixed_workload());
    let mut server = Server::builder(Arc::clone(&graph))
        .options(ServeOptions {
            threads: 1,
            ..Default::default()
        })
        .bind("127.0.0.1:0")
        .unwrap();
    let addr = server.local_addr();

    // request id=7, k=3, hops=2, SUM, include_self, sources {1, 2} —
    // byte for byte as PR 5 pinned it.
    #[rustfmt::skip]
    let golden: &[u8] = &[
        b'L', 1, 1,                         // magic, version 1, REQUEST
        7, 0, 0, 0, 0, 0, 0, 0,             // id
        3, 0, 0, 0,                         // k
        2, 0, 0, 0,                         // hops
        0,                                  // aggregate: SUM
        1,                                  // include_self
        2, 0, 0, 0,                         // n_sources
        1, 0, 0, 0,                         // source 1
        2, 0, 0, 0,                         // source 2
    ];

    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(&u32::try_from(golden.len()).unwrap().to_le_bytes())
        .unwrap();
    raw.write_all(golden).unwrap();
    raw.flush().unwrap();
    let payload = read_frame(&mut raw, MAX_FRAME).unwrap().expect("reply");
    assert_eq!(
        &payload[..3],
        &[b'L', 1, 2],
        "a v1 request must be answered with a v1 OK frame"
    );
    let golden_reply = match lona::core::serve::codec::decode_reply(&payload).unwrap() {
        Reply::Ok(resp) => {
            assert_eq!(resp.id, 7);
            entry_bits(&resp.entries)
        }
        Reply::Err { message, .. } => panic!("golden v1 request rejected: {message}"),
    };

    // The same query through this build's client lands on the same
    // bytes.
    let mut client = ServeClient::connect(addr).open().unwrap();
    match client.query(&[1, 2], 3, 2, Aggregate::Sum, true).unwrap() {
        Reply::Ok(resp) => assert_eq!(entry_bits(&resp.entries), golden_reply),
        Reply::Err { message, .. } => panic!("modern twin rejected: {message}"),
    }

    // A v1 frame that fails validation gets a v1 *error* frame back
    // (no code/retry fields on the wire; the decoder defaults them).
    #[rustfmt::skip]
    let golden_bad: &[u8] = &[
        b'L', 1, 1,
        8, 0, 0, 0, 0, 0, 0, 0,             // id
        0, 0, 0, 0,                         // k = 0: invalid
        2, 0, 0, 0,
        0, 1,
        1, 0, 0, 0,
        1, 0, 0, 0,
    ];
    raw.write_all(&u32::try_from(golden_bad.len()).unwrap().to_le_bytes())
        .unwrap();
    raw.write_all(golden_bad).unwrap();
    raw.flush().unwrap();
    let payload = read_frame(&mut raw, MAX_FRAME)
        .unwrap()
        .expect("error reply");
    assert_eq!(&payload[..3], &[b'L', 1, 3], "v1 error frame");
    match lona::core::serve::codec::decode_reply(&payload).unwrap() {
        Reply::Err {
            id,
            code,
            retry_after_micros,
            message,
        } => {
            assert_eq!(id, 8);
            assert_eq!(
                code,
                ErrorCode::BadRequest,
                "v1 errors decode as BadRequest"
            );
            assert_eq!(retry_after_micros, 0);
            assert!(message.contains("k must be at least 1"));
        }
        Reply::Ok(_) => panic!("k=0 was accepted"),
    }
    server.shutdown();
}

/// The per-listener connection limit: the N+1-th concurrent
/// connection gets exactly one Busy frame (with a retry hint) and is
/// closed, the rejection is counted, and closing an admitted
/// connection frees the slot again.
#[test]
fn connection_limit_rejects_with_busy_and_frees_on_close() {
    let graph = Arc::new(fixed_workload());
    let mut server = Server::builder(Arc::clone(&graph))
        .options(ServeOptions {
            threads: 1,
            max_connections: 1,
            ..Default::default()
        })
        .bind("127.0.0.1:0")
        .unwrap();
    let addr = server.local_addr();

    let mut first = ServeClient::connect(addr).open().unwrap();
    assert!(matches!(
        first.query(&[0], 1, HOPS, Aggregate::Sum, true).unwrap(),
        Reply::Ok(_)
    ));

    // The slot is held: the next connection is turned away with one
    // Busy frame, then EOF.
    let mut second = TcpStream::connect(addr).unwrap();
    let payload = read_frame(&mut second, MAX_FRAME)
        .unwrap()
        .expect("busy frame");
    match lona::core::serve::codec::decode_reply(&payload).unwrap() {
        Reply::Err {
            code,
            retry_after_micros,
            message,
            ..
        } => {
            assert_eq!(code, ErrorCode::Busy);
            assert!(retry_after_micros > 0);
            assert!(message.contains("connection limit"), "got: {message}");
        }
        Reply::Ok(_) => panic!("over-limit connection was served"),
    }
    assert!(
        matches!(read_frame(&mut second, MAX_FRAME), Ok(None) | Err(_)),
        "over-limit connection must be closed after the Busy frame"
    );
    assert_eq!(server.metrics().report(0).conn_rejected, 1);

    // The admitted connection still works, and dropping it frees the
    // slot (the handler exits on our EOF; retry until it has).
    assert!(matches!(
        first.query(&[1], 1, HOPS, Aggregate::Sum, true).unwrap(),
        Reply::Ok(_)
    ));
    drop(first);
    let mut reconnected = None;
    for _ in 0..200 {
        let mut conn = ServeClient::connect(addr).open().unwrap();
        match conn.query(&[2], 1, HOPS, Aggregate::Sum, true) {
            Ok(Reply::Ok(_)) => {
                reconnected = Some(conn);
                break;
            }
            // Still turned away (the old handler has not observed our
            // EOF yet) — the reply id can't match, or the stream EOFs.
            _ => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    assert!(reconnected.is_some(), "freed slot never became usable");
    server.shutdown();
}

/// Shutdown is graceful: in-flight requests either complete (with
/// correct bytes) or are refused with the shutdown error — never a
/// hang, never a bogus result — and the listener stops accepting.
#[test]
fn shutdown_drains_without_hanging_or_corrupting_replies() {
    let graph = Arc::new(fixed_workload());
    let mut server = Server::builder(Arc::clone(&graph))
        .options(ServeOptions {
            threads: 1,
            window: Duration::from_millis(1),
            ..Default::default()
        })
        .bind("127.0.0.1:0")
        .unwrap();
    let addr = server.local_addr();

    // Reference bytes for the one query shape the in-flight clients
    // use.
    let mut warm = ServeClient::connect(addr).open().unwrap();
    let expect = match warm.query(&[0, 1], 5, HOPS, Aggregate::Sum, true).unwrap() {
        Reply::Ok(resp) => entry_bits(&resp.entries),
        Reply::Err { message, .. } => panic!("warm-up rejected: {message}"),
    };

    let started = Barrier::new(5);
    thread::scope(|s| {
        for _ in 0..4 {
            let (started, expect) = (&started, &expect);
            s.spawn(move || {
                let mut conn = ServeClient::connect(addr).open().unwrap();
                started.wait();
                for _ in 0..50 {
                    match conn.query(&[0, 1], 5, HOPS, Aggregate::Sum, true) {
                        // Served during drain: the bytes must still be
                        // right.
                        Ok(Reply::Ok(resp)) => {
                            assert_eq!(&entry_bits(&resp.entries), expect)
                        }
                        // Refused during shutdown: the structured
                        // internal error.
                        Ok(Reply::Err { code, message, .. }) => {
                            assert_eq!(code, ErrorCode::Internal, "got: {message}");
                            assert!(message.contains("shutting down"), "got: {message}");
                            return;
                        }
                        // Or the transport died with the server.
                        Err(_) => return,
                    }
                }
            });
        }
        started.wait();
        server.shutdown();
    });

    assert!(
        TcpStream::connect(addr).is_err()
            || ServeClient::connect(addr)
                .open()
                .and_then(|mut c| c.query(&[0], 1, HOPS, Aggregate::Sum, true))
                .is_err(),
        "a stopped server must not serve new connections"
    );
}
