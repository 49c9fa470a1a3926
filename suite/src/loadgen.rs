//! The load generator: one thread per connection, writing frames on
//! schedule and reading replies in the same loop, so a send never waits
//! for a reply (open loop). `ServeClient` is strictly request/reply, so
//! frames are built with the program's own codec and written to a raw
//! socket; the server answers each connection in order.

use std::collections::VecDeque;
use std::ffi::{c_int, c_long, c_short, c_ulong, c_void};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use lona_core::serve::codec::{
    decode_reply, decode_update_reply, encode_request_v2, encode_update_request, write_frame,
    MAX_FRAME,
};
use lona_core::serve::{CodecError, Reply, Request, Response, ScoreRef, UpdateReport};
use lona_graph::GraphDelta;

use crate::inputs::{EdgeSwap, ServeReq, HOPS};

/// How long a connection waits for outstanding replies after its last
/// send before counting them lost.
const GRACE: Duration = Duration::from_secs(5);

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Kind {
    Query,
    Update,
}

/// One frame to send.
pub struct Op {
    pub kind: Kind,
    /// Index into the staged request pool (queries) or swap stream
    /// (updates).
    pub input: usize,
    /// Send time, from the phase start (open loop only).
    pub due: Duration,
    pub id: u64,
    /// Keep the reply's entries for the answer check.
    pub keep: bool,
    /// The length-prefixed frame.
    pub frame: Vec<u8>,
}

impl Op {
    pub fn query(input: usize, req: &ServeReq, id: u64, due: Duration, keep: bool) -> Op {
        let payload = encode_request_v2(&Request {
            id,
            scores: ScoreRef::Sources(req.sources.clone()),
            k: req.k,
            hops: HOPS,
            aggregate: req.aggregate,
            include_self: req.include_self,
        });
        Op::framed(Kind::Query, input, id, due, keep, &payload)
    }

    pub fn update(input: usize, swap: &EdgeSwap, id: u64, due: Duration) -> Op {
        let delta = GraphDelta::new()
            .delete(swap.del.0, swap.del.1)
            .insert(swap.ins.0, swap.ins.1);
        let payload = encode_update_request(id, &delta);
        Op::framed(Kind::Update, input, id, due, false, &payload)
    }

    fn framed(kind: Kind, input: usize, id: u64, due: Duration, keep: bool, payload: &[u8]) -> Op {
        let mut frame = Vec::with_capacity(payload.len() + 4);
        write_frame(&mut frame, payload, MAX_FRAME).expect("request frames are small");
        Op {
            kind,
            input,
            due,
            id,
            keep,
            frame,
        }
    }
}

/// Open loop sends each op at its due time; closed loop keeps exactly
/// one request outstanding until the phase ends.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Pace {
    Open,
    Closed,
}

#[derive(Clone, Debug)]
pub enum Outcome {
    Ok(Response),
    Updated(UpdateReport),
    /// An error reply, a transport failure, or no reply in time.
    Failed(String),
}

/// One finished operation. Times are from the phase start.
#[derive(Clone, Debug)]
pub struct Done {
    pub kind: Kind,
    pub input: usize,
    pub id: u64,
    /// When it was due (closed loop: when it was sent).
    pub due: Duration,
    pub sent: Duration,
    pub done: Duration,
    pub outcome: Outcome,
}

impl Done {
    /// Scheduled send to reply, in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.done.saturating_sub(self.due).as_secs_f64() * 1e3
    }

    /// How late the generator sent it, in milliseconds.
    pub fn lag_ms(&self) -> f64 {
        self.sent.saturating_sub(self.due).as_secs_f64() * 1e3
    }

    pub fn failed(&self) -> bool {
        matches!(self.outcome, Outcome::Failed(_))
    }
}

/// A loopback connection for load.
pub fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let s = TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    s.set_nodelay(true)
        .map_err(|e| format!("cannot set TCP_NODELAY: {e}"))?;
    Ok(s)
}

fn decode(kind: Kind, id: u64, keep: bool, payload: &[u8]) -> Outcome {
    let reply = match kind {
        Kind::Update => match decode_update_reply(payload) {
            Ok((got, report)) if got == id => return Outcome::Updated(report),
            Ok((got, _)) => return Outcome::Failed(format!("reply id {got} for request {id}")),
            // Rejections arrive as ordinary error replies.
            Err(CodecError::BadKind(_)) => decode_reply(payload),
            Err(e) => return Outcome::Failed(e.to_string()),
        },
        Kind::Query => decode_reply(payload),
    };
    match reply {
        Ok(r) if r.id() != id => Outcome::Failed(format!("reply id {} for request {id}", r.id())),
        Ok(Reply::Ok(mut r)) => {
            if !keep {
                r.entries = Vec::new();
            }
            Outcome::Ok(r)
        }
        Ok(Reply::Err { code, message, .. }) => {
            Outcome::Failed(format!("{}: {message}", code.name()))
        }
        Err(e) => Outcome::Failed(e.to_string()),
    }
}

/// Wait until `stream` has bytes to read or `timeout` passes. `ppoll`
/// sleeps on a high-resolution timer; a socket read timeout rounds up
/// to the kernel tick, which would make the open-loop schedule run
/// milliseconds late.
fn readable(stream: &TcpStream, timeout: Duration) -> io::Result<bool> {
    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
    }
    const POLLIN: c_short = 1;
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as c_long,
        tv_nsec: timeout.subsec_nanos() as c_long,
    };
    // SAFETY: `fd` and `ts` outlive the call, `nfds` is 1 to match the
    // single entry, and a null signal mask leaves the thread's mask as is.
    match unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) } {
        0 => Ok(false),
        n if n > 0 => Ok(true),
        _ => match io::Error::last_os_error() {
            e if e.kind() == io::ErrorKind::Interrupted => Ok(false),
            e => Err(e),
        },
    }
}

/// Drive one connection through one phase that started at `start` and
/// lasts `phase`. Returns every op attempted; a broken connection turns
/// the rest of an open-loop schedule into failures.
pub fn drive(
    stream: &mut TcpStream,
    ops: impl Iterator<Item = Op>,
    pace: Pace,
    phase: Duration,
    start: Instant,
) -> Vec<Done> {
    let mut ops = ops.peekable();
    let mut finished = Vec::new();
    // Sent, unanswered ops in send order, with their keep flag.
    let mut inflight: VecDeque<(Done, bool)> = VecDeque::new();
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 1 << 16];
    let mut broken: Option<String> = None;
    let deadline = phase + GRACE;

    while broken.is_none() {
        let now = start.elapsed();
        while let Some(op) = ops.peek() {
            let ready = match pace {
                Pace::Open => op.due <= now,
                Pace::Closed => inflight.is_empty() && now < phase,
            };
            if !ready {
                break;
            }
            let op = ops.next().expect("peeked");
            let sent = start.elapsed();
            let mut d = Done {
                kind: op.kind,
                input: op.input,
                id: op.id,
                due: if pace == Pace::Open { op.due } else { sent },
                sent,
                done: sent,
                outcome: Outcome::Failed("no reply".into()),
            };
            if let Err(e) = stream.write_all(&op.frame) {
                d.outcome = Outcome::Failed(format!("send failed: {e}"));
                finished.push(d);
                broken = Some(e.to_string());
                break;
            }
            inflight.push_back((d, op.keep));
        }
        let sending =
            broken.is_none() && ops.peek().is_some() && (pace == Pace::Open || now < phase);
        if (!sending && inflight.is_empty()) || now >= deadline || broken.is_some() {
            break;
        }
        let wake = match (sending, pace) {
            (true, Pace::Open) => ops.peek().map_or(deadline, |op| op.due),
            (true, Pace::Closed) => phase,
            (false, _) => deadline,
        };
        let wait = wake.saturating_sub(now).min(Duration::from_millis(50));
        match readable(stream, wait) {
            Ok(true) => {}
            Ok(false) => continue,
            Err(e) => {
                broken = Some(e.to_string());
                break;
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => broken = Some("server closed the connection".into()),
            Ok(n) => {
                let at = start.elapsed();
                buf.extend_from_slice(&chunk[..n]);
                let mut pos = 0;
                while buf.len() - pos >= 4 {
                    let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().expect("4 bytes"));
                    let len = len as usize;
                    if len > MAX_FRAME {
                        broken = Some(format!("{len}-byte reply frame"));
                        break;
                    }
                    if buf.len() - pos - 4 < len {
                        break;
                    }
                    let payload = &buf[pos + 4..pos + 4 + len];
                    pos += 4 + len;
                    let Some((mut d, keep)) = inflight.pop_front() else {
                        broken = Some("reply without a request".into());
                        break;
                    };
                    d.done = at;
                    d.outcome = decode(d.kind, d.id, keep, payload);
                    finished.push(d);
                }
                buf.drain(..pos);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => broken = Some(e.to_string()),
        }
    }

    let why = broken.unwrap_or_else(|| "no reply before the deadline".into());
    for (mut d, _) in inflight {
        d.done = start.elapsed();
        d.outcome = Outcome::Failed(why.clone());
        finished.push(d);
    }
    if pace == Pace::Open {
        for op in ops {
            finished.push(Done {
                kind: op.kind,
                input: op.input,
                id: op.id,
                due: op.due,
                sent: op.due,
                done: op.due,
                outcome: Outcome::Failed(format!("never sent: {why}")),
            });
        }
    }
    finished
}
