//! The load generator: one event loop per client connection, speaking
//! the public `ingress::wire` functions over a raw non-blocking
//! `TcpStream` with `TCP_NODELAY` set on the client side, so that any
//! stall that shows is the server's.
//!
//! Two loops exist. The *closed* loop keeps a fixed number of requests
//! outstanding and counts completions into fixed-length windows. The
//! *paced* loop sends on an open-loop schedule whatever the server does
//! and times each request from the instant it was **due**, so a stall
//! is charged to every request it delays.

use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use autobatch_ingress::wire::{self, FrameReader, Message};

use crate::stats::Rng;
use crate::sys::{prefer_this_thread, wait_ready};
use crate::workload::{Expected, Item};

/// A reply later than this is a failure and counts at this latency.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// One recorded interval at a layer boundary. Spans of one request share
/// its `id`; `parent` names the span that caused this one.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Boundary name, e.g. `client.wait_reply`.
    pub name: &'static str,
    /// Request id (TCP run) or chunk index (replay).
    pub id: u64,
    /// Name of the enclosing span, empty at the root.
    pub parent: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch.
    pub end_ns: u64,
}

/// Requests sent, answered correctly, and failed (rejected, wrong, or
/// timed out) in one phase.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// Requests written to the socket.
    pub sent: u64,
    /// Replies that matched the oracle.
    pub ok: u64,
    /// Rejects, wrong answers and timeouts.
    pub failed: u64,
}

impl Counts {
    /// Fold another connection's (or pass's) counts in.
    pub fn add(&mut self, other: Counts) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.failed += other.failed;
    }
}

/// The pool and its oracle, shared read-only by both connections.
#[derive(Debug, Clone, Copy)]
pub struct Target<'a> {
    /// The seeded request pool.
    pub pool: &'a [Item],
    /// The expected reply to each pooled request.
    pub expected: &'a [Expected],
}

struct InFlight {
    pool_idx: usize,
    due: Instant,
    written: Instant,
}

/// One client connection and everything in flight on it.
pub struct Conn {
    index: u64,
    stream: TcpStream,
    reader: FrameReader,
    /// Encoded frames not yet fully written.
    out: Vec<u8>,
    out_sent: usize,
    /// Ids queued since the out buffer last drained.
    unwritten: Vec<u64>,
    next_seq: u64,
    outstanding: HashMap<u64, InFlight>,
    /// Where this connection is in its seeded walk through the pool.
    walk: Rng,
    /// Pool positions still to send from the current block, last first.
    block: Vec<usize>,
}

/// Pool positions per block of the walk. `binom_divergent` lays its pool
/// out in blocks of eight with one straggler at an even and one at an
/// odd position, so a connection that takes its parity's half of a
/// block always sends one straggler in four.
const BLOCK: usize = 8;

/// What one decoded reply meant.
struct Reply {
    id: u64,
    flight: InFlight,
    ok: bool,
    /// Server-stamped queue wait, nanoseconds (0 on a reject).
    queued_ns: u64,
}

impl Conn {
    /// Connect client number `index` (0 or 1) to the `child`-th server of
    /// a run. `seed` and `child` decide the order in which it walks the
    /// pool.
    pub fn connect(addr: SocketAddr, index: u64, seed: u64, child: u64) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            index,
            stream,
            reader: FrameReader::new(),
            out: Vec::new(),
            out_sent: 0,
            unwritten: Vec::new(),
            next_seq: 0,
            outstanding: HashMap::new(),
            walk: Rng::new(seed, 10 + 2 * child + index),
            block: Vec::new(),
        })
    }

    /// The next pool position of this connection's walk: blocks of
    /// [`BLOCK`] in seeded random order, and of each block the even
    /// positions (connection 0) or the odd ones (connection 1), so the
    /// two connections together draw on the whole pool. A fixed cyclic
    /// walk would send the same few dozen flushes round and round, and
    /// with a server that runs each flush to completion the luck of
    /// those few compositions moved throughput by 13% between seeds.
    fn next_position(&mut self, pool_len: usize) -> usize {
        if self.block.is_empty() {
            let blocks = (pool_len / BLOCK).max(1) as u64;
            let base = self.walk.below(blocks) as usize * BLOCK;
            self.block = (0..BLOCK)
                .rev()
                .filter(|offset| offset % 2 == self.index as usize % 2)
                .map(|offset| (base + offset) % pool_len)
                .collect();
        }
        self.block.pop().expect("a block was just drawn")
    }

    /// Encode and queue the next request of the walk, due at `due`.
    fn queue_next(&mut self, target: &Target<'_>, due: Instant) -> io::Result<()> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let pool_idx = self.next_position(target.pool.len());
        let id = (self.index << 40) | seq;
        let item = &target.pool[pool_idx];
        let payload = wire::encode_request(id, item.seed, &item.inputs)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        wire::write_frame(&mut self.out, &payload)?;
        self.unwritten.push(id);
        self.outstanding.insert(
            id,
            InFlight {
                pool_idx,
                due,
                written: due,
            },
        );
        Ok(())
    }

    /// Write as much of the out buffer as the socket takes.
    fn pump_out(&mut self) -> io::Result<()> {
        while self.out_sent < self.out.len() {
            match self.stream.write(&self.out[self.out_sent..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.out_sent += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if !self.out.is_empty() {
            self.out.clear();
            self.out_sent = 0;
            let now = Instant::now();
            for id in self.unwritten.drain(..) {
                if let Some(f) = self.outstanding.get_mut(&id) {
                    f.written = now;
                }
            }
        }
        Ok(())
    }

    /// Decode every complete frame the socket holds and check each
    /// against the oracle.
    fn pump_in(&mut self, target: &Target<'_>, replies: &mut Vec<Reply>) -> io::Result<()> {
        loop {
            let payload = match self.reader.next_frame(&mut self.stream) {
                Ok(Some(p)) => p,
                Ok(None) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            let (id, outputs, queued_ns) = match wire::decode(&payload) {
                Ok(Message::Response(r)) => (r.id, Some(r.outputs), r.queued_ticks),
                Ok(Message::Reject(r)) => (r.id, None, 0),
                Ok(_) | Err(_) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "server sent an undecodable or client-only frame",
                    ))
                }
            };
            // A reply to nothing we sent (or a duplicate) is ignored:
            // the request it might belong to times out and fails.
            if let Some(flight) = self.outstanding.remove(&id) {
                let ok = outputs.is_some_and(|o| target.expected[flight.pool_idx].matches(&o));
                replies.push(Reply {
                    id,
                    flight,
                    ok,
                    queued_ns,
                });
            }
        }
    }

    fn wait(&self, timeout: Duration) -> io::Result<()> {
        wait_ready(
            self.stream.as_raw_fd(),
            self.out_sent < self.out.len(),
            timeout,
        )
    }

    /// Give up on everything still outstanding: each is a failure.
    fn abandon(&mut self) -> u64 {
        let n = self.outstanding.len() as u64;
        self.outstanding.clear();
        n
    }
}

fn ns_since(epoch: Instant, t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
}

/// The three client-side spans of one answered request, under a root
/// `request` span from due to last reply byte. `ingress.queue` is the
/// server's own stamp laid from the write instant: the server clock is
/// not ours, so only its length is measured, not its position.
fn request_spans(epoch: Instant, r: &Reply, done: Instant, spans: &mut Vec<Span>) {
    let due = ns_since(epoch, r.flight.due);
    let written = ns_since(epoch, r.flight.written);
    let end = ns_since(epoch, done);
    let span = |name, parent, start_ns, end_ns| Span {
        name,
        id: r.id,
        parent,
        start_ns,
        end_ns,
    };
    spans.push(span("request", "", due, end));
    spans.push(span("client.send_lag", "request", due, written));
    spans.push(span("client.wait_reply", "request", written, end));
    spans.push(span(
        "ingress.queue",
        "client.wait_reply",
        written,
        (written + r.queued_ns).min(end),
    ));
}

/// Plan of a closed-loop phase. Sending begins at `begin`; the counted
/// windows are `traced.len()` stretches of `window` each from `start`
/// on, so the phase's length never depends on how fast the server is.
#[derive(Debug, Clone)]
pub struct ClosedPlan {
    /// When the generator starts sending (warm-up runs until `start`).
    pub begin: Instant,
    /// Start of the first counted window.
    pub start: Instant,
    /// Length of each window.
    pub window: Duration,
    /// One entry per window: whether its requests record spans.
    pub traced: Vec<bool>,
    /// Requests this connection keeps outstanding.
    pub depth: usize,
}

/// Result of a closed-loop phase on one connection.
#[derive(Debug, Default)]
pub struct ClosedOut {
    /// Requests sent / ok / failed, warm-up included.
    pub counts: Counts,
    /// When each correct reply completed, nanoseconds since the epoch,
    /// ascending, warm-up included.
    pub completed_ns: Vec<u64>,
    /// Spans of requests completed inside traced windows.
    pub spans: Vec<Span>,
}

/// Keep `plan.depth` requests outstanding until the last window ends,
/// then collect what is still in flight.
pub fn run_closed(
    conn: &mut Conn,
    target: &Target<'_>,
    plan: &ClosedPlan,
    epoch: Instant,
) -> io::Result<ClosedOut> {
    let n_windows = plan.traced.len();
    let end = plan.start + plan.window * n_windows as u32;
    let mut out = ClosedOut::default();
    prefer_this_thread();
    std::thread::sleep(plan.begin.saturating_duration_since(Instant::now()));
    for _ in 0..plan.depth {
        conn.queue_next(target, Instant::now())?;
        out.counts.sent += 1;
    }
    let mut replies = Vec::new();
    loop {
        conn.pump_in(target, &mut replies)?;
        let now = Instant::now();
        for r in replies.drain(..) {
            if r.ok {
                out.counts.ok += 1;
                out.completed_ns.push(ns_since(epoch, now));
            } else {
                out.counts.failed += 1;
            }
            if now >= plan.start && now < end {
                let w = ((now - plan.start).as_nanos() / plan.window.as_nanos()) as usize;
                if plan.traced[w] {
                    request_spans(epoch, &r, now, &mut out.spans);
                }
            }
            if now < end {
                conn.queue_next(target, now)?;
                out.counts.sent += 1;
            }
        }
        conn.pump_out()?;
        if now >= end && conn.outstanding.is_empty() {
            break;
        }
        if now >= end + REPLY_TIMEOUT {
            out.counts.failed += conn.abandon();
            break;
        }
        let until = if now < end { end } else { end + REPLY_TIMEOUT };
        conn.wait(until.saturating_duration_since(now))?;
    }
    Ok(out)
}

/// Plan of one open-loop pass on one connection.
#[derive(Debug, Clone)]
pub struct PacedPlan {
    /// The instant arrival offsets count from.
    pub start: Instant,
    /// This connection's arrivals, nanoseconds after `start`, ascending.
    pub dues_ns: Vec<u64>,
    /// Whether to record spans.
    pub traced: bool,
}

/// One answered (or failed) paced request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Due instant to last reply byte, milliseconds (10 s on failure).
    pub latency_ms: f64,
    /// The server-stamped queue wait, milliseconds.
    pub queue_ms: f64,
}

/// Result of one open-loop pass on one connection.
#[derive(Debug, Default)]
pub struct PacedOut {
    /// Requests sent / ok / failed.
    pub counts: Counts,
    /// One sample per request sent.
    pub samples: Vec<Sample>,
    /// How late each request was handed to the socket, milliseconds.
    pub lateness_ms: Vec<f64>,
    /// Spans, when traced.
    pub spans: Vec<Span>,
}

/// Send each request when it is due, whatever the server is doing, and
/// time every reply from its due instant.
pub fn run_paced(
    conn: &mut Conn,
    target: &Target<'_>,
    plan: &PacedPlan,
    epoch: Instant,
) -> io::Result<PacedOut> {
    let timeout_ms = REPLY_TIMEOUT.as_secs_f64() * 1e3;
    let mut out = PacedOut::default();
    prefer_this_thread();
    let dues: Vec<Instant> = plan
        .dues_ns
        .iter()
        .map(|&ns| plan.start + Duration::from_nanos(ns))
        .collect();
    let last_due = dues.last().copied().unwrap_or(plan.start);
    let mut next = 0;
    let mut replies = Vec::new();
    loop {
        let now = Instant::now();
        while next < dues.len() && dues[next] <= now {
            conn.queue_next(target, dues[next])?;
            out.lateness_ms.push((now - dues[next]).as_secs_f64() * 1e3);
            out.counts.sent += 1;
            next += 1;
        }
        conn.pump_out()?;
        conn.pump_in(target, &mut replies)?;
        let now = Instant::now();
        for r in replies.drain(..) {
            let latency_ms = (now - r.flight.due).as_secs_f64() * 1e3;
            if r.ok && latency_ms <= timeout_ms {
                out.counts.ok += 1;
                out.samples.push(Sample {
                    latency_ms,
                    queue_ms: r.queued_ns as f64 / 1e6,
                });
            } else {
                out.counts.failed += 1;
                out.samples.push(Sample {
                    latency_ms: timeout_ms,
                    queue_ms: 0.0,
                });
            }
            if plan.traced {
                request_spans(epoch, &r, now, &mut out.spans);
            }
        }
        if next == dues.len() && conn.outstanding.is_empty() {
            break;
        }
        let give_up = last_due + REPLY_TIMEOUT;
        if now >= give_up {
            let lost = conn.abandon();
            out.counts.failed += lost;
            out.samples.extend((0..lost).map(|_| Sample {
                latency_ms: timeout_ms,
                queue_ms: 0.0,
            }));
            break;
        }
        let until = dues.get(next).copied().unwrap_or(give_up);
        conn.wait(until.saturating_duration_since(now))?;
    }
    Ok(out)
}

/// Completions per second in the window `[from_ns, to_ns)` of an
/// ascending completion record: the completions between the last one
/// before the window opens and the last one inside it, over the time
/// between those two. Counting whole gaps instead of dividing by the
/// window's length keeps a server that answers in bursts (64 replies
/// every delayed-ACK period, say) from reading a burst more or less
/// depending on where the window edge falls. With no completion before
/// the window or none inside it, falls back to count over length.
pub fn window_rate(completed_ns: &[u64], from_ns: u64, to_ns: u64) -> f64 {
    let first_in = completed_ns.partition_point(|&t| t < from_ns);
    let end = completed_ns.partition_point(|&t| t < to_ns);
    if first_in == 0 || end == first_in {
        return (end - first_in) as f64 / ((to_ns - from_ns) as f64 / 1e9);
    }
    let (t0, t1) = (completed_ns[first_in - 1], completed_ns[end - 1]);
    (end - first_in) as f64 / ((t1 - t0) as f64 / 1e9)
}

/// Split a pass's schedule between the two connections: arrival `i` goes
/// to connection `i % 2`.
pub fn split_schedule(dues_ns: &[u64]) -> [Vec<u64>; 2] {
    let pick = |c: usize| {
        dues_ns
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 2 == c)
            .map(|(_, &d)| d)
            .collect()
    };
    [pick(0), pick(1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_splits_alternately_and_loses_nothing() {
        let [a, b] = split_schedule(&[1, 2, 3, 4, 5]);
        assert_eq!(a, vec![1, 3, 5]);
        assert_eq!(b, vec![2, 4]);
    }

    #[test]
    fn window_rate_counts_whole_gaps() {
        // A reply every 10 ms: 100 per second wherever the edges fall.
        let t: Vec<u64> = (0..500).map(|i| i * 10_000_000).collect();
        for (from, to) in [
            (1_000_000_000, 3_000_000_000),
            (1_003_000_000, 2_998_000_000),
        ] {
            assert!((window_rate(&t, from, to) - 100.0).abs() < 1e-9);
        }
        // Bursts of 4 every 40 ms are 100 per second too.
        let bursts: Vec<u64> = (0..400).map(|i| (i / 4) * 40_000_000 + i % 4).collect();
        assert!((window_rate(&bursts, 1_000_000_000, 3_000_000_000) - 100.0).abs() < 0.01);
        // Nothing before the window, or nothing in it: count over length.
        assert_eq!(window_rate(&[5, 6], 0, 1_000_000_000), 2.0);
        assert_eq!(window_rate(&[5], 10, 1_000_000_010), 0.0);
    }

    #[test]
    fn counts_add_up() {
        let mut c = Counts {
            sent: 3,
            ok: 2,
            failed: 1,
        };
        c.add(Counts {
            sent: 1,
            ok: 1,
            failed: 0,
        });
        assert_eq!(
            c,
            Counts {
                sent: 4,
                ok: 3,
                failed: 1
            }
        );
    }
}
