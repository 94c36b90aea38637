//! A dependency-free TCP front door for the sharded autobatching
//! server: the "real ingress" that keeps the program-counter VM's
//! batches full while bounding how long any one request waits to join.
//!
//! # Architecture
//!
//! ```text
//!            accept() (blocking; shutdown wakes it with one connect)
//!               │ TCP_NODELAY on every accepted socket
//!               ▼
//! clients ──▶ connection threads ──mpsc──▶ engine thread
//!    ▲  read into FrameReader's own buffer,   │ collect until the batch
//!    │  frames taken by cursor, decoded here  │ fills or the oldest
//!    │                                        │ request's deadline
//!    │                                        │ expires, then drive the
//!    │                                        ▼ ShardedServer
//!    └──── one write per connection ◀──── the flush's replies, framed
//!          per burst, under one lock      and grouped by connection
//! ```
//!
//! - **Thread-per-connection** readers decode [`wire`] frames and
//!   forward requests to the engine over a channel. There is no async
//!   runtime: blocking reads with a short timeout double as the
//!   shutdown poll. After the stop flag flips a connection answers late
//!   frames with typed `Shutdown` rejects until the wire goes quiet, and
//!   for a fixed 100 ms at most.
//! - The **engine thread** owns the program and a [`ShardedServer`]
//!   configured with
//!   [`AdmissionPolicy::Deadline`]: it collects arrivals until they can
//!   fill every lane (`workers × max_batch`) **or** the oldest arrival
//!   has waited [`IngressConfig::max_wait`] — OpenVINO-style auto-batch
//!   collection — then stamps the virtual clock from the real clock
//!   (nanosecond ticks) and runs the batch to completion.
//! - **The wire path never waits on the network's timers.** Both ends
//!   of a connection run with `TCP_NODELAY`, every frame is assembled
//!   with its length prefix and leaves in one `write`
//!   ([`wire::write_frame`]), and the replies of a flush are grouped by
//!   connection and written once per connection. A prefix in a segment
//!   of its own, on a socket with Nagle on, held the payload back until
//!   the peer's delayed ACK: 40 ms per reply burst and 88 ms for a lone
//!   call against a 2 ms `max_wait`. Grouping matters beyond the
//!   syscalls saved: a closed-loop client that gets its replies together
//!   refills together, so the next flush finds a full batch
//!   ([`IngressStats::flushes`] and [`IngressStats::reply_writes`] show
//!   both from a running server). The price is that a client that stops
//!   reading now loses a flush's whole burst, not one reply, when the
//!   1 s write timeout expires — and, as before, a write that timed out
//!   part-way leaves that connection's stream ending mid-frame.
//! - **Bounded read-ahead.** A connection thread stops reading while
//!   1 MiB of decoded request inputs already wait for a flush, and
//!   resumes when the next flush takes them. Past that point a request
//!   waits as bytes in its socket, where TCP pushes back on the sender,
//!   instead of as tensors on this heap — which is where the parent's
//!   delayed-ACK stalls used to park them by accident. The bound is in
//!   bytes, so small requests (whose flushes do better the more of them
//!   there are) never meet it; while a connection is paused, its cancel
//!   frames and its disconnect wait with the rest of its bytes.
//! - **Backpressure**: with [`IngressConfig::queue_budget`] set, a
//!   request arriving while `budget × workers` are already waiting is
//!   refused immediately with a typed
//!   [`Overloaded`](wire::RejectCode::Overloaded) reject frame carrying
//!   the observed depth and the budget — the wire image of
//!   `ServeError::Overloaded`. The budget is enforced at the
//!   *connection* threads through a shared counter covering both the
//!   channel and the engine's collection buffer, so a burst arriving
//!   while the engine is mid-flush is shed right away instead of piling
//!   up unboundedly in the channel until the flush returns. The budget
//!   counts requests and sheds; the read-ahead bound counts bytes and
//!   waits; whichever a connection meets first acts.
//! - **Self-healing**: the engine drives the fleet through a
//!   [`Supervisor`]: a worker panic or injected execution fault poisons
//!   one shard, which is salvaged and respawned while its stranded work
//!   retries under a bounded budget. Requests that cannot be saved are
//!   answered with typed reject frames — a client never loses a request
//!   to a silent hang.
//! - **Chaos**: the [`autobatch_chaos::FaultPlan`] inside
//!   [`IngressConfig::opts`] also drives wire-level fault injection at
//!   the connection threads (corrupted bytes, truncated frames), keyed
//!   by a per-connection frame counter so every run replays exactly
//!   from the seed.
//!
//! Determinism note: batch composition depends on real arrival times,
//! but per-request results do not — lanes draw RNG under the request
//! seed, so responses are bit-identical to the in-process path however
//! arrivals interleave (the golden-digest tests pin this over TCP).

#![warn(missing_docs)]

pub mod wire;

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use autobatch_accel::Backend;
use autobatch_chaos::{FaultPlan, FaultPoint};
use autobatch_core::{ExecOptions, KernelRegistry, VmError};
use autobatch_ir::pcab::Program;
use autobatch_serve::{
    AdmissionPolicy, Outcome, Request, RequestBudget, SchedulingPolicy, ServeError, ShardedServer,
    Supervisor, SupervisorConfig,
};
use autobatch_tensor::Tensor;

use wire::{
    FrameReader, Message, ProtocolError, RejectCode, WireReject, WireRequest, WireResponse,
};

/// How often blocked threads wake to poll the stop flag / deadline.
const POLL: Duration = Duration::from_millis(10);

/// How long after the stop flag flips a connection keeps answering late
/// frames with `Shutdown` rejects before it closes regardless.
const SHUTDOWN_GRACE: Duration = Duration::from_millis(100);

/// How many bytes of decoded request inputs may wait for a flush before
/// the connection threads stop reading ahead: past it, a request waits
/// as bytes in its socket, where TCP pushes back on the sender, rather
/// than as tensors in this process. Sixteen 64 KiB requests, a fleet's
/// worth at the default shape; small requests never come near it.
const READ_AHEAD: usize = 1024 * 1024;

/// Errors surfaced by the ingress client and server entry points.
#[derive(Debug)]
pub enum IngressError {
    /// Socket-level failure.
    Io(io::Error),
    /// The peer sent a malformed frame.
    Protocol(ProtocolError),
    /// The server refused the request (typed reject frame).
    Rejected(WireReject),
    /// The connection closed before a reply arrived.
    Closed,
    /// The server configuration is unusable.
    Config(String),
}

impl fmt::Display for IngressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngressError::Io(e) => write!(f, "io error: {e}"),
            IngressError::Protocol(e) => write!(f, "{e}"),
            IngressError::Rejected(r) => write!(f, "{r}"),
            IngressError::Closed => write!(f, "connection closed"),
            IngressError::Config(what) => write!(f, "bad ingress config: {what}"),
        }
    }
}

impl std::error::Error for IngressError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IngressError::Io(e) => Some(e),
            IngressError::Protocol(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for IngressError {
    fn from(e: io::Error) -> IngressError {
        IngressError::Io(e)
    }
}

impl From<ProtocolError> for IngressError {
    fn from(e: ProtocolError) -> IngressError {
        IngressError::Protocol(e)
    }
}

/// Configuration for [`IngressServer::start`].
#[derive(Debug, Clone)]
pub struct IngressConfig {
    /// Worker shards (each owns a `BatchServer` + `PcMachine`).
    pub workers: usize,
    /// Per-shard batch capacity (lanes).
    pub max_batch: usize,
    /// The latency SLO knob: a partially filled batch launches once its
    /// oldest request has waited this long.
    pub max_wait: Duration,
    /// Per-shard queue budget. When `workers × budget` requests are
    /// already waiting, new arrivals are shed with a typed
    /// [`Overloaded`](wire::RejectCode::Overloaded) reject instead of
    /// queueing unboundedly. `None` disables shedding.
    pub queue_budget: Option<usize>,
    /// Cost-model backend each shard's trace prices against.
    pub backend: Backend,
    /// VM execution options for every shard.
    pub opts: ExecOptions,
    /// Kernel registry for the served program.
    pub registry: KernelRegistry,
    /// How the fleet routes and rebalances work across shards. The
    /// default is least-loaded; [`SchedulingPolicy::PcAffinity`] packs
    /// shards by program counter, migrates stragglers, and steals work
    /// for idle shards — results and response order are unchanged
    /// either way.
    pub scheduling: SchedulingPolicy,
    /// Per-request resource ceilings enforced at every superstep
    /// boundary: max supersteps, virtual-clock deadline, peak lane
    /// bytes. An over-budget lane is evicted mid-flight and answered
    /// with a typed [`OverBudget`](wire::RejectCode::OverBudget)
    /// reject while its batchmates keep running bit-identically. The
    /// default is unlimited.
    pub budget: RequestBudget,
    /// Retry and quarantine discipline for the engine's [`Supervisor`]
    /// (repeated budget blowups trip the program's breaker, which
    /// fast-rejects with
    /// [`Quarantined`](wire::RejectCode::Quarantined)).
    pub supervisor: SupervisorConfig,
}

impl Default for IngressConfig {
    fn default() -> IngressConfig {
        IngressConfig {
            workers: 2,
            max_batch: 8,
            max_wait: Duration::from_millis(2),
            queue_budget: None,
            backend: Backend::hybrid_cpu(),
            opts: ExecOptions::default(),
            registry: KernelRegistry::new(),
            scheduling: SchedulingPolicy::default(),
            budget: RequestBudget::unlimited(),
            supervisor: SupervisorConfig::default(),
        }
    }
}

/// Lifetime counters reported by [`IngressHandle::shutdown`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IngressStats {
    /// Responses delivered.
    pub completed: u64,
    /// Requests shed at the front door (queue budget).
    pub shed: u64,
    /// Requests refused for malformed or unservable content.
    pub rejected: u64,
    /// Accepted requests lost to server-side execution errors.
    pub failed: u64,
    /// Frames that arrived malformed (undecodable payloads and
    /// non-request messages), each answered with a typed
    /// [`BadRequest`](wire::RejectCode::BadRequest) reject.
    pub bad_frames: u64,
    /// Retry attempts the supervisor performed on behalf of accepted
    /// requests (stranded, lost, or admission-faulted work).
    pub retried: u64,
    /// Shards respawned after a poisoning error or worker panic.
    pub respawned: u64,
    /// Deepest the engine's collection buffer ever got.
    pub peak_buffered: usize,
    /// Deepest any shard's admission queue ever got.
    pub peak_queue: usize,
    /// Requests cancelled before completion — by a `0x06` cancel frame
    /// or a client disconnect — whether still buffered or already in
    /// flight (lane evicted at a superstep boundary).
    pub cancelled: u64,
    /// Requests evicted for blowing a per-request resource budget
    /// (supersteps, deadline, or peak memory), answered with
    /// [`OverBudget`](wire::RejectCode::OverBudget).
    pub over_budget: u64,
    /// Requests fast-rejected because the served program's quarantine
    /// breaker was open.
    pub quarantined: u64,
    /// Batches the engine collected and drove to completion. Mean flush
    /// size is `completed / flushes`.
    pub flushes: u64,
    /// Socket writes that carried the flushes' replies: one per
    /// connection answered per burst (refusals at submission leave
    /// before the fleet runs, everything else after it). Replies per
    /// write is `completed / reply_writes`.
    pub reply_writes: u64,
}

/// A running ingress server; dropping it (or calling
/// [`IngressHandle::shutdown`]) stops the listener, drains in-flight
/// work, and joins every thread.
#[derive(Debug)]
pub struct IngressHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    listener: Option<JoinHandle<()>>,
    engine: Option<JoinHandle<IngressStats>>,
}

impl IngressHandle {
    /// The bound address (useful with a `:0` ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, drain buffered work, join all threads, and
    /// return the lifetime counters.
    pub fn shutdown(mut self) -> IngressStats {
        self.join().unwrap_or_default()
    }

    fn join(&mut self) -> Option<IngressStats> {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(l) = self.listener.take() {
            // The acceptor blocks in `accept()`: one connection to its
            // own port wakes it to see the flag. An unspecified bind
            // address (`0.0.0.0`, `::`) is reached over loopback.
            let ip = match self.addr.ip() {
                IpAddr::V4(ip) if ip.is_unspecified() => Ipv4Addr::LOCALHOST.into(),
                IpAddr::V6(ip) if ip.is_unspecified() => Ipv6Addr::LOCALHOST.into(),
                ip => ip,
            };
            let _ = TcpStream::connect((ip, self.addr.port()));
            let _ = l.join();
        }
        self.engine.take().and_then(|e| e.join().ok())
    }
}

impl Drop for IngressHandle {
    fn drop(&mut self) {
        self.join();
    }
}

/// The fleet-wide admission gate shared by the connection threads and
/// the engine. It bounds how many decoded requests may wait anywhere
/// between a TCP reader and batch admission — the mpsc channel plus the
/// engine's collection buffer — so the configured budget holds even
/// while the engine is blocked inside a flush: excess arrivals are shed
/// at the connection instead of accumulating in the unbounded channel.
#[derive(Debug, Default)]
struct Gate {
    /// Requests decoded but not yet handed to the batch server, and the
    /// bytes of their inputs.
    queued: AtomicUsize,
    queued_bytes: AtomicUsize,
    /// `queue_budget × workers`; `None` disables shedding.
    budget: Option<usize>,
    /// Requests shed at the front door, over the server's lifetime.
    shed: AtomicU64,
    /// Malformed frames refused at the connection threads.
    bad_frames: AtomicU64,
}

impl Gate {
    /// Reserve a slot for one decoded request. `Err(depth)` means the
    /// budget is hit: the slot is not taken and the request must be
    /// shed. The reserve-then-check shape keeps the bound exact under
    /// concurrent connections.
    fn admit(&self, request: &WireRequest) -> Result<(), usize> {
        let prev = self.queued.fetch_add(1, Ordering::SeqCst);
        match self.budget {
            Some(budget) if prev >= budget => {
                self.queued.fetch_sub(1, Ordering::SeqCst);
                self.shed.fetch_add(1, Ordering::Relaxed);
                Err(prev)
            }
            _ => {
                self.queued_bytes
                    .fetch_add(input_bytes(request), Ordering::SeqCst);
                Ok(())
            }
        }
    }

    /// Give back the slot of a request that reaches the batch server (or
    /// is refused at submission, or cancelled while it waits).
    fn release(&self, request: &WireRequest) {
        self.queued.fetch_sub(1, Ordering::SeqCst);
        self.queued_bytes
            .fetch_sub(input_bytes(request), Ordering::SeqCst);
    }
}

fn input_bytes(request: &WireRequest) -> usize {
    request.inputs.iter().map(Tensor::size_bytes).sum()
}

/// The TCP front-end: binds a listener and serves `program` behind
/// deadline-driven batch admission.
#[derive(Debug)]
pub struct IngressServer;

impl IngressServer {
    /// Bind `addr` and start serving `program` under `config`.
    ///
    /// The returned handle owns three kinds of threads: one acceptor,
    /// one reader per connection, and one engine that owns the program
    /// and the [`ShardedServer`]. All are joined on shutdown/drop.
    ///
    /// # Errors
    ///
    /// [`IngressError::Config`] for unusable parameters (zero workers
    /// or batch, zero `max_wait`); [`IngressError::Io`] if the bind
    /// fails.
    pub fn start(
        program: Program,
        config: IngressConfig,
        addr: impl ToSocketAddrs,
    ) -> Result<IngressHandle, IngressError> {
        if config.workers == 0 {
            return Err(IngressError::Config("workers must be positive".into()));
        }
        if config.max_wait.is_zero() {
            return Err(IngressError::Config("max_wait must be positive".into()));
        }
        deadline_policy(&config)
            .validate()
            .map_err(|e| IngressError::Config(e.to_string()))?;
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let gate = Arc::new(Gate {
            budget: config
                .queue_budget
                .map(|b| b.saturating_mul(config.workers).max(1)),
            ..Gate::default()
        });
        let (tx, rx) = std::sync::mpsc::channel::<Arrival>();
        let fault = config.opts.fault;
        let engine_cfg = config.clone();
        let engine_gate = Arc::clone(&gate);
        let engine_stop = Arc::clone(&stop);
        let engine = std::thread::spawn(move || {
            // Containment: an engine panic must not strand the listener
            // and its connections forever. Flag the stop so they wind
            // down; clients see closed sockets, not a hang.
            catch_unwind(AssertUnwindSafe(|| {
                engine_loop(&program, &engine_cfg, &rx, &engine_gate)
            }))
            .unwrap_or_else(|_| {
                engine_stop.store(true, Ordering::Relaxed);
                IngressStats::default()
            })
        });
        let stop2 = Arc::clone(&stop);
        let acceptor =
            std::thread::spawn(move || listener_loop(&listener, &tx, &stop2, &gate, fault));
        Ok(IngressHandle {
            addr: local,
            stop,
            listener: Some(acceptor),
            engine: Some(engine),
        })
    }
}

fn deadline_policy(config: &IngressConfig) -> AdmissionPolicy {
    AdmissionPolicy::Deadline {
        max_batch: config.max_batch,
        // Real time maps onto the virtual clock as nanosecond ticks.
        max_wait: u64::try_from(config.max_wait.as_nanos()).unwrap_or(u64::MAX),
    }
}

/// One event in flight from a connection thread to the engine.
enum Arrival {
    /// A decoded request.
    Request {
        conn: Arc<Mutex<TcpStream>>,
        request: WireRequest,
        at: Instant,
    },
    /// A `0x06` cancel frame: stop the named request, if this
    /// connection owns one by that id.
    Cancel { client_id: u64, token: usize },
    /// The connection died mid-conversation (EOF or socket error, not
    /// server shutdown): every request it still has pending is
    /// abandoned work — stop burning the fleet on it.
    Disconnect { token: usize },
}

/// Identity of one connection, for matching cancels and disconnects to
/// the requests that arrived on it. The `Arc` is per-connection and
/// outlives every use of the token (each pending request holds a
/// clone), so the pointer cannot be reused while a token is live.
fn conn_token(conn: &Arc<Mutex<TcpStream>>) -> usize {
    Arc::as_ptr(conn) as usize
}

/// A request admitted by the gate, waiting in the engine's collection
/// buffer for the next flush. Cancels and disconnects are resolved on
/// receipt, so only requests are ever buffered.
struct Buffered {
    conn: Arc<Mutex<TcpStream>>,
    request: WireRequest,
    at: Instant,
}

fn listener_loop(
    listener: &TcpListener,
    tx: &Sender<Arrival>,
    stop: &Arc<AtomicBool>,
    gate: &Arc<Gate>,
    fault: FaultPlan,
) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    // Blocks in `accept()`; `IngressHandle::join` sets `stop` and then
    // connects once to wake it. An accept error ends the loop.
    while let Ok((stream, _)) = listener.accept() {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        // Reap finished connection threads as we go: a long-lived server
        // accepting many short connections must not grow `conns` (and
        // retain thread resources) without bound until shutdown.
        let mut i = 0;
        while i < conns.len() {
            if conns[i].is_finished() {
                let _ = conns.swap_remove(i).join();
            } else {
                i += 1;
            }
        }
        let tx = tx.clone();
        let stop = Arc::clone(stop);
        let gate = Arc::clone(gate);
        conns.push(std::thread::spawn(move || {
            connection_loop(stream, &tx, &stop, &gate, fault);
        }));
    }
    for c in conns {
        let _ = c.join();
    }
    // `tx` (and every connection's clone) is dropped here; the engine
    // sees the channel disconnect, drains, and exits.
}

fn connection_loop(
    mut stream: TcpStream,
    tx: &Sender<Arrival>,
    stop: &Arc<AtomicBool>,
    gate: &Gate,
    fault: FaultPlan,
) {
    // The read timeout doubles as the stop-flag poll; FrameReader keeps
    // partial input across timeouts. Replies are small and each burst
    // is one write, so Nagle could only hold them back for the client's
    // delayed ACK: off.
    if stream.set_read_timeout(Some(POLL)).is_err() || stream.set_nodelay(true).is_err() {
        return;
    }
    let writer = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    // A client that stops reading must not wedge the engine: replies go
    // out under a bounded write stall, after which that burst is the
    // slow reader's loss.
    if let Ok(w) = writer.lock() {
        let _ = w.set_write_timeout(Some(Duration::from_secs(1)));
    }
    // Containment: a panic in the read loop takes down this connection
    // only, never its siblings or the listener. The client gets a typed
    // refusal before the socket closes.
    let body = catch_unwind(AssertUnwindSafe(|| {
        connection_body(&mut stream, &writer, tx, stop, gate, fault)
    }));
    let client_gone = match body {
        Ok(gone) => gone,
        Err(_) => {
            send_reject(
                &writer,
                0,
                RejectCode::Internal,
                0,
                0,
                "connection handler panicked",
            );
            // The socket closes when this thread exits: the client
            // cannot receive anything further, so its pending work is
            // as abandoned as a disconnect's.
            true
        }
    };
    if client_gone {
        let _ = tx.send(Arrival::Disconnect {
            token: conn_token(&writer),
        });
    }
}

/// Returns whether the client went away mid-conversation (EOF, socket
/// error, injected truncation) — the cue to abandon its pending work.
fn connection_body(
    stream: &mut TcpStream,
    writer: &Arc<Mutex<TcpStream>>,
    tx: &Sender<Arrival>,
    stop: &Arc<AtomicBool>,
    gate: &Gate,
    fault: FaultPlan,
) -> bool {
    let mut reader = FrameReader::new();
    // Wire-level chaos is keyed by this connection's frame ordinal, so
    // a run replays bit-for-bit from the fault plan's seed.
    let mut frames: u64 = 0;
    while !stop.load(Ordering::Relaxed) {
        // Bounded read-ahead (`READ_AHEAD`). The wait ends when the next
        // flush takes what is queued, so it is polled, and briefly.
        if gate.queued_bytes.load(Ordering::SeqCst) >= READ_AHEAD {
            std::thread::sleep(Duration::from_micros(100));
            continue;
        }
        match reader.next_frame(stream) {
            Ok(Some(mut payload)) => {
                frames += 1;
                if fault.fires(FaultPoint::WireTruncate, frames) {
                    // The frame is cut off mid-stream: from the client's
                    // view the connection simply died.
                    return true;
                }
                if fault.fires(FaultPoint::WireCorrupt, frames) && !payload.is_empty() {
                    let at = fault.corrupt_offset(frames, payload.len());
                    payload[at] ^= 0x40;
                }
                match wire::decode(&payload) {
                    Ok(Message::Request(request)) => {
                        // Shed at the reader, before the channel: the budget
                        // must hold even while the engine is mid-flush.
                        if let Err(depth) = gate.admit(&request) {
                            let budget = gate.budget.unwrap_or(0);
                            let e = ServeError::Overloaded { depth, budget };
                            send_reject(
                                writer,
                                request.id,
                                RejectCode::Overloaded,
                                depth as u64,
                                budget as u64,
                                &e.to_string(),
                            );
                            continue;
                        }
                        let arrival = Arrival::Request {
                            conn: Arc::clone(writer),
                            request,
                            at: Instant::now(),
                        };
                        if tx.send(arrival).is_err() {
                            return false; // engine is gone; nothing can be served
                        }
                    }
                    Ok(Message::Cancel(client_id)) => {
                        // Cancels bypass the gate (they free capacity,
                        // never consume it) and resolve at the engine:
                        // either a Cancelled reject or — if the request
                        // already completed — the response wins.
                        let cancel = Arrival::Cancel {
                            client_id,
                            token: conn_token(writer),
                        };
                        if tx.send(cancel).is_err() {
                            return false;
                        }
                    }
                    Ok(_) => {
                        gate.bad_frames.fetch_add(1, Ordering::Relaxed);
                        send_reject(
                            writer,
                            0,
                            RejectCode::BadRequest,
                            0,
                            0,
                            "clients may only send request or cancel frames",
                        );
                    }
                    // Framing is intact (the frame decoded as a unit), so
                    // the stream stays usable: refuse and keep reading.
                    Err(e) => {
                        gate.bad_frames.fetch_add(1, Ordering::Relaxed);
                        send_reject(writer, 0, RejectCode::BadRequest, 0, 0, &e.to_string());
                    }
                }
            }
            Ok(None) => return true, // clean EOF: the client hung up
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(_) => return true,
        }
    }
    // Stop was requested. Frames already on the wire can no longer be
    // served: answer every decodable request with a typed Shutdown
    // reject before the socket closes, so a pipelining client gets a
    // definite refusal instead of a silent EOF. The loop ends at the
    // first quiet `POLL`, and at `SHUTDOWN_GRACE` for a client that
    // never goes quiet.
    let stopped = Instant::now();
    while stopped.elapsed() < SHUTDOWN_GRACE {
        let Ok(Some(payload)) = reader.next_frame(stream) else {
            break;
        };
        if let Ok(Message::Request(request)) = wire::decode(&payload) {
            send_reject(
                writer,
                request.id,
                RejectCode::Shutdown,
                0,
                0,
                "server stopped before this request could be admitted",
            );
        }
    }
    // A clean shutdown is the server's choice, not the client's exit:
    // pending work drains normally, so no disconnect is signalled.
    false
}

fn reject_payload(id: u64, code: RejectCode, depth: u64, budget: u64, message: &str) -> Vec<u8> {
    wire::encode_reject(&WireReject {
        id,
        code,
        depth,
        budget,
        message: message.to_string(),
    })
}

/// Answer one frame outside a flush with a typed reject.
fn send_reject(
    conn: &Arc<Mutex<TcpStream>>,
    id: u64,
    code: RejectCode,
    depth: u64,
    budget: u64,
    message: &str,
) {
    if let Ok(mut w) = conn.lock() {
        // A vanished client is its own problem.
        let _ = wire::write_frame(&mut *w, &reject_payload(id, code, depth, budget, message));
    }
}

/// The replies of one flush, framed and grouped by connection, so that
/// each connection's burst leaves in one `write` under one lock: a
/// closed-loop client then sees its replies together and refills
/// together, and the next flush finds a full batch.
struct Burst<W> {
    /// Connections in first-reply order, each with its frames in reply
    /// order.
    conns: Vec<(Arc<Mutex<W>>, Vec<u8>)>,
}

impl<W: io::Write> Burst<W> {
    fn push(&mut self, conn: &Arc<Mutex<W>>, payload: &[u8]) {
        let known = self.conns.iter().position(|(c, _)| Arc::ptr_eq(c, conn));
        let i = known.unwrap_or_else(|| {
            self.conns.push((Arc::clone(conn), Vec::new()));
            self.conns.len() - 1
        });
        // A payload over `MAX_FRAME_LEN` is dropped here, as
        // `write_frame` would refuse it.
        let _ = wire::put_frame(&mut self.conns[i].1, payload);
    }

    /// Write every connection's burst and return how many writes that
    /// took.
    fn send(&mut self) -> u64 {
        let writes = self.conns.len() as u64;
        for (conn, frames) in self.conns.drain(..) {
            if let Ok(mut w) = conn.lock() {
                // A vanished client is its own problem; the work is done.
                let _ = w.write_all(&frames);
            }
        }
        writes
    }
}

/// An accepted request waiting for its batch to complete.
struct Pending {
    conn: Arc<Mutex<TcpStream>>,
    client_id: u64,
    /// When the request arrived at its connection thread; the wall-clock
    /// epoch of the queue wait reported to the client.
    at: Instant,
}

fn engine_loop(
    program: &Program,
    config: &IngressConfig,
    rx: &Receiver<Arrival>,
    gate: &Gate,
) -> IngressStats {
    let mut fleet = ShardedServer::new(
        program,
        config.registry.clone(),
        config.opts,
        deadline_policy(config),
        config.workers,
        config.backend,
    )
    .expect("config validated by IngressServer::start");
    fleet.set_scheduling(config.scheduling);
    // The supervisor owns fault recovery: worker panics and injected
    // execution faults poison one shard, which is respawned and its
    // work retried — the flush below never sees a wedged fleet. It also
    // owns governance: per-request budgets bound every lane, and the
    // quarantine breaker fast-rejects programs that keep blowing them.
    let mut server = Supervisor::new(fleet, config.supervisor);
    server.set_budget(config.budget);
    let capacity = config.workers.saturating_mul(config.max_batch);
    let epoch = Instant::now();
    let ticks = |t: Instant| {
        u64::try_from(t.saturating_duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
    };

    let mut stats = IngressStats::default();
    let mut buf: VecDeque<Buffered> = VecDeque::new();
    let mut next_eid: u64 = 0;
    let mut disconnected = false;
    loop {
        if !disconnected {
            // Sleep until the next arrival, the head-of-line deadline,
            // or the poll tick, whichever is first.
            let timeout = buf
                .front()
                .map(|a| {
                    (a.at + config.max_wait)
                        .saturating_duration_since(Instant::now())
                        .min(POLL)
                })
                .unwrap_or(POLL);
            match rx.recv_timeout(timeout) {
                Ok(a) => accept(a, &mut buf, gate, &mut stats),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => disconnected = true,
            }
            while let Ok(a) = rx.try_recv() {
                accept(a, &mut buf, gate, &mut stats);
            }
        }
        let full = buf.len() >= capacity;
        let expired = buf
            .front()
            .is_some_and(|a| a.at.elapsed() >= config.max_wait);
        if !buf.is_empty() && (full || expired || disconnected) {
            flush(
                &mut server,
                &mut buf,
                rx,
                &mut next_eid,
                &ticks,
                gate,
                &mut stats,
            );
        }
        if disconnected && buf.is_empty() {
            break;
        }
    }
    stats.shed = gate.shed.load(Ordering::Relaxed);
    stats.bad_frames = gate.bad_frames.load(Ordering::Relaxed);
    stats.retried = server.retries();
    stats.respawned = server.respawns();
    stats.peak_queue = server.inner().peak_pending();
    stats
}

/// Fold one arrival into the collection buffer. Shedding already
/// happened at the connection thread ([`Gate::admit`]), so every
/// request that reaches the engine is within budget. Cancels and
/// disconnects resolve immediately against the buffer: a matched
/// request is answered with [`RejectCode::Cancelled`] and its gate slot
/// freed, while a cancel that matches nothing lost its race — the
/// request already flushed and has been (or will be) answered — and is
/// dropped. Per-connection channel FIFO guarantees a cancel is never
/// accepted before the request it names.
fn accept(arrival: Arrival, buf: &mut VecDeque<Buffered>, gate: &Gate, stats: &mut IngressStats) {
    match arrival {
        Arrival::Request { conn, request, at } => {
            buf.push_back(Buffered { conn, request, at });
            stats.peak_buffered = stats.peak_buffered.max(buf.len());
        }
        Arrival::Cancel { client_id, token } => {
            let hit = buf
                .iter()
                .position(|b| b.request.id == client_id && conn_token(&b.conn) == token);
            if let Some(i) = hit {
                let b = buf.remove(i).expect("position came from this buffer");
                gate.release(&b.request);
                send_reject(
                    &b.conn,
                    client_id,
                    RejectCode::Cancelled,
                    0,
                    0,
                    "cancelled by the caller before admission",
                );
                stats.cancelled += 1;
            }
        }
        Arrival::Disconnect { token } => {
            // The client is gone: nobody will read these replies, so
            // the buffered requests are dropped without an answer.
            buf.retain(|b| {
                let keep = conn_token(&b.conn) != token;
                if !keep {
                    gate.release(&b.request);
                    stats.cancelled += 1;
                }
                keep
            });
        }
    }
}

/// Submit everything collected so far and drive the supervised fleet to
/// quiescence, answering every request's terminal outcome on its
/// connection.
#[allow(clippy::too_many_arguments)]
fn flush(
    server: &mut Supervisor<'_>,
    buf: &mut VecDeque<Buffered>,
    rx: &Receiver<Arrival>,
    next_eid: &mut u64,
    ticks: &dyn Fn(Instant) -> u64,
    gate: &Gate,
    stats: &mut IngressStats,
) {
    // Requests are renumbered with engine-unique ids so ids chosen by
    // different connections cannot collide inside the server; the
    // client's id is restored on the reply.
    let mut outstanding: HashMap<u64, Pending> = HashMap::new();
    let mut replies = Burst { conns: Vec::new() };
    stats.flushes += 1;
    for Buffered { conn, request, at } in buf.drain(..) {
        gate.release(&request);
        let eid = *next_eid;
        *next_eid += 1;
        // Stamp the queue entry at its real arrival time so the shards'
        // deadline admission sees the wait the client actually incurred.
        server.set_clock(ticks(at));
        let client_id = request.id;
        let submitted = server.submit(Request {
            id: eid,
            seed: request.seed,
            inputs: request.inputs,
        });
        match submitted {
            Ok(()) => {
                outstanding.insert(
                    eid,
                    Pending {
                        conn,
                        client_id,
                        at,
                    },
                );
            }
            Err(e) => {
                // The submission error is this request's terminal
                // outcome. Refusals map to their wire image; an
                // admission fault that outlasted the supervisor's retry
                // budget is the server's fault, not the request's. A
                // signature violation gets its own code: the frame was
                // well-formed, but the payload can never execute under
                // the served program's statically inferred signature.
                // A quarantined program is fast-rejected before it can
                // touch the fleet at all.
                let code = match &e {
                    ServeError::RetriesExhausted { .. } => RejectCode::Internal,
                    ServeError::InvalidRequest(_) => RejectCode::Invalid,
                    ServeError::Quarantined { .. } => RejectCode::Quarantined,
                    _ => RejectCode::BadRequest,
                };
                replies.push(
                    &conn,
                    &reject_payload(client_id, code, 0, 0, &e.to_string()),
                );
                match code {
                    RejectCode::Internal => stats.failed += 1,
                    RejectCode::Quarantined => stats.quarantined += 1,
                    _ => stats.rejected += 1,
                }
            }
        }
    }
    // A refusal is final now: it does not wait for the fleet to run.
    stats.reply_writes += replies.send();
    server.set_clock(ticks(Instant::now()));
    // The instant the fleet takes over: the wall-clock end of every
    // request's queue wait.
    let admitted = Instant::now();
    // The supervisor heals as it drives: poisoned shards are respawned,
    // their stranded and lost work retried under a bounded budget, and
    // every submitted request resolves to exactly one terminal outcome.
    // Arrivals landing while the fleet runs are folded in live through
    // the poll hook: a cancel or disconnect naming an in-flight request
    // evicts its lane at the next superstep boundary; everything else
    // is stashed and re-buffered after the run.
    let mut stash: Vec<Arrival> = Vec::new();
    let outcomes = {
        let mut hook =
            || -> Vec<u64> {
                let mut evict: Vec<u64> = Vec::new();
                while let Ok(a) = rx.try_recv() {
                    match a {
                        Arrival::Cancel { client_id, token } => {
                            let hit = outstanding.iter().find(|(_, p)| {
                                p.client_id == client_id && conn_token(&p.conn) == token
                            });
                            match hit {
                                Some((&eid, _)) => evict.push(eid),
                                // The named request is not in this flight:
                                // it may be sitting in the stash, so the
                                // cancel re-enters admission behind it.
                                None => stash.push(Arrival::Cancel { client_id, token }),
                            }
                        }
                        Arrival::Disconnect { token } => {
                            evict.extend(outstanding.iter().filter_map(|(&eid, p)| {
                                (conn_token(&p.conn) == token).then_some(eid)
                            }));
                            // Re-stashed so it also purges any requests the
                            // dead connection left in the stash.
                            stash.push(Arrival::Disconnect { token });
                        }
                        a @ Arrival::Request { .. } => stash.push(a),
                    }
                }
                evict
            };
        server.run_until_quiescent_with(&mut hook)
    };
    for outcome in outcomes {
        match outcome {
            Outcome::Done(r) => {
                let Some(p) = outstanding.remove(&r.id) else {
                    continue;
                };
                // The queue wait reported to the client is wall-clock:
                // TCP arrival to the instant this flush handed the batch
                // to the fleet. The server's own `queued_ticks` is not
                // used here — its virtual clock can run ahead of real
                // time after a deadline fast-forward, which would
                // distort later stamps.
                let queued = u64::try_from(admitted.saturating_duration_since(p.at).as_nanos())
                    .unwrap_or(u64::MAX);
                if let Ok(payload) = wire::encode_response(p.client_id, queued, &r.outputs) {
                    replies.push(&p.conn, &payload);
                }
                stats.completed += 1;
            }
            Outcome::Failed { id, error } => {
                let Some(p) = outstanding.remove(&id) else {
                    continue;
                };
                // Admission errors name the request as the offender,
                // and governance verdicts carry their spend/limit pair
                // onto the wire; anything else (step-limit exhaustion,
                // a retry budget burned on panics or exec faults) is
                // the server's fault, not the request's.
                let (code, a, b) = match &error {
                    ServeError::Vm(VmError::BadInputs { .. }) => (RejectCode::BadRequest, 0, 0),
                    ServeError::BudgetExceeded { spent, limit } => {
                        (RejectCode::OverBudget, *spent, *limit)
                    }
                    ServeError::DeadlineExceeded { elapsed, deadline } => {
                        (RejectCode::OverBudget, *elapsed, *deadline)
                    }
                    ServeError::MemoryExceeded { bytes, limit } => {
                        (RejectCode::OverBudget, *bytes, *limit)
                    }
                    ServeError::Cancelled => (RejectCode::Cancelled, 0, 0),
                    _ => (RejectCode::Internal, 0, 0),
                };
                replies.push(
                    &p.conn,
                    &reject_payload(p.client_id, code, a, b, &error.to_string()),
                );
                match code {
                    RejectCode::BadRequest => stats.rejected += 1,
                    RejectCode::OverBudget => stats.over_budget += 1,
                    RejectCode::Cancelled => stats.cancelled += 1,
                    _ => stats.failed += 1,
                }
            }
        }
    }
    if !outstanding.is_empty() {
        // Unreachable under the supervisor's exactly-one-outcome
        // contract; answered defensively so no client ever hangs.
        for (_, p) in outstanding.drain() {
            let lost = reject_payload(p.client_id, RejectCode::Internal, 0, 0, "request lost");
            replies.push(&p.conn, &lost);
            stats.failed += 1;
        }
    }
    stats.reply_writes += replies.send();
    // Re-admit what the hook stashed, in arrival order: a stashed
    // cancel lands after the stashed request it names (per-connection
    // FIFO), and a disconnect purges whatever its connection left
    // behind.
    for a in stash {
        accept(a, buf, gate, stats);
    }
}

/// A minimal blocking client for the ingress protocol.
///
/// Supports pipelining: [`IngressClient::send`] any number of requests,
/// then [`IngressClient::recv`] the replies (reply order follows batch
/// completion, not send order — match on [`WireResponse::id`]).
#[derive(Debug)]
pub struct IngressClient {
    stream: TcpStream,
    reader: FrameReader,
}

impl IngressClient {
    /// Connect to a running [`IngressServer`].
    ///
    /// # Errors
    ///
    /// Any socket-level connect failure.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<IngressClient, IngressError> {
        let stream = TcpStream::connect(addr)?;
        // A request is one small write that must not wait for the ACK of
        // the one before it.
        stream.set_nodelay(true)?;
        Ok(IngressClient {
            stream,
            reader: FrameReader::new(),
        })
    }

    /// Send one request frame without waiting for the reply.
    ///
    /// # Errors
    ///
    /// Encoding or socket failures.
    pub fn send(&mut self, id: u64, seed: u64, inputs: &[Tensor]) -> Result<(), IngressError> {
        let payload = wire::encode_request(id, seed, inputs)?;
        wire::write_frame(&mut self.stream, &payload)?;
        Ok(())
    }

    /// Block for the next reply frame.
    ///
    /// # Errors
    ///
    /// [`IngressError::Rejected`] when the server refused a request,
    /// [`IngressError::Closed`] on EOF, and protocol/socket failures.
    pub fn recv(&mut self) -> Result<WireResponse, IngressError> {
        let payload = self
            .reader
            .next_frame(&mut self.stream)?
            .ok_or(IngressError::Closed)?;
        match wire::decode(&payload)? {
            Message::Response(r) => Ok(r),
            Message::Reject(r) => Err(IngressError::Rejected(r)),
            Message::Request(_) | Message::Cancel(_) => Err(IngressError::Protocol(ProtocolError(
                "server sent a client-only frame".into(),
            ))),
        }
    }

    /// Ask the server to stop a previously sent request.
    /// Fire-and-forget: the eventual reply for `id` is either
    /// a [`RejectCode::Cancelled`] reject or — if the request finished
    /// first — its normal response; completion always wins the race.
    ///
    /// # Errors
    ///
    /// Socket failures.
    pub fn cancel(&mut self, id: u64) -> Result<(), IngressError> {
        let payload = wire::encode_cancel(id);
        wire::write_frame(&mut self.stream, &payload)?;
        Ok(())
    }

    /// Send one request and block for one reply — the simple RPC shape.
    ///
    /// # Errors
    ///
    /// As [`IngressClient::send`] and [`IngressClient::recv`].
    pub fn call(
        &mut self,
        id: u64,
        seed: u64,
        inputs: &[Tensor],
    ) -> Result<WireResponse, IngressError> {
        self.send(id, seed, inputs)?;
        self.recv()
    }
}

#[cfg(test)]
mod tests {
    use super::wire::tests::CountingWrite;
    use super::*;

    fn frames(conn: &Arc<Mutex<CountingWrite>>) -> Vec<Message> {
        let w = conn.lock().unwrap();
        let mut src = w.bytes.as_slice();
        let mut reader = FrameReader::new();
        std::iter::from_fn(|| reader.next_frame(&mut src).unwrap())
            .map(|payload| wire::decode(&payload).unwrap())
            .collect()
    }

    #[test]
    fn a_burst_is_one_write_per_connection_in_reply_order() {
        let a = Arc::new(Mutex::new(CountingWrite::default()));
        let b = Arc::new(Mutex::new(CountingWrite::default()));
        let done = |id| wire::encode_response(id, 0, &[]).unwrap();
        let mut burst = Burst { conns: Vec::new() };
        // Two connections interleaved, and a refusal in the middle of
        // the first one's replies.
        burst.push(&a, &done(1));
        burst.push(&b, &done(1));
        burst.push(&a, &reject_payload(2, RejectCode::OverBudget, 9, 8, "over"));
        burst.push(&b, &done(2));
        burst.push(&a, &done(3));
        assert_eq!(burst.send(), 2);
        assert_eq!(a.lock().unwrap().writes, 1);
        assert_eq!(b.lock().unwrap().writes, 1);
        let ids = |conn| -> Vec<(u64, bool)> {
            frames(conn)
                .into_iter()
                .map(|m| match m {
                    Message::Response(r) => (r.id, true),
                    Message::Reject(r) => (r.id, false),
                    other => panic!("a burst carried {other:?}"),
                })
                .collect()
        };
        assert_eq!(ids(&a), [(1, true), (2, false), (3, true)]);
        assert_eq!(ids(&b), [(1, true), (2, true)]);
        // Sent means emptied: the next burst starts from nothing.
        assert_eq!(burst.send(), 0);
        assert_eq!(a.lock().unwrap().writes, 1);
    }
}
