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
//! clients ──▶ connection threads ──mpsc + bell──▶ engine thread
//!    ▲  read into FrameReader's own buffer,   │ one handler for every
//!    │  frames taken by cursor, decoded here, │ arrival, fleet idle or
//!    │  shed at the gate when over budget,    │ running: request →
//!    │  paused past the read-ahead bounds     │ buffer, cancel /
//!    │                                        │ disconnect → fleet,
//!    │                                        ▼ then buffer
//!    │                          fleet idle: the one waiting decision —
//!    │                          start it when the buffer fills every
//!    │                          lane or its oldest request has waited
//!    │                          `max_wait`; fleet running: no waiting
//!    │                                        │ one continuous drive
//!    │                                        ▼
//!    │                          Supervisor ▶ ShardedServer: arrivals
//!    │                          join the running shards' inboxes and
//!    │                          admit on a free lane; every retirement
//!    │                          comes back after its quantum
//!    │                                        │ outcomes; one table from
//!    │                                        ▼ error to reject + counter
//!    └──── one write per connection ◀──── each hook call's replies,
//!          per burst, under one lock      framed, grouped by connection
//! ```
//!
//! - **Thread-per-connection** readers decode [`wire`] frames and
//!   forward them to the engine over a channel, ringing the drive's
//!   bell as they do. There is no async runtime: blocking reads with a
//!   short timeout double as the shutdown poll. After the stop flag
//!   flips a connection answers late frames with typed `Shutdown`
//!   rejects until the wire goes quiet, and for a fixed 100 ms at most.
//! - The **engine thread** owns the program, the supervised fleet and
//!   the book of every request accepted and not yet answered. While
//!   the fleet is idle it collects arrivals until they can fill every
//!   lane (`workers × max_batch`) **or** the oldest has waited
//!   [`IngressConfig::max_wait`] — OpenVINO-style auto-batch
//!   collection, with its one timeout owned by the layer that batches —
//!   and then sets the fleet going in one continuous drive. While the
//!   fleet runs nothing waits for company: every call of the drive's
//!   hook answers what retired since the last one, takes every arrival
//!   and hands the fleet the oldest buffered requests, as many as keep
//!   its lanes plus one queued batch per shard (`2 × workers ×
//!   max_batch`) in it; the rest wait in the buffer, where the gate
//!   counts them. The drive ends when the fleet is idle and the buffer
//!   empty. The engine stamps the virtual clock from the real clock
//!   (nanosecond ticks) at every hand-over.
//! - **A request is answered when it retires.** The program-counter
//!   machine tracks every member's program point, so a request can join
//!   a batch already in flight at the entry block; the drive hands each
//!   retirement back after the quantum of supersteps it happened in. A
//!   shallow request that arrives behind a deep straggler therefore
//!   neither waits for the straggler's batch to finish before it
//!   starts nor before its reply leaves, and a shard whose work is done
//!   takes new work instead of parking until its sibling is done too.
//! - **Each decision is made once.** *Waiting:* only the engine holds a
//!   request back for company, and only while the fleet is idle. The
//!   [`ShardedServer`] under it runs [`AdmissionPolicy::JoinAtEntry`],
//!   so whatever reaches a shard joins at the entry block as soon as a
//!   lane is free. *Arrivals:* one
//!   handler takes a request, a cancel or a disconnect whether the
//!   fleet is idle or running (the drive's hook calls it), and resolves
//!   the latter two against the fleet and the buffer alike. *Verdicts:*
//!   one table maps a `ServeError` to its reject code, operands and
//!   [`IngressStats`] counter, wherever the error surfaced.
//! - **The wire path never waits on the network's timers, nor on a
//!   tick.** Both ends of a connection run with `TCP_NODELAY`, every
//!   frame is assembled with its length prefix and leaves in one
//!   `write` ([`wire::write_frame`]), and the replies one hook call
//!   hands out are grouped by connection and written once per
//!   connection. A prefix in a segment of its own, on a socket with
//!   Nagle on, held the payload back until the peer's delayed ACK:
//!   40 ms per reply burst and 88 ms for a lone call against a 2 ms
//!   `max_wait`. A running drive sleeps on its [`Bell`], which every
//!   arrival rings, so an arrival is taken at once rather than at the
//!   next poll ([`IngressStats::flushes`], [`IngressStats::reply_writes`]
//!   and [`IngressStats::supersteps`] show the shape of it from a
//!   running server). A client that stops reading loses the burst in
//!   flight, not one reply, when the 1 s write timeout expires — and a
//!   write that timed out part-way leaves that connection's stream
//!   ending mid-frame.
//! - **Bounded read-ahead.** A connection thread stops reading while
//!   1 MiB of decoded request inputs, or 2,048 decoded requests, already
//!   wait for the fleet, and resumes when the engine hands them over.
//!   Past that point a request waits as bytes in its socket, where TCP
//!   pushes back on the sender, instead of as tensors on this heap:
//!   continuous admission makes the engine's buffer the one place
//!   arrivals pile up, and the two bounds keep it finite for large and
//!   small requests alike. While a connection is paused, its cancel
//!   frames and its disconnect wait with the rest of its bytes.
//! - **Backpressure**: with [`IngressConfig::queue_budget`] set, a
//!   request arriving while `budget × workers` are already waiting is
//!   refused immediately with a typed
//!   [`Overloaded`](wire::RejectCode::Overloaded) reject frame carrying
//!   the observed depth and the budget — the wire image of
//!   `ServeError::Overloaded`. The budget is enforced at the
//!   *connection* threads through a shared counter covering both the
//!   channel and the engine's buffer — every request that waits for the
//!   fleet, whatever the fleet is doing — so a burst is shed right away
//!   instead of piling up unboundedly in the channel. The budget counts
//!   requests and sheds; the read-ahead bounds wait; whichever a
//!   connection meets first acts.
//! - **Self-healing**: the engine drives the fleet through a
//!   [`Supervisor`]: a worker panic or injected execution fault poisons
//!   one shard, which closes the drive; the shard is salvaged and
//!   respawned and its stranded work retried under a bounded budget
//!   before the next drive. Requests that cannot be saved are answered
//!   with typed reject frames — a client never loses a request to a
//!   silent hang, not even one whose reply the wire cannot carry.
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
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use autobatch_accel::Backend;
use autobatch_chaos::{FaultPlan, FaultPoint};
use autobatch_core::{ExecOptions, KernelRegistry};
use autobatch_ir::pcab::Program;
use autobatch_serve::{
    AdmissionPolicy, Bell, Intake, Outcome, Request, RequestBudget, ServeError, ShardedServer,
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

/// How many bytes of decoded request inputs may wait for the fleet
/// before the connection threads stop reading ahead: past it, a request
/// waits as bytes in its socket, where TCP pushes back on the sender,
/// rather than as tensors in this process. Sixteen 64 KiB requests, a
/// fleet's worth at the default shape.
const READ_AHEAD: usize = 1024 * 1024;

/// How many decoded requests may wait for the fleet before the
/// connection threads stop reading ahead, however small they are: the
/// bound [`READ_AHEAD`] cannot give for 8-byte inputs (131,072 of them
/// fit in its mebibyte). Sixty-four times what the engine hands a
/// default fleet at once, so a backlog deep enough to keep it busy
/// always waits here.
const READ_AHEAD_REQUESTS: usize = 2048;

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
    /// VM execution options for every shard.
    pub opts: ExecOptions,
    /// Kernel registry for the served program.
    pub registry: KernelRegistry,
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
            opts: ExecOptions::default(),
            registry: KernelRegistry::new(),
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
    /// Deepest the engine's buffer of requests waiting for the fleet
    /// ever got.
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
    /// Drives the engine started: times an idle fleet was set going,
    /// after collecting a full fleet's worth of arrivals or waiting out
    /// `max_wait`. A drive lasts until the fleet is idle and nothing
    /// waits, so under steady load one drive serves many requests.
    pub flushes: u64,
    /// Socket writes that carried the engine's replies: one per
    /// connection answered per burst — the replies one call of the
    /// drive's hook hands out (what retired since the last call), or a
    /// cancelled buffered request's reject when its cancel is handled.
    /// Replies per write is `completed / reply_writes`.
    pub reply_writes: u64,
    /// Fleet supersteps over the server's life, respawned shards'
    /// included, read at shutdown. Supersteps per completed request is
    /// `supersteps / completed`.
    pub supersteps: u64,
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
/// between a TCP reader and the fleet — the mpsc channel plus the
/// engine's buffer — so the configured budget holds whatever the engine
/// is doing: excess arrivals are shed at the connection instead of
/// accumulating in the unbounded channel.
#[derive(Debug, Default)]
struct Gate {
    /// Rung with every arrival, so a drive in progress takes it at once.
    bell: Bell,
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
/// deadline-driven batch collection.
#[derive(Debug)]
pub struct IngressServer;

impl IngressServer {
    /// Bind `addr` and start serving `program` under `config`.
    ///
    /// The returned handle owns three kinds of threads: one acceptor,
    /// one reader per connection, and one engine that owns the program
    /// and the supervised [`ShardedServer`]. All are joined on
    /// shutdown/drop.
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
        if config.max_batch == 0 {
            return Err(IngressError::Config("max_batch must be positive".into()));
        }
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let gate = Arc::new(Gate {
            budget: config
                .queue_budget
                .map(|b| b.saturating_mul(config.workers).max(1)),
            ..Gate::default()
        });
        let (tx, rx) = std::sync::mpsc::channel::<Arrival<TcpStream>>();
        let fault = config.opts.fault;
        let engine_gate = Arc::clone(&gate);
        let engine_stop = Arc::clone(&stop);
        let engine = std::thread::spawn(move || {
            // Containment: an engine panic must not strand the listener
            // and its connections forever. Flag the stop so they wind
            // down; clients see closed sockets, not a hang.
            catch_unwind(AssertUnwindSafe(|| {
                Engine::new(&program, &config, engine_gate).run(&rx)
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

/// One event in flight from a connection thread to the engine.
enum Arrival<W> {
    /// A decoded request, on the record the engine will keep for it.
    Request(Pending<W>, WireRequest),
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
fn conn_token<W>(conn: &Arc<Mutex<W>>) -> usize {
    Arc::as_ptr(conn) as usize
}

fn listener_loop(
    listener: &TcpListener,
    tx: &Sender<Arrival<TcpStream>>,
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
    tx: &Sender<Arrival<TcpStream>>,
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
            send_reject(&writer, 0, LOST.0, &"connection handler panicked");
            // The socket closes when this thread exits: the client
            // cannot receive anything further, so its pending work is
            // as abandoned as a disconnect's.
            true
        }
    };
    if client_gone {
        let token = conn_token(&writer);
        hand_in(tx, gate, Arrival::Disconnect { token });
    }
}

/// Hand one arrival to the engine and wake it, in case it is driving
/// the fleet. Returns `false` when the engine is gone.
fn hand_in(tx: &Sender<Arrival<TcpStream>>, gate: &Gate, arrival: Arrival<TcpStream>) -> bool {
    let sent = tx.send(arrival).is_ok();
    gate.bell.ring();
    sent
}

/// Returns whether the client went away mid-conversation (EOF, socket
/// error, injected truncation) — the cue to abandon its pending work.
fn connection_body(
    stream: &mut TcpStream,
    writer: &Arc<Mutex<TcpStream>>,
    tx: &Sender<Arrival<TcpStream>>,
    stop: &Arc<AtomicBool>,
    gate: &Gate,
    fault: FaultPlan,
) -> bool {
    let mut reader = FrameReader::new();
    // Wire-level chaos is keyed by this connection's frame ordinal, so
    // a run replays bit-for-bit from the fault plan's seed.
    let mut frames: u64 = 0;
    while !stop.load(Ordering::Relaxed) {
        // Bounded read-ahead, in bytes and in requests. The wait ends
        // when the engine hands what is queued to the fleet, so it is
        // polled, and briefly.
        if gate.queued_bytes.load(Ordering::SeqCst) >= READ_AHEAD
            || gate.queued.load(Ordering::SeqCst) >= READ_AHEAD_REQUESTS
        {
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
                        // must hold whatever the engine is doing.
                        if let Err(depth) = gate.admit(&request) {
                            let budget = gate.budget.unwrap_or(0);
                            let e = ServeError::Overloaded { depth, budget };
                            // Counted by the gate, not through the verdict.
                            send_reject(writer, request.id, verdict(&e).0, &e);
                            continue;
                        }
                        let pending = Pending {
                            conn: Arc::clone(writer),
                            client_id: request.id,
                            at: Instant::now(),
                        };
                        if !hand_in(tx, gate, Arrival::Request(pending, request)) {
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
                        if !hand_in(tx, gate, cancel) {
                            return false;
                        }
                    }
                    Ok(_) => {
                        gate.bad_frames.fetch_add(1, Ordering::Relaxed);
                        let why = "clients may only send request or cancel frames";
                        send_reject(writer, 0, (RejectCode::BadRequest, 0, 0), &why);
                    }
                    // Framing is intact (the frame decoded as a unit), so
                    // the stream stays usable: refuse and keep reading.
                    Err(e) => {
                        gate.bad_frames.fetch_add(1, Ordering::Relaxed);
                        send_reject(writer, 0, (RejectCode::BadRequest, 0, 0), &e);
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
            let why = "server stopped before this request could be admitted";
            send_reject(writer, request.id, (RejectCode::Shutdown, 0, 0), &why);
        }
    }
    // A clean shutdown is the server's choice, not the client's exit:
    // pending work drains normally, so no disconnect is signalled.
    false
}

/// What a reject frame says beyond its message: the code and its two
/// operands.
type Reject = (RejectCode, u64, u64);

/// The lifetime counter a refusal is recorded under.
type Counter = fn(&mut IngressStats) -> &mut u64;

/// What a request that gets no response is told, and where that is
/// counted.
type Verdict = (Reject, Counter);

/// The verdict on a request the server accepted and then could not
/// answer, through no fault of the request.
const LOST: Verdict = ((RejectCode::Internal, 0, 0), |s| &mut s.failed);

/// The one table from a serving error to its wire image and its
/// counter, wherever the error surfaced: at the gate, at submission, or
/// as a flight's outcome.
fn verdict(error: &ServeError) -> Verdict {
    match error {
        ServeError::Overloaded { depth, budget } => {
            let reject = (RejectCode::Overloaded, *depth as u64, *budget as u64);
            (reject, |s| &mut s.shed)
        }
        // The request names itself as the offender, at submission: its
        // arity, a non-row input, or a spec the server's requests differ
        // from.
        ServeError::BadRequest(_) => ((RejectCode::BadRequest, 0, 0), |s| &mut s.rejected),
        // The frame was well-formed, but the payload can never execute
        // under the served program's statically inferred signature.
        ServeError::InvalidRequest(_) => ((RejectCode::Invalid, 0, 0), |s| &mut s.rejected),
        // Fast-rejected before it could touch the fleet at all.
        ServeError::Quarantined { .. } => ((RejectCode::Quarantined, 0, 0), |s| &mut s.quarantined),
        // Governance verdicts carry their spend/limit pair onto the wire.
        ServeError::BudgetExceeded { spent: a, limit: b }
        | ServeError::DeadlineExceeded {
            elapsed: a,
            deadline: b,
        }
        | ServeError::MemoryExceeded { bytes: a, limit: b } => {
            ((RejectCode::OverBudget, *a, *b), |s| &mut s.over_budget)
        }
        ServeError::Cancelled => ((RejectCode::Cancelled, 0, 0), |s| &mut s.cancelled),
        // Anything else — step-limit exhaustion, a retry budget burned
        // on panics, execution faults or injected admission faults, a
        // fleet that cannot be built — is the server's fault.
        ServeError::Vm(_)
        | ServeError::BadPolicy(_)
        | ServeError::InvalidProgram(_)
        | ServeError::Panicked { .. }
        | ServeError::RetriesExhausted { .. } => LOST,
    }
}

fn reject_payload(id: u64, (code, depth, budget): Reject, why: &dyn fmt::Display) -> Vec<u8> {
    let message = why.to_string();
    wire::encode_reject(&WireReject {
        id,
        code,
        depth,
        budget,
        message,
    })
}

/// Answer one frame from its connection thread with a typed reject.
fn send_reject(conn: &Arc<Mutex<TcpStream>>, id: u64, reject: Reject, why: &dyn fmt::Display) {
    if let Ok(mut w) = conn.lock() {
        // A vanished client is its own problem.
        let _ = wire::write_frame(&mut *w, &reject_payload(id, reject, why));
    }
}

/// The replies of one burst, framed and grouped by connection, so that
/// each connection's burst leaves in one `write` under one lock: a
/// closed-loop client then sees together what retired together.
struct Burst<W> {
    /// Connections in first-reply order, each with its frames in reply
    /// order.
    conns: Vec<(Arc<Mutex<W>>, Vec<u8>)>,
}

impl<W: io::Write> Burst<W> {
    /// Frame `payload` onto `conn`'s burst.
    ///
    /// # Errors
    ///
    /// As [`wire::put_frame`], for a payload over `MAX_FRAME_LEN`; no
    /// frame was added for it.
    fn push(&mut self, conn: &Arc<Mutex<W>>, payload: &[u8]) -> io::Result<()> {
        let known = self.conns.iter().position(|(c, _)| Arc::ptr_eq(c, conn));
        let i = known.unwrap_or_else(|| {
            self.conns.push((Arc::clone(conn), Vec::new()));
            self.conns.len() - 1
        });
        wire::put_frame(&mut self.conns[i].1, payload)
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

/// A request the engine has accepted and not yet answered. One record
/// serves it in both places it can be: in the buffer, beside its
/// payload, and in the fleet, under its engine id.
struct Pending<W> {
    conn: Arc<Mutex<W>>,
    client_id: u64,
    /// When the request arrived at its connection thread: the collection
    /// deadline counts from here, and so does the queue wait reported to
    /// the client.
    at: Instant,
}

/// The engine's book-keeping: every request it has accepted and not yet
/// answered, in the buffer or in the fleet, and the replies and counters
/// they turn into. Generic over the connection's writer, like
/// [`Burst`], so that all of it runs without a socket.
struct Book<W> {
    gate: Arc<Gate>,
    /// Requests waiting for the fleet, oldest first. Shedding already
    /// happened at the connection thread ([`Gate::admit`]), so every one
    /// of them is within budget.
    buf: VecDeque<(Pending<W>, WireRequest)>,
    /// Requests handed to the fleet and not yet answered, by engine id,
    /// with the nanoseconds each waited before the hand-off.
    outstanding: HashMap<u64, (Pending<W>, u64)>,
    /// Requests are renumbered with engine-unique ids so ids chosen by
    /// different connections cannot collide inside the server; the
    /// client's id is restored on the reply.
    next_eid: u64,
    replies: Burst<W>,
    stats: IngressStats,
}

impl<W: io::Write> Book<W> {
    fn new(gate: Arc<Gate>) -> Book<W> {
        Book {
            gate,
            buf: VecDeque::new(),
            outstanding: HashMap::new(),
            next_eid: 0,
            replies: Burst { conns: Vec::new() },
            stats: IngressStats::default(),
        }
    }

    /// Take one arrival, whether the fleet is idle or running, and
    /// return the engine ids of the requests the fleet should cancel
    /// for it. A request joins the buffer. A cancel or a disconnect is
    /// resolved against both places a request can be: one in the fleet
    /// is named for cancellation and answered when the fleet reports it
    /// cancelled, one still buffered is answered (a disconnect's:
    /// dropped) here and its gate slot freed. Per-connection channel
    /// FIFO guarantees a cancel never arrives before the request it
    /// names, so a cancel that matches nothing lost its race — the
    /// request has been answered — and is dropped.
    fn arrive(&mut self, arrival: Arrival<W>) -> Vec<u64> {
        match arrival {
            Arrival::Request(pending, request) => {
                self.buf.push_back((pending, request));
                self.stats.peak_buffered = self.stats.peak_buffered.max(self.buf.len());
                Vec::new()
            }
            Arrival::Cancel { client_id, token } => {
                let named =
                    |p: &Pending<W>| p.client_id == client_id && conn_token(&p.conn) == token;
                if let Some((&eid, _)) = self.outstanding.iter().find(|(_, (p, _))| named(p)) {
                    return vec![eid];
                }
                if let Some(i) = self.buf.iter().position(|(p, _)| named(p)) {
                    let (p, request) = self.buf.remove(i).expect("position came from this buffer");
                    self.gate.release(&request);
                    let e = ServeError::Cancelled;
                    self.refuse(&p, verdict(&e), &e);
                    self.send();
                }
                Vec::new()
            }
            Arrival::Disconnect { token } => {
                let gone = |p: &Pending<W>| conn_token(&p.conn) == token;
                // The client is gone: nobody will read these replies, so
                // the buffered requests are dropped without an answer.
                self.buf.retain(|(p, request)| {
                    let keep = !gone(p);
                    if !keep {
                        self.gate.release(request);
                        self.stats.cancelled += 1;
                    }
                    keep
                });
                let flying = self.outstanding.iter().filter(|(_, (p, _))| gone(p));
                flying.map(|(&eid, _)| eid).collect()
            }
        }
    }

    /// Hand the oldest buffered requests to the fleet, as many as keep
    /// `room` or fewer in it, renumbered and with their gate slots freed.
    fn feed(&mut self, room: usize, now: Instant) -> Vec<Request> {
        let n = room
            .saturating_sub(self.outstanding.len())
            .min(self.buf.len());
        let mut fed = Vec::with_capacity(n);
        for (p, request) in self.buf.drain(..n) {
            self.gate.release(&request);
            let id = self.next_eid;
            self.next_eid += 1;
            let waited = now.saturating_duration_since(p.at).as_nanos();
            self.outstanding
                .insert(id, (p, u64::try_from(waited).unwrap_or(u64::MAX)));
            let WireRequest { seed, inputs, .. } = request;
            fed.push(Request { id, seed, inputs });
        }
        fed
    }

    /// Answer a request the fleet has resolved.
    fn answer(&mut self, outcome: Outcome) {
        let Some((p, queued)) = self.outstanding.remove(&outcome.id()) else {
            return;
        };
        match outcome {
            Outcome::Done(r) => self.complete(&p, queued, &r.outputs),
            Outcome::Failed { error, .. } => self.refuse(&p, verdict(&error), &error),
        }
    }

    /// Refuse one accepted request: frame the reject onto its
    /// connection's burst and count it. Every reject the engine sends
    /// leaves through here.
    fn refuse(&mut self, p: &Pending<W>, (reject, counter): Verdict, why: &dyn fmt::Display) {
        let payload = reject_payload(p.client_id, reject, why);
        // A reject is a sentence: it always fits a frame.
        let _ = self.replies.push(&p.conn, &payload);
        *counter(&mut self.stats) += 1;
    }

    /// Answer one completed request that waited `queued` nanoseconds
    /// before its hand-off to the fleet. The queue wait reported to the
    /// client is wall-clock, TCP arrival to hand-off; the server's own
    /// `queued_ticks` is not used here.
    fn complete(&mut self, p: &Pending<W>, queued: u64, outputs: &[Tensor]) {
        let sent = wire::encode_response(p.client_id, queued, outputs)
            .is_ok_and(|payload| self.replies.push(&p.conn, &payload).is_ok());
        if sent {
            self.stats.completed += 1;
        } else {
            // A client never loses a request to a silent hang: outputs
            // the wire cannot carry (a tensor count or rank over `u16`,
            // a payload over `MAX_FRAME_LEN`) are a server-side loss.
            self.refuse(p, LOST, &"response not encodable");
        }
    }

    /// Write what has been framed so far, one write per connection.
    fn send(&mut self) {
        self.stats.reply_writes += self.replies.send();
    }
}

/// The engine thread's state: the supervised fleet, the book of
/// requests in front of it, and the one waiting decision.
struct Engine<'p> {
    server: Supervisor<'p>,
    book: Book<TcpStream>,
    /// Lanes in the fleet: a buffer this deep sets an idle fleet going
    /// without waiting, and a running fleet is handed up to twice this
    /// many (its lanes, and one queued batch per shard).
    capacity: usize,
    max_wait: Duration,
    /// Real time maps onto the fleet's virtual clock as nanosecond
    /// ticks since this instant.
    epoch: Instant,
}

impl<'p> Engine<'p> {
    fn new(program: &'p Program, config: &IngressConfig, gate: Arc<Gate>) -> Engine<'p> {
        // The engine alone decides how long a request waits for
        // company; the shards under it admit whatever they are given on
        // a free lane. A second wait down there would hold a shard back
        // that could already be running.
        let policy = AdmissionPolicy::JoinAtEntry {
            max_batch: config.max_batch,
        };
        let fleet = ShardedServer::new(
            program,
            config.registry.clone(),
            config.opts,
            policy,
            config.workers,
            Backend::hybrid_cpu(),
        )
        .expect("config validated by IngressServer::start");
        // The supervisor owns fault recovery: worker panics and injected
        // execution faults poison one shard, which is respawned and its
        // work retried — a drive never sees a wedged fleet. It also
        // owns governance: per-request budgets bound every lane, and the
        // quarantine breaker fast-rejects programs that keep blowing them.
        let mut server = Supervisor::new(fleet, config.supervisor);
        server.set_budget(config.budget);
        Engine {
            server,
            book: Book::new(gate),
            capacity: config.workers.saturating_mul(config.max_batch),
            max_wait: config.max_wait,
            epoch: Instant::now(),
        }
    }

    /// When the buffer sets an idle fleet going even if it is not full.
    fn due(&self) -> Option<Instant> {
        self.book.buf.front().map(|(p, _)| p.at + self.max_wait)
    }

    /// Collect arrivals while the fleet is idle and drive it while it is
    /// not, until every connection thread is gone and the buffer is
    /// empty.
    fn run(mut self, rx: &Receiver<Arrival<TcpStream>>) -> IngressStats {
        let mut disconnected = false;
        loop {
            if !disconnected {
                // The fleet is idle, so nothing is in flight and no
                // arrival names a request to cancel. Sleep until the next
                // arrival or the head-of-line deadline.
                let arrival = match self.due() {
                    Some(t) => rx.recv_timeout(t.saturating_duration_since(Instant::now())),
                    None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
                };
                match arrival {
                    Ok(a) => drop(self.book.arrive(a)),
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => disconnected = true,
                }
                while let Ok(a) = rx.try_recv() {
                    self.book.arrive(a);
                }
            }
            let full = self.book.buf.len() >= self.capacity;
            let expired = self.due().is_some_and(|t| t <= Instant::now());
            if !self.book.buf.is_empty() && (full || expired || disconnected) {
                disconnected |= self.drive(rx);
            }
            if disconnected && self.book.buf.is_empty() {
                break;
            }
        }
        let gate = &self.book.gate;
        let mut stats = self.book.stats;
        stats.shed = gate.shed.load(Ordering::Relaxed);
        stats.bad_frames = gate.bad_frames.load(Ordering::Relaxed);
        stats.retried = self.server.retries();
        stats.respawned = self.server.respawns();
        stats.peak_queue = self.server.inner().peak_pending();
        stats.supersteps = self.server.inner().supersteps();
        stats
    }

    /// Set the supervised fleet going and keep it going for as long as
    /// there is work: every call of the drive's hook answers what
    /// retired since the last one, takes every arrival, hands the fleet
    /// as much of the buffer as keeps twice its lanes in it, and writes
    /// the replies once per connection. Returns whether the connection
    /// threads are all gone.
    fn drive(&mut self, rx: &Receiver<Arrival<TcpStream>>) -> bool {
        self.book.stats.flushes += 1;
        let Engine {
            server,
            book,
            capacity,
            epoch,
            ..
        } = self;
        let epoch = *epoch;
        let ticks = |t: Instant| {
            u64::try_from(t.saturating_duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
        };
        let room = capacity.saturating_mul(2);
        let bell = book.gate.bell.clone();
        let mut disconnected = false;
        // The supervisor heals as it drives: poisoned shards are
        // respawned, their stranded and lost work retried under a
        // bounded budget, and every request resolves to exactly one
        // terminal outcome, handed to this hook as it resolves.
        server.drive(Some(&bell), &mut |outcomes| {
            for outcome in outcomes {
                book.answer(outcome);
            }
            let mut cancels = Vec::new();
            loop {
                match rx.try_recv() {
                    Ok(a) => cancels.extend(book.arrive(a)),
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        disconnected = true;
                        break;
                    }
                }
            }
            let now = Instant::now();
            let oldest = book.buf.front().map(|(p, _)| p.at);
            let requests = book.feed(room, now);
            // Stamp the fleet's clock at the oldest request handed over,
            // so that a deadline budget counts the wait the client
            // actually incurred.
            let clock = ticks(oldest.filter(|_| !requests.is_empty()).unwrap_or(now));
            book.send();
            Intake {
                requests,
                cancels,
                clock,
            }
        });
        // Unreachable under the supervisor's exactly-one-outcome
        // contract; answered defensively so no client ever hangs.
        for (p, _) in std::mem::take(&mut book.outstanding).into_values() {
            book.refuse(&p, LOST, &"request lost");
        }
        book.send();
        disconnected
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
    use autobatch_core::VmError;
    use autobatch_ir::IrError;

    type Conn = Arc<Mutex<CountingWrite>>;

    fn conn() -> Conn {
        Arc::new(Mutex::new(CountingWrite::default()))
    }

    fn frames(conn: &Conn) -> Vec<Message> {
        let w = conn.lock().unwrap();
        let mut src = w.bytes.as_slice();
        let mut reader = FrameReader::new();
        std::iter::from_fn(|| reader.next_frame(&mut src).unwrap())
            .map(|payload| wire::decode(&payload).unwrap())
            .collect()
    }

    fn book() -> Book<CountingWrite> {
        Book::new(Arc::new(Gate::default()))
    }

    fn pending(conn: &Conn, client_id: u64) -> Pending<CountingWrite> {
        Pending {
            conn: Arc::clone(conn),
            client_id,
            at: Instant::now(),
        }
    }

    /// A request as its connection thread hands it over: through the
    /// gate, then onto the channel.
    fn request(book: &Book<CountingWrite>, conn: &Conn, id: u64) -> Arrival<CountingWrite> {
        let request = WireRequest {
            id,
            seed: id,
            inputs: vec![Tensor::from_i64(&[9], &[1]).unwrap()],
        };
        book.gate.admit(&request).unwrap();
        Arrival::Request(pending(conn, id), request)
    }

    fn cancel(conn: &Conn, client_id: u64) -> Arrival<CountingWrite> {
        Arrival::Cancel {
            client_id,
            token: conn_token(conn),
        }
    }

    /// Hand the oldest buffered request to the fleet under `eid`, as a
    /// drive's hook does.
    fn launch(book: &mut Book<CountingWrite>, eid: u64) {
        book.next_eid = eid;
        let fed = book.feed(book.outstanding.len() + 1, Instant::now());
        assert_eq!(fed.len(), 1);
    }

    fn queued(book: &Book<CountingWrite>) -> (usize, usize) {
        let gate = &book.gate;
        (
            gate.queued.load(Ordering::SeqCst),
            gate.queued_bytes.load(Ordering::SeqCst),
        )
    }

    fn rejects(conn: &Conn) -> Vec<(u64, RejectCode)> {
        frames(conn)
            .into_iter()
            .map(|m| match m {
                Message::Reject(r) => (r.id, r.code),
                other => panic!("expected a reject, got {other:?}"),
            })
            .collect()
    }

    #[test]
    fn a_cancel_for_a_buffered_request_answers_it_and_frees_its_slot() {
        let (mut book, a) = (book(), conn());
        for id in [1, 2] {
            let r = request(&book, &a, id);
            assert!(book.arrive(r).is_empty());
        }
        assert_eq!(queued(&book), (2, 16));
        assert!(book.arrive(cancel(&a, 1)).is_empty());
        assert_eq!(rejects(&a), [(1, RejectCode::Cancelled)]);
        assert_eq!(a.lock().unwrap().writes, 1);
        assert_eq!(queued(&book), (1, 8));
        assert_eq!(book.buf.len(), 1);
        assert_eq!(book.buf[0].0.client_id, 2);
        let want = IngressStats {
            cancelled: 1,
            peak_buffered: 2,
            reply_writes: 1,
            ..IngressStats::default()
        };
        assert_eq!(book.stats, want);
    }

    #[test]
    fn a_cancel_for_an_in_flight_request_names_its_lane_and_writes_nothing() {
        let (mut book, a) = (book(), conn());
        let r = request(&book, &a, 1);
        book.arrive(r);
        launch(&mut book, 40);
        // The same client id waits again behind the one in flight: the
        // cancel goes to the older of the two.
        let r = request(&book, &a, 1);
        book.arrive(r);
        assert_eq!(book.arrive(cancel(&a, 1)), [40]);
        assert_eq!(a.lock().unwrap().writes, 0);
        assert_eq!(book.stats.cancelled, 0, "counted when the fleet reports it");
        assert_eq!((book.outstanding.len(), book.buf.len()), (1, 1));
        assert_eq!(queued(&book), (1, 8));
    }

    #[test]
    fn a_cancel_that_names_nothing_this_connection_owns_is_dropped() {
        let (mut book, a, b) = (book(), conn(), conn());
        for id in [1, 2] {
            let r = request(&book, &a, id);
            book.arrive(r);
        }
        launch(&mut book, 40);
        // An id nobody has, and ids that are `a`'s, not `b`'s.
        for late in [cancel(&a, 3), cancel(&b, 1), cancel(&b, 2)] {
            assert!(book.arrive(late).is_empty());
        }
        assert_eq!((book.outstanding.len(), book.buf.len()), (1, 1));
        assert_eq!(queued(&book), (1, 8));
        assert_eq!(a.lock().unwrap().writes + b.lock().unwrap().writes, 0);
        assert_eq!(book.stats.cancelled, 0);
    }

    #[test]
    fn a_request_and_its_cancel_that_both_land_mid_flight_resolve_at_the_buffer() {
        let (mut book, a) = (book(), conn());
        let r = request(&book, &a, 1);
        book.arrive(r);
        launch(&mut book, 40);
        // What the drive's hook sees while lane 40 runs, before it
        // hands the buffer over.
        let r = request(&book, &a, 2);
        assert!(book.arrive(r).is_empty());
        assert!(book.arrive(cancel(&a, 2)).is_empty());
        assert_eq!(rejects(&a), [(2, RejectCode::Cancelled)]);
        assert!(book.buf.is_empty());
        assert_eq!(queued(&book), (0, 0));
        assert_eq!(book.stats.cancelled, 1);
        assert!(
            book.outstanding.contains_key(&40),
            "the flight is untouched"
        );
    }

    #[test]
    fn the_fleet_is_handed_no_more_than_its_room_and_each_outcome_answers_its_request() {
        let (mut book, a) = (book(), conn());
        for id in [10, 11, 12, 13, 14] {
            let r = request(&book, &a, id);
            book.arrive(r);
        }
        let fed = book.feed(3, Instant::now());
        assert_eq!(fed.iter().map(|r| r.id).collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(fed[1].seed, 11, "renumbered, not rewritten");
        assert_eq!(queued(&book), (2, 16), "the gate counts what still waits");
        assert!(book.feed(3, Instant::now()).is_empty(), "the room is full");
        let done = autobatch_serve::Response {
            id: 0,
            outputs: vec![Tensor::from_i64(&[5], &[1]).unwrap()],
            admitted_at: 0,
            retired_at: 9,
            queued_ticks: 0,
        };
        book.answer(Outcome::Done(done));
        let (id, error) = (1, ServeError::Cancelled);
        book.answer(Outcome::Failed { id, error });
        book.send();
        assert_eq!(a.lock().unwrap().writes, 1, "one burst, one write");
        let got: Vec<(u64, bool)> = frames(&a)
            .into_iter()
            .map(|m| match m {
                Message::Response(r) => (r.id, true),
                Message::Reject(r) => (r.id, false),
                other => panic!("a burst carried {other:?}"),
            })
            .collect();
        assert_eq!(got, [(10, true), (11, false)], "client ids restored");
        assert_eq!((book.stats.completed, book.stats.cancelled), (1, 1));
        // Two answered, so two more fit.
        assert_eq!(book.feed(3, Instant::now()).len(), 2);
        assert_eq!(queued(&book), (0, 0));
    }

    #[test]
    fn a_disconnect_purges_the_buffer_and_the_flight_and_frees_every_slot() {
        let (mut book, a, b) = (book(), conn(), conn());
        for (conn, id) in [(&a, 1), (&b, 1), (&a, 2), (&a, 3), (&b, 2)] {
            let r = request(&book, conn, id);
            book.arrive(r);
        }
        launch(&mut book, 40); // a's 1
        launch(&mut book, 41); // b's 1
        let token = conn_token(&a);
        assert_eq!(book.arrive(Arrival::Disconnect { token }), [40]);
        // Nobody is left to read an answer: none is written, and the two
        // buffered requests are counted now, the lane when it is evicted.
        assert_eq!(a.lock().unwrap().writes, 0);
        assert_eq!(book.stats.cancelled, 2);
        assert_eq!(book.buf.len(), 1);
        assert!(Arc::ptr_eq(&book.buf[0].0.conn, &b));
        assert_eq!(queued(&book), (1, 8));
        assert_eq!(
            book.outstanding.len(),
            2,
            "answered when the fleet reports them"
        );
    }

    #[test]
    fn every_serve_error_has_one_verdict_and_one_counter() {
        let ir = || IrError::BadArity {
            what: "inputs".into(),
            expected: 1,
            got: 2,
        };
        let bad_inputs = VmError::BadInputs {
            what: "arity".into(),
        };
        let errors = [
            ServeError::Vm(bad_inputs.clone()),
            ServeError::Vm(VmError::StepLimit { limit: 9 }),
            ServeError::BadRequest("arity".into()),
            ServeError::BadPolicy("zero lanes".into()),
            ServeError::InvalidProgram(ir()),
            ServeError::InvalidRequest(ir()),
            ServeError::Overloaded {
                depth: 7,
                budget: 4,
            },
            ServeError::Panicked {
                what: "boom".into(),
            },
            ServeError::RetriesExhausted {
                id: 3,
                attempts: 2,
                last: Box::new(ServeError::Vm(bad_inputs)),
            },
            ServeError::BudgetExceeded {
                spent: 11,
                limit: 10,
            },
            ServeError::DeadlineExceeded {
                elapsed: 21,
                deadline: 20,
            },
            ServeError::MemoryExceeded {
                bytes: 31,
                limit: 30,
            },
            ServeError::Cancelled,
            ServeError::Quarantined { blowups: 3 },
        ];
        let one = |counter: Counter| {
            let mut stats = IngressStats::default();
            *counter(&mut stats) += 1;
            stats
        };
        for error in errors {
            // No wildcard arm: a new `ServeError` variant has to be
            // given its verdict here before this compiles.
            let (code, a, b, stats) = match &error {
                ServeError::Overloaded { .. } => {
                    (RejectCode::Overloaded, 7, 4, one(|s| &mut s.shed))
                }
                ServeError::BadRequest(_) => {
                    (RejectCode::BadRequest, 0, 0, one(|s| &mut s.rejected))
                }
                ServeError::InvalidRequest(_) => {
                    (RejectCode::Invalid, 0, 0, one(|s| &mut s.rejected))
                }
                ServeError::Quarantined { .. } => {
                    (RejectCode::Quarantined, 0, 0, one(|s| &mut s.quarantined))
                }
                ServeError::BudgetExceeded { .. } => {
                    (RejectCode::OverBudget, 11, 10, one(|s| &mut s.over_budget))
                }
                ServeError::DeadlineExceeded { .. } => {
                    (RejectCode::OverBudget, 21, 20, one(|s| &mut s.over_budget))
                }
                ServeError::MemoryExceeded { .. } => {
                    (RejectCode::OverBudget, 31, 30, one(|s| &mut s.over_budget))
                }
                ServeError::Cancelled => (RejectCode::Cancelled, 0, 0, one(|s| &mut s.cancelled)),
                ServeError::Vm(_)
                | ServeError::BadPolicy(_)
                | ServeError::InvalidProgram(_)
                | ServeError::Panicked { .. }
                | ServeError::RetriesExhausted { .. } => {
                    (RejectCode::Internal, 0, 0, one(|s| &mut s.failed))
                }
            };
            let (mut book, conn) = (book(), conn());
            let p = pending(&conn, 5);
            book.refuse(&p, verdict(&error), &error);
            assert_eq!(book.stats, stats, "{error}");
            book.send();
            let want = WireReject {
                id: 5,
                code,
                depth: a,
                budget: b,
                message: error.to_string(),
            };
            assert_eq!(frames(&conn), [Message::Reject(want)]);
        }
    }

    #[test]
    fn a_reply_the_wire_refuses_is_answered_as_a_server_side_loss() {
        let (mut book, conn) = (book(), conn());
        let p = pending(&conn, 5);
        // One element more than a frame can carry.
        let n = wire::MAX_FRAME_LEN as usize + 1;
        let wide = Tensor::from_bool(&vec![false; n], &[n]).unwrap();
        book.complete(&p, 0, &[wide]);
        book.send();
        let want = WireReject {
            id: 5,
            code: RejectCode::Internal,
            depth: 0,
            budget: 0,
            message: "response not encodable".into(),
        };
        assert_eq!(frames(&conn), [Message::Reject(want)]);
        assert_eq!((book.stats.completed, book.stats.failed), (0, 1));
        // One that fits is a response, counted as one.
        book.complete(&p, 0, &[Tensor::from_i64(&[55], &[1]).unwrap()]);
        book.send();
        assert!(matches!(&frames(&conn)[1], Message::Response(r) if r.id == 5));
        assert_eq!((book.stats.completed, book.stats.failed), (1, 1));
    }

    #[test]
    fn a_burst_is_one_write_per_connection_in_reply_order() {
        let (a, b) = (conn(), conn());
        let done = |id| wire::encode_response(id, 0, &[]).unwrap();
        let mut burst = Burst { conns: Vec::new() };
        // Two connections interleaved, and a refusal in the middle of
        // the first one's replies.
        burst.push(&a, &done(1)).unwrap();
        burst.push(&b, &done(1)).unwrap();
        let over = reject_payload(2, (RejectCode::OverBudget, 9, 8), &"over");
        burst.push(&a, &over).unwrap();
        burst.push(&b, &done(2)).unwrap();
        burst.push(&a, &done(3)).unwrap();
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
