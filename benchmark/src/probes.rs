//! The in-process layer probes of the traced run: the workload's own
//! pool through each layer's public entry points, timed from out here.
//! Counts are exact; times are medians of [`REPS`] repeats.
//!
//! Nothing in `crates/*` is instrumented. Every number is taken around a
//! public call, which is also why a few things the serving path does
//! (work stealing between shards, the engine's id maps and channel)
//! have no probe: they have no public boundary to stand at.

use std::hint::black_box;
use std::io::Cursor;
use std::time::{Duration, Instant};

use autobatch_accel::{Backend, Trace};
use autobatch_core::PcMachine;
use autobatch_ingress::wire::{self, FrameReader};
use autobatch_ir::analysis::Verified;
use autobatch_lang::compile;
use autobatch_serve::{
    AdmissionPolicy, AffinityConfig, BatchServer, Request, SchedulingPolicy, ShardedServer,
    Supervisor, SupervisorConfig,
};
use autobatch_tensor::Tensor;

use crate::alloc::{allocations, set_counting};
use crate::ledger::OnionPass;
use crate::loadgen::Span;
use crate::stats::median_of;
use crate::workload::{build, Built, Item, Workload};

/// Repeats behind every timed median.
pub const REPS: usize = 5;

/// Lanes per shard and shards per fleet, as the server child runs them.
const LANES: usize = 8;
const SHARDS: usize = 2;
/// Requests per replayed flush: what one client connection keeps
/// outstanding. The ingress engine runs each flush to completion and
/// answers it all at once, so a closed loop of two connections locks
/// into alternating flushes of one connection's 32 requests each; the
/// replay drives the layers in flushes of the same size.
pub const CHUNK: usize = 32;

fn policy() -> AdmissionPolicy {
    AdmissionPolicy::Deadline {
        max_batch: LANES,
        max_wait: 2_000_000, // the child's 2 ms, in nanosecond ticks
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn requests(items: &[Item], first_id: u64) -> Vec<Request> {
    items
        .iter()
        .enumerate()
        .map(|(i, it)| Request {
            id: first_id + i as u64,
            seed: it.seed,
            inputs: it.inputs.clone(),
        })
        .collect()
}

/// The replay's flushes: what the two client connections send. The
/// connections walk the even and the odd pool positions, so a flush of
/// one connection's [`CHUNK`] requests is every second request of a
/// stretch twice as long.
fn flushes(items: &[Item]) -> Vec<Vec<Item>> {
    items
        .chunks(2 * CHUNK)
        .flat_map(|stretch| {
            [0, 1].map(|parity| {
                stretch
                    .iter()
                    .skip(parity)
                    .step_by(2)
                    .cloned()
                    .collect::<Vec<Item>>()
            })
        })
        .filter(|f| !f.is_empty())
        .collect()
}

/// Time `f` over enough iterations to fill about a millisecond, and
/// return nanoseconds per call (median of [`REPS`]).
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().as_secs_f64().max(1e-9);
    let iters = ((1e-3 / once) as usize).clamp(1, 100_000);
    median_of(REPS, || {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        t0.elapsed().as_secs_f64() * 1e9 / iters as f64
    })
}

// ---------------------------------------------------------------- setup

/// A measured value under its catalogue name.
pub type Named = (&'static str, f64);

/// Milliseconds of each stage between process start and listening, one
/// by one.
pub fn stage_times(w: Workload) -> Vec<Named> {
    let ms = |f: &mut dyn FnMut()| {
        median_of(REPS, || {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
    };
    let front_end = || match w {
        Workload::BinomDivergent => compile(crate::workload::BINOM_SRC, "binom"),
        Workload::EchoSmall => compile(crate::workload::ECHO_SRC, "inc"),
        Workload::PayloadWide => compile(crate::workload::NORM_SRC, "norm"),
        Workload::NutsLogistic => autobatch_nuts::nuts_program(4),
    };
    let lsab = front_end().expect("program compiles");
    let built = build(w);
    vec![
        (
            "lang.compile_ms",
            ms(&mut || {
                black_box(front_end().expect("program compiles"));
            }),
        ),
        (
            "core.lower_ms",
            ms(&mut || {
                black_box(autobatch_core::lower(&lsab, Default::default()).expect("lowers"));
            }),
        ),
        (
            "ir.verify_ms",
            ms(&mut || {
                black_box(Verified::new(built.program.clone()).expect("program verifies"));
            }),
        ),
        // Model data plus `BatchNuts::new`.
        (
            "nuts.build_ms",
            if w == Workload::NutsLogistic {
                ms(&mut || {
                    black_box(build(w));
                })
            } else {
                0.0
            },
        ),
    ]
}

// --------------------------------------------------------------- tensor

/// Nanoseconds per call of the tensor kernels the VM is built on, at
/// `[16, d]` f64 with `d` the workload's widest input row: 8 of 16 rows
/// gathered and scattered, 8 rows padded, an elementwise add, a dot.
pub fn tensor_times(items: &[Item]) -> Vec<Named> {
    let d = items[0]
        .inputs
        .iter()
        .map(|t| t.len())
        .max()
        .unwrap_or(1)
        .max(1);
    let fill = |rows: usize, bias: f64| {
        let v: Vec<f64> = (0..rows * d).map(|i| bias + i as f64 * 1e-3).collect();
        Tensor::from_f64(&v, &[rows, d]).expect("probe tensor")
    };
    let (a, b, src) = (fill(16, 0.5), fill(16, -0.25), fill(8, 2.0));
    let idx: Vec<usize> = (0..8).map(|i| (i * 5 + 1) % 16).collect();
    let mut dst = a.clone();
    vec![
        (
            "tensor.gather_rows_ns",
            ns_per_call(|| {
                black_box(a.gather_rows(black_box(&idx)).expect("gather"));
            }),
        ),
        (
            "tensor.scatter_rows_ns",
            ns_per_call(|| {
                dst.scatter_rows(black_box(&idx), &src).expect("scatter");
            }),
        ),
        (
            "tensor.pad_rows_ns",
            ns_per_call(|| {
                black_box(a.pad_rows(8).expect("pad"));
            }),
        ),
        (
            "tensor.elementwise_ns",
            ns_per_call(|| {
                black_box(a.add(black_box(&b)).expect("add"));
            }),
        ),
        (
            "tensor.dot_ns",
            ns_per_call(|| {
                black_box(a.dot_last_axis(black_box(&b)).expect("dot"));
            }),
        ),
    ]
}

/// Microseconds of one `grad` and one `logp` kernel call on 16 rows
/// (NUTS only, else zeros).
pub fn model_times(built: &Built, items: &[Item]) -> (f64, f64) {
    if built.nuts.is_none() {
        return (0.0, 0.0);
    }
    let rows: Vec<Tensor> = items
        .iter()
        .take(16)
        .map(|it| it.inputs[0].clone())
        .collect();
    let q = [Tensor::concat_rows(&rows).expect("16 rows")];
    let time = |name: &str| {
        let k = built.registry.get(name).expect("model kernel");
        ns_per_call(|| {
            black_box(k.eval(black_box(&q)).expect("kernel"));
        }) / 1e3
    };
    (time("grad"), time("logp"))
}

// ----------------------------------------------------------------- core

/// What one pass through a bare `PcMachine` measured.
#[derive(Debug, Clone, Default)]
pub struct VmPass {
    /// The whole pass.
    pub total: Duration,
    /// `admit_batch` calls.
    pub admit: Duration,
    /// `retire_finished` calls.
    pub retire: Duration,
    /// Supersteps run.
    pub supersteps: u64,
    /// Sum over supersteps of active lanes / live lanes (only when
    /// counting).
    pub active_share_sum: f64,
    /// Allocations inside `step` (only when counting).
    pub step_allocs: u64,
    /// The first retired member's outputs (a real response payload).
    pub first_outputs: Vec<Tensor>,
}

impl VmPass {
    /// Time inside `step`: what admission and retirement do not cover.
    pub fn step(&self) -> Duration {
        self.total.saturating_sub(self.admit + self.retire)
    }
}

/// How a [`vm_pass`] feeds the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feed {
    /// Admit `n` requests, run them all to the end, retire them, repeat:
    /// the fixed-batch shape of the paper's experiments.
    Chunks(usize),
    /// Keep 8 lanes busy the way a `BatchServer` under the ingress
    /// deadline policy does: whenever lanes are free and enough requests
    /// wait to fill them all, retire and refill; the last few requests,
    /// too few to fill the free lanes, wait for the machine to drain.
    Refill,
}

/// `items` through `m`, a (possibly warm) machine that is empty on entry
/// and on return. With `count`, nothing is timed and every superstep's
/// utilisation and allocations are recorded instead.
pub fn vm_pass(
    m: &mut PcMachine<'_>,
    items: &[Item],
    feed: Feed,
    count: bool,
    mut trace: Option<&mut Trace>,
) -> VmPass {
    let mut out = VmPass::default();
    let steps_before = m.supersteps();
    let mut next = 0;
    let mut retired_n = 0;
    set_counting(count);
    let t_pass = Instant::now();
    loop {
        // A BatchServer collects finished lanes on every iteration; a
        // fixed batch stays whole until its last lane is done.
        let collect = match feed {
            Feed::Chunks(_) => m.running() == 0,
            Feed::Refill => true,
        };
        if collect && m.finished() > 0 {
            let t0 = Instant::now();
            let retired = m.retire_finished(trace.as_deref_mut()).expect("retire");
            out.retire += t0.elapsed();
            retired_n += retired.len();
            if out.first_outputs.is_empty() {
                out.first_outputs = retired.into_iter().next().expect("one lane").outputs;
            }
        }
        let waiting = items.len() - next;
        let free = LANES - m.live();
        let take = match feed {
            Feed::Chunks(n) if m.live() == 0 => n.min(waiting),
            Feed::Refill if waiting >= free || m.live() == 0 => free.min(waiting),
            _ => 0,
        };
        if take > 0 {
            let reqs: Vec<(&[Tensor], u64)> = items[next..next + take]
                .iter()
                .map(|it| (it.inputs.as_slice(), it.seed))
                .collect();
            let t0 = Instant::now();
            m.admit_batch(&reqs, trace.as_deref_mut())
                .expect("admission");
            out.admit += t0.elapsed();
            next += take;
        }
        let before = if count { allocations() } else { 0 };
        if !m.step(trace.as_deref_mut()).expect("superstep") {
            break;
        }
        if count {
            out.step_allocs += allocations() - before;
            out.active_share_sum += m.last_active() as f64 / m.live().max(1) as f64;
        }
    }
    out.total = t_pass.elapsed();
    set_counting(false);
    assert_eq!(retired_n, items.len(), "every lane retires");
    out.supersteps = m.supersteps() - steps_before;
    out
}

fn machine(built: &Built) -> PcMachine<'_> {
    PcMachine::new(&built.program, built.registry.clone(), built.opts)
}

/// Microseconds to move one running lane out of a machine and back in
/// (`extract_lanes` + `inject_lane`), three supersteps into a chunk. A
/// program that finishes sooner is moved straight after admission.
pub fn lane_move_us(built: &Built, items: &[Item]) -> f64 {
    let reqs: Vec<(&[Tensor], u64)> = items
        .iter()
        .take(LANES)
        .map(|it| (it.inputs.as_slice(), it.seed))
        .collect();
    let load = |steps: usize| {
        let mut m = machine(built);
        m.admit_batch(&reqs, None).expect("admission");
        for _ in 0..steps {
            m.step(None).expect("superstep");
        }
        m
    };
    let mut m = load(3);
    if m.lane_pcs().is_empty() {
        m = load(0);
    }
    ns_per_call(|| {
        let (ticket, _) = m.lane_pcs()[0];
        let moved = m.extract_lanes(&[ticket], None).expect("extract");
        m.inject_lane(&moved[0].1, None).expect("inject");
    }) / 1e3
}

// ---------------------------------------------------------------- serve

fn batch_server(built: &Built) -> BatchServer<'_> {
    BatchServer::new(&built.program, built.registry.clone(), built.opts, policy())
        .expect("batch server")
}

fn fleet(built: &Built, scheduling: SchedulingPolicy) -> ShardedServer<'_> {
    let mut f = ShardedServer::new(
        &built.program,
        built.registry.clone(),
        built.opts,
        policy(),
        SHARDS,
        Backend::hybrid_cpu(),
    )
    .expect("sharded server");
    f.set_scheduling(scheduling);
    f
}

fn supervisor(built: &Built) -> Supervisor<'_> {
    Supervisor::new(
        fleet(built, SchedulingPolicy::default()),
        SupervisorConfig::default(),
    )
}

fn noop() -> Vec<u64> {
    Vec::new()
}

/// Submit all of `reqs` to one `BatchServer`, then `run_until_idle`.
pub fn drive_batch_server(s: &mut BatchServer<'_>, reqs: &[Request]) -> Duration {
    let t0 = Instant::now();
    for r in reqs {
        s.submit(r.clone()).expect("submit");
    }
    let done = s.run_until_idle(None).expect("run");
    let dt = t0.elapsed();
    assert_eq!(done.len(), reqs.len(), "every request is answered");
    dt
}

/// Submit all of `reqs` to the 2 × 8 fleet, then
/// `run_until_idle_with(noop)` — the drive ingress uses.
pub fn drive_fleet(f: &mut ShardedServer<'_>, reqs: &[Request]) -> Duration {
    let t0 = Instant::now();
    for r in reqs {
        f.submit(r.clone()).expect("submit");
    }
    let done = f.run_until_idle_with(&mut noop).expect("run");
    let dt = t0.elapsed();
    assert_eq!(done.len(), reqs.len(), "every request is answered");
    dt
}

/// Each flush through a `Supervisor`, driven to quiescence before the
/// next — the shape of the ingress engine's loop.
pub fn drive_supervisor(s: &mut Supervisor<'_>, flushes: &[Vec<Request>]) -> Duration {
    let t0 = Instant::now();
    for flush in flushes {
        for r in flush {
            s.submit(r.clone()).expect("submit");
        }
        let outcomes = s.run_until_quiescent_with(&mut noop);
        assert!(
            outcomes.len() == flush.len() && outcomes.iter().all(|o| o.is_done()),
            "every request completes"
        );
    }
    t0.elapsed()
}

/// Nanoseconds of one `BatchServer::poll` with nothing to do, and
/// microseconds of one fleet drive with nothing to do (one round: a
/// scoped thread per shard, spawned and joined).
pub fn idle_costs(built: &Built) -> (f64, f64) {
    let mut s = batch_server(built);
    let poll_ns = ns_per_call(|| {
        black_box(s.poll(None).expect("poll"));
    });
    let mut f = fleet(built, SchedulingPolicy::default());
    let round_us = ns_per_call(|| {
        black_box(f.run_until_idle_with(&mut noop).expect("idle round"));
    }) / 1e3;
    (poll_ns, round_us)
}

/// One long-lived instance of every layer, the way the server child
/// holds them: replays run on warm machines, as flushes in a running
/// server do.
pub struct Onion<'p> {
    supervisor: Supervisor<'p>,
    fleet: ShardedServer<'p>,
    batch_server: BatchServer<'p>,
    machine: PcMachine<'p>,
}

impl<'p> Onion<'p> {
    /// Fresh layers over `built`'s program.
    pub fn new(built: &'p Built) -> Onion<'p> {
        Onion {
            supervisor: supervisor(built),
            fleet: fleet(built, SchedulingPolicy::default()),
            batch_server: batch_server(built),
            machine: machine(built),
        }
    }

    /// One onion pass: every flush of [`CHUNK`] requests through each
    /// level, from the supervisor down to the bare machine, recording
    /// one span per boundary when `spans` is given. See
    /// [`crate::ledger`].
    pub fn pass(&mut self, items: &[Item], mut spans: Option<&mut Vec<Span>>) -> OnionPass {
        let mut pass = OnionPass {
            requests: items.len(),
            ..OnionPass::default()
        };
        // Replay time is laid end to end on its own axis: the levels of
        // one flush start together, as they would if they were nested
        // calls.
        let mut cursor_ns = 0u64;
        for (c, chunk) in flushes(items).iter().enumerate() {
            let reqs = requests(chunk, 0);
            let sup_d = drive_supervisor(&mut self.supervisor, std::slice::from_ref(&reqs));
            let shard_d = drive_fleet(&mut self.fleet, &reqs);
            // Each shard's share of the flush, on its own: the halves
            // run in parallel inside the fleet, so the longer one is the
            // path the round waits for.
            let halves: Vec<(Duration, VmPass)> = chunk
                .chunks(chunk.len().div_ceil(SHARDS))
                .map(|half| {
                    let bs = drive_batch_server(&mut self.batch_server, &requests(half, 0));
                    let vm = vm_pass(&mut self.machine, half, Feed::Refill, false, None);
                    (bs, vm)
                })
                .collect();
            let (bs_d, vm) = halves
                .iter()
                .max_by_key(|(bs, _)| *bs)
                .expect("a flush has a half");

            pass.supervisor_us += us(sup_d);
            pass.shard_us += us(shard_d);
            pass.batch_server_us += us(*bs_d);
            pass.vm_admit_us += us(vm.admit);
            pass.vm_step_us += us(vm.step());
            pass.vm_retire_us += us(vm.retire);

            if let Some(spans) = spans.as_deref_mut() {
                let ns = |d: Duration| d.as_nanos() as u64;
                let mut span = |name, parent, len| {
                    spans.push(Span {
                        name,
                        id: c as u64,
                        parent,
                        start_ns: cursor_ns,
                        end_ns: cursor_ns + len,
                    });
                };
                span("supervisor", "", ns(sup_d));
                span("shard", "supervisor", ns(shard_d));
                for (bs, vm) in &halves {
                    span("batch_server", "shard", ns(*bs));
                    // Admission and retirement interleave with the
                    // supersteps; each is recorded as its total.
                    span("vm.admit", "batch_server", ns(vm.admit));
                    span("vm.step", "batch_server", ns(vm.step()));
                    span("vm.retire", "batch_server", ns(vm.retire));
                }
                cursor_ns += ns(sup_d);
            }
        }
        pass
    }
}

/// Field-wise median of several onion passes.
pub fn median_onion(passes: &[OnionPass]) -> OnionPass {
    let med = |f: fn(&OnionPass) -> f64| {
        let mut v: Vec<f64> = passes.iter().map(f).collect();
        crate::stats::median(&mut v)
    };
    OnionPass {
        requests: passes.first().map_or(0, |p| p.requests),
        supervisor_us: med(|p| p.supervisor_us),
        shard_us: med(|p| p.shard_us),
        batch_server_us: med(|p| p.batch_server_us),
        vm_admit_us: med(|p| p.vm_admit_us),
        vm_step_us: med(|p| p.vm_step_us),
        vm_retire_us: med(|p| p.vm_retire_us),
    }
}

// -------------------------------------------------------------- ingress

/// The wire work one request costs, measured through memory.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireTimes {
    /// `encode_request`.
    pub encode_request_ns: f64,
    /// `decode` of a request payload.
    pub decode_request_ns: f64,
    /// `encode_response`.
    pub encode_response_ns: f64,
    /// `decode` of a response payload.
    pub decode_response_ns: f64,
    /// `write_frame` + `FrameReader::next_frame` of the request frame.
    pub frame_io_ns: f64,
    /// Request frame length, prefix included.
    pub request_bytes: usize,
    /// Response frame length, prefix included.
    pub response_bytes: usize,
}

impl WireTimes {
    /// Wire work on one request's path through the server, microseconds:
    /// read and decode the request frame, encode and write the response
    /// frame (frame I/O scaled by the response's size).
    pub fn server_work_us(&self) -> f64 {
        let per_byte = self.frame_io_ns / self.request_bytes.max(1) as f64;
        (self.decode_request_ns
            + self.frame_io_ns
            + self.encode_response_ns
            + per_byte * self.response_bytes as f64)
            / 1e3
    }
}

/// See [`WireTimes`]. `outputs` is a real response's output list.
pub fn wire_times(item: &Item, outputs: &[Tensor]) -> WireTimes {
    let request = wire::encode_request(7, item.seed, &item.inputs).expect("encodes");
    let response = wire::encode_response(7, 1_000, outputs).expect("encodes");
    let mut framed = Vec::new();
    wire::write_frame(&mut framed, &request).expect("frames");
    WireTimes {
        encode_request_ns: ns_per_call(|| {
            black_box(wire::encode_request(7, item.seed, black_box(&item.inputs)).expect("enc"));
        }),
        decode_request_ns: ns_per_call(|| {
            black_box(wire::decode(black_box(&request)).expect("dec"));
        }),
        encode_response_ns: ns_per_call(|| {
            black_box(wire::encode_response(7, 1_000, black_box(outputs)).expect("enc"));
        }),
        decode_response_ns: ns_per_call(|| {
            black_box(wire::decode(black_box(&response)).expect("dec"));
        }),
        frame_io_ns: ns_per_call(|| {
            let mut buf = Vec::with_capacity(request.len() + 4);
            wire::write_frame(&mut buf, black_box(&request)).expect("frames");
            let got = FrameReader::new()
                .next_frame(&mut Cursor::new(buf))
                .expect("reads");
            black_box(got);
        }),
        request_bytes: framed.len(),
        response_bytes: response.len() + 4,
    }
}

// ------------------------------------------------------------------ env

/// Median round trip, microseconds, of one byte over a loopback TCP
/// connection with `TCP_NODELAY`: no repository code involved.
pub fn loopback_rtt_us() -> std::io::Result<f64> {
    use std::io::{Read, Write};
    let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    std::thread::scope(|s| {
        let echo = s.spawn(move || -> std::io::Result<()> {
            let (mut peer, _) = listener.accept()?;
            peer.set_nodelay(true)?;
            let mut b = [0u8; 1];
            while peer.read(&mut b)? == 1 {
                peer.write_all(&b)?;
            }
            Ok(())
        });
        let mut c = std::net::TcpStream::connect(addr)?;
        c.set_nodelay(true)?;
        let mut b = [0u8; 1];
        let mut rtts: Vec<f64> = (0..2_000)
            .map(|_| {
                let t0 = Instant::now();
                c.write_all(&[1])?;
                c.read_exact(&mut b)?;
                Ok(us(t0.elapsed()))
            })
            .collect::<std::io::Result<_>>()?;
        drop(c);
        echo.join().expect("echo thread")?;
        Ok(crate::stats::median(&mut rtts))
    })
}

/// Milliseconds of a fixed integer loop: a yardstick for comparing
/// numbers taken on different machines.
pub fn calibration_ms() -> f64 {
    median_of(REPS, || {
        let t0 = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..20_000_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        black_box(x);
        t0.elapsed().as_secs_f64() * 1e3
    })
}

// -------------------------------------------------------------- summary

/// Everything the in-process probes measured for one workload.
#[derive(Debug, Clone, Default)]
pub struct LayerNumbers {
    /// The `lang`, `core`, `ir`, `nuts`, `tensor`, `models`, `accel`,
    /// `serve` and `ingress` wire metrics, under their catalogue names.
    pub values: Vec<Named>,
    /// Wire work on one request's path through the server, microseconds.
    pub wire_work_us: f64,
    /// The onion, median of [`REPS`] passes.
    pub onion: OnionPass,
    /// Spans of the first timed onion pass.
    pub spans: Vec<Span>,
}

/// Run every in-process probe on the replay prefix of the pool. Every
/// server is built once, warmed with one pass and then reused, as the
/// server child reuses its own across flushes.
pub fn layer_numbers(w: Workload, built: &Built, pool: &[Item]) -> LayerNumbers {
    let items = &pool[..w.replay_n()];
    let n = items.len() as f64;
    let reqs = requests(items, 0);
    let rps = |secs: f64| n / secs;
    fn secs_of(mut f: impl FnMut() -> Duration) -> f64 {
        f(); // warm
        median_of(REPS, || f().as_secs_f64())
    }

    let mut m = machine(built);
    let chunks = Feed::Chunks(LANES);
    let warm = vm_pass(&mut m, items, chunks, false, None);
    let counted = vm_pass(&mut m, items, chunks, true, None);
    let steps = counted.supersteps.max(1) as f64;
    let timed: Vec<VmPass> = (0..REPS)
        .map(|_| vm_pass(&mut m, items, chunks, false, None))
        .collect();
    let med = |f: &dyn Fn(&VmPass) -> Duration| {
        let mut v: Vec<f64> = timed.iter().map(|p| f(p).as_secs_f64()).collect();
        crate::stats::median(&mut v)
    };
    let (admit, step, retire, vm_secs) = (
        med(&|p| p.admit),
        med(&|p| p.step()),
        med(&|p| p.retire),
        med(&|p| p.total),
    );
    let mut accel = Trace::new(Backend::hybrid_cpu());
    let vm_traced_secs = secs_of(|| vm_pass(&mut m, items, chunks, false, Some(&mut accel)).total);
    let batch1_secs = secs_of(|| vm_pass(&mut m, items, Feed::Chunks(1), false, None).total);

    let mut bs = batch_server(built);
    let bs_steps_before = bs.supersteps();
    let bs_secs = secs_of(|| drive_batch_server(&mut bs, &reqs));
    let bs_steps = (bs.supersteps() - bs_steps_before) as f64 / (REPS + 1) as f64;

    let mut default_fleet = fleet(built, SchedulingPolicy::default());
    let sharded_secs = secs_of(|| drive_fleet(&mut default_fleet, &reqs));
    let fleet_steps = default_fleet.aggregated_trace().supersteps() as f64 / (REPS + 1) as f64;

    let mut affinity_fleet = fleet(
        built,
        SchedulingPolicy::PcAffinity(AffinityConfig::default()),
    );
    let affinity_secs = secs_of(|| drive_fleet(&mut affinity_fleet, &reqs));
    let migrations =
        affinity_fleet.aggregated_trace().members_migrated_in() as f64 / (REPS + 1) as f64;

    let mut sup = supervisor(built);
    let sup_flushes: Vec<Vec<Request>> = flushes(items).iter().map(|f| requests(f, 0)).collect();
    let supervised_secs = secs_of(|| drive_supervisor(&mut sup, &sup_flushes));
    let (poll_idle_ns, round_idle_us) = idle_costs(built);

    let mut onion = Onion::new(built);
    onion.pass(items, None); // warm
    let mut spans = Vec::new();
    let mut passes = vec![onion.pass(items, Some(&mut spans))];
    passes.extend((1..REPS).map(|_| onion.pass(items, None)));

    let (grad_us, logp_us) = model_times(built, items);
    let wire = wire_times(&items[0], &warm.first_outputs);
    let mut values = stage_times(w);
    values.extend(tensor_times(items));
    values.extend([
        ("models.grad_us", grad_us),
        ("models.logp_us", logp_us),
        ("core.supersteps_per_req", steps / n),
        ("core.ns_per_superstep", step * 1e9 / steps),
        (
            "core.allocs_per_superstep",
            counted.step_allocs as f64 / steps,
        ),
        ("core.admit_us_per_req", admit * 1e6 / n),
        ("core.retire_us_per_req", retire * 1e6 / n),
        ("core.active_lane_share", counted.active_share_sum / steps),
        ("core.vm_only_rps", rps(vm_secs)),
        ("core.batch1_rps", rps(batch1_secs)),
        ("core.batching_gain", batch1_secs / vm_secs),
        ("core.lane_move_us", lane_move_us(built, items)),
        (
            "accel.trace_overhead_share",
            (vm_traced_secs - vm_secs) / vm_secs,
        ),
        ("serve.batch_server_rps", rps(bs_secs)),
        ("serve.poll_idle_ns", poll_idle_ns),
        ("serve.sharded_rps", rps(sharded_secs)),
        ("serve.sharded_rps_affinity", rps(affinity_secs)),
        ("serve.shard_scaling", bs_secs / sharded_secs),
        ("serve.round_idle_us", round_idle_us),
        // Fleet supersteps over one BatchServer's on the same requests:
        // what splitting the lanes over two shards costs.
        ("serve.superstep_inflation", fleet_steps / bs_steps.max(1.0)),
        ("serve.migrations_per_kreq", migrations * 1e3 / n),
        ("serve.supervised_rps", rps(supervised_secs)),
        ("serve.retries", sup.retries() as f64),
        ("serve.respawns", sup.respawns() as f64),
        ("ingress.encode_request_ns", wire.encode_request_ns),
        ("ingress.decode_request_ns", wire.decode_request_ns),
        ("ingress.encode_response_ns", wire.encode_response_ns),
        ("ingress.decode_response_ns", wire.decode_response_ns),
        ("ingress.frame_io_ns", wire.frame_io_ns),
        ("ingress.request_bytes", wire.request_bytes as f64),
        ("ingress.response_bytes", wire.response_bytes as f64),
    ]);
    LayerNumbers {
        values,
        wire_work_us: wire.server_work_us(),
        onion: median_onion(&passes),
        spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::pool;

    #[test]
    fn onion_levels_nest_on_the_echo_workload() {
        let w = Workload::EchoSmall;
        let built = build(w);
        let items = pool(w, 3, &built);
        let mut spans = Vec::new();
        let pass = Onion::new(&built).pass(&items[..64], Some(&mut spans));
        assert_eq!(pass.requests, 64);
        assert!(pass.supervisor_us > 0.0 && pass.vm_step_us > 0.0);
        // Two flushes; per flush one supervisor, one shard, and per half
        // one batch_server with its three vm spans.
        assert_eq!(spans.len(), 2 * (2 + 2 * 4));
        assert!(spans
            .iter()
            .all(|s| s.end_ns >= s.start_ns && (s.parent.is_empty() == (s.name == "supervisor"))));
    }

    #[test]
    fn bare_machine_counts_are_exact_and_repeat() {
        let w = Workload::BinomDivergent;
        let built = build(w);
        let items = pool(w, 5, &built);
        let mut m = machine(&built);
        let a = vm_pass(&mut m, &items[..16], Feed::Chunks(8), true, None);
        let b = vm_pass(&mut m, &items[..16], Feed::Chunks(8), true, None);
        assert_eq!(a.supersteps, b.supersteps, "a warm machine repeats");
        assert_eq!(a.active_share_sum, b.active_share_sum);
        let share = a.active_share_sum / a.supersteps as f64;
        assert!(share > 0.0 && share <= 1.0, "utilisation {share}");
        let one = vm_pass(&mut m, &items[..16], Feed::Chunks(1), false, None);
        assert!(one.supersteps >= a.supersteps, "batching shares supersteps");
        let refill = vm_pass(&mut m, &items[..16], Feed::Refill, false, None);
        assert!(
            refill.supersteps <= a.supersteps,
            "refilling wastes no lane"
        );
        assert!(!refill.first_outputs.is_empty());
    }

    #[test]
    fn refill_feed_matches_a_batch_server_superstep_for_superstep() {
        // The bare-machine level of the onion must do the work the
        // BatchServer level does, or their difference is not a self time.
        for w in [Workload::BinomDivergent, Workload::EchoSmall] {
            let built = build(w);
            let items = pool(w, 9, &built);
            let mut bs = batch_server(&built);
            drive_batch_server(&mut bs, &requests(&items[..16], 0));
            let mut m = machine(&built);
            let vm = vm_pass(&mut m, &items[..16], Feed::Refill, false, None);
            assert_eq!(vm.supersteps, bs.supersteps(), "{}", w.name());
        }
    }

    #[test]
    fn wire_sizes_follow_the_payload() {
        let w = Workload::PayloadWide;
        let built = build(w);
        let items = pool(w, 1, &built);
        let mut m = machine(&built);
        let out = vm_pass(&mut m, &items[..8], Feed::Chunks(8), false, None).first_outputs;
        let wt = wire_times(&items[0], &out);
        assert!(wt.request_bytes > 8 * crate::workload::WIDE_LEN);
        assert!(wt.response_bytes < 100);
        assert!(wt.server_work_us() > 0.0);
    }
}
