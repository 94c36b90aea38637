//! One run of one workload: set the server child up, drive the two load
//! phases over loopback TCP, check every reply, and reduce what was
//! seen to the catalogue's metrics.
//!
//! An *untraced* run produces the end-to-end metrics. A *traced* run
//! records spans at every boundary the benchmark can stand at, adds the
//! in-process layer probes and reduces both to the per-layer metrics.
//! End-to-end metrics always come from the untraced run.

use std::io;
use std::time::{Duration, Instant};

use autobatch_ingress::IngressClient;

use crate::ledger::ledger;
use crate::loadgen::{
    run_closed, run_paced, split_schedule, window_rate, ClosedPlan, Conn, Counts, PacedOut,
    PacedPlan, Sample, Span, Target,
};
use crate::metrics::{bind, Metric, END_TO_END, PER_LAYER};
use crate::probes::{calibration_ms, layer_numbers, loopback_rtt_us};
use crate::server::Server;
use crate::stats::{median, midmean, percentile, poisson_schedule, samples_beyond, sort};
use crate::sys::peak_rss_mb;
use crate::workload::{build, oracle, pool, probe, Built, Expected, Item, Workload};

/// Requests each connection keeps outstanding in the closed loop: 64 in
/// all, four times the server's 16 lanes.
const DEPTH: usize = 32;
/// Closed-loop warm-up before each counted window: 300 ms, or 15% of the
/// segment when that is shorter (a `--quick` run).
const WARM_UP: Duration = Duration::from_millis(300);
/// Server children started only to time their set-up, before each child
/// that serves load; `setup_s` is the median of all 42.
const SETUP_REPS: usize = 7;
/// How long after a child's READY line its set-up probe connects; see
/// [`SetUp::time`].
const ACCEPTOR_HEAD_START: Duration = Duration::from_millis(2);
/// Server children that serve load in an untraced run, one after
/// another: each takes one saturation window and one paced pass. How
/// fast a server process runs is partly decided at its birth (where its
/// heap and thread stacks land, which cores its threads settle on): six
/// windows on one child agreed with each other to a few percent and
/// differed from the next child's by up to 20% on `binom_divergent`. A
/// run therefore samples six children and reports medians over them.
const CHILDREN: usize = 6;
/// Share of a child's time spent in its saturation window; its paced
/// pass takes the rest.
const SATURATION_SHARE: f64 = 0.5;
/// A run whose generator handed more than one request in a hundred to
/// the socket later than this is flagged: its paced latencies are partly
/// the generator's.
const LATENESS_LIMIT_MS: f64 = 1.0;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every generated input and of the arrival schedule.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// Traced (per-layer) or untraced (end-to-end) run.
    pub trace: bool,
}

/// What one run found.
#[derive(Debug)]
pub struct Outcome {
    /// The workload that ran.
    pub workload: Workload,
    /// Every reply matched its oracle and nothing failed.
    pub correct: bool,
    /// Requests sent, all phases.
    pub attempted: u64,
    /// Requests rejected, answered wrongly or timed out, all phases.
    pub failed: u64,
    /// The catalogue metrics of this kind of run.
    pub metrics: Vec<Metric>,
    /// Sent / ok / failed per phase.
    pub phases: Vec<(String, Counts)>,
    /// Things worth a line in the report (sample counts, flags).
    pub notes: Vec<String>,
    /// Some paced pass ran with a late generator.
    pub lateness_flagged: bool,
    /// Spans of a traced run.
    pub spans: Vec<Span>,
}

/// The server child with its two client connections.
struct Session<'a> {
    server: Server,
    conns: [Conn; 2],
    target: Target<'a>,
    epoch: Instant,
}

struct Saturation {
    counts: Counts,
    /// Completions per second in each window, both connections.
    rates: Vec<f64>,
    /// Server CPU milliseconds across the counted windows.
    cpu_ms: f64,
    /// Correct completions inside the counted windows.
    counted: usize,
    spans: Vec<Span>,
}

impl<'a> Session<'a> {
    /// Connect both clients to `server`, the `child`-th of this run
    /// (each child's connections walk the pool in their own order).
    fn open(
        server: Server,
        target: Target<'a>,
        epoch: Instant,
        seed: u64,
        child: u64,
    ) -> io::Result<Session<'a>> {
        let conns = [
            Conn::connect(server.addr, 0, seed, child)?,
            Conn::connect(server.addr, 1, seed, child)?,
        ];
        Ok(Session {
            server,
            conns,
            target,
            epoch,
        })
    }

    /// Warm up, then hold both connections at [`DEPTH`] through one
    /// window per entry of `traced`.
    fn saturate(
        &mut self,
        warm_up: Duration,
        window: Duration,
        traced: &[bool],
        stagger: Duration,
    ) -> io::Result<Saturation> {
        let begin = Instant::now() + Duration::from_millis(20);
        let plan = ClosedPlan {
            begin,
            start: begin + warm_up,
            window,
            traced: traced.to_vec(),
            depth: DEPTH,
        };
        // The second connection joins `stagger` later: how the first
        // requests fall into the server's first flushes decides how the
        // 64 outstanding split between alternating flushes from then on.
        let late = ClosedPlan {
            begin: begin + stagger,
            ..plan.clone()
        };
        let end = plan.start + window * traced.len() as u32;
        let (target, epoch) = (self.target, self.epoch);
        let server = &mut self.server;
        let [c0, c1] = &mut self.conns;
        let (a, b, cpu_s) = std::thread::scope(|s| {
            let h0 = s.spawn(|| run_closed(c0, &target, &plan, epoch));
            let h1 = s.spawn(|| run_closed(c1, &target, &late, epoch));
            std::thread::sleep(plan.start.saturating_duration_since(Instant::now()));
            let cpu0 = server.cpu_seconds();
            std::thread::sleep(end.saturating_duration_since(Instant::now()));
            let cpu1 = server.cpu_seconds();
            let a = h0.join().expect("generator thread");
            let b = h1.join().expect("generator thread");
            (a, b, cpu0.and_then(|c0| Ok(cpu1? - c0)))
        });
        let (a, b) = (a?, b?);
        let mut counts = a.counts;
        counts.add(b.counts);
        let mut spans = a.spans;
        spans.extend(b.spans);
        let mut completed_ns = a.completed_ns;
        completed_ns.extend(b.completed_ns);
        completed_ns.sort_unstable();
        let ns = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
        let rates = (0..traced.len() as u32)
            .map(|i| {
                window_rate(
                    &completed_ns,
                    ns(plan.start + window * i),
                    ns(plan.start + window * (i + 1)),
                )
            })
            .collect();
        let counted = completed_ns.partition_point(|&t| t < ns(end))
            - completed_ns.partition_point(|&t| t < ns(plan.start));
        Ok(Saturation {
            counts,
            rates,
            cpu_ms: cpu_s? * 1e3,
            counted,
            spans,
        })
    }

    /// One open-loop pass: `dues_ns` split between the connections.
    fn paced(&mut self, dues_ns: &[u64], traced: bool) -> io::Result<PacedOut> {
        let start = Instant::now() + Duration::from_millis(20);
        let plans = split_schedule(dues_ns).map(|dues_ns| PacedPlan {
            start,
            dues_ns,
            traced,
        });
        let (target, epoch) = (self.target, self.epoch);
        let [c0, c1] = &mut self.conns;
        let (a, b) = std::thread::scope(|s| {
            let h0 = s.spawn(|| run_paced(c0, &target, &plans[0], epoch));
            let h1 = s.spawn(|| run_paced(c1, &target, &plans[1], epoch));
            (
                h0.join().expect("generator thread"),
                h1.join().expect("generator thread"),
            )
        });
        let (mut out, b) = (a?, b?);
        out.counts.add(b.counts);
        out.samples.extend(b.samples);
        out.lateness_ms.extend(b.lateness_ms);
        out.spans.extend(b.spans);
        Ok(out)
    }
}

/// How late the generator handed requests to the socket, pooled over
/// the run's passes: p99, maximum, and whether the p99 is over the limit.
/// Pooled, because on a shared host a single 50 ms stall of the whole
/// machine puts a few dozen consecutive requests late in one pass
/// without saying anything about the generator.
fn lateness(passes: &[PacedOut]) -> (f64, f64, bool) {
    let mut l: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.lateness_ms.iter().copied())
        .collect();
    sort(&mut l);
    let p99 = percentile(&l, 0.99);
    (
        p99,
        l.last().copied().unwrap_or(0.0),
        p99 > LATENESS_LIMIT_MS,
    )
}

fn phase_totals(phases: &[(String, Counts)]) -> (u64, u64) {
    phases.iter().fold((0, 0), |(sent, failed), (_, c)| {
        // A request with no verdict (lost without even timing out)
        // would show as sent > ok + failed; count it as failed too.
        (sent + c.sent, failed + (c.sent - c.ok))
    })
}

/// Run one workload once. Everything generated comes from `opts.seed`.
///
/// # Errors
///
/// Socket, child-process and `/proc` failures. A wrong or missing reply
/// is not an error: it is counted, and the outcome reads incorrect.
pub fn run(opts: Options) -> io::Result<Outcome> {
    let w = opts.workload;
    let epoch = Instant::now();
    // The pool and its oracle are made before anything is timed and
    // outside `setup_s`: they are the benchmark's work, not the server's.
    let built = build(w);
    let items = pool(w, opts.seed, &built);
    let (expected, pool_grads): (Vec<Expected>, u64) = oracle(w, &built, &items);
    let target = Target {
        pool: &items,
        expected: &expected,
    };
    if opts.trace {
        run_traced(opts, epoch, target, &built, pool_grads)
    } else {
        run_untraced(opts, epoch, target, &built)
    }
}

/// What the children that only set up and stop found.
#[derive(Default)]
struct SetUp {
    /// Spawn to first correct reply, seconds, one per child.
    first_reply_s: Vec<f64>,
    /// Child start to listening as the child measured it, seconds.
    listening_s: Vec<f64>,
    counts: Counts,
}

impl SetUp {
    /// Time `reps` server children from spawn to their first correct
    /// reply to `probe`, each on a fresh connection.
    ///
    /// Set-up ends at the first reply and not at `listening` because that
    /// is when a user has a server: `IngressServer::start` returns before
    /// its engine thread has built the fleet (nearly all of
    /// `nuts_logistic`'s 55 ms), and whether that thread then runs beside
    /// the main thread or in its place made the child's own
    /// start-to-listening time bimodal (0.3 or 0.8 ms on
    /// `binom_divergent`, the mix drifting with the host: medians of 81
    /// children read 0.36 and 0.51 ms in two sets of runs of one build).
    fn time(&mut self, w: Workload, probe: &Item, want: &Expected, reps: usize) -> io::Result<()> {
        for _ in 0..reps {
            let t0 = Instant::now();
            let server = Server::spawn(w)?;
            // The server's acceptor polls a non-blocking listener every
            // 10 ms. A connection made the instant the child says READY
            // beat its first poll in one child out of seven and was
            // answered 10 ms sooner than the rest; connecting after that
            // poll makes every child wait out the one sleep, as a user
            // who connects at any later time does on average.
            std::thread::sleep(ACCEPTOR_HEAD_START);
            let mut client = IngressClient::connect(server.addr).map_err(io::Error::other)?;
            let reply = client.call(0, probe.seed, &probe.inputs);
            self.first_reply_s.push(t0.elapsed().as_secs_f64());
            self.listening_s.push(server.setup_s);
            self.counts.sent += 1;
            match reply {
                Ok(r) if want.matches(&r.outputs) => self.counts.ok += 1,
                _ => self.counts.failed += 1,
            }
            drop(client);
            server.shutdown()?;
        }
        Ok(())
    }
}

fn run_untraced(
    opts: Options,
    epoch: Instant,
    target: Target<'_>,
    built: &Built,
) -> io::Result<Outcome> {
    let w = opts.workload;
    let probe = probe(w, built);
    let (want, _) = oracle(w, built, std::slice::from_ref(&probe));
    let mut set_up = SetUp::default();

    let share = opts.seconds / CHILDREN as f64;
    let segment = Duration::from_secs_f64(share * SATURATION_SHARE);
    let warm_up = WARM_UP.min(segment.mul_f64(0.15));
    let window = segment - warm_up;
    let pass_s = share * (1.0 - SATURATION_SHARE);
    let pass_n = ((w.rate_rps() * pass_s).round() as usize).max(2);
    // One schedule for the run, cut into a stretch per pass. With the
    // same stretch repeated six times, the luck of one stretch of ~140
    // arrivals decided on which side of the delayed-ACK step at 40 ms the
    // median of `nuts_logistic` fell, and seeds differed by 18%.
    let schedule = poisson_schedule(opts.seed, w.rate_rps(), pass_n * CHILDREN);

    let mut stagger = crate::stats::Rng::new(opts.seed, 4);
    let mut rates = Vec::new();
    let mut sat_counts = Counts::default();
    let (mut cpu_ms, mut counted) = (0.0, 0.0);
    let mut passes: Vec<PacedOut> = Vec::new();
    let mut rss = Vec::new();
    for child in 0..CHILDREN as u64 {
        // Set-up children before every load child and not all at the
        // start: the host speeds up and slows down over seconds, and a
        // four-second block of them sampled one such spell.
        set_up.time(w, &probe, &want[0], SETUP_REPS)?;
        let server = Server::spawn(w)?;
        let mut session = Session::open(server, target, epoch, opts.seed, child)?;
        let st = Duration::from_micros(stagger.below(20_000));
        let sat = session.saturate(warm_up, window, &[false], st)?;
        rates.push(sat.rates[0]);
        sat_counts.add(sat.counts);
        cpu_ms += sat.cpu_ms;
        counted += sat.counted as f64;
        let stretch = &schedule[child as usize * pass_n..][..pass_n];
        let from = stretch[0].saturating_sub(1_000_000);
        let dues: Vec<u64> = stretch.iter().map(|due| due - from).collect();
        passes.push(session.paced(&dues, false)?);
        rss.push(peak_rss_mb(session.server.pid())?);
        let Session { server, conns, .. } = session;
        drop(conns);
        server.shutdown()?;
    }

    let window_rates: Vec<String> = rates.iter().map(|r| format!("{r:.0}")).collect();
    let mut latencies: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.samples.iter().map(|s| s.latency_ms))
        .collect();
    sort(&mut latencies);
    let (late_p99, late_max, flagged) = lateness(&passes);
    let mut phases = vec![
        ("set-up probes".to_string(), set_up.counts),
        ("saturation".to_string(), sat_counts),
    ];
    phases.extend(
        passes
            .iter()
            .enumerate()
            .map(|(i, p)| (format!("paced-{}", i + 1), p.counts)),
    );
    let (attempted, failed) = phase_totals(&phases);
    let metrics = bind(
        END_TO_END,
        &[
            // The mean and not the median of the windows: they differ by
            // 30-40% within a run (see CHILDREN), and over ten seeds the
            // mean spread less than the median in every set measured.
            (
                "throughput_rps",
                rates.iter().sum::<f64>() / rates.len() as f64,
            ),
            ("midmean_latency_ms", midmean(&latencies)),
            ("cpu_ms_per_req", cpu_ms / counted.max(1.0)),
            ("peak_rss_mb", median(&mut rss)),
            ("setup_s", median(&mut set_up.first_reply_s)),
        ],
    );
    Ok(Outcome {
        workload: w,
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        phases,
        notes: vec![
            format!(
                "saturation: {CHILDREN} windows of {:.2} s, one per server child, 2 connections x \
                 {DEPTH} outstanding: {} rps",
                window.as_secs_f64(),
                window_rates.join(", ")
            ),
            format!(
                "paced: {CHILDREN} passes at {} rps, one per server child; {} samples pooled: mean \
                 {:.3} ms, p50 {:.3} ms, p99 {:.3} ms with {} samples beyond it (none gated); \
                 generator lateness p99 {late_p99:.3} ms, max {late_max:.3} ms",
                w.rate_rps(),
                latencies.len(),
                latencies.iter().sum::<f64>() / latencies.len().max(1) as f64,
                percentile(&latencies, 0.50),
                percentile(&latencies, 0.99),
                samples_beyond(latencies.len(), 0.99),
            ),
            format!(
                "set-up: {} children, spawn to first correct reply; child start to \
                 listening, as the children measured it: median {:.3} ms (not gated)",
                SETUP_REPS * CHILDREN,
                median(&mut set_up.listening_s) * 1e3
            ),
            format!(
                "failed_share {:.6}",
                failed as f64 / attempted.max(1) as f64
            ),
        ],
        lateness_flagged: flagged,
        spans: Vec::new(),
    })
}

fn run_traced(
    opts: Options,
    epoch: Instant,
    target: Target<'_>,
    built: &Built,
    pool_grads: u64,
) -> io::Result<Outcome> {
    let w = opts.workload;
    let server = Server::spawn(w)?;

    // The deadline path: one request at a time on an otherwise idle
    // server waits out `max_wait` before its batch of one launches.
    let mut lone = IngressClient::connect(server.addr).map_err(io::Error::other)?;
    let mut lone_counts = Counts::default();
    let mut lone_ms = Vec::new();
    for (i, (item, want)) in target.pool.iter().zip(target.expected).take(5).enumerate() {
        let t0 = Instant::now();
        let reply = lone.call(i as u64, item.seed, &item.inputs);
        lone_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        lone_counts.sent += 1;
        match reply {
            Ok(r) if want.matches(&r.outputs) => lone_counts.ok += 1,
            _ => lone_counts.failed += 1,
        }
    }
    drop(lone);

    let mut session = Session::open(server, target, epoch, opts.seed, 0)?;
    // Untraced and traced windows alternate on the same warm server, so
    // the tracing overhead is a difference within one run.
    let window = Duration::from_secs_f64(opts.seconds * 0.04);
    let sat = session.saturate(
        Duration::from_secs(1),
        window,
        &[false, true, false, true],
        Duration::ZERO,
    )?;
    let pass_s = opts.seconds * 0.25;
    let pass_n = ((w.rate_rps() * pass_s).round() as usize).max(2);
    let pass = session.paced(&poisson_schedule(opts.seed, w.rate_rps(), pass_n), true)?;

    let Session { server, conns, .. } = session;
    drop(conns);
    let stats = server.shutdown()?;
    let stat = |key: &str| stats.get(key).copied().unwrap_or(0) as f64;

    let untraced_rps = (sat.rates[0] + sat.rates[2]) / 2.0;
    let traced_rps = (sat.rates[1] + sat.rates[3]) / 2.0;

    let layers = layer_numbers(w, built, target.pool);
    let l = ledger(untraced_rps, &layers.onion, layers.wire_work_us);

    let column = |f: fn(&Sample) -> f64| {
        let mut v: Vec<f64> = pass.samples.iter().map(f).collect();
        sort(&mut v);
        v
    };
    let latency = column(|s| s.latency_ms);
    let queue = column(|s| s.queue_ms);
    let post_admit = column(|s| s.latency_ms - s.queue_ms);
    let (late_p99, late_max, flagged) = lateness(std::slice::from_ref(&pass));

    let phases = vec![
        ("lone-calls".to_string(), lone_counts),
        ("saturation".to_string(), sat.counts),
        ("paced-traced".to_string(), pass.counts),
    ];
    let (attempted, failed) = phase_totals(&phases);
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let n_pool = target.pool.len() as f64;

    let mut values = layers.values;
    values.extend([
        ("failed_share", failed as f64 / attempted.max(1) as f64),
        ("p50_latency_ms", percentile(&latency, 0.50)),
        ("p99_latency_ms", percentile(&latency, 0.99)),
        ("nuts.grads_per_req", pool_grads as f64 / n_pool),
        ("ingress.lone_call_ms", median(&mut lone_ms)),
        ("ingress.queue_wait_p50_ms", percentile(&queue, 0.50)),
        ("ingress.queue_wait_p99_ms", percentile(&queue, 0.99)),
        ("ingress.post_admit_p50_ms", percentile(&post_admit, 0.50)),
        ("ingress.peak_buffered", stat("peak_buffered")),
        ("ingress.shed", stat("shed")),
        ("ingress.rejected", stat("rejected")),
        ("ingress.failed", stat("failed")),
        ("ledger.e2e_us", l.e2e_us),
        ("ledger.ingress_self_us", l.ingress_self_us),
        ("ledger.supervisor_self_us", l.supervisor_self_us),
        ("ledger.shard_self_us", l.shard_self_us),
        ("ledger.batch_server_self_us", l.batch_server_self_us),
        ("ledger.vm_admit_us", l.vm_admit_us),
        ("ledger.vm_step_us", l.vm_step_us),
        ("ledger.vm_retire_us", l.vm_retire_us),
        ("ledger.unattributed_share", l.unattributed_share),
        ("loadgen.lateness_p99_ms", late_p99),
        ("loadgen.lateness_max_ms", late_max),
        ("env.loopback_rtt_us", loopback_rtt_us()?),
        ("env.calibration_ms", calibration_ms()),
        ("env.nproc", nproc as f64),
        (
            "trace.overhead_share",
            (untraced_rps - traced_rps) / untraced_rps,
        ),
    ]);
    let metrics = bind(PER_LAYER, &values);

    let mut spans = sat.spans;
    spans.extend(pass.spans);
    spans.extend(layers.spans);
    Ok(Outcome {
        workload: w,
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        phases,
        notes: vec![
            format!(
                "saturation: untraced/traced windows alternate, {:.2} s each: {untraced_rps:.1} vs {traced_rps:.1} rps",
                window.as_secs_f64()
            ),
            format!(
                "paced (traced): {} samples at {} rps, {} beyond p99; server completed {} \
                 requests in all",
                pass.samples.len(),
                w.rate_rps(),
                samples_beyond(pass.samples.len(), 0.99),
                stat("completed")
            ),
            format!(
                "replay: first {} pool requests; ledger rows sum to e2e {:.1} us/request",
                w.replay_n(),
                l.e2e_us
            ),
        ],
        lateness_flagged: flagged,
        spans,
    })
}
