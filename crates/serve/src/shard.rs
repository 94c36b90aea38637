//! Sharded multi-worker serving: scaling the batch server across host
//! threads, not just lanes.
//!
//! A single [`BatchServer`] saturates one host thread: every superstep
//! is host control (block selection, masking) followed by one fused
//! device launch. [`ShardedServer`] partitions the request stream across
//! N shards, each owning its own `BatchServer` (and so its own
//! `PcMachine`), and runs them concurrently — the Send-safe machine
//! handoff asserted in `autobatch-core`.
//!
//! Four design points:
//!
//! - **Routing** is least-loaded: each shard's load is its live member
//!   count from [`Trace`] membership accounting plus its queue depth, so
//!   the routing signal comes from the same accounting that prices
//!   launches. Ties break toward the lowest shard index, which makes
//!   routing — and therefore the whole sharded run — deterministic.
//! - **Aggregation** preserves per-request ordering: every submission
//!   gets a global sequence number, and [`ShardedServer::take_ready`]
//!   merges the shards' completions back into submission order.
//! - **Poison/drain**: one shard's execution error must not lose another
//!   shard's completed work. A failed shard's already-completed
//!   responses are salvaged into the shared ready buffer, and routing
//!   skips poisoned shards from then on. Its queued requests come back
//!   from [`ShardedServer::respawn_shard`], which is how a
//!   [`Supervisor`](crate::Supervisor) re-routes them.
//! - **One drive, one crew of threads.** Host control per superstep is
//!   what batching has to amortise, so the runtime must not add to it:
//!   a call to [`ShardedServer::run_until_idle_with`] starts its worker
//!   threads once — one per busy shard, less the one the caller runs
//!   itself — and each runs its shard to idle on its own. Workers report
//!   only a change of state (idle, deadline-blocked, errored, panicked)
//!   and the fleet meets at a parked barrier only to advance the
//!   virtual clock past a deadline or, under
//!   [`SchedulingPolicy::PcAffinity`], to rebalance between quanta.
//!   Cancellations reach a running shard through a per-shard inbox
//!   within one quantum of supersteps; a panicking worker poisons its
//!   own shard and is always reported. The contract is spelled out on
//!   [`ShardedServer::run_until_idle_with`].

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use autobatch_accel::{Backend, Trace};
use autobatch_chaos::{FaultPlan, FaultPoint};
use autobatch_core::{ExecOptions, KernelRegistry};
use autobatch_ir::analysis::{analyze_pcab, PcabReport};
use autobatch_ir::pcab::Program;

use crate::affinity::{plan_migrations, plan_splits, plan_steals, ShardView};
use crate::{
    AdmissionPolicy, AffinityConfig, BatchServer, Request, RequestBudget, Response, Result,
    SchedulingPolicy, ServeError,
};

/// Supersteps a shard runs between two looks at its cancel inbox under
/// default scheduling. With [`COORDINATOR_WAKE`], the bound on how
/// stale a cooperative cancellation can go before its lane is evicted.
const CANCEL_QUANTUM: u64 = 64;

/// How long the coordinator of a drive sleeps between two calls of the
/// cancellation hook while it has no shard of its own to run and waits
/// for the workers to report — parked on a condvar, never spinning.
const COORDINATOR_WAKE: Duration = Duration::from_millis(1);

#[cfg(test)]
thread_local! {
    /// Threads started by drives on the calling thread, for the
    /// thread-budget tests.
    static THREADS_SPAWNED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Recover a human-readable message from a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One worker's state: its server, its private trace, and the last error
/// it surfaced (poisoning or recoverable).
#[derive(Debug)]
struct Shard<'p> {
    server: BatchServer<'p>,
    trace: Trace,
    last_error: Option<ServeError>,
    /// Sticky copy of the most recent error ever surfaced — unlike
    /// `last_error` it survives later successful runs and respawns, so
    /// health reporting can say *why* a shard was last respawned.
    fault_record: Option<ServeError>,
    /// How many times this slot's server has been rebuilt.
    respawns: u64,
    /// Queued requests this slot took from a deeper queue (work
    /// stealing), over the slot's lifetime.
    steals: u64,
}

/// Observability snapshot of one shard slot, for fleet health reporting
/// (see [`ShardedServer::health`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardHealth {
    /// Times this slot's `BatchServer` + `PcMachine` were rebuilt.
    pub respawns: u64,
    /// The most recent error the slot ever surfaced (sticky across
    /// respawns and later successes), if any.
    pub last_error: Option<ServeError>,
    /// Whether the slot can currently accept and run work.
    pub healthy: bool,
    /// Lanes the current server evicted under governance (budget
    /// blowups + cancellations). Resets when the slot is respawned —
    /// it describes the live machine, not the slot's lifetime.
    pub evictions: u64,
    /// Supersteps charged across the lanes currently in flight on this
    /// slot — the live budget spend a dashboard watches climb.
    pub spent_supersteps: u64,
    /// Queued requests this slot stole from deeper queues under
    /// [`SchedulingPolicy::PcAffinity`], over the slot's lifetime
    /// (respawns included). Lane migrations are counted by the shard's
    /// [`Trace`] (`members_migrated_in` / `_out`).
    pub steals: u64,
}

impl Shard<'_> {
    /// Routing load: live members per membership accounting + queued.
    fn load(&self) -> usize {
        self.trace.live_members() as usize + self.server.pending()
    }

    fn poisoned(&self) -> bool {
        self.server.poisoned().is_some()
    }

    /// Whether the shard holds a request that has not reached a
    /// terminal outcome (queued or in flight).
    fn has_work(&self) -> bool {
        self.server.pending() > 0 || self.server.in_flight() > 0
    }
}

/// A serving runtime that partitions requests across worker threads,
/// each owning its own [`BatchServer`] + `PcMachine`.
///
/// Results are deterministic: routing is a pure function of submission
/// order and shard loads, each shard's execution is deterministic, and
/// aggregation orders responses by submission sequence — thread
/// scheduling cannot perturb anything the caller observes. Per-request
/// results are bit-identical to an unsharded run because every lane's
/// draws are keyed by the request seed, not by placement.
///
/// # Examples
///
/// ```
/// use autobatch_accel::Backend;
/// use autobatch_core::{lower, KernelRegistry, LoweringOptions, ExecOptions};
/// use autobatch_ir::build::fibonacci_program;
/// use autobatch_serve::{AdmissionPolicy, Request, ShardedServer};
/// use autobatch_tensor::Tensor;
///
/// let (program, _) = lower(&fibonacci_program(), LoweringOptions::default())?;
/// let policy = AdmissionPolicy::JoinAtEntry { max_batch: 2, min_utilization: 1.0 };
/// let mut server = ShardedServer::new(
///     &program,
///     KernelRegistry::new(),
///     ExecOptions::default(),
///     policy,
///     2,
///     Backend::hybrid_cpu(),
/// )?;
/// for (id, n) in [(0u64, 6i64), (1, 9), (2, 3)] {
///     server.submit(Request { id, inputs: vec![Tensor::from_i64(&[n], &[1])?], seed: id })?;
/// }
/// let done = server.run_until_idle()?;
/// // Aggregation preserves submission order across shards.
/// let ids: Vec<u64> = done.iter().map(|r| r.id).collect();
/// assert_eq!(ids, vec![0, 1, 2]);
/// assert_eq!(done[1].outputs[0].as_i64()?, &[55]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct ShardedServer<'p> {
    shards: Vec<Shard<'p>>,
    backend: Backend,
    /// Construction inputs, kept so a dead shard can be rebuilt in
    /// place ([`ShardedServer::respawn_shard`]) with a fresh
    /// `BatchServer` + `PcMachine`.
    program: &'p Program,
    /// The program's static verification report: the fleet analyses the
    /// program once, and every shard, first or respawned, shares it.
    report: PcabReport,
    registry: KernelRegistry,
    opts: ExecOptions,
    policy: AdmissionPolicy,
    /// How requests are routed and whether work moves between shards
    /// once placed ([`ShardedServer::set_scheduling`]).
    scheduling: SchedulingPolicy,
    /// The fleet clock high-water mark, replayed onto respawned shards.
    clock: u64,
    /// Next fault-stream epoch handed to a respawned shard, so a
    /// deterministic [`FaultPlan`](autobatch_chaos::FaultPlan) does not
    /// re-kill the replacement at the exact same superstep forever.
    next_fault_epoch: u64,
    /// Next chaos round: the counter behind worker-panic and
    /// worker-slowness injection, drawn once per drive under default
    /// scheduling and once per quantum round under PC-affinity.
    fault_round: u64,
    /// Lifetime completions on servers that were since respawned.
    retired_completed: u64,
    /// Peak queue depth on servers that were since respawned.
    retired_peak: usize,
    /// Governance evictions on servers that were since respawned.
    retired_evictions: u64,
    /// Governance failures salvaged from respawned shards, awaiting
    /// [`ShardedServer::take_failed`].
    failed: Vec<(u64, ServeError)>,
    /// Per-request resource ceilings (mirrors each shard's
    /// [`BatchServer::set_budget`]); kept here so a respawned shard
    /// re-enforces the same budget.
    budget: RequestBudget,
    /// Next global submission sequence number.
    next_seq: u64,
    /// Request id → submission sequence numbers, FIFO per id. Unique
    /// ids give strict per-request ordering; duplicate in-flight ids
    /// occupy that id's submission slots in completion order (the
    /// server cannot tell twin requests apart), so callers that need
    /// strict request↔response pairing must use unique ids.
    order: BTreeMap<u64, VecDeque<u64>>,
    /// Completed responses awaiting [`ShardedServer::take_ready`],
    /// tagged with their submission sequence.
    ready: Vec<(u64, Response)>,
}

impl<'p> ShardedServer<'p> {
    /// Create a sharded server: `workers` shards, each a [`BatchServer`]
    /// under `policy`, each priced against its own [`Trace`] of
    /// `backend`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadPolicy`] if `workers` is zero or the
    /// per-shard policy is unusable.
    pub fn new(
        program: &'p Program,
        registry: KernelRegistry,
        opts: ExecOptions,
        policy: AdmissionPolicy,
        workers: usize,
        backend: Backend,
    ) -> Result<ShardedServer<'p>> {
        if workers == 0 {
            return Err(ServeError::BadPolicy(
                "a sharded server needs at least one worker".into(),
            ));
        }
        let base_epoch = opts.fault.epoch;
        let report = analyze_pcab(program);
        let shards = (0..workers)
            .map(|i| {
                // Each shard gets its own fault-stream epoch so the
                // execution-fault schedules of sibling machines are
                // independent (an inert plan is unaffected).
                let shard_opts = ExecOptions {
                    fault: opts.fault.with_epoch(base_epoch + i as u64),
                    ..opts
                };
                Ok(Shard {
                    server: BatchServer::with_report(
                        program,
                        registry.clone(),
                        shard_opts,
                        policy,
                        &report,
                    )?,
                    trace: Trace::new(backend),
                    last_error: None,
                    fault_record: None,
                    respawns: 0,
                    steals: 0,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(ShardedServer {
            shards,
            backend,
            program,
            report,
            registry,
            opts,
            policy,
            scheduling: SchedulingPolicy::default(),
            clock: 0,
            next_fault_epoch: base_epoch + workers as u64,
            fault_round: 0,
            retired_completed: 0,
            retired_peak: 0,
            retired_evictions: 0,
            failed: Vec::new(),
            budget: RequestBudget::unlimited(),
            next_seq: 0,
            order: BTreeMap::new(),
            ready: Vec::new(),
        })
    }

    /// Advance every shard's virtual clock to `now` (monotonic). See
    /// [`BatchServer::set_clock`]. Respawned shards inherit the high-
    /// water mark, so a rebuild never turns the clock back.
    pub fn set_clock(&mut self, now: u64) {
        self.clock = self.clock.max(now);
        for s in &mut self.shards {
            s.server.set_clock(now);
        }
    }

    /// Set the per-request resource ceilings every shard enforces at
    /// superstep boundaries (see [`RequestBudget`]). Respawned shards
    /// inherit the budget, so a rebuild never un-governs the fleet.
    pub fn set_budget(&mut self, budget: RequestBudget) {
        self.budget = budget;
        for s in &mut self.shards {
            s.server.set_budget(budget);
        }
    }

    /// Request cooperative cancellation of a request anywhere in the
    /// fleet (see [`BatchServer::cancel`]). Returns `false` when no
    /// shard knows the id — already answered, or never submitted.
    pub fn cancel(&mut self, id: u64) -> bool {
        self.shards.iter_mut().any(|s| s.server.cancel(id))
    }

    /// Drain the typed terminal failures governance produced across the
    /// fleet (budget evictions and cancellations), in shard-index order,
    /// including failures salvaged from shards that were since
    /// respawned. Each drained id's submission sequence is released —
    /// the request will never produce a response, so holding its slot
    /// would mis-order a later reuse of the id.
    pub fn take_failed(&mut self) -> Vec<(u64, ServeError)> {
        for i in 0..self.shards.len() {
            self.salvage_failed(i);
        }
        std::mem::take(&mut self.failed)
    }

    /// Move shard `i`'s governance failures into the fleet buffer,
    /// releasing each id's submission sequence as it lands.
    fn salvage_failed(&mut self, i: usize) {
        for (id, e) in self.shards[i].server.take_failed() {
            Self::pop_seq(&mut self.order, id);
            self.failed.push((id, e));
        }
    }

    /// Lanes evicted under governance over the fleet's lifetime
    /// (including on servers since respawned — unlike
    /// [`ShardHealth::evictions`], which is per-live-server).
    pub fn evictions(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.server.evictions())
            .sum::<u64>()
            + self.retired_evictions
    }

    /// Select the fleet's scheduling policy (default
    /// [`SchedulingPolicy::LeastLoaded`]). Switching is safe between
    /// runs: scheduling changes only *where* requests execute — results
    /// and response order are placement-independent (lane draws are
    /// keyed by the request seed, and aggregation sorts by submission
    /// sequence).
    pub fn set_scheduling(&mut self, scheduling: SchedulingPolicy) {
        self.scheduling = scheduling;
    }

    /// The deepest any single shard's queue has ever been (including on
    /// servers since respawned).
    pub fn peak_pending(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.server.peak_pending())
            .max()
            .unwrap_or(0)
            .max(self.retired_peak)
    }

    /// Number of shards (at most this many threads run a drive, the
    /// caller's included).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Queued requests across all shards.
    pub fn pending(&self) -> usize {
        self.shards.iter().map(|s| s.server.pending()).sum()
    }

    /// Requests accepted by [`ShardedServer::submit`] over the server's
    /// lifetime. Counted at the router, not by summing the shards'
    /// counters: [`ShardedServer::resubmit`] hands moved requests to
    /// their new shard, which would double-count them.
    pub fn submitted(&self) -> u64 {
        self.next_seq
    }

    /// Requests completed over the server's lifetime (including on
    /// servers since respawned).
    pub fn completed(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.server.completed())
            .sum::<u64>()
            + self.retired_completed
    }

    /// Requests currently admitted into shard machines (fleet-wide).
    pub fn in_flight(&self) -> usize {
        self.shards.iter().map(|s| s.server.in_flight()).sum()
    }

    /// The routing load of shard `i`: live members (per [`Trace`]
    /// membership accounting) plus queue depth.
    pub fn shard_load(&self, i: usize) -> usize {
        self.shards[i].load()
    }

    /// The private execution trace of shard `i`.
    pub fn shard_trace(&self, i: usize) -> &Trace {
        &self.shards[i].trace
    }

    /// Indices of shards poisoned by an execution error. A poisoned
    /// shard refuses to run until [`ShardedServer::respawn_shard`]
    /// rebuilds it, which also hands back its queue for re-routing.
    pub fn poisoned_shards(&self) -> Vec<usize> {
        (0..self.shards.len())
            .filter(|&i| self.shards[i].poisoned())
            .collect()
    }

    /// The last error each shard surfaced, if any (poisoning or
    /// recoverable), by shard index.
    pub fn shard_errors(&self) -> Vec<(usize, ServeError)> {
        self.shards
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.last_error.clone().map(|e| (i, e)))
            .collect()
    }

    /// Per-slot health snapshot: respawn count, the most recent error
    /// ever surfaced (sticky across respawns), and current liveness.
    pub fn health(&self) -> Vec<ShardHealth> {
        self.shards
            .iter()
            .map(|s| ShardHealth {
                respawns: s.respawns,
                last_error: s.fault_record.clone(),
                healthy: !s.poisoned(),
                evictions: s.server.evictions(),
                spent_supersteps: s.server.spent_supersteps(),
                steals: s.steals,
            })
            .collect()
    }

    /// Total shard respawns over the fleet's lifetime.
    pub fn respawns(&self) -> u64 {
        self.shards.iter().map(|s| s.respawns).sum()
    }

    /// Tear down shard `i`'s server and rebuild it in place with a
    /// fresh `BatchServer` + `PcMachine` (same program, registry,
    /// options, policy and verification report; fleet clock and request
    /// budget restored; a fresh
    /// fault-stream epoch so a deterministic fault plan does not re-kill
    /// the replacement on schedule). The recovery move for a shard
    /// poisoned by an execution error or panic, or wedged by step-limit
    /// exhaustion.
    ///
    /// Work the old server had is triaged, never silently dropped:
    ///
    /// - **completed** responses are salvaged into the shared ready
    ///   buffer ([`ShardedServer::take_ready`] returns them);
    /// - **queued** requests (never admitted) are returned in
    ///   `(stranded, _)`, still holding their original submission
    ///   sequence — re-route them with [`ShardedServer::resubmit`];
    /// - **in-flight** requests (admitted, not retired) died with the
    ///   machine; their ids are returned in `(_, lost)` so a supervisor
    ///   can retry them from its own copies.
    pub fn respawn_shard(&mut self, i: usize) -> (Vec<Request>, Vec<u64>) {
        Self::harvest(&mut self.shards[i].server, &mut self.order, &mut self.ready);
        // Governance verdicts already reached are salvaged too: a
        // budget-evicted request's terminal failure must not be lost
        // (and then retried) just because its shard later died.
        self.salvage_failed(i);
        let lost = self.shards[i].server.in_flight_ids();
        let mut stranded = Vec::new();
        while let Some(r) = self.shards[i].server.reject() {
            stranded.push(r);
        }
        let epoch = self.next_fault_epoch;
        self.next_fault_epoch += 1;
        let opts = ExecOptions {
            fault: self.opts.fault.with_epoch(epoch),
            ..self.opts
        };
        let mut server = BatchServer::with_report(
            self.program,
            self.registry.clone(),
            opts,
            self.policy,
            &self.report,
        )
        .expect("policy and program were validated when the fleet was built");
        server.set_clock(self.clock);
        server.set_budget(self.budget);
        self.retired_completed += self.shards[i].server.completed();
        self.retired_peak = self.retired_peak.max(self.shards[i].server.peak_pending());
        self.retired_evictions += self.shards[i].server.evictions();
        self.shards[i] = Shard {
            server,
            trace: Trace::new(self.backend),
            last_error: None,
            fault_record: self.shards[i].fault_record.take(),
            respawns: self.shards[i].respawns + 1,
            steals: self.shards[i].steals,
        };
        (stranded, lost)
    }

    /// Re-route a request that was already accepted once (its original
    /// submission sequence is still on file, so aggregation order and
    /// the lifetime [`ShardedServer::submitted`] count are unchanged).
    ///
    /// # Errors
    ///
    /// As [`ShardedServer::submit`].
    pub fn resubmit(&mut self, request: Request) -> Result<()> {
        self.route(request)
    }

    /// Forget the pending submission sequence of one `id` whose request
    /// reached a terminal failure outside a shard (e.g. its retry
    /// budget ran out) — without this, a later reuse of the id would
    /// pop the dead request's slot and mis-order its response.
    pub(crate) fn abandon_seq(&mut self, id: u64) {
        Self::pop_seq(&mut self.order, id);
    }

    /// The fleet-wide trace: per-shard traces folded with
    /// [`Trace::merge_parallel`] — wall-clock is the slowest shard
    /// (shards overlap), launches/supersteps/membership/utilization are
    /// summed across the fleet.
    pub fn aggregated_trace(&self) -> Trace {
        let mut out = Trace::new(self.backend);
        for s in &self.shards {
            out.merge_parallel(&s.trace);
        }
        out
    }

    /// Enqueue a request on the least-loaded healthy shard.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadRequest`] on arity mismatch; if every
    /// shard is poisoned, the first shard's poison error.
    pub fn submit(&mut self, request: Request) -> Result<()> {
        let seq = self.next_seq;
        let id = request.id;
        self.route(request)?;
        // Only a successful enqueue consumes a sequence number.
        self.next_seq += 1;
        self.order.entry(id).or_default().push_back(seq);
        Ok(())
    }

    /// Route per the scheduling policy — least-loaded healthy shard
    /// (lowest index on ties), or PC-affinity packing
    /// ([`ShardedServer::affinity_target`]).
    fn route(&mut self, request: Request) -> Result<()> {
        let candidates: Vec<usize> = (0..self.shards.len())
            .filter(|&i| !self.shards[i].poisoned())
            .collect();
        let target = match self.scheduling {
            SchedulingPolicy::LeastLoaded => candidates
                .iter()
                .copied()
                .min_by_key(|&i| (self.shards[i].load(), i)),
            SchedulingPolicy::PcAffinity(cfg) => self.affinity_target(&candidates, cfg),
        };
        match target {
            Some(i) => self.shards[i].server.submit(request),
            None => Err(self
                .shards
                .iter()
                .find_map(|s| s.server.poisoned().cloned())
                .expect("no healthy shard implies a poisoned one")),
        }
    }

    /// PC-affinity routing: pack shards to capacity in submission
    /// order instead of spreading. Among *open* candidates (load below
    /// the packing threshold `ceil(capacity × pack)`), pick the shard
    /// with the most mass at the program's entry block — running lanes
    /// still at entry plus queued requests, which will join at entry —
    /// breaking ties toward lower load, then the lowest index. When no
    /// shard is open, fall back to least-loaded. Full batches share
    /// supersteps; spread ones pay the per-superstep host control many
    /// times over.
    fn affinity_target(&self, candidates: &[usize], cfg: AffinityConfig) -> Option<usize> {
        let cap = self.policy.max_batch().max(1);
        let open_cap = ((cap as f64) * cfg.pack).ceil().max(1.0) as usize;
        let entry = self.program.entry.0;
        candidates
            .iter()
            .copied()
            .filter(|&i| self.shards[i].load() < open_cap)
            .max_by_key(|&i| {
                let shard = &self.shards[i];
                let entry_mass = shard
                    .server
                    .pc_histogram()
                    .get(&entry)
                    .copied()
                    .unwrap_or(0)
                    + shard.server.pending();
                (
                    entry_mass,
                    std::cmp::Reverse(shard.load()),
                    std::cmp::Reverse(i),
                )
            })
            .or_else(|| {
                candidates
                    .iter()
                    .copied()
                    .min_by_key(|&i| (self.shards[i].load(), i))
            })
    }

    /// Drop and return the request at the head of shard `i`'s queue —
    /// the one a failed admission on that shard names. On a healthy
    /// shard this consumes the recorded error (the offender was the
    /// error), so [`ShardedServer::shard_errors`] stops reporting it;
    /// the sticky health record ([`ShardHealth::last_error`]) survives.
    pub fn reject_on(&mut self, shard: usize) -> Option<Request> {
        let rejected = self.shards[shard].server.reject();
        if rejected.is_some() && !self.shards[shard].poisoned() {
            self.shards[shard].last_error = None;
        }
        rejected
    }

    /// Take every completed response aggregated so far, in submission
    /// order — including responses salvaged from shards that later
    /// failed. The way to recover finished work after
    /// [`ShardedServer::run_until_idle`] reports a shard error.
    pub fn take_ready(&mut self) -> Vec<Response> {
        for shard in &mut self.shards {
            Self::harvest(&mut shard.server, &mut self.order, &mut self.ready);
        }
        self.ready.sort_by_key(|&(seq, _)| seq);
        std::mem::take(&mut self.ready)
            .into_iter()
            .map(|(_, r)| r)
            .collect()
    }

    /// Move a shard's completed responses into the fleet's ready
    /// buffer, tagged with their submission sequence. Never drives the
    /// machine, so it is safe on a poisoned shard too.
    fn harvest(
        server: &mut BatchServer<'p>,
        order: &mut BTreeMap<u64, VecDeque<u64>>,
        ready: &mut Vec<(u64, Response)>,
    ) {
        for r in server.take_ready() {
            ready.push((Self::pop_seq(order, r.id), r));
        }
    }

    fn pop_seq(order: &mut BTreeMap<u64, VecDeque<u64>>, id: u64) -> u64 {
        match order.get_mut(&id) {
            Some(q) => {
                let seq = q.pop_front().unwrap_or(u64::MAX);
                if q.is_empty() {
                    order.remove(&id);
                }
                seq
            }
            // Defensive: an id this server never assigned sorts last.
            None => u64::MAX,
        }
    }

    /// Drive every shard until the fleet is idle and return all
    /// completed responses in submission order:
    /// [`ShardedServer::run_until_idle_with`] under a hook that never
    /// cancels anything.
    ///
    /// # Errors
    ///
    /// As [`ShardedServer::run_until_idle_with`].
    pub fn run_until_idle(&mut self) -> Result<Vec<Response>> {
        self.run_until_idle_with(&mut Vec::new)
    }

    /// Drive every shard **concurrently** until the fleet is idle and
    /// return all completed responses in submission order. `poll` is
    /// the cooperative cancellation hook: every id it returns is
    /// cancelled on whichever shard holds it (as
    /// [`ShardedServer::cancel`], except that a mid-drive cancel is
    /// broadcast, so duplicate in-flight ids are all cancelled).
    ///
    /// # Threads
    ///
    /// One call is one *drive*. It opens one `std::thread::scope` and
    /// starts one thread per shard that has work, less one: the caller
    /// runs the first such shard itself and coordinates the rest. A
    /// drive with one busy shard (a 1-worker fleet always) runs inline,
    /// and a drive that finds no shard with work returns without
    /// starting anything. The threads live until the drive ends, and
    /// while they have nothing to run they are parked on a condvar —
    /// nothing in a drive spins.
    ///
    /// Under [`SchedulingPolicy::LeastLoaded`] (the default) no shard
    /// ever needs another: each worker runs its shard quantum after
    /// quantum (`CANCEL_QUANTUM` = 64 supersteps) until the shard is
    /// idle or deadline-blocked, and reports only then. The fleet meets
    /// at a barrier for one decision alone: when every live shard has
    /// reported and some are deadline-blocked, the fleet clock advances
    /// to the earliest pending deadline (the single-server fast-forward,
    /// taken fleet-wide) and the blocked shards are released again.
    /// Under [`SchedulingPolicy::PcAffinity`] the same workers park at
    /// that barrier after every quantum (`AffinityConfig::quantum`
    /// supersteps), because the rebalance between quanta — straggler
    /// migration, work stealing, batch splits (see [`crate::affinity`])
    /// — plans against a quiesced snapshot of the fleet. Results and
    /// response order are identical either way: scheduling only changes
    /// *where* lanes execute, and a lane's draws are keyed by its
    /// request seed, not its placement.
    ///
    /// # Cancellation latency
    ///
    /// `poll` is called before every leg, after each quantum of the
    /// caller's own shard, and every `COORDINATOR_WAKE` (1 ms) while
    /// the caller only waits. Ids go to a per-shard inbox that each
    /// worker drains before its next quantum, so a lane named by `poll`
    /// is evicted within one quantum of its shard's supersteps plus one
    /// wake interval. A request still queued on a deadline-blocked shard
    /// is dropped at the next barrier, before the clock moves.
    ///
    /// # Panic containment
    ///
    /// Every quantum runs under `catch_unwind`: a panic while driving
    /// one shard — a VM bug or an injected [`FaultPoint::WorkerPanic`] —
    /// becomes a typed [`ServeError::Panicked`] that poisons *that shard
    /// only*. A worker reports its leg from a drop guard, so even one
    /// that unwinds past the containment is reported (as panicked) and
    /// the drive never waits on a thread that will not answer. The
    /// poisoned shard's completed work is salvaged like any other
    /// failing shard's, and [`ShardedServer::respawn_shard`] puts the
    /// slot back in rotation. Shards already poisoned by an earlier
    /// call are skipped; their error is *not* re-raised, so healthy
    /// shards keep serving.
    ///
    /// # Errors
    ///
    /// If any shard errors this call, it leaves the drive, the healthy
    /// remainder drains, and the first such error (by shard index) is
    /// returned — but no completed work is lost: every response
    /// finished by any shard, including work a failing shard completed
    /// before its error, stays buffered for
    /// [`ShardedServer::take_ready`]. Recoverable per-shard errors
    /// (failed admissions, step-limit exhaustion) follow the
    /// [`BatchServer::run_until_idle`] contract shard-locally:
    /// [`ShardedServer::reject_on`] unblocks the named shard. If only
    /// errored shards still hold work, or no shard names a deadline to
    /// advance to, the drive stops — the recorded per-shard errors say
    /// why.
    pub fn run_until_idle_with(
        &mut self,
        poll: &mut dyn FnMut() -> Vec<u64>,
    ) -> Result<Vec<Response>> {
        let (quantum, affinity) = match self.scheduling {
            SchedulingPolicy::LeastLoaded => (CANCEL_QUANTUM, None),
            SchedulingPolicy::PcAffinity(cfg) => (cfg.quantum.max(1), Some(cfg)),
        };
        let n = self.shards.len();
        let fault = self.opts.fault;
        let cap = self.policy.max_batch().max(1);
        // Worker-level chaos: default scheduling draws one counter per
        // (call, shard), PC-affinity a fresh one per (round, shard).
        let first_round = self.fault_round;
        self.fault_round += 1;
        // The crew: shards that take part in this drive. Under affinity
        // work moves, so one busy shard enlists every healthy one.
        let any_work = self.shards.iter().any(|s| !s.poisoned() && s.has_work());
        let crew: Vec<bool> = (0..n)
            .map(|i| {
                let counter = first_round * n as u64 + i as u64;
                let s = &self.shards[i];
                !s.poisoned()
                    && (s.has_work()
                        || (affinity.is_some() && any_work)
                        || fault.fires(FaultPoint::WorkerSlow, counter)
                        || fault.fires(FaultPoint::WorkerPanic, counter))
            })
            .collect();
        for (s, &enlisted) in self.shards.iter_mut().zip(&crew) {
            // A healthy shard with nothing to do has nothing to report.
            if !enlisted && !s.poisoned() {
                s.last_error = None;
            }
        }
        let Some(mine) = crew.iter().position(|&enlisted| enlisted) else {
            for id in poll() {
                self.cancel(id);
            }
            return Ok(self.take_ready());
        };

        let ShardedServer {
            shards,
            order,
            ready,
            clock,
            fault_round: next_fault_round,
            ..
        } = self;
        let drive = Drive {
            slots: shards.iter_mut().map(Mutex::new).collect(),
            inboxes: (0..n).map(|_| Mutex::new(Vec::new())).collect(),
            quantum,
            one_quantum_legs: affinity.is_some(),
            fault,
        };
        let mut first_error: Option<ServeError> = None;
        std::thread::scope(|scope| {
            // One channel of legs to each worker, one of reports back.
            // A worker parks in `recv` between legs and leaves when its
            // sender is dropped — at the end of this closure, also when
            // it unwinds (a panicking `poll`), so the scope never waits
            // on a parked thread.
            let (report_tx, report_rx) = channel::<(usize, LegOutcome)>();
            let mut legs: Vec<Option<Sender<Option<u64>>>> = (0..n).map(|_| None).collect();
            for i in (mine + 1..n).filter(|&i| crew[i]) {
                let (legs_tx, legs_rx) = channel();
                legs[i] = Some(legs_tx);
                let (drive, report_tx) = (&drive, report_tx.clone());
                #[cfg(test)]
                THREADS_SPAWNED.with(|c| c.set(c.get() + 1));
                scope.spawn(move || drive.work(i, &legs_rx, &report_tx));
            }
            // Shards that errored during *this* call: out of the drive
            // until the caller triages (respawn/reject).
            let mut dead = vec![false; n];
            let mut reports: Vec<Option<LegOutcome>> = vec![None; n];
            let mut fault_round = Some(first_round);
            let mut first_leg = true;
            loop {
                // The barrier: every worker is parked, so the whole
                // fleet is the coordinator's until the next release.
                let runs: Vec<bool> = {
                    let mut guards: Vec<_> = drive.slots.iter().map(lock).collect();
                    let mut shards: Vec<&mut Shard<'p>> =
                        guards.iter_mut().map(|g| &mut ***g).collect();
                    let mut steps_total = 0u64;
                    for (i, outcome) in reports.iter_mut().enumerate() {
                        let Some(outcome) = outcome.take() else {
                            continue;
                        };
                        match Self::settle(shards[i], outcome, order, ready) {
                            Ok(steps) => steps_total += steps,
                            Err(e) => {
                                dead[i] = true;
                                first_error.get_or_insert(e);
                            }
                        }
                    }
                    let live: Vec<usize> = (0..n)
                        .filter(|&i| !dead[i] && !shards[i].poisoned())
                        .collect();
                    let mut go_on = first_leg || live.iter().any(|&i| shards[i].has_work());
                    if go_on && !first_leg {
                        let moved = match &affinity {
                            Some(cfg) => Self::rebalance(&mut shards, cap, cfg, &dead),
                            None => 0,
                        };
                        // A leg under default scheduling ends only when
                        // its shard cannot run, and a quantum round
                        // stalls when nothing stepped and nothing moved:
                        // either way every live shard still holding
                        // work is deadline-blocked. Advance the fleet
                        // clock to the earliest pending deadline
                        // (mirroring the single-server fast-forward), or
                        // stop if no shard names one — the fleet is
                        // wedged, and the per-shard errors say why.
                        if affinity.is_none() || (steps_total == 0 && moved == 0) {
                            let next = live
                                .iter()
                                .filter_map(|&i| shards[i].server.next_deadline())
                                .min();
                            match next {
                                Some(t) => {
                                    *clock = (*clock).max(t);
                                    for s in shards.iter_mut() {
                                        s.server.set_clock(t);
                                    }
                                }
                                None => go_on = false,
                            }
                        }
                    }
                    if go_on {
                        if !first_leg {
                            // Only a quantum round draws chaos again.
                            fault_round = affinity.map(|_| {
                                *next_fault_round += 1;
                                *next_fault_round - 1
                            });
                        }
                        drive.post(poll());
                    }
                    // Also lands what was posted while the last leg was
                    // out and no worker was left to read it.
                    for (i, s) in shards.iter_mut().enumerate() {
                        drive.drain(i, &mut s.server);
                    }
                    if !go_on {
                        break;
                    }
                    (0..n)
                        .map(|i| {
                            crew[i]
                                && !dead[i]
                                && !shards[i].poisoned()
                                && (first_leg || affinity.is_some() || shards[i].has_work())
                        })
                        .collect()
                };
                let mut out = 0;
                for i in (0..n).filter(|&i| i != mine && runs[i]) {
                    let released = legs[i]
                        .as_ref()
                        .is_some_and(|leg| leg.send(fault_round).is_ok());
                    if released {
                        out += 1;
                    } else {
                        // Its thread is gone (it unwound past its own
                        // containment in an earlier leg): never wait
                        // for it.
                        reports[i] = Some(Err(ServeError::Panicked {
                            what: "shard worker is gone".into(),
                        }));
                    }
                }
                if runs[mine] {
                    reports[mine] = Some(drive.leg(mine, fault_round, Some(&mut *poll)));
                }
                while out > 0 {
                    match report_rx.recv_timeout(COORDINATOR_WAKE) {
                        Ok((i, outcome)) => {
                            reports[i] = Some(outcome);
                            out -= 1;
                        }
                        // Parked, not spinning: wake only to ask the
                        // hook. (`report_tx` is alive in this scope, so
                        // the channel cannot disconnect.)
                        Err(_) => drive.post(poll()),
                    }
                }
                first_leg = false;
            }
        });
        match first_error {
            Some(e) => Err(e),
            None => Ok(self.take_ready()),
        }
    }

    /// Book one finished leg on its shard: record or clear the shard's
    /// error and move its completed responses into the fleet's ready
    /// buffer. Returns the supersteps the leg ran, or the error that
    /// takes the shard out of the drive.
    fn settle(
        shard: &mut Shard<'p>,
        outcome: LegOutcome,
        order: &mut BTreeMap<u64, VecDeque<u64>>,
        ready: &mut Vec<(u64, Response)>,
    ) -> LegOutcome {
        match &outcome {
            Ok(_) => shard.last_error = None,
            Err(e) => {
                // A worker that died outside its containment still has
                // to poison its shard: the machine may be mid-superstep.
                if matches!(e, ServeError::Panicked { .. }) && !shard.poisoned() {
                    shard.server.poison(e.clone());
                }
                shard.last_error = Some(e.clone());
                shard.fault_record = Some(e.clone());
            }
        }
        // Completed work is salvaged either way.
        Self::harvest(&mut shard.server, order, ready);
        outcome
    }

    /// One rebalance pass between quantum rounds: straggler migrations
    /// first, then work stealing, both planned against one consistent
    /// snapshot of the (quiesced) fleet. Returns how many lanes and
    /// requests moved. A migration whose eviction or injection fails is
    /// skipped (the plan raced a retirement), and a lane that cannot be
    /// injected is put back on its donor — rebalancing never loses
    /// work.
    fn rebalance(
        shards: &mut [&mut Shard<'p>],
        cap: usize,
        cfg: &AffinityConfig,
        dead: &[bool],
    ) -> usize {
        let views: Vec<ShardView> = shards
            .iter()
            .enumerate()
            .map(|(i, s)| ShardView {
                active: !dead[i] && !s.poisoned(),
                lanes: s
                    .server
                    .lane_pcs()
                    .into_iter()
                    .map(|(ticket, _, pc)| (ticket, pc))
                    .collect(),
                live: s.server.in_flight(),
                pending: s.server.pending(),
                steps: s.trace.supersteps(),
            })
            .collect();
        let mut moved = 0;
        // Straggler/consolidation migrations first, then queue steals,
        // then batch splits for shards still idle (the splits planner
        // no-ops whenever any queue is non-empty, so a thief never gets
        // both a steal and a split in one pass).
        let mut lane_moves = plan_migrations(&views, cap, cfg);
        lane_moves.extend(plan_splits(&views, cap, cfg));
        for m in lane_moves {
            let (donor, recipient) = Self::shard_pair(shards, m.from, m.to);
            let migrants = match donor
                .server
                .evict_lanes(&[m.ticket], Some(&mut donor.trace))
            {
                Ok(migrants) => migrants,
                Err(_) => continue,
            };
            for migrant in migrants {
                match recipient
                    .server
                    .admit_migrant(migrant, Some(&mut recipient.trace))
                {
                    Ok(()) => moved += 1,
                    Err(bounce) => {
                        // Hand the lane back to its donor; the donor
                        // held it a moment ago, so re-injection cannot
                        // fail structurally. If it somehow does, record
                        // the fault rather than panic the fleet.
                        let (migrant, _) = *bounce;
                        if let Err(bounce) =
                            donor.server.admit_migrant(migrant, Some(&mut donor.trace))
                        {
                            let e = bounce.1;
                            donor.last_error = Some(e.clone());
                            donor.fault_record = Some(e);
                        }
                    }
                }
            }
        }
        for s in plan_steals(&views, cap, cfg) {
            let (donor, thief) = Self::shard_pair(shards, s.from, s.to);
            let batch = donor.server.steal_queued(s.n);
            moved += batch.len();
            thief.steals += batch.len() as u64;
            thief.server.enqueue_stolen(batch);
        }
        moved
    }

    /// Borrow two distinct shards mutably at once.
    fn shard_pair<'a>(
        shards: &'a mut [&mut Shard<'p>],
        a: usize,
        b: usize,
    ) -> (&'a mut Shard<'p>, &'a mut Shard<'p>) {
        debug_assert_ne!(a, b);
        if a < b {
            let (left, right) = shards.split_at_mut(b);
            (&mut *left[a], &mut *right[0])
        } else {
            let (left, right) = shards.split_at_mut(a);
            (&mut *right[0], &mut *left[b])
        }
    }
}

/// How a leg ended for one shard: the supersteps it ran, or the error
/// that takes the shard out of the drive.
type LegOutcome = Result<u64>;

/// Lock a drive mutex, poisoned or not: every value these guard stays
/// valid at every step. (A *shard* left half-mutated by a panic is
/// marked through [`BatchServer::poison`], never through its lock.)
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What the coordinator and the workers of one drive share. A *leg* is
/// what a shard runs between two barriers: under default scheduling,
/// quanta until it is idle or deadline-blocked; under PC-affinity, one
/// quantum.
struct Drive<'a, 'p> {
    /// Every shard of the fleet. A worker holds its shard's lock for
    /// the length of a leg; the coordinator takes all of them at the
    /// barrier, when every worker is parked.
    slots: Vec<Mutex<&'a mut Shard<'p>>>,
    /// Per shard, cancellations posted while a leg is out.
    inboxes: Vec<Mutex<Vec<u64>>>,
    /// Supersteps per [`BatchServer::run_for`] call.
    quantum: u64,
    /// Whether a leg is a single quantum (PC-affinity) or runs until
    /// the shard cannot (default scheduling).
    one_quantum_legs: bool,
    fault: FaultPlan,
}

impl<'p> Drive<'_, 'p> {
    /// Broadcast cancellations to every shard's inbox: the coordinator
    /// cannot look into a shard that is out on a leg, and
    /// [`BatchServer::cancel`] ignores ids it does not hold.
    fn post(&self, ids: Vec<u64>) {
        if ids.is_empty() {
            return;
        }
        for inbox in &self.inboxes {
            lock(inbox).extend_from_slice(&ids);
        }
    }

    /// Apply the cancellations posted for shard `i`.
    fn drain(&self, i: usize, server: &mut BatchServer<'p>) {
        let ids = std::mem::take(&mut *lock(&self.inboxes[i]));
        for id in ids {
            server.cancel(id);
        }
    }

    /// Run one leg on shard `i`, rolling worker-level chaos against
    /// `fault_round` if the leg draws any. Cancellations are drained
    /// before every quantum; the coordinator passes its `poll` hook so
    /// that driving a shard of its own does not stop it listening.
    fn leg(
        &self,
        i: usize,
        fault_round: Option<u64>,
        mut poll: Option<&mut dyn FnMut() -> Vec<u64>>,
    ) -> LegOutcome {
        let mut slot = lock(&self.slots[i]);
        let shard: &mut Shard<'p> = &mut slot;
        // One fleet-unique counter per (round, shard): the chaos
        // schedule for worker-level faults.
        let counter = fault_round.map(|round| round * self.slots.len() as u64 + i as u64);
        if let Some(c) = counter.filter(|&c| self.fault.fires(FaultPoint::WorkerSlow, c)) {
            std::thread::sleep(Duration::from_micros(self.fault.delay_micros(c)));
        }
        let mut panic_at = counter.filter(|&c| self.fault.fires(FaultPoint::WorkerPanic, c));
        let mut steps = 0u64;
        loop {
            self.drain(i, &mut shard.server);
            let ran = catch_unwind(AssertUnwindSafe(|| {
                if let Some(c) = panic_at.take() {
                    panic!(
                        "injected fault at {} (counter {c})",
                        FaultPoint::WorkerPanic.name()
                    );
                }
                shard.server.run_for(self.quantum, Some(&mut shard.trace))
            }))
            .unwrap_or_else(|payload| {
                // The machine may be mid-superstep: poison the shard so
                // nothing drives it again before a respawn.
                let e = ServeError::Panicked {
                    what: panic_message(payload),
                };
                shard.server.poison(e.clone());
                Err(e)
            })?;
            steps += ran;
            if self.one_quantum_legs || ran < self.quantum {
                return Ok(steps);
            }
            if let Some(poll) = poll.as_mut() {
                self.post(poll());
            }
        }
    }

    /// A worker thread's life: park until the coordinator releases a
    /// leg (naming its chaos round), run it on shard `i`, report, and
    /// repeat until the coordinator hangs up.
    fn work(&self, i: usize, legs: &Receiver<Option<u64>>, reports: &Sender<(usize, LegOutcome)>) {
        for fault_round in legs {
            let mut report = Report {
                to: reports,
                shard: i,
                outcome: None,
            };
            report.outcome = Some(self.leg(i, fault_round, None));
        }
    }
}

/// Sends a worker's leg outcome when dropped — so a worker that unwinds
/// past its own containment still reports (as panicked), and the
/// coordinator never waits on a thread that will not answer.
struct Report<'r> {
    to: &'r Sender<(usize, LegOutcome)>,
    shard: usize,
    outcome: Option<LegOutcome>,
}

impl Drop for Report<'_> {
    fn drop(&mut self) {
        let outcome = self.outcome.take().unwrap_or_else(|| {
            Err(ServeError::Panicked {
                what: "shard worker died mid-leg".into(),
            })
        });
        // The coordinator holds the receiver for as long as any leg is
        // out; a failed send means nobody is waiting.
        let _ = self.to.send((self.shard, outcome));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autobatch_core::{lower, LoweringOptions, VmError};
    use autobatch_ir::build::fibonacci_program;
    use autobatch_tensor::Tensor;

    fn fib_request(id: u64, n: i64) -> Request {
        Request {
            id,
            inputs: vec![Tensor::from_i64(&[n], &[1]).unwrap()],
            seed: 1000 + id,
        }
    }

    fn sharded(
        policy: AdmissionPolicy,
        workers: usize,
        opts: ExecOptions,
        program: &Program,
    ) -> ShardedServer<'_> {
        ShardedServer::new(
            program,
            KernelRegistry::new(),
            opts,
            policy,
            workers,
            Backend::hybrid_cpu(),
        )
        .unwrap()
    }

    const NS: [i64; 10] = [14, 2, 9, 1, 12, 5, 16, 3, 10, 7];
    const FIB: [i64; 10] = [610, 2, 55, 1, 233, 8, 1597, 3, 89, 21];

    #[test]
    fn sharded_serving_is_correct_and_submission_ordered() {
        let (pc, _) = lower(&fibonacci_program(), LoweringOptions::default()).unwrap();
        for workers in [1, 2, 3, 4] {
            let policy = AdmissionPolicy::JoinAtEntry {
                max_batch: 3,
                min_utilization: 1.0,
            };
            let mut server = sharded(policy, workers, ExecOptions::default(), &pc);
            for (id, &n) in NS.iter().enumerate() {
                server.submit(fib_request(id as u64, n)).unwrap();
            }
            let done = server.run_until_idle().unwrap();
            // Submission order is preserved without any caller-side sort,
            // whatever the per-shard completion interleaving was.
            let ids: Vec<u64> = done.iter().map(|r| r.id).collect();
            assert_eq!(ids, (0..NS.len() as u64).collect::<Vec<_>>());
            let got: Vec<i64> = done
                .iter()
                .map(|r| r.outputs[0].as_i64().unwrap()[0])
                .collect();
            assert_eq!(got, FIB, "wrong results at {workers} workers");
            assert_eq!(server.completed(), NS.len() as u64);
        }
    }

    #[test]
    fn sharded_results_are_bit_identical_to_single_server() {
        // Placement cannot perturb results: lanes draw under the request
        // seed, not the shard or lane index.
        let (pc, _) = lower(&fibonacci_program(), LoweringOptions::default()).unwrap();
        let policy = AdmissionPolicy::JoinAtEntry {
            max_batch: 2,
            min_utilization: 1.0,
        };
        let mut single =
            BatchServer::new(&pc, KernelRegistry::new(), ExecOptions::default(), policy).unwrap();
        for (id, &n) in NS.iter().enumerate() {
            single.submit(fib_request(id as u64, n)).unwrap();
        }
        let mut reference = single.run_until_idle(None).unwrap();
        reference.sort_by_key(|r| r.id);
        for workers in [2, 4] {
            let mut server = sharded(policy, workers, ExecOptions::default(), &pc);
            for (id, &n) in NS.iter().enumerate() {
                server.submit(fib_request(id as u64, n)).unwrap();
            }
            let done = server.run_until_idle().unwrap();
            for (a, b) in reference.iter().zip(&done) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.outputs, b.outputs, "sharding perturbed request {}", a.id);
            }
        }
    }

    #[test]
    fn router_balances_queue_depth_across_shards() {
        let (pc, _) = lower(&fibonacci_program(), LoweringOptions::default()).unwrap();
        let policy = AdmissionPolicy::JoinAtEntry {
            max_batch: 4,
            min_utilization: 1.0,
        };
        let mut server = sharded(policy, 4, ExecOptions::default(), &pc);
        for id in 0..8u64 {
            server.submit(fib_request(id, 5)).unwrap();
        }
        for i in 0..4 {
            assert_eq!(server.shard_load(i), 2, "shard {i} unbalanced");
        }
        assert_eq!(server.pending(), 8);
    }

    #[test]
    fn one_shards_poison_does_not_lose_other_shards_work() {
        let (pc, _) = lower(&fibonacci_program(), LoweringOptions::default()).unwrap();
        let opts = ExecOptions {
            stack_depth: 16,
            ..ExecOptions::default()
        };
        // Serial per-shard batches make per-shard completion order
        // deterministic: shard 0 serves ids 0 then 2 (fib(2), then the
        // overflowing fib(40), with id 4 stranded behind it); shard 1
        // serves ids 1 and 3.
        let policy = AdmissionPolicy::DrainAndRefill { max_batch: 1 };
        let mut server = sharded(policy, 2, opts, &pc);
        for (id, n) in [(0u64, 2i64), (1, 5), (2, 40), (3, 7), (4, 9)] {
            server.submit(fib_request(id, n)).unwrap();
        }
        let err = server.run_until_idle().unwrap_err();
        assert!(
            matches!(err, ServeError::Vm(VmError::StackOverflow { .. })),
            "{err:?}"
        );
        assert_eq!(server.poisoned_shards(), vec![0]);
        // Every completed response survives — including shard 0's own
        // pre-error completion — in submission order.
        let ready = server.take_ready();
        let ids: Vec<u64> = ready.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 1, 3]);
        let got: Vec<i64> = ready
            .iter()
            .map(|r| r.outputs[0].as_i64().unwrap()[0])
            .collect();
        assert_eq!(got, vec![2, 8, 21], "fib(2), fib(5), fib(7)");
        // New work routes around the poisoned shard and keeps serving;
        // the dead shard's error is not re-raised. (The poisoned shard
        // still carries its never-retired member as load — routing skips
        // it by health, not by load.)
        server.submit(fib_request(5, 6)).unwrap();
        let done = server.run_until_idle().unwrap();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].outputs[0].as_i64().unwrap(), &[13]);
        assert_eq!(
            server.shard_errors().len(),
            1,
            "shard 0's error stays on record"
        );
        // A respawn hands back what the dead machine held. Re-routing
        // the stranded request is not a new submission, and it keeps the
        // place in the response order that its first one gave it.
        let (stranded, lost) = server.respawn_shard(0);
        assert_eq!((stranded.len(), lost), (1, vec![2]));
        server.submit(fib_request(6, 3)).unwrap();
        for r in stranded {
            server.resubmit(r).unwrap();
        }
        let done = server.run_until_idle().unwrap();
        let ids: Vec<u64> = done.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![4, 6]);
        assert_eq!(done[0].outputs[0].as_i64().unwrap(), &[55]);
        assert_eq!(server.submitted(), 7);
    }

    #[test]
    fn aggregated_trace_sums_membership_and_overlaps_time() {
        let (pc, _) = lower(&fibonacci_program(), LoweringOptions::default()).unwrap();
        let policy = AdmissionPolicy::JoinAtEntry {
            max_batch: 4,
            min_utilization: 1.0,
        };
        let mut server = sharded(policy, 2, ExecOptions::default(), &pc);
        for (id, &n) in NS.iter().enumerate() {
            server.submit(fib_request(id as u64, n)).unwrap();
        }
        server.run_until_idle().unwrap();
        let agg = server.aggregated_trace();
        assert_eq!(agg.members_admitted(), NS.len() as u64);
        assert_eq!(agg.members_retired(), NS.len() as u64);
        let per_shard_time = (0..2)
            .map(|i| server.shard_trace(i).sim_time())
            .collect::<Vec<_>>();
        assert_eq!(
            agg.sim_time(),
            per_shard_time.iter().cloned().fold(0.0, f64::max),
            "fleet wall-clock is the slowest shard"
        );
        assert_eq!(
            agg.supersteps(),
            (0..2)
                .map(|i| server.shard_trace(i).supersteps())
                .sum::<u64>()
        );
    }

    #[test]
    fn deadline_policy_is_bit_identical_across_sharding() {
        let (pc, _) = lower(&fibonacci_program(), LoweringOptions::default()).unwrap();
        let deadline = AdmissionPolicy::Deadline {
            max_batch: 3,
            max_wait: 40,
        };
        let mut single =
            BatchServer::new(&pc, KernelRegistry::new(), ExecOptions::default(), deadline).unwrap();
        for (id, &n) in NS.iter().enumerate() {
            single.submit(fib_request(id as u64, n)).unwrap();
        }
        let mut reference = single.run_until_idle(None).unwrap();
        reference.sort_by_key(|r| r.id);
        for workers in [2, 3] {
            let mut server = sharded(deadline, workers, ExecOptions::default(), &pc);
            for (id, &n) in NS.iter().enumerate() {
                server.submit(fib_request(id as u64, n)).unwrap();
            }
            let done = server.run_until_idle().unwrap();
            for (a, b) in reference.iter().zip(&done) {
                assert_eq!(a.id, b.id);
                assert_eq!(
                    a.outputs, b.outputs,
                    "sharded deadline admission perturbed request {}",
                    a.id
                );
            }
        }
    }

    #[test]
    fn zero_workers_rejected() {
        let (pc, _) = lower(&fibonacci_program(), LoweringOptions::default()).unwrap();
        let err = ShardedServer::new(
            &pc,
            KernelRegistry::new(),
            ExecOptions::default(),
            AdmissionPolicy::DrainAndRefill { max_batch: 1 },
            0,
            Backend::hybrid_cpu(),
        );
        assert!(matches!(err, Err(ServeError::BadPolicy(_))));
    }

    /// Silence the default panic hook for injected worker panics only:
    /// libtest cannot capture panic output from the drive's worker
    /// threads. Real panics (assertion failures included) still print.
    fn silence_injected_panics() {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let msg = info
                    .payload()
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| info.payload().downcast_ref::<&str>().copied())
                    .unwrap_or("");
                if !msg.starts_with("injected fault") {
                    prev(info);
                }
            }));
        });
    }

    /// Run `body` on a thread of its own and fail if it has not
    /// returned within `limit`: how a test says "this drive must not
    /// hang" without hanging itself.
    fn within<T: Send + 'static>(limit: Duration, body: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(body());
        });
        rx.recv_timeout(limit)
            .expect("the drive must return within the wall-clock limit")
    }

    fn affinity(quantum: u64) -> SchedulingPolicy {
        SchedulingPolicy::PcAffinity(AffinityConfig {
            quantum,
            ..AffinityConfig::default()
        })
    }

    fn threads_spawned_by(drive: impl FnOnce()) -> usize {
        let before = THREADS_SPAWNED.with(std::cell::Cell::get);
        drive();
        THREADS_SPAWNED.with(std::cell::Cell::get) - before
    }

    #[test]
    fn a_drive_starts_its_threads_once_and_an_idle_drive_starts_none() {
        let (pc, _) = lower(&fibonacci_program(), LoweringOptions::default()).unwrap();
        let policy = AdmissionPolicy::JoinAtEntry {
            max_batch: 2,
            min_utilization: 1.0,
        };
        for scheduling in [SchedulingPolicy::LeastLoaded, affinity(12)] {
            let mut server = sharded(policy, 2, ExecOptions::default(), &pc);
            server.set_scheduling(scheduling);
            for id in 0..6u64 {
                server.submit(fib_request(id, 17)).unwrap();
            }
            let spawned = threads_spawned_by(|| {
                assert_eq!(server.run_until_idle().unwrap().len(), 6);
            });
            for i in 0..2 {
                assert!(
                    server.shard_trace(i).supersteps() >= 100 * CANCEL_QUANTUM,
                    "each shard must have run at least 100 quanta"
                );
            }
            assert_eq!(
                spawned, 1,
                "{scheduling:?}: the caller runs one of two busy shards itself"
            );
            // Nothing to do: nothing started.
            assert_eq!(threads_spawned_by(|| drop(server.run_until_idle())), 0);
        }
        // One busy shard of four runs inline, and so does any 1-worker
        // fleet.
        let mut server = sharded(policy, 4, ExecOptions::default(), &pc);
        server.submit(fib_request(0, 12)).unwrap();
        assert_eq!(threads_spawned_by(|| drop(server.run_until_idle())), 0);
        let mut server = sharded(policy, 1, ExecOptions::default(), &pc);
        for id in 0..4u64 {
            server.submit(fib_request(id, 12)).unwrap();
        }
        assert_eq!(threads_spawned_by(|| drop(server.run_until_idle())), 0);
        // Under affinity work moves, so one busy shard enlists the
        // fleet: four shards, three threads.
        let mut server = sharded(policy, 4, ExecOptions::default(), &pc);
        server.set_scheduling(affinity(12));
        server.submit(fib_request(0, 12)).unwrap();
        assert_eq!(threads_spawned_by(|| drop(server.run_until_idle())), 3);
    }

    #[test]
    fn every_worker_panicking_at_once_cannot_hang_the_drive() {
        use autobatch_chaos::FaultPlan;
        silence_injected_panics();
        for scheduling in [SchedulingPolicy::LeastLoaded, affinity(12)] {
            let (poisoned, err) = within(Duration::from_secs(30), move || {
                let (pc, _) = lower(&fibonacci_program(), LoweringOptions::default()).unwrap();
                let opts = ExecOptions {
                    fault: FaultPlan {
                        seed: 5,
                        worker_panic: FaultPlan::ALWAYS,
                        ..FaultPlan::none()
                    },
                    ..ExecOptions::default()
                };
                let policy = AdmissionPolicy::JoinAtEntry {
                    max_batch: 2,
                    min_utilization: 1.0,
                };
                let mut server = sharded(policy, 4, opts, &pc);
                server.set_scheduling(scheduling);
                for (id, &n) in NS.iter().enumerate() {
                    server.submit(fib_request(id as u64, n)).unwrap();
                }
                let err = server.run_until_idle().unwrap_err();
                (server.poisoned_shards(), err)
            });
            // The caller's own shard and all three workers die in the
            // same leg; each is reported and the drive ends.
            assert!(matches!(err, ServeError::Panicked { .. }), "{err:?}");
            assert_eq!(poisoned, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn a_worker_that_dies_outside_its_containment_is_still_reported() {
        silence_injected_panics();
        // The drop guard is the only way a leg is ever reported, so a
        // worker unwinding from anywhere reports too — as panicked.
        let (tx, rx) = channel();
        let worker = std::thread::spawn(move || {
            let _report = Report {
                to: &tx,
                shard: 3,
                outcome: None,
            };
            panic!("injected fault: a worker dying mid-leg");
        });
        assert!(worker.join().is_err());
        assert!(matches!(
            rx.try_recv(),
            Ok((3, Err(ServeError::Panicked { .. })))
        ));
    }

    #[test]
    fn one_panicking_worker_poisons_only_its_shard() {
        use autobatch_chaos::FaultPlan;
        silence_injected_panics();
        let (pc, _) = lower(&fibonacci_program(), LoweringOptions::default()).unwrap();
        let policy = AdmissionPolicy::JoinAtEntry {
            max_batch: 2,
            min_utilization: 1.0,
        };
        // The fault-free answers, by id.
        let mut clean = sharded(policy, 4, ExecOptions::default(), &pc);
        for (id, &n) in NS.iter().enumerate() {
            clean.submit(fib_request(id as u64, n)).unwrap();
        }
        let want = clean.run_until_idle().unwrap();
        // A quantum no shard outlasts makes an affinity drive a single
        // round, so a plan can be picked that fires on exactly one
        // (round, shard) counter of the drive: shard 2's first.
        const VICTIM: u64 = 2;
        const ROUNDS: u64 = 2;
        let plan = (0u64..)
            .map(|seed| FaultPlan {
                seed,
                worker_panic: FaultPlan::ALWAYS / 2,
                ..FaultPlan::none()
            })
            .find(|plan| {
                (0..ROUNDS * 4).all(|c| plan.fires(FaultPoint::WorkerPanic, c) == (c == VICTIM))
            })
            .unwrap();
        for scheduling in [SchedulingPolicy::LeastLoaded, affinity(1_000_000)] {
            let opts = ExecOptions {
                fault: plan,
                ..ExecOptions::default()
            };
            let mut server = sharded(policy, 4, opts, &pc);
            server.set_scheduling(scheduling);
            for (id, &n) in NS.iter().enumerate() {
                server.submit(fib_request(id as u64, n)).unwrap();
            }
            let err = server.run_until_idle().unwrap_err();
            assert!(matches!(err, ServeError::Panicked { .. }), "{err:?}");
            assert_eq!(server.poisoned_shards(), vec![VICTIM as usize]);
            assert!(server.fault_round <= ROUNDS, "the plan covers the drive");
            // The victim died before it ran anything: its requests are
            // still queued, and every request routed elsewhere is
            // answered, bit-identical to the fault-free run.
            let stranded = server.shards[VICTIM as usize].server.pending();
            assert!(stranded > 0, "the victim must have held work");
            let got = server.take_ready();
            assert_eq!(got.len() + stranded, NS.len());
            for g in &got {
                let w = want.iter().find(|w| w.id == g.id).unwrap();
                assert_eq!(g.outputs, w.outputs, "request {} drifted", g.id);
            }
        }
    }

    /// A request that never terminates (every lane whose seed the plan
    /// picks is rewound to entry at its exit) beside one that does.
    fn runaway_plan() -> (autobatch_chaos::FaultPlan, u64, u64) {
        use autobatch_chaos::FaultPlan;
        let plan = FaultPlan {
            seed: 3,
            runaway: FaultPlan::ALWAYS / 2,
            ..FaultPlan::none()
        };
        let doomed = (0u64..)
            .find(|&s| plan.fires(FaultPoint::Runaway, s))
            .unwrap();
        let clean = (0u64..)
            .find(|&s| !plan.fires(FaultPoint::Runaway, s))
            .unwrap();
        (plan, doomed, clean)
    }

    #[test]
    fn a_mid_drive_cancel_lands_within_one_quantum() {
        // Inline (the caller runs the only busy shard), so the count is
        // exact: the hook is called before the leg and after each
        // quantum, and an id it returns is evicted before the next
        // superstep runs.
        let (plan, doomed, _) = runaway_plan();
        let opts = ExecOptions {
            fault: plan,
            ..ExecOptions::default()
        };
        let (pc, _) = lower(&fibonacci_program(), LoweringOptions::default()).unwrap();
        let policy = AdmissionPolicy::JoinAtEntry {
            max_batch: 2,
            min_utilization: 1.0,
        };
        let mut server = sharded(policy, 1, opts, &pc);
        server
            .submit(Request {
                id: 7,
                inputs: vec![Tensor::from_i64(&[9], &[1]).unwrap()],
                seed: doomed,
            })
            .unwrap();
        let mut calls = 0u64;
        let done = server
            .run_until_idle_with(&mut || {
                calls += 1;
                if calls == 4 {
                    vec![7]
                } else {
                    Vec::new()
                }
            })
            .unwrap();
        assert!(done.is_empty());
        assert_eq!(server.take_failed(), vec![(7, ServeError::Cancelled)]);
        // Posted after the third quantum; not one superstep more.
        let ran = server.shard_trace(0).supersteps();
        assert!(
            (3 * CANCEL_QUANTUM..4 * CANCEL_QUANTUM).contains(&ran),
            "evicted after {ran} supersteps"
        );
    }

    #[test]
    fn a_cancel_reaches_a_worker_while_the_caller_only_waits() {
        // Shard 0 (the caller's) finishes at once; shard 1 (a worker's)
        // never would. The caller is parked waiting for the worker and
        // wakes every `COORDINATOR_WAKE` to ask the hook; the id goes
        // to the worker's inbox, and only its eviction ends the drive.
        let (plan, doomed, clean) = runaway_plan();
        let (failed, done, latency) = within(Duration::from_secs(30), move || {
            let opts = ExecOptions {
                fault: plan,
                ..ExecOptions::default()
            };
            let (pc, _) = lower(&fibonacci_program(), LoweringOptions::default()).unwrap();
            let policy = AdmissionPolicy::JoinAtEntry {
                max_batch: 2,
                min_utilization: 1.0,
            };
            let mut server = sharded(policy, 2, opts, &pc);
            for (id, seed) in [(0u64, clean), (1, doomed)] {
                server
                    .submit(Request {
                        id,
                        inputs: vec![Tensor::from_i64(&[6], &[1]).unwrap()],
                        seed,
                    })
                    .unwrap();
            }
            assert_eq!(server.shard_load(1), 1, "the runaway is the worker's");
            let mut calls = 0u64;
            let mut posted = None;
            let done = server
                .run_until_idle_with(&mut || {
                    calls += 1;
                    if calls == 6 {
                        posted = Some(std::time::Instant::now());
                        vec![1]
                    } else {
                        Vec::new()
                    }
                })
                .unwrap();
            let latency = posted.expect("the hook was asked six times").elapsed();
            (server.take_failed(), done, latency)
        });
        assert_eq!(done.len(), 1, "the clean request completed");
        assert_eq!(failed, vec![(1, ServeError::Cancelled)]);
        // One quantum of this program is tens of microseconds and the
        // report wakes the caller at once; a second is a loaded CI box.
        assert!(latency < Duration::from_secs(1), "took {latency:?}");
    }

    #[test]
    fn fleet_contains_runaways_and_reports_governance_health() {
        use autobatch_chaos::FaultPlan;
        // Every lane runs away (the chaos Runaway site rewinds the pc
        // to entry each superstep); only budgets can end this traffic.
        let plan = FaultPlan {
            seed: 11,
            runaway: FaultPlan::ALWAYS,
            ..FaultPlan::none()
        };
        let opts = ExecOptions {
            fault: plan,
            ..ExecOptions::default()
        };
        let (pc, _) = lower(&fibonacci_program(), LoweringOptions::default()).unwrap();
        let policy = AdmissionPolicy::JoinAtEntry {
            max_batch: 2,
            min_utilization: 0.0,
        };
        let mut server = sharded(policy, 4, opts, &pc);
        server.set_budget(crate::RequestBudget {
            max_supersteps: Some(8),
            ..crate::RequestBudget::unlimited()
        });
        for id in 0..4u64 {
            server.submit(fib_request(id, 20)).unwrap();
        }
        // `run_until_idle` returns: nothing waits on the runaways.
        let done = server.run_until_idle().unwrap();
        assert!(done.is_empty());
        let failed = server.take_failed();
        assert_eq!(failed.len(), 4);
        for (_, e) in &failed {
            assert!(
                matches!(e, ServeError::BudgetExceeded { spent: 9, limit: 8 }),
                "expected a typed budget verdict, got {e:?}"
            );
        }
        assert_eq!(server.evictions(), 4);
        let health = server.health();
        assert!(health.iter().all(|h| h.healthy), "no shard may wedge");
        assert_eq!(health.iter().map(|h| h.evictions).sum::<u64>(), 4);
        assert_eq!(server.pending() + server.in_flight(), 0);
    }

    #[test]
    fn quarantine_trips_probes_and_recovers() {
        use autobatch_chaos::{FaultPlan, FaultPoint};
        let plan = FaultPlan {
            seed: 3,
            runaway: FaultPlan::ALWAYS / 2,
            ..FaultPlan::none()
        };
        // Whether a request runs away is keyed by its RNG seed: pick
        // two doomed seeds and one clean one from the plan itself.
        let mut doomed = (0u64..).filter(|&s| plan.fires(FaultPoint::Runaway, s));
        let clean = (0u64..)
            .find(|&s| !plan.fires(FaultPoint::Runaway, s))
            .unwrap();
        let request = |id: u64, seed: u64| Request {
            id,
            inputs: vec![Tensor::from_i64(&[10], &[1]).unwrap()],
            seed,
        };
        let opts = ExecOptions {
            fault: plan,
            ..ExecOptions::default()
        };
        let (pc, _) = lower(&fibonacci_program(), LoweringOptions::default()).unwrap();
        let policy = AdmissionPolicy::DrainAndRefill { max_batch: 2 };
        let fleet = sharded(policy, 2, opts, &pc);
        let mut sup = crate::Supervisor::new(
            fleet,
            crate::SupervisorConfig {
                quarantine: crate::QuarantineConfig {
                    trip_threshold: 2,
                    decay_rounds: 64,
                    cooldown_rounds: 3,
                },
                ..crate::SupervisorConfig::default()
            },
        );
        sup.set_budget(crate::RequestBudget {
            max_supersteps: Some(2048),
            ..crate::RequestBudget::unlimited()
        });

        // Two budget blowups inside the window trip the breaker.
        sup.submit(request(0, doomed.next().unwrap())).unwrap();
        sup.submit(request(1, doomed.next().unwrap())).unwrap();
        let outcomes = sup.run_until_quiescent();
        assert_eq!(outcomes.len(), 2);
        for o in &outcomes {
            assert!(
                matches!(
                    o,
                    crate::Outcome::Failed {
                        error: ServeError::BudgetExceeded { .. },
                        ..
                    }
                ),
                "expected budget blowups, got {o:?}"
            );
        }
        assert!(
            matches!(
                sup.quarantine(),
                crate::QuarantineStatus::Open { blowups: 2, .. }
            ),
            "breaker must be open, got {:?}",
            sup.quarantine()
        );

        // Open: fast-rejects, each advancing the cooldown clock, until
        // the half-open probe slot admits one request.
        let mut refusals = 0u64;
        loop {
            match sup.submit(request(100 + refusals, clean)) {
                Err(ServeError::Quarantined { .. }) => refusals += 1,
                Ok(()) => break,
                Err(e) => panic!("unexpected refusal: {e}"),
            }
            assert!(refusals <= 3, "cooldown must elapse within cooldown_rounds");
        }
        assert!(matches!(
            sup.quarantine(),
            crate::QuarantineStatus::HalfOpen { probing: true }
        ));
        // A second request cannot share the probe slot.
        assert!(matches!(
            sup.submit(request(999, clean)),
            Err(ServeError::Quarantined { .. })
        ));

        // The clean probe terminates normally: breaker closes, record
        // resets, and traffic flows again.
        let outcomes = sup.run_until_quiescent();
        assert!(
            outcomes
                .iter()
                .any(|o| matches!(o, crate::Outcome::Done(_))),
            "the probe must complete, got {outcomes:?}"
        );
        assert!(matches!(
            sup.quarantine(),
            crate::QuarantineStatus::Closed { recent_blowups: 0 }
        ));
        sup.submit(request(200, clean)).unwrap();
        let outcomes = sup.run_until_quiescent();
        assert_eq!(outcomes.len(), 1);
        assert!(matches!(outcomes[0], crate::Outcome::Done(_)));
    }

    #[test]
    fn blown_probe_reopens_the_breaker() {
        use autobatch_chaos::{FaultPlan, FaultPoint};
        let plan = FaultPlan {
            seed: 5,
            runaway: FaultPlan::ALWAYS / 2,
            ..FaultPlan::none()
        };
        let mut doomed = (0u64..).filter(|&s| plan.fires(FaultPoint::Runaway, s));
        let request = |id: u64, seed: u64| Request {
            id,
            inputs: vec![Tensor::from_i64(&[10], &[1]).unwrap()],
            seed,
        };
        let opts = ExecOptions {
            fault: plan,
            ..ExecOptions::default()
        };
        let (pc, _) = lower(&fibonacci_program(), LoweringOptions::default()).unwrap();
        let fleet = sharded(
            AdmissionPolicy::DrainAndRefill { max_batch: 2 },
            2,
            opts,
            &pc,
        );
        let mut sup = crate::Supervisor::new(
            fleet,
            crate::SupervisorConfig {
                quarantine: crate::QuarantineConfig {
                    trip_threshold: 1,
                    decay_rounds: 64,
                    cooldown_rounds: 2,
                },
                ..crate::SupervisorConfig::default()
            },
        );
        sup.set_budget(crate::RequestBudget {
            max_supersteps: Some(8),
            ..crate::RequestBudget::unlimited()
        });
        sup.submit(request(0, doomed.next().unwrap())).unwrap();
        sup.run_until_quiescent();
        assert!(matches!(
            sup.quarantine(),
            crate::QuarantineStatus::Open { .. }
        ));
        let mut refusals = 0u64;
        let probe_seed = doomed.next().unwrap();
        loop {
            match sup.submit(request(100 + refusals, probe_seed)) {
                Err(ServeError::Quarantined { .. }) => refusals += 1,
                Ok(()) => break,
                Err(e) => panic!("unexpected refusal: {e}"),
            }
            assert!(refusals <= 2, "cooldown must elapse within cooldown_rounds");
        }
        // The probe itself runs away: straight back to quarantine.
        sup.run_until_quiescent();
        assert!(
            matches!(sup.quarantine(), crate::QuarantineStatus::Open { .. }),
            "a blown probe must re-open the breaker, got {:?}",
            sup.quarantine()
        );
    }
}
