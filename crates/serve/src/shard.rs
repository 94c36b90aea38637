//! Sharded, self-healing multi-worker serving: scaling the batch server
//! across host threads, not just lanes.
//!
//! A single [`BatchServer`] saturates one host thread: every superstep
//! is host control (block selection, masking) followed by one fused
//! device launch. [`ShardedServer`] partitions the request stream across
//! N shards, each owning its own `BatchServer` (and so its own
//! `PcMachine`), and runs them concurrently — the Send-safe machine
//! handoff asserted in `autobatch-core`.
//!
//! Five design points:
//!
//! - **Routing** is least-loaded: each shard's load is the requests it
//!   holds, in flight on its machine plus queued — the count a running
//!   drive's router keeps too. Ties break toward the lowest shard index,
//!   which makes routing — and therefore the whole sharded run —
//!   deterministic.
//! - **Aggregation** preserves per-request ordering: every submission
//!   gets a global sequence number, which travels with the request —
//!   queued, in flight, stolen, migrated or retried — and comes back
//!   with its response, and [`ShardedServer::run_until_idle_with`]
//!   merges the shards' completions back into submission order.
//! - **Poison and heal**: a shard's only error is its poison. Any error
//!   a shard surfaces — an execution error, a caught panic, step-limit
//!   exhaustion — poisons it and closes the drive, and no shard error
//!   loses another shard's completed work. Between drives the fleet
//!   salvages what each poisoned shard completed, rebuilds it in place
//!   and retries what it still held, stranded in its queue or lost in
//!   flight, under the retry budget and the quarantine breaker its
//!   books keep (see [`crate::supervisor`]). A bad request never gets
//!   this far: [`BatchServer::submit`] refuses it.
//! - **One continuous drive, one crew of threads.** Host control per
//!   superstep is what batching has to amortise, so the runtime must not
//!   add to it: a drive ([`ShardedServer::drive`]; every other entry
//!   point is the same loop under a hook that feeds nothing) starts a
//!   worker thread once per shard it needs — less the one the caller
//!   runs itself — and each runs its shard on its own until the shard is
//!   idle, then parks until more work lands in its inbox. New requests
//!   and cancellations reach a running shard through that per-shard
//!   inbox within one quantum of supersteps, and every retirement goes
//!   back to the caller after the quantum it happened in, so a request
//!   that joins a running fleet at the entry block — the program-counter
//!   runtime's whole point — is answered when it retires, not when the
//!   deepest of its batchmates does. Each shard moves its own virtual
//!   clock to a deadline it waits on, so the fleet meets at a parked
//!   barrier only under [`SchedulingPolicy::PcAffinity`], to rebalance
//!   between quanta; a panicking worker poisons its own shard and is
//!   always reported. The contract is spelled out on
//!   [`ShardedServer::drive`].
//! - **Every request has exactly one answer.** A completion or a typed
//!   [`Outcome::Failed`] — a refusal, a governance verdict,
//!   [`ServeError::RetriesExhausted`] — handed out once, whatever the
//!   faults.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use autobatch_accel::Backend;
use autobatch_chaos::{FaultPlan, FaultPoint};
use autobatch_core::{ExecOptions, KernelRegistry};
use autobatch_ir::analysis::{analyze_pcab, PcabReport};
use autobatch_ir::pcab::Program;

use crate::affinity::{plan_migrations, plan_splits, plan_steals, ShardView};
use crate::supervisor::Books;
use crate::{
    AdmissionPolicy, AffinityConfig, BatchServer, Outcome, Request, RequestBudget, Response,
    Result, SchedulingPolicy, ServeError, SupervisorConfig, Verdict,
};

/// Supersteps a shard runs between two looks at its inbox under default
/// scheduling: the bound on how stale an arrival or a cooperative
/// cancellation can go before a running shard takes it.
const CANCEL_QUANTUM: u64 = 64;

/// How long the coordinator of a drive that has no [`Bell`] sleeps
/// between two calls of its hook while it has no shard of its own to
/// run — parked on a condvar, never spinning. A drive given a bell
/// sleeps until it rings.
const COORDINATOR_WAKE: Duration = Duration::from_millis(1);

/// The doorbell of a running drive. The coordinator of a drive sleeps on
/// it whenever it has nothing to run; shard workers ring it when they
/// hand over retirements or end a leg, and whoever feeds the drive's
/// hook rings it when it has something new — an arrival is then taken
/// at once instead of at the next tick. Clones ring the same bell.
#[derive(Debug, Clone, Default)]
pub struct Bell(Arc<(Mutex<Chime>, Condvar)>);

/// A bell's state: rung since the last wait, and whether anyone waits.
#[derive(Debug, Default)]
struct Chime {
    rung: bool,
    waiting: bool,
}

impl Bell {
    /// Wake the drive sleeping on this bell, or the next one to sleep on
    /// it. Cheap when nobody sleeps: no system call.
    pub fn ring(&self) {
        let (chime, wake) = &*self.0;
        let mut chime = lock(chime);
        if !chime.rung {
            chime.rung = true;
            if chime.waiting {
                wake.notify_one();
            }
        }
    }

    /// Sleep until the bell rings (or `tick` passes, if given), and
    /// consume the ring.
    fn wait(&self, tick: Option<Duration>) {
        let (chime, wake) = &*self.0;
        let mut chime = lock(chime);
        chime.waiting = true;
        while !chime.rung {
            match tick {
                None => chime = wake.wait(chime).unwrap_or_else(PoisonError::into_inner),
                Some(t) => {
                    let (guard, timeout) = wake
                        .wait_timeout(chime, t)
                        .unwrap_or_else(PoisonError::into_inner);
                    chime = guard;
                    if timeout.timed_out() {
                        break;
                    }
                }
            }
        }
        chime.waiting = false;
        chime.rung = false;
    }
}

/// What the hook of a running drive hands the fleet at one call (see
/// [`ShardedServer::drive`]).
#[derive(Debug, Default)]
pub struct Intake {
    /// Requests to route into the running fleet.
    pub requests: Vec<Request>,
    /// Ids to cancel wherever they are.
    pub cancels: Vec<u64>,
    /// The virtual clock to advance the fleet to before the requests
    /// are stamped (monotonic: `0`, or any earlier value, leaves it).
    pub clock: u64,
}

/// The caller's side of a drive, as the fleet calls it: handed the
/// outcomes resolved since the last call, each with its request's
/// submission sequence, it returns what joins the fleet.
type Hook<'h> = &'h mut dyn FnMut(Vec<(u64, Outcome)>) -> Intake;

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

/// One worker's state: its server and the slot's lifetime records.
#[derive(Debug)]
struct Shard<'p> {
    server: BatchServer<'p>,
    /// Queued requests this slot took from a deeper queue (work
    /// stealing), over the slot's lifetime.
    steals: u64,
    /// Running lanes a rebalance moved onto this slot (straggler
    /// migration and batch splits), over the slot's lifetime.
    migrated_in: u64,
}

/// What a fleet has run, counted where it happened (see
/// [`ShardedServer::aggregated_trace`]). A count, not a price: the
/// served path runs no cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetCounts {
    supersteps: u64,
    members_migrated_in: u64,
    /// Queued requests an idle shard took from a deeper queue under
    /// [`SchedulingPolicy::PcAffinity`] (work stealing).
    pub steals: u64,
}

impl FleetCounts {
    /// Supersteps the fleet's machines ran:
    /// [`ShardedServer::supersteps`].
    pub fn supersteps(&self) -> u64 {
        self.supersteps
    }

    /// Running lanes a PC-affinity rebalance moved onto another shard.
    pub fn members_migrated_in(&self) -> u64 {
        self.members_migrated_in
    }
}

impl Shard<'_> {
    /// Routing load: the requests the shard holds that have not reached
    /// a terminal outcome, in flight or queued.
    fn load(&self) -> usize {
        self.server.in_flight() + self.server.pending()
    }

    fn poisoned(&self) -> bool {
        self.server.poisoned().is_some()
    }

    fn has_work(&self) -> bool {
        self.load() > 0
    }
}

/// A self-healing serving runtime that partitions requests across
/// worker threads, each owning its own [`BatchServer`] + `PcMachine`.
///
/// Results are deterministic: routing is a pure function of submission
/// order and shard loads, each shard's execution is deterministic, and
/// aggregation orders responses by submission sequence — thread
/// scheduling cannot perturb anything the caller observes. Per-request
/// results are bit-identical to an unsharded run because every lane's
/// draws are keyed by the request seed, not by placement.
///
/// The fleet heals itself: a shard an error poisons is rebuilt between
/// drives, its stranded and lost work retried under the
/// [`SupervisorConfig`] retry budget, and every request the fleet
/// accepts reaches exactly one terminal [`Outcome`].
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
/// let policy = AdmissionPolicy::JoinAtEntry { max_batch: 2 };
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
/// let done = server.run_until_idle_with(&mut Vec::new)?;
/// // Aggregation preserves submission order across shards.
/// let ids: Vec<u64> = done.iter().map(|r| r.id).collect();
/// assert_eq!(ids, vec![0, 1, 2]);
/// assert_eq!(done[1].outputs[0].as_i64()?, &[55]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct ShardedServer<'p> {
    shards: Vec<Shard<'p>>,
    /// Construction inputs, kept so a dead shard can be rebuilt in
    /// place ([`ShardedServer::respawn`]) with a fresh `BatchServer` +
    /// `PcMachine`.
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
    /// The high-water mark of the clock callers set, replayed onto
    /// respawned shards.
    clock: u64,
    /// Next fault-stream epoch handed to a respawned shard, so a
    /// deterministic [`FaultPlan`](autobatch_chaos::FaultPlan) does not
    /// re-kill the replacement at the exact same superstep forever.
    next_fault_epoch: u64,
    /// Next chaos round: the counter behind worker-panic and
    /// worker-slowness injection, drawn once per inner drive under
    /// default scheduling and once per quantum round under PC-affinity.
    /// A drive that starts with the whole fleet idle draws it only for
    /// the shards that get work.
    fault_round: u64,
    /// Shard respawns over the fleet's lifetime.
    respawns: u64,
    /// Lifetime completions on servers that were since respawned.
    retired_completed: u64,
    /// Peak queue depth on servers that were since respawned.
    retired_peak: usize,
    /// Governance evictions on servers that were since respawned.
    retired_evictions: u64,
    /// Supersteps run by servers that were since respawned.
    retired_supersteps: u64,
    /// Per-request resource ceilings (mirrors each shard's
    /// [`BatchServer::set_budget`]); kept here so a respawned shard
    /// re-enforces the same budget.
    budget: RequestBudget,
    /// Completed responses retired and not yet filed in the books,
    /// tagged with their submission sequence.
    ready: Vec<(u64, Response)>,
    /// Verdicts and refusals retired and not yet filed in the books.
    failed: Vec<Verdict>,
    /// The retry books, parked retries and quarantine breaker.
    books: Books,
}

impl<'p> ShardedServer<'p> {
    /// Create a sharded server: `workers` shards, each a [`BatchServer`]
    /// under `policy`, healing under [`SupervisorConfig::default`]. The
    /// fleet prices nothing, so `_backend` is unused; the parameter
    /// stays because `benchmark/` passes it (ROADMAP item 1(e)).
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
        _backend: Backend,
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
                    steals: 0,
                    migrated_in: 0,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(ShardedServer {
            shards,
            program,
            report,
            registry,
            opts,
            policy,
            scheduling: SchedulingPolicy::default(),
            clock: 0,
            next_fault_epoch: base_epoch + workers as u64,
            fault_round: 0,
            respawns: 0,
            retired_completed: 0,
            retired_peak: 0,
            retired_evictions: 0,
            retired_supersteps: 0,
            budget: RequestBudget::unlimited(),
            ready: Vec::new(),
            failed: Vec::new(),
            books: Books::new(SupervisorConfig::default()),
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

    /// Set the retry budget and the quarantine breaker the fleet heals
    /// under (default [`SupervisorConfig::default`]). The breaker starts
    /// over with a clean record.
    pub fn set_supervision(&mut self, config: SupervisorConfig) {
        self.books.configure(config);
    }

    /// Request cooperative cancellation of a request: a retry parked for
    /// backoff is answered with [`ServeError::Cancelled`] at once; a
    /// queued or in-flight request is cancelled on whichever shard holds
    /// it (see [`BatchServer::cancel`]), its lane evicted at the next
    /// superstep boundary. Either way the outcome is handed out by the
    /// next drive. Returns `false` when the id is unknown — already
    /// answered, or never submitted.
    pub fn cancel(&mut self, id: u64) -> bool {
        self.books.cancel_parked(id) || self.shards.iter_mut().any(|s| s.server.cancel(id))
    }

    /// Lanes evicted under governance over the fleet's lifetime,
    /// including on servers since respawned.
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

    /// Queued requests across all shards.
    pub fn pending(&self) -> usize {
        self.shards.iter().map(|s| s.server.pending()).sum()
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

    /// Supersteps the fleet's machines have run over its lifetime,
    /// including on servers since respawned.
    pub fn supersteps(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.server.supersteps())
            .sum::<u64>()
            + self.retired_supersteps
    }

    /// Shard respawns over the fleet's lifetime.
    pub fn respawns(&self) -> u64 {
        self.respawns
    }

    /// Retry attempts over the fleet's lifetime: admission retries plus
    /// requeues of stranded and lost work.
    pub fn retries(&self) -> u64 {
        self.books.retries
    }

    /// What the fleet has run over its lifetime, respawned servers
    /// included: counts kept where the work happens, no price. The name
    /// stays because `benchmark/` calls it.
    pub fn aggregated_trace(&self) -> FleetCounts {
        FleetCounts {
            supersteps: self.supersteps(),
            members_migrated_in: self.shards.iter().map(|s| s.migrated_in).sum(),
            steals: self.shards.iter().map(|s| s.steals).sum(),
        }
    }

    /// Submit a request. It passes the quarantine breaker, is numbered
    /// and booked for retries, and is routed per the scheduling policy:
    /// to the least-loaded shard (lowest index on ties), or by
    /// PC-affinity packing. An injected admission fault is retried at
    /// once, charged to the request's retry budget; a real refusal (a
    /// request [`BatchServer::submit`] judges unfit) passes straight
    /// through.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] / [`ServeError::InvalidRequest`] as
    /// [`BatchServer::submit`]; [`ServeError::Quarantined`] when the
    /// program's breaker is open (nothing reaches the fleet);
    /// [`ServeError::RetriesExhausted`] when injected admission faults
    /// outlasted the budget. In every error case the request is **not**
    /// booked: the error *is* its terminal outcome.
    pub fn submit(&mut self, request: Request) -> Result<()> {
        let seq = self.books.number();
        self.books.admit(seq, &request)?;
        // A fleet left sick (a panic unwound a drive) must not refuse
        // new work: heal before routing.
        self.heal();
        loop {
            match self.route(seq, request.clone()) {
                Ok(()) => return Ok(()),
                Err(e) => self.books.refused(seq, request.id, e)?,
            }
        }
    }

    /// Enqueue request `seq` on the shard the scheduling policy picks.
    /// Every shard is healthy here: the fleet heals before it routes.
    fn route(&mut self, seq: u64, request: Request) -> Result<()> {
        let i = match self.scheduling {
            SchedulingPolicy::LeastLoaded => self.least_loaded(),
            SchedulingPolicy::PcAffinity(cfg) => self.affinity_target(cfg),
        };
        self.shards[i].server.submit_as(seq, request)
    }

    /// The shard holding the fewest requests, lowest index on ties.
    fn least_loaded(&self) -> usize {
        (0..self.shards.len())
            .min_by_key(|&i| (self.shards[i].load(), i))
            .expect("a fleet has a shard")
    }

    /// PC-affinity routing: pack shards to capacity in submission
    /// order instead of spreading. Among *open* shards (load below the
    /// packing threshold `ceil(capacity × pack)`), pick the one with the
    /// most mass at the program's entry block — running lanes still at
    /// entry plus queued requests, which will join at entry — breaking
    /// ties toward lower load, then the lowest index. When no shard is
    /// open, fall back to least-loaded. Full batches share supersteps;
    /// spread ones pay the per-superstep host control many times over.
    fn affinity_target(&self, cfg: AffinityConfig) -> usize {
        let cap = self.policy.max_batch().max(1);
        let open_cap = ((cap as f64) * cfg.pack).ceil().max(1.0) as usize;
        let entry = self.program.entry.0;
        (0..self.shards.len())
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
            .unwrap_or_else(|| self.least_loaded())
    }

    /// Drive the fleet until it is idle and return every completed
    /// response in submission order: [`ShardedServer::drive`] with no
    /// [`Bell`], under a hook that feeds nothing and cancels every id
    /// `poll` returns (broadcast to every shard, so duplicate in-flight
    /// ids are all cancelled). With no bell to wake it, the coordinator
    /// asks `poll` every `COORDINATOR_WAKE` (1 ms) while it only waits.
    ///
    /// # Errors
    ///
    /// If a request the drive answered did not complete, the first such
    /// failure in submission order — a refusal, a governance verdict (a
    /// budget eviction or a cancellation) or
    /// [`ServeError::RetriesExhausted`] — and the drive's responses are
    /// dropped. [`ShardedServer::drive`] hands out every outcome.
    pub fn run_until_idle_with(
        &mut self,
        poll: &mut dyn FnMut() -> Vec<u64>,
    ) -> Result<Vec<Response>> {
        let mut resolved = Vec::new();
        self.supervise(None, &mut |outcomes| {
            resolved.extend(outcomes);
            Intake {
                cancels: poll(),
                ..Intake::default()
            }
        });
        resolved.sort_by_key(|&(seq, _)| seq);
        resolved
            .into_iter()
            .map(|(_, outcome)| match outcome {
                Outcome::Done(r) => Ok(r),
                Outcome::Failed { error, .. } => Err(error),
            })
            .collect()
    }

    /// Serve **concurrently and continuously**, healing as it goes:
    /// requests the hook hands in join the running fleet, and every
    /// request's terminal outcome is handed back through the hook. The
    /// drive ends when the fleet is idle, no retry is parked, every
    /// outcome is handed out and a call of `hook` has nothing more to
    /// give.
    ///
    /// # The hook
    ///
    /// `hook` is called before the first leg, after every quantum of the
    /// shard the caller runs itself, and whenever the caller wakes while
    /// it only waits: on `bell`, which the shard workers ring when they
    /// report and which whoever feeds the hook rings when it has
    /// something new, or without a bell every `COORDINATOR_WAKE` (1 ms).
    /// Each call gets the outcomes resolved since the last one —
    /// completions in submission order, then failures: refusals (a
    /// request its shard refused, a bad payload say, or one the
    /// quarantine breaker turned away), governance verdicts and
    /// [`ServeError::RetriesExhausted`] — and returns an [`Intake`]: its
    /// clock is applied first, its requests are numbered, booked and
    /// routed to the shard holding the fewest requests (lowest index on
    /// ties) through that shard's inbox, and its cancels are applied as
    /// [`ShardedServer::cancel`] does, broadcast to every shard. A
    /// running shard drains its inbox before each quantum
    /// (`CANCEL_QUANTUM` = 64 supersteps); an idle one is started by the
    /// work landing in it. A call that hands in work is a round, so
    /// retries whose backoff expires while a fed drive runs join it
    /// then.
    ///
    /// # Threads
    ///
    /// One *inner drive* opens one `std::thread::scope` and starts one
    /// thread per shard that has work, less one: the caller runs the
    /// first such shard itself and coordinates the rest. A shard that
    /// first gets work mid-drive gets its thread then. A drive with one
    /// busy shard (a 1-worker fleet always) runs inline, and a drive
    /// that finds no work and is fed none starts nothing. The threads
    /// live until the inner drive ends, and while they have nothing to
    /// run they are parked — nothing in a drive spins.
    ///
    /// Under [`SchedulingPolicy::LeastLoaded`] (the default) no shard
    /// ever needs another: a worker runs its shard quantum after quantum
    /// until the shard is idle, and then parks until its inbox gets
    /// work. A shard whose [`AdmissionPolicy::Deadline`] holds a partial
    /// batch moves its own clock to the deadline within its quantum, as
    /// [`BatchServer::run_until_idle`] does, so the fleet meets at no
    /// barrier and the drive ends when nothing runs. Under
    /// [`SchedulingPolicy::PcAffinity`] the workers park at a barrier
    /// after every quantum (`AffinityConfig::quantum` supersteps),
    /// because the rebalance between quanta — straggler migration, work
    /// stealing, batch splits (see [`crate::affinity`]) — plans against
    /// a quiesced snapshot of the fleet. Results and response order are
    /// identical either way: scheduling only changes *where* lanes
    /// execute, and a lane's draws are keyed by its request seed, not
    /// its placement.
    ///
    /// # Faults
    ///
    /// Every quantum runs under `catch_unwind`: a panic while driving
    /// one shard — a VM bug or an injected [`FaultPoint::WorkerPanic`] —
    /// becomes a typed [`ServeError::Panicked`] that poisons *that shard
    /// only*. A worker reports its leg from a drop guard, so even one
    /// that unwinds past the containment is reported (as panicked) and
    /// the drive never waits on a thread that will not answer. A shard
    /// that errors — an execution error, a panic, step-limit exhaustion
    /// — is poisoned and leaves the inner drive, which *closes*: `hook`
    /// is not called again until it ends, and the healthy remainder
    /// drains. Then the poisoned shards are salvaged and respawned, the
    /// work they stranded or lost is parked for a retry with backoff,
    /// and the next inner drive starts; every completed response and
    /// verdict is handed out, none is lost.
    ///
    /// Quiescence is guaranteed once the hook stops feeding: every
    /// failing round burns retry attempts from a bounded per-request
    /// budget, so even a fault plan that fires on every round
    /// terminates with typed [`Outcome::Failed`] answers — and a healthy
    /// fleet.
    pub fn drive(&mut self, bell: Option<&Bell>, hook: &mut dyn FnMut(Vec<Outcome>) -> Intake) {
        self.supervise(bell, &mut |resolved| {
            hook(resolved.into_iter().map(|(_, outcome)| outcome).collect())
        });
    }

    /// The healing loop behind every entry point: inner drives, each
    /// followed by a respawn of every shard it poisoned, the filing of
    /// what it left and the release of the retries that came due, until
    /// the fleet is idle and the books are settled. Rounds (backoff, the
    /// breaker's clock) advance once per inner drive.
    fn supervise(&mut self, bell: Option<&Bell>, hook: Hook<'_>) {
        // A fleet left sick (a panic unwound a drive) runs healthy.
        self.heal();
        loop {
            self.books.round += 1;
            self.run(bell, hook);
            self.heal();
            // Whatever a closed drive left behind, and anything a shard
            // retired outside a drive (a cancel of a queued request).
            for s in &mut self.shards {
                self.ready.extend(s.server.take_numbered());
                self.failed.extend(s.server.take_failed());
            }
            self.books.file(&mut self.ready, &mut self.failed);
            let idle = self.pending() == 0 && self.in_flight() == 0;
            for (seq, request) in self.books.release(idle) {
                // Re-entry may itself fail (injected admission fault):
                // that burns another attempt like any failed try.
                if let Err(e) = self.route(seq, request) {
                    self.books.requeue(seq, e);
                }
            }
            if self.pending() == 0 && self.in_flight() == 0 && self.books.settled() {
                // Poison never outlives a drive, and every request the
                // fleet accepted has been answered.
                debug_assert!(self.shards.iter().all(|s| !s.poisoned()));
                debug_assert_eq!(self.books.tracked(), 0);
                return;
            }
        }
    }

    /// Respawn every poisoned shard and requeue the work it stranded or
    /// lost, charged to the shard's poison.
    fn heal(&mut self) {
        for i in 0..self.shards.len() {
            if let Some(cause) = self.shards[i].server.poisoned().cloned() {
                for seq in self.respawn(i) {
                    self.books.requeue(seq, cause.clone());
                }
            }
        }
    }

    /// Tear down shard `i`'s server and rebuild it in place with a
    /// fresh `BatchServer` + `PcMachine` (same program, registry,
    /// options, policy and verification report; the later of the fleet's
    /// and the old server's clock, and the request budget, restored; a
    /// fresh fault-stream epoch so a deterministic fault plan does not
    /// re-kill the replacement on schedule). The old server's completed
    /// responses and verdicts are salvaged into the fleet's buffers;
    /// returns the submission sequences of what it still held, queued
    /// ones first, then those in flight.
    fn respawn(&mut self, i: usize) -> Vec<u64> {
        let old = &mut self.shards[i].server;
        self.ready.extend(old.take_numbered());
        // Governance verdicts already reached are salvaged too: a
        // budget-evicted request's terminal failure must not be lost
        // (and then retried) just because its shard later died.
        self.failed.extend(old.take_failed());
        let held = old.held_seqs().collect();
        self.retired_completed += old.completed();
        self.retired_peak = self.retired_peak.max(old.peak_pending());
        self.retired_evictions += old.evictions();
        self.retired_supersteps += old.supersteps();
        let opts = ExecOptions {
            fault: self.opts.fault.with_epoch(self.next_fault_epoch),
            ..self.opts
        };
        self.next_fault_epoch += 1;
        let mut server = BatchServer::with_report(
            self.program,
            self.registry.clone(),
            opts,
            self.policy,
            &self.report,
        )
        .expect("policy and program were validated when the fleet was built");
        // A deadline fast-forward moves only its own shard's clock, so
        // the slot's clock may be ahead of the fleet's: it never goes back.
        server.set_clock(self.clock.max(self.shards[i].server.clock()));
        server.set_budget(self.budget);
        self.shards[i].server = server;
        self.respawns += 1;
        held
    }

    /// One inner drive: the one drive loop, see [`ShardedServer::drive`].
    /// It ends when nothing runs and the hook has seen every outcome, or,
    /// once a shard has errored, when the healthy remainder is drained.
    fn run(&mut self, bell: Option<&Bell>, hook: Hook<'_>) {
        let (quantum, affinity) = match self.scheduling {
            SchedulingPolicy::LeastLoaded => (CANCEL_QUANTUM, None),
            SchedulingPolicy::PcAffinity(cfg) => (cfg.quantum.max(1), Some(cfg)),
        };
        let lockstep = affinity.is_some();
        let n = self.shards.len();
        let fault = self.opts.fault;
        let cap = self.policy.max_batch().max(1);
        // Worker-level chaos: default scheduling draws one counter per
        // (drive, shard), PC-affinity a fresh one per (round, shard).
        let first_round = self.fault_round;
        self.fault_round += 1;
        // The crew: shards that take part from the first leg (every shard
        // is healthy: the fleet heals between inner drives). Under
        // affinity work moves, so one busy shard enlists every shard;
        // worker chaos enlists idle shards too, unless the whole fleet
        // starts idle.
        let any_work = self.shards.iter().any(Shard::has_work);
        let crew: Vec<bool> = (0..n)
            .map(|i| {
                let counter = first_round * n as u64 + i as u64;
                self.shards[i].has_work()
                    || (any_work
                        && (lockstep
                            || fault.fires(FaultPoint::WorkerSlow, counter)
                            || fault.fires(FaultPoint::WorkerPanic, counter)))
            })
            .collect();
        // Each shard's load, as the coordinator counts it while it
        // cannot look: routed in, retired out.
        let mut held: Vec<usize> = self.shards.iter().map(Shard::load).collect();
        let private = Bell::default();
        let tick = bell.is_none().then_some(COORDINATOR_WAKE);

        let ShardedServer {
            shards,
            ready,
            failed,
            clock,
            fault_round: next_fault_round,
            books,
            ..
        } = self;
        let drive = Drive {
            slots: shards.iter_mut().map(Mutex::new).collect(),
            inboxes: (0..n).map(|_| Mutex::new(Inbox::default())).collect(),
            retired: Mutex::new(Vec::new()),
            bell: bell.unwrap_or(&private),
            quantum,
            one_quantum_legs: lockstep,
            fault,
        };
        // Set once a shard errors: the drive takes no more work.
        let mut closed = false;
        std::thread::scope(|scope| {
            // One channel of legs to each worker, one of reports back.
            // A worker parks in `recv` between legs and leaves when its
            // sender is dropped — at the end of this closure, also when
            // it unwinds (a panicking hook), so the scope never waits on
            // a parked thread.
            let (report_tx, report_rx) = channel::<(usize, LegOutcome)>();
            let spawn = |i: usize| {
                let (legs_tx, legs_rx) = channel();
                let (drive, report_tx) = (&drive, report_tx.clone());
                #[cfg(test)]
                THREADS_SPAWNED.with(|c| c.set(c.get() + 1));
                scope.spawn(move || drive.work(i, &legs_rx, &report_tx));
                legs_tx
            };
            // The caller runs one shard itself: the first of the crew,
            // or the first to get work if the drive starts idle.
            let mut mine = crew.iter().position(|&enlisted| enlisted);
            let mut legs: Vec<Option<Sender<Option<u64>>>> = (0..n)
                .map(|i| (crew[i] && Some(i) != mine).then(|| spawn(i)))
                .collect();
            // The caller's own leg, while it runs one: its injected
            // panic, if one is due.
            let mut my_leg: Option<Option<u64>> = None;
            // Per shard: a worker is out on a leg; errored this drive;
            // has new work to run; has drawn its chaos this drive.
            let mut out = vec![false; n];
            let mut dead = vec![false; n];
            let mut wake = vec![false; n];
            let mut drew = vec![false; n];
            let mut first = true;
            let mut round = Some(first_round);
            let mut ended: Vec<(usize, LegOutcome)> = Vec::new();
            loop {
                // Legs that ended: the caller's own, and the workers'.
                ended.extend(report_rx.try_iter());
                for (i, outcome) in ended.drain(..) {
                    out[i] = false;
                    if Self::settle(&mut lock(&drive.slots[i]), outcome, ready).is_err() {
                        dead[i] = true;
                        closed = true;
                    }
                }
                for (i, retired) in std::mem::take(&mut *lock(&drive.retired)) {
                    held[i] = held[i].saturating_sub(1);
                    retired.file(ready, failed);
                }

                // The hook: outcomes out, work in. A closing drive takes
                // no more work.
                if !closed {
                    let post = books.exchange(ready, failed, hook);
                    if post.clock > *clock {
                        *clock = post.clock;
                        for inbox in &drive.inboxes {
                            let mut inbox = lock(inbox);
                            inbox.clock = inbox.clock.max(post.clock);
                        }
                    }
                    for (seq, request) in post.requests {
                        let i = (0..n)
                            .min_by_key(|&i| (held[i], i))
                            .expect("a fleet has a shard");
                        held[i] += 1;
                        lock(&drive.inboxes[i]).requests.push((seq, request));
                    }
                    drive.post(post.cancels);
                }
                // A shard nobody is running takes its inbox here; a
                // running one takes it before its next quantum.
                for i in (0..n).filter(|&i| !out[i]) {
                    if lock(&drive.inboxes[i]).is_empty() {
                        continue;
                    }
                    let fed = drive.tend(i, &mut lock(&drive.slots[i]).server);
                    wake[i] |= fed && !lockstep;
                }

                // Start a leg on every shard with something to run.
                for i in 0..n {
                    let running = out[i] || (Some(i) == mine && my_leg.is_some());
                    let go = (first && crew[i]) || wake[i];
                    if running || !go || dead[i] {
                        continue;
                    }
                    wake[i] = false;
                    let leg_round = match (lockstep, drew[i]) {
                        (true, _) => round,
                        (false, false) => Some(first_round),
                        (false, true) => None,
                    };
                    drew[i] = true;
                    let m = *mine.get_or_insert(i);
                    if m == i {
                        my_leg = Some(drive.start(i, leg_round));
                        continue;
                    }
                    let leg = legs[i].get_or_insert_with(|| spawn(i));
                    if leg.send(leg_round).is_ok() {
                        out[i] = true;
                    } else {
                        // Its thread is gone (it unwound past its own
                        // containment in an earlier leg): never wait
                        // for it.
                        ended.push((
                            i,
                            Err(ServeError::Panicked {
                                what: "shard worker is gone".into(),
                            }),
                        ));
                    }
                }
                first = false;

                // Run a quantum of the caller's own shard, or wait.
                if let Some(panic_at) = my_leg.as_mut() {
                    let m = mine.expect("the caller's leg has a shard");
                    let done = match drive.quantum(m, &mut lock(&drive.slots[m]), panic_at) {
                        Ok(ran) => drive.leg_ends(m, ran).then_some(Ok(())),
                        Err(e) => Some(Err(e)),
                    };
                    if let Some(outcome) = done {
                        ended.push((m, outcome));
                        my_leg = None;
                    }
                    continue;
                }
                if !ended.is_empty() {
                    continue;
                }
                if out.contains(&true) {
                    drive.bell.wait(tick);
                    continue;
                }

                // Nothing runs. Under default scheduling a leg ends only
                // when its shard is idle, so the fleet is. Under
                // PC-affinity this is the barrier between quantum rounds:
                // while a live shard holds work, the quiesced fleet is
                // the coordinator's to rebalance, then the next round
                // draws its chaos and every live shard is released.
                if let Some(cfg) = &affinity {
                    let mut guards: Vec<_> = drive.slots.iter().map(lock).collect();
                    let mut shards: Vec<&mut Shard<'p>> =
                        guards.iter_mut().map(|g| &mut ***g).collect();
                    let live: Vec<usize> = (0..n)
                        .filter(|&i| !dead[i] && !shards[i].poisoned())
                        .collect();
                    if live.iter().any(|&i| shards[i].has_work()) {
                        Self::rebalance(&mut shards, cap, cfg, &dead);
                        round = Some(*next_fault_round);
                        *next_fault_round += 1;
                        for &i in &live {
                            wake[i] = true;
                        }
                        continue;
                    }
                }
                // Nothing left to run. A hook not yet shown every
                // retirement is shown the rest, and may bring more,
                // first.
                let unheard =
                    !ready.is_empty() || !failed.is_empty() || !lock(&drive.retired).is_empty();
                if !closed && unheard {
                    continue;
                }
                break;
            }
        });
        // What was tended in the last round and never handed out.
        for (_, retired) in drive
            .retired
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
        {
            retired.file(ready, failed);
        }
    }

    /// Book one finished leg on its shard: poison the shard if the leg
    /// failed, and move its completed responses into the fleet's ready
    /// buffer. Returns the error that takes the shard out of the drive,
    /// if the leg failed.
    fn settle(
        shard: &mut Shard<'p>,
        outcome: LegOutcome,
        ready: &mut Vec<(u64, Response)>,
    ) -> LegOutcome {
        if let Err(e) = &outcome {
            // Whatever ended the leg takes the shard out until a
            // respawn: a worker that died outside its containment may
            // have left the machine mid-superstep, and one out of steps
            // can never run again. A shard that poisoned itself keeps
            // its own poison.
            if !shard.poisoned() {
                shard.server.poison(e.clone());
            }
        }
        // Completed work is salvaged either way.
        ready.extend(shard.server.take_numbered());
        outcome
    }

    /// One rebalance pass between quantum rounds: straggler migrations
    /// first, then work stealing, both planned against one consistent
    /// snapshot of the (quiesced) fleet. A move between shards whose
    /// servers fixed different input specs is skipped, and so is a
    /// migration whose eviction or injection fails (the plan raced a
    /// retirement); a lane that cannot be injected is put back on its
    /// donor, and one that cannot be put back either poisons the donor,
    /// which then reports the request lost — rebalancing never drops
    /// work silently.
    fn rebalance(shards: &mut [&mut Shard<'p>], cap: usize, cfg: &AffinityConfig, dead: &[bool]) {
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
                steps: s.server.supersteps(),
            })
            .collect();
        // Straggler/consolidation migrations first, then queue steals,
        // then batch splits for shards still idle (the splits planner
        // no-ops whenever any queue is non-empty, so a thief never gets
        // both a steal and a split in one pass).
        let mut lane_moves = plan_migrations(&views, cap, cfg);
        lane_moves.extend(plan_splits(&views, cap, cfg));
        for m in lane_moves {
            let (donor, recipient) = Self::shard_pair(shards, m.from, m.to);
            if !recipient.server.takes_work_from(&donor.server) {
                continue;
            }
            let Ok(migrants) = donor.server.evict_lanes(&[m.ticket]) else {
                continue;
            };
            for migrant in migrants {
                match recipient.server.admit_migrant(migrant) {
                    Ok(()) => recipient.migrated_in += 1,
                    Err(bounce) => {
                        // Hand the lane back to its donor; the donor
                        // held it a moment ago, so re-injection cannot
                        // fail structurally. If it somehow does, the
                        // lane is nowhere: the donor is poisoned and
                        // reports its request lost at the respawn.
                        let (migrant, _) = *bounce;
                        if let Err(bounce) = donor.server.admit_migrant(migrant) {
                            let (migrant, e) = *bounce;
                            donor.server.lose(migrant, e);
                        }
                    }
                }
            }
        }
        for s in plan_steals(&views, cap, cfg) {
            let (donor, thief) = Self::shard_pair(shards, s.from, s.to);
            if !thief.server.takes_work_from(&donor.server) {
                continue;
            }
            let batch = donor.server.steal_queued(s.n);
            thief.steals += batch.len() as u64;
            thief.server.enqueue_stolen(batch);
        }
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

/// How a leg ended for one shard: the error that takes the shard out of
/// the drive, if one did.
type LegOutcome = Result<()>;

/// Lock a drive mutex, poisoned or not: every value these guard stays
/// valid at every step. (A *shard* left half-mutated by a panic is
/// marked through [`BatchServer::poison`], never through its lock.)
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What the coordinator has posted for one shard and the shard has not
/// yet taken; also what the books turn one call of the hook into, for
/// the coordinator to post.
#[derive(Debug, Default)]
pub(crate) struct Inbox {
    /// Requests routed here, each with its submission sequence.
    pub(crate) requests: Vec<(u64, Request)>,
    pub(crate) cancels: Vec<u64>,
    /// The fleet clock as of the latest post (taken by a shard's every
    /// look, work or not).
    pub(crate) clock: u64,
}

impl Inbox {
    /// Whether the shard has anything to act on.
    fn is_empty(&self) -> bool {
        self.requests.is_empty() && self.cancels.is_empty()
    }
}

/// What a shard hands the coordinator: one request's terminal outcome.
#[derive(Debug)]
enum Retired {
    /// A response, with its submission sequence.
    Done(u64, Response),
    /// A governance verdict (a budget eviction or a cancellation), or
    /// the refusal of a request routed mid-drive.
    Failed(Verdict),
}

impl Retired {
    /// File the outcome in the fleet's buffers.
    fn file(self, ready: &mut Vec<(u64, Response)>, failed: &mut Vec<Verdict>) {
        match self {
            Retired::Done(seq, r) => ready.push((seq, r)),
            Retired::Failed(verdict) => failed.push(verdict),
        }
    }
}

/// What the coordinator and the workers of one drive share. A *leg* is
/// what a shard runs between two releases: under default scheduling,
/// quanta until it is idle; under PC-affinity, one quantum.
struct Drive<'a, 'p> {
    /// Every shard of the fleet. A worker holds its shard's lock for
    /// the length of a leg, the caller its own for one quantum; the
    /// coordinator takes a shard's lock only while nobody runs it.
    slots: Vec<Mutex<&'a mut Shard<'p>>>,
    /// Per shard, what was posted for it while it ran.
    inboxes: Vec<Mutex<Inbox>>,
    /// Retirements handed over and not yet filed, by shard.
    retired: Mutex<Vec<(usize, Retired)>>,
    /// What the coordinator sleeps on.
    bell: &'a Bell,
    /// Supersteps per [`BatchServer::run_for`] call.
    quantum: u64,
    /// Whether a leg is a single quantum (PC-affinity) or runs until
    /// the shard is idle (default scheduling).
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
            lock(inbox).cancels.extend_from_slice(&ids);
        }
    }

    /// Take what was posted for shard `i` — the clock, then requests,
    /// then cancellations, so a cancel finds a request posted with it —
    /// and hand over what that settled. Returns whether requests came.
    fn tend(&self, i: usize, server: &mut BatchServer<'p>) -> bool {
        let Inbox {
            requests,
            cancels,
            clock,
        } = std::mem::take(&mut *lock(&self.inboxes[i]));
        let fed = !requests.is_empty();
        server.set_clock(clock);
        let mut refused = Vec::new();
        for (seq, r) in requests {
            let id = r.id;
            if let Err(e) = server.submit_as(seq, r) {
                refused.push(Retired::Failed((seq, id, e)));
            }
        }
        for id in cancels {
            server.cancel(id);
        }
        self.hand_over(i, server, refused);
        fed
    }

    /// Hand shard `i`'s retirements to the coordinator, and wake it.
    fn hand_over(&self, i: usize, server: &mut BatchServer<'p>, mut retired: Vec<Retired>) {
        let failed = server.take_failed();
        retired.extend(failed.into_iter().map(Retired::Failed));
        let done = server.take_numbered().into_iter();
        retired.extend(done.map(|(seq, r)| Retired::Done(seq, r)));
        if retired.is_empty() {
            return;
        }
        lock(&self.retired).extend(retired.into_iter().map(|r| (i, r)));
        self.bell.ring();
    }

    /// Roll the worker-level chaos a leg on shard `i` draws against
    /// `fault_round`: sleep if the leg is slowed, and return the counter
    /// of the panic due at its first quantum, if one is.
    fn start(&self, i: usize, fault_round: Option<u64>) -> Option<u64> {
        // One fleet-unique counter per (round, shard).
        let counter = fault_round? * self.slots.len() as u64 + i as u64;
        if self.fault.fires(FaultPoint::WorkerSlow, counter) {
            std::thread::sleep(Duration::from_micros(self.fault.delay_micros(counter)));
        }
        self.fault
            .fires(FaultPoint::WorkerPanic, counter)
            .then_some(counter)
    }

    /// One quantum on shard `i`: take its inbox, run up to `quantum`
    /// supersteps, hand over what retired. Returns the supersteps run.
    fn quantum(&self, i: usize, shard: &mut Shard<'p>, panic_at: &mut Option<u64>) -> Result<u64> {
        self.tend(i, &mut shard.server);
        let ran = catch_unwind(AssertUnwindSafe(|| {
            if let Some(c) = panic_at.take() {
                panic!(
                    "injected fault at {} (counter {c})",
                    FaultPoint::WorkerPanic.name()
                );
            }
            shard.server.run_for(self.quantum)
        }))
        .unwrap_or_else(|payload| {
            // The machine may be mid-superstep: poison the shard so
            // nothing drives it again before a respawn.
            let e = ServeError::Panicked {
                what: panic_message(payload),
            };
            shard.server.poison(e.clone());
            Err(e)
        });
        self.hand_over(i, &mut shard.server, Vec::new());
        ran
    }

    /// Whether a leg on shard `i` ends after a quantum that ran `ran`
    /// supersteps: under PC-affinity after every quantum, otherwise once
    /// the shard is idle and its inbox empty.
    fn leg_ends(&self, i: usize, ran: u64) -> bool {
        self.one_quantum_legs || (ran < self.quantum && lock(&self.inboxes[i]).is_empty())
    }

    /// Run one leg on shard `i`: quanta until [`Drive::leg_ends`].
    fn leg(&self, i: usize, fault_round: Option<u64>) -> LegOutcome {
        let mut panic_at = self.start(i, fault_round);
        let mut slot = lock(&self.slots[i]);
        loop {
            let ran = self.quantum(i, &mut slot, &mut panic_at)?;
            if self.leg_ends(i, ran) {
                return Ok(());
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
                bell: self.bell,
                shard: i,
                outcome: None,
            };
            report.outcome = Some(self.leg(i, fault_round));
        }
    }
}

/// Sends a worker's leg outcome when dropped, and rings the drive's
/// bell — so a worker that unwinds past its own containment still
/// reports (as panicked), and the coordinator never waits on a thread
/// that will not answer.
struct Report<'r> {
    to: &'r Sender<(usize, LegOutcome)>,
    bell: &'r Bell,
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
        self.bell.ring();
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

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
            let policy = AdmissionPolicy::JoinAtEntry { max_batch: 3 };
            let mut server = sharded(policy, workers, ExecOptions::default(), &pc);
            for (id, &n) in NS.iter().enumerate() {
                server.submit(fib_request(id as u64, n)).unwrap();
            }
            let done = server.run_until_idle_with(&mut Vec::new).unwrap();
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
        let policy = AdmissionPolicy::JoinAtEntry { max_batch: 2 };
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
            let done = server.run_until_idle_with(&mut Vec::new).unwrap();
            for (a, b) in reference.iter().zip(&done) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.outputs, b.outputs, "sharding perturbed request {}", a.id);
            }
        }
    }

    #[test]
    fn router_balances_queue_depth_across_shards() {
        let (pc, _) = lower(&fibonacci_program(), LoweringOptions::default()).unwrap();
        let policy = AdmissionPolicy::JoinAtEntry { max_batch: 4 };
        let mut server = sharded(policy, 4, ExecOptions::default(), &pc);
        for id in 0..8u64 {
            server.submit(fib_request(id, 5)).unwrap();
        }
        for (i, s) in server.shards.iter().enumerate() {
            assert_eq!(s.load(), 2, "shard {i} unbalanced");
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
        // Serial per-shard batches: shard 0 serves ids 0 then 2 (fib(2),
        // then the overflowing fib(40), with id 4 stranded behind it);
        // shard 1 serves ids 1 and 3. Every attempt at fib(40) overflows
        // and poisons the shard it runs on.
        let policy = AdmissionPolicy::DrainAndRefill { max_batch: 1 };
        let mut server = sharded(policy, 2, opts, &pc);
        for (id, n) in [(0u64, 2i64), (1, 5), (2, 40), (3, 7), (4, 9)] {
            server.submit(fib_request(id, n)).unwrap();
        }
        let (done, failed) = served(&mut server, &mut Vec::new);
        // Every other response survives: shard 0's own completion before
        // the error, and the stranded fib(9) retried elsewhere.
        let got: Vec<(u64, i64)> = done
            .iter()
            .map(|r| (r.id, r.outputs[0].as_i64().unwrap()[0]))
            .collect();
        assert_eq!(got, vec![(0, 2), (1, 8), (3, 21), (4, 55)]);
        // fib(40) poisons a shard on every attempt: one respawn per
        // attempt, then a typed answer that keeps the cause.
        let budget = SupervisorConfig::default().retry_budget;
        assert!(
            matches!(
                &failed[..],
                [(2, ServeError::RetriesExhausted { attempts, last, .. })]
                    if *attempts == budget + 1
                        && matches!(**last, ServeError::Vm(VmError::StackOverflow { .. }))
            ),
            "{failed:?}"
        );
        assert_eq!(server.respawns(), u64::from(budget) + 1);
        assert!(
            server.shards.iter().all(|s| !s.poisoned()),
            "the fleet healed"
        );
        // And it keeps serving.
        server.submit(fib_request(5, 6)).unwrap();
        let done = server.run_until_idle_with(&mut Vec::new).unwrap();
        assert_eq!(done[0].outputs[0].as_i64().unwrap(), &[13]);
    }

    #[test]
    fn aggregated_trace_sums_the_shards_supersteps() {
        let (pc, _) = lower(&fibonacci_program(), LoweringOptions::default()).unwrap();
        let policy = AdmissionPolicy::JoinAtEntry { max_batch: 4 };
        let mut server = sharded(policy, 2, ExecOptions::default(), &pc);
        for (id, &n) in NS.iter().enumerate() {
            server.submit(fib_request(id as u64, n)).unwrap();
        }
        server.run_until_idle_with(&mut Vec::new).unwrap();
        let agg = server.aggregated_trace();
        let per_shard: Vec<u64> = server
            .shards
            .iter()
            .map(|s| s.server.supersteps())
            .collect();
        assert!(per_shard.iter().all(|&n| n > 0), "both shards ran");
        assert_eq!(agg.supersteps(), per_shard.iter().sum::<u64>());
        assert_eq!(agg.members_migrated_in(), 0, "least-loaded moves no lane");
    }

    #[test]
    fn a_respawn_keeps_the_fleets_superstep_count() {
        let (pc, _) = lower(&fibonacci_program(), LoweringOptions::default()).unwrap();
        let policy = AdmissionPolicy::JoinAtEntry { max_batch: 2 };
        let mut server = sharded(policy, 2, ExecOptions::default(), &pc);
        for (id, &n) in NS.iter().enumerate() {
            server.submit(fib_request(id as u64, n)).unwrap();
        }
        server.run_until_idle_with(&mut Vec::new).unwrap();
        let ran = server.supersteps();
        assert_eq!(ran, server.aggregated_trace().supersteps());
        server.respawn(0);
        assert_eq!(server.shards[0].server.supersteps(), 0, "a fresh machine");
        assert_eq!(server.supersteps(), ran, "the fleet's count is kept");
        assert_eq!(server.aggregated_trace().supersteps(), ran);
    }

    /// Halves its input, counting evaluations and cost-model queries.
    #[derive(Debug, Default)]
    struct Halve {
        evals: AtomicUsize,
        priced: AtomicUsize,
    }

    impl autobatch_core::ExternalKernel for Halve {
        fn arity(&self) -> autobatch_ir::Arity {
            autobatch_ir::Arity { ins: 1, outs: 1 }
        }
        fn eval(&self, inputs: &[Tensor]) -> autobatch_tensor::Result<Vec<Tensor>> {
            self.evals.fetch_add(1, Ordering::Relaxed);
            Ok(vec![inputs[0].mul(&Tensor::scalar(0.5))?])
        }
        fn flops_per_member(&self, _: &[Tensor]) -> f64 {
            self.priced.fetch_add(1, Ordering::Relaxed);
            1.0
        }
        fn parallel_per_member(&self, _: &[Tensor]) -> usize {
            self.priced.fetch_add(1, Ordering::Relaxed);
            1
        }
    }

    /// The served path runs no cost model: a fleet drive evaluates the
    /// kernel and never asks what it costs (a priced run asks twice per
    /// evaluation, one flops and one parallelism query).
    #[test]
    fn a_served_drive_prices_nothing() {
        use autobatch_core::ExecStrategy;
        use autobatch_ir::build::ProgramBuilder;
        use autobatch_ir::{Prim, Var};
        // n = number of halvings until x <= 1: divergent trip counts.
        let mut pb = ProgramBuilder::new();
        let f = pb.declare("halvings", &["x0"], &["n"]);
        pb.define(f, |fb| {
            let (x, n) = (Var::new("x"), fb.output(0));
            fb.copy(&x, &fb.param(0));
            let zero = fb.const_i64(0);
            fb.copy(&n, &zero);
            fb.while_loop(
                |fb| {
                    let one = fb.const_f64(1.0);
                    fb.emit(Prim::Gt, &[Var::new("x"), one])
                },
                |fb| {
                    fb.assign(&Var::new("x"), Prim::external("halve"), &[Var::new("x")]);
                    let one = fb.const_i64(1);
                    fb.assign(&fb.output(0), Prim::Add, &[fb.output(0), one]);
                },
            );
            fb.ret();
        });
        let (pc, _) = lower(&pb.finish(f).unwrap(), LoweringOptions::default()).unwrap();
        let kernel = Arc::new(Halve::default());
        let mut registry = KernelRegistry::new();
        registry.register("halve", kernel.clone());
        let opts = ExecOptions {
            strategy: ExecStrategy::Masking,
            ..ExecOptions::default()
        };
        let policy = AdmissionPolicy::JoinAtEntry { max_batch: 2 };
        let mut server =
            ShardedServer::new(&pc, registry, opts, policy, 2, Backend::hybrid_cpu()).unwrap();
        for (id, x) in [9.0, 1.5, 40.0, 0.5].into_iter().enumerate() {
            let inputs = vec![Tensor::from_f64(&[x], &[1]).unwrap()];
            server
                .submit(Request {
                    id: id as u64,
                    inputs,
                    seed: 0,
                })
                .unwrap();
        }
        let done = server.run_until_idle_with(&mut Vec::new).unwrap();
        let halvings: Vec<i64> = done
            .iter()
            .map(|r| r.outputs[0].as_i64().unwrap()[0])
            .collect();
        assert_eq!(halvings, vec![4, 1, 6, 0]);
        // Masked, shard 0 (9 and 40) halves six times, shard 1 (1.5
        // and 0.5) once.
        assert_eq!(kernel.evals.load(Ordering::Relaxed), 7);
        assert_eq!(
            kernel.priced.load(Ordering::Relaxed),
            0,
            "the drive priced a kernel"
        );
    }

    #[test]
    fn twin_ids_in_flight_come_back_in_submission_order() {
        // Two requests share an id; the later one, on the other shard,
        // retires long before the earlier one. Each carries its own
        // submission number, so neither takes the other's place.
        let (pc, _) = lower(&fibonacci_program(), LoweringOptions::default()).unwrap();
        let policy = AdmissionPolicy::JoinAtEntry { max_batch: 2 };
        let mut server = sharded(policy, 2, ExecOptions::default(), &pc);
        server.submit(fib_request(7, 20)).unwrap();
        server.submit(fib_request(7, 3)).unwrap();
        assert_eq!((server.shards[0].load(), server.shards[1].load()), (1, 1));
        let done = server.run_until_idle_with(&mut Vec::new).unwrap();
        let got: Vec<(u64, i64)> = done
            .iter()
            .map(|r| (r.id, r.outputs[0].as_i64().unwrap()[0]))
            .collect();
        assert_eq!(got, vec![(7, 10946), (7, 3)], "fib(20), then fib(3)");
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
            let done = server.run_until_idle_with(&mut Vec::new).unwrap();
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

    /// Drive the fleet until it is idle, cancelling every id `poll`
    /// returns, and keep every outcome handed out, in the order it
    /// resolved.
    fn outcomes_of(
        server: &mut ShardedServer<'_>,
        poll: &mut dyn FnMut() -> Vec<u64>,
    ) -> Vec<Outcome> {
        let mut outcomes = Vec::new();
        server.drive(None, &mut |resolved| {
            outcomes.extend(resolved);
            Intake {
                cancels: poll(),
                ..Intake::default()
            }
        });
        outcomes
    }

    /// [`outcomes_of`], split: the responses by id, and the failures as
    /// `(id, error)` in the order they resolved.
    fn served(
        server: &mut ShardedServer<'_>,
        poll: &mut dyn FnMut() -> Vec<u64>,
    ) -> (Vec<Response>, Vec<(u64, ServeError)>) {
        let (mut done, mut failed) = (Vec::new(), Vec::new());
        for outcome in outcomes_of(server, poll) {
            match outcome {
                Outcome::Done(r) => done.push(r),
                Outcome::Failed { id, error } => failed.push((id, error)),
            }
        }
        done.sort_by_key(|r| r.id);
        (done, failed)
    }

    fn threads_spawned_by(drive: impl FnOnce()) -> usize {
        let before = THREADS_SPAWNED.with(std::cell::Cell::get);
        drive();
        THREADS_SPAWNED.with(std::cell::Cell::get) - before
    }

    #[test]
    fn a_drive_starts_its_threads_once_and_an_idle_drive_starts_none() {
        let (pc, _) = lower(&fibonacci_program(), LoweringOptions::default()).unwrap();
        let policy = AdmissionPolicy::JoinAtEntry { max_batch: 2 };
        for scheduling in [SchedulingPolicy::LeastLoaded, affinity(12)] {
            let mut server = sharded(policy, 2, ExecOptions::default(), &pc);
            server.set_scheduling(scheduling);
            for id in 0..6u64 {
                server.submit(fib_request(id, 17)).unwrap();
            }
            let spawned = threads_spawned_by(|| {
                assert_eq!(server.run_until_idle_with(&mut Vec::new).unwrap().len(), 6);
            });
            for i in 0..2 {
                assert!(
                    server.shards[i].server.supersteps() >= 100 * CANCEL_QUANTUM,
                    "each shard must have run at least 100 quanta"
                );
            }
            assert_eq!(
                spawned, 1,
                "{scheduling:?}: the caller runs one of two busy shards itself"
            );
            // Nothing to do: nothing started.
            assert_eq!(
                threads_spawned_by(|| drop(server.run_until_idle_with(&mut Vec::new))),
                0
            );
        }
        // One busy shard of four runs inline, and so does any 1-worker
        // fleet.
        let mut server = sharded(policy, 4, ExecOptions::default(), &pc);
        server.submit(fib_request(0, 12)).unwrap();
        assert_eq!(
            threads_spawned_by(|| drop(server.run_until_idle_with(&mut Vec::new))),
            0
        );
        let mut server = sharded(policy, 1, ExecOptions::default(), &pc);
        for id in 0..4u64 {
            server.submit(fib_request(id, 12)).unwrap();
        }
        assert_eq!(
            threads_spawned_by(|| drop(server.run_until_idle_with(&mut Vec::new))),
            0
        );
        // Under affinity work moves, so one busy shard enlists the
        // fleet: four shards, three threads.
        let mut server = sharded(policy, 4, ExecOptions::default(), &pc);
        server.set_scheduling(affinity(12));
        server.submit(fib_request(0, 12)).unwrap();
        assert_eq!(
            threads_spawned_by(|| drop(server.run_until_idle_with(&mut Vec::new))),
            3
        );
    }

    #[test]
    fn every_worker_panicking_at_once_cannot_hang_the_drive() {
        use autobatch_chaos::FaultPlan;
        silence_injected_panics();
        for scheduling in [SchedulingPolicy::LeastLoaded, affinity(12)] {
            let (failed, healthy) = within(Duration::from_secs(30), move || {
                let (pc, _) = lower(&fibonacci_program(), LoweringOptions::default()).unwrap();
                let opts = ExecOptions {
                    fault: FaultPlan {
                        seed: 5,
                        worker_panic: FaultPlan::ALWAYS,
                        ..FaultPlan::none()
                    },
                    ..ExecOptions::default()
                };
                let policy = AdmissionPolicy::JoinAtEntry { max_batch: 2 };
                let mut server = sharded(policy, 4, opts, &pc);
                server.set_scheduling(scheduling);
                for (id, &n) in NS.iter().enumerate() {
                    server.submit(fib_request(id as u64, n)).unwrap();
                }
                let (done, failed) = served(&mut server, &mut Vec::new);
                assert!(done.is_empty());
                let healthy = server.shards.iter().all(|s| !s.poisoned());
                (failed, healthy)
            });
            // The caller's own shard and all three workers die in the
            // same leg, every leg; each death is reported, healed and
            // charged, until every request is answered with the panic.
            assert_eq!(failed.len(), NS.len());
            for (_, e) in &failed {
                assert!(
                    matches!(e, ServeError::RetriesExhausted { last, .. }
                        if matches!(**last, ServeError::Panicked { .. })),
                    "{e:?}"
                );
            }
            assert!(healthy, "the fleet ends healed");
        }
    }

    #[test]
    fn a_worker_that_dies_outside_its_containment_is_still_reported() {
        silence_injected_panics();
        // The drop guard is the only way a leg is ever reported, so a
        // worker unwinding from anywhere reports too — as panicked.
        let (tx, rx) = channel();
        let bell = Bell::default();
        let rung = bell.clone();
        let worker = std::thread::spawn(move || {
            let _report = Report {
                to: &tx,
                bell: &rung,
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
        // And the coordinator is woken to read it: this returns at once.
        bell.wait(None);
    }

    #[test]
    fn one_panicking_worker_poisons_only_its_shard() {
        use autobatch_chaos::FaultPlan;
        silence_injected_panics();
        let (pc, _) = lower(&fibonacci_program(), LoweringOptions::default()).unwrap();
        let policy = AdmissionPolicy::JoinAtEntry { max_batch: 2 };
        // The fault-free answers, by id.
        let mut clean = sharded(policy, 4, ExecOptions::default(), &pc);
        for (id, &n) in NS.iter().enumerate() {
            clean.submit(fib_request(id as u64, n)).unwrap();
        }
        let want = clean.run_until_idle_with(&mut Vec::new).unwrap();
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
            // The victim dies before it runs anything: only it is
            // respawned, the requests it held are retried, and every
            // request is answered, bit-identical to the fault-free run.
            let got = server.run_until_idle_with(&mut Vec::new).unwrap();
            assert_eq!(server.respawns(), 1);
            assert!(server.retries() > 0, "the victim must have held work");
            assert!(server.fault_round <= ROUNDS, "the plan covers the drive");
            let ids: Vec<u64> = got.iter().map(|r| r.id).collect();
            assert_eq!(ids, (0..NS.len() as u64).collect::<Vec<_>>());
            for (g, w) in got.iter().zip(&want) {
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
        let policy = AdmissionPolicy::JoinAtEntry { max_batch: 2 };
        let mut server = sharded(policy, 1, opts, &pc);
        server
            .submit(Request {
                id: 7,
                inputs: vec![Tensor::from_i64(&[9], &[1]).unwrap()],
                seed: doomed,
            })
            .unwrap();
        let mut calls = 0u64;
        let (done, failed) = served(&mut server, &mut || {
            calls += 1;
            if calls == 4 {
                vec![7]
            } else {
                Vec::new()
            }
        });
        assert!(done.is_empty());
        assert_eq!(failed, vec![(7, ServeError::Cancelled)]);
        // Posted after the third quantum; not one superstep more.
        let ran = server.shards[0].server.supersteps();
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
            let policy = AdmissionPolicy::JoinAtEntry { max_batch: 2 };
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
            assert_eq!(server.shards[1].load(), 1, "the runaway is the worker's");
            let mut calls = 0u64;
            let mut posted = None;
            let (done, failed) = served(&mut server, &mut || {
                calls += 1;
                if calls == 6 {
                    posted = Some(std::time::Instant::now());
                    vec![1]
                } else {
                    Vec::new()
                }
            });
            let latency = posted.expect("the hook was asked six times").elapsed();
            (failed, done, latency)
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
        let policy = AdmissionPolicy::DrainAndRefill { max_batch: 2 };
        let mut server = sharded(policy, 4, opts, &pc);
        server.set_budget(crate::RequestBudget {
            max_supersteps: Some(8),
            ..crate::RequestBudget::unlimited()
        });
        for id in 0..4u64 {
            server.submit(fib_request(id, 20)).unwrap();
        }
        // The drive returns: nothing waits on the runaways.
        let (done, failed) = served(&mut server, &mut Vec::new);
        assert!(done.is_empty());
        assert_eq!(failed.len(), 4);
        for (_, e) in &failed {
            assert!(
                matches!(e, ServeError::BudgetExceeded { spent: 9, limit: 8 }),
                "expected a typed budget verdict, got {e:?}"
            );
        }
        assert_eq!(server.evictions(), 4);
        assert!(
            server.shards.iter().all(|s| !s.poisoned()),
            "no shard may wedge"
        );
        assert_eq!(server.respawns(), 0);
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
        let mut sup = sharded(policy, 2, opts, &pc);
        sup.set_supervision(SupervisorConfig {
            quarantine: crate::QuarantineConfig {
                trip_threshold: 2,
                decay_rounds: 64,
                cooldown_rounds: 3,
            },
            ..SupervisorConfig::default()
        });
        sup.set_budget(crate::RequestBudget {
            max_supersteps: Some(2048),
            ..crate::RequestBudget::unlimited()
        });

        // Two budget blowups inside the window trip the breaker.
        sup.submit(request(0, doomed.next().unwrap())).unwrap();
        sup.submit(request(1, doomed.next().unwrap())).unwrap();
        let outcomes = outcomes_of(&mut sup, &mut Vec::new);
        assert_eq!(outcomes.len(), 2);
        for o in &outcomes {
            assert!(
                matches!(
                    o,
                    Outcome::Failed {
                        error: ServeError::BudgetExceeded { .. },
                        ..
                    }
                ),
                "expected budget blowups, got {o:?}"
            );
        }

        // Open: fast-rejects with the two blowups on record, each
        // advancing the cooldown clock, until the half-open probe slot
        // admits one request.
        let mut refusals = 0u64;
        loop {
            match sup.submit(request(100 + refusals, clean)) {
                Err(ServeError::Quarantined { blowups }) => {
                    assert_eq!(blowups, 2);
                    refusals += 1;
                }
                Ok(()) => break,
                Err(e) => panic!("unexpected refusal: {e}"),
            }
            assert!(refusals <= 3, "cooldown must elapse within cooldown_rounds");
        }
        assert!(refusals >= 1, "the breaker must be open");
        // A second request cannot share the probe slot.
        assert!(matches!(
            sup.submit(request(999, clean)),
            Err(ServeError::Quarantined { .. })
        ));

        // The clean probe terminates normally: the breaker closes and
        // traffic flows again.
        let outcomes = outcomes_of(&mut sup, &mut Vec::new);
        assert!(
            outcomes.iter().any(|o| matches!(o, Outcome::Done(_))),
            "the probe must complete, got {outcomes:?}"
        );
        sup.submit(request(200, clean)).unwrap();
        let outcomes = outcomes_of(&mut sup, &mut Vec::new);
        assert_eq!(outcomes.len(), 1);
        assert!(matches!(outcomes[0], Outcome::Done(_)));

        // The probe also reset the record: one more blowup stays under
        // the threshold (kept, the two old ones would make it a third
        // and trip the breaker), and the next trips it with two on
        // record, not four.
        sup.submit(request(300, doomed.next().unwrap())).unwrap();
        outcomes_of(&mut sup, &mut Vec::new);
        sup.submit(request(301, clean))
            .expect("one blowup since the reset must not trip the breaker");
        outcomes_of(&mut sup, &mut Vec::new);
        sup.submit(request(302, doomed.next().unwrap())).unwrap();
        outcomes_of(&mut sup, &mut Vec::new);
        assert!(matches!(
            sup.submit(request(303, clean)),
            Err(ServeError::Quarantined { blowups: 2 })
        ));
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
        let policy = AdmissionPolicy::DrainAndRefill { max_batch: 2 };
        let mut sup = sharded(policy, 2, opts, &pc);
        sup.set_supervision(SupervisorConfig {
            quarantine: crate::QuarantineConfig {
                trip_threshold: 1,
                decay_rounds: 64,
                cooldown_rounds: 2,
            },
            ..SupervisorConfig::default()
        });
        sup.set_budget(crate::RequestBudget {
            max_supersteps: Some(8),
            ..crate::RequestBudget::unlimited()
        });
        sup.submit(request(0, doomed.next().unwrap())).unwrap();
        outcomes_of(&mut sup, &mut Vec::new);
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
        assert!(refusals >= 1, "one blowup must open the breaker");
        // The probe itself runs away: straight back to quarantine.
        outcomes_of(&mut sup, &mut Vec::new);
        let after = sup.submit(request(999, probe_seed));
        assert!(
            matches!(after, Err(ServeError::Quarantined { .. })),
            "a blown probe must re-open the breaker, got {after:?}"
        );
    }
}
