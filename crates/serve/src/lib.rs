//! # autobatch-serve
//!
//! A serving layer over the program-counter autobatching VM: requests
//! arrive one at a time, are merged into an **in-flight** batched
//! execution under an [`AdmissionPolicy`], and leave with per-request
//! results — the "sustained multi-request traffic" mode the ROADMAP's
//! north star asks for, in the spirit of on-the-fly batchers like
//! ACRoBat (Fegade et al., 2023).
//!
//! The three policies contrast the classic serving trade-offs:
//!
//! - [`AdmissionPolicy::JoinAtEntry`] — pending requests join the live
//!   batch at the program entry block whenever a lane is free.
//!   Stragglers no longer serialize the queue: fresh requests ride
//!   along in the same supersteps, and the paper's pc batching lets
//!   them share block launches with members deep in recursion.
//! - [`AdmissionPolicy::DrainAndRefill`] — the baseline: wait until the
//!   machine is empty, then admit a full batch. Equivalent to running
//!   sequential fixed-size batches.
//! - [`AdmissionPolicy::Deadline`] — OpenVINO-style auto-batch
//!   collection: pending requests are held back until they can fill
//!   every free lane, **or** until the oldest of them has waited
//!   `max_wait` ticks of the server's [clock](BatchServer::set_clock) —
//!   so batches stay full under load while tail latency stays bounded
//!   under light load.
//!
//! Time is explicit: the server owns a monotonic virtual clock in
//! abstract ticks, advanced by the caller ([`BatchServer::set_clock`]).
//! Benchmarks drive it deterministically from the simulated cost model;
//! the TCP ingress layer (`autobatch-ingress`) drives it from the real
//! clock at the connection boundary. Queue-wait observability
//! ([`Response::queued_ticks`], [`BatchServer::peak_pending`]) is
//! measured in those ticks. Backpressure is the front door's job: the
//! ingress layer bounds its backlog at the connection threads and
//! refuses with the typed [`ServeError::Overloaded`].
//!
//! Correctness does not depend on the policy: every request's draws come
//! from the counter-based RNG keyed by `(seed, member_key, counter)`,
//! so results are bit-identical across admission orders and batch
//! compositions (asserted by this crate's tests and the workspace
//! property suite).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::{BTreeMap, VecDeque};

use autobatch_accel::Trace;
use autobatch_chaos::{FaultPlan, FaultPoint};
use autobatch_core::{ExecOptions, KernelRegistry, LaneState, PcMachine, VmError};
use autobatch_ir::analysis::{
    analyze_pcab, infer_pcab_signature, AbsDType, PcabReport, TensorSpec,
};
use autobatch_ir::pcab::Program;
use autobatch_ir::IrError;
use autobatch_tensor::{DType, Tensor};

pub mod affinity;
pub mod shard;
pub mod supervisor;

pub use affinity::{AffinityConfig, SchedulingPolicy};
pub use shard::{Bell, FleetCounts, Intake, ShardHealth, ShardedServer};
pub use supervisor::{Outcome, QuarantineConfig, Supervisor, SupervisorConfig};

/// Errors from the serving layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The underlying VM failed.
    Vm(VmError),
    /// A request does not fit the served program.
    BadRequest(String),
    /// The policy configuration is unusable (e.g. zero capacity).
    BadPolicy(String),
    /// The program failed static verification at server construction:
    /// no machine state is ever created for a program the abstract
    /// interpreter rejects.
    InvalidProgram(IrError),
    /// A request's inputs violate the program's statically inferred
    /// signature (wrong dtype or element shape). Detected at
    /// submission, before the request touches any machine state.
    InvalidRequest(IrError),
    /// Load shedding: the backlog is at its configured budget and the
    /// request was **not** accepted. The typed alternative to letting
    /// the backlog grow without bound — callers can retry later or fail
    /// fast upstream. Raised by the ingress front door, which owns the
    /// budget; no server in this crate sheds.
    Overloaded {
        /// Queue depth observed at rejection.
        depth: usize,
        /// The configured queue budget that was hit.
        budget: usize,
    },
    /// A worker thread panicked. The panic was caught at the shard
    /// boundary and converted into this typed poison — one shard dies,
    /// not the fleet — so completed work stays salvageable and a
    /// [`Supervisor`] can respawn the shard.
    Panicked {
        /// The panic message, as far as it could be recovered.
        what: String,
    },
    /// A supervised request failed on every attempt its retry budget
    /// allowed; `last` is the error that killed the final attempt. The
    /// typed terminal answer a [`Supervisor`] gives up with.
    RetriesExhausted {
        /// The request id.
        id: u64,
        /// Attempts consumed beyond the first try.
        attempts: u32,
        /// The error from the final attempt.
        last: Box<ServeError>,
    },
    /// The request's lane spent more supersteps than its
    /// [`RequestBudget::max_supersteps`] allows and was evicted at a
    /// superstep boundary. Terminal: retrying a program that blew its
    /// superstep budget would blow it again (the lane's draws are
    /// deterministic), so a supervisor answers with this instead of
    /// burning the retry budget.
    BudgetExceeded {
        /// Supersteps the lane had been charged when evicted.
        spent: u64,
        /// The configured per-request superstep ceiling.
        limit: u64,
    },
    /// The request outlived its [`RequestBudget::deadline_ticks`] on the
    /// server's virtual clock (queue wait plus in-flight residency) and
    /// was evicted at a superstep boundary. Terminal.
    DeadlineExceeded {
        /// Ticks the request had been alive (queued + in flight).
        elapsed: u64,
        /// The configured per-request deadline, in ticks.
        deadline: u64,
    },
    /// The request's lane exceeded its [`RequestBudget::max_lane_bytes`]
    /// peak resident footprint and was evicted at a superstep boundary.
    /// Terminal.
    MemoryExceeded {
        /// Peak resident bytes attributed to the lane when evicted.
        bytes: u64,
        /// The configured per-lane byte ceiling.
        limit: u64,
    },
    /// The request was cancelled by the caller
    /// ([`BatchServer::cancel`]) — client disconnect or an explicit
    /// cancel frame — and its lane (or queue slot) was reclaimed.
    /// Terminal; never retried.
    Cancelled,
    /// Fast rejection at admission: the served program has repeatedly
    /// blown request budgets and its quarantine circuit breaker is
    /// open (see [`QuarantineConfig`]). The request was never enqueued.
    Quarantined {
        /// Budget blowups inside the decay window when the breaker
        /// tripped.
        blowups: u32,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Vm(e) => write!(f, "vm error: {e}"),
            ServeError::BadRequest(what) => write!(f, "bad request: {what}"),
            ServeError::BadPolicy(what) => write!(f, "bad policy: {what}"),
            ServeError::InvalidProgram(e) => {
                write!(f, "program failed static verification: {e}")
            }
            ServeError::InvalidRequest(e) => {
                write!(f, "request violates the program signature: {e}")
            }
            ServeError::Overloaded { depth, budget } => {
                write!(f, "overloaded: queue depth {depth} at budget {budget}")
            }
            ServeError::Panicked { what } => {
                write!(f, "worker thread panicked: {what}")
            }
            ServeError::RetriesExhausted { id, attempts, last } => {
                write!(
                    f,
                    "request {id} exhausted its retry budget after {attempts} \
                     retries; last error: {last}"
                )
            }
            ServeError::BudgetExceeded { spent, limit } => {
                write!(
                    f,
                    "superstep budget exceeded: lane spent {spent} supersteps \
                     against a limit of {limit}"
                )
            }
            ServeError::DeadlineExceeded { elapsed, deadline } => {
                write!(
                    f,
                    "deadline exceeded: request alive {elapsed} ticks against \
                     a deadline of {deadline}"
                )
            }
            ServeError::MemoryExceeded { bytes, limit } => {
                write!(
                    f,
                    "memory budget exceeded: lane peaked at {bytes} resident \
                     bytes against a limit of {limit}"
                )
            }
            ServeError::Cancelled => write!(f, "cancelled by the caller"),
            ServeError::Quarantined { blowups } => {
                write!(
                    f,
                    "program quarantined after {blowups} budget blowups; \
                     fast-rejecting until the breaker half-opens"
                )
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Vm(e) => Some(e),
            ServeError::InvalidProgram(e) | ServeError::InvalidRequest(e) => Some(e),
            _ => None,
        }
    }
}

impl From<VmError> for ServeError {
    fn from(e: VmError) -> ServeError {
        ServeError::Vm(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, ServeError>;

/// When pending requests are merged into the in-flight batch.
///
/// # Validation contract
///
/// Parameters are validated **at server construction**
/// ([`AdmissionPolicy::validate`], called by [`BatchServer::new`] and
/// everything built on it), never silently patched at admission time:
///
/// `max_batch` must be positive — a zero-capacity server could never
/// admit anything.
///
/// Invalid parameters are a typed [`ServeError::BadPolicy`], so
/// misconfiguration fails loudly at startup instead of deadlocking under
/// traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmissionPolicy {
    /// Join the live batch at the entry block whenever a lane is free,
    /// even out of a perfect-lockstep batch. `max_batch` bounds the live
    /// member count.
    JoinAtEntry {
        /// Maximum live members.
        max_batch: usize,
    },
    /// Admit only into an empty machine, `max_batch` requests at a time —
    /// the sequential fixed-batch baseline.
    DrainAndRefill {
        /// Batch size per refill.
        max_batch: usize,
    },
    /// Deadline-driven auto-batch collection: hold pending requests back
    /// until they can fill **every** free lane, or until the oldest of
    /// them has waited `max_wait` ticks of the server's virtual clock
    /// ([`BatchServer::set_clock`]) — whichever comes first. Batches
    /// stay full under load; under light load a partially filled batch
    /// launches as soon as the head-of-line deadline expires, bounding
    /// each request's queue wait to `max_wait` plus at most one
    /// superstep.
    Deadline {
        /// Maximum live members.
        max_batch: usize,
        /// Longest a queued request may wait (in clock ticks) before a
        /// partial batch is admitted anyway.
        max_wait: u64,
    },
}

impl AdmissionPolicy {
    fn max_batch(&self) -> usize {
        match *self {
            AdmissionPolicy::JoinAtEntry { max_batch }
            | AdmissionPolicy::DrainAndRefill { max_batch }
            | AdmissionPolicy::Deadline { max_batch, .. } => max_batch,
        }
    }

    /// Check the policy's parameters against the [validation
    /// contract](AdmissionPolicy#validation-contract).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadPolicy`] naming the offending parameter.
    pub fn validate(&self) -> Result<()> {
        if self.max_batch() == 0 {
            return Err(ServeError::BadPolicy("max_batch must be positive".into()));
        }
        Ok(())
    }
}

/// Per-request resource ceilings, enforced at every superstep boundary
/// of the serving loop ([`BatchServer::set_budget`]).
///
/// Each live lane is charged one superstep per superstep it stays
/// running (admission starts the meter at zero; the charge travels with
/// the lane through migration, so moving shards cannot reset it), its
/// age in virtual-clock ticks is tracked from submission, and its peak
/// resident bytes are derived from the machine's buffer shapes. A lane
/// over any ceiling is **evicted mid-flight** through the same
/// compaction path straggler migration uses — always at a superstep
/// edge, never mid-fused-region (see [`PcMachine::extract_lanes`]) —
/// and answered with the matching typed terminal error
/// ([`ServeError::BudgetExceeded`] / [`ServeError::DeadlineExceeded`] /
/// [`ServeError::MemoryExceeded`]) while its batchmates keep running
/// bit-identically.
///
/// `None` fields are unenforced; the default budget is fully unlimited,
/// so production paths can thread a `RequestBudget` unconditionally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RequestBudget {
    /// Most supersteps a lane may stay running. A lane is evicted when
    /// its spend **exceeds** this, i.e. at the `max_supersteps + 1`-th
    /// charged superstep — the "within `max_supersteps + 1` supersteps
    /// of admission" containment contract.
    pub max_supersteps: Option<u64>,
    /// Longest a request may stay alive, in ticks of the server's
    /// virtual clock ([`BatchServer::set_clock`]): queue wait plus
    /// in-flight residency. Enforcement happens at superstep
    /// boundaries, so it fires only while the machine is being driven.
    pub deadline_ticks: Option<u64>,
    /// Peak resident bytes a single lane may reach (registers, stack
    /// tops, and occupied stack frames attributed to the lane).
    pub max_lane_bytes: Option<u64>,
}

impl RequestBudget {
    /// The fully unenforced budget (every ceiling `None`).
    pub const fn unlimited() -> Self {
        RequestBudget {
            max_supersteps: None,
            deadline_ticks: None,
            max_lane_bytes: None,
        }
    }

    /// True if any ceiling is set.
    pub fn is_limited(&self) -> bool {
        self.max_supersteps.is_some()
            || self.deadline_ticks.is_some()
            || self.max_lane_bytes.is_some()
    }
}

/// One queued request: per-request inputs (each `[1, elem..]`) and a
/// per-request RNG seed.
#[derive(Debug, Clone)]
pub struct Request {
    /// Caller-chosen request id, echoed in the [`Response`].
    pub id: u64,
    /// One `[1, elem..]` tensor per program input.
    pub inputs: Vec<Tensor>,
    /// Per-request RNG seed: the member key its lane draws under. Equal
    /// seeds give equal draw streams, whatever the batch around them.
    pub seed: u64,
}

/// A completed request.
#[derive(Debug, Clone)]
pub struct Response {
    /// The request id.
    pub id: u64,
    /// One `[1, elem..]` tensor per program output.
    pub outputs: Vec<Tensor>,
    /// Superstep at which the request was admitted.
    pub admitted_at: u64,
    /// Superstep at which the request retired.
    pub retired_at: u64,
    /// Clock ticks the request spent queued before admission (admission
    /// clock minus submission clock, under the caller-driven clock of
    /// [`BatchServer::set_clock`]). The queue-latency observable the
    /// deadline policy bounds.
    pub queued_ticks: u64,
}

/// A lane evicted mid-flight from one [`BatchServer`] for re-admission
/// on another — the unit of cross-shard straggler migration: the lane's
/// complete portable execution state, and the request's record, whole,
/// so the destination produces an unchanged [`Response`] in its place in
/// submission order, and a per-request deadline keeps counting across
/// the move. Produced by
/// [`BatchServer::evict_lanes`], consumed by
/// [`BatchServer::admit_migrant`].
#[derive(Debug)]
pub struct Migrant {
    lane: LaneState,
    flight: InFlight,
}

/// A request accepted by [`BatchServer::submit`] and not yet admitted.
#[derive(Debug)]
struct Queued {
    request: Request,
    /// The clock at submission.
    stamp: u64,
    /// The submission sequence its response carries back.
    seq: u64,
}

/// A request's record while a lane computes it. It is filed at
/// admission and travels with the lane if the lane migrates.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    /// The ticket of the lane on the machine it is on now.
    ticket: u64,
    /// The request id the lane is computing.
    id: u64,
    /// The request's submission sequence.
    seq: u64,
    /// Superstep at admission, on the request's first machine (for
    /// [`Response::admitted_at`]).
    admitted_at: u64,
    /// Queue-wait ticks accrued before admission.
    queued_ticks: u64,
    /// Virtual-clock reading at admission; with `queued_ticks` this
    /// gives the request's total age for deadline enforcement.
    admitted_clock: u64,
}

/// A batch server owning a request queue and an in-flight [`PcMachine`].
///
/// # Examples
///
/// ```
/// use autobatch_core::{lower, KernelRegistry, LoweringOptions, ExecOptions};
/// use autobatch_ir::build::fibonacci_program;
/// use autobatch_serve::{AdmissionPolicy, BatchServer, Request};
/// use autobatch_tensor::Tensor;
///
/// let (program, _) = lower(&fibonacci_program(), LoweringOptions::default())?;
/// let policy = AdmissionPolicy::JoinAtEntry { max_batch: 4 };
/// let mut server = BatchServer::new(&program, KernelRegistry::new(), ExecOptions::default(), policy)?;
/// for (id, n) in [(0u64, 6i64), (1, 9), (2, 3)] {
///     server.submit(Request { id, inputs: vec![Tensor::from_i64(&[n], &[1])?], seed: id })?;
/// }
/// let mut done = server.run_until_idle(None)?;
/// done.sort_by_key(|r| r.id);
/// assert_eq!(done[1].outputs[0].as_i64()?, &[55]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct BatchServer<'p> {
    machine: PcMachine<'p>,
    policy: AdmissionPolicy,
    /// Pending requests, in submission order.
    queue: VecDeque<Queued>,
    /// Monotonic virtual clock in abstract ticks, advanced by the
    /// caller. Deadline admission and queue-latency accounting read it.
    clock: u64,
    /// Deepest the queue has ever been.
    peak_pending: usize,
    /// Bookkeeping for every lane admitted and not yet retired.
    in_flight: Vec<InFlight>,
    /// Per-request resource ceilings enforced at superstep boundaries.
    budget: RequestBudget,
    /// Ids whose lanes should be evicted at the next superstep boundary
    /// (cooperative cancellation).
    cancel_requested: std::collections::BTreeSet<u64>,
    /// Requests that reached a typed terminal failure inside the drive
    /// loop (budget eviction, cancellation) — the failure-side analogue
    /// of [`BatchServer::ready`], drained by
    /// [`BatchServer::take_failed`].
    failed: Vec<(u64, ServeError)>,
    /// Lanes evicted by governance over the server's lifetime.
    evictions: u64,
    /// Completed responses not yet handed to the caller, each with its
    /// submission sequence. Buffered on the server so work finished
    /// before a mid-run error is not dropped with it — the next
    /// successful [`BatchServer::run_until_idle`] returns it.
    ready: Vec<(u64, Response)>,
    /// Set when a superstep failed mid-execution. Per-member state may be
    /// half-mutated at that point (some lanes executed the block's ops
    /// before the error surfaced), so driving the machine further would
    /// corrupt innocent members; every later run refuses with this error.
    poisoned: Option<ServeError>,
    /// The machine's cumulative superstep budget, kept to report
    /// [`VmError::StepLimit`] when exhaustion blocks pending admissions.
    step_limit: u64,
    /// The chaos schedule in force (a copy of `opts.fault`; inert by
    /// default). Admission faults roll against `fault_rolls`.
    fault: FaultPlan,
    /// Submission attempts rolled against the admission fault site.
    /// Counts every [`BatchServer::submit`] call, so a retried request
    /// re-rolls instead of deterministically re-failing.
    fault_rolls: u64,
    /// The submission sequence [`BatchServer::submit`] gives next.
    next_seq: u64,
    completed: u64,
    /// The dtype and element shape of each input, fixed by the first
    /// request this server accepted: the machine's buffers take that
    /// spec at its first admission, so every later request must share it.
    spec: Option<Vec<TensorSpec>>,
    /// Per-input-spec memo of concrete signature inference for the specs
    /// that are not `spec`: `None` = accepted, `Some(e)` = rejected with
    /// `e`. Each distinct one is inferred once.
    sig_cache: BTreeMap<Vec<TensorSpec>, Option<IrError>>,
}

impl<'p> BatchServer<'p> {
    /// Create a server for a lowered program.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadPolicy`] if the policy violates the
    /// [validation contract](AdmissionPolicy#validation-contract)
    /// (zero capacity), or [`ServeError::InvalidProgram`] if the program
    /// fails static verification — in that case no [`PcMachine`] is
    /// ever constructed.
    pub fn new(
        program: &'p Program,
        registry: KernelRegistry,
        opts: ExecOptions,
        policy: AdmissionPolicy,
    ) -> Result<BatchServer<'p>> {
        BatchServer::with_report(program, registry, opts, policy, &analyze_pcab(program))
    }

    /// [`BatchServer::new`] for a program whose `report` the caller
    /// already holds: a fleet analyses its program once and every
    /// shard, first or respawned, shares the result.
    pub(crate) fn with_report(
        program: &'p Program,
        registry: KernelRegistry,
        opts: ExecOptions,
        policy: AdmissionPolicy,
        report: &PcabReport,
    ) -> Result<BatchServer<'p>> {
        policy.validate()?;
        if let Some(e) = report.diagnostics.first() {
            return Err(ServeError::InvalidProgram(e.clone()));
        }
        Ok(BatchServer {
            spec: None,
            sig_cache: BTreeMap::new(),
            step_limit: opts.max_supersteps,
            fault: opts.fault,
            fault_rolls: 0,
            machine: PcMachine::new(program, registry, opts),
            policy,
            queue: VecDeque::new(),
            clock: 0,
            peak_pending: 0,
            in_flight: Vec::new(),
            budget: RequestBudget::unlimited(),
            cancel_requested: std::collections::BTreeSet::new(),
            failed: Vec::new(),
            evictions: 0,
            ready: Vec::new(),
            poisoned: None,
            next_seq: 0,
            completed: 0,
        })
    }

    /// Advance the server's virtual clock to `now` (monotonic: earlier
    /// values are ignored). Submissions are stamped with the clock, the
    /// [`AdmissionPolicy::Deadline`] policy compares waits against it,
    /// and [`Response::queued_ticks`] is measured in it. Benchmarks
    /// drive it from the deterministic simulated cost model; a real
    /// front end drives it from wall-clock elapsed time.
    pub fn set_clock(&mut self, now: u64) {
        self.clock = self.clock.max(now);
    }

    /// The current virtual clock, in ticks.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Set the per-request resource ceilings enforced at every superstep
    /// boundary (see [`RequestBudget`]). The default is unlimited.
    pub fn set_budget(&mut self, budget: RequestBudget) {
        self.budget = budget;
        // Only a byte ceiling needs the machine to walk its lanes'
        // footprints every superstep.
        self.machine
            .track_peak_bytes(budget.max_lane_bytes.is_some());
    }

    /// Request cooperative cancellation of a request. A still-queued
    /// request is removed immediately; an in-flight request's lane is
    /// evicted at the next superstep boundary of whatever drive call is
    /// running (never mid-superstep). Either way the request's terminal
    /// outcome becomes [`ServeError::Cancelled`], drained via
    /// [`BatchServer::take_failed`]. Returns `false` when the id is
    /// neither queued nor in flight (already answered, or never
    /// submitted) — a completed request cannot be cancelled, so a
    /// cancel racing completion yields the normal response.
    pub fn cancel(&mut self, id: u64) -> bool {
        if let Some(pos) = self.queue.iter().position(|q| q.request.id == id) {
            self.queue.remove(pos);
            self.failed.push((id, ServeError::Cancelled));
            return true;
        }
        if self.in_flight.iter().any(|f| f.id == id) {
            self.cancel_requested.insert(id);
            return true;
        }
        false
    }

    /// Take the typed terminal failures produced by governance so far
    /// (budget evictions and cancellations) — the failure-side analogue
    /// of [`BatchServer::take_ready`]. Each request appears at most
    /// once.
    pub fn take_failed(&mut self) -> Vec<(u64, ServeError)> {
        std::mem::take(&mut self.failed)
    }

    /// Lanes evicted by governance (budget blowups + cancellations)
    /// over the server's lifetime.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Total supersteps currently charged across the live lanes — the
    /// aggregate in-flight budget spend a health report surfaces.
    pub fn spent_supersteps(&self) -> u64 {
        self.machine
            .lane_spend()
            .iter()
            .map(|&(_, spent, _)| spent)
            .sum()
    }

    /// The deepest the queue has ever been over the server's lifetime.
    pub fn peak_pending(&self) -> usize {
        self.peak_pending
    }

    /// The clock tick at which the deadline policy would force-admit the
    /// oldest queued request (`submission stamp + max_wait`), if the
    /// policy is deadline-driven and the queue is non-empty. Event loops
    /// use it to sleep until the next actionable instant.
    pub fn next_deadline(&self) -> Option<u64> {
        match self.policy {
            AdmissionPolicy::Deadline { max_wait, .. } => {
                self.queue.front().map(|q| q.stamp.saturating_add(max_wait))
            }
            _ => None,
        }
    }

    /// Requests waiting in the queue.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Requests currently inside the in-flight batch.
    pub fn in_flight(&self) -> usize {
        self.machine.live()
    }

    /// Requests completed over the server's lifetime.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Supersteps executed by the in-flight machine.
    pub fn supersteps(&self) -> u64 {
        self.machine.supersteps()
    }

    /// Enqueue a request, stamped with the current clock. This is the one
    /// place a request is judged, before anything is enqueued: its inputs
    /// must be one `[1, elem..]` row per program input, fit the program's
    /// statically inferred signature (dtype and element shape), and share
    /// the dtype and element shape of the first request this server
    /// accepted — the spec the machine's buffers take at its first
    /// admission. Invalid traffic never touches machine state, and an
    /// accepted request cannot fail admission.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidRequest`] when an input's dtype or
    /// element shape violates the inferred signature, or
    /// [`ServeError::BadRequest`] on input arity mismatch, on an input
    /// that is not a `[1, elem..]` row, or on a spec that differs from
    /// the one the server fixed.
    pub fn submit(&mut self, request: Request) -> Result<()> {
        self.submit_as(self.next_seq, request)?;
        self.next_seq += 1;
        Ok(())
    }

    /// [`BatchServer::submit`] under submission sequence `seq`, which the
    /// request's response carries back: a fleet numbers its requests
    /// across every shard.
    pub(crate) fn submit_as(&mut self, seq: u64, request: Request) -> Result<()> {
        let specs = self.judge(&request)?;
        // Chaos hook: an injected admission failure refuses a request
        // that would otherwise have been enqueued (it was judged fit).
        // Every call rolls a fresh counter, so a supervised retry
        // re-rolls instead of deterministically re-failing.
        self.fault_rolls += 1;
        if self.fault.fires(FaultPoint::Admission, self.fault_rolls) {
            return Err(ServeError::Vm(VmError::Injected {
                point: FaultPoint::Admission.name(),
                counter: self.fault_rolls,
            }));
        }
        self.spec.get_or_insert(specs);
        self.queue.push_back(Queued {
            request,
            stamp: self.clock,
            seq,
        });
        self.peak_pending = self.peak_pending.max(self.queue.len());
        Ok(())
    }

    /// Judge a request's inputs, returning their spec: see
    /// [`BatchServer::submit`]. Concrete signature inference runs once
    /// per distinct spec other than the fixed one, which passed it when
    /// it was fixed.
    fn judge(&mut self, request: &Request) -> Result<Vec<TensorSpec>> {
        let want = self.machine.program().inputs.len();
        if request.inputs.len() != want {
            return Err(ServeError::BadRequest(format!(
                "program takes {} inputs, request {} has {}",
                want,
                request.id,
                request.inputs.len()
            )));
        }
        let mut specs = Vec::with_capacity(want);
        for (i, t) in request.inputs.iter().enumerate() {
            let shape = t.shape();
            if shape.first() != Some(&1) {
                return Err(ServeError::BadRequest(format!(
                    "request {} input {} has shape {:?}; per-request inputs are [1, elem..] rows",
                    request.id, i, shape
                )));
            }
            let dtype = match t.dtype() {
                DType::F64 => AbsDType::F64,
                DType::I64 => AbsDType::I64,
                DType::Bool => AbsDType::Bool,
            };
            specs.push(TensorSpec::new(dtype, &shape[1..]));
        }
        if self.spec.as_ref() == Some(&specs) {
            return Ok(specs);
        }
        let program = self.machine.program();
        let verdict = self
            .sig_cache
            .entry(specs.clone())
            .or_insert_with_key(|specs| infer_pcab_signature(program, specs).err());
        if let Some(e) = verdict {
            return Err(ServeError::InvalidRequest(e.clone()));
        }
        match &self.spec {
            None => Ok(specs),
            Some(fixed) => {
                let i = (0..want).find(|&i| specs[i] != fixed[i]).unwrap_or(0);
                Err(ServeError::BadRequest(format!(
                    "request {} input {i} is {}, but this server's requests carry {}",
                    request.id, specs[i], fixed[i]
                )))
            }
        }
    }

    /// Whether work `donor` accepted may move to this server: yes when
    /// both fixed the same input spec, or when this one has fixed none
    /// yet — it then takes the donor's, as its machine takes the moved
    /// work's buffers. Moving work between servers so cannot make an
    /// admission fail.
    pub(crate) fn takes_work_from(&mut self, donor: &BatchServer<'_>) -> bool {
        if self.spec.is_none() {
            self.spec.clone_from(&donor.spec);
        }
        self.spec == donor.spec
    }

    /// Admit pending requests according to the policy.
    fn admit_pending(&mut self, trace: &mut Option<&mut Trace>) -> Result<()> {
        let cap = self.policy.max_batch();
        let free = cap.saturating_sub(self.machine.live());
        if self.queue.is_empty() || free == 0 {
            return Ok(());
        }
        // A machine whose cumulative step budget is exhausted can only
        // error: admitting into it would strand the requests (no longer
        // pending, never retirable). Leave them in the queue instead.
        if self.machine.step_budget_remaining() == 0 {
            return Ok(());
        }
        // The refill decision is made once, against the state *before*
        // any admission: JoinAtEntry admits into any free lane, and
        // DrainAndRefill only into an empty machine, which it refills to
        // capacity (what makes it a fixed-batch baseline rather than a
        // serial one). The deadline policy deliberately holds requests
        // back from an idle machine until the batch can fill or the
        // head-of-line deadline expires — the drive loop behind
        // run_until_idle and run_for models the wait by fast-forwarding
        // the clock, so progress is still guaranteed.
        let admit = match self.policy {
            AdmissionPolicy::Deadline { max_wait, .. } => {
                let oldest = self.queue.front().map(|q| q.stamp);
                self.queue.len() >= free
                    || oldest.is_some_and(|stamp| self.clock.saturating_sub(stamp) >= max_wait)
            }
            AdmissionPolicy::JoinAtEntry { .. } => true,
            AdmissionPolicy::DrainAndRefill { .. } => self.machine.live() == 0,
        };
        if !admit {
            return Ok(());
        }
        let batch: Vec<Queued> = self.queue.drain(..free.min(self.queue.len())).collect();
        let admitted = {
            let reqs: Vec<(&[Tensor], u64)> = batch
                .iter()
                .map(|q| (q.request.inputs.as_slice(), q.request.seed))
                .collect();
            self.machine.admit_batch(&reqs, trace.as_deref_mut())
        };
        match admitted {
            Ok(tickets) => {
                for (ticket, q) in tickets.into_iter().zip(&batch) {
                    self.in_flight.push(InFlight {
                        ticket,
                        id: q.request.id,
                        seq: q.seq,
                        admitted_at: self.machine.supersteps(),
                        queued_ticks: self.clock.saturating_sub(q.stamp),
                        admitted_clock: self.clock,
                    });
                }
                Ok(())
            }
            Err(e) => {
                // `submit` judged every request fit, so this is the
                // machine failing, not a request: handled as a failed
                // superstep is. The batch goes back to the queue head in
                // its order, and the server is poisoned.
                for q in batch.into_iter().rev() {
                    self.queue.push_front(q);
                }
                let e = ServeError::from(e);
                self.poisoned = Some(e.clone());
                Err(e)
            }
        }
    }

    /// Where the in-flight table holds the record of the lane under
    /// `ticket`. Every live lane has one: a lane enters the machine only
    /// through this server's admissions, and each files it.
    fn flight(&self, ticket: u64) -> usize {
        self.in_flight
            .iter()
            .position(|f| f.ticket == ticket)
            .expect("every live lane was admitted by this server")
    }

    /// Retire finished members into the [`BatchServer::ready`] buffer.
    fn collect_retired(&mut self, trace: &mut Option<&mut Trace>) -> Result<()> {
        for r in self.machine.retire_finished(trace.as_deref_mut())? {
            let f = self.in_flight.swap_remove(self.flight(r.ticket));
            self.cancel_requested.remove(&f.id);
            self.completed += 1;
            let response = Response {
                id: f.id,
                outputs: r.outputs,
                admitted_at: f.admitted_at,
                retired_at: self.machine.supersteps(),
                queued_ticks: f.queued_ticks,
            };
            self.ready.push((f.seq, response));
        }
        Ok(())
    }

    /// Enforce the per-request budget and pending cancellations on every
    /// live lane. Runs at superstep boundaries only — between
    /// [`PcMachine::step`] calls the machine holds no fused-region
    /// intermediates, so evicting a lane is pure row compaction and
    /// cannot perturb its batchmates (see the soundness note on
    /// [`PcMachine::extract_lanes`]). Doomed lanes are extracted through
    /// the migration checkpoint path and dropped; their requests get a
    /// typed terminal error in [`BatchServer::take_failed`].
    fn enforce_governance(&mut self, trace: &mut Option<&mut Trace>) -> Result<()> {
        if self.cancel_requested.is_empty() && !self.budget.is_limited() {
            return Ok(());
        }
        let mut doomed: Vec<(u64, ServeError)> = Vec::new();
        for (ticket, spent, peak) in self.machine.lane_spend() {
            let f = &self.in_flight[self.flight(ticket)];
            // Total request age: time spent queued plus virtual-clock
            // residency since admission. A request cannot dodge its
            // deadline by waiting out the queue on a busy shard.
            let elapsed = f.queued_ticks + self.clock.saturating_sub(f.admitted_clock);
            let verdict = if self.cancel_requested.contains(&f.id) {
                Some(ServeError::Cancelled)
            } else if let Some(limit) = self.budget.max_supersteps.filter(|&l| spent > l) {
                Some(ServeError::BudgetExceeded { spent, limit })
            } else if let Some(deadline) = self.budget.deadline_ticks.filter(|&d| elapsed > d) {
                Some(ServeError::DeadlineExceeded { elapsed, deadline })
            } else {
                self.budget
                    .max_lane_bytes
                    .filter(|&l| peak > l)
                    .map(|limit| ServeError::MemoryExceeded { bytes: peak, limit })
            };
            if let Some(e) = verdict {
                doomed.push((ticket, e));
            }
        }
        if doomed.is_empty() {
            return Ok(());
        }
        let tickets: Vec<u64> = doomed.iter().map(|&(t, _)| t).collect();
        // One batched extraction; the lane states are dropped — the
        // whole point is to stop spending resources on this work.
        self.machine.extract_lanes(&tickets, trace.as_deref_mut())?;
        for (ticket, e) in doomed {
            let f = self.in_flight.swap_remove(self.flight(ticket));
            self.cancel_requested.remove(&f.id);
            self.evictions += 1;
            self.failed.push((f.id, e));
        }
        Ok(())
    }

    /// Drop and return the request at the head of the queue: how the
    /// queue of a server that cannot run (poisoned, or out of steps) is
    /// drained for serving elsewhere.
    pub fn reject(&mut self) -> Option<Request> {
        self.queue.pop_front().map(|q| q.request)
    }

    /// Take the responses completed so far without driving the machine —
    /// the way to salvage finished work after an unrecoverable execution
    /// error has [poisoned](BatchServer::poisoned) the server.
    pub fn take_ready(&mut self) -> Vec<Response> {
        self.ready.drain(..).map(|(_, r)| r).collect()
    }

    /// [`BatchServer::take_ready`], each response with its submission
    /// sequence.
    pub(crate) fn take_numbered(&mut self) -> Vec<(u64, Response)> {
        std::mem::take(&mut self.ready)
    }

    /// The execution error that poisoned this server, if any. A poisoned
    /// server refuses to run (the failed superstep left per-member state
    /// half-mutated); drain [`BatchServer::take_ready`] and rebuild.
    pub fn poisoned(&self) -> Option<&ServeError> {
        self.poisoned.as_ref()
    }

    /// Poison the server from outside the step path — the containment
    /// hook for faults that invalidate machine state without surfacing
    /// through [`BatchServer::run_until_idle`], e.g. a panic caught at a
    /// worker-thread boundary (the machine may be mid-superstep).
    /// Completed work stays salvageable via [`BatchServer::take_ready`]
    /// and the queue stays drainable via [`BatchServer::reject`].
    pub fn poison(&mut self, error: ServeError) {
        self.poisoned = Some(error);
    }

    /// Poison the server with `error` over a migrant that could be put
    /// back nowhere, keeping its request on the in-flight record: the
    /// request is then among the ids a respawn reports lost.
    pub(crate) fn lose(&mut self, m: Migrant, error: ServeError) {
        self.in_flight.push(m.flight);
        self.poison(error);
    }

    /// Ids of requests admitted into the machine but not yet retired.
    /// After a poisoning fault these are the requests whose work is
    /// unrecoverable from this machine — the set a supervisor must
    /// retry elsewhere.
    pub fn in_flight_ids(&self) -> Vec<u64> {
        self.in_flight.iter().map(|f| f.id).collect()
    }

    /// Drive the server until the queue and the machine are both empty,
    /// returning every completed request (in completion order) —
    /// including any that completed before a previous call errored out.
    ///
    /// # Errors
    ///
    /// A request [`BatchServer::submit`] accepted cannot fail admission,
    /// so there are two failure classes, with different recovery stories:
    ///
    /// - **The step limit** ([`VmError::StepLimit`], cumulative over the
    ///   machine's lifetime) fires *before* a block executes, so state
    ///   stays consistent: the server is not poisoned, and later calls
    ///   still retire finished members — they just cannot step further.
    ///   Queued requests stay pending (never admitted into the exhausted
    ///   machine), where [`BatchServer::reject`] can still drain them.
    /// - **Execution errors** (stack overflow/underflow) surface
    ///   mid-superstep, after some lanes already ran the block's ops —
    ///   the machine's state is half-mutated and re-driving it would
    ///   corrupt innocent members. The server is *poisoned*: this and
    ///   every later call return the error. Salvage completed work with
    ///   [`BatchServer::take_ready`], drain the queue with
    ///   [`BatchServer::reject`], and rebuild the server. A machine
    ///   that fails to admit a batch poisons the server the same way,
    ///   with the batch back at the queue head.
    pub fn run_until_idle(&mut self, mut trace: Option<&mut Trace>) -> Result<Vec<Response>> {
        self.drive_for(u64::MAX, &mut trace)?;
        Ok(self.take_ready())
    }

    /// The one drive loop behind [`BatchServer::run_until_idle`] and
    /// [`BatchServer::run_for`]: turn until `budget` supersteps have run
    /// or the server is idle, and return the supersteps run.
    fn drive_for(&mut self, budget: u64, trace: &mut Option<&mut Trace>) -> Result<u64> {
        self.check_poisoned()?;
        let mut steps = 0;
        while steps < budget {
            if self.turn(trace)? {
                steps += 1;
                continue;
            }
            self.settle(trace)?;
            if self.queue.is_empty() && self.machine.live() == 0 {
                return Ok(steps);
            }
            // Nothing stepped and requests remain: either the step
            // budget is exhausted (surface it rather than spinning on
            // a machine that can never run again) …
            if self.machine.step_budget_remaining() == 0 {
                return Err(ServeError::Vm(VmError::StepLimit {
                    limit: self.step_limit,
                }));
            }
            // … or the deadline policy is holding a partial batch
            // back from an idle machine. Nobody else advances the
            // clock inside this call, so model the wait: fast-forward
            // to the head-of-line deadline, at which point the next
            // admission check force-admits the partial batch. (This
            // is what a real front end experiences as wall-clock
            // waiting; responses record it in `queued_ticks`.)
            if self.machine.live() == 0 {
                if let Some(deadline) = self.next_deadline() {
                    self.set_clock(deadline);
                }
            }
        }
        // The budget is spent: leave the last superstep's edge settled
        // and the free lanes refilled for whoever reads the server next.
        self.settle(trace)?;
        self.admit_pending(trace)?;
        Ok(budget)
    }

    /// The error that poisoned this server, as the refusal every driver
    /// and lane move opens with.
    fn check_poisoned(&self) -> Result<()> {
        self.poisoned.clone().map_or(Ok(()), Err)
    }

    /// What every superstep edge owes: finished members retire, then
    /// budgets and cancellations are enforced on the lanes that remain.
    fn settle(&mut self, trace: &mut Option<&mut Trace>) -> Result<()> {
        self.collect_retired(trace)?;
        self.enforce_governance(trace)
    }

    /// One turn of the drive loop, the same under every driver: settle
    /// the edge, admit per the policy, run at most one superstep.
    /// Returns whether a superstep ran.
    fn turn(&mut self, trace: &mut Option<&mut Trace>) -> Result<bool> {
        self.settle(trace)?;
        self.admit_pending(trace)?;
        self.step_machine(trace.as_deref_mut())
    }

    /// One scheduling iteration: retire finished members, admit pending
    /// requests per the policy, and run **at most one** superstep.
    /// Returns whether a superstep ran. Unlike the drive loop of
    /// [`BatchServer::run_until_idle`] this is one turn and never
    /// fast-forwards the clock: event loops interleave `poll` with
    /// [`BatchServer::submit`] and [`BatchServer::set_clock`] to model
    /// real arrival processes (sleep until
    /// [`BatchServer::next_deadline`] when it returns `false` with work
    /// pending), and drain completions with [`BatchServer::take_ready`].
    ///
    /// # Errors
    ///
    /// As [`BatchServer::run_until_idle`] — the step limit leaves the
    /// server consistent, execution errors poison it.
    pub fn poll(&mut self, mut trace: Option<&mut Trace>) -> Result<bool> {
        self.check_poisoned()?;
        let stepped = self.turn(&mut trace)?;
        if stepped {
            // Not another admission: a request admitted here would
            // read one poll's worth less `queued_ticks` than it does.
            self.settle(&mut trace)?;
        }
        Ok(stepped)
    }

    /// Drive the server for **at most** `budget` supersteps in the loop
    /// of [`BatchServer::run_until_idle`], deadline fast-forward
    /// included, and return the number of supersteps actually run;
    /// completed responses stay buffered for [`BatchServer::take_ready`].
    /// Fewer than `budget` means the server is idle. The fleet prices
    /// nothing, so neither does this.
    ///
    /// # Errors
    ///
    /// As [`BatchServer::run_until_idle`].
    pub(crate) fn run_for(&mut self, budget: u64) -> Result<u64> {
        self.drive_for(budget, &mut None)
    }

    /// Histogram of **running** lanes per pc top — the affinity signal
    /// cross-shard routing keys on (finished lanes are excluded; they
    /// retire at the next collection and carry no affinity).
    pub fn pc_histogram(&self) -> std::collections::BTreeMap<usize, usize> {
        self.machine.pc_histogram()
    }

    /// Lanes whose pc top has not yet reached the exit.
    pub fn running(&self) -> usize {
        self.machine.running()
    }

    /// `(ticket, request id, pc)` of every running lane, in lane order.
    pub fn lane_pcs(&self) -> Vec<(u64, u64, usize)> {
        self.machine
            .lane_pcs()
            .into_iter()
            .map(|(ticket, pc)| (ticket, self.in_flight[self.flight(ticket)].id, pc))
            .collect()
    }

    /// Evict the given running lanes for re-admission on another server
    /// (straggler migration). Each migrant carries the lane's complete
    /// execution state and the request's record.
    ///
    /// # Errors
    ///
    /// The poisoning error if this server is poisoned, or
    /// [`VmError::BadInputs`] for a ticket that is not a running lane or
    /// is named twice (validation happens before any mutation).
    pub fn evict_lanes(&mut self, tickets: &[u64]) -> Result<Vec<Migrant>> {
        self.check_poisoned()?;
        let lanes = self.machine.extract_lanes(tickets, None)?;
        Ok(lanes
            .into_iter()
            .map(|(ticket, lane)| Migrant {
                lane,
                flight: self.in_flight.swap_remove(self.flight(ticket)),
            })
            .collect())
    }

    /// Admit a lane evicted from another server. The lane resumes with
    /// all state intact, so its outputs are bit-identical to never
    /// having moved, and the request's record is refiled under the
    /// lane's ticket here: `admitted_at`, `queued_ticks` and the
    /// deadline's starting point stay those of the original admission.
    ///
    /// # Errors
    ///
    /// The poisoning error if this server is poisoned, or the injection
    /// errors of [`PcMachine::inject_lane`]; on error the migrant is
    /// handed back untouched alongside the error — the machine state is
    /// not mutated, so the caller can re-admit the lane elsewhere
    /// instead of losing it.
    pub fn admit_migrant(
        &mut self,
        m: Migrant,
    ) -> std::result::Result<(), Box<(Migrant, ServeError)>> {
        if let Err(e) = self.check_poisoned() {
            return Err(Box::new((m, e)));
        }
        let ticket = match self.machine.inject_lane(&m.lane, None) {
            Ok(ticket) => ticket,
            Err(e) => return Err(Box::new((m, ServeError::from(e)))),
        };
        self.in_flight.push(InFlight { ticket, ..m.flight });
        Ok(())
    }

    /// Take up to `n` requests off the **back** of the queue (the newest
    /// ones), preserving their submission stamps and sequences and their
    /// relative order — the donor half of work stealing.
    pub(crate) fn steal_queued(&mut self, n: usize) -> Vec<Queued> {
        let take = n.min(self.queue.len());
        self.queue.split_off(self.queue.len() - take).into()
    }

    /// Append stolen requests (stamps and sequences unchanged) to this
    /// server's queue — the thief half of work stealing.
    pub(crate) fn enqueue_stolen(&mut self, batch: Vec<Queued>) {
        self.queue.extend(batch);
        self.peak_pending = self.peak_pending.max(self.queue.len());
    }

    /// Step once, translating errors per the poisoning contract.
    fn step_machine(&mut self, trace: Option<&mut Trace>) -> Result<bool> {
        match self.machine.step(trace) {
            Ok(stepped) => Ok(stepped),
            Err(e) => {
                let e = ServeError::from(e);
                // The step-limit check fires *before* the block
                // executes, so the machine is still consistent: don't
                // poison — later calls can still retire finished
                // members (they just cannot step any further).
                if !matches!(e, ServeError::Vm(VmError::StepLimit { .. })) {
                    self.poisoned = Some(e.clone());
                }
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autobatch_core::{lower, LoweringOptions};
    use autobatch_ir::build::fibonacci_program;

    fn fib_requests(ns: &[i64]) -> Vec<Request> {
        ns.iter()
            .enumerate()
            .map(|(i, &n)| Request {
                id: i as u64,
                inputs: vec![Tensor::from_i64(&[n], &[1]).unwrap()],
                seed: 1000 + i as u64,
            })
            .collect()
    }

    /// A shape-polymorphic looping program: `y = x; repeat n times
    /// { y = y + 1 }`. The branch condition only ever sees the scalar
    /// counter, so the payload `x` may be any element shape — requests
    /// with different `x` shapes all pass static verification, and only
    /// the spec the server's first accepted request fixed tells a
    /// conflicting one apart. Runtime grows with `n`, staggering
    /// retirements like the recursive fibonacci does. The exit block is
    /// laid out *before* the loop blocks so the default `EarliestBlock`
    /// scheduler retires finished members while slower ones still loop
    /// (with the exit last, finishers would starve until the whole
    /// batch drained).
    fn countup_program() -> autobatch_ir::lsab::Program {
        use autobatch_ir::build::ProgramBuilder;
        use autobatch_ir::Prim;
        let mut pb = ProgramBuilder::new();
        let f = pb.declare("countup", &["n", "x"], &["y"]);
        pb.define(f, |fb| {
            let n = fb.param(0);
            let x = fb.param(1);
            let y = fb.output(0);
            fb.assign(&y, Prim::Id, &[x]);
            let zero = fb.const_i64(0);
            let i = fb.emit(Prim::Id, &[zero]);
            let exit = fb.new_block();
            let header = fb.new_block();
            let body = fb.new_block();
            fb.jump(header);
            fb.switch_to(header);
            let c = fb.emit(Prim::Lt, &[i.clone(), n.clone()]);
            fb.branch(&c, body, exit);
            fb.switch_to(body);
            let one_f = fb.const_f64(1.0);
            fb.assign(&y, Prim::Add, &[y.clone(), one_f]);
            let one_i = fb.const_i64(1);
            fb.assign(&i, Prim::Add, &[i.clone(), one_i]);
            fb.jump(header);
            fb.switch_to(exit);
            fb.ret();
        });
        pb.finish(f).unwrap()
    }

    /// `[n, x=0.0]` request rows for `countup_program` (output: `n` as
    /// a float).
    fn countup_requests(ns: &[i64]) -> Vec<Request> {
        ns.iter()
            .enumerate()
            .map(|(i, &n)| Request {
                id: i as u64,
                inputs: vec![
                    Tensor::from_i64(&[n], &[1]).unwrap(),
                    Tensor::from_f64(&[0.0], &[1]).unwrap(),
                ],
                seed: 1000 + i as u64,
            })
            .collect()
    }

    /// A request for `countup_program` whose payload element shape is
    /// `[2]`: statically valid (the program is shape-polymorphic in
    /// `x`), but in conflict with the spec scalar requests fixed.
    fn countup_vec_request(id: u64, n: i64) -> Request {
        Request {
            id,
            inputs: vec![
                Tensor::from_i64(&[n], &[1]).unwrap(),
                Tensor::from_f64(&[0.0, 0.0], &[1, 2]).unwrap(),
            ],
            seed: id,
        }
    }

    /// Queue `request` past [`BatchServer::submit`]'s judgement. A request
    /// that conflicts with the machine's buffers then makes the machine's
    /// own admission fail — the failure `submit` rules out for every
    /// request it accepts, and so the only way to reach that path.
    fn enqueue_unjudged(server: &mut BatchServer<'_>, request: Request) {
        server.queue.push_back(Queued {
            request,
            stamp: server.clock,
            seq: server.next_seq,
        });
        server.next_seq += 1;
    }

    fn serve(ns: &[i64], policy: AdmissionPolicy) -> (Vec<Response>, u64) {
        let (pc, _) = lower(&fibonacci_program(), LoweringOptions::default()).unwrap();
        let mut server =
            BatchServer::new(&pc, KernelRegistry::new(), ExecOptions::default(), policy).unwrap();
        for r in fib_requests(ns) {
            server.submit(r).unwrap();
        }
        let mut out = server.run_until_idle(None).unwrap();
        out.sort_by_key(|r| r.id);
        (out, server.supersteps())
    }

    const NS: [i64; 10] = [14, 2, 9, 1, 12, 5, 16, 3, 10, 7];
    const FIB: [i64; 10] = [610, 2, 55, 1, 233, 8, 1597, 3, 89, 21];

    #[test]
    fn join_at_entry_serves_all_requests_correctly() {
        let policy = AdmissionPolicy::JoinAtEntry { max_batch: 3 };
        let (out, _) = serve(&NS, policy);
        let got: Vec<i64> = out
            .iter()
            .map(|r| r.outputs[0].as_i64().unwrap()[0])
            .collect();
        assert_eq!(got, FIB);
        // Some request genuinely joined mid-flight.
        assert!(
            out.iter().any(|r| r.admitted_at > 0),
            "no mid-flight admission happened"
        );
    }

    /// Evicting one ticket twice is refused before the machine or the
    /// in-flight records change, and every request is still answered
    /// once.
    #[test]
    fn evicting_a_ticket_twice_is_refused_and_changes_nothing() {
        let (pc, _) = lower(&fibonacci_program(), LoweringOptions::default()).unwrap();
        let policy = AdmissionPolicy::JoinAtEntry { max_batch: 4 };
        let mut server =
            BatchServer::new(&pc, KernelRegistry::new(), ExecOptions::default(), policy).unwrap();
        for r in fib_requests(&[9, 7]) {
            server.submit(r).unwrap();
        }
        assert!(server.poll(None).unwrap());
        let lanes = server.lane_pcs();
        assert_eq!(lanes.len(), 2);
        let t = lanes[0].0;
        assert!(server.evict_lanes(&[t, t]).is_err());
        assert_eq!((server.in_flight(), server.running()), (2, 2));
        assert_eq!(server.lane_pcs(), lanes);
        assert!(server.poisoned().is_none());
        let mut out = server.run_until_idle(None).unwrap();
        out.sort_by_key(|r| r.id);
        let got: Vec<(u64, i64)> = (out.iter())
            .map(|r| (r.id, r.outputs[0].as_i64().unwrap()[0]))
            .collect();
        assert_eq!(got, vec![(0, 55), (1, 21)]);
    }

    #[test]
    fn drain_and_refill_serves_all_requests_correctly() {
        let policy = AdmissionPolicy::DrainAndRefill { max_batch: 3 };
        let (out, _) = serve(&NS, policy);
        let got: Vec<i64> = out
            .iter()
            .map(|r| r.outputs[0].as_i64().unwrap()[0])
            .collect();
        assert_eq!(got, FIB);
        // Refill batches never overlap: every admission happens when the
        // machine is empty, i.e. at a superstep where all prior
        // responses already retired.
        for r in &out {
            assert!(r.retired_at >= r.admitted_at);
        }
    }

    #[test]
    fn policies_and_admission_orders_agree_bitwise() {
        let policies = [
            AdmissionPolicy::JoinAtEntry { max_batch: 2 },
            AdmissionPolicy::JoinAtEntry { max_batch: 8 },
            AdmissionPolicy::DrainAndRefill { max_batch: 4 },
            AdmissionPolicy::DrainAndRefill { max_batch: 1 },
        ];
        let (reference, _) = serve(&NS, policies[0]);
        for p in &policies[1..] {
            let (out, _) = serve(&NS, *p);
            for (a, b) in reference.iter().zip(&out) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.outputs, b.outputs, "results differ under {p:?}");
            }
        }
        // Reversed submission order: same per-request results.
        let rev_ns: Vec<i64> = NS.iter().rev().copied().collect();
        let (pc, _) = lower(&fibonacci_program(), LoweringOptions::default()).unwrap();
        let mut server = BatchServer::new(
            &pc,
            KernelRegistry::new(),
            ExecOptions::default(),
            policies[0],
        )
        .unwrap();
        for (i, &n) in rev_ns.iter().enumerate() {
            let orig = NS.len() - 1 - i;
            server
                .submit(Request {
                    id: orig as u64,
                    inputs: vec![Tensor::from_i64(&[n], &[1]).unwrap()],
                    seed: 1000 + orig as u64,
                })
                .unwrap();
        }
        let mut out = server.run_until_idle(None).unwrap();
        out.sort_by_key(|r| r.id);
        for (a, b) in reference.iter().zip(&out) {
            assert_eq!(a.outputs, b.outputs, "admission order perturbed results");
        }
    }

    #[test]
    fn drain_and_refill_fills_whole_batches() {
        // Regression: the refill decision is made against the *pre*-
        // admission state, so an empty machine refills all the way to
        // max_batch — not one request (a serial baseline in disguise).
        use autobatch_accel::{Backend, Trace};
        let (pc, _) = lower(&fibonacci_program(), LoweringOptions::default()).unwrap();
        let policy = AdmissionPolicy::DrainAndRefill { max_batch: 3 };
        let mut server =
            BatchServer::new(&pc, KernelRegistry::new(), ExecOptions::default(), policy).unwrap();
        for r in fib_requests(&[9, 5, 11, 7, 3, 8, 6]) {
            server.submit(r).unwrap();
        }
        let mut tr = Trace::new(Backend::hybrid_cpu());
        let out = server.run_until_idle(Some(&mut tr)).unwrap();
        assert_eq!(out.len(), 7);
        assert_eq!(tr.peak_members(), 3, "refill must reach max_batch");
    }

    #[test]
    fn join_at_entry_admits_into_lockstep_batch_with_free_lane() {
        // Regression: join-at-entry admits whenever there is capacity.
        // Members running in lockstep hold utilization at exactly 1.0,
        // which must not block a pending request from taking a freed
        // lane.
        let policy = AdmissionPolicy::JoinAtEntry { max_batch: 3 };
        // Request 0 retires early; 1 and 2 are identical, so the
        // survivors run in perfect lockstep while 3 waits.
        let (out, _) = serve(&[2, 9, 9, 9], policy);
        let late = &out[3];
        let lockstep_end = out[1].retired_at.min(out[2].retired_at);
        assert!(
            late.admitted_at < lockstep_end,
            "request 3 (admitted at {}) should have joined the lockstep \
             batch before it drained (at {})",
            late.admitted_at,
            lockstep_end
        );
    }

    #[test]
    fn dynamic_admission_beats_sequential_fixed_batches() {
        // The serving claim: on a divergent workload, join-at-entry keeps
        // lanes busy while drain-and-refill serializes behind stragglers.
        use autobatch_accel::Backend;
        let (pc, _) = lower(&fibonacci_program(), LoweringOptions::default()).unwrap();
        // Divergent depths: each refill batch contains one straggler.
        let ns: Vec<i64> = (0..24)
            .map(|i| if i % 4 == 0 { 17 } else { 2 + (i % 3) })
            .collect();
        let mut times = Vec::new();
        for policy in [
            AdmissionPolicy::JoinAtEntry { max_batch: 4 },
            AdmissionPolicy::DrainAndRefill { max_batch: 4 },
        ] {
            // A simulated-time ordering: priced the way the paper runs.
            let opts = ExecOptions {
                strategy: autobatch_core::ExecStrategy::Masking,
                ..ExecOptions::default()
            };
            let mut server = BatchServer::new(&pc, KernelRegistry::new(), opts, policy).unwrap();
            for r in fib_requests(&ns) {
                server.submit(r).unwrap();
            }
            let mut tr = Trace::new(Backend::hybrid_cpu());
            let out = server.run_until_idle(Some(&mut tr)).unwrap();
            assert_eq!(out.len(), ns.len());
            times.push(tr.sim_time());
        }
        assert!(
            times[0] < times[1],
            "dynamic admission ({}) should beat drain-and-refill ({})",
            times[0],
            times[1]
        );
    }

    #[test]
    fn statically_invalid_traffic_is_rejected_at_submit() {
        // Requests violating the inferred signature never touch machine
        // state: rejected with a typed error at submission, not at
        // admission.
        let (pc, _) = lower(&fibonacci_program(), LoweringOptions::default()).unwrap();
        let policy = AdmissionPolicy::JoinAtEntry { max_batch: 2 };
        let mut server =
            BatchServer::new(&pc, KernelRegistry::new(), ExecOptions::default(), policy).unwrap();
        // Wrong dtype: fibonacci's input must be an integer.
        let err = server
            .submit(Request {
                id: 0,
                inputs: vec![Tensor::from_f64(&[1.0], &[1]).unwrap()],
                seed: 0,
            })
            .unwrap_err();
        assert!(matches!(err, ServeError::InvalidRequest(_)), "{err:?}");
        // Wrong element shape: a [2] element would make the recursion's
        // branch condition non-scalar.
        let err = server
            .submit(Request {
                id: 1,
                inputs: vec![Tensor::from_i64(&[1, 2], &[1, 2]).unwrap()],
                seed: 1,
            })
            .unwrap_err();
        assert!(matches!(err, ServeError::InvalidRequest(_)), "{err:?}");
        assert_eq!(server.pending(), 0, "nothing was enqueued");
        // Valid traffic still flows on the same server.
        for r in fib_requests(&[6]) {
            server.submit(r).unwrap();
        }
        let out = server.run_until_idle(None).unwrap();
        assert_eq!(out[0].outputs[0].as_i64().unwrap(), &[13]);
    }

    #[test]
    fn ill_typed_program_is_rejected_at_construction() {
        // An intrinsically ill-typed program (f64 + bool) never gets a
        // machine: `BatchServer::new` fails with the verifier's
        // diagnostic.
        use autobatch_ir::pcab::{Block, Op, Terminator, VarClass, WriteKind};
        use autobatch_ir::{BlockId, Prim, Var};
        let z = Var::new("z");
        let c = Var::new("c");
        let b = Var::new("b");
        let program = Program {
            blocks: vec![Block {
                ops: vec![
                    Op::Compute {
                        outs: vec![(c.clone(), WriteKind::Update)],
                        prim: Prim::ConstF64(1.0),
                        ins: vec![],
                    },
                    Op::Compute {
                        outs: vec![(b.clone(), WriteKind::Update)],
                        prim: Prim::ConstBool(true),
                        ins: vec![],
                    },
                    Op::Compute {
                        outs: vec![(z.clone(), WriteKind::Update)],
                        prim: Prim::Add,
                        ins: vec![c.clone(), b.clone()],
                    },
                ],
                term: Terminator::Return,
            }],
            entry: BlockId(0),
            inputs: vec![],
            outputs: vec![z.clone()],
            classes: [(z, VarClass::Register)].into_iter().collect(),
        };
        let policy = AdmissionPolicy::JoinAtEntry { max_batch: 2 };
        let err = BatchServer::new(
            &program,
            KernelRegistry::new(),
            ExecOptions::default(),
            policy,
        )
        .unwrap_err();
        assert!(matches!(err, ServeError::InvalidProgram(_)), "{err:?}");
    }

    #[test]
    fn step_limit_does_not_poison_and_finished_work_remains_retirable() {
        // The cumulative step limit fires before a block executes, so the
        // machine is consistent: the server must not poison itself, and a
        // member that finished before the limit is still retired/returned.
        use autobatch_core::VmError;
        let (pc, _) = lower(&fibonacci_program(), LoweringOptions::default()).unwrap();
        let opts = ExecOptions {
            max_supersteps: 30,
            ..ExecOptions::default()
        };
        // max_batch 2 leaves a free lane after the short member retires,
        // so the post-limit admission gate (not the capacity check) is
        // what must keep later submissions out of the dead machine.
        let policy = AdmissionPolicy::DrainAndRefill { max_batch: 2 };
        let mut server = BatchServer::new(&pc, KernelRegistry::new(), opts, policy).unwrap();
        for r in fib_requests(&[2, 15]) {
            server.submit(r).unwrap();
        }
        let err = server.run_until_idle(None).unwrap_err();
        assert!(
            matches!(err, ServeError::Vm(VmError::StepLimit { .. })),
            "{err:?}"
        );
        assert!(server.poisoned().is_none(), "step limit must not poison");
        // Requests submitted after exhaustion must stay pending — never
        // admitted into a machine that can only error — so they remain
        // reachable through `reject`.
        for mut r in fib_requests(&[4]) {
            r.id = 2;
            server.submit(r).unwrap();
        }
        let in_flight_before = server.in_flight();
        assert_eq!(in_flight_before, 1, "long member still in flight");
        // A later call re-raises the limit, but the completed response
        // survives for salvage and the queue is untouched.
        assert_eq!(server.run_until_idle(None).unwrap_err(), err);
        assert_eq!(
            server.in_flight(),
            in_flight_before,
            "no stranded admission"
        );
        assert_eq!(server.reject().map(|r| r.id), Some(2));
        let ready = server.take_ready();
        assert_eq!(ready.len(), 1);
        assert_eq!(ready[0].outputs[0].as_i64().unwrap(), &[2]);
    }

    #[test]
    fn exhaustion_with_pending_requests_errors_instead_of_spinning() {
        // Regression: if the step budget runs out exactly as the machine
        // drains while requests are still queued, run_until_idle must
        // surface StepLimit — not busy-loop on a machine that can never
        // step again with admissions refused.
        use autobatch_core::VmError;
        let (pc, _) = lower(&fibonacci_program(), LoweringOptions::default()).unwrap();
        let policy = AdmissionPolicy::DrainAndRefill { max_batch: 1 };
        // Measure the supersteps one fib(2) request needs end to end.
        let mut probe =
            BatchServer::new(&pc, KernelRegistry::new(), ExecOptions::default(), policy).unwrap();
        for r in fib_requests(&[2]) {
            probe.submit(r).unwrap();
        }
        probe.run_until_idle(None).unwrap();
        let steps = probe.supersteps();
        // Budget for exactly one request, two submitted.
        let opts = ExecOptions {
            max_supersteps: steps,
            ..ExecOptions::default()
        };
        let mut server = BatchServer::new(&pc, KernelRegistry::new(), opts, policy).unwrap();
        for r in fib_requests(&[2, 2]) {
            server.submit(r).unwrap();
        }
        let err = server.run_until_idle(None).unwrap_err();
        assert!(
            matches!(err, ServeError::Vm(VmError::StepLimit { .. })),
            "{err:?}"
        );
        assert!(server.poisoned().is_none());
        // The completed request is salvageable, the other stays queued.
        assert_eq!(server.take_ready().len(), 1);
        assert_eq!(server.pending(), 1);
    }

    #[test]
    fn execution_error_poisons_server_but_completed_work_is_salvageable() {
        // An execution error (here: stack overflow) surfaces mid-
        // superstep, with per-member state half-mutated — re-driving the
        // machine would corrupt innocent members. The server must refuse
        // further runs, while work completed before the failure stays
        // retrievable.
        use autobatch_core::VmError;
        let (pc, _) = lower(&fibonacci_program(), LoweringOptions::default()).unwrap();
        let opts = ExecOptions {
            stack_depth: 16,
            ..ExecOptions::default()
        };
        // Serial batches make the order deterministic: request 0 fully
        // completes (and is buffered) before request 1 is even admitted.
        let policy = AdmissionPolicy::DrainAndRefill { max_batch: 1 };
        let mut server = BatchServer::new(&pc, KernelRegistry::new(), opts, policy).unwrap();
        for r in fib_requests(&[2, 40]) {
            server.submit(r).unwrap();
        }
        let err = server.run_until_idle(None).unwrap_err();
        assert!(
            matches!(err, ServeError::Vm(VmError::StackOverflow { .. })),
            "{err:?}"
        );
        // Poisoned: every later run refuses with the same error.
        assert_eq!(server.run_until_idle(None).unwrap_err(), err);
        assert!(server.poisoned().is_some());
        // The request that completed before the failure is salvageable.
        let ready = server.take_ready();
        assert_eq!(ready.len(), 1);
        assert_eq!(ready[0].id, 0);
        assert_eq!(ready[0].outputs[0].as_i64().unwrap(), &[2]);
    }

    #[test]
    fn deadline_holds_partial_batches_until_the_deadline() {
        // max_batch 4 with only 2 requests pending: admission must wait
        // for the head-of-line deadline, not launch a half-empty batch
        // immediately — and not wait past the deadline either.
        let (pc, _) = lower(&fibonacci_program(), LoweringOptions::default()).unwrap();
        let policy = AdmissionPolicy::Deadline {
            max_batch: 4,
            max_wait: 100,
        };
        let mut server =
            BatchServer::new(&pc, KernelRegistry::new(), ExecOptions::default(), policy).unwrap();
        for r in fib_requests(&[9, 5]) {
            server.submit(r).unwrap();
        }
        // Under poll (no fast-forward), nothing may run before the
        // deadline: the batch is partial and the clock hasn't moved.
        assert!(!server.poll(None).unwrap());
        assert_eq!(server.in_flight(), 0);
        assert_eq!(server.pending(), 2);
        assert_eq!(server.next_deadline(), Some(100));
        // One tick short of the deadline: still held.
        server.set_clock(99);
        assert!(!server.poll(None).unwrap());
        assert_eq!(server.in_flight(), 0);
        // At the deadline the partial batch launches.
        server.set_clock(100);
        server.poll(None).unwrap();
        assert_eq!(server.in_flight(), 2);
        assert_eq!(server.pending(), 0);
        let mut out = server.run_until_idle(None).unwrap();
        out.sort_by_key(|r| r.id);
        assert_eq!(out.len(), 2);
        // Both requests waited exactly until the deadline fired.
        assert!(out.iter().all(|r| r.queued_ticks == 100), "{out:?}");
    }

    #[test]
    fn deadline_admits_immediately_when_the_batch_fills() {
        // Enough pending requests to fill every free lane: no waiting.
        let (pc, _) = lower(&fibonacci_program(), LoweringOptions::default()).unwrap();
        let policy = AdmissionPolicy::Deadline {
            max_batch: 3,
            max_wait: 1_000_000,
        };
        let mut server =
            BatchServer::new(&pc, KernelRegistry::new(), ExecOptions::default(), policy).unwrap();
        for r in fib_requests(&[9, 5, 7]) {
            server.submit(r).unwrap();
        }
        assert!(server.poll(None).unwrap());
        assert_eq!(server.in_flight(), 3);
        let out = server.run_until_idle(None).unwrap();
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|r| r.queued_ticks == 0), "{out:?}");
    }

    #[test]
    fn run_until_idle_fast_forwards_a_blocked_deadline_queue() {
        // run_until_idle must never spin when the deadline policy holds a
        // partial batch back from an idle machine: it fast-forwards the
        // clock to the head-of-line deadline, and the wait shows up in
        // queued_ticks. This is the light-load latency bound: when only
        // the deadline can admit, the queue wait's p99 (its maximum) is
        // `max_wait` itself, not `max_wait` plus a superstep.
        let (pc, _) = lower(&fibonacci_program(), LoweringOptions::default()).unwrap();
        let policy = AdmissionPolicy::Deadline {
            max_batch: 8,
            max_wait: 300,
        };
        let mut server =
            BatchServer::new(&pc, KernelRegistry::new(), ExecOptions::default(), policy).unwrap();
        // 3 requests against capacity 8: the batch can never fill, so
        // only the deadline can admit them.
        for r in fib_requests(&[14, 2, 9]) {
            server.submit(r).unwrap();
        }
        let mut out = server.run_until_idle(None).unwrap();
        out.sort_by_key(|r| r.id);
        let got: Vec<i64> = out
            .iter()
            .map(|r| r.outputs[0].as_i64().unwrap()[0])
            .collect();
        assert_eq!(got, vec![610, 2, 55]);
        // Every request waited exactly the fast-forwarded deadline.
        let waits: Vec<u64> = out.iter().map(|r| r.queued_ticks).collect();
        assert_eq!(waits, vec![300, 300, 300]);
        assert_eq!(server.clock(), 300, "clock was fast-forwarded");
        // A later arrival into the idle server waits the same, no longer.
        server.set_clock(2_000);
        server.submit(fib_requests(&[5]).remove(0)).unwrap();
        let late = server.run_until_idle(None).unwrap();
        assert_eq!((late[0].queued_ticks, server.clock()), (300, 2_300));
    }

    #[test]
    fn run_for_fast_forwards_a_blocked_deadline_queue_too() {
        // The fleet's quanta are the same loop as run_until_idle: a
        // server idle but for a partial batch the deadline holds serves
        // it within the quantum instead of reporting itself blocked.
        let (pc, _) = lower(&fibonacci_program(), LoweringOptions::default()).unwrap();
        let policy = AdmissionPolicy::Deadline {
            max_batch: 2,
            max_wait: 40,
        };
        let mut server =
            BatchServer::new(&pc, KernelRegistry::new(), ExecOptions::default(), policy).unwrap();
        server.submit(fib_requests(&[3]).remove(0)).unwrap();
        let ran = server.run_for(1_000).unwrap();
        assert!((1..1_000).contains(&ran), "ran {ran} supersteps");
        assert_eq!((server.pending(), server.in_flight()), (0, 0));
        let done = server.take_ready();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].outputs[0].as_i64().unwrap(), &[3]);
        assert_eq!((done[0].queued_ticks, server.clock()), (40, 40));
    }

    #[test]
    fn deadline_results_match_join_at_entry_bitwise() {
        let join = AdmissionPolicy::JoinAtEntry { max_batch: 4 };
        let deadline = AdmissionPolicy::Deadline {
            max_batch: 4,
            max_wait: 17,
        };
        let (reference, _) = serve(&NS, join);
        let (out, _) = serve(&NS, deadline);
        for (a, b) in reference.iter().zip(&out) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.outputs, b.outputs, "deadline admission perturbed results");
        }
    }

    #[test]
    fn a_spec_conflict_is_refused_at_submit_and_nothing_queues() {
        // The first accepted request fixes the served input spec, so a
        // request whose payload shape conflicts with it — statically
        // valid, the program being shape-polymorphic — is refused with a
        // typed error at submission, as is an input that is not one row,
        // and nothing of either is queued. Admission then never fails,
        // and every good request completes.
        let (pc, _) = lower(&countup_program(), LoweringOptions::default()).unwrap();
        let policy = AdmissionPolicy::JoinAtEntry { max_batch: 2 };
        let mut server =
            BatchServer::new(&pc, KernelRegistry::new(), ExecOptions::default(), policy).unwrap();
        for r in countup_requests(&[12, 2]) {
            server.submit(r).unwrap();
        }
        let two_rows = Request {
            id: 9,
            inputs: vec![
                Tensor::from_i64(&[3, 4], &[2]).unwrap(),
                Tensor::from_f64(&[0.0, 0.0], &[2]).unwrap(),
            ],
            seed: 9,
        };
        for bad in [countup_vec_request(2, 3), two_rows] {
            let err = server.submit(bad).unwrap_err();
            assert!(matches!(err, ServeError::BadRequest(_)), "{err:?}");
        }
        assert_eq!(server.pending(), 2, "nothing was queued");
        for mut r in countup_requests(&[5]) {
            r.id = 3;
            server.submit(r).unwrap();
        }
        let mut out = server.run_until_idle(None).unwrap();
        assert!(server.poisoned().is_none());
        out.sort_by_key(|r| r.id);
        let got: Vec<(u64, f64)> = out
            .iter()
            .map(|r| (r.id, r.outputs[0].as_f64().unwrap()[0]))
            .collect();
        assert_eq!(got, vec![(0, 12.0), (1, 2.0), (3, 5.0)]);
        // The spec holds for the server's lifetime, idle or not.
        let err = server.submit(countup_vec_request(4, 1)).unwrap_err();
        assert!(matches!(err, ServeError::BadRequest(_)), "{err:?}");
        // Work moves only between servers that fixed the same spec; a
        // server that fixed none takes the donor's with the work.
        let new = || {
            BatchServer::new(&pc, KernelRegistry::new(), ExecOptions::default(), policy).unwrap()
        };
        let mut vec_server = new();
        vec_server.submit(countup_vec_request(5, 1)).unwrap();
        assert!(!vec_server.takes_work_from(&server));
        let mut fresh = new();
        assert!(fresh.takes_work_from(&server));
        let err = fresh.submit(countup_vec_request(6, 1)).unwrap_err();
        assert!(matches!(err, ServeError::BadRequest(_)), "{err:?}");
    }

    #[test]
    fn failed_admission_requeues_requests_and_loses_nothing() {
        // A machine that fails to admit a batch is handled as a failed
        // superstep is: the popped requests go back to the queue, the
        // member in flight stays on the record, the response completed
        // before the error stays salvageable, and the server is
        // poisoned. Every request is accounted for — nothing is lost.
        let (pc, _) = lower(&countup_program(), LoweringOptions::default()).unwrap();
        let policy = AdmissionPolicy::JoinAtEntry { max_batch: 2 };
        let mut server =
            BatchServer::new(&pc, KernelRegistry::new(), ExecOptions::default(), policy).unwrap();
        // Two requests fill the machine; the short one retires first and
        // frees a lane for the one the machine cannot take.
        for r in countup_requests(&[12, 2]) {
            server.submit(r).unwrap();
        }
        enqueue_unjudged(&mut server, countup_vec_request(2, 3));
        for mut r in countup_requests(&[5]) {
            r.id = 3;
            server.submit(r).unwrap();
        }
        let err = server.run_until_idle(None);
        assert!(matches!(err, Err(ServeError::Vm(_))), "got {err:?}");
        assert!(server.poisoned().is_some());
        assert_eq!(server.pending(), 2, "the popped request is back");
        assert_eq!(server.in_flight_ids(), vec![0], "the long member stays");
        let ready = server.take_ready();
        let got: Vec<(u64, f64)> = ready
            .iter()
            .map(|r| (r.id, r.outputs[0].as_f64().unwrap()[0]))
            .collect();
        assert_eq!(got, vec![(1, 2.0)], "countup(2) completed before the error");
        // The poisoned server refuses to run again; its queue drains.
        assert!(matches!(
            server.run_until_idle(None),
            Err(ServeError::Vm(_))
        ));
        let mut seen: Vec<u64> = std::iter::from_fn(|| server.reject().map(|r| r.id)).collect();
        seen.extend(server.in_flight_ids());
        seen.extend(ready.iter().map(|r| r.id));
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn failed_admission_requeues_in_original_fifo_order() {
        // When a batch admission fails in the machine, every request it
        // popped lands back at the queue *head* in the original FIFO
        // order, so `reject()` drains them first to last.
        let (pc, _) = lower(&countup_program(), LoweringOptions::default()).unwrap();
        // max_batch 4 pops the conflicting request and both requests
        // behind it in one admission attempt.
        let policy = AdmissionPolicy::JoinAtEntry { max_batch: 4 };
        let mut server =
            BatchServer::new(&pc, KernelRegistry::new(), ExecOptions::default(), policy).unwrap();
        for r in countup_requests(&[9]) {
            server.submit(r).unwrap();
        }
        // The first request fixes the machine's buffers.
        assert!(server.poll(None).unwrap());
        enqueue_unjudged(&mut server, countup_vec_request(1, 4));
        for (id, n) in [(2u64, 5i64), (3, 7)] {
            let mut r = countup_requests(&[n]).remove(0);
            r.id = id;
            r.seed = 1000 + id;
            server.submit(r).unwrap();
        }
        let err = server.run_until_idle(None);
        assert!(matches!(err, Err(ServeError::Vm(_))), "got {err:?}");
        assert_eq!(server.in_flight(), 1);
        assert_eq!(server.pending(), 3);
        let order: Vec<u64> = std::iter::from_fn(|| server.reject().map(|r| r.id)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn nonsense_policy_parameters_are_rejected_at_construction() {
        let (pc, _) = lower(&fibonacci_program(), LoweringOptions::default()).unwrap();
        let bad = [
            AdmissionPolicy::JoinAtEntry { max_batch: 0 },
            AdmissionPolicy::DrainAndRefill { max_batch: 0 },
            AdmissionPolicy::Deadline {
                max_batch: 0,
                max_wait: 100,
            },
        ];
        for policy in bad {
            assert!(
                matches!(policy.validate(), Err(ServeError::BadPolicy(_))),
                "{policy:?} should not validate"
            );
            assert!(
                matches!(
                    BatchServer::new(&pc, KernelRegistry::new(), ExecOptions::default(), policy),
                    Err(ServeError::BadPolicy(_))
                ),
                "{policy:?} should not construct a server"
            );
        }
        // The documented boundary values stay valid.
        AdmissionPolicy::JoinAtEntry { max_batch: 1 }
            .validate()
            .unwrap();
        AdmissionPolicy::Deadline {
            max_batch: 1,
            max_wait: 0,
        }
        .validate()
        .unwrap();
    }

    #[test]
    fn bad_requests_and_policies_rejected() {
        let (pc, _) = lower(&fibonacci_program(), LoweringOptions::default()).unwrap();
        assert!(matches!(
            BatchServer::new(
                &pc,
                KernelRegistry::new(),
                ExecOptions::default(),
                AdmissionPolicy::DrainAndRefill { max_batch: 0 },
            ),
            Err(ServeError::BadPolicy(_))
        ));
        let policy = AdmissionPolicy::DrainAndRefill { max_batch: 2 };
        let mut server =
            BatchServer::new(&pc, KernelRegistry::new(), ExecOptions::default(), policy).unwrap();
        let err = server.submit(Request {
            id: 0,
            inputs: vec![],
            seed: 0,
        });
        assert!(matches!(err, Err(ServeError::BadRequest(_))));
    }

    /// Like `countup_program`, but with a data-dependent termination
    /// hazard: `i` counts **up** toward `n` under an `i != n` loop
    /// condition, so `n >= 0` terminates after `n` iterations while
    /// `n < 0` never reaches its target — a genuinely non-terminating
    /// loop (the PR 8 verifier reports it `Unbounded`; only runtime
    /// governance can contain it).
    fn runaway_program() -> autobatch_ir::lsab::Program {
        use autobatch_ir::build::ProgramBuilder;
        use autobatch_ir::Prim;
        let mut pb = ProgramBuilder::new();
        let f = pb.declare("runaway", &["n", "x"], &["y"]);
        pb.define(f, |fb| {
            let n = fb.param(0);
            let x = fb.param(1);
            let y = fb.output(0);
            fb.assign(&y, Prim::Id, &[x]);
            let zero = fb.const_i64(0);
            let i = fb.emit(Prim::Id, &[zero]);
            let exit = fb.new_block();
            let header = fb.new_block();
            let body = fb.new_block();
            fb.jump(header);
            fb.switch_to(header);
            let c = fb.emit(Prim::NeE, &[i.clone(), n.clone()]);
            fb.branch(&c, body, exit);
            fb.switch_to(body);
            let one_f = fb.const_f64(1.0);
            fb.assign(&y, Prim::Add, &[y.clone(), one_f]);
            let one_i = fb.const_i64(1);
            fb.assign(&i, Prim::Add, &[i.clone(), one_i]);
            fb.jump(header);
            fb.switch_to(exit);
            fb.ret();
        });
        pb.finish(f).unwrap()
    }

    fn runaway_requests(ns: &[i64]) -> Vec<Request> {
        ns.iter()
            .enumerate()
            .map(|(i, &n)| Request {
                id: i as u64,
                inputs: vec![
                    Tensor::from_i64(&[n], &[1]).unwrap(),
                    Tensor::from_f64(&[0.0], &[1]).unwrap(),
                ],
                seed: 1000 + i as u64,
            })
            .collect()
    }

    #[test]
    fn runaway_lane_is_evicted_within_the_budget_contract() {
        let (pc, _) = lower(&runaway_program(), LoweringOptions::default()).unwrap();
        let policy = AdmissionPolicy::JoinAtEntry { max_batch: 4 };
        // Baseline: the normal traffic alone, unbudgeted and fault-free.
        let mut baseline =
            BatchServer::new(&pc, KernelRegistry::new(), ExecOptions::default(), policy).unwrap();
        for r in runaway_requests(&[3, 7, 5]) {
            baseline.submit(r).unwrap();
        }
        let mut reference = baseline.run_until_idle(None).unwrap();
        reference.sort_by_key(|r| r.id);

        // Same traffic plus a genuinely non-terminating batchmate.
        let mut server =
            BatchServer::new(&pc, KernelRegistry::new(), ExecOptions::default(), policy).unwrap();
        let limit = 32u64;
        server.set_budget(RequestBudget {
            max_supersteps: Some(limit),
            ..RequestBudget::unlimited()
        });
        let mut requests = runaway_requests(&[3, 7, 5]);
        requests.push(Request {
            id: 3,
            inputs: vec![
                Tensor::from_i64(&[-1], &[1]).unwrap(),
                Tensor::from_f64(&[0.0], &[1]).unwrap(),
            ],
            seed: 1003,
        });
        for r in requests {
            server.submit(r).unwrap();
        }
        // `run_until_idle` returns: the runaway is evicted, not waited on.
        let mut done = server.run_until_idle(None).unwrap();
        done.sort_by_key(|r| r.id);

        // Typed verdict, within `max_supersteps + 1` supersteps of
        // admission (the charge that first *exceeds* the limit).
        let failed = server.take_failed();
        assert_eq!(failed.len(), 1);
        let (id, error) = &failed[0];
        assert_eq!(*id, 3);
        match error {
            ServeError::BudgetExceeded { spent, limit: l } => {
                assert_eq!(*l, limit);
                assert_eq!(
                    *spent,
                    limit + 1,
                    "eviction must fire on the first over-budget charge"
                );
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
        assert_eq!(server.evictions(), 1);

        // Batchmates are bit-identical to the run without the runaway.
        assert_eq!(done.len(), reference.len());
        for (a, b) in reference.iter().zip(&done) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.outputs, b.outputs, "eviction perturbed request {}", a.id);
        }
        // The server is healthy and idle, not wedged or poisoned.
        assert!(server.poisoned().is_none());
        assert_eq!(server.pending(), 0);
        assert_eq!(server.in_flight(), 0);
    }

    #[test]
    fn deadline_budget_evicts_a_lane_that_overstays() {
        let (pc, _) = lower(&runaway_program(), LoweringOptions::default()).unwrap();
        let policy = AdmissionPolicy::DrainAndRefill { max_batch: 2 };
        let mut server =
            BatchServer::new(&pc, KernelRegistry::new(), ExecOptions::default(), policy).unwrap();
        server.set_budget(RequestBudget {
            deadline_ticks: Some(10),
            ..RequestBudget::unlimited()
        });
        for r in runaway_requests(&[-1]) {
            server.submit(r).unwrap();
        }
        // Step the runaway a little, then let the virtual clock jump
        // past its deadline: the next superstep boundary evicts it.
        for _ in 0..3 {
            server.poll(None).unwrap();
        }
        server.set_clock(1_000);
        while server.poll(None).unwrap() {}
        let failed = server.take_failed();
        assert_eq!(failed.len(), 1);
        assert!(
            matches!(
                failed[0].1,
                ServeError::DeadlineExceeded { deadline: 10, .. }
            ),
            "expected DeadlineExceeded, got {:?}",
            failed[0].1
        );
        assert!(server.poisoned().is_none());
        assert_eq!(server.in_flight(), 0);
    }

    #[test]
    fn memory_budget_evicts_a_lane_over_its_byte_ceiling() {
        let (pc, _) = lower(&runaway_program(), LoweringOptions::default()).unwrap();
        let policy = AdmissionPolicy::DrainAndRefill { max_batch: 2 };
        let mut server =
            BatchServer::new(&pc, KernelRegistry::new(), ExecOptions::default(), policy).unwrap();
        // Any real lane holds more than one byte of registers.
        server.set_budget(RequestBudget {
            max_lane_bytes: Some(1),
            ..RequestBudget::unlimited()
        });
        for r in runaway_requests(&[-1]) {
            server.submit(r).unwrap();
        }
        let done = server.run_until_idle(None).unwrap();
        assert!(done.is_empty());
        let failed = server.take_failed();
        assert_eq!(failed.len(), 1);
        assert!(
            matches!(failed[0].1, ServeError::MemoryExceeded { limit: 1, bytes } if bytes > 1),
            "expected MemoryExceeded, got {:?}",
            failed[0].1
        );
    }

    #[test]
    fn cancel_resolves_queued_and_in_flight_requests() {
        let (pc, _) = lower(&runaway_program(), LoweringOptions::default()).unwrap();
        let policy = AdmissionPolicy::DrainAndRefill { max_batch: 1 };
        let mut server =
            BatchServer::new(&pc, KernelRegistry::new(), ExecOptions::default(), policy).unwrap();
        // id 0 is a runaway that will be admitted first (max_batch 1);
        // id 1 waits in the queue behind it.
        for r in runaway_requests(&[-1, 4]) {
            server.submit(r).unwrap();
        }
        // Queued cancellation resolves immediately, without running.
        assert!(server.cancel(1));
        assert_eq!(server.pending(), 1);
        // Unknown ids are a no-op.
        assert!(!server.cancel(99));
        // In-flight cancellation lands at the next superstep boundary.
        for _ in 0..3 {
            server.poll(None).unwrap();
        }
        assert!(server.cancel(0));
        let done = server.run_until_idle(None).unwrap();
        assert!(done.is_empty());
        let mut failed = server.take_failed();
        failed.sort_by_key(|&(id, _)| id);
        assert_eq!(failed.len(), 2);
        assert!(matches!(failed[0], (0, ServeError::Cancelled)));
        assert!(matches!(failed[1], (1, ServeError::Cancelled)));
        assert_eq!(
            server.evictions(),
            1,
            "only the in-flight cancel evicts a lane"
        );
        assert!(server.poisoned().is_none());
        assert_eq!(server.pending(), 0);
        assert_eq!(server.in_flight(), 0);
    }

    #[test]
    fn completion_wins_a_cancel_race() {
        let (pc, _) = lower(&runaway_program(), LoweringOptions::default()).unwrap();
        let policy = AdmissionPolicy::DrainAndRefill { max_batch: 1 };
        let mut server =
            BatchServer::new(&pc, KernelRegistry::new(), ExecOptions::default(), policy).unwrap();
        for r in runaway_requests(&[2]) {
            server.submit(r).unwrap();
        }
        let done = server.run_until_idle(None).unwrap();
        assert_eq!(done.len(), 1);
        // The request already retired: a late cancel matches nothing.
        assert!(!server.cancel(0));
        assert!(server.take_failed().is_empty());
    }
}
