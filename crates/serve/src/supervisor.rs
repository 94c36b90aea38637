//! Self-healing supervision over the sharded fleet.
//!
//! [`ShardedServer`] contains faults (a poisoned shard cannot hurt its
//! siblings) but does not *recover* from them: a poisoned shard stays
//! out of rotation, with whatever was queued on it, until somebody
//! calls [`ShardedServer::respawn_shard`], and work that was in flight
//! on the dead machine is simply gone. [`Supervisor`] is that somebody:
//!
//! - after every fleet round it **triages** failed shards: recoverable
//!   admission offenders are answered with their typed error and
//!   dropped; poisoned (execution error, caught panic) and
//!   step-limit-exhausted shards are **respawned in place** with a
//!   fresh `BatchServer` + `PcMachine`;
//! - work the dead machine stranded (queued) or lost (in flight) is
//!   **retried** under a bounded per-request retry budget with
//!   round-based backoff, from the supervisor's own copy of each
//!   request;
//! - a request whose budget runs out gets a **typed terminal error**
//!   ([`ServeError::RetriesExhausted`]) instead of silence.
//!
//! The contract, proven by the chaos property suite
//! (`crates/serve/tests/chaos.rs`): under any seeded
//! [`FaultPlan`](autobatch_chaos::FaultPlan), every submitted request
//! reaches **exactly one terminal outcome** ([`Outcome::Done`] or
//! [`Outcome::Failed`]), every surviving response is **bit-identical**
//! to the fault-free run (retries re-execute from scratch and the
//! counter-based RNG is keyed by the request seed, not placement), and
//! the fleet ends **healthy** (every dead shard respawned).
//!
//! Backoff is measured in fleet rounds, not wall clock, so supervised
//! runs stay deterministic and replayable.

use std::collections::{HashMap, VecDeque};

use autobatch_core::VmError;

use crate::shard::ShardHealth;
use crate::{Request, Response, Result, ServeError, ShardedServer};

/// Retry discipline of a [`Supervisor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// How many times one request may be retried (beyond its first
    /// attempt) before it is answered with
    /// [`ServeError::RetriesExhausted`].
    pub retry_budget: u32,
    /// Backoff slope, in fleet rounds per accumulated attempt: a
    /// request on its `n`-th retry is parked for `backoff_rounds * n`
    /// rounds before re-entering the queue. Values below 1 behave as 1.
    pub backoff_rounds: u64,
    /// When the supervised program's requests repeatedly blow their
    /// resource budgets, trip a circuit breaker that fast-rejects at
    /// admission (see [`QuarantineConfig`]).
    pub quarantine: QuarantineConfig,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            retry_budget: 3,
            backoff_rounds: 1,
            quarantine: QuarantineConfig::default(),
        }
    }
}

/// The per-program quarantine breaker's tuning.
///
/// Budget blowups ([`ServeError::BudgetExceeded`],
/// [`ServeError::DeadlineExceeded`], [`ServeError::MemoryExceeded`] —
/// cancellations never count) are recorded against the supervised
/// program with the fleet round they happened in. When
/// `trip_threshold` blowups accumulate inside the `decay_rounds`
/// sliding window, the breaker **opens**: [`Supervisor::submit`]
/// fast-rejects with [`ServeError::Quarantined`] instead of burning
/// fleet capacity on a program that keeps running away. After
/// `cooldown_rounds` the breaker goes **half-open**: exactly one probe
/// request is admitted — if it completes, the breaker closes and the
/// record resets; if it blows a budget again, the breaker re-opens for
/// another cooldown. Round-based (not wall-clock), so supervised runs
/// stay deterministic and replayable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantineConfig {
    /// Blowups within the window that open the breaker. `0` disables
    /// quarantine entirely.
    pub trip_threshold: u32,
    /// Sliding window, in fleet rounds, a blowup stays on the record.
    pub decay_rounds: u64,
    /// Rounds the breaker stays open before half-open probing. While
    /// open, each fast-rejected submission also advances the round
    /// clock (refusals are the quarantined program's only events), so
    /// a steady caller reaches the half-open probe after at most
    /// `cooldown_rounds` refusals.
    pub cooldown_rounds: u64,
}

impl Default for QuarantineConfig {
    fn default() -> Self {
        QuarantineConfig {
            trip_threshold: 3,
            decay_rounds: 32,
            cooldown_rounds: 16,
        }
    }
}

/// Observable state of the per-program quarantine breaker
/// ([`Supervisor::quarantine`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineStatus {
    /// Admitting normally; `recent_blowups` are on the sliding-window
    /// record.
    Closed {
        /// Budget blowups still inside the decay window.
        recent_blowups: u32,
    },
    /// Fast-rejecting all submissions until `until_round`.
    Open {
        /// First fleet round at which half-open probing begins.
        until_round: u64,
        /// Blowups on record when the breaker tripped.
        blowups: u32,
    },
    /// Cooldown elapsed: one probe request may be admitted.
    HalfOpen {
        /// Whether the single probe slot is currently occupied.
        probing: bool,
    },
}

/// The breaker itself: a windowed blowup log plus the open/half-open
/// state machine described on [`QuarantineConfig`].
#[derive(Debug)]
struct Breaker {
    config: QuarantineConfig,
    /// Fleet rounds at which budget blowups were recorded, oldest
    /// first; pruned to the decay window.
    blowups: VecDeque<u64>,
    state: BreakerState,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    Closed,
    Open { until_round: u64 },
    HalfOpen { probe: Option<u64> },
}

impl Breaker {
    fn new(config: QuarantineConfig) -> Breaker {
        Breaker {
            config,
            blowups: VecDeque::new(),
            state: BreakerState::Closed,
        }
    }

    /// Drop blowups that fell out of the sliding window.
    fn decay(&mut self, round: u64) {
        let horizon = round.saturating_sub(self.config.decay_rounds);
        while self.blowups.front().is_some_and(|&r| r < horizon) {
            self.blowups.pop_front();
        }
    }

    /// Gate one admission at `round`. `Ok(())` admits; an open breaker
    /// rejects with [`ServeError::Quarantined`]. Handles the
    /// open→half-open transition when the cooldown has elapsed.
    fn admit(&mut self, round: u64, id: u64) -> Result<()> {
        self.decay(round);
        if let BreakerState::Open { until_round } = self.state {
            if round < until_round {
                return Err(ServeError::Quarantined {
                    blowups: self.blowups.len() as u32,
                });
            }
            self.state = BreakerState::HalfOpen { probe: None };
        }
        match self.state {
            BreakerState::HalfOpen { probe: Some(_) } => Err(ServeError::Quarantined {
                blowups: self.blowups.len() as u32,
            }),
            BreakerState::HalfOpen { probe: None } => {
                self.state = BreakerState::HalfOpen { probe: Some(id) };
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// The probe never actually entered the fleet (its submission
    /// failed downstream of the breaker): free the probe slot.
    fn abort_probe(&mut self, id: u64) {
        if self.state == (BreakerState::HalfOpen { probe: Some(id) }) {
            self.state = BreakerState::HalfOpen { probe: None };
        }
    }

    /// A request completed. A successful probe closes the breaker and
    /// resets the record — the program demonstrably terminates again.
    fn note_done(&mut self, id: u64) {
        if self.state == (BreakerState::HalfOpen { probe: Some(id) }) {
            self.state = BreakerState::Closed;
            self.blowups.clear();
        }
    }

    /// A request failed. A budget blowup goes on the record and can
    /// trip (or re-open) the breaker; a non-blowup failure of the probe
    /// (cancellation, retries exhausted) proves nothing about the
    /// program, so the probe slot simply reopens.
    fn note_failed(&mut self, id: u64, round: u64, blowup: bool) {
        if !blowup {
            self.abort_probe(id);
            return;
        }
        if self.config.trip_threshold == 0 {
            return;
        }
        self.decay(round);
        self.blowups.push_back(round);
        let probe_blew = self.state == (BreakerState::HalfOpen { probe: Some(id) });
        let tripped = self.state == BreakerState::Closed
            && self.blowups.len() >= self.config.trip_threshold as usize;
        if probe_blew || tripped {
            self.state = BreakerState::Open {
                until_round: round + self.config.cooldown_rounds.max(1),
            };
        }
    }

    fn status(&self) -> QuarantineStatus {
        match self.state {
            BreakerState::Closed => QuarantineStatus::Closed {
                recent_blowups: self.blowups.len() as u32,
            },
            BreakerState::Open { until_round } => QuarantineStatus::Open {
                until_round,
                blowups: self.blowups.len() as u32,
            },
            BreakerState::HalfOpen { probe } => QuarantineStatus::HalfOpen {
                probing: probe.is_some(),
            },
        }
    }
}

/// The terminal outcome of one supervised request.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// The request completed; the response is bit-identical to what a
    /// fault-free run would have produced.
    Done(Response),
    /// The request failed for good: a typed error after triage (bad
    /// admission) or after its retry budget ran out.
    Failed {
        /// The request id.
        id: u64,
        /// Why the supervisor gave up.
        error: ServeError,
    },
}

impl Outcome {
    /// The request id this outcome answers.
    pub fn id(&self) -> u64 {
        match self {
            Outcome::Done(r) => r.id,
            Outcome::Failed { id, .. } => *id,
        }
    }

    /// Whether the request completed successfully.
    pub fn is_done(&self) -> bool {
        matches!(self, Outcome::Done(_))
    }
}

/// A self-healing wrapper around [`ShardedServer`]: respawns dead
/// shards, retries their stranded and lost work under a bounded budget,
/// and turns every failure into a typed terminal [`Outcome`].
///
/// # Examples
///
/// ```
/// use autobatch_accel::Backend;
/// use autobatch_core::{lower, KernelRegistry, LoweringOptions, ExecOptions};
/// use autobatch_ir::build::fibonacci_program;
/// use autobatch_serve::{
///     AdmissionPolicy, Request, ShardedServer, Supervisor, SupervisorConfig,
/// };
/// use autobatch_tensor::Tensor;
///
/// let (program, _) = lower(&fibonacci_program(), LoweringOptions::default())?;
/// let policy = AdmissionPolicy::JoinAtEntry { max_batch: 2, min_utilization: 1.0 };
/// let fleet = ShardedServer::new(
///     &program, KernelRegistry::new(), ExecOptions::default(), policy, 2,
///     Backend::hybrid_cpu(),
/// )?;
/// let mut sup = Supervisor::new(fleet, SupervisorConfig::default());
/// for (id, n) in [(0u64, 6i64), (1, 9)] {
///     sup.submit(Request { id, inputs: vec![Tensor::from_i64(&[n], &[1])?], seed: id })?;
/// }
/// let outcomes = sup.run_until_quiescent();
/// assert!(outcomes.iter().all(|o| o.is_done()));
/// assert!(sup.inner().poisoned_shards().is_empty());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Supervisor<'p> {
    inner: ShardedServer<'p>,
    config: SupervisorConfig,
    /// id → (a retryable copy of the request, attempts consumed).
    tracked: HashMap<u64, (Request, u32)>,
    /// Requests awaiting a backoff release: `(request, release_round)`.
    parked: Vec<(Request, u64)>,
    /// Terminal failures accumulated between drains.
    failed: Vec<Outcome>,
    /// Fleet rounds driven so far — the virtual time backoff counts in.
    round: u64,
    /// Retry attempts performed over the supervisor's lifetime.
    retries: u64,
    /// The per-program quarantine breaker (see [`QuarantineConfig`]).
    breaker: Breaker,
}

impl<'p> Supervisor<'p> {
    /// Supervise an existing fleet.
    pub fn new(inner: ShardedServer<'p>, config: SupervisorConfig) -> Supervisor<'p> {
        Supervisor {
            inner,
            config,
            tracked: HashMap::new(),
            parked: Vec::new(),
            failed: Vec::new(),
            round: 0,
            retries: 0,
            breaker: Breaker::new(config.quarantine),
        }
    }

    /// The supervised fleet, for observability
    /// ([`ShardedServer::health`], traces, counters).
    pub fn inner(&self) -> &ShardedServer<'p> {
        &self.inner
    }

    /// Advance the fleet's virtual clock. See [`ShardedServer::set_clock`].
    pub fn set_clock(&mut self, now: u64) {
        self.inner.set_clock(now);
    }

    /// Set the per-request resource ceilings every shard enforces. See
    /// [`ShardedServer::set_budget`].
    pub fn set_budget(&mut self, budget: crate::RequestBudget) {
        self.inner.set_budget(budget);
    }

    /// The per-program quarantine breaker's observable state.
    pub fn quarantine(&self) -> QuarantineStatus {
        self.breaker.status()
    }

    /// Request cooperative cancellation of a tracked request: a parked
    /// retry is answered with [`ServeError::Cancelled`] immediately; a
    /// queued or in-flight request is cancelled through the fleet (its
    /// lane evicted at the next superstep boundary) and resolves to the
    /// same typed outcome on the next
    /// [`Supervisor::run_until_quiescent`]. Returns `false` when the id
    /// is unknown — already answered, or never submitted.
    pub fn cancel(&mut self, id: u64) -> bool {
        if let Some(pos) = self.parked.iter().position(|(r, _)| r.id == id) {
            let (r, _) = self.parked.remove(pos);
            self.inner.abandon_seq(r.id);
            self.resolve_failure(id, ServeError::Cancelled);
            return true;
        }
        self.inner.cancel(id)
    }

    /// Total shard respawns performed so far.
    pub fn respawns(&self) -> u64 {
        self.inner.respawns()
    }

    /// Total retry attempts performed so far (inline admission retries
    /// plus requeues of stranded/lost work).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Per-shard health: respawn count, last recorded error, liveness.
    pub fn health(&self) -> Vec<ShardHealth> {
        self.inner.health()
    }

    /// Requests tracked but not yet resolved to a terminal outcome.
    pub fn outstanding(&self) -> usize {
        self.tracked.len()
    }

    /// Submit a request for supervised execution. An injected admission
    /// fault is retried inline up to the retry budget; real refusals
    /// (bad arity, a bad signature) pass straight through — the caller
    /// owns that terminal outcome.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] / [`ServeError::InvalidRequest`] as
    /// [`ShardedServer::submit`]; [`ServeError::Quarantined`] when the
    /// program's breaker is open (fast rejection — nothing reaches the
    /// fleet); [`ServeError::RetriesExhausted`] when injected admission
    /// faults outlasted the budget. In every error case the request is
    /// **not** tracked: the error *is* its terminal outcome.
    pub fn submit(&mut self, request: Request) -> Result<()> {
        if let Err(e) = self.breaker.admit(self.round, request.id) {
            // While the breaker is open nothing enters the fleet, so
            // no drive rounds happen: fast-rejects are the program's
            // only events and therefore drive the cooldown clock.
            self.round += 1;
            return Err(e);
        }
        // A fleet left sick by a previous drive (or a panic mid-run)
        // must not refuse new work: heal before routing.
        if !self.inner.poisoned_shards().is_empty() {
            self.heal();
        }
        let mut attempts = 0u32;
        loop {
            match self.inner.submit(request.clone()) {
                Ok(()) => {
                    self.tracked.insert(request.id, (request, 0));
                    return Ok(());
                }
                Err(e @ ServeError::Vm(VmError::Injected { .. })) => {
                    if attempts >= self.config.retry_budget {
                        self.breaker.abort_probe(request.id);
                        return Err(ServeError::RetriesExhausted {
                            id: request.id,
                            attempts,
                            last: Box::new(e),
                        });
                    }
                    attempts += 1;
                    self.retries += 1;
                }
                Err(e) => {
                    // The breaker admitted this id but it never entered
                    // the fleet: free the half-open probe slot, if held.
                    self.breaker.abort_probe(request.id);
                    return Err(e);
                }
            }
        }
    }

    /// Drive the fleet until every tracked request has a terminal
    /// outcome, healing as it goes: each round runs the shards to idle,
    /// salvages and respawns dead shards, retries their stranded and
    /// lost work (with backoff), and rejects unrecoverable admissions.
    /// Returns the outcomes accumulated since the last drain, in
    /// resolution order.
    ///
    /// Quiescence is guaranteed: every failing round burns retry
    /// attempts from a bounded per-request budget, so even a fault plan
    /// that fires on every round terminates with typed
    /// [`Outcome::Failed`] answers — and a healthy fleet.
    pub fn run_until_quiescent(&mut self) -> Vec<Outcome> {
        self.run_until_quiescent_with(&mut Vec::new)
    }

    /// As [`Supervisor::run_until_quiescent`], with a cooperative
    /// cancellation hook: `poll` is drained between supervision rounds
    /// *and* throughout each fleet drive (see
    /// [`ShardedServer::run_until_idle_with`] for the latency
    /// contract), and every id it returns is
    /// [cancelled](Supervisor::cancel) — the plumbing an ingress front
    /// end uses to map client disconnects onto lane evictions while a
    /// flush is still running.
    pub fn run_until_quiescent_with(&mut self, poll: &mut dyn FnMut() -> Vec<u64>) -> Vec<Outcome> {
        let mut outcomes = Vec::new();
        loop {
            // Supervisor-level drain: catches ids the fleet cannot see
            // (parked retries). Queued/in-flight ids forward to the
            // shards like any cancel.
            for id in poll() {
                self.cancel(id);
            }
            self.triage();
            self.heal();
            // Salvaged completions from triage/heal (and any left over
            // from an errored previous drive).
            for r in self.inner.take_ready() {
                self.tracked.remove(&r.id);
                self.breaker.note_done(r.id);
                outcomes.push(Outcome::Done(r));
            }
            // Governance verdicts are terminal, never retried: a budget
            // blowup would blow the same budget again on re-execution
            // (same program, same inputs, deterministic VM), and a
            // cancelled request has nobody waiting for it. Blowups feed
            // the quarantine breaker.
            for (id, error) in self.inner.take_failed() {
                self.resolve_failure(id, error);
            }
            // Release parked retries whose backoff expired; if the
            // fleet is otherwise idle, fast-forward to the next release
            // instead of spinning empty rounds.
            if !self.parked.is_empty() && self.inner.pending() == 0 && self.inner.in_flight() == 0 {
                let next = self
                    .parked
                    .iter()
                    .map(|&(_, release)| release)
                    .min()
                    .expect("parked is non-empty");
                self.round = self.round.max(next);
            }
            let round = self.round;
            let due: Vec<Request> = {
                let (due, rest): (Vec<_>, Vec<_>) = self
                    .parked
                    .drain(..)
                    .partition(|&(_, release)| release <= round);
                self.parked = rest;
                due.into_iter().map(|(r, _)| r).collect()
            };
            for r in due {
                // Re-entry may itself fail (injected admission fault):
                // that burns another attempt like any failed try.
                if let Err(e) = self.inner.resubmit(r.clone()) {
                    self.requeue(r, e);
                }
            }
            outcomes.append(&mut self.failed);
            if self.inner.pending() == 0 && self.inner.in_flight() == 0 && self.parked.is_empty() {
                return outcomes;
            }
            self.round += 1;
            let completed = match self.inner.run_until_idle_with(poll) {
                Ok(responses) => responses,
                // The error is recorded per shard; triage/heal at the
                // top of the next iteration act on it. Completed work
                // is salvaged either way.
                Err(_) => self.inner.take_ready(),
            };
            for r in completed {
                self.tracked.remove(&r.id);
                self.breaker.note_done(r.id);
                outcomes.push(Outcome::Done(r));
            }
        }
    }

    /// Resolve one request to a typed terminal failure, feeding the
    /// quarantine breaker. (The fleet-side submission sequence is
    /// assumed already released.)
    fn resolve_failure(&mut self, id: u64, error: ServeError) {
        self.tracked.remove(&id);
        let blowup = matches!(
            error,
            ServeError::BudgetExceeded { .. }
                | ServeError::DeadlineExceeded { .. }
                | ServeError::MemoryExceeded { .. }
        );
        self.breaker.note_failed(id, self.round, blowup);
        self.failed.push(Outcome::Failed { id, error });
    }

    /// Answer recoverable admission offenders with their typed error.
    /// (A failed batch admission leaves the offender at its shard's
    /// queue head; left there it would wedge the shard forever.)
    fn triage(&mut self) {
        let poisoned = self.inner.poisoned_shards();
        for (i, e) in self.inner.shard_errors() {
            if poisoned.contains(&i) || matches!(e, ServeError::Vm(VmError::StepLimit { .. })) {
                continue; // heal() owns these
            }
            if let Some(r) = self.inner.reject_on(i) {
                self.tracked.remove(&r.id);
                self.inner.abandon_seq(r.id);
                self.breaker.note_failed(r.id, self.round, false);
                self.failed.push(Outcome::Failed { id: r.id, error: e });
            }
        }
    }

    /// Respawn every dead shard (poisoned or step-limit-exhausted) and
    /// requeue the work it stranded or lost.
    fn heal(&mut self) {
        let errors: HashMap<usize, ServeError> = self.inner.shard_errors().into_iter().collect();
        let mut sick = self.inner.poisoned_shards();
        for (&i, e) in &errors {
            if matches!(e, ServeError::Vm(VmError::StepLimit { .. })) && !sick.contains(&i) {
                sick.push(i);
            }
        }
        sick.sort_unstable();
        for i in sick {
            let cause = errors
                .get(&i)
                .cloned()
                .unwrap_or_else(|| ServeError::Panicked {
                    what: "shard died without a recorded error".into(),
                });
            let (stranded, lost) = self.inner.respawn_shard(i);
            for r in stranded {
                self.requeue(r, cause.clone());
            }
            for id in lost {
                // Retried from the supervisor's copy; an id no longer
                // tracked already completed (salvaged) — nothing lost.
                if let Some(r) = self.tracked.get(&id).map(|(r, _)| r.clone()) {
                    self.requeue(r, cause.clone());
                }
            }
        }
    }

    /// Charge one failed attempt to `request`: park it for backoff, or
    /// answer it with [`ServeError::RetriesExhausted`] if the budget is
    /// spent.
    fn requeue(&mut self, request: Request, cause: ServeError) {
        self.retries += 1;
        let attempts = match self.tracked.get_mut(&request.id) {
            Some((_, a)) => {
                *a += 1;
                *a
            }
            None => {
                // Defensive: an untracked stray gets tracked now so its
                // budget is still bounded.
                self.tracked.insert(request.id, (request.clone(), 1));
                1
            }
        };
        if attempts > self.config.retry_budget {
            self.tracked.remove(&request.id);
            self.inner.abandon_seq(request.id);
            self.breaker.note_failed(request.id, self.round, false);
            self.failed.push(Outcome::Failed {
                id: request.id,
                error: ServeError::RetriesExhausted {
                    id: request.id,
                    attempts,
                    last: Box::new(cause),
                },
            });
        } else {
            let release = self.round + self.config.backoff_rounds.max(1) * attempts as u64;
            self.parked.push((request, release));
        }
    }
}
