//! Self-healing supervision over the sharded fleet.
//!
//! [`ShardedServer`] contains faults (a poisoned shard cannot hurt its
//! siblings) but does not *recover* from them: a poisoned shard stays
//! out of rotation, with whatever was queued on it, until somebody
//! calls [`ShardedServer::respawn_shard`], and work that was in flight
//! on the dead machine is simply gone. [`Supervisor`] is that somebody:
//!
//! - after every fleet drive it **respawns in place**, with a fresh
//!   `BatchServer` + `PcMachine`, every shard an error poisoned (an
//!   execution error, a caught panic, step-limit exhaustion) — a bad
//!   request never poisons one, because submission refuses it with a
//!   typed error;
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
//! Backoff is measured in fleet rounds, not wall clock: one per fleet
//! drive, and inside a drive one per hook call that hands in work (see
//! [`Supervisor::drive`]). A supervised run fed nothing mid-drive
//! therefore stays deterministic and replayable, and a retry still comes
//! due while traffic keeps a drive running.

use std::collections::{HashMap, VecDeque};

use autobatch_core::VmError;

use crate::shard::ShardHealth;
use crate::{Bell, Intake, Request, Response, Result, ServeError, ShardedServer};

/// Backoff slope, in fleet rounds per accumulated attempt: a request on
/// its `n`-th retry is parked for `BACKOFF_ROUNDS * n` rounds before
/// re-entering the fleet.
const BACKOFF_ROUNDS: u64 = 1;

/// Retry discipline of a [`Supervisor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// How many times one request may be retried (beyond its first
    /// attempt) before it is answered with
    /// [`ServeError::RetriesExhausted`].
    pub retry_budget: u32,
    /// When the supervised program's requests repeatedly blow their
    /// resource budgets, trip a circuit breaker that fast-rejects at
    /// admission (see [`QuarantineConfig`]).
    pub quarantine: QuarantineConfig,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            retry_budget: 3,
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
    /// The request failed for good: a typed refusal or governance
    /// verdict, or [`ServeError::RetriesExhausted`] once its retry
    /// budget ran out.
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
/// let outcomes = sup.run_until_quiescent_with(&mut Vec::new);
/// assert!(outcomes.iter().all(|o| o.is_done()));
/// assert!(sup.inner().poisoned_shards().is_empty());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Supervisor<'p> {
    inner: ShardedServer<'p>,
    books: Books,
}

/// Everything the supervisor keeps besides the fleet — apart from it,
/// so that a running drive's hook can keep the books while the fleet is
/// driven.
#[derive(Debug)]
struct Books {
    config: SupervisorConfig,
    /// id → (a retryable copy of the request, attempts consumed).
    tracked: HashMap<u64, (Request, u32)>,
    /// Requests awaiting a backoff release: `(request, release_round)`.
    /// A parked request is out of the fleet and holds no place in its
    /// submission order; it re-enters as a fresh submission.
    parked: Vec<(Request, u64)>,
    /// Terminal outcomes not yet handed out.
    resolved: Vec<Outcome>,
    /// Fleet rounds so far — the virtual time backoff counts in: one per
    /// fleet drive, and inside a drive one per hook call that hands in
    /// work, so retries come due while a fed drive runs.
    round: u64,
    /// Retry attempts performed over the supervisor's lifetime.
    retries: u64,
    /// The per-program quarantine breaker (see [`QuarantineConfig`]).
    breaker: Breaker,
}

impl Books {
    /// Gate one admission through the quarantine breaker. While the
    /// breaker is open nothing enters the fleet, so no drive rounds
    /// happen: fast-rejects are the program's only events and therefore
    /// drive the cooldown clock.
    fn gate(&mut self, id: u64) -> Result<()> {
        let gated = self.breaker.admit(self.round, id);
        if gated.is_err() {
            self.round += 1;
        }
        gated
    }

    /// Charge one refused admission to a tracked request. `Ok` means
    /// try again: an injected admission fault with budget left. Anything
    /// else is the request's terminal error; it is no longer tracked.
    fn refused(&mut self, id: u64, e: ServeError) -> Result<()> {
        let budget = self.config.retry_budget;
        if let (ServeError::Vm(VmError::Injected { .. }), Some((_, attempts))) =
            (&e, self.tracked.get_mut(&id))
        {
            if *attempts < budget {
                *attempts += 1;
                self.retries += 1;
                return Ok(());
            }
            let attempts = *attempts;
            self.tracked.remove(&id);
            self.breaker.abort_probe(id);
            return Err(ServeError::RetriesExhausted {
                id,
                attempts,
                last: Box::new(e),
            });
        }
        // The breaker admitted this id but it never entered the fleet:
        // free the half-open probe slot, if held.
        self.tracked.remove(&id);
        self.breaker.abort_probe(id);
        Err(e)
    }

    fn done(&mut self, r: Response) {
        self.tracked.remove(&r.id);
        self.breaker.note_done(r.id);
        self.resolved.push(Outcome::Done(r));
    }

    /// File a failure the fleet reported. A refusal at submission with
    /// budget left is parked, due at once; anything else is terminal.
    fn fail(&mut self, id: u64, error: ServeError) {
        if !matches!(error, ServeError::Vm(VmError::Injected { .. })) {
            self.resolve_failure(id, error);
            return;
        }
        match self.refused(id, error) {
            Ok(()) => {
                if let Some((r, _)) = self.tracked.get(&id) {
                    self.parked.push((r.clone(), self.round));
                }
            }
            Err(error) => self.resolved.push(Outcome::Failed { id, error }),
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
            self.breaker.note_failed(request.id, self.round, false);
            self.resolved.push(Outcome::Failed {
                id: request.id,
                error: ServeError::RetriesExhausted {
                    id: request.id,
                    attempts,
                    last: Box::new(cause),
                },
            });
        } else {
            let release = self.round + BACKOFF_ROUNDS * attempts as u64;
            self.parked.push((request, release));
        }
    }

    /// Answer a parked retry's cancellation: it is not in the fleet, so
    /// nothing there needs evicting. Returns `false` if `id` is not
    /// parked.
    fn cancel_parked(&mut self, id: u64) -> bool {
        let Some(pos) = self.parked.iter().position(|(r, _)| r.id == id) else {
            return false;
        };
        self.parked.remove(pos);
        self.resolve_failure(id, ServeError::Cancelled);
        true
    }

    /// Take the parked retries whose backoff has expired.
    fn take_due(&mut self) -> Vec<Request> {
        let round = self.round;
        let (due, rest): (Vec<_>, Vec<_>) = std::mem::take(&mut self.parked)
            .into_iter()
            .partition(|&(_, release)| release <= round);
        self.parked = rest;
        due.into_iter().map(|(r, _)| r).collect()
    }

    /// Resolve one request to a typed terminal failure, feeding the
    /// quarantine breaker. Governance verdicts are terminal, never
    /// retried: a budget blowup would blow the same budget again on
    /// re-execution (same program, same inputs, deterministic VM), and a
    /// cancelled request has nobody waiting for it.
    fn resolve_failure(&mut self, id: u64, error: ServeError) {
        self.tracked.remove(&id);
        let blowup = matches!(
            error,
            ServeError::BudgetExceeded { .. }
                | ServeError::DeadlineExceeded { .. }
                | ServeError::MemoryExceeded { .. }
        );
        self.breaker.note_failed(id, self.round, blowup);
        self.resolved.push(Outcome::Failed { id, error });
    }

    /// One call of a running fleet drive's hook: file what the fleet
    /// retired, hand the resolved outcomes to the caller's hook, and
    /// pass its intake on to the fleet — requests through the breaker,
    /// cancels of parked retries answered here. A call that hands in
    /// work is a round: parked retries that come due with it go along.
    fn exchange(
        &mut self,
        retired: Vec<Outcome>,
        hook: &mut dyn FnMut(Vec<Outcome>) -> Intake,
    ) -> Intake {
        for outcome in retired {
            match outcome {
                Outcome::Done(r) => self.done(r),
                Outcome::Failed { id, error } => self.fail(id, error),
            }
        }
        let Intake {
            requests,
            cancels,
            clock,
        } = hook(std::mem::take(&mut self.resolved));
        let mut fleet = Intake {
            clock,
            ..Intake::default()
        };
        for id in cancels {
            if !self.cancel_parked(id) {
                fleet.cancels.push(id);
            }
        }
        if requests.is_empty() {
            return fleet;
        }
        self.round += 1;
        for request in requests {
            let id = request.id;
            match self.gate(id) {
                Ok(()) => {
                    self.tracked.insert(id, (request.clone(), 0));
                    fleet.requests.push(request);
                }
                Err(error) => self.resolved.push(Outcome::Failed { id, error }),
            }
        }
        fleet.requests.extend(self.take_due());
        fleet
    }
}

impl<'p> Supervisor<'p> {
    /// Supervise an existing fleet.
    pub fn new(inner: ShardedServer<'p>, config: SupervisorConfig) -> Supervisor<'p> {
        Supervisor {
            inner,
            books: Books {
                config,
                tracked: HashMap::new(),
                parked: Vec::new(),
                resolved: Vec::new(),
                round: 0,
                retries: 0,
                breaker: Breaker::new(config.quarantine),
            },
        }
    }

    /// The supervised fleet, for observability
    /// ([`ShardedServer::health`], [`ShardedServer::aggregated_trace`],
    /// counters).
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
        self.books.breaker.status()
    }

    /// Request cooperative cancellation of a tracked request: a parked
    /// retry is answered with [`ServeError::Cancelled`] immediately; a
    /// queued or in-flight request is cancelled through the fleet (its
    /// lane evicted at the next superstep boundary) and resolves to the
    /// same typed outcome on the next drive. Returns `false` when the id
    /// is unknown — already answered, or never submitted.
    pub fn cancel(&mut self, id: u64) -> bool {
        self.books.cancel_parked(id) || self.inner.cancel(id)
    }

    /// Total shard respawns performed so far.
    pub fn respawns(&self) -> u64 {
        self.inner.respawns()
    }

    /// Total retry attempts performed so far (admission retries plus
    /// requeues of stranded/lost work).
    pub fn retries(&self) -> u64 {
        self.books.retries
    }

    /// Per-shard health: respawn count, last recorded error, liveness.
    pub fn health(&self) -> Vec<ShardHealth> {
        self.inner.health()
    }

    /// Requests tracked but not yet resolved to a terminal outcome.
    pub fn outstanding(&self) -> usize {
        self.books.tracked.len()
    }

    /// Submit a request for supervised execution. An injected admission
    /// fault is retried inline, charged to the request's retry budget;
    /// real refusals (a request [`BatchServer::submit`](crate::BatchServer::submit)
    /// judges unfit) pass straight through — the caller owns that
    /// terminal outcome.
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
        self.books.gate(request.id)?;
        // A fleet left sick by a previous drive (or a panic mid-run)
        // must not refuse new work: heal before routing.
        self.heal();
        self.books.tracked.insert(request.id, (request.clone(), 0));
        loop {
            match self.inner.submit(request.clone()) {
                Ok(()) => return Ok(()),
                Err(e) => self.books.refused(request.id, e)?,
            }
        }
    }

    /// [`Supervisor::drive`] under a hook that feeds nothing and only
    /// cancels — every id `poll` returns is
    /// [cancelled](Supervisor::cancel) — and that keeps what it is
    /// handed: returns the outcomes resolved since the last drain, in
    /// resolution order. With no [`Bell`] to wake it, the fleet asks
    /// `poll` every 1 ms while it only waits (see
    /// [`ShardedServer::run_until_idle_with`]). Fed nothing, no round
    /// passes inside a drive, so retries are released only between
    /// drives and the run replays exactly under a seeded fault plan.
    pub fn run_until_quiescent_with(&mut self, poll: &mut dyn FnMut() -> Vec<u64>) -> Vec<Outcome> {
        let mut outcomes = Vec::new();
        self.drive(None, &mut |resolved| {
            outcomes.extend(resolved);
            Intake {
                cancels: poll(),
                ..Intake::default()
            }
        });
        outcomes
    }

    /// Serve continuously, healing as it goes, until every tracked
    /// request has a terminal outcome and a call of `hook` has nothing
    /// more to give.
    ///
    /// Every turn is one fleet drive (see [`ShardedServer::drive`] for
    /// `bell` and for when the hook is called), and the hook is called
    /// only from inside it. Each call gets the outcomes resolved since
    /// the last one and returns an [`Intake`]: its requests pass the
    /// quarantine breaker, join the retry tracking and the running
    /// fleet (a refusal is handed back as an [`Outcome::Failed`] at a
    /// later call), and its cancels are applied as
    /// [`Supervisor::cancel`] does. Every completion and verdict is
    /// passed out as the fleet reports it. A call that hands in work is
    /// a round, so retries whose backoff expires while a fed drive runs
    /// join it then. A shard error closes the drive: the fleet drains,
    /// and between drives the poisoned shards are salvaged and
    /// respawned, and the work they stranded or lost is retried (with
    /// backoff). The supervisor returns when a drive ends with the fleet
    /// idle and nothing parked or left to hand out.
    ///
    /// Quiescence is guaranteed once the hook stops feeding: every
    /// failing round burns retry attempts from a bounded per-request
    /// budget, so even a fault plan that fires on every round
    /// terminates with typed [`Outcome::Failed`] answers — and a healthy
    /// fleet.
    pub fn drive(&mut self, bell: Option<&Bell>, hook: &mut dyn FnMut(Vec<Outcome>) -> Intake) {
        loop {
            self.books.round += 1;
            let Supervisor { inner, books } = self;
            // An error poisons its shard; heal acts on it below.
            // Completed work is salvaged either way.
            let _ = inner.drive(bell, &mut |retired| books.exchange(retired, hook));
            self.heal();
            // Salvaged completions from heal, and whatever a closed
            // drive left behind.
            for r in self.inner.take_ready() {
                self.books.done(r);
            }
            for (id, error) in self.inner.take_failed() {
                self.books.fail(id, error);
            }
            self.release_parked();
            let idle = self.inner.pending() == 0 && self.inner.in_flight() == 0;
            if idle && self.books.parked.is_empty() && self.books.resolved.is_empty() {
                return;
            }
        }
    }

    /// Release parked retries whose backoff expired; if the fleet is
    /// otherwise idle, fast-forward to the next release instead of
    /// spinning empty rounds.
    fn release_parked(&mut self) {
        let books = &mut self.books;
        if books.parked.is_empty() {
            return;
        }
        if self.inner.pending() == 0 && self.inner.in_flight() == 0 {
            let next = books.parked.iter().map(|&(_, release)| release).min();
            books.round = books.round.max(next.expect("parked is non-empty"));
        }
        for r in books.take_due() {
            // Re-entry may itself fail (injected admission fault):
            // that burns another attempt like any failed try.
            if let Err(e) = self.inner.submit(r.clone()) {
                books.requeue(r, e);
            }
        }
    }

    /// Respawn every poisoned shard and requeue the work it stranded or
    /// lost, charged to the shard's poison. Neither keeps its place in
    /// the fleet's submission order: a retry re-enters as a fresh
    /// submission.
    fn heal(&mut self) {
        for i in self.inner.poisoned_shards() {
            let cause = self.inner.poison(i).cloned().expect("a poisoned shard");
            let (stranded, lost) = self.inner.respawn_shard(i);
            for r in stranded {
                self.books.requeue(r, cause.clone());
            }
            for id in lost {
                // Retried from the supervisor's copy; an id no longer
                // tracked already completed (salvaged) — nothing lost.
                if let Some(r) = self.books.tracked.get(&id).map(|(r, _)| r.clone()) {
                    self.books.requeue(r, cause.clone());
                }
            }
        }
    }
}
