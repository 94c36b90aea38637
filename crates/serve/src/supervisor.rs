//! The self-healing fleet's books, and the [`Supervisor`] shim.
//!
//! [`ShardedServer`] heals itself: after every inner drive it respawns
//! in place, with a fresh `BatchServer` + `PcMachine`, every shard an
//! error poisoned (an execution error, a caught panic, step-limit
//! exhaustion), and retries the work the dead machine stranded (queued)
//! or lost (in flight). This module keeps the books that recovery runs
//! on:
//!
//! - every request the fleet accepts is **tracked** under the submission
//!   sequence the fleet gives it, with a retryable copy, so requests that
//!   share an id are retried, answered and charged apart;
//! - stranded and lost work is **retried** under a bounded per-request
//!   retry budget with round-based backoff ([`SupervisorConfig`]);
//! - a request whose budget runs out gets a **typed terminal error**
//!   ([`ServeError::RetriesExhausted`]) instead of silence;
//! - a program whose requests keep blowing their resource budgets trips
//!   the **quarantine breaker** ([`QuarantineConfig`]).
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
//! Backoff is measured in fleet rounds, not wall clock: one per inner
//! drive, and inside a drive one per hook call that hands in work (see
//! [`ShardedServer::drive`]). A drive fed nothing mid-drive therefore
//! stays deterministic and replayable, and a retry still comes due while
//! traffic keeps a drive running.

use std::collections::{HashMap, VecDeque};

use autobatch_core::VmError;

use crate::shard::Inbox;
use crate::{Intake, Request, Response, Result, ServeError, ShardedServer, Verdict};

/// Backoff slope, in fleet rounds per accumulated attempt: a request on
/// its `n`-th retry is parked for `BACKOFF_ROUNDS * n` rounds before
/// re-entering the fleet.
const BACKOFF_ROUNDS: u64 = 1;

/// Retry discipline of the self-healing [`ShardedServer`], set with
/// [`ShardedServer::set_supervision`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// How many times one request may be retried (beyond its first
    /// attempt) before it is answered with
    /// [`ServeError::RetriesExhausted`].
    pub retry_budget: u32,
    /// When the served program's requests repeatedly blow their
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
/// cancellations never count) are recorded against the served
/// program with the fleet round they happened in. When
/// `trip_threshold` blowups accumulate inside the `decay_rounds`
/// sliding window, the breaker **opens**: [`ShardedServer::submit`]
/// fast-rejects with [`ServeError::Quarantined`] instead of burning
/// fleet capacity on a program that keeps running away. After
/// `cooldown_rounds` the breaker goes **half-open**: exactly one probe
/// request is admitted — if it completes, the breaker closes and the
/// record resets; if it blows a budget again, the breaker re-opens for
/// another cooldown. Round-based (not wall-clock), so healing runs stay
/// deterministic and replayable.
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

    /// Gate the admission of the request numbered `seq` at `round`.
    /// `Ok(())` admits; an open breaker rejects with
    /// [`ServeError::Quarantined`]. Handles the open→half-open
    /// transition when the cooldown has elapsed.
    fn admit(&mut self, round: u64, seq: u64) -> Result<()> {
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
                self.state = BreakerState::HalfOpen { probe: Some(seq) };
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// The probe never actually entered the fleet (its submission
    /// failed downstream of the breaker): free the probe slot.
    fn abort_probe(&mut self, seq: u64) {
        if self.state == (BreakerState::HalfOpen { probe: Some(seq) }) {
            self.state = BreakerState::HalfOpen { probe: None };
        }
    }

    /// A request completed. A successful probe closes the breaker and
    /// resets the record — the program demonstrably terminates again.
    fn note_done(&mut self, seq: u64) {
        if self.state == (BreakerState::HalfOpen { probe: Some(seq) }) {
            self.state = BreakerState::Closed;
            self.blowups.clear();
        }
    }

    /// A request failed. A budget blowup goes on the record and can
    /// trip (or re-open) the breaker; a non-blowup failure of the probe
    /// (cancellation, retries exhausted) proves nothing about the
    /// program, so the probe slot simply reopens.
    fn note_failed(&mut self, seq: u64, round: u64, blowup: bool) {
        if !blowup {
            self.abort_probe(seq);
            return;
        }
        if self.config.trip_threshold == 0 {
            return;
        }
        self.decay(round);
        self.blowups.push_back(round);
        let probe_blew = self.state == (BreakerState::HalfOpen { probe: Some(seq) });
        let tripped = self.state == BreakerState::Closed
            && self.blowups.len() >= self.config.trip_threshold as usize;
        if probe_blew || tripped {
            self.state = BreakerState::Open {
                until_round: round + self.config.cooldown_rounds.max(1),
            };
        }
    }
}

/// The terminal outcome of one request the fleet accepted.
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
        /// Why the fleet gave up.
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

/// Everything the fleet keeps to heal besides its shards: a retryable
/// copy of every request it has not answered, the retries parked for
/// backoff, the outcomes not yet handed out, the round clock and the
/// quarantine breaker. Every request is booked under the submission
/// sequence the fleet numbers it with, which it keeps through every
/// retry, so requests that share an id are never confused.
#[derive(Debug)]
pub(crate) struct Books {
    config: SupervisorConfig,
    /// Sequence → (a retryable copy of the request, attempts consumed).
    tracked: HashMap<u64, (Request, u32)>,
    /// Retries awaiting a backoff release: `(seq, request,
    /// release_round)`. A parked request is out of the fleet.
    parked: Vec<(u64, Request, u64)>,
    /// Terminal outcomes not yet handed out, each with its sequence.
    resolved: Vec<(u64, Outcome)>,
    /// Fleet rounds so far — the virtual time backoff counts in: one per
    /// inner drive, and inside a drive one per hook call that hands in
    /// work, so retries come due while a fed drive runs.
    pub(crate) round: u64,
    /// Retry attempts performed over the fleet's lifetime.
    pub(crate) retries: u64,
    /// The per-program quarantine breaker (see [`QuarantineConfig`]).
    breaker: Breaker,
    /// The sequence the next request is numbered with.
    next_seq: u64,
}

impl Books {
    pub(crate) fn new(config: SupervisorConfig) -> Books {
        Books {
            config,
            tracked: HashMap::new(),
            parked: Vec::new(),
            resolved: Vec::new(),
            round: 0,
            retries: 0,
            breaker: Breaker::new(config.quarantine),
            next_seq: 0,
        }
    }

    /// Adopt a new discipline; the breaker starts over under it.
    pub(crate) fn configure(&mut self, config: SupervisorConfig) {
        self.config = config;
        self.breaker = Breaker::new(config.quarantine);
    }

    /// Number a request: its submission sequence.
    pub(crate) fn number(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq - 1
    }

    /// Gate the request numbered `seq` through the quarantine breaker
    /// and, admitted, track a copy of it. While the breaker is open
    /// nothing enters the fleet, so no drive rounds happen: fast-rejects
    /// are the program's only events and therefore drive the cooldown
    /// clock.
    pub(crate) fn admit(&mut self, seq: u64, request: &Request) -> Result<()> {
        if let Err(e) = self.breaker.admit(self.round, seq) {
            self.round += 1;
            return Err(e);
        }
        self.tracked.insert(seq, (request.clone(), 0));
        Ok(())
    }

    /// Requests booked and not yet answered.
    pub(crate) fn tracked(&self) -> usize {
        self.tracked.len()
    }

    /// Whether nothing is parked and every outcome was handed out.
    pub(crate) fn settled(&self) -> bool {
        self.parked.is_empty() && self.resolved.is_empty()
    }

    /// Charge one refused admission to a tracked request. `Ok` means
    /// try again: an injected admission fault with budget left. Anything
    /// else is the request's terminal error; it is no longer tracked.
    pub(crate) fn refused(&mut self, seq: u64, id: u64, e: ServeError) -> Result<()> {
        let budget = self.config.retry_budget;
        if let (ServeError::Vm(VmError::Injected { .. }), Some((_, attempts))) =
            (&e, self.tracked.get_mut(&seq))
        {
            if *attempts < budget {
                *attempts += 1;
                self.retries += 1;
                return Ok(());
            }
            let attempts = *attempts;
            self.tracked.remove(&seq);
            self.breaker.abort_probe(seq);
            return Err(ServeError::RetriesExhausted {
                id,
                attempts,
                last: Box::new(e),
            });
        }
        // The breaker admitted this request but it never entered the
        // fleet: free the half-open probe slot, if held.
        self.tracked.remove(&seq);
        self.breaker.abort_probe(seq);
        Err(e)
    }

    /// File what the fleet retired: completions in submission order,
    /// then failures in the order they were reported. A refusal at
    /// submission with budget left is parked, due at once; any other
    /// failure is terminal.
    pub(crate) fn file(&mut self, ready: &mut Vec<(u64, Response)>, failed: &mut Vec<Verdict>) {
        ready.sort_by_key(|&(seq, _)| seq);
        for (seq, r) in ready.drain(..) {
            self.tracked.remove(&seq);
            self.breaker.note_done(seq);
            self.resolved.push((seq, Outcome::Done(r)));
        }
        for (seq, id, error) in failed.drain(..) {
            if !matches!(error, ServeError::Vm(VmError::Injected { .. })) {
                self.resolve_failure(seq, id, error);
                continue;
            }
            match self.refused(seq, id, error) {
                Ok(()) => {
                    if let Some((r, _)) = self.tracked.get(&seq) {
                        self.parked.push((seq, r.clone(), self.round));
                    }
                }
                Err(error) => self.resolved.push((seq, Outcome::Failed { id, error })),
            }
        }
    }

    /// Charge one failed attempt to the request numbered `seq`: park its
    /// copy for backoff, or answer it with
    /// [`ServeError::RetriesExhausted`] if the budget is spent. Every
    /// request in the fleet is tracked, so one that is not was answered
    /// already.
    pub(crate) fn requeue(&mut self, seq: u64, cause: ServeError) {
        let Some((request, attempts)) = self.tracked.get_mut(&seq) else {
            return;
        };
        self.retries += 1;
        *attempts += 1;
        if *attempts <= self.config.retry_budget {
            let release = self.round + BACKOFF_ROUNDS * *attempts as u64;
            self.parked.push((seq, request.clone(), release));
            return;
        }
        let (id, attempts) = (request.id, *attempts);
        self.tracked.remove(&seq);
        self.breaker.note_failed(seq, self.round, false);
        let error = ServeError::RetriesExhausted {
            id,
            attempts,
            last: Box::new(cause),
        };
        self.resolved.push((seq, Outcome::Failed { id, error }));
    }

    /// Answer a parked retry's cancellation: it is not in the fleet, so
    /// nothing there needs evicting. Returns `false` if `id` is not
    /// parked.
    pub(crate) fn cancel_parked(&mut self, id: u64) -> bool {
        let Some(pos) = self.parked.iter().position(|(_, r, _)| r.id == id) else {
            return false;
        };
        let (seq, _, _) = self.parked.remove(pos);
        self.resolve_failure(seq, id, ServeError::Cancelled);
        true
    }

    /// Take the parked retries whose backoff has expired. A fleet that
    /// is otherwise `idle` fast-forwards to the next release instead of
    /// spinning empty rounds.
    pub(crate) fn release(&mut self, idle: bool) -> Vec<(u64, Request)> {
        let Some(next) = self.parked.iter().map(|&(_, _, release)| release).min() else {
            return Vec::new();
        };
        if idle {
            self.round = self.round.max(next);
        }
        let round = self.round;
        let (due, rest): (Vec<_>, Vec<_>) = std::mem::take(&mut self.parked)
            .into_iter()
            .partition(|&(_, _, release)| release <= round);
        self.parked = rest;
        due.into_iter().map(|(seq, r, _)| (seq, r)).collect()
    }

    /// Resolve one request to a typed terminal failure, feeding the
    /// quarantine breaker. Governance verdicts are terminal, never
    /// retried: a budget blowup would blow the same budget again on
    /// re-execution (same program, same inputs, deterministic VM), and a
    /// cancelled request has nobody waiting for it.
    fn resolve_failure(&mut self, seq: u64, id: u64, error: ServeError) {
        self.tracked.remove(&seq);
        let blowup = matches!(
            error,
            ServeError::BudgetExceeded { .. }
                | ServeError::DeadlineExceeded { .. }
                | ServeError::MemoryExceeded { .. }
        );
        self.breaker.note_failed(seq, self.round, blowup);
        self.resolved.push((seq, Outcome::Failed { id, error }));
    }

    /// One call of a running drive's hook: file what the fleet retired,
    /// hand the resolved outcomes to the caller's hook, and turn its
    /// intake into what is posted to the shards — requests numbered
    /// and through the breaker, cancels of parked retries answered
    /// here. A call that hands in work is a round: parked retries that
    /// come due with it go along.
    pub(crate) fn exchange(
        &mut self,
        ready: &mut Vec<(u64, Response)>,
        failed: &mut Vec<Verdict>,
        hook: &mut dyn FnMut(Vec<(u64, Outcome)>) -> Intake,
    ) -> Inbox {
        self.file(ready, failed);
        let Intake {
            requests,
            cancels,
            clock,
        } = hook(std::mem::take(&mut self.resolved));
        let mut post = Inbox {
            clock,
            ..Inbox::default()
        };
        for id in cancels {
            if !self.cancel_parked(id) {
                post.cancels.push(id);
            }
        }
        if requests.is_empty() {
            return post;
        }
        self.round += 1;
        for request in requests {
            let seq = self.number();
            match self.admit(seq, &request) {
                Ok(()) => post.requests.push((seq, request)),
                Err(error) => {
                    let id = request.id;
                    self.resolved.push((seq, Outcome::Failed { id, error }));
                }
            }
        }
        post.requests.extend(self.release(false));
        post
    }
}

/// The self-healing fleet under the name it had while it was a wrapper
/// around [`ShardedServer`]. It is kept only because `benchmark/` drives
/// it; everything else uses the fleet itself, which this forwards to.
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
/// let policy = AdmissionPolicy::JoinAtEntry { max_batch: 2 };
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
/// assert_eq!((sup.retries(), sup.respawns()), (0, 0));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Supervisor<'p>(ShardedServer<'p>);

impl<'p> Supervisor<'p> {
    /// `fleet` under `config` ([`ShardedServer::set_supervision`]).
    pub fn new(mut fleet: ShardedServer<'p>, config: SupervisorConfig) -> Supervisor<'p> {
        fleet.set_supervision(config);
        Supervisor(fleet)
    }

    /// [`ShardedServer::submit`].
    ///
    /// # Errors
    ///
    /// As [`ShardedServer::submit`].
    pub fn submit(&mut self, request: Request) -> Result<()> {
        self.0.submit(request)
    }

    /// [`ShardedServer::drive`] with no [`Bell`](crate::Bell), under a
    /// hook that feeds nothing, cancels every id `poll` returns and
    /// keeps what it is handed: returns the outcomes in the order they
    /// resolved.
    pub fn run_until_quiescent_with(&mut self, poll: &mut dyn FnMut() -> Vec<u64>) -> Vec<Outcome> {
        let mut outcomes = Vec::new();
        self.0.drive(None, &mut |resolved| {
            outcomes.extend(resolved);
            Intake {
                cancels: poll(),
                ..Intake::default()
            }
        });
        outcomes
    }

    /// [`ShardedServer::retries`].
    pub fn retries(&self) -> u64 {
        self.0.retries()
    }

    /// [`ShardedServer::respawns`].
    pub fn respawns(&self) -> u64 {
        self.0.respawns()
    }
}
