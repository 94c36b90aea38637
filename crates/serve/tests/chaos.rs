//! Chaos suite for the self-healing fleet: deterministic fault
//! injection (seeded [`FaultPlan`]) must never perturb surviving
//! results or lose a request.
//!
//! The headline property: under any seed and any mix of injected
//! execution errors, admission failures, worker panics, and artificial
//! slowness, every submitted request reaches **exactly one** terminal
//! outcome, every surviving response is **bit-identical** to the
//! fault-free run, and the fleet ends healthy (no poisoned shards; the
//! drive asserts that, and that nothing is left on its books, in every
//! debug build).
//! The proptests state that in general; `fixed_seeds_end_exactly_as_pinned`
//! pins its exact counts on the divergent-binom stream of `golden_outputs.rs`.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use autobatch_accel::Backend;
use autobatch_chaos::{FaultPlan, FaultPoint};
use autobatch_core::{lower, ExecOptions, KernelRegistry, LoweringOptions};
use autobatch_ir::build::fibonacci_program;
use autobatch_ir::pcab::Program;
use autobatch_serve::{
    AdmissionPolicy, AffinityConfig, Intake, Outcome, Request, RequestBudget, SchedulingPolicy,
    ServeError, ShardedServer, SupervisorConfig,
};
use autobatch_tensor::Tensor;
use proptest::prelude::*;

/// Silence the default panic hook for injected worker panics only:
/// libtest cannot capture panic output from the fleet's scoped worker
/// threads, and a chaos run injects hundreds of them. Real panics
/// (assertion failures included) still print normally.
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

fn fib_program() -> Program {
    let (program, _) = lower(&fibonacci_program(), LoweringOptions::default()).expect("lower");
    program
}

fn fleet(program: &Program, workers: usize, fault: FaultPlan) -> ShardedServer<'_> {
    let opts = ExecOptions {
        fault,
        ..ExecOptions::default()
    };
    let policy = AdmissionPolicy::JoinAtEntry { max_batch: 2 };
    ShardedServer::new(
        program,
        KernelRegistry::new(),
        opts,
        policy,
        workers,
        Backend::hybrid_cpu(),
    )
    .expect("fleet")
}

/// Drive the fleet until it is idle, cancelling every id `poll` returns,
/// and keep every outcome handed out, in the order it resolved.
fn quiesce(sup: &mut ShardedServer<'_>, poll: &mut dyn FnMut() -> Vec<u64>) -> Vec<Outcome> {
    let mut outcomes = Vec::new();
    sup.drive(None, &mut |resolved| {
        outcomes.extend(resolved);
        Intake {
            cancels: poll(),
            ..Intake::default()
        }
    });
    outcomes
}

fn requests(ns: &[i64]) -> Vec<Request> {
    ns.iter()
        .enumerate()
        .map(|(i, &n)| Request {
            id: i as u64,
            seed: i as u64,
            inputs: vec![Tensor::from_i64(&[n], &[1]).expect("input")],
        })
        .collect()
}

/// Run the workload fault-free and return each request's outputs.
fn reference(program: &Program, workers: usize, reqs: &[Request]) -> HashMap<u64, Vec<Tensor>> {
    let mut sup = fleet(program, workers, FaultPlan::none());
    for r in reqs {
        sup.submit(r.clone()).expect("fault-free submit");
    }
    quiesce(&mut sup, &mut Vec::new)
        .into_iter()
        .map(|o| match o {
            Outcome::Done(r) => (r.id, r.outputs),
            Outcome::Failed { id, error } => panic!("fault-free run failed {id}: {error}"),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline invariant. Rates are drawn up to ~25% per site so
    /// most cases mix recoveries with clean rounds; the retry budget
    /// may legitimately run out (a typed terminal outcome), but nothing
    /// may hang, wedge, or answer twice — and whatever completes must
    /// be bit-identical to the fault-free run.
    #[test]
    fn faults_cannot_perturb_results_or_lose_requests(
        seed in any::<u64>(),
        workers in 1usize..4,
        exec_error in 0u32..16_384,
        admit_error in 0u32..16_384,
        worker_panic in 0u32..16_384,
        worker_slow in 0u32..2_048,
    ) {
        silence_injected_panics();
        let program = fib_program();
        let ns: Vec<i64> = (0..8).map(|i| 3 + (i % 7)).collect();
        let reqs = requests(&ns);
        let want = reference(&program, workers, &reqs);

        let plan = FaultPlan {
            seed,
            exec_error,
            admit_error,
            worker_panic,
            worker_slow,
            ..FaultPlan::none()
        };
        let mut sup = fleet(&program, workers, plan);
        let mut outcomes: Vec<Outcome> = Vec::new();
        for r in &reqs {
            // A submit error is itself a terminal outcome (injected
            // admission faults that outlasted the budget).
            if let Err(e) = sup.submit(r.clone()) {
                outcomes.push(Outcome::Failed { id: r.id, error: e });
            }
        }
        outcomes.extend(quiesce(&mut sup, &mut Vec::new));

        // Exactly one terminal outcome per submitted request.
        let mut seen: Vec<u64> = outcomes.iter().map(Outcome::id).collect();
        seen.sort_unstable();
        let all: Vec<u64> = (0..reqs.len() as u64).collect();
        prop_assert_eq!(seen, all, "every request answered exactly once");

        // Survivors are bit-identical to the fault-free run, and every
        // failure carries a typed, retry-budget-shaped error.
        for o in &outcomes {
            match o {
                Outcome::Done(r) => {
                    prop_assert_eq!(&r.outputs, &want[&r.id], "request {} drifted", r.id);
                }
                Outcome::Failed { error, .. } => {
                    prop_assert!(
                        matches!(error, ServeError::RetriesExhausted { .. }),
                        "unexpected terminal error: {}", error
                    );
                }
            }
        }

    }

    /// The governance invariant: random budgets × worker counts ×
    /// scheduling policies × runaway mixes may evict any subset of the
    /// traffic, but every submitted request still reaches exactly one
    /// terminal outcome (a response, or a typed governance/retry
    /// verdict), every survivor is bit-identical to an unbudgeted
    /// fault-free run, and the fleet ends healthy and idle — no budget
    /// blowup, however placed, can wedge the drive.
    #[test]
    fn budget_eviction_cannot_perturb_survivors(
        seed in any::<u64>(),
        workers in 1usize..4,
        runaway in 0u32..(FaultPlan::ALWAYS / 2),
        worker_panic in 0u32..8_192,
        max_supersteps in 24u64..96,
        lane_bytes_raw in 0u64..1_000_000,
        least_loaded in any::<bool>(),
        quantum in 4u64..24,
    ) {
        silence_injected_panics();
        let program = fib_program();
        let ns: Vec<i64> = (0..8).map(|i| 3 + (i % 7)).collect();
        let reqs = requests(&ns);
        let want = reference(&program, workers, &reqs);

        let plan = FaultPlan {
            seed,
            runaway,
            worker_panic,
            ..FaultPlan::none()
        };
        let opts = ExecOptions {
            fault: plan,
            ..ExecOptions::default()
        };
        let policy = AdmissionPolicy::JoinAtEntry {
            max_batch: 2,
        };
        let mut inner = ShardedServer::new(
            &program,
            KernelRegistry::new(),
            opts,
            policy,
            workers,
            Backend::hybrid_cpu(),
        )
        .expect("fleet");
        if !least_loaded {
            inner.set_scheduling(SchedulingPolicy::PcAffinity(AffinityConfig {
                quantum,
                ..AffinityConfig::default()
            }));
        }
        let mut sup = inner;
        // Zero means "no byte ceiling"; anything else is a ceiling that
        // may or may not bite — both are legitimate draws.
        let max_lane_bytes = (lane_bytes_raw > 0).then_some(255 + lane_bytes_raw);
        sup.set_budget(RequestBudget {
            max_supersteps: Some(max_supersteps),
            max_lane_bytes,
            ..RequestBudget::unlimited()
        });
        let mut outcomes: Vec<Outcome> = Vec::new();
        for r in &reqs {
            if let Err(e) = sup.submit(r.clone()) {
                outcomes.push(Outcome::Failed { id: r.id, error: e });
            }
        }
        outcomes.extend(quiesce(&mut sup, &mut Vec::new));

        // Exactly one terminal outcome per submitted request.
        let mut seen: Vec<u64> = outcomes.iter().map(Outcome::id).collect();
        seen.sort_unstable();
        let all: Vec<u64> = (0..reqs.len() as u64).collect();
        prop_assert_eq!(seen, all, "every request answered exactly once");

        for o in &outcomes {
            match o {
                // Survivors are bit-identical to the unbudgeted
                // fault-free run: eviction compaction cannot perturb a
                // batchmate.
                Outcome::Done(r) => {
                    prop_assert_eq!(&r.outputs, &want[&r.id], "request {} drifted", r.id);
                }
                // Failures are typed governance or retry verdicts —
                // never a poisoned-fleet or lost-request shape.
                Outcome::Failed { error, .. } => {
                    prop_assert!(
                        matches!(
                            error,
                            ServeError::BudgetExceeded { .. }
                                | ServeError::MemoryExceeded { .. }
                                | ServeError::RetriesExhausted { .. }
                                | ServeError::Quarantined { .. }
                        ),
                        "unexpected terminal error: {}", error
                    );
                }
            }
        }

        // Idle: no wedge, nothing in flight.
        prop_assert_eq!(sup.pending() + sup.in_flight(), 0);
    }

    /// The headline invariant for work that arrives while the fleet
    /// runs: requests fed through the drive's hook at drawn calls, with
    /// cancels mixed in, under execution errors, admission faults and
    /// worker panics at 1–4 workers, each reach exactly one terminal
    /// outcome, and whatever completes is bit-identical to the
    /// fault-free run.
    #[test]
    fn work_fed_mid_drive_survives_faults_exactly_once(
        seed in any::<u64>(),
        workers in 1usize..=4,
        exec_error in 0u32..16_384,
        admit_error in 0u32..16_384,
        worker_panic in 0u32..16_384,
        draws in proptest::collection::vec(0u64..64, 4..12),
    ) {
        silence_injected_panics();
        let program = fib_program();
        let ns: Vec<i64> = draws.iter().map(|&d| 3 + (d % 7) as i64).collect();
        let reqs = requests(&ns);
        let want = reference(&program, workers, &reqs);
        let plan = FaultPlan {
            seed,
            exec_error,
            admit_error,
            worker_panic,
            ..FaultPlan::none()
        };
        let mut sup = fleet(&program, workers, plan);
        let (outcomes, cancelled) = feed(&mut sup, &reqs, &draws);

        let mut seen: Vec<u64> = outcomes.iter().map(Outcome::id).collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..reqs.len() as u64).collect::<Vec<_>>(), "every request answered exactly once");
        for o in &outcomes {
            match o {
                Outcome::Done(r) => {
                    prop_assert_eq!(&r.outputs, &want[&r.id], "request {} drifted", r.id);
                }
                Outcome::Failed { id, error } => prop_assert!(
                    matches!(error, ServeError::RetriesExhausted { .. })
                        || (*error == ServeError::Cancelled && cancelled.contains(id)),
                    "unexpected terminal error for {}: {}", id, error
                ),
            }
        }
    }
}

/// Feed `reqs` through one supervised drive: request `i` at hook call
/// `Σ draws[..=i] % 3`, and one in four cancelled a drawn number of
/// calls after it was fed. Returns every outcome handed out and the ids
/// asked to be cancelled.
fn feed(sup: &mut ShardedServer<'_>, reqs: &[Request], draws: &[u64]) -> (Vec<Outcome>, Vec<u64>) {
    let mut at = Vec::new();
    let mut call = 0u64;
    for &d in draws {
        call += d % 3;
        at.push(call);
    }
    let cancel_at: Vec<Option<u64>> = draws
        .iter()
        .zip(&at)
        .map(|(&d, &fed)| (d % 4 == 1).then_some(fed + d / 16))
        .collect();
    let (mut outcomes, mut calls, mut fed) = (Vec::new(), 0u64, 0);
    // The drive ends when the fleet is idle and a call feeds nothing,
    // which the schedule may do before it is through: drive again.
    while outcomes.len() < reqs.len() {
        assert!(calls < 100_000, "the schedule is long since through");
        sup.drive(None, &mut |resolved| {
            outcomes.extend(resolved);
            let mut intake = Intake::default();
            while fed < reqs.len() && at[fed] <= calls {
                intake.requests.push(reqs[fed].clone());
                fed += 1;
            }
            intake.cancels = (0..fed)
                .filter(|&id| cancel_at[id] == Some(calls))
                .map(|id| id as u64)
                .collect();
            calls += 1;
            intake
        });
    }
    let cancelled = (0..reqs.len() as u64)
        .filter(|&id| cancel_at[id as usize].is_some())
        .collect();
    (outcomes, cancelled)
}

#[test]
fn work_fed_mid_drive_is_retried_when_its_shard_dies() {
    silence_injected_panics();
    let program = fib_program();
    // Panics on about half of all worker legs and an execution error
    // every few thousand supersteps: shards die under work that was fed
    // into the running fleet, and the supervisor must heal them and
    // retry that work to the same answers.
    let plan = FaultPlan {
        seed: 4,
        worker_panic: FaultPlan::ALWAYS / 2,
        exec_error: FaultPlan::ALWAYS / 4096,
        ..FaultPlan::none()
    };
    let ns = [9, 6, 10, 7, 8, 5, 9, 6, 10, 7];
    let reqs = requests(&ns);
    let want = reference(&program, 2, &reqs);
    // Where a request fed mid-drive lands depends on when the hook is
    // called, and with it which faults it meets. The worst case is a
    // fib(10) retried alone late in the run: an attempt survives only
    // if its leg draws no panic (1/2) and none of its ~600 supersteps
    // draws an execution fault, so with probability about
    // 1/2 * (4095/4096)^600 = 0.43. Failing 65 attempts in a row, and
    // so exhausting a 64-retry budget, has probability 0.57^65, about
    // 1e-16 per request. (At 1/256 per superstep an attempt survived
    // 5% of the time, and about one run in twelve lost a request.)
    let opts = ExecOptions {
        fault: plan,
        ..ExecOptions::default()
    };
    let policy = AdmissionPolicy::JoinAtEntry { max_batch: 2 };
    let backend = Backend::hybrid_cpu();
    let mut sup = ShardedServer::new(&program, KernelRegistry::new(), opts, policy, 2, backend)
        .expect("fleet");
    sup.set_supervision(SupervisorConfig {
        retry_budget: 64,
        ..SupervisorConfig::default()
    });
    // The first request starts the fleet, the rest arrive one or two
    // hook calls apart while it runs; none is cancelled.
    let draws = [0, 4, 4, 2, 4, 4, 2, 4, 4, 2];
    let (outcomes, _) = feed(&mut sup, &reqs, &draws);
    assert_eq!(outcomes.len(), reqs.len());
    for o in &outcomes {
        match o {
            Outcome::Done(r) => assert_eq!(r.outputs, want[&r.id], "request {} drifted", r.id),
            Outcome::Failed { id, error } => panic!("request {id} lost to {error}"),
        }
    }
    assert!(sup.respawns() > 0, "shards must have died");
    assert!(sup.retries() > 0, "their work must have been retried");
}

#[test]
fn a_retry_is_answered_while_the_hook_keeps_feeding() {
    silence_injected_panics();
    let program = fib_program();
    // The first call routes the watched requests 0 and 2 to shard 0 and
    // 1 and 3 to shard 1. Pick a plan under which shard 0 admits request
    // 0 and then panics at its first leg, shard 1 refuses request 1, and
    // no later leg panics. The refusal is due again at once, the
    // stranded request a round later: the fast-forward between drives
    // releases only the first, and the second comes due while the next
    // drive runs.
    let plan = (0u64..)
        .map(|seed| FaultPlan {
            seed,
            worker_panic: FaultPlan::ALWAYS / 8,
            admit_error: FaultPlan::ALWAYS / 4,
            ..FaultPlan::none()
        })
        .find(|p| {
            (0..64).all(|c| p.fires(FaultPoint::WorkerPanic, c) == (c == 0))
                && !p.fires(FaultPoint::Admission, 1)
                && p.with_epoch(1).fires(FaultPoint::Admission, 1)
        })
        .expect("a plan with that schedule");
    let watched = requests(&[9, 12, 10, 11]);
    let want = reference(&program, 2, &watched);
    let opts = ExecOptions {
        fault: plan,
        ..ExecOptions::default()
    };
    let policy = AdmissionPolicy::JoinAtEntry { max_batch: 2 };
    let backend = Backend::hybrid_cpu();
    let mut sup = ShardedServer::new(&program, KernelRegistry::new(), opts, policy, 2, backend)
        .expect("fleet");
    sup.set_supervision(SupervisorConfig {
        retry_budget: 64,
        ..SupervisorConfig::default()
    });
    // Hand the watched requests in at the first call, and a small filler
    // at every call for as long as a watched request is unanswered: the
    // drive never runs out of work, so it never ends on its own. A retry
    // that waits for it to end waits for the deadline. The bound is wall
    // time, not a count of hook calls: a refused retry can be routed to
    // a shard whose worker takes its inbox only hundreds of calls later,
    // while the coordinator keeps feeding the other shard.
    let deadline = Instant::now() + Duration::from_secs(5);
    let (mut answered, mut fillers, mut feeding) = (Vec::new(), 0u64, true);
    let mut answered_while_feeding = None;
    sup.drive(None, &mut |resolved| {
        let watched_ids = 0..watched.len() as u64;
        answered.extend(
            resolved
                .into_iter()
                .filter(|o| watched_ids.contains(&o.id())),
        );
        let mut intake = Intake::default();
        if fillers == 0 {
            intake.requests = watched.clone();
        }
        feeding &= Instant::now() < deadline;
        if answered.len() == watched.len() {
            answered_while_feeding.get_or_insert(feeding);
        } else if feeding {
            let filler = requests(&[3]).remove(0);
            intake.requests.push(Request {
                id: 100 + fillers,
                ..filler
            });
            fillers += 1;
        }
        intake
    });
    for o in &answered {
        match o {
            Outcome::Done(r) => assert_eq!(r.outputs, want[&r.id], "request {} drifted", r.id),
            Outcome::Failed { id, error } => panic!("request {id} lost to {error}"),
        }
    }
    assert_eq!(sup.respawns(), 1, "the first leg's shard died");
    assert!(sup.retries() > 0);
    let fed = answered_while_feeding.expect("every watched request was answered");
    assert!(fed, "the retries waited for the feeding to stop");
}

#[test]
fn worker_panic_is_contained_and_the_shard_respawns() {
    silence_injected_panics();
    let program = fib_program();
    // Panics fire on roughly half of all worker rounds: enough that the
    // first rounds are guaranteed hits (verified by the respawn count
    // below), while retries eventually land on clean rounds.
    let plan = FaultPlan {
        seed: 0,
        worker_panic: FaultPlan::ALWAYS / 2,
        ..FaultPlan::none()
    };
    let mut sup = fleet(&program, 2, plan);
    let reqs = requests(&[6, 9, 7, 8]);
    let want = reference(&program, 2, &reqs);
    for r in &reqs {
        sup.submit(r.clone())
            .expect("panics cannot refuse admission");
    }
    let outcomes = quiesce(&mut sup, &mut Vec::new);
    assert_eq!(outcomes.len(), reqs.len());
    assert!(
        sup.respawns() > 0,
        "a ~50% panic rate must have killed at least one worker round"
    );
    for o in outcomes {
        match o {
            Outcome::Done(r) => assert_eq!(r.outputs, want[&r.id]),
            Outcome::Failed { id, error } => panic!("request {id} lost to {error}"),
        }
    }
}

#[test]
fn retry_budget_exhaustion_terminates_with_typed_errors() {
    silence_injected_panics();
    let program = fib_program();
    // Every worker round panics, forever: no request can ever finish.
    // The drive must still terminate — each failing round burns retry
    // attempts — answering everything with RetriesExhausted and leaving
    // a healthy (respawned) fleet behind.
    let plan = FaultPlan {
        seed: 11,
        worker_panic: FaultPlan::ALWAYS,
        ..FaultPlan::none()
    };
    let mut sup = fleet(&program, 2, plan);
    let reqs = requests(&[5, 6, 7]);
    for r in &reqs {
        sup.submit(r.clone()).expect("submit is unaffected");
    }
    let outcomes = quiesce(&mut sup, &mut Vec::new);
    assert_eq!(outcomes.len(), reqs.len());
    for o in outcomes {
        match o {
            Outcome::Failed {
                error: ServeError::RetriesExhausted { attempts, .. },
                ..
            } => assert!(attempts > 0),
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
    }
    assert!(sup.respawns() > 0);
}

#[test]
fn injected_admission_faults_retry_inline_then_exhaust() {
    let program = fib_program();
    // ALWAYS: every submit attempt fails; the supervisor retries inline
    // up to the budget, then reports the typed terminal error.
    let plan = FaultPlan {
        seed: 3,
        admit_error: FaultPlan::ALWAYS,
        ..FaultPlan::none()
    };
    let mut sup = fleet(&program, 1, plan);
    let err = sup
        .submit(requests(&[6]).remove(0))
        .expect_err("admission faults on every attempt");
    match err {
        ServeError::RetriesExhausted { id, attempts, .. } => {
            assert_eq!(id, 0);
            assert_eq!(attempts, SupervisorConfig::default().retry_budget);
        }
        other => panic!("expected RetriesExhausted, got {other}"),
    }
    // A refused request is not tracked: the drive has nothing to do.
    assert!(quiesce(&mut sup, &mut Vec::new).is_empty());
}

#[test]
fn exec_faults_poison_heal_and_preserve_results() {
    silence_injected_panics();
    let program = fib_program();
    // Injected execution errors poison shards mid-superstep; the
    // supervisor salvages, respawns, and retries. Results must match
    // the fault-free run bit for bit: lanes draw RNG under the request
    // seed, so a retried request recomputes the identical answer.
    let plan = FaultPlan {
        seed: 7,
        exec_error: FaultPlan::ALWAYS / 64,
        ..FaultPlan::none()
    };
    let mut sup = fleet(&program, 2, plan);
    let reqs = requests(&[4, 9, 5, 8, 6, 7]);
    let want = reference(&program, 2, &reqs);
    for r in &reqs {
        sup.submit(r.clone()).expect("submit");
    }
    let outcomes = quiesce(&mut sup, &mut Vec::new);
    assert_eq!(outcomes.len(), reqs.len());
    let done = outcomes.iter().filter(|o| o.is_done()).count();
    assert!(done > 0, "a ~1.6% exec fault rate cannot kill everything");
    assert!(sup.respawns() > 0, "exec faults must have poisoned a shard");
    for o in outcomes {
        if let Outcome::Done(r) = o {
            assert_eq!(r.outputs, want[&r.id], "request {} drifted", r.id);
        }
    }
}

#[test]
fn respawn_salvages_completed_work_and_reports_health() {
    silence_injected_panics();
    let program = fib_program();
    // One shard in 32-superstep affinity quanta, one fault round per
    // quantum: the first quantum runs clean, and every later one panics
    // until the retry budget is spent. By then fib(2) has completed, two
    // requests are in flight (lost with the machine) and one is queued
    // behind them (stranded).
    let budget = SupervisorConfig::default().retry_budget;
    let plan = (0u64..)
        .map(|seed| FaultPlan {
            seed,
            worker_panic: FaultPlan::ALWAYS / 2,
            ..FaultPlan::none()
        })
        .find(|p| {
            (0..=u64::from(budget) + 1).all(|c| p.fires(FaultPoint::WorkerPanic, c) == (c > 0))
        })
        .expect("a plan with that schedule");
    let mut fleet = fleet(&program, 1, plan);
    fleet.set_scheduling(SchedulingPolicy::PcAffinity(AffinityConfig {
        quantum: 32,
        ..AffinityConfig::default()
    }));
    let reqs = requests(&[2, 9, 10, 8]);
    let want = reference(&program, 1, &reqs);
    for r in &reqs {
        fleet.submit(r.clone()).expect("submit");
    }
    let outcomes = quiesce(&mut fleet, &mut Vec::new);
    assert_eq!(outcomes.len(), reqs.len(), "every request answered once");
    let mut retried = Vec::new();
    for o in outcomes {
        match o {
            // The work the shard completed before it died is kept.
            Outcome::Done(r) => assert_eq!((r.id, &r.outputs), (0, &want[&0])),
            // Everything else it held, stranded or lost, is retried until
            // the budget is spent, and the panic survives as the cause.
            Outcome::Failed {
                id,
                error: ServeError::RetriesExhausted { attempts, last, .. },
            } => {
                assert_eq!(attempts, budget + 1);
                assert!(matches!(*last, ServeError::Panicked { .. }), "{last}");
                retried.push(id);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }
    retried.sort_unstable();
    assert_eq!(
        retried,
        vec![1, 2, 3],
        "stranded plus lost is every other request"
    );
    // Each death is one respawn, and each charges every request it held.
    assert_eq!(fleet.respawns(), u64::from(budget) + 1);
    assert_eq!(fleet.retries(), 3 * (u64::from(budget) + 1));
}

#[test]
fn requests_that_share_an_id_are_retried_apart() {
    silence_injected_panics();
    let program = fib_program();
    // Two requests under one id: fib(20) runs long enough to meet
    // execution faults, fib(3) hardly any. Each is retried from its own
    // copy, so each gets exactly one answer, and a completion is always
    // its own request's fault-free result.
    let reqs = requests(&[20, 3]);
    let want = reference(&program, 2, &reqs);
    for seed in 0..8 {
        let plan = FaultPlan {
            seed,
            exec_error: FaultPlan::ALWAYS / 2000,
            ..FaultPlan::none()
        };
        let mut sup = fleet(&program, 2, plan);
        for r in &reqs {
            sup.submit(Request { id: 7, ..r.clone() }).expect("submit");
        }
        let outcomes = quiesce(&mut sup, &mut Vec::new);
        assert_eq!(outcomes.len(), 2, "seed {seed}: one outcome per request");
        let mut unanswered = vec![&want[&0], &want[&1]];
        for o in &outcomes {
            match o {
                Outcome::Done(r) => {
                    let own = unanswered.iter().position(|w| **w == r.outputs);
                    let own =
                        own.unwrap_or_else(|| panic!("seed {seed}: {r:?} answers no request"));
                    unanswered.remove(own);
                }
                Outcome::Failed { error, .. } => assert!(
                    matches!(error, ServeError::RetriesExhausted { .. }),
                    "seed {seed}: {error}"
                ),
            }
        }
    }
}

#[test]
fn fixed_seeds_end_exactly_as_pinned() {
    silence_injected_panics();
    let source = "fn binom(n: int, k: int) -> (out: int) {
        if k <= 0 { out = 1; } else if k >= n { out = 1; } else {
            let left = binom(n - 1, k - 1);
            let right = binom(n - 1, k);
            out = left + right;
        }
    }";
    let program = autobatch_lang::compile(source, "binom").expect("binom compiles");
    let (pc, _) = lower(&program, LoweringOptions::default()).expect("binom lowers");
    // Five fault plans on 2 workers: availability 1.0 under execution
    // and admission faults, 0.75 with a panic on every other worker
    // round, 0 (typed, still no wedge) with one on every round. Then four
    // adversarial mixes on 4 budgeted workers: runaways alone, with
    // clamped worker stalls, and beside cancellation of a third of the
    // stream; their operands are smaller because a runaway burns the
    // whole budget, which is sized for a full batch of honest requests.
    // Rows: `(workers, first n, max_supersteps)`; one-in-n rates (0 =
    // never) of `[exec_error, admit_error, worker_panic, runaway,
    // worker_slow]`; cancel one in; `[done, retries exhausted, over
    // budget, cancelled, retries, respawns, evictions]`.
    let (faults, mixes) = ((2, 10, None), (4, 6, Some(65_536)));
    for ((workers, n0, max_supersteps), one_in, cancel_one_in, want) in [
        (faults, [0, 0, 0, 0, 0], 0, [12, 0, 0, 0, 0, 0, 0]),
        (faults, [65_536, 0, 0, 0, 0], 0, [12, 0, 0, 0, 4, 1, 0]),
        (faults, [0, 8, 0, 0, 0], 0, [12, 0, 0, 0, 2, 0, 0]),
        (faults, [0, 0, 2, 0, 0], 0, [9, 3, 0, 0, 15, 6, 0]),
        (faults, [0, 0, 1, 0, 0], 0, [0, 12, 0, 0, 48, 8, 0]),
        (mixes, [0, 0, 0, 0, 0], 0, [12, 0, 0, 0, 0, 0, 0]),
        (mixes, [0, 0, 0, 4, 0], 0, [8, 0, 4, 0, 0, 0, 4]),
        (mixes, [0, 0, 0, 2, 8], 0, [6, 0, 6, 0, 0, 0, 6]),
        (mixes, [0, 0, 0, 4, 0], 3, [5, 0, 3, 4, 0, 0, 3]),
    ] {
        let [exec_error, admit_error, worker_panic, runaway, worker_slow] =
            one_in.map(|n| FaultPlan::ALWAYS.checked_div(n).unwrap_or(0));
        let fault = FaultPlan {
            seed: 2025,
            exec_error,
            admit_error,
            worker_panic,
            runaway,
            worker_slow,
            max_slow_micros: 200,
            ..FaultPlan::none()
        };
        let opts = ExecOptions {
            fault,
            ..ExecOptions::default()
        };
        let policy = AdmissionPolicy::JoinAtEntry { max_batch: 4 };
        let backend = Backend::hybrid_cpu();
        let mut sup =
            ShardedServer::new(&pc, KernelRegistry::new(), opts, policy, workers, backend)
                .expect("fleet");
        // Quarantine off: every doomed lane must burn its own budget,
        // not be spared by the breaker (which counts budget blowups
        // only, so this changes nothing for the fault plans).
        let mut config = SupervisorConfig::default();
        config.quarantine.trip_threshold = 0;
        sup.set_supervision(config);
        let mut budget = RequestBudget::unlimited();
        budget.max_supersteps = max_supersteps;
        sup.set_budget(budget);
        let operands = |id: u64| (n0 + (id * 5 % 7) as i64, 2 + (id * 3 % 5) as i64);
        let asked_to_cancel = |id: u64| cancel_one_in != 0 && id.is_multiple_of(cancel_one_in);
        let runs_away = |id: u64| fault.fires(FaultPoint::Runaway, id) && !asked_to_cancel(id);
        let mut outcomes = Vec::new();
        for id in 0..12 {
            let (n, k) = operands(id);
            let inputs = [n, k].map(|x| Tensor::from_i64(&[x], &[1]).expect("input"));
            let (seed, inputs) = (id, inputs.into());
            if let Err(error) = sup.submit(Request { id, seed, inputs }) {
                outcomes.push(Outcome::Failed { id, error });
            }
        }
        let mut to_cancel: Vec<u64> = (0..12).filter(|&id| asked_to_cancel(id)).collect();
        outcomes.extend(quiesce(&mut sup, &mut || std::mem::take(&mut to_cancel)));
        let mut got = [0; 7];
        for o in outcomes {
            let kind = match o {
                Outcome::Done(r) => {
                    let (n, k) = operands(r.id);
                    let c_n_k = (1..=k).fold(1, |c, j| c * (n - k + j) / j);
                    assert_eq!(r.outputs[0].as_i64().expect("i64"), &[c_n_k]);
                    assert!(!runs_away(r.id), "runaway {} escaped its budget", r.id);
                    0
                }
                Outcome::Failed { error, id } => match error {
                    ServeError::RetriesExhausted { .. } => 1,
                    ServeError::BudgetExceeded { spent, limit } => {
                        assert!(runs_away(id), "well-behaved request {id} evicted");
                        assert_eq!((Some(limit), spent), (max_supersteps, limit + 1));
                        2
                    }
                    ServeError::Cancelled if asked_to_cancel(id) => 3,
                    error => panic!("request {id} failed: {error}"),
                },
            };
            got[kind] += 1;
        }
        got[4..].copy_from_slice(&[sup.retries(), sup.respawns(), sup.evictions()]);
        assert_eq!(got, want, "{fault:?}, cancel 1 in {cancel_one_in}");
        let busy = sup.pending() + sup.in_flight();
        assert_eq!(
            busy, 0,
            "the fleet ends idle (and healthy, as the drive asserts)"
        );
    }
}
