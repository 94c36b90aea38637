//! The fleet has one drive loop: `ShardedServer::run_until_idle()` is
//! `run_until_idle_with` under a hook that never cancels, so the two
//! must agree on everything a caller can observe — responses, their
//! order, and the virtual-clock queue waits — whatever the worker
//! count, admission policy and arrival pattern, and both must compute
//! what a single unsharded `BatchServer` computes. The same loop fed
//! through its hook while it runs, cancels mixed in, must answer every
//! request exactly once with what that one server computes; a payload
//! its shard refuses is one of those answers, not the end of the drive.
//! A shard whose deadline holds a partial batch starts it on its own
//! clock, never after its siblings are through.

use autobatch_accel::Backend;
use autobatch_core::{lower, ExecOptions, KernelRegistry, LoweringOptions};
use autobatch_ir::build::fibonacci_program;
use autobatch_serve::{
    AdmissionPolicy, BatchServer, Intake, Outcome, Request, Response, ServeError, ShardedServer,
};
use autobatch_tensor::Tensor;
use proptest::prelude::*;

/// One arrival drawn by the property: how far the clock moves before
/// it, what it asks for, and whether the server is driven right after.
struct Arrival {
    advance: u64,
    n: i64,
    drive_after: bool,
}

fn decode(draws: &[u64]) -> Vec<Arrival> {
    draws
        .iter()
        .enumerate()
        .map(|(i, &d)| Arrival {
            advance: d % 16,
            n: 2 + ((d / 16) * 3 + i as u64) as i64 % 9,
            drive_after: d % 5 == 0,
        })
        .collect()
}

fn request(id: usize, n: i64) -> Request {
    Request {
        id: id as u64,
        seed: 500 + id as u64,
        inputs: vec![Tensor::from_i64(&[n], &[1]).expect("input")],
    }
}

/// Everything a caller can see of a response.
fn observable(r: &Response) -> (u64, &[Tensor], u64, u64, u64) {
    (
        r.id,
        &r.outputs,
        r.admitted_at,
        r.retired_at,
        r.queued_ticks,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn plain_and_hooked_drives_agree_and_match_one_server(
        workers in 1usize..=4,
        deadline in any::<bool>(),
        max_wait in 1u64..60,
        draws in proptest::collection::vec(0u64..64, 4..14),
    ) {
        let (program, _) = lower(&fibonacci_program(), LoweringOptions::default()).expect("lower");
        let policy = if deadline {
            AdmissionPolicy::Deadline { max_batch: 3, max_wait }
        } else {
            AdmissionPolicy::JoinAtEntry { max_batch: 3 }
        };
        let arrivals = decode(&draws);

        // The same interleaving of clock moves, submissions and drives
        // through the fleet, ending on a drive that empties it.
        let serve_sharded = |hooked: bool| -> Vec<Response> {
            let mut server = ShardedServer::new(
                &program,
                KernelRegistry::new(),
                ExecOptions::default(),
                policy,
                workers,
                Backend::hybrid_cpu(),
            )
            .expect("fleet");
            let drive = |server: &mut ShardedServer<'_>| {
                if hooked {
                    server.run_until_idle_with(&mut Vec::new)
                } else {
                    server.run_until_idle()
                }
                .expect("serve")
            };
            let mut clock = 0;
            let mut done = Vec::new();
            for (id, a) in arrivals.iter().enumerate() {
                clock += a.advance;
                server.set_clock(clock);
                server.submit(request(id, a.n)).expect("submit");
                if a.drive_after {
                    done.extend(drive(&mut server));
                }
            }
            done.extend(drive(&mut server));
            done
        };
        let plain = serve_sharded(false);
        let hooked = serve_sharded(true);
        prop_assert_eq!(plain.len(), arrivals.len());
        prop_assert_eq!(
            plain.iter().map(observable).collect::<Vec<_>>(),
            hooked.iter().map(observable).collect::<Vec<_>>(),
            "the two entry points are one drive"
        );

        // Sharding cannot perturb what a request computes.
        let mut single = BatchServer::new(&program, KernelRegistry::new(), ExecOptions::default(), policy)
            .expect("server");
        let mut clock = 0;
        let mut reference = Vec::new();
        for (id, a) in arrivals.iter().enumerate() {
            clock += a.advance;
            single.set_clock(clock);
            single.submit(request(id, a.n)).expect("submit");
            if a.drive_after {
                reference.extend(single.run_until_idle(None).expect("serve"));
            }
        }
        reference.extend(single.run_until_idle(None).expect("serve"));
        reference.sort_by_key(|r| r.id);
        let mut by_id: Vec<&Response> = plain.iter().collect();
        by_id.sort_by_key(|r| r.id);
        for (got, want) in by_id.iter().zip(&reference) {
            prop_assert_eq!(got.id, want.id);
            prop_assert_eq!(&got.outputs, &want.outputs, "request {} drifted", got.id);
        }
    }

    #[test]
    fn a_fed_drive_answers_every_request_once_as_one_server_would(
        workers in 1usize..=4,
        deadline in any::<bool>(),
        draws in proptest::collection::vec(0u64..64, 4..14),
    ) {
        let (program, _) = lower(&fibonacci_program(), LoweringOptions::default()).expect("lower");
        let policy = if deadline {
            AdmissionPolicy::Deadline { max_batch: 3, max_wait: 40 }
        } else {
            AdmissionPolicy::JoinAtEntry { max_batch: 3 }
        };
        // Request `id` is fed at hook call `at[id]` (0, 1 or 2 calls
        // after the one before it); one in four is cancelled a drawn
        // number of calls after it was fed.
        let arrivals = decode(&draws);
        let mut at = Vec::new();
        let mut call = 0u64;
        for &d in &draws {
            call += d % 3;
            at.push(call);
        }
        let cancel_at: Vec<Option<u64>> = draws
            .iter()
            .zip(&at)
            .map(|(&d, &fed)| (d % 4 == 1).then_some(fed + d / 16))
            .collect();

        let mut server = ShardedServer::new(
            &program,
            KernelRegistry::new(),
            ExecOptions::default(),
            policy,
            workers,
            Backend::hybrid_cpu(),
        )
        .expect("fleet");
        let mut outcomes: Vec<Outcome> = Vec::new();
        let mut calls = 0u64;
        let mut fed = 0;
        // A drive ends when the fleet is idle and a call feeds nothing,
        // which the schedule may do before it is through: drive again.
        for _ in 0..1_000 {
            if outcomes.len() == arrivals.len() {
                break;
            }
            server
                .drive(None, &mut |retired| {
                    outcomes.extend(retired);
                    let mut intake = Intake::default();
                    while fed < arrivals.len() && at[fed] <= calls {
                        intake.requests.push(request(fed, arrivals[fed].n));
                        fed += 1;
                    }
                    intake.cancels = (0..fed)
                        .filter(|&id| cancel_at[id] == Some(calls))
                        .map(|id| id as u64)
                        .collect();
                    calls += 1;
                    intake
                })
                .expect("serve");
            prop_assert!(server.take_ready().is_empty(), "an Ok drive hands out every response");
            prop_assert!(server.take_failed().is_empty(), "an Ok drive hands out every verdict");
        }
        prop_assert_eq!(server.pending() + server.in_flight(), 0);

        // Exactly one terminal outcome per request, and what completed
        // is what one unsharded server computes.
        let mut single = BatchServer::new(&program, KernelRegistry::new(), ExecOptions::default(), policy)
            .expect("server");
        for (id, a) in arrivals.iter().enumerate() {
            single.submit(request(id, a.n)).expect("submit");
        }
        let mut reference = single.run_until_idle(None).expect("serve");
        reference.sort_by_key(|r| r.id);
        outcomes.sort_by_key(Outcome::id);
        prop_assert_eq!(
            outcomes.iter().map(Outcome::id).collect::<Vec<_>>(),
            (0..arrivals.len() as u64).collect::<Vec<_>>(),
            "every request answered exactly once"
        );
        for (o, want) in outcomes.iter().zip(&reference) {
            match o {
                Outcome::Done(r) => {
                    prop_assert_eq!(&r.outputs, &want.outputs, "request {} drifted", r.id);
                }
                Outcome::Failed { id, error } => {
                    prop_assert_eq!(error, &ServeError::Cancelled);
                    prop_assert!(cancel_at[*id as usize].is_some(), "{} was never cancelled", id);
                }
            }
        }
    }
}

#[test]
fn a_deadline_held_shard_does_not_wait_for_its_siblings() {
    // Least-loaded routing gives shard 0 fib(22) twice, a full batch,
    // and shard 1 the lone fib(3), which its deadline holds back. Shard
    // 1 moves its own clock to the deadline and answers fib(3) long
    // before shard 0 is through: it is not held until the fleet is idle.
    let (program, _) = lower(&fibonacci_program(), LoweringOptions::default()).expect("lower");
    let policy = AdmissionPolicy::Deadline {
        max_batch: 2,
        max_wait: 40,
    };
    let mut server = ShardedServer::new(
        &program,
        KernelRegistry::new(),
        ExecOptions::default(),
        policy,
        2,
        Backend::hybrid_cpu(),
    )
    .expect("fleet");
    for (id, n) in [22, 3, 22].into_iter().enumerate() {
        server.submit(request(id, n)).expect("submit");
    }
    let mut answered = Vec::new();
    server
        .drive(None, &mut |retired| {
            answered.extend(retired.iter().map(Outcome::id));
            Intake::default()
        })
        .expect("serve");
    assert_eq!(answered.len(), 3, "{answered:?}");
    assert_ne!(answered.last(), Some(&1), "fib(3) was answered last");
}

#[test]
fn a_bad_payload_fed_to_a_running_drive_is_refused_and_the_drive_runs_on() {
    use autobatch_ir::build::ProgramBuilder;
    use autobatch_ir::Prim;
    // `y = x; repeat n times { y = y + 1 }`: the branch condition sees
    // only the scalar counter, so `x` may be any element shape, and only
    // the spec a shard's first accepted request fixed tells a payload
    // that conflicts with its machine's buffers apart.
    let mut pb = ProgramBuilder::new();
    let f = pb.declare("countup", &["n", "x"], &["y"]);
    pb.define(f, |fb| {
        let n = fb.param(0);
        let x = fb.param(1);
        let y = fb.output(0);
        fb.assign(&y, Prim::Id, &[x]);
        let zero = fb.const_i64(0);
        let i = fb.emit(Prim::Id, &[zero]);
        fb.while_loop(
            |fb| fb.emit(Prim::Lt, &[i.clone(), n.clone()]),
            |fb| {
                let one_f = fb.const_f64(1.0);
                fb.assign(&y, Prim::Add, &[y.clone(), one_f]);
                let one_i = fb.const_i64(1);
                fb.assign(&i, Prim::Add, &[i.clone(), one_i]);
            },
        );
        fb.ret();
    });
    let (program, _) =
        lower(&pb.finish(f).expect("program"), LoweringOptions::default()).expect("lower");
    let countup = |id: u64, n: i64, x: &[f64]| Request {
        id,
        seed: id,
        inputs: vec![
            Tensor::from_i64(&[n], &[1]).expect("n"),
            Tensor::from_f64(x, &[1, x.len()]).expect("x"),
        ],
    };
    let policy = AdmissionPolicy::JoinAtEntry { max_batch: 2 };
    let mut server = ShardedServer::new(
        &program,
        KernelRegistry::new(),
        ExecOptions::default(),
        policy,
        2,
        Backend::hybrid_cpu(),
    )
    .expect("fleet");
    // One long scalar request per shard fixes both shards' spec.
    for id in 0..2 {
        server.submit(countup(id, 300, &[0.0])).expect("submit");
    }
    let mut outcomes = Vec::new();
    let mut feed = vec![countup(2, 4, &[0.0, 0.0]), countup(3, 5, &[0.0])];
    server
        .drive(None, &mut |retired| {
            outcomes.extend(retired);
            Intake {
                requests: std::mem::take(&mut feed),
                ..Intake::default()
            }
        })
        .expect("a bad payload does not close the drive");
    assert!(server.poisoned_shards().is_empty());
    outcomes.sort_by_key(Outcome::id);
    let got: Vec<_> = outcomes
        .iter()
        .map(|o| match o {
            Outcome::Done(r) => (r.id, Ok(r.outputs[0].as_f64().expect("y")[0])),
            Outcome::Failed { id, error } => (*id, Err(error.clone())),
        })
        .collect();
    assert_eq!(got.len(), 4, "{got:?}");
    assert!(
        matches!(got[2], (2, Err(ServeError::BadRequest(_)))),
        "{:?}",
        got[2]
    );
    assert_eq!(
        [&got[0], &got[1], &got[3]],
        [&(0, Ok(300.0)), &(1, Ok(300.0)), &(3, Ok(5.0))]
    );
}
