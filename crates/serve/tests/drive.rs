//! The fleet has one drive loop: `ShardedServer::run_until_idle()` is
//! `run_until_idle_with` under a hook that never cancels, so the two
//! must agree on everything a caller can observe — responses, their
//! order, and the virtual-clock queue waits — whatever the worker
//! count, admission policy and arrival pattern, and both must compute
//! what a single unsharded `BatchServer` computes.

use autobatch_accel::Backend;
use autobatch_core::{lower, ExecOptions, KernelRegistry, LoweringOptions};
use autobatch_ir::build::fibonacci_program;
use autobatch_serve::{AdmissionPolicy, BatchServer, Request, Response, ShardedServer};
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
            AdmissionPolicy::JoinAtEntry { max_batch: 3, min_utilization: 1.0 }
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
}
