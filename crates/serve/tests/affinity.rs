//! PC-affinity scheduling suite: routing, straggler migration, work
//! stealing, and batch splits may change *where* and *when* lanes run,
//! but never *what* they compute or the order responses come back in.
//!
//! The headline property: under any worker count and any
//! [`AffinityConfig`] — including degenerate quanta and aggressive
//! migration settings — every response is bit-identical to the same
//! stream served by a single unsharded worker, and responses still
//! arrive in submission order. The scheduler is a pure function of
//! deterministic snapshots, and every lane's RNG draws are keyed by
//! `(seed, member_key, counter)` rather than by placement, so no
//! rebalancing schedule can perturb outputs.

use autobatch_accel::Backend;
use autobatch_chaos::FaultPlan;
use autobatch_core::{lower, ExecOptions, KernelRegistry, LoweringOptions};
use autobatch_ir::build::fibonacci_program;
use autobatch_ir::pcab::Program;
use autobatch_serve::{
    AdmissionPolicy, AffinityConfig, Outcome, Request, Response, SchedulingPolicy, ShardedServer,
    Supervisor, SupervisorConfig,
};
use autobatch_tensor::Tensor;
use proptest::prelude::*;

fn fib_program() -> Program {
    let (program, _) = lower(&fibonacci_program(), LoweringOptions::default()).expect("lower");
    program
}

fn requests(ns: &[i64]) -> Vec<Request> {
    ns.iter()
        .enumerate()
        .map(|(i, &n)| Request {
            id: i as u64,
            seed: 100 + i as u64,
            inputs: vec![Tensor::from_i64(&[n], &[1]).expect("input")],
        })
        .collect()
}

fn fleet<'p>(
    program: &'p Program,
    workers: usize,
    batch: usize,
    scheduling: SchedulingPolicy,
) -> ShardedServer<'p> {
    let policy = AdmissionPolicy::JoinAtEntry { max_batch: batch };
    let mut server = ShardedServer::new(
        program,
        KernelRegistry::new(),
        ExecOptions::default(),
        policy,
        workers,
        Backend::hybrid_cpu(),
    )
    .expect("fleet");
    server.set_scheduling(scheduling);
    server
}

fn serve(server: &mut ShardedServer<'_>, reqs: &[Request]) -> Vec<Response> {
    for r in reqs {
        server.submit(r.clone()).expect("submit");
    }
    server.run_until_idle().expect("serve")
}

/// A divergent workload: recursion depths spread so lanes retire at
/// very different times, exercising consolidation, splits, and steals.
fn divergent_ns() -> Vec<i64> {
    (0..10).map(|i| 2 + (i * 5 % 9)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline invariant: any affinity schedule — any quantum,
    /// packing factor, migration aggressiveness, and steal batch, at
    /// any worker count — produces responses bit-identical to a single
    /// unsharded worker, in the same submission order.
    #[test]
    fn affinity_routing_cannot_perturb_results(
        workers in 1usize..=4,
        quantum in 1u64..48,
        pack in 1u32..20,   // 0.1 .. 2.0 packing factor
        min_match in 1usize..3,
        max_donor_live in 0usize..3,
        steal_batch in 1usize..6,
    ) {
        let program = fib_program();
        let reqs = requests(&divergent_ns());
        let want = serve(
            &mut fleet(&program, 1, 3, SchedulingPolicy::LeastLoaded),
            &reqs,
        );

        let cfg = AffinityConfig {
            quantum,
            pack: f64::from(pack) / 10.0,
            min_match,
            max_donor_live,
            steal_batch,
        };
        let mut sharded = fleet(&program, workers, 3, SchedulingPolicy::PcAffinity(cfg));
        let got = serve(&mut sharded, &reqs);

        // Same order (submission order), same ids, bit-identical
        // outputs. Timing fields are allowed to differ: *when* a lane
        // ran is exactly what scheduling changes.
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(g.id, w.id, "response order drifted");
            prop_assert_eq!(&g.outputs, &w.outputs, "request {} drifted", g.id);
        }
    }
}

/// Deterministic end-to-end check that the affinity machinery actually
/// fires on a divergent workload — migrations happen, the fleet ends
/// with no lane left, and nothing is lost or reordered (every response
/// is bit-identical to the unsharded run's).
#[test]
fn migrations_fire_and_trace_accounting_balances() {
    let program = fib_program();
    let reqs = requests(&divergent_ns());
    let want = serve(
        &mut fleet(&program, 1, 3, SchedulingPolicy::LeastLoaded),
        &reqs,
    );

    let mut server = fleet(
        &program,
        3,
        3,
        SchedulingPolicy::PcAffinity(AffinityConfig::default()),
    );
    let got = serve(&mut server, &reqs);
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g.id, w.id);
        assert_eq!(g.outputs, w.outputs);
    }

    assert!(
        server.aggregated_trace().members_migrated_in() > 0,
        "divergent workload must trigger migration"
    );
    assert_eq!(server.in_flight(), 0, "a lane was left behind");
}

/// Work stealing preserves the global submission-order guarantee even
/// when the packing factor funnels every request through one shard's
/// queue and the rest of the fleet drains it by theft.
#[test]
fn stealing_from_a_deep_queue_preserves_order_and_results() {
    let program = fib_program();
    let reqs = requests(&divergent_ns());
    let want = serve(
        &mut fleet(&program, 1, 2, SchedulingPolicy::LeastLoaded),
        &reqs,
    );

    // pack: 10.0 routes everything to shard 0 (its open threshold is
    // never reached); the other three shards only ever see stolen work.
    let cfg = AffinityConfig {
        pack: 10.0,
        ..AffinityConfig::default()
    };
    let mut server = fleet(&program, 4, 2, SchedulingPolicy::PcAffinity(cfg));
    let got = serve(&mut server, &reqs);
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g.id, w.id, "stolen work broke submission order");
        assert_eq!(g.outputs, w.outputs);
    }
    // At least one other shard must actually have stolen something.
    assert!(
        server.health()[1..].iter().any(|h| h.steals > 0),
        "nothing was stolen from the packed shard"
    );
}

/// Chaos interplay: straggler migration keeps firing while shards are
/// being poisoned and respawned mid-flight. Migrated lanes must not be
/// lost when their new home dies, and survivors stay bit-identical.
#[test]
fn migration_survives_shard_respawns_mid_flight() {
    let program = fib_program();
    let reqs = requests(&divergent_ns());
    let want = serve(
        &mut fleet(&program, 1, 3, SchedulingPolicy::LeastLoaded),
        &reqs,
    );

    // Execution faults poison shards every ~64th superstep window —
    // plenty of respawns over this workload — while the affinity
    // scheduler keeps migrating and stealing between failures.
    let plan = FaultPlan {
        seed: 5,
        exec_error: FaultPlan::ALWAYS / 64,
        ..FaultPlan::none()
    };
    let opts = ExecOptions {
        fault: plan,
        ..ExecOptions::default()
    };
    let policy = AdmissionPolicy::JoinAtEntry { max_batch: 3 };
    let mut inner = ShardedServer::new(
        &program,
        KernelRegistry::new(),
        opts,
        policy,
        3,
        Backend::hybrid_cpu(),
    )
    .expect("fleet");
    inner.set_scheduling(SchedulingPolicy::PcAffinity(AffinityConfig::default()));
    let mut sup = Supervisor::new(inner, SupervisorConfig::default());
    for r in &reqs {
        sup.submit(r.clone()).expect("submit");
    }
    let outcomes = sup.run_until_quiescent_with(&mut Vec::new);

    // Every request gets exactly one terminal outcome, and everything
    // that completed matches the unsharded fault-free run bit for bit.
    assert_eq!(outcomes.len(), reqs.len());
    let mut done = 0;
    for o in &outcomes {
        if let Outcome::Done(r) = o {
            let w = &want[r.id as usize];
            assert_eq!(r.id, w.id);
            assert_eq!(r.outputs, w.outputs, "request {} drifted", r.id);
            done += 1;
        }
    }
    assert!(done > 0, "a ~1.6% fault rate cannot kill everything");
    assert!(
        sup.respawns() > 0,
        "exec faults must have forced at least one respawn"
    );
    assert!(sup.inner().poisoned_shards().is_empty(), "fleet healed");
    assert_eq!(sup.outstanding(), 0);
}
