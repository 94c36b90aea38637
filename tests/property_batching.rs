//! Property tests of the central correctness claim (paper §2): running a
//! batch is indistinguishable, member by member, from running each
//! member alone — for *arbitrary* control flow, under both autobatching
//! strategies, every lowering configuration, and both primitive
//! execution strategies.
//!
//! Programs come from the random-program generator every root test
//! shares (`tests/common`): `f64` and `i64` values at scalar and `[2]`
//! element shapes, nested conditionals, bounded while loops, acyclic
//! calls, and, in about 2 programs of 3, a terminating recursive helper
//! with data-dependent branching: single or double (binom-shaped)
//! recursion, a second call that passes the caller's parameter through
//! unchanged (binom's `k`), and mutual recursion whose depth steps by a
//! data-dependent stride, entered at `main` or at the helper itself. The
//! properties run the well-typed programs ([`program`]) on batches drawn
//! from their input specs. RNG primitives are excluded here because their
//! draws are keyed by batch-member id (their member-consistency is
//! covered by the NUTS native-vs-batched tests).
//!
//! Determinism: the `seed` strategy below, like every proptest input, is
//! drawn from the vendored deterministic proptest harness — cases are a
//! pure function of `(PROPTEST_SEED, test name, case index)`, and the
//! program generator and the batches derive everything from their seeds
//! through `StdRng::seed_from_u64`. A failing case therefore reproduces
//! bit-for-bit on any machine with the same `PROPTEST_SEED` (default 0);
//! set `PROPTEST_CASES` to widen or narrow the sweep.

mod common;

use autobatch::accel::{Backend, Trace};
use autobatch::core::{
    lower, BlockHeuristic, DynSchedule, DynamicVm, ExecOptions, ExecStrategy, KernelRegistry,
    LaneState, LocalStaticVm, LoweringOptions, PcMachine, PcObservation, PcVm, VmError,
};
use autobatch::ir::analysis::analyze_pcab;
use autobatch::ir::build::{fibonacci_program, ProgramBuilder};
use autobatch::ir::{lsab, pcab, Prim, Var};
use autobatch::serve::{AdmissionPolicy, BatchServer, Request, ShardedServer};
use autobatch::tensor::Tensor;
use common::{generate, materialize, Generated};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// The first program the generator makes from `seed` on that carries no
/// injected type error (about 1 in 4 does), entered at `main` or, when
/// `at_helper` and the program recurses, at its recursive helper.
fn program(seed: u64, at_helper: bool) -> Generated {
    (0..)
        .map(|k| generate(seed.wrapping_add(k), at_helper))
        .find(|g| !g.expect_reject)
        .expect("a well-typed program")
}

/// Each member's rows of a batch of inputs or outputs, in member order.
fn rows(batch: &[Tensor]) -> Vec<Vec<Tensor>> {
    let z = batch.first().map_or(0, |t| t.shape()[0]);
    (0..z)
        .map(|b| {
            batch
                .iter()
                .map(|t| t.gather_rows(&[b]).expect("row"))
                .collect()
        })
        .collect()
}

/// Run `p` on `inputs` under a stack of `stack_depth` frames (two or
/// three: the generated recursion overflows it for most inputs), one-shot
/// and through a machine, under every lowering × strategy × fusion
/// setting. Where it overflows, the push that overflows is the same in
/// every configuration, so the error is too: one value per lowering,
/// whichever driver, strategy or fusion setting runs it. A program whose
/// static stack bound fits never overflows. Returns the number of
/// lowerings whose bound fits, all of which ran clean.
fn overflow_is_one_error(p: &lsab::Program, inputs: &[Tensor], stack_depth: usize) -> usize {
    let members = rows(inputs);
    let members: Vec<(&[Tensor], u64)> = members.iter().map(Vec::as_slice).zip(0..).collect();
    let base = ExecOptions {
        stack_depth,
        ..ExecOptions::default()
    };
    let mut fits = 0;
    for lopts in all_lowering_options() {
        let (lowered, _) = lower(p, lopts).expect("lowers");
        let excluded = analyze_pcab(&lowered).overflow_excluded(stack_depth);
        let reference = PcVm::new(&lowered, KernelRegistry::new(), base).run(inputs, None);
        match &reference {
            Ok(_) => fits += usize::from(excluded),
            Err(VmError::StackOverflow { limit, .. }) => {
                assert_eq!(*limit, stack_depth);
                assert!(
                    !excluded,
                    "overflow under a static bound that fits, {lopts:?}"
                );
            }
            Err(e) => panic!("{e} under {lopts:?}"),
        }
        for strategy in STRATEGIES {
            for fuse_elementwise in [true, false] {
                let opts = ExecOptions {
                    strategy,
                    fuse_elementwise,
                    ..base
                };
                let at = (lopts, strategy, fuse_elementwise);
                let one_shot = PcVm::new(&lowered, KernelRegistry::new(), opts).run(inputs, None);
                assert_eq!(&one_shot, &reference, "one-shot under {at:?}");
                let mut m = PcMachine::new(&lowered, KernelRegistry::new(), opts);
                m.admit_batch(&members, None).expect("admits");
                let machine = loop {
                    match m.step(None) {
                        Ok(true) => {}
                        Ok(false) => break Ok(m.retire_finished(None).expect("retires")),
                        Err(e) => break Err(e),
                    }
                };
                match (machine, &reference) {
                    (Err(e), Err(want)) => assert_eq!(&e, want, "machine under {at:?}"),
                    (Ok(done), Ok(want)) => {
                        for (o, full) in want.iter().enumerate() {
                            let rows: Vec<Tensor> =
                                done.iter().map(|r| r.outputs[o].clone()).collect();
                            assert_eq!(&Tensor::concat_rows(&rows).expect("stacks"), full);
                        }
                    }
                    (got, _) => panic!("machine under {at:?}: {:?}", got.err()),
                }
            }
        }
    }
    fits
}

/// The overflow property's static clause is not vacuous: over a fixed
/// range of seeds, some lowering of some program has a static stack
/// bound that fits a stack of two or three frames, and runs clean there.
/// A recursive program's bound is `Unbounded`, so these are the
/// generator's non-recursive programs.
#[test]
fn a_static_stack_bound_that_fits_holds_in_some_run() {
    let mut fits = 0;
    for seed in 0..8 {
        let g = program(seed, false);
        let inputs = materialize(&g.inputs, 3, seed);
        for stack_depth in 2..=3 {
            fits += overflow_is_one_error(&g.program, &inputs, stack_depth);
        }
    }
    assert!(fits > 0, "no run had a static stack bound that fits");
}

/// The strategy axis; the masked arm first, as the reference.
const STRATEGIES: [ExecStrategy; 3] = [
    ExecStrategy::Masking,
    ExecStrategy::GatherScatter,
    ExecStrategy::Adaptive,
];

fn run_lsab(p: &lsab::Program, inputs: &[Tensor], strategy: ExecStrategy) -> Vec<Tensor> {
    let opts = ExecOptions {
        strategy,
        ..ExecOptions::default()
    };
    LocalStaticVm::new(p, KernelRegistry::new(), opts)
        .run(inputs, None)
        .expect("lsab runs")
}

/// Every combination of the lowering's three optimizations.
fn all_lowering_options() -> impl Iterator<Item = LoweringOptions> {
    (0..8).map(|bits| LoweringOptions {
        elide_temporaries: bits & 1 != 0,
        demote_registers: bits & 2 != 0,
        pop_push_elimination: bits & 4 != 0,
    })
}

fn run_pc(p: &pcab::Program, inputs: &[Tensor], opts: ExecOptions) -> Vec<Tensor> {
    PcVm::new(p, KernelRegistry::new(), opts)
        .run(inputs, None)
        .expect("pc runs")
}

/// One machine of `member_set_edits_cannot_perturb_results`: the trace
/// its edits are recorded in, and the schedule's own count of what that
/// trace must end up holding.
struct Rig<'p> {
    m: PcMachine<'p>,
    trace: Trace,
    admitted: u64,
    retired: u64,
    moved_in: u64,
    moved_out: u64,
    peak: usize,
}

impl<'p> Rig<'p> {
    fn new(m: PcMachine<'p>) -> Rig<'p> {
        Rig {
            m,
            trace: Trace::new(Backend::hybrid_cpu()),
            admitted: 0,
            retired: 0,
            moved_in: 0,
            moved_out: 0,
            peak: 0,
        }
    }

    /// Lanes the schedule says are live.
    fn live(&self) -> u64 {
        self.admitted + self.moved_in - self.retired - self.moved_out
    }

    /// What must hold after every edit: every view of the member set
    /// has the same length, in the same (ticket) order.
    fn check(&mut self, what: &str) {
        let m = &self.m;
        assert_eq!(m.live() as u64, self.live(), "live() after {what}");
        assert_eq!(m.tickets().len(), m.live(), "tickets after {what}");
        assert_eq!(
            m.lane_pcs().len() + m.finished(),
            m.live(),
            "running + finished after {what}"
        );
        let running: Vec<u64> = m.lane_pcs().iter().map(|&(t, _)| t).collect();
        let charged: Vec<u64> = m.lane_spend().iter().map(|&(t, _, _)| t).collect();
        assert_eq!(running, charged, "lane_spend vs lane_pcs after {what}");
        assert!(
            m.tickets().windows(2).all(|w| w[0] < w[1]),
            "tickets out of lane order after {what}: {:?}",
            m.tickets()
        );
        assert_eq!(self.trace.live_members(), self.live(), "trace after {what}");
        self.peak = self.peak.max(m.live());
    }

    /// Hand back retired members: each answers a request nobody has
    /// answered yet, with that request's solo outputs.
    fn retire(
        &mut self,
        retired: Vec<autobatch::core::Retired>,
        want: &[Vec<Tensor>],
        answered: &mut [bool],
    ) {
        for r in retired {
            let key = r.key as usize;
            assert!(!answered[key], "request {key} retired twice");
            answered[key] = true;
            assert_eq!(r.outputs, want[key], "request {key} perturbed");
            self.retired += 1;
        }
        self.check("retirement");
    }

    /// An edit that must be refused by validation, leaving the member
    /// set as it was.
    fn refused<T: std::fmt::Debug>(
        &mut self,
        what: &str,
        edit: impl FnOnce(&mut PcMachine<'p>) -> Result<T, VmError>,
    ) {
        let before = self.m.tickets().to_vec();
        let err = edit(&mut self.m);
        assert!(
            matches!(err, Err(VmError::BadInputs { .. })),
            "{what} must be refused, got {err:?}"
        );
        assert_eq!(
            self.m.tickets(),
            &before[..],
            "tickets after refused {what}"
        );
        self.check(what);
    }
}

/// A running lane of a Fibonacci machine, `steps` supersteps into
/// `fib(n)`: a lane of the wrong program for every other machine, and a
/// deep one for a machine of the same program with a tighter depth
/// limit.
fn fib_lane(pc: &pcab::Program, opts: ExecOptions, n: i64, steps: usize) -> LaneState {
    let mut donor = PcMachine::new(pc, KernelRegistry::new(), opts);
    let t = donor
        .admit(&[Tensor::from_i64(&[n], &[1]).expect("n")], 0, None)
        .expect("admit");
    for _ in 0..steps {
        assert!(donor.step(None).expect("step"));
    }
    donor
        .extract_lanes(&[t], None)
        .expect("extract")
        .remove(0)
        .1
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batch_equals_singles_and_all_runtimes_agree(
        seed in any::<u64>(),
        at_helper in any::<bool>(),
        z in 1usize..5,
        data in any::<u64>(),
    ) {
        let g = program(seed, at_helper);
        let p = g.program;
        let inputs = materialize(&g.inputs, z, data);
        let members = rows(&inputs);

        // Reference: each member alone through the local-static runtime.
        let singles: Vec<Vec<Tensor>> =
            members.iter().map(|row| run_lsab(&p, row, ExecStrategy::Masking)).collect();

        // Batch under local static autobatching (every strategy).
        let batch = run_lsab(&p, &inputs, ExecStrategy::Masking);
        prop_assert_eq!(rows(&batch), singles, "lsab batch against each member alone");
        let gather = run_lsab(&p, &inputs, ExecStrategy::GatherScatter);
        prop_assert_eq!(&batch, &gather, "gather/scatter strategy agrees");
        let adaptive = run_lsab(&p, &inputs, ExecStrategy::Adaptive);
        prop_assert_eq!(&batch, &adaptive, "per-primitive mask-or-gather agrees");

        // Program-counter autobatching under every lowering config ×
        // strategy × fusion on and off, and top caching off (a runtime
        // ablation that also plans no fused region).
        for lopts in all_lowering_options() {
            let (lowered, _) = lower(&p, lopts).expect("lowers");
            for strategy in STRATEGIES {
                for fuse_elementwise in [true, false] {
                    let opts = ExecOptions { strategy, fuse_elementwise, ..ExecOptions::default() };
                    let pc = run_pc(&lowered, &inputs, opts);
                    prop_assert_eq!(&batch, &pc, "pc agrees under {:?}", (lopts, strategy, fuse_elementwise));
                }
            }
            let opts = ExecOptions { cache_stack_tops: false, ..ExecOptions::default() };
            let pc_nocache = run_pc(&lowered, &inputs, opts);
            prop_assert_eq!(&batch, &pc_nocache, "pc agrees without top caching under {:?}", lopts);
        }

        // Dynamic (on-the-fly) batching, both agenda policies (paper §5's
        // related-work architecture must compute the same answers).
        for schedule in [DynSchedule::Agenda, DynSchedule::Breadth] {
            let opts = ExecOptions { dyn_schedule: schedule, ..ExecOptions::default() };
            let dy = DynamicVm::new(&p, KernelRegistry::new(), opts)
                .run(&inputs, None)
                .expect("dynamic runs");
            prop_assert_eq!(&batch, &dy, "dynamic agrees under {:?}", schedule);
        }

        // Algorithm 2's loop has two drivers and one body: a machine
        // that takes the whole batch in one admission under keys 0..Z
        // and is stepped until nothing is runnable, never retiring on
        // the way, is the one-shot run superstep for superstep.
        let (lowered, _) = lower(&p, LoweringOptions::default()).expect("lowers");
        let members: Vec<(&[Tensor], u64)> = members.iter().map(Vec::as_slice).zip(0..).collect();
        let mut total = 0;
        for heuristic in [BlockHeuristic::EarliestBlock, BlockHeuristic::MostActive] {
            for strategy in STRATEGIES {
                let opts = ExecOptions { heuristic, strategy, ..ExecOptions::default() };
                let mut observed = 0u64;
                let mut count = |_: &PcObservation<'_>| observed += 1;
                let one_shot = PcVm::new(&lowered, KernelRegistry::new(), opts)
                    .run_observed(&inputs, None, Some(&mut count))
                    .expect("pc runs");
                prop_assert_eq!(&batch, &one_shot, "pc agrees under {:?}", (heuristic, strategy));
                let mut m = PcMachine::new(&lowered, KernelRegistry::new(), opts);
                m.admit_batch(&members, None).expect("admits");
                while m.step(None).expect("steps") {}
                prop_assert_eq!(m.supersteps(), observed, "under {:?}", (heuristic, strategy));
                let done = m.retire_finished(None).expect("retires");
                for (o, full) in one_shot.iter().enumerate() {
                    let rows: Vec<Tensor> = done.iter().map(|r| r.outputs[o].clone()).collect();
                    prop_assert_eq!(&Tensor::concat_rows(&rows).expect("stacks"), full);
                }
                total = observed;
            }
        }
        // And the one limit stops both after the same superstep.
        let limit = total / 2;
        let opts = ExecOptions { max_supersteps: limit, ..ExecOptions::default() };
        let mut observed = 0u64;
        let mut count = |_: &PcObservation<'_>| observed += 1;
        let one_shot = PcVm::new(&lowered, KernelRegistry::new(), opts)
            .run_observed(&inputs, None, Some(&mut count));
        prop_assert_eq!(one_shot, Err(VmError::StepLimit { limit }));
        let mut m = PcMachine::new(&lowered, KernelRegistry::new(), opts);
        m.admit_batch(&members, None).expect("admits");
        let mut stepped = 0u64;
        let stopped = loop {
            match m.step(None) {
                Ok(true) => stepped += 1,
                other => break other,
            }
        };
        prop_assert_eq!(stopped, Err(VmError::StepLimit { limit }));
        prop_assert_eq!((stepped, observed), (limit, limit));
    }

    #[test]
    fn a_stack_overflow_is_one_error_in_every_configuration(
        seed in any::<u64>(),
        z in 1usize..5,
        data in any::<u64>(),
        stack_depth in 2usize..=3,
    ) {
        // Entered at `main`, the pc stack is the one that overflows;
        // entered at the recursive helper, a data variable's stack is.
        for at_helper in [false, true] {
            let g = program(seed, at_helper);
            if at_helper && !g.recurses {
                break;
            }
            let inputs = materialize(&g.inputs, z, data);
            overflow_is_one_error(&g.program, &inputs, stack_depth);
        }
    }

    #[test]
    fn pc_results_bit_identical_across_heuristics_and_strategies(
        seed in any::<u64>(),
        z in 2usize..5,
        data in any::<u64>(),
    ) {
        // The paper's §2 claim: any non-starving block-selection
        // heuristic is correct, under either primitive execution
        // strategy or a per-superstep mix of the two — and not just
        // "correct" but bit-identical, because each member's per-lane
        // computation is untouched by scheduling. The strategy cannot
        // change the schedule either: same heuristic, same supersteps.
        let g = program(seed, false);
        let (lowered, _) = lower(&g.program, LoweringOptions::default()).expect("lowers");
        let inputs = materialize(&g.inputs, z, data);
        let mut outs = Vec::new();
        for heuristic in [BlockHeuristic::EarliestBlock, BlockHeuristic::MostActive] {
            let mut masked_steps = None;
            for strategy in STRATEGIES {
                let opts = ExecOptions { heuristic, strategy, ..ExecOptions::default() };
                let mut trace = Trace::new(Backend::hybrid_cpu());
                let out = PcVm::new(&lowered, KernelRegistry::new(), opts)
                    .run(&inputs, Some(&mut trace))
                    .expect("pc runs");
                let steps = *masked_steps.get_or_insert(trace.supersteps());
                prop_assert_eq!(trace.supersteps(), steps, "supersteps under {:?}", strategy);
                outs.push(((heuristic, strategy), out));
            }
        }
        let (_, reference) = &outs[0];
        for (combo, out) in &outs[1..] {
            prop_assert_eq!(reference, out, "divergence under {:?}", combo);
        }
    }

    #[test]
    fn admission_order_cannot_perturb_results(
        seed in any::<u64>(),
        z in 3usize..6,
        data in any::<u64>(),
        order_seed in any::<u64>(),
    ) {
        // Dynamic batch admission: each request's outputs are
        // bit-identical whether it is served alone, in a one-shot batch,
        // or admitted into an in-flight batch in any order.
        let g = program(seed, false);
        let (lowered, _) = lower(&g.program, LoweringOptions::default()).expect("lowers");

        // Reference: the one-shot batch.
        let inputs = materialize(&g.inputs, z, data);
        let members = rows(&inputs);
        let reference = PcVm::new(&lowered, KernelRegistry::new(), ExecOptions::default())
            .run(&inputs, None)
            .expect("pc runs");
        let reference = rows(&reference);

        // A shuffled submission order with a tight batch capacity, so
        // later requests join mid-flight.
        let mut order: Vec<usize> = (0..z).collect();
        let mut orng = StdRng::seed_from_u64(order_seed);
        for i in (1..z).rev() {
            order.swap(i, orng.gen_range(0..i + 1));
        }
        let policy = AdmissionPolicy::JoinAtEntry { max_batch: 2 };
        let mut server =
            BatchServer::new(&lowered, KernelRegistry::new(), ExecOptions::default(), policy)
                .expect("server");
        for &b in &order {
            server
                .submit(Request {
                    id: b as u64,
                    inputs: members[b].clone(),
                    seed: b as u64,
                })
                .expect("submit");
        }
        let mut served = server.run_until_idle(None).expect("serve");
        served.sort_by_key(|r| r.id);
        for (b, r) in served.iter().enumerate() {
            prop_assert_eq!(
                &r.outputs,
                &reference[b],
                "member {} perturbed by admission order {:?}",
                b,
                &order
            );
        }
    }

    #[test]
    fn member_set_edits_cannot_perturb_results(
        seed in any::<u64>(),
        schedule_seed in any::<u64>(),
        strategy in 0usize..3,
        cache_stack_tops in any::<bool>(),
    ) {
        // The member set changes four ways — admission, retirement,
        // extraction and injection — and none of them may be visible to
        // any member: under a drawn schedule of all four over two
        // machines, every request's outputs equal its solo run, every
        // view of the member set stays in step, and each machine's
        // trace ends with the schedule's own count of who came and went.
        let g = program(seed, false);
        let (lowered, _) = lower(&g.program, LoweringOptions::default()).expect("lowers");
        let opts = ExecOptions {
            strategy: STRATEGIES[strategy],
            cache_stack_tops,
            ..ExecOptions::default()
        };
        let solo = PcVm::new(&lowered, KernelRegistry::new(), opts);
        let mut rng = StdRng::seed_from_u64(schedule_seed);
        let mut rigs = [
            Rig::new(PcMachine::new(&lowered, KernelRegistry::new(), opts)),
            Rig::new(PcMachine::new(&lowered, KernelRegistry::new(), opts)),
        ];
        let track = rng.gen_bool(0.5);
        for rig in &mut rigs {
            rig.m.track_peak_bytes(track);
        }

        // Lanes no machine of this program may accept: one of another
        // program, and one of this program whose first input's rows have
        // one more axis, of 3, than every admitted request's.
        let (fib, _) = lower(&fibonacci_program(), LoweringOptions::default()).expect("lowers");
        let foreign = fib_lane(&fib, opts, 9, 3);
        let mut wide_specs = g.inputs.clone();
        wide_specs[0].elem_shape.push(3);
        let wide = materialize(&wide_specs, 1, seed);
        let misshapen = {
            let mut donor = PcMachine::new(&lowered, KernelRegistry::new(), opts);
            let t = donor.admit(&wide, 0, None).expect("first admission fixes the spec");
            donor.extract_lanes(&[t], None).expect("extract").remove(0).1
        };

        // Request key -> its solo outputs, and whether it has retired.
        let mut want: Vec<Vec<Tensor>> = Vec::new();
        let mut answered: Vec<bool> = Vec::new();
        for _ in 0..rng.gen_range(12..40) {
            let i = usize::from(rng.gen_bool(0.4));
            match rng.gen_range(0..10) {
                0..=2 if want.len() < 14 => {
                    let rows = rows(&materialize(&g.inputs, rng.gen_range(1..=4), rng.next_u64()));
                    let first_key = want.len() as u64;
                    for row in &rows {
                        want.push(solo.run(row, None).expect("solo run"));
                        answered.push(false);
                    }
                    let reqs: Vec<(&[Tensor], u64)> = rows
                        .iter()
                        .zip(first_key..)
                        .map(|(row, key)| (&row[..], key))
                        .collect();
                    let rig = &mut rigs[i];
                    let tickets = rig.m.admit_batch(&reqs, Some(&mut rig.trace)).expect("admit");
                    let z = rig.m.live();
                    prop_assert_eq!(&rig.m.tickets()[z - rows.len()..], &tickets[..]);
                    rig.admitted += rows.len() as u64;
                    rig.check("admit_batch");
                }
                0..=5 => {
                    let rig = &mut rigs[i];
                    for _ in 0..rng.gen_range(1..=20) {
                        if !rig.m.step(Some(&mut rig.trace)).expect("step") {
                            break;
                        }
                    }
                }
                6..=7 => {
                    // Move up to three running lanes, picked in any
                    // order, from machine `i` to the other one.
                    let i = if rigs[i].m.running() == 0 { 1 - i } else { i };
                    let mut running = rigs[i].m.lane_pcs();
                    let mut tickets = Vec::new();
                    for _ in 0..rng.gen_range(1..=3usize).min(running.len()) {
                        tickets.push(running.swap_remove(rng.gen_range(0..running.len())).0);
                    }
                    let spend = rigs[i].m.lane_spend();
                    let (src, dst) = {
                        let (a, b) = rigs.split_at_mut(1);
                        if i == 0 { (&mut a[0], &mut b[0]) } else { (&mut b[0], &mut a[0]) }
                    };
                    let lanes = src.m.extract_lanes(&tickets, Some(&mut src.trace)).expect("extract");
                    src.moved_out += lanes.len() as u64;
                    src.check("extract_lanes");
                    let moved: Vec<u64> = lanes.iter().map(|&(t, _)| t).collect();
                    prop_assert_eq!(&moved, &tickets, "lanes come out in the order asked for");
                    for (ticket, lane) in &lanes {
                        let &(_, spent, peak) =
                            spend.iter().find(|s| s.0 == *ticket).expect("was running");
                        prop_assert_eq!((lane.spent(), lane.peak_bytes()), (spent, peak));
                        let new = dst.m.inject_lane(lane, Some(&mut dst.trace)).expect("inject");
                        prop_assert_eq!(dst.m.tickets().last(), Some(&new));
                        let carried = dst.m.lane_spend();
                        let &(_, spent_after, peak_after) =
                            carried.iter().find(|s| s.0 == new).expect("still running");
                        prop_assert_eq!((spent_after, peak_after), (spent, peak));
                        dst.moved_in += 1;
                        dst.check("inject_lane");
                    }
                }
                8 => {
                    let i = if rigs[i].m.finished() == 0 { 1 - i } else { i };
                    let rig = &mut rigs[i];
                    let retired = rig.m.retire_finished(Some(&mut rig.trace)).expect("retire");
                    rig.retire(retired, &want, &mut answered);
                }
                _ => {
                    // Validation comes before mutation.
                    let rig = &mut rigs[i];
                    rig.refused("an admission of the wrong arity", |m| {
                        m.admit_batch(&[(&[][..], 99)], None)
                    });
                    rig.refused("a lane of another program", |m| m.inject_lane(&foreign, None));
                    // Element shapes are fixed by the first lane a
                    // machine ever held.
                    if rig.admitted + rig.moved_in > 0 {
                        rig.refused("an admission of the wrong element shape", |m| {
                            m.admit_batch(&[(&wide[..], 99)], None)
                        });
                        rig.refused("a lane of the wrong element shape", |m| {
                            m.inject_lane(&misshapen, None)
                        });
                    }
                }
            }
        }
        for rig in &mut rigs {
            let retired = rig.m.run_to_completion(Some(&mut rig.trace)).expect("drain");
            rig.retire(retired, &want, &mut answered);
            prop_assert_eq!(rig.m.live(), 0);
            prop_assert_eq!(rig.trace.members_admitted(), rig.admitted);
            prop_assert_eq!(rig.trace.members_retired(), rig.retired);
            prop_assert_eq!(rig.trace.members_migrated_in(), rig.moved_in);
            prop_assert_eq!(rig.trace.members_migrated_out(), rig.moved_out);
            prop_assert_eq!(rig.trace.live_members(), 0);
            prop_assert_eq!(rig.trace.peak_members(), rig.peak);
        }
        prop_assert!(answered.iter().all(|&a| a), "every request retires exactly once");

        // The depth limit is checked the same way: a lane deeper than
        // the destination allows is refused whole.
        let tight_opts = ExecOptions { stack_depth: 2, ..opts };
        let deep = fib_lane(&fib, opts, 12, 40);
        let mut tight = Rig::new(PcMachine::new(&fib, KernelRegistry::new(), tight_opts));
        let two = [Tensor::from_i64(&[2], &[1]).expect("n")];
        tight.m.admit(&two, 0, Some(&mut tight.trace)).expect("admit");
        tight.admitted += 1;
        prop_assert!(tight.m.step(None).expect("step"));
        tight.refused("a lane over the depth limit", |m| m.inject_lane(&deep, None));
        let done = tight.m.run_to_completion(None).expect("fib(2) fits in two frames");
        let alone = PcVm::new(&fib, KernelRegistry::new(), tight_opts).run(&two, None).expect("solo");
        prop_assert_eq!(&done[0].outputs, &alone);
    }

    #[test]
    fn sharding_and_routing_cannot_perturb_results(
        seed in any::<u64>(),
        z in 3usize..8,
        data in any::<u64>(),
        workers in 1usize..5,
        shard_batch in 1usize..4,
        order_seed in any::<u64>(),
    ) {
        // Sharded serving: however the request stream is partitioned
        // across worker threads (worker count, per-shard batch width,
        // submission order — and therefore least-loaded routing), every
        // request's outputs are bit-identical to the unsharded server's,
        // and aggregation returns them in submission order.
        let g = program(seed, false);
        let (lowered, _) = lower(&g.program, LoweringOptions::default()).expect("lowers");
        let members = rows(&materialize(&g.inputs, z, data));
        let request = |b: usize| Request {
            id: b as u64,
            inputs: members[b].clone(),
            seed: b as u64,
        };

        // Reference: the single-server run, in submission order.
        let policy = AdmissionPolicy::JoinAtEntry { max_batch: 2 };
        let mut single =
            BatchServer::new(&lowered, KernelRegistry::new(), ExecOptions::default(), policy)
                .expect("server");
        for b in 0..z {
            single.submit(request(b)).expect("submit");
        }
        let mut reference = single.run_until_idle(None).expect("serve");
        reference.sort_by_key(|r| r.id);

        // Sharded run under a shuffled submission order.
        let mut order: Vec<usize> = (0..z).collect();
        let mut orng = StdRng::seed_from_u64(order_seed);
        for i in (1..z).rev() {
            order.swap(i, orng.gen_range(0..i + 1));
        }
        let policy = AdmissionPolicy::JoinAtEntry {
            max_batch: shard_batch,
        };
        let mut sharded = ShardedServer::new(
            &lowered,
            KernelRegistry::new(),
            ExecOptions::default(),
            policy,
            workers,
            Backend::hybrid_cpu(),
        )
        .expect("sharded server");
        for &b in &order {
            sharded.submit(request(b)).expect("submit");
        }
        let served = sharded.run_until_idle_with(&mut Vec::new).expect("serve");
        // Aggregation preserves the (shuffled) submission order.
        let got_ids: Vec<u64> = served.iter().map(|r| r.id).collect();
        let want_ids: Vec<u64> = order.iter().map(|&b| b as u64).collect();
        prop_assert_eq!(got_ids, want_ids, "aggregation broke submission order");
        for r in &served {
            let want = &reference[r.id as usize];
            prop_assert_eq!(
                &r.outputs,
                &want.outputs,
                "request {} perturbed by sharding ({} workers, batch {}, order {:?})",
                r.id,
                workers,
                shard_batch,
                &order
            );
        }
    }

    #[test]
    fn deadline_admission_cannot_perturb_results(
        seed in any::<u64>(),
        data in any::<u64>(),
        gaps in proptest::collection::vec(0u64..500, 3..7),
        max_batch in 1usize..4,
        max_wait in 1u64..400,
        poll_seed in any::<u64>(),
    ) {
        // Deadline-driven admission: a batch may launch because it
        // filled *or* because the oldest request's wait hit `max_wait`
        // on the virtual clock. Whichever way each batch launches — for
        // any arrival interleaving, deadline, and capacity — every
        // request's outputs are bit-identical to utilization-driven
        // admission of the same stream, because admission timing is
        // pure scheduling and per-lane computation never observes it.
        let z = gaps.len();
        let g = program(seed, false);
        let (lowered, _) = lower(&g.program, LoweringOptions::default()).expect("lowers");
        let members = rows(&materialize(&g.inputs, z, data));
        let request = |b: usize| Request {
            id: b as u64,
            inputs: members[b].clone(),
            seed: b as u64,
        };

        // Reference: utilization-driven admission, all queued up front.
        let policy = AdmissionPolicy::JoinAtEntry { max_batch };
        let mut single =
            BatchServer::new(&lowered, KernelRegistry::new(), ExecOptions::default(), policy)
                .expect("server");
        for b in 0..z {
            single.submit(request(b)).expect("submit");
        }
        let mut reference = single.run_until_idle(None).expect("serve");
        reference.sort_by_key(|r| r.id);
        prop_assert_eq!(reference.len(), z);

        // Deadline-driven server fed the same stream at staggered
        // virtual arrival times, polled a random number of iterations
        // between arrivals — so some batches fill, others launch from
        // the deadline mid-stream, and stragglers join in-flight.
        let policy = AdmissionPolicy::Deadline { max_batch, max_wait };
        let mut server =
            BatchServer::new(&lowered, KernelRegistry::new(), ExecOptions::default(), policy)
                .expect("server");
        let mut prng = StdRng::seed_from_u64(poll_seed);
        let mut now = 0u64;
        for (b, gap) in gaps.iter().enumerate() {
            now = now.max(server.clock()) + gap;
            server.set_clock(now);
            server.submit(request(b)).expect("submit");
            for _ in 0..prng.gen_range(0..6usize) {
                if !server.poll(None).expect("poll") {
                    // Machine idle with the queue held back: only the
                    // deadline can admit, so model the wait.
                    match server.next_deadline() {
                        Some(d) => server.set_clock(d),
                        None => break,
                    }
                }
            }
        }
        let mut served = server.run_until_idle(None).expect("serve");
        served.sort_by_key(|r| r.id);
        prop_assert_eq!(served.len(), z);

        for (want, got) in reference.iter().zip(&served) {
            prop_assert_eq!(want.id, got.id);
            prop_assert_eq!(
                &want.outputs,
                &got.outputs,
                "request {} perturbed by deadline admission (batch {}, wait {}, gaps {:?})",
                got.id,
                max_batch,
                max_wait,
                &gaps
            );
        }
    }

    #[test]
    fn elementwise_fusion_cannot_perturb_results(
        seed in any::<u64>(),
        z in 2usize..5,
        data in any::<u64>(),
    ) {
        // The fused fast path must be invisible: bit-identical outputs
        // under every strategy × heuristic, and under eager dispatch it
        // may only ever *remove* timed launches.
        let g = program(seed, false);
        let inputs = materialize(&g.inputs, z, data);
        let (lowered, _) = lower(&g.program, LoweringOptions::default()).expect("lowers");
        for strategy in STRATEGIES {
            for heuristic in [BlockHeuristic::EarliestBlock, BlockHeuristic::MostActive] {
                let run = |fuse: bool| {
                    let opts = ExecOptions {
                        strategy,
                        heuristic,
                        fuse_elementwise: fuse,
                        ..ExecOptions::default()
                    };
                    let mut tr = Trace::new(Backend::eager_cpu());
                    let out = PcVm::new(&lowered, KernelRegistry::new(), opts)
                        .run(&inputs, Some(&mut tr))
                        .expect("pc runs");
                    (out, tr.launches(), tr.supersteps())
                };
                let (fused_out, fused_launches, fused_steps) = run(true);
                let (plain_out, plain_launches, plain_steps) = run(false);
                prop_assert_eq!(&fused_out, &plain_out, "outputs drift under fusion");
                prop_assert_eq!(fused_steps, plain_steps, "fusion altered scheduling");
                prop_assert!(
                    fused_launches <= plain_launches,
                    "fusion added launches: {} > {}",
                    fused_launches,
                    plain_launches
                );
            }
        }
    }

    #[test]
    fn generated_programs_always_validate_and_lower(
        seed in any::<u64>(),
        at_helper in any::<bool>(),
    ) {
        let p = program(seed, at_helper).program;
        p.validate().expect("valid");
        let (pc, _) = lower(&p, LoweringOptions::default()).expect("lowers");
        pc.validate().expect("lowered form valid");
    }
}

/// `f(n, p) { v = p; if n <= 0 { r = to_f64(n) } else { r = f(n - 1,
/// sum(p)) + sum(v) } }` with `p` of two elements per member: the caller
/// saves a `v` of two elements, the callee writes `v` with a scalar, so
/// the pop that restores the caller's `v` finds a cached top of another
/// shape than its frames. Every strategy, both ends of the lowering and
/// fusion on and off agree with the local-static runtime.
#[test]
fn a_pop_restores_frames_of_another_shape_than_the_top() {
    let mut pb = ProgramBuilder::new();
    let f = pb.declare("f", &["n", "p"], &["r"]);
    pb.define(f, |fb| {
        fb.copy(&Var::new("v"), &fb.param(1));
        let zero = fb.const_i64(0);
        let base = fb.emit(Prim::Le, &[fb.param(0), zero]);
        fb.if_else(
            &base,
            |fb| fb.assign(&fb.output(0), Prim::ToF64, &[fb.param(0)]),
            |fb| {
                let one = fb.const_i64(1);
                let n1 = fb.emit(Prim::Sub, &[fb.param(0), one]);
                let s = fb.emit(Prim::SumElems, &[fb.param(1)]);
                let r = fb.call(f, &[n1, s], 1);
                let sv = fb.emit(Prim::SumElems, &[Var::new("v")]);
                fb.assign(&fb.output(0), Prim::Add, &[r[0].clone(), sv]);
            },
        );
        fb.ret();
    });
    let p = pb.finish(f).expect("well-formed");
    let inputs = vec![
        Tensor::from_i64(&[1, 0, 1], &[3]).expect("n"),
        Tensor::from_f64(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]).expect("p"),
    ];
    let want = run_lsab(&p, &inputs, ExecStrategy::Masking);
    assert_eq!(want[0].as_f64().expect("f64 out"), &[3.0, 0.0, 11.0]);
    for lopts in [LoweringOptions::default(), LoweringOptions::unoptimized()] {
        let (lowered, _) = lower(&p, lopts).expect("lowers");
        for strategy in STRATEGIES {
            for fuse_elementwise in [true, false] {
                let opts = ExecOptions {
                    strategy,
                    fuse_elementwise,
                    ..ExecOptions::default()
                };
                let at = (lopts, strategy, fuse_elementwise);
                assert_eq!(run_pc(&lowered, &inputs, opts), want, "under {at:?}");
            }
        }
    }
}
