//! Tunable knobs of the two runtimes and the lowering pipeline.
//!
//! These correspond to the "significant free choices" the paper calls out
//! in §2 (primitive execution strategy, block-selection heuristic) and
//! the five compiler optimizations of §3; the ablation benches sweep them.
//!
//! The first choice is the one with a default that is not the paper's.
//! The paper masks because XLA wants static shapes; on a host CPU a
//! masked superstep pays for every idle lane's arithmetic, and a
//! gathered one pays to copy the active lanes' rows. Which is cheaper
//! depends on the block and on the occupancy, so the default,
//! [`ExecStrategy::Adaptive`], decides per superstep with
//! [`gather_pays`]; the two fixed strategies stay as the ablation arms
//! (and [`ExecStrategy::Masking`] is what every paper figure pins).

use autobatch_chaos::FaultPlan;

/// How a primitive is executed on the locally active subset of the batch
/// (paper §2, first free choice). All three produce bit-identical
/// results and superstep counts; they differ in host time and in what
/// the [`Trace`](autobatch_accel::Trace) cost model is charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecStrategy {
    /// Run the primitive on *all* batch members and mask out the inactive
    /// results. Cheap bookkeeping, wasted compute at low utilization,
    /// computes on junk data in inactive lanes. The paper's choice, and
    /// the fixed arm its figures are reproduced under.
    Masking,
    /// Gather the active members into a dense array, compute only them,
    /// and scatter the results back. No wasted compute, but pays
    /// gather/scatter traffic — at full occupancy too, where it copies
    /// every operand for nothing — and produces dynamically shaped
    /// intermediates (which static compilers dislike). The other fixed
    /// ablation arm.
    GatherScatter,
    /// The default: mask or gather, chosen per superstep by
    /// [`gather_pays`] from the block's [`BlockCost`] (measured on the
    /// block's first execution, which is masked) and the superstep's
    /// occupancy. The local static runtime, which has no block-wide
    /// compacted temporaries, chooses per primitive the same way. The
    /// choice reads no clock, so a run and its priced trace are as
    /// reproducible as under a fixed arm.
    #[default]
    Adaptive,
}

impl ExecStrategy {
    /// Whether a superstep (or, in the local static runtime, one
    /// primitive) with `n_active` of `z` members active runs gathered,
    /// given the cost measured for it so far. `Adaptive` masks until it
    /// has one: the measuring execution is the masked one.
    pub(crate) fn gathers(self, cost: Option<BlockCost>, n_active: usize, z: usize) -> bool {
        match self {
            ExecStrategy::Masking => false,
            ExecStrategy::GatherScatter => true,
            ExecStrategy::Adaptive => cost.is_some_and(|c| gather_pays(c, n_active, z)),
        }
    }

    /// Whether an execution with no cost measured yet should measure it.
    pub(crate) fn measures(self, cost: Option<BlockCost>) -> bool {
        self == ExecStrategy::Adaptive && cost.is_none()
    }
}

/// What one batch member's share of a block (or of one primitive) costs,
/// as [`prim_cost`](crate::prim_cost) counts it on the tensors the block
/// really ran on: the one thing [`gather_pays`] knows about a block.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BlockCost {
    /// Floating-point work per member.
    pub flops_per_member: f64,
    /// Operand and result bytes per member: what a masked execution
    /// streams, and what a gathered one copies in and out.
    pub bytes_per_member: f64,
}

/// Flops of arithmetic that cost the host as much as moving one byte
/// through a gather or a scatter.
///
/// Measured, not tuned per workload: every block of the four
/// `benchmark/` programs was timed masked and gathered at each
/// occupancy of an 8-lane machine (`results/BENCH_adaptive_strategy.json`,
/// "crossover"). With `r` a block's flops per byte and
/// `x = (z - n_active) / n_active * r`, every block at `x >= 1.65` ran
/// faster gathered (the three NUTS blocks that call the model's `grad`
/// or `logp`, `r` 10.8 to 35: 0.15x the masked time at 1 of 8, 0.89x at
/// 7 of 8) and no block at `x <= 0.875` reliably did (elementwise
/// blocks, `r` at most 0.125 whether their tensors hold one element or
/// 8,192: 0.8x to 1.4x, and slower at full occupancy). The workloads
/// have no block in between, so the data brackets the constant to
/// `0.875..1.65` and says nothing finer; 1 is the round number inside.
pub const GATHER_FLOPS_PER_BYTE: f64 = 1.0;

/// Whether a superstep of a block costing `cost` per member, with
/// `n_active` of `z` members active, is cheaper gathered than masked:
/// whether the arithmetic masking would spend on the `z - n_active`
/// idle lanes exceeds the traffic of gathering and scattering the
/// active ones, at [`GATHER_FLOPS_PER_BYTE`]. A full batch always
/// masks: there is nothing to save and gathering would copy every
/// operand. A pure function of its three arguments.
pub fn gather_pays(cost: BlockCost, n_active: usize, z: usize) -> bool {
    let idle = z.saturating_sub(n_active);
    idle > 0
        && idle as f64 * cost.flops_per_member
            > GATHER_FLOPS_PER_BYTE * n_active as f64 * cost.bytes_per_member
}

/// Which runnable basic block the runtime executes next (paper §2, second
/// free choice). Any non-starving heuristic is correct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BlockHeuristic {
    /// Always run the earliest block in program order with at least one
    /// active member — the paper's default ("surprisingly effective",
    /// predictable).
    #[default]
    EarliestBlock,
    /// Run the block with the most waiting members (ties go to the
    /// earliest). Greedy batch-utilization maximizer.
    MostActive,
}

/// How the dynamic-batching scheduler drains its agenda each round — the
/// two strategies of on-the-fly batching (Neubig et al., 2017), relevant
/// only to [`DynamicVm`](crate::DynamicVm).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DynSchedule {
    /// Each round, launch only the largest signature group, letting
    /// smaller cohorts keep accumulating members across rounds (DyNet's
    /// *agenda-based* batching). Better batching, more rounds.
    #[default]
    Agenda,
    /// Each round, launch every signature group present (DyNet's
    /// *depth-based* batching). Fewer rounds, but out-of-phase threads
    /// never coalesce.
    Breadth,
}

/// Runtime execution options shared by the virtual machines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecOptions {
    /// Primitive execution strategy.
    pub strategy: ExecStrategy,
    /// Block-selection heuristic.
    pub heuristic: BlockHeuristic,
    /// Abort after this many supersteps (guards non-termination).
    pub max_supersteps: u64,
    /// Host (Rust) recursion depth limit for the local-static and
    /// dynamic-batching runtimes.
    pub max_host_depth: usize,
    /// Stack depth limit `D` for the program-counter runtime (paper
    /// Algorithm 2's static stack allocation).
    pub stack_depth: usize,
    /// Whether the program-counter runtime caches stack tops (paper §3,
    /// optimization 4). Turning this off only changes the *priced* stack
    /// traffic (every read re-gathers), not the results. Read when the
    /// VM is constructed, like [`ExecOptions::fuse_elementwise`]: with
    /// it off no fused region is planned, since a fused launch would
    /// not price the re-gathers; the per-op pricing of each stacked
    /// read and update then follows it.
    pub cache_stack_tops: bool,
    /// Agenda policy of the dynamic-batching runtime (ignored by the
    /// static runtimes).
    pub dyn_schedule: DynSchedule,
    /// RNG seed for the counter-based random primitives.
    pub seed: u64,
    /// Whether the program-counter runtime executes straight-line chains
    /// of same-shape elementwise primitives as one fused loop (and one
    /// fused launch in the [`Trace`](autobatch_accel::Trace) cost
    /// model). Fusion is bit-identical to per-primitive execution — the
    /// fused loop applies the exact same scalar functions in the same
    /// order — so this knob only exists for ablation and benchmarking.
    /// Read once, when the VM is constructed: it plans fused regions
    /// only when this and [`ExecOptions::cache_stack_tops`] are on, and
    /// a superstep never tests either.
    pub fuse_elementwise: bool,
    /// Deterministic fault-injection schedule (chaos testing). The
    /// default plan is inert; see [`autobatch_chaos`].
    pub fault: FaultPlan,
}

impl Default for ExecOptions {
    fn default() -> ExecOptions {
        ExecOptions {
            strategy: ExecStrategy::Adaptive,
            heuristic: BlockHeuristic::EarliestBlock,
            max_supersteps: 50_000_000,
            max_host_depth: 512,
            stack_depth: 64,
            cache_stack_tops: true,
            dyn_schedule: DynSchedule::Agenda,
            seed: 0,
            fuse_elementwise: true,
            fault: FaultPlan::none(),
        }
    }
}

/// Options of the `lsab → pcab` lowering (paper §3 optimizations 1–3, 5;
/// optimization 4 is a runtime knob, [`ExecOptions::cache_stack_tops`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoweringOptions {
    /// Optimization 2: a variable that is never pushed or popped, is no
    /// program input or output, and is read in every block only after
    /// that block writes it bypasses the batching machinery entirely (a
    /// block-local temporary; the clean-up's rule (c) in `lowering.rs`).
    pub elide_temporaries: bool,
    /// Optimization 3: variables never live across a recursive call get a
    /// masked register instead of a stack.
    pub demote_registers: bool,
    /// Optimization 5: cancel `Pop v; …; Push v = e` pairs with no
    /// intervening access into in-place `Update v = e`.
    pub pop_push_elimination: bool,
}

impl Default for LoweringOptions {
    fn default() -> LoweringOptions {
        LoweringOptions {
            elide_temporaries: true,
            demote_registers: true,
            pop_push_elimination: true,
        }
    }
}

impl LoweringOptions {
    /// All optimizations disabled (the ablation baseline: every variable
    /// gets a stack, every call saves via push/pop).
    pub fn unoptimized() -> LoweringOptions {
        LoweringOptions {
            elide_temporaries: false,
            demote_registers: false,
            pop_push_elimination: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_enable_all_optimizations() {
        let o = LoweringOptions::default();
        assert!(o.elide_temporaries && o.demote_registers && o.pop_push_elimination);
        let u = LoweringOptions::unoptimized();
        assert!(!u.elide_temporaries && !u.demote_registers && !u.pop_push_elimination);
    }

    #[test]
    fn exec_defaults() {
        let o = ExecOptions::default();
        assert_eq!(o.strategy, ExecStrategy::Adaptive);
        assert_eq!(o.heuristic, BlockHeuristic::EarliestBlock);
        assert!(o.cache_stack_tops);
    }

    /// The decision, on the costs the benchmark's blocks really have.
    #[test]
    fn gather_pays_only_where_idle_arithmetic_outweighs_the_copy() {
        // binom's widest block: eight ops on one-element tensors.
        let one_element = BlockCost {
            flops_per_member: 2.0,
            bytes_per_member: 32.0,
        };
        // NUTS' leapfrog block: two 512x24 logistic gradients.
        let external = BlockCost {
            flops_per_member: 110_739.0,
            bytes_per_member: 3_168.0,
        };
        for z in 1..=16 {
            // A full batch has nothing to save.
            assert!(!gather_pays(external, z, z), "all {z} active");
            for n in 1..=z {
                assert!(!gather_pays(one_element, n, z), "1-element, {n} of {z}");
            }
        }
        assert!(gather_pays(external, 2, 8));
        assert!(gather_pays(external, 7, 8));
        // Monotone: once masking wins at some occupancy it wins at
        // every fuller one.
        for cost in [one_element, external, BlockCost::default()] {
            for flops in [cost.flops_per_member, 40.0, 400.0] {
                let cost = BlockCost {
                    flops_per_member: flops,
                    ..cost
                };
                let choices: Vec<bool> = (1..=32).map(|n| gather_pays(cost, n, 32)).collect();
                assert!(choices.windows(2).all(|w| w[0] || !w[1]), "{cost:?}");
                // A function of its arguments alone: asking again, in
                // any order, gives the same answers.
                let again: Vec<bool> = (1..=32).rev().map(|n| gather_pays(cost, n, 32)).collect();
                assert!(choices.iter().eq(again.iter().rev()));
            }
        }
        // More lanes than the batch holds is nobody's superstep; it masks.
        assert!(!gather_pays(external, 9, 8));
    }
}
