//! The accelerator cost model: what a superstep costs on a
//! [`Trace`]'s backend.
//!
//! The virtual machines execute; this module prices. A VM opens a
//! [`Pricing`] per superstep and tells it *physical* facts — this
//! primitive ran on these tensors, this stack buffer took a push of so
//! many bytes a member — and every rule that turns those facts into
//! [`LaunchRecord`]s lives here, once:
//!
//! - **Off is off.** Without a trace every method returns at once: no
//!   [`prim_cost`], no flop arithmetic, no record. The one exception is
//!   a [`Pricing::profiled`] superstep — the first execution of a block
//!   under [`ExecStrategy::Adaptive`](crate::ExecStrategy::Adaptive) —
//!   which also sums what its primitives cost into the block's
//!   [`BlockCost`], traced or not: once per block per machine.
//! - **Logical against priced records.** Every primitive execution
//!   leaves one *logical* record under its own tag whatever the
//!   dispatch mode, fused or not, so utilization (the paper's Figure 6)
//!   and flop totals are fusion-independent. Only *priced* launches
//!   cost simulated time.
//! - **Eager against per-block launches.** Under
//!   [`DispatchMode::Eager`] every primitive, fused elementwise region
//!   and stack operation is priced as its own launch (stack traffic
//!   under the tag `"stack"`). Under every other mode their flops and
//!   bytes accumulate — parallelism folds by `max` — into one launch
//!   per block, issued by [`Pricing::end_block`] (the program-counter
//!   VM: every superstep, even for an op-less block, parallelism
//!   floored at 1) or [`Pricing::end_segment`] (the local static VM,
//!   whose blocks split into segments at host calls: only when a
//!   primitive ran, and — a quirk kept — without the gather-moved
//!   bytes). The dynamic VM has no blocks and prices every group on its
//!   own under every mode ([`Pricing::per_op`]).
//! - **Gather moved bytes.** Under gather/scatter a primitive's
//!   operands and results (for a fused region: its external inputs and
//!   materialized outputs; intermediates live in registers) are also
//!   charged as random-access traffic, and the record's member total is
//!   the active count instead of the batch width.
//! - **The functional surcharge.** On a backend with functional stack
//!   updates, an update of a cached top copies the top buffer, a push
//!   or pop copies the whole `[Z, D, ..]` store, and a pc push or pop
//!   copies the `[Z, D]` pc stack: twice the buffer, read plus write —
//!   the cost the paper's §4.1 hypothesis (2) blames for fully compiled
//!   autobatching losing to the hybrid at very large batches. A quirk
//!   kept: the copy is streaming traffic but is priced as
//!   `random_bytes`, together with the rows moved.
//! - **Rows moved.** A push or pop moves one row per active member. So
//!   does, under the uncached-top ablation, every read of a stacked
//!   operand and every update.
//! - **pc-stack traffic.** A pc push or pop moves 8 bytes per active
//!   member.
//! - **Free stack operations.** A pop, a pc push or pop and an uncached
//!   read are an eager launch even when they move nothing; an update or
//!   a data push only when it moves bytes.
//!
//! Prices are contractually bit-stable (`tests/pricing_digest.rs`):
//! f64 addition is not associative, so accumulation keeps the order the
//! VMs report in — uncached reads, the op, then each write-back.

use autobatch_accel::{DispatchMode, LaunchRecord, Trace};
use autobatch_ir::Prim;
use autobatch_tensor::Tensor;

use crate::fusion::Ran;
use crate::kernels::{owned, KernelRegistry};
use crate::options::BlockCost;

/// Flops and streaming bytes of one primitive evaluation, for pricing.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OpCost {
    /// Floating-point work.
    pub flops: f64,
    /// Sequential memory traffic (inputs read + outputs written).
    pub bytes: f64,
    /// Independent elements available for parallel execution.
    pub parallel: usize,
}

impl OpCost {
    /// One member's share of a cost counted over `z` members.
    pub(crate) fn per_member(self, z: usize) -> BlockCost {
        BlockCost {
            flops_per_member: self.flops / z as f64,
            bytes_per_member: self.bytes / z as f64,
        }
    }
}

/// Compute the cost of a primitive applied to `inputs` producing `outputs`.
pub fn prim_cost(
    prim: &Prim,
    inputs: &[&Tensor],
    outputs: &[Tensor],
    registry: &KernelRegistry,
) -> OpCost {
    let in_elems: usize = inputs.iter().map(|t| t.len()).max().unwrap_or(0);
    let out_elems: usize = outputs.iter().map(Tensor::len).max().unwrap_or(0);
    let work_elems = in_elems.max(out_elems);
    let bytes: f64 = (inputs.iter().copied())
        .chain(outputs)
        .map(|t| t.size_bytes() as f64)
        .sum();
    let (flops, parallel) = match prim {
        Prim::External(name) => {
            let rows = outputs.first().or(inputs.first().copied()).map_or(0, |t| {
                if t.rank() == 0 {
                    1
                } else {
                    t.shape()[0]
                }
            });
            let mut buf = Vec::new();
            let inputs = owned(inputs, &mut buf);
            match registry.get(name) {
                Ok(k) => (
                    k.flops_per_member(inputs) * rows as f64,
                    k.parallel_per_member(inputs) * rows,
                ),
                Err(_) => (0.0, work_elems),
            }
        }
        p => (p.flops_per_element() * work_elems as f64, work_elems),
    };
    OpCost {
        flops,
        bytes,
        parallel,
    }
}

/// The cost-model accumulator of one superstep (see the module docs).
#[derive(Debug)]
pub(crate) struct Pricing<'t> {
    trace: Option<&'t mut Trace>,
    /// One launch per block (`true`) or one per operation (eager).
    per_block: bool,
    /// Whether stack updates copy the buffer they touch.
    functional: bool,
    /// Batch width and active members of the superstep.
    z: usize,
    n_active: usize,
    /// The block launch accumulated so far (`per_block` only).
    cost: OpCost,
    random_bytes: f64,
    /// Flops and bytes of every primitive so far, when the superstep
    /// is [`Pricing::profiled`].
    profile: Option<OpCost>,
}

impl<'t> Pricing<'t> {
    /// Open a superstep over `z` members, `n_active` of them active,
    /// and record it.
    pub(crate) fn begin(trace: Option<&'t mut Trace>, z: usize, n_active: usize) -> Self {
        let mut p = Self::resume(trace, z, n_active);
        if let Some(t) = p.trace.as_deref_mut() {
            t.superstep();
        }
        p
    }

    /// [`Pricing::begin`] without recording a superstep: the rest of a
    /// block after a host call returned.
    pub(crate) fn resume(trace: Option<&'t mut Trace>, z: usize, n_active: usize) -> Self {
        let (per_block, functional) = trace.as_deref().map_or((false, false), |t| {
            (
                t.backend().mode != DispatchMode::Eager,
                t.functional_stack_updates(),
            )
        });
        Pricing {
            trace,
            per_block,
            functional,
            z,
            n_active,
            cost: OpCost::default(),
            random_bytes: 0.0,
            profile: None,
        }
    }

    /// Also measure the superstep for the host's mask-or-gather
    /// decision; read the result with [`Pricing::block_cost`].
    pub(crate) fn profiled(mut self) -> Self {
        self.profile = Some(OpCost::default());
        self
    }

    /// A member's share of what the primitives of a
    /// [`Pricing::profiled`] superstep cost, which ran masked over all
    /// `z` members.
    pub(crate) fn block_cost(&self) -> Option<BlockCost> {
        self.profile.map(|c| c.per_member(self.z))
    }

    /// Whether anybody wants to know what a primitive costs.
    fn is_off(&self) -> bool {
        self.trace.is_none() && self.profile.is_none()
    }

    fn profile(&mut self, flops: f64, bytes: f64) {
        if let Some(p) = &mut self.profile {
            p.flops += flops;
            p.bytes += bytes;
        }
    }

    /// Price a group of `rows` members that launches on its own
    /// whatever the dispatch mode, outside any superstep.
    pub(crate) fn per_op(trace: Option<&'t mut Trace>, rows: usize) -> Self {
        Pricing {
            per_block: false,
            ..Self::resume(trace, rows, rows)
        }
    }

    /// One primitive ran on `inputs` (already gathered to the active
    /// rows when `gathered`) and produced `results`.
    pub(crate) fn op(
        &mut self,
        prim: &Prim,
        inputs: &[&Tensor],
        results: &[Tensor],
        registry: &KernelRegistry,
        gathered: bool,
    ) {
        if self.is_off() {
            return;
        }
        let cost = prim_cost(prim, inputs, results, registry);
        self.profile(cost.flops, cost.bytes);
        let Some(t) = self.trace.as_deref_mut() else {
            return;
        };
        let rec = LaunchRecord {
            kernel: prim.kernel_tag(),
            flops: cost.flops,
            bytes: cost.bytes,
            // What was gathered and scattered is exactly what the
            // kernel streamed: its operands and results.
            random_bytes: if gathered { cost.bytes } else { 0.0 },
            parallel: cost.parallel,
            active_members: self.n_active,
            total_members: if gathered { self.n_active } else { self.z },
        };
        t.record_logical(&rec);
        self.launch_or_fold(rec);
    }

    /// One fused elementwise region ran as a single loop over
    /// `ran.rows` members and `ran.n` elements. Logical records stay one
    /// per op; the priced cost is a single launch whose memory traffic
    /// counts only the region's external inputs and materialized
    /// outputs — intermediates live in registers, which is exactly the
    /// saving a fusing compiler buys. A member-narrow op
    /// ([`Ran::def_wide`]) works over one element per member, exactly
    /// like its per-op evaluation would.
    pub(crate) fn region(&mut self, ran: &Ran<'_>, gathered: bool) {
        if self.is_off() {
            return;
        }
        let Ran {
            region,
            ext_bcast,
            def_wide,
            rows,
            n,
        } = *ran;
        let elem = 8.0; // f64 and i64 payloads are both 8 bytes
        let width = |wide: bool| if wide { n } else { rows };
        let mut flops_total = 0.0f64;
        for (op, &wide) in region.ops.iter().zip(def_wide) {
            let n_op = width(wide);
            let flops = op.prim.flops_per_element() * n_op as f64;
            flops_total += flops;
            let Some(t) = self.trace.as_deref_mut() else {
                continue;
            };
            let bytes = (op.n_ins + 1) as f64 * n_op as f64 * elem;
            t.record_logical(&LaunchRecord {
                kernel: op.prim.kernel_tag(),
                flops,
                bytes,
                random_bytes: if gathered { bytes } else { 0.0 },
                parallel: n_op,
                active_members: self.n_active,
                total_members: rows,
            });
        }
        let ext_bytes: f64 = ext_bcast.iter().map(|&b| width(!b) as f64 * elem).sum();
        let mat_bytes: f64 = region
            .mats
            .iter()
            .map(|&d| width(def_wide[d]) as f64 * elem)
            .sum();
        let bytes = ext_bytes + mat_bytes;
        self.profile(flops_total, bytes);
        self.launch_or_fold(LaunchRecord {
            kernel: &region.kernel_tag,
            flops: flops_total,
            bytes,
            random_bytes: if gathered { bytes } else { 0.0 },
            parallel: n,
            active_members: self.n_active,
            total_members: rows,
        });
    }

    /// A masked update of a cached stack top of `top_bytes`;
    /// `scattered_row_bytes` is a member's row when the update also
    /// scatters to storage (the uncached-top ablation), else 0.
    pub(crate) fn stack_update(&mut self, top_bytes: usize, scattered_row_bytes: usize) {
        self.stack(top_bytes, scattered_row_bytes, false);
    }

    /// A push of one `row_bytes` frame per active member onto a
    /// `[Z, D, ..]` store of `store_bytes`.
    pub(crate) fn stack_push(&mut self, store_bytes: usize, row_bytes: usize) {
        self.stack(store_bytes, row_bytes, false);
    }

    /// The pop that mirrors [`Pricing::stack_push`].
    pub(crate) fn stack_pop(&mut self, store_bytes: usize, row_bytes: usize) {
        self.stack(store_bytes, row_bytes, true);
    }

    /// A read of a stacked operand whose top is not cached.
    pub(crate) fn uncached_read(&mut self, row_bytes: usize) {
        self.stack(0, row_bytes, true);
    }

    /// A push or pop of the `[depth_limit, Z]` pc stack.
    pub(crate) fn pc_stack(&mut self, depth_limit: usize) {
        self.stack(depth_limit * self.z * 8, 8, true);
    }

    /// Stack traffic: `row_bytes` moved per active member, plus the
    /// functional copy of the `buffer_bytes` buffer written to.
    fn stack(&mut self, buffer_bytes: usize, row_bytes: usize, launch_when_free: bool) {
        let Some(t) = self.trace.as_deref_mut() else {
            return;
        };
        let copy = if self.functional {
            2.0 * buffer_bytes as f64
        } else {
            0.0
        };
        let bytes = copy + (row_bytes * self.n_active) as f64;
        if self.per_block {
            // Traffic only: a stack operation adds no parallelism.
            self.random_bytes += bytes;
        } else if launch_when_free || bytes > 0.0 {
            t.launch(&LaunchRecord {
                kernel: "stack",
                flops: 0.0,
                bytes: 0.0,
                random_bytes: bytes,
                parallel: self.n_active.max(1),
                active_members: self.n_active,
                total_members: self.z,
            });
        }
    }

    /// Price `rec` as its own launch (eager) or fold it into the block's.
    fn launch_or_fold(&mut self, rec: LaunchRecord<'_>) {
        let Some(t) = self.trace.as_deref_mut() else {
            return;
        };
        if self.per_block {
            self.cost.flops += rec.flops;
            self.cost.bytes += rec.bytes;
            self.cost.parallel = self.cost.parallel.max(rec.parallel);
            self.random_bytes += rec.random_bytes;
        } else {
            t.launch(&rec);
        }
    }

    /// Close a program-counter superstep: the block's one launch.
    pub(crate) fn end_block(self, tag: &str) {
        if let (true, Some(t)) = (self.per_block, self.trace) {
            t.launch(&LaunchRecord {
                kernel: tag,
                flops: self.cost.flops,
                bytes: self.cost.bytes,
                random_bytes: self.random_bytes,
                parallel: self.cost.parallel.max(1),
                active_members: self.n_active,
                total_members: self.z,
            });
        }
    }

    /// Close a straight-line segment of a local-static block (before a
    /// host call, and at the block's end): one launch if any primitive
    /// ran in it.
    pub(crate) fn end_segment(self, tag: &str) {
        if let (true, Some(t)) = (self.per_block && self.cost.parallel > 0, self.trace) {
            t.launch(&LaunchRecord {
                kernel: tag,
                flops: self.cost.flops,
                bytes: self.cost.bytes,
                random_bytes: 0.0,
                parallel: self.cost.parallel,
                active_members: self.n_active,
                total_members: self.z,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    use autobatch_accel::Backend;
    use autobatch_ir::build::ProgramBuilder;
    use autobatch_ir::{Arity, Var};

    use super::*;
    use crate::kernels::ExternalKernel;
    use crate::{lower, ExecOptions, ExecStrategy, LocalStaticVm, LoweringOptions, PcMachine};

    /// Halves its input, counting evaluations and cost-model queries.
    #[derive(Debug, Default)]
    struct Halve {
        evals: AtomicUsize,
        priced: AtomicUsize,
    }

    impl ExternalKernel for Halve {
        fn arity(&self) -> Arity {
            Arity { ins: 1, outs: 1 }
        }
        fn eval(&self, inputs: &[Tensor]) -> autobatch_tensor::Result<Vec<Tensor>> {
            self.evals.fetch_add(1, Ordering::Relaxed);
            Ok(vec![inputs[0].mul(&Tensor::scalar(0.5))?])
        }
        fn flops_per_member(&self, _: &[Tensor]) -> f64 {
            self.priced.fetch_add(1, Ordering::Relaxed);
            1.0
        }
        fn parallel_per_member(&self, _: &[Tensor]) -> usize {
            self.priced.fetch_add(1, Ordering::Relaxed);
            1
        }
    }

    /// The cost model runs only where a trace is attached: under a fixed
    /// strategy an untraced run never asks a kernel what it costs and a
    /// traced one asks once per evaluation (one flops and one
    /// parallelism query).
    /// `Adaptive` asks once more per primitive it has not seen — this
    /// program has one external call site — and never again, traced or
    /// not; every run computes the same bits.
    #[test]
    fn an_untraced_run_prices_nothing() {
        // n = number of halvings until x <= 1: divergent trip counts.
        let mut pb = ProgramBuilder::new();
        let f = pb.declare("halvings", &["x0"], &["n"]);
        pb.define(f, |fb| {
            let (x, n) = (Var::new("x"), fb.output(0));
            fb.copy(&x, &fb.param(0));
            let zero = fb.const_i64(0);
            fb.copy(&n, &zero);
            fb.while_loop(
                |fb| {
                    let one = fb.const_f64(1.0);
                    fb.emit(Prim::Gt, &[Var::new("x"), one])
                },
                |fb| {
                    fb.assign(&Var::new("x"), Prim::external("halve"), &[Var::new("x")]);
                    let one = fb.const_i64(1);
                    fb.assign(&fb.output(0), Prim::Add, &[fb.output(0), one]);
                },
            );
            fb.ret();
        });
        let program = pb.finish(f).unwrap();
        let (lowered, _) = lower(&program, LoweringOptions::default()).unwrap();
        let kernel = Arc::new(Halve::default());
        let mut registry = KernelRegistry::new();
        registry.register("halve", kernel.clone());
        let x0 = Tensor::from_f64(&[9.0, 1.5, 40.0, 0.5], &[4]).unwrap();
        let counts = || {
            (
                kernel.evals.swap(0, Ordering::Relaxed),
                kernel.priced.swap(0, Ordering::Relaxed),
            )
        };

        for (strategy, profiling) in [
            (ExecStrategy::Masking, 0),
            (ExecStrategy::GatherScatter, 0),
            (ExecStrategy::Adaptive, 2),
        ] {
            let opts = ExecOptions {
                strategy,
                ..ExecOptions::default()
            };
            let vm = LocalStaticVm::new(&program, registry.clone(), opts);
            let run_machine = |trace: Option<&mut Trace>| {
                let mut m = PcMachine::new(&lowered, registry.clone(), opts);
                for b in 0..4 {
                    m.admit(&[x0.gather_rows(&[b]).unwrap()], b as u64, None)
                        .unwrap();
                }
                let mut done = m.run_to_completion(trace).unwrap();
                done.sort_by_key(|r| r.ticket);
                let rows: Vec<Tensor> = done.into_iter().map(|r| r.outputs[0].clone()).collect();
                Tensor::concat_rows(&rows).unwrap()
            };

            let plain = vm.run(std::slice::from_ref(&x0), None).unwrap();
            assert_eq!(plain[0].as_i64().unwrap(), &[4, 1, 6, 0]);
            let (evals, priced) = counts();
            assert!(evals > 0);
            assert_eq!(priced, profiling, "untraced LocalStaticVm, {strategy:?}");
            let mut trace = Trace::new(Backend::hybrid_cpu());
            let traced = vm.run(std::slice::from_ref(&x0), Some(&mut trace)).unwrap();
            assert_eq!(traced, plain);
            assert_eq!(counts(), (evals, 2 * evals + profiling), "{strategy:?}");

            let plain = run_machine(None);
            assert_eq!(plain.as_i64().unwrap(), &[4, 1, 6, 0]);
            let (evals, priced) = counts();
            assert!(evals > 0);
            assert_eq!(priced, profiling, "untraced PcMachine, {strategy:?}");
            // The machine's profiling superstep shares the trace's query.
            let mut trace = Trace::new(Backend::hybrid_cpu());
            assert_eq!(run_machine(Some(&mut trace)), plain);
            assert_eq!(counts(), (evals, 2 * evals), "{strategy:?}");
            assert_eq!(trace.useful_count("halve"), 11, "4 + 1 + 6 halvings");
        }
    }
}
