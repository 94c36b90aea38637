//! Dynamic (on-the-fly) batching — the related-work baseline (paper §5).
//!
//! The paper contrasts its two *static* autobatching strategies with
//! *dynamic batching*, exemplified by DyNet's on-the-fly operation
//! batching (Neubig et al., 2017) and TensorFlow Fold (Looks et al.,
//! 2017): "the runtime performs batching dynamically, by running parallel
//! evaluations of the user program against a scheduler that manages the
//! execution and batches opportunistically."
//!
//! [`DynamicVm`] implements that architecture over the same [`lsab`] CFG
//! language the static runtimes consume, so the three strategies are
//! directly comparable on identical programs:
//!
//! - every batch member runs as its own *logical thread*, an ordinary
//!   (host-recursive) single-example interpreter holding 1-row tensors;
//! - a thread suspends whenever it is about to execute a [`Op::Prim`],
//!   posting the op to the scheduler's agenda;
//! - each scheduling round, the agenda is grouped by *kernel signature*
//!   (primitive plus operand dtypes/element shapes); groups execute as
//!   single batched kernel launches and the results are scattered back
//!   to the waiting threads. Which groups launch each round is the
//!   [`DynSchedule`] policy: all of them (depth-based batching) or only
//!   the largest, letting smaller cohorts accumulate members across
//!   rounds (agenda-based batching, the default).
//!
//! Because grouping keys on the signature rather than the program point,
//! dynamic batching can batch threads sitting at *different* syntactic
//! locations (and different recursion depths) whenever they happen to
//! need the same kernel in the same round — more batching power than
//! local static autobatching, without any compile-time analysis. The
//! price, as §5 notes, is runtime overhead: every round the scheduler
//! re-derives the batching schedule from the live agenda, which this
//! implementation charges to the host via
//! [`Trace::add_host_time`](autobatch_accel::Trace::add_host_time).
//!
//! Control flow (jumps, branches, calls, returns) happens inside each
//! logical thread on the host, exactly as DyNet leaves Python control
//! flow to Python — so, like local static autobatching and unlike
//! program-counter autobatching, this runtime is unusable under a
//! graph-compiled/XLA execution model.

use std::collections::BTreeMap;

use autobatch_accel::Trace;
use autobatch_ir::lsab::{Op, Program, Terminator};
use autobatch_ir::{Prim, Var};
use autobatch_tensor::{CounterRng, Tensor};

use crate::batch::{batch_size, lookup};
use crate::error::{Result, VmError};
use crate::kernels::{eval_prim, KernelRegistry};
use crate::options::{DynSchedule, ExecOptions};
use crate::pricing::Pricing;

/// Host-side scheduler cost per agenda entry per round, seconds.
///
/// Models the per-node agenda maintenance of on-the-fly batchers (DyNet
/// reports microsecond-scale per-node costs); only affects priced traces,
/// never results.
const SCHED_SECONDS_PER_ENTRY: f64 = 2e-6;

/// The dynamic-batching virtual machine.
///
/// # Examples
///
/// ```
/// use autobatch_core::{DynamicVm, ExecOptions, KernelRegistry};
/// use autobatch_ir::build::fibonacci_program;
/// use autobatch_tensor::Tensor;
///
/// let program = fibonacci_program();
/// let vm = DynamicVm::new(&program, KernelRegistry::new(), ExecOptions::default());
/// let out = vm.run(&[Tensor::from_i64(&[3, 7, 4, 5], &[4])?], None)?;
/// assert_eq!(out[0].as_i64()?, &[3, 21, 5, 8]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct DynamicVm<'p> {
    program: &'p Program,
    registry: KernelRegistry,
    opts: ExecOptions,
}

/// One call frame of a logical thread.
#[derive(Debug)]
struct Frame {
    func: usize,
    block: usize,
    op: usize,
    env: BTreeMap<Var, Tensor>,
    /// Output variables of an in-flight call launched from this frame.
    call_outs: Option<Vec<Var>>,
}

/// A suspended primitive, waiting on the agenda.
#[derive(Debug)]
struct PrimRequest {
    prim: Prim,
    ins: Vec<Tensor>,
    outs: Vec<Var>,
}

/// One batch member's logical thread.
#[derive(Debug)]
struct Thread {
    member: u64,
    frames: Vec<Frame>,
    pending: Option<PrimRequest>,
    result: Option<Vec<Tensor>>,
}

/// What a thread does when advanced.
enum Advance {
    Suspended,
    Finished,
}

impl<'p> DynamicVm<'p> {
    /// Create a VM for `program` with the given kernels and options.
    ///
    /// Of [`ExecOptions`], this runtime honours `seed`, `max_supersteps`
    /// (bounding scheduling rounds) and `max_host_depth` (bounding each
    /// thread's call stack); the static strategies' knobs (masking vs
    /// gather/scatter, block heuristic, stack depth) do not apply —
    /// dynamic batching never masks and keeps no materialized stacks.
    pub fn new(program: &'p Program, registry: KernelRegistry, opts: ExecOptions) -> Self {
        DynamicVm {
            program,
            registry,
            opts,
        }
    }

    /// The program this VM executes.
    pub fn program(&self) -> &Program {
        self.program
    }

    /// Run the batch. `inputs` carries one tensor per entry-function
    /// parameter, each with identical axis-0 length (the batch size).
    ///
    /// # Errors
    ///
    /// Returns kernel errors from user data, [`VmError::StepLimit`] if the
    /// scheduling-round limit is exceeded, or
    /// [`VmError::HostRecursionLimit`] on runaway recursion in any thread.
    pub fn run(&self, inputs: &[Tensor], mut trace: Option<&mut Trace>) -> Result<Vec<Tensor>> {
        let entry = self.program.entry_func()?;
        if inputs.len() != entry.params.len() {
            return Err(VmError::BadInputs {
                what: format!(
                    "entry `{}` expects {} inputs, got {}",
                    entry.name,
                    entry.params.len(),
                    inputs.len()
                ),
            });
        }
        let z = batch_size(inputs)?;
        let rng = CounterRng::new(self.opts.seed);

        // Spawn one logical thread per batch member, each seeing 1-row
        // views of the inputs.
        let mut threads: Vec<Thread> = (0..z)
            .map(|b| {
                let mut env = BTreeMap::new();
                for (p, t) in entry.params.iter().zip(inputs) {
                    env.insert(p.clone(), t.gather_rows(&[b])?);
                }
                Ok(Thread {
                    member: b as u64,
                    frames: vec![Frame {
                        func: self.program.entry.0,
                        block: 0,
                        op: 0,
                        env,
                        call_outs: None,
                    }],
                    pending: None,
                    result: None,
                })
            })
            .collect::<Result<_>>()?;

        let mut rounds: u64 = 0;
        loop {
            // Advance every runnable thread to its next suspension point.
            for th in &mut threads {
                if th.result.is_none() && th.pending.is_none() {
                    self.advance(th)?;
                }
            }

            // Group the agenda by kernel signature. BTreeMap keeps group
            // execution order deterministic.
            let mut agenda: BTreeMap<String, Vec<usize>> = BTreeMap::new();
            let mut entries = 0usize;
            for (ti, th) in threads.iter().enumerate() {
                if let Some(req) = &th.pending {
                    agenda
                        .entry(signature(&req.prim, &req.ins))
                        .or_default()
                        .push(ti);
                    entries += 1;
                }
            }
            if entries == 0 {
                // Every thread ran to completion: nothing left to batch.
                break;
            }
            rounds += 1;
            if rounds > self.opts.max_supersteps {
                return Err(VmError::StepLimit {
                    limit: self.opts.max_supersteps,
                });
            }
            if let Some(t) = trace.as_deref_mut() {
                // The dynamic scheduler re-derives the batching schedule
                // from the live agenda every round (paper §5's "more
                // runtime overhead"). Unlike the static runtimes, no
                // superstep is recorded: there is no mask bookkeeping,
                // only this agenda scan.
                t.add_host_time(entries as f64 * SCHED_SECONDS_PER_ENTRY);
            }

            match self.opts.dyn_schedule {
                DynSchedule::Breadth => {
                    for (_, members) in agenda {
                        self.execute_group(&members, &mut threads, &rng, trace.as_deref_mut())?;
                    }
                }
                DynSchedule::Agenda => {
                    // Launch only the largest cohort; everyone else keeps
                    // waiting, so matching threads arriving in later
                    // rounds can join their group.
                    let (_, members) = agenda
                        .into_iter()
                        .max_by(|(ka, a), (kb, b)| a.len().cmp(&b.len()).then(kb.cmp(ka)))
                        .expect("agenda is nonempty");
                    self.execute_group(&members, &mut threads, &rng, trace.as_deref_mut())?;
                }
            }
        }

        // Stitch per-member results back into batch order.
        let n_outs = entry.outputs.len();
        let mut outputs = Vec::with_capacity(n_outs);
        for o in 0..n_outs {
            let rows: Vec<Tensor> = threads
                .iter()
                .map(|th| th.result.as_ref().expect("all threads finished")[o].clone())
                .collect();
            outputs.push(Tensor::concat_rows(&rows)?);
        }
        Ok(outputs)
    }

    /// Run one logical thread until it suspends on a primitive or
    /// finishes. Control flow is pure host work, as in DyNet. Bounded by
    /// `max_supersteps` control transitions so a primitive-free infinite
    /// loop (which never reaches the scheduler) still terminates with
    /// [`VmError::StepLimit`].
    fn advance(&self, th: &mut Thread) -> Result<Advance> {
        let mut control_steps: u64 = 0;
        loop {
            control_steps += 1;
            if control_steps > self.opts.max_supersteps {
                return Err(VmError::StepLimit {
                    limit: self.opts.max_supersteps,
                });
            }
            let Some(frame) = th.frames.last_mut() else {
                return Ok(Advance::Finished);
            };
            let f = &self.program.funcs[frame.func];
            let block = &f.blocks[frame.block];
            if frame.op < block.ops.len() {
                match &block.ops[frame.op] {
                    Op::Prim { outs, prim, ins } => {
                        let ins = ins
                            .iter()
                            .map(|v| lookup(frame.env.get(v), v, &f.name).cloned())
                            .collect::<Result<Vec<_>>>()?;
                        th.pending = Some(PrimRequest {
                            prim: prim.clone(),
                            ins,
                            outs: outs.clone(),
                        });
                        return Ok(Advance::Suspended);
                    }
                    Op::Call { outs, callee, ins } => {
                        let g = &self.program.funcs[callee.0];
                        let mut env = BTreeMap::new();
                        for (p, a) in g.params.iter().zip(ins) {
                            env.insert(p.clone(), lookup(frame.env.get(a), a, &f.name)?.clone());
                        }
                        frame.call_outs = Some(outs.clone());
                        if th.frames.len() >= self.opts.max_host_depth {
                            return Err(VmError::HostRecursionLimit {
                                limit: self.opts.max_host_depth,
                            });
                        }
                        th.frames.push(Frame {
                            func: callee.0,
                            block: 0,
                            op: 0,
                            env,
                            call_outs: None,
                        });
                    }
                }
            } else {
                match &block.term {
                    Terminator::Jump(t) => {
                        frame.block = t.0;
                        frame.op = 0;
                    }
                    Terminator::Branch { cond, then_, else_ } => {
                        let c = lookup(frame.env.get(cond), cond, &f.name)?;
                        let taken = c.as_bool()?[0];
                        frame.block = if taken { then_.0 } else { else_.0 };
                        frame.op = 0;
                    }
                    Terminator::Return => {
                        let rets: Vec<Tensor> = f
                            .outputs
                            .iter()
                            .map(|o| lookup(frame.env.get(o), o, &f.name).cloned())
                            .collect::<Result<_>>()?;
                        th.frames.pop();
                        match th.frames.last_mut() {
                            Some(caller) => {
                                let outs = caller
                                    .call_outs
                                    .take()
                                    .expect("returning into a frame with an in-flight call");
                                for (o, r) in outs.iter().zip(rets) {
                                    caller.env.insert(o.clone(), r);
                                }
                                caller.op += 1;
                            }
                            None => {
                                th.result = Some(rets);
                                return Ok(Advance::Finished);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Launch one signature group as a single batched kernel, then
    /// scatter the results back to the suspended threads.
    fn execute_group(
        &self,
        members: &[usize],
        threads: &mut [Thread],
        rng: &CounterRng,
        trace: Option<&mut Trace>,
    ) -> Result<()> {
        let first = threads[members[0]]
            .pending
            .as_ref()
            .expect("agenda entries are pending");
        let prim = first.prim.clone();
        let n_ins = first.ins.len();

        // Stack each operand position across the group.
        let mut stacked = Vec::with_capacity(n_ins);
        for i in 0..n_ins {
            let rows: Vec<Tensor> = members
                .iter()
                .map(|&ti| threads[ti].pending.as_ref().expect("pending").ins[i].clone())
                .collect();
            stacked.push(Tensor::concat_rows(&rows)?);
        }
        let stacked: Vec<&Tensor> = stacked.iter().collect();
        let ids: Vec<u64> = members.iter().map(|&ti| threads[ti].member).collect();
        let (mut spare, mut results) = (Vec::new(), Vec::new());
        eval_prim(
            &prim,
            &stacked,
            &ids,
            rng,
            &self.registry,
            &mut spare,
            &mut results,
        )?;

        Pricing::per_op(trace, members.len()).op(&prim, &stacked, &results, &self.registry, false);

        // Scatter row r of each result to group member r.
        for (r, &ti) in members.iter().enumerate() {
            let th = &mut threads[ti];
            let req = th.pending.take().expect("pending");
            let frame = th.frames.last_mut().expect("suspended thread has a frame");
            for (o, res) in req.outs.iter().zip(&results) {
                frame.env.insert(o.clone(), res.gather_rows(&[r])?);
            }
            frame.op += 1;
        }
        Ok(())
    }
}

/// The scheduler's grouping key: primitive identity (including any
/// constant payloads) plus operand dtypes and per-member element shapes.
/// Two threads share a key exactly when one batched launch computes both
/// correctly.
fn signature(prim: &Prim, ins: &[Tensor]) -> String {
    use std::fmt::Write;
    let mut s = format!("{prim:?}");
    for t in ins {
        let _ = write!(s, "|{:?}{:?}", t.dtype(), &t.shape()[1..]);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lsab_vm::LocalStaticVm;
    use autobatch_accel::Backend;
    use autobatch_ir::build::{fibonacci_program, ProgramBuilder};
    use autobatch_ir::Prim;

    fn opts() -> ExecOptions {
        ExecOptions::default()
    }

    #[test]
    fn fibonacci_matches_reference() {
        let p = fibonacci_program();
        let vm = DynamicVm::new(&p, KernelRegistry::new(), opts());
        let out = vm
            .run(
                &[Tensor::from_i64(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10], &[11]).unwrap()],
                None,
            )
            .unwrap();
        assert_eq!(
            out[0].as_i64().unwrap(),
            &[1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
        );
    }

    #[test]
    fn agrees_with_local_static_on_divergent_loop() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare("sum_below", &["n"], &["acc"]);
        pb.define(f, |fb| {
            let zero = fb.const_i64(0);
            let i = Var::new("i");
            fb.copy(&i, &zero);
            fb.copy(&fb.output(0), &zero);
            fb.while_loop(
                |fb| fb.emit(Prim::Lt, &[Var::new("i"), fb.param(0)]),
                |fb| {
                    fb.assign(&fb.output(0), Prim::Add, &[fb.output(0), Var::new("i")]);
                    let one = fb.const_i64(1);
                    fb.assign(&Var::new("i"), Prim::Add, &[Var::new("i"), one]);
                },
            );
            fb.ret();
        });
        let p = pb.finish(f).unwrap();
        let inputs = vec![Tensor::from_i64(&[0, 3, 11, 7], &[4]).unwrap()];
        let dynamic = DynamicVm::new(&p, KernelRegistry::new(), opts())
            .run(&inputs, None)
            .unwrap();
        let local = LocalStaticVm::new(&p, KernelRegistry::new(), opts())
            .run(&inputs, None)
            .unwrap();
        assert_eq!(dynamic, local);
    }

    #[test]
    fn rng_draws_match_static_runtimes_bitwise() {
        // seed and member-id addressing make the strategies agree exactly.
        let mut pb = ProgramBuilder::new();
        let f = pb.declare("draw2", &["c0"], &["total"]);
        pb.define(f, |fb| {
            let (u1, c1) = (Var::new("u1"), Var::new("c1"));
            let (u2, c2) = (Var::new("u2"), Var::new("c2"));
            fb.assign_multi(&[u1.clone(), c1.clone()], Prim::RandUniform, &[fb.param(0)]);
            fb.assign_multi(&[u2.clone(), c2.clone()], Prim::RandUniform, &[c1]);
            fb.assign(&fb.output(0), Prim::Add, &[u1, u2]);
            fb.ret();
        });
        let p = pb.finish(f).unwrap();
        let inputs = vec![Tensor::from_i64(&[0, 0, 0], &[3]).unwrap()];
        let o = ExecOptions {
            seed: 42,
            ..ExecOptions::default()
        };
        let dynamic = DynamicVm::new(&p, KernelRegistry::new(), o)
            .run(&inputs, None)
            .unwrap();
        let local = LocalStaticVm::new(&p, KernelRegistry::new(), o)
            .run(&inputs, None)
            .unwrap();
        assert_eq!(dynamic, local);
    }

    #[test]
    fn batches_across_recursion_depths() {
        // Two members entering fibonacci at different depths still share
        // kernel launches: with Z = 2 some launch must batch both while
        // their call stacks differ — something LSAB can never do. Every
        // launch runs only the members it batched, so some kernel counts
        // more active members than launches.
        let p = fibonacci_program();
        let vm = DynamicVm::new(&p, KernelRegistry::new(), opts());
        let mut tr = Trace::new(Backend::eager_cpu());
        vm.run(&[Tensor::from_i64(&[8, 5], &[2]).unwrap()], Some(&mut tr))
            .unwrap();
        assert!(
            tr.kernels().any(|(_, k)| k.active_members > k.launches),
            "scheduler batched divergent members"
        );
    }

    #[test]
    fn trace_records_full_occupancy_launches_and_host_time() {
        let p = fibonacci_program();
        let vm = DynamicVm::new(&p, KernelRegistry::new(), opts());
        let mut tr = Trace::new(Backend::eager_cpu());
        vm.run(&[Tensor::from_i64(&[5, 6], &[2]).unwrap()], Some(&mut tr))
            .unwrap();
        assert!(tr.launches() > 0);
        // Dynamic batching has no mask-bookkeeping supersteps — its host
        // cost is the agenda scan, charged as raw host time.
        assert_eq!(tr.supersteps(), 0);
        // Dynamic batching never masks: every launch is fully occupied.
        let add = tr.kernel_stats("add").expect("add kernels launched");
        assert_eq!(add.active_members, add.total_members);
        assert!(tr.sim_time() > 0.0);
    }

    #[test]
    fn agenda_schedule_batches_no_worse_than_breadth() {
        // The agenda policy lets out-of-phase threads coalesce; on a
        // divergent recursive workload it needs at most as many launches
        // as depth-synchronous breadth scheduling.
        let p = fibonacci_program();
        let inputs = vec![Tensor::from_i64(&[4, 9, 6, 11], &[4]).unwrap()];
        let launches = |schedule: DynSchedule| {
            let mut o = opts();
            o.dyn_schedule = schedule;
            let vm = DynamicVm::new(&p, KernelRegistry::new(), o);
            let mut tr = Trace::new(Backend::eager_cpu());
            let out = vm.run(&inputs, Some(&mut tr)).unwrap();
            (tr.launches(), out)
        };
        let (agenda, out_a) = launches(DynSchedule::Agenda);
        let (breadth, out_b) = launches(DynSchedule::Breadth);
        assert_eq!(out_a, out_b, "schedules agree on results");
        assert!(
            agenda <= breadth,
            "agenda {agenda} vs breadth {breadth} launches"
        );
    }

    #[test]
    fn const_payloads_are_not_conflated() {
        // ConstI64(1) and ConstI64(2) share a kernel tag but must not
        // share a launch group; the signature keys on the payload.
        let mut pb = ProgramBuilder::new();
        let f = pb.declare("mix", &["n"], &["r"]);
        pb.define(f, |fb| {
            let one = fb.const_i64(1);
            let two = fb.const_i64(2);
            // r = n*0 + (cond ? 1 : 2), cond = n > 0
            let zero = fb.const_i64(0);
            let cond = fb.emit(Prim::Gt, &[fb.param(0), zero]);
            let sel = fb.emit(Prim::Select, &[cond, one, two]);
            fb.copy(&fb.output(0), &sel);
            fb.ret();
        });
        let p = pb.finish(f).unwrap();
        let vm = DynamicVm::new(&p, KernelRegistry::new(), opts());
        let out = vm
            .run(&[Tensor::from_i64(&[5, -5], &[2]).unwrap()], None)
            .unwrap();
        assert_eq!(out[0].as_i64().unwrap(), &[1, 2]);
    }

    #[test]
    fn recursion_limit_guards_runaway_threads() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare("loop", &["n"], &["r"]);
        pb.define(f, |fb| {
            let one = fb.const_i64(1);
            let m = fb.emit(Prim::Add, &[fb.param(0), one]);
            let r = fb.call(f, &[m], 1);
            fb.copy(&fb.output(0), &r[0]);
            fb.ret();
        });
        let p = pb.finish(f).unwrap();
        let mut o = opts();
        o.max_host_depth = 8;
        let vm = DynamicVm::new(&p, KernelRegistry::new(), o);
        assert!(matches!(
            vm.run(&[Tensor::from_i64(&[0], &[1]).unwrap()], None),
            Err(VmError::HostRecursionLimit { .. })
        ));
    }

    #[test]
    fn wrong_input_arity_is_error() {
        let p = fibonacci_program();
        let vm = DynamicVm::new(&p, KernelRegistry::new(), opts());
        assert!(matches!(vm.run(&[], None), Err(VmError::BadInputs { .. })));
    }

    #[test]
    fn primitive_free_infinite_loop_hits_step_limit() {
        // A hand-built CFG whose loop body contains no primitives at all:
        // the thread never reaches the scheduler, so termination relies
        // on the control-transition budget inside `advance`.
        use autobatch_ir::lsab::{Block, Function, Program, Terminator};
        use autobatch_ir::{BlockId, FuncId};
        let p = Program {
            funcs: vec![Function {
                name: "spin".into(),
                params: vec![Var::new("c")],
                blocks: vec![
                    Block {
                        ops: vec![],
                        term: Terminator::Branch {
                            cond: Var::new("c"),
                            then_: BlockId(0),
                            else_: BlockId(1),
                        },
                    },
                    Block {
                        ops: vec![],
                        term: Terminator::Return,
                    },
                ],
                outputs: vec![Var::new("c")],
            }],
            entry: FuncId(0),
        };
        p.validate().unwrap();
        let mut o = opts();
        o.max_supersteps = 1000;
        let vm = DynamicVm::new(&p, KernelRegistry::new(), o);
        assert!(matches!(
            vm.run(&[Tensor::from_bool(&[true], &[1]).unwrap()], None),
            Err(VmError::StepLimit { .. })
        ));
    }
}
