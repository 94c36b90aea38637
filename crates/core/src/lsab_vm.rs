//! The local static autobatching runtime (paper §2, Algorithm 1).
//!
//! A nonstandard masked interpretation of the [`lsab`] CFG language: the
//! runtime keeps, per function invocation, an *active set* of batch
//! members and a per-member *program counter* (a basic-block index). Each
//! superstep it selects a block with at least one active member, executes
//! its ops batched, and updates only the locally active members' state
//! and program counters. Recursive calls are carried out by the host
//! language — Rust here, Python in the paper — so logical threads at
//! different host stack depths can never batch together, and the runtime
//! itself is recursive.

use std::collections::BTreeMap;

use autobatch_accel::Trace;
use autobatch_ir::lsab::{Op, Program, Terminator};
use autobatch_ir::{FuncId, Prim, Var};
use autobatch_tensor::{CounterRng, Tensor};

use crate::batch::{batch_size, land, lookup, select_block, Lanes};
use crate::error::{Result, VmError};
use crate::kernels::{eval_prim, KernelRegistry};
use crate::options::{BlockCost, ExecOptions};
use crate::pricing::{prim_cost, Pricing};

/// A snapshot handed to an observer after every superstep, carrying the
/// information displayed in the paper's Figure 1.
#[derive(Debug)]
pub struct LsabObservation<'a> {
    /// Name of the function whose block just ran.
    pub func: &'a str,
    /// The block that ran.
    pub block: usize,
    /// Host (Rust) recursion depth of the running function invocation.
    pub host_depth: usize,
    /// Which members were locally active in this superstep.
    pub locally_active: &'a [bool],
    /// Per-member program counters within this invocation (`== block
    /// count` means returned).
    pub pc: &'a [usize],
}

/// Callback invoked after every superstep.
pub type LsabObserver<'o> = dyn FnMut(&LsabObservation<'_>) + 'o;

/// The local static autobatching virtual machine.
///
/// # Examples
///
/// ```
/// use autobatch_core::{KernelRegistry, LocalStaticVm, ExecOptions};
/// use autobatch_ir::build::fibonacci_program;
/// use autobatch_tensor::Tensor;
///
/// let program = fibonacci_program();
/// let vm = LocalStaticVm::new(&program, KernelRegistry::new(), ExecOptions::default());
/// let inputs = vec![Tensor::from_i64(&[3, 7, 4, 5], &[4])?];
/// let out = vm.run(&inputs, None)?;
/// assert_eq!(out[0].as_i64()?, &[3, 21, 5, 8]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct LocalStaticVm<'p> {
    program: &'p Program,
    registry: KernelRegistry,
    opts: ExecOptions,
    /// The counter-based generator every draw goes through.
    rng: CounterRng,
    /// Kernel tag of each block's launches, `block:{fn}:{i}`, by
    /// function and block.
    block_tags: Vec<Vec<String>>,
}

struct Ctx<'a, 'o> {
    trace: Option<&'a mut Trace>,
    observer: Option<&'a mut LsabObserver<'o>>,
    steps: u64,
    /// By function, block and op, what a member's share of the
    /// primitive costs: measured on its first execution under
    /// `ExecStrategy::Adaptive`, which runs masked.
    op_costs: Vec<Vec<Vec<Option<BlockCost>>>>,
}

/// Algorithm 1's state of one function invocation over `Z` members:
/// the environment, the per-member program counters, and the buffers
/// its supersteps refill — allocated once per invocation (the
/// host-recursive runtime cannot share one arena across invocations the
/// way the program-counter machine does, but the inner loop stays
/// allocation-free).
struct Invocation {
    /// Full-width `[Z, elem..]` value of every variable written so far.
    env: BTreeMap<Var, Option<Tensor>>,
    pc: Vec<usize>,
    /// The locally active set A' of the current superstep: the members
    /// of the invocation's active set waiting at its block.
    local: Vec<bool>,
    local_idx: Vec<usize>,
    /// Lent to the block-selection heuristic.
    counts: Vec<usize>,
}

impl Invocation {
    fn read(&self, v: &Var, context: &str) -> Result<Tensor> {
        lookup(self.env.get(v).and_then(Option::as_ref), v, context).cloned()
    }

    /// Write `value` for the locally active members: full width under
    /// their mask, or — `gathered` — one row for each of them.
    fn write(&mut self, var: &Var, value: Tensor, gathered: bool) -> Result<()> {
        let lanes = Lanes {
            active: &self.local,
            idx: gathered.then_some(&self.local_idx),
        };
        land(self.env.entry(var.clone()).or_default(), &value, lanes)
    }

    /// Execute one primitive under the configured strategy. `cost` is
    /// the primitive's entry in [`Ctx::op_costs`].
    fn exec_prim(
        &mut self,
        vm: &LocalStaticVm<'_>,
        pricing: &mut Pricing<'_>,
        prim: &Prim,
        outs: &[Var],
        ins: &[Var],
        cost: &mut Option<BlockCost>,
    ) -> Result<()> {
        let z = self.local.len();
        let gather = vm.opts.strategy.gathers(*cost, self.local_idx.len(), z);
        let mut inputs = Vec::with_capacity(ins.len());
        for v in ins {
            let t = self.read(v, "prim")?;
            inputs.push(if gather {
                t.gather_rows(&self.local_idx)?
            } else {
                t
            });
        }
        let members: Vec<u64> = if gather {
            self.local_idx.iter().map(|&b| b as u64).collect()
        } else {
            (0..z as u64).collect()
        };
        let inputs: Vec<&Tensor> = inputs.iter().collect();
        let mut results = Vec::with_capacity(outs.len());
        eval_prim(
            prim,
            &inputs,
            &members,
            &vm.rng,
            &vm.registry,
            &mut Vec::new(),
            &mut results,
        )?;
        pricing.op(prim, &inputs, &results, &vm.registry, gather);
        if vm.opts.strategy.measures(*cost) {
            *cost = Some(prim_cost(prim, &inputs, &results, &vm.registry).per_member(z));
        }
        for (o, r) in outs.iter().zip(results) {
            self.write(o, r, gather)?;
        }
        Ok(())
    }
}

impl<'p> LocalStaticVm<'p> {
    /// Create a VM for `program` with the given kernels and options.
    pub fn new(program: &'p Program, registry: KernelRegistry, opts: ExecOptions) -> Self {
        let block_tags = program
            .funcs
            .iter()
            .map(|f| {
                (0..f.blocks.len())
                    .map(|i| format!("block:{}:{i}", f.name))
                    .collect()
            })
            .collect();
        LocalStaticVm {
            program,
            registry,
            opts,
            rng: CounterRng::new(opts.seed),
            block_tags,
        }
    }

    /// The program this VM executes.
    pub fn program(&self) -> &Program {
        self.program
    }

    /// Run the batch. `inputs` carries one tensor per entry-function
    /// parameter, each with identical axis-0 length (the batch size).
    /// Pass a [`Trace`] to price the execution on a simulated backend.
    ///
    /// # Errors
    ///
    /// Returns kernel errors from user data, [`VmError::StepLimit`] on
    /// starvation, or [`VmError::HostRecursionLimit`] on runaway
    /// recursion.
    pub fn run(&self, inputs: &[Tensor], trace: Option<&mut Trace>) -> Result<Vec<Tensor>> {
        self.run_observed(inputs, trace, None)
    }

    /// Like [`LocalStaticVm::run`], with a per-superstep observer.
    ///
    /// # Errors
    ///
    /// See [`LocalStaticVm::run`].
    pub fn run_observed(
        &self,
        inputs: &[Tensor],
        trace: Option<&mut Trace>,
        observer: Option<&mut LsabObserver<'_>>,
    ) -> Result<Vec<Tensor>> {
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
        let mut ctx = Ctx {
            trace,
            observer,
            steps: 0,
            op_costs: (self.program.funcs.iter())
                .map(|f| f.blocks.iter().map(|b| vec![None; b.ops.len()]).collect())
                .collect(),
        };
        let active = vec![true; z];
        self.run_function(&mut ctx, self.program.entry, inputs.to_vec(), &active, 0)
    }

    /// Algorithm 1, for one function invocation.
    fn run_function(
        &self,
        ctx: &mut Ctx<'_, '_>,
        fid: FuncId,
        inputs: Vec<Tensor>,
        active: &[bool],
        depth: usize,
    ) -> Result<Vec<Tensor>> {
        if depth > self.opts.max_host_depth {
            return Err(VmError::HostRecursionLimit {
                limit: self.opts.max_host_depth,
            });
        }
        let f = self.program.func(fid)?;
        let z = active.len();
        let n_blocks = f.blocks.len();
        let mut inv = Invocation {
            env: (f.params.iter().cloned())
                .zip(inputs.into_iter().map(Some))
                .collect(),
            pc: vec![0usize; z],
            local: Vec::with_capacity(z),
            local_idx: Vec::with_capacity(z),
            counts: Vec::new(),
        };
        while let Some(i) = select_block(
            (inv.pc.iter().zip(active)).filter_map(|(&pc, &a)| a.then_some(pc)),
            n_blocks,
            self.opts.heuristic,
            &mut inv.counts,
        ) {
            ctx.steps += 1;
            if ctx.steps > self.opts.max_supersteps {
                return Err(VmError::StepLimit {
                    limit: self.opts.max_supersteps,
                });
            }
            // Locally active set A' = members of A waiting at block i.
            inv.local.clear();
            inv.local
                .extend((0..z).map(|b| active[b] && inv.pc[b] == i));
            inv.local_idx.clear();
            inv.local_idx.extend((0..z).filter(|&b| inv.local[b]));
            let n_local = inv.local_idx.len();
            let tag = &self.block_tags[fid.0][i];
            let mut pricing = Pricing::begin(ctx.trace.as_deref_mut(), z, n_local);
            let block = &f.blocks[i];
            for (k, op) in block.ops.iter().enumerate() {
                match op {
                    Op::Prim { outs, prim, ins } => inv.exec_prim(
                        self,
                        &mut pricing,
                        prim,
                        outs,
                        ins,
                        &mut ctx.op_costs[fid.0][i][k],
                    )?,
                    Op::Call { outs, callee, ins } => {
                        // Close the segment's launch before handing
                        // control back to the host for the call.
                        pricing.end_segment(tag);
                        let args: Vec<Tensor> = ins
                            .iter()
                            .map(|v| inv.read(v, &f.name))
                            .collect::<Result<_>>()?;
                        let rets = self.run_function(ctx, *callee, args, &inv.local, depth + 1)?;
                        for (o, r) in outs.iter().zip(rets) {
                            inv.write(o, r, false)?;
                        }
                        pricing = Pricing::resume(ctx.trace.as_deref_mut(), z, n_local);
                    }
                }
            }
            pricing.end_segment(tag);
            // Terminator: update the locally active members' pcs.
            match &block.term {
                Terminator::Jump(t) => {
                    for &b in &inv.local_idx {
                        inv.pc[b] = t.0;
                    }
                }
                Terminator::Branch { cond, then_, else_ } => {
                    let c = inv.read(cond, &f.name)?;
                    let cv = c.as_bool()?;
                    for &b in &inv.local_idx {
                        inv.pc[b] = if cv[b] { then_.0 } else { else_.0 };
                    }
                }
                Terminator::Return => {
                    for &b in &inv.local_idx {
                        inv.pc[b] = n_blocks;
                    }
                }
            }
            if let Some(obs) = ctx.observer.as_deref_mut() {
                obs(&LsabObservation {
                    func: &f.name,
                    block: i,
                    host_depth: depth,
                    locally_active: &inv.local,
                    pc: &inv.pc,
                });
            }
        }
        f.outputs.iter().map(|o| inv.read(o, &f.name)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{BlockHeuristic, ExecStrategy};
    use autobatch_accel::Backend;
    use autobatch_ir::build::{fibonacci_program, ProgramBuilder};
    use autobatch_ir::Prim;

    fn vm_opts() -> ExecOptions {
        ExecOptions::default()
    }

    #[test]
    fn fibonacci_batch_matches_reference() {
        let p = fibonacci_program();
        let vm = LocalStaticVm::new(&p, KernelRegistry::new(), vm_opts());
        let inputs = vec![Tensor::from_i64(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10], &[11]).unwrap()];
        let out = vm.run(&inputs, None).unwrap();
        assert_eq!(
            out[0].as_i64().unwrap(),
            &[1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
        );
    }

    #[test]
    fn fibonacci_gather_scatter_matches_masking() {
        let p = fibonacci_program();
        let mut opts = vm_opts();
        opts.strategy = ExecStrategy::GatherScatter;
        let vm = LocalStaticVm::new(&p, KernelRegistry::new(), opts);
        let inputs = vec![Tensor::from_i64(&[3, 7, 4, 5], &[4]).unwrap()];
        let out = vm.run(&inputs, None).unwrap();
        assert_eq!(out[0].as_i64().unwrap(), &[3, 21, 5, 8]);
    }

    #[test]
    fn most_active_heuristic_matches() {
        let p = fibonacci_program();
        let mut opts = vm_opts();
        opts.heuristic = BlockHeuristic::MostActive;
        let vm = LocalStaticVm::new(&p, KernelRegistry::new(), opts);
        let inputs = vec![Tensor::from_i64(&[6, 2, 9], &[3]).unwrap()];
        let out = vm.run(&inputs, None).unwrap();
        assert_eq!(out[0].as_i64().unwrap(), &[13, 2, 55]);
    }

    #[test]
    fn while_loop_program_runs_divergent_trip_counts() {
        // sum(n) = 0 + 1 + ... + (n-1), via a while loop.
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
        let vm = LocalStaticVm::new(&p, KernelRegistry::new(), vm_opts());
        let inputs = vec![Tensor::from_i64(&[0, 1, 5, 10], &[4]).unwrap()];
        let out = vm.run(&inputs, None).unwrap();
        assert_eq!(out[0].as_i64().unwrap(), &[0, 0, 10, 45]);
    }

    #[test]
    fn batch_equals_singles() {
        // The §2 correctness argument: each member's result is identical
        // whether it runs alone or in a batch.
        let p = fibonacci_program();
        let vm = LocalStaticVm::new(&p, KernelRegistry::new(), vm_opts());
        let ns = [2i64, 6, 1, 9, 4];
        let batch = vm
            .run(&[Tensor::from_i64(&ns, &[5]).unwrap()], None)
            .unwrap();
        for (i, &n) in ns.iter().enumerate() {
            let single = vm
                .run(&[Tensor::from_i64(&[n], &[1]).unwrap()], None)
                .unwrap();
            assert_eq!(
                single[0].as_i64().unwrap()[0],
                batch[0].as_i64().unwrap()[i]
            );
        }
    }

    #[test]
    fn trace_counts_launches_and_supersteps() {
        let p = fibonacci_program();
        let vm = LocalStaticVm::new(&p, KernelRegistry::new(), vm_opts());
        let mut tr = Trace::new(Backend::eager_cpu());
        vm.run(&[Tensor::from_i64(&[5, 6], &[2]).unwrap()], Some(&mut tr))
            .unwrap();
        assert!(tr.launches() > 0);
        assert!(tr.supersteps() > 0);
        assert!(tr.sim_time() > 0.0);
        // Eager: per-prim launches exist under their own tags.
        assert!(tr.kernel_stats("add").is_some());
    }

    #[test]
    fn fused_backend_prices_blocks_not_prims() {
        let p = fibonacci_program();
        let vm = LocalStaticVm::new(&p, KernelRegistry::new(), vm_opts());
        let mut tr = Trace::new(Backend::hybrid_cpu());
        vm.run(&[Tensor::from_i64(&[5, 6], &[2]).unwrap()], Some(&mut tr))
            .unwrap();
        assert!(
            tr.kernel_stats("add").is_none(),
            "no per-prim timed launches"
        );
        assert!(
            tr.kernels().any(|(k, _)| k.starts_with("block:")),
            "fused block launches present"
        );
        // Logical stats still visible per prim.
        assert!(tr.logical_stats("add").is_some());
    }

    #[test]
    fn observer_sees_divergence() {
        let p = fibonacci_program();
        let vm = LocalStaticVm::new(&p, KernelRegistry::new(), vm_opts());
        let mut depths = Vec::new();
        let mut obs = |o: &LsabObservation<'_>| {
            depths.push(o.host_depth);
        };
        vm.run_observed(
            &[Tensor::from_i64(&[4, 5], &[2]).unwrap()],
            None,
            Some(&mut obs),
        )
        .unwrap();
        assert!(depths.iter().any(|&d| d > 0), "recursion observed");
    }

    #[test]
    fn wrong_input_arity_is_error() {
        let p = fibonacci_program();
        let vm = LocalStaticVm::new(&p, KernelRegistry::new(), vm_opts());
        assert!(matches!(vm.run(&[], None), Err(VmError::BadInputs { .. })));
    }

    #[test]
    fn host_recursion_limit_guards_runaway() {
        // f(n) = f(n + 1): never terminates.
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
        let mut opts = vm_opts();
        opts.max_host_depth = 10;
        let vm = LocalStaticVm::new(&p, KernelRegistry::new(), opts);
        assert!(matches!(
            vm.run(&[Tensor::from_i64(&[0], &[1]).unwrap()], None),
            Err(VmError::HostRecursionLimit { .. })
        ));
    }

    #[test]
    fn step_limit_guards_infinite_loop() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare("spin", &["n"], &["r"]);
        pb.define(f, |fb| {
            fb.copy(&fb.output(0), &fb.param(0));
            fb.while_loop(|fb| fb.const_bool(true), |_fb| {});
            fb.ret();
        });
        let p = pb.finish(f).unwrap();
        let mut opts = vm_opts();
        opts.max_supersteps = 100;
        let vm = LocalStaticVm::new(&p, KernelRegistry::new(), opts);
        assert!(matches!(
            vm.run(&[Tensor::from_i64(&[0], &[1]).unwrap()], None),
            Err(VmError::StepLimit { .. })
        ));
    }

    #[test]
    fn select_block_heuristics() {
        use BlockHeuristic::{EarliestBlock, MostActive};
        let mut counts = vec![9; 3];
        let mut pick = |pcs: &[usize], h| select_block(pcs.iter().copied(), 8, h, &mut counts);
        let pc = [3, 1, 1, 7];
        assert_eq!(pick(&pc, EarliestBlock), Some(1));
        assert_eq!(pick(&pc, MostActive), Some(1));
        // Ties go to the earliest block, whatever the lent buffer held.
        assert_eq!(pick(&[7, 5, 5, 7], MostActive), Some(5));
        assert_eq!(pick(&[6, 2], MostActive), Some(2));
        // Finished members (pc == n_blocks) are excluded.
        for h in [EarliestBlock, MostActive] {
            assert_eq!(pick(&[8, 8, 8, 8], h), None);
            assert_eq!(pick(&[], h), None);
        }
        // Inactive members are ignored entirely: their pcs are never
        // offered.
        let masked = [false, true, false, true];
        let eligible = (pc.iter().zip(masked)).filter_map(|(&p, a)| a.then_some(p));
        assert_eq!(
            select_block(eligible, 8, EarliestBlock, &mut counts),
            Some(1)
        );
    }
}
