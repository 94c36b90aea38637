//! The program-counter autobatching runtime (paper §3, Algorithm 2).
//!
//! A flat, non-recursive interpreter over the merged
//! [`pcab`](autobatch_ir::pcab) program. Every batch member carries a
//! stacked program counter; each stacked data variable owns a
//! `[Z, D, ..]` stack tensor plus per-member stack pointers, with the
//! current top cached densely (paper optimization 4). Because recursion
//! state lives entirely in these arrays, the runtime is a single loop —
//! exactly the property that lets the paper compile it with XLA — and
//! logical threads at *different stack depths* batch together whenever
//! their pc tops coincide.
//!
//! That loop is written once, as three private functions of [`PcVm`]:
//! `bind` is Algorithm 2's "PUSH T onto x" (fresh lanes, one per input
//! row, the rows written into them), `next_block` its loop head (the
//! block-selection heuristic, and the one place a superstep is counted
//! against [`ExecOptions::max_supersteps`]) and `run_block` its body
//! (the block's ops, then its terminator). The two drivers add nothing
//! to it. The one-shot [`PcVm::run`] binds the whole batch under keys
//! `0..Z`, loops until nobody is runnable and reads the outputs full
//! width; it never retires, so `Z` is static throughout, as in the
//! paper's XLA formulation. The incremental [`PcMachine`] binds in
//! `admit_batch`, and its `step` is one trip round the loop with the
//! serving work around it: the injected execution fault between head
//! and body (after the superstep is counted, before anything is
//! mutated — which is why they are two calls), runaway lanes, per-lane
//! budgets and peak bytes after.
//!
//! Inside `run_block` everything the block touches — the VM, the
//! member set, the scratch arena, the superstep's price — travels as
//! one borrowed context, `Superstep`, and each piece of the block's
//! execution is a method on it. The arena is lent in place, never
//! taken out of its owner, so a superstep that fails leaves what the
//! machine has learned about its blocks where it was.
//!
//! Nothing on that path is decided twice. [`PcVm::new`] compiles every
//! block once into one record, `CompiledBlock`: each operand of each op
//! and the branch condition become a `Slot` — stacked variable `i`,
//! register `i` or block temporary `i`, dense indices into the member
//! set's vectors and the superstep's temporaries — and so do the
//! external inputs and materialized results of each of the block's
//! fused regions, beside the temporaries it binds and its launch's
//! kernel tag. Regions are planned only when
//! [`ExecOptions::fuse_elementwise`] and
//! [`ExecOptions::cache_stack_tops`] are both on, so a superstep tests
//! neither: it runs a region when one starts at the current op and this
//! machine has not seen it refused, through the one entry point of
//! [`crate::fusion`], which says whether the operands are what its loop
//! reproduces the per-op kernels on. The program's `Var`s are read only
//! to name an error or to label an observer's snapshot.
//!
//! Nor does a superstep allocate, and no handle is cloned: a primitive,
//! a fused region and a branch read their operands in place, borrowed
//! from the member set, the temporaries or a gathered operand buffer,
//! so no share of a destination outlives its read into write-back.
//! Every tensor it produces is written
//! into one the arena already holds: the arena's spares are the
//! temporaries of the last superstep and the results already copied
//! into registers and stack tops, each kept only while nothing else
//! holds its payload. A primitive or a fused region refills a spare of
//! its result's dtype; a write to a register or stack top that shares
//! its payload copies it into a spare instead of a fresh buffer; and a
//! pop gathers the stored frames straight into the cached top, under
//! the mask. The kernels, their order and the write-back order are
//! those of fresh tensors, so every output is bit-identical.

use std::collections::BTreeMap;

use autobatch_accel::Trace;
use autobatch_ir::pcab::{Block, Op, Program, Terminator, WriteKind};
use autobatch_ir::{Prim, Var};
use autobatch_tensor::{CounterRng, DType, Tensor};

use crate::batch::{batch_size, land, lookup, select_block, store_rows, zeroed, Lanes};
use crate::error::{Result, VmError};
use crate::fusion::{self, recycle, FusedRegion, RegionScratch};
use crate::kernels::{eval_prim, take_spare, KernelRegistry};
use crate::member_set::{LaneState, State};
use crate::options::{BlockCost, ExecOptions};
use crate::pricing::Pricing;

/// A point-in-time copy of one stacked variable, for observers (the
/// paper's Figure 3 visualization).
///
/// Tensors are copy-on-write, so taking a snapshot shares the live
/// buffers instead of deep-copying them: the per-superstep observer
/// cost is O(1) per tensor plus the stack-pointer vector, and the
/// machine transparently copies a buffer only on its next write to it.
#[derive(Debug, Clone)]
pub struct StackSnapshot {
    /// Frames beneath the top, `[Z, D, elem..]` (lane `b`'s frames are
    /// row `b`), if ever pushed.
    pub store: Option<Tensor>,
    /// Per-member stack pointers (frames currently in `store`).
    pub sp: Vec<usize>,
    /// The cached top, `[Z, elem..]`, if ever written.
    pub top: Option<Tensor>,
}

/// A snapshot handed to an observer after every superstep.
#[derive(Debug)]
pub struct PcObservation<'a> {
    /// The block that just ran.
    pub block: usize,
    /// Which members were active in it.
    pub active: &'a [bool],
    /// Per-member pc tops after the step (`== block count` means done).
    pub pc_top: &'a [usize],
    /// Per-member pc stack depths (frames beneath the top).
    pub pc_depth: Vec<usize>,
    /// Stacked-variable state (O(1) copy-on-write shares of the live
    /// buffers; the machine copies on its next write, never the
    /// observer).
    pub stacks: BTreeMap<Var, StackSnapshot>,
}

/// Callback invoked after every superstep.
pub type PcObserver<'o> = dyn FnMut(&PcObservation<'_>) + 'o;

/// The program-counter autobatching virtual machine.
///
/// # Examples
///
/// ```
/// use autobatch_core::{lower, KernelRegistry, LoweringOptions, PcVm, ExecOptions};
/// use autobatch_ir::build::fibonacci_program;
/// use autobatch_tensor::Tensor;
///
/// let (program, _) = lower(&fibonacci_program(), LoweringOptions::default())?;
/// let vm = PcVm::new(&program, KernelRegistry::new(), ExecOptions::default());
/// let out = vm.run(&[Tensor::from_i64(&[6, 7, 8, 9], &[4])?], None)?;
/// assert_eq!(out[0].as_i64()?, &[13, 21, 34, 55]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct PcVm<'p> {
    program: &'p Program,
    registry: KernelRegistry,
    opts: ExecOptions,
    /// The counter-based generator every draw goes through, keyed by
    /// `opts.seed`.
    rng: CounterRng,
    /// Each block as a superstep runs it, compiled once at construction.
    blocks: Vec<CompiledBlock>,
    /// The most temporaries one block binds: the length of a
    /// superstep's temporaries, sized once per scratch arena.
    max_temps: usize,
    /// The slot of each program input and output, `None` for one that
    /// is not a persistent variable (a program that does not validate).
    input_slots: Vec<Option<Slot>>,
    output_slots: Vec<Option<Slot>>,
    /// Stacked variables in slot order (the program's sorted order).
    stacked_vars: Vec<Var>,
}

/// Where a variable lives: an index into the state's stacked or
/// register vector (a persistent variable), or into the superstep's
/// temporaries (a block-local one, numbered per block in order of first
/// mention).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Stacked(usize),
    Register(usize),
    Temp(usize),
}

/// The slots an op reads and writes, parallel to its `Var`s: a
/// `Compute`'s inputs and outputs, a `Pop`'s variable as its one
/// output, a fused region's external inputs and its materialized
/// results (in `mats` order).
#[derive(Debug)]
struct Operands {
    ins: Vec<Slot>,
    outs: Vec<Slot>,
}

/// One block as a superstep runs it: a superstep indexes dense vectors
/// and never compares a variable's name.
#[derive(Debug)]
struct CompiledBlock {
    /// Per op of the block, in op order.
    ops: Vec<Operands>,
    /// The block's fused regions in op order, each with its operands.
    regions: Vec<(FusedRegion, Operands)>,
    /// The condition of a `Branch` terminator.
    cond: Option<Slot>,
    /// How many temporaries the block binds.
    temps: usize,
    /// Kernel tag of the block's launch, `block:{i}`.
    tag: String,
}

impl CompiledBlock {
    /// Compile `block`, the `i`-th, with the fused regions of `plan`:
    /// persistent variables resolve through `persistent`, every other
    /// name to the next free temporary.
    fn new(
        block: &Block,
        i: usize,
        persistent: &BTreeMap<Var, Slot>,
        plan: Vec<FusedRegion>,
    ) -> Self {
        let mut temps: Vec<Var> = Vec::new();
        let mut slot = |v: &Var| {
            if let Some(&s) = persistent.get(v) {
                return s;
            }
            let t = temps.iter().position(|w| w == v).unwrap_or_else(|| {
                temps.push(v.clone());
                temps.len() - 1
            });
            Slot::Temp(t)
        };
        let ops = (block.ops.iter())
            .map(|op| match op {
                Op::Compute { outs, ins, .. } => Operands {
                    ins: ins.iter().map(&mut slot).collect(),
                    outs: outs.iter().map(|(v, _)| slot(v)).collect(),
                },
                Op::Pop { var } => Operands {
                    ins: Vec::new(),
                    outs: vec![slot(var)],
                },
            })
            .collect();
        let regions = (plan.into_iter())
            .map(|r| {
                let ins = r.exts.iter().map(&mut slot).collect();
                let outs = r.mats.iter().map(|&d| slot(&r.ops[d].out.0)).collect();
                (r, Operands { ins, outs })
            })
            .collect();
        let cond = match &block.term {
            Terminator::Branch { cond, .. } => Some(slot(cond)),
            _ => None,
        };
        CompiledBlock {
            ops,
            regions,
            cond,
            temps: temps.len(),
            tag: format!("block:{i}"),
        }
    }
}

/// Reused per-superstep buffers: the scratch arena of whoever drives
/// the loop (a [`PcMachine`] for its lifetime, a one-shot run for the
/// run). Everything here but `blocks` is logically dead between
/// supersteps; keeping the allocations alive makes the steady-state
/// superstep loop allocation-free, for its bookkeeping (masks, index
/// lists, stack depths, fused-loop registers) and for the tensors it
/// produces, which are written into `temps` and `spare`. It is lent to
/// each superstep in place, never taken, so a superstep that fails
/// leaves what `blocks` has learned where it was.
#[derive(Debug, Default)]
struct Scratch {
    /// Per-block member counts, lent to
    /// [`BlockHeuristic::MostActive`](crate::BlockHeuristic::MostActive).
    counts: Vec<usize>,
    /// Active mask of the current superstep.
    active: Vec<bool>,
    /// Indices of the active members.
    active_idx: Vec<usize>,
    /// Whether the current superstep runs gathered: its primitives see
    /// one row per *active* member (persistent operands are gathered
    /// into the block's [`BlockMemo::operands`], block-local
    /// temporaries stay compacted, results are scattered back),
    /// instead of all `Z` rows under a mask.
    gathered: bool,
    /// RNG keys of the active members (gathered supersteps).
    members: Vec<u64>,
    /// How many persistent operands a gathered superstep has read.
    next_operand: usize,
    /// Per-member stack depths for pops.
    depths: Vec<usize>,
    /// What the fused regions' loops reuse.
    fused: RegionScratch,
    /// The operand borrows of a primitive or a fused region while it
    /// runs, empty in between: the `'static` only keeps the allocation
    /// (see [`recycle`]).
    inputs: Vec<&'static Tensor>,
    /// Reused result buffer of a primitive or a fused region.
    results: Vec<Tensor>,
    /// The superstep's block-local temporaries, indexed by
    /// [`Slot::Temp`]; all unbound when a superstep begins.
    temps: Vec<Option<Tensor>>,
    /// Tensors nothing else holds, of any dtype, whose buffers the next
    /// results are written into: a result landed in a register or stack
    /// top comes back here once it is copied in, and a temporary when
    /// its superstep is over. At most `spare_cap` are kept.
    spare: Vec<Tensor>,
    /// The most tensors one block writes, which bounds what `spare`
    /// keeps.
    spare_cap: usize,
    /// What this machine has learned about each block by running it.
    blocks: Vec<BlockMemo>,
}

impl Scratch {
    /// An arena for `vm`'s supersteps: a memo per block, and room for
    /// the temporaries of its largest block.
    fn new(vm: &PcVm<'_>) -> Self {
        let writes = |b: &CompiledBlock| b.ops.iter().map(|o| o.outs.len()).sum();
        Scratch {
            temps: vec![None; vm.max_temps],
            spare_cap: vm.blocks.iter().map(writes).max().unwrap_or(0),
            blocks: (vm.blocks.iter())
                .map(|b| BlockMemo {
                    fused_off: vec![false; b.regions.len()],
                    ..BlockMemo::default()
                })
                .collect(),
            ..Scratch::default()
        }
    }

    /// Keep `t` for a later result if nothing else holds its payload and
    /// there is room; drop it otherwise.
    fn give(&mut self, t: Tensor) {
        if t.is_unique() && self.spare.len() < self.spare_cap {
            self.spare.push(t);
        }
    }
}

/// Facts about one block that are fixed by the shapes of the program's
/// variables (programs are shape-polymorphic until the first
/// admission), found out once per machine by executing it.
#[derive(Debug, Default)]
struct BlockMemo {
    /// Per-region negative cache: `true` once a fused region fell back
    /// (mixed runtime shapes or dtypes). Falling back is always
    /// correct, so one failed validation disables the region for this
    /// machine instead of paying the check every superstep.
    fused_off: Vec<bool>,
    /// What a member's share of the block costs, measured on its first
    /// execution under `ExecStrategy::Adaptive`, which runs masked.
    cost: Option<BlockCost>,
    /// The buffers the block's gathered supersteps copy their
    /// persistent operands' active rows into, one per operand read: the
    /// k-th read of a block always has the same dtype and element
    /// shape, and nothing outlives the superstep that could share a
    /// buffer, so once each has grown to the widest gather a gathered
    /// superstep allocates nothing a masked one would not.
    operands: Vec<Tensor>,
}

impl<'p> PcVm<'p> {
    /// Create a VM for a lowered program.
    pub fn new(program: &'p Program, registry: KernelRegistry, opts: ExecOptions) -> Self {
        let stacked_vars = program.stacked_vars();
        let mut slot_of: BTreeMap<Var, Slot> = stacked_vars
            .iter()
            .enumerate()
            .map(|(i, v)| (v.clone(), Slot::Stacked(i)))
            .collect();
        for (i, v) in program.register_vars().into_iter().enumerate() {
            slot_of.insert(v, Slot::Register(i));
        }
        // The uncached-top ablation prices every read of a stacked
        // operand, which only per-op execution does: it plans no region.
        let fuse = opts.fuse_elementwise && opts.cache_stack_tops;
        let blocks: Vec<CompiledBlock> = (program.blocks.iter().enumerate())
            .map(|(i, block)| {
                let plan = fuse.then(|| fusion::plan_block(program, block));
                CompiledBlock::new(block, i, &slot_of, plan.unwrap_or_default())
            })
            .collect();
        let slots = |vars: &[Var]| vars.iter().map(|v| slot_of.get(v).copied()).collect();
        PcVm {
            program,
            registry,
            opts,
            rng: CounterRng::new(opts.seed),
            max_temps: blocks.iter().map(|b| b.temps).max().unwrap_or(0),
            blocks,
            input_slots: slots(&program.inputs),
            output_slots: slots(&program.outputs),
            stacked_vars,
        }
    }

    /// The program this VM executes.
    pub fn program(&self) -> &Program {
        self.program
    }

    /// Run the batch; one input tensor per program input, axis 0 = batch.
    ///
    /// # Errors
    ///
    /// Returns kernel errors, [`VmError::StackOverflow`] when recursion
    /// exceeds the depth limit `D`, or [`VmError::StepLimit`].
    pub fn run(&self, inputs: &[Tensor], trace: Option<&mut Trace>) -> Result<Vec<Tensor>> {
        self.run_observed(inputs, trace, None)
    }

    /// Like [`PcVm::run`], invoking `observer` after every superstep.
    ///
    /// # Errors
    ///
    /// See [`PcVm::run`].
    pub fn run_observed(
        &self,
        inputs: &[Tensor],
        mut trace: Option<&mut Trace>,
        mut observer: Option<&mut PcObserver<'_>>,
    ) -> Result<Vec<Tensor>> {
        self.check_arity(inputs.len())?;
        let z = batch_size(inputs)?;
        // Member `b` draws under key `b`, and nobody retires: `Z` is
        // static for the whole run.
        let mut st = State::new(self.program);
        self.bind(&mut st, inputs, (0..z).map(|b| b as u64))?;
        let (mut scratch, mut steps) = (Scratch::new(self), 0);
        while let Some(i) = self.next_block(&st, &mut scratch, &mut steps)? {
            self.run_block(&mut st, &mut scratch, i, trace.as_deref_mut())?;
            if let Some(obs) = observer.as_deref_mut() {
                // Tensor clones here are O(1) copy-on-write shares; the
                // machine pays a buffer copy only on its next write.
                let stacks: BTreeMap<Var, StackSnapshot> = self
                    .stacked_vars
                    .iter()
                    .zip(&st.stacked)
                    .map(|(v, s)| {
                        (
                            v.clone(),
                            StackSnapshot {
                                store: s.store.clone(),
                                sp: s.sp.clone(),
                                top: s.top.clone(),
                            },
                        )
                    })
                    .collect();
                obs(&PcObservation {
                    block: i,
                    active: &scratch.active,
                    pc_top: &st.pc_top,
                    pc_depth: st.pc_stack.iter().map(Vec::len).collect(),
                    stacks,
                });
            }
        }
        self.outputs(&st)
    }

    /// Refuse a set of inputs that is not one per program input.
    fn check_arity(&self, got: usize) -> Result<()> {
        let want = self.program.inputs.len();
        if got != want {
            return Err(VmError::BadInputs {
                what: format!("expected {want} inputs, got {got}"),
            });
        }
        Ok(())
    }

    /// Algorithm 2's "PUSH T onto x": append one fresh lane per key —
    /// parked at the entry block, drawing under that key — and write
    /// row `r` of every input (`[keys.len(), elem..]`, one per program
    /// input) into the `r`-th of them. Returns the first new lane.
    ///
    /// The rows must agree with what the *live* lanes hold: a row of
    /// another shape or dtype could not be written beside theirs. That
    /// is checked before the member set is touched.
    fn bind(
        &self,
        st: &mut State,
        inputs: &[Tensor],
        keys: impl ExactSizeIterator<Item = u64>,
    ) -> Result<usize> {
        let p = self.program;
        for ((v, &slot), rows) in p.inputs.iter().zip(&self.input_slots).zip(inputs) {
            if let Some(live) = slot.and_then(|s| peek(st, s)) {
                if rows.shape()[1..] != live.shape()[1..] || rows.dtype() != live.dtype() {
                    return Err(VmError::BadInputs {
                        what: format!(
                            "admitted input {v} rows are {:?} {:?}, but the live \
                             batch holds {:?} {:?}",
                            &rows.shape()[1..],
                            rows.dtype(),
                            &live.shape()[1..],
                            live.dtype()
                        ),
                    });
                }
            }
        }
        let (z, k) = (st.z(), keys.len());
        st.grow(k)?;
        for (key, k) in st.member_keys[z..].iter_mut().zip(keys) {
            *key = k;
        }
        let new_lanes: Vec<usize> = (z..z + k).collect();
        for (&slot, rows) in self.input_slots.iter().zip(inputs) {
            if let Some(slot) = slot {
                store_rows(persistent(st, slot), z + k, &new_lanes, rows)?;
            }
        }
        Ok(z)
    }

    /// Algorithm 2's loop head: the block the next superstep runs,
    /// counted against [`ExecOptions::max_supersteps`], or `None` (and
    /// nothing counted) when no member is runnable.
    fn next_block(
        &self,
        st: &State,
        scratch: &mut Scratch,
        steps: &mut u64,
    ) -> Result<Option<usize>> {
        let pcs = st.pc_top.iter().copied();
        let n_blocks = self.program.blocks.len();
        let next = select_block(pcs, n_blocks, self.opts.heuristic, &mut scratch.counts);
        if next.is_some() {
            *steps += 1;
            if *steps > self.opts.max_supersteps {
                return Err(VmError::StepLimit {
                    limit: self.opts.max_supersteps,
                });
            }
        }
        Ok(next)
    }

    /// Algorithm 2's loop body, one superstep on block `i`: all ops and
    /// the terminator, priced into `trace`. Returns the number of
    /// active members; the active mask itself, and whether the
    /// superstep ran gathered, stay in `scratch`.
    fn run_block(
        &self,
        st: &mut State,
        scratch: &mut Scratch,
        i: usize,
        trace: Option<&mut Trace>,
    ) -> Result<usize> {
        let z = st.z();
        scratch.active.clear();
        scratch.active.extend(st.pc_top.iter().map(|&pc| pc == i));
        scratch.active_idx.clear();
        scratch
            .active_idx
            .extend((0..z).filter(|&b| scratch.active[b]));
        let n_active = scratch.active_idx.len();
        let mut pricing = Pricing::begin(trace, z, n_active);
        let cost = scratch.blocks[i].cost;
        scratch.gathered = self.opts.strategy.gathers(cost, n_active, z);
        if self.opts.strategy.measures(cost) {
            pricing = pricing.profiled();
        }
        if scratch.gathered {
            scratch.members.clear();
            scratch
                .members
                .extend(scratch.active_idx.iter().map(|&b| st.member_keys[b]));
            scratch.next_operand = 0;
        }
        // Unbind the last superstep's temporaries, keeping their
        // buffers: a temporary that shares its payload is dropped, which
        // may leave a later one the sole holder of it.
        for i in 0..scratch.temps.len() {
            if let Some(t) = scratch.temps[i].take() {
                scratch.give(t);
            }
        }
        let step = Superstep {
            vm: self,
            st,
            scratch,
            block: i,
            pricing,
        };
        step.run()?;
        Ok(n_active)
    }

    /// The program's outputs at their current tops, full width.
    fn outputs(&self, st: &State) -> Result<Vec<Tensor>> {
        let outputs = self.program.outputs.iter().zip(&self.output_slots);
        outputs
            .map(|(o, &slot)| lookup(slot.and_then(|s| peek(st, s)), o, "outputs").cloned())
            .collect()
    }
}

/// The current full-width value in a persistent slot — a stacked
/// variable's cached top, or a register — if it has one. A temporary
/// belongs to a superstep, not to the member set: `None`.
fn peek(st: &State, slot: Slot) -> Option<&Tensor> {
    match slot {
        Slot::Stacked(i) => st.stacked[i].top.as_ref(),
        Slot::Register(i) => st.registers[i].as_ref(),
        Slot::Temp(_) => None,
    }
}

/// The full-width buffer of a persistent slot: a stacked variable's
/// cached top, or a register.
fn persistent(st: &mut State, slot: Slot) -> &mut Option<Tensor> {
    match slot {
        Slot::Stacked(i) => &mut st.stacked[i].top,
        Slot::Register(i) => &mut st.registers[i],
        Slot::Temp(_) => unreachable!("a temporary belongs to a superstep"),
    }
}

/// Before a write in place, make the tensor in `slot` the only holder of
/// its payload by copying it into a spare of its dtype, if it shares it
/// and `spare` has one: the copy-on-write the write would make, without
/// allocating. The share left behind stays with its other holder.
fn unshare(slot: &mut Option<Tensor>, spare: &mut Vec<Tensor>) {
    if let Some(t) = slot.as_mut().filter(|t| !t.is_unique()) {
        if let Some(mut buf) = take_spare(spare, t.dtype()) {
            t.copy_into(&mut buf);
            *t = buf;
        }
    }
}

/// The current value in any slot: a persistent one's full-width buffer,
/// or the temporary the running superstep bound, if any.
fn read<'s>(st: &'s State, temps: &'s [Option<Tensor>], slot: Slot) -> Option<&'s Tensor> {
    match slot {
        Slot::Temp(i) => temps[i].as_ref(),
        _ => peek(st, slot),
    }
}

/// Where a gathered superstep copies its persistent operands' active
/// `rows`: the block's operand buffers, the next one to fill at `next`.
struct Gather<'s> {
    rows: &'s [usize],
    bufs: &'s mut Vec<Tensor>,
    next: &'s mut usize,
}

/// Borrow the operands in `slots` (named `vars`, for errors) into `out`,
/// each as the superstep's mode wants it: a block-local temporary as it
/// is (a gathered superstep bound it compacted), a persistent variable's
/// full-width buffer or, under `gather`, the block's next operand
/// buffer, which the variable's active rows are first copied into. No
/// handle is cloned, so once `out` is released no share of a
/// destination survives into write-back.
fn read_operands<'s>(
    st: &'s State,
    temps: &'s [Option<Tensor>],
    gather: Option<Gather<'s>>,
    slots: &[Slot],
    vars: &[Var],
    out: &mut Vec<&'s Tensor>,
) -> Result<()> {
    let Some(Gather { rows, bufs, next }) = gather else {
        for (&slot, v) in slots.iter().zip(vars) {
            out.push(lookup(read(st, temps, slot), v, "compute")?);
        }
        return Ok(());
    };
    let first = *next;
    for (&slot, v) in slots.iter().zip(vars) {
        let t = lookup(read(st, temps, slot), v, "compute")?;
        if !matches!(slot, Slot::Temp(_)) {
            match bufs.get_mut(*next) {
                Some(buf) => t.gather_rows_into(rows, buf)?,
                None => bufs.push(t.gather_rows(rows)?),
            }
            *next += 1;
        }
    }
    let bufs: &'s [Tensor] = bufs;
    let mut gathered = bufs[first..].iter();
    for &slot in slots {
        out.push(match slot {
            Slot::Temp(i) => temps[i].as_ref().expect("looked up above"),
            _ => gathered.next().expect("gathered above"),
        });
    }
    Ok(())
}

/// One superstep's working set, borrowed for its duration from whoever
/// drives the loop: the VM (program, options, kernels, generator), the
/// member set, the scratch arena, and the superstep's price so far.
/// Every piece of a block's execution is a method on it.
struct Superstep<'a, 't> {
    vm: &'a PcVm<'a>,
    st: &'a mut State,
    scratch: &'a mut Scratch,
    /// The block being run.
    block: usize,
    pricing: Pricing<'t>,
}

impl Superstep<'_, '_> {
    /// Execute the block's ops, then its terminator, and close the
    /// block's launch.
    fn run(mut self) -> Result<()> {
        let vm = self.vm;
        let (ir, block) = (&vm.program.blocks[self.block], &vm.blocks[self.block]);
        let mut regions = block.regions.iter().enumerate().peekable();
        let mut op_idx = 0usize;
        while op_idx < ir.ops.len() {
            // Fused fast path: execute a whole elementwise region as one
            // loop when one starts here and the runtime operands allow
            // it; otherwise fall through to per-op execution of the
            // same ops.
            if let Some((r, (region, slots))) =
                regions.next_if(|(_, (next, _))| next.start == op_idx)
            {
                if !self.scratch.blocks[self.block].fused_off[r] {
                    if self.try_exec_fused(region, slots)? {
                        op_idx += region.len;
                        continue;
                    }
                    self.scratch.blocks[self.block].fused_off[r] = true;
                }
            }
            let slots = &block.ops[op_idx];
            match &ir.ops[op_idx] {
                Op::Compute { outs, prim, ins } => self.exec_compute(prim, slots, ins, outs)?,
                Op::Pop { var } => self.pop_var(slots.outs[0], var)?,
            }
            op_idx += 1;
        }
        self.terminate(&ir.term, block.cond)?;
        if let Some(cost) = self.pricing.block_cost() {
            self.scratch.blocks[self.block].cost = Some(cost);
        }
        self.pricing.end_block(&block.tag);
        Ok(())
    }

    /// Move the active members' program counters as `term` says;
    /// `cond_slot` is where a `Branch`'s condition lives.
    fn terminate(&mut self, term: &Terminator, cond_slot: Option<Slot>) -> Result<()> {
        let st = &mut *self.st;
        let active_idx = &self.scratch.active_idx;
        let stack_depth = self.vm.opts.stack_depth;
        match term {
            Terminator::Jump(t) => {
                for &b in active_idx {
                    st.pc_top[b] = t.0;
                }
            }
            Terminator::Branch { cond, then_, else_ } => {
                let slot = cond_slot.expect("a branch's condition is resolved");
                // A gathered superstep's temporaries hold one row per
                // *active* member.
                let compacted = self.scratch.gathered && matches!(slot, Slot::Temp(_));
                // The condition is read in place, beside the pc tops it
                // moves.
                let State {
                    pc_top,
                    stacked,
                    registers,
                    ..
                } = st;
                let bound = match slot {
                    Slot::Stacked(i) => stacked[i].top.as_ref(),
                    Slot::Register(i) => registers[i].as_ref(),
                    Slot::Temp(i) => self.scratch.temps[i].as_ref(),
                };
                let cv = lookup(bound, cond, "branch")?.as_bool()?;
                for (pos, &b) in active_idx.iter().enumerate() {
                    let bit = if compacted { cv[pos] } else { cv[b] };
                    pc_top[b] = if bit { then_.0 } else { else_.0 };
                }
            }
            Terminator::PushJump { enter, resume } => {
                for &b in active_idx {
                    // The bottom exit sentinel is not a real frame:
                    // members may hold `stack_depth` return addresses,
                    // matching the data stacks' capacity, so pc and data
                    // stacks overflow at the same recursion depth.
                    if st.pc_stack[b].len() > stack_depth {
                        return Err(VmError::StackOverflow {
                            var: Var::new("%pc"),
                            limit: stack_depth,
                        });
                    }
                    st.pc_stack[b].push(resume.0);
                    st.pc_top[b] = enter.0;
                }
                self.pricing.pc_stack(stack_depth);
            }
            Terminator::Return => {
                for &b in active_idx {
                    match st.pc_stack[b].pop() {
                        Some(r) => st.pc_top[b] = r,
                        None => {
                            return Err(VmError::StackUnderflow {
                                var: Var::new("%pc"),
                            })
                        }
                    }
                }
                self.pricing.pc_stack(stack_depth);
            }
        }
        Ok(())
    }

    /// Execute `region`, whose operands live in `slots`, as one loop
    /// over elements if [`FusedRegion::run`] accepts its operands;
    /// return `false`, having done nothing observable, if not.
    ///
    /// Results are bit-identical to per-op execution: the loop applies
    /// the same `scalar_ops` functions in the same order, and
    /// write-back goes through the exact per-op write path in op order
    /// (so stack pushes error in the same order as unfused execution).
    fn try_exec_fused(&mut self, region: &FusedRegion, slots: &Operands) -> Result<bool> {
        // Read the external inputs exactly like the per-op path, into
        // the same reused buffer.
        let scratch = &mut *self.scratch;
        let mut args = recycle(std::mem::take(&mut scratch.inputs));
        let gather = (scratch.gathered).then(|| Gather {
            rows: &scratch.active_idx,
            bufs: &mut scratch.blocks[self.block].operands,
            next: &mut scratch.next_operand,
        });
        read_operands(
            self.st,
            &scratch.temps,
            gather,
            &slots.ins,
            &region.exts,
            &mut args,
        )?;
        let rows = if scratch.gathered {
            scratch.active_idx.len()
        } else {
            self.st.z()
        };
        let ran = region.run(
            &args,
            rows,
            &mut scratch.fused,
            &mut scratch.spare,
            &mut scratch.results,
        );
        scratch.inputs = recycle(args);
        let Some(ran) = ran? else {
            return Ok(false);
        };
        self.pricing.region(&ran, scratch.gathered);
        let outs = region.mats.iter().map(|&d| &region.ops[d].out);
        self.write_results(&slots.outs, outs)?;
        Ok(true)
    }

    /// Execute one `Compute` op in the superstep's mode: `slots` are
    /// where its inputs `ins` and outputs `outs` live.
    fn exec_compute(
        &mut self,
        prim: &Prim,
        slots: &Operands,
        ins: &[Var],
        outs: &[(Var, WriteKind)],
    ) -> Result<()> {
        let vm = self.vm;
        // Uncached-top ablation: every read of a stacked variable pays a
        // gather from the stack storage.
        if !vm.opts.cache_stack_tops {
            for &slot in &slots.ins {
                if let Slot::Stacked(i) = slot {
                    if let Some(top) = &self.st.stacked[i].top {
                        self.pricing.uncached_read(row_bytes(top));
                    }
                }
            }
        }
        let scratch = &mut *self.scratch;
        let mut args = recycle(std::mem::take(&mut scratch.inputs));
        let gather = (scratch.gathered).then(|| Gather {
            rows: &scratch.active_idx,
            bufs: &mut scratch.blocks[self.block].operands,
            next: &mut scratch.next_operand,
        });
        read_operands(self.st, &scratch.temps, gather, &slots.ins, ins, &mut args)?;
        let members = if scratch.gathered {
            &scratch.members
        } else {
            &self.st.member_keys
        };
        let (results, spare) = (&mut scratch.results, &mut scratch.spare);
        eval_prim(prim, &args, members, &vm.rng, &vm.registry, spare, results)?;
        self.pricing
            .op(prim, &args, results, &vm.registry, scratch.gathered);
        scratch.inputs = recycle(args);
        self.write_results(&slots.outs, outs.iter())
    }

    /// Write the tensors in `scratch.results`, in order, to `slots`
    /// (`outs` names them, for errors, and says how each is written).
    fn write_results<'v>(
        &mut self,
        slots: &[Slot],
        outs: impl Iterator<Item = &'v (Var, WriteKind)>,
    ) -> Result<()> {
        let mut results = std::mem::take(&mut self.scratch.results);
        for ((&slot, (var, kind)), r) in slots.iter().zip(outs).zip(results.drain(..)) {
            self.write_var(slot, var, r, *kind)?;
        }
        self.scratch.results = results;
        Ok(())
    }

    /// Write `value` to `slot` (`var`, for errors) for the active
    /// members: the one write path of the per-op and fused paths in
    /// both modes, so neither fusion nor the mode can change write
    /// semantics. A block-local temporary is bound as it comes
    /// (compacted in a gathered superstep); a value copied into a
    /// register or stack top goes back to the spares.
    fn write_var(&mut self, slot: Slot, var: &Var, value: Tensor, kind: WriteKind) -> Result<()> {
        if let Slot::Temp(i) = slot {
            self.scratch.temps[i] = Some(value);
            return Ok(());
        }
        unshare(persistent(self.st, slot), &mut self.scratch.spare);
        let (vm, z) = (self.vm, self.st.z());
        let lanes = Lanes {
            active: &self.scratch.active,
            idx: self.scratch.gathered.then_some(&self.scratch.active_idx),
        };
        let active = lanes.active;
        match slot {
            Slot::Stacked(i) => {
                let s = &mut self.st.stacked[i];
                match kind {
                    WriteKind::Update => {
                        land(&mut s.top, &value, lanes)?;
                        let top = s.top.as_ref().expect("just stored");
                        // Uncached-top ablation: updates scatter to storage.
                        let scattered = if vm.opts.cache_stack_tops {
                            0
                        } else {
                            row_bytes(top)
                        };
                        self.pricing.stack_update(top.size_bytes(), scattered);
                    }
                    WriteKind::Push => {
                        // Materialize the old top (zeros for the virgin frame)
                        // into storage, then cache the new value as top.
                        if s.top.is_none() {
                            s.top = Some(zeroed(z, &value));
                        }
                        for (b, &a) in active.iter().enumerate() {
                            if a && s.sp[b] >= vm.opts.stack_depth {
                                return Err(VmError::StackOverflow {
                                    var: var.clone(),
                                    limit: vm.opts.stack_depth,
                                });
                            }
                        }
                        // Move the top out instead of cloning it so the
                        // masked store below mutates a unique buffer in
                        // place (a live clone would force a copy-on-write).
                        let top = s.top.take().expect("ensured above");
                        if s.store.is_none() {
                            let mut shape = vec![z, vm.opts.stack_depth];
                            shape.extend_from_slice(&top.shape()[1..]);
                            s.store = Some(Tensor::zeros(top.dtype(), &shape));
                        }
                        let store = s.store.as_mut().expect("ensured above");
                        store.scatter_at_depth(&s.sp, active, &top)?;
                        for (b, &a) in active.iter().enumerate() {
                            if a {
                                s.sp[b] += 1;
                            }
                        }
                        let (store_bytes, frame_bytes) = (store.size_bytes(), row_bytes(&top));
                        s.top = Some(top);
                        land(&mut s.top, &value, lanes)?;
                        self.pricing.stack_push(store_bytes, frame_bytes);
                    }
                }
            }
            Slot::Register(i) => {
                debug_assert_eq!(kind, WriteKind::Update, "validated: no push to register");
                land(&mut self.st.registers[i], &value, lanes)?;
            }
            Slot::Temp(_) => unreachable!("a temporary is bound, not landed"),
        }
        self.scratch.give(value);
        Ok(())
    }

    /// Pop the stacked variable in `slot` (`var`, for errors) for the
    /// active members.
    fn pop_var(&mut self, slot: Slot, var: &Var) -> Result<()> {
        let Slot::Stacked(i) = slot else {
            return Err(VmError::Unbound {
                var: var.clone(),
                context: "pop of unknown stacked variable".into(),
            });
        };
        let s = &mut self.st.stacked[i];
        let scratch = &mut *self.scratch;
        let store = s
            .store
            .as_ref()
            .ok_or(VmError::StackUnderflow { var: var.clone() })?;
        for &b in &scratch.active_idx {
            if s.sp[b] == 0 {
                return Err(VmError::StackUnderflow { var: var.clone() });
            }
        }
        scratch.depths.clear();
        scratch.depths.extend(
            s.sp.iter()
                .zip(&scratch.active)
                .map(|(&d, &a)| if a { d - 1 } else { 0 }),
        );
        let (depths, active) = (&scratch.depths, &scratch.active[..]);
        unshare(&mut s.top, &mut scratch.spare);
        // The frames land straight in the cached top, under the mask. A
        // top without the frame shape `[Z] ++ store.shape()[2..]` is
        // first replaced by zeros of it, as `land` replaces a slot.
        let top = match &mut s.top {
            Some(top)
                if top.dtype() == store.dtype()
                    && top.shape()[0] == store.shape()[0]
                    && top.shape()[1..] == store.shape()[2..] =>
            {
                top
            }
            top => {
                let frame: Vec<usize> = std::iter::once(store.shape()[0])
                    .chain(store.shape()[2..].iter().copied())
                    .collect();
                top.insert(Tensor::zeros(store.dtype(), &frame))
            }
        };
        store.gather_at_depth_into(depths, active, top)?;
        for &b in &scratch.active_idx {
            s.sp[b] -= 1;
        }
        self.pricing.stack_pop(store.size_bytes(), row_bytes(top));
        Ok(())
    }
}

/// A member retired from a [`PcMachine`]: its admission ticket, RNG key,
/// and the program outputs for that member (each tensor `[1, elem..]`).
#[derive(Debug, Clone)]
pub struct Retired {
    /// The ticket returned by [`PcMachine::admit`].
    pub ticket: u64,
    /// The RNG member key the request ran under.
    pub key: u64,
    /// One `[1, elem..]` tensor per program output.
    pub outputs: Vec<Tensor>,
}

/// An incremental program-counter VM supporting **dynamic batch
/// admission**: members join an in-flight batch at the entry block (with
/// fresh stacks) and are compacted out once their pc top hits the exit.
///
/// The machine is `Send` (all member state is owned; external kernels
/// are `Send + Sync` by trait bound), so a sharded serving runtime can
/// hand each machine to its own worker thread — each shard drives its
/// machine independently while borrowing the shared lowered [`Program`].
/// This is asserted at compile time (see the `send_handoff` assertions
/// in this module), not just by convention.
///
/// Because every random draw is keyed by `(seed, member_key, counter)`
/// and each lane carries its own `member_key`, a member's results are
/// bit-identical whether it runs alone or joins a busy batch mid-flight —
/// admission order cannot perturb results. This is what turns the
/// one-shot batched VM into a serving runtime (see the `autobatch-serve`
/// crate).
///
/// # The member set
///
/// Who is in the batch changes four ways — [`PcMachine::admit_batch`],
/// [`PcMachine::retire_finished`], [`PcMachine::extract_lanes`] and
/// [`PcMachine::inject_lane`] — and each is validation followed by the
/// same two edits of the per-lane state (append lanes, keep a subset of
/// lanes). The `member_set` module owns that state and spells out what
/// all four keep true: every per-lane structure has one length, lanes
/// stay in ticket order, an edit is legal only between one
/// [`PcMachine::step`] returning and the next beginning, and an edit
/// that returns an error has not touched the machine.
///
/// # Examples
///
/// ```
/// use autobatch_core::{lower, KernelRegistry, LoweringOptions, PcMachine, ExecOptions};
/// use autobatch_ir::build::fibonacci_program;
/// use autobatch_tensor::Tensor;
///
/// let (program, _) = lower(&fibonacci_program(), LoweringOptions::default())?;
/// let mut m = PcMachine::new(&program, KernelRegistry::new(), ExecOptions::default());
/// m.admit(&[Tensor::from_i64(&[6], &[1])?], 0, None)?;
/// m.step(None)?; // ... and mid-flight:
/// m.admit(&[Tensor::from_i64(&[9], &[1])?], 1, None)?;
/// let done = m.run_to_completion(None)?;
/// let mut fib: Vec<i64> = done
///     .iter()
///     .map(|r| r.outputs[0].as_i64().map(|v| v[0]))
///     .collect::<Result<_, _>>()?;
/// fib.sort_unstable();
/// assert_eq!(fib, vec![13, 55]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct PcMachine<'p> {
    vm: PcVm<'p>,
    st: State,
    scratch: Scratch,
    /// Whether [`PcMachine::step`] folds lane footprints into the
    /// lanes' peak bytes (see [`PcMachine::track_peak_bytes`]).
    track_peak_bytes: bool,
    steps: u64,
    /// How many of `steps` ran gathered.
    gathered_steps: u64,
    last_active: usize,
}

impl<'p> PcMachine<'p> {
    /// Create an empty machine (no members) for a lowered program.
    pub fn new(program: &'p Program, registry: KernelRegistry, opts: ExecOptions) -> Self {
        let vm = PcVm::new(program, registry, opts);
        PcMachine {
            scratch: Scratch::new(&vm),
            vm,
            st: State::new(program),
            track_peak_bytes: false,
            steps: 0,
            gathered_steps: 0,
            last_active: 0,
        }
    }

    /// The program this machine executes.
    pub fn program(&self) -> &Program {
        self.vm.program
    }

    /// Live members (running + finished-but-not-yet-retired).
    pub fn live(&self) -> usize {
        self.st.z()
    }

    /// Members whose pc top has not yet reached the exit.
    pub fn running(&self) -> usize {
        self.running_lanes().count()
    }

    /// The lanes that have yet to reach the exit, in lane order.
    fn running_lanes(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.st.z()).filter(|&b| self.st.is_running(b))
    }

    /// Members that finished and are waiting to be retired.
    pub fn finished(&self) -> usize {
        self.live() - self.running()
    }

    /// Supersteps executed so far (counts toward
    /// [`ExecOptions::max_supersteps`]).
    pub fn supersteps(&self) -> u64 {
        self.steps
    }

    /// How many of those supersteps ran gathered — active rows copied
    /// out, computed dense, scattered back — instead of masked: all of
    /// them under `ExecStrategy::GatherScatter`, none under
    /// `ExecStrategy::Masking`, and under `ExecStrategy::Adaptive`
    /// the ones [`gather_pays`](crate::gather_pays) chose.
    pub fn gathered_supersteps(&self) -> u64 {
        self.gathered_steps
    }

    /// Active members in the most recent superstep (0 before any step).
    /// Admission policies read this as a utilization signal.
    pub fn last_active(&self) -> usize {
        self.last_active
    }

    /// Supersteps left before [`ExecOptions::max_supersteps`] trips —
    /// the limit is cumulative over the machine's lifetime. Zero means
    /// [`PcMachine::step`] can only error from here on; admission layers
    /// check this so they never strand fresh work in a machine that
    /// cannot run it.
    pub fn step_budget_remaining(&self) -> u64 {
        self.vm.opts.max_supersteps.saturating_sub(self.steps)
    }

    /// Turn per-lane peak-byte accounting on or off (off by default).
    /// It costs a walk of every lane per superstep, so only a server
    /// that enforces a per-lane memory ceiling asks for it. While off,
    /// the peaks [`PcMachine::lane_spend`] reports stay where they were
    /// (zero for a lane admitted here; the carried value for a lane
    /// injected from a checkpoint).
    pub fn track_peak_bytes(&mut self, on: bool) {
        self.track_peak_bytes = on;
    }

    /// Admission tickets of the live members, lane by lane.
    pub fn tickets(&self) -> &[u64] {
        &self.st.tickets
    }

    /// Admit one member at the entry block with fresh stacks. `inputs`
    /// holds one `[1, elem..]` tensor per program input; `key` is the RNG
    /// member key the lane draws under. Returns an admission ticket.
    ///
    /// To admit several members at once, [`PcMachine::admit_batch`]
    /// grows every buffer a single time instead of once per member.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::BadInputs`] on arity or shape mismatch.
    pub fn admit(&mut self, inputs: &[Tensor], key: u64, trace: Option<&mut Trace>) -> Result<u64> {
        self.admit_batch(&[(inputs, key)], trace)
            .map(|tickets| tickets[0])
    }

    /// Admit several members at once: each entry holds one `[1, elem..]`
    /// tensor per program input plus the lane's RNG member key. The
    /// [member set](PcMachine#the-member-set) grows by `requests.len()`
    /// fresh lanes in one edit (one copy of the live state, however many
    /// members join, so a full batch refill costs the same as one
    /// admission), and each input is written into the new lanes once;
    /// live members are untouched. Returns one admission ticket per
    /// request, in order.
    ///
    /// Programs are shape-polymorphic (like [`PcVm::run`], which accepts
    /// any consistently-shaped batch), so the machine's **first**
    /// admission fixes each input's element shape and dtype for the
    /// machine's lifetime — the buffers keep their trailing shape even
    /// when every lane retires — and all later admissions are validated
    /// against it.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::BadInputs`] on arity mismatch, non-row inputs,
    /// or disagreement with the established element shapes/dtypes;
    /// validation happens before the machine is touched.
    pub fn admit_batch(
        &mut self,
        requests: &[(&[Tensor], u64)],
        trace: Option<&mut Trace>,
    ) -> Result<Vec<u64>> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        for (inputs, _) in requests {
            self.vm.check_arity(inputs.len())?;
            for t in *inputs {
                if t.rank() == 0 || t.shape()[0] != 1 {
                    return Err(VmError::BadInputs {
                        what: format!(
                            "admitted inputs must be single-member rows [1, ..], got {:?}",
                            t.shape()
                        ),
                    });
                }
            }
        }
        // Stack the requests' rows per program input — [k, elem..] each —
        // so cross-request shape mismatches surface here.
        let stacked_inputs: Vec<Tensor> = (0..self.vm.program.inputs.len())
            .map(|j| {
                let rows: Vec<Tensor> = requests.iter().map(|(ins, _)| ins[j].clone()).collect();
                Tensor::concat_rows(&rows).map_err(VmError::from)
            })
            .collect::<Result<_>>()?;
        let keys = requests.iter().map(|&(_, key)| key);
        let z = self.vm.bind(&mut self.st, &stacked_inputs, keys)?;
        if let Some(t) = trace {
            t.membership(requests.len(), 0, self.st.z());
        }
        Ok(self.st.tickets[z..].to_vec())
    }

    /// Run one superstep. Returns `false` (and does nothing) when no
    /// member is runnable — all lanes are finished or the machine is
    /// empty.
    ///
    /// # Errors
    ///
    /// As [`PcVm::run`]; the superstep count is cumulative over the
    /// machine's lifetime.
    pub fn step(&mut self, trace: Option<&mut Trace>) -> Result<bool> {
        let vm = &self.vm;
        let Some(i) = vm.next_block(&self.st, &mut self.scratch, &mut self.steps)? else {
            self.last_active = 0;
            return Ok(false);
        };
        // Chaos hook: a scheduled execution fault fires *before* the
        // block runs, so the machine state stays consistent (nothing is
        // half-mutated) and a supervisor can salvage and retry. The
        // default plan never fires.
        let fault = vm.opts.fault;
        if fault.fires(autobatch_chaos::FaultPoint::ExecStep, self.steps) {
            return Err(VmError::Injected {
                point: autobatch_chaos::FaultPoint::ExecStep.name(),
                counter: self.steps,
            });
        }
        self.last_active = vm.run_block(&mut self.st, &mut self.scratch, i, trace)?;
        self.gathered_steps += u64::from(self.scratch.gathered);
        // Chaos hook: a runaway lane never reaches the exit — the
        // moment its pc top would finish, it is reset to the entry
        // block, exactly as a genuinely non-terminating program would
        // behave. The roll is keyed by the lane's RNG member key, so
        // whether a request runs away is a property of the request:
        // stable across shards, retries, and migrations. Batchmates are
        // untouched — a lane's pc only selects which blocks *it*
        // executes, and masked execution already guarantees results are
        // independent of what other lanes run.
        if fault.runaway != 0 {
            let (entry, n_blocks) = (vm.program.entry.0, vm.program.blocks.len());
            for b in 0..self.st.z() {
                if !self.st.is_running(b)
                    && fault.fires(autobatch_chaos::FaultPoint::Runaway, self.st.member_keys[b])
                {
                    self.st.pc_top[b] = entry;
                    // Restore the admission-time exit sentinel the
                    // finishing `Ret` just popped, so the rewound
                    // lane's next return re-parks it at the exit
                    // (where it is rewound again) instead of
                    // underflowing the pc stack.
                    self.st.pc_stack[b].push(n_blocks);
                }
            }
        }
        // Budget accounting: every lane still running after this
        // superstep is charged one superstep, whether or not its block
        // was the one selected — a parked lane occupies the machine all
        // the same. Lanes that just finished stop accruing.
        for b in 0..self.st.z() {
            if self.st.is_running(b) {
                self.st.spent[b] += 1;
            }
        }
        if self.track_peak_bytes {
            self.update_peak_bytes();
        }
        Ok(true)
    }

    /// Fold each lane's current resident-byte footprint into its peak.
    /// Derived entirely from buffer shapes and stack pointers — no data
    /// walk and no allocation — so the per-superstep cost is a few
    /// scalar ops per lane and stacked variable.
    fn update_peak_bytes(&mut self) {
        // Registers and stack tops hold one row per lane regardless of
        // stack depth; only the occupied store frames vary by lane.
        let st = &mut self.st;
        let mut base: u64 = 0;
        for slot in st.registers.iter().flatten() {
            base += elem_bytes(slot.shape(), 1, slot.dtype());
        }
        for top in st.stacked.iter().filter_map(|s| s.top.as_ref()) {
            base += elem_bytes(top.shape(), 1, top.dtype());
        }
        for (b, peak) in st.peak_bytes.iter_mut().enumerate() {
            let mut bytes = base;
            for s in &st.stacked {
                if let Some(store) = &s.store {
                    bytes += s.sp[b] as u64 * elem_bytes(store.shape(), 2, store.dtype());
                }
            }
            *peak = (*peak).max(bytes);
        }
    }

    /// `(ticket, spent supersteps, peak resident bytes)` of every
    /// **running** lane, in lane order — what a budget-enforcing server
    /// reads at each superstep boundary to decide evictions. Spend
    /// starts at zero on admission, increments once per superstep the
    /// lane stays running, and travels with the lane through
    /// [`PcMachine::extract_lanes`] / [`PcMachine::inject_lane`], so
    /// migrating cannot reset a budget.
    pub fn lane_spend(&self) -> Vec<(u64, u64, u64)> {
        let st = &self.st;
        self.running_lanes()
            .map(|b| (st.tickets[b], st.spent[b], st.peak_bytes[b]))
            .collect()
    }

    /// Retire every finished member: read its outputs, then drop its
    /// lane from the [member set](PcMachine#the-member-set). Returns the
    /// retired members in lane order.
    ///
    /// # Errors
    ///
    /// Propagates output-read errors.
    pub fn retire_finished(&mut self, trace: Option<&mut Trace>) -> Result<Vec<Retired>> {
        // Called once per superstep and usually with nothing to retire:
        // decide that before allocating anything.
        let done = self.finished();
        if done == 0 {
            return Ok(Vec::new());
        }
        let keep: Vec<usize> = self.running_lanes().collect();
        let outs_full = self.vm.outputs(&self.st)?;
        let mut retired = Vec::with_capacity(done);
        for b in (0..self.st.z()).filter(|&b| !self.st.is_running(b)) {
            let outputs: Vec<Tensor> = outs_full
                .iter()
                .map(|t| t.gather_rows(&[b]).map_err(VmError::from))
                .collect::<Result<_>>()?;
            retired.push(Retired {
                ticket: self.st.tickets[b],
                key: self.st.member_keys[b],
                outputs,
            });
        }
        self.st.compact(&keep)?;
        if let Some(t) = trace {
            t.membership(0, done, self.st.z());
        }
        Ok(retired)
    }

    /// Step until no member is runnable, retiring as members finish.
    /// Returns all members retired during the call.
    ///
    /// # Errors
    ///
    /// As [`PcMachine::step`] / [`PcMachine::retire_finished`].
    pub fn run_to_completion(&mut self, mut trace: Option<&mut Trace>) -> Result<Vec<Retired>> {
        let mut all = Vec::new();
        loop {
            all.extend(self.retire_finished(trace.as_deref_mut())?);
            if !self.step(trace.as_deref_mut())? {
                all.extend(self.retire_finished(trace.as_deref_mut())?);
                return Ok(all);
            }
        }
    }

    /// Histogram of **running** lanes per pc top. Finished lanes are
    /// excluded — they leave at the next retirement and carry no
    /// affinity signal.
    pub fn pc_histogram(&self) -> BTreeMap<usize, usize> {
        let mut hist = BTreeMap::new();
        for b in self.running_lanes() {
            *hist.entry(self.st.pc_top[b]).or_insert(0) += 1;
        }
        hist
    }

    /// `(ticket, pc)` of every **running** lane, in lane order.
    pub fn lane_pcs(&self) -> Vec<(u64, usize)> {
        self.running_lanes()
            .map(|b| (self.st.tickets[b], self.st.pc_top[b]))
            .collect()
    }

    /// Extract the given **running** lanes as portable [`LaneState`]s and
    /// drop them from the [member set](PcMachine#the-member-set) — the same
    /// shrink as [`PcMachine::retire_finished`], keyed by ticket
    /// instead of exit pc. Returns `(ticket, state)` pairs in the order
    /// requested — the eviction half of cross-shard straggler
    /// migration, and the checkpoint path budget enforcement evicts
    /// over-limit lanes through. All callers in this workspace —
    /// migration planning and budget eviction alike — run strictly
    /// between supersteps, where removing a lane is a row selection the
    /// remaining lanes cannot observe.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::BadInputs`] for an unknown ticket, a lane
    /// that has already finished (finished lanes must retire, not
    /// migrate) or a ticket requested twice (one lane cannot leave as
    /// two); the machine is untouched then.
    pub fn extract_lanes(
        &mut self,
        tickets: &[u64],
        trace: Option<&mut Trace>,
    ) -> Result<Vec<(u64, LaneState)>> {
        if tickets.is_empty() {
            return Ok(Vec::new());
        }
        let mut lanes = Vec::with_capacity(tickets.len());
        for &ticket in tickets {
            let Some(b) = self.st.tickets.iter().position(|&t| t == ticket) else {
                return Err(VmError::BadInputs {
                    what: format!("extract_lanes: no live lane holds ticket {ticket}"),
                });
            };
            if !self.st.is_running(b) {
                return Err(VmError::BadInputs {
                    what: format!("extract_lanes: lane with ticket {ticket} already finished"),
                });
            }
            if lanes.contains(&b) {
                return Err(VmError::BadInputs {
                    what: format!("extract_lanes: ticket {ticket} requested twice"),
                });
            }
            lanes.push(b);
        }
        let out = tickets
            .iter()
            .zip(&lanes)
            .map(|(&ticket, &b)| Ok((ticket, self.st.snapshot(b)?)))
            .collect::<Result<_>>()?;
        let keep: Vec<usize> = (0..self.st.z()).filter(|b| !lanes.contains(b)).collect();
        self.st.compact(&keep)?;
        if let Some(t) = trace {
            t.migrate_out(lanes.len(), self.st.z());
        }
        Ok(out)
    }

    /// Re-admit a lane previously produced by [`PcMachine::extract_lanes`]
    /// (possibly on a different machine): the admission half of
    /// straggler migration. The [member set](PcMachine#the-member-set) grows
    /// by one lane, which takes over the extracted lane's pc stack, data
    /// stacks, registers, RNG key and spend, so its remaining draws and
    /// outputs are bit-identical to never having moved. Returns the
    /// lane's new ticket on this machine.
    ///
    /// Source and destination must execute the same lowered program
    /// under the same [`ExecOptions::stack_depth`].
    ///
    /// # Errors
    ///
    /// Returns [`VmError::BadInputs`] on arity or depth mismatch, or
    /// when the lane's rows disagree with the live batch's element
    /// shapes.
    pub fn inject_lane(&mut self, lane: &LaneState, trace: Option<&mut Trace>) -> Result<u64> {
        self.st.accepts(lane, self.vm.opts.stack_depth)?;
        let b = self.st.z();
        self.st.grow(1)?;
        self.st.restore(b, lane)?;
        if let Some(t) = trace {
            t.migrate_in(1, self.st.z());
        }
        Ok(self.st.tickets[b])
    }
}

/// Bytes of one member's row of a `[Z, elem..]` buffer.
fn row_bytes(t: &Tensor) -> usize {
    elem_bytes(t.shape(), 1, t.dtype()) as usize
}

/// Resident bytes of one member's slice of a batched buffer: the
/// element volume past the leading `skip` axes (batch axes) times the
/// dtype width.
fn elem_bytes(shape: &[usize], skip: usize, dtype: DType) -> u64 {
    shape[skip..].iter().product::<usize>() as u64 * dtype.size_bytes() as u64
}

/// Compile-time proof of the Send-safe machine handoff contract: a
/// sharded serving runtime moves whole machines (and their retired
/// results) into worker threads that outlive no borrow but the shared
/// program. If a non-`Send` type (an `Rc`, a raw pointer, a
/// thread-bound RNG) ever sneaks into the member state, this fails to
/// compile rather than failing at the first multi-worker deployment.
mod send_handoff {
    fn assert_send<T: Send>() {}
    fn assert_sync<T: Sync>() {}

    #[allow(dead_code)]
    fn machine_handoff_is_send() {
        assert_send::<super::PcVm<'_>>();
        assert_send::<super::PcMachine<'_>>();
        assert_send::<super::Retired>();
        assert_send::<crate::kernels::KernelRegistry>();
        // The lowered program is shared immutably across worker threads.
        assert_sync::<autobatch_ir::pcab::Program>();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lowering::lower;
    use crate::options::{BlockHeuristic, ExecStrategy, LoweringOptions};
    use autobatch_accel::Backend;
    use autobatch_ir::build::fibonacci_program;

    fn fib_vm_run(ns: &[i64], opts: ExecOptions) -> Vec<i64> {
        let p = fibonacci_program();
        let (pc, _) = lower(&p, LoweringOptions::default()).unwrap();
        let vm = PcVm::new(&pc, KernelRegistry::new(), opts);
        let out = vm
            .run(&[Tensor::from_i64(ns, &[ns.len()]).unwrap()], None)
            .unwrap();
        out[0].as_i64().unwrap().to_vec()
    }

    #[test]
    fn fibonacci_via_explicit_stacks() {
        assert_eq!(
            fib_vm_run(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10], ExecOptions::default()),
            vec![1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
        );
    }

    #[test]
    fn fibonacci_gather_scatter_strategy() {
        let opts = ExecOptions {
            strategy: ExecStrategy::GatherScatter,
            ..ExecOptions::default()
        };
        assert_eq!(fib_vm_run(&[6, 7, 8, 9], opts), vec![13, 21, 34, 55]);
    }

    #[test]
    fn fibonacci_most_active_heuristic() {
        let opts = ExecOptions {
            heuristic: BlockHeuristic::MostActive,
            ..ExecOptions::default()
        };
        assert_eq!(fib_vm_run(&[3, 9, 1], opts), vec![3, 55, 1]);
    }

    #[test]
    fn fibonacci_without_top_caching() {
        let opts = ExecOptions {
            cache_stack_tops: false,
            ..ExecOptions::default()
        };
        assert_eq!(fib_vm_run(&[5, 8], opts), vec![8, 34]);
    }

    #[test]
    fn unoptimized_lowering_still_correct() {
        let p = fibonacci_program();
        let (pc, _) = lower(&p, LoweringOptions::unoptimized()).unwrap();
        let vm = PcVm::new(&pc, KernelRegistry::new(), ExecOptions::default());
        let out = vm
            .run(&[Tensor::from_i64(&[7, 2, 9], &[3]).unwrap()], None)
            .unwrap();
        assert_eq!(out[0].as_i64().unwrap(), &[21, 2, 55]);
    }

    #[test]
    fn stack_overflow_reported() {
        let p = fibonacci_program();
        let (pc, _) = lower(&p, LoweringOptions::default()).unwrap();
        let opts = ExecOptions {
            stack_depth: 4,
            ..ExecOptions::default()
        };
        let vm = PcVm::new(&pc, KernelRegistry::new(), opts);
        let err = vm.run(&[Tensor::from_i64(&[25], &[1]).unwrap()], None);
        assert!(matches!(err, Err(VmError::StackOverflow { .. })), "{err:?}");
    }

    #[test]
    fn members_at_different_depths_batch_together() {
        // Observe at least one superstep where two members with different
        // pc stack depths are simultaneously active — the capability the
        // paper's §3 adds over local static autobatching.
        let p = fibonacci_program();
        let (pc, _) = lower(&p, LoweringOptions::default()).unwrap();
        let vm = PcVm::new(&pc, KernelRegistry::new(), ExecOptions::default());
        let mut cross_depth_batch = false;
        let mut obs = |o: &PcObservation<'_>| {
            let depths: Vec<usize> = o
                .active
                .iter()
                .enumerate()
                .filter(|(_, &a)| a)
                .map(|(b, _)| o.pc_depth[b])
                .collect();
            if depths.len() >= 2 && depths.iter().any(|&d| d != depths[0]) {
                cross_depth_batch = true;
            }
        };
        vm.run_observed(
            &[Tensor::from_i64(&[6, 9], &[2]).unwrap()],
            None,
            Some(&mut obs),
        )
        .unwrap();
        assert!(cross_depth_batch, "no cross-depth batching observed");
    }

    #[test]
    fn trace_records_stack_traffic_and_blocks() {
        let p = fibonacci_program();
        let (pc, _) = lower(&p, LoweringOptions::default()).unwrap();
        let vm = PcVm::new(&pc, KernelRegistry::new(), ExecOptions::default());
        let mut tr = Trace::new(Backend::xla_cpu());
        vm.run(&[Tensor::from_i64(&[8, 9], &[2]).unwrap()], Some(&mut tr))
            .unwrap();
        assert!(tr.supersteps() > 0);
        assert!(tr.kernels().any(|(k, _)| k.starts_with("block:")));
        // Fused mode folds stack traffic into block launches.
        assert!(tr.sim_time() > 0.0);
        // Eager mode shows explicit stack launches.
        let mut tr2 = Trace::new(Backend::eager_cpu());
        vm.run(&[Tensor::from_i64(&[8, 9], &[2]).unwrap()], Some(&mut tr2))
            .unwrap();
        assert!(tr2.kernel_stats("stack").is_some());
    }

    #[test]
    fn pc_vm_matches_lsab_vm_bitwise() {
        use crate::lsab_vm::LocalStaticVm;
        let p = fibonacci_program();
        let lsab_vm = LocalStaticVm::new(&p, KernelRegistry::new(), ExecOptions::default());
        let (pcp, _) = lower(&p, LoweringOptions::default()).unwrap();
        let pc_vm = PcVm::new(&pcp, KernelRegistry::new(), ExecOptions::default());
        let input = Tensor::from_i64(&[0, 3, 11, 7, 1], &[5]).unwrap();
        let a = lsab_vm.run(std::slice::from_ref(&input), None).unwrap();
        let b = pc_vm.run(std::slice::from_ref(&input), None).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn stack_overflow_error_identical_across_strategies() {
        // The masked push path guards `sp >= stack_depth` before the
        // scatter; both execution strategies must surface the exact same
        // VmError (not, e.g., a tensor bounds error from the scatter).
        let p = fibonacci_program();
        for lopts in [LoweringOptions::default(), LoweringOptions::unoptimized()] {
            let (pc, _) = lower(&p, lopts).unwrap();
            let errs: Vec<VmError> = [ExecStrategy::Masking, ExecStrategy::GatherScatter]
                .into_iter()
                .map(|strategy| {
                    let opts = ExecOptions {
                        strategy,
                        stack_depth: 4,
                        ..ExecOptions::default()
                    };
                    let vm = PcVm::new(&pc, KernelRegistry::new(), opts);
                    // One deep member among shallow ones: overflow happens
                    // while only a subset is active.
                    vm.run(&[Tensor::from_i64(&[1, 25, 2], &[3]).unwrap()], None)
                        .unwrap_err()
                })
                .collect();
            assert!(
                matches!(errs[0], VmError::StackOverflow { .. }),
                "{:?}",
                errs[0]
            );
            assert_eq!(errs[0], errs[1], "strategies disagree under {lopts:?}");
        }
    }

    #[test]
    fn stack_underflow_error_identical_across_strategies() {
        // A hand-built program that pops a never-pushed stacked variable.
        use autobatch_ir::pcab::{Block, VarClass};
        use autobatch_ir::BlockId;
        let x = Var::new("x");
        let prog = Program {
            blocks: vec![Block {
                ops: vec![Op::Pop { var: x.clone() }],
                term: Terminator::Return,
            }],
            entry: BlockId(0),
            inputs: vec![x.clone()],
            outputs: vec![x.clone()],
            classes: [(x.clone(), VarClass::Stacked)].into_iter().collect(),
        };
        prog.validate().unwrap();
        let errs: Vec<VmError> = [ExecStrategy::Masking, ExecStrategy::GatherScatter]
            .into_iter()
            .map(|strategy| {
                let opts = ExecOptions {
                    strategy,
                    ..ExecOptions::default()
                };
                let vm = PcVm::new(&prog, KernelRegistry::new(), opts);
                vm.run(&[Tensor::from_i64(&[1, 2], &[2]).unwrap()], None)
                    .unwrap_err()
            })
            .collect();
        assert_eq!(errs[0], VmError::StackUnderflow { var: x });
        assert_eq!(errs[0], errs[1]);
    }

    #[test]
    fn a_temporary_bound_in_an_earlier_superstep_reads_as_unbound_by_name() {
        // Block 0 binds the temporary `t`, block 1 reads a `t` it never
        // binds: both are their block's temporary 0, so only clearing
        // the temporaries between supersteps keeps block 1 from reading
        // block 0's value. The error still names the variable.
        use autobatch_ir::pcab::VarClass;
        use autobatch_ir::BlockId;
        let (x, y, t) = (Var::new("x"), Var::new("y"), Var::new("t"));
        let compute = |out: &Var, prim, ins: &[&Var]| Op::Compute {
            outs: vec![(out.clone(), WriteKind::Update)],
            prim,
            ins: ins.iter().map(|&v| v.clone()).collect(),
        };
        let prog = Program {
            blocks: vec![
                Block {
                    ops: vec![compute(&t, Prim::Neg, &[&x])],
                    term: Terminator::Jump(BlockId(1)),
                },
                Block {
                    ops: vec![compute(&y, Prim::Neg, &[&t])],
                    term: Terminator::Return,
                },
            ],
            entry: BlockId(0),
            inputs: vec![x.clone()],
            outputs: vec![y.clone()],
            classes: [(x, VarClass::Register), (y, VarClass::Register)]
                .into_iter()
                .collect(),
        };
        let input = Tensor::from_f64(&[1.0, 2.0], &[2]).unwrap();
        for strategy in [ExecStrategy::Masking, ExecStrategy::GatherScatter] {
            for fuse_elementwise in [true, false] {
                let opts = ExecOptions {
                    strategy,
                    fuse_elementwise,
                    ..ExecOptions::default()
                };
                let vm = PcVm::new(&prog, KernelRegistry::new(), opts);
                let err = vm.run(std::slice::from_ref(&input), None).unwrap_err();
                assert_eq!(
                    err,
                    VmError::Unbound {
                        var: t.clone(),
                        context: "compute".into()
                    }
                );
            }
        }
    }

    #[test]
    fn a_push_past_the_stack_depth_names_the_stacked_variable() {
        // One block pushes `s` and jumps back to itself: the push after
        // `stack_depth` frames overflows, and says which variable did.
        use autobatch_ir::pcab::VarClass;
        use autobatch_ir::BlockId;
        let (x, s) = (Var::new("x"), Var::new("s"));
        let prog = Program {
            blocks: vec![Block {
                ops: vec![Op::Compute {
                    outs: vec![(s.clone(), WriteKind::Push)],
                    prim: Prim::Neg,
                    ins: vec![x.clone()],
                }],
                term: Terminator::Jump(BlockId(0)),
            }],
            entry: BlockId(0),
            inputs: vec![x.clone()],
            outputs: vec![x.clone()],
            classes: [(x, VarClass::Register), (s.clone(), VarClass::Stacked)]
                .into_iter()
                .collect(),
        };
        prog.validate().unwrap();
        let input = Tensor::from_f64(&[1.0, 2.0], &[2]).unwrap();
        for fuse_elementwise in [true, false] {
            let opts = ExecOptions {
                stack_depth: 3,
                fuse_elementwise,
                ..ExecOptions::default()
            };
            let vm = PcVm::new(&prog, KernelRegistry::new(), opts);
            let err = vm.run(std::slice::from_ref(&input), None).unwrap_err();
            assert_eq!(
                err,
                VmError::StackOverflow {
                    var: s.clone(),
                    limit: 3
                }
            );
        }
    }

    #[test]
    fn pc_and_data_stacks_overflow_at_the_same_depth() {
        // The pc stack's bottom exit sentinel is not a real frame: a
        // member may hold `stack_depth` return addresses, exactly the
        // data stacks' frame capacity.
        let p = fibonacci_program();
        let (pc, _) = lower(&p, LoweringOptions::unoptimized()).unwrap();
        let opts = ExecOptions {
            stack_depth: 3,
            ..ExecOptions::default()
        };
        let vm = PcVm::new(&pc, KernelRegistry::new(), opts);
        // Depth-3 recursion fits; depth-4 overflows — wherever the limit
        // bites first, it is the same limit for pc and data stacks.
        assert!(vm
            .run(&[Tensor::from_i64(&[4], &[1]).unwrap()], None)
            .is_ok());
        let err = vm.run(&[Tensor::from_i64(&[7], &[1]).unwrap()], None);
        assert!(
            matches!(err, Err(VmError::StackOverflow { limit: 3, .. })),
            "{err:?}"
        );
    }

    #[test]
    fn a_failed_superstep_keeps_what_the_machine_learned() {
        // The scratch arena is lent to a superstep, not taken: when one
        // overflows the stack, the costs the machine measured on the
        // blocks it had already run are still there afterwards.
        let (pc, _) = lower(&fibonacci_program(), LoweringOptions::default()).unwrap();
        let opts = ExecOptions {
            stack_depth: 4,
            ..ExecOptions::default()
        };
        let mut m = PcMachine::new(&pc, KernelRegistry::new(), opts);
        m.admit(&[Tensor::from_i64(&[25], &[1]).unwrap()], 0, None)
            .unwrap();
        let measured = |m: &PcMachine<'_>| -> Vec<usize> {
            let memos = m.scratch.blocks.iter().enumerate();
            memos.filter_map(|(i, b)| b.cost.map(|_| i)).collect()
        };
        let mut before = Vec::new();
        let err = loop {
            match m.step(None) {
                Ok(true) => before = measured(&m),
                other => break other,
            }
        };
        assert!(matches!(err, Err(VmError::StackOverflow { .. })), "{err:?}");
        assert!(!before.is_empty());
        assert_eq!(measured(&m), before);
    }

    #[test]
    fn fused_region_falls_back_on_zero_sized_elements() {
        // Regression: a region with a member-narrow materialized def
        // (the const-derived register `s`) must fall back — not error —
        // when the wide shape has a zero-sized element axis, matching
        // per-op execution bit for bit.
        use autobatch_ir::pcab::{Block, Op, Program, VarClass, WriteKind};
        use autobatch_ir::{BlockId, Prim};
        let (x, y, sv, t0) = (Var::new("x"), Var::new("y"), Var::new("s"), Var::new("%t0"));
        let prog = Program {
            blocks: vec![Block {
                ops: vec![
                    Op::Compute {
                        outs: vec![(t0.clone(), WriteKind::Update)],
                        prim: Prim::ConstF64(2.0),
                        ins: vec![],
                    },
                    Op::Compute {
                        outs: vec![(sv.clone(), WriteKind::Update)],
                        prim: Prim::Id,
                        ins: vec![t0.clone()],
                    },
                    Op::Compute {
                        outs: vec![(y.clone(), WriteKind::Update)],
                        prim: Prim::Mul,
                        ins: vec![x.clone(), sv.clone()],
                    },
                ],
                term: Terminator::Return,
            }],
            entry: BlockId(0),
            inputs: vec![x.clone()],
            outputs: vec![y.clone(), sv.clone()],
            classes: [
                (x, VarClass::Register),
                (y, VarClass::Register),
                (sv, VarClass::Register),
            ]
            .into_iter()
            .collect(),
        };
        prog.validate().unwrap();
        let input = Tensor::zeros(autobatch_tensor::DType::F64, &[2, 0]);
        let run = |fuse: bool| {
            let opts = ExecOptions {
                fuse_elementwise: fuse,
                ..ExecOptions::default()
            };
            PcVm::new(&prog, KernelRegistry::new(), opts)
                .run(std::slice::from_ref(&input), None)
                .expect("zero-sized elements must execute")
        };
        let fused = run(true);
        let plain = run(false);
        assert_eq!(fused, plain);
        assert_eq!(fused[0].shape(), &[2, 0]);
        assert_eq!(fused[1].as_f64().unwrap(), &[2.0, 2.0]);
    }

    #[test]
    fn a_region_copying_three_dtypes_refuses_once_per_machine_and_changes_nothing() {
        // Regression: the served NUTS program's most common region, a
        // run of `id`s that copies f64, i64 and bool registers. It is
        // planned (`id` has an f64 and an i64 kernel) and refused on the
        // first superstep of a machine, which then never tries it again;
        // outputs and the priced eager trace are those of no fusion.
        use autobatch_ir::pcab::VarClass;
        use autobatch_ir::BlockId;
        let names = ["a", "b", "c", "a2", "b2", "c2"].map(Var::new);
        let copy = |out: &Var, x: &Var| Op::Compute {
            outs: vec![(out.clone(), WriteKind::Update)],
            prim: Prim::Id,
            ins: vec![x.clone()],
        };
        let prog = Program {
            blocks: vec![Block {
                ops: (0..3).map(|k| copy(&names[k + 3], &names[k])).collect(),
                term: Terminator::Return,
            }],
            entry: BlockId(0),
            inputs: names[..3].to_vec(),
            outputs: names[3..].to_vec(),
            classes: names
                .iter()
                .map(|v| (v.clone(), VarClass::Register))
                .collect(),
        };
        prog.validate().unwrap();
        assert_eq!(crate::fused_spans(&prog), vec![vec![(0, 3)]]);
        let member = |k: i64| {
            vec![
                Tensor::from_f64(&[k as f64 + 0.5], &[1]).unwrap(),
                Tensor::from_i64(&[k], &[1]).unwrap(),
                Tensor::from_bool(&[k % 2 == 0], &[1]).unwrap(),
            ]
        };
        let run = |fuse_elementwise: bool| {
            let opts = ExecOptions {
                fuse_elementwise,
                ..ExecOptions::default()
            };
            let mut m = PcMachine::new(&prog, KernelRegistry::new(), opts);
            let mut trace = Trace::recording(Backend::eager_cpu());
            let mut fused_off = Vec::new();
            let mut done = Vec::new();
            // One member per superstep: block 0 runs three times.
            for k in 0..3 {
                m.admit(&member(k), k as u64, None).unwrap();
                assert!(m.step(Some(&mut trace)).unwrap());
                fused_off.push(m.scratch.blocks[0].fused_off.clone());
                done.extend(m.retire_finished(None).unwrap());
            }
            let outputs: Vec<Vec<Tensor>> = done.into_iter().map(|r| r.outputs).collect();
            (outputs, format!("{trace:?}"), fused_off)
        };
        let (fused, fused_trace, fused_off) = run(true);
        let (plain, plain_trace, no_regions) = run(false);
        assert_eq!(fused_off, vec![vec![true]; 3]);
        assert_eq!(no_regions, vec![Vec::<bool>::new(); 3]);
        assert_eq!(fused, plain);
        assert_eq!(fused[2], member(2));
        assert_eq!(fused_trace, plain_trace);
    }

    #[test]
    fn a_register_that_adopted_a_result_is_not_written_through() {
        // Block 0 loops while `x < 100`: `t = x; y = t * t; x = x + y`.
        // The first superstep has every lane active and `y` unwritten, so
        // `y` adopts the buffer its result was computed in. Later
        // supersteps run the same block with lane 0 finished, computing
        // into buffers the machine kept; if one of them still were `y`'s,
        // lane 0's `y` would change after it left the loop. Run op by op,
        // the temporary `t` shares `x` when `x` is written, so that write
        // first copies `x` into a kept buffer, whose other rows must be
        // `x`'s.
        use autobatch_ir::pcab::VarClass;
        use autobatch_ir::BlockId;
        let [x, y, t, k, c] = ["x", "y", "t", "k", "c"].map(Var::new);
        let compute = |out: &Var, prim: Prim, ins: &[&Var]| Op::Compute {
            outs: vec![(out.clone(), WriteKind::Update)],
            prim,
            ins: ins.iter().map(|&v| v.clone()).collect(),
        };
        let prog = Program {
            blocks: vec![
                Block {
                    ops: vec![
                        compute(&t, Prim::Id, &[&x]),
                        compute(&y, Prim::Mul, &[&t, &t]),
                        compute(&x, Prim::Add, &[&x, &y]),
                        compute(&k, Prim::ConstF64(100.0), &[]),
                        compute(&c, Prim::Lt, &[&x, &k]),
                    ],
                    term: Terminator::Branch {
                        cond: c.clone(),
                        then_: BlockId(0),
                        else_: BlockId(1),
                    },
                },
                Block {
                    ops: vec![],
                    term: Terminator::Return,
                },
            ],
            entry: BlockId(0),
            inputs: vec![x.clone()],
            outputs: vec![x.clone(), y.clone()],
            classes: [(x.clone(), VarClass::Register), (y, VarClass::Register)]
                .into_iter()
                .collect(),
        };
        prog.validate().unwrap();
        let rows = [[50.0], [1.0], [3.0]].map(|v| [Tensor::from_f64(&v, &[1]).unwrap()]);
        let members: Vec<(&[Tensor], u64)> = rows.iter().map(|r| &r[..]).zip(0..).collect();
        let outputs = |m: &mut PcMachine<'_>| -> Vec<Vec<Tensor>> {
            m.admit_batch(&members, None).unwrap();
            let mut done = m.run_to_completion(None).unwrap();
            done.sort_by_key(|r| r.ticket % 3);
            done.into_iter().map(|r| r.outputs).collect()
        };
        let machine = |fuse_elementwise| {
            let opts = ExecOptions {
                fuse_elementwise,
                ..ExecOptions::default()
            };
            PcMachine::new(&prog, KernelRegistry::new(), opts)
        };
        let mut m = machine(true);
        let first = outputs(&mut m);
        // x: 50 → 2,550; 1 → 2 → 6 → 42 → 1,806; 3 → 12 → 156.
        let xy = |x: f64, y: f64| {
            [x, y]
                .map(|v| Tensor::from_f64(&[v], &[1]).unwrap())
                .to_vec()
        };
        let want = vec![xy(2550.0, 2500.0), xy(1806.0, 1764.0), xy(156.0, 144.0)];
        assert_eq!(first, want);
        // The same block again, on the buffers the first run left behind.
        assert_eq!(outputs(&mut m), want);
        assert_eq!(outputs(&mut machine(true)), want);
        assert_eq!(outputs(&mut machine(false)), want);
    }

    #[test]
    fn machine_matches_one_shot_run() {
        // Admitting everyone up front and running to completion is the
        // same as PcVm::run (identity member keys).
        let p = fibonacci_program();
        let (pc, _) = lower(&p, LoweringOptions::default()).unwrap();
        let ns = [0i64, 3, 11, 7, 1];
        let vm = PcVm::new(&pc, KernelRegistry::new(), ExecOptions::default());
        let oneshot = vm
            .run(&[Tensor::from_i64(&ns, &[ns.len()]).unwrap()], None)
            .unwrap();
        let mut m = PcMachine::new(&pc, KernelRegistry::new(), ExecOptions::default());
        for (b, &n) in ns.iter().enumerate() {
            m.admit(&[Tensor::from_i64(&[n], &[1]).unwrap()], b as u64, None)
                .unwrap();
        }
        let mut done = m.run_to_completion(None).unwrap();
        done.sort_by_key(|r| r.ticket);
        let got: Vec<i64> = done
            .iter()
            .map(|r| r.outputs[0].as_i64().unwrap()[0])
            .collect();
        assert_eq!(got, oneshot[0].as_i64().unwrap());
        assert_eq!(m.live(), 0);
    }

    #[test]
    fn mid_flight_admission_is_bit_identical_to_solo_run() {
        // The headline property of dynamic admission: a member admitted
        // into a busy batch computes exactly what it computes alone,
        // because RNG draws are keyed by the member key, not the lane.
        let p = fibonacci_program();
        let (pc, _) = lower(&p, LoweringOptions::default()).unwrap();
        let opts = ExecOptions::default();

        // Solo run of the late request under key 77.
        let mut solo = PcMachine::new(&pc, KernelRegistry::new(), opts);
        solo.admit(&[Tensor::from_i64(&[9], &[1]).unwrap()], 77, None)
            .unwrap();
        let solo_out = solo.run_to_completion(None).unwrap();

        // Same request joins an in-flight batch halfway through.
        let mut m = PcMachine::new(&pc, KernelRegistry::new(), opts);
        m.admit(&[Tensor::from_i64(&[12], &[1]).unwrap()], 1, None)
            .unwrap();
        m.admit(&[Tensor::from_i64(&[8], &[1]).unwrap()], 2, None)
            .unwrap();
        for _ in 0..7 {
            assert!(m.step(None).unwrap());
        }
        let late = m
            .admit(&[Tensor::from_i64(&[9], &[1]).unwrap()], 77, None)
            .unwrap();
        let done = m.run_to_completion(None).unwrap();
        let joined = done.iter().find(|r| r.ticket == late).unwrap();
        assert_eq!(joined.key, 77);
        assert_eq!(joined.outputs, solo_out[0].outputs);
        // And the early members were not perturbed either.
        let first = done.iter().find(|r| r.ticket == 0).unwrap();
        assert_eq!(first.outputs[0].as_i64().unwrap(), &[233]);
    }

    #[test]
    fn migrated_lane_is_bit_identical_to_staying_put() {
        // The property straggler migration rests on: a lane extracted
        // mid-recursion and injected into another machine — even one
        // busy with unrelated work — finishes with exactly the outputs
        // it would have produced at home, because all of its state
        // (pc stack, data stacks, registers, RNG key) moves with it.
        let p = fibonacci_program();
        let (pc, _) = lower(&p, LoweringOptions::default()).unwrap();
        let opts = ExecOptions::default();

        let mut home = PcMachine::new(&pc, KernelRegistry::new(), opts);
        home.admit(&[Tensor::from_i64(&[11], &[1]).unwrap()], 7, None)
            .unwrap();
        let expect = home.run_to_completion(None).unwrap();

        let mut src = PcMachine::new(&pc, KernelRegistry::new(), opts);
        src.admit(&[Tensor::from_i64(&[12], &[1]).unwrap()], 1, None)
            .unwrap();
        let mover = src
            .admit(&[Tensor::from_i64(&[11], &[1]).unwrap()], 7, None)
            .unwrap();
        for _ in 0..9 {
            assert!(src.step(None).unwrap());
        }
        let lanes = src.extract_lanes(&[mover], None).unwrap();
        assert_eq!(lanes.len(), 1);
        assert_eq!(lanes[0].0, mover);
        assert_eq!(src.live(), 1, "extraction compacts the lane out");

        let mut dst = PcMachine::new(&pc, KernelRegistry::new(), opts);
        dst.admit(&[Tensor::from_i64(&[6], &[1]).unwrap()], 2, None)
            .unwrap();
        for _ in 0..3 {
            assert!(dst.step(None).unwrap());
        }
        let new_ticket = dst.inject_lane(&lanes[0].1, None).unwrap();
        let done = dst.run_to_completion(None).unwrap();
        let moved = done.iter().find(|r| r.ticket == new_ticket).unwrap();
        assert_eq!(moved.key, 7);
        assert_eq!(moved.outputs, expect[0].outputs);
        // The source machine's remaining lane is unperturbed.
        let src_done = src.run_to_completion(None).unwrap();
        assert_eq!(src_done[0].outputs[0].as_i64().unwrap(), &[233]);
        // And the destination's original lane too.
        let local = done.iter().find(|r| r.key == 2).unwrap();
        assert_eq!(local.outputs[0].as_i64().unwrap(), &[13]);
    }

    #[test]
    fn migration_into_an_empty_machine_works() {
        // The recipient may never have admitted anything: injection must
        // materialize every buffer itself, at the store's full depth.
        let p = fibonacci_program();
        let (pc, _) = lower(&p, LoweringOptions::default()).unwrap();
        let opts = ExecOptions::default();
        let mut home = PcMachine::new(&pc, KernelRegistry::new(), opts);
        home.admit(&[Tensor::from_i64(&[10], &[1]).unwrap()], 3, None)
            .unwrap();
        let expect = home.run_to_completion(None).unwrap();

        let mut src = PcMachine::new(&pc, KernelRegistry::new(), opts);
        let t = src
            .admit(&[Tensor::from_i64(&[10], &[1]).unwrap()], 3, None)
            .unwrap();
        for _ in 0..6 {
            assert!(src.step(None).unwrap());
        }
        let lanes = src.extract_lanes(&[t], None).unwrap();
        assert_eq!(src.live(), 0);
        let mut dst = PcMachine::new(&pc, KernelRegistry::new(), opts);
        dst.inject_lane(&lanes[0].1, None).unwrap();
        let done = dst.run_to_completion(None).unwrap();
        assert_eq!(done[0].outputs, expect[0].outputs);
    }

    #[test]
    fn extraction_traces_migration_and_rejects_bad_tickets() {
        let p = fibonacci_program();
        let (pc, _) = lower(&p, LoweringOptions::default()).unwrap();
        let mut m = PcMachine::new(&pc, KernelRegistry::new(), ExecOptions::default());
        let mut tr = autobatch_accel::Trace::new(autobatch_accel::Backend::hybrid_cpu());
        let t = m
            .admit(&[Tensor::from_i64(&[9], &[1]).unwrap()], 0, Some(&mut tr))
            .unwrap();
        assert!(matches!(
            m.extract_lanes(&[99], None),
            Err(VmError::BadInputs { .. })
        ));
        m.step(None).unwrap();
        let lanes = m.extract_lanes(&[t], Some(&mut tr)).unwrap();
        assert_eq!(tr.members_migrated_out(), 1);
        assert_eq!(tr.live_members(), 0);
        let mut dst = PcMachine::new(&pc, KernelRegistry::new(), ExecOptions::default());
        let mut tr2 = autobatch_accel::Trace::new(autobatch_accel::Backend::hybrid_cpu());
        dst.inject_lane(&lanes[0].1, Some(&mut tr2)).unwrap();
        assert_eq!(tr2.members_migrated_in(), 1);
        assert_eq!(tr2.live_members(), 1);
        // A finished lane must retire, not migrate.
        let mut f = PcMachine::new(&pc, KernelRegistry::new(), ExecOptions::default());
        let t = f
            .admit(&[Tensor::from_i64(&[1], &[1]).unwrap()], 0, None)
            .unwrap();
        while f.step(None).unwrap() {}
        assert!(matches!(
            f.extract_lanes(&[t], None),
            Err(VmError::BadInputs { .. })
        ));
    }

    /// A ticket named twice is refused before anything moves: two
    /// states of one lane, each re-injected, would run the request
    /// twice.
    #[test]
    fn extracting_a_ticket_twice_is_refused_and_changes_nothing() {
        let p = fibonacci_program();
        let (pc, _) = lower(&p, LoweringOptions::default()).unwrap();
        let mut m = PcMachine::new(&pc, KernelRegistry::new(), ExecOptions::default());
        let input = |n: i64| [Tensor::from_i64(&[n], &[1]).unwrap()];
        let t = m.admit(&input(9), 0, None).unwrap();
        let u = m.admit(&input(7), 1, None).unwrap();
        m.step(None).unwrap();
        for tickets in [[t, t], [u, u]] {
            assert!(matches!(
                m.extract_lanes(&tickets, None),
                Err(VmError::BadInputs { .. })
            ));
            assert_eq!((m.live(), m.running(), m.tickets()), (2, 2, &[t, u][..]));
        }
        let mut fib: Vec<(u64, i64)> = (m.run_to_completion(None).unwrap().iter())
            .map(|r| (r.ticket, r.outputs[0].as_i64().unwrap()[0]))
            .collect();
        fib.sort_unstable();
        assert_eq!(fib, vec![(t, 55), (u, 21)]);
    }

    #[test]
    fn peak_bytes_are_folded_only_on_request_and_survive_a_checkpoint() {
        let p = fibonacci_program();
        let (pc, _) = lower(&p, LoweringOptions::default()).unwrap();
        let input = [Tensor::from_i64(&[10], &[1]).unwrap()];
        // Off by default: the superstep pays nothing for a ceiling
        // nobody set.
        let mut plain = PcMachine::new(&pc, KernelRegistry::new(), ExecOptions::default());
        plain.admit(&input, 3, None).unwrap();
        for _ in 0..6 {
            assert!(plain.step(None).unwrap());
        }
        assert_eq!(plain.lane_spend()[0].2, 0);

        let mut src = PcMachine::new(&pc, KernelRegistry::new(), ExecOptions::default());
        src.track_peak_bytes(true);
        let t = src.admit(&input, 3, None).unwrap();
        for _ in 0..6 {
            assert!(src.step(None).unwrap());
        }
        let peak = src.lane_spend()[0].2;
        assert!(peak > 0, "a tracked lane has a footprint");
        // The peak travels with the lane, and a machine that does not
        // track leaves it where it was.
        let lanes = src.extract_lanes(&[t], None).unwrap();
        assert_eq!(lanes[0].1.peak_bytes(), peak);
        let mut dst = PcMachine::new(&pc, KernelRegistry::new(), ExecOptions::default());
        dst.inject_lane(&lanes[0].1, None).unwrap();
        assert!(dst.step(None).unwrap());
        assert_eq!(dst.lane_spend()[0].2, peak);
        dst.track_peak_bytes(true);
        assert!(dst.step(None).unwrap());
        assert!(dst.lane_spend()[0].2 >= peak, "a peak never shrinks");
        let done = dst.run_to_completion(None).unwrap();
        assert_eq!(done[0].outputs[0].as_i64().unwrap(), &[89]);
    }

    #[test]
    fn admit_batch_matches_sequential_admits() {
        // One k-lane pad must be indistinguishable from k single
        // admissions: same tickets, same keys, bit-identical outputs.
        let p = fibonacci_program();
        let (pc, _) = lower(&p, LoweringOptions::default()).unwrap();
        let ns = [5i64, 12, 2, 9];
        let inputs: Vec<Vec<Tensor>> = ns
            .iter()
            .map(|&n| vec![Tensor::from_i64(&[n], &[1]).unwrap()])
            .collect();

        let mut seq = PcMachine::new(&pc, KernelRegistry::new(), ExecOptions::default());
        for (i, ins) in inputs.iter().enumerate() {
            let t = seq.admit(ins, 100 + i as u64, None).unwrap();
            assert_eq!(t, i as u64);
        }
        let mut seq_done = seq.run_to_completion(None).unwrap();
        seq_done.sort_by_key(|r| r.ticket);

        let mut batched = PcMachine::new(&pc, KernelRegistry::new(), ExecOptions::default());
        let reqs: Vec<(&[Tensor], u64)> = inputs
            .iter()
            .enumerate()
            .map(|(i, ins)| (ins.as_slice(), 100 + i as u64))
            .collect();
        let tickets = batched.admit_batch(&reqs, None).unwrap();
        assert_eq!(tickets, vec![0, 1, 2, 3]);
        let mut bat_done = batched.run_to_completion(None).unwrap();
        bat_done.sort_by_key(|r| r.ticket);

        for (a, b) in seq_done.iter().zip(&bat_done) {
            assert_eq!(a.ticket, b.ticket);
            assert_eq!(a.key, b.key);
            assert_eq!(a.outputs, b.outputs);
        }
        // A batch admitted into a non-empty machine also behaves: shape
        // errors are detected before any growth.
        let mut m = PcMachine::new(&pc, KernelRegistry::new(), ExecOptions::default());
        m.admit(&inputs[0], 0, None).unwrap();
        let bad = [Tensor::from_i64(&[1, 2], &[2]).unwrap()];
        assert!(m.admit_batch(&[(&bad[..], 1)], None).is_err());
        assert_eq!(
            m.live(),
            1,
            "failed batch admission must not grow the machine"
        );
    }

    #[test]
    fn first_admission_fixes_the_input_spec_across_drains() {
        // Programs are shape-polymorphic, so the machine's first
        // admission defines each input's element shape/dtype — and the
        // spec must survive a full drain (buffers keep their trailing
        // shape at zero lanes), so a later mismatched request is still
        // rejected instead of silently re-defining the spec.
        let p = fibonacci_program();
        let (pc, _) = lower(&p, LoweringOptions::default()).unwrap();
        let mut m = PcMachine::new(&pc, KernelRegistry::new(), ExecOptions::default());
        m.admit(&[Tensor::from_i64(&[6], &[1]).unwrap()], 0, None)
            .unwrap();
        let done = m.run_to_completion(None).unwrap();
        assert_eq!(done.len(), 1);
        assert_eq!(m.live(), 0, "machine fully drained");
        let wide = [Tensor::from_i64(&[1, 2], &[1, 2]).unwrap()];
        let err = m.admit_batch(&[(&wide[..], 1)], None);
        assert!(
            matches!(err, Err(VmError::BadInputs { .. })),
            "spec must survive the drain, got {err:?}"
        );
        // A spec-conforming request is still welcome.
        m.admit(&[Tensor::from_i64(&[7], &[1]).unwrap()], 2, None)
            .unwrap();
        let done = m.run_to_completion(None).unwrap();
        assert_eq!(done[0].outputs[0].as_i64().unwrap(), &[21]);
    }

    #[test]
    fn admission_rejects_rows_that_mismatch_the_live_batch() {
        // Regression: a row whose trailing shape or dtype disagrees with
        // the in-flight lanes' buffers must be rejected at admission with
        // VmError::BadInputs — not accepted and left to corrupt or zero
        // live members' state deep inside a later superstep.
        let p = fibonacci_program();
        let (pc, _) = lower(&p, LoweringOptions::default()).unwrap();
        let mut m = PcMachine::new(&pc, KernelRegistry::new(), ExecOptions::default());
        m.admit(&[Tensor::from_i64(&[11], &[1]).unwrap()], 0, None)
            .unwrap();
        for _ in 0..4 {
            assert!(m.step(None).unwrap());
        }
        // Wrong trailing shape: [1, 2] rows against a scalar-element var.
        let wide = [Tensor::from_i64(&[1, 2], &[1, 2]).unwrap()];
        let err = m.admit_batch(&[(&wide[..], 1)], None);
        assert!(
            matches!(err, Err(VmError::BadInputs { .. })),
            "wide row must be rejected, got {err:?}"
        );
        // Wrong dtype: f64 rows against an i64 var.
        let misdtyped = [Tensor::from_f64(&[3.0], &[1]).unwrap()];
        let err = m.admit_batch(&[(&misdtyped[..], 1)], None);
        assert!(
            matches!(err, Err(VmError::BadInputs { .. })),
            "mis-dtyped row must be rejected, got {err:?}"
        );
        // The in-flight member is untouched and completes correctly.
        assert_eq!(m.live(), 1);
        let done = m.run_to_completion(None).unwrap();
        assert_eq!(done[0].outputs[0].as_i64().unwrap(), &[144]);
    }

    #[test]
    fn retirement_compacts_lanes_and_keeps_results() {
        let p = fibonacci_program();
        let (pc, _) = lower(&p, LoweringOptions::default()).unwrap();
        let mut m = PcMachine::new(&pc, KernelRegistry::new(), ExecOptions::default());
        m.admit(&[Tensor::from_i64(&[2], &[1]).unwrap()], 0, None)
            .unwrap();
        m.admit(&[Tensor::from_i64(&[15], &[1]).unwrap()], 1, None)
            .unwrap();
        // Step until the short member finishes while the long one runs.
        let mut retired = Vec::new();
        while retired.is_empty() {
            assert!(m.step(None).unwrap(), "short member never finished");
            retired = m.retire_finished(None).unwrap();
        }
        assert_eq!(retired.len(), 1);
        assert_eq!(retired[0].outputs[0].as_i64().unwrap(), &[2]);
        assert_eq!(m.live(), 1, "finished lane was compacted out");
        // The survivor still completes correctly in its compacted lane.
        let rest = m.run_to_completion(None).unwrap();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].outputs[0].as_i64().unwrap(), &[987]);
    }

    #[test]
    fn machine_membership_is_traced() {
        let p = fibonacci_program();
        let (pc, _) = lower(&p, LoweringOptions::default()).unwrap();
        let mut m = PcMachine::new(&pc, KernelRegistry::new(), ExecOptions::default());
        let mut tr = Trace::new(Backend::hybrid_cpu());
        m.admit(&[Tensor::from_i64(&[5], &[1]).unwrap()], 0, Some(&mut tr))
            .unwrap();
        m.admit(&[Tensor::from_i64(&[6], &[1]).unwrap()], 1, Some(&mut tr))
            .unwrap();
        m.run_to_completion(Some(&mut tr)).unwrap();
        assert_eq!(tr.members_admitted(), 2);
        assert_eq!(tr.members_retired(), 2);
        assert_eq!(tr.peak_members(), 2);
        assert!(tr.supersteps() > 0);
        assert!(tr.sim_time() > 0.0);
    }

    #[test]
    fn machine_rejects_bad_admissions() {
        let p = fibonacci_program();
        let (pc, _) = lower(&p, LoweringOptions::default()).unwrap();
        let mut m = PcMachine::new(&pc, KernelRegistry::new(), ExecOptions::default());
        // Wrong arity.
        assert!(m.admit(&[], 0, None).is_err());
        // Multi-row admission is rejected (one member per admit).
        assert!(m
            .admit(&[Tensor::from_i64(&[1, 2], &[2]).unwrap()], 0, None)
            .is_err());
        // Machine unchanged.
        assert_eq!(m.live(), 0);
        assert!(!m.step(None).unwrap());
    }

    #[test]
    fn bad_inputs_rejected() {
        let p = fibonacci_program();
        let (pc, _) = lower(&p, LoweringOptions::default()).unwrap();
        let vm = PcVm::new(&pc, KernelRegistry::new(), ExecOptions::default());
        assert!(vm.run(&[], None).is_err());
        assert!(vm.run(&[Tensor::scalar(1i64)], None).is_err());
    }
}
