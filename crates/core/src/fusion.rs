//! Fused elementwise regions of the program-counter VM: how a block's
//! runs of elementwise primitives are planned, which operands a region
//! accepts at run time, and the loop that executes it.
//!
//! A **fused region** is a maximal run of consecutive [`Op::Compute`]
//! ops in one basic block whose primitives are all single-output and
//! *fusable*: their row of the primitive table carries a scalar kernel
//! ([`Prim::scalar_kernels`]) on a dtype every op of the run shares.
//! [`PcVm::new`](crate::PcVm::new) plans each block once
//! ([`plan_block`]); a superstep hands a region's external inputs to
//! one entry point, [`FusedRegion::run`], which executes it as **one
//! loop over elements**, keeping every intermediate in a per-element
//! virtual register instead of a materialized tensor, and returns what
//! the [`Trace`] cost model prices it by: a **single launch** whose
//! memory traffic counts only the region's external inputs and live
//! outputs — exactly how a fusing compiler (XLA, ACRoBat) prices the
//! chain.
//!
//! Bit-identity is by construction: every link applies the *same*
//! [`autobatch_tensor::scalar_ops`] function the allocating kernel
//! applies, in the same op order, so a fused region and its per-kernel
//! expansion produce identical bits. Shapes are only known at run time,
//! so each region carries *candidate* function tables per dtype;
//! [`FusedRegion::run`] refuses operands of mixed shapes or dtypes, and
//! the VM then executes the same ops one by one, which also keeps error
//! behavior (dtype mismatches, stack overflow on a fused `Push`)
//! identical to the unfused interpreter.
//!
//! [`Trace`]: autobatch_accel::Trace

use std::collections::BTreeMap;

use autobatch_ir::pcab::{Block, Op, Program, Terminator, WriteKind};
use autobatch_ir::{Prim, ScalarKernel, Var};
use autobatch_tensor::{DType, Element, Tensor};

use crate::error::Result;
use crate::kernels::take_spare;

/// Where a fused op reads an operand: an earlier def in the region, or
/// one of the region's external input tensors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Src {
    /// The result of the region op at this index.
    Def(usize),
    /// The external input tensor at this index (element-indexed).
    Ext(usize),
}

/// One executable link of a region, for a concrete element type.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ExecOp<T> {
    pub kernel: ScalarKernel<T>,
    pub a: Src,
    pub b: Src,
}

/// Per-op metadata shared by both dtype tables.
#[derive(Debug)]
pub(crate) struct RegionOp {
    /// The primitive, for logical trace records and flop pricing.
    pub prim: Prim,
    /// Input-operand count, for logical byte accounting.
    pub n_ins: usize,
    /// The op's output variable and write kind, for the write-back
    /// path. Whether a result actually leaves the region as a tensor (a
    /// persistent variable, a stack push, or a temp read after the
    /// region / by the terminator) is recorded in the region's `mats`
    /// list; everything else lives only in per-element registers.
    pub out: (Var, WriteKind),
}

/// A fused region of one basic block.
#[derive(Debug)]
pub(crate) struct FusedRegion {
    /// Index of the first fused op within `block.ops`.
    pub start: usize,
    /// Number of consecutive ops fused.
    pub len: usize,
    /// External input variables, in first-use order.
    pub exts: Vec<Var>,
    /// Per-op metadata, parallel to the fused ops.
    pub ops: Vec<RegionOp>,
    /// Def indices of the materialized ops, ascending.
    pub mats: Vec<usize>,
    /// Executable table when every op has an `f64` kernel.
    pub f64_exec: Option<Vec<ExecOp<f64>>>,
    /// Executable table when every op has an `i64` kernel.
    pub i64_exec: Option<Vec<ExecOp<i64>>>,
    /// Stable kernel tag for the fused launch record.
    pub kernel_tag: String,
}

/// Candidate kernels of one primitive, per element type
/// ([`Prim::scalar_kernels`]). `None` on a side means the primitive
/// cannot run on that dtype — mirroring the allocating kernel's dtype
/// errors, so a region that would take the wrong-dtype fast path falls
/// back and fails exactly like the per-kernel interpreter.
type Kernels = (Option<ScalarKernel<f64>>, Option<ScalarKernel<i64>>);

/// One candidate op while a region is being grown: primitive, inputs,
/// output, and the per-dtype kernels.
type OpSpec<'a> = (&'a Prim, &'a [Var], &'a (Var, WriteKind), Kernels);

/// Each block's fused regions as `(start, len)` op-index runs: index
/// `b` of the result describes block `b`, each list is sorted and
/// non-overlapping, and every `len` is at least 2. This is the plan the
/// program-counter VM executes, for static reports (`irlint`).
pub fn fused_spans(p: &Program) -> Vec<Vec<(usize, usize)>> {
    (p.blocks.iter())
        .map(|b| plan_block(p, b).iter().map(|r| (r.start, r.len)).collect())
        .collect()
}

/// Plan one block of `p`: its fused regions, sorted by `start` and
/// never overlapping.
pub(crate) fn plan_block(p: &Program, block: &Block) -> Vec<FusedRegion> {
    let ops = &block.ops;
    let mut regions = Vec::new();
    let mut i = 0;
    while i < ops.len() {
        // Grow the longest run from `i` that keeps at least one dtype
        // table viable.
        let mut f_ok = true;
        let mut i_ok = true;
        let mut specs: Vec<OpSpec<'_>> = Vec::new();
        let mut j = i;
        while j < ops.len() {
            let Op::Compute { outs, prim, ins } = &ops[j] else {
                break;
            };
            if outs.len() != 1 {
                break;
            }
            let k = prim.scalar_kernels();
            let nf = f_ok && k.0.is_some();
            let ni = i_ok && k.1.is_some();
            if !nf && !ni {
                break;
            }
            f_ok = nf;
            i_ok = ni;
            specs.push((prim, ins, &outs[0], k));
            j += 1;
        }
        if j - i >= 2 {
            regions.push(finalize(p, block, i, j, &specs));
            i = j;
        } else {
            i += 1;
        }
    }
    regions
}

fn finalize(
    p: &Program,
    block: &Block,
    start: usize,
    end: usize,
    specs: &[OpSpec<'_>],
) -> FusedRegion {
    // Resolve operand sources in op order: a var defined earlier in the
    // region reads the per-element register; anything else is an
    // external input at its pre-region value (all write-backs happen
    // after the compute loop, so this matches per-op execution order).
    let mut def_of: BTreeMap<Var, usize> = BTreeMap::new();
    let mut exts: Vec<Var> = Vec::new();
    let mut srcs: Vec<(Src, Src)> = Vec::new();
    for (d, (_, ins, out, _)) in specs.iter().enumerate() {
        let mut src_of = |v: &Var| -> Src {
            if let Some(&dd) = def_of.get(v) {
                Src::Def(dd)
            } else if let Some(x) = exts.iter().position(|e| e == v) {
                Src::Ext(x)
            } else {
                exts.push(v.clone());
                Src::Ext(exts.len() - 1)
            }
        };
        let dummy = Src::Def(0); // never read by consts
        let (a, b) = match ins.len() {
            0 => (dummy, dummy),
            1 => (src_of(&ins[0]), dummy),
            _ => (src_of(&ins[0]), src_of(&ins[1])),
        };
        srcs.push((a, b));
        def_of.insert(out.0.clone(), d);
    }

    // A result must materialize as a tensor when it outlives the region:
    // persistent variables and stack pushes always do; a temporary does
    // when its *final* region def is read after the region, branches the
    // terminator, or names a program output.
    let cond = match &block.term {
        Terminator::Branch { cond, .. } => Some(cond),
        _ => None,
    };
    let used_after = |v: &Var| -> bool {
        block.ops[end..].iter().any(|op| match op {
            Op::Compute { ins, .. } => ins.contains(v),
            Op::Pop { .. } => false,
        }) || cond == Some(v)
            || p.outputs.contains(v)
    };
    let mut ops_meta = Vec::with_capacity(specs.len());
    let mut mats = Vec::new();
    for (d, (prim, ins, out, _)) in specs.iter().enumerate() {
        let (v, kind) = out;
        let persistent = p.class_of(v).is_some();
        let last_def = def_of.get(v) == Some(&d);
        let materialize = persistent || *kind == WriteKind::Push || (last_def && used_after(v));
        if materialize {
            mats.push(d);
        }
        ops_meta.push(RegionOp {
            prim: (*prim).clone(),
            n_ins: ins.len(),
            out: (*out).clone(),
        });
    }

    // A dtype's table, if every op has a kernel on it.
    let ops = || specs.iter().zip(&srcs);
    let f64_exec = ops().map(|(&(.., (f, _)), &(a, b))| Some(ExecOp { kernel: f?, a, b }));
    let i64_exec = ops().map(|(&(.., (_, i)), &(a, b))| Some(ExecOp { kernel: i?, a, b }));
    let tags: Vec<&str> = specs.iter().map(|(prim, ..)| prim.kernel_tag()).collect();
    FusedRegion {
        start,
        len: end - start,
        exts,
        ops: ops_meta,
        mats,
        f64_exec: f64_exec.collect(),
        i64_exec: i64_exec.collect(),
        kernel_tag: format!("fused[{}]", tags.join("+")),
    }
}

/// What one execution of a region tells the cost model
/// (`Pricing::region`).
#[derive(Debug)]
pub(crate) struct Ran<'a> {
    /// The region that ran.
    pub(crate) region: &'a FusedRegion,
    /// Per external input: whether it held one value per member.
    pub(crate) ext_bcast: &'a [bool],
    /// Per op: whether its result spans the full shape, or holds one
    /// value per member.
    pub(crate) def_wide: &'a [bool],
    /// Members the loop ran over.
    pub(crate) rows: usize,
    /// Elements the loop ran over, `rows` times the element volume.
    pub(crate) n: usize,
}

/// The buffers a machine's region executions reuse, one set per element
/// type with a loop, so that an execution allocates nothing: its result
/// tensors are spares the caller lends.
#[derive(Debug, Default)]
pub(crate) struct RegionScratch {
    f64: Buffers<f64>,
    i64: Buffers<i64>,
}

/// One element type's share of [`RegionScratch`].
#[derive(Debug, Default)]
struct Buffers<T: 'static> {
    /// Per-element virtual registers, one per op.
    regs: Vec<T>,
    /// See [`Ran::ext_bcast`].
    ext_bcast: Vec<bool>,
    /// See [`Ran::def_wide`].
    def_wide: Vec<bool>,
    /// The external inputs' payloads while a region runs, empty in
    /// between: the `'static` only keeps the allocation (see
    /// [`recycle`]).
    exts: Vec<&'static [T]>,
    /// The materialized results' values while a region runs; between
    /// runs, the spare payloads they were swapped for, kept for their
    /// capacity.
    mats: Vec<Vec<T>>,
}

/// `v`, emptied, as a vector of borrows of another lifetime. Collecting
/// a mapped `vec::IntoIter` into elements of the same layout reuses its
/// allocation, so this allocates nothing (`tests/alloc_ceiling.rs`
/// counts it).
pub(crate) fn recycle<'b, T: ?Sized>(mut v: Vec<&T>) -> Vec<&'b T> {
    v.clear();
    v.into_iter().map(|_| unreachable!("emptied")).collect()
}

impl FusedRegion {
    /// Execute the region as one loop over `rows` members of its
    /// external inputs `exts` (in [`FusedRegion::exts`] order), its
    /// materialized results replacing the contents of `out` in `mats`
    /// order: a wide def at the region's shape, a member-narrow one —
    /// which reads no full-width operand, so its value does not vary
    /// along the element axes — at `[rows]`, each the shape the per-op
    /// kernels give it. Each result is a tensor taken out of `spare`
    /// (unshared, of any dtype) and refilled, or a fresh one when
    /// `spare` holds none of its dtype. Returns what the cost model
    /// prices the execution by.
    ///
    /// Returns `None`, having changed nothing but scratch, when the loop
    /// would not reproduce the per-op kernels: the externals must share
    /// one wide shape `[rows, elem..]`, each at it or a member-scalar
    /// `[rows]` broadcast against it (the per-op kernels' NumPy
    /// broadcast, reproduced per element), and one dtype the region has
    /// a table for, and the shape must hold an element. At zero elements
    /// the loop would skip the member-narrow results, whose values exist
    /// even then; the per-op path handles that case.
    pub(crate) fn run<'s>(
        &'s self,
        exts: &[&Tensor],
        rows: usize,
        scratch: &'s mut RegionScratch,
        spare: &mut Vec<Tensor>,
        out: &mut Vec<Tensor>,
    ) -> Result<Option<Ran<'s>>> {
        let member_scalar = [rows];
        let (shape, dtype) = match exts.iter().max_by_key(|t| t.rank()) {
            Some(t) => (t.shape(), t.dtype()),
            // A region of constants runs at `[rows]`, on its one table.
            None => match (&self.f64_exec, &self.i64_exec) {
                (Some(_), None) => (&member_scalar[..], DType::F64),
                (None, Some(_)) => (&member_scalar[..], DType::I64),
                _ => return Ok(None),
            },
        };
        if shape.first() != Some(&rows) {
            return Ok(None);
        }
        let RegionScratch { f64, i64 } = scratch;
        match dtype {
            DType::F64 => f64.run(self, self.f64_exec.as_deref(), exts, shape, spare, out),
            DType::I64 => i64.run(self, self.i64_exec.as_deref(), exts, shape, spare, out),
            DType::Bool => Ok(None),
        }
    }
}

impl<T: Element> Buffers<T> {
    /// [`FusedRegion::run`] once the wide `shape` and its dtype, `T`, are
    /// known; `table` is the region's table for `T`, if it has one.
    fn run<'s>(
        &'s mut self,
        region: &'s FusedRegion,
        table: Option<&[ExecOp<T>]>,
        exts: &[&Tensor],
        shape: &[usize],
        spare: &mut Vec<Tensor>,
        out: &mut Vec<Tensor>,
    ) -> Result<Option<Ran<'s>>> {
        let rows = shape[0];
        self.ext_bcast.clear();
        for t in exts {
            if t.dtype() != T::DTYPE {
                return Ok(None);
            }
            if t.shape() == shape {
                self.ext_bcast.push(false);
            } else if t.shape() == [rows] {
                self.ext_bcast.push(true);
            } else {
                return Ok(None);
            }
        }
        let n: usize = shape.iter().product();
        let Some(table) = table.filter(|_| n > 0) else {
            return Ok(None);
        };
        // A def is wide when it reads a full-width external or a wide
        // def; one of constants and member broadcasts holds one value
        // per member, as its per-op kernel's result does.
        let (ext_bcast, wide) = (&self.ext_bcast, &mut self.def_wide);
        wide.clear();
        for op in table {
            let src_wide = |s: Src| match s {
                Src::Ext(x) => !ext_bcast[x],
                Src::Def(d) => wide[d],
            };
            wide.push(match op.kernel {
                ScalarKernel::Const(_) => false,
                ScalarKernel::Un(_) => src_wide(op.a),
                ScalarKernel::Bin(_) => src_wide(op.a) || src_wide(op.b),
            });
        }
        let mut slices = recycle(std::mem::take(&mut self.exts));
        slices.extend(
            exts.iter()
                .map(|t| T::values(t.data()).expect("dtype checked")),
        );
        let (def_wide, regs, bufs) = (&self.def_wide, &mut self.regs, &mut self.mats);
        if bufs.len() < region.mats.len() {
            bufs.resize_with(region.mats.len(), Vec::new);
        }
        let bufs = &mut bufs[..region.mats.len()];
        for (buf, &d) in bufs.iter_mut().zip(&region.mats) {
            buf.clear();
            buf.reserve(if def_wide[d] { n } else { rows });
        }
        regs.clear();
        regs.resize(table.len(), T::default());
        let el = n / rows;
        for r in 0..rows {
            for c in 0..el {
                let e = r * el + c;
                for (d, op) in table.iter().enumerate() {
                    // An external flagged in `ext_bcast` holds one value
                    // per member, read at the member index.
                    let read = |s: Src, regs: &[T]| match s {
                        Src::Def(dd) => regs[dd],
                        Src::Ext(x) if ext_bcast[x] => slices[x][r],
                        Src::Ext(x) => slices[x][e],
                    };
                    regs[d] = match op.kernel {
                        ScalarKernel::Const(k) => k,
                        ScalarKernel::Un(f) => f(read(op.a, regs)),
                        ScalarKernel::Bin(f) => f(read(op.a, regs), read(op.b, regs)),
                    };
                }
                for (buf, &d) in bufs.iter_mut().zip(&region.mats) {
                    // A member-narrow def materializes one value per
                    // member (the first element's).
                    if def_wide[d] || c == 0 {
                        buf.push(regs[d]);
                    }
                }
            }
        }
        self.exts = recycle(slices);
        out.clear();
        for (&d, values) in region.mats.iter().zip(bufs) {
            let sh = if def_wide[d] { shape } else { &shape[..1] };
            // The values move into the result's payload, and the spare's
            // emptied payload stays behind for the next run.
            out.push(match take_spare(spare, T::DTYPE) {
                Some(mut t) => {
                    t.refill_with(sh, |v| std::mem::swap(v, values));
                    t
                }
                None => Tensor::new(T::wrap(std::mem::take(values)), sh)?,
            });
        }
        Ok(Some(Ran {
            region,
            ext_bcast,
            def_wide,
            rows,
            n,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{eval_prim, KernelRegistry};
    use autobatch_ir::{Arity, BlockId};
    use autobatch_tensor::scalar_ops as so;
    use autobatch_tensor::{CounterRng, Tensor};

    fn v(name: &str) -> Var {
        Var::new(name)
    }

    fn compute(out: &str, prim: Prim, ins: &[&str]) -> Op {
        Op::Compute {
            outs: vec![(v(out), WriteKind::Update)],
            prim,
            ins: ins.iter().map(|s| v(s)).collect(),
        }
    }

    fn program_with(block: Block) -> Program {
        Program {
            blocks: vec![block],
            entry: BlockId(0),
            inputs: vec![v("x")],
            outputs: vec![v("x")],
            classes: [(v("x"), autobatch_ir::pcab::VarClass::Register)]
                .into_iter()
                .collect(),
        }
    }

    #[test]
    fn plans_a_simple_chain_with_dead_temps() {
        // t0 = exp(x); t1 = mul(t0, x); x = id(t1) — only the final
        // register write materializes.
        let block = Block {
            ops: vec![
                compute("t0", Prim::Exp, &["x"]),
                compute("t1", Prim::Mul, &["t0", "x"]),
                compute("x", Prim::Id, &["t1"]),
            ],
            term: Terminator::Return,
        };
        let p = program_with(block);
        let regions = plan_block(&p, &p.blocks[0]);
        assert_eq!(regions.len(), 1);
        let r = &regions[0];
        assert_eq!((r.start, r.len), (0, 3));
        assert_eq!(r.exts, vec![v("x")]);
        assert_eq!(r.mats, vec![2]);
        assert!(r.f64_exec.is_some(), "exp chain compiles for f64");
        assert!(r.i64_exec.is_none(), "exp is f64-only");
        assert_eq!(r.kernel_tag, "fused[exp+mul+id]");
    }

    #[test]
    fn dtype_conflict_cuts_the_region() {
        // exp (f64-only) then negi (i64-only) cannot share a loop.
        let block = Block {
            ops: vec![
                compute("t0", Prim::Exp, &["x"]),
                compute("t1", Prim::Exp, &["t0"]),
                compute("t2", Prim::NegI, &["x"]),
                compute("x", Prim::Id, &["t2"]),
            ],
            term: Terminator::Return,
        };
        let p = program_with(block);
        let regions = plan_block(&p, &p.blocks[0]);
        assert_eq!(regions.len(), 2);
        assert_eq!((regions[0].start, regions[0].len), (0, 2));
        assert_eq!((regions[1].start, regions[1].len), (2, 2));
        assert!(regions[1].f64_exec.is_none());
        assert!(regions[1].i64_exec.is_some());
    }

    #[test]
    fn temp_read_by_terminator_materializes() {
        let block = Block {
            ops: vec![
                compute("t0", Prim::ConstF64(1.0), &[]),
                compute("t1", Prim::Add, &["x", "t0"]),
            ],
            term: Terminator::Branch {
                cond: v("t1"),
                then_: BlockId(0),
                else_: BlockId(0),
            },
        };
        let p = program_with(block);
        let regions = plan_block(&p, &p.blocks[0]);
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[0].mats, vec![1], "branch cond must materialize");
    }

    #[test]
    fn non_elementwise_ops_break_regions() {
        let block = Block {
            ops: vec![
                compute("t0", Prim::ConstF64(2.0), &[]),
                compute("t1", Prim::Mul, &["x", "t0"]),
                compute("t2", Prim::SumElems, &["t1"]),
                compute("t3", Prim::ConstF64(1.0), &[]),
            ],
            term: Terminator::Return,
        };
        let p = program_with(block);
        let regions = plan_block(&p, &p.blocks[0]);
        // [const, mul] fuse; sum_elems breaks; a lone trailing const is
        // not worth a region.
        assert_eq!(regions.len(), 1);
        assert_eq!((regions[0].start, regions[0].len), (0, 2));
    }

    /// A region of the ops of `f64_exec` and `i64_exec` that
    /// materializes the defs `mats`.
    fn region(
        f64_exec: Option<Vec<ExecOp<f64>>>,
        i64_exec: Option<Vec<ExecOp<i64>>>,
        mats: Vec<usize>,
    ) -> FusedRegion {
        FusedRegion {
            start: 0,
            len: f64_exec.as_ref().map_or(0, Vec::len),
            exts: Vec::new(),
            ops: Vec::new(),
            mats,
            f64_exec,
            i64_exec,
            kernel_tag: String::new(),
        }
    }

    /// `region` run over `rows` members of `exts`: its results, or
    /// `None` if it refused them.
    fn run(region: &FusedRegion, exts: &[Tensor], rows: usize) -> Option<Vec<Tensor>> {
        let exts: Vec<&Tensor> = exts.iter().collect();
        let (mut scratch, mut out) = (RegionScratch::default(), Vec::new());
        let ran = region.run(&exts, rows, &mut scratch, &mut Vec::new(), &mut out);
        ran.unwrap().map(|_| out)
    }

    /// Bit-compare a primitive's scalar kernel, run as a one-op fused
    /// region, with its batched kernel through `eval_prim`, over every
    /// edge value (every ordered pair of them for a binary kernel).
    fn fused_matches_batched<T: Copy + Default>(
        prim: &Prim,
        binary: bool,
        edges: &[T],
        tensor: fn(&[T]) -> Tensor,
        read: fn(&Tensor) -> Vec<T>,
        bits: fn(T) -> u64,
    ) {
        let (a, b): (Vec<T>, Vec<T>) = if binary {
            (edges.iter())
                .flat_map(|&x| edges.iter().map(move |&y| (x, y)))
                .unzip()
        } else {
            (edges.to_vec(), edges.to_vec())
        };
        let n_ins = prim.arity().expect("a row has an arity").ins;
        let inputs: Vec<Tensor> = [&a, &b][..n_ins].iter().map(|x| tensor(x)).collect();
        let members: Vec<u64> = (0..a.len() as u64).collect();
        let (rng, registry) = (CounterRng::new(0), KernelRegistry::new());
        let mut batched = Vec::new();
        let spare = &mut Vec::new();
        eval_prim(
            prim,
            &inputs.iter().collect::<Vec<_>>(),
            &members,
            &rng,
            &registry,
            spare,
            &mut batched,
        )
        .unwrap();
        let (f, i) = prim.scalar_kernels();
        let (a_, b_) = (Src::Ext(0), Src::Ext(1));
        let f = f.map(|kernel| {
            vec![ExecOp {
                kernel,
                a: a_,
                b: b_,
            }]
        });
        let i = i.map(|kernel| {
            vec![ExecOp {
                kernel,
                a: a_,
                b: b_,
            }]
        });
        let fused = run(&region(f, i, vec![0]), &inputs, a.len()).expect("accepted");
        assert_eq!(fused[0].shape(), batched[0].shape(), "{prim:?}");
        let want: Vec<u64> = read(&batched[0]).into_iter().map(bits).collect();
        let got: Vec<u64> = read(&fused[0]).into_iter().map(bits).collect();
        assert_eq!(got, want, "{prim:?}: fused and batched kernels disagree");
    }

    /// Two NaNs of different payloads meet in every binary row, in both
    /// orders. Both paths keep the same one: `Add`, `Sub`, `Mul`, `Div`
    /// and `Pow` the first operand's payload, `Min2` and `Max2` the
    /// second's, and a unary row its operand's (`Neg` and `Sigmoid` with
    /// the sign bit set).
    #[test]
    fn every_row_fuses_bit_identically_or_not_at_all() {
        let subnormal = f64::MIN_POSITIVE / 4.0;
        let f64_edges = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            2.5,
            -2.0,
            -0.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::from_bits(0x7ff8_0000_0000_0001),
            subnormal,
            -subnormal,
            f64::MAX,
            f64::MIN,
        ];
        let i64_edges = [0, 1, -1, 2, -3, 7, 63, 64, i64::MIN, i64::MAX];
        for prim in Prim::ROWS.iter().chain([&Prim::external("grad")]) {
            match prim.scalar_kernels() {
                (None, None) => {
                    // An op without a kernel cuts a run: a block of
                    // `id, prim, id` plans no region.
                    let arity = prim.arity().unwrap_or(Arity { ins: 1, outs: 1 });
                    let op = Op::Compute {
                        outs: (0..arity.outs)
                            .map(|k| (v(&format!("o{k}")), WriteKind::Update))
                            .collect(),
                        prim: prim.clone(),
                        ins: vec![v("t0"); arity.ins],
                    };
                    let block = Block {
                        ops: vec![
                            compute("t0", Prim::Id, &["x"]),
                            op,
                            compute("x", Prim::Id, &["o0"]),
                        ],
                        term: Terminator::Return,
                    };
                    let p = program_with(block);
                    assert!(plan_block(&p, &p.blocks[0]).is_empty(), "{prim:?} planned");
                    // `eval_prim` has an arm for it: it evaluates or
                    // refuses these operands, and does not panic.
                    let x = Tensor::from_f64(&[1.0], &[1]).unwrap();
                    let ins = vec![&x; arity.ins];
                    let (rng, registry) = (CounterRng::new(0), KernelRegistry::new());
                    let (spare, out) = (&mut Vec::new(), &mut Vec::new());
                    let _ = eval_prim(prim, &ins, &[0], &rng, &registry, spare, out);
                }
                (f, i) => {
                    if let Some(k) = f {
                        fused_matches_batched(
                            prim,
                            matches!(k, ScalarKernel::Bin(_)),
                            &f64_edges,
                            |x| Tensor::from_f64(x, &[x.len()]).unwrap(),
                            |t| t.as_f64().unwrap().to_vec(),
                            f64::to_bits,
                        );
                    }
                    if let Some(k) = i {
                        fused_matches_batched(
                            prim,
                            matches!(k, ScalarKernel::Bin(_)),
                            &i64_edges,
                            |x| Tensor::from_i64(x, &[x.len()]).unwrap(),
                            |t| t.as_i64().unwrap().to_vec(),
                            |x| x as u64,
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn run_region_evaluates_chains_per_element() {
        // y = (x + 1) * x over 3 elements.
        let table = vec![
            ExecOp {
                kernel: ScalarKernel::Const(1.0),
                a: Src::Def(0),
                b: Src::Def(0),
            },
            ExecOp {
                kernel: ScalarKernel::Bin(so::add_f64),
                a: Src::Ext(0),
                b: Src::Def(0),
            },
            ExecOp {
                kernel: ScalarKernel::Bin(so::mul_f64),
                a: Src::Def(1),
                b: Src::Ext(0),
            },
        ];
        let x = Tensor::from_f64(&[1.0, 2.0, 3.0], &[3]).unwrap();
        let out = run(&region(Some(table), None, vec![2]), &[x], 3).unwrap();
        assert_eq!(
            out,
            vec![Tensor::from_f64(&[2.0, 6.0, 12.0], &[3]).unwrap()]
        );
    }

    #[test]
    fn run_region_broadcasts_member_scalars() {
        // y = x_wide * s_member over 2 members × 3 elements, and
        // t = s_member + 1, which reads no full-width operand: one value
        // per member, at `[2]`, whatever the wide shape.
        let table = vec![
            ExecOp {
                kernel: ScalarKernel::Bin(so::mul_f64),
                a: Src::Ext(0),
                b: Src::Ext(1),
            },
            ExecOp {
                kernel: ScalarKernel::Const(1.0),
                a: Src::Def(0),
                b: Src::Def(0),
            },
            ExecOp {
                kernel: ScalarKernel::Bin(so::add_f64),
                a: Src::Ext(1),
                b: Src::Def(1),
            },
        ];
        let r = region(Some(table), None, vec![0, 2]);
        let xw = Tensor::from_f64(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let sm = Tensor::from_f64(&[10.0, 100.0], &[2]).unwrap();
        let out = run(&r, &[xw, sm], 2).unwrap();
        let y = [10.0, 20.0, 30.0, 400.0, 500.0, 600.0];
        assert_eq!(out[0], Tensor::from_f64(&y, &[2, 3]).unwrap());
        assert_eq!(out[1], Tensor::from_f64(&[11.0, 101.0], &[2]).unwrap());
    }

    #[test]
    fn a_region_refuses_operands_its_loop_would_not_reproduce() {
        // x + y over f64, and the same over i64.
        let f = vec![ExecOp {
            kernel: ScalarKernel::Bin(so::add_f64),
            a: Src::Ext(0),
            b: Src::Ext(1),
        }];
        let r = region(Some(f), None, vec![0]);
        let f64s = |shape: &[usize]| Tensor::zeros(DType::F64, shape);
        let (wide, member) = (f64s(&[2, 3]), f64s(&[2]));
        assert!(run(&r, &[wide.clone(), member.clone()], 2).is_some());
        assert!(run(&r, &[member.clone(), member.clone()], 2).is_some());
        let refused = [
            // Another wide shape, or a broadcast other than `[rows]`.
            vec![wide.clone(), f64s(&[2, 4])],
            vec![wide.clone(), f64s(&[1, 3])],
            vec![wide.clone(), f64s(&[3])],
            // The wide shape's rows are not the superstep's.
            vec![f64s(&[3, 3]), f64s(&[3, 3])],
            // No element.
            vec![f64s(&[2, 0]), f64s(&[2])],
            // Mixed dtypes, a dtype without a table, `bool`.
            vec![wide.clone(), Tensor::zeros(DType::I64, &[2])],
            vec![Tensor::zeros(DType::I64, &[2]); 2],
            vec![Tensor::zeros(DType::Bool, &[2]); 2],
        ];
        for exts in refused {
            let shapes: Vec<&[usize]> = exts.iter().map(Tensor::shape).collect();
            assert!(run(&r, &exts, 2).is_none(), "{shapes:?} accepted");
        }
        // A region of constants alone runs on its one table at `[rows]`.
        let c = vec![ExecOp {
            kernel: ScalarKernel::Const(7),
            a: Src::Def(0),
            b: Src::Def(0),
        }];
        let out = run(&region(None, Some(c), vec![0]), &[], 2).unwrap();
        assert_eq!(out, vec![Tensor::from_i64(&[7, 7], &[2]).unwrap()]);
    }
}
