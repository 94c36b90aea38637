//! Fused elementwise regions: the compile-side half of the
//! program-counter VM's allocation-free fast path.
//!
//! A **fused region** is a maximal run of consecutive [`Op::Compute`]
//! ops in one basic block whose primitives are all single-output and
//! *fusable*: their row of the primitive table carries a scalar kernel
//! ([`Prim::scalar_kernels`]) on a dtype every op of the run shares. The VM
//! executes a region as **one loop over elements**, keeping every
//! intermediate in a per-element virtual register instead of a
//! materialized tensor, and reports it to the [`Trace`] cost model as a
//! **single launch** whose memory traffic counts only the region's
//! external inputs and live outputs — exactly how a fusing compiler
//! (XLA, ACRoBat) prices the chain.
//!
//! Bit-identity is by construction: every link applies the *same*
//! [`autobatch_tensor::scalar_ops`] function the allocating kernel
//! applies, in the same op order, so a fused region and its per-kernel
//! expansion produce identical bits. Shapes are only known at run time,
//! so each region carries *candidate* function tables per dtype; the VM
//! validates (uniform external shape + dtype) before taking the fast
//! path and otherwise falls back to per-op execution, which also keeps
//! error behavior (dtype mismatches, stack overflow on a fused `Push`)
//! identical to the unfused interpreter.
//!
//! [`Trace`]: autobatch_accel::Trace

use std::collections::BTreeMap;

use autobatch_ir::pcab::{Block, Op, Program, Terminator, WriteKind};
use autobatch_ir::{Prim, ScalarKernel, Var};

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

/// Plan every block of a lowered program. Index 0 of the result is the
/// region list of block 0, and so on; each list is sorted by `start`
/// and regions never overlap.
pub(crate) fn plan_program(p: &Program) -> Vec<Vec<FusedRegion>> {
    p.blocks.iter().map(|b| plan_block(p, b)).collect()
}

/// Each block's fused regions as `(start, len)` op-index runs: index
/// `b` of the result describes block `b`, each list is sorted and
/// non-overlapping, and every `len` is at least 2. This is the plan the
/// program-counter VM executes, for static reports (`irlint`).
pub fn fused_spans(p: &Program) -> Vec<Vec<(usize, usize)>> {
    plan_program(p)
        .iter()
        .map(|regions| regions.iter().map(|r| (r.start, r.len)).collect())
        .collect()
}

fn plan_block(p: &Program, block: &Block) -> Vec<FusedRegion> {
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
            regions.push(finalize(p, block, i, j, f_ok, i_ok, &specs));
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
    f_ok: bool,
    i_ok: bool,
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

    let f64_exec = f_ok.then(|| {
        specs
            .iter()
            .zip(&srcs)
            .map(|((_, _, _, k), &(a, b))| ExecOp {
                kernel: k.0.expect("f64 table viable"),
                a,
                b,
            })
            .collect()
    });
    let i64_exec = i_ok.then(|| {
        specs
            .iter()
            .zip(&srcs)
            .map(|((_, _, _, k), &(a, b))| ExecOp {
                kernel: k.1.expect("i64 table viable"),
                a,
                b,
            })
            .collect()
    });
    let tags: Vec<&str> = specs.iter().map(|(prim, ..)| prim.kernel_tag()).collect();
    FusedRegion {
        start,
        len: end - start,
        exts,
        ops: ops_meta,
        mats,
        f64_exec,
        i64_exec,
        kernel_tag: format!("fused[{}]", tags.join("+")),
    }
}

/// Evaluate one region over `members × el` elements: `regs` holds the
/// per-element virtual registers (one per op), `exts` the external
/// input slices, and each materialized def appends its value to the
/// matching buffer in `out_bufs` (parallel to `mats`).
///
/// An external flagged in `ext_bcast` holds one value per *member*
/// (`[Z]` against a `[Z, el]` region); it is read at the member index,
/// exactly reproducing the NumPy-style broadcast the per-op kernels
/// apply. All other slices hold `members × el` values.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_region<T: Copy + Default>(
    table: &[ExecOp<T>],
    exts: &[&[T]],
    ext_bcast: &[bool],
    members: usize,
    el: usize,
    regs: &mut Vec<T>,
    mats: &[usize],
    def_wide: &[bool],
    out_bufs: &mut [Vec<T>],
) {
    regs.clear();
    regs.resize(table.len(), T::default());
    for r in 0..members {
        for c in 0..el {
            let e = r * el + c;
            for (d, op) in table.iter().enumerate() {
                let read = |s: Src, regs: &[T]| -> T {
                    match s {
                        Src::Def(dd) => regs[dd],
                        Src::Ext(x) => {
                            if ext_bcast[x] {
                                exts[x][r]
                            } else {
                                exts[x][e]
                            }
                        }
                    }
                };
                regs[d] = match op.kernel {
                    ScalarKernel::Const(c) => c,
                    ScalarKernel::Un(f) => f(read(op.a, regs)),
                    ScalarKernel::Bin(f) => f(read(op.a, regs), read(op.b, regs)),
                };
            }
            for (buf, &d) in out_bufs.iter_mut().zip(mats) {
                // Member-narrow defs materialize one value per member
                // (their value is constant across the element axis),
                // matching the `[rows]` tensors the per-op path builds.
                if def_wide[d] || c == 0 {
                    buf.push(regs[d]);
                }
            }
        }
    }
}

/// Per-def wideness: whether each def's per-op result spans the full
/// element shape (vs one value per member). A def is wide when any
/// source is a full-width external or a wide def; constant-only and
/// member-broadcast-only defs stay member-narrow, matching the shapes
/// the per-op kernels would produce.
pub(crate) fn def_wideness<T: Copy>(table: &[ExecOp<T>], ext_bcast: &[bool], wide: &mut Vec<bool>) {
    wide.clear();
    for (d, op) in table.iter().enumerate() {
        let src_wide = |s: Src, wide: &Vec<bool>| match s {
            Src::Ext(x) => !ext_bcast[x],
            Src::Def(dd) => dd < d && wide[dd],
        };
        let w = match op.kernel {
            ScalarKernel::Const(_) => false,
            ScalarKernel::Un(_) => src_wide(op.a, wide),
            ScalarKernel::Bin(_) => src_wide(op.a, wide) || src_wide(op.b, wide),
        };
        wide.push(w);
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

    /// Bit-compare a primitive's scalar kernel, run as a one-op fused
    /// region, with its batched kernel through `eval_prim`, over every
    /// edge value (every ordered pair of them for a binary kernel).
    fn fused_matches_batched<T: Copy + Default>(
        prim: &Prim,
        kernel: ScalarKernel<T>,
        edges: &[T],
        tensor: fn(&[T]) -> Tensor,
        read: fn(&Tensor) -> Vec<T>,
        bits: fn(T) -> u64,
    ) {
        let (a, b): (Vec<T>, Vec<T>) = match kernel {
            ScalarKernel::Bin(_) => edges
                .iter()
                .flat_map(|&x| edges.iter().map(move |&y| (x, y)))
                .unzip(),
            _ => (edges.to_vec(), edges.to_vec()),
        };
        let n_ins = prim.arity().expect("a row has an arity").ins;
        let inputs: Vec<Tensor> = [&a, &b][..n_ins].iter().map(|x| tensor(x)).collect();
        let members: Vec<u64> = (0..a.len() as u64).collect();
        let (rng, registry) = (CounterRng::new(0), KernelRegistry::new());
        let mut batched = Vec::new();
        eval_prim(prim, &inputs, &members, &rng, &registry, &mut batched).unwrap();
        let table = [ExecOp {
            kernel,
            a: Src::Ext(0),
            b: Src::Ext(1),
        }];
        let mut fused = vec![Vec::new()];
        let (n, mut regs) = (a.len(), Vec::new());
        run_region(
            &table,
            &[&a, &b],
            &[false, false],
            n,
            1,
            &mut regs,
            &[0],
            &[true],
            &mut fused,
        );
        let want: Vec<u64> = read(&batched[0]).into_iter().map(bits).collect();
        let got: Vec<u64> = fused[0].iter().map(|&x| bits(x)).collect();
        assert_eq!(got, want, "{prim:?}: fused and batched kernels disagree");
    }

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
                    let ins = vec![Tensor::from_f64(&[1.0], &[1]).unwrap(); arity.ins];
                    let (rng, registry) = (CounterRng::new(0), KernelRegistry::new());
                    let _ = eval_prim(prim, &ins, &[0], &rng, &registry, &mut Vec::new());
                }
                (f, i) => {
                    if let Some(k) = f {
                        fused_matches_batched(
                            prim,
                            k,
                            &f64_edges,
                            |x| Tensor::from_f64(x, &[x.len()]).unwrap(),
                            |t| t.as_f64().unwrap().to_vec(),
                            f64::to_bits,
                        );
                    }
                    if let Some(k) = i {
                        fused_matches_batched(
                            prim,
                            k,
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
        let x = [1.0f64, 2.0, 3.0];
        let mut regs = Vec::new();
        let mut bufs = vec![Vec::new()];
        run_region(
            &table,
            &[&x],
            &[false],
            3,
            1,
            &mut regs,
            &[2],
            &[false, true, true],
            &mut bufs,
        );
        assert_eq!(bufs[0], vec![2.0, 6.0, 12.0]);
    }

    #[test]
    fn run_region_broadcasts_member_scalars() {
        // y = x_wide * s_member over 2 members × 3 elements.
        let table = vec![ExecOp {
            kernel: ScalarKernel::Bin(so::mul_f64),
            a: Src::Ext(0),
            b: Src::Ext(1),
        }];
        let xw = [1.0f64, 2.0, 3.0, 4.0, 5.0, 6.0]; // [2, 3]
        let sm = [10.0f64, 100.0]; // [2]
        let mut regs = Vec::new();
        let mut bufs = vec![Vec::new()];
        run_region(
            &table,
            &[&xw, &sm],
            &[false, true],
            2,
            3,
            &mut regs,
            &[0],
            &[true],
            &mut bufs,
        );
        assert_eq!(bufs[0], vec![10.0, 20.0, 30.0, 400.0, 500.0, 600.0]);
    }
}
