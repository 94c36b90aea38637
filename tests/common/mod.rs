//! The random-program generator every root test that checks batching or
//! verification against generated programs shares.
//!
//! [`generate`] maps a seed to an `lsab` program, the concrete specs of
//! its inputs, whether the static verifier must reject it and whether it
//! recurses. `main` and up to two acyclic callees mix `f64` and `i64`
//! values at scalar and `[2]` element shapes through straight-line
//! arithmetic, data-dependent `if`/`else`, counter-bounded `while` loops
//! (at most 3 trips) and calls to later functions. About 1 program in 4
//! carries one injected ill-typed op in `main`. About 2 in 3 end `main`
//! with a call to a recursive helper `rec(n, acc) -> r` at a depth
//! clamped to at most 4; past its base case `n <= 0`, `rec` runs random
//! steps over a copy `t` of `acc` and calls itself once or twice
//! (binom-shaped: the second call lowers `n` by 2 and passes either `t`
//! or its own `acc` through unchanged, after the first call pushed
//! another value onto it), or calls a partner that calls it back with `n`
//! lowered by one or two as the data says. `generate(seed, true)` is the
//! same program entered at `rec`, its depth unclamped: there the data
//! stacks run as deep as the pc stack.
//!
//! Runs are compared with `==`, which a NaN fails, so no op makes a NaN
//! from finite operands: there is no division, logarithm or square root,
//! and no `i64` multiplication (`i64` addition wraps). Nor is there a
//! random-number primitive, whose draws are keyed by batch member.
//! [`materialize`] draws a batch for the specs.

use autobatch::ir::analysis::{AbsDType, TensorSpec};
use autobatch::ir::build::{FunctionBuilder, ProgramBuilder};
use autobatch::ir::lsab::Program;
use autobatch::ir::{FuncId, Prim, Var};
use autobatch::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A generated program with its input specs and expected verdict.
pub struct Generated {
    pub program: Program,
    /// Concrete specs of the entry function's inputs.
    pub inputs: Vec<TensorSpec>,
    /// Whether an ill-typed op reachable from the entry was injected, so
    /// the static verifier must reject the program.
    pub expect_reject: bool,
    /// Whether the program calls the recursive helper.
    pub recurses: bool,
}

/// A value's dtype (`f64` or `i64`) and whether its element shape is
/// `[2]` rather than scalar.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Spec {
    float: bool,
    vec: bool,
}

/// The spec of a depth argument: an `i64` scalar.
const DEPTH: Spec = Spec {
    float: false,
    vec: false,
};

/// A variable of a function body with the spec every write keeps.
type Typed = (Var, Spec);

#[derive(Clone)]
struct Iface {
    params: Vec<Spec>,
    outputs: Vec<Spec>,
}

fn pick<T: Clone>(rng: &mut StdRng, xs: &[T]) -> T {
    xs[rng.gen_range(0..xs.len())].clone()
}

fn unary_ops(float: bool) -> &'static [Prim] {
    if float {
        &[
            Prim::Id,
            Prim::Neg,
            Prim::Abs,
            Prim::Square,
            Prim::Sigmoid,
            Prim::Tanh,
            Prim::Sin,
            Prim::Cos,
        ]
    } else {
        &[Prim::Id, Prim::NegI]
    }
}

fn binary_ops(float: bool) -> &'static [Prim] {
    if float {
        &[Prim::Add, Prim::Sub, Prim::Mul, Prim::Min2, Prim::Max2]
    } else {
        &[Prim::Add, Prim::Sub, Prim::Min2, Prim::Max2]
    }
}

/// The pool's variables of one dtype and, when given, one shape.
fn vars(pool: &[Typed], float: bool, vec: Option<bool>) -> Vec<Var> {
    (pool.iter())
        .filter(|(_, s)| s.float == float && vec.is_none_or(|w| s.vec == w))
        .map(|(v, _)| v.clone())
        .collect()
}

fn constant(rng: &mut StdRng, fb: &mut FunctionBuilder) -> Typed {
    let (c, float) = (rng.gen_range(-2..3i64), rng.gen_bool(0.5));
    let var = if float {
        fb.const_f64(c as f64)
    } else {
        fb.const_i64(c)
    };
    (var, Spec { float, vec: false })
}

/// Overwrite `target` with an op of its own spec. The target is in the
/// pool, so an operand of its spec always exists.
fn assign(rng: &mut StdRng, fb: &mut FunctionBuilder, pool: &[Typed], (var, s): &Typed) {
    let same = vars(pool, s.float, Some(s.vec));
    if rng.gen_bool(0.5) {
        // The other operand is of the target's shape, or a scalar that
        // broadcasts to it.
        let other = vars(pool, s.float, if s.vec { None } else { Some(false) });
        let mut ins = [pick(rng, &same), pick(rng, &other)];
        if rng.gen_bool(0.5) {
            ins.reverse();
        }
        fb.assign(var, pick(rng, binary_ops(s.float)), &ins);
    } else {
        let a = pick(rng, &same);
        fb.assign(var, pick(rng, unary_ops(s.float)), &[a]);
    }
}

/// A new temporary of either dtype, or `None` when no operand has it.
fn fresh(rng: &mut StdRng, fb: &mut FunctionBuilder, pool: &[Typed]) -> Option<Typed> {
    let float = rng.gen_bool(0.5);
    let cands: Vec<Typed> = pool
        .iter()
        .filter(|(_, s)| s.float == float)
        .cloned()
        .collect();
    if cands.is_empty() {
        return None;
    }
    let (a, sa) = pick(rng, &cands);
    if rng.gen_bool(0.5) {
        let (b, sb) = pick(rng, &cands);
        let out = fb.emit(pick(rng, binary_ops(float)), &[a, b]);
        Some((
            out,
            Spec {
                float,
                vec: sa.vec || sb.vec,
            },
        ))
    } else {
        Some((fb.emit(pick(rng, unary_ops(float)), &[a]), sa))
    }
}

/// A scalar bool: a comparison of two scalars of one dtype.
fn cond(rng: &mut StdRng, fb: &mut FunctionBuilder, pool: &[Typed]) -> Var {
    let float = rng.gen_bool(0.5);
    for f in [float, !float] {
        let scalars = vars(pool, f, Some(false));
        if !scalars.is_empty() {
            let cmp = pick(rng, &[Prim::Lt, Prim::Le, Prim::Gt, Prim::Ge]);
            let ins = [pick(rng, &scalars), pick(rng, &scalars)];
            return fb.emit(cmp, &ins);
        }
    }
    fb.const_bool(true)
}

/// One op the verifier must reject: mixed-dtype arithmetic, a logic op
/// on numbers, or a reduction of an integer or of a scalar element
/// (which would consume the batch axis).
fn inject_ill_typed(rng: &mut StdRng, fb: &mut FunctionBuilder, pool: &[Typed]) {
    let (f64s, i64s) = (vars(pool, true, None), vars(pool, false, None));
    let f64_scalars = vars(pool, true, Some(false));
    match rng.gen_range(0..3) {
        0 if !f64s.is_empty() && !i64s.is_empty() => {
            let ins = [pick(rng, &f64s), pick(rng, &i64s)];
            fb.emit(Prim::Add, &ins)
        }
        1 if !f64s.is_empty() => {
            let a = pick(rng, &f64s);
            fb.emit(Prim::And, &[a.clone(), a])
        }
        _ if !i64s.is_empty() => fb.emit(Prim::SumElems, &i64s[..1]),
        _ if !f64_scalars.is_empty() => fb.emit(Prim::SumElems, &f64_scalars[..1]),
        _ => fb.emit(Prim::And, &[f64s[0].clone(), f64s[0].clone()]),
    };
}

/// Two arms, or one body, writing the same drawn pool variables with
/// ops of their own specs, so every variable stays definitely assigned.
fn arm(rng: &mut StdRng, fb: &mut FunctionBuilder, pool: &[Typed], targets: &[Typed]) {
    for t in targets {
        assign(rng, fb, pool, t);
    }
}

/// 2 to 7 random steps over `pool`: a new temporary or an overwrite, an
/// `if`/`else`, at most one counter loop, or a call to one of `callees`
/// with arguments of exactly its parameter specs.
fn steps(
    rng: &mut StdRng,
    fb: &mut FunctionBuilder,
    pool: &mut Vec<Typed>,
    callees: &[(FuncId, Iface)],
) {
    let mut loops_left = 1;
    for _ in 0..rng.gen_range(2..8) {
        let targets: Vec<Typed> = (0..rng.gen_range(1..3)).map(|_| pick(rng, pool)).collect();
        match rng.gen_range(0..10) {
            0..=4 if rng.gen_bool(0.5) => {
                let temp = fresh(rng, fb, pool);
                pool.extend(temp);
            }
            0..=4 => arm(rng, fb, pool, &targets[..1]),
            5 | 6 => {
                let c = cond(rng, fb, pool);
                let (tb, eb, join) = (fb.new_block(), fb.new_block(), fb.new_block());
                fb.branch(&c, tb, eb);
                for b in [tb, eb] {
                    fb.switch_to(b);
                    arm(rng, fb, pool, &targets);
                    fb.jump(join);
                }
                fb.switch_to(join);
            }
            7 if loops_left > 0 => {
                loops_left -= 1;
                let (ctr, trips) = (fb.fresh("ctr"), fb.const_i64(rng.gen_range(1..4)));
                let zero = fb.const_i64(0);
                fb.copy(&ctr, &zero);
                fb.while_loop(
                    |fb| fb.emit(Prim::Lt, &[ctr.clone(), trips]),
                    |fb| {
                        arm(rng, fb, pool, &targets);
                        let one = fb.const_i64(1);
                        fb.assign(&ctr, Prim::Add, &[ctr.clone(), one]);
                    },
                );
            }
            _ if !callees.is_empty() => {
                let (id, callee) = pick(rng, callees);
                let args: Option<Vec<Var>> = (callee.params.iter())
                    .map(|s| {
                        let cands = vars(pool, s.float, Some(s.vec));
                        (!cands.is_empty()).then(|| pick(rng, &cands))
                    })
                    .collect();
                if let Some(args) = args {
                    let outs = fb.call(id, &args, callee.outputs.len());
                    pool.extend(outs.into_iter().zip(callee.outputs));
                }
            }
            _ => {}
        }
    }
}

/// The body of an acyclic function: two constants, every output
/// initialized up front (a vector output copies a vector parameter of
/// its dtype, which the interface guarantees), the injected op if any,
/// then random steps. Returns the pool, for `main` to call `rec` from.
fn body(
    rng: &mut StdRng,
    fb: &mut FunctionBuilder,
    iface: &Iface,
    callees: &[(FuncId, Iface)],
    inject: bool,
) -> Vec<Typed> {
    let mut pool: Vec<Typed> = (0..iface.params.len())
        .map(|i| (fb.param(i), iface.params[i]))
        .collect();
    for _ in 0..2 {
        let c = constant(rng, fb);
        pool.push(c);
    }
    for (i, &s) in iface.outputs.iter().enumerate() {
        let src = if s.vec {
            vars(&pool, s.float, Some(true))[0].clone()
        } else if s.float {
            fb.const_f64(rng.gen_range(0..3i64) as f64)
        } else {
            fb.const_i64(rng.gen_range(0..3))
        };
        fb.copy(&fb.output(i), &src);
        pool.push((fb.output(i), s));
    }
    if inject {
        inject_ill_typed(rng, fb, &pool);
    }
    steps(rng, fb, &mut pool, callees);
    pool
}

/// `rec` or its partner, `f(n, acc) -> r` with `acc` and `r` of `spec`:
/// `r = acc` once `n <= 0`; otherwise random steps over `t = acc` and a
/// copy of `n`, then `r = first(n - d, t)`, `d` being 1 or, with
/// `stride`, 1 or 2 by a comparison of the data, and with `second =
/// (f, pass)` also `r = r + f(n - 2, acc if pass else t)`.
fn recursive(
    rng: &mut StdRng,
    fb: &mut FunctionBuilder,
    spec: Spec,
    first: FuncId,
    stride: bool,
    second: Option<(FuncId, bool)>,
    callees: &[(FuncId, Iface)],
) {
    let zero = fb.const_i64(0);
    let base = fb.emit(Prim::Le, &[fb.param(0), zero]);
    fb.if_else(
        &base,
        |fb| fb.copy(&fb.output(0), &fb.param(1)),
        |fb| {
            let t = Var::new("t");
            fb.copy(&t, &fb.param(1));
            let n = fb.emit(Prim::Id, &[fb.param(0)]);
            let mut pool = vec![(t.clone(), spec), (n, DEPTH), constant(rng, fb)];
            steps(rng, fb, &mut pool, callees);
            let (one, two) = (fb.const_i64(1), fb.const_i64(2));
            let d = if stride {
                let c = cond(rng, fb, &pool);
                fb.emit(Prim::Select, &[c, two.clone(), one])
            } else {
                one
            };
            let n1 = fb.emit(Prim::Sub, &[fb.param(0), d]);
            let r = fb.call(first, &[n1, t.clone()], 1).remove(0);
            match second {
                Some((f, pass)) => {
                    let n2 = fb.emit(Prim::Sub, &[fb.param(0), two]);
                    let acc = if pass { fb.param(1) } else { t };
                    let r2 = fb.call(f, &[n2, acc], 1).remove(0);
                    fb.assign(&fb.output(0), Prim::Add, &[r, r2]);
                }
                None => fb.copy(&fb.output(0), &r),
            }
        },
    );
    fb.ret();
}

/// 1 to 3 parameters and 1 or 2 outputs; an output is a vector only
/// when a vector parameter of its dtype exists.
fn iface(rng: &mut StdRng) -> Iface {
    let params: Vec<Spec> = (0..rng.gen_range(1..4))
        .map(|_| Spec {
            float: rng.gen_bool(0.5),
            vec: rng.gen_bool(1.0 / 3.0),
        })
        .collect();
    let outputs = (0..rng.gen_range(1..3))
        .map(|_| {
            let float = rng.gen_bool(0.5);
            let vec = rng.gen_bool(1.0 / 3.0) && params.contains(&Spec { float, vec: true });
            Spec { float, vec }
        })
        .collect();
    Iface { params, outputs }
}

fn declare(pb: &mut ProgramBuilder, name: &str, iface: &Iface) -> FuncId {
    let params: Vec<String> = (0..iface.params.len()).map(|j| format!("p{j}")).collect();
    let outs: Vec<String> = (0..iface.outputs.len()).map(|j| format!("o{j}")).collect();
    let (params, outs): (Vec<&str>, Vec<&str>) = (
        params.iter().map(String::as_str).collect(),
        outs.iter().map(String::as_str).collect(),
    );
    pb.declare(name, &params, &outs)
}

/// The program of `seed`, entered at `main`, or at `rec` when
/// `at_helper` and the program recurses. Both entries build the same
/// program; entered at `rec`, `main` is unreachable, and so is its
/// injected op.
pub fn generate(seed: u64, at_helper: bool) -> Generated {
    let mut rng = StdRng::seed_from_u64(seed);
    let (inject, recurses) = (rng.gen_bool(0.25), rng.gen_bool(2.0 / 3.0));
    let mut ifaces: Vec<Iface> = (0..rng.gen_range(1..4)).map(|_| iface(&mut rng)).collect();
    let spec = ifaces[0].outputs[0];
    if recurses {
        // `main`'s last parameter is the depth it calls `rec` at.
        ifaces[0].params.push(DEPTH);
    }
    let mut pb = ProgramBuilder::new();
    let ids: Vec<FuncId> = (ifaces.iter().enumerate())
        .map(|(i, f)| {
            let name = if i == 0 {
                "main".to_string()
            } else {
                format!("g{i}")
            };
            declare(&mut pb, &name, f)
        })
        .collect();
    let rec = recurses.then(|| pb.declare("rec", &["n", "acc"], &["r"]));
    let partner =
        (recurses && rng.gen_bool(0.4)).then(|| pb.declare("partner", &["m", "acc"], &["r"]));
    let callees = |from: usize| -> Vec<(FuncId, Iface)> {
        (from..ifaces.len())
            .map(|j| (ids[j], ifaces[j].clone()))
            .collect()
    };
    for (i, &id) in ids.iter().enumerate() {
        let (f, callees) = (&ifaces[i], callees(i + 1));
        let rng = &mut rng;
        pb.define(id, |fb| {
            let pool = body(rng, fb, f, &callees, inject && i == 0);
            if let (0, Some(rec)) = (i, rec) {
                let cap = fb.const_i64(rng.gen_range(2..5));
                let depth = fb.emit(Prim::Min2, &[fb.param(f.params.len() - 1), cap]);
                let acc = pick(rng, &vars(&pool, spec.float, Some(spec.vec)));
                let r = fb.call(rec, &[depth, acc], 1).remove(0);
                let op = pick(rng, binary_ops(spec.float));
                fb.assign(&fb.output(0), op, &[fb.output(0), r]);
            }
            fb.ret();
        });
    }
    if let Some(rec) = rec {
        let second = rng.gen_bool(0.5).then(|| (rec, rng.gen_bool(0.5)));
        let acyclic = callees(1);
        let rng = &mut rng;
        pb.define(rec, |fb| {
            recursive(
                rng,
                fb,
                spec,
                partner.unwrap_or(rec),
                false,
                second,
                &acyclic,
            )
        });
        if let Some(partner) = partner {
            pb.define(partner, |fb| {
                recursive(rng, fb, spec, rec, true, None, &acyclic)
            });
        }
    }
    let (entry, params) = match rec {
        Some(rec) if at_helper => (rec, vec![DEPTH, spec]),
        _ => (ids[0], ifaces[0].params.clone()),
    };
    let inputs = (params.iter())
        .map(|s| {
            let dtype = if s.float {
                AbsDType::F64
            } else {
                AbsDType::I64
            };
            TensorSpec::new(dtype, if s.vec { vec![2] } else { vec![] })
        })
        .collect();
    Generated {
        program: pb.finish(entry).expect("generated program is well-formed"),
        inputs,
        expect_reject: inject && entry == ids[0],
        recurses,
    }
}

/// A batch of `z` members for `specs`: shape `[z] ++ elem_shape`, `f64`
/// values in `[-2, 2)` and `i64` values in `0..5`, drawn from `seed`.
pub fn materialize(specs: &[TensorSpec], z: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    (specs.iter())
        .map(|s| {
            let volume = z * s.elem_shape.iter().product::<usize>();
            let shape: Vec<usize> = [z]
                .into_iter()
                .chain(s.elem_shape.iter().copied())
                .collect();
            match s.dtype {
                AbsDType::F64 => {
                    let v: Vec<f64> = (0..volume).map(|_| rng.gen_range(-2.0..2.0)).collect();
                    Tensor::from_f64(&v, &shape).expect("f64 input")
                }
                AbsDType::I64 => {
                    let v: Vec<i64> = (0..volume).map(|_| rng.gen_range(0..5i64)).collect();
                    Tensor::from_i64(&v, &shape).expect("i64 input")
                }
                _ => unreachable!("the generator only emits f64/i64 inputs"),
            }
        })
        .collect()
}
