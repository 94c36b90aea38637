//! Edge-case batch semantics: multi-output recursion, mutual recursion,
//! deeply divergent control flow, and degenerate batches — run through
//! the full lowering + both runtimes and checked against solo execution.

use autobatch_accel::{Backend, Trace};
use autobatch_core::{
    lower, ExecOptions, ExecStrategy, KernelRegistry, LocalStaticVm, LoweringOptions, PcVm,
};
use autobatch_ir::build::ProgramBuilder;
use autobatch_ir::{lsab, Prim, Var};
use autobatch_tensor::Tensor;

/// Every strategy on both runtimes (and both lowerings) against the
/// masked local-static run; the program-counter runs must also take the
/// same supersteps whatever the strategy.
fn all_runtimes_agree(p: &lsab::Program, inputs: &[Tensor]) -> Vec<Tensor> {
    let masked = ExecOptions {
        strategy: ExecStrategy::Masking,
        ..ExecOptions::default()
    };
    let reference = LocalStaticVm::new(p, KernelRegistry::new(), masked)
        .run(inputs, None)
        .expect("lsab runs");
    let lowered = [LoweringOptions::default(), LoweringOptions::unoptimized()]
        .map(|lopts| (lopts, lower(p, lopts).expect("lowers").0));
    let mut supersteps = Vec::new();
    for strategy in [
        ExecStrategy::Masking,
        ExecStrategy::GatherScatter,
        ExecStrategy::Adaptive,
    ] {
        let opts = ExecOptions {
            strategy,
            ..ExecOptions::default()
        };
        let lsab_vm = LocalStaticVm::new(p, KernelRegistry::new(), opts);
        assert_eq!(
            lsab_vm.run(inputs, None).expect("lsab runs"),
            reference,
            "lsab {strategy:?}"
        );
        for (lopts, pc) in &lowered {
            let mut trace = Trace::new(Backend::hybrid_cpu());
            let out = PcVm::new(pc, KernelRegistry::new(), opts)
                .run(inputs, Some(&mut trace))
                .expect("pc runs");
            assert_eq!(out, reference, "pc {strategy:?} {lopts:?}");
            supersteps.push((*lopts, trace.supersteps()));
        }
    }
    for (lopts, steps) in &supersteps[2..] {
        let (_, masked_steps) = supersteps.iter().find(|(l, _)| l == lopts).expect("ran");
        assert_eq!(steps, masked_steps, "supersteps under {lopts:?}");
    }
    reference
}

/// A recursive function with *two* outputs whose values cross between
/// the two recursive calls — stresses result-temp handling in resume
/// blocks.
#[test]
fn multi_output_recursion() {
    // f(n) -> (a, b): base (n<=0): (1, 2); else (x,y) = f(n-1); (a,b) = (y+n, x).
    let mut pb = ProgramBuilder::new();
    let f = pb.declare("swap_sum", &["n"], &["a", "b"]);
    pb.define(f, |fb| {
        let n = fb.param(0);
        let zero = fb.const_i64(0);
        let base = fb.emit(Prim::Le, &[n.clone(), zero]);
        fb.if_else(
            &base,
            |fb| {
                let one = fb.const_i64(1);
                let two = fb.const_i64(2);
                fb.copy(&fb.output(0), &one);
                fb.copy(&fb.output(1), &two);
            },
            |fb| {
                let one = fb.const_i64(1);
                let m = fb.emit(Prim::Sub, &[fb.param(0), one]);
                let r = fb.call(f, &[m], 2);
                fb.assign(&fb.output(0), Prim::Add, &[r[1].clone(), fb.param(0)]);
                fb.copy(&fb.output(1), &r[0].clone());
            },
        );
        fb.ret();
    });
    let p = pb.finish(f).unwrap();
    let out = all_runtimes_agree(&p, &[Tensor::from_i64(&[0, 1, 2, 3, 5], &[5]).unwrap()]);
    // Hand-rolled reference.
    fn gold(n: i64) -> (i64, i64) {
        if n <= 0 {
            (1, 2)
        } else {
            let (x, y) = gold(n - 1);
            (y + n, x)
        }
    }
    for (i, &n) in [0i64, 1, 2, 3, 5].iter().enumerate() {
        let (a, b) = gold(n);
        assert_eq!(out[0].as_i64().unwrap()[i], a, "a({n})");
        assert_eq!(out[1].as_i64().unwrap()[i], b, "b({n})");
    }
}

/// Mutual recursion where the two functions carry *different* variable
/// sets — exercises cross-function stack classification.
#[test]
fn mutual_recursion_batch() {
    // even(n) = n<=0 ? 1 : odd(n-1); odd(n) = n<=0 ? 0 : even(n-1),
    // but each adds a locally computed weight after its call, so locals
    // are live across the recursive call in both functions.
    let mut pb = ProgramBuilder::new();
    let even = pb.declare("evenw", &["n"], &["r"]);
    let odd = pb.declare("oddw", &["n"], &["r"]);
    for (me, other, base_val, weight) in [(even, odd, 1i64, 10i64), (odd, even, 0, 100)] {
        pb.define(me, |fb| {
            let n = fb.param(0);
            let w = Var::new("w");
            let wc = fb.const_i64(weight);
            fb.assign(&w, Prim::Mul, &[n.clone(), wc]);
            let zero = fb.const_i64(0);
            let base = fb.emit(Prim::Le, &[n, zero]);
            fb.if_else(
                &base,
                |fb| {
                    let b = fb.const_i64(base_val);
                    fb.copy(&fb.output(0), &b);
                },
                |fb| {
                    let one = fb.const_i64(1);
                    let m = fb.emit(Prim::Sub, &[fb.param(0), one]);
                    let r = fb.call(other, &[m], 1);
                    fb.assign(&fb.output(0), Prim::Add, &[r[0].clone(), Var::new("w")]);
                },
            );
            fb.ret();
        });
    }
    let p = pb.finish(even).unwrap();
    let out = all_runtimes_agree(&p, &[Tensor::from_i64(&[0, 1, 2, 3, 4], &[5]).unwrap()]);
    fn ge(n: i64) -> i64 {
        if n <= 0 {
            1
        } else {
            go(n - 1) + 10 * n
        }
    }
    fn go(n: i64) -> i64 {
        if n <= 0 {
            0
        } else {
            ge(n - 1) + 100 * n
        }
    }
    for (i, &n) in [0i64, 1, 2, 3, 4].iter().enumerate() {
        assert_eq!(out[0].as_i64().unwrap()[i], ge(n), "even({n})");
    }
}

/// All batch members fully divergent: each takes a different branch arm
/// of a three-way nested conditional chain.
#[test]
fn fully_divergent_branches() {
    let p = autobatch_lang::compile(
        "fn classify(x: float) -> (c: int) {
            if x < -1.0 { c = 0; }
            else if x < 0.0 { c = 1; }
            else if x < 1.0 { c = 2; }
            else { c = 3; }
        }",
        "classify",
    )
    .expect("compiles");
    let out = all_runtimes_agree(
        &p,
        &[Tensor::from_f64(&[-5.0, -0.5, 0.5, 7.0], &[4]).unwrap()],
    );
    assert_eq!(out[0].as_i64().unwrap(), &[0, 1, 2, 3]);
}

/// A batch of one behaves exactly like the scalar case, and a batch of
/// identical members produces identical rows.
#[test]
fn degenerate_batches() {
    let p = autobatch_lang::compile(
        "fn gcd(a: int, b: int) -> (g: int) {
            let x = a;
            let y = b;
            while y > 0 {
                let q = x / y;
                let r = x - q * y;
                x = y;
                y = r;
            }
            g = x;
        }",
        "gcd",
    )
    .expect("compiles");
    let single = all_runtimes_agree(
        &p,
        &[
            Tensor::from_i64(&[48], &[1]).unwrap(),
            Tensor::from_i64(&[36], &[1]).unwrap(),
        ],
    );
    assert_eq!(single[0].as_i64().unwrap(), &[12]);
    let copies = all_runtimes_agree(
        &p,
        &[
            Tensor::from_i64(&[48; 6], &[6]).unwrap(),
            Tensor::from_i64(&[36; 6], &[6]).unwrap(),
        ],
    );
    assert_eq!(copies[0].as_i64().unwrap(), &[12; 6]);
}

/// Recursion nested inside a while loop nested inside recursion:
/// the pc stack interleaves loop and call frames per member.
#[test]
fn loops_inside_recursion() {
    let p = autobatch_lang::compile(
        "fn weird(n: int) -> (out: int) {
            if n <= 0 {
                out = 1;
            } else {
                let acc = 0;
                let i = 0;
                while i < n {
                    let sub = weird(n - 2);
                    acc = acc + sub;
                    i = i + 1;
                }
                out = acc;
            }
        }",
        "weird",
    )
    .expect("compiles");
    fn gold(n: i64) -> i64 {
        if n <= 0 {
            1
        } else {
            (0..n).map(|_| gold(n - 2)).sum()
        }
    }
    let out = all_runtimes_agree(&p, &[Tensor::from_i64(&[0, 1, 2, 3, 4, 5], &[6]).unwrap()]);
    for (i, &n) in [0i64, 1, 2, 3, 4, 5].iter().enumerate() {
        assert_eq!(out[0].as_i64().unwrap()[i], gold(n), "weird({n})");
    }
}
