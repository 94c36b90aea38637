//! The into-buffer kernels a superstep writes its results with, held bit
//! for bit to the allocating kernels they replace, in the style of the
//! tensor crate's broadcasting properties.
//!
//! For every row of the primitive table with a scalar kernel, every
//! constant and every comparison, on each dtype it has a kernel for, the
//! tensor crate's allocating kernel of the same function ([`Tensor::add`],
//! [`Tensor::lt`], [`Tensor::exp`], [`Tensor::neg_i64`], [`Tensor::full`],
//! …) is the reference. Against it run the primitive through
//! [`eval_prim`] with no spare buffer (its result then written into a
//! share of its first operand) and with one spare buffer, and the tensor
//! crate's into-buffer kernel ([`Tensor::refill_with`],
//! [`Tensor::map_into`], [`Tensor::zip_into`]) called straight on the
//! same buffer. The operand shapes cover the four
//! ways an operand lines up with a broadcast's output (whole, tile,
//! repeat, general); the buffer arrives unshared, shared with a holder
//! whose bits must not change, of another dtype, or of another rank or
//! row count.

use autobatch_core::{eval_prim, KernelRegistry};
use autobatch_ir::{Prim, ScalarKernel};
use autobatch_tensor::{CounterRng, DType, Data, Tensor};
use proptest::prelude::*;

/// A `dtype` tensor of `shape` from raw draws: floats mostly small
/// halves, with both zeros, infinities, a subnormal, a huge value and
/// one NaN bit pattern; integers with 0, -1 and the extremes; bools by
/// parity.
fn operand(dtype: DType, raw: &[u64], shape: &[usize]) -> Tensor {
    const F: [f64; 8] = [
        -0.0,
        0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::from_bits(0xfff8_0000_0000_0bad),
        1e300,
        -1.5e-300,
        f64::MIN_POSITIVE / 4.0,
    ];
    const I: [i64; 4] = [0, -1, i64::MIN, i64::MAX];
    let raw = raw.iter().cycle().take(shape.iter().product());
    let data = match dtype {
        DType::F64 => Data::F64(
            raw.map(|&x| match x % 4 {
                0 => F[(x / 4 % 8) as usize],
                _ => ((x % 9) as f64 - 4.0) / 2.0,
            })
            .collect(),
        ),
        DType::I64 => Data::I64(
            raw.map(|&x| match x % 4 {
                0 => I[(x / 4 % 4) as usize],
                _ => (x % 9) as i64 - 4,
            })
            .collect(),
        ),
        DType::Bool => Data::Bool(raw.map(|&x| x % 2 == 1).collect()),
    };
    Tensor::new(data, shape).unwrap()
}

/// A tensor's shape, dtype and elements as bits.
fn bits(t: &Tensor) -> (Vec<usize>, DType, Vec<u64>) {
    let v = match t.data() {
        Data::F64(v) => v.iter().map(|x| x.to_bits()).collect(),
        Data::I64(v) => v.iter().map(|&x| x as u64).collect(),
        Data::Bool(v) => v.iter().map(|&x| u64::from(x)).collect(),
    };
    (t.shape().to_vec(), t.dtype(), v)
}

/// The operand shapes of broadcast class `class` over `[z, d]` (rank 3
/// for the general class): the output itself, a trailing block, each
/// element repeated, and operands that each broadcast along a different
/// axis.
fn shapes(class: usize, z: usize, d: usize, e: usize) -> [Vec<usize>; 2] {
    match class % 4 {
        0 => [vec![z, d], vec![z, d]],
        1 => [vec![1, d], vec![z, d]],
        2 => [vec![z, d], vec![z, 1]],
        _ => [vec![z, 1, e], vec![1, d, 1]],
    }
}

/// The comparisons, with the function each applies per dtype.
type Comparison = (Prim, fn(f64, f64) -> bool, fn(i64, i64) -> bool);

fn comparisons() -> [Comparison; 6] {
    [
        (Prim::Lt, |a, b| a < b, |a, b| a < b),
        (Prim::Le, |a, b| a <= b, |a, b| a <= b),
        (Prim::Gt, |a, b| a > b, |a, b| a > b),
        (Prim::Ge, |a, b| a >= b, |a, b| a >= b),
        (Prim::EqE, |a, b| a == b, |a, b| a == b),
        (Prim::NeE, |a, b| a != b, |a, b| a != b),
    ]
}

/// The buffer a kernel writes into, arriving as `kind` says, for a
/// result of `dtype` and `shape`: unshared, shared with the holder it
/// returns, of another dtype, or of another rank or row count.
fn target(kind: usize, dtype: DType, shape: &[usize], raw: &[u64]) -> (Tensor, Option<Tensor>) {
    let other = match dtype {
        DType::F64 => DType::I64,
        DType::I64 => DType::Bool,
        DType::Bool => DType::F64,
    };
    let mut longer = shape.to_vec();
    match kind % 4 {
        0 => (operand(dtype, raw, shape), None),
        1 => {
            let held = operand(dtype, raw, shape);
            (held.clone(), Some(held))
        }
        2 => (operand(other, raw, shape), None),
        _ => {
            longer[0] += 1;
            longer.push(2);
            (operand(dtype, raw, &longer), None)
        }
    }
}

/// `prim` on same-rank `inputs` (`rows` members) by the tensor crate's
/// allocating kernel of the same function: the reference.
fn allocating(prim: &Prim, inputs: &[Tensor], rows: usize) -> Tensor {
    let r = match prim {
        Prim::ConstF64(c) => return Tensor::full(&[rows], *c),
        Prim::ConstI64(c) => return Tensor::full(&[rows], *c),
        Prim::ConstBool(c) => return Tensor::full(&[rows], *c),
        Prim::Id => return inputs[0].clone(),
        Prim::Neg => inputs[0].neg(),
        Prim::Abs => inputs[0].abs(),
        Prim::Exp => inputs[0].exp(),
        Prim::Ln => inputs[0].ln(),
        Prim::Sqrt => inputs[0].sqrt(),
        Prim::Square => inputs[0].square(),
        Prim::Sigmoid => inputs[0].sigmoid(),
        Prim::Softplus => inputs[0].softplus(),
        Prim::Floor => inputs[0].floor(),
        Prim::Sin => inputs[0].sin(),
        Prim::Cos => inputs[0].cos(),
        Prim::Tanh => inputs[0].tanh(),
        Prim::NegI => inputs[0].neg_i64(),
        Prim::Add => inputs[0].add(&inputs[1]),
        Prim::Sub => inputs[0].sub(&inputs[1]),
        Prim::Mul => inputs[0].mul(&inputs[1]),
        Prim::Div => inputs[0].div(&inputs[1]),
        Prim::Pow => inputs[0].pow(&inputs[1]),
        Prim::Min2 => inputs[0].min2(&inputs[1]),
        Prim::Max2 => inputs[0].max2(&inputs[1]),
        Prim::Lt => inputs[0].lt(&inputs[1]),
        Prim::Le => inputs[0].le(&inputs[1]),
        Prim::Gt => inputs[0].gt(&inputs[1]),
        Prim::Ge => inputs[0].ge(&inputs[1]),
        Prim::EqE => inputs[0].eq_elem(&inputs[1]),
        Prim::NeE => inputs[0].ne_elem(&inputs[1]),
        other => panic!("{other:?} runs no into-buffer kernel"),
    };
    r.unwrap()
}

/// `prim` on `inputs` (`rows` members) through [`eval_prim`], into the
/// buffers `spare` lends.
fn eval(prim: &Prim, inputs: &[Tensor], rows: usize, spare: &mut Vec<Tensor>) -> Tensor {
    let members: Vec<u64> = (0..rows as u64).collect();
    let (rng, registry, mut out) = (CounterRng::new(0), KernelRegistry::new(), Vec::new());
    eval_prim(prim, inputs, &members, &rng, &registry, spare, &mut out).unwrap();
    out.remove(0)
}

/// Hold `prim` on `inputs` to its allocating kernel, through
/// [`eval_prim`] with no spare, and through [`eval_prim`] and `direct`,
/// the tensor crate's into-buffer kernel, each writing a buffer that
/// arrives as `kind` says.
fn check(
    prim: &Prim,
    inputs: &[Tensor],
    rows: usize,
    kind: usize,
    raw: &[u64],
    direct: impl Fn(&mut Tensor),
) {
    let want = allocating(prim, inputs, rows);
    let at = format!(
        "{prim:?} on {:?}",
        inputs.iter().map(Tensor::shape).collect::<Vec<_>>()
    );
    let operands: Vec<_> = inputs.iter().map(bits).collect();
    assert_eq!(
        bits(&eval(prim, inputs, rows, &mut Vec::new())),
        bits(&want),
        "eval_prim without a spare {at}"
    );
    assert_eq!(
        inputs.iter().map(bits).collect::<Vec<_>>(),
        operands,
        "{at}: an operand's bits changed"
    );
    let (buf, holder) = target(kind, want.dtype(), want.shape(), raw);
    let held = holder.as_ref().map(bits);
    let mut spare = vec![buf.clone()];
    assert_eq!(
        bits(&eval(prim, inputs, rows, &mut spare)),
        bits(&want),
        "eval_prim {at}"
    );
    let mut buf = buf;
    direct(&mut buf);
    assert_eq!(bits(&buf), bits(&want), "into-buffer kernel {at}");
    drop(spare);
    assert_eq!(
        holder.as_ref().map(bits),
        held,
        "{at}: the holder's bits changed"
    );
}

/// Every constant, scalar-kernel row and comparison on operands of
/// broadcast class `class` over `[z, d]`, into a buffer of `kind`.
fn check_rows(class: usize, z: usize, d: usize, e: usize, kind: usize, raw: &[u64]) {
    let [ls, rs] = shapes(class, z, d, e);
    for dtype in [DType::F64, DType::I64] {
        let (a, b) = (operand(dtype, raw, &ls), operand(dtype, &raw[7..], &rs));
        for (prim, f, i) in comparisons() {
            check(
                &prim,
                &[a.clone(), b.clone()],
                z,
                kind,
                raw,
                |out| match dtype {
                    DType::F64 => a.zip_into(&b, f, out).unwrap(),
                    _ => a.zip_into(&b, i, out).unwrap(),
                },
            );
        }
    }
    let consts = [Prim::ConstF64(-2.5), Prim::ConstI64(7)];
    for prim in Prim::ROWS.iter().chain(&consts) {
        let (f, i) = prim.scalar_kernels();
        let f = f.map(|k| {
            (
                k,
                operand(DType::F64, raw, &ls),
                operand(DType::F64, &raw[7..], &rs),
            )
        });
        let i = i.map(|k| {
            (
                k,
                operand(DType::I64, raw, &ls),
                operand(DType::I64, &raw[7..], &rs),
            )
        });
        if let Some((k, a, b)) = f {
            check_kernel(prim, k, &a, &b, z, kind, raw);
        }
        if let Some((k, a, b)) = i {
            check_kernel(prim, k, &a, &b, z, kind, raw);
        }
    }
    let c = Prim::ConstBool(true);
    check(&c, &[], z, kind, raw, |out| {
        out.refill_with(&[z], |v| v.resize(z, true))
    });
}

/// [`check`] for a row whose scalar kernel on `a`'s dtype is `k`.
fn check_kernel<T: autobatch_tensor::Element>(
    prim: &Prim,
    k: ScalarKernel<T>,
    a: &Tensor,
    b: &Tensor,
    z: usize,
    kind: usize,
    raw: &[u64],
) {
    match k {
        ScalarKernel::Const(c) => {
            check(prim, &[], z, kind, raw, |out| {
                out.refill_with(&[z], |v| v.resize(z, c))
            });
        }
        ScalarKernel::Un(f) => {
            check(prim, std::slice::from_ref(a), z, kind, raw, |out| {
                a.map_into(f, out).unwrap()
            });
        }
        ScalarKernel::Bin(f) => {
            let ins = [a.clone(), b.clone()];
            check(prim, &ins, z, kind, raw, |out| {
                a.zip_into(b, f, out).unwrap()
            });
        }
    }
}

#[test]
fn into_buffer_kernels_match_the_allocating_ones_on_named_shapes() {
    let raw: Vec<u64> = (0..64u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 7)
        .collect();
    for class in 0..4 {
        for kind in 0..4 {
            check_rows(class, 2, 3, 2, kind, &raw);
        }
    }
    // An operand of lower rank is padded with trailing unit axes first:
    // `[z]` against `[z, d]` is a repeat.
    for dtype in [DType::F64, DType::I64] {
        let ins = [
            operand(dtype, &raw, &[2]),
            operand(dtype, &raw[7..], &[2, 3]),
        ];
        let want = ins[0].reshape(&[2, 1]).unwrap().add(&ins[1]).unwrap();
        assert_eq!(
            bits(&eval(&Prim::Add, &ins, 2, &mut Vec::new())),
            bits(&want)
        );
        let mut spare = vec![operand(dtype, &raw, &[5])];
        assert_eq!(bits(&eval(&Prim::Add, &ins, 2, &mut spare)), bits(&want));
        assert!(spare.is_empty(), "the spare was written into");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn into_buffer_kernels_match_the_allocating_ones_bit_for_bit(
        class in 0usize..4,
        z in 1usize..4,
        d in 1usize..4,
        e in 1usize..4,
        kind in 0usize..4,
        raw in proptest::collection::vec(any::<u64>(), 64..=64),
    ) {
        check_rows(class, z, d, e, kind, &raw);
    }
}
