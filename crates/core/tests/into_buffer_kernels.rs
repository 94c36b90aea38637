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
//! same buffer and on a share of the first operand. The operand shapes
//! cover the four ways an operand lines up with a broadcast's output
//! (whole, tile, repeat, general); the buffer arrives unshared, shared
//! with a holder whose bits must not change, of another dtype, or of
//! another rank or row count. Equal shapes, which `zip_into` runs
//! without planning a broadcast, and broadcasting ones are also run over
//! every ordered pair of edge values (signed zeros, NaN, infinities, a
//! subnormal, the `f64` and `i64` extremes), at ranks 0, 1 and 2.

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

/// Whether `got` is `want` bit for bit, except where both `f64`
/// operands of an element are NaNs of different payloads: there IEEE 754
/// leaves open which payload the result keeps, and the allocating
/// kernels' loop, which LLVM inlines, vectorizes and may commute, keeps
/// the other one than a scalar kernel called through its `fn` pointer
/// (seen in release builds); the result must still be a NaN.
fn agree(got: &Tensor, want: &Tensor, inputs: &[Tensor]) -> bool {
    if bits(got) == bits(want) {
        return true;
    }
    let (Data::F64(g), Data::F64(w), [a, b]) = (got.data(), want.data(), inputs) else {
        return false;
    };
    // Each operand broadcast to the result's shape, bit for bit.
    let spread = |t: &Tensor| Tensor::full(want.shape(), true).select(t, t).unwrap();
    let (a, b) = (spread(a), spread(b));
    let nans = |x: f64, y: f64| x.is_nan() && y.is_nan() && x.to_bits() != y.to_bits();
    got.shape() == want.shape()
        && (g.iter().zip(w))
            .zip(a.as_f64().unwrap().iter().zip(b.as_f64().unwrap()))
            .all(|((g, w), (&x, &y))| g.to_bits() == w.to_bits() || nans(x, y) && nans(*g, *w))
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
    if let Some(rows) = longer.first_mut() {
        *rows += 1;
    }
    longer.push(2);
    match kind % 4 {
        0 => (operand(dtype, raw, shape), None),
        1 => {
            let held = operand(dtype, raw, shape);
            (held.clone(), Some(held))
        }
        2 => (operand(other, raw, shape), None),
        _ => (operand(dtype, raw, &longer), None),
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
    let inputs: Vec<&Tensor> = inputs.iter().collect();
    let (rng, registry, mut out) = (CounterRng::new(0), KernelRegistry::new(), Vec::new());
    eval_prim(prim, &inputs, &members, &rng, &registry, spare, &mut out).unwrap();
    out.remove(0)
}

/// Hold `prim` on `inputs` to its allocating kernel, through
/// [`eval_prim`] with no spare, through `direct`, the tensor crate's
/// into-buffer kernel, writing a share of the first operand, and through
/// [`eval_prim`] and `direct` each writing a buffer that arrives as
/// `kind` says.
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
    let same = |got: &Tensor, what: &str| {
        assert!(
            agree(got, &want, inputs),
            "{what} {at}: {:?} against {:?}",
            bits(got),
            bits(&want)
        );
    };
    same(
        &eval(prim, inputs, rows, &mut Vec::new()),
        "eval_prim without a spare",
    );
    if let Some(first) = inputs.first() {
        let mut share = first.clone();
        direct(&mut share);
        same(&share, "into a share of an operand");
    }
    assert_eq!(
        inputs.iter().map(bits).collect::<Vec<_>>(),
        operands,
        "{at}: an operand's bits changed"
    );
    let (buf, holder) = target(kind, want.dtype(), want.shape(), raw);
    let held = holder.as_ref().map(bits);
    let mut spare = vec![buf.clone()];
    same(&eval(prim, inputs, rows, &mut spare), "eval_prim");
    let mut buf = buf;
    direct(&mut buf);
    same(&buf, "into-buffer kernel");
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
    let operands = |dtype| (operand(dtype, raw, &ls), operand(dtype, &raw[7..], &rs));
    check_all(operands(DType::F64), operands(DType::I64), z, kind, raw);
}

/// Every constant, scalar-kernel row and comparison on the `f64`
/// operands `f` and the `i64` operands `i` (`z` members), into a buffer
/// of `kind`.
fn check_all(f: (Tensor, Tensor), i: (Tensor, Tensor), z: usize, kind: usize, raw: &[u64]) {
    for (a, b) in [&f, &i] {
        for (prim, fk, ik) in comparisons() {
            check(
                &prim,
                &[a.clone(), b.clone()],
                z,
                kind,
                raw,
                |out| match a.dtype() {
                    DType::F64 => a.zip_into(b, fk, out).unwrap(),
                    _ => a.zip_into(b, ik, out).unwrap(),
                },
            );
        }
    }
    let consts = [Prim::ConstF64(-2.5), Prim::ConstI64(7)];
    for prim in Prim::ROWS.iter().chain(&consts) {
        let (fk, ik) = prim.scalar_kernels();
        if let Some(k) = fk {
            check_kernel(prim, k, &f.0, &f.1, z, kind, raw);
        }
        if let Some(k) = ik {
            check_kernel(prim, k, &i.0, &i.1, z, kind, raw);
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

/// The floats' edge values: both zeros, the infinities, two NaN bit
/// patterns, a subnormal and the extremes.
const F64_EDGES: [f64; 12] = [
    0.0,
    -0.0,
    1.0,
    -2.5,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    f64::from_bits(0xfff8_0000_0000_0bad),
    f64::MIN_POSITIVE / 4.0,
    -f64::MIN_POSITIVE,
    f64::MAX,
    f64::MIN,
];

/// The integers' edge values: 0, ±1, small ones and the extremes.
const I64_EDGES: [i64; 12] = [
    0,
    1,
    -1,
    2,
    -3,
    63,
    64,
    i64::MIN,
    i64::MAX,
    i64::MIN + 1,
    i64::MAX - 1,
    -64,
];

/// `dtype`'s edge values as every ordered pair, `[n, n]` each: on the
/// left each edge repeated along its row, on the right the edges tiled.
fn edge_pairs(dtype: DType) -> (Tensor, Tensor) {
    let n = F64_EDGES.len();
    let laid = |at: fn(usize, usize) -> usize| {
        let data = match dtype {
            DType::F64 => Data::F64((0..n * n).map(|j| F64_EDGES[at(j, n)]).collect()),
            _ => Data::I64((0..n * n).map(|j| I64_EDGES[at(j, n)]).collect()),
        };
        Tensor::new(data, &[n, n]).unwrap()
    };
    (laid(|j, n| j / n), laid(|j, n| j % n))
}

/// Equal operand shapes, which `zip_into` runs as one loop over the two
/// slices without planning a broadcast, and broadcasting ones, which it
/// plans: every edge value against every other, on every dtype a
/// kernel has, into a buffer that is unshared, shares its payload with a
/// holder or with the first operand, or is of another dtype or shape.
#[test]
fn equal_and_broadcast_shapes_match_the_allocating_kernels_on_edge_values() {
    let raw: Vec<u64> = (0..64u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    let n = F64_EDGES.len();
    let (f, i) = (edge_pairs(DType::F64), edge_pairs(DType::I64));
    let shaped = |(l, r): &(Tensor, Tensor), ls: &[usize], rs: &[usize]| {
        (l.reshape(ls).unwrap(), r.reshape(rs).unwrap())
    };
    // The edges once, as a `[1, n]` row and an `[n, 1]` column.
    let row = |(_, r): &(Tensor, Tensor)| r.gather_rows(&[0]).unwrap();
    let col = |p: &(Tensor, Tensor)| row(p).reshape(&[n, 1]).unwrap();
    // NaN against -0.0 (and 64 against 1), at rank 0.
    let scalars = |(l, r): &(Tensor, Tensor)| {
        let at = |t: &Tensor| {
            t.reshape(&[n * n])
                .unwrap()
                .gather_rows(&[6 * n + 1])
                .unwrap()
        };
        (at(l).reshape(&[]).unwrap(), at(r).reshape(&[]).unwrap())
    };
    for kind in 0..4 {
        // Equal shapes: `[n, n]`, the lanes' `[n²]`, and rank 0.
        check_all(f.clone(), i.clone(), n, kind, &raw);
        let flat = [n * n];
        check_all(
            shaped(&f, &flat, &flat),
            shaped(&i, &flat, &flat),
            n * n,
            kind,
            &raw,
        );
        check_all(scalars(&f), scalars(&i), 1, kind, &raw);
        // Broadcasting shapes: a row against the matrix (tile), the
        // matrix against a column (repeat), a column against a row
        // (general).
        check_all(
            (row(&f), f.0.clone()),
            (row(&i), i.0.clone()),
            n,
            kind,
            &raw,
        );
        check_all(
            (f.0.clone(), col(&f)),
            (i.0.clone(), col(&i)),
            n,
            kind,
            &raw,
        );
        check_all((col(&f), row(&f)), (col(&i), row(&i)), n, kind, &raw);
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
