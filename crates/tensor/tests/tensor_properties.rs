//! Property tests of the tensor substrate's algebraic invariants — the
//! kernels both autobatching runtimes are built on.
//!
//! The row-movement kernels are each held, on all three dtypes and on
//! zero-length element shapes, to a reference written one `get` / `set`
//! at a time ([`build`]). The broadcasting kernels are held, bit for bit,
//! to a reference that reads each operand through its own coordinates
//! ([`reference`]), over drawn shapes that cover every way an operand can
//! line up with the output ([`operand_shape`]).

use autobatch_tensor::shape::{broadcast_shapes, volume};
use autobatch_tensor::{scalar_ops, DType, Data, Result, Scalar, Tensor};
use proptest::prelude::*;

fn vec_f64(len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-100.0f64..100.0, len..=len)
}

fn vec_i64(len: usize) -> impl Strategy<Value = Vec<i64>> {
    proptest::collection::vec(-100i64..100, len..=len)
}

fn vec_bool(len: usize) -> impl Strategy<Value = Vec<bool>> {
    proptest::collection::vec(any::<bool>(), len..=len)
}

const DTYPES: [DType; 3] = [DType::F64, DType::I64, DType::Bool];

/// `[0, 1, ..., n-1]` as an `i64` vector: a dirty `out` to reuse.
fn arange(n: usize) -> Tensor {
    Tensor::from_i64(&(0..n as i64).collect::<Vec<_>>(), &[n]).unwrap()
}

/// Whether two tensors share one copy-on-write payload.
fn shares(a: &Tensor, b: &Tensor) -> bool {
    std::ptr::eq(a.data(), b.data())
}

/// A `dtype` tensor of `shape` holding the leading elements of `raw`:
/// halved as `f64` (so fractions occur), as they are, or their parity.
fn tensor_of(dtype: DType, raw: &[i64], shape: &[usize]) -> Tensor {
    let raw = &raw[..shape.iter().product()];
    match dtype {
        DType::F64 => {
            let v: Vec<f64> = raw.iter().map(|&x| x as f64 / 2.0).collect();
            Tensor::from_f64(&v, shape)
        }
        DType::I64 => Tensor::from_i64(raw, shape),
        DType::Bool => {
            let v: Vec<bool> = raw.iter().map(|&x| x % 2 != 0).collect();
            Tensor::from_bool(&v, shape)
        }
    }
    .unwrap()
}

/// The reference: a `dtype` tensor of `shape` filled one [`Tensor::set`]
/// at a time with `at(index)`; `None` leaves the zero it started as.
fn build(dtype: DType, shape: &[usize], at: impl Fn(&[usize]) -> Option<Scalar>) -> Tensor {
    let mut t = Tensor::zeros(dtype, shape);
    let mut index = vec![0; shape.len()];
    for mut lin in 0..t.len() {
        for (i, &dim) in index.iter_mut().zip(shape).rev() {
            *i = lin % dim;
            lin /= dim;
        }
        if let Some(value) = at(&index) {
            t.set(&index, value).unwrap();
        }
    }
    t
}

proptest! {
    #[test]
    fn add_commutes_and_sub_inverts(
        a in vec_f64(12),
        b in vec_f64(12),
    ) {
        let ta = Tensor::from_f64(&a, &[3, 4]).unwrap();
        let tb = Tensor::from_f64(&b, &[3, 4]).unwrap();
        prop_assert_eq!(ta.add(&tb).unwrap(), tb.add(&ta).unwrap());
        let roundtrip = ta.add(&tb).unwrap().sub(&tb).unwrap();
        for (x, y) in roundtrip.as_f64().unwrap().iter().zip(&a) {
            prop_assert!((x - y).abs() <= 1e-9 * y.abs().max(1.0));
        }
    }

    #[test]
    fn broadcast_scalar_matches_elementwise(
        a in vec_f64(10),
        c in -50.0f64..50.0,
    ) {
        let t = Tensor::from_f64(&a, &[10]).unwrap();
        let s = Tensor::scalar(c);
        let broadcast = t.mul(&s).unwrap();
        let manual: Vec<f64> = a.iter().map(|x| x * c).collect();
        prop_assert_eq!(broadcast.as_f64().unwrap(), &manual[..]);
    }

    #[test]
    fn broadcast_row_vector_matches_loop(
        m in vec_f64(12),
        v in vec_f64(4),
    ) {
        let tm = Tensor::from_f64(&m, &[3, 4]).unwrap();
        let tv = Tensor::from_f64(&v, &[4]).unwrap();
        let out = tm.add(&tv).unwrap();
        let o = out.as_f64().unwrap();
        for r in 0..3 {
            for c in 0..4 {
                prop_assert_eq!(o[r * 4 + c], m[r * 4 + c] + v[c]);
            }
        }
    }

    #[test]
    fn masked_assign_touches_only_active_rows(
        a in vec_i64(6),
        b in vec_i64(6),
        el in 0usize..3,
        mask in vec_bool(3),
    ) {
        for dtype in DTYPES {
            let shape = [3, el];
            let mut t = tensor_of(dtype, &a, &shape);
            let sibling = t.clone();
            let src = tensor_of(dtype, &b, &shape);
            t.masked_assign_rows(&mask, &src).unwrap();
            let want = build(dtype, &shape, |ix| {
                (if mask[ix[0]] { &src } else { &sibling }).get(ix).ok()
            });
            prop_assert_eq!(&t, &want, "{}", dtype);
            prop_assert_eq!(&sibling, &tensor_of(dtype, &a, &shape));
        }
    }

    #[test]
    fn gather_scatter_rows_roundtrip(
        a in vec_i64(10),
        b in vec_i64(8),
        el in 0usize..3,
        idx in proptest::collection::vec(0usize..5, 0..5),
    ) {
        for dtype in DTYPES {
            let t = tensor_of(dtype, &a, &[5, el]);
            let g = t.gather_rows(&idx).unwrap();
            let want = build(dtype, &[idx.len(), el], |ix| t.get(&[idx[ix[0]], ix[1]]).ok());
            prop_assert_eq!(&g, &want, "gather_rows on {}", dtype);
            // Scattering the gathered rows back to the same indices
            // leaves the tensor unchanged.
            let mut back = t.clone();
            back.scatter_rows(&idx, &g).unwrap();
            prop_assert_eq!(&back, &t);
            // Scattering other rows writes them in order: the later of
            // two rows sent to one index wins.
            let src = tensor_of(dtype, &b, &[idx.len(), el]);
            let mut scattered = t.clone();
            scattered.scatter_rows(&idx, &src).unwrap();
            let mut want = build(dtype, &[5, el], |ix| t.get(ix).ok());
            for (j, &i) in idx.iter().enumerate() {
                for e in 0..el {
                    want.set(&[i, e], src.get(&[j, e]).unwrap()).unwrap();
                }
            }
            prop_assert_eq!(&scattered, &want, "scatter_rows on {}", dtype);
            prop_assert_eq!(&t, &tensor_of(dtype, &a, &[5, el]));
        }
    }

    #[test]
    fn gather_rows_into_discards_whatever_out_held(
        a in vec_i64(10),
        el in 0usize..3,
        idx in proptest::collection::vec(0usize..5, 0..5),
    ) {
        // `out` arrives holding each dtype in turn, shared with a sibling.
        let mut out = arange(4);
        for dtype in DTYPES {
            let held = out.clone();
            let sibling = held.clone();
            let t = tensor_of(dtype, &a, &[5, el]);
            t.gather_rows_into(&idx, &mut out).unwrap();
            let want = build(dtype, &[idx.len(), el], |ix| t.get(&[idx[ix[0]], ix[1]]).ok());
            prop_assert_eq!(&out, &want, "{}", dtype);
            prop_assert_eq!(&held, &sibling);
            prop_assert_eq!(&t, &tensor_of(dtype, &a, &[5, el]));
        }
    }

    #[test]
    fn copy_into_makes_a_deep_copy_whatever_out_held(a in vec_i64(10), el in 0usize..3) {
        // `out` arrives holding each dtype in turn, shared with a sibling.
        let mut out = arange(4);
        for dtype in DTYPES {
            let held = out.clone();
            let sibling = held.clone();
            let t = tensor_of(dtype, &a, &[5, el]);
            t.copy_into(&mut out);
            prop_assert_eq!(&out, &t, "{}", dtype);
            prop_assert!(!shares(&out, &t));
            prop_assert_eq!(&held, &sibling);
        }
    }

    #[test]
    fn masked_depth_gather_into_writes_only_the_masked_rows(
        a in vec_i64(24),
        b in vec_i64(6),
        el in 0usize..3,
        depths in proptest::collection::vec(0usize..4, 3..=3),
        mask in vec_bool(3),
        shared in any::<bool>(),
    ) {
        for dtype in DTYPES {
            let stack = tensor_of(dtype, &a, &[3, 4, el]);
            let top = tensor_of(dtype, &b, &[3, el]);
            let mut out = tensor_of(dtype, &b, &[3, el]);
            // A second holder of the top's payload must read it unchanged.
            let holder = shared.then(|| out.clone());
            stack.gather_at_depth_into(&depths, &mask, &mut out).unwrap();
            let want = build(dtype, &[3, el], |ix| {
                (if mask[ix[0]] { stack.get(&[ix[0], depths[ix[0]], ix[1]]) } else { top.get(ix) }).ok()
            });
            prop_assert_eq!(&out, &want, "gather_at_depth_into on {}", dtype);
            prop_assert_eq!(&stack, &tensor_of(dtype, &a, &[3, 4, el]));
            if let Some(holder) = holder {
                prop_assert_eq!(&holder, &top);
            }
        }
    }

    #[test]
    fn depth_scatter_then_gather_reads_back(
        a in vec_i64(24),
        b in vec_i64(6),
        el in 0usize..3,
        depths in proptest::collection::vec(0usize..4, 3..=3),
        mask in vec_bool(3),
    ) {
        for dtype in DTYPES {
            let mut stack = tensor_of(dtype, &a, &[3, 4, el]);
            let sibling = stack.clone();
            let src = tensor_of(dtype, &b, &[3, el]);
            // Each active member's row lands at its own depth.
            stack.scatter_at_depth(&depths, &mask, &src).unwrap();
            let want = build(dtype, &[3, 4, el], |ix| {
                if mask[ix[0]] && depths[ix[0]] == ix[1] {
                    src.get(&[ix[0], ix[2]]).ok()
                } else {
                    sibling.get(ix).ok()
                }
            });
            prop_assert_eq!(&stack, &want, "scatter_at_depth on {}", dtype);
            prop_assert_eq!(&sibling, &tensor_of(dtype, &a, &[3, 4, el]));
            // Reading at those depths recovers the written rows, and the
            // old tops of the members that sat out.
            let mut read = Tensor::zeros(dtype, &[3, el]);
            stack.gather_at_depth_into(&depths, &[true; 3], &mut read).unwrap();
            let want = build(dtype, &[3, el], |ix| stack.get(&[ix[0], depths[ix[0]], ix[1]]).ok());
            prop_assert_eq!(&read, &want, "gather_at_depth_into on {}", dtype);
            let tops = build(dtype, &[3, el], |ix| {
                (if mask[ix[0]] { src.get(ix) } else { sibling.get(&[ix[0], depths[ix[0]], ix[1]]) }).ok()
            });
            prop_assert_eq!(&read, &tops);
        }
    }

    #[test]
    fn pad_rows_appends_zero_rows(a in vec_i64(6), el in 0usize..3, extra in 0usize..3) {
        for dtype in DTYPES {
            let t = tensor_of(dtype, &a, &[3, el]);
            let want = build(dtype, &[3 + extra, el], |ix| t.get(ix).ok());
            prop_assert_eq!(&t.pad_rows(extra).unwrap(), &want, "{}", dtype);
            prop_assert_eq!(&t, &tensor_of(dtype, &a, &[3, el]));
        }
    }

    #[test]
    fn concat_rows_stacks_its_parts_in_order(
        a in vec_i64(18),
        el in 0usize..3,
        rows in proptest::collection::vec(0usize..4, 1..4),
    ) {
        for dtype in DTYPES {
            // The parts are consecutive runs of `whole`'s rows.
            let total: usize = rows.iter().sum();
            let whole = tensor_of(dtype, &a, &[total, el]);
            let mut start = 0;
            let parts: Vec<Tensor> = rows
                .iter()
                .map(|&n| {
                    let part = build(dtype, &[n, el], |ix| whole.get(&[start + ix[0], ix[1]]).ok());
                    start += n;
                    part
                })
                .collect();
            let siblings = parts.clone();
            prop_assert_eq!(&Tensor::concat_rows(&parts).unwrap(), &whole, "{}", dtype);
            prop_assert_eq!(&parts, &siblings);
        }
    }

    #[test]
    fn select_agrees_with_scalar_semantics(
        a in vec_i64(8),
        b in vec_i64(8),
        c in vec_bool(4),
        el in 0usize..3,
    ) {
        for dtype in DTYPES {
            // A per-row condition broadcast over the element axis.
            let shape = [4, el];
            let ta = tensor_of(dtype, &a, &shape);
            let tb = tensor_of(dtype, &b, &shape);
            let tc = Tensor::from_bool(&c, &[4, 1]).unwrap();
            let out = tc.select(&ta, &tb).unwrap();
            let want = build(dtype, &shape, |ix| (if c[ix[0]] { &ta } else { &tb }).get(ix).ok());
            prop_assert_eq!(&out, &want, "{}", dtype);
            prop_assert_eq!(&ta, &tensor_of(dtype, &a, &shape));
        }
    }

    #[test]
    fn sum_last_axis_matches_manual(
        a in vec_f64(12),
    ) {
        let t = Tensor::from_f64(&a, &[3, 4]).unwrap();
        let s = t.sum_last_axis().unwrap();
        for r in 0..3 {
            let manual: f64 = a[r * 4..(r + 1) * 4].iter().sum();
            prop_assert!((s.as_f64().unwrap()[r] - manual).abs() < 1e-9);
        }
    }

    #[test]
    fn dot_last_axis_is_symmetric_and_positive_on_self(
        a in vec_f64(12),
        b in vec_f64(12),
    ) {
        let ta = Tensor::from_f64(&a, &[3, 4]).unwrap();
        let tb = Tensor::from_f64(&b, &[3, 4]).unwrap();
        prop_assert_eq!(
            ta.dot_last_axis(&tb).unwrap(),
            tb.dot_last_axis(&ta).unwrap()
        );
        for &x in ta.dot_last_axis(&ta).unwrap().as_f64().unwrap() {
            prop_assert!(x >= 0.0);
        }
    }

    #[test]
    fn matvec_batched_matches_per_row_matvec(
        m in vec_f64(12),
        q in vec_f64(8),
    ) {
        let tm = Tensor::from_f64(&m, &[3, 4]).unwrap();
        let tq = Tensor::from_f64(&q, &[2, 4]).unwrap();
        let batched = tm.matvec_batched(&tq).unwrap();
        for (b, x) in q.chunks(4).enumerate() {
            let single: Vec<f64> =
                m.chunks(4).map(|r| r.iter().zip(x).map(|(a, b)| a * b).sum()).collect();
            prop_assert_eq!(batched.row(b).unwrap().as_f64().unwrap(), &single[..]);
        }
    }

    #[test]
    fn transpose_is_involutive(m in vec_f64(12)) {
        let t = Tensor::from_f64(&m, &[3, 4]).unwrap();
        prop_assert_eq!(t.transpose().unwrap().transpose().unwrap(), t);
    }

    #[test]
    fn comparisons_partition(a in vec_f64(10), b in vec_f64(10)) {
        let ta = Tensor::from_f64(&a, &[10]).unwrap();
        let tb = Tensor::from_f64(&b, &[10]).unwrap();
        let lt = ta.lt(&tb).unwrap();
        let ge = ta.ge(&tb).unwrap();
        // lt and ge are complementary for non-NaN data.
        prop_assert_eq!(lt.not().unwrap(), ge);
    }

    #[test]
    fn casts_roundtrip_integers(v in proptest::collection::vec(-1000i64..1000, 6)) {
        let t = Tensor::from_i64(&v, &[6]).unwrap();
        prop_assert_eq!(t.to_f64().to_i64(), t);
    }

    // --- Copy-on-write and the in-place / into-buffer kernels ---

    #[test]
    fn cow_mutation_never_leaks_into_the_sibling(
        a in vec_f64(12),
        idx in 0usize..12,
        v in -50.0f64..50.0,
    ) {
        let base = Tensor::from_f64(&a, &[3, 4]).unwrap();
        // set()
        let mut m = base.clone();
        prop_assert!(shares(&m, &base));
        m.set(&[idx / 4, idx % 4], v).unwrap();
        prop_assert!(!shares(&m, &base));
        prop_assert_eq!(base.as_f64().unwrap(), &a[..]);
        // map_into() a clone of the operand
        let mut m = base.clone();
        base.map_into(scalar_ops::exp_f64, &mut m).unwrap();
        prop_assert_eq!(base.as_f64().unwrap(), &a[..]);
        prop_assert_eq!(&m, &base.exp().unwrap());
        // masked_assign_rows()
        let mut m = base.clone();
        let src = Tensor::full(&[3, 4], v);
        m.masked_assign_rows(&[true, false, true], &src).unwrap();
        prop_assert_eq!(base.as_f64().unwrap(), &a[..]);
        // set() on a clone of a clone
        let mid = base.clone();
        let mut leaf = mid.clone();
        leaf.set(&[0, 0], v).unwrap();
        prop_assert_eq!(&mid, &base);
        prop_assert_eq!(base.as_f64().unwrap(), &a[..]);
    }

    #[test]
    fn unary_into_is_bit_identical_to_allocating(a in vec_f64(10)) {
        // Into a dirty reused tensor of another dtype and shape.
        let mut out = arange(3);
        for f in [
            scalar_ops::exp_f64,
            scalar_ops::sigmoid_f64,
            scalar_ops::softplus_f64,
            scalar_ops::abs_f64,
        ] {
            let t = Tensor::from_f64(&a, &[5, 2]).unwrap();
            let allocating = t.map_f64(f).unwrap();
            t.map_into(f, &mut out).unwrap();
            prop_assert_eq!(&out, &allocating);
        }
    }

    #[test]
    fn binary_into_matches_allocating_across_broadcasts(
        m in vec_f64(12),
        v in vec_f64(4),
        c in -50.0f64..50.0,
    ) {
        let tm = Tensor::from_f64(&m, &[3, 4]).unwrap();
        // Same shape, row-vector broadcast, and scalar broadcast, with
        // a dirty reused scratch tensor of the wrong prior shape.
        let mut out = Tensor::zeros(DType::F64, &[7]);
        for rhs in [
            Tensor::from_f64(&m, &[3, 4]).unwrap(),
            Tensor::from_f64(&v, &[4]).unwrap(),
            Tensor::scalar(c),
        ] {
            for (f, name) in [
                (scalar_ops::add_f64 as fn(f64, f64) -> f64, "add"),
                (scalar_ops::mul_f64 as fn(f64, f64) -> f64, "mul"),
                (scalar_ops::div_f64 as fn(f64, f64) -> f64, "div"),
            ] {
                let allocating = match name {
                    "add" => tm.add(&rhs).unwrap(),
                    "mul" => tm.mul(&rhs).unwrap(),
                    _ => tm.div(&rhs).unwrap(),
                };
                tm.zip_into(&rhs, f, &mut out).unwrap();
                prop_assert_eq!(&out, &allocating, "op {}", name);
            }
        }
    }

    #[test]
    fn binary_into_tolerates_aliased_scratch(
        a in vec_f64(8),
        b in vec_f64(8),
    ) {
        let ta = Tensor::from_f64(&a, &[8]).unwrap();
        let tb = Tensor::from_f64(&b, &[8]).unwrap();
        // The scratch buffer aliases the left operand's storage: the
        // copy-on-write contract must keep `ta` intact.
        let mut out = ta.clone();
        ta.zip_into(&tb, scalar_ops::add_f64, &mut out).unwrap();
        prop_assert_eq!(&out, &ta.add(&tb).unwrap());
        prop_assert_eq!(ta.as_f64().unwrap(), &a[..]);
    }
}

// --- Broadcasting kernels against a reference that indexes coordinates ---

/// An output shape from raw draws: each axis mostly 2 or 3, a quarter of
/// the time 1 and now and then 0.
fn out_shape(raw: &[usize]) -> Vec<usize> {
    raw.iter()
        .map(|&v| [0, 1, 1, 1, 2, 3, 2, 3, 2, 3, 2, 3][v % 12])
        .collect()
}

/// An operand shape that broadcasts to `out`: its trailing axes (all of
/// them unless `drop` is 1 or 2), each `out`'s dimension where `keep` says
/// so and 1 elsewhere. Over an output of rank up to 4 this draws every way
/// an operand lines up with it: the output itself, a trailing block (`[N]`
/// over `[Z, N]`, a scalar), each element repeated (`[Z, 1]` over
/// `[Z, N]`), alternations (`[3, 1, 4]` against `[2, 1]`) and rank 0.
fn operand_shape(out: &[usize], drop: usize, keep: &[bool]) -> Vec<usize> {
    let drop = if drop <= 2 { drop.min(out.len()) } else { 0 };
    out[drop..]
        .iter()
        .zip(keep)
        .map(|(&d, &k)| if k { d } else { 1 })
        .collect()
}

/// A `dtype` operand of `shape` from raw draws. Floats are mostly small
/// halves, so ties and both signed zeros occur, and sometimes infinities,
/// a subnormal, a huge value and a NaN whose sign and payload must come
/// through; integers include 0, -1 and the extremes (division by zero,
/// wrapping). There is one NaN bit pattern: when two different NaNs meet
/// in one operation, Rust leaves unspecified which payload the result
/// carries, and a vectorized loop may commute the operands.
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
    let raw = &raw[..volume(shape)];
    let data = match dtype {
        DType::F64 => Data::F64(
            raw.iter()
                .map(|&x| {
                    if x % 4 == 0 {
                        F[(x / 4 % 8) as usize]
                    } else {
                        ((x % 9) as f64 - 4.0) / 2.0
                    }
                })
                .collect(),
        ),
        DType::I64 => Data::I64(
            raw.iter()
                .map(|&x| {
                    if x % 4 == 0 {
                        I[(x / 4 % 4) as usize]
                    } else {
                        (x % 9) as i64 - 4
                    }
                })
                .collect(),
        ),
        DType::Bool => Data::Bool(raw.iter().map(|&x| x % 2 == 1).collect()),
    };
    Tensor::new(data, shape).unwrap()
}

/// A tensor's shape, dtype and elements as bits: equal exactly when each
/// element is the same bit pattern, NaN payloads and signed zeros included.
fn bits(t: &Tensor) -> (Vec<usize>, DType, Vec<u64>) {
    let v = match t.data() {
        Data::F64(v) => v.iter().map(|x| x.to_bits()).collect(),
        Data::I64(v) => v.iter().map(|&x| x as u64).collect(),
        Data::Bool(v) => v.iter().map(|&x| u64::from(x)).collect(),
    };
    (t.shape().to_vec(), t.dtype(), v)
}

/// The coordinates of the element of an operand of `shape` that output
/// coordinates `ix` read: its own trailing axes, 0 on a broadcast one.
fn pad(shape: &[usize], ix: &[usize]) -> Vec<usize> {
    let ix = &ix[ix.len() - shape.len()..];
    shape
        .iter()
        .zip(ix)
        .map(|(&d, &i)| if d == 1 { 0 } else { i })
        .collect()
}

/// The row-major linear index of that element.
fn source(shape: &[usize], ix: &[usize]) -> usize {
    let index = pad(shape, ix);
    shape.iter().zip(index).fold(0, |lin, (&d, i)| lin * d + i)
}

/// Every coordinate of `shape`, row-major.
fn coordinates(shape: &[usize]) -> impl Iterator<Item = Vec<usize>> + '_ {
    (0..volume(shape)).map(move |mut lin| {
        let mut index = vec![0; shape.len()];
        for (i, &d) in index.iter_mut().zip(shape).rev() {
            *i = lin % d;
            lin /= d;
        }
        index
    })
}

/// The reference: at each output coordinate, `f` of the elements each
/// operand holds there.
fn reference<T: Copy, U>(
    a: (&[T], &[usize]),
    b: (&[T], &[usize]),
    f: impl Fn(T, T) -> U,
    wrap: fn(Vec<U>) -> Data,
) -> Tensor {
    let out = broadcast_shapes(a.1, b.1, "reference").unwrap();
    let v = coordinates(&out).map(|ix| f(a.0[source(a.1, &ix)], b.0[source(b.1, &ix)]));
    Tensor::new(wrap(v.collect()), &out).unwrap()
}

/// A kernel, named, and the scalar function its reference applies.
type Case<T, U> = (
    &'static str,
    fn(&Tensor, &Tensor) -> Result<Tensor>,
    fn(T, T) -> U,
);

fn comparisons<T: PartialOrd>() -> [Case<T, bool>; 6] {
    [
        ("lt", Tensor::lt, |x, y| x < y),
        ("le", Tensor::le, |x, y| x <= y),
        ("gt", Tensor::gt, |x, y| x > y),
        ("ge", Tensor::ge, |x, y| x >= y),
        ("eq_elem", Tensor::eq_elem, |x, y| x == y),
        ("ne_elem", Tensor::ne_elem, |x, y| x != y),
    ]
}

/// Each kernel of `cases` on `lhs` × `rhs`, whose payloads are `a` and
/// `b`, against the reference.
fn check_cases<T: Copy, U>(
    cases: &[Case<T, U>],
    (lhs, a): (&Tensor, &[T]),
    (rhs, b): (&Tensor, &[T]),
    wrap: fn(Vec<U>) -> Data,
) {
    for &(name, kernel, f) in cases {
        let want = reference((a, lhs.shape()), (b, rhs.shape()), f, wrap);
        let at = format!("{} {:?} x {:?}", lhs.dtype(), lhs.shape(), rhs.shape());
        assert_eq!(
            bits(&kernel(lhs, rhs).unwrap()),
            bits(&want),
            "{name} on {at}"
        );
    }
}

/// Every binary kernel against the reference on `lhs` × `rhs`, of one
/// dtype, and `zip_into` into a reused scratch tensor.
fn check_binary(lhs: &Tensor, rhs: &Tensor, scratch: &mut Tensor) {
    match (lhs.data(), rhs.data()) {
        (Data::F64(a), Data::F64(b)) => {
            let arith: [Case<f64, f64>; 7] = [
                ("add", Tensor::add, scalar_ops::add_f64),
                ("sub", Tensor::sub, scalar_ops::sub_f64),
                ("mul", Tensor::mul, scalar_ops::mul_f64),
                ("div", Tensor::div, scalar_ops::div_f64),
                ("max2", Tensor::max2, scalar_ops::max2_f64),
                ("min2", Tensor::min2, scalar_ops::min2_f64),
                ("pow", Tensor::pow, scalar_ops::pow_f64),
            ];
            check_cases(&arith, (lhs, a), (rhs, b), Data::F64);
            check_cases(&comparisons(), (lhs, a), (rhs, b), Data::Bool);
            for (name, _, f) in arith {
                lhs.zip_into(rhs, f, scratch).unwrap();
                let want = reference((a, lhs.shape()), (b, rhs.shape()), f, Data::F64);
                let at = format!("{:?} x {:?}", lhs.shape(), rhs.shape());
                assert_eq!(bits(scratch), bits(&want), "zip_into {name} on {at}");
            }
        }
        (Data::I64(a), Data::I64(b)) => {
            let arith: [Case<i64, i64>; 7] = [
                ("add", Tensor::add, scalar_ops::add_i64),
                ("sub", Tensor::sub, scalar_ops::sub_i64),
                ("mul", Tensor::mul, scalar_ops::mul_i64),
                ("div", Tensor::div, scalar_ops::div_i64),
                ("max2", Tensor::max2, scalar_ops::max2_i64),
                ("min2", Tensor::min2, scalar_ops::min2_i64),
                ("pow", Tensor::pow, scalar_ops::pow_i64),
            ];
            check_cases(&arith, (lhs, a), (rhs, b), Data::I64);
            check_cases(&comparisons(), (lhs, a), (rhs, b), Data::Bool);
        }
        (Data::Bool(a), Data::Bool(b)) => {
            let logic: [Case<bool, bool>; 3] = [
                ("and", Tensor::and, |x, y| x && y),
                ("or", Tensor::or, |x, y| x || y),
                ("xor", Tensor::xor, |x, y| x ^ y),
            ];
            check_cases(&logic, (lhs, a), (rhs, b), Data::Bool);
        }
        _ => unreachable!("both operands are drawn as one dtype"),
    }
}

/// `cond.select(a, b)` against the reference on three broadcast shapes.
fn check_select(cond: &Tensor, a: &Tensor, b: &Tensor) {
    let (c, cs, as_, bs) = (cond.as_bool().unwrap(), cond.shape(), a.shape(), b.shape());
    let out = broadcast_shapes(
        cs,
        &broadcast_shapes(as_, bs, "reference").unwrap(),
        "reference",
    )
    .unwrap();
    let pick = |ix: &[usize]| {
        if c[source(cs, ix)] {
            a.get(&pad(as_, ix))
        } else {
            b.get(&pad(bs, ix))
        }
    };
    let want = build(a.dtype(), &out, |ix| pick(ix).ok());
    let at = format!("{} {cs:?} ? {as_:?} : {bs:?}", a.dtype());
    assert_eq!(
        bits(&cond.select(a, b).unwrap()),
        bits(&want),
        "select on {at}"
    );
}

/// `a.dot_last_axis(b)`: where the broadcast has rows, each is the
/// `Iterator::sum` of the products at its coordinates; elsewhere (rank 0,
/// no elements) it is whatever `mul` then `sum_last_axis` gives.
fn check_dot(a: &Tensor, b: &Tensor) {
    let got = a.dot_last_axis(b);
    let at = format!("{:?} . {:?}", a.shape(), b.shape());
    let out = broadcast_shapes(a.shape(), b.shape(), "reference").unwrap();
    if out.is_empty() || volume(&out) == 0 {
        let two_pass = a.mul(b).and_then(|p| p.sum_last_axis());
        assert_eq!(
            got.map(|t| bits(&t)),
            two_pass.map(|t| bits(&t)),
            "dot on {at}"
        );
        return;
    }
    let (x, y) = (a.as_f64().unwrap(), b.as_f64().unwrap());
    let (rows, k) = (&out[..out.len() - 1], out[out.len() - 1]);
    let want: Vec<f64> = coordinates(rows)
        .map(|row| {
            (0..k)
                .map(|j| {
                    let ix: Vec<usize> = row.iter().copied().chain([j]).collect();
                    x[source(a.shape(), &ix)] * y[source(b.shape(), &ix)]
                })
                .sum()
        })
        .collect();
    let want = Tensor::from_f64(&want, rows).unwrap();
    assert_eq!(bits(&got.unwrap()), bits(&want), "dot on {at}");
}

/// Draw three operand shapes over an output drawn from `dims` and hold
/// every broadcasting kernel to the reference.
fn check_broadcasts(dims: &[usize], drops: &[usize], keep: &[bool], raw: &[u64]) {
    let out = out_shape(dims);
    let shapes: Vec<Vec<usize>> = (0..3)
        .map(|k| operand_shape(&out, drops[k], &keep[4 * k..]))
        .collect();
    let [s0, s1, s2] = [&shapes[0], &shapes[1], &shapes[2]];
    let mut scratch = arange(5);
    for dtype in DTYPES {
        let (lhs, rhs) = (operand(dtype, raw, s0), operand(dtype, &raw[81..], s1));
        check_binary(&lhs, &rhs, &mut scratch);
        check_select(&operand(DType::Bool, &raw[162..], s2), &lhs, &rhs);
        check_select(
            &operand(DType::Bool, &raw[162..], s0),
            &operand(dtype, &raw[81..], s2),
            &rhs,
        );
    }
    let (a, b) = (
        operand(DType::F64, raw, s0),
        operand(DType::F64, &raw[81..], s1),
    );
    check_dot(&a, &b);
    check_dot(&a, &a);
}

#[test]
fn broadcasting_kernels_match_the_reference_on_named_shapes() {
    // Whole, tile, scalar, repeat, general, rank 0 and zero-length cases
    // written out, so each is checked whatever the draws below hit.
    let cases: [(&[usize], &[usize]); 11] = [
        (&[2, 3], &[2, 3]),
        (&[2, 3], &[3]),
        (&[3], &[2, 3]),
        (&[2, 3], &[]),
        (&[], &[]),
        (&[2, 1], &[2, 3]),
        (&[2, 3], &[2, 2, 1]),
        (&[3, 1, 4], &[2, 1]),
        (&[2, 1, 3], &[1, 2, 1]),
        (&[2, 0], &[2, 1]),
        (&[0], &[1]),
    ];
    let raw: Vec<u64> = (0..243u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 7)
        .collect();
    let mut scratch = arange(5);
    for (l, r) in cases {
        for dtype in DTYPES {
            let (lhs, rhs) = (operand(dtype, &raw, l), operand(dtype, &raw[81..], r));
            check_binary(&lhs, &rhs, &mut scratch);
            check_binary(&rhs, &lhs, &mut scratch);
            check_select(&operand(DType::Bool, &raw[162..], r), &lhs, &rhs);
        }
        check_dot(
            &operand(DType::F64, &raw, l),
            &operand(DType::F64, &raw[81..], r),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn broadcasting_kernels_match_the_reference_bit_for_bit(
        dims in proptest::collection::vec(0usize..12, 0..=4),
        drops in proptest::collection::vec(0usize..6, 3..=3),
        keep in proptest::collection::vec(any::<bool>(), 12..=12),
        raw in proptest::collection::vec(any::<u64>(), 243..=243),
    ) {
        check_broadcasts(&dims, &drops, &keep, &raw);
    }
}
