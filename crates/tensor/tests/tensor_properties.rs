//! Property tests of the tensor substrate's algebraic invariants — the
//! kernels both autobatching runtimes are built on.
//!
//! The row-movement kernels are each held, on all three dtypes and on
//! zero-length element shapes, to a reference written one `get` / `set`
//! at a time ([`build`]).

use autobatch_tensor::{scalar_ops, DType, Scalar, Tensor};
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
        let mut out = Tensor::arange(4);
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
    fn depth_scatter_then_gather_reads_back(
        a in vec_i64(24),
        b in vec_i64(6),
        el in 0usize..3,
        depths in proptest::collection::vec(0usize..4, 3..=3),
        mask in vec_bool(3),
    ) {
        for dtype in DTYPES {
            let mut stack = tensor_of(dtype, &a, &[4, 3, el]);
            let sibling = stack.clone();
            let src = tensor_of(dtype, &b, &[3, el]);
            // Each active member's row lands at its own depth.
            stack.scatter_at_depth(&depths, &mask, &src).unwrap();
            let want = build(dtype, &[4, 3, el], |ix| {
                if mask[ix[1]] && depths[ix[1]] == ix[0] {
                    src.get(&[ix[1], ix[2]]).ok()
                } else {
                    sibling.get(ix).ok()
                }
            });
            prop_assert_eq!(&stack, &want, "scatter_at_depth on {}", dtype);
            prop_assert_eq!(&sibling, &tensor_of(dtype, &a, &[4, 3, el]));
            // Reading at those depths recovers the written rows, and the
            // old tops of the members that sat out.
            let read = stack.gather_at_depth(&depths).unwrap();
            let want = build(dtype, &[3, el], |ix| stack.get(&[depths[ix[0]], ix[0], ix[1]]).ok());
            prop_assert_eq!(&read, &want, "gather_at_depth on {}", dtype);
            let tops = build(dtype, &[3, el], |ix| {
                (if mask[ix[0]] { src.get(ix) } else { sibling.get(&[depths[ix[0]], ix[0], ix[1]]) }).ok()
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
    fn pad_axis1_appends_zero_lanes_at_every_depth(
        a in vec_i64(12),
        el in 0usize..3,
        extra in 0usize..3,
    ) {
        for dtype in DTYPES {
            let t = tensor_of(dtype, &a, &[2, 3, el]);
            let want = build(dtype, &[2, 3 + extra, el], |ix| t.get(ix).ok());
            prop_assert_eq!(&t.pad_axis1(extra).unwrap(), &want, "{}", dtype);
            prop_assert_eq!(&t, &tensor_of(dtype, &a, &[2, 3, el]));
        }
    }

    #[test]
    fn select_axis1_picks_lanes_at_every_depth(
        a in vec_i64(12),
        el in 0usize..3,
        idx in proptest::collection::vec(0usize..3, 0..5),
    ) {
        for dtype in DTYPES {
            let t = tensor_of(dtype, &a, &[2, 3, el]);
            let want = build(dtype, &[2, idx.len(), el], |ix| t.get(&[ix[0], idx[ix[1]], ix[2]]).ok());
            prop_assert_eq!(&t.select_axis1(&idx).unwrap(), &want, "{}", dtype);
            prop_assert_eq!(&t, &tensor_of(dtype, &a, &[2, 3, el]));
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
        for b in 0..2 {
            let row = tq.row(b).unwrap();
            let single = tm.matvec(&row).unwrap();
            prop_assert_eq!(batched.row(b).unwrap(), single);
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
        prop_assert!(m.shares_storage(&base));
        m.set(&[idx / 4, idx % 4], v).unwrap();
        prop_assert!(!m.shares_storage(&base));
        prop_assert_eq!(base.as_f64().unwrap(), &a[..]);
        // map_f64_inplace()
        let mut m = base.clone();
        m.map_f64_inplace(scalar_ops::exp_f64).unwrap();
        prop_assert_eq!(base.as_f64().unwrap(), &a[..]);
        prop_assert_eq!(&m, &base.exp().unwrap());
        // masked_assign_rows()
        let mut m = base.clone();
        let src = Tensor::full(&[3, 4], v);
        m.masked_assign_rows(&[true, false, true], &src).unwrap();
        prop_assert_eq!(base.as_f64().unwrap(), &a[..]);
        // as_*_mut on a clone of a clone
        let mid = base.clone();
        let mut leaf = mid.clone();
        leaf.as_f64_mut().unwrap()[0] = v;
        prop_assert_eq!(&mid, &base);
        prop_assert_eq!(base.as_f64().unwrap(), &a[..]);
    }

    #[test]
    fn in_place_unary_is_bit_identical_to_allocating(a in vec_f64(10)) {
        for f in [
            scalar_ops::exp_f64,
            scalar_ops::sigmoid_f64,
            scalar_ops::softplus_f64,
            scalar_ops::abs_f64,
        ] {
            let t = Tensor::from_f64(&a, &[5, 2]).unwrap();
            let allocating = t.map_f64(f).unwrap();
            let mut inplace = t.clone();
            inplace.map_f64_inplace(f).unwrap();
            prop_assert_eq!(&inplace, &allocating);
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
                tm.binary_f64_into(&rhs, f, &mut out).unwrap();
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
        ta.binary_f64_into(&tb, scalar_ops::add_f64, &mut out).unwrap();
        prop_assert_eq!(&out, &ta.add(&tb).unwrap());
        prop_assert_eq!(ta.as_f64().unwrap(), &a[..]);
    }
}
