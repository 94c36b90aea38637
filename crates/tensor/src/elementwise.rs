//! Elementwise kernels: unary maps, broadcasting binary ops, comparisons,
//! logical ops, `select`, and dtype casts.
//!
//! These are the "primitive kernels" of the simulated accelerator: every
//! one of them processes whole arrays at a time, which is exactly the
//! SIMD contract the autobatching transformation relies on. Every
//! broadcasting kernel plans its operands once (`shape::Broadcast`) and
//! runs one loop per run of the output.

use std::sync::Arc;

use crate::dtype::{fresh_like, DType, Data, Element};
use crate::error::{Result, TensorError};
use crate::shape::{broadcast_shapes, Broadcast, Run};
use crate::tensor::Tensor;

// ---------------------------------------------------------------------------
// Unary ops
// ---------------------------------------------------------------------------

macro_rules! unary_f64 {
    ($(#[$doc:meta])* $name:ident, $f:expr) => {
        $(#[$doc])*
        ///
        /// # Errors
        ///
        /// Returns [`TensorError::DTypeMismatch`] unless the dtype is `f64`.
        pub fn $name(&self) -> Result<Tensor> {
            self.map_f64($f)
        }
    };
}

impl Tensor {
    unary_f64!(
        /// Elementwise negation.
        neg, crate::scalar_ops::neg_f64
    );
    unary_f64!(
        /// Elementwise absolute value.
        abs, crate::scalar_ops::abs_f64
    );
    unary_f64!(
        /// Elementwise exponential.
        exp, crate::scalar_ops::exp_f64
    );
    unary_f64!(
        /// Elementwise natural logarithm.
        ln, crate::scalar_ops::ln_f64
    );
    unary_f64!(
        /// Elementwise square root.
        sqrt, crate::scalar_ops::sqrt_f64
    );
    unary_f64!(
        /// Elementwise sine.
        sin, crate::scalar_ops::sin_f64
    );
    unary_f64!(
        /// Elementwise cosine.
        cos, crate::scalar_ops::cos_f64
    );
    unary_f64!(
        /// Elementwise hyperbolic tangent.
        tanh, crate::scalar_ops::tanh_f64
    );
    unary_f64!(
        /// Elementwise logistic sigmoid `1 / (1 + exp(-x))`.
        sigmoid, crate::scalar_ops::sigmoid_f64
    );
    unary_f64!(
        /// Elementwise `log(1 + exp(x))`, computed stably.
        softplus, crate::scalar_ops::softplus_f64
    );
    unary_f64!(
        /// Elementwise floor.
        floor, crate::scalar_ops::floor_f64
    );
    unary_f64!(
        /// Elementwise square.
        square, crate::scalar_ops::square_f64
    );

    /// Elementwise integer negation.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DTypeMismatch`] unless the dtype is `i64`.
    pub fn neg_i64(&self) -> Result<Tensor> {
        let v = self.as_i64()?;
        self.like(Data::I64(
            v.iter().map(|&x| crate::scalar_ops::neg_i64(x)).collect(),
        ))
    }

    /// Elementwise logical NOT.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DTypeMismatch`] unless the dtype is `bool`.
    pub fn not(&self) -> Result<Tensor> {
        let v = self.as_bool()?;
        self.like(Data::Bool(v.iter().map(|&x| !x).collect()))
    }
}

// ---------------------------------------------------------------------------
// Binary ops with broadcasting
// ---------------------------------------------------------------------------

/// The one elementwise loop: append `f(lhs[i'], rhs[j'])` to `out` for
/// each output element in order, `i'` and `j'` the operands' broadcast
/// elements. Over each run the loop reads slices and splatted values, so
/// with `f` a fn item it inlines and vectorizes.
fn zip<A: Copy, B: Copy, U>(
    lhs: &[A],
    rhs: &[B],
    plan: &Broadcast<'_, 2>,
    out: &mut Vec<U>,
    f: impl Fn(A, B) -> U,
) {
    plan.for_each_run(|runs, len| match runs {
        [Run::Seg(i), Run::Seg(j)] => {
            out.extend(
                lhs[i..i + len]
                    .iter()
                    .zip(&rhs[j..j + len])
                    .map(|(&a, &b)| f(a, b)),
            );
        }
        [Run::Seg(i), Run::Splat(j)] => {
            let b = rhs[j];
            out.extend(lhs[i..i + len].iter().map(|&a| f(a, b)));
        }
        [Run::Splat(i), Run::Seg(j)] => {
            let a = lhs[i];
            out.extend(rhs[j..j + len].iter().map(|&b| f(a, b)));
        }
        [Run::Splat(i), Run::Splat(j)] => {
            let (a, b) = (lhs[i], rhs[j]);
            out.extend((0..len).map(|_| f(a, b)));
        }
    });
}

/// [`zip`] into a fresh buffer of exactly the output's length.
fn zipped<A: Copy, B: Copy, U>(
    lhs: &[A],
    rhs: &[B],
    plan: &Broadcast<'_, 2>,
    f: impl Fn(A, B) -> U,
) -> Vec<U> {
    let mut out = Vec::with_capacity(plan.len());
    zip(lhs, rhs, plan, &mut out, f);
    out
}

/// The broadcast of a binary op's operands.
fn plan<'a>(lhs: &'a Tensor, rhs: &'a Tensor, op: &'static str) -> Result<Broadcast<'a, 2>> {
    Broadcast::new([lhs.shape(), rhs.shape()]).ok_or_else(|| TensorError::ShapeMismatch {
        lhs: lhs.shape().to_vec(),
        rhs: rhs.shape().to_vec(),
        op,
    })
}

/// The error of kernel `op` given `t`, which does not hold `T`s.
fn dtype_err<T: Element>(t: &Tensor, op: &'static str) -> TensorError {
    let expected = match T::DTYPE {
        DType::F64 => "f64",
        DType::I64 => "i64",
        DType::Bool => "bool",
    };
    TensorError::DTypeMismatch {
        got: t.dtype(),
        expected,
        op,
    }
}

/// The output's shape allocation: the first operand's that has that
/// shape, else one built from the plan.
fn out_shape<const K: usize>(plan: &Broadcast<'_, K>, operands: [&Tensor; K]) -> Arc<[usize]> {
    match operands.iter().find(|t| plan.is_out_shape(t.shape())) {
        Some(t) => Arc::clone(t.shape_handle()),
        None => plan.out_shape().collect(),
    }
}

macro_rules! binary_arith {
    ($(#[$doc:meta])* $name:ident, $ff:expr, $fi:expr) => {
        $(#[$doc])*
        ///
        /// Operands broadcast NumPy-style and must share a numeric dtype.
        ///
        /// # Errors
        ///
        /// Returns an error on dtype disagreement or non-broadcastable shapes.
        pub fn $name(&self, rhs: &Tensor) -> Result<Tensor> {
            let p = plan(self, rhs, stringify!($name))?;
            let out = match (self.data(), rhs.data()) {
                (Data::F64(a), Data::F64(b)) => Data::F64(zipped(a, b, &p, $ff)),
                (Data::I64(a), Data::I64(b)) => Data::I64(zipped(a, b, &p, $fi)),
                _ => {
                    return Err(TensorError::DTypeMismatch {
                        got: rhs.dtype(),
                        expected: "both operands f64 or both i64",
                        op: stringify!($name),
                    })
                }
            };
            Ok(Tensor::from_parts(out_shape(&p, [self, rhs]), out))
        }
    };
}

macro_rules! binary_cmp {
    ($(#[$doc:meta])* $name:ident, $ff:expr, $fi:expr) => {
        $(#[$doc])*
        ///
        /// Operands broadcast NumPy-style; the result dtype is `bool`.
        ///
        /// # Errors
        ///
        /// Returns an error on dtype disagreement or non-broadcastable shapes.
        pub fn $name(&self, rhs: &Tensor) -> Result<Tensor> {
            let p = plan(self, rhs, stringify!($name))?;
            let out = match (self.data(), rhs.data()) {
                (Data::F64(a), Data::F64(b)) => zipped(a, b, &p, $ff),
                (Data::I64(a), Data::I64(b)) => zipped(a, b, &p, $fi),
                _ => {
                    return Err(TensorError::DTypeMismatch {
                        got: rhs.dtype(),
                        expected: "both operands f64 or both i64",
                        op: stringify!($name),
                    })
                }
            };
            Ok(Tensor::from_parts(out_shape(&p, [self, rhs]), Data::Bool(out)))
        }
    };
}

macro_rules! binary_logic {
    ($(#[$doc:meta])* $name:ident, $f:expr) => {
        $(#[$doc])*
        ///
        /// Operands broadcast NumPy-style and must both be `bool`.
        ///
        /// # Errors
        ///
        /// Returns an error on dtype disagreement or non-broadcastable shapes.
        pub fn $name(&self, rhs: &Tensor) -> Result<Tensor> {
            let p = plan(self, rhs, stringify!($name))?;
            match (self.data(), rhs.data()) {
                (Data::Bool(a), Data::Bool(b)) => {
                    let out = Data::Bool(zipped(a, b, &p, $f));
                    Ok(Tensor::from_parts(out_shape(&p, [self, rhs]), out))
                }
                _ => Err(TensorError::DTypeMismatch {
                    got: rhs.dtype(),
                    expected: "both operands bool",
                    op: stringify!($name),
                }),
            }
        }
    };
}

impl Tensor {
    binary_arith!(
        /// Elementwise addition.
        add, crate::scalar_ops::add_f64, crate::scalar_ops::add_i64
    );
    binary_arith!(
        /// Elementwise subtraction.
        sub, crate::scalar_ops::sub_f64, crate::scalar_ops::sub_i64
    );
    binary_arith!(
        /// Elementwise multiplication.
        mul, crate::scalar_ops::mul_f64, crate::scalar_ops::mul_i64
    );
    binary_arith!(
        /// Elementwise division (integer division truncates toward zero;
        /// integer division by zero yields `0`, mirroring a masked-lane
        /// accelerator that must not fault on inactive data).
        div, crate::scalar_ops::div_f64, crate::scalar_ops::div_i64
    );
    binary_arith!(
        /// Elementwise maximum.
        max2, crate::scalar_ops::max2_f64, crate::scalar_ops::max2_i64
    );
    binary_arith!(
        /// Elementwise minimum.
        min2, crate::scalar_ops::min2_f64, crate::scalar_ops::min2_i64
    );
    binary_arith!(
        /// Elementwise power (`i64` uses saturating exponent semantics).
        pow, crate::scalar_ops::pow_f64, crate::scalar_ops::pow_i64
    );

    binary_cmp!(
        /// Elementwise `<`.
        lt, |a, b| a < b, |a, b| a < b
    );
    binary_cmp!(
        /// Elementwise `<=`.
        le, |a, b| a <= b, |a, b| a <= b
    );
    binary_cmp!(
        /// Elementwise `>`.
        gt, |a, b| a > b, |a, b| a > b
    );
    binary_cmp!(
        /// Elementwise `>=`.
        ge, |a, b| a >= b, |a, b| a >= b
    );
    binary_cmp!(
        /// Elementwise `==`.
        eq_elem, |a, b| a == b, |a, b| a == b
    );
    binary_cmp!(
        /// Elementwise `!=`.
        ne_elem, |a, b| a != b, |a, b| a != b
    );

    binary_logic!(
        /// Elementwise logical AND.
        and, |a, b| a && b
    );
    binary_logic!(
        /// Elementwise logical OR.
        or, |a, b| a || b
    );
    binary_logic!(
        /// Elementwise logical XOR.
        xor, |a, b| a ^ b
    );

    /// Elementwise select: `cond ? a : b`, with broadcasting.
    ///
    /// `self` must be `bool`; `a` and `b` must share a dtype.
    ///
    /// # Errors
    ///
    /// Returns an error on dtype or broadcast failure.
    pub fn select(&self, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        fn go<T: Copy>(c: &[bool], a: &[T], b: &[T], plan: &Broadcast<'_, 3>) -> Vec<T> {
            let mut out = Vec::with_capacity(plan.len());
            plan.for_each_run(|[rc, ra, rb], len| {
                out.extend((0..len).map(|j| {
                    if c[rc.at(j)] {
                        a[ra.at(j)]
                    } else {
                        b[rb.at(j)]
                    }
                }));
            });
            out
        }
        let cond = self.as_bool()?;
        let Some(p) = Broadcast::new([self.shape(), a.shape(), b.shape()]) else {
            // The error the branches' broadcast, then the condition's, reports.
            let ab = broadcast_shapes(a.shape(), b.shape(), "select")?;
            return Err(broadcast_shapes(self.shape(), &ab, "select")
                .expect_err("the three shapes do not broadcast"));
        };
        let out = fresh_like!(a.data(), b.data() => |av, bv| go(cond, av, bv, &p), else {
            TensorError::DTypeMismatch {
                got: b.dtype(),
                expected: "branches of select share a dtype",
                op: "select",
            }
        });
        Ok(Tensor::from_parts(out_shape(&p, [self, a, b]), out))
    }

    // -----------------------------------------------------------------------
    // In-place and into-buffer kernels (the hot-loop variants)
    // -----------------------------------------------------------------------

    /// Apply a scalar function to every element, allocating the result.
    ///
    /// The allocating unary kernels ([`Tensor::exp`], [`Tensor::neg`], …)
    /// are thin wrappers over this with the matching
    /// [`scalar_ops`](crate::scalar_ops) function.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DTypeMismatch`] unless the dtype is `f64`.
    pub fn map_f64<F: Fn(f64) -> f64>(&self, f: F) -> Result<Tensor> {
        let v = self.as_f64()?;
        self.like(Data::F64(v.iter().map(|&x| f(x)).collect()))
    }

    /// [`Tensor::map_f64`] for any element type, **into `out`**:
    /// `out = f(self)` elementwise, shaped like `self`, reusing `out`'s
    /// payload when nothing shares it and it holds `T`s (whatever its
    /// previous shape; see [`Tensor::refill_with`]). Given the same
    /// [`scalar_ops`](crate::scalar_ops) function it is bit-identical to
    /// the allocating kernel.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DTypeMismatch`] unless `self` holds `T`s;
    /// `out` is untouched then.
    pub fn map_into<T: Element>(&self, f: impl Fn(T) -> T, out: &mut Tensor) -> Result<()> {
        let v = T::values(self.data()).ok_or_else(|| dtype_err::<T>(self, "map_into"))?;
        out.adopt_shape(self.shape_handle());
        out.refill_payload().extend(v.iter().map(|&x| f(x)));
        Ok(())
    }

    /// The broadcasting binary kernels for any operand and result
    /// element types, **into `out`**: `out = f(self, rhs)` elementwise
    /// under NumPy broadcasting, reusing `out`'s payload when nothing
    /// shares it and it holds `U`s (whatever its previous shape). It runs
    /// the allocating kernels' loop, so given the same function it is
    /// bit-identical to them ([`Tensor::add`] with
    /// [`scalar_ops::add_f64`](crate::scalar_ops::add_f64),
    /// [`Tensor::lt`] with `|a, b| a < b`, …). Operands of one shape
    /// broadcast as a single run, so they skip the planner and run that
    /// run's loop over the two slices.
    ///
    /// # Errors
    ///
    /// Returns an error unless both operands hold `A`s and broadcast;
    /// `out` is untouched then.
    pub fn zip_into<A: Element, U: Element>(
        &self,
        rhs: &Tensor,
        f: impl Fn(A, A) -> U,
        out: &mut Tensor,
    ) -> Result<()> {
        if self.shape() == rhs.shape() {
            let a = A::values(self.data()).ok_or_else(|| dtype_err::<A>(self, "zip_into"))?;
            let b = A::values(rhs.data()).ok_or_else(|| dtype_err::<A>(rhs, "zip_into"))?;
            out.adopt_shape(self.shape_handle());
            let values = out.refill_payload();
            values.extend(a.iter().zip(b).map(|(&x, &y)| f(x, y)));
            return Ok(());
        }
        let p = plan(self, rhs, "zip_into")?;
        let a = A::values(self.data()).ok_or_else(|| dtype_err::<A>(self, "zip_into"))?;
        let b = A::values(rhs.data()).ok_or_else(|| dtype_err::<A>(rhs, "zip_into"))?;
        if !p.is_out_shape(out.shape()) {
            out.adopt_shape(&out_shape(&p, [self, rhs]));
        }
        let values = out.refill_payload();
        values.reserve(p.len());
        zip(a, b, &p, values, f);
        Ok(())
    }

    // -----------------------------------------------------------------------
    // Casts
    // -----------------------------------------------------------------------

    /// Cast to `f64` (bools become 0.0/1.0).
    pub fn to_f64(&self) -> Tensor {
        let v: Vec<f64> = match self.data() {
            Data::F64(v) => v.clone(),
            Data::I64(v) => v.iter().map(|&x| x as f64).collect(),
            Data::Bool(v) => v.iter().map(|&x| if x { 1.0 } else { 0.0 }).collect(),
        };
        self.like(Data::F64(v)).expect("cast preserves volume")
    }

    /// Cast to `i64` (floats truncate toward zero; bools become 0/1).
    pub fn to_i64(&self) -> Tensor {
        let v: Vec<i64> = match self.data() {
            Data::F64(v) => v.iter().map(|&x| x as i64).collect(),
            Data::I64(v) => v.clone(),
            Data::Bool(v) => v.iter().map(|&x| i64::from(x)).collect(),
        };
        self.like(Data::I64(v)).expect("cast preserves volume")
    }

    /// Cast to `bool` (nonzero becomes `true`).
    pub fn to_bool(&self) -> Tensor {
        let v: Vec<bool> = match self.data() {
            Data::F64(v) => v.iter().map(|&x| x != 0.0).collect(),
            Data::I64(v) => v.iter().map(|&x| x != 0).collect(),
            Data::Bool(v) => v.clone(),
        };
        self.like(Data::Bool(v)).expect("cast preserves volume")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: &[f64]) -> Tensor {
        Tensor::from_f64(v, &[v.len()]).unwrap()
    }

    #[test]
    fn add_same_shape() {
        let a = t(&[1.0, 2.0]);
        let b = t(&[10.0, 20.0]);
        assert_eq!(a.add(&b).unwrap().as_f64().unwrap(), &[11.0, 22.0]);
    }

    #[test]
    fn add_broadcast_scalar() {
        let a = t(&[1.0, 2.0, 3.0]);
        let s = Tensor::scalar(10.0);
        assert_eq!(a.add(&s).unwrap().as_f64().unwrap(), &[11.0, 12.0, 13.0]);
        assert_eq!(s.add(&a).unwrap().as_f64().unwrap(), &[11.0, 12.0, 13.0]);
    }

    #[test]
    fn broadcast_matrix_vector() {
        let m = Tensor::from_f64(&[1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let v = Tensor::from_f64(&[10.0, 20.0], &[2]).unwrap();
        assert_eq!(
            m.add(&v).unwrap().as_f64().unwrap(),
            &[11.0, 22.0, 13.0, 24.0]
        );
    }

    #[test]
    fn int_arith_and_div_by_zero() {
        let a = Tensor::from_i64(&[7, 8], &[2]).unwrap();
        let b = Tensor::from_i64(&[2, 0], &[2]).unwrap();
        assert_eq!(a.div(&b).unwrap().as_i64().unwrap(), &[3, 0]);
        assert_eq!(a.mul(&b).unwrap().as_i64().unwrap(), &[14, 0]);
    }

    #[test]
    fn mixed_dtype_rejected() {
        let a = t(&[1.0]);
        let b = Tensor::from_i64(&[1], &[1]).unwrap();
        assert!(a.add(&b).is_err());
    }

    #[test]
    fn comparisons_produce_bool() {
        let a = t(&[1.0, 5.0]);
        let b = t(&[3.0, 3.0]);
        assert_eq!(a.lt(&b).unwrap().as_bool().unwrap(), &[true, false]);
        assert_eq!(a.ge(&b).unwrap().as_bool().unwrap(), &[false, true]);
        assert_eq!(a.eq_elem(&b).unwrap().as_bool().unwrap(), &[false, false]);
    }

    #[test]
    fn logic_ops() {
        let a = Tensor::from_bool(&[true, true, false], &[3]).unwrap();
        let b = Tensor::from_bool(&[true, false, false], &[3]).unwrap();
        assert_eq!(a.and(&b).unwrap().as_bool().unwrap(), &[true, false, false]);
        assert_eq!(a.or(&b).unwrap().as_bool().unwrap(), &[true, true, false]);
        assert_eq!(a.xor(&b).unwrap().as_bool().unwrap(), &[false, true, false]);
        assert_eq!(a.not().unwrap().as_bool().unwrap(), &[false, false, true]);
    }

    #[test]
    fn select_broadcasts_condition() {
        let cond = Tensor::from_bool(&[true, false], &[2]).unwrap();
        let a = t(&[1.0, 2.0]);
        let b = t(&[-1.0, -2.0]);
        assert_eq!(cond.select(&a, &b).unwrap().as_f64().unwrap(), &[1.0, -2.0]);
    }

    #[test]
    fn select_cond_per_row() {
        // Condition of shape [2, 1] against values of shape [2, 3].
        let cond = Tensor::from_bool(&[true, false], &[2, 1]).unwrap();
        let a = Tensor::full(&[2, 3], 1.0);
        let b = Tensor::full(&[2, 3], 2.0);
        assert_eq!(
            cond.select(&a, &b).unwrap().as_f64().unwrap(),
            &[1.0, 1.0, 1.0, 2.0, 2.0, 2.0]
        );
    }

    #[test]
    fn unary_math() {
        let a = t(&[0.0, 1.0]);
        assert_eq!(a.exp().unwrap().as_f64().unwrap()[0], 1.0);
        assert!((a.sigmoid().unwrap().as_f64().unwrap()[0] - 0.5).abs() < 1e-12);
        assert_eq!(a.neg().unwrap().as_f64().unwrap(), &[-0.0, -1.0]);
        assert_eq!(a.square().unwrap().as_f64().unwrap(), &[0.0, 1.0]);
    }

    #[test]
    fn softplus_is_stable() {
        let a = t(&[1000.0, -1000.0, 0.0]);
        let sp = a.softplus().unwrap();
        let v = sp.as_f64().unwrap();
        assert_eq!(v[0], 1000.0);
        assert_eq!(v[1], 0.0);
        assert!((v[2] - 2f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn casts() {
        let a = t(&[1.5, 0.0]);
        assert_eq!(a.to_i64().as_i64().unwrap(), &[1, 0]);
        assert_eq!(a.to_bool().as_bool().unwrap(), &[true, false]);
        let b = Tensor::from_bool(&[true, false], &[2]).unwrap();
        assert_eq!(b.to_f64().as_f64().unwrap(), &[1.0, 0.0]);
        assert_eq!(b.to_i64().as_i64().unwrap(), &[1, 0]);
    }
}
