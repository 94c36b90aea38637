//! The scalar kernel functions behind every elementwise tensor op.
//!
//! This module is the single source of truth for elementwise semantics:
//! the allocating tensor kernels (`Tensor::exp`, `Tensor::add`, …), the
//! in-place and into-buffer variants, and the VM's fused elementwise
//! fast path all call these exact functions, so a fused chain is
//! bit-identical to per-kernel execution by construction — there is no
//! second implementation to drift.
//!
//! Integer semantics mirror a masked-lane accelerator: arithmetic wraps,
//! division by zero yields `0` (inactive lanes must not fault), and
//! `pow` routes through `f64` like the batched kernel does.

/// `-x`.
pub fn neg_f64(x: f64) -> f64 {
    -x
}
/// `|x|`.
pub fn abs_f64(x: f64) -> f64 {
    x.abs()
}
/// `e^x`.
pub fn exp_f64(x: f64) -> f64 {
    x.exp()
}
/// `ln x`.
pub fn ln_f64(x: f64) -> f64 {
    x.ln()
}
/// `√x`.
pub fn sqrt_f64(x: f64) -> f64 {
    x.sqrt()
}
/// `x²`.
pub fn square_f64(x: f64) -> f64 {
    x * x
}
/// Logistic sigmoid `1 / (1 + e^{-x})`.
pub fn sigmoid_f64(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}
/// Stable `log(1 + e^x)`.
pub fn softplus_f64(x: f64) -> f64 {
    if x > 30.0 {
        x
    } else if x < -30.0 {
        x.exp()
    } else {
        x.exp().ln_1p()
    }
}
/// `⌊x⌋`.
pub fn floor_f64(x: f64) -> f64 {
    x.floor()
}
/// `sin x`.
pub fn sin_f64(x: f64) -> f64 {
    x.sin()
}
/// `cos x`.
pub fn cos_f64(x: f64) -> f64 {
    x.cos()
}
/// `tanh x`.
pub fn tanh_f64(x: f64) -> f64 {
    x.tanh()
}
/// Identity.
pub fn id_f64(x: f64) -> f64 {
    x
}

/// `a + b`.
pub fn add_f64(a: f64, b: f64) -> f64 {
    a + b
}
/// `a - b`.
pub fn sub_f64(a: f64, b: f64) -> f64 {
    a - b
}
/// `a × b`.
pub fn mul_f64(a: f64, b: f64) -> f64 {
    a * b
}
/// `a / b`.
pub fn div_f64(a: f64, b: f64) -> f64 {
    a / b
}
/// `max(a, b)`.
pub fn max2_f64(a: f64, b: f64) -> f64 {
    a.max(b)
}
/// `min(a, b)`.
pub fn min2_f64(a: f64, b: f64) -> f64 {
    a.min(b)
}
/// `a^b`.
pub fn pow_f64(a: f64, b: f64) -> f64 {
    a.powf(b)
}

/// Wrapping integer negation (`i64::MIN` stays `i64::MIN`).
pub fn neg_i64(x: i64) -> i64 {
    x.wrapping_neg()
}
/// Identity.
pub fn id_i64(x: i64) -> i64 {
    x
}
/// Wrapping `a + b`.
pub fn add_i64(a: i64, b: i64) -> i64 {
    a.wrapping_add(b)
}
/// Wrapping `a - b`.
pub fn sub_i64(a: i64, b: i64) -> i64 {
    a.wrapping_sub(b)
}
/// Wrapping `a × b`.
pub fn mul_i64(a: i64, b: i64) -> i64 {
    a.wrapping_mul(b)
}
/// Truncating division; division by zero yields `0` (masked-lane
/// semantics: inactive data must not fault).
pub fn div_i64(a: i64, b: i64) -> i64 {
    if b == 0 {
        0
    } else {
        a.wrapping_div(b)
    }
}
/// `max(a, b)`.
pub fn max2_i64(a: i64, b: i64) -> i64 {
    a.max(b)
}
/// `min(a, b)`.
pub fn min2_i64(a: i64, b: i64) -> i64 {
    a.min(b)
}
/// Saturating power through `f64`, matching the batched kernel.
pub fn pow_i64(a: i64, b: i64) -> i64 {
    (a as f64).powf(b as f64) as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_division_by_zero_is_masked() {
        assert_eq!(div_i64(7, 0), 0);
        assert_eq!(div_i64(7, 2), 3);
        assert_eq!(div_i64(-7, 2), -3);
    }

    #[test]
    fn softplus_matches_stable_branches() {
        assert_eq!(softplus_f64(1000.0), 1000.0);
        assert_eq!(softplus_f64(-1000.0), 0.0);
        assert!((softplus_f64(0.0) - 2f64.ln()).abs() < 1e-12);
    }
}
