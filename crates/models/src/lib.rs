//! # autobatch-models
//!
//! The target log-densities of the paper's evaluation (§4), with batched
//! values and hand-derived batched gradients:
//!
//! - [`LogisticRegression`] — Bayesian logistic regression on synthetic
//!   data (§4.1: 100 regressors, 10,000 points);
//! - [`CorrelatedGaussian`] — a 100-dimensional correlated Gaussian
//!   (§4.2's utilization experiment), with a closed-form tridiagonal
//!   precision;
//! - [`NealsFunnel`] and [`StdNormal`] — extra targets for the examples.
//!
//! Every gradient is cross-checked in tests against central finite
//! differences, and the logistic regression's also against its closed
//! form written as plain loops. [`model_registry`] packages a model as
//! the `grad`/`logp` external kernels autobatched programs call.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt;

use autobatch_tensor::{Result, Tensor};

mod funnel;
mod gaussian;
mod kernels;
mod logistic;
mod pricing;
mod schools;

pub use funnel::{NealsFunnel, StdNormal};
pub use gaussian::CorrelatedGaussian;
pub use kernels::{model_registry, GradKernel, LogpKernel};
pub use logistic::LogisticRegression;
pub use pricing::PricedAs;
pub use schools::EightSchools;

/// A differentiable target density, batched over axis 0.
///
/// Implementations must treat batch members independently — the property
/// every autobatching correctness argument rests on.
pub trait Model: Send + Sync + fmt::Debug {
    /// Short display name.
    fn name(&self) -> &str;
    /// Dimensionality of the parameter vector.
    fn dim(&self) -> usize;
    /// Batched log-density (up to an additive constant): `[Z, d] → [Z]`.
    ///
    /// # Errors
    ///
    /// Returns a tensor error on shape violations.
    fn logp(&self, q: &Tensor) -> Result<Tensor>;
    /// Batched gradient of the log-density: `[Z, d] → [Z, d]`.
    ///
    /// # Errors
    ///
    /// Returns a tensor error on shape violations.
    fn grad(&self, q: &Tensor) -> Result<Tensor>;
    /// Per-member flop count of `logp` (for the cost model).
    fn logp_flops(&self) -> f64;
    /// Per-member flop count of `grad` (for the cost model).
    fn grad_flops(&self) -> f64;
    /// Independent elements one member's kernels can process in parallel
    /// (defaults to the dimensionality; data-parallel likelihoods
    /// override with their data count).
    fn parallel_width(&self) -> usize {
        self.dim()
    }
}

#[cfg(test)]
mod testing {
    use autobatch_tensor::Tensor;

    /// Central finite-difference gradient of `f` at `x`, to check a
    /// hand-derived gradient against.
    pub(crate) fn finite_difference<F: Fn(&Tensor) -> f64>(f: F, x: &Tensor, eps: f64) -> Tensor {
        let base = x.as_f64().expect("finite_difference needs f64 input");
        let grad: Vec<f64> = (0..base.len())
            .map(|i| {
                let (mut plus, mut minus) = (base.to_vec(), base.to_vec());
                plus[i] += eps;
                minus[i] -= eps;
                let at = |v: &[f64]| f(&Tensor::from_f64(v, x.shape()).expect("shape preserved"));
                (at(&plus) - at(&minus)) / (2.0 * eps)
            })
            .collect();
        Tensor::from_f64(&grad, x.shape()).expect("shape preserved")
    }
}
