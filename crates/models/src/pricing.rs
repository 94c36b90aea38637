//! Cost-model pricing overrides.
//!
//! The figure-regenerating benches run a *scaled-down computation*
//! (smaller design matrices, fewer data points — the interpreter really
//! executes every kernel) while pricing it at the *paper's* problem
//! sizes. [`PricedAs`] wraps a model and overrides only the quantities
//! the analytic cost model reads; the numerical behaviour (and therefore
//! the control flow being batched) is untouched. EXPERIMENTS.md documents
//! this substitution per experiment.

use autobatch_tensor::{Result, Tensor};

use crate::Model;

/// A model whose *cost-model* footprint is overridden.
#[derive(Debug, Clone)]
pub struct PricedAs<M> {
    inner: M,
    logp_flops: f64,
    grad_flops: f64,
    parallel_width: usize,
}

impl<M: Model> PricedAs<M> {
    /// Price `inner` as if its kernels cost the given per-member flop
    /// counts with the given per-member parallel width.
    pub fn new(inner: M, logp_flops: f64, grad_flops: f64, parallel_width: usize) -> PricedAs<M> {
        PricedAs {
            inner,
            logp_flops,
            grad_flops,
            parallel_width,
        }
    }

    /// Price `inner` as the paper's Bayesian logistic regression
    /// (`n = 10,000` data points, `d = 100` regressors).
    pub fn as_paper_logistic(inner: M) -> PricedAs<M> {
        let (n, d) = (10_000.0, 100.0);
        PricedAs {
            inner,
            logp_flops: 2.0 * n * d + 12.0 * n + 2.0 * d,
            grad_flops: 4.0 * n * d + 12.0 * n,
            parallel_width: 10_000,
        }
    }
}

impl<M: Model> Model for PricedAs<M> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn logp(&self, q: &Tensor) -> Result<Tensor> {
        self.inner.logp(q)
    }

    fn grad(&self, q: &Tensor) -> Result<Tensor> {
        self.inner.grad(q)
    }

    fn logp_flops(&self) -> f64 {
        self.logp_flops
    }

    fn grad_flops(&self) -> f64 {
        self.grad_flops
    }

    fn parallel_width(&self) -> usize {
        self.parallel_width
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StdNormal;

    #[test]
    fn values_delegate_but_costs_override() {
        let base = StdNormal::new(3);
        let priced = PricedAs::new(StdNormal::new(3), 111.0, 222.0, 4444);
        let q = Tensor::from_f64(&[1.0, 2.0, 3.0], &[1, 3]).unwrap();
        assert_eq!(
            priced.grad(&q).unwrap(),
            base.grad(&q).unwrap(),
            "numerics unchanged"
        );
        assert_eq!(priced.logp_flops(), 111.0);
        assert_eq!(priced.grad_flops(), 222.0);
        assert_eq!(priced.parallel_width(), 4444);
        assert_eq!(priced.dim(), 3);
    }

    #[test]
    fn paper_logistic_pricing() {
        let priced = PricedAs::as_paper_logistic(StdNormal::new(5));
        assert_eq!(
            priced.grad_flops(),
            4.0 * 10_000.0 * 100.0 + 12.0 * 10_000.0
        );
        assert_eq!(priced.parallel_width(), 10_000);
    }
}
