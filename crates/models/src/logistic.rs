//! Bayesian logistic regression with synthetic data (paper §4.1's
//! throughput experiment: 100 regressors, 10,000 data points).

use autobatch_tensor::{CounterRng, Result, Tensor, TensorError};

use crate::Model;

/// Bayesian logistic regression: `y_i ~ Bernoulli(σ(x_i · β))` with a
/// standard normal prior on `β`.
///
/// The log-posterior (up to a constant) is
/// `Σ_i [ y_i (x_i·β) − softplus(x_i·β) ] − ½‖β‖²`, with gradient
/// `Xᵀ(y − σ(Xβ)) − β`.
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    x: Tensor,
    y: Tensor,
    n: usize,
    dim: usize,
}

impl LogisticRegression {
    /// Build from a design matrix `x` of shape `[n, dim]` and labels `y`
    /// of shape `[n]` (values 0.0/1.0).
    ///
    /// # Errors
    ///
    /// Returns an error if shapes disagree.
    pub fn new(x: Tensor, y: Tensor) -> Result<LogisticRegression> {
        if x.rank() != 2 || y.rank() != 1 || x.shape()[0] != y.shape()[0] {
            return Err(TensorError::ShapeMismatch {
                lhs: x.shape().to_vec(),
                rhs: y.shape().to_vec(),
                op: "LogisticRegression::new",
            });
        }
        let n = x.shape()[0];
        let dim = x.shape()[1];
        Ok(LogisticRegression { x, y, n, dim })
    }

    /// Generate a synthetic problem: `X ~ N(0, 1)`, true weights
    /// `β* ~ N(0, 1)`, labels from the model.
    pub fn synthetic(n: usize, dim: usize, seed: u64) -> LogisticRegression {
        let rng = CounterRng::new(seed);
        let mut xv = Vec::with_capacity(n * dim);
        for i in 0..n * dim {
            xv.push(rng.normal(0, i as i64));
        }
        let mut beta = Vec::with_capacity(dim);
        for j in 0..dim {
            beta.push(rng.normal(1, j as i64));
        }
        let mut yv = Vec::with_capacity(n);
        for i in 0..n {
            let logit: f64 = (0..dim).map(|j| xv[i * dim + j] * beta[j]).sum();
            let p = 1.0 / (1.0 + (-logit).exp());
            yv.push(if rng.uniform(2, i as i64) < p {
                1.0
            } else {
                0.0
            });
        }
        LogisticRegression {
            x: Tensor::from_f64(&xv, &[n, dim]).expect("shape by construction"),
            y: Tensor::from_f64(&yv, &[n]).expect("shape by construction"),
            n,
            dim,
        }
    }

    /// Number of data points.
    pub fn n_data(&self) -> usize {
        self.n
    }
}

impl Model for LogisticRegression {
    fn name(&self) -> &'static str {
        "logistic-regression"
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn logp(&self, q: &Tensor) -> Result<Tensor> {
        // s = Xβ per member: [Z, N].
        let s = self.x.matvec_batched(q)?;
        // y·s − softplus(s), summed over data.
        let ys = s.mul(&self.y)?;
        let fit = ys.sub(&s.softplus()?)?.sum_last_axis()?;
        // − ½‖β‖².
        let prior = q.dot_last_axis(q)?.mul(&Tensor::scalar(-0.5))?;
        fit.add(&prior)
    }

    fn grad(&self, q: &Tensor) -> Result<Tensor> {
        let s = self.x.matvec_batched(q)?;
        let resid = self.y.sub(&s.sigmoid()?)?; // broadcasts y over [Z, N]
        let fit = self.x.matvec_t_batched(&resid)?;
        fit.sub(q)
    }

    fn logp_flops(&self) -> f64 {
        // matvec (2Nd) + softplus et al. (~12N) + prior (2d).
        2.0 * (self.n * self.dim) as f64 + 12.0 * self.n as f64 + 2.0 * self.dim as f64
    }

    fn grad_flops(&self) -> f64 {
        // two matvecs (4Nd) + sigmoid/residual (~12N).
        4.0 * (self.n * self.dim) as f64 + 12.0 * self.n as f64
    }

    fn parallel_width(&self) -> usize {
        // The likelihood terms are independent across data points.
        self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::finite_difference;

    fn tiny() -> LogisticRegression {
        LogisticRegression::synthetic(40, 5, 7)
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let m = tiny();
        let q0 = Tensor::from_f64(&[0.1, -0.4, 0.2, 0.0, 0.5], &[5]).unwrap();
        let qb = q0.reshape(&[1, 5]).unwrap();
        let g = m.grad(&qb).unwrap();
        let fd = finite_difference(
            |x| {
                let xb = x.reshape(&[1, 5]).unwrap();
                m.logp(&xb).unwrap().as_f64().unwrap()[0]
            },
            &q0,
            1e-6,
        );
        for (a, b) in g.as_f64().unwrap().iter().zip(fd.as_f64().unwrap()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn gradient_matches_closed_form() {
        // The batched kernels against the closed form of the same
        // expression, `Xᵀ(y − σ(Xβ)) − β`, as plain loops over the data.
        let m = tiny();
        let beta = [0.3, 0.1, -0.2, 0.4, -0.1];
        let (x, y) = (m.x.as_f64().unwrap(), m.y.as_f64().unwrap());
        let mut want: Vec<f64> = beta.iter().map(|b| -b).collect();
        for (row, &yi) in x.chunks(beta.len()).zip(y) {
            let s: f64 = row.iter().zip(&beta).map(|(a, b)| a * b).sum();
            let resid = yi - 1.0 / (1.0 + (-s).exp());
            for (w, a) in want.iter_mut().zip(row) {
                *w += a * resid;
            }
        }
        let hand = m.grad(&Tensor::from_f64(&beta, &[1, 5]).unwrap()).unwrap();
        for (a, b) in hand.as_f64().unwrap().iter().zip(&want) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn synthetic_labels_are_binary_and_correlated_with_logits() {
        let m = LogisticRegression::synthetic(500, 4, 3);
        let y = m.y.as_f64().unwrap();
        assert!(y.iter().all(|&v| v == 0.0 || v == 1.0));
        let ones = y.iter().filter(|&&v| v == 1.0).count();
        assert!(ones > 50 && ones < 450, "labels not degenerate: {ones}");
    }

    #[test]
    fn batch_rows_independent() {
        let m = tiny();
        let a = Tensor::from_f64(&[0.1, 0.2, 0.3, 0.4, 0.5], &[1, 5]).unwrap();
        let b = Tensor::full(&[1, 5], -1.0);
        let both = Tensor::concat_rows(&[a.clone(), b]).unwrap();
        let single = m.logp(&a).unwrap();
        let batch = m.logp(&both).unwrap();
        assert!((batch.as_f64().unwrap()[0] - single.as_f64().unwrap()[0]).abs() < 1e-12);
    }

    #[test]
    fn paper_configuration_shapes() {
        let m = LogisticRegression::synthetic(100, 10, 1);
        assert_eq!(m.dim(), 10);
        assert_eq!(m.n_data(), 100);
        assert!(m.grad_flops() > m.logp_flops());
    }

    #[test]
    fn bad_shapes_rejected() {
        let x = Tensor::zeros(autobatch_tensor::DType::F64, &[3, 2]);
        let y = Tensor::zeros(autobatch_tensor::DType::F64, &[4]);
        assert!(LogisticRegression::new(x, y).is_err());
    }
}
