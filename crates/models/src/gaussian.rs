//! Correlated Gaussian target (paper §4.2's utilization experiment).
//!
//! The covariance is the AR(1) family `Σ_ij = ρ^|i-j|`, whose precision
//! matrix is tridiagonal in closed form — so the exact log-density and
//! gradient cost `O(d)` per chain, keeping the Figure 6 experiment about
//! *batching behaviour*, not linear algebra.

use autobatch_tensor::{Result, Tensor, TensorError};

use crate::Model;

/// A `dim`-dimensional Gaussian with AR(1) correlation `rho`.
#[derive(Debug, Clone)]
pub struct CorrelatedGaussian {
    dim: usize,
    /// Precision-matrix coefficients: interior diagonal, endpoint
    /// diagonal, off-diagonal.
    diag_mid: f64,
    diag_end: f64,
    off: f64,
}

impl CorrelatedGaussian {
    /// Create the target. `rho` must lie strictly inside `(-1, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or `rho` is outside `(-1, 1)`.
    pub fn new(dim: usize, rho: f64) -> CorrelatedGaussian {
        assert!(dim > 0, "dim must be positive");
        assert!(rho.abs() < 1.0, "rho must be in (-1, 1)");
        let s = 1.0 / (1.0 - rho * rho);
        CorrelatedGaussian {
            dim,
            diag_mid: (1.0 + rho * rho) * s,
            diag_end: s,
            off: -rho * s,
        }
    }

    /// The paper's §4.2 configuration: 100 dimensions, strong correlation.
    pub fn paper() -> CorrelatedGaussian {
        CorrelatedGaussian::new(100, 0.9)
    }

    /// Precision–vector product `P·q` per batch member, `O(d)`.
    fn precision_apply(&self, q: &Tensor) -> Result<Tensor> {
        let d = self.dim;
        let v = q.as_f64()?;
        if q.rank() != 2 || q.shape()[1] != d {
            return Err(TensorError::ShapeMismatch {
                lhs: q.shape().to_vec(),
                rhs: vec![0, d],
                op: "precision_apply",
            });
        }
        let z = q.shape()[0];
        let mut out = vec![0.0; z * d];
        for b in 0..z {
            let row = &v[b * d..(b + 1) * d];
            let o = &mut out[b * d..(b + 1) * d];
            for i in 0..d {
                let diag = if i == 0 || i == d - 1 {
                    self.diag_end
                } else {
                    self.diag_mid
                };
                let mut acc = diag * row[i];
                if i > 0 {
                    acc += self.off * row[i - 1];
                }
                if i + 1 < d {
                    acc += self.off * row[i + 1];
                }
                o[i] = acc;
            }
        }
        Tensor::from_f64(&out, q.shape())
    }
}

impl Model for CorrelatedGaussian {
    fn name(&self) -> &'static str {
        "correlated-gaussian"
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn logp(&self, q: &Tensor) -> Result<Tensor> {
        // -0.5 qᵀPq (normalizing constant omitted — MCMC only needs the
        // density up to a constant).
        let pq = self.precision_apply(q)?;
        q.mul(&pq)?.sum_last_axis()?.mul(&Tensor::scalar(-0.5))
    }

    fn grad(&self, q: &Tensor) -> Result<Tensor> {
        self.precision_apply(q)?.neg()
    }

    fn logp_flops(&self) -> f64 {
        7.0 * self.dim as f64
    }

    fn grad_flops(&self) -> f64 {
        6.0 * self.dim as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::finite_difference;

    #[test]
    fn gradient_matches_finite_differences() {
        let m = CorrelatedGaussian::new(6, 0.7);
        let q = Tensor::from_f64(&[0.3, -1.2, 0.8, 2.0, -0.5, 0.1], &[1, 6]).unwrap();
        let g = m.grad(&q).unwrap();
        let qv = q.reshape(&[6]).unwrap();
        let fd = finite_difference(
            |x| {
                let xb = x.reshape(&[1, 6]).unwrap();
                m.logp(&xb).unwrap().as_f64().unwrap()[0]
            },
            &qv,
            1e-6,
        );
        for (a, b) in g.as_f64().unwrap().iter().zip(fd.as_f64().unwrap()) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn precision_matches_dense_inverse_on_small_case() {
        // For d = 2: Σ = [[1, ρ], [ρ, 1]]; P = Σ⁻¹ = 1/(1-ρ²)[[1, -ρ], [-ρ, 1]].
        let m = CorrelatedGaussian::new(2, 0.5);
        let q = Tensor::from_f64(&[1.0, 2.0], &[1, 2]).unwrap();
        let pq = m.precision_apply(&q).unwrap();
        let s = 1.0 / (1.0 - 0.25);
        let expect = [s * (1.0 - 0.5 * 2.0), s * (-0.5 + 2.0)];
        for (a, b) in pq.as_f64().unwrap().iter().zip(&expect) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn batch_members_are_independent() {
        let m = CorrelatedGaussian::new(4, 0.9);
        let q1 = Tensor::from_f64(&[1.0, 0.0, -1.0, 0.5], &[1, 4]).unwrap();
        let q2 = Tensor::from_f64(&[9.0, 9.0, 9.0, 9.0], &[1, 4]).unwrap();
        let both = Tensor::concat_rows(&[q1.clone(), q2]).unwrap();
        let single = m.grad(&q1).unwrap();
        let batch = m.grad(&both).unwrap();
        assert_eq!(&batch.as_f64().unwrap()[..4], single.as_f64().unwrap());
    }

    #[test]
    fn logp_is_maximal_at_origin() {
        let m = CorrelatedGaussian::paper();
        let zero = Tensor::zeros(autobatch_tensor::DType::F64, &[1, 100]);
        let off = Tensor::full(&[1, 100], 0.3);
        assert!(
            m.logp(&zero).unwrap().as_f64().unwrap()[0]
                > m.logp(&off).unwrap().as_f64().unwrap()[0]
        );
    }

    #[test]
    #[should_panic(expected = "rho")]
    fn invalid_rho_panics() {
        CorrelatedGaussian::new(3, 1.5);
    }
}
