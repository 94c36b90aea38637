//! The eight-schools hierarchical meta-analysis (Rubin 1981), in the
//! non-centered parametrization — the canonical "many independent
//! chains" showcase the paper's motivation gestures at: its funnel-like
//! posterior makes NUTS trajectory lengths vary strongly between chains
//! and iterations, which is exactly the divergence-heavy regime
//! program-counter autobatching targets.

use autobatch_tensor::{Result, Tensor, TensorError};

use crate::Model;

/// Eight schools, non-centered: unconstrained parameters
/// `q = [μ, log τ, η₁, …, η_J]` (dimension `J + 2`), with
///
/// - `μ ~ N(0, 5²)` — population mean,
/// - `τ ~ Half-Cauchy(0, 5)` sampled as `log τ` (Jacobian included),
/// - `η_j ~ N(0, 1)`,
/// - observed `y_j ~ N(μ + τ·η_j, σ_j²)`.
#[derive(Debug, Clone)]
pub struct EightSchools {
    y: Vec<f64>,
    sigma: Vec<f64>,
}

impl EightSchools {
    /// The classic data set: treatment effects and standard errors of
    /// eight coaching programs.
    pub fn classic() -> EightSchools {
        EightSchools {
            y: vec![28.0, 8.0, -3.0, 7.0, -1.0, 1.0, 18.0, 12.0],
            sigma: vec![15.0, 10.0, 16.0, 11.0, 9.0, 11.0, 10.0, 18.0],
        }
    }

    /// A schools model over custom observations.
    ///
    /// # Panics
    ///
    /// Panics if the vectors are empty, differ in length, or any standard
    /// error is non-positive.
    pub fn new(y: Vec<f64>, sigma: Vec<f64>) -> EightSchools {
        assert!(!y.is_empty(), "need at least one school");
        assert_eq!(y.len(), sigma.len(), "y and sigma must align");
        assert!(
            sigma.iter().all(|&s| s > 0.0),
            "standard errors must be positive"
        );
        EightSchools { y, sigma }
    }

    /// Number of schools `J`.
    pub fn n_schools(&self) -> usize {
        self.y.len()
    }

    /// Recover the per-school effects `θ_j = μ + τ·η_j` from one
    /// unconstrained draw (shape `[J + 2]`).
    ///
    /// # Errors
    ///
    /// Returns a tensor error if `q` has the wrong shape.
    pub fn effects(&self, q: &Tensor) -> Result<Tensor> {
        let j = self.n_schools();
        if q.shape() != [j + 2] {
            return Err(TensorError::ShapeMismatch {
                lhs: q.shape().to_vec(),
                rhs: vec![j + 2],
                op: "effects",
            });
        }
        let v = q.as_f64()?;
        let (mu, tau) = (v[0], v[1].exp());
        let theta: Vec<f64> = v[2..].iter().map(|eta| mu + tau * eta).collect();
        Tensor::from_f64(&theta, &[j])
    }
}

impl Model for EightSchools {
    fn name(&self) -> &'static str {
        "eight-schools"
    }

    fn dim(&self) -> usize {
        self.n_schools() + 2
    }

    fn logp(&self, q: &Tensor) -> Result<Tensor> {
        check_shape(q, self.dim())?;
        let v = q.as_f64()?;
        let (z, d) = (q.shape()[0], self.dim());
        let j = self.n_schools();
        let mut out = Vec::with_capacity(z);
        for b in 0..z {
            let row = &v[b * d..(b + 1) * d];
            let (mu, lt) = (row[0], row[1]);
            let tau = lt.exp();
            let eta = &row[2..];
            // μ ~ N(0, 25); log τ: half-Cauchy(0,5) + Jacobian; η ~ N(0,1).
            let mut lp = -mu * mu / 50.0 + lt - (1.0 + tau * tau / 25.0).ln();
            for (k, &e) in eta.iter().enumerate().take(j) {
                lp -= e * e / 2.0;
                let r = self.y[k] - mu - tau * e;
                lp -= r * r / (2.0 * self.sigma[k] * self.sigma[k]);
            }
            out.push(lp);
        }
        Tensor::from_f64(&out, &[z])
    }

    fn grad(&self, q: &Tensor) -> Result<Tensor> {
        check_shape(q, self.dim())?;
        let v = q.as_f64()?;
        let (z, d) = (q.shape()[0], self.dim());
        let j = self.n_schools();
        let mut out = vec![0.0; z * d];
        for b in 0..z {
            let row = &v[b * d..(b + 1) * d];
            let o = &mut out[b * d..(b + 1) * d];
            let (mu, lt) = (row[0], row[1]);
            let tau = lt.exp();
            let eta = &row[2..];
            let mut d_mu = -mu / 25.0;
            // d/d(log τ) of [log τ − log(1 + τ²/25)].
            let mut d_lt = 1.0 - 2.0 * tau * tau / (25.0 + tau * tau);
            for k in 0..j {
                let s2 = self.sigma[k] * self.sigma[k];
                let r = (self.y[k] - mu - tau * eta[k]) / s2;
                d_mu += r;
                d_lt += r * eta[k] * tau;
                o[2 + k] = -eta[k] + r * tau;
            }
            o[0] = d_mu;
            o[1] = d_lt;
        }
        Tensor::from_f64(&out, &[z, d])
    }

    fn logp_flops(&self) -> f64 {
        10.0 * self.n_schools() as f64 + 20.0
    }

    fn grad_flops(&self) -> f64 {
        14.0 * self.n_schools() as f64 + 20.0
    }

    fn parallel_width(&self) -> usize {
        self.n_schools()
    }
}

fn check_shape(q: &Tensor, dim: usize) -> Result<()> {
    if q.rank() != 2 || q.shape()[1] != dim {
        return Err(TensorError::ShapeMismatch {
            lhs: q.shape().to_vec(),
            rhs: vec![0, dim],
            op: "model",
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::finite_difference;

    #[test]
    fn classic_data_has_eight_schools() {
        let m = EightSchools::classic();
        assert_eq!(m.n_schools(), 8);
        assert_eq!(m.dim(), 10);
        assert_eq!(m.name(), "eight-schools");
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let m = EightSchools::classic();
        let q0 = Tensor::from_f64(
            &[4.0, 0.8, 0.3, -0.5, 0.2, 1.1, -0.9, 0.0, 0.7, -0.2],
            &[10],
        )
        .unwrap();
        let g = m.grad(&q0.reshape(&[1, 10]).unwrap()).unwrap();
        let fd = finite_difference(
            |x| {
                m.logp(&x.reshape(&[1, 10]).unwrap())
                    .unwrap()
                    .as_f64()
                    .unwrap()[0]
            },
            &q0,
            1e-6,
        );
        for (a, b) in g.as_f64().unwrap().iter().zip(fd.as_f64().unwrap()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn logp_is_batched_and_finite() {
        let m = EightSchools::classic();
        let q = Tensor::zeros(autobatch_tensor::DType::F64, &[3, 10]);
        let lp = m.logp(&q).unwrap();
        assert_eq!(lp.shape(), &[3]);
        assert!(lp.as_f64().unwrap().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn effects_recover_theta() {
        let m = EightSchools::classic();
        let mut q = vec![0.0; 10];
        q[0] = 5.0; // mu
        q[1] = 0.0; // log tau = 0 → tau = 1
        q[2] = 2.0; // eta_1
        let theta = m.effects(&Tensor::from_f64(&q, &[10]).unwrap()).unwrap();
        let t = theta.as_f64().unwrap();
        assert_eq!(t.len(), 8);
        assert!((t[0] - 7.0).abs() < 1e-12); // 5 + 1·2
        assert!((t[1] - 5.0).abs() < 1e-12); // 5 + 1·0
    }

    #[test]
    fn shape_violations_rejected() {
        let m = EightSchools::classic();
        let bad = Tensor::zeros(autobatch_tensor::DType::F64, &[2, 4]);
        assert!(m.logp(&bad).is_err());
        assert!(m.grad(&bad).is_err());
        assert!(m
            .effects(&Tensor::zeros(autobatch_tensor::DType::F64, &[4]))
            .is_err());
    }

    #[test]
    #[should_panic(expected = "align")]
    fn mismatched_data_panics() {
        EightSchools::new(vec![1.0], vec![1.0, 2.0]);
    }

    #[test]
    fn larger_tau_pulls_effects_toward_eta() {
        // Monotonicity sanity: gradient wrt eta_k has the data-pull term
        // scaled by tau.
        let m = EightSchools::classic();
        let mut q_small = vec![0.0; 10];
        let mut q_big = q_small.clone();
        q_small[1] = -2.0;
        q_big[1] = 2.0;
        let gs = m
            .grad(
                &Tensor::from_f64(&q_small, &[10])
                    .unwrap()
                    .reshape(&[1, 10])
                    .unwrap(),
            )
            .unwrap();
        let gb = m
            .grad(
                &Tensor::from_f64(&q_big, &[10])
                    .unwrap()
                    .reshape(&[1, 10])
                    .unwrap(),
            )
            .unwrap();
        let (gs, gb) = (gs.as_f64().unwrap(), gb.as_f64().unwrap());
        // η-gradients at η = 0 are r·τ; bigger τ ⇒ bigger magnitude.
        assert!(gb[2].abs() > gs[2].abs());
    }
}
