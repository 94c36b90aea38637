//! Extra targets beyond the paper's two: Neal's funnel and a standard
//! normal. These exercise the example programs on geometries where NUTS'
//! adaptive trajectory lengths vary wildly — the regime where
//! program-counter autobatching's cross-trajectory batching matters most.

use autobatch_tensor::{Result, Tensor, TensorError};

use crate::Model;

/// Neal's funnel: `v ~ N(0, 9)`, `x_i ~ N(0, e^v)` for the remaining
/// `dim − 1` coordinates. Log-density (up to a constant):
/// `−v²/18 − (d−1)·v/2 − e^{−v}·Σx²/2`.
#[derive(Debug, Clone)]
pub struct NealsFunnel {
    dim: usize,
}

impl NealsFunnel {
    /// A funnel over `dim ≥ 2` coordinates (`q[0]` is the neck `v`).
    ///
    /// # Panics
    ///
    /// Panics if `dim < 2`.
    pub fn new(dim: usize) -> NealsFunnel {
        assert!(dim >= 2, "funnel needs at least 2 dimensions");
        NealsFunnel { dim }
    }
}

impl Model for NealsFunnel {
    fn name(&self) -> &'static str {
        "neals-funnel"
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn logp(&self, q: &Tensor) -> Result<Tensor> {
        check_shape(q, self.dim)?;
        let v = q.as_f64()?;
        let (z, d) = (q.shape()[0], self.dim);
        let mut out = Vec::with_capacity(z);
        for b in 0..z {
            let row = &v[b * d..(b + 1) * d];
            let neck = row[0];
            let ss: f64 = row[1..].iter().map(|x| x * x).sum();
            out.push(
                -neck * neck / 18.0 - (d as f64 - 1.0) * neck / 2.0 - (-neck).exp() * ss / 2.0,
            );
        }
        Tensor::from_f64(&out, &[z])
    }

    fn grad(&self, q: &Tensor) -> Result<Tensor> {
        check_shape(q, self.dim)?;
        let v = q.as_f64()?;
        let (z, d) = (q.shape()[0], self.dim);
        let mut out = vec![0.0; z * d];
        for b in 0..z {
            let row = &v[b * d..(b + 1) * d];
            let o = &mut out[b * d..(b + 1) * d];
            let neck = row[0];
            let e = (-neck).exp();
            let ss: f64 = row[1..].iter().map(|x| x * x).sum();
            o[0] = -neck / 9.0 - (d as f64 - 1.0) / 2.0 + e * ss / 2.0;
            for i in 1..d {
                o[i] = -row[i] * e;
            }
        }
        Tensor::from_f64(&out, &[z, d])
    }

    fn logp_flops(&self) -> f64 {
        4.0 * self.dim as f64 + 15.0
    }

    fn grad_flops(&self) -> f64 {
        5.0 * self.dim as f64 + 15.0
    }
}

/// An isotropic standard normal — the simplest sanity target.
#[derive(Debug, Clone)]
pub struct StdNormal {
    dim: usize,
}

impl StdNormal {
    /// A `dim`-dimensional standard normal.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> StdNormal {
        assert!(dim > 0, "dim must be positive");
        StdNormal { dim }
    }
}

impl Model for StdNormal {
    fn name(&self) -> &'static str {
        "std-normal"
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn logp(&self, q: &Tensor) -> Result<Tensor> {
        check_shape(q, self.dim)?;
        q.dot_last_axis(q)?.mul(&Tensor::scalar(-0.5))
    }

    fn grad(&self, q: &Tensor) -> Result<Tensor> {
        check_shape(q, self.dim)?;
        q.neg()
    }

    fn logp_flops(&self) -> f64 {
        2.0 * self.dim as f64
    }

    fn grad_flops(&self) -> f64 {
        self.dim as f64
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
    fn funnel_gradient_matches_finite_differences() {
        let m = NealsFunnel::new(4);
        let q0 = Tensor::from_f64(&[0.5, 1.0, -0.5, 2.0], &[4]).unwrap();
        let g = m.grad(&q0.reshape(&[1, 4]).unwrap()).unwrap();
        let fd = finite_difference(
            |x| {
                m.logp(&x.reshape(&[1, 4]).unwrap())
                    .unwrap()
                    .as_f64()
                    .unwrap()[0]
            },
            &q0,
            1e-6,
        );
        for (a, b) in g.as_f64().unwrap().iter().zip(fd.as_f64().unwrap()) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn std_normal_gradient_is_negated_position() {
        let m = StdNormal::new(3);
        let q = Tensor::from_f64(&[1.0, -2.0, 3.0], &[1, 3]).unwrap();
        assert_eq!(m.grad(&q).unwrap().as_f64().unwrap(), &[-1.0, 2.0, -3.0]);
        assert_eq!(m.logp(&q).unwrap().as_f64().unwrap(), &[-7.0]);
    }

    #[test]
    fn shape_violations_rejected() {
        let m = StdNormal::new(3);
        let bad = Tensor::zeros(autobatch_tensor::DType::F64, &[2, 4]);
        assert!(m.logp(&bad).is_err());
        assert!(m.grad(&bad).is_err());
    }

    #[test]
    #[should_panic(expected = "dimensions")]
    fn tiny_funnel_panics() {
        NealsFunnel::new(1);
    }
}
