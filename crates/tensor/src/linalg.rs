//! Small linear-algebra kernels: batched dot products, matrix-vector
//! products and the transpose.
//!
//! These model the heavyweight "leaf kernels" of the paper's workloads —
//! the Bayesian logistic-regression gradient is dominated by `X·β` and
//! `Xᵀ·r` products with a `10,000 × 100` design matrix.

use crate::dtype::Data;
use crate::error::{Result, TensorError};
use crate::scalar_ops::mul_f64;
use crate::shape::{Broadcast, Run};
use crate::tensor::Tensor;

impl Tensor {
    /// Batched dot product over the trailing axis.
    ///
    /// For two tensors of shape `[.., k]`, returns elementwise
    /// `sum(a * b)` of shape `[..]`. With the runtimes' `[Z, d]` layout
    /// this is "one dot product per batch member".
    ///
    /// # Errors
    ///
    /// Returns an error on dtype or shape mismatch.
    pub fn dot_last_axis(&self, rhs: &Tensor) -> Result<Tensor> {
        let plan =
            Broadcast::new([self.shape(), rhs.shape()]).filter(|p| p.rank() > 0 && p.len() > 0);
        let (Some(p), Data::F64(a), Data::F64(b)) = (plan, self.data(), rhs.data()) else {
            // Errors and empty rows: what the product, then the sum, gives.
            return self.mul(rhs)?.sum_last_axis();
        };
        // One pass: each row folds the products `mul` would build with the
        // `Iterator::sum` that `sum_last_axis` applies. Every run length is
        // a multiple of the last axis, so runs hold whole rows.
        let k = p.out_dim(0);
        let mut out = Vec::with_capacity(p.len() / k);
        p.for_each_run(|runs, len| {
            for row in (0..len).step_by(k) {
                out.push(match runs {
                    [Run::Seg(i), Run::Seg(j)] => {
                        let (x, y) = (&a[i + row..i + row + k], &b[j + row..j + row + k]);
                        x.iter().zip(y).map(|(&x, &y)| mul_f64(x, y)).sum()
                    }
                    [ra, rb] => (row..row + k)
                        .map(|j| mul_f64(a[ra.at(j)], b[rb.at(j)]))
                        .sum(),
                });
            }
        });
        let shape = p.out_shape().take(p.rank() - 1).collect();
        Ok(Tensor::from_parts(shape, Data::F64(out)))
    }

    /// Batched matrix–vector product: `self` of shape `[m, k]` applied to
    /// every row of `vs` of shape `[z, k]`, producing `[z, m]`.
    ///
    /// This is the kernel shape the batched logistic-regression gradient
    /// uses: one shared design matrix against a batch of parameter vectors.
    ///
    /// # Errors
    ///
    /// Returns an error unless both are `f64` with conforming shapes.
    pub fn matvec_batched(&self, vs: &Tensor) -> Result<Tensor> {
        let a = self.as_f64()?;
        let x = vs.as_f64()?;
        if self.rank() != 2 || vs.rank() != 2 || self.shape()[1] != vs.shape()[1] {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape().to_vec(),
                rhs: vs.shape().to_vec(),
                op: "matvec_batched",
            });
        }
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let z = vs.shape()[0];
        let mut out = vec![0.0; z * m];
        for b in 0..z {
            let vb = &x[b * k..(b + 1) * k];
            for i in 0..m {
                let row = &a[i * k..(i + 1) * k];
                out[b * m + i] = row.iter().zip(vb).map(|(&r, &xx)| r * xx).sum();
            }
        }
        Tensor::new(Data::F64(out), &[z, m])
    }

    /// Batched transposed matrix–vector product: `selfᵀ` (`self` of shape
    /// `[m, k]`) applied to every row of `vs` of shape `[z, m]`, producing
    /// `[z, k]`.
    ///
    /// # Errors
    ///
    /// Returns an error unless both are `f64` with conforming shapes.
    pub fn matvec_t_batched(&self, vs: &Tensor) -> Result<Tensor> {
        let a = self.as_f64()?;
        let x = vs.as_f64()?;
        if self.rank() != 2 || vs.rank() != 2 || self.shape()[0] != vs.shape()[1] {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape().to_vec(),
                rhs: vs.shape().to_vec(),
                op: "matvec_t_batched",
            });
        }
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let z = vs.shape()[0];
        let mut out = vec![0.0; z * k];
        for b in 0..z {
            let vb = &x[b * m..(b + 1) * m];
            let ob = &mut out[b * k..(b + 1) * k];
            for i in 0..m {
                let row = &a[i * k..(i + 1) * k];
                let s = vb[i];
                for (o, &r) in ob.iter_mut().zip(row) {
                    *o += s * r;
                }
            }
        }
        Tensor::new(Data::F64(out), &[z, k])
    }

    /// Transpose a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns an error unless the tensor is rank-2 `f64`.
    pub fn transpose(&self) -> Result<Tensor> {
        let a = self.as_f64()?;
        if self.rank() != 2 {
            return Err(TensorError::InvalidAxis {
                axis: 1,
                rank: self.rank(),
            });
        }
        let (m, n) = (self.shape()[0], self.shape()[1]);
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = a[i * n + j];
            }
        }
        Tensor::new(Data::F64(out), &[n, m])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_last_axis_batched() {
        let a = Tensor::from_f64(&[1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = Tensor::from_f64(&[5.0, 6.0, 7.0, 8.0], &[2, 2]).unwrap();
        let d = a.dot_last_axis(&b).unwrap();
        assert_eq!(d.as_f64().unwrap(), &[17.0, 53.0]);
    }

    #[test]
    fn matvec_small() {
        let m = Tensor::from_f64(&[1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let v = Tensor::from_f64(&[1.0, 1.0], &[1, 2]).unwrap();
        assert_eq!(m.matvec_batched(&v).unwrap().as_f64().unwrap(), &[3.0, 7.0]);
    }

    #[test]
    fn matvec_batched_matches_loop() {
        let m = Tensor::from_f64(&[1.0, 0.0, 0.0, 2.0, 1.0, 1.0], &[3, 2]).unwrap();
        let vs = Tensor::from_f64(&[1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let out = m.matvec_batched(&vs).unwrap();
        assert_eq!(out.shape(), &[2, 3]);
        assert_eq!(out.as_f64().unwrap(), &[1.0, 4.0, 3.0, 3.0, 8.0, 7.0]);
    }

    #[test]
    fn matvec_t_batched_is_transpose_product() {
        let m = Tensor::from_f64(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]).unwrap();
        let vs = Tensor::from_f64(&[1.0, 0.0, 1.0], &[1, 3]).unwrap();
        let out = m.matvec_t_batched(&vs).unwrap();
        assert_eq!(out.shape(), &[1, 2]);
        assert_eq!(out.as_f64().unwrap(), &[6.0, 8.0]); // col sums of rows 0 and 2
    }

    #[test]
    fn transpose_small() {
        let a = Tensor::from_f64(&[1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let at = a.transpose().unwrap();
        assert_eq!(at.as_f64().unwrap(), &[1.0, 3.0, 2.0, 4.0]);
    }

    #[test]
    fn shape_errors() {
        let a = Tensor::from_f64(&[1.0, 2.0], &[1, 2]).unwrap();
        let m = Tensor::from_f64(&[1.0, 2.0, 3.0], &[3, 1]).unwrap();
        assert!(m.matvec_batched(&a).is_err());
    }
}
