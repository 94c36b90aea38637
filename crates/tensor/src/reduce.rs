//! Reduction kernels: boolean any/all and the sum over the trailing axis (the per-batch-member element axis in the
//! autobatching runtimes).

use crate::dtype::Data;
use crate::error::{Result, TensorError};
use crate::tensor::Tensor;

impl Tensor {
    /// Whether any element of a `bool` tensor is `true`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DTypeMismatch`] unless the dtype is `bool`.
    pub fn any(&self) -> Result<bool> {
        Ok(self.as_bool()?.iter().any(|&x| x))
    }

    /// Whether all elements of a `bool` tensor are `true`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DTypeMismatch`] unless the dtype is `bool`.
    pub fn all(&self) -> Result<bool> {
        Ok(self.as_bool()?.iter().all(|&x| x))
    }

    /// Sum over the trailing axis.
    ///
    /// For a tensor of shape `[.., k]` produces shape `[..]`. This is the
    /// per-batch-member reduction used for dot products and norms in the
    /// batched runtimes: axis 0 (the batch) is preserved.
    ///
    /// # Errors
    ///
    /// Returns an error for non-`f64` dtypes or rank-0 tensors.
    pub fn sum_last_axis(&self) -> Result<Tensor> {
        let v = self.as_f64()?;
        let rank = self.rank();
        if rank == 0 {
            return Err(TensorError::InvalidAxis { axis: 0, rank: 0 });
        }
        let k = self.shape()[rank - 1];
        let out_shape = &self.shape()[..rank - 1];
        let rows = self.len() / k.max(1);
        let mut out = Vec::with_capacity(rows);
        if k == 0 {
            out.resize(rows, 0.0);
        } else {
            for r in 0..rows {
                out.push(v[r * k..(r + 1) * k].iter().sum());
            }
        }
        Tensor::new(Data::F64(out), out_shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_reductions() {
        let t = Tensor::from_f64(&[1.0, 2.0, 3.0, 4.0], &[4]).unwrap();
        assert_eq!(t.sum_last_axis().unwrap().as_f64().unwrap(), &[10.0]);
    }

    #[test]
    fn any_all() {
        let t = Tensor::from_bool(&[false, true], &[2]).unwrap();
        assert!(t.any().unwrap());
        assert!(!t.all().unwrap());
        let f = Tensor::from_bool(&[], &[0]).unwrap();
        assert!(!f.any().unwrap());
        assert!(f.all().unwrap());
    }

    #[test]
    fn sum_last_axis_matrix() {
        let t = Tensor::from_f64(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let s = t.sum_last_axis().unwrap();
        assert_eq!(s.shape(), &[2]);
        assert_eq!(s.as_f64().unwrap(), &[6.0, 15.0]);
    }

    #[test]
    fn sum_last_axis_vector_gives_rank0() {
        let t = Tensor::from_f64(&[1.0, 2.0], &[2]).unwrap();
        let s = t.sum_last_axis().unwrap();
        assert_eq!(s.rank(), 0);
        assert_eq!(s.as_f64().unwrap(), &[3.0]);
    }

    #[test]
    fn bool_sum_rejected() {
        let t = Tensor::from_bool(&[true], &[1]).unwrap();
        assert!(t.sum_last_axis().is_err());
    }
}
