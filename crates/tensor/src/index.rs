//! Gather, scatter, and masked-update kernels along axis 0.
//!
//! These are the primitives both autobatching runtimes live on:
//!
//! - *masked row assignment* implements the "masking style" of executing a
//!   primitive on only the locally active batch members (Algorithm 1);
//! - *gather/scatter rows* implements the alternative "gather the active
//!   members into a smaller array, compute, scatter back" strategy;
//! - *gather/scatter at depth* implement the per-variable stack reads and
//!   writes of program-counter autobatching (Algorithm 2), where each
//!   batch member may sit at a different stack depth.

use crate::dtype::Data;
use crate::error::{Result, TensorError};
use crate::tensor::Tensor;

/// Number of elements in one "row" (everything after axis 0).
fn row_len(t: &Tensor) -> Result<usize> {
    if t.rank() == 0 {
        return Err(TensorError::InvalidAxis { axis: 0, rank: 0 });
    }
    Ok(t.len() / t.shape()[0].max(1))
}

macro_rules! per_dtype {
    ($lhs:expr, $rhs:expr, $op:literal, |$a:ident, $b:ident| $body:expr) => {
        match ($lhs, $rhs) {
            (Data::F64($a), Data::F64($b)) => $body,
            (Data::I64($a), Data::I64($b)) => $body,
            (Data::Bool($a), Data::Bool($b)) => $body,
            (_, other) => {
                return Err(TensorError::DTypeMismatch {
                    got: other.dtype(),
                    expected: "matching dtypes",
                    op: $op,
                })
            }
        }
    };
}

/// Append the rows of `src` at `indices` (each `rl` elements, indices
/// already bounds-checked) to `out`, which holds the same dtype.
fn append_rows(src: &Data, indices: &[usize], rl: usize, out: &mut Data) {
    fn go<T: Copy>(v: &[T], indices: &[usize], rl: usize, out: &mut Vec<T>) {
        out.reserve_exact(indices.len() * rl);
        for &i in indices {
            out.extend_from_slice(&v[i * rl..(i + 1) * rl]);
        }
    }
    match (src, out) {
        (Data::F64(v), Data::F64(o)) => go(v, indices, rl, o),
        (Data::I64(v), Data::I64(o)) => go(v, indices, rl, o),
        (Data::Bool(v), Data::Bool(o)) => go(v, indices, rl, o),
        _ => unreachable!("callers pass storage of the source's dtype"),
    }
}

impl Tensor {
    /// Overwrite the rows of `self` where `mask` is `true` with the
    /// corresponding rows of `src`.
    ///
    /// `self` and `src` must have identical shapes; `mask.len()` must
    /// equal the axis-0 length. Rows where the mask is `false` keep their
    /// current value — this is exactly the masked update of Algorithm 1.
    ///
    /// # Errors
    ///
    /// Returns an error on shape, dtype, or mask-length mismatch.
    pub fn masked_assign_rows(&mut self, mask: &[bool], src: &Tensor) -> Result<()> {
        if self.shape() != src.shape() {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape().to_vec(),
                rhs: src.shape().to_vec(),
                op: "masked_assign_rows",
            });
        }
        let rows = if self.rank() == 0 { 1 } else { self.shape()[0] };
        if mask.len() != rows {
            return Err(TensorError::MaskLength {
                expected: rows,
                got: mask.len(),
            });
        }
        let rl = if self.rank() == 0 { 1 } else { row_len(self)? };
        let dst = matches!(
            (self.data(), src.data()),
            (Data::F64(_), Data::F64(_))
                | (Data::I64(_), Data::I64(_))
                | (Data::Bool(_), Data::Bool(_))
        );
        if !dst {
            return Err(TensorError::DTypeMismatch {
                got: src.dtype(),
                expected: "matching dtypes",
                op: "masked_assign_rows",
            });
        }
        match (self.dtype(), src.data()) {
            (_, Data::F64(s)) => {
                let d = self.as_f64_mut()?;
                for (r, &m) in mask.iter().enumerate() {
                    if m {
                        d[r * rl..(r + 1) * rl].copy_from_slice(&s[r * rl..(r + 1) * rl]);
                    }
                }
            }
            (_, Data::I64(s)) => {
                let d = self.as_i64_mut()?;
                for (r, &m) in mask.iter().enumerate() {
                    if m {
                        d[r * rl..(r + 1) * rl].copy_from_slice(&s[r * rl..(r + 1) * rl]);
                    }
                }
            }
            (_, Data::Bool(s)) => {
                let d = self.as_bool_mut()?;
                for (r, &m) in mask.iter().enumerate() {
                    if m {
                        d[r * rl..(r + 1) * rl].copy_from_slice(&s[r * rl..(r + 1) * rl]);
                    }
                }
            }
        }
        Ok(())
    }

    /// Gather rows of `self` at the given axis-0 indices (with repeats
    /// allowed), producing a tensor of shape `[indices.len(), ..]`.
    ///
    /// # Errors
    ///
    /// Returns an error for rank-0 tensors or out-of-range indices.
    pub fn gather_rows(&self, indices: &[usize]) -> Result<Tensor> {
        let rl = self.gatherable_row_len(indices)?;
        let mut out_shape = self.shape().to_vec();
        out_shape[0] = indices.len();
        let mut data = Data::zeros(self.dtype(), 0);
        append_rows(self.data(), indices, rl, &mut data);
        Tensor::new(data, &out_shape)
    }

    /// [`Tensor::gather_rows`] into `out` instead of a fresh tensor: the
    /// shape and payload allocations `out` already holds are reused
    /// when nothing shares them, so an interpreter that gathers every
    /// superstep into the same scratch tensors stops allocating once
    /// they have grown to the widest gather. Whatever `out` held is
    /// discarded.
    ///
    /// # Errors
    ///
    /// As [`Tensor::gather_rows`]; `out` is untouched on error.
    pub fn gather_rows_into(&self, indices: &[usize], out: &mut Tensor) -> Result<()> {
        let rl = self.gatherable_row_len(indices)?;
        append_rows(
            self.data(),
            indices,
            rl,
            out.reset_rows(indices.len(), self),
        );
        Ok(())
    }

    /// The row length of `self`, once every index is known to name one
    /// of its rows.
    fn gatherable_row_len(&self, indices: &[usize]) -> Result<usize> {
        let rl = row_len(self)?;
        let rows = self.shape()[0];
        match indices.iter().find(|&&i| i >= rows) {
            Some(&index) => Err(TensorError::IndexOutOfBounds {
                index,
                len: rows,
                op: "gather_rows",
            }),
            None => Ok(rl),
        }
    }

    /// Scatter the rows of `src` into `self` at the given axis-0 indices:
    /// `self[indices[j]] = src[j]`.
    ///
    /// Later duplicates win, matching accelerator scatter semantics.
    ///
    /// # Errors
    ///
    /// Returns an error on shape/dtype mismatch or out-of-range indices.
    pub fn scatter_rows(&mut self, indices: &[usize], src: &Tensor) -> Result<()> {
        let rl = row_len(self)?;
        if src.rank() == 0
            || src.shape()[0] != indices.len()
            || src.shape()[1..] != self.shape()[1..]
        {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape().to_vec(),
                rhs: src.shape().to_vec(),
                op: "scatter_rows",
            });
        }
        let rows = self.shape()[0];
        for &i in indices {
            if i >= rows {
                return Err(TensorError::IndexOutOfBounds {
                    index: i,
                    len: rows,
                    op: "scatter_rows",
                });
            }
        }
        match (self.dtype(), src.data()) {
            (_, Data::F64(s)) => {
                let d = self.as_f64_mut()?;
                for (j, &i) in indices.iter().enumerate() {
                    d[i * rl..(i + 1) * rl].copy_from_slice(&s[j * rl..(j + 1) * rl]);
                }
            }
            (_, Data::I64(s)) => {
                let d = self.as_i64_mut()?;
                for (j, &i) in indices.iter().enumerate() {
                    d[i * rl..(i + 1) * rl].copy_from_slice(&s[j * rl..(j + 1) * rl]);
                }
            }
            (_, Data::Bool(s)) => {
                let d = self.as_bool_mut()?;
                for (j, &i) in indices.iter().enumerate() {
                    d[i * rl..(i + 1) * rl].copy_from_slice(&s[j * rl..(j + 1) * rl]);
                }
            }
        }
        Ok(())
    }

    /// Stack read: for a stack tensor of shape `[D, Z, ..]` and per-member
    /// depths `depths` (length `Z`), gather `self[depths[b], b, ..]` into a
    /// tensor of shape `[Z, ..]`.
    ///
    /// This is the `x[x_stack]` gather of Algorithm 2.
    ///
    /// # Errors
    ///
    /// Returns an error if the tensor has rank < 2, `depths.len() != Z`,
    /// or any depth is out of range.
    pub fn gather_at_depth(&self, depths: &[usize]) -> Result<Tensor> {
        if self.rank() < 2 {
            return Err(TensorError::InvalidAxis {
                axis: 1,
                rank: self.rank(),
            });
        }
        let d_max = self.shape()[0];
        let z = self.shape()[1];
        if depths.len() != z {
            return Err(TensorError::MaskLength {
                expected: z,
                got: depths.len(),
            });
        }
        let el: usize = self.shape()[2..].iter().product();
        let out_shape: Vec<usize> = std::iter::once(z)
            .chain(self.shape()[2..].iter().copied())
            .collect();
        for &d in depths {
            if d >= d_max {
                return Err(TensorError::IndexOutOfBounds {
                    index: d,
                    len: d_max,
                    op: "gather_at_depth",
                });
            }
        }
        let data = match self.data() {
            Data::F64(v) => {
                let mut out = Vec::with_capacity(z * el);
                for (b, &d) in depths.iter().enumerate() {
                    let base = (d * z + b) * el;
                    out.extend_from_slice(&v[base..base + el]);
                }
                Data::F64(out)
            }
            Data::I64(v) => {
                let mut out = Vec::with_capacity(z * el);
                for (b, &d) in depths.iter().enumerate() {
                    let base = (d * z + b) * el;
                    out.extend_from_slice(&v[base..base + el]);
                }
                Data::I64(out)
            }
            Data::Bool(v) => {
                let mut out = Vec::with_capacity(z * el);
                for (b, &d) in depths.iter().enumerate() {
                    let base = (d * z + b) * el;
                    out.extend_from_slice(&v[base..base + el]);
                }
                Data::Bool(out)
            }
        };
        Tensor::new(data, &out_shape)
    }

    /// Stack write: for a stack tensor of shape `[D, Z, ..]`, write row `b`
    /// of `src` (shape `[Z, ..]`) into `self[depths[b], b, ..]` for every
    /// member where `mask[b]` is `true`.
    ///
    /// This is the scatter of Algorithm 2's `PUSH`.
    ///
    /// # Errors
    ///
    /// Returns an error on rank/shape/dtype mismatch or depth out of range.
    pub fn scatter_at_depth(
        &mut self,
        depths: &[usize],
        mask: &[bool],
        src: &Tensor,
    ) -> Result<()> {
        if self.rank() < 2 {
            return Err(TensorError::InvalidAxis {
                axis: 1,
                rank: self.rank(),
            });
        }
        let d_max = self.shape()[0];
        let z = self.shape()[1];
        if depths.len() != z || mask.len() != z {
            return Err(TensorError::MaskLength {
                expected: z,
                got: depths.len(),
            });
        }
        if src.rank() == 0 || src.shape()[0] != z || src.shape()[1..] != self.shape()[2..] {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape().to_vec(),
                rhs: src.shape().to_vec(),
                op: "scatter_at_depth",
            });
        }
        let el: usize = self.shape()[2..].iter().product();
        for (b, &d) in depths.iter().enumerate() {
            if mask[b] && d >= d_max {
                return Err(TensorError::IndexOutOfBounds {
                    index: d,
                    len: d_max,
                    op: "scatter_at_depth",
                });
            }
        }
        match (self.dtype(), src.data()) {
            (_, Data::F64(s)) => {
                let dst = self.as_f64_mut()?;
                for (b, (&d, &m)) in depths.iter().zip(mask).enumerate() {
                    if m {
                        let base = (d * z + b) * el;
                        dst[base..base + el].copy_from_slice(&s[b * el..(b + 1) * el]);
                    }
                }
            }
            (_, Data::I64(s)) => {
                let dst = self.as_i64_mut()?;
                for (b, (&d, &m)) in depths.iter().zip(mask).enumerate() {
                    if m {
                        let base = (d * z + b) * el;
                        dst[base..base + el].copy_from_slice(&s[b * el..(b + 1) * el]);
                    }
                }
            }
            (_, Data::Bool(s)) => {
                let dst = self.as_bool_mut()?;
                for (b, (&d, &m)) in depths.iter().zip(mask).enumerate() {
                    if m {
                        let base = (d * z + b) * el;
                        dst[base..base + el].copy_from_slice(&s[b * el..(b + 1) * el]);
                    }
                }
            }
        }
        Ok(())
    }

    /// Extract one row along axis 0, dropping that axis.
    ///
    /// # Errors
    ///
    /// Returns an error for rank-0 tensors or out-of-range rows.
    pub fn row(&self, index: usize) -> Result<Tensor> {
        let gathered = self.gather_rows(&[index])?;
        let shape = gathered.shape()[1..].to_vec();
        gathered.reshape(&shape)
    }

    /// Stack `n` copies of `self` along a new leading axis.
    pub fn broadcast_rows(&self, n: usize) -> Tensor {
        let mut out_shape = Vec::with_capacity(self.rank() + 1);
        out_shape.push(n);
        out_shape.extend_from_slice(self.shape());
        let data = match self.data() {
            Data::F64(v) => {
                let mut out = Vec::with_capacity(n * v.len());
                for _ in 0..n {
                    out.extend_from_slice(v);
                }
                Data::F64(out)
            }
            Data::I64(v) => {
                let mut out = Vec::with_capacity(n * v.len());
                for _ in 0..n {
                    out.extend_from_slice(v);
                }
                Data::I64(out)
            }
            Data::Bool(v) => {
                let mut out = Vec::with_capacity(n * v.len());
                for _ in 0..n {
                    out.extend_from_slice(v);
                }
                Data::Bool(out)
            }
        };
        Tensor::new(data, &out_shape).expect("volume matches by construction")
    }

    /// Append `extra` zero rows along axis 0: `[Z, ..] -> [Z + extra, ..]`.
    ///
    /// This is the growth primitive of dynamic batch admission — newly
    /// admitted members land in freshly zeroed lanes, exactly the state a
    /// fresh batch would start from.
    ///
    /// # Errors
    ///
    /// Returns an error for rank-0 tensors.
    pub fn pad_rows(&self, extra: usize) -> Result<Tensor> {
        if self.rank() == 0 {
            return Err(TensorError::InvalidAxis { axis: 0, rank: 0 });
        }
        let mut shape = self.shape().to_vec();
        shape[0] = extra;
        Tensor::concat_rows(&[self.clone(), Tensor::zeros(self.dtype(), &shape)])
    }

    /// Append `extra` zero columns along axis 1:
    /// `[D, Z, ..] -> [D, Z + extra, ..]`.
    ///
    /// Grows a stack-storage tensor when members are admitted into an
    /// in-flight batch; every depth level gains zeroed lanes.
    ///
    /// # Errors
    ///
    /// Returns an error for tensors of rank < 2.
    pub fn pad_axis1(&self, extra: usize) -> Result<Tensor> {
        if self.rank() < 2 {
            return Err(TensorError::InvalidAxis {
                axis: 1,
                rank: self.rank(),
            });
        }
        let d = self.shape()[0];
        let z = self.shape()[1];
        let el: usize = self.shape()[2..].iter().product();
        let mut out_shape = self.shape().to_vec();
        out_shape[1] = z + extra;
        let data = match self.data() {
            Data::F64(v) => {
                let mut out = vec![0.0; d * (z + extra) * el];
                for depth in 0..d {
                    out[depth * (z + extra) * el..depth * (z + extra) * el + z * el]
                        .copy_from_slice(&v[depth * z * el..(depth + 1) * z * el]);
                }
                Data::F64(out)
            }
            Data::I64(v) => {
                let mut out = vec![0; d * (z + extra) * el];
                for depth in 0..d {
                    out[depth * (z + extra) * el..depth * (z + extra) * el + z * el]
                        .copy_from_slice(&v[depth * z * el..(depth + 1) * z * el]);
                }
                Data::I64(out)
            }
            Data::Bool(v) => {
                let mut out = vec![false; d * (z + extra) * el];
                for depth in 0..d {
                    out[depth * (z + extra) * el..depth * (z + extra) * el + z * el]
                        .copy_from_slice(&v[depth * z * el..(depth + 1) * z * el]);
                }
                Data::Bool(out)
            }
        };
        Tensor::new(data, &out_shape)
    }

    /// Select columns along axis 1: `[D, Z, ..] -> [D, indices.len(), ..]`
    /// with `out[d, j, ..] = self[d, indices[j], ..]`.
    ///
    /// Compacts a stack-storage tensor when members retire from an
    /// in-flight batch (the surviving lanes are gathered together).
    ///
    /// # Errors
    ///
    /// Returns an error for tensors of rank < 2 or out-of-range indices.
    pub fn select_axis1(&self, indices: &[usize]) -> Result<Tensor> {
        if self.rank() < 2 {
            return Err(TensorError::InvalidAxis {
                axis: 1,
                rank: self.rank(),
            });
        }
        let d = self.shape()[0];
        let z = self.shape()[1];
        let el: usize = self.shape()[2..].iter().product();
        for &i in indices {
            if i >= z {
                return Err(TensorError::IndexOutOfBounds {
                    index: i,
                    len: z,
                    op: "select_axis1",
                });
            }
        }
        let mut out_shape = self.shape().to_vec();
        out_shape[1] = indices.len();
        let data = match self.data() {
            Data::F64(v) => {
                let mut out = Vec::with_capacity(d * indices.len() * el);
                for depth in 0..d {
                    for &i in indices {
                        let base = (depth * z + i) * el;
                        out.extend_from_slice(&v[base..base + el]);
                    }
                }
                Data::F64(out)
            }
            Data::I64(v) => {
                let mut out = Vec::with_capacity(d * indices.len() * el);
                for depth in 0..d {
                    for &i in indices {
                        let base = (depth * z + i) * el;
                        out.extend_from_slice(&v[base..base + el]);
                    }
                }
                Data::I64(out)
            }
            Data::Bool(v) => {
                let mut out = Vec::with_capacity(d * indices.len() * el);
                for depth in 0..d {
                    for &i in indices {
                        let base = (depth * z + i) * el;
                        out.extend_from_slice(&v[base..base + el]);
                    }
                }
                Data::Bool(out)
            }
        };
        Tensor::new(data, &out_shape)
    }

    /// Concatenate tensors along axis 0. All inputs must agree on dtype
    /// and trailing shape.
    ///
    /// # Errors
    ///
    /// Returns an error if `parts` is empty or shapes/dtypes disagree.
    pub fn concat_rows(parts: &[Tensor]) -> Result<Tensor> {
        let first = parts.first().ok_or(TensorError::DataLength {
            expected: 1,
            got: 0,
        })?;
        if first.rank() == 0 {
            return Err(TensorError::InvalidAxis { axis: 0, rank: 0 });
        }
        let mut total = 0;
        for p in parts {
            if p.rank() == 0 || p.shape()[1..] != first.shape()[1..] || p.dtype() != first.dtype() {
                return Err(TensorError::ShapeMismatch {
                    lhs: first.shape().to_vec(),
                    rhs: p.shape().to_vec(),
                    op: "concat_rows",
                });
            }
            total += p.shape()[0];
        }
        let mut out_shape = first.shape().to_vec();
        out_shape[0] = total;
        let data = match first.data() {
            Data::F64(_) => {
                let mut out = Vec::new();
                for p in parts {
                    per_dtype!(p.data(), p.data(), "concat_rows", |a, _b| {
                        let _ = a;
                    });
                    out.extend_from_slice(p.as_f64()?);
                }
                Data::F64(out)
            }
            Data::I64(_) => {
                let mut out = Vec::new();
                for p in parts {
                    out.extend_from_slice(p.as_i64()?);
                }
                Data::I64(out)
            }
            Data::Bool(_) => {
                let mut out = Vec::new();
                for p in parts {
                    out.extend_from_slice(p.as_bool()?);
                }
                Data::Bool(out)
            }
        };
        Tensor::new(data, &out_shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masked_assign_updates_only_active_rows() {
        let mut t = Tensor::from_f64(&[1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let src = Tensor::from_f64(&[9.0, 9.0, 8.0, 8.0], &[2, 2]).unwrap();
        t.masked_assign_rows(&[false, true], &src).unwrap();
        assert_eq!(t.as_f64().unwrap(), &[1.0, 2.0, 8.0, 8.0]);
    }

    #[test]
    fn masked_assign_scalar_rows() {
        let mut t = Tensor::from_i64(&[1, 2, 3], &[3]).unwrap();
        let src = Tensor::from_i64(&[7, 7, 7], &[3]).unwrap();
        t.masked_assign_rows(&[true, false, true], &src).unwrap();
        assert_eq!(t.as_i64().unwrap(), &[7, 2, 7]);
    }

    #[test]
    fn masked_assign_checks_mask_len() {
        let mut t = Tensor::from_f64(&[1.0, 2.0], &[2]).unwrap();
        let src = t.clone();
        assert!(t.masked_assign_rows(&[true], &src).is_err());
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let t = Tensor::from_f64(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0], &[3, 2]).unwrap();
        let g = t.gather_rows(&[2, 0]).unwrap();
        assert_eq!(g.as_f64().unwrap(), &[4.0, 5.0, 0.0, 1.0]);
        let mut dst = Tensor::zeros(crate::DType::F64, &[3, 2]);
        dst.scatter_rows(&[2, 0], &g).unwrap();
        assert_eq!(dst.as_f64().unwrap(), &[0.0, 1.0, 0.0, 0.0, 4.0, 5.0]);
    }

    #[test]
    fn gather_rows_bounds_check() {
        let t = Tensor::from_f64(&[1.0], &[1]).unwrap();
        assert!(t.gather_rows(&[1]).is_err());
    }

    #[test]
    fn depth_gather_scatter() {
        // Stack of shape [D=2, Z=3] with distinct values.
        let mut stack = Tensor::from_f64(&[0.0, 1.0, 2.0, 10.0, 11.0, 12.0], &[2, 3]).unwrap();
        let top = stack.gather_at_depth(&[0, 1, 0]).unwrap();
        assert_eq!(top.as_f64().unwrap(), &[0.0, 11.0, 2.0]);
        let src = Tensor::from_f64(&[7.0, 8.0, 9.0], &[3]).unwrap();
        stack
            .scatter_at_depth(&[1, 0, 1], &[true, true, false], &src)
            .unwrap();
        assert_eq!(stack.as_f64().unwrap(), &[0.0, 8.0, 2.0, 7.0, 11.0, 12.0]);
    }

    #[test]
    fn gather_rows_into_equals_gather_rows_whatever_out_held() {
        let t = Tensor::from_f64(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]).unwrap();
        let flags = Tensor::from_bool(&[true, false, true], &[3]).unwrap();
        // Reused across shapes, dtypes and ranks, and while shared.
        let mut out = Tensor::zeros(crate::DType::I64, &[0]);
        for (src, idx) in [
            (&t, &[2usize, 0][..]),
            (&t, &[1][..]),
            (&flags, &[0, 0, 1][..]),
            (&t, &[][..]),
        ] {
            src.gather_rows_into(idx, &mut out).unwrap();
            assert_eq!(out, src.gather_rows(idx).unwrap());
        }
        t.gather_rows_into(&[0, 2], &mut out).unwrap();
        let held = out.clone();
        t.gather_rows_into(&[1], &mut out).unwrap();
        assert_eq!(held.as_f64().unwrap(), &[1.0, 2.0, 5.0, 6.0]);
        assert_eq!(out.as_f64().unwrap(), &[3.0, 4.0]);
        // An unshared buffer of the right dtype is written in place.
        let before = out.as_f64().unwrap().as_ptr();
        t.gather_rows_into(&[2], &mut out).unwrap();
        assert_eq!(out.as_f64().unwrap().as_ptr(), before);
        // Errors leave `out` alone.
        assert!(t.gather_rows_into(&[3], &mut out).is_err());
        assert!(Tensor::scalar(1.0)
            .gather_rows_into(&[0], &mut out)
            .is_err());
        assert_eq!(out.as_f64().unwrap(), &[5.0, 6.0]);
    }

    #[test]
    fn depth_gather_with_element_shape() {
        // Stack [D=2, Z=2, 2].
        let stack =
            Tensor::from_f64(&[0.0, 1.0, 2.0, 3.0, 10.0, 11.0, 12.0, 13.0], &[2, 2, 2]).unwrap();
        let top = stack.gather_at_depth(&[1, 0]).unwrap();
        assert_eq!(top.shape(), &[2, 2]);
        assert_eq!(top.as_f64().unwrap(), &[10.0, 11.0, 2.0, 3.0]);
    }

    #[test]
    fn depth_bounds_only_checked_for_active() {
        let mut stack = Tensor::zeros(crate::DType::F64, &[1, 2]);
        let src = Tensor::zeros(crate::DType::F64, &[2]);
        // Depth 5 out of range but masked off: fine.
        stack
            .scatter_at_depth(&[0, 5], &[true, false], &src)
            .unwrap();
        // Active out-of-range: error.
        assert!(stack
            .scatter_at_depth(&[0, 5], &[true, true], &src)
            .is_err());
    }

    #[test]
    fn row_and_broadcast_rows() {
        let t = Tensor::from_f64(&[1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let r = t.row(1).unwrap();
        assert_eq!(r.shape(), &[2]);
        assert_eq!(r.as_f64().unwrap(), &[3.0, 4.0]);
        let b = r.broadcast_rows(3);
        assert_eq!(b.shape(), &[3, 2]);
        assert_eq!(b.as_f64().unwrap(), &[3.0, 4.0, 3.0, 4.0, 3.0, 4.0]);
    }

    #[test]
    fn pad_rows_appends_zero_lanes() {
        let t = Tensor::from_f64(&[1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let p = t.pad_rows(2).unwrap();
        assert_eq!(p.shape(), &[4, 2]);
        assert_eq!(
            p.as_f64().unwrap(),
            &[1.0, 2.0, 3.0, 4.0, 0.0, 0.0, 0.0, 0.0]
        );
        assert!(Tensor::scalar(1.0).pad_rows(1).is_err());
    }

    #[test]
    fn pad_axis1_grows_every_depth_level() {
        // Stack [D=2, Z=2]: depths keep their values, new lanes are zero.
        let t = Tensor::from_i64(&[1, 2, 10, 20], &[2, 2]).unwrap();
        let p = t.pad_axis1(1).unwrap();
        assert_eq!(p.shape(), &[2, 3]);
        assert_eq!(p.as_i64().unwrap(), &[1, 2, 0, 10, 20, 0]);
        assert!(Tensor::from_i64(&[1], &[1]).unwrap().pad_axis1(1).is_err());
    }

    #[test]
    fn select_axis1_compacts_lanes() {
        // Stack [D=2, Z=3, 1].
        let t = Tensor::from_f64(&[0.0, 1.0, 2.0, 10.0, 11.0, 12.0], &[2, 3, 1]).unwrap();
        let s = t.select_axis1(&[2, 0]).unwrap();
        assert_eq!(s.shape(), &[2, 2, 1]);
        assert_eq!(s.as_f64().unwrap(), &[2.0, 0.0, 12.0, 10.0]);
        assert!(t.select_axis1(&[3]).is_err());
        // Empty selection shrinks to zero lanes.
        assert_eq!(t.select_axis1(&[]).unwrap().shape(), &[2, 0, 1]);
    }

    #[test]
    fn pad_then_select_roundtrip() {
        let t = Tensor::from_f64(&[1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let grown = t.pad_axis1(3).unwrap();
        let back = grown.select_axis1(&[0, 1]).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn concat_rows_joins() {
        let a = Tensor::from_i64(&[1, 2], &[2]).unwrap();
        let b = Tensor::from_i64(&[3], &[1]).unwrap();
        let c = Tensor::concat_rows(&[a, b]).unwrap();
        assert_eq!(c.as_i64().unwrap(), &[1, 2, 3]);
        assert!(Tensor::concat_rows(&[]).is_err());
    }
}
