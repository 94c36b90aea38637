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
//!   batch member may sit at a different stack depth. Stack storage is
//!   lane-major, `[Z, D, ..]`: a lane's frames are its row, so adding,
//!   dropping or copying lanes is the same row kernel as for any other
//!   per-lane tensor.
//!
//! Every kernel here is validation, index arithmetic, and one loop
//! generic over the element type. The type is chosen in two places, both
//! in `dtype.rs`: `fresh_like!` builds a new payload of its source's
//! dtype, and `write_like!` writes into a payload from a source of the
//! same dtype (`Tensor::payload_like` compares the two before it unshares
//! a destination tensor's buffer, so a refused write copies nothing).

use crate::dtype::{fresh_like, write_like, Data};
use crate::error::{Result, TensorError};
use crate::tensor::Tensor;

/// Number of elements in one "row" (everything after axis 0).
fn row_len(t: &Tensor) -> Result<usize> {
    if t.rank() == 0 {
        return Err(TensorError::InvalidAxis { axis: 0, rank: 0 });
    }
    Ok(t.shape()[1..].iter().product())
}

/// `(Z, D, elements per frame)` of a stack-storage tensor `[Z, D, ..]`.
fn stack_dims(t: &Tensor) -> Result<(usize, usize, usize)> {
    if t.rank() < 2 {
        return Err(TensorError::InvalidAxis {
            axis: 1,
            rank: t.rank(),
        });
    }
    let el = t.shape()[2..].iter().product();
    Ok((t.shape()[0], t.shape()[1], el))
}

/// The first of `indices` that does not name one of `len` positions, as
/// kernel `op`'s error.
fn check_indices(indices: &[usize], len: usize, op: &'static str) -> Result<()> {
    match indices.iter().find(|&&i| i >= len) {
        Some(&index) => Err(TensorError::IndexOutOfBounds { index, len, op }),
        None => Ok(()),
    }
}

/// Copy `el` elements from `src[from..]` to `dst[to..]` for each
/// `(to, from)` offset pair (already bounds-checked).
fn copy_at<T: Copy>(dst: &mut [T], src: &[T], el: usize, at: impl Iterator<Item = (usize, usize)>) {
    for (to, from) in at {
        dst[to..to + el].copy_from_slice(&src[from..from + el]);
    }
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
    write_like!(out, src => |o, v| go(v, indices, rl, o))
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
        fn go<T: Copy>(d: &mut [T], s: &[T], mask: &[bool], rl: usize) {
            for (r, &m) in mask.iter().enumerate() {
                if m {
                    d[r * rl..(r + 1) * rl].copy_from_slice(&s[r * rl..(r + 1) * rl]);
                }
            }
        }
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
        let dst = self.payload_like(src, "masked_assign_rows")?;
        write_like!(dst, src.data() => |d, s| go(d, s, mask, rl));
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
        check_indices(indices, self.shape()[0], "gather_rows")?;
        Ok(rl)
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
        fn go<T: Copy>(d: &mut [T], s: &[T], indices: &[usize], rl: usize) {
            for (j, &i) in indices.iter().enumerate() {
                d[i * rl..(i + 1) * rl].copy_from_slice(&s[j * rl..(j + 1) * rl]);
            }
        }
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
        check_indices(indices, self.shape()[0], "scatter_rows")?;
        let dst = self.payload_like(src, "scatter_rows")?;
        write_like!(dst, src.data() => |d, s| go(d, s, indices, rl));
        Ok(())
    }

    /// Masked stack read **into `out`**: for a stack tensor of shape
    /// `[Z, D, ..]`, write `self[b, depths[b], ..]` into row `b` of `out`
    /// (shape `[Z, ..]`) for every member where `mask[b]` is `true`; the
    /// other rows keep their values. This is Algorithm 2's `POP` landing
    /// the restored frames straight in the cached top, in place unless
    /// something shares `out`'s payload (copy-on-write). Depths of
    /// members outside the mask are not read.
    ///
    /// # Errors
    ///
    /// Returns an error on rank/shape/dtype mismatch or a masked depth
    /// out of range; `out` is untouched then.
    pub fn gather_at_depth_into(
        &self,
        depths: &[usize],
        mask: &[bool],
        out: &mut Tensor,
    ) -> Result<()> {
        let (el, at) = self.frame_io(depths, mask, out, "gather_at_depth_into")?;
        let dst = out.payload_like(self, "gather_at_depth_into")?;
        write_like!(dst, self.data() => |d, v| copy_at(d, v, el, at));
        Ok(())
    }

    /// The elements per frame of a stack tensor `[Z, D, ..]` that kernel
    /// `op` moves frames between and `frames` (`[Z, ..]`), and each masked
    /// member's `(row, frame)` offsets into `frames` and `self`, once
    /// `depths` and `mask` are known to hold one entry per member,
    /// `frames` to be shaped like one frame per member, and every masked
    /// depth to name a frame (checked in that order).
    fn frame_io<'a>(
        &self,
        depths: &'a [usize],
        mask: &'a [bool],
        frames: &Tensor,
        op: &'static str,
    ) -> Result<(usize, impl Iterator<Item = (usize, usize)> + 'a)> {
        let (z, d_max, el) = stack_dims(self)?;
        for len in [depths.len(), mask.len()] {
            if len != z {
                return Err(TensorError::MaskLength {
                    expected: z,
                    got: len,
                });
            }
        }
        let fs = frames.shape();
        if fs.is_empty() || fs[0] != z || fs[1..] != self.shape()[2..] {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape().to_vec(),
                rhs: fs.to_vec(),
                op,
            });
        }
        match depths.iter().zip(mask).find(|&(&d, &m)| m && d >= d_max) {
            Some((&index, _)) => Err(TensorError::IndexOutOfBounds {
                index,
                len: d_max,
                op,
            }),
            None => Ok((
                el,
                depths
                    .iter()
                    .zip(mask)
                    .enumerate()
                    .filter(|&(_, (_, &m))| m)
                    .map(move |(b, (&d, _))| (b * el, (b * d_max + d) * el)),
            )),
        }
    }

    /// Stack write: for a stack tensor of shape `[Z, D, ..]`, write row `b`
    /// of `src` (shape `[Z, ..]`) into `self[b, depths[b], ..]` for every
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
        let (el, at) = self.frame_io(depths, mask, src, "scatter_at_depth")?;
        let at = at.map(|(row, frame)| (frame, row));
        let dst = self.payload_like(src, "scatter_at_depth")?;
        write_like!(dst, src.data() => |d, s| copy_at(d, s, el, at));
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

    /// Append `extra` zero rows along axis 0: `[Z, ..] -> [Z + extra, ..]`.
    ///
    /// This is the growth primitive of dynamic batch admission — newly
    /// admitted members land in freshly zeroed lanes, exactly the state a
    /// fresh batch would start from. It grows stack storage `[Z, D, ..]`
    /// too: each new lane gets `D` zeroed frames. The result is
    /// allocated once.
    ///
    /// # Errors
    ///
    /// Returns an error for rank-0 tensors.
    pub fn pad_rows(&self, extra: usize) -> Result<Tensor> {
        fn go<T: Copy + Default>(v: &[T], len: usize) -> Vec<T> {
            let mut out = Vec::with_capacity(len);
            out.extend_from_slice(v);
            out.resize(len, T::default());
            out
        }
        let rl = row_len(self)?;
        let mut shape = self.shape().to_vec();
        shape[0] += extra;
        let len = shape[0] * rl;
        let data = fresh_like!(self.data() => |v| go(v, len));
        Tensor::new(data, &shape)
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
        let len = total * first.shape()[1..].iter().product::<usize>();
        let mut data = fresh_like!(first.data() => |_first| Vec::with_capacity(len));
        for p in parts {
            write_like!(&mut data, p.data() => |o, v| o.extend_from_slice(v));
        }
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
        // Stack of shape [Z=3, D=2] with distinct values.
        let mut stack = Tensor::from_f64(&[0.0, 10.0, 1.0, 11.0, 2.0, 12.0], &[3, 2]).unwrap();
        let mut top = Tensor::zeros(crate::DType::F64, &[3]);
        stack
            .gather_at_depth_into(&[0, 1, 0], &[true; 3], &mut top)
            .unwrap();
        assert_eq!(top.as_f64().unwrap(), &[0.0, 11.0, 2.0]);
        let src = Tensor::from_f64(&[7.0, 8.0, 9.0], &[3]).unwrap();
        stack
            .scatter_at_depth(&[1, 0, 1], &[true, true, false], &src)
            .unwrap();
        assert_eq!(stack.as_f64().unwrap(), &[0.0, 7.0, 8.0, 11.0, 2.0, 12.0]);
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
        // Stack [Z=2, D=2, 2].
        let stack =
            Tensor::from_f64(&[0.0, 1.0, 10.0, 11.0, 2.0, 3.0, 12.0, 13.0], &[2, 2, 2]).unwrap();
        let mut top = Tensor::zeros(crate::DType::F64, &[2, 2]);
        stack
            .gather_at_depth_into(&[1, 0], &[true, true], &mut top)
            .unwrap();
        assert_eq!(top.as_f64().unwrap(), &[10.0, 11.0, 2.0, 3.0]);
        // A member outside the mask keeps its row, and its depth is not
        // read; a top of another shape is refused.
        stack
            .gather_at_depth_into(&[0, 9], &[true, false], &mut top)
            .unwrap();
        assert_eq!(top.as_f64().unwrap(), &[0.0, 1.0, 2.0, 3.0]);
        let mut flat = Tensor::zeros(crate::DType::F64, &[2]);
        assert!(stack
            .gather_at_depth_into(&[1, 0], &[true, true], &mut flat)
            .is_err());
    }

    #[test]
    fn depth_bounds_only_checked_for_active() {
        let mut stack = Tensor::zeros(crate::DType::F64, &[2, 1]);
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
    fn a_refused_write_leaves_the_destination_shared_and_names_its_kernel() {
        let refused = |op| {
            Err(TensorError::DTypeMismatch {
                got: crate::DType::I64,
                expected: "matching dtypes",
                op,
            })
        };
        let src = Tensor::from_i64(&[7, 8], &[2]).unwrap();
        let rows = Tensor::zeros(crate::DType::F64, &[2]);
        let mut t = rows.clone();
        let masked = t.masked_assign_rows(&[true, true], &src);
        assert_eq!(masked, refused("masked_assign_rows"));
        assert_eq!(t.scatter_rows(&[0, 1], &src), refused("scatter_rows"));
        assert!(std::ptr::eq(t.data(), rows.data()));
        let stack = Tensor::zeros(crate::DType::F64, &[2, 1]);
        let mut t = stack.clone();
        let pushed = t.scatter_at_depth(&[0, 0], &[true, true], &src);
        assert_eq!(pushed, refused("scatter_at_depth"));
        assert!(std::ptr::eq(t.data(), stack.data()));
    }

    #[test]
    fn scatter_at_depth_reports_the_length_that_is_wrong() {
        let mut stack = Tensor::zeros(crate::DType::F64, &[2, 1]);
        let src = Tensor::zeros(crate::DType::F64, &[2]);
        let short = |got| Err(TensorError::MaskLength { expected: 2, got });
        assert_eq!(stack.scatter_at_depth(&[0, 0], &[true], &src), short(1));
        let long = [0, 0, 0];
        assert_eq!(stack.scatter_at_depth(&long, &[true, true], &src), short(3));
    }

    #[test]
    fn concat_rows_reserves_its_payload_once() {
        // Doubling from the first part's five would end at twenty.
        let part = Tensor::full(&[5, 1], 1.0);
        let joined = Tensor::concat_rows(&[part.clone(), part.clone(), part]).unwrap();
        let Data::F64(v) = joined.data() else {
            panic!("f64 parts concatenate to f64");
        };
        assert_eq!((v.len(), v.capacity()), (15, 15));
    }

    #[test]
    fn row_drops_axis() {
        let t = Tensor::from_f64(&[1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let r = t.row(1).unwrap();
        assert_eq!(r.shape(), &[2]);
        assert_eq!(r.as_f64().unwrap(), &[3.0, 4.0]);
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
        // A tensor of no rows keeps its row length.
        let empty = Tensor::zeros(crate::DType::I64, &[0, 2, 3]);
        assert_eq!(
            empty.pad_rows(1).unwrap(),
            Tensor::zeros(crate::DType::I64, &[1, 2, 3])
        );
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
