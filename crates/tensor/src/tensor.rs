//! The dense [`Tensor`] type and its constructors/accessors.

use std::fmt;
use std::sync::Arc;

use crate::dtype::{DType, Data, Element, Scalar};
use crate::error::{Result, TensorError};
use crate::shape::volume;

/// A dense, row-major N-dimensional array of `f64`, `i64`, or `bool`.
///
/// This is the batched-array substrate the autobatching runtimes execute
/// against. By convention the runtimes use axis 0 as the batch dimension
/// of every per-lane tensor, and (for stacked variables) axis 1 of a
/// `[Z, D, ..]` stack tensor as the stack-depth dimension, but `Tensor`
/// itself is plain N-d storage with no special axes.
///
/// # Copy-on-write storage
///
/// The payload lives behind an [`Arc`], so [`Clone`] is O(1) — clones
/// share storage until one of them is mutated. Every mutating accessor
/// ([`Tensor::set`], the in-place kernels) goes through
/// [`Arc::make_mut`], which copies the buffer first if (and only if) it
/// is shared. A shared buffer is therefore never mutated observably:
/// holding a clone — an observer snapshot, a cached stack top — is
/// always safe, and the interpreter's hot loop pays a deep copy only on
/// the first write after a share, not on every clone. [`Tensor::reshape`]
/// shares storage with the source for the same reason.
///
/// The **into-buffer kernels** ([`Tensor::refill_with`],
/// [`Tensor::copy_into`], [`Tensor::map_into`], [`Tensor::zip_into`],
/// [`Tensor::gather_rows_into`]) overwrite a caller's tensor instead of
/// building one. Refilling a payload in place is legal exactly when
/// nothing else holds it ([`Tensor::is_unique`]): each kernel checks
/// that itself and otherwise writes into a fresh payload, leaving every
/// other holder's bits as they were. A caller that keeps unique tensors
/// between uses therefore writes its results without allocating, and a
/// caller that lets one be shared meanwhile pays one allocation, never
/// a corruption. The masked kernels ([`Tensor::masked_assign_rows`],
/// [`Tensor::gather_at_depth_into`], the scatters) copy a shared
/// destination first, like every other write.
///
/// # Examples
///
/// ```
/// use autobatch_tensor::{Scalar, Tensor};
///
/// let t = Tensor::from_f64(&[1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// assert_eq!(t.shape(), &[2, 2]);
/// assert_eq!(t.get(&[1, 0])?, Scalar::F64(3.0));
///
/// // Clones are O(1) and share storage until mutated.
/// let mut u = t.clone();
/// assert!(std::ptr::eq(t.data(), u.data()));
/// u.set(&[0, 0], 9.0)?;
/// assert!(!std::ptr::eq(t.data(), u.data()));
/// assert_eq!(t.get(&[0, 0])?, Scalar::F64(1.0)); // the sibling is untouched
/// # Ok::<(), autobatch_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    /// Shared shape: cloning a tensor must not touch the heap, so the
    /// dims live behind an `Arc` just like the payload.
    shape: Arc<[usize]>,
    data: Arc<Data>,
}

impl Tensor {
    /// Construct a tensor from raw storage and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DataLength`] if `data.len()` does not equal
    /// the shape's volume.
    pub fn new(data: Data, shape: &[usize]) -> Result<Tensor> {
        let expected = volume(shape);
        if data.len() != expected {
            return Err(TensorError::DataLength {
                expected,
                got: data.len(),
            });
        }
        Ok(Tensor {
            shape: Arc::from(shape),
            data: Arc::new(data),
        })
    }

    /// Construct an `f64` tensor from a slice.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DataLength`] on a shape/data length mismatch.
    pub fn from_f64(data: &[f64], shape: &[usize]) -> Result<Tensor> {
        Tensor::new(Data::F64(data.to_vec()), shape)
    }

    /// Construct an `i64` tensor from a slice.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DataLength`] on a shape/data length mismatch.
    pub fn from_i64(data: &[i64], shape: &[usize]) -> Result<Tensor> {
        Tensor::new(Data::I64(data.to_vec()), shape)
    }

    /// Construct a `bool` tensor from a slice.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DataLength`] on a shape/data length mismatch.
    pub fn from_bool(data: &[bool], shape: &[usize]) -> Result<Tensor> {
        Tensor::new(Data::Bool(data.to_vec()), shape)
    }

    /// A rank-0 (scalar) tensor holding one element.
    pub fn scalar(value: impl Into<Scalar>) -> Tensor {
        match value.into() {
            Scalar::F64(x) => Tensor {
                shape: Arc::from([].as_slice()),
                data: Arc::new(Data::F64(vec![x])),
            },
            Scalar::I64(x) => Tensor {
                shape: Arc::from([].as_slice()),
                data: Arc::new(Data::I64(vec![x])),
            },
            Scalar::Bool(x) => Tensor {
                shape: Arc::from([].as_slice()),
                data: Arc::new(Data::Bool(vec![x])),
            },
        }
    }

    /// A tensor of the given shape filled with `value`.
    pub fn full(shape: &[usize], value: impl Into<Scalar>) -> Tensor {
        let n = volume(shape);
        let data = match value.into() {
            Scalar::F64(x) => Data::F64(vec![x; n]),
            Scalar::I64(x) => Data::I64(vec![x; n]),
            Scalar::Bool(x) => Data::Bool(vec![x; n]),
        };
        Tensor {
            shape: Arc::from(shape),
            data: Arc::new(data),
        }
    }

    /// A zero-filled tensor (`0.0` / `0` / `false`).
    pub fn zeros(dtype: DType, shape: &[usize]) -> Tensor {
        Tensor {
            shape: Arc::from(shape),
            data: Arc::new(Data::zeros(dtype, volume(shape))),
        }
    }

    /// The shape of the tensor.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// The number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The element type.
    pub fn dtype(&self) -> DType {
        self.data.dtype()
    }

    /// The size in bytes of the payload, as used by the cost model.
    pub fn size_bytes(&self) -> usize {
        self.len() * self.dtype().size_bytes()
    }

    /// Borrow the raw storage.
    pub fn data(&self) -> &Data {
        &self.data
    }

    /// A tensor with `self`'s shape and fresh storage, sharing the
    /// shape allocation — the allocation-minimal way for a kernel to
    /// build a same-shaped result.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DataLength`] if `data.len()` differs from
    /// `self.len()`.
    pub fn like(&self, data: Data) -> Result<Tensor> {
        if data.len() != self.len() {
            return Err(TensorError::DataLength {
                expected: self.len(),
                got: data.len(),
            });
        }
        Ok(Tensor {
            shape: Arc::clone(&self.shape),
            data: Arc::new(data),
        })
    }

    /// A tensor of `shape` holding `data`, for a kernel that already holds
    /// the shape allocation: an operand's, or one it built once.
    pub(crate) fn from_parts(shape: Arc<[usize]>, data: Data) -> Tensor {
        debug_assert_eq!(volume(&shape), data.len());
        Tensor {
            shape,
            data: Arc::new(data),
        }
    }

    /// The shape allocation, for a same-shaped kernel result to share.
    pub(crate) fn shape_handle(&self) -> &Arc<[usize]> {
        &self.shape
    }

    /// Whether nothing else holds this tensor's payload, so that
    /// refilling or writing it in place copies nothing and no other
    /// holder can see the write.
    pub fn is_unique(&self) -> bool {
        Arc::strong_count(&self.data) == 1
    }

    /// Turn `self` into a `T` tensor of `shape` holding what `write`
    /// appends to its emptied payload: exactly the shape's volume of
    /// elements. This is the into-buffer form of a constructor. The
    /// payload's allocation is kept when nothing shares it and it holds
    /// `T`s, and the shape's when it already is `shape` or nothing shares
    /// it and its rank is `shape`'s; anything else is allocated afresh, so
    /// a share of the old payload never sees the write (see the
    /// copy-on-write section of [`Tensor`]).
    ///
    /// # Panics
    ///
    /// If `write` appends any other number of elements.
    pub fn refill_with<T: Element>(&mut self, shape: &[usize], write: impl FnOnce(&mut Vec<T>)) {
        if *self.shape != *shape {
            match Arc::get_mut(&mut self.shape) {
                Some(dims) if dims.len() == shape.len() => dims.copy_from_slice(shape),
                _ => self.shape = Arc::from(shape),
            }
        }
        let values = self.refill_payload();
        write(values);
        assert_eq!(
            values.len(),
            volume(shape),
            "refill_with: wrong element count"
        );
    }

    /// Make `out` a copy of `self`, in `out`'s own buffers when nothing
    /// shares them and its payload holds `self`'s dtype (see
    /// [`Tensor::refill_with`]): the into-buffer form of a deep copy.
    pub fn copy_into(&self, out: &mut Tensor) {
        fn go<T: Element>(v: &[T], out: &mut Tensor) {
            out.refill_payload().extend_from_slice(v);
        }
        out.adopt_shape(&self.shape);
        match self.data() {
            Data::F64(v) => go(v, out),
            Data::I64(v) => go(v, out),
            Data::Bool(v) => go(v, out),
        }
    }

    /// Give `self` the shape `like` has, sharing `like`'s allocation
    /// unless `self` already has that shape.
    pub(crate) fn adopt_shape(&mut self, like: &Arc<[usize]>) {
        if self.shape != *like {
            self.shape = Arc::clone(like);
        }
    }

    /// The payload, emptied, as the vector of `T`s the caller refills:
    /// the current one when nothing shares it and it holds `T`s (its
    /// capacity kept), else a fresh one. The caller must push exactly the
    /// shape's volume of elements before the tensor is read.
    pub(crate) fn refill_payload<T: Element>(&mut self) -> &mut Vec<T> {
        let reusable = Arc::get_mut(&mut self.data).is_some_and(|d| T::values_mut(d).is_some());
        if !reusable {
            self.data = Arc::new(T::wrap(Vec::new()));
        }
        let data = Arc::get_mut(&mut self.data).expect("unshared: checked or just built");
        let values = T::values_mut(data).expect("holds T: checked or just built");
        values.clear();
        values
    }

    /// Turn `self` into an empty-payload tensor that will hold `rows`
    /// rows shaped like `like`'s, keeping the shape and payload
    /// allocations when nobody shares them and the dtype matches. The
    /// caller must append exactly `rows` rows to the returned storage
    /// before the tensor is read.
    pub(crate) fn reset_rows(&mut self, rows: usize, like: &Tensor) -> &mut Data {
        match Arc::get_mut(&mut self.shape) {
            Some(shape) if shape.len() == like.rank() => {
                shape.copy_from_slice(like.shape());
                shape[0] = rows;
            }
            _ => {
                let mut shape = like.shape().to_vec();
                shape[0] = rows;
                self.shape = Arc::from(shape);
            }
        }
        let reusable =
            Arc::get_mut(&mut self.data).is_some_and(|data| data.dtype() == like.dtype());
        if !reusable {
            self.data = Arc::new(Data::zeros(like.dtype(), 0));
        }
        let data = Arc::get_mut(&mut self.data).expect("unshared: checked or just built");
        match data {
            Data::F64(v) => v.clear(),
            Data::I64(v) => v.clear(),
            Data::Bool(v) => v.clear(),
        }
        data
    }

    /// The payload, unshared, for kernel `op` to write elements of `src`
    /// into. The dtypes are compared first, so a refused write leaves
    /// `self` sharing whatever buffer it shared.
    pub(crate) fn payload_like(&mut self, src: &Tensor, op: &'static str) -> Result<&mut Data> {
        if self.dtype() != src.dtype() {
            return Err(TensorError::DTypeMismatch {
                got: src.dtype(),
                expected: "matching dtypes",
                op,
            });
        }
        Ok(Arc::make_mut(&mut self.data))
    }

    /// Borrow the payload as `&[f64]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DTypeMismatch`] if the dtype is not `f64`.
    pub fn as_f64(&self) -> Result<&[f64]> {
        match &*self.data {
            Data::F64(v) => Ok(v),
            _ => Err(self.dtype_err("f64", "as_f64")),
        }
    }

    /// Borrow the payload as `&[i64]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DTypeMismatch`] if the dtype is not `i64`.
    pub fn as_i64(&self) -> Result<&[i64]> {
        match &*self.data {
            Data::I64(v) => Ok(v),
            _ => Err(self.dtype_err("i64", "as_i64")),
        }
    }

    /// Borrow the payload as `&[bool]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DTypeMismatch`] if the dtype is not `bool`.
    pub fn as_bool(&self) -> Result<&[bool]> {
        match &*self.data {
            Data::Bool(v) => Ok(v),
            _ => Err(self.dtype_err("bool", "as_bool")),
        }
    }

    fn dtype_err(&self, expected: &'static str, op: &'static str) -> TensorError {
        TensorError::DTypeMismatch {
            got: self.dtype(),
            expected,
            op,
        }
    }

    /// Linear (row-major) index of a multi-index.
    ///
    /// # Errors
    ///
    /// Returns an error if the index rank or any coordinate is out of range.
    pub fn linear_index(&self, index: &[usize]) -> Result<usize> {
        if index.len() != self.rank() {
            return Err(TensorError::ShapeMismatch {
                lhs: index.to_vec(),
                rhs: self.shape.to_vec(),
                op: "linear_index",
            });
        }
        let mut lin = 0;
        for (d, (&i, &dim)) in index.iter().zip(self.shape.iter()).enumerate() {
            if i >= dim {
                return Err(TensorError::IndexOutOfBounds {
                    index: i,
                    len: dim,
                    op: "linear_index",
                });
            }
            let _ = d;
            lin = lin * dim + i;
        }
        Ok(lin)
    }

    /// Read one element as a [`Scalar`].
    ///
    /// # Errors
    ///
    /// Returns an error if the index is invalid.
    pub fn get(&self, index: &[usize]) -> Result<Scalar> {
        let lin = self.linear_index(index)?;
        Ok(match &*self.data {
            Data::F64(v) => Scalar::F64(v[lin]),
            Data::I64(v) => Scalar::I64(v[lin]),
            Data::Bool(v) => Scalar::Bool(v[lin]),
        })
    }

    /// Write one element.
    ///
    /// # Errors
    ///
    /// Returns an error if the index is invalid or the scalar's dtype does
    /// not match the tensor's.
    pub fn set(&mut self, index: &[usize], value: impl Into<Scalar>) -> Result<()> {
        let lin = self.linear_index(index)?;
        match (Arc::make_mut(&mut self.data), value.into()) {
            (Data::F64(v), Scalar::F64(x)) => v[lin] = x,
            (Data::I64(v), Scalar::I64(x)) => v[lin] = x,
            (Data::Bool(v), Scalar::Bool(x)) => v[lin] = x,
            (d, s) => {
                let got = s.dtype();
                let _ = d;
                return Err(TensorError::DTypeMismatch {
                    got,
                    expected: "matching tensor dtype",
                    op: "set",
                });
            }
        }
        Ok(())
    }

    /// Reinterpret the tensor with a new shape of the same volume.
    /// Zero-copy: the result shares the source's storage.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DataLength`] if the volumes differ.
    pub fn reshape(&self, shape: &[usize]) -> Result<Tensor> {
        if volume(shape) != self.len() {
            return Err(TensorError::DataLength {
                expected: volume(shape),
                got: self.len(),
            });
        }
        Ok(Tensor {
            shape: Arc::from(shape),
            data: Arc::clone(&self.data),
        })
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor<{}>{:?} ", self.dtype(), self.shape)?;
        const MAX: usize = 16;
        match &*self.data {
            Data::F64(v) => write_truncated(f, v, MAX),
            Data::I64(v) => write_truncated(f, v, MAX),
            Data::Bool(v) => write_truncated(f, v, MAX),
        }
    }
}

fn write_truncated<T: fmt::Debug>(f: &mut fmt::Formatter<'_>, v: &[T], max: usize) -> fmt::Result {
    if v.len() <= max {
        write!(f, "{v:?}")
    } else {
        write!(f, "{:?}... ({} elements)", &v[..max], v.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_checks_length() {
        assert!(Tensor::from_f64(&[1.0, 2.0], &[3]).is_err());
        assert!(Tensor::from_f64(&[1.0, 2.0, 3.0], &[3]).is_ok());
    }

    #[test]
    fn scalar_tensor_is_rank_zero() {
        let t = Tensor::scalar(5.0);
        assert_eq!(t.rank(), 0);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&[]).unwrap(), Scalar::F64(5.0));
    }

    #[test]
    fn full_and_zeros() {
        let t = Tensor::full(&[2, 3], 7i64);
        assert_eq!(t.as_i64().unwrap(), &[7; 6]);
        let z = Tensor::zeros(DType::Bool, &[4]);
        assert_eq!(z.as_bool().unwrap(), &[false; 4]);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut t = Tensor::zeros(DType::F64, &[2, 2]);
        t.set(&[1, 1], 9.0).unwrap();
        assert_eq!(t.get(&[1, 1]).unwrap(), Scalar::F64(9.0));
        assert_eq!(t.get(&[0, 1]).unwrap(), Scalar::F64(0.0));
        assert!(t.set(&[2, 0], 1.0).is_err());
        assert!(t.set(&[0, 0], 1i64).is_err());
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_i64(&[0, 1, 2, 3, 4, 5], &[6]).unwrap();
        let t = t.reshape(&[2, 3]).unwrap();
        assert_eq!(t.get(&[1, 2]).unwrap(), Scalar::I64(5));
        assert!(t.reshape(&[4]).is_err());
    }

    #[test]
    fn display_truncates() {
        let t = Tensor::zeros(DType::F64, &[100]);
        let s = t.to_string();
        assert!(s.contains("100 elements"));
    }

    #[test]
    fn accessor_dtype_errors() {
        let t = Tensor::zeros(DType::F64, &[2]);
        assert!(t.as_i64().is_err());
        assert!(t.as_bool().is_err());
        assert!(t.as_f64().is_ok());
    }
}
