//! Element types and raw storage for tensors.

use std::fmt;

/// The element type of a [`Tensor`](crate::Tensor).
///
/// The autobatching runtimes manipulate floating-point data (model state),
/// integer data (counters, RNG state, recursion bookkeeping) and boolean
/// data (branch conditions, masks), so those are the three supported
/// element types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DType {
    /// 64-bit IEEE-754 float.
    F64,
    /// 64-bit signed integer.
    I64,
    /// Boolean.
    Bool,
}

impl DType {
    /// Size of one element in bytes, as used by the accelerator cost model.
    pub fn size_bytes(self) -> usize {
        match self {
            DType::F64 | DType::I64 => 8,
            DType::Bool => 1,
        }
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DType::F64 => write!(f, "f64"),
            DType::I64 => write!(f, "i64"),
            DType::Bool => write!(f, "bool"),
        }
    }
}

/// Dense element storage for a tensor.
///
/// Stored in row-major (C) order relative to the owning tensor's shape.
#[derive(Debug, Clone, PartialEq)]
pub enum Data {
    /// Floating-point payload.
    F64(Vec<f64>),
    /// Integer payload.
    I64(Vec<i64>),
    /// Boolean payload.
    Bool(Vec<bool>),
}

impl Data {
    /// The dtype of this storage.
    pub fn dtype(&self) -> DType {
        match self {
            Data::F64(_) => DType::F64,
            Data::I64(_) => DType::I64,
            Data::Bool(_) => DType::Bool,
        }
    }

    /// Number of elements stored.
    pub fn len(&self) -> usize {
        match self {
            Data::F64(v) => v.len(),
            Data::I64(v) => v.len(),
            Data::Bool(v) => v.len(),
        }
    }

    /// Whether the storage is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Allocate zero-initialized storage of the given dtype and length.
    ///
    /// Zeros are `0.0`, `0`, and `false` respectively.
    pub fn zeros(dtype: DType, len: usize) -> Data {
        match dtype {
            DType::F64 => Data::F64(vec![0.0; len]),
            DType::I64 => Data::I64(vec![0; len]),
            DType::Bool => Data::Bool(vec![false; len]),
        }
    }
}

/// An element type a [`Tensor`](crate::Tensor) holds: what lets a kernel
/// written once over `T` read and write the [`Data`] variant of `T`.
/// `f64`, `i64` and `bool` implement it; [`Element::values_mut`] of a
/// payload [`Element::wrap`] built is always `Some`.
pub trait Element: Copy + Default + 'static {
    /// The dtype of a payload of `Self`s.
    const DTYPE: DType;
    /// The payload's elements, if it holds `Self`s.
    fn values(data: &Data) -> Option<&[Self]>;
    /// The payload's vector, if it holds `Self`s.
    fn values_mut(data: &mut Data) -> Option<&mut Vec<Self>>;
    /// A payload holding `values`.
    fn wrap(values: Vec<Self>) -> Data;
}

macro_rules! element {
    ($($t:ty => $variant:ident),*) => {$(
        impl Element for $t {
            const DTYPE: DType = DType::$variant;
            fn values(data: &Data) -> Option<&[Self]> {
                match data {
                    Data::$variant(v) => Some(v),
                    _ => None,
                }
            }
            fn values_mut(data: &mut Data) -> Option<&mut Vec<Self>> {
                match data {
                    Data::$variant(v) => Some(v),
                    _ => None,
                }
            }
            fn wrap(values: Vec<Self>) -> Data {
                Data::$variant(values)
            }
        }
    )*};
}

element!(f64 => F64, i64 => I64, bool => Bool);

/// Dispatch site 1 of 2: a fresh payload of its sources' element type.
///
/// `$body` is evaluated with each `$v` bound to its source's `Vec<T>` and
/// yields the `Vec<T>` the new payload holds, so it is written once, as a
/// call to a function generic over `T`. Two sources must agree on their
/// dtype; `$mismatch` is the error the enclosing function returns when
/// they do not.
macro_rules! fresh_like {
    ($($src:expr),+ => |$($v:ident),+| $body:expr $(, else $mismatch:expr)?) => {
        match ($($src,)+) {
            ($(Data::F64($v),)+) => Data::F64($body),
            ($(Data::I64($v),)+) => Data::I64($body),
            ($(Data::Bool($v),)+) => Data::Bool($body),
            $(_ => return Err($mismatch),)?
        }
    };
}
pub(crate) use fresh_like;

/// Dispatch site 2 of 2: a write into payload `$dst` from a source of the
/// same element type, `$body` seeing both as `Vec<T>`s of one `T`.
///
/// The caller has compared the dtypes already: a destination tensor hands
/// out its payload through `Tensor::payload_like`, which refuses a
/// mismatch under the calling kernel's name *before* it unshares the
/// buffer.
macro_rules! write_like {
    ($dst:expr, $src:expr => |$d:ident, $s:ident| $body:expr) => {
        match ($dst, $src) {
            (Data::F64($d), Data::F64($s)) => $body,
            (Data::I64($d), Data::I64($s)) => $body,
            (Data::Bool($d), Data::Bool($s)) => $body,
            _ => unreachable!("the destination was built or checked to hold the source's dtype"),
        }
    };
}
pub(crate) use write_like;

/// A single scalar element of any supported dtype.
///
/// Used for `full`-style constructors and for extracting individual
/// elements when inspecting VM state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scalar {
    /// A float scalar.
    F64(f64),
    /// An integer scalar.
    I64(i64),
    /// A boolean scalar.
    Bool(bool),
}

impl Scalar {
    /// The dtype of this scalar.
    pub fn dtype(self) -> DType {
        match self {
            Scalar::F64(_) => DType::F64,
            Scalar::I64(_) => DType::I64,
            Scalar::Bool(_) => DType::Bool,
        }
    }

    /// View as `f64` if the dtype matches.
    pub fn as_f64(self) -> Option<f64> {
        match self {
            Scalar::F64(x) => Some(x),
            _ => None,
        }
    }

    /// View as `i64` if the dtype matches.
    pub fn as_i64(self) -> Option<i64> {
        match self {
            Scalar::I64(x) => Some(x),
            _ => None,
        }
    }

    /// View as `bool` if the dtype matches.
    pub fn as_bool(self) -> Option<bool> {
        match self {
            Scalar::Bool(x) => Some(x),
            _ => None,
        }
    }
}

impl From<f64> for Scalar {
    fn from(x: f64) -> Scalar {
        Scalar::F64(x)
    }
}

impl From<i64> for Scalar {
    fn from(x: i64) -> Scalar {
        Scalar::I64(x)
    }
}

impl From<bool> for Scalar {
    fn from(x: bool) -> Scalar {
        Scalar::Bool(x)
    }
}

impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scalar::F64(x) => write!(f, "{x}"),
            Scalar::I64(x) => write!(f, "{x}"),
            Scalar::Bool(x) => write!(f, "{x}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtype_sizes() {
        assert_eq!(DType::F64.size_bytes(), 8);
        assert_eq!(DType::I64.size_bytes(), 8);
        assert_eq!(DType::Bool.size_bytes(), 1);
    }

    #[test]
    fn zeros_allocates_correct_len_and_dtype() {
        for dt in [DType::F64, DType::I64, DType::Bool] {
            let d = Data::zeros(dt, 7);
            assert_eq!(d.len(), 7);
            assert_eq!(d.dtype(), dt);
        }
    }

    #[test]
    fn scalar_conversions() {
        assert_eq!(Scalar::from(1.5).as_f64(), Some(1.5));
        assert_eq!(Scalar::from(3i64).as_i64(), Some(3));
        assert_eq!(Scalar::from(true).as_bool(), Some(true));
        assert_eq!(Scalar::from(1.5).as_i64(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(DType::F64.to_string(), "f64");
        assert_eq!(Scalar::Bool(false).to_string(), "false");
    }
}
