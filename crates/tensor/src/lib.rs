//! # autobatch-tensor
//!
//! A self-contained batched N-dimensional array library: the "machine
//! learning framework kernels" substrate for the autobatching runtimes of
//! [Radul et al., MLSys 2020](https://arxiv.org/abs/1910.11141).
//!
//! The crate provides:
//!
//! - [`Tensor`]: dense row-major arrays of `f64` / `i64` / `bool`;
//! - elementwise kernels with NumPy-style broadcasting
//!   ([`Tensor::add`], [`Tensor::select`], comparisons, …);
//! - reductions ([`Tensor::sum_last_axis`], [`Tensor::any`], …);
//! - small linear algebra ([`Tensor::matvec_batched`],
//!   [`Tensor::dot_last_axis`]);
//! - the gather/scatter/mask kernels the autobatching virtual machines
//!   are built on ([`Tensor::masked_assign_rows`],
//!   [`Tensor::gather_at_depth`], [`Tensor::scatter_at_depth`]);
//! - a counter-based random source ([`CounterRng`]) whose draws are
//!   identical whether a logical thread runs alone or inside a batch.
//!
//! # Performance architecture
//!
//! [`Tensor`] storage is **copy-on-write**: the payload sits behind an
//! `Arc`, `clone()` is O(1), and every mutating accessor copies the
//! buffer first if it is shared (see the type-level docs for the full
//! contract). On top of the allocating kernels sit **in-place and
//! into-buffer variants** ([`Tensor::map_f64_inplace`],
//! [`Tensor::binary_f64_into`]). The scalar functions behind every
//! elementwise kernel are shared through [`scalar_ops`], so a caller
//! that fuses a chain of them into one pass (`autobatch-core` does) is
//! bit-identical to per-kernel execution by construction.
//!
//! Everything operates on whole arrays at once — the SIMD contract that
//! batching exploits — and every fallible operation returns
//! [`TensorError`] instead of panicking, so shape bugs in user programs
//! surface as recoverable diagnostics from the virtual machines.
//!
//! # Examples
//!
//! ```
//! use autobatch_tensor::{DType, Tensor};
//!
//! // A batch of three scalars and a mask of "active" members.
//! let mut state = Tensor::from_f64(&[1.0, 2.0, 3.0], &[3])?;
//! let doubled = state.mul(&Tensor::scalar(2.0))?;
//! state.masked_assign_rows(&[true, false, true], &doubled)?;
//! assert_eq!(state.as_f64()?, &[2.0, 2.0, 6.0]);
//! # Ok::<(), autobatch_tensor::TensorError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod dtype;
mod elementwise;
mod error;
mod index;
mod linalg;
mod reduce;
mod rng;
pub mod scalar_ops;
pub mod shape;
mod tensor;

pub use dtype::{DType, Data, Scalar};
pub use error::{Result, TensorError};
pub use rng::{splitmix64, CounterRng};
pub use tensor::Tensor;
