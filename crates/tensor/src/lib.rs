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
//!   [`Tensor::gather_at_depth_into`], [`Tensor::scatter_at_depth`], which
//!   read and write lane-major `[Z, D, ..]` stack storage, so every
//!   per-lane tensor keeps its lanes on axis 0);
//! - a counter-based random source ([`CounterRng`]) whose draws are
//!   identical whether a logical thread runs alone or inside a batch.
//!
//! # Performance architecture
//!
//! [`Tensor`] storage is **copy-on-write**: the payload sits behind an
//! `Arc`, `clone()` is O(1), and every mutating accessor copies the
//! buffer first if it is shared (see the type-level docs for the full
//! contract). Beside the allocating kernels sit **into-buffer forms**
//! that overwrite a caller's tensor, written once over the [`Element`]
//! type ([`Tensor::refill_with`], [`Tensor::copy_into`],
//! [`Tensor::map_into`], [`Tensor::zip_into`],
//! [`Tensor::gather_rows_into`], [`Tensor::gather_at_depth_into`]):
//! they reuse the caller's buffers exactly when nothing else holds them,
//! so a caller that keeps its tensors unshared between uses writes
//! without allocating. `zip_into` and `map_into` run the allocating
//! kernels' loops; `zip_into` given operands of one shape runs the loop
//! of their one run without planning the broadcast. The scalar functions behind every elementwise kernel
//! are shared through [`scalar_ops`], so a caller that fuses a chain of
//! them into one pass (`autobatch-core` does) is bit-identical to
//! per-kernel execution by construction.
//!
//! A broadcasting kernel classifies each operand **once per call**, from
//! the shapes alone and without allocating: *whole* (the operand is the
//! output), *tile* (element `i % len`: `[N]` over `[Z, N]`, a scalar),
//! *repeat* (element `i / len`: `[Z, 1]` over `[Z, N]`) or *general*
//! (anything else, walked by an odometer that carries instead of
//! dividing). The output is then walked in runs over which every operand
//! is a slice or one repeated value, so the inner loop is a plain loop.
//! Each kernel receives its [`scalar_ops`] function as a **fn item**,
//! not a `fn` pointer, so every op gets its own loop with the scalar
//! function inlined and, where it can be, vectorized. Each output
//! element is still `f(a[i'], b[j'])` with the same function, so the
//! bits do not depend on the class or the run, with one exception Rust
//! itself makes: when both operands are NaNs with different payloads,
//! which payload the result carries is unspecified.
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

pub use dtype::{DType, Data, Element, Scalar};
pub use error::{Result, TensorError};
pub use rng::{splitmix64, CounterRng};
pub use tensor::Tensor;
