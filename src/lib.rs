//! # autobatch
//!
//! A Rust reproduction of *"Automatically Batching Control-Intensive
//! Programs for Modern Accelerators"* (Radul, Patton, Maclaurin,
//! Hoffman, Saurous; MLSys 2020, [arXiv:1910.11141](https://arxiv.org/abs/1910.11141)).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! - [`tensor`] — batched N-d arrays, masking/gather/scatter kernels,
//!   counter-based RNG;
//! - [`accel`] — simulated accelerator backends and kernel-launch
//!   pricing;
//! - [`ir`] — the locally-batchable (Figure 2) and program-counter
//!   batchable (Figure 4) intermediate representations;
//! - [`lang`] — the surface language frontend (the AutoGraph stand-in);
//! - [`core`] — the paper's contribution: both autobatching runtimes and
//!   the stack-discipline lowering between them;
//! - [`models`] — the evaluation's target log-densities, with
//!   hand-derived batched gradients;
//! - [`nuts`] — the No-U-Turn Sampler, recursive and batched;
//! - [`diagnostics`] — cross-chain convergence diagnostics (`R̂`, ESS),
//!   the practice the paper's batching is meant to enable;
//! - [`chaos`] — deterministic, seed-replayable fault injection for
//!   chaos-testing the serving stack;
//! - [`serve`] — dynamic batch admission: a request server that merges
//!   incoming work into an in-flight batched execution, and the
//!   self-healing [`serve::ShardedServer`] that runs one per thread;
//! - [`ingress`] — a dependency-free TCP front door: length-prefixed
//!   wire frames, deadline-driven batch collection, and load shedding
//!   over the sharded server.
//!
//! # Quickstart
//!
//! ```
//! use autobatch::core::Autobatcher;
//! use autobatch::ir::build::fibonacci_program;
//! use autobatch::tensor::Tensor;
//!
//! let ab = Autobatcher::new(fibonacci_program())?;
//! let batch = vec![Tensor::from_i64(&[3, 7, 4, 5], &[4])?];
//! let out = ab.run_pc(&batch, None)?;
//! assert_eq!(out[0].as_i64()?, &[3, 21, 5, 8]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub use autobatch_accel as accel;
pub use autobatch_chaos as chaos;
pub use autobatch_core as core;
pub use autobatch_diagnostics as diagnostics;
pub use autobatch_ingress as ingress;
pub use autobatch_ir as ir;
pub use autobatch_lang as lang;
pub use autobatch_models as models;
pub use autobatch_nuts as nuts;
pub use autobatch_serve as serve;
pub use autobatch_tensor as tensor;
