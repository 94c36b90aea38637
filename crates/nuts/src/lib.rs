//! # autobatch-nuts
//!
//! The No-U-Turn Sampler — the paper's evaluation workload (§4) — in
//! three forms:
//!
//! - [`program`]: the *recursive single-example* NUTS written in the
//!   autobatch surface language, mechanically batched by the runtimes in
//!   `autobatch-core` (this is the paper's headline artifact);
//! - [`NativeNuts`]: a hand-written recursive Rust implementation, the
//!   "Stan-like" one-chain-at-a-time native baseline of Figure 5, built
//!   to mirror the surface program draw-for-draw so batched and native
//!   chains agree exactly;
//! - [`BatchNuts`]: the compiled batched sampler running whole batches of
//!   chains under either autobatching strategy;
//! - [`IterativeNuts`]: the hand-rewritten *non-recursive* NUTS the
//!   paper's §5 cites as related work — the manual alternative that
//!   autobatching makes unnecessary.
//!
//! Extensions beyond the paper:
//!
//! - [`adapt`]: dual-averaging step-size adaptation (Hoffman & Gelman
//!   Alg. 6) with a warmup driver whose adapted per-chain `(q, ε,
//!   counter)` states feed straight into a batched sampling phase
//!   ([`BatchNuts::run_pc_with`]) — the chains continue their exact RNG
//!   streams inside the batch;
//! - [`multinomial`]: the multinomial proposal variant (Betancourt 2017)
//!   that modern Stan runs, for comparison with the paper's
//!   slice-sampling formulation.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt;

pub mod adapt;
mod chain;
pub mod iterative;
pub mod multinomial;
pub mod native;
pub mod program;
mod sampler;

pub use adapt::{find_reasonable_epsilon, AdaptedChain, AdaptiveNuts, DualAveraging};
pub use chain::{ChainState, NutsStats, Sampler, TrajectoryInfo};
pub use iterative::IterativeNuts;
pub use multinomial::MultinomialNuts;
pub use native::NativeNuts;
pub use program::{nuts_program, nuts_source, NutsConfig};
pub use sampler::BatchNuts;

/// Errors from building or running NUTS samplers.
#[derive(Debug)]
pub enum NutsError {
    /// The embedded surface program failed to compile (a bug here).
    Lang(autobatch_lang::LangError),
    /// A runtime error from an autobatching virtual machine.
    Vm(autobatch_core::VmError),
    /// A tensor kernel error.
    Tensor(autobatch_tensor::TensorError),
    /// A shape violation in user-supplied data.
    Shape(String),
}

impl fmt::Display for NutsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NutsError::Lang(e) => write!(f, "program compilation failed: {e}"),
            NutsError::Vm(e) => write!(f, "runtime error: {e}"),
            NutsError::Tensor(e) => write!(f, "tensor error: {e}"),
            NutsError::Shape(s) => write!(f, "shape error: {s}"),
        }
    }
}

impl std::error::Error for NutsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NutsError::Lang(e) => Some(e),
            NutsError::Vm(e) => Some(e),
            NutsError::Tensor(e) => Some(e),
            NutsError::Shape(_) => None,
        }
    }
}

impl From<autobatch_lang::LangError> for NutsError {
    fn from(e: autobatch_lang::LangError) -> Self {
        NutsError::Lang(e)
    }
}

impl From<autobatch_core::VmError> for NutsError {
    fn from(e: autobatch_core::VmError) -> Self {
        NutsError::Vm(e)
    }
}

impl From<autobatch_tensor::TensorError> for NutsError {
    fn from(e: autobatch_tensor::TensorError) -> Self {
        NutsError::Tensor(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, NutsError>;
