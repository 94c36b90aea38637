//! # autobatch-diagnostics
//!
//! Convergence diagnostics for batches of Markov chains.
//!
//! The paper's stated motivation for batching NUTS is "a broader practice
//! of running large numbers of independent Markov chains, for more
//! precise convergence diagnostics and uncertainty estimates" (§4). This
//! crate supplies those diagnostics, following the modern formulations of
//! Vehtari, Gelman, Simpson, Carpenter & Bürkner (2021), as implemented
//! by Stan:
//!
//! - [`split_rhat`] — the split potential-scale-reduction factor `R̂`;
//! - [`rank_normalized_rhat`] — its rank-normalized variant, robust to
//!   heavy tails;
//! - [`ess`] / [`bulk_ess`] / [`tail_ess`] — effective sample sizes from
//!   the combined-chain autocorrelation series with Geyer's initial
//!   monotone sequence truncation;
//! - [`summarize`] — a per-parameter summary (mean, sd, MCSE, quantiles,
//!   `R̂`, bulk/tail ESS) like the header of Stan's `print` output.
//!
//! Chains are plain `f64` slices (one per chain, equal lengths); no
//! dependency on the rest of the workspace, so the crate is usable with
//! any sampler.
//!
//! # Examples
//!
//! ```
//! use autobatch_diagnostics::{ess, split_rhat};
//!
//! // Two "chains" of a very boring sampler.
//! let a: Vec<f64> = (0..100).map(|i| ((i * 37 + 11) % 97) as f64).collect();
//! let b: Vec<f64> = (0..100).map(|i| ((i * 53 + 29) % 97) as f64).collect();
//! let chains = [a, b];
//! let rhat = split_rhat(&chains)?;
//! assert!(rhat.is_finite());
//! assert!(ess(&chains)? > 0.0);
//! # Ok::<(), autobatch_diagnostics::DiagError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt;

mod chains;
mod ess;
mod normal;
mod rhat;
mod summary;

pub use chains::{pooled_quantile, split_in_half, validate};
pub use ess::{autocovariance, bulk_ess, ess, tail_ess};
pub use normal::{inverse_normal_cdf, rank_normalize};
pub use rhat::{rank_normalized_rhat, split_rhat};
pub use summary::{summarize, ParameterSummary};

/// Errors from the diagnostics routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiagError {
    /// No chains were supplied.
    NoChains,
    /// A chain is too short for the requested statistic.
    TooFewDraws {
        /// Draws found in the shortest chain.
        got: usize,
        /// Minimum required.
        need: usize,
    },
    /// Chains have different lengths.
    UnequalLengths {
        /// The first length seen.
        first: usize,
        /// The mismatching length.
        other: usize,
    },
    /// A draw is NaN or infinite.
    NonFinite,
}

impl fmt::Display for DiagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiagError::NoChains => write!(f, "no chains supplied"),
            DiagError::TooFewDraws { got, need } => {
                write!(f, "chains have {got} draws, need at least {need}")
            }
            DiagError::UnequalLengths { first, other } => {
                write!(f, "chains have unequal lengths ({first} vs {other})")
            }
            DiagError::NonFinite => write!(f, "chains contain non-finite draws"),
        }
    }
}

impl std::error::Error for DiagError {}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, DiagError>;
