//! Per-parameter posterior summaries, Stan-`print` style.

use std::fmt;

use crate::chains::{mean, pooled_quantile, sample_var, validate};
use crate::ess::{bulk_ess, tail_ess};
use crate::rhat::rank_normalized_rhat;
use crate::Result;

/// Summary statistics of one scalar parameter across chains.
#[derive(Debug, Clone, PartialEq)]
pub struct ParameterSummary {
    /// Posterior mean (pooled across chains).
    pub mean: f64,
    /// Posterior standard deviation (pooled).
    pub sd: f64,
    /// Monte Carlo standard error of the mean (`sd / √bulk-ESS`).
    pub mcse_mean: f64,
    /// Pooled 5% quantile.
    pub q05: f64,
    /// Pooled median.
    pub median: f64,
    /// Pooled 95% quantile.
    pub q95: f64,
    /// Rank-normalized split-`R̂`.
    pub rhat: f64,
    /// Bulk effective sample size. Degenerate (constant) chains report
    /// the sentinel `0.0` — see [`summarize`].
    pub ess_bulk: f64,
    /// Tail effective sample size. Degenerate (constant) chains report
    /// the sentinel `0.0` — see [`summarize`].
    pub ess_tail: f64,
}

impl fmt::Display for ParameterSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mean {:+.3} ± {:.3} (mcse {:.4})  [{:+.3}, {:+.3}, {:+.3}]  R̂ {:.3}  ESS {:.0}/{:.0}",
            self.mean,
            self.sd,
            self.mcse_mean,
            self.q05,
            self.median,
            self.q95,
            self.rhat,
            self.ess_bulk,
            self.ess_tail
        )
    }
}

/// Summarize one scalar parameter from its per-chain draw series.
///
/// Degenerate inputs are handled without `NaN` poisoning: [`ess`](crate::ess)
/// and [`tail_ess`](crate::tail_ess) return `NaN` for constant chains
/// (zero variance carries no autocorrelation information), which this
/// summary maps to the documented sentinel `0.0` — "no effective
/// samples" — so downstream comparisons like `ess_bulk >= 100.0` stay
/// well-defined and report the degenerate case as unconverged.
/// `mcse_mean` for a constant chain is `0.0` (the mean estimate has zero
/// spread).
///
/// # Errors
///
/// Returns a [`DiagError`](crate::DiagError) if chains are absent,
/// unequal, non-finite, or shorter than 8 draws.
///
/// # Examples
///
/// ```
/// use autobatch_diagnostics::summarize;
///
/// let chains: Vec<Vec<f64>> = (0..4)
///     .map(|c| (0..200).map(|i| (((i * 31 + c * 17) % 101) as f64) / 101.0).collect())
///     .collect();
/// let s = summarize(&chains)?;
/// assert!((s.mean - 0.5).abs() < 0.05);
/// # Ok::<(), autobatch_diagnostics::DiagError>(())
/// ```
pub fn summarize<C: AsRef<[f64]>>(chains: &[C]) -> Result<ParameterSummary> {
    validate(chains, 8)?;
    let pooled: Vec<f64> = chains
        .iter()
        .flat_map(|c| c.as_ref().iter().copied())
        .collect();
    let m = mean(&pooled);
    let sd = sample_var(&pooled).sqrt();
    // NaN from the ESS estimators marks a degenerate (constant) chain
    // set; propagate the documented "no effective samples" sentinel.
    let ess_b = match bulk_ess(chains)? {
        e if e.is_nan() => 0.0,
        e => e,
    };
    let ess_t = match tail_ess(chains)? {
        e if e.is_nan() => 0.0,
        e => e,
    };
    Ok(ParameterSummary {
        mean: m,
        sd,
        mcse_mean: if ess_b > 0.0 {
            sd / ess_b.sqrt()
        } else if sd == 0.0 {
            0.0
        } else {
            f64::INFINITY
        },
        q05: pooled_quantile(chains, 0.05)?,
        median: pooled_quantile(chains, 0.5)?,
        q95: pooled_quantile(chains, 0.95)?,
        rhat: rank_normalized_rhat(chains)?,
        ess_bulk: ess_b,
        ess_tail: ess_t,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn normals(seed: u64, n: usize) -> Vec<f64> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next_u = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        };
        (0..n)
            .map(|_| {
                let (u1, u2) = (next_u().max(1e-12), next_u());
                (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
            })
            .collect()
    }

    #[test]
    fn summary_of_iid_standard_normal_chains() {
        let chains: Vec<Vec<f64>> = (0..4).map(|s| normals(s + 5, 500)).collect();
        let s = summarize(&chains).unwrap();
        assert!(s.mean.abs() < 0.1, "mean = {}", s.mean);
        assert!((s.sd - 1.0).abs() < 0.1, "sd = {}", s.sd);
        assert!((s.median).abs() < 0.15);
        assert!((s.q05 + 1.645).abs() < 0.25, "q05 = {}", s.q05);
        assert!((s.q95 - 1.645).abs() < 0.25, "q95 = {}", s.q95);
        // Stan's rule of thumb, with ESS counted over all chains.
        assert!(
            s.rhat < 1.01 && s.ess_bulk >= 100.0 && s.ess_tail >= 100.0,
            "{s}"
        );
        assert!(s.mcse_mean < 0.1);
    }

    #[test]
    fn summary_flags_disagreeing_chains() {
        let mut chains: Vec<Vec<f64>> = (0..4).map(|s| normals(s + 5, 300)).collect();
        for x in &mut chains[3] {
            *x += 8.0;
        }
        let s = summarize(&chains).unwrap();
        assert!(s.rhat > 1.1, "{s}");
    }

    #[test]
    fn constant_chains_summarize_without_nan_poisoning() {
        // A stuck sampler: both chains sit at the same constant. ess /
        // tail_ess return NaN for this input; the summary must propagate
        // the documented 0.0 sentinel so comparisons stay well-defined.
        let chains = [vec![2.5; 64], vec![2.5; 64]];
        let s = summarize(&chains).unwrap();
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.sd, 0.0);
        assert_eq!(s.ess_bulk, 0.0, "bulk ESS sentinel");
        assert_eq!(s.ess_tail, 0.0, "tail ESS sentinel");
        assert_eq!(s.mcse_mean, 0.0);
        assert!(!s.ess_bulk.is_nan() && !s.ess_tail.is_nan());
        // Downstream comparisons behave: the degenerate case reads as
        // unconverged, not as NaN-always-false surprises.
        assert!(s.ess_bulk < 100.0 && s.ess_tail < 100.0);
    }

    #[test]
    fn display_is_nonempty_and_ordered() {
        let chains: Vec<Vec<f64>> = (0..2).map(|s| normals(s + 9, 100)).collect();
        let s = summarize(&chains).unwrap();
        let text = s.to_string();
        assert!(text.contains("R̂"));
        assert!(s.q05 <= s.median && s.median <= s.q95);
    }
}
