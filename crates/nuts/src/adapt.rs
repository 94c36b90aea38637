//! Step-size adaptation: dual averaging (Hoffman & Gelman 2014,
//! Algorithm 6) and the reasonable-ε initialization heuristic
//! (Algorithm 4).
//!
//! The paper runs NUTS with a fixed step size; real deployments (Stan,
//! TFP) adapt `ε` during a warmup phase so the trajectory-level
//! acceptance statistic hits a target (0.8 by default). This module
//! provides that warmup as an *extension* of the reproduction, and —
//! because the batched program takes `ε` and the RNG counter as inputs —
//! composes with autobatching: [`AdaptiveNuts::warmup`] adapts each
//! chain natively, then
//! [`BatchNuts::run_pc_with`](crate::BatchNuts::run_pc_with) samples all
//! chains in one batch from the adapted states.

use autobatch_tensor::{CounterRng, Tensor};

use crate::chain::{ChainState, TrajectoryInfo};
use crate::native::NativeNuts;
use crate::program::NutsConfig;
use crate::Result;
use autobatch_models::Model;

/// Nesterov dual averaging of `log ε` toward a target acceptance
/// statistic (Hoffman & Gelman 2014, Algorithm 6).
///
/// # Examples
///
/// ```
/// use autobatch_nuts::DualAveraging;
///
/// let mut da = DualAveraging::new(1.0, 0.8);
/// // Feed acceptance statistics; ε falls when acceptance is too low.
/// for _ in 0..50 {
///     da.update(0.2);
/// }
/// assert!(da.adapted_step_size() < 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DualAveraging {
    mu: f64,
    log_eps: f64,
    log_eps_bar: f64,
    h_bar: f64,
    m: u64,
    /// Target mean acceptance statistic `δ`.
    delta: f64,
    /// Adaptation regularization scale (H&G use 0.05).
    gamma: f64,
    /// Iteration offset stabilizing early adaptation (H&G use 10).
    t0: f64,
    /// Step-size averaging decay exponent (H&G use 0.75).
    kappa: f64,
}

impl DualAveraging {
    /// Start adaptation from `eps0` with target acceptance `delta`
    /// (Stan's default is 0.8).
    ///
    /// # Panics
    ///
    /// Panics if `eps0` is not positive and finite, or `delta` is outside
    /// `(0, 1)`.
    pub fn new(eps0: f64, delta: f64) -> DualAveraging {
        assert!(eps0.is_finite() && eps0 > 0.0, "eps0 must be positive");
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0, 1)");
        DualAveraging {
            mu: (10.0 * eps0).ln(),
            log_eps: eps0.ln(),
            log_eps_bar: 0.0,
            h_bar: 0.0,
            m: 0,
            delta,
            gamma: 0.05,
            t0: 10.0,
            kappa: 0.75,
        }
    }

    /// Incorporate one trajectory's mean acceptance statistic and return
    /// the step size to use for the *next* trajectory.
    pub fn update(&mut self, accept_stat: f64) -> f64 {
        let a = accept_stat.clamp(0.0, 1.0);
        self.m += 1;
        let m = self.m as f64;
        let w = 1.0 / (m + self.t0);
        self.h_bar = (1.0 - w) * self.h_bar + w * (self.delta - a);
        self.log_eps = self.mu - (m.sqrt() / self.gamma) * self.h_bar;
        let eta = m.powf(-self.kappa);
        self.log_eps_bar = eta * self.log_eps + (1.0 - eta) * self.log_eps_bar;
        self.log_eps.exp()
    }

    /// The averaged step size to freeze for the sampling phase.
    pub fn adapted_step_size(&self) -> f64 {
        if self.m == 0 {
            self.log_eps.exp()
        } else {
            self.log_eps_bar.exp()
        }
    }
}

/// Find an order-of-magnitude-reasonable initial step size by doubling or
/// halving until the one-step leapfrog acceptance probability crosses 1/2
/// (Hoffman & Gelman 2014, Algorithm 4).
///
/// `member` selects the RNG stream for the momentum draw; `seed` matches
/// the sampler's seed so the heuristic is deterministic.
///
/// # Errors
///
/// Propagates tensor errors from the model kernels.
pub fn find_reasonable_epsilon(
    model: &dyn Model,
    q0: &Tensor,
    member: u64,
    seed: u64,
) -> Result<f64> {
    let d = model.dim();
    let q = q0.reshape(&[1, d])?;
    let rng = CounterRng::new(seed);
    // A dedicated counter stream far from the sampling draws.
    let p0 = rng.normal_batch_for(&[member], &[1 << 40], &[d]);
    let joint = |q: &Tensor, p: &Tensor| -> Result<f64> {
        let logp = model.logp(q)?.as_f64()?[0];
        let ke = 0.5 * p.dot_last_axis(p)?.as_f64()?[0];
        Ok(logp - ke)
    };
    let leapfrog = |q: &Tensor, p: &Tensor, eps: f64| -> Result<(Tensor, Tensor)> {
        let half = Tensor::scalar(0.5 * eps);
        let full = Tensor::scalar(eps);
        let g = model.grad(q)?;
        let p1 = p.add(&half.mul(&g)?)?;
        let q1 = q.add(&full.mul(&p1)?)?;
        let g1 = model.grad(&q1)?;
        let p2 = p1.add(&half.mul(&g1)?)?;
        Ok((q1, p2))
    };

    let mut eps = 1.0;
    let j0 = joint(&q, &p0)?;
    let (q1, p1) = leapfrog(&q, &p0, eps)?;
    let mut log_ratio = joint(&q1, &p1)? - j0;
    if !log_ratio.is_finite() {
        log_ratio = f64::NEG_INFINITY;
    }
    // a = +1 doubles while acceptance > 1/2; a = −1 halves while < 1/2.
    let a: f64 = if log_ratio > (0.5f64).ln() { 1.0 } else { -1.0 };
    for _ in 0..64 {
        if a * log_ratio <= -a * (2.0f64).ln() {
            break;
        }
        eps *= (2.0f64).powf(a);
        let (q1, p1) = leapfrog(&q, &p0, eps)?;
        log_ratio = joint(&q1, &p1)? - j0;
        if !log_ratio.is_finite() {
            log_ratio = f64::NEG_INFINITY;
        }
    }
    Ok(eps)
}

/// Outcome of adapting one chain.
#[derive(Debug, Clone)]
pub struct AdaptedChain {
    /// The chain's state after warmup (position + RNG counter), ready to
    /// hand to a sampling phase.
    pub state: ChainState,
    /// The frozen, averaged step size.
    pub step_size: f64,
    /// Mean acceptance statistic per warmup trajectory.
    pub accept_stats: Vec<f64>,
    /// Gradient evaluations spent in warmup.
    pub grads: u64,
}

/// A warmup driver running dual-averaging adaptation over the native
/// sampler, one chain at a time.
///
/// The adapted `(position, ε, RNG counter)` triple can seed either more
/// native sampling ([`NativeNuts::step_trajectory`]) or a *batched*
/// sampling phase via [`BatchNuts::run_pc_with`](crate::BatchNuts::run_pc_with)
/// — the chains continue their exact RNG streams either way.
#[derive(Debug)]
pub struct AdaptiveNuts<'m> {
    sampler: NativeNuts<'m>,
    model: &'m dyn Model,
    cfg: NutsConfig,
    target_accept: f64,
}

impl<'m> AdaptiveNuts<'m> {
    /// Create an adaptive warmup driver with target acceptance `δ`
    /// (Stan's default is 0.8).
    pub fn new(model: &'m dyn Model, cfg: NutsConfig, target_accept: f64) -> AdaptiveNuts<'m> {
        AdaptiveNuts {
            sampler: NativeNuts::new(model, cfg),
            model,
            cfg,
            target_accept,
        }
    }

    /// Run `n_warmup` adaptation trajectories from `q0` (shape `[d]`) as
    /// batch member `member`.
    ///
    /// # Errors
    ///
    /// Propagates tensor errors from the model kernels.
    pub fn warmup(&self, q0: &Tensor, member: u64, n_warmup: usize) -> Result<AdaptedChain> {
        let eps0 = find_reasonable_epsilon(self.model, q0, member, self.cfg.seed)?;
        let mut da = DualAveraging::new(eps0, self.target_accept);
        let mut state = self.sampler.init_chain(q0, member)?;
        let mut eps = eps0;
        let mut accept_stats = Vec::with_capacity(n_warmup);
        let mut grads = 0;
        for _ in 0..n_warmup {
            let info: TrajectoryInfo = self.sampler.step_trajectory(&mut state, eps, None)?;
            accept_stats.push(info.accept_mean);
            grads += info.grads;
            eps = da.update(info.accept_mean);
        }
        Ok(AdaptedChain {
            state,
            step_size: da.adapted_step_size(),
            accept_stats,
            grads,
        })
    }

    /// Warm up `z` chains (rows of `q0`, shape `[z, d]`) independently.
    ///
    /// # Errors
    ///
    /// Propagates tensor errors from the model kernels.
    pub fn warmup_chains(&self, q0: &Tensor, n_warmup: usize) -> Result<Vec<AdaptedChain>> {
        (0..q0.shape()[0])
            .map(|b| self.warmup(&q0.row(b)?, b as u64, n_warmup))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autobatch_models::{CorrelatedGaussian, StdNormal};
    use autobatch_tensor::DType;

    fn cfg() -> NutsConfig {
        NutsConfig {
            step_size: 0.5, // overridden by adaptation
            n_trajectories: 1,
            max_depth: 6,
            leapfrog_steps: 1,
            seed: 7,
        }
    }

    #[test]
    fn dual_averaging_decreases_eps_on_low_acceptance() {
        let mut da = DualAveraging::new(1.0, 0.8);
        for _ in 0..100 {
            da.update(0.05);
        }
        assert!(
            da.adapted_step_size() < 0.05,
            "eps = {}",
            da.adapted_step_size()
        );
    }

    #[test]
    fn dual_averaging_increases_eps_on_high_acceptance() {
        let mut da = DualAveraging::new(0.1, 0.6);
        for _ in 0..100 {
            da.update(1.0);
        }
        assert!(
            da.adapted_step_size() > 0.1,
            "eps = {}",
            da.adapted_step_size()
        );
    }

    #[test]
    fn dual_averaging_finds_fixed_point_of_synthetic_response() {
        // Acceptance falls smoothly with eps: a(ε) = exp(−ε). The
        // adapted ε should satisfy a(ε*) ≈ δ, i.e. ε* ≈ −ln δ.
        let delta = 0.8f64;
        let mut da = DualAveraging::new(1.0, delta);
        let mut eps = 1.0f64;
        for _ in 0..2000 {
            eps = da.update((-eps).exp());
        }
        let expect = -(delta.ln());
        let got = da.adapted_step_size();
        assert!(
            (got - expect).abs() / expect < 0.15,
            "adapted {got}, expected ≈ {expect}"
        );
    }

    #[test]
    fn dual_averaging_validates_arguments() {
        assert!(std::panic::catch_unwind(|| DualAveraging::new(0.0, 0.8)).is_err());
        assert!(std::panic::catch_unwind(|| DualAveraging::new(1.0, 1.5)).is_err());
    }

    #[test]
    fn accessors_report_state() {
        let mut da = DualAveraging::new(0.25, 0.7);
        assert_eq!(da.m, 0);
        assert!((da.log_eps.exp() - 0.25).abs() < 1e-12);
        assert!((da.adapted_step_size() - 0.25).abs() < 1e-12);
        assert_eq!(da.delta, 0.7);
        da.update(0.9);
        assert_eq!(da.m, 1);
    }

    #[test]
    fn reasonable_epsilon_is_sane_for_std_normal() {
        // For N(0, I) the stable leapfrog step is O(1): the heuristic
        // should land within a few doublings of that.
        let model = StdNormal::new(10);
        let q0 = Tensor::zeros(DType::F64, &[10]);
        let eps = find_reasonable_epsilon(&model, &q0, 0, 7).unwrap();
        assert!((0.125..=8.0).contains(&eps), "eps = {eps}");
    }

    #[test]
    fn reasonable_epsilon_shrinks_for_stiff_targets() {
        // A highly correlated Gaussian has a much smaller stable step
        // than the isotropic one.
        let iso = StdNormal::new(16);
        let stiff = CorrelatedGaussian::new(16, 0.99);
        let q0 = Tensor::zeros(DType::F64, &[16]);
        let e_iso = find_reasonable_epsilon(&iso, &q0, 0, 7).unwrap();
        let e_stiff = find_reasonable_epsilon(&stiff, &q0, 0, 7).unwrap();
        assert!(e_stiff < e_iso, "stiff {e_stiff} vs iso {e_iso}");
    }

    #[test]
    fn warmup_hits_target_acceptance() {
        let model = CorrelatedGaussian::new(8, 0.7);
        let adapter = AdaptiveNuts::new(&model, cfg(), 0.8);
        let q0 = Tensor::zeros(DType::F64, &[8]);
        let adapted = adapter.warmup(&q0, 0, 150).unwrap();
        // The tail of the acceptance series should hover near the target.
        let tail: Vec<f64> = adapted
            .accept_stats
            .iter()
            .rev()
            .take(50)
            .copied()
            .collect();
        let mean = tail.iter().sum::<f64>() / tail.len() as f64;
        assert!(
            (mean - 0.8).abs() < 0.17,
            "tail acceptance {mean}, eps {}",
            adapted.step_size
        );
        assert!(adapted.grads > 0);
        assert!(adapted.state.counter() > 0);
    }

    #[test]
    fn warmup_chains_are_independent_and_member_specific() {
        let model = StdNormal::new(4);
        let adapter = AdaptiveNuts::new(&model, cfg(), 0.8);
        let q0 = Tensor::zeros(DType::F64, &[3, 4]);
        let chains = adapter.warmup_chains(&q0, 30).unwrap();
        assert_eq!(chains.len(), 3);
        // Different RNG streams must produce different trajectories.
        let p0 = chains[0].state.position().unwrap();
        let p1 = chains[1].state.position().unwrap();
        assert_ne!(p0, p1);
    }
}
