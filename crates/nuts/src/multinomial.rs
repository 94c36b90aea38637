//! Multinomial NUTS (Betancourt 2017) — the variant modern Stan runs.
//!
//! The paper (and [`NativeNuts`](crate::NativeNuts), and the batched
//! surface program) implements Hoffman & Gelman's original
//! *slice-sampling* NUTS: a slice variable `u` decides which leapfrog
//! states are admissible, and the proposal is drawn uniformly among them.
//! Stan replaced that scheme with *multinomial* sampling over the whole
//! trajectory — each state is weighted by `exp(joint − joint₀)`, inner
//! subtrees sample proposals in proportion to their weight, and the
//! top-level merge is biased toward the freshly built subtree, which
//! empirically improves effective sample size per gradient.
//!
//! This module is an extension beyond the reproduced paper (which
//! predates Stan's switch being relevant to its benchmarks); it exists
//! so the repository's NUTS family matches what a downstream user would
//! expect today, and as a second "single-example program" one could
//! batch. It reuses the same leapfrog, U-turn criterion, divergence
//! guard, and counter-based RNG discipline as the slice variant, so the
//! two are directly comparable.

use autobatch_tensor::Tensor;

use crate::chain::{no_uturn, Ctx, Sampler, Trajectory};
use crate::Result;

/// The multinomial No-U-Turn sampler.
pub type MultinomialNuts<'m> = Sampler<'m, MultinomialTree>;

/// Betancourt's multinomial trajectory — [`MultinomialNuts`]'s algorithm.
#[derive(Debug)]
pub struct MultinomialTree;

struct Tree {
    qm: Tensor,
    pm: Tensor,
    qp: Tensor,
    pp: Tensor,
    qprop: Tensor,
    /// `ln Σ exp(joint − joint₀)` over the subtree's leaves.
    log_sum_w: f64,
    s: bool,
    alpha: f64,
    n_alpha: i64,
}

/// `ln(exp(a) + exp(b))` without overflow.
fn log_add_exp(a: f64, b: f64) -> f64 {
    let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
    if hi == f64::NEG_INFINITY {
        f64::NEG_INFINITY
    } else {
        hi + (lo - hi).exp().ln_1p()
    }
}

fn build_tree(ctx: &mut Ctx<'_>, q: &Tensor, p: &Tensor, v: f64, j: i64, eps: f64) -> Result<Tree> {
    if j == 0 {
        ctx.stats.leaves += 1;
        let (q1, p1) = ctx.leapfrog(q, p, v * eps)?;
        let log_w = ctx.joint(&q1, &p1)? - ctx.joint0;
        // Stan's divergence guard: the energy error exceeds Δ_max.
        let s = log_w > -1000.0;
        if !s {
            ctx.stats.divergences += 1;
        }
        return Ok(Tree {
            qm: q1.clone(),
            pm: p1.clone(),
            qp: q1.clone(),
            pp: p1.clone(),
            qprop: q1,
            log_sum_w: log_w,
            s,
            alpha: log_w.exp().min(1.0),
            n_alpha: 1,
        });
    }
    let mut t = build_tree(ctx, q, p, v, j - 1, eps)?;
    if t.s {
        let sub = if v < 0.0 {
            build_tree(ctx, &t.qm, &t.pm, v, j - 1, eps)?
        } else {
            build_tree(ctx, &t.qp, &t.pp, v, j - 1, eps)?
        };
        if v < 0.0 {
            t.qm = sub.qm;
            t.pm = sub.pm;
        } else {
            t.qp = sub.qp;
            t.pp = sub.pp;
        }
        // Inner merge: unbiased multinomial choice between halves.
        let total = log_add_exp(t.log_sum_w, sub.log_sum_w);
        let p_new = (sub.log_sum_w - total).exp();
        if ctx.draw_uniform() < p_new {
            t.qprop = sub.qprop;
        }
        t.log_sum_w = total;
        t.alpha += sub.alpha;
        t.n_alpha += sub.n_alpha;
        t.s = sub.s && no_uturn(&t.qm, &t.qp, &t.pm, &t.pp)?;
    }
    Ok(t)
}

impl Trajectory for MultinomialTree {
    fn trajectory(ctx: &mut Ctx<'_>, q: Tensor, eps: f64) -> Result<Tensor> {
        let mut q_out = q;
        let p0 = ctx.draw_normal_like(&q_out);
        ctx.joint0 = ctx.joint(&q_out, &p0)?;
        let mut qm = q_out.clone();
        let mut qp = q_out.clone();
        let mut pm = p0.clone();
        let mut pp = p0;
        // The initial point has weight exp(0) = 1.
        let mut log_sum_w = 0.0f64;
        let mut j: i64 = 0;
        let mut s = true;
        let mut alpha = 0.0;
        let mut n_alpha: i64 = 0;
        while s && j < ctx.cfg.max_depth as i64 {
            let uv = ctx.draw_uniform();
            let v = if uv < 0.5 { -1.0 } else { 1.0 };
            let sub = if v < 0.0 {
                build_tree(ctx, &qm, &pm, v, j, eps)?
            } else {
                build_tree(ctx, &qp, &pp, v, j, eps)?
            };
            if v < 0.0 {
                (qm, pm) = (sub.qm, sub.pm);
            } else {
                (qp, pp) = (sub.qp, sub.pp);
            }
            alpha += sub.alpha;
            n_alpha += sub.n_alpha;
            if sub.s {
                // Top-level merge is *biased* toward the new subtree:
                // accept with probability min(1, W_new / W_old).
                let p_accept = (sub.log_sum_w - log_sum_w).exp().min(1.0);
                if ctx.draw_uniform() < p_accept {
                    q_out = sub.qprop;
                }
            }
            log_sum_w = log_add_exp(log_sum_w, sub.log_sum_w);
            s = sub.s && no_uturn(&qm, &qp, &pm, &pp)?;
            j += 1;
        }
        ctx.record_trajectory(j, alpha, n_alpha);
        Ok(q_out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::native::NativeNuts;
    use crate::NutsConfig;
    use autobatch_models::{CorrelatedGaussian, StdNormal};
    use autobatch_tensor::DType;

    fn cfg() -> NutsConfig {
        NutsConfig {
            step_size: 0.4,
            n_trajectories: 25,
            max_depth: 6,
            leapfrog_steps: 2,
            seed: 3,
        }
    }

    #[test]
    fn log_add_exp_matches_naive_in_range() {
        for (a, b) in [(0.0f64, 0.0f64), (-1.0, 2.0), (5.0, -3.0)] {
            let naive = (a.exp() + b.exp()).ln();
            assert!((log_add_exp(a, b) - naive).abs() < 1e-12);
        }
        assert_eq!(
            log_add_exp(f64::NEG_INFINITY, f64::NEG_INFINITY),
            f64::NEG_INFINITY
        );
        // Stable where naive overflows.
        assert!((log_add_exp(1000.0, 1000.0) - (1000.0 + 2f64.ln())).abs() < 1e-9);
    }

    #[test]
    fn chain_moves_and_tracks_stats() {
        let model = StdNormal::new(4);
        let nuts = MultinomialNuts::new(&model, cfg());
        let q0 = Tensor::zeros(DType::F64, &[4]);
        let (qf, st) = nuts.run_chain(&q0, 0, None).unwrap();
        assert_eq!(qf.shape(), &[4]);
        assert!(st.grads > 0);
        assert_eq!(st.depths.len(), 25);
        assert_eq!(st.accept_stats.len(), 25);
        assert!(st.accept_stats.iter().all(|a| (0.0..=1.0).contains(a)));
        assert!(qf.as_f64().unwrap().iter().any(|&x| x != 0.0));
    }

    #[test]
    fn samples_recover_std_normal_moments() {
        let model = StdNormal::new(2);
        let mut c = cfg();
        c.n_trajectories = 30;
        let nuts = MultinomialNuts::new(&model, c);
        let z = 40;
        let q0 = Tensor::zeros(DType::F64, &[z, 2]);
        let (qf, _) = nuts.run_chains(&q0, None).unwrap();
        let v = qf.as_f64().unwrap();
        let mean: f64 = v.iter().sum::<f64>() / v.len() as f64;
        let var: f64 = v.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / v.len() as f64;
        assert!(mean.abs() < 0.5, "mean = {mean}");
        assert!(var > 0.3 && var < 3.0, "var = {var}");
    }

    #[test]
    fn reproducible_and_member_dependent() {
        let model = CorrelatedGaussian::new(4, 0.5);
        let nuts = MultinomialNuts::new(&model, cfg());
        let q0 = Tensor::zeros(DType::F64, &[4]);
        let (a, _) = nuts.run_chain(&q0, 0, None).unwrap();
        let (b, _) = nuts.run_chain(&q0, 0, None).unwrap();
        let (c, _) = nuts.run_chain(&q0, 1, None).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn comparable_spread_with_slice_variant() {
        // Both variants target the same distribution; their sample
        // variances across chains should be in the same ballpark.
        let model = StdNormal::new(3);
        let mut c = cfg();
        c.n_trajectories = 25;
        let z = 30;
        let q0 = Tensor::zeros(DType::F64, &[z, 3]);
        let (qm, _) = MultinomialNuts::new(&model, c)
            .run_chains(&q0, None)
            .unwrap();
        let (qs, _) = NativeNuts::new(&model, c).run_chains(&q0, None).unwrap();
        let var = |t: &Tensor| {
            let v = t.as_f64().unwrap();
            let m: f64 = v.iter().sum::<f64>() / v.len() as f64;
            v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / v.len() as f64
        };
        let (vm, vs) = (var(&qm), var(&qs));
        assert!(
            vm / vs < 4.0 && vs / vm < 4.0,
            "multinomial {vm} vs slice {vs}"
        );
    }

    #[test]
    fn adapts_with_dual_averaging() {
        use crate::adapt::DualAveraging;
        let model = CorrelatedGaussian::new(6, 0.6);
        let mut c = cfg();
        c.max_depth = 6;
        let nuts = MultinomialNuts::new(&model, c);
        let mut state = nuts
            .init_chain(&Tensor::zeros(DType::F64, &[6]), 0)
            .unwrap();
        let mut da = DualAveraging::new(1.0, 0.8);
        let mut eps = 1.0;
        for _ in 0..120 {
            let info = nuts.step_trajectory(&mut state, eps, None).unwrap();
            eps = da.update(info.accept_mean);
        }
        // Sanity: adaptation settled on a usable step size.
        let adapted = da.adapted_step_size();
        assert!(adapted > 1e-4 && adapted < 10.0, "eps = {adapted}");
        assert!(state.counter() > 0);
        assert_eq!(state.position().unwrap().shape(), &[6]);
    }

    #[test]
    fn divergence_guard_fires_on_huge_steps() {
        let model = CorrelatedGaussian::new(8, 0.95);
        let mut c = cfg();
        c.step_size = 1e6; // absurd step: immediate divergence
        c.n_trajectories = 3;
        let nuts = MultinomialNuts::new(&model, c);
        let q0 = Tensor::full(&[8], 0.5);
        let (_, st) = nuts.run_chain(&q0, 0, None).unwrap();
        assert!(st.divergences > 0);
    }
}
