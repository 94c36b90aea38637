//! A hand-written recursive NUTS in plain Rust — the "well-optimized
//! native scalar code, one chain at a time" baseline that plays Stan's
//! role in the paper's Figure 5.
//!
//! The implementation deliberately mirrors the surface-language program
//! of [`crate::program`] operation for operation and draw for draw
//! (same counter-based RNG stream), so a single native chain and batch
//! member `b` of an autobatched run produce *identical* samples — the
//! strongest possible cross-validation of the batching runtimes.

use autobatch_tensor::Tensor;

use crate::chain::{no_uturn, Ctx, Sampler, Trajectory};
use crate::Result;

/// The native recursive sampler.
pub type NativeNuts<'m> = Sampler<'m, SliceTree>;

/// Hoffman & Gelman's slice-sampling trajectory over the recursive
/// `build_tree` — [`NativeNuts`]'s algorithm.
#[derive(Debug)]
pub struct SliceTree;

impl Trajectory for SliceTree {
    fn trajectory(ctx: &mut Ctx<'_>, q: Tensor, eps: f64) -> Result<Tensor> {
        slice_trajectory(ctx, q, |ctx, q, p, log_u, v, j| {
            let t = build_tree(ctx, q, p, log_u, v, j, eps)?;
            let (q_edge, p_edge) = if v < 0.0 { (t.qm, t.pm) } else { (t.qp, t.pp) };
            Ok(Doubling {
                q_edge,
                p_edge,
                qprop: t.qprop,
                n: t.n,
                s: t.s,
                alpha: t.alpha,
                n_alpha: t.n_alpha,
            })
        })
    }
}

struct Tree {
    qm: Tensor,
    pm: Tensor,
    qp: Tensor,
    pp: Tensor,
    qprop: Tensor,
    n: i64,
    s: bool,
    /// Accumulated `min(1, exp(joint − joint0))` over leaves.
    alpha: f64,
    /// Number of leaves contributing to `alpha`.
    n_alpha: i64,
}

/// What one doubling hands the trajectory: the subtree's far edge, its
/// proposal, its admissible count and stop flag, and the acceptance
/// accumulated over its leaves.
pub(crate) struct Doubling {
    pub(crate) q_edge: Tensor,
    pub(crate) p_edge: Tensor,
    pub(crate) qprop: Tensor,
    pub(crate) n: i64,
    pub(crate) s: bool,
    pub(crate) alpha: f64,
    pub(crate) n_alpha: i64,
}

/// One slice-sampling trajectory, mirroring program.rs: `grow(ctx, q, p,
/// log_u, v, j)` builds the depth-`j` subtree that extends the edge
/// `(q, p)` in direction `v`.
pub(crate) fn slice_trajectory(
    ctx: &mut Ctx<'_>,
    q: Tensor,
    mut grow: impl FnMut(&mut Ctx<'_>, &Tensor, &Tensor, f64, f64, i64) -> Result<Doubling>,
) -> Result<Tensor> {
    let mut q_out = q;
    let p0 = ctx.draw_normal_like(&q_out);
    let e0 = ctx.draw_exponential();
    let joint0 = ctx.joint(&q_out, &p0)?;
    ctx.joint0 = joint0;
    let log_u = joint0 - e0;
    let mut qm = q_out.clone();
    let mut qp = q_out.clone();
    let mut pm = p0.clone();
    let mut pp = p0;
    let mut j: i64 = 0;
    let mut n: i64 = 1;
    let mut s = true;
    let mut alpha = 0.0;
    let mut n_alpha: i64 = 0;
    while s && j < ctx.cfg.max_depth as i64 {
        let uv = ctx.draw_uniform();
        let v = if uv < 0.5 { -1.0 } else { 1.0 };
        let sub = if v < 0.0 {
            grow(ctx, &qm, &pm, log_u, v, j)?
        } else {
            grow(ctx, &qp, &pp, log_u, v, j)?
        };
        if v < 0.0 {
            (qm, pm) = (sub.q_edge, sub.p_edge);
        } else {
            (qp, pp) = (sub.q_edge, sub.p_edge);
        }
        alpha += sub.alpha;
        n_alpha += sub.n_alpha;
        let ua = ctx.draw_uniform();
        if sub.s && ua * (n as f64) < (sub.n as f64) {
            q_out = sub.qprop;
        }
        n += sub.n;
        s = sub.s && no_uturn(&qm, &qp, &pm, &pp)?;
        j += 1;
    }
    ctx.record_trajectory(j, alpha, n_alpha);
    Ok(q_out)
}

fn build_tree(
    ctx: &mut Ctx<'_>,
    q: &Tensor,
    p: &Tensor,
    log_u: f64,
    v: f64,
    j: i64,
    eps: f64,
) -> Result<Tree> {
    if j == 0 {
        ctx.stats.leaves += 1;
        let (q1, p1) = ctx.leapfrog(q, p, v * eps)?;
        let joint = ctx.joint(&q1, &p1)?;
        let n = i64::from(log_u <= joint);
        let s = log_u < joint + 1000.0;
        if !s {
            ctx.stats.divergences += 1;
        }
        return Ok(Tree {
            qm: q1.clone(),
            pm: p1.clone(),
            qp: q1.clone(),
            pp: p1.clone(),
            qprop: q1,
            n,
            s,
            alpha: (joint - ctx.joint0).exp().min(1.0),
            n_alpha: 1,
        });
    }
    let mut t = build_tree(ctx, q, p, log_u, v, j - 1, eps)?;
    if t.s {
        let sub = if v < 0.0 {
            build_tree(ctx, &t.qm, &t.pm, log_u, v, j - 1, eps)?
        } else {
            build_tree(ctx, &t.qp, &t.pp, log_u, v, j - 1, eps)?
        };
        if v < 0.0 {
            t.qm = sub.qm;
            t.pm = sub.pm;
        } else {
            t.qp = sub.qp;
            t.pp = sub.pp;
        }
        t.alpha += sub.alpha;
        t.n_alpha += sub.n_alpha;
        let usel = ctx.draw_uniform();
        let ntot = (t.n + sub.n) as f64;
        if ntot > 0.0 && usel * ntot < sub.n as f64 {
            t.qprop = sub.qprop;
        }
        t.s = sub.s && no_uturn(&t.qm, &t.qp, &t.pm, &t.pp)?;
        t.n += sub.n;
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NutsConfig;
    use autobatch_accel::Trace;
    use autobatch_models::{CorrelatedGaussian, StdNormal};
    use autobatch_tensor::DType;

    fn cfg() -> NutsConfig {
        NutsConfig {
            step_size: 0.25,
            n_trajectories: 20,
            max_depth: 6,
            leapfrog_steps: 2,
            seed: 42,
        }
    }

    #[test]
    fn chain_moves_and_counts_gradients() {
        let model = StdNormal::new(4);
        let nuts = NativeNuts::new(&model, cfg());
        let q0 = Tensor::zeros(DType::F64, &[4]);
        let (qf, st) = nuts.run_chain(&q0, 0, None).unwrap();
        assert_eq!(qf.shape(), &[4]);
        assert!(st.grads > 0);
        assert_eq!(st.grads, st.leaves * 2 * 2, "2 grads per leapfrog step");
        assert_eq!(st.depths.len(), 20);
        // The chain must actually move.
        assert!(qf.as_f64().unwrap().iter().any(|&x| x != 0.0));
    }

    #[test]
    fn samples_have_plausible_spread_on_std_normal() {
        // Loose statistical sanity: on N(0, I) the per-coordinate sample
        // variance across many chains should be near 1.
        let model = StdNormal::new(2);
        let mut c = cfg();
        c.n_trajectories = 30;
        let nuts = NativeNuts::new(&model, c);
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
    fn chains_are_reproducible_and_member_dependent() {
        let model = CorrelatedGaussian::new(4, 0.5);
        let nuts = NativeNuts::new(&model, cfg());
        let q0 = Tensor::zeros(DType::F64, &[4]);
        let (a, _) = nuts.run_chain(&q0, 0, None).unwrap();
        let (b, _) = nuts.run_chain(&q0, 0, None).unwrap();
        let (c, _) = nuts.run_chain(&q0, 1, None).unwrap();
        assert_eq!(a, b, "same member reproduces");
        assert_ne!(a, c, "different members diverge");
    }

    #[test]
    fn trace_prices_gradients() {
        let model = StdNormal::new(3);
        let nuts = NativeNuts::new(&model, cfg());
        let mut tr = Trace::new(autobatch_accel::Backend::native_cpu());
        let q0 = Tensor::zeros(DType::F64, &[3]);
        let (_, st) = nuts.run_chain(&q0, 0, Some(&mut tr)).unwrap();
        assert_eq!(tr.kernel_stats("grad").unwrap().launches, st.grads);
        assert!(tr.sim_time() > 0.0);
    }

    #[test]
    fn trajectory_depths_vary() {
        // On a correlated target the chosen tree depths should not all
        // be identical — that variation is what Figure 6 is about.
        let model = CorrelatedGaussian::new(16, 0.9);
        let mut c = cfg();
        c.n_trajectories = 30;
        let nuts = NativeNuts::new(&model, c);
        let q0 = Tensor::full(&[16], 1.0);
        let (_, st) = nuts.run_chain(&q0, 3, None).unwrap();
        let min = st.depths.iter().min().unwrap();
        let max = st.depths.iter().max().unwrap();
        assert!(max > min, "depths = {:?}", st.depths);
    }
}
