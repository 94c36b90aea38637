//! The *iterative* (non-recursive) NUTS rewrite — the related work the
//! paper's §5 cites (Phan & Pradhan's "Iterative NUTS"; Lao & Dillon's
//! unrolled implementation for TensorFlow Probability): NUTS's recursive
//! tree doubling re-expressed as a flat loop over leaves with `O(log)`
//! checkpoint memory, written *by hand* for the express purpose of
//! running on accelerators without recursion.
//!
//! The paper's point stands either way: this rewrite took real insight
//! (the dyadic checkpoint indexing below), applies to exactly one
//! algorithm, and produces code far from the textbook presentation —
//! whereas program-counter autobatching mechanically compiles the
//! recursive version. Having both lets the test suite confirm they build
//! *identical trees* (same leaves, boundaries, admissible counts, and
//! stopping decisions) from the same inputs.
//!
//! Checkpoint scheme: leaves are numbered `0..2^j` in build order. A
//! dyadic subtree `[a, a + 2^k - 1]` completes at its odd right edge
//! `b`, where `2^k` divides `b + 1`; its left-edge state was saved when
//! leaf `a` (even) was built, in slot `popcount(a)` — slots free up
//! exactly when no enclosing subtree still needs them, so `j` slots
//! suffice for a depth-`j` tree.

use autobatch_tensor::Tensor;

use crate::chain::{no_uturn, Ctx, Sampler, Trajectory};
use crate::native::{slice_trajectory, Doubling};
use crate::Result;

/// The hand-rewritten non-recursive sampler. RNG draws are keyed by
/// `(member, counter)` like every other sampler here, but the draw
/// *order* differs from the recursive implementation (reservoir proposal
/// sampling instead of pairwise subtree swaps), so chains are
/// distributionally — not bitwise — equivalent to it.
pub type IterativeNuts<'m> = Sampler<'m, IterativeTree>;

/// The slice-sampling trajectory over the checkpointed leaf loop —
/// [`IterativeNuts`]'s algorithm.
#[derive(Debug)]
pub struct IterativeTree;

impl Trajectory for IterativeTree {
    fn trajectory(ctx: &mut Ctx<'_>, q: Tensor, eps: f64) -> Result<Tensor> {
        slice_trajectory(ctx, q, |ctx, q, p, log_u, v, j| {
            build_iterative(ctx, q, p, log_u, v, j, eps)
        })
    }
}

/// One edge state of the trajectory.
#[derive(Debug, Clone)]
struct Edge {
    q: Tensor,
    p: Tensor,
}

/// Build a depth-`j` subtree in direction `v`, leaf by leaf, with
/// `O(j)` checkpoint memory instead of recursion.
pub(crate) fn build_iterative(
    ctx: &mut Ctx<'_>,
    q0: &Tensor,
    p0: &Tensor,
    log_u: f64,
    v: f64,
    j: i64,
    eps: f64,
) -> Result<Doubling> {
    let total: u64 = 1 << j;
    let mut checkpoints: Vec<Option<Edge>> = vec![None; (j as usize) + 1];
    let mut cur = Edge {
        q: q0.clone(),
        p: p0.clone(),
    };
    let mut qprop: Option<Tensor> = None;
    let mut n: i64 = 0;
    let mut s = true;
    let mut alpha = 0.0;
    let mut n_alpha: i64 = 0;
    for leaf in 0..total {
        // One leaf = one (multi-step) leapfrog from the current edge.
        let (q1, p1) = ctx.leapfrog(&cur.q, &cur.p, v * eps)?;
        cur = Edge { q: q1, p: p1 };
        ctx.stats.leaves += 1;
        let joint = ctx.joint(&cur.q, &cur.p)?;
        alpha += (joint - ctx.joint0).exp().min(1.0);
        n_alpha += 1;
        if log_u <= joint {
            n += 1;
            // Reservoir sampling: uniform among admissible leaves —
            // distributionally the same proposal as the recursive
            // pairwise swaps.
            if ctx.draw_uniform() * (n as f64) < 1.0 {
                qprop = Some(cur.q.clone());
            }
        }
        if log_u >= joint + 1000.0 {
            ctx.stats.divergences += 1;
            s = false;
            break;
        }
        if leaf % 2 == 0 {
            // Even leaf: left edge of one or more dyadic subtrees.
            let slot = (leaf.count_ones()) as usize;
            checkpoints[slot] = Some(cur.clone());
        } else {
            // Odd leaf: every dyadic subtree whose right edge this is
            // completes now; check each against its saved left edge.
            let mut k = 1u32;
            while (leaf + 1) % (1 << k) == 0 && s {
                let a = leaf + 1 - (1 << k);
                let slot = (a.count_ones()) as usize;
                let start = checkpoints[slot]
                    .as_ref()
                    .expect("checkpoint saved when leaf a was built");
                // Orient the check by trajectory direction.
                let ok = if v < 0.0 {
                    no_uturn(&cur.q, &start.q, &cur.p, &start.p)?
                } else {
                    no_uturn(&start.q, &cur.q, &start.p, &cur.p)?
                };
                if !ok {
                    s = false;
                }
                k += 1;
                if k > j as u32 {
                    break;
                }
            }
            if !s {
                break;
            }
        }
    }
    Ok(Doubling {
        q_edge: cur.q,
        p_edge: cur.p,
        qprop: qprop.unwrap_or_else(|| q0.clone()),
        n,
        s,
        alpha,
        n_alpha,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NutsConfig;
    use autobatch_models::{CorrelatedGaussian, Model, StdNormal};
    use autobatch_tensor::{CounterRng, DType};

    fn cfg() -> NutsConfig {
        NutsConfig {
            step_size: 0.25,
            n_trajectories: 20,
            max_depth: 6,
            leapfrog_steps: 2,
            seed: 42,
        }
    }

    /// Recursive reference for one subtree (boundaries, count, stop flag
    /// are RNG-free; the proposal is not compared).
    struct RecRef<'a> {
        model: &'a dyn Model,
        cfg: NutsConfig,
        leaves: u64,
    }

    impl RecRef<'_> {
        fn leapfrog(&mut self, q: &Tensor, p: &Tensor, dt: f64) -> (Tensor, Tensor) {
            let mut q2 = q.clone();
            let mut p2 = p.clone();
            let half = Tensor::scalar(0.5 * dt);
            let full = Tensor::scalar(dt);
            for _ in 0..self.cfg.leapfrog_steps {
                let g = self.model.grad(&q2).unwrap();
                p2 = p2.add(&half.mul(&g).unwrap()).unwrap();
                q2 = q2.add(&full.mul(&p2).unwrap()).unwrap();
                let g = self.model.grad(&q2).unwrap();
                p2 = p2.add(&half.mul(&g).unwrap()).unwrap();
            }
            (q2, p2)
        }

        /// Returns (qm, pm, qp, pp, n, s) — edge-ordered along direction v.
        #[allow(clippy::type_complexity)]
        fn build(
            &mut self,
            q: &Tensor,
            p: &Tensor,
            log_u: f64,
            v: f64,
            j: i64,
        ) -> (Tensor, Tensor, Tensor, Tensor, i64, bool) {
            if j == 0 {
                self.leaves += 1;
                let (q1, p1) = self.leapfrog(q, p, v * self.cfg.step_size);
                let joint = self.model.logp(&q1).unwrap().as_f64().unwrap()[0]
                    - 0.5 * p1.dot_last_axis(&p1).unwrap().as_f64().unwrap()[0];
                let n = i64::from(log_u <= joint);
                let s = log_u < joint + 1000.0;
                return (q1.clone(), p1.clone(), q1, p1, n, s);
            }
            let (qm, pm, qp, pp, n1, s1) = self.build(q, p, log_u, v, j - 1);
            if !s1 {
                return (qm, pm, qp, pp, n1, s1);
            }
            // Grow outward: the new subtree starts from the far edge.
            let (qm2, pm2, qp2, pp2, n2, s2) = self.build(&qp, &pp, log_u, v, j - 1);
            let (inner_q, inner_p, outer_q, outer_p) = (qm, pm, qp2.clone(), pp2.clone());
            let _ = (qm2, pm2);
            let ok = if v < 0.0 {
                no_uturn(&outer_q, &inner_q, &outer_p, &inner_p).unwrap()
            } else {
                no_uturn(&inner_q, &outer_q, &inner_p, &outer_p).unwrap()
            };
            (inner_q, inner_p, outer_q, outer_p, n1 + n2, s2 && ok)
        }
    }

    #[test]
    fn iterative_tree_matches_recursive_reference() {
        // Same (q, p, log_u, v, j) → same far edge, admissible count,
        // stop flag, and leaf count, for both directions and several
        // depths and slice levels.
        let model = CorrelatedGaussian::new(6, 0.8);
        let c = cfg();
        let rng = CounterRng::new(7);
        let q0 = rng.normal_batch(&[0], &[6]);
        let p0 = rng.normal_batch(&[1], &[6]);
        let base_joint = model.logp(&q0).unwrap().as_f64().unwrap()[0]
            - 0.5 * p0.dot_last_axis(&p0).unwrap().as_f64().unwrap()[0];
        for v in [1.0, -1.0] {
            for j in 0..5i64 {
                for slack in [0.5, 5.0, 50.0] {
                    let log_u = base_joint - slack;
                    let mut ctx = Ctx::new(&model, &c, 0, 1000, None);
                    let eps = c.step_size;
                    let tree = build_iterative(&mut ctx, &q0, &p0, log_u, v, j, eps).unwrap();
                    let mut rec = RecRef {
                        model: &model,
                        cfg: c,
                        leaves: 0,
                    };
                    let (_qm, _pm, qp, pp, n, s) = rec.build(&q0, &p0, log_u, v, j);
                    assert_eq!(tree.n, n, "admissible count (v={v}, j={j}, slack={slack})");
                    assert_eq!(tree.s, s, "stop flag (v={v}, j={j}, slack={slack})");
                    if s {
                        // With no early stop the leaf counts and far edges
                        // must agree exactly.
                        assert_eq!(ctx.stats.leaves, rec.leaves, "leaves (v={v}, j={j})");
                        assert_eq!(tree.q_edge, qp, "far edge q (v={v}, j={j})");
                        assert_eq!(tree.p_edge, pp, "far edge p (v={v}, j={j})");
                    }
                }
            }
        }
    }

    #[test]
    fn iterative_chain_samples_plausibly() {
        let model = StdNormal::new(2);
        let mut c = cfg();
        c.n_trajectories = 40;
        let it = IterativeNuts::new(&model, c);
        let mut all = Vec::new();
        for m in 0..30u64 {
            let q0 = Tensor::zeros(DType::F64, &[2]);
            let (qf, stats) = it.run_chain(&q0, m, None).unwrap();
            assert!(stats.grads > 0);
            all.extend_from_slice(qf.as_f64().unwrap());
        }
        let mean: f64 = all.iter().sum::<f64>() / all.len() as f64;
        let var: f64 = all.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / all.len() as f64;
        assert!(mean.abs() < 0.5, "mean = {mean}");
        assert!(var > 0.3 && var < 3.0, "var = {var}");
    }

    #[test]
    fn iterative_and_recursive_samplers_agree_statistically() {
        // Different RNG consumption ⇒ different chains, but comparable
        // second moments on the same target.
        use crate::native::NativeNuts;
        let model = StdNormal::new(3);
        let mut c = cfg();
        c.n_trajectories = 30;
        let it = IterativeNuts::new(&model, c);
        let rec = NativeNuts::new(&model, c);
        let chains = 24u64;
        let mut var_it = 0.0;
        let mut var_rec = 0.0;
        for m in 0..chains {
            let q0 = Tensor::zeros(DType::F64, &[3]);
            let (a, _) = it.run_chain(&q0, m, None).unwrap();
            let (b, _) = rec.run_chain(&q0, m, None).unwrap();
            var_it += a.dot_last_axis(&a).unwrap().as_f64().unwrap()[0];
            var_rec += b.dot_last_axis(&b).unwrap().as_f64().unwrap()[0];
        }
        var_it /= (chains * 3) as f64;
        var_rec /= (chains * 3) as f64;
        assert!((var_it - var_rec).abs() < 1.0, "{var_it} vs {var_rec}");
    }

    #[test]
    fn checkpoint_memory_is_logarithmic() {
        // Structural check on the dyadic indexing: for every odd leaf,
        // the checkpoint of each completing subtree's left edge must
        // still be live (slot untouched since it was written).
        for j in 1..=8u32 {
            let total = 1u64 << j;
            let mut slot_owner: Vec<Option<u64>> = vec![None; j as usize + 1];
            for leaf in 0..total {
                if leaf % 2 == 0 {
                    slot_owner[leaf.count_ones() as usize] = Some(leaf);
                } else {
                    let mut k = 1u32;
                    while k <= j && (leaf + 1) % (1u64 << k) == 0 {
                        let a = leaf + 1 - (1u64 << k);
                        assert_eq!(
                            slot_owner[a.count_ones() as usize],
                            Some(a),
                            "leaf {a} checkpoint alive at completion of [{a}, {leaf}] (j={j})"
                        );
                        k += 1;
                    }
                }
            }
        }
    }
}
