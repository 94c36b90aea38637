//! What every hand-written sampler in this crate shares: one chain's
//! context (RNG draws, priced model kernels, the leapfrog integrator, the
//! U-turn test), its statistics, its resumable state, and the front that
//! drives a chain trajectory by trajectory. A sampler is a [`Trajectory`]:
//! `native`, `multinomial` and `iterative` hold only their tree builders.

use std::marker::PhantomData;

use autobatch_accel::{LaunchRecord, Trace};
use autobatch_models::Model;
use autobatch_tensor::{CounterRng, Tensor};

use crate::program::NutsConfig;
use crate::Result;

/// Statistics of one hand-written NUTS run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NutsStats {
    /// Model gradient evaluations.
    pub grads: u64,
    /// Model log-density evaluations.
    pub logps: u64,
    /// Tree leaves built.
    pub leaves: u64,
    /// Trajectories that stopped on the divergence guard.
    pub divergences: u64,
    /// Final tree depth of each trajectory.
    pub depths: Vec<u32>,
    /// Mean Metropolis acceptance statistic of each trajectory (the
    /// `α/n_α` of Hoffman & Gelman Algorithm 6, driving dual-averaging
    /// step-size adaptation).
    pub accept_stats: Vec<f64>,
}

impl NutsStats {
    /// Add another chain's counts and append its per-trajectory series.
    fn merge(&mut self, other: NutsStats) {
        self.grads += other.grads;
        self.logps += other.logps;
        self.leaves += other.leaves;
        self.divergences += other.divergences;
        self.depths.extend(other.depths);
        self.accept_stats.extend(other.accept_stats);
    }
}

/// Summary of one trajectory taken via [`Sampler::step_trajectory`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrajectoryInfo {
    /// Mean acceptance statistic `α/n_α` (Hoffman & Gelman Alg. 6).
    pub accept_mean: f64,
    /// Final tree depth.
    pub depth: u32,
    /// Gradient evaluations consumed.
    pub grads: u64,
    /// Whether the trajectory stopped on the divergence guard.
    pub divergent: bool,
}

/// Resumable per-chain state for trajectory-at-a-time driving (used by
/// step-size adaptation, which changes `ε` between trajectories).
#[derive(Debug, Clone)]
pub struct ChainState {
    /// Current position, shape `[1, d]`.
    q: Tensor,
    /// Batch-member id (RNG stream selector).
    member: u64,
    /// Next RNG counter (continues the draw sequence across calls).
    counter: i64,
}

impl ChainState {
    /// The current position, shape `[d]`.
    ///
    /// # Errors
    ///
    /// Propagates tensor reshape errors (cannot happen for well-formed
    /// state).
    pub fn position(&self) -> Result<Tensor> {
        let d = self.q.len();
        Ok(self.q.reshape(&[d])?)
    }

    /// The next RNG counter (how many draws the chain has consumed).
    pub fn counter(&self) -> i64 {
        self.counter
    }
}

/// One chain mid-run: its RNG stream, its statistics, and the model
/// kernels priced on its trace.
#[derive(Debug)]
pub struct Ctx<'a> {
    model: &'a dyn Model,
    pub(crate) cfg: &'a NutsConfig,
    rng: CounterRng,
    member: u64,
    counter: i64,
    pub(crate) stats: NutsStats,
    trace: Option<&'a mut Trace>,
    /// Initial Hamiltonian of the current trajectory, the reference point
    /// for acceptance statistics.
    pub(crate) joint0: f64,
}

impl<'a> Ctx<'a> {
    pub(crate) fn new(
        model: &'a dyn Model,
        cfg: &'a NutsConfig,
        member: u64,
        counter: i64,
        trace: Option<&'a mut Trace>,
    ) -> Self {
        Ctx {
            model,
            cfg,
            rng: CounterRng::new(cfg.seed),
            member,
            counter,
            stats: NutsStats::default(),
            trace,
            joint0: 0.0,
        }
    }

    // ---- RNG draws, mirroring the VM's counter discipline exactly -----

    pub(crate) fn draw_normal_like(&mut self, template: &Tensor) -> Tensor {
        let elem = &template.shape()[1..];
        let t = self
            .rng
            .normal_batch_for(&[self.member], &[self.counter], elem);
        self.counter += 1;
        t
    }

    pub(crate) fn draw_exponential(&mut self) -> f64 {
        let t = self
            .rng
            .exponential_batch_for(&[self.member], &[self.counter], &[]);
        self.counter += 1;
        t.as_f64().expect("f64 draw")[0]
    }

    pub(crate) fn draw_uniform(&mut self) -> f64 {
        let t = self
            .rng
            .uniform_batch_for(&[self.member], &[self.counter], &[]);
        self.counter += 1;
        t.as_f64().expect("f64 draw")[0]
    }

    // ---- model kernels with pricing ------------------------------------

    fn launch(&mut self, name: &'static str, flops: f64) {
        if let Some(t) = self.trace.as_deref_mut() {
            t.launch(&LaunchRecord::compute(name, flops, 1));
        }
    }

    fn grad(&mut self, q: &Tensor) -> Result<Tensor> {
        self.stats.grads += 1;
        self.launch("grad", self.model.grad_flops());
        Ok(self.model.grad(q)?)
    }

    /// The Hamiltonian `log p(q) − ½ p·p` (one priced `logp`).
    pub(crate) fn joint(&mut self, q: &Tensor, p: &Tensor) -> Result<f64> {
        self.stats.logps += 1;
        self.launch("logp", self.model.logp_flops());
        let logp = self.model.logp(q)?.as_f64()?[0];
        Ok(logp - 0.5 * p.dot_last_axis(p)?.as_f64()?[0])
    }

    // ---- the integrator, mirroring program.rs --------------------------

    pub(crate) fn leapfrog(&mut self, q: &Tensor, p: &Tensor, dt: f64) -> Result<(Tensor, Tensor)> {
        let mut q2 = q.clone();
        let mut p2 = p.clone();
        let half = Tensor::scalar(0.5 * dt);
        let full = Tensor::scalar(dt);
        for _ in 0..self.cfg.leapfrog_steps {
            let g = self.grad(&q2)?;
            p2 = p2.add(&half.mul(&g)?)?;
            q2 = q2.add(&full.mul(&p2)?)?;
            let g = self.grad(&q2)?;
            p2 = p2.add(&half.mul(&g)?)?;
            self.launch("axpy", 6.0 * self.model.dim() as f64);
        }
        Ok((q2, p2))
    }

    /// Close a trajectory that stopped at `depth` having accumulated
    /// acceptance `alpha` over `n_alpha` leaves.
    pub(crate) fn record_trajectory(&mut self, depth: i64, alpha: f64, n_alpha: i64) {
        self.stats.depths.push(depth as u32);
        self.stats.accept_stats.push(if n_alpha > 0 {
            alpha / n_alpha as f64
        } else {
            0.0
        });
    }
}

/// Whether the trajectory spanning `(qm, pm)` to `(qp, pp)` is still
/// moving apart at both ends.
pub(crate) fn no_uturn(qm: &Tensor, qp: &Tensor, pm: &Tensor, pp: &Tensor) -> Result<bool> {
    let dq = qp.sub(qm)?;
    let a = dq.dot_last_axis(pm)?.as_f64()?[0];
    let b = dq.dot_last_axis(pp)?.as_f64()?[0];
    Ok(a >= 0.0 && b >= 0.0)
}

/// A sampler's one algorithm: advance the chain from `q` (shape `[1, d]`)
/// by one trajectory of step size `eps`, closing it with
/// [`Ctx::record_trajectory`].
pub trait Trajectory {
    /// # Errors
    ///
    /// Propagates tensor errors from the model kernels.
    fn trajectory(ctx: &mut Ctx<'_>, q: Tensor, eps: f64) -> Result<Tensor>;
}

/// A hand-written sampler over `model`, one chain at a time: the front
/// shared by [`NativeNuts`](crate::NativeNuts),
/// [`MultinomialNuts`](crate::MultinomialNuts) and
/// [`IterativeNuts`](crate::IterativeNuts), which differ in `T` only.
#[derive(Debug)]
pub struct Sampler<'m, T> {
    model: &'m dyn Model,
    cfg: NutsConfig,
    tree: PhantomData<T>,
}

impl<'m, T: Trajectory> Sampler<'m, T> {
    /// Create a sampler for `model` with the given configuration.
    pub fn new(model: &'m dyn Model, cfg: NutsConfig) -> Self {
        Sampler {
            model,
            cfg,
            tree: PhantomData,
        }
    }

    /// Run one chain from `q0` (shape `[d]`), identified as batch member
    /// `member` for RNG purposes. Returns the final position and stats.
    ///
    /// # Errors
    ///
    /// Propagates tensor errors from the model kernels.
    pub fn run_chain(
        &self,
        q0: &Tensor,
        member: u64,
        trace: Option<&mut Trace>,
    ) -> Result<(Tensor, NutsStats)> {
        let d = self.model.dim();
        let mut ctx = Ctx::new(self.model, &self.cfg, member, 0, trace);
        let mut q = q0.reshape(&[1, d])?;
        for _ in 0..self.cfg.n_trajectories {
            q = T::trajectory(&mut ctx, q, self.cfg.step_size)?;
        }
        Ok((q.reshape(&[d])?, ctx.stats))
    }

    /// Run `z` chains sequentially (the baseline processes one chain at a
    /// time). `q0` has shape `[z, d]`; returns final positions `[z, d]`
    /// and merged stats.
    ///
    /// # Errors
    ///
    /// Propagates tensor errors from the model kernels.
    pub fn run_chains(
        &self,
        q0: &Tensor,
        mut trace: Option<&mut Trace>,
    ) -> Result<(Tensor, NutsStats)> {
        let z = q0.shape()[0];
        let mut rows = Vec::with_capacity(z);
        let mut total = NutsStats::default();
        for b in 0..z {
            let (qf, stats) = self.run_chain(&q0.row(b)?, b as u64, trace.as_deref_mut())?;
            rows.push(qf.reshape(&[1, self.model.dim()])?);
            total.merge(stats);
        }
        Ok((Tensor::concat_rows(&rows)?, total))
    }

    /// Start a resumable chain at `q0` (shape `[d]`), identified as batch
    /// member `member` for RNG purposes.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `q0` is not a `[d]` vector.
    pub fn init_chain(&self, q0: &Tensor, member: u64) -> Result<ChainState> {
        Ok(ChainState {
            q: q0.reshape(&[1, self.model.dim()])?,
            member,
            counter: 0,
        })
    }

    /// Advance `state` by one NUTS trajectory with step size `eps`,
    /// continuing the chain's RNG stream. Used by step-size adaptation,
    /// which varies `eps` between trajectories; with `eps` fixed at the
    /// configured step size the draw sequence is identical to
    /// [`Sampler::run_chain`].
    ///
    /// # Errors
    ///
    /// Propagates tensor errors from the model kernels.
    pub fn step_trajectory(
        &self,
        state: &mut ChainState,
        eps: f64,
        trace: Option<&mut Trace>,
    ) -> Result<TrajectoryInfo> {
        let mut ctx = Ctx::new(self.model, &self.cfg, state.member, state.counter, trace);
        state.q = T::trajectory(&mut ctx, state.q.clone(), eps)?;
        state.counter = ctx.counter;
        Ok(TrajectoryInfo {
            accept_mean: *ctx.stats.accept_stats.last().expect("one trajectory ran"),
            depth: *ctx.stats.depths.last().expect("one trajectory ran"),
            grads: ctx.stats.grads,
            divergent: ctx.stats.divergences > 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::{MultinomialNuts, NativeNuts, NutsConfig};
    use autobatch_models::StdNormal;
    use autobatch_tensor::{DType, Tensor};

    #[test]
    fn run_chains_merges_every_statistic_of_every_chain() {
        let model = StdNormal::new(2);
        let cfg = NutsConfig {
            step_size: 0.3,
            n_trajectories: 4,
            max_depth: 4,
            leapfrog_steps: 1,
            seed: 5,
        };
        let q0 = Tensor::zeros(DType::F64, &[3, 2]);
        let slice = NativeNuts::new(&model, cfg)
            .run_chains(&q0, None)
            .unwrap()
            .1;
        let multinomial = MultinomialNuts::new(&model, cfg)
            .run_chains(&q0, None)
            .unwrap()
            .1;
        for stats in [slice, multinomial] {
            assert_eq!(stats.depths.len(), 12);
            assert_eq!(stats.accept_stats.len(), 12);
            assert!(stats.grads > 0 && stats.logps > 0 && stats.leaves > 0);
        }
    }
}
