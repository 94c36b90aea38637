//! Serving driver for the batched NUTS samplers in `autobatch-nuts`.
//!
//! Each request is one Markov chain: an initial position plus a
//! per-request seed (the RNG member key its lane draws under). Chains
//! join the in-flight batch under the server's [`AdmissionPolicy`], and
//! because NUTS threads its RNG counter through the program as an
//! ordinary stacked variable, a chain's trajectory is bit-identical
//! whether it runs alone or joins a busy batch mid-superstep.

use autobatch_accel::Trace;
use autobatch_nuts::BatchNuts;
use autobatch_tensor::Tensor;

use crate::{AdmissionPolicy, BatchServer, Request, Response, Result, ServeError};

/// A completed chain request.
#[derive(Debug, Clone)]
pub struct ChainResponse {
    /// The request id.
    pub id: u64,
    /// Final position, `[d]`.
    pub position: Tensor,
    /// Final RNG counter (for exact continuation via
    /// [`BatchNuts::run_pc_with`]).
    pub counter: i64,
    /// Superstep at which the chain was admitted.
    pub admitted_at: u64,
    /// Superstep at which the chain retired.
    pub retired_at: u64,
}

/// A [`BatchServer`] specialized to a compiled NUTS sampler.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use autobatch_models::StdNormal;
/// use autobatch_nuts::{BatchNuts, NutsConfig};
/// use autobatch_serve::{AdmissionPolicy, NutsServer};
/// use autobatch_tensor::{DType, Tensor};
///
/// let cfg = NutsConfig { n_trajectories: 2, ..NutsConfig::default() };
/// let nuts = BatchNuts::new(Arc::new(StdNormal::new(2)), cfg)?;
/// let policy = AdmissionPolicy::JoinAtEntry { max_batch: 4 };
/// let mut server = NutsServer::new(&nuts, policy)?;
/// server.submit(0, &Tensor::zeros(DType::F64, &[2]), 7)?;
/// let done = server.run_until_idle(None)?;
/// assert_eq!(done[0].position.shape(), &[2]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct NutsServer<'n> {
    nuts: &'n BatchNuts,
    server: BatchServer<'n>,
}

impl<'n> NutsServer<'n> {
    /// Create a chain server over a compiled sampler.
    ///
    /// # Errors
    ///
    /// As [`BatchServer::new`].
    pub fn new(nuts: &'n BatchNuts, policy: AdmissionPolicy) -> Result<NutsServer<'n>> {
        let server = BatchServer::new(
            nuts.lowered(),
            nuts.registry().clone(),
            nuts.exec_options(),
            policy,
        )?;
        Ok(NutsServer { nuts, server })
    }

    /// The generic server underneath (queue/throughput statistics).
    pub fn server(&self) -> &BatchServer<'n> {
        &self.server
    }

    /// Enqueue one chain: initial position `q0` (`[d]` or `[1, d]`) and a
    /// per-request seed.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadRequest`] on a shape mismatch.
    pub fn submit(&mut self, id: u64, q0: &Tensor, seed: u64) -> Result<()> {
        let inputs = self
            .nuts
            .request_inputs(q0)
            .map_err(|e| ServeError::BadRequest(e.to_string()))?;
        self.server.submit(Request { id, inputs, seed })
    }

    /// Serve every queued chain to completion (in completion order).
    ///
    /// # Errors
    ///
    /// As [`BatchServer::run_until_idle`].
    pub fn run_until_idle(&mut self, trace: Option<&mut Trace>) -> Result<Vec<ChainResponse>> {
        let responses = self.server.run_until_idle(trace)?;
        responses.into_iter().map(|r| self.convert(r)).collect()
    }

    fn convert(&self, r: Response) -> Result<ChainResponse> {
        let dim = self.nuts.dim();
        let position = r.outputs[0]
            .reshape(&[dim])
            .map_err(|e| ServeError::BadRequest(e.to_string()))?;
        let counter = r.outputs[1]
            .as_i64()
            .map_err(|e| ServeError::BadRequest(e.to_string()))?[0];
        Ok(ChainResponse {
            id: r.id,
            position,
            counter,
            admitted_at: r.admitted_at,
            retired_at: r.retired_at,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autobatch_models::{CorrelatedGaussian, NealsFunnel, StdNormal};
    use autobatch_nuts::NutsConfig;
    use autobatch_tensor::CounterRng;
    use std::sync::Arc;

    fn cfg() -> NutsConfig {
        NutsConfig {
            step_size: 0.3,
            n_trajectories: 3,
            max_depth: 5,
            leapfrog_steps: 2,
            seed: 11,
        }
    }

    #[test]
    fn chain_admitted_mid_flight_matches_chain_served_alone() {
        // The acceptance property, on a sampler whose every step draws
        // randomness: a request admitted into an in-flight batch is
        // bit-identical to the same request served alone with the same
        // seed.
        let nuts = BatchNuts::new(Arc::new(NealsFunnel::new(3)), cfg()).unwrap();
        let rng = CounterRng::new(5);
        let q_late = rng.normal_batch(&[100], &[3]);
        let q_late = q_late.row(0).unwrap();

        // Alone.
        let policy = AdmissionPolicy::JoinAtEntry { max_batch: 8 };
        let mut alone = NutsServer::new(&nuts, policy).unwrap();
        alone.submit(0, &q_late, 42).unwrap();
        let solo = alone.run_until_idle(None).unwrap();

        // Mid-flight: six other chains are already running when the same
        // request arrives.
        let mut busy = NutsServer::new(&nuts, policy).unwrap();
        for i in 0..6u64 {
            let q = rng.normal_batch(&[i as i64], &[3]).row(0).unwrap();
            busy.submit(1 + i, &q, 1000 + i).unwrap();
        }
        busy.submit(0, &q_late, 42).unwrap();
        let all = busy.run_until_idle(None).unwrap();
        let joined = all.iter().find(|r| r.id == 0).unwrap();
        assert_eq!(
            joined.position, solo[0].position,
            "admission perturbed draws"
        );
        assert_eq!(joined.counter, solo[0].counter);
    }

    #[test]
    fn served_chains_match_one_shot_batch_when_keys_align() {
        // Serving with seeds 0..z equals the classic one-shot run, whose
        // lanes use identity member keys.
        let nuts = BatchNuts::new(Arc::new(StdNormal::new(2)), cfg()).unwrap();
        let rng = CounterRng::new(9);
        let q0 = rng.normal_batch(&[0, 1, 2, 3], &[2]);
        let oneshot = nuts.run_pc(&q0, None).unwrap();

        let policy = AdmissionPolicy::DrainAndRefill { max_batch: 4 };
        let mut server = NutsServer::new(&nuts, policy).unwrap();
        for b in 0..4u64 {
            server.submit(b, &q0.row(b as usize).unwrap(), b).unwrap();
        }
        let mut done = server.run_until_idle(None).unwrap();
        done.sort_by_key(|r| r.id);
        for (b, r) in done.iter().enumerate() {
            assert_eq!(
                r.position,
                oneshot.row(b).unwrap(),
                "chain {b} diverged from the one-shot batch"
            );
        }
    }

    #[test]
    fn throughput_statistics_are_reported() {
        use autobatch_accel::Backend;
        let nuts = BatchNuts::new(Arc::new(CorrelatedGaussian::new(3, 0.5)), cfg()).unwrap();
        let policy = AdmissionPolicy::JoinAtEntry { max_batch: 2 };
        let mut server = NutsServer::new(&nuts, policy).unwrap();
        let rng = CounterRng::new(3);
        for i in 0..5u64 {
            let q = rng.normal_batch(&[i as i64], &[3]).row(0).unwrap();
            server.submit(i, &q, i).unwrap();
        }
        let mut tr = Trace::new(Backend::xla_cpu());
        let done = server.run_until_idle(Some(&mut tr)).unwrap();
        assert_eq!(done.len(), 5);
        assert_eq!(tr.members_admitted(), 5);
        assert_eq!(tr.members_retired(), 5);
        assert!(tr.peak_members() <= 2);
        assert!(tr.utilization("grad") > 0.0);
        assert_eq!(server.server().completed(), 5);
    }

    #[test]
    fn bad_chain_shape_rejected() {
        let nuts = BatchNuts::new(Arc::new(StdNormal::new(3)), cfg()).unwrap();
        let policy = AdmissionPolicy::DrainAndRefill { max_batch: 1 };
        let mut server = NutsServer::new(&nuts, policy).unwrap();
        let bad = Tensor::zeros(autobatch_tensor::DType::F64, &[4]);
        assert!(matches!(
            server.submit(0, &bad, 0),
            Err(ServeError::BadRequest(_))
        ));
    }
}
