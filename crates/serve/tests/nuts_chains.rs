//! Markov chains served as requests: each `BatchNuts::request_inputs`
//! row (an initial position plus the sampler's constants) is one
//! request to a plain `BatchServer`, and the request's seed is the RNG
//! member key its lane draws under. Because NUTS threads its RNG
//! counter through the program as an ordinary stacked variable, a
//! chain's trajectory is bit-identical whether it runs alone or joins a
//! busy batch mid-superstep.

use std::sync::Arc;

use autobatch_accel::{Backend, Trace};
use autobatch_models::{CorrelatedGaussian, NealsFunnel, StdNormal};
use autobatch_nuts::{BatchNuts, NutsConfig};
use autobatch_serve::{AdmissionPolicy, BatchServer, Request, ServeError};
use autobatch_tensor::{CounterRng, DType, Tensor};

fn cfg() -> NutsConfig {
    NutsConfig {
        step_size: 0.3,
        n_trajectories: 3,
        max_depth: 5,
        leapfrog_steps: 2,
        seed: 11,
    }
}

fn server(nuts: &BatchNuts, policy: AdmissionPolicy) -> BatchServer<'_> {
    BatchServer::new(
        nuts.lowered(),
        nuts.registry().clone(),
        nuts.exec_options(),
        policy,
    )
    .unwrap()
}

/// One chain from initial position `q0` (`[d]`).
fn chain(nuts: &BatchNuts, id: u64, q0: &Tensor, seed: u64) -> Request {
    let inputs = nuts.request_inputs(q0).unwrap();
    Request { id, inputs, seed }
}

#[test]
fn chain_admitted_mid_flight_matches_chain_served_alone() {
    // On a sampler whose every step draws randomness, a request
    // admitted into an in-flight batch is bit-identical to the same
    // request served alone with the same seed.
    let nuts = BatchNuts::new(Arc::new(NealsFunnel::new(3)), cfg()).unwrap();
    let rng = CounterRng::new(5);
    let q_late = rng.normal_batch(&[100], &[3]).row(0).unwrap();

    let policy = AdmissionPolicy::JoinAtEntry { max_batch: 8 };
    let mut alone = server(&nuts, policy);
    alone.submit(chain(&nuts, 0, &q_late, 42)).unwrap();
    let solo = alone.run_until_idle(None).unwrap();

    // Six other chains have run a few supersteps when the same request
    // arrives.
    let mut busy = server(&nuts, policy);
    for i in 0..6u64 {
        let q = rng.normal_batch(&[i as i64], &[3]).row(0).unwrap();
        busy.submit(chain(&nuts, 1 + i, &q, 1000 + i)).unwrap();
    }
    for _ in 0..5 {
        assert!(busy.poll(None).unwrap());
    }
    busy.submit(chain(&nuts, 0, &q_late, 42)).unwrap();
    let mut all = busy.take_ready();
    all.extend(busy.run_until_idle(None).unwrap());
    assert_eq!(all.len(), 7);
    let joined = all.iter().find(|r| r.id == 0).unwrap();
    assert!(joined.admitted_at > 0, "the chain did not join mid-flight");
    // Outputs are the final position and the final RNG counter.
    assert_eq!(joined.outputs, solo[0].outputs, "admission perturbed draws");
}

#[test]
fn served_chains_match_one_shot_batch_when_keys_align() {
    // Serving with seeds 0..z equals the classic one-shot run, whose
    // lanes use identity member keys.
    let nuts = BatchNuts::new(Arc::new(StdNormal::new(2)), cfg()).unwrap();
    let rng = CounterRng::new(9);
    let q0 = rng.normal_batch(&[0, 1, 2, 3], &[2]);
    let oneshot = nuts.run_pc(&q0, None).unwrap();

    let mut server = server(&nuts, AdmissionPolicy::DrainAndRefill { max_batch: 4 });
    for b in 0..4u64 {
        let q = q0.row(b as usize).unwrap();
        server.submit(chain(&nuts, b, &q, b)).unwrap();
    }
    let mut done = server.run_until_idle(None).unwrap();
    done.sort_by_key(|r| r.id);
    for (b, r) in done.iter().enumerate() {
        assert_eq!(
            r.outputs[0],
            oneshot.row(b).unwrap().reshape(&[1, 2]).unwrap(),
            "chain {b} diverged from the one-shot batch"
        );
    }
}

#[test]
fn throughput_statistics_are_reported() {
    let nuts = BatchNuts::new(Arc::new(CorrelatedGaussian::new(3, 0.5)), cfg()).unwrap();
    let mut server = server(&nuts, AdmissionPolicy::JoinAtEntry { max_batch: 2 });
    let rng = CounterRng::new(3);
    for i in 0..5u64 {
        let q = rng.normal_batch(&[i as i64], &[3]).row(0).unwrap();
        server.submit(chain(&nuts, i, &q, i)).unwrap();
    }
    let mut tr = Trace::new(Backend::xla_cpu());
    let done = server.run_until_idle(Some(&mut tr)).unwrap();
    assert_eq!(done.len(), 5);
    assert_eq!(tr.members_admitted(), 5);
    assert_eq!(tr.members_retired(), 5);
    assert!(tr.peak_members() <= 2);
    assert!(tr.utilization("grad") > 0.0);
    assert_eq!(server.completed(), 5);
}

#[test]
fn bad_chain_shape_rejected() {
    let nuts = BatchNuts::new(Arc::new(StdNormal::new(3)), cfg()).unwrap();
    assert!(nuts
        .request_inputs(&Tensor::zeros(DType::F64, &[4]))
        .is_err());
    // Once a chain has fixed the server's spec, a row built around a
    // position of another shape is refused, and nothing is queued.
    let mut server = server(&nuts, AdmissionPolicy::DrainAndRefill { max_batch: 1 });
    let q0 = Tensor::zeros(DType::F64, &[3]);
    server.submit(chain(&nuts, 0, &q0, 0)).unwrap();
    let mut inputs = nuts.request_inputs(&q0).unwrap();
    inputs[0] = Tensor::zeros(DType::F64, &[1, 4]);
    let refused = server.submit(Request {
        id: 1,
        inputs,
        seed: 1,
    });
    assert!(
        matches!(refused, Err(ServeError::BadRequest(_))),
        "{refused:?}"
    );
    let done = server.run_until_idle(None).unwrap();
    assert_eq!(done.iter().map(|r| r.id).collect::<Vec<_>>(), [0]);
}
