//! Golden bit-identity regression over the committed bench workloads.
//!
//! The perf work on the interpreter hot loop (copy-on-write tensor
//! storage, the scratch arena, and the fused elementwise fast path) must
//! never change a single output bit: these tests pin the exact outputs
//! of the two committed workloads (divergent-binom and funnel-NUTS, 12
//! requests each, batch 4 per shard) as FNV-1a digests captured from the
//! pre-refactor implementation. Any arithmetic or scheduling drift —
//! fused kernels evaluating in a different order, a COW buffer exposed
//! mid-write, a scratch buffer leaking state between supersteps — shows
//! up here as a digest mismatch.
//!
//! Each run's superstep total is pinned beside its digest: the
//! superstep-inflation guard. More workers mean emptier, more pc-mixed
//! batches; PC-affinity holds that to +7% at 4 workers on
//! divergent-binom where least-loaded routing pays +31%.

use std::sync::Arc;

use autobatch_accel::Backend;
use autobatch_core::{lower, ExecOptions, KernelRegistry, LoweringOptions, PcMachine};
use autobatch_ir::pcab::Program;
use autobatch_lang::compile;
use autobatch_models::NealsFunnel;
use autobatch_nuts::{BatchNuts, NutsConfig};
use autobatch_serve::{
    AdmissionPolicy, AffinityConfig, BatchServer, Request, Response, SchedulingPolicy,
    ShardedServer,
};
use autobatch_tensor::{CounterRng, Data, Tensor};

const BINOM_SRC: &str = "
    // C(n, k) by Pascal's rule — doubly data-dependent recursion.
    fn binom(n: int, k: int) -> (out: int) {
        if k <= 0 {
            out = 1;
        } else if k >= n {
            out = 1;
        } else {
            let left = binom(n - 1, k - 1);
            let right = binom(n - 1, k);
            out = left + right;
        }
    }
";

/// FNV-1a over the exact bit patterns of every output tensor, in
/// response-id order. Any single-bit difference changes the digest.
fn digest(responses: &[Response]) -> u64 {
    let mut sorted: Vec<&Response> = responses.iter().collect();
    sorted.sort_by_key(|r| r.id);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x1000_0000_01b3);
    };
    for r in sorted {
        mix(r.id);
        for t in &r.outputs {
            for &d in t.shape() {
                mix(d as u64);
            }
            match t.data() {
                Data::F64(v) => v.iter().for_each(|x| mix(x.to_bits())),
                Data::I64(v) => v.iter().for_each(|&x| mix(x as u64)),
                Data::Bool(v) => v.iter().for_each(|&x| mix(u64::from(x))),
            }
        }
    }
    h
}

const JOIN_AT_ENTRY: AdmissionPolicy = AdmissionPolicy::JoinAtEntry { max_batch: 4 };

/// `(workers, scheduling, pinned supersteps)` of every run of a sweep.
fn sweep(affinity: [u64; 3], least_loaded: [u64; 3]) -> Vec<(usize, SchedulingPolicy, u64)> {
    let pc_affinity = SchedulingPolicy::PcAffinity(AffinityConfig::default());
    let policies = [pc_affinity, SchedulingPolicy::LeastLoaded];
    let runs = policies.into_iter().flat_map(|p| [1, 2, 4].map(|w| (w, p)));
    let pins = affinity.into_iter().chain(least_loaded);
    runs.zip(pins).map(|((w, p), n)| (w, p, n)).collect()
}

/// The responses and the fleet's total supersteps.
fn serve_sharded(
    program: &Program,
    registry: &KernelRegistry,
    opts: ExecOptions,
    requests: Vec<Request>,
    workers: usize,
    scheduling: SchedulingPolicy,
) -> (Vec<Response>, u64) {
    let mut server = ShardedServer::new(
        program,
        registry.clone(),
        opts,
        JOIN_AT_ENTRY,
        workers,
        Backend::hybrid_cpu(),
    )
    .expect("server");
    server.set_scheduling(scheduling);
    for r in requests {
        server.submit(r).expect("submit");
    }
    let done = server.run_until_idle().expect("serve");
    (done, server.aggregated_trace().supersteps())
}

/// Supersteps to serve `requests` at batch 4 by join-at-entry, by
/// drain-and-refill, and with no server at all: one machine per chunk
/// of 4, each request under the member key it is served with.
fn admission_supersteps(
    program: &Program,
    registry: &KernelRegistry,
    opts: ExecOptions,
    requests: &[Request],
) -> [u64; 3] {
    let served = |policy| {
        let mut server = BatchServer::new(program, registry.clone(), opts, policy).expect("server");
        for r in requests {
            server.submit(r.clone()).expect("submit");
        }
        let done = server.run_until_idle(None).expect("serve");
        assert_eq!(done.len(), requests.len());
        server.supersteps()
    };
    let one_shot = |chunk: &[Request]| {
        let mut m = PcMachine::new(program, registry.clone(), opts);
        let members: Vec<(&[Tensor], u64)> = chunk
            .iter()
            .map(|r| (r.inputs.as_slice(), r.seed))
            .collect();
        m.admit_batch(&members, None).expect("admit");
        m.run_to_completion(None).expect("batch runs");
        m.supersteps()
    };
    [
        served(JOIN_AT_ENTRY),
        served(AdmissionPolicy::DrainAndRefill { max_batch: 4 }),
        requests.chunks(4).map(one_shot).sum(),
    ]
}

/// Requests `0..n_requests` with operands `nk(i)`.
fn binom_requests(n_requests: usize, nk: impl Fn(usize) -> (i64, i64)) -> Vec<Request> {
    (0..n_requests)
        .map(|i| {
            let (n, k) = nk(i);
            Request {
                id: i as u64,
                inputs: vec![
                    Tensor::from_i64(&[n], &[1]).expect("n"),
                    Tensor::from_i64(&[k], &[1]).expect("k"),
                ],
                seed: i as u64,
            }
        })
        .collect()
}

#[test]
fn divergent_binom_outputs_are_bit_identical_to_pre_refactor() {
    let program = compile(BINOM_SRC, "binom").expect("binom compiles");
    let (pc, _) = lower(&program, LoweringOptions::default()).expect("binom lowers");
    // Strides 7 and 5 are coprime to every worker count: round-robin
    // routing cannot align the deep recursions onto one shard.
    let stream = |i| (10 + (i * 5 % 7) as i64, 2 + (i * 3 % 5) as i64);
    let pins = sweep([95_061, 96_172, 98_118], [95_061, 106_551, 115_141]);
    for (workers, scheduling, pinned) in pins {
        let (done, supersteps) = serve_sharded(
            &pc,
            &KernelRegistry::new(),
            ExecOptions::default(),
            binom_requests(12, stream),
            workers,
            scheduling,
        );
        assert_eq!(supersteps, pinned, "{workers} workers, {scheduling:?}");
        assert_eq!(done.len(), 12);
        // Spot-check one human-readable value besides the digest:
        // C(10, 2) = 45 for request 0.
        let r0 = done.iter().find(|r| r.id == 0).expect("request 0");
        assert_eq!(r0.outputs[0].as_i64().expect("i64"), &[45]);
        assert_eq!(
            digest(&done),
            6914980814453413019,
            "binom outputs drifted at {workers} workers"
        );
    }
}

/// NUTS on Neal's funnel (trajectory lengths vary wildly per chain).
fn funnel() -> (BatchNuts, Vec<Request>) {
    let cfg = NutsConfig {
        step_size: 0.2,
        n_trajectories: 3,
        max_depth: 6,
        leapfrog_steps: 2,
        seed: 31,
    };
    let nuts = BatchNuts::new(Arc::new(NealsFunnel::new(5)), cfg).expect("NUTS compiles");
    let rng = CounterRng::new(64);
    let requests: Vec<Request> = (0..12)
        .map(|i| {
            let q = rng
                .normal_batch(&[i as i64], &[nuts.dim()])
                .row(0)
                .expect("row");
            Request {
                id: i as u64,
                inputs: nuts.request_inputs(&q).expect("inputs"),
                seed: i as u64,
            }
        })
        .collect();
    (nuts, requests)
}

#[test]
fn funnel_nuts_positions_are_bit_identical_to_pre_refactor() {
    let (nuts, requests) = funnel();
    let pins = sweep([5_647, 5_713, 5_911], [5_647, 5_869, 6_627]);
    for (workers, scheduling, pinned) in pins {
        let (done, supersteps) = serve_sharded(
            nuts.lowered(),
            nuts.registry(),
            nuts.exec_options(),
            requests.clone(),
            workers,
            scheduling,
        );
        assert_eq!(supersteps, pinned, "{workers} workers, {scheduling:?}");
        assert_eq!(done.len(), 12);
        assert_eq!(
            digest(&done),
            4923661940693526310,
            "funnel-NUTS positions drifted at {workers} workers"
        );
    }
}

#[test]
fn join_at_entry_shares_launches_between_stragglers_and_fresh_members() {
    // The paper's pc batching, serving: a request admitted into a batch
    // in flight shares block launches with members deep in recursion, so
    // stragglers stop serializing the queue (−11% supersteps on binom,
    // −4% on NUTS); drain-and-refill adds nothing to a fixed batch.
    // Every fourth binom request is a straggler, the rest are shallow.
    let program = compile(BINOM_SRC, "binom").expect("binom compiles");
    let (pc, _) = lower(&program, LoweringOptions::default()).expect("binom lowers");
    let stragglers = binom_requests(8, |i| match i % 4 {
        0 => (14 + (i % 3) as i64, 7),
        _ => (3 + (i % 5) as i64, 1 + (i % 2) as i64),
    });
    let (registry, opts) = (KernelRegistry::new(), ExecOptions::default());
    let binom = admission_supersteps(&pc, &registry, opts, &stragglers);
    assert_eq!(binom, [65_660, 73_886, 73_886]);
    let (nuts, requests) = funnel();
    let (program, opts) = (nuts.lowered(), nuts.exec_options());
    let funnel = admission_supersteps(program, nuts.registry(), opts, &requests[..8]);
    assert_eq!(funnel, [4_170, 4_357, 4_357]);
}
