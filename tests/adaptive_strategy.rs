//! What the default strategy chooses, on the programs the serving
//! benchmark runs (`benchmark/src/workload.rs`): it never gathers on
//! the three whose blocks are one-element or run at full occupancy, it
//! gathers the gradient-heavy supersteps of batched NUTS, and neither
//! choice shows in a result or in the superstep count.

use std::sync::Arc;

use autobatch::core::{
    lower, ExecOptions, ExecStrategy, KernelRegistry, LoweringOptions, PcMachine,
};
use autobatch::ir::pcab::Program;
use autobatch::lang::compile;
use autobatch::models::LogisticRegression;
use autobatch::nuts::{BatchNuts, NutsConfig};
use autobatch::tensor::{CounterRng, Tensor};

/// Lanes of one benchmark shard.
const LANES: usize = 8;

/// `requests` through one 8-lane machine, a chunk of eight at a time:
/// each request's outputs in request order, the supersteps taken and
/// how many of them ran gathered.
fn drive(
    program: &Program,
    registry: &KernelRegistry,
    opts: ExecOptions,
    requests: &[Vec<Tensor>],
) -> (Vec<Vec<Tensor>>, u64, u64) {
    let mut m = PcMachine::new(program, registry.clone(), opts);
    let mut outputs = vec![Vec::new(); requests.len()];
    for (c, chunk) in requests.chunks(LANES).enumerate() {
        let members: Vec<(&[Tensor], u64)> = chunk
            .iter()
            .zip((c * LANES) as u64..)
            .map(|(r, key)| (r.as_slice(), key))
            .collect();
        m.admit_batch(&members, None).expect("admission");
        for done in m.run_to_completion(None).expect("runs") {
            outputs[done.key as usize] = done.outputs;
        }
    }
    (outputs, m.supersteps(), m.gathered_supersteps())
}

fn with(strategy: ExecStrategy, opts: ExecOptions) -> ExecOptions {
    ExecOptions { strategy, ..opts }
}

fn lowered(source: &str, entry: &str) -> Program {
    let program = compile(source, entry).expect("compiles");
    lower(&program, LoweringOptions::default())
        .expect("lowers")
        .0
}

fn int(v: i64) -> Tensor {
    Tensor::from_i64(&[v], &[1]).expect("one-element row")
}

#[test]
fn one_element_and_full_occupancy_programs_never_gather() {
    let binom = lowered(
        "fn binom(n: int, k: int) -> (out: int) {
            if k <= 0 { out = 1; } else if k >= n { out = 1; } else {
                let left = binom(n - 1, k - 1);
                let right = binom(n - 1, k);
                out = left + right;
            }
        }",
        "binom",
    );
    // Two stragglers in every eight, as in `binom_divergent`'s pool.
    let binom_requests: Vec<Vec<Tensor>> = (0..16)
        .map(|i| match i % 8 {
            2 | 5 => vec![int(11 + i / 8), int(5)],
            r => vec![int(3 + r), int(1 + r % 2)],
        })
        .collect();
    let echo = lowered("fn inc(n: int) -> (out: int) { out = n + 1; }", "inc");
    let echo_requests: Vec<Vec<Tensor>> = (0..16).map(|i| vec![int(i * 7 - 40)]).collect();
    let norm = lowered(
        "fn norm(q: vec) -> (out: float) { out = dot(q, q); }",
        "norm",
    );
    let rng = CounterRng::new(5);
    let norm_requests: Vec<Vec<Tensor>> = (0..16)
        .map(|i| vec![rng.normal_batch(&[i], &[8192])])
        .collect();

    let registry = KernelRegistry::new();
    for (name, program, requests) in [
        ("binom_divergent", &binom, &binom_requests),
        ("echo_small", &echo, &echo_requests),
        ("payload_wide", &norm, &norm_requests),
    ] {
        let run = |strategy| {
            drive(
                program,
                &registry,
                with(strategy, ExecOptions::default()),
                requests,
            )
        };
        let (masked, steps, none) = run(ExecStrategy::Masking);
        let (adaptive, adaptive_steps, gathered) = run(ExecStrategy::Adaptive);
        let (fixed, fixed_steps, all) = run(ExecStrategy::GatherScatter);
        assert_eq!(
            (gathered, none, all),
            (0, 0, steps),
            "{name}: gathered supersteps under Adaptive, Masking, GatherScatter"
        );
        assert_eq!((adaptive_steps, fixed_steps), (steps, steps), "{name}");
        assert_eq!(adaptive, masked, "{name}");
        assert_eq!(fixed, masked, "{name}");
    }
}

#[test]
fn nuts_gathers_its_gradient_supersteps_and_nothing_shows() {
    // `nuts_logistic` with a smaller design matrix (the benchmark's is
    // 512 x 24): the gradient still outweighs the 8-element rows moved.
    let model = Arc::new(LogisticRegression::synthetic(96, 8, 2020));
    let cfg = NutsConfig {
        step_size: 0.02,
        n_trajectories: 2,
        max_depth: 4,
        leapfrog_steps: 3,
        seed: 2020,
    };
    let nuts = BatchNuts::new(model, cfg).expect("NUTS compiles");
    let draws = CounterRng::new(11);
    let requests: Vec<Vec<Tensor>> = (0..12)
        .map(|i| {
            let q0 = draws
                .normal_batch(&[i], &[nuts.dim()])
                .mul(&Tensor::scalar(0.1))
                .expect("scale");
            nuts.request_inputs(&q0).expect("chain inputs")
        })
        .collect();
    let run = |strategy| {
        let opts = with(strategy, nuts.exec_options());
        drive(nuts.lowered(), nuts.registry(), opts, &requests)
    };
    let (masked, steps, _) = run(ExecStrategy::Masking);
    let (adaptive, adaptive_steps, gathered) = run(ExecStrategy::Adaptive);
    let (fixed, fixed_steps, _) = run(ExecStrategy::GatherScatter);
    assert_eq!((adaptive_steps, fixed_steps), (steps, steps));
    assert_eq!(adaptive, masked);
    assert_eq!(fixed, masked);
    assert!(
        0 < gathered && gathered < steps,
        "{gathered} of {steps} supersteps gathered: expected the gradient blocks' and only those"
    );
}
