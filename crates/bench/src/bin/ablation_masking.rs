//! Ablation A1 — the paper §2's first "free choice": execute primitives
//! by *masking* (compute all lanes, ignore inactive results) or by
//! *gather/scatter* (compact the active lanes, compute, scatter back) —
//! and this repository's default, *adaptive*, which picks one of the
//! two per superstep (per primitive in the local static runtime used
//! here) from the block's flops and bytes and the occupancy.
//!
//! Masking wastes compute at low utilization but moves no data;
//! gather/scatter computes only live lanes but pays random-access
//! traffic and produces dynamically shaped intermediates. We measure
//! all three on recursive Fibonacci (cheap ops — gather traffic
//! dominates) and batched NUTS on the correlated Gaussian (expensive
//! gradients — wasted lanes dominate). Dispatch overheads are zeroed so
//! the device-side trade-off itself is visible (with eager dispatch
//! the strategies cost the same launches and the choice washes out).
//!
//! Two clocks per cell: the simulated device seconds of the cost model,
//! and `wall_s`, the host seconds the same run really took (traced, one
//! run per cell: read it for the ordering, not the digits). They need
//! not agree — the device model prices the gradient at the paper's
//! 10,000 x 100 logistic regression while the host computes a
//! 50-dimensional Gaussian's — which is why both are printed.
//!
//! Usage: `ablation_masking [max_batch]` (default 256).

use std::sync::Arc;
use std::time::Instant;

use autobatch_accel::{Backend, Trace};

/// Eager semantics (per-primitive launches) with dispatch zeroed: pure
/// device-side compute + memory pricing.
fn device_only() -> Backend {
    Backend {
        launch_overhead: 0.0,
        superstep_overhead: 0.0,
        ..Backend::eager_cpu()
    }
}
use autobatch_bench::{fmt_sig, geometric_batches, print_table, write_csv};
use autobatch_core::{ExecOptions, ExecStrategy, KernelRegistry, LocalStaticVm};
use autobatch_ir::build::fibonacci_program;
use autobatch_models::{CorrelatedGaussian, PricedAs};
use autobatch_nuts::{BatchNuts, NutsConfig};
use autobatch_tensor::{CounterRng, Tensor};

fn main() {
    let max_batch: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(256);

    let fib = fibonacci_program();
    // Price the gradient at the paper's logistic-regression cost so the
    // compute-vs-traffic trade-off is at full scale.
    let model = Arc::new(PricedAs::as_paper_logistic(CorrelatedGaussian::new(
        50, 0.8,
    )));
    let nuts = BatchNuts::new(
        model,
        NutsConfig {
            step_size: 0.15,
            n_trajectories: 3,
            max_depth: 6,
            leapfrog_steps: 4,
            seed: 5,
        },
    )
    .expect("NUTS compiles");

    let strategies = [
        ("mask", ExecStrategy::Masking),
        ("gather", ExecStrategy::GatherScatter),
        ("adaptive", ExecStrategy::Adaptive),
    ];
    let mut header = vec!["batch".to_string()];
    for program in ["fib", "nuts"] {
        for (name, _) in strategies {
            header.push(format!("{program}-{name}(s)"));
            header.push(format!("{program}-{name}-wall_s"));
        }
    }
    let header: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut rows = Vec::new();
    for z in geometric_batches(max_batch) {
        let mut row = vec![z.to_string()];
        for (name, strategy) in strategies {
            let (sim, wall) = run_fib(&fib, z, strategy);
            println!("batch {z}: fib {name} {sim:.4}s simulated, {wall:.4}s on the host");
            row.extend([fmt_sig(sim), fmt_sig(wall)]);
        }
        for (name, strategy) in strategies {
            let (sim, wall) = run_nuts(&nuts, z, strategy);
            println!("batch {z}: nuts {name} {sim:.4}s simulated, {wall:.4}s on the host");
            row.extend([fmt_sig(sim), fmt_sig(wall)]);
        }
        rows.push(row);
    }
    print_table(
        "Ablation A1: masking vs gather/scatter vs adaptive — simulated device seconds \
         (CPU, dispatch zeroed) and host wall_s",
        &header,
        &rows,
    );
    write_csv("ablation_masking.csv", &header, &rows);
}

/// `(simulated device seconds, host seconds)` of one run.
fn run_fib(p: &autobatch_ir::lsab::Program, z: usize, strategy: ExecStrategy) -> (f64, f64) {
    let rng = CounterRng::new(7);
    let ns: Vec<i64> = (0..z)
        .map(|b| 3 + (rng.uniform(b as u64, 0) * 12.0) as i64)
        .collect();
    let input = Tensor::from_i64(&ns, &[z]).expect("input shape");
    let opts = ExecOptions {
        strategy,
        ..ExecOptions::default()
    };
    let vm = LocalStaticVm::new(p, KernelRegistry::new(), opts);
    let mut tr = Trace::new(device_only());
    let started = Instant::now();
    vm.run(&[input], Some(&mut tr)).expect("fib runs");
    (tr.sim_time(), started.elapsed().as_secs_f64())
}

/// As [`run_fib`].
fn run_nuts(nuts: &BatchNuts, z: usize, strategy: ExecStrategy) -> (f64, f64) {
    let rng = CounterRng::new(11);
    let q0 = rng.normal_batch(&(0..z as i64).collect::<Vec<_>>(), &[50]);
    let opts = ExecOptions {
        strategy,
        ..nuts.exec_options()
    };
    let mut tr = Trace::new(device_only());
    let started = Instant::now();
    nuts.run_local_opts(&q0, Some(&mut tr), opts)
        .expect("nuts runs");
    (tr.sim_time(), started.elapsed().as_secs_f64())
}
