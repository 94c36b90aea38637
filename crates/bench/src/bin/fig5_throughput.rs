//! Figure 5 — NUTS gradient throughput vs batch size on Bayesian
//! logistic regression, across the paper's execution configurations:
//!
//! - program-counter autobatching fully compiled (XLA pricing), CPU & GPU;
//! - local static autobatching in eager mode, CPU & GPU;
//! - the hybrid (eager control, compiled basic blocks), CPU & GPU;
//! - unbatched eager (one member at a time);
//! - the native scalar baseline (Stan's role).
//!
//! The interpreter really executes a scaled-down posterior (500 × 25
//! design matrix) while the cost model prices kernels at the paper's
//! 10,000 × 100 size — see EXPERIMENTS.md for the calibration notes.
//! Reported throughput is *useful* gradients per simulated second,
//! excluding synchronization waste, exactly as the paper counts.
//!
//! Usage: `fig5_throughput [max_batch]` (default 1024).

use std::sync::Arc;

use autobatch_accel::{Backend, Trace};
use autobatch_bench::{fmt_sig, geometric_batches, paper_options, print_table, write_csv};
use autobatch_models::{LogisticRegression, Model, PricedAs};
use autobatch_nuts::{BatchNuts, NativeNuts, NutsConfig};
use autobatch_tensor::{CounterRng, Tensor};

#[derive(Clone, Copy, PartialEq)]
enum Vm {
    Pc,
    Lsab,
    Native,
    Unbatched,
}

struct Config {
    name: &'static str,
    vm: Vm,
    backend: Backend,
}

fn main() {
    let max_batch: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1024);

    // Scaled-down computation, paper-scale pricing.
    let model = Arc::new(PricedAs::as_paper_logistic(LogisticRegression::synthetic(
        500, 25, 17,
    )));
    let cfg = NutsConfig {
        step_size: 0.05,
        n_trajectories: 3,
        max_depth: 6,
        leapfrog_steps: 4,
        seed: 7,
    };
    let nuts = BatchNuts::new(model.clone(), cfg).expect("NUTS compiles");

    let configs = [
        Config {
            name: "pc-xla-gpu",
            vm: Vm::Pc,
            backend: Backend::xla_gpu(),
        },
        Config {
            name: "pc-xla-cpu",
            vm: Vm::Pc,
            backend: Backend::xla_cpu(),
        },
        Config {
            name: "hybrid-gpu",
            vm: Vm::Lsab,
            backend: Backend::hybrid_gpu(),
        },
        Config {
            name: "hybrid-cpu",
            vm: Vm::Lsab,
            backend: Backend::hybrid_cpu(),
        },
        Config {
            name: "lsab-eager-gpu",
            vm: Vm::Lsab,
            backend: Backend::eager_gpu(),
        },
        Config {
            name: "lsab-eager-cpu",
            vm: Vm::Lsab,
            backend: Backend::eager_cpu(),
        },
        Config {
            name: "eager-unbatched",
            vm: Vm::Unbatched,
            backend: Backend::eager_cpu(),
        },
        Config {
            name: "stan-native",
            vm: Vm::Native,
            backend: Backend::native_cpu(),
        },
    ];

    let batches = geometric_batches(max_batch);
    let header: Vec<&str> = std::iter::once("batch")
        .chain(configs.iter().map(|c| c.name))
        .collect();
    let mut rows: Vec<Vec<String>> = Vec::new();

    // Flat-throughput configs are measured once and reported at every Z.
    let unbatched_rate = measure_flat(&nuts, Vm::Unbatched, Backend::eager_cpu(), model.as_ref());
    let native_rate = measure_flat(&nuts, Vm::Native, Backend::native_cpu(), model.as_ref());

    for &z in &batches {
        // One run per execution *semantics*, re-priced per device.
        let pc_xla = measure_recorded(&nuts, Vm::Pc, Backend::xla_cpu(), z, model.dim());
        let hybrid = measure_recorded(&nuts, Vm::Lsab, Backend::hybrid_cpu(), z, model.dim());
        let eager = measure_recorded(&nuts, Vm::Lsab, Backend::eager_cpu(), z, model.dim());
        let rate = |tr: &Trace, b: Backend| {
            let priced = tr.replay_as(b);
            priced.useful_count("grad") as f64 / priced.sim_time()
        };
        let mut row = vec![z.to_string()];
        for c in &configs {
            let r = match (c.vm, c.backend.mode) {
                (Vm::Unbatched, _) => unbatched_rate,
                (Vm::Native, _) => native_rate,
                (Vm::Pc, _) => rate(&pc_xla, c.backend),
                (Vm::Lsab, autobatch_accel::DispatchMode::Hybrid) => rate(&hybrid, c.backend),
                (Vm::Lsab, _) => rate(&eager, c.backend),
            };
            row.push(fmt_sig(r));
        }
        println!("batch {z}: done ({} configs)", configs.len());
        rows.push(row);
    }
    print_table(
        "Figure 5: useful gradients per (simulated) second",
        &header,
        &rows,
    );
    write_csv("fig5_throughput.csv", &header, &rows);
}

fn initial_positions(z: usize, d: usize) -> Tensor {
    // Mildly dispersed starts so chains diverge in control flow.
    let rng = CounterRng::new(99);
    rng.normal_batch(&(0..z as i64).collect::<Vec<_>>(), &[d])
}

fn measure_recorded(nuts: &BatchNuts, vm: Vm, backend: Backend, z: usize, d: usize) -> Trace {
    let q0 = initial_positions(z, d);
    let mut trace = Trace::recording(backend);
    let mut opts = paper_options(nuts);
    // A fully compiled program must size its stacks for the worst case
    // (static shapes): charge the conservative allocation.
    opts.stack_depth = 64;
    let r = match vm {
        Vm::Pc => nuts.run_pc_opts(&q0, Some(&mut trace), opts),
        Vm::Lsab => nuts.run_local_opts(&q0, Some(&mut trace), opts),
        _ => unreachable!("flat configs measured separately"),
    };
    r.expect("NUTS batch runs");
    trace
}

fn measure_flat(nuts: &BatchNuts, vm: Vm, backend: Backend, model: &dyn Model) -> f64 {
    match vm {
        Vm::Unbatched => {
            // One chain at a time through the eager interpreter: constant
            // per-chain throughput, so one member suffices.
            let q0 = initial_positions(1, model.dim());
            let mut trace = Trace::new(backend);
            nuts.run_local_opts(&q0, Some(&mut trace), paper_options(nuts))
                .expect("single chain runs");
            trace.useful_count("grad") as f64 / trace.sim_time()
        }
        Vm::Native => {
            let q0 = initial_positions(4, model.dim());
            let native = NativeNuts::new(model, nuts.config());
            let mut trace = Trace::new(backend);
            let (_, stats) = native
                .run_chains(&q0, Some(&mut trace))
                .expect("native runs");
            stats.grads as f64 / trace.sim_time()
        }
        _ => unreachable!(),
    }
}
