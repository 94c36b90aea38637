//! Diagnostic: cost composition of one batched NUTS run under
//! zero-overhead pricing (per-kernel times, utilization, stack share).
//! Usage: `probe_costs [batch]`

use autobatch_accel::{Backend, DispatchMode, Trace};
use autobatch_bench::paper_options;
use autobatch_models::{LogisticRegression, Model, PricedAs};
use autobatch_nuts::{BatchNuts, NutsConfig};
use autobatch_tensor::CounterRng;
use std::sync::Arc;

fn main() {
    let z: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(192);
    let model: Arc<dyn Model> = Arc::new(PricedAs::as_paper_logistic(
        LogisticRegression::synthetic(120, 64, 3),
    ));
    let cfg = NutsConfig {
        step_size: 0.05,
        n_trajectories: 2,
        max_depth: 5,
        leapfrog_steps: 4,
        seed: 19,
    };
    let nuts = BatchNuts::new(model.clone(), cfg).expect("builds");
    let d = model.dim();
    let q0 = CounterRng::new(55).normal_batch(&(0..z as i64).collect::<Vec<_>>(), &[d]);

    // PC with functional stacks, unfused + zero overheads so every kernel
    // is priced separately.
    let probe = Backend {
        mode: DispatchMode::Eager,
        functional_stack_updates: true,
        launch_overhead: 0.0,
        superstep_overhead: 0.0,
        ..Backend::xla_cpu()
    };
    let mut tr = Trace::new(probe);
    let mut opts = paper_options(&nuts);
    opts.stack_depth = 64;
    nuts.run_pc_opts(&q0, Some(&mut tr), opts).expect("runs");
    println!(
        "--- pc (functional, zero-overhead) at Z={z}: total {:.4}s",
        tr.sim_time()
    );
    for (k, s) in tr.kernels() {
        if s.time > 0.005 * tr.sim_time() {
            println!(
                "  {k:>12}: {:.4}s ({:.1}%)  launches {}  util {:.3}",
                s.time,
                100.0 * s.time / tr.sim_time(),
                s.launches,
                s.utilization()
            );
        }
    }
    println!(
        "  grad util {:.4}  useful {}",
        tr.utilization("grad"),
        tr.useful_count("grad")
    );
    println!(
        "  rate {:.4e}",
        tr.useful_count("grad") as f64 / tr.sim_time()
    );

    // Hybrid equivalent: LSAB, in-place, zero overheads.
    let probe2 = Backend {
        mode: DispatchMode::Eager,
        functional_stack_updates: false,
        launch_overhead: 0.0,
        superstep_overhead: 0.0,
        ..Backend::hybrid_cpu()
    };
    let mut tr2 = Trace::new(probe2);
    nuts.run_local_opts(&q0, Some(&mut tr2), paper_options(&nuts))
        .expect("runs");
    println!(
        "--- lsab (zero-overhead) at Z={z}: total {:.4}s",
        tr2.sim_time()
    );
    println!(
        "  grad util {:.4}  useful {}",
        tr2.utilization("grad"),
        tr2.useful_count("grad")
    );
    println!(
        "  rate {:.4e}",
        tr2.useful_count("grad") as f64 / tr2.sim_time()
    );
}
