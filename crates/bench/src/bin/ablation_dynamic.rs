//! Ablation A4 — static vs dynamic batching architectures (paper §5).
//!
//! The paper positions its two *static* strategies against *dynamic
//! batching* (DyNet's on-the-fly batching, TensorFlow Fold): a scheduler
//! that re-derives the batch schedule from the live agenda every round.
//! This bench runs identical batched-NUTS workloads through all three
//! runtimes and reports, per batch size:
//!
//! - gradient kernel launches (fewer = better amortization),
//! - gradient-lane efficiency = useful gradient evaluations divided by
//!   `launches × Z` (for the masking runtimes this is exactly the paper's
//!   Figure 6 utilization; for dynamic batching it measures launch
//!   fragmentation — groups smaller than the full batch),
//! - simulated time on the architecture's natural backend (Eager for the
//!   host-controlled runtimes, XLA for program-counter autobatching,
//!   Eager plus per-agenda-entry scheduler time for dynamic batching).
//!
//! Expected shape: dynamic batching recovers *more* batching than local
//! static autobatching (it can merge threads at different recursion
//! depths), approaching program-counter autobatching's launch counts,
//! but pays scheduler overhead every round and cannot be graph-compiled
//! at all — which is the paper's argument for static schedules.
//!
//! Usage: `ablation_dynamic [max_batch]` (default 64).

use std::sync::Arc;

use autobatch_accel::{Backend, Trace};
use autobatch_bench::{fmt_sig, geometric_batches, paper_options, print_table, write_csv};
use autobatch_models::CorrelatedGaussian;
use autobatch_nuts::{BatchNuts, NutsConfig};
use autobatch_tensor::CounterRng;

const DIM: usize = 25;

fn main() {
    let max_batch: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(64);

    let model = Arc::new(CorrelatedGaussian::new(DIM, 0.8));
    let nuts = BatchNuts::new(
        model,
        NutsConfig {
            step_size: 0.2,
            n_trajectories: 3,
            max_depth: 6,
            leapfrog_steps: 2,
            seed: 57,
        },
    )
    .expect("NUTS compiles");

    let header = [
        "batch",
        "lsab-launches",
        "dyn-launches",
        "pc-launches",
        "lsab-eff",
        "dyn-eff",
        "pc-eff",
        "lsab-time",
        "dyn-time",
        "pc-time",
    ];
    let mut rows = Vec::new();
    for z in geometric_batches(max_batch) {
        let (l1, e1, t1) = run(&nuts, z, Strategy::LocalStatic);
        let (l2, e2, t2) = run(&nuts, z, Strategy::Dynamic);
        let (l3, e3, t3) = run(&nuts, z, Strategy::ProgramCounter);
        println!(
            "batch {z}: grad launches lsab {l1} / dyn {l2} / pc {l3}, \
             efficiency {e1:.3} / {e2:.3} / {e3:.3}"
        );
        rows.push(vec![
            z.to_string(),
            l1.to_string(),
            l2.to_string(),
            l3.to_string(),
            fmt_sig(e1),
            fmt_sig(e2),
            fmt_sig(e3),
            fmt_sig(t1),
            fmt_sig(t2),
            fmt_sig(t3),
        ]);
    }
    print_table(
        "Ablation A4: static vs dynamic batching (batched NUTS, correlated Gaussian)",
        &header,
        &rows,
    );
    write_csv("ablation_dynamic.csv", &header, &rows);
}

#[derive(Clone, Copy)]
enum Strategy {
    LocalStatic,
    Dynamic,
    ProgramCounter,
}

/// Returns (gradient launches, gradient-lane efficiency, simulated time).
fn run(nuts: &BatchNuts, z: usize, strategy: Strategy) -> (u64, f64, f64) {
    let rng = CounterRng::new(5);
    let q0 = rng.normal_batch(&(0..z as i64).collect::<Vec<_>>(), &[DIM]);
    let mut tr = match strategy {
        Strategy::LocalStatic | Strategy::Dynamic => Trace::new(Backend::eager_cpu()),
        Strategy::ProgramCounter => Trace::new(Backend::xla_cpu()),
    };
    match strategy {
        Strategy::LocalStatic => nuts.run_local_opts(&q0, Some(&mut tr), paper_options(nuts)),
        Strategy::Dynamic => nuts.run_dynamic(&q0, Some(&mut tr)),
        Strategy::ProgramCounter => nuts.run_pc_opts(&q0, Some(&mut tr), paper_options(nuts)),
    }
    .expect("nuts runs");
    let stats = tr.logical_stats("grad").expect("gradients launched");
    let efficiency = stats.active_members as f64 / (stats.launches as f64 * z as f64);
    (stats.launches, efficiency, tr.sim_time())
}
