//! Ablation A2 — the paper §2's second "free choice": which runnable
//! block the runtime executes next. The paper's default is the earliest
//! block in program order ("surprisingly effective, predictable"); the
//! alternative greedy heuristic runs the block with the most waiting
//! members. We compare supersteps, gradient-lane utilization, and
//! simulated time on batched NUTS under the program-counter runtime,
//! where divergent members give the scheduler real choices.
//!
//! Usage: `ablation_heuristic [max_batch]` (default 256).

use std::sync::Arc;

use autobatch_accel::{Backend, Trace};
use autobatch_bench::{fmt_sig, geometric_batches, paper_options, print_table, write_csv};
use autobatch_core::BlockHeuristic;
use autobatch_models::CorrelatedGaussian;
use autobatch_nuts::{BatchNuts, NutsConfig};
use autobatch_tensor::CounterRng;

fn main() {
    let max_batch: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(256);

    let model = Arc::new(CorrelatedGaussian::new(50, 0.8));
    let nuts = BatchNuts::new(
        model,
        NutsConfig {
            step_size: 0.15,
            n_trajectories: 4,
            max_depth: 6,
            leapfrog_steps: 4,
            seed: 23,
        },
    )
    .expect("NUTS compiles");

    let header = [
        "batch",
        "earliest-steps",
        "most-active-steps",
        "earliest-util",
        "most-active-util",
        "earliest-time",
        "most-active-time",
    ];
    let mut rows = Vec::new();
    for z in geometric_batches(max_batch) {
        let (s1, u1, t1) = run(&nuts, z, BlockHeuristic::EarliestBlock);
        let (s2, u2, t2) = run(&nuts, z, BlockHeuristic::MostActive);
        println!(
            "batch {z}: earliest {s1} steps (util {u1:.3}), most-active {s2} steps (util {u2:.3})"
        );
        rows.push(vec![
            z.to_string(),
            s1.to_string(),
            s2.to_string(),
            fmt_sig(u1),
            fmt_sig(u2),
            fmt_sig(t1),
            fmt_sig(t2),
        ]);
    }
    print_table(
        "Ablation A2: block-selection heuristic (program-counter runtime, XLA CPU)",
        &header,
        &rows,
    );
    write_csv("ablation_heuristic.csv", &header, &rows);
}

fn run(nuts: &BatchNuts, z: usize, heuristic: BlockHeuristic) -> (u64, f64, f64) {
    let rng = CounterRng::new(31);
    let q0 = rng.normal_batch(&(0..z as i64).collect::<Vec<_>>(), &[50]);
    let opts = autobatch_core::ExecOptions {
        heuristic,
        ..paper_options(nuts)
    };
    let mut tr = Trace::new(Backend::xla_cpu());
    nuts.run_pc_opts(&q0, Some(&mut tr), opts)
        .expect("nuts runs");
    (tr.supersteps(), tr.utilization("grad"), tr.sim_time())
}
