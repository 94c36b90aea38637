//! Figure 6 — utilization of batch gradient computation on the
//! correlated Gaussian target, as a function of batch size.
//!
//! Utilization = useful gradient lanes / total gradient lanes across all
//! gradient-kernel launches. Local static autobatching must synchronize
//! chains at trajectory (and tree) boundaries, so members that chose
//! short trajectories idle while the longest member finishes; program
//! counter autobatching synchronizes on *gradient steps*, batching the
//! 5th gradient of one member's 3rd trajectory with the 8th gradient of
//! another's 2nd.
//!
//! Usage: `fig6_utilization [max_batch] [n_trajectories]`
//! (defaults 1024 and 10, the paper's trajectory count).

use std::sync::Arc;

use autobatch_accel::{Backend, Trace};
use autobatch_bench::{fmt_sig, geometric_batches, paper_options, print_table, write_csv};
use autobatch_models::CorrelatedGaussian;
use autobatch_nuts::{BatchNuts, NutsConfig};
use autobatch_tensor::{CounterRng, Tensor};

fn main() {
    let max_batch: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1024);
    let n_traj: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);

    let model = Arc::new(CorrelatedGaussian::paper());
    let cfg = NutsConfig {
        step_size: 0.12,
        n_trajectories: n_traj,
        max_depth: 7,
        leapfrog_steps: 4,
        seed: 3,
    };
    let nuts = BatchNuts::new(model, cfg).expect("NUTS compiles");

    let header = ["batch", "local-static", "program-counter"];
    let mut rows = Vec::new();
    for z in geometric_batches(max_batch) {
        let q0 = starts(z, 100);

        let mut tr_local = Trace::new(Backend::eager_cpu());
        nuts.run_local_opts(&q0, Some(&mut tr_local), paper_options(&nuts))
            .expect("lsab runs");
        let u_local = tr_local.utilization("grad");

        let mut tr_pc = Trace::new(Backend::xla_cpu());
        nuts.run_pc_opts(&q0, Some(&mut tr_pc), paper_options(&nuts))
            .expect("pc runs");
        let u_pc = tr_pc.utilization("grad");

        println!("batch {z}: local {u_local:.3}  pc {u_pc:.3}");
        rows.push(vec![z.to_string(), fmt_sig(u_local), fmt_sig(u_pc)]);
    }
    print_table(
        "Figure 6: gradient-lane utilization (1.0 = no waste)",
        &header,
        &rows,
    );
    write_csv("fig6_utilization.csv", &header, &rows);
}

fn starts(z: usize, d: usize) -> Tensor {
    let rng = CounterRng::new(1234);
    rng.normal_batch(&(0..z as i64).collect::<Vec<_>>(), &[d])
}
