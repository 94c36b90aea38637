//! Ablation A3 — the paper §3's compiler optimizations, toggled one at a
//! time:
//!
//! 1. temporary elision (opt 2): block-local values bypass batching;
//! 2. register demotion (opt 3): variables never live across a recursive
//!    call get masked registers instead of stacks;
//! 3. pop-push elimination (opt 5): cancelled save/restore pairs;
//! 4. stack-top caching (opt 4, a runtime knob): cached tops vs
//!    re-gathering on every access.
//!
//! For each configuration we report static compile statistics (stacked
//! variables, push/pop sites) and the dynamic cost on batched NUTS:
//! stack-kernel simulated time and total simulated time under XLA-CPU
//! pricing, where stack traffic is what the optimizations attack.
//!
//! Usage: `ablation_lowering [batch]` (default 64).

use std::sync::Arc;

use autobatch_accel::{Backend, Trace};
use autobatch_bench::{fmt_sig, print_table, write_csv};
use autobatch_core::{lower, ExecOptions, ExecStrategy, LoweringOptions, PcVm};
use autobatch_models::{model_registry, CorrelatedGaussian};
use autobatch_nuts::{nuts_program, NutsConfig};
use autobatch_tensor::{CounterRng, DType, Tensor};

fn main() {
    let z: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(64);

    let cfg = NutsConfig {
        step_size: 0.15,
        n_trajectories: 3,
        max_depth: 6,
        leapfrog_steps: 4,
        seed: 13,
    };
    let program = nuts_program(cfg.leapfrog_steps).expect("NUTS compiles");
    let model = Arc::new(CorrelatedGaussian::new(50, 0.8));
    let registry = model_registry(model);

    let variants: Vec<(&str, LoweringOptions, bool)> = vec![
        ("all-optimizations", LoweringOptions::default(), true),
        (
            "no-temp-elision",
            LoweringOptions {
                elide_temporaries: false,
                ..LoweringOptions::default()
            },
            true,
        ),
        (
            "no-register-demotion",
            LoweringOptions {
                demote_registers: false,
                ..LoweringOptions::default()
            },
            true,
        ),
        (
            "no-pop-push-elim",
            LoweringOptions {
                pop_push_elimination: false,
                ..LoweringOptions::default()
            },
            true,
        ),
        ("no-top-caching", LoweringOptions::default(), false),
        ("unoptimized", LoweringOptions::unoptimized(), false),
    ];

    let header = [
        "variant",
        "stacked",
        "registers",
        "push-sites",
        "pop-sites",
        "eliminated",
        "stack-time(s)",
        "total-time(s)",
    ];
    let mut rows = Vec::new();
    for (name, lopts, cache_tops) in variants {
        let (pc, stats) = lower(&program, lopts).expect("lowering succeeds");
        let opts = ExecOptions {
            seed: cfg.seed,
            stack_depth: cfg.max_depth + 16,
            cache_stack_tops: cache_tops,
            // The paper's §2 choice, like every figure.
            strategy: ExecStrategy::Masking,
            ..ExecOptions::default()
        };
        let vm = PcVm::new(&pc, registry.clone(), opts);
        let rng = CounterRng::new(41);
        let q0 = rng.normal_batch(&(0..z as i64).collect::<Vec<_>>(), &[50]);
        let inputs = vec![
            q0,
            Tensor::full(&[z], cfg.step_size),
            Tensor::full(&[z], cfg.n_trajectories as i64),
            Tensor::full(&[z], cfg.max_depth as i64),
            Tensor::zeros(DType::I64, &[z]),
        ];
        // Eager pricing so stack ops appear as their own launches.
        let mut tr = Trace::new(Backend::eager_cpu());
        vm.run(&inputs, Some(&mut tr)).expect("nuts runs");
        let stack_time = tr.kernel_stats("stack").map_or(0.0, |s| s.time);
        println!(
            "{name}: {} stacked, {} pushes, stack {:.4}s / total {:.4}s",
            stats.stacked_vars,
            stats.pushes,
            stack_time,
            tr.sim_time()
        );
        rows.push(vec![
            name.to_string(),
            stats.stacked_vars.to_string(),
            stats.register_vars.to_string(),
            stats.pushes.to_string(),
            stats.pops.to_string(),
            stats.eliminated_pairs.to_string(),
            fmt_sig(stack_time),
            fmt_sig(tr.sim_time()),
        ]);
    }
    print_table(
        &format!("Ablation A3: lowering optimizations on batched NUTS (Z = {z})"),
        &header,
        &rows,
    );
    write_csv("ablation_lowering.csv", &header, &rows);
}
