//! Shape assertions for the paper's evaluation figures (README, "Build,
//! test, bench" runs the full-size `crates/bench` binaries): small-scale
//! versions of the Figure 5/6 experiments whose *qualitative* conclusions
//! must hold for the reproduction to count.

use std::sync::Arc;

use autobatch::accel::{Backend, Trace};
use autobatch::core::{BlockHeuristic, ExecOptions, ExecStrategy};
use autobatch::models::{CorrelatedGaussian, LogisticRegression, Model, PricedAs};
use autobatch::nuts::{BatchNuts, NativeNuts, NutsConfig};
use autobatch::tensor::CounterRng;

fn nuts_fixture() -> (BatchNuts, Arc<dyn Model>) {
    // Scaled-down posterior priced at the paper's 10,000 × 100 size.
    let model: Arc<dyn Model> = Arc::new(PricedAs::as_paper_logistic(
        LogisticRegression::synthetic(120, 8, 3),
    ));
    let cfg = NutsConfig {
        step_size: 0.08,
        n_trajectories: 2,
        max_depth: 5,
        leapfrog_steps: 4,
        seed: 19,
    };
    (BatchNuts::new(model.clone(), cfg).expect("builds"), model)
}

/// The paper's figures are reproduced the way the paper ran them:
/// masked (its §2 choice), whatever this repository's default is — the
/// default gathers low-occupancy gradient blocks, which by construction
/// reports no wasted gradient lanes there.
fn paper_options(nuts: &BatchNuts) -> ExecOptions {
    ExecOptions {
        strategy: ExecStrategy::Masking,
        ..nuts.exec_options()
    }
}

fn starts(z: usize, d: usize) -> autobatch::tensor::Tensor {
    CounterRng::new(55).normal_batch(&(0..z as i64).collect::<Vec<_>>(), &[d])
}

fn pc_rate(nuts: &BatchNuts, backend: Backend, z: usize, d: usize) -> f64 {
    let mut tr = Trace::new(backend);
    let mut opts = paper_options(nuts);
    opts.stack_depth = 64;
    nuts.run_pc_opts(&starts(z, d), Some(&mut tr), opts)
        .expect("runs");
    tr.useful_count("grad") as f64 / tr.sim_time()
}

fn lsab_rate(nuts: &BatchNuts, backend: Backend, z: usize, d: usize) -> f64 {
    let mut tr = Trace::new(backend);
    nuts.run_local_opts(&starts(z, d), Some(&mut tr), paper_options(nuts))
        .expect("runs");
    tr.useful_count("grad") as f64 / tr.sim_time()
}

#[test]
fn fig5_batching_scales_and_baselines_are_flat() {
    let (nuts, model) = nuts_fixture();
    let d = model.dim();

    // Batched throughput grows strongly with batch size (Figure 5's
    // headline). Scaling is sub-linear because utilization decays with
    // divergence, but a 16× batch must still deliver several times the
    // throughput.
    let r1 = pc_rate(&nuts, Backend::xla_cpu(), 1, d);
    let r16 = pc_rate(&nuts, Backend::xla_cpu(), 16, d);
    assert!(
        r16 > 2.5 * r1,
        "pc-xla-cpu scales with batch: {r1} -> {r16}"
    );

    // The native (Stan-like) baseline is flat per construction; the
    // batched run at a modest batch already beats the eager-unbatched
    // baseline by a wide margin.
    let native = NativeNuts::new(model.as_ref(), nuts.config());
    let mut tr = Trace::new(Backend::native_cpu());
    let (_, stats) = native
        .run_chains(&starts(4, d), Some(&mut tr))
        .expect("native");
    let stan = stats.grads as f64 / tr.sim_time();
    let unbatched = lsab_rate(&nuts, Backend::eager_cpu(), 1, d);
    assert!(
        stan > 20.0 * unbatched,
        "native beats unbatched eager: {stan} vs {unbatched}"
    );
}

#[test]
fn fig5_crossovers_match_paper_bands() {
    let (nuts, model) = nuts_fixture();
    let d = model.dim();
    let native = NativeNuts::new(model.as_ref(), nuts.config());
    let mut tr = Trace::new(Backend::native_cpu());
    let (_, stats) = native
        .run_chains(&starts(4, d), Some(&mut tr))
        .expect("native");
    let stan = stats.grads as f64 / tr.sim_time();

    // The paper: fully XLA-compiled autobatching matches Stan at a batch
    // of "just ten". Accept a band of [2, 64].
    let below = pc_rate(&nuts, Backend::xla_cpu(), 2, d);
    let above = pc_rate(&nuts, Backend::xla_cpu(), 64, d);
    assert!(
        below < stan,
        "pc-xla-cpu below Stan at Z=2: {below} vs {stan}"
    );
    assert!(
        above > stan,
        "pc-xla-cpu above Stan by Z=64: {above} vs {stan}"
    );

    // Eager local-static autobatching crosses much later ("a few
    // hundred"): still below Stan at Z=32.
    let eager32 = lsab_rate(&nuts, Backend::eager_cpu(), 32, d);
    assert!(
        eager32 < stan,
        "eager still below Stan at Z=32: {eager32} vs {stan}"
    );
}

#[test]
fn fig5_gpu_dominates_at_large_batch_and_hybrid_wins_asymptotically() {
    // Use a wider parameter vector so stack traffic is paper-scale
    // relative to gradient compute.
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

    let pc_cpu = pc_rate(&nuts, Backend::xla_cpu(), 128, d);
    let pc_gpu = pc_rate(&nuts, Backend::xla_gpu(), 128, d);
    assert!(
        pc_gpu >= pc_cpu,
        "GPU at least matches CPU at Z=128: {pc_gpu} vs {pc_cpu}"
    );

    // §4.1's surprise: at very large batch the hybrid (in-place stacks,
    // fused blocks) overtakes fully compiled program-counter autobatching
    // on CPU. The crossover sits beyond what a unit test can run
    // (Z ≳ 4k, where fixed per-superstep overheads amortize away), so we
    // assert the *asymptote* directly: re-price each recorded run with
    // dispatch and superstep overheads zeroed, leaving exactly the costs
    // that scale with batch size — compute (including masked-lane waste)
    // and memory traffic (including the compiled form's functional
    // whole-buffer stack updates, the paper's hypothesis 2).
    let z = 192;
    let asymptotic_rate = |tr: &Trace, base: Backend| {
        let zeroed = Backend {
            launch_overhead: 0.0,
            superstep_overhead: 0.0,
            ..base
        };
        let priced = tr.replay_as(zeroed);
        priced.useful_count("grad") as f64 / priced.sim_time()
    };
    let mut tr_pc = Trace::recording(Backend::xla_cpu());
    let mut opts = paper_options(&nuts);
    opts.stack_depth = 64;
    nuts.run_pc_opts(&starts(z, d), Some(&mut tr_pc), opts)
        .expect("runs");
    let mut tr_hy = Trace::recording(Backend::hybrid_cpu());
    nuts.run_local_opts(&starts(z, d), Some(&mut tr_hy), paper_options(&nuts))
        .expect("runs");

    let pc_asym = asymptotic_rate(&tr_pc, Backend::xla_cpu());
    let hy_asym = asymptotic_rate(&tr_hy, Backend::hybrid_cpu());
    assert!(
        hy_asym > pc_asym,
        "hybrid's asymptotic throughput beats pc-xla on CPU: \
         {hy_asym:.3e} vs {pc_asym:.3e} grads/s"
    );
}

#[test]
fn fig6_pc_utilization_dominates_lsab() {
    let model = Arc::new(CorrelatedGaussian::new(24, 0.9));
    let cfg = NutsConfig {
        step_size: 0.15,
        n_trajectories: 6,
        max_depth: 6,
        leapfrog_steps: 4,
        seed: 29,
    };
    let nuts = BatchNuts::new(model, cfg).expect("builds");
    for z in [4usize, 16, 48] {
        let q0 = starts(z, 24);
        let mut tr_local = Trace::new(Backend::eager_cpu());
        nuts.run_local_opts(&q0, Some(&mut tr_local), paper_options(&nuts))
            .expect("lsab");
        let mut tr_pc = Trace::new(Backend::xla_cpu());
        nuts.run_pc_opts(&q0, Some(&mut tr_pc), paper_options(&nuts))
            .expect("pc");
        let (ul, up) = (tr_local.utilization("grad"), tr_pc.utilization("grad"));
        assert!(
            up > ul,
            "pc utilization beats local-static at Z={z}: {up:.3} vs {ul:.3}"
        );
        assert!(ul > 0.0 && up <= 1.0);
    }
}

#[test]
fn fig6_long_chain_utilization_depends_on_block_heuristic() {
    // §4.2 predicts gradient utilization approaches 1 for long chains.
    // In this runtime the outcome hinges on the §2 "free choice" of
    // block-selection heuristic (deviation D2 in EXPERIMENTS.md): the
    // paper's earliest-block default lets members disperse over long
    // horizons, so utilization *drifts down* with chain length; the
    // most-active heuristic coheres members and recovers the paper's
    // upward trend. Pin both so scheduler changes surface here.
    let cfg = |n_traj| NutsConfig {
        step_size: 0.15,
        n_trajectories: n_traj,
        max_depth: 5,
        leapfrog_steps: 4,
        seed: 29,
    };
    let q0 = starts(16, 16);
    let util = |n_traj: usize, heuristic| {
        let model = Arc::new(CorrelatedGaussian::new(16, 0.8));
        let nuts = BatchNuts::new(model, cfg(n_traj)).expect("builds");
        let mut tr = Trace::new(Backend::xla_cpu());
        let opts = ExecOptions {
            heuristic,
            ..paper_options(&nuts)
        };
        nuts.run_pc_opts(&q0, Some(&mut tr), opts).expect("pc");
        tr.utilization("grad")
    };
    let (e_short, e_long) = (
        util(2, BlockHeuristic::EarliestBlock),
        util(16, BlockHeuristic::EarliestBlock),
    );
    let (m_short, m_long) = (
        util(2, BlockHeuristic::MostActive),
        util(16, BlockHeuristic::MostActive),
    );
    assert!(
        m_long > m_short,
        "most-active recovers the paper's trend: {m_short:.3} -> {m_long:.3}"
    );
    assert!(
        e_long < e_short,
        "earliest-block disperses instead: {e_short:.3} -> {e_long:.3}"
    );
    // Neither collapses: long-chain utilization stays above a floor.
    assert!(e_long > 0.1 && m_long > 0.1);
}

#[test]
fn ablation_dynamic_recovers_more_batching_than_lsab() {
    // The §5 related-work architecture: dynamic (agenda) batching merges
    // gradient calls across trajectory and call boundaries
    // opportunistically, so on identical NUTS workloads it needs fewer
    // gradient launches than local static autobatching — while computing
    // the exact same answers. (Its structural drawback — no graph
    // compilation — is a property, not a measurement.)
    let model = Arc::new(CorrelatedGaussian::new(25, 0.8));
    let cfg = NutsConfig {
        step_size: 0.2,
        n_trajectories: 3,
        max_depth: 6,
        leapfrog_steps: 2,
        seed: 57,
    };
    let nuts = BatchNuts::new(model, cfg).expect("builds");
    let q0 = starts(16, 25);
    let mut tr_local = Trace::new(Backend::eager_cpu());
    let out_local = nuts
        .run_local_opts(&q0, Some(&mut tr_local), paper_options(&nuts))
        .expect("lsab");
    let mut tr_dyn = Trace::new(Backend::eager_cpu());
    let out_dyn = nuts.run_dynamic(&q0, Some(&mut tr_dyn)).expect("dynamic");
    assert_eq!(out_local, out_dyn, "architectures agree exactly");
    let l_lsab = tr_local.logical_stats("grad").expect("lsab grads").launches;
    let l_dyn = tr_dyn.logical_stats("grad").expect("dyn grads").launches;
    assert!(
        l_dyn < l_lsab,
        "dynamic batches gradients harder: {l_dyn} vs {l_lsab} launches"
    );
}

#[test]
fn fig6_utilization_decays_from_one() {
    let model = Arc::new(CorrelatedGaussian::new(24, 0.9));
    let cfg = NutsConfig {
        step_size: 0.15,
        n_trajectories: 6,
        max_depth: 6,
        leapfrog_steps: 4,
        seed: 29,
    };
    let nuts = BatchNuts::new(model, cfg).expect("builds");
    let mut last = f64::INFINITY;
    for z in [1usize, 8, 32] {
        let mut tr = Trace::new(Backend::xla_cpu());
        nuts.run_pc_opts(&starts(z, 24), Some(&mut tr), paper_options(&nuts))
            .expect("pc");
        let u = tr.utilization("grad");
        if z == 1 {
            assert!((u - 1.0).abs() < 1e-12, "single member wastes nothing");
        }
        assert!(u <= last + 1e-9, "utilization decays with batch size");
        last = u;
    }
}
