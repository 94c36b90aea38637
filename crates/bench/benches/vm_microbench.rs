//! Real wall-clock microbenchmarks of the actual Rust interpreters
//! (not the simulated-accelerator timings the figures use): VM superstep
//! overhead, batched Fibonacci on both runtimes, one batched NUTS
//! trajectory set, tensor kernels, and the host cost of one per-op
//! primitive on a binom-sized batch.

use std::sync::Arc;

use autobatch_core::{
    eval_prim, lower, DynamicVm, ExecOptions, KernelRegistry, LocalStaticVm, LoweringOptions, PcVm,
};
use autobatch_ir::build::fibonacci_program;
use autobatch_ir::Prim;
use autobatch_models::StdNormal;
use autobatch_nuts::{BatchNuts, NutsConfig};
use autobatch_tensor::{scalar_ops, CounterRng, DType, Tensor};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_fib(c: &mut Criterion) {
    let program = fibonacci_program();
    let (lowered, _) = lower(&program, LoweringOptions::default()).expect("fib lowers");
    let mut group = c.benchmark_group("fibonacci");
    for z in [1usize, 16, 64] {
        let ns: Vec<i64> = (0..z as i64).map(|i| 5 + (i % 7)).collect();
        let input = vec![Tensor::from_i64(&ns, &[z]).expect("input")];
        group.bench_with_input(BenchmarkId::new("local-static", z), &input, |b, input| {
            let vm = LocalStaticVm::new(&program, KernelRegistry::new(), ExecOptions::default());
            b.iter(|| vm.run(input, None).expect("runs"));
        });
        group.bench_with_input(
            BenchmarkId::new("program-counter", z),
            &input,
            |b, input| {
                let vm = PcVm::new(&lowered, KernelRegistry::new(), ExecOptions::default());
                b.iter(|| vm.run(input, None).expect("runs"));
            },
        );
        group.bench_with_input(BenchmarkId::new("dynamic", z), &input, |b, input| {
            let vm = DynamicVm::new(&program, KernelRegistry::new(), ExecOptions::default());
            b.iter(|| vm.run(input, None).expect("runs"));
        });
    }
    group.finish();
}

fn bench_nuts(c: &mut Criterion) {
    let cfg = NutsConfig {
        step_size: 0.25,
        n_trajectories: 2,
        max_depth: 5,
        leapfrog_steps: 2,
        seed: 1,
    };
    let nuts = BatchNuts::new(Arc::new(StdNormal::new(8)), cfg).expect("NUTS compiles");
    let mut group = c.benchmark_group("nuts");
    group.sample_size(10);
    for z in [4usize, 32] {
        let q0 = Tensor::zeros(autobatch_tensor::DType::F64, &[z, 8]);
        group.bench_with_input(BenchmarkId::new("local-static", z), &q0, |b, q0| {
            b.iter(|| nuts.run_local(q0, None).expect("runs"));
        });
        group.bench_with_input(BenchmarkId::new("program-counter", z), &q0, |b, q0| {
            b.iter(|| nuts.run_pc(q0, None).expect("runs"));
        });
    }
    group.finish();
}

fn bench_tensor_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("tensor");
    let a = Tensor::full(&[1024, 100], 1.5);
    let b2 = Tensor::full(&[1024, 100], 2.5);
    group.bench_function("add-1024x100", |b| {
        b.iter(|| a.add(&b2).expect("add"));
    });
    let mask: Vec<bool> = (0..1024).map(|i| i % 3 == 0).collect();
    group.bench_function("masked-assign-1024x100", |b| {
        let mut dst = a.clone();
        b.iter(|| dst.masked_assign_rows(&mask, &b2).expect("mask"));
    });
    let stack = Tensor::full(&[1024, 32, 100], 0.0);
    let depths: Vec<usize> = (0..1024).map(|i| i % 32).collect();
    group.bench_function("gather-at-depth-1024x32x100", |b| {
        let mut top = Tensor::full(&[1024, 100], 0.0);
        b.iter(|| {
            stack
                .gather_at_depth_into(&depths, &[true; 1024], &mut top)
                .expect("gather")
        });
    });
    group.finish();
}

/// Calls per timed sample of a per-op row: one call is below the
/// timer's resolution.
const CALLS: usize = 1000;

/// One primitive as a `binom_divergent` superstep runs it: 8 lanes of
/// `i64`, through `eval_prim` with the last result handed back as the
/// spare, and the into-buffer kernel `zip_into` alone. Each sample is
/// `CALLS` calls.
fn bench_per_op(c: &mut Criterion) {
    let mut group = c.benchmark_group("per-op");
    let (rng, registry) = (CounterRng::new(0), KernelRegistry::new());
    let members: Vec<u64> = (0..8).collect();
    let n = Tensor::from_i64(&[9, 3, 12, 5, 7, 0, 4, 10], &[8]).expect("n");
    let k = Tensor::from_i64(&[4, 1, 6, 5, 2, 0, 3, 1], &[8]).expect("k");
    for prim in [Prim::Le, Prim::Sub] {
        group.bench_function(format!("eval_prim-{prim}-i64x8-x{CALLS}"), |b| {
            let (mut spare, mut out) = (Vec::new(), Vec::new());
            b.iter(|| {
                for _ in 0..CALLS {
                    let spare = &mut spare;
                    eval_prim(&prim, &[&n, &k], &members, &rng, &registry, spare, &mut out)
                        .expect("eval");
                    spare.append(&mut out);
                }
            });
        });
    }
    group.bench_function(format!("zip_into-sub-i64x8-x{CALLS}"), |b| {
        let mut out = Tensor::zeros(DType::I64, &[8]);
        b.iter(|| {
            for _ in 0..CALLS {
                n.zip_into(&k, scalar_ops::sub_i64, &mut out).expect("zip");
            }
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fib,
    bench_nuts,
    bench_tensor_kernels,
    bench_per_op
);
criterion_main!(benches);
