//! Real wall-clock microbenchmarks of the actual Rust interpreters
//! (not the simulated-accelerator timings the figures use): VM superstep
//! overhead, batched Fibonacci on both runtimes, and one batched NUTS
//! trajectory set.

use std::sync::Arc;

use autobatch_core::{
    lower, DynamicVm, ExecOptions, KernelRegistry, LocalStaticVm, LoweringOptions, PcVm,
};
use autobatch_ir::build::fibonacci_program;
use autobatch_models::StdNormal;
use autobatch_nuts::{BatchNuts, NutsConfig};
use autobatch_tensor::Tensor;
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

criterion_group!(benches, bench_fib, bench_nuts, bench_tensor_kernels);
criterion_main!(benches);
