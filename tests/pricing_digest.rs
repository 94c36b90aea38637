//! Golden digests of the *prices*, not the results.
//!
//! The golden-output tests hash responses and pin superstep counts
//! only, so nothing else pins what the accelerator cost model charges. This suite hashes the whole [`Trace`] — simulated
//! time, launch and superstep counts, and every per-kernel row of both
//! the priced and the logical table — over three programs × the four
//! runtimes × both fixed execution strategies × fusion on/off × stack-top
//! caching on/off × an eager, a compiled and a hybrid backend. A change
//! that only moves the pricing code around must leave every constant
//! below untouched, in the dev and the release profile alike (f64
//! addition is not associative: accumulating in another order shows up
//! here as a changed `sim_time` bit).
//!
//! Each constant folds the 24 configurations of one (program, runtime)
//! pair; on a mismatch the per-configuration digests are printed so two
//! commits can be diffed line by line. The default strategy, which
//! chooses between the two per superstep, has a second table of its own.

use std::collections::BTreeSet;
use std::sync::Arc;

use autobatch::accel::{Backend, KernelStats, Trace};
use autobatch::core::{
    lower, DynamicVm, ExecOptions, ExecStrategy, KernelRegistry, LocalStaticVm, LoweringOptions,
    PcMachine, PcVm,
};
use autobatch::ir::build::fibonacci_program;
use autobatch::ir::{lsab, pcab};
use autobatch::lang::compile;
use autobatch::models::LogisticRegression;
use autobatch::nuts::{BatchNuts, NutsConfig};
use autobatch::tensor::{CounterRng, Tensor};

/// The divergent-binom source of `crates/serve/tests/golden_outputs.rs`.
const BINOM_SRC: &str = "
    // C(n, k) by Pascal's rule — doubly data-dependent recursion.
    fn binom(n: int, k: int) -> (out: int) {
        if k <= 0 {
            out = 1;
        } else if k >= n {
            out = 1;
        } else {
            let left = binom(n - 1, k - 1);
            let right = binom(n - 1, k);
            out = left + right;
        }
    }
";

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn mix(h: &mut u64, x: u64) {
    *h ^= x;
    *h = h.wrapping_mul(0x1000_0000_01b3);
}

fn mix_row(h: &mut u64, kernel: &str, s: &KernelStats) {
    kernel.bytes().for_each(|b| mix(h, u64::from(b)));
    mix(h, s.launches);
    mix(h, s.flops.to_bits());
    mix(h, s.time.to_bits());
    mix(h, s.active_members);
    mix(h, s.total_members);
}

/// FNV-1a over everything the trace priced. `logical_keys` is every tag
/// a logical record can carry (the primitives of the program in either
/// form): the logical table has no iterator, so it is probed key by key.
fn trace_digest(t: &Trace, logical_keys: &BTreeSet<String>) -> u64 {
    let mut h = FNV_OFFSET;
    mix(&mut h, t.sim_time().to_bits());
    mix(&mut h, t.launches());
    mix(&mut h, t.supersteps());
    for (k, s) in t.kernels() {
        mix_row(&mut h, k, s);
    }
    for k in logical_keys {
        if let Some(s) = t.logical_stats(k) {
            mix_row(&mut h, k, s);
        }
    }
    h
}

/// One program in both forms, with its kernels and a batch of inputs.
struct Workload {
    name: &'static str,
    lsab: lsab::Program,
    pcab: pcab::Program,
    registry: KernelRegistry,
    inputs: Vec<Tensor>,
    opts: ExecOptions,
}

impl Workload {
    fn new(
        name: &'static str,
        lsab: lsab::Program,
        registry: KernelRegistry,
        inputs: Vec<Tensor>,
        opts: ExecOptions,
    ) -> Workload {
        let (pcab, _) = lower(&lsab, LoweringOptions::default()).expect("lowers");
        Workload {
            name,
            lsab,
            pcab,
            registry,
            inputs,
            opts,
        }
    }

    fn logical_keys(&self) -> BTreeSet<String> {
        let mut keys = BTreeSet::new();
        for op in self
            .lsab
            .funcs
            .iter()
            .flat_map(|f| &f.blocks)
            .flat_map(|b| &b.ops)
        {
            if let lsab::Op::Prim { prim, .. } = op {
                keys.insert(prim.kernel_tag().to_string());
            }
        }
        for op in self.pcab.blocks.iter().flat_map(|b| &b.ops) {
            if let pcab::Op::Compute { prim, .. } = op {
                keys.insert(prim.kernel_tag().to_string());
            }
        }
        keys
    }

    /// Rows `lo..hi` of every input, as one `[1, ..]` request per row.
    fn rows(&self, lo: usize, hi: usize) -> Vec<Vec<Tensor>> {
        (lo..hi)
            .map(|b| {
                self.inputs
                    .iter()
                    .map(|t| t.gather_rows(&[b]).expect("row"))
                    .collect()
            })
            .collect()
    }
}

fn workloads() -> Vec<Workload> {
    let fib = Workload::new(
        "fibonacci",
        fibonacci_program(),
        KernelRegistry::new(),
        vec![Tensor::from_i64(&[3, 9, 1, 7, 5, 8], &[6]).expect("n")],
        ExecOptions::default(),
    );
    let (n, k): (Vec<i64>, Vec<i64>) = (0..8).map(|i| (7 + i * 5 % 4, 2 + i * 3 % 5)).unzip();
    let binom = Workload::new(
        "binom",
        compile(BINOM_SRC, "binom").expect("binom compiles"),
        KernelRegistry::new(),
        vec![
            Tensor::from_i64(&n, &[8]).expect("n"),
            Tensor::from_i64(&k, &[8]).expect("k"),
        ],
        ExecOptions::default(),
    );
    let cfg = NutsConfig {
        step_size: 0.1,
        n_trajectories: 2,
        max_depth: 3,
        leapfrog_steps: 4,
        seed: 9,
    };
    let sampler =
        BatchNuts::new(Arc::new(LogisticRegression::synthetic(24, 3, 42)), cfg).expect("nuts");
    let q0 = CounterRng::new(77).normal_batch(&[0, 1, 2, 3], &[sampler.dim()]);
    let nuts = Workload::new(
        "nuts",
        sampler.program().clone(),
        sampler.registry().clone(),
        sampler.batch_inputs(&q0).expect("inputs"),
        sampler.exec_options(),
    );
    vec![fib, binom, nuts]
}

const RUNTIMES: [&str; 4] = ["PcVm", "PcMachine", "LocalStaticVm", "DynamicVm"];

fn run(w: &Workload, runtime: &str, opts: ExecOptions, trace: &mut Trace) {
    let registry = w.registry.clone();
    match runtime {
        "PcVm" => {
            PcVm::new(&w.pcab, registry, opts)
                .run(&w.inputs, Some(trace))
                .expect("pc run");
        }
        "PcMachine" => {
            // Half the batch, three supersteps, then the rest mid-flight.
            let z = w.inputs[0].shape()[0];
            let mut m = PcMachine::new(&w.pcab, registry, opts);
            for (b, row) in w.rows(0, z / 2).iter().enumerate() {
                m.admit(row, b as u64, Some(trace)).expect("admit");
            }
            for _ in 0..3 {
                m.step(Some(trace)).expect("step");
            }
            let late = w.rows(z / 2, z);
            let batch: Vec<(&[Tensor], u64)> = late
                .iter()
                .enumerate()
                .map(|(j, row)| (row.as_slice(), (z / 2 + j) as u64))
                .collect();
            m.admit_batch(&batch, Some(trace)).expect("admit_batch");
            let done = m.run_to_completion(Some(trace)).expect("drain");
            assert_eq!(done.len(), z, "{}: every member retires", w.name);
        }
        "LocalStaticVm" => {
            LocalStaticVm::new(&w.lsab, registry, opts)
                .run(&w.inputs, Some(trace))
                .expect("lsab run");
        }
        "DynamicVm" => {
            DynamicVm::new(&w.lsab, registry, opts)
                .run(&w.inputs, Some(trace))
                .expect("dynamic run");
        }
        other => unreachable!("unknown runtime {other}"),
    }
}

/// Per-configuration digests of one (program, runtime) pair under the
/// given strategies, in a fixed order, and their fold.
fn pair_digest(
    w: &Workload,
    runtime: &str,
    strategies: &[ExecStrategy],
) -> (u64, Vec<(String, u64)>) {
    let keys = w.logical_keys();
    let mut rows = Vec::new();
    let mut fold = FNV_OFFSET;
    for &strategy in strategies {
        for fuse in [true, false] {
            for cache in [true, false] {
                for backend in [
                    Backend::eager_cpu(),
                    Backend::xla_gpu(),
                    Backend::hybrid_cpu(),
                ] {
                    let opts = ExecOptions {
                        strategy,
                        fuse_elementwise: fuse,
                        cache_stack_tops: cache,
                        ..w.opts
                    };
                    let mut trace = Trace::new(backend);
                    run(w, runtime, opts, &mut trace);
                    let d = trace_digest(&trace, &keys);
                    mix(&mut fold, d);
                    rows.push((
                        format!(
                            "{}/{runtime}/{strategy:?}/fuse={fuse}/cache={cache}/{}",
                            w.name, backend.name
                        ),
                        d,
                    ));
                }
            }
        }
    }
    (fold, rows)
}

/// Golden folds, `[program][runtime]` in `workloads()` × `RUNTIMES` order.
const GOLDEN: [[u64; 4]; 3] = [
    [
        0x779b_4ed5_86ad_2b50,
        0xbe1f_76b4_e827_36c2,
        0xc96f_6ed2_f915_f6d1,
        0x57a7_0f78_20cb_c105,
    ],
    [
        0x5268_2e5a_0813_684e,
        0xe850_3d79_9e02_e54a,
        0x0650_2c94_b9a3_dae5,
        0x9f87_0ac1_6331_7e75,
    ],
    [
        0x3915_1f6d_4c73_eb5a,
        0x480e_577c_30a5_8a91,
        0xfe91_4e95_7b51_ab09,
        0x145f_fbc1_792e_3dad,
    ],
];

/// The same folds under [`ExecStrategy::Adaptive`] alone (12
/// configurations each), kept apart so that the default strategy's
/// prices are pinned without moving a constant above. What is pinned
/// here beyond the cost model is the *choice*: which supersteps gather
/// is a comparison of f64 products and must come out the same in the
/// dev and the release profile. (The dynamic runtime has no strategy;
/// its row is the masked prices again.)
const ADAPTIVE_GOLDEN: [[u64; 4]; 3] = [
    [
        0x5830_5204_57a1_e08b,
        0x64a9_978a_b451_0e61,
        0xfde8_c644_9c5d_47e5,
        0x03e9_3a51_c1bf_ee95,
    ],
    [
        0x2ebb_747e_1ada_fd47,
        0x0ee6_785b_9e5d_62ab,
        0xff11_9f2a_a22c_9ff1,
        0x4f27_9e68_87de_3cbd,
    ],
    [
        0x9e5b_5161_67bc_4db1,
        0x1ed8_10fd_c504_a453,
        0xd570_b937_2f1b_b1b9,
        0x0ba5_0ad3_3cf5_2d21,
    ],
];

#[test]
fn prices_are_bit_identical_to_the_characterised_parent() {
    check(
        &[ExecStrategy::Masking, ExecStrategy::GatherScatter],
        GOLDEN,
    );
}

#[test]
fn adaptive_prices_and_choices_are_pinned_apart_from_the_fixed_arms() {
    check(&[ExecStrategy::Adaptive], ADAPTIVE_GOLDEN);
}

fn check(strategies: &[ExecStrategy], golden: [[u64; 4]; 3]) {
    let mut report = String::new();
    let mut drifted = Vec::new();
    for (w, golden) in workloads().iter().zip(golden) {
        for (runtime, want) in RUNTIMES.into_iter().zip(golden) {
            let (got, rows) = pair_digest(w, runtime, strategies);
            report.push_str(&format!("{}/{runtime}: {got:#018x}\n", w.name));
            for (label, d) in rows {
                report.push_str(&format!("    {label}: {d:#018x}\n"));
            }
            if got != want {
                drifted.push(format!("{}/{runtime}", w.name));
            }
        }
    }
    // Shown by `--nocapture`, and by the harness when the test fails.
    println!("{report}");
    assert!(drifted.is_empty(), "priced traces drifted: {drifted:?}");
}
