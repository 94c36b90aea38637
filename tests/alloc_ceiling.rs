//! The PC interpreter's allocations per superstep, as a ceiling on an
//! exact count (they are a pure function of the code path): the
//! 12-request streams of `crates/serve/tests/golden_outputs.rs` through
//! one [`PcMachine`], fusion on and off. Supersteps and eager launches
//! are pinned exactly; allocations may only go down (ROADMAP item 3(b)).
//! The machines run `ExecOptions::default()`, so the ceilings cover the
//! adaptive strategy's gathered supersteps too (funnel-NUTS gathers 92
//! and 61 of its 3,468): their operand buffers live in the scratch
//! arena, and what a machine allocates once to set them up is inside
//! the ceiling. So are the buffers results are written into: a machine
//! keeps the tensors its supersteps wrote and refills them, so after
//! its first supersteps a binom superstep allocates nothing, and the
//! binom totals are that warm-up plus the retirements (536 allocations
//! on either path). Funnel-NUTS still allocates in its model kernels
//! and in the primitives without an into-buffer form (`select`, casts,
//! reductions, draws, `and` / `or` / `not`). `core.allocs_per_superstep`
//! in `benchmark/` counts the served path.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use autobatch::accel::{Backend, Trace};
use autobatch::core::{
    lower, ExecOptions, ExecStrategy, KernelRegistry, LoweringOptions, PcMachine,
};
use autobatch::ir::pcab::Program;
use autobatch::lang::compile;
use autobatch::models::NealsFunnel;
use autobatch::nuts::{BatchNuts, NutsConfig};
use autobatch::tensor::{CounterRng, Tensor};

thread_local!(static ALLOCATIONS: Cell<u64> = const { Cell::new(0) });

/// [`System`], counting per thread so that libtest's other threads stay
/// out of the window. The default `realloc` is one `alloc`: one count.
struct CountingAlloc;

// SAFETY: every operation is delegated to `System` unchanged; the
// counter is a const-initialised thread-local `Cell` with no destructor,
// so touching it neither allocates nor outlives its thread.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Run `requests`, all admitted up front into one machine, with fusion
/// on and off (`pins`: fused?, allocation ceiling, eager launches). Each
/// run must take exactly `supersteps` and its pinned launches, and
/// allocate no more than its ceiling inside `run_to_completion`.
fn check(
    program: &Program,
    registry: &KernelRegistry,
    opts: ExecOptions,
    requests: &[Vec<Tensor>],
    supersteps: u64,
    pins: [(bool, u64, u64); 2],
) {
    let members: Vec<(&[Tensor], u64)> = requests.iter().map(Vec::as_slice).zip(0..).collect();
    for (fuse_elementwise, ceiling, launches) in pins {
        let opts = ExecOptions {
            fuse_elementwise,
            ..opts
        };
        let run = |trace: Option<&mut Trace>| {
            let mut m = PcMachine::new(program, registry.clone(), opts);
            m.admit_batch(&members, None).expect("admission");
            let before = ALLOCATIONS.with(Cell::get);
            let done = m.run_to_completion(trace).expect("runs");
            let allocations = ALLOCATIONS.with(Cell::get) - before;
            assert_eq!(done.len(), requests.len());
            (m.supersteps(), allocations)
        };
        let (steps, allocations) = run(None);
        let mut trace = Trace::new(Backend::eager_cpu());
        run(Some(&mut trace));
        let at = format!("fused={fuse_elementwise}");
        assert_eq!((steps, trace.launches()), (supersteps, launches), "{at}");
        assert!(
            allocations <= ceiling,
            "{at}: {allocations} allocations in {steps} supersteps, ceiling {ceiling}"
        );
    }
}

/// The divergent binom program, lowered, and its 12-request stream.
fn binom() -> (Program, Vec<Vec<Tensor>>) {
    let source = "fn binom(n: int, k: int) -> (out: int) {
        if k <= 0 { out = 1; } else if k >= n { out = 1; } else {
            let left = binom(n - 1, k - 1);
            let right = binom(n - 1, k);
            out = left + right;
        }
    }";
    let program = compile(source, "binom").expect("binom compiles");
    let (pc, _) = lower(&program, LoweringOptions::default()).expect("binom lowers");
    let scalar = |x| Tensor::from_i64(&[x], &[1]).expect("scalar");
    let requests: Vec<Vec<Tensor>> = (0..12)
        .map(|i| vec![scalar(10 + i * 5 % 7), scalar(2 + i * 3 % 5)])
        .collect();
    (pc, requests)
}

#[test]
fn divergent_binom_stays_under_0_0075_and_0_0074_allocations_per_superstep() {
    let (pc, requests) = binom();
    let pins = [(true, 623, 249_237), (false, 609, 333_778)];
    let opts = ExecOptions::default();
    check(&pc, &KernelRegistry::new(), opts, &requests, 83_220, pins);
}

/// The allocations of one call, on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Admission and retirement edit every per-lane buffer (ROADMAP 17).
/// Seven binom lanes run 40 supersteps, so every stack store, top and
/// register exists; one more request joins them, and once all eight
/// have finished they retire together. Both counts are exact.
#[test]
fn admitting_one_binom_lane_allocates_51_and_retiring_eight_allocates_63() {
    let (pc, requests) = binom();
    let members: Vec<(&[Tensor], u64)> = requests.iter().map(Vec::as_slice).zip(0..).collect();
    let mut m = PcMachine::new(&pc, KernelRegistry::new(), ExecOptions::default());
    m.admit_batch(&members[..7], None).expect("admission");
    for _ in 0..40 {
        assert!(m.step(None).expect("steps"));
    }
    let (admitted, admit) = allocations(|| m.admit_batch(&members[7..8], None));
    admitted.expect("admission");
    while m.step(None).expect("steps") {}
    let (retired, retire) = allocations(|| m.retire_finished(None));
    assert_eq!(retired.expect("retirement").len(), 8);
    assert_eq!((admit, retire), (51, 63), "admission, retirement");
}

#[test]
fn funnel_nuts_stays_under_6_142_and_6_234_allocations_per_superstep() {
    let cfg = NutsConfig {
        step_size: 0.2,
        n_trajectories: 3,
        max_depth: 6,
        leapfrog_steps: 2,
        seed: 31,
    };
    let nuts = BatchNuts::new(Arc::new(NealsFunnel::new(5)), cfg).expect("NUTS compiles");
    let rng = CounterRng::new(64);
    let requests: Vec<Vec<Tensor>> = (0..12)
        .map(|i| rng.normal_batch(&[i], &[nuts.dim()]).row(0).expect("row"))
        .map(|q| nuts.request_inputs(&q).expect("inputs"))
        .collect();
    let pins = [(true, 17_981, 18_497), (false, 18_445, 23_062)];
    let (program, opts) = (nuts.lowered(), nuts.exec_options());
    check(program, nuts.registry(), opts, &requests, 3_468, pins);
}

/// `payload_wide`'s shape: one block, every lane active. The fixed
/// gather arm copies all eight 64 KiB operands there for nothing; the
/// default must take the masked path, allocation for allocation.
#[test]
fn a_full_width_superstep_allocates_no_more_adaptive_than_masked() {
    let source = "fn norm(q: vec) -> (out: float) { out = dot(q, q); }";
    let program = compile(source, "norm").expect("norm compiles");
    let (pc, _) = lower(&program, LoweringOptions::default()).expect("norm lowers");
    let rng = CounterRng::new(9);
    let rows: Vec<[Tensor; 1]> = (0..8).map(|i| [rng.normal_batch(&[i], &[8192])]).collect();
    let members: Vec<(&[Tensor], u64)> = rows.iter().map(|r| &r[..]).zip(0..).collect();
    let run = |strategy| {
        let opts = ExecOptions {
            strategy,
            ..ExecOptions::default()
        };
        let mut m = PcMachine::new(&pc, KernelRegistry::new(), opts);
        m.admit_batch(&members, None).expect("admission");
        let before = ALLOCATIONS.with(Cell::get);
        let done = m.run_to_completion(None).expect("runs");
        let allocations = ALLOCATIONS.with(Cell::get) - before;
        assert_eq!(done.len(), 8);
        (allocations, m.gathered_supersteps(), m.supersteps())
    };
    let masked = run(ExecStrategy::Masking);
    assert_eq!(run(ExecStrategy::Adaptive), masked);
    let (copying, gathered, steps) = run(ExecStrategy::GatherScatter);
    assert_eq!((gathered, steps), (masked.2, masked.2));
    assert!(copying > masked.0, "{copying} against {}", masked.0);
}
