//! Differential soundness test of the static verification tier.
//!
//! Randomly generated control-flow programs (straight-line arithmetic,
//! if/else, bounded loops, cross-function calls — and, for a quarter of
//! seeds, a deliberately injected type error) are pushed through the
//! verifier and then executed on all three VMs under every primitive
//! execution strategy. The soundness contract under test:
//!
//! - a program carrying an injected type error is rejected statically —
//!   by program-level analysis or by signature inference against its
//!   concrete input specs — before any VM sees it;
//! - a verifier-accepted program never raises a statically-excluded
//!   error class at runtime (`VmError::Tensor`, `VmError::Unbound`, or
//!   `VmError::StackOverflow` when the reported stack bounds fit the
//!   configured limit), on any VM, under any strategy;
//! - every successful run's outputs match the inferred signature's
//!   dtypes and shapes exactly, and all VMs agree bit-for-bit.
//!
//! Cases are deterministic: the vendored proptest harness derives seeds
//! from `(PROPTEST_SEED, test name, case index)` and the program
//! generator (`autobatch_lang::genprog`) is a pure function of its seed.

use autobatch::core::{
    lower, DynSchedule, DynamicVm, ExecOptions, ExecStrategy, KernelRegistry, LocalStaticVm,
    LoweringOptions, PcVm, VmError,
};
use autobatch::ir::analysis::{
    analyze_lsab, analyze_pcab, infer_lsab_signature, AbsDType, AbsShape, TensorSpec,
};
use autobatch::lang::gen_program;
use autobatch::tensor::{DType, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Batch members per run.
const Z: usize = 3;

/// Materialize a concrete batch for the generated program's input
/// specs: shape `[Z] ++ elem_shape`, values drawn deterministically
/// from the seed.
fn materialize(specs: &[TensorSpec], seed: u64) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    specs
        .iter()
        .map(|s| {
            let volume = Z * s.elem_shape.iter().product::<usize>();
            let mut shape = vec![Z];
            shape.extend_from_slice(&s.elem_shape);
            match s.dtype {
                AbsDType::F64 => {
                    let v: Vec<f64> = (0..volume).map(|_| rng.gen_range(-2.0..2.0)).collect();
                    Tensor::from_f64(&v, &shape).expect("f64 input")
                }
                AbsDType::I64 => {
                    let v: Vec<i64> = (0..volume).map(|_| rng.gen_range(0..5i64)).collect();
                    Tensor::from_i64(&v, &shape).expect("i64 input")
                }
                _ => unreachable!("the generator only emits f64/i64 inputs"),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn verifier_accepted_programs_run_clean_on_every_vm(seed in any::<u64>()) {
        let g = gen_program(seed);
        let report = analyze_lsab(&g.program);
        let concrete = infer_lsab_signature(&g.program, &g.inputs);
        let accepted = report.ok() && concrete.is_ok();
        if g.expect_reject {
            // Ill-typedness can be *relative* to the input specs (an
            // error on concrete inputs may be a mere inferred
            // constraint at program level), so rejection means either
            // gate refusing.
            prop_assert!(
                !accepted,
                "program with an injected type error escaped both static gates"
            );
            return;
        }
        prop_assert!(
            accepted,
            "well-typed generated program rejected statically: {:?}",
            report
                .diagnostics
                .first()
                .cloned()
                .or_else(|| concrete.as_ref().err().cloned())
        );
        let sig = concrete.expect("accepted above");
        // The signature of an accepted program on concrete inputs is
        // fully concrete — that is what makes the runtime comparison
        // exact rather than best-effort.
        for out in &sig.outputs {
            prop_assert!(
                !matches!(out.dtype, AbsDType::Any),
                "signature output dtype not concrete: {}",
                out
            );
            prop_assert!(
                matches!(out.shape, AbsShape::Elem(_)),
                "signature output shape not concrete: {}",
                out
            );
        }

        let (lowered, _) =
            lower(&g.program, LoweringOptions::default()).expect("accepted program lowers");
        let pc_report = analyze_pcab(&lowered);
        prop_assert!(
            pc_report.ok(),
            "lowering an accepted program produced a diagnostic: {:?}",
            pc_report.diagnostics.first()
        );

        let inputs = materialize(&g.inputs, seed);
        let defaults = ExecOptions::default();
        let mut runs: Vec<(String, Result<Vec<Tensor>, VmError>)> = Vec::new();
        for strategy in [ExecStrategy::Masking, ExecStrategy::GatherScatter, ExecStrategy::Adaptive] {
            let opts = ExecOptions { strategy, ..ExecOptions::default() };
            runs.push((
                format!("lsab/{strategy:?}"),
                LocalStaticVm::new(&g.program, KernelRegistry::new(), opts).run(&inputs, None),
            ));
            runs.push((
                format!("pc/{strategy:?}"),
                PcVm::new(&lowered, KernelRegistry::new(), opts).run(&inputs, None),
            ));
        }
        for schedule in [DynSchedule::Agenda, DynSchedule::Breadth] {
            let opts = ExecOptions { dyn_schedule: schedule, ..ExecOptions::default() };
            runs.push((
                format!("dynamic/{schedule:?}"),
                DynamicVm::new(&g.program, KernelRegistry::new(), opts).run(&inputs, None),
            ));
        }

        let mut agreed: Option<(&str, &Vec<Tensor>)> = None;
        for (vm, res) in &runs {
            match res {
                Ok(outs) => {
                    prop_assert_eq!(outs.len(), sig.outputs.len(), "{}: arity drift", vm);
                    for (i, (got, want)) in outs.iter().zip(&sig.outputs).enumerate() {
                        let want_dtype = match want.dtype {
                            AbsDType::F64 => DType::F64,
                            AbsDType::I64 => DType::I64,
                            AbsDType::Bool => DType::Bool,
                            AbsDType::Any => unreachable!("checked concrete above"),
                        };
                        prop_assert_eq!(
                            got.dtype(),
                            want_dtype,
                            "{}: output {} dtype drifts from the signature",
                            vm,
                            i
                        );
                        let AbsShape::Elem(elem) = &want.shape else {
                            unreachable!("checked concrete above")
                        };
                        let mut want_shape = vec![Z];
                        want_shape.extend_from_slice(elem);
                        prop_assert_eq!(
                            got.shape(),
                            &want_shape[..],
                            "{}: output {} shape drifts from the signature",
                            vm,
                            i
                        );
                    }
                    match &agreed {
                        None => agreed = Some((vm, outs)),
                        Some((first_vm, first)) => prop_assert_eq!(
                            &outs,
                            first,
                            "{} and {} disagree bit-for-bit",
                            vm,
                            first_vm
                        ),
                    }
                }
                Err(e) => {
                    prop_assert!(
                        !matches!(e, VmError::Tensor(_) | VmError::Unbound { .. }),
                        "{}: statically-excluded error class raised at runtime: {}",
                        vm,
                        e
                    );
                    if matches!(e, VmError::StackOverflow { .. }) {
                        prop_assert!(
                            !pc_report.overflow_excluded(defaults.stack_depth),
                            "{}: stack overflow despite static bounds (pc {}, data {}) \
                             fitting limit {}",
                            vm,
                            pc_report.pc_depth,
                            pc_report.data_depth,
                            defaults.stack_depth
                        );
                    }
                }
            }
        }
        // The generator only emits terminating, recursion-free,
        // RNG-free programs: at least one VM must actually have
        // produced outputs, or the comparisons above were all vacuous.
        prop_assert!(
            agreed.is_some(),
            "no VM completed an accepted program: {:?}",
            runs.iter().map(|(vm, r)| (vm, r.is_ok())).collect::<Vec<_>>()
        );
    }
}
