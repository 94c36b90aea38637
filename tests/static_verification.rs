//! Differential soundness test of the static verification tier.
//!
//! Programs from the shared random-program generator (`tests/common`:
//! mixed `f64`/`i64` values at scalar and `[2]` element shapes, if/else,
//! bounded loops, acyclic calls, single, double and mutual recursion
//! entered at `main` or at the recursive helper, and, for about a quarter
//! of seeds, a deliberately injected type error) are pushed through the
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
//! generator is a pure function of its seed.

mod common;

use autobatch::core::{
    lower, DynSchedule, DynamicVm, ExecOptions, ExecStrategy, KernelRegistry, LocalStaticVm,
    LoweringOptions, PcVm, VmError,
};
use autobatch::ir::analysis::{
    analyze_lsab, analyze_pcab, infer_lsab_signature, AbsDType, AbsShape,
};
use autobatch::tensor::{DType, Tensor};
use common::{generate, materialize};
use proptest::prelude::*;

/// Batch members per run.
const Z: usize = 3;

#[test]
fn generation_is_deterministic() {
    for at_helper in [false, true] {
        let (a, b) = (generate(42, at_helper), generate(42, at_helper));
        assert_eq!(format!("{:?}", a.program), format!("{:?}", b.program));
        assert_eq!((a.expect_reject, a.recurses), (b.expect_reject, b.recurses));
    }
}

/// An injected ill-typed op must be caught by verification against the
/// generator's concrete input specs (some injections, like a logic op on
/// two inputs, are only ill-typed *given* those specs — at program level
/// they merely infer a bool constraint), and every other program, with
/// or without recursion, must verify.
#[test]
fn well_typed_programs_verify_and_ill_typed_ones_do_not() {
    let (mut accepted, mut recursive, mut rejected) = (0, 0, 0);
    for seed in 0..200 {
        let g = generate(seed, seed % 2 == 1);
        let program_ok = analyze_lsab(&g.program).ok();
        let concrete = infer_lsab_signature(&g.program, &g.inputs);
        if g.expect_reject {
            assert!(
                !(program_ok && concrete.is_ok()),
                "seed {seed}: injected ill-typed op escaped the verifier"
            );
            rejected += 1;
        } else {
            assert!(
                program_ok,
                "seed {seed}: clean program rejected: {:?}",
                analyze_lsab(&g.program).diagnostics
            );
            assert!(
                concrete.is_ok(),
                "seed {seed}: clean program's inputs rejected: {:?}",
                concrete.err()
            );
            accepted += 1;
            recursive += usize::from(g.recurses);
        }
    }
    assert!(accepted > 100, "too few clean programs: {accepted}");
    assert!(
        recursive > 50,
        "too few recursive clean programs: {recursive}"
    );
    assert!(rejected > 10, "too few negative cases: {rejected}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn verifier_accepted_programs_run_clean_on_every_vm(
        seed in any::<u64>(),
        at_helper in any::<bool>(),
    ) {
        let g = generate(seed, at_helper);
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

        let inputs = materialize(&g.inputs, Z, seed);
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
        // Three frames: the generated recursion overflows them for most
        // inputs, and a program of at most two nested calls fits.
        let tight = ExecOptions { stack_depth: 3, ..ExecOptions::default() };
        runs.push((
            "pc/stack_depth 3".into(),
            PcVm::new(&lowered, KernelRegistry::new(), tight).run(&inputs, None),
        ));

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
                    if let VmError::StackOverflow { limit, .. } = e {
                        prop_assert!(
                            !pc_report.overflow_excluded(*limit),
                            "{}: stack overflow despite static bounds (pc {}, data {}) \
                             fitting limit {}",
                            vm,
                            pc_report.pc_depth,
                            pc_report.data_depth,
                            limit
                        );
                    }
                }
            }
        }
        // The generator only emits terminating, RNG-free programs that
        // recurse at most 4 deep: at least one VM must actually have
        // produced outputs, or the comparisons above were all vacuous.
        prop_assert!(
            agreed.is_some(),
            "no VM completed an accepted program: {:?}",
            runs.iter().map(|(vm, r)| (vm, r.is_ok())).collect::<Vec<_>>()
        );
    }
}
