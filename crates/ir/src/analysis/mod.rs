//! Static analyses over the IRs: call-graph SCCs, liveness, and the
//! static verification tier.
//!
//! The verification tier is an abstract interpreter over both IRs (see
//! [`absint`] for the lattice) that computes, without executing anything:
//!
//! - per-variable **dtype and element-shape** facts, yielding an inferred
//!   program signature ([`infer_lsab_signature`] /
//!   [`infer_pcab_signature`]);
//! - static **stack-depth bounds** from call-graph / push-jump SCCs
//!   ([`DepthBound`]): exact for non-recursive call chains, `Unbounded`
//!   for recursive SCCs, so `StackOverflow` can be excluded up front for
//!   bounded programs;
//! - **definite initialization** and **unreachable blocks** along
//!   statically-feasible edges;
//! - **member divergence**: which branches can split batch members
//!   (the static signal for PC-affinity scheduling).
//!
//! # Soundness invariant
//!
//! For a program accepted by the verifier and inputs accepted by its
//! inferred signature, execution on any VM cannot raise
//! `VmError::Tensor`, `VmError::Unbound`, or (when the reported stack
//! bounds fit the configured limit) `VmError::StackOverflow`; and every
//! output's dtype and shape equal the signature's, bit for bit. The
//! `static_verification` differential proptest enforces exactly this
//! invariant over randomly generated programs on all three VMs.
//! External kernels are trusted: the guarantee is conditional on
//! registered kernels honoring their registry arity/shape contract.

pub mod absint;
mod callgraph;
mod liveness;
mod verified;
mod verify_lsab;
mod verify_pcab;

pub use absint::{AbsDType, AbsShape, AbsValue, DepthBound, TensorSpec};
pub use callgraph::CallGraph;
pub use liveness::Liveness;
pub use verified::{Verifiable, Verified};
pub use verify_lsab::{analyze_lsab, infer_lsab_signature, LsabReport, Signature};
pub use verify_pcab::{analyze_pcab, infer_pcab_signature, PcabReport};
