//! # autobatch-core
//!
//! The paper's contribution ([Radul et al., MLSys 2020](https://arxiv.org/abs/1910.11141)):
//! two static autobatching runtimes and the compilation pipeline between
//! their program representations.
//!
//! - [`LocalStaticVm`] — *local static autobatching* (§2, Algorithm 1): a
//!   masked interpreter over per-function CFGs whose recursion is carried
//!   by the host language.
//! - [`lower`] — the `lsab → pcab` transformation (§3): merges all
//!   functions, replaces calls with explicit per-variable stack
//!   operations in a caller-saves discipline, and applies the paper's
//!   compiler optimizations (temporary elision, register demotion,
//!   pop-push elimination).
//! - [`PcVm`] — *program-counter autobatching* (§3, Algorithm 2): a flat,
//!   non-recursive runtime with a stacked program counter, suitable for
//!   graph-mode/XLA-style execution, able to batch logical threads at
//!   different stack depths.
//! - [`Autobatcher`] — a one-stop facade tying the pipeline together.
//!
//! Execution is parameterized by [`ExecOptions`] (masking vs
//! gather/scatter — by default chosen per superstep, see
//! [`ExecStrategy`] and [`gather_pays`] — and the block-selection
//! heuristic: the paper's §2 "free choices") and priced against
//! simulated accelerator backends via [`autobatch_accel::Trace`].
//!
//! # Performance architecture
//!
//! Algorithm 2 is one loop, and `pc_vm` holds it once: binding inputs
//! to fresh lanes, choosing the next block against the superstep
//! limit, and running a block are three private functions that the
//! one-shot [`PcVm::run`] and the incremental [`PcMachine`] both drive,
//! and inside a superstep the member set, the scratch arena and the
//! price travel as one borrowed context. What the loop runs is compiled
//! before any batch does: [`PcVm::new`] turns each block into one
//! record — its ops' operand slots, its fused regions with theirs, its
//! branch condition, its temporary count and its launch's kernel tag —
//! and the options that shape that record are read there and nowhere
//! on the superstep path. What the static runtimes decide alike —
//! block selection, batch-width validation, how a masked or gathered
//! result lands in a full-width buffer — lives once in `batch`, which
//! [`LocalStaticVm`] calls too.
//!
//! That loop allocates nothing in the steady state: whoever drives it
//! owns a scratch arena (active mask, active-index list, member keys,
//! pop depths, block-local temporaries, the fused loops' registers and
//! lists, and the buffers a gathered superstep copies its operands'
//! active rows into) that is cleared per superstep, never reallocated.
//! Tensors are copy-on-write, so state reads and observer snapshots
//! share buffers instead of deep-copying, and the arena also keeps the
//! tensors a superstep is done with — a temporary when its superstep
//! ends, a result once it is copied into a register or stack top — as
//! spares that the next results are written into: [`eval_prim`]'s
//! constants, comparisons and table-row kernels, a fused region's
//! results and the copy a write makes of a shared register all refill
//! a spare in place, and a pop gathers the stored frames straight into
//! the cached top. A spare is kept only while nothing else holds its
//! payload, so no refill is ever seen through a share, and no more are
//! kept than one block writes. The VMs only execute; what a superstep
//! costs on a simulated accelerator is decided in one place, the
//! `pricing` module, which does nothing at all on an untraced run (but
//! for measuring each block once, for the mask-or-gather choice). On
//! top of that, each basic block is planned once into **fused
//! elementwise regions** — straight-line runs of elementwise
//! primitives executed as a single loop with per-element virtual
//! registers and priced as a single launch
//! ([`ExecOptions::fuse_elementwise`]). One entry point in `fusion`
//! decides at run time whether a region's operands are what the loop
//! reproduces the per-op kernels on, runs it, and returns what
//! `pricing` needs; the loop applies the exact scalar functions of the
//! allocating kernels, so results are bit-identical, and a refused
//! region runs op by op (refused once, it is not tried again on that
//! machine). See the repository README's "Performance architecture"
//! section for the measured effect.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod api;
mod batch;
mod dynamic_vm;
mod error;
mod fusion;
mod kernels;
mod lowering;
mod lsab_vm;
mod member_set;
mod options;
mod pc_vm;
mod pricing;

pub use api::{vmap, Autobatcher, BatchedFn};
pub use dynamic_vm::DynamicVm;
pub use error::{Result, VmError};
pub use fusion::fused_spans;
pub use kernels::{eval_prim, ExternalKernel, KernelRegistry};
pub use lowering::{lower, LoweringStats};
pub use lsab_vm::{LocalStaticVm, LsabObservation, LsabObserver};
pub use member_set::LaneState;
pub use options::{
    gather_pays, BlockCost, BlockHeuristic, DynSchedule, ExecOptions, ExecStrategy,
    LoweringOptions, GATHER_FLOPS_PER_BYTE,
};
pub use pc_vm::{PcMachine, PcObservation, PcObserver, PcVm, Retired, StackSnapshot};
pub use pricing::{prim_cost, OpCost};
