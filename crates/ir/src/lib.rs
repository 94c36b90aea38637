//! # autobatch-ir
//!
//! The two intermediate representations of
//! [Radul et al., MLSys 2020](https://arxiv.org/abs/1910.11141):
//!
//! - [`lsab`]: the *locally batchable* language of Figure 2 — per-function
//!   control-flow graphs whose ops are opaque batched primitives and
//!   (possibly recursive) calls;
//! - [`pcab`]: the *program-counter batchable* language of Figure 4 — all
//!   CFGs merged, calls replaced by explicit per-variable stack operations
//!   (`Push`/`Pop`/`Update`) and pc stack operations
//!   (`PushJump`/`Return`).
//!
//! Plus the supporting cast: the primitive vocabulary ([`Prim`]),
//! ergonomic [`build`]ers (the "frontend output stage"), structural
//! validation on both IRs, the static [`analysis`] passes the batching
//! transformation needs (call-graph SCCs, liveness), and [`pretty`]
//! printers / DOT export.
//!
//! The IRs themselves are execution-agnostic: the virtual machines that
//! interpret them live in `autobatch-core`.
//!
//! # Examples
//!
//! ```
//! use autobatch_ir::build::fibonacci_program;
//! use autobatch_ir::analysis::CallGraph;
//! use autobatch_ir::FuncId;
//!
//! let program = fibonacci_program();
//! program.validate()?;
//! let cg = CallGraph::new(&program);
//! assert!(cg.is_recursive_func(FuncId(0)));
//! # Ok::<(), autobatch_ir::IrError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod build;
mod error;
pub mod lsab;
pub mod pcab;
pub mod pretty;
mod prim;
mod var;

pub use error::{IrError, Result};
pub use prim::{Arity, Prim, ScalarKernel};
pub use var::{BlockId, FuncId, Var};
