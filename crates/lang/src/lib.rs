//! # autobatch-lang
//!
//! The surface-language frontend: a small, statically typed imperative
//! language in which single-example programs (like the paper's recursive
//! NUTS) are written, mechanically compiled to the
//! [`lsab`](autobatch_ir::lsab) CFG language of
//! [Radul et al., MLSys 2020](https://arxiv.org/abs/1910.11141), Figure 2.
//!
//! This crate substitutes for the paper's Python + AutoGraph frontend
//! (README, "Workspace layout"): the essential property — *the user
//! writes ordinary single-example imperative code with
//! `if`/`while`/recursion and the system batches it* — is preserved;
//! only the surface syntax differs.
//!
//! Pipeline: [`parse`] → [`check_module`] → [`compile`] (lex, parse, type
//! check, lower).
//!
//! # Examples
//!
//! ```
//! let src = "
//!     fn fibonacci(n: int) -> (out: int) {
//!         if n <= 1 { out = 1; }
//!         else {
//!             let left = fibonacci(n - 2);
//!             let right = fibonacci(n - 1);
//!             out = left + right;
//!         }
//!     }
//! ";
//! let program = autobatch_lang::compile(src, "fibonacci")?;
//! program.validate().expect("well-formed IR");
//! # Ok::<(), autobatch_lang::LangError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ast;
mod error;
mod extract;
mod lower;
mod parser;
mod token;
pub mod types;

pub use error::{LangError, Pos, Result};
pub use extract::embedded_sources;
pub use lower::{compile, compile_module};
pub use parser::parse;
pub use types::{check_module, Tables};
