//! Ergonomic builders for [`lsab`](crate::lsab) programs.
//!
//! The builders play the role of the paper's AutoGraph frontend output
//! stage: they let a compiler (or a test) assemble the Figure 2 CFG
//! language without manual block bookkeeping, including structured
//! `if`/`while` helpers that encode the standard lowering of those
//! constructs into `Jump`/`Branch` terminators.
//!
//! Builder methods panic on structural misuse (emitting into a terminated
//! block, finishing with unterminated blocks); [`ProgramBuilder::finish`]
//! additionally runs full [`Program::validate`](crate::lsab::Program::validate).

use crate::error::{IrError, Result};
use crate::lsab::{Block, Function, Op, Program, Terminator};
use crate::prim::Prim;
use crate::var::{BlockId, FuncId, Var};

/// Builds a whole multi-function program.
///
/// Functions are first declared (so mutually recursive calls can refer to
/// each other), then defined.
///
/// # Examples
///
/// ```
/// use autobatch_ir::build::ProgramBuilder;
/// use autobatch_ir::Prim;
///
/// let mut pb = ProgramBuilder::new();
/// let double = pb.declare("double", &["x"], &["y"]);
/// pb.define(double, |f| {
///     let x = f.param(0);
///     f.assign(&f.output(0), Prim::Add, &[x.clone(), x]);
///     f.ret();
/// });
/// let program = pb.finish(double)?;
/// assert_eq!(program.funcs.len(), 1);
/// # Ok::<(), autobatch_ir::IrError>(())
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    funcs: Vec<Option<Function>>,
    sigs: Vec<(String, Vec<Var>, Vec<Var>)>,
}

impl ProgramBuilder {
    /// Create an empty program builder.
    pub fn new() -> ProgramBuilder {
        ProgramBuilder::default()
    }

    /// Declare a function signature, returning its id.
    ///
    /// Parameter and output variable names are local to the function.
    pub fn declare(&mut self, name: &str, params: &[&str], outputs: &[&str]) -> FuncId {
        let id = FuncId(self.funcs.len());
        self.funcs.push(None);
        self.sigs.push((
            name.to_string(),
            params.iter().map(Var::new).collect(),
            outputs.iter().map(Var::new).collect(),
        ));
        id
    }

    /// Define the body of a previously declared function.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not declared, was already defined, or if the
    /// body leaves unterminated blocks.
    pub fn define<F: FnOnce(&mut FunctionBuilder)>(&mut self, id: FuncId, build: F) {
        let (name, params, outputs) = self.sigs[id.0].clone();
        assert!(self.funcs[id.0].is_none(), "function {name} defined twice");
        let mut fb = FunctionBuilder::new(name, params, outputs);
        build(&mut fb);
        self.funcs[id.0] = Some(fb.into_function());
    }

    /// Assemble and validate the program.
    ///
    /// # Errors
    ///
    /// Returns an error if any declared function lacks a definition or if
    /// the assembled program fails validation.
    pub fn finish(self, entry: FuncId) -> Result<Program> {
        let mut funcs = Vec::with_capacity(self.funcs.len());
        for (i, f) in self.funcs.into_iter().enumerate() {
            match f {
                Some(f) => funcs.push(f),
                None => {
                    return Err(IrError::BadFunc {
                        func: FuncId(i),
                        len: i,
                    })
                }
            }
        }
        let p = Program { funcs, entry };
        p.validate()?;
        Ok(p)
    }
}

/// Builds one function's CFG.
///
/// The builder maintains a *current block*; op-emitting methods append to
/// it and terminator methods seal it. Fresh temporaries are named
/// `%t0, %t1, …` — the `%` prefix cannot collide with surface-language
/// identifiers.
#[derive(Debug)]
pub struct FunctionBuilder {
    name: String,
    params: Vec<Var>,
    outputs: Vec<Var>,
    blocks: Vec<(Vec<Op>, Option<Terminator>)>,
    current: usize,
    next_temp: usize,
}

impl FunctionBuilder {
    fn new(name: String, params: Vec<Var>, outputs: Vec<Var>) -> FunctionBuilder {
        FunctionBuilder {
            name,
            params,
            outputs,
            blocks: vec![(Vec::new(), None)],
            current: 0,
            next_temp: 0,
        }
    }

    /// The `i`-th parameter variable.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn param(&self, i: usize) -> Var {
        self.params[i].clone()
    }

    /// The `i`-th output variable.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn output(&self, i: usize) -> Var {
        self.outputs[i].clone()
    }

    /// A fresh uniquely named variable (usable as an ordinary local).
    pub fn fresh(&mut self, hint: &str) -> Var {
        let v = Var::new(format!("%{hint}{}", self.next_temp));
        self.next_temp += 1;
        v
    }

    /// Create a new, initially empty block (does not switch to it).
    pub fn new_block(&mut self) -> BlockId {
        self.blocks.push((Vec::new(), None));
        BlockId(self.blocks.len() - 1)
    }

    /// Switch op emission to `block`.
    ///
    /// # Panics
    ///
    /// Panics if the block is already terminated.
    pub fn switch_to(&mut self, block: BlockId) {
        assert!(
            self.blocks[block.0].1.is_none(),
            "switching to terminated block {block}"
        );
        self.current = block.0;
    }

    fn emit_op(&mut self, op: Op) {
        let (ops, term) = &mut self.blocks[self.current];
        assert!(
            term.is_none(),
            "emitting into terminated block b{}",
            self.current
        );
        ops.push(op);
    }

    /// Emit `var = prim(ins)` into the current block.
    ///
    /// # Panics
    ///
    /// Panics if the current block is terminated.
    pub fn assign(&mut self, var: &Var, prim: Prim, ins: &[Var]) {
        self.emit_op(Op::Prim {
            outs: vec![var.clone()],
            prim,
            ins: ins.to_vec(),
        });
    }

    /// Emit a multi-output primitive `outs = prim(ins)`.
    ///
    /// # Panics
    ///
    /// Panics if the current block is terminated.
    pub fn assign_multi(&mut self, outs: &[Var], prim: Prim, ins: &[Var]) {
        self.emit_op(Op::Prim {
            outs: outs.to_vec(),
            prim,
            ins: ins.to_vec(),
        });
    }

    /// Emit `fresh = prim(ins)` and return the fresh variable.
    pub fn emit(&mut self, prim: Prim, ins: &[Var]) -> Var {
        let v = self.fresh("t");
        self.assign(&v, prim, ins);
        v
    }

    /// Emit a copy `dst = src`.
    pub fn copy(&mut self, dst: &Var, src: &Var) {
        self.assign(dst, Prim::Id, std::slice::from_ref(src));
    }

    /// Emit a constant `f64`.
    pub fn const_f64(&mut self, c: f64) -> Var {
        self.emit(Prim::ConstF64(c), &[])
    }

    /// Emit a constant `i64`.
    pub fn const_i64(&mut self, c: i64) -> Var {
        self.emit(Prim::ConstI64(c), &[])
    }

    /// Emit a constant `bool`.
    pub fn const_bool(&mut self, c: bool) -> Var {
        self.emit(Prim::ConstBool(c), &[])
    }

    /// Emit a call `outs = callee(ins)` into named output variables.
    pub fn call_into(&mut self, outs: &[Var], callee: FuncId, ins: &[Var]) {
        self.emit_op(Op::Call {
            outs: outs.to_vec(),
            callee,
            ins: ins.to_vec(),
        });
    }

    /// Emit a call returning `n_outs` fresh variables.
    pub fn call(&mut self, callee: FuncId, ins: &[Var], n_outs: usize) -> Vec<Var> {
        let outs: Vec<Var> = (0..n_outs).map(|_| self.fresh("r")).collect();
        self.call_into(&outs, callee, ins);
        outs
    }

    fn terminate(&mut self, t: Terminator) {
        let (_, term) = &mut self.blocks[self.current];
        assert!(term.is_none(), "block b{} already terminated", self.current);
        *term = Some(t);
    }

    /// Terminate the current block with an unconditional jump.
    ///
    /// # Panics
    ///
    /// Panics if the current block is already terminated.
    pub fn jump(&mut self, target: BlockId) {
        self.terminate(Terminator::Jump(target));
    }

    /// Terminate the current block with a branch.
    ///
    /// # Panics
    ///
    /// Panics if the current block is already terminated.
    pub fn branch(&mut self, cond: &Var, then_: BlockId, else_: BlockId) {
        self.terminate(Terminator::Branch {
            cond: cond.clone(),
            then_,
            else_,
        });
    }

    /// Terminate the current block with a return.
    ///
    /// # Panics
    ///
    /// Panics if the current block is already terminated.
    pub fn ret(&mut self) {
        self.terminate(Terminator::Return);
    }

    /// Structured two-armed conditional. Both arms run with the builder
    /// positioned in a fresh block and must *not* terminate it themselves;
    /// control re-converges in a fresh join block, which becomes current.
    pub fn if_else(
        &mut self,
        cond: &Var,
        then_arm: impl FnOnce(&mut FunctionBuilder),
        else_arm: impl FnOnce(&mut FunctionBuilder),
    ) {
        let tb = self.new_block();
        let eb = self.new_block();
        let join = self.new_block();
        self.branch(cond, tb, eb);
        self.switch_to(tb);
        then_arm(self);
        self.jump(join);
        self.switch_to(eb);
        else_arm(self);
        self.jump(join);
        self.switch_to(join);
    }

    /// Structured while loop. `header` computes and returns the loop
    /// condition (re-evaluated each iteration); `body` is the loop body.
    /// Neither closure may terminate its block. After the call the builder
    /// is positioned in the loop-exit block.
    pub fn while_loop(
        &mut self,
        header: impl FnOnce(&mut FunctionBuilder) -> Var,
        body: impl FnOnce(&mut FunctionBuilder),
    ) {
        let hb = self.new_block();
        let bb = self.new_block();
        let xb = self.new_block();
        self.jump(hb);
        self.switch_to(hb);
        let cond = header(self);
        self.branch(&cond, bb, xb);
        self.switch_to(bb);
        body(self);
        self.jump(hb);
        self.switch_to(xb);
    }

    fn into_function(self) -> Function {
        let blocks: Vec<Block> = self
            .blocks
            .into_iter()
            .enumerate()
            .map(|(i, (ops, term))| Block {
                ops,
                term: term.unwrap_or_else(|| panic!("block b{i} of `{}` unterminated", self.name)),
            })
            .collect();
        Function {
            name: self.name,
            params: self.params,
            blocks,
            outputs: self.outputs,
        }
    }
}

/// Build the recursive Fibonacci program of the paper's Figures 1 and 3:
///
/// ```text
/// def fibonacci(n):
///     if n <= 1: return 1
///     else: return fibonacci(n - 2) + fibonacci(n - 1)
/// ```
///
/// Used pervasively in tests and examples.
pub fn fibonacci_program() -> Program {
    let mut pb = ProgramBuilder::new();
    let fib = pb.declare("fibonacci", &["n"], &["out"]);
    pb.define(fib, |f| {
        let n = f.param(0);
        let out = f.output(0);
        let one = f.const_i64(1);
        let cond = f.emit(Prim::Le, &[n.clone(), one.clone()]);
        f.if_else(
            &cond,
            |f| {
                let one = f.const_i64(1);
                f.copy(&f.output(0), &one);
            },
            |f| {
                let two = f.const_i64(2);
                let n2 = f.emit(Prim::Sub, &[n.clone(), two]);
                let left = Var::new("left");
                f.call_into(std::slice::from_ref(&left), fib, &[n2]);
                let one = f.const_i64(1);
                let n1 = f.emit(Prim::Sub, &[n.clone(), one]);
                let right = Var::new("right");
                f.call_into(std::slice::from_ref(&right), fib, &[n1]);
                f.assign(&f.output(0), Prim::Add, &[left, right]);
            },
        );
        let _ = out;
        f.ret();
    });
    pb.finish(fib).expect("fibonacci program is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_valid_program() {
        let p = fibonacci_program();
        p.validate().unwrap();
        assert_eq!(p.funcs.len(), 1);
        assert!(p.funcs[0].blocks.len() >= 4, "if/else produces blocks");
    }

    #[test]
    fn if_else_converges() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare("abs", &["x"], &["y"]);
        pb.define(f, |fb| {
            let x = fb.param(0);
            let zero = fb.const_f64(0.0);
            let neg = fb.emit(Prim::Lt, &[x.clone(), zero]);
            fb.if_else(
                &neg,
                |fb| {
                    let x = fb.param(0);
                    fb.assign(&fb.output(0), Prim::Neg, &[x]);
                },
                |fb| {
                    let x = fb.param(0);
                    fb.copy(&fb.output(0), &x);
                },
            );
            fb.ret();
        });
        pb.finish(f).unwrap();
    }

    #[test]
    fn while_loop_builds_header_body_exit() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare("count", &["n"], &["i"]);
        pb.define(f, |fb| {
            let n = fb.param(0);
            let i = fb.output(0);
            let zero = fb.const_i64(0);
            fb.copy(&i, &zero);
            fb.while_loop(
                |fb| fb.emit(Prim::Lt, &[fb.output(0), fb.param(0)]),
                |fb| {
                    let one = fb.const_i64(1);
                    fb.assign(&fb.output(0), Prim::Add, &[fb.output(0), one]);
                },
            );
            let _ = (n, i);
            fb.ret();
        });
        let p = pb.finish(f).unwrap();
        // Entry + header + body + exit.
        assert_eq!(p.funcs[0].blocks.len(), 4);
    }

    #[test]
    fn undeclared_definition_missing_is_error() {
        let mut pb = ProgramBuilder::new();
        let a = pb.declare("a", &[], &["x"]);
        let _b = pb.declare("b", &[], &["x"]);
        pb.define(a, |fb| {
            let c = fb.const_f64(0.0);
            fb.copy(&fb.output(0), &c);
            fb.ret();
        });
        assert!(pb.finish(a).is_err());
    }

    #[test]
    #[should_panic(expected = "terminated")]
    fn emitting_after_terminator_panics() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare("f", &[], &["x"]);
        pb.define(f, |fb| {
            let c = fb.const_f64(0.0);
            fb.copy(&fb.output(0), &c);
            fb.ret();
            fb.const_f64(1.0); // after return: panic
        });
    }

    #[test]
    fn fresh_vars_are_unique() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare("f", &[], &["x"]);
        pb.define(f, |fb| {
            let a = fb.fresh("v");
            let b = fb.fresh("v");
            assert_ne!(a, b);
            let c = fb.const_f64(0.0);
            fb.copy(&fb.output(0), &c);
            fb.ret();
        });
    }

    #[test]
    fn mutual_recursion_declares_before_define() {
        // is_even / is_odd on non-negative integers.
        let mut pb = ProgramBuilder::new();
        let even = pb.declare("is_even", &["n"], &["r"]);
        let odd = pb.declare("is_odd", &["n"], &["r"]);
        pb.define(even, |fb| {
            let n = fb.param(0);
            let zero = fb.const_i64(0);
            let base = fb.emit(Prim::EqE, &[n.clone(), zero]);
            fb.if_else(
                &base,
                |fb| {
                    let t = fb.const_bool(true);
                    fb.copy(&fb.output(0), &t);
                },
                |fb| {
                    let one = fb.const_i64(1);
                    let m = fb.emit(Prim::Sub, &[fb.param(0), one]);
                    let r = fb.call(odd, &[m], 1);
                    fb.copy(&fb.output(0), &r[0]);
                },
            );
            fb.ret();
        });
        pb.define(odd, |fb| {
            let n = fb.param(0);
            let zero = fb.const_i64(0);
            let base = fb.emit(Prim::EqE, &[n.clone(), zero]);
            fb.if_else(
                &base,
                |fb| {
                    let t = fb.const_bool(false);
                    fb.copy(&fb.output(0), &t);
                },
                |fb| {
                    let one = fb.const_i64(1);
                    let m = fb.emit(Prim::Sub, &[fb.param(0), one]);
                    let r = fb.call(even, &[m], 1);
                    fb.copy(&fb.output(0), &r[0]);
                },
            );
            fb.ret();
        });
        let p = pb.finish(even).unwrap();
        assert_eq!(p.funcs.len(), 2);
    }
}
