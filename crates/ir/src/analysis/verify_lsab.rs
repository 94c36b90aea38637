//! Static verification of [`lsab`](crate::lsab) programs: an
//! interprocedural forward abstract interpretation over the
//! [`absint`](super::absint) lattice.
//!
//! The engine runs one monovariant summary per function (arguments are
//! joined over every call site; recursive functions reach a fixpoint
//! from an empty summary) and tracks, per block, the environment at
//! block entry. Branch edges whose condition is a known boolean
//! constant are pruned, so reachability is computed over
//! *statically-feasible* edges only.
//!
//! # Soundness invariant
//!
//! If [`analyze_lsab`] reports no diagnostics and
//! [`infer_lsab_signature`] accepts a set of concrete input specs, then
//! executing the program on batched inputs matching those specs cannot
//! raise a dtype/shape (`VmError::Tensor`) or uninitialized-variable
//! (`VmError::Unbound`) error on any VM, and every produced output has
//! exactly the inferred dtype and element shape. If additionally the
//! [`call depth`](LsabReport::call_depth) (and the lowered program's
//! stack bounds) fit the configured stack limit, `VmError::StackOverflow`
//! is excluded too. The `static_verification` differential proptest
//! pins this invariant against all three VMs. The guarantee is
//! conditional on `External` kernels honoring their registry contract —
//! their outputs are assumed well-formed but unknown.

use std::collections::{BTreeSet, VecDeque};

use crate::error::IrError;
use crate::lsab::{Op, Program, Terminator};
use crate::var::{BlockId, FuncId, Var};

use super::absint::{
    branch_edges, eval_prim, lookup, AbsDType, AbsValue, Constraints, DepthBound, Env, TensorSpec,
};
use super::CallGraph;

/// Joining two environments intersects the key sets (a variable assigned
/// on only one incoming path is not definitely assigned) and joins the
/// values pointwise.
fn join_env(a: &Env, b: &Env) -> Env {
    a.iter()
        .filter_map(|(k, va)| b.get(k).map(|vb| (k.clone(), va.join(vb))))
        .collect()
}

/// The inferred signature of a program for one concrete input
/// specification.
#[derive(Debug, Clone, PartialEq)]
pub struct Signature {
    /// The input specs the signature was inferred for.
    pub inputs: Vec<TensorSpec>,
    /// Abstract output values. Concrete unless an output flows from an
    /// `External` kernel.
    pub outputs: Vec<AbsValue>,
}

/// The result of program-level verification of an lsab program.
#[derive(Debug, Clone)]
pub struct LsabReport {
    /// Inferred per-input dtype constraints (`Any` = unconstrained).
    pub input_dtypes: Vec<AbsDType>,
    /// Abstract values of the program outputs (joined over all returns).
    pub outputs: Vec<AbsValue>,
    /// Static bound on the deepest chain of nested calls
    /// (`Unbounded` when any reachable function is recursive).
    pub call_depth: DepthBound,
    /// Blocks unreachable along statically-feasible edges (includes all
    /// blocks of functions that are never called).
    pub unreachable: Vec<(FuncId, BlockId)>,
    /// Branches whose condition may differ across batch members: the
    /// sites where lanes can split (the input to PC-affinity
    /// scheduling).
    pub divergent_branches: Vec<(FuncId, BlockId)>,
    /// Verification failures. Empty means the program is accepted.
    pub diagnostics: Vec<IrError>,
}

impl LsabReport {
    /// True when verification succeeded (no diagnostics).
    pub fn ok(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

struct Engine<'p> {
    p: &'p Program,
    /// Env at each function's entry (params only), joined over call
    /// sites. `None` = never called.
    entry_env: Vec<Option<Env>>,
    /// Env at each block's entry. `None` = not yet reached.
    block_in: Vec<Vec<Option<Env>>>,
    /// Per-function output summary, joined over reachable returns.
    summaries: Vec<Option<Vec<AbsValue>>>,
    /// Blocks containing calls to each function (for requeueing when a
    /// summary changes).
    call_sites: Vec<Vec<(usize, usize)>>,
    cons: Constraints,
    diags: Vec<IrError>,
    divergent: BTreeSet<(usize, usize)>,
    work: VecDeque<(usize, usize)>,
    queued: BTreeSet<(usize, usize)>,
}

impl<'p> Engine<'p> {
    fn new(p: &'p Program, entry_values: Vec<AbsValue>) -> Engine<'p> {
        let nf = p.funcs.len();
        let mut call_sites = vec![Vec::new(); nf];
        for (fi, f) in p.funcs.iter().enumerate() {
            for (bi, b) in f.blocks.iter().enumerate() {
                for op in &b.ops {
                    if let Op::Call { callee, .. } = op {
                        call_sites[callee.0].push((fi, bi));
                    }
                }
            }
        }
        let entry = p.entry.0;
        let entry_fn = &p.funcs[entry];
        let env: Env = entry_fn.params.iter().cloned().zip(entry_values).collect();
        let mut eng = Engine {
            p,
            entry_env: vec![None; nf],
            block_in: p.funcs.iter().map(|f| vec![None; f.blocks.len()]).collect(),
            summaries: vec![None; nf],
            call_sites,
            cons: Constraints::none(entry_fn.params.len()),
            diags: Vec::new(),
            divergent: BTreeSet::new(),
            work: VecDeque::new(),
            queued: BTreeSet::new(),
        };
        eng.entry_env[entry] = Some(env.clone());
        eng.propagate(entry, 0, env);
        eng
    }

    fn queue(&mut self, f: usize, b: usize) {
        if self.queued.insert((f, b)) {
            self.work.push_back((f, b));
        }
    }

    fn propagate(&mut self, f: usize, b: usize, env: Env) {
        let slot = &mut self.block_in[f][b];
        let next = match slot {
            Some(old) => {
                let joined = join_env(old, &env);
                if joined == *old {
                    return;
                }
                joined
            }
            None => env,
        };
        *slot = Some(next);
        self.queue(f, b);
    }

    fn diag(&mut self, e: IrError) {
        if !self.diags.contains(&e) {
            self.diags.push(e);
        }
    }

    fn read(&mut self, env: &Env, var: &Var, f: usize, b: usize) -> Option<AbsValue> {
        lookup(env, var)
            .map_err(|why| self.diag(why.at(Some(FuncId(f)), BlockId(b), None)))
            .ok()
    }

    fn run(&mut self) {
        // Each (func, block) pair can be requeued only when some lattice
        // component moves up; the domain height is finite, so this
        // terminates. The explicit cap is a defensive backstop.
        let mut budget = 64
            * 1024
            * self
                .p
                .funcs
                .iter()
                .map(|f| f.blocks.len())
                .sum::<usize>()
                .max(1);
        while let Some((f, b)) = self.work.pop_front() {
            self.queued.remove(&(f, b));
            if budget == 0 {
                break;
            }
            budget -= 1;
            self.process(f, b);
        }
    }

    fn process(&mut self, f: usize, b: usize) {
        let p = self.p;
        let mut env = match &self.block_in[f][b] {
            Some(e) => e.clone(),
            None => return,
        };
        let block = &p.funcs[f].blocks[b];
        for (i, op) in block.ops.iter().enumerate() {
            match op {
                Op::Prim { outs, prim, ins } => {
                    match eval_prim(prim, ins, outs.len(), &env, &mut self.cons) {
                        Ok(res) => {
                            for (o, r) in outs.iter().zip(res) {
                                env.insert(o.clone(), r);
                            }
                        }
                        Err(why) => return self.diag(why.at(Some(FuncId(f)), BlockId(b), Some(i))),
                    }
                }
                Op::Call { outs, callee, ins } => {
                    let mut args = Vec::with_capacity(ins.len());
                    for v in ins {
                        match self.read(&env, v, f, b) {
                            Some(av) => args.push(av),
                            None => return,
                        }
                    }
                    let c = callee.0;
                    let callee_fn = &p.funcs[c];
                    let arg_env: Env = callee_fn.params.iter().cloned().zip(args).collect();
                    let next = match &self.entry_env[c] {
                        Some(old) => {
                            let joined = join_env(old, &arg_env);
                            (joined != *old).then_some(joined)
                        }
                        None => Some(arg_env),
                    };
                    if let Some(e) = next {
                        self.entry_env[c] = Some(e.clone());
                        self.propagate(c, 0, e);
                        // Re-seed the callee's entry even if block 0's
                        // env was already at the join.
                        self.queue(c, 0);
                    }
                    match &self.summaries[c] {
                        Some(rets) => {
                            for (o, r) in outs.iter().zip(rets.clone()) {
                                env.insert(o.clone(), r);
                            }
                        }
                        // Callee has no summary yet: this block is
                        // requeued when the summary first appears.
                        None => return,
                    }
                }
            }
        }
        match &block.term {
            Terminator::Jump(t) => self.propagate(f, t.0, env),
            Terminator::Branch { cond, then_, else_ } => {
                let cv = match self.read(&env, cond, f, b) {
                    Some(v) => v,
                    None => return,
                };
                let (then_live, else_live, splits) = match branch_edges(&cv, &mut self.cons) {
                    Ok(edges) => edges,
                    Err(why) => return self.diag(why.at(Some(FuncId(f)), BlockId(b), None)),
                };
                if splits {
                    self.divergent.insert((f, b));
                }
                if then_live {
                    self.propagate(f, then_.0, env.clone());
                }
                if else_live {
                    self.propagate(f, else_.0, env);
                }
            }
            Terminator::Return => {
                let outputs = &p.funcs[f].outputs;
                let mut rets = Vec::with_capacity(outputs.len());
                for v in outputs.iter() {
                    match self.read(&env, v, f, b) {
                        Some(av) => rets.push(av),
                        None => return,
                    }
                }
                let next = match &self.summaries[f] {
                    Some(old) => {
                        let joined: Vec<AbsValue> =
                            old.iter().zip(&rets).map(|(a, c)| a.join(c)).collect();
                        (joined != *old).then_some(joined)
                    }
                    None => Some(rets),
                };
                if let Some(s) = next {
                    self.summaries[f] = Some(s);
                    for (cf, cb) in self.call_sites[f].clone() {
                        self.queue(cf, cb);
                    }
                }
            }
        }
    }

    fn unreachable(&self) -> Vec<(FuncId, BlockId)> {
        let mut out = Vec::new();
        for (fi, blocks) in self.block_in.iter().enumerate() {
            for (bi, env) in blocks.iter().enumerate() {
                if env.is_none() {
                    out.push((FuncId(fi), BlockId(bi)));
                }
            }
        }
        out
    }

    fn call_depth(&self) -> DepthBound {
        let cg = CallGraph::new(self.p);
        let reachable: Vec<bool> = self.entry_env.iter().map(|e| e.is_some()).collect();
        if (0..self.p.funcs.len()).any(|f| reachable[f] && cg.is_recursive_func(FuncId(f))) {
            return DepthBound::Unbounded;
        }
        fn depth(
            cg: &CallGraph,
            f: usize,
            reachable: &[bool],
            memo: &mut [Option<usize>],
        ) -> usize {
            if let Some(d) = memo[f] {
                return d;
            }
            // The reachable functions are acyclic (checked above), so
            // plain recursion over them terminates. A recursive callee
            // the analysis never reached, behind an op it rejected, is
            // not walked.
            let d = cg
                .callees(FuncId(f))
                .filter(|c| reachable[c.0])
                .map(|c| 1 + depth(cg, c.0, reachable, memo))
                .max()
                .unwrap_or(0);
            memo[f] = Some(d);
            d
        }
        let mut memo = vec![None; self.p.funcs.len()];
        DepthBound::Bounded(depth(&cg, self.p.entry.0, &reachable, &mut memo))
    }
}

/// Program-level verification: abstract-interpret the program with
/// fully-unknown inputs, inferring input dtype constraints, output
/// values, reachability, divergence, and the static call-depth bound.
///
/// A structurally-invalid program (failed `validate`) yields a report
/// whose diagnostics carry the validation error.
pub fn analyze_lsab(p: &Program) -> LsabReport {
    let n_inputs = p.funcs.get(p.entry.0).map(|f| f.params.len()).unwrap_or(0);
    let n_outputs = p.funcs.get(p.entry.0).map(|f| f.outputs.len()).unwrap_or(0);
    if let Err(e) = p.validate() {
        return LsabReport {
            input_dtypes: vec![AbsDType::Any; n_inputs],
            outputs: vec![AbsValue::any(); n_outputs],
            call_depth: DepthBound::Unbounded,
            unreachable: Vec::new(),
            divergent_branches: Vec::new(),
            diagnostics: vec![e],
        };
    }
    let entry_values = (0..n_inputs).map(AbsValue::input).collect();
    let mut eng = Engine::new(p, entry_values);
    eng.run();
    let mut diags = std::mem::take(&mut eng.diags);
    let outputs = match &eng.summaries[p.entry.0] {
        Some(outs) => outs.clone(),
        None => {
            let e = IrError::NoReachableReturn {
                func: Some(p.entry),
            };
            if !diags.contains(&e) {
                diags.push(e);
            }
            vec![AbsValue::any(); n_outputs]
        }
    };
    LsabReport {
        input_dtypes: eng.cons.dtypes.clone(),
        outputs,
        call_depth: eng.call_depth(),
        unreachable: eng.unreachable(),
        divergent_branches: eng
            .divergent
            .iter()
            .map(|&(f, b)| (FuncId(f), BlockId(b)))
            .collect(),
        diagnostics: diags,
    }
}

/// Concrete signature inference: abstract-interpret the program with
/// the given concrete input specs and return the inferred output
/// signature.
///
/// # Errors
///
/// Returns the first diagnostic when the program is structurally
/// invalid, ill-typed for these inputs, or can never return.
pub fn infer_lsab_signature(p: &Program, inputs: &[TensorSpec]) -> Result<Signature, IrError> {
    p.validate()?;
    let entry_fn = &p.funcs[p.entry.0];
    if inputs.len() != entry_fn.params.len() {
        return Err(IrError::BadArity {
            what: format!("program inputs for `{}`", entry_fn.name),
            expected: entry_fn.params.len(),
            got: inputs.len(),
        });
    }
    let entry_values = inputs
        .iter()
        .enumerate()
        .map(|(i, s)| s.abs_value(i))
        .collect();
    let mut eng = Engine::new(p, entry_values);
    eng.run();
    if let Some(e) = eng.diags.first() {
        return Err(e.clone());
    }
    match &eng.summaries[p.entry.0] {
        Some(outs) => Ok(Signature {
            inputs: inputs.to_vec(),
            outputs: outs.clone(),
        }),
        None => Err(IrError::NoReachableReturn {
            func: Some(p.entry),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{fibonacci_program, ProgramBuilder};
    use crate::prim::Prim;

    #[test]
    fn fibonacci_verifies_with_integer_signature() {
        let p = fibonacci_program();
        let report = analyze_lsab(&p);
        assert!(report.ok(), "diagnostics: {:?}", report.diagnostics);
        // `n` feeds `n <= 1` and `n - 2`, so it must be an integer.
        assert_eq!(report.input_dtypes, vec![AbsDType::I64]);
        assert_eq!(report.call_depth, DepthBound::Unbounded);
        assert!(!report.divergent_branches.is_empty());
        assert!(report.unreachable.is_empty());

        let sig = infer_lsab_signature(&p, &[TensorSpec::new(AbsDType::I64, vec![])]).unwrap();
        assert_eq!(sig.outputs.len(), 1);
        assert_eq!(sig.outputs[0].dtype, AbsDType::I64);
        assert_eq!(sig.outputs[0].shape.as_elem(), Some(&[][..]));
    }

    #[test]
    fn fibonacci_rejects_float_inputs() {
        let p = fibonacci_program();
        assert!(infer_lsab_signature(&p, &[TensorSpec::new(AbsDType::F64, vec![])]).is_err());
    }

    #[test]
    fn ill_typed_program_is_rejected() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare("bad", &["x"], &["y"]);
        pb.define(f, |fb| {
            let one = fb.const_f64(1.0);
            let flag = fb.const_bool(true);
            let y = fb.output(0);
            fb.assign(&y, Prim::Add, &[one, flag]);
            fb.ret();
        });
        let p = pb.finish(f).unwrap();
        let report = analyze_lsab(&p);
        assert!(!report.ok());
        assert!(matches!(
            report.diagnostics[0],
            IrError::TypeError { op: Some(_), .. }
        ));
    }

    #[test]
    fn dead_branch_is_pruned_and_reported_unreachable() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare("deadarm", &["x"], &["y"]);
        pb.define(f, |fb| {
            let t = fb.const_bool(true);
            let live = fb.new_block();
            let dead = fb.new_block();
            fb.branch(&t, live, dead);
            fb.switch_to(dead);
            // Would be ill-typed if analyzed: the verifier must prune it.
            let y = fb.output(0);
            let x = fb.param(0);
            fb.assign(&y, Prim::Add, &[x.clone(), t.clone()]);
            fb.ret();
            fb.switch_to(live);
            fb.copy(&y, &x);
            fb.ret();
        });
        let p = pb.finish(f).unwrap();
        let report = analyze_lsab(&p);
        assert!(report.ok(), "diagnostics: {:?}", report.diagnostics);
        assert_eq!(report.unreachable.len(), 1);
        // The branch is on a constant: not member-divergent.
        assert!(report.divergent_branches.is_empty());
    }

    #[test]
    fn empty_function_is_a_diagnostic() {
        // The builder refuses to emit a block-less function, so construct
        // the program by hand to reach the analyzer.
        let p = crate::lsab::Program {
            funcs: vec![crate::lsab::Function {
                name: "empty".to_string(),
                params: vec![Var::new("x")],
                blocks: vec![],
                outputs: vec![Var::new("y")],
            }],
            entry: FuncId(0),
        };
        let report = analyze_lsab(&p);
        assert!(matches!(
            report.diagnostics[0],
            IrError::EmptyFunction { .. }
        ));
    }

    #[test]
    fn zero_op_blocks_flow_through() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare("hops", &["x"], &["y"]);
        pb.define(f, |fb| {
            let y = fb.output(0);
            let x = fb.param(0);
            fb.copy(&y, &x);
            let hop1 = fb.new_block();
            let hop2 = fb.new_block();
            fb.jump(hop1);
            fb.switch_to(hop1);
            fb.jump(hop2); // zero ops
            fb.switch_to(hop2);
            fb.ret(); // zero ops
        });
        let p = pb.finish(f).unwrap();
        let report = analyze_lsab(&p);
        assert!(report.ok(), "diagnostics: {:?}", report.diagnostics);
        assert_eq!(report.call_depth, DepthBound::Bounded(0));
        assert!(report.unreachable.is_empty());
    }

    #[test]
    fn mutual_recursion_is_unbounded_but_verifies() {
        let mut pb = ProgramBuilder::new();
        let even = pb.declare("even", &["n"], &["r"]);
        let odd = pb.declare("odd", &["n"], &["r"]);
        for (me, other) in [(even, odd), (odd, even)] {
            pb.define(me, |fb| {
                let n = fb.param(0);
                let r = fb.output(0);
                let zero = fb.const_i64(0);
                let one = fb.const_i64(1);
                let is_zero = fb.emit(Prim::Le, &[n.clone(), zero]);
                let base = fb.new_block();
                let rec = fb.new_block();
                fb.branch(&is_zero, base, rec);
                fb.switch_to(base);
                fb.copy(&r, &one);
                fb.ret();
                fb.switch_to(rec);
                let m = fb.emit(Prim::Sub, &[n, one.clone()]);
                fb.call_into(std::slice::from_ref(&r), other, &[m]);
                fb.ret();
            });
        }
        let p = pb.finish(even).unwrap();
        let report = analyze_lsab(&p);
        assert!(report.ok(), "diagnostics: {:?}", report.diagnostics);
        assert_eq!(report.call_depth, DepthBound::Unbounded);
        assert_eq!(report.input_dtypes, vec![AbsDType::I64]);
        let sig = infer_lsab_signature(&p, &[TensorSpec::new(AbsDType::I64, vec![])]).unwrap();
        assert_eq!(sig.outputs[0].dtype, AbsDType::I64);
    }

    /// The analysis stops at an ill-typed op, so the recursive function
    /// called after it is never reached: the report names the op, and
    /// the call-depth walk does not follow the recursion it never saw.
    #[test]
    fn an_ill_typed_op_ahead_of_a_recursive_call_is_reported() {
        let mut pb = ProgramBuilder::new();
        let main = pb.declare("main", &["n"], &["y"]);
        let fib = pb.declare("fib", &["n"], &["r"]);
        pb.define(main, |fb| {
            let (x, k) = (fb.const_f64(1.0), fb.const_i64(1));
            fb.emit(Prim::Add, &[x, k]);
            fb.call_into(&[fb.output(0)], fib, &[fb.param(0)]);
            fb.ret();
        });
        pb.define(fib, |fb| {
            let zero = fb.const_i64(0);
            let base = fb.emit(Prim::Le, &[fb.param(0), zero]);
            fb.if_else(
                &base,
                |fb| fb.copy(&fb.output(0), &fb.param(0)),
                |fb| {
                    let one = fb.const_i64(1);
                    let m = fb.emit(Prim::Sub, &[fb.param(0), one]);
                    fb.call_into(&[fb.output(0)], fib, &[m]);
                },
            );
            fb.ret();
        });
        let report = analyze_lsab(&pb.finish(main).unwrap());
        assert!(!report.ok());
        assert_eq!(report.call_depth, DepthBound::Bounded(0));
    }

    #[test]
    fn only_dead_path_to_exit_is_a_diagnostic() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare("noexit", &["x"], &["y"]);
        pb.define(f, |fb| {
            let fcond = fb.const_bool(false);
            let ret = fb.new_block();
            let spin = fb.new_block();
            let y = fb.output(0);
            let x = fb.param(0);
            fb.copy(&y, &x);
            fb.branch(&fcond, ret, spin);
            fb.switch_to(ret);
            fb.ret();
            fb.switch_to(spin);
            fb.jump(spin);
        });
        let p = pb.finish(f).unwrap();
        let report = analyze_lsab(&p);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| matches!(d, IrError::NoReachableReturn { .. })));
    }
}
