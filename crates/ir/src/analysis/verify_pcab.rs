//! Static verification of [`pcab`](crate::pcab) programs: forward
//! abstract interpretation over the merged, stack-explicit CFG, plus
//! static pc- and data-stack depth bounds via subroutine recovery.
//!
//! # CFG over-approximation
//!
//! The pcab form has no explicit call graph, so the analysis recovers
//! *subroutines*: the program entry plus every `PushJump` enter target,
//! each owning the blocks reachable from it through `Jump`/`Branch`
//! edges and `PushJump` *resume* continuations (a `Return` leaves the
//! subroutine). Dataflow treats a resume point as receiving the join of
//! the machine state at **every** reachable `Return` — a sound
//! over-approximation of "some callee returned here".
//!
//! # Stacked variables and `Pop`
//!
//! After a `Pop`, the value at a variable's new top is some value pushed
//! earlier; the analysis conservatively uses the join of *every* value
//! ever written to that variable, and keeps the variable
//! definitely-initialized. The latter relies on the balanced push/pop
//! discipline the lowering emits; hand-written pcab that underflows a
//! stack still fails at runtime with `StackUnderflow`, which is not one
//! of the statically-excluded error classes.
//!
//! # Stack bounds
//!
//! The recovered subroutine call graph goes through Tarjan SCC: any
//! reachable cycle means `Unbounded`; otherwise the pc bound is one
//! (exit sentinel) plus the longest call chain, and each stacked
//! variable's data bound is the chain-maximal sum of its static push
//! counts (a push inside an intra-subroutine loop is `Unbounded`).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::error::IrError;
use crate::pcab::{Op, Program, Terminator, WriteKind};
use crate::var::{BlockId, Var};

use super::absint::{
    branch_edges, eval_prim, lookup, AbsDType, AbsValue, Constraints, DepthBound, Env, TensorSpec,
};
use super::callgraph::tarjan;
use super::verify_lsab::Signature;

fn join_env(a: &Env, b: &Env) -> Env {
    a.iter()
        .filter_map(|(k, va)| b.get(k).map(|vb| (k.clone(), va.join(vb))))
        .collect()
}

fn join_env_opt(slot: &mut Option<Env>, env: &Env) -> bool {
    match slot {
        Some(old) => {
            let joined = join_env(old, env);
            if joined == *old {
                false
            } else {
                *slot = Some(joined);
                true
            }
        }
        None => {
            *slot = Some(env.clone());
            true
        }
    }
}

/// The recovered subroutine structure of a pcab program.
#[derive(Debug)]
struct Subroutines {
    /// Entry block of each subroutine; index 0 is the program entry.
    entries: Vec<usize>,
    /// Blocks belonging to each subroutine (possibly overlapping).
    members: Vec<BTreeSet<usize>>,
    /// Call edges between subroutines.
    calls: Vec<BTreeSet<usize>>,
    /// Blocks lying on an intra-subroutine cycle, per subroutine.
    on_cycle: Vec<BTreeSet<usize>>,
}

impl Subroutines {
    fn recover(p: &Program) -> Subroutines {
        let mut entries = vec![p.entry.0];
        let mut entry_index: BTreeMap<usize, usize> = BTreeMap::new();
        entry_index.insert(p.entry.0, 0);
        for b in &p.blocks {
            if let Terminator::PushJump { enter, .. } = b.term {
                entry_index.entry(enter.0).or_insert_with(|| {
                    entries.push(enter.0);
                    entries.len() - 1
                });
            }
        }
        let n = entries.len();
        let mut members = vec![BTreeSet::new(); n];
        let mut calls = vec![BTreeSet::new(); n];
        let mut on_cycle = vec![BTreeSet::new(); n];
        for s in 0..n {
            // Blocks reachable from the subroutine entry without
            // following a call's enter edge (resume continues locally).
            let mut stack = vec![entries[s]];
            while let Some(b) = stack.pop() {
                if b >= p.blocks.len() || !members[s].insert(b) {
                    continue;
                }
                match &p.blocks[b].term {
                    Terminator::Jump(t) => stack.push(t.0),
                    Terminator::Branch { then_, else_, .. } => {
                        stack.push(then_.0);
                        stack.push(else_.0);
                    }
                    Terminator::PushJump { enter, resume } => {
                        if let Some(&c) = entry_index.get(&enter.0) {
                            calls[s].insert(c);
                        }
                        stack.push(resume.0);
                    }
                    Terminator::Return => {}
                }
            }
            // Intra-subroutine cycles: SCC over the local edges.
            let ids: Vec<usize> = members[s].iter().copied().collect();
            let idx: BTreeMap<usize, usize> =
                ids.iter().enumerate().map(|(i, &b)| (b, i)).collect();
            let mut edges: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); ids.len()];
            for (&b, &i) in &idx {
                let succs: Vec<usize> = match &p.blocks[b].term {
                    Terminator::Jump(t) => vec![t.0],
                    Terminator::Branch { then_, else_, .. } => vec![then_.0, else_.0],
                    Terminator::PushJump { resume, .. } => vec![resume.0],
                    Terminator::Return => vec![],
                };
                for t in succs {
                    if let Some(&j) = idx.get(&t) {
                        edges[i].insert(j);
                    }
                }
            }
            let scc = tarjan(&edges);
            let mut scc_size: BTreeMap<usize, usize> = BTreeMap::new();
            for &c in &scc {
                *scc_size.entry(c).or_insert(0) += 1;
            }
            for (i, &b) in ids.iter().enumerate() {
                let cyclic = scc_size[&scc[i]] > 1 || edges[i].contains(&i);
                if cyclic {
                    on_cycle[s].insert(b);
                }
            }
        }
        Subroutines {
            entries,
            members,
            calls,
            on_cycle,
        }
    }

    /// Subroutines reachable from the program entry in the call graph.
    fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.entries.len()];
        let mut stack = vec![0usize];
        while let Some(s) = stack.pop() {
            if seen[s] {
                continue;
            }
            seen[s] = true;
            stack.extend(self.calls[s].iter().copied());
        }
        seen
    }

    /// True when the reachable part of the call graph has a cycle.
    fn recursive(&self) -> bool {
        let reach = self.reachable();
        let scc = tarjan(&self.calls);
        let mut size: BTreeMap<usize, usize> = BTreeMap::new();
        for (s, &c) in scc.iter().enumerate() {
            if reach[s] {
                *size.entry(c).or_insert(0) += 1;
            }
        }
        (0..self.entries.len()).any(|s| {
            reach[s] && (size.get(&scc[s]).copied().unwrap_or(0) > 1 || self.calls[s].contains(&s))
        })
    }

    /// Longest weighted path from subroutine 0 over the (acyclic) call
    /// graph, where `weight(s)` is the per-activation cost of `s`.
    fn longest_path(&self, weight: &dyn Fn(usize) -> usize) -> usize {
        fn go(
            sub: &Subroutines,
            s: usize,
            weight: &dyn Fn(usize) -> usize,
            memo: &mut [Option<usize>],
        ) -> usize {
            if let Some(d) = memo[s] {
                return d;
            }
            let d = weight(s)
                + sub.calls[s]
                    .iter()
                    .map(|&c| go(sub, c, weight, memo))
                    .max()
                    .unwrap_or(0);
            memo[s] = Some(d);
            d
        }
        let mut memo = vec![None; self.entries.len()];
        go(self, 0, weight, &mut memo)
    }
}

/// The result of program-level verification of a pcab program.
#[derive(Debug, Clone)]
pub struct PcabReport {
    /// Inferred per-input dtype constraints (`Any` = unconstrained).
    pub input_dtypes: Vec<AbsDType>,
    /// Abstract values of the program outputs (joined over the entry
    /// subroutine's returns).
    pub outputs: Vec<AbsValue>,
    /// Bound on the pc stack length, counting the exit sentinel.
    pub pc_depth: DepthBound,
    /// Bound on any single variable's data-stack depth, counting the
    /// admission frame.
    pub data_depth: DepthBound,
    /// Blocks unreachable along statically-feasible edges.
    pub unreachable: Vec<BlockId>,
    /// Branches whose condition may differ across batch members.
    pub divergent_branches: Vec<BlockId>,
    /// Verification failures. Empty means the program is accepted.
    pub diagnostics: Vec<IrError>,
}

impl PcabReport {
    /// True when verification succeeded (no diagnostics).
    pub fn ok(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// True when `StackOverflow` is statically excluded under the given
    /// machine stack limit.
    pub fn overflow_excluded(&self, stack_depth: usize) -> bool {
        self.pc_depth.fits(stack_depth) && self.data_depth.fits(stack_depth)
    }
}

struct Engine<'p> {
    p: &'p Program,
    block_in: Vec<Option<Env>>,
    /// Per-subroutine join of the machine state at its reachable
    /// `Return`s. Index 0 (the entry subroutine) is the program exit.
    return_envs: Vec<Option<Env>>,
    /// Subroutine index of each entry block.
    sub_of_entry: BTreeMap<usize, usize>,
    /// Subroutines whose member set contains each block.
    containing: Vec<Vec<usize>>,
    /// Transitive may-write variable set of each subroutine (its own
    /// blocks plus everything it can call).
    writes: Vec<BTreeSet<Var>>,
    /// Join of every value ever written to each variable (what a `Pop`
    /// may uncover).
    anyval: Env,
    cons: Constraints,
    diags: Vec<IrError>,
    divergent: BTreeSet<usize>,
    work: VecDeque<usize>,
    queued: BTreeSet<usize>,
}

/// Transitive may-write sets: the variables a subroutine's own blocks
/// write (`Compute` outs and `Pop` targets), closed over its calls.
fn write_sets(p: &Program, sub: &Subroutines) -> Vec<BTreeSet<Var>> {
    let mut w: Vec<BTreeSet<Var>> = sub
        .members
        .iter()
        .map(|ms| {
            let mut s = BTreeSet::new();
            for &b in ms {
                for op in &p.blocks[b].ops {
                    match op {
                        Op::Compute { outs, .. } => {
                            s.extend(outs.iter().map(|(o, _)| o.clone()));
                        }
                        Op::Pop { var } => {
                            s.insert(var.clone());
                        }
                    }
                }
            }
            s
        })
        .collect();
    loop {
        let mut changed = false;
        for s in 0..w.len() {
            for &c in &sub.calls[s] {
                let add: Vec<Var> = w[c].difference(&w[s]).cloned().collect();
                if !add.is_empty() {
                    changed = true;
                    w[s].extend(add);
                }
            }
        }
        if !changed {
            break;
        }
    }
    w
}

impl<'p> Engine<'p> {
    fn new(p: &'p Program, sub: &'p Subroutines, entry_values: Vec<AbsValue>) -> Engine<'p> {
        let env: Env = p.inputs.iter().cloned().zip(entry_values).collect();
        let mut containing: Vec<Vec<usize>> = vec![Vec::new(); p.blocks.len()];
        for (s, ms) in sub.members.iter().enumerate() {
            for &b in ms {
                containing[b].push(s);
            }
        }
        let mut eng = Engine {
            p,
            block_in: vec![None; p.blocks.len()],
            return_envs: vec![None; sub.entries.len()],
            sub_of_entry: sub
                .entries
                .iter()
                .enumerate()
                .map(|(s, &b)| (b, s))
                .collect(),
            containing,
            writes: write_sets(p, sub),
            anyval: env.clone(),
            cons: Constraints::none(p.inputs.len()),
            diags: Vec::new(),
            divergent: BTreeSet::new(),
            work: VecDeque::new(),
            queued: BTreeSet::new(),
        };
        eng.propagate(p.entry.0, &env);
        eng
    }

    fn queue(&mut self, b: usize) {
        if self.queued.insert(b) {
            self.work.push_back(b);
        }
    }

    fn propagate(&mut self, b: usize, env: &Env) {
        if join_env_opt(&mut self.block_in[b], env) {
            self.queue(b);
        }
    }

    fn diag(&mut self, e: IrError) {
        if !self.diags.contains(&e) {
            self.diags.push(e);
        }
    }

    /// The abstract state at a call's resume point: the callee's return
    /// env, widened with the caller's state for variables the callee
    /// leaves untouched. A variable definitely assigned at the call
    /// site stays definitely assigned across the call (writes never
    /// unassign; a `Pop` uncovers an earlier write).
    fn merge_resume(&self, caller: &Env, ret: &Env, s: usize) -> Env {
        let mut out = ret.clone();
        for (v, cv) in caller {
            match out.get_mut(v) {
                Some(rv) => *rv = rv.join(cv),
                None => {
                    if !self.writes[s].contains(v) {
                        out.insert(v.clone(), cv.clone());
                    } else {
                        // The callee may write `v` but its return env
                        // dropped it (assigned on only some paths from
                        // only some callers): the runtime value is the
                        // caller's or one of the callee's writes.
                        let widened = match self.anyval.get(v) {
                            Some(av) => cv.join(av),
                            None => cv.clone(),
                        };
                        out.insert(v.clone(), widened);
                    }
                }
            }
        }
        out
    }

    fn record_write(&mut self, var: &Var, val: &AbsValue) {
        match self.anyval.get_mut(var) {
            Some(old) => *old = old.join(val),
            None => {
                self.anyval.insert(var.clone(), val.clone());
            }
        }
    }

    fn run(&mut self) {
        let mut budget = 64 * 1024 * self.p.blocks.len().max(1);
        while let Some(b) = self.work.pop_front() {
            self.queued.remove(&b);
            if budget == 0 {
                break;
            }
            budget -= 1;
            self.process(b);
        }
    }

    fn process(&mut self, b: usize) {
        let p = self.p;
        let mut env = match &self.block_in[b] {
            Some(e) => e.clone(),
            None => return,
        };
        let block = &p.blocks[b];
        for (i, op) in block.ops.iter().enumerate() {
            match op {
                Op::Compute { outs, prim, ins } => {
                    match eval_prim(prim, ins, outs.len(), &env, &mut self.cons) {
                        Ok(res) => {
                            for ((o, _kind), r) in outs.iter().zip(res) {
                                self.record_write(o, &r);
                                env.insert(o.clone(), r);
                            }
                        }
                        Err(why) => return self.diag(why.at(None, BlockId(b), Some(i))),
                    }
                }
                Op::Pop { var } => {
                    // The uncovered top is some earlier write; stay
                    // initialized (balanced-lowering assumption, see
                    // module docs).
                    if let Some(join_of_writes) = self.anyval.get(var) {
                        env.insert(var.clone(), join_of_writes.clone());
                    }
                }
            }
        }
        match &block.term {
            Terminator::Jump(t) => self.propagate(t.0, &env),
            Terminator::Branch { cond, then_, else_ } => {
                let edges = lookup(&env, cond).and_then(|cv| branch_edges(&cv, &mut self.cons));
                let (then_live, else_live, splits) = match edges {
                    Ok(edges) => edges,
                    Err(why) => return self.diag(why.at(None, BlockId(b), None)),
                };
                if splits {
                    self.divergent.insert(b);
                }
                if then_live {
                    self.propagate(then_.0, &env);
                }
                if else_live {
                    self.propagate(else_.0, &env);
                }
            }
            Terminator::PushJump { enter, resume } => {
                self.propagate(enter.0, &env);
                // The state at `resume` is the callee's state at one of
                // its `Return`s. Variables the callee can never write
                // keep the caller's value exactly; variables it may
                // write take the callee's return-time value (falling
                // back to the join of all writes when the return env
                // dropped them at a join). When the callee has not
                // reached a `Return` yet, this block is re-queued by the
                // `Return` arm once its return env first forms.
                if let Some(&s) = self.sub_of_entry.get(&enter.0) {
                    if let Some(re) = self.return_envs[s].clone() {
                        let merged = self.merge_resume(&env, &re, s);
                        self.propagate(resume.0, &merged);
                    }
                } else if let Some(re) = self.return_envs.iter().flatten().next().cloned() {
                    // Defensive: an enter target the recovery did not
                    // classify (cannot happen for recovered programs).
                    self.propagate(resume.0, &re);
                }
            }
            Terminator::Return => {
                // A block may belong to several subroutines (shared
                // tails); its return state joins into each.
                let changed: Vec<usize> = self.containing[b]
                    .clone()
                    .into_iter()
                    .filter(|&s| join_env_opt(&mut self.return_envs[s], &env))
                    .collect();
                for s in changed {
                    // Re-run every reached call site of `s` so its
                    // resume block observes the new return state.
                    for pb in 0..p.blocks.len() {
                        if self.block_in[pb].is_none() {
                            continue;
                        }
                        if let Terminator::PushJump { enter, .. } = &p.blocks[pb].term {
                            if self.sub_of_entry.get(&enter.0) == Some(&s) {
                                self.queue(pb);
                            }
                        }
                    }
                }
            }
        }
    }
}

fn stack_bounds(p: &Program, sub: &Subroutines) -> (DepthBound, DepthBound) {
    if sub.recursive() {
        return (DepthBound::Unbounded, DepthBound::Unbounded);
    }
    // pc: exit sentinel + one frame per nested call = the node count of
    // the longest call chain (the entry runs on the sentinel frame).
    let pc = DepthBound::Bounded(sub.longest_path(&|_| 1));
    // data: per stacked variable, chain-maximal sum of static push
    // counts, plus the admission frame.
    let mut data = DepthBound::Bounded(0);
    for var in p.stacked_vars() {
        let mut unbounded = false;
        let per_sub: Vec<usize> = (0..sub.entries.len())
            .map(|s| {
                let mut count = 0;
                for &b in &sub.members[s] {
                    let pushes = p.blocks[b]
                        .ops
                        .iter()
                        .filter(|op| match op {
                            Op::Compute { outs, .. } => {
                                outs.iter().any(|(o, k)| *o == var && *k == WriteKind::Push)
                            }
                            Op::Pop { .. } => false,
                        })
                        .count();
                    if pushes > 0 && sub.on_cycle[s].contains(&b) {
                        unbounded = true;
                    }
                    count += pushes;
                }
                count
            })
            .collect();
        if unbounded {
            return (pc, DepthBound::Unbounded);
        }
        let bound = sub.longest_path(&|s| per_sub[s]);
        data = data.max(DepthBound::Bounded(1 + bound));
    }
    (pc, data)
}

fn finish(p: &Program, sub: &Subroutines, mut eng: Engine<'_>) -> PcabReport {
    let mut diags = std::mem::take(&mut eng.diags);
    // The program exits from the entry subroutine's returns.
    let outputs = match &eng.return_envs[0] {
        Some(env) => {
            let mut outs = Vec::with_capacity(p.outputs.len());
            for v in &p.outputs {
                match env.get(v) {
                    Some(av) => outs.push(av.clone()),
                    None => {
                        let e = IrError::UnassignedRead {
                            var: v.clone(),
                            func: None,
                            block: p.exit_sentinel(),
                        };
                        if !diags.contains(&e) {
                            diags.push(e);
                        }
                        outs.push(AbsValue::any());
                    }
                }
            }
            outs
        }
        None => {
            let e = IrError::NoReachableReturn { func: None };
            if !diags.contains(&e) {
                diags.push(e);
            }
            vec![AbsValue::any(); p.outputs.len()]
        }
    };
    let (pc_depth, data_depth) = stack_bounds(p, sub);
    PcabReport {
        input_dtypes: eng.cons.dtypes.clone(),
        outputs,
        pc_depth,
        data_depth,
        unreachable: (0..p.blocks.len())
            .filter(|&b| eng.block_in[b].is_none())
            .map(BlockId)
            .collect(),
        divergent_branches: eng.divergent.iter().map(|&b| BlockId(b)).collect(),
        diagnostics: diags,
    }
}

/// Program-level verification of a pcab program with fully-unknown
/// inputs. See the module-level docs for the approximations used.
pub fn analyze_pcab(p: &Program) -> PcabReport {
    if let Err(e) = p.validate() {
        return PcabReport {
            input_dtypes: vec![AbsDType::Any; p.inputs.len()],
            outputs: vec![AbsValue::any(); p.outputs.len()],
            pc_depth: DepthBound::Unbounded,
            data_depth: DepthBound::Unbounded,
            unreachable: Vec::new(),
            divergent_branches: Vec::new(),
            diagnostics: vec![e],
        };
    }
    let sub = Subroutines::recover(p);
    let entry_values = (0..p.inputs.len()).map(AbsValue::input).collect();
    let mut eng = Engine::new(p, &sub, entry_values);
    eng.run();
    finish(p, &sub, eng)
}

/// Concrete signature inference for a pcab program.
///
/// # Errors
///
/// Returns the first diagnostic when the program is invalid or
/// ill-typed for these inputs, or can never reach the exit.
pub fn infer_pcab_signature(p: &Program, inputs: &[TensorSpec]) -> Result<Signature, IrError> {
    p.validate()?;
    if inputs.len() != p.inputs.len() {
        return Err(IrError::BadArity {
            what: "program inputs".to_string(),
            expected: p.inputs.len(),
            got: inputs.len(),
        });
    }
    let sub = Subroutines::recover(p);
    let entry_values = inputs
        .iter()
        .enumerate()
        .map(|(i, s)| s.abs_value(i))
        .collect();
    let mut eng = Engine::new(p, &sub, entry_values);
    eng.run();
    let report = finish(p, &sub, eng);
    if let Some(e) = report.diagnostics.first() {
        return Err(e.clone());
    }
    Ok(Signature {
        inputs: inputs.to_vec(),
        outputs: report.outputs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::pcab::{Block, VarClass};
    use crate::prim::Prim;

    fn var(s: &str) -> Var {
        Var::new(s)
    }

    /// A two-block straight-line program: entry computes, returns.
    fn straightline() -> Program {
        let x = var("x");
        let y = var("y");
        let mut classes = BTreeMap::new();
        classes.insert(x.clone(), VarClass::Register);
        classes.insert(y.clone(), VarClass::Register);
        Program {
            blocks: vec![Block {
                ops: vec![Op::Compute {
                    outs: vec![(y.clone(), WriteKind::Update)],
                    prim: Prim::Exp,
                    ins: vec![x.clone()],
                }],
                term: Terminator::Return,
            }],
            entry: BlockId(0),
            inputs: vec![x],
            outputs: vec![y],
            classes,
        }
    }

    #[test]
    fn straightline_is_bounded_and_typed() {
        let p = straightline();
        let report = analyze_pcab(&p);
        assert!(report.ok(), "diagnostics: {:?}", report.diagnostics);
        assert_eq!(report.input_dtypes, vec![AbsDType::F64]);
        assert_eq!(report.pc_depth, DepthBound::Bounded(1));
        assert!(report.overflow_excluded(64));
        let sig = infer_pcab_signature(&p, &[TensorSpec::new(AbsDType::F64, vec![])]).unwrap();
        assert_eq!(sig.outputs[0].dtype, AbsDType::F64);
    }

    #[test]
    fn wrong_dtype_inputs_are_rejected() {
        let p = straightline();
        assert!(infer_pcab_signature(&p, &[TensorSpec::new(AbsDType::Bool, vec![])]).is_err());
        assert!(infer_pcab_signature(&p, &[TensorSpec::new(AbsDType::F64, vec![2])]).is_ok());
    }
}
