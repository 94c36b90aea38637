//! Call-graph construction and strongly-connected components.
//!
//! The lowering uses SCCs to decide which calls are *recursive*: a call
//! `F → G` can re-enter `F` (and therefore clobber `F`'s variables at a
//! deeper stack depth) exactly when `F` and `G` belong to the same SCC of
//! the call graph. Self-loops count.

use std::collections::BTreeSet;

use crate::lsab::{Op, Program};
use crate::var::FuncId;

/// Call graph with SCC decomposition (Tarjan's algorithm).
#[derive(Debug, Clone)]
pub struct CallGraph {
    /// `edges[f]` = set of callees of function `f`.
    edges: Vec<BTreeSet<usize>>,
    /// `scc_of[f]` = SCC index of function `f`.
    scc_of: Vec<usize>,
    /// For each function, whether its SCC contains a cycle (size > 1 or a
    /// self-loop).
    in_cycle: Vec<bool>,
}

impl CallGraph {
    /// Build the call graph of `program` and run Tarjan's SCC algorithm.
    pub fn new(program: &Program) -> CallGraph {
        let n = program.funcs.len();
        let mut edges = vec![BTreeSet::new(); n];
        for (fi, f) in program.funcs.iter().enumerate() {
            for b in &f.blocks {
                for op in &b.ops {
                    if let Op::Call { callee, .. } = op {
                        edges[fi].insert(callee.0);
                    }
                }
            }
        }
        let scc_of = tarjan(&edges);
        let n_sccs = scc_of.iter().copied().max().map_or(0, |m| m + 1);
        let mut size = vec![0usize; n_sccs];
        for &s in &scc_of {
            size[s] += 1;
        }
        let in_cycle = (0..n)
            .map(|f| size[scc_of[f]] > 1 || edges[f].contains(&f))
            .collect();
        CallGraph {
            edges,
            scc_of,
            in_cycle,
        }
    }

    /// Whether the call edge `caller → callee` is recursive, i.e. the
    /// callee can (transitively) re-enter the caller.
    pub fn is_recursive_call(&self, caller: FuncId, callee: FuncId) -> bool {
        self.scc_of[caller.0] == self.scc_of[callee.0] && self.in_cycle[caller.0]
    }

    /// Whether a function participates in any recursion.
    pub fn is_recursive_func(&self, func: FuncId) -> bool {
        self.in_cycle[func.0]
    }

    /// Direct callees of a function.
    pub fn callees(&self, func: FuncId) -> impl Iterator<Item = FuncId> + '_ {
        self.edges[func.0].iter().map(|&c| FuncId(c))
    }
}

/// Iterative Tarjan SCC; returns the SCC index of each node. Shared
/// with the pcab stack-depth analysis, which runs it over the recovered
/// push-jump call graph.
pub(crate) fn tarjan(edges: &[BTreeSet<usize>]) -> Vec<usize> {
    let n = edges.len();
    let mut index = vec![usize::MAX; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut scc_of = vec![usize::MAX; n];
    let mut next_index = 0usize;
    let mut next_scc = 0usize;

    // Explicit DFS state: (node, iterator position over its callees).
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        let mut call_stack: Vec<(usize, Vec<usize>, usize)> = Vec::new();
        let succs: Vec<usize> = edges[root].iter().copied().collect();
        index[root] = next_index;
        lowlink[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;
        call_stack.push((root, succs, 0));
        while let Some((v, succs, mut i)) = call_stack.pop() {
            let mut descended = false;
            while i < succs.len() {
                let w = succs[i];
                i += 1;
                if index[w] == usize::MAX {
                    // Descend into w.
                    index[w] = next_index;
                    lowlink[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    let wsuccs: Vec<usize> = edges[w].iter().copied().collect();
                    call_stack.push((v, succs, i));
                    call_stack.push((w, wsuccs, 0));
                    descended = true;
                    break;
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            }
            if descended {
                continue;
            }
            // v finished.
            if lowlink[v] == index[v] {
                loop {
                    let w = stack.pop().expect("SCC stack underflow");
                    on_stack[w] = false;
                    scc_of[w] = next_scc;
                    if w == v {
                        break;
                    }
                }
                next_scc += 1;
            }
            if let Some((parent, _, _)) = call_stack.last() {
                let p = *parent;
                lowlink[p] = lowlink[p].min(lowlink[v]);
            }
        }
    }
    scc_of
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{fibonacci_program, ProgramBuilder};
    use crate::prim::Prim;

    #[test]
    fn fibonacci_is_self_recursive() {
        let p = fibonacci_program();
        let cg = CallGraph::new(&p);
        assert!(cg.is_recursive_func(FuncId(0)));
        assert!(cg.is_recursive_call(FuncId(0), FuncId(0)));
    }

    #[test]
    fn straightline_not_recursive() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare("f", &["x"], &["y"]);
        pb.define(f, |fb| {
            let x = fb.param(0);
            fb.assign(&fb.output(0), Prim::Neg, &[x]);
            fb.ret();
        });
        let p = pb.finish(f).unwrap();
        let cg = CallGraph::new(&p);
        assert!(!cg.is_recursive_func(FuncId(0)));
    }

    #[test]
    fn nonrecursive_call_chain() {
        // main -> helper, no cycle.
        let mut pb = ProgramBuilder::new();
        let helper = pb.declare("helper", &["x"], &["y"]);
        let main = pb.declare("main", &["x"], &["y"]);
        pb.define(helper, |fb| {
            let x = fb.param(0);
            fb.assign(&fb.output(0), Prim::Neg, &[x]);
            fb.ret();
        });
        pb.define(main, |fb| {
            let x = fb.param(0);
            let r = fb.call(helper, &[x], 1);
            fb.copy(&fb.output(0), &r[0]);
            fb.ret();
        });
        let p = pb.finish(main).unwrap();
        let cg = CallGraph::new(&p);
        assert!(!cg.is_recursive_call(FuncId(1), FuncId(0)));
        assert!(!cg.is_recursive_func(FuncId(0)));
        assert!(!cg.is_recursive_func(FuncId(1)));
        assert_ne!(cg.scc_of[0], cg.scc_of[1]);
        assert_eq!(cg.callees(FuncId(1)).collect::<Vec<_>>(), vec![FuncId(0)]);
    }

    #[test]
    fn mutual_recursion_shares_scc() {
        let mut pb = ProgramBuilder::new();
        let even = pb.declare("even", &["n"], &["r"]);
        let odd = pb.declare("odd", &["n"], &["r"]);
        for (me, other) in [(even, odd), (odd, even)] {
            pb.define(me, |fb| {
                let n = fb.param(0);
                let zero = fb.const_i64(0);
                let base = fb.emit(Prim::EqE, &[n, zero]);
                fb.if_else(
                    &base,
                    |fb| {
                        let t = fb.const_bool(true);
                        fb.copy(&fb.output(0), &t);
                    },
                    |fb| {
                        let one = fb.const_i64(1);
                        let m = fb.emit(Prim::Sub, &[fb.param(0), one]);
                        let r = fb.call(other, &[m], 1);
                        fb.copy(&fb.output(0), &r[0]);
                    },
                );
                fb.ret();
            });
        }
        let p = pb.finish(even).unwrap();
        let cg = CallGraph::new(&p);
        assert_eq!(cg.scc_of[0], cg.scc_of[1]);
        assert!(cg.is_recursive_call(FuncId(0), FuncId(1)));
        assert!(cg.is_recursive_call(FuncId(1), FuncId(0)));
    }

    #[test]
    fn recursive_callee_from_nonrecursive_caller() {
        // main -> fib (recursive): the main -> fib edge is NOT recursive
        // (fib can never re-enter main), but fib -> fib is.
        let mut pb = ProgramBuilder::new();
        let fib_src = fibonacci_program();
        let fib = pb.declare("fib", &["n"], &["out"]);
        let main = pb.declare("main", &["n"], &["out"]);
        pb.define(main, |fb| {
            let n = fb.param(0);
            let r = fb.call(fib, &[n], 1);
            fb.copy(&fb.output(0), &r[0]);
            fb.ret();
        });
        // Splice in the real fib body.
        let mut p = {
            pb.define(fib, |fb| {
                let n = fb.param(0);
                fb.copy(&fb.output(0), &n);
                fb.ret();
            });
            pb.finish(main).unwrap()
        };
        p.funcs[0] = fib_src.funcs[0].clone();
        let cg = CallGraph::new(&p);
        assert!(!cg.is_recursive_call(FuncId(1), FuncId(0)));
        assert!(cg.is_recursive_call(FuncId(0), FuncId(0)));
    }
}
