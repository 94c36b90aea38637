//! Backward live-variable analysis over one function's CFG.
//!
//! The lowering (paper §3, optimizations 1 and 3) needs one liveness
//! fact: which variables are live *after* each call site. Those are the
//! ones a recursive call must not clobber, so the caller saves them, and
//! a variable live across a recursive call is stacked.
//!
//! A function's `outputs` are treated as read by every `Return`
//! terminator, and a `Branch` condition as read at the end of its block.

use std::collections::BTreeSet;

use crate::lsab::{Function, Terminator};
use crate::var::Var;

/// Liveness facts for one function.
#[derive(Debug, Clone)]
pub struct Liveness {
    /// `live_after[b][i]`: variables live immediately after op `i` of
    /// block `b`, precomputed so call-site save-set queries are O(1)
    /// borrows instead of a backward re-walk per query.
    live_after: Vec<Vec<BTreeSet<Var>>>,
}

impl Liveness {
    /// Run the analysis to a fixed point.
    pub fn new(f: &Function) -> Liveness {
        let n = f.blocks.len();
        let mut live_in: Vec<BTreeSet<Var>> = vec![BTreeSet::new(); n];
        let mut live_out: Vec<BTreeSet<Var>> = vec![BTreeSet::new(); n];
        let mut changed = true;
        while changed {
            changed = false;
            for b in (0..n).rev() {
                let block = &f.blocks[b];
                // live_out = union of successors' live_in.
                let mut out: BTreeSet<Var> = BTreeSet::new();
                for s in block.term.successors() {
                    out.extend(live_in[s.0].iter().cloned());
                }
                // Terminator reads.
                let mut cur = out.clone();
                match &block.term {
                    Terminator::Branch { cond, .. } => {
                        cur.insert(cond.clone());
                    }
                    Terminator::Return => {
                        cur.extend(f.outputs.iter().cloned());
                    }
                    Terminator::Jump(_) => {}
                }
                // Ops in reverse.
                for op in block.ops.iter().rev() {
                    for w in op.writes() {
                        cur.remove(w);
                    }
                    for r in op.reads() {
                        cur.insert(r.clone());
                    }
                }
                if out != live_out[b] {
                    live_out[b] = out;
                    changed = true;
                }
                if cur != live_in[b] {
                    live_in[b] = cur;
                    changed = true;
                }
            }
        }
        // One final backward walk per block records the live set after
        // every op, so `live_after_op` never re-walks.
        let mut live_after: Vec<Vec<BTreeSet<Var>>> = Vec::with_capacity(n);
        for (block, out) in f.blocks.iter().zip(&live_out) {
            let mut cur = out.clone();
            match &block.term {
                Terminator::Branch { cond, .. } => {
                    cur.insert(cond.clone());
                }
                Terminator::Return => {
                    cur.extend(f.outputs.iter().cloned());
                }
                Terminator::Jump(_) => {}
            }
            let mut after: Vec<BTreeSet<Var>> = vec![BTreeSet::new(); block.ops.len()];
            for (i, op) in block.ops.iter().enumerate().rev() {
                after[i] = cur.clone();
                for w in op.writes() {
                    cur.remove(w);
                }
                for r in op.reads() {
                    cur.insert(r.clone());
                }
            }
            live_after.push(after);
        }
        Liveness { live_after }
    }

    /// Variables live immediately *after* op `op_index` of block `b`
    /// (i.e. what the rest of the block and all successors may still
    /// read). This is the save set query for call sites; the sets are
    /// precomputed in [`Liveness::new`], so this is a borrow.
    pub fn live_after_op(&self, b: usize, op_index: usize) -> &BTreeSet<Var> {
        &self.live_after[b][op_index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{fibonacci_program, ProgramBuilder};
    use crate::lsab::Op;
    use crate::prim::Prim;

    #[test]
    fn fib_n_live_across_first_call_only() {
        let p = fibonacci_program();
        let f = &p.funcs[0];
        let lv = Liveness::new(f);
        // Find the two call sites.
        let mut calls = Vec::new();
        for (bi, b) in f.blocks.iter().enumerate() {
            for (oi, op) in b.ops.iter().enumerate() {
                if matches!(op, Op::Call { .. }) {
                    calls.push((bi, oi));
                }
            }
        }
        assert_eq!(calls.len(), 2);
        let n = Var::new("n");
        let left = Var::new("left");
        // After the first call, n is still needed (n1 = n - 1) and so is left.
        let after_first = lv.live_after_op(calls[0].0, calls[0].1);
        assert!(after_first.contains(&n), "n live after first call");
        // After the second call, n is dead but left is live (left + right).
        let after_second = lv.live_after_op(calls[1].0, calls[1].1);
        assert!(!after_second.contains(&n), "n dead after second call");
        assert!(after_second.contains(&left), "left live after second call");
    }

    /// The precomputed `live_after` tables must agree with a backward
    /// step within each block, on every op, across repeated queries:
    /// what is live after op `i` is what op `i + 1` reads plus what is
    /// live after it and not written by it, and a block's terminator
    /// reads what it reads.
    #[test]
    fn precomputed_live_after_matches_rewalk() {
        let p = fibonacci_program();
        let f = &p.funcs[0];
        let lv = Liveness::new(f);
        for _ in 0..2 {
            for (bi, b) in f.blocks.iter().enumerate() {
                for oi in 1..b.ops.len() {
                    let mut want = lv.live_after_op(bi, oi).clone();
                    for w in b.ops[oi].writes() {
                        want.remove(w);
                    }
                    want.extend(b.ops[oi].reads().iter().cloned());
                    assert_eq!(
                        *lv.live_after_op(bi, oi - 1),
                        want,
                        "mismatch at block {bi} op {}",
                        oi - 1
                    );
                }
                let Some(last) = b.ops.len().checked_sub(1) else {
                    continue;
                };
                let after = lv.live_after_op(bi, last);
                match &b.term {
                    Terminator::Branch { cond, .. } => assert!(after.contains(cond)),
                    Terminator::Return => assert!(f.outputs.iter().all(|o| after.contains(o))),
                    Terminator::Jump(_) => {}
                }
            }
        }
    }

    #[test]
    fn outputs_live_at_return() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare("f", &["x", "z"], &["y"]);
        pb.define(f, |fb| {
            let x = fb.param(0);
            fb.assign(&fb.output(0), Prim::Neg, &[x]);
            fb.assign(&Var::new("w"), Prim::Neg, &[fb.param(1)]);
            fb.ret();
        });
        let p = pb.finish(f).unwrap();
        let lv = Liveness::new(&p.funcs[0]);
        // x is read by the first op only and z by the second; y,
        // written by the first, is read by the return; w is never read.
        let after_first = lv.live_after_op(0, 0);
        assert!(!after_first.contains(&Var::new("x")));
        assert!(after_first.contains(&Var::new("y")));
        assert!(after_first.contains(&Var::new("z")));
        let after_last = lv.live_after_op(0, 1);
        assert!(after_last.contains(&Var::new("y")));
        assert!(!after_last.contains(&Var::new("w")));
    }

    #[test]
    fn loop_carried_variable_is_live_around_the_loop() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare("count", &["n"], &["i"]);
        pb.define(f, |fb| {
            let zero = fb.const_i64(0);
            fb.copy(&fb.output(0), &zero);
            fb.while_loop(
                |fb| fb.emit(Prim::Lt, &[fb.output(0), fb.param(0)]),
                |fb| {
                    let one = fb.const_i64(1);
                    fb.assign(&fb.output(0), Prim::Add, &[fb.output(0), one]);
                },
            );
            fb.ret();
        });
        let p = pb.finish(f).unwrap();
        let f = &p.funcs[0];
        let lv = Liveness::new(f);
        let i = Var::new("i");
        let n = Var::new("n");
        // Both enter the header (block 1) from the entry block and again
        // from the end of the body (block 2).
        for b in [0, 2] {
            let after = lv.live_after_op(b, f.blocks[b].ops.len() - 1);
            assert!(after.contains(&i) && after.contains(&n), "block {b}");
        }
    }

    #[test]
    fn temporaries_do_not_cross_blocks() {
        let p = fibonacci_program();
        let f = &p.funcs[0];
        let lv = Liveness::new(f);
        // All builder temporaries (names starting with '%') in fibonacci
        // are defined and consumed within a single block — including the
        // branch condition, which its own block's terminator reads.
        for (bi, b) in f.blocks.iter().enumerate() {
            let Some(last) = b.ops.len().checked_sub(1) else {
                continue;
            };
            for v in lv.live_after_op(bi, last) {
                let read_here = matches!(&b.term, Terminator::Branch { cond, .. } if cond == v);
                assert!(
                    read_here || !v.name().starts_with('%'),
                    "unexpected crossing temp {v}"
                );
            }
        }
        // The named variables do cross blocks: `n` is live after the
        // entry block's branch condition is computed.
        assert!(lv
            .live_after_op(0, f.blocks[0].ops.len() - 1)
            .contains(&Var::new("n")));
    }
}
