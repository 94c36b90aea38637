//! Backward live-variable analysis over one function's CFG.
//!
//! The lowering (paper §3, optimizations 2–3) needs two liveness facts:
//!
//! - which variables are live *after* each call site (those are the ones
//!   a recursive call must not clobber, so the caller saves them);
//! - which variables are ever live across a block boundary at all
//!   (variables that are not are block-local temporaries and bypass the
//!   batching machinery entirely).
//!
//! A function's `outputs` are treated as read by every `Return`
//! terminator, and a `Branch` condition as read at the end of its block.

use std::collections::BTreeSet;

use crate::lsab::{Function, Terminator};
use crate::var::Var;

/// Liveness facts for one function.
#[derive(Debug, Clone)]
pub struct Liveness {
    /// `live_in[b]`: variables live at entry of block `b`.
    live_in: Vec<BTreeSet<Var>>,
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
        Liveness {
            live_in,
            live_after,
        }
    }

    /// Variables live immediately *after* op `op_index` of block `b`
    /// (i.e. what the rest of the block and all successors may still
    /// read). This is the save set query for call sites; the sets are
    /// precomputed in [`Liveness::new`], so this is a borrow.
    pub fn live_after_op(&self, b: usize, op_index: usize) -> &BTreeSet<Var> {
        &self.live_after[b][op_index]
    }

    /// Variables that cross a block boundary anywhere in the function:
    /// the union of all blocks' live-in sets. Variables *not* in this set
    /// (and not params/outputs) are block-local temporaries.
    pub fn cross_block_vars(&self) -> BTreeSet<Var> {
        let mut s = BTreeSet::new();
        for li in &self.live_in {
            s.extend(li.iter().cloned());
        }
        s
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

    /// The precomputed `live_after` tables must agree with the original
    /// per-query backward walk, on every op, across repeated queries.
    #[test]
    fn precomputed_live_after_matches_rewalk() {
        fn rewalk(lv: &Liveness, f: &Function, b: usize, op_index: usize) -> BTreeSet<Var> {
            let block = &f.blocks[b];
            // Live out: the union of the successors' live-in sets.
            let mut cur: BTreeSet<Var> = block
                .term
                .successors()
                .into_iter()
                .flat_map(|s| lv.live_in[s.0].iter().cloned())
                .collect();
            match &block.term {
                Terminator::Branch { cond, .. } => {
                    cur.insert(cond.clone());
                }
                Terminator::Return => {
                    cur.extend(f.outputs.iter().cloned());
                }
                Terminator::Jump(_) => {}
            }
            for (i, op) in block.ops.iter().enumerate().rev() {
                if i == op_index {
                    break;
                }
                for w in op.writes() {
                    cur.remove(w);
                }
                for r in op.reads() {
                    cur.insert(r.clone());
                }
            }
            cur
        }
        let p = fibonacci_program();
        let f = &p.funcs[0];
        let lv = Liveness::new(f);
        for _ in 0..2 {
            for (bi, b) in f.blocks.iter().enumerate() {
                for oi in 0..b.ops.len() {
                    assert_eq!(
                        *lv.live_after_op(bi, oi),
                        rewalk(&lv, f, bi, oi),
                        "mismatch at block {bi} op {oi}"
                    );
                }
            }
        }
    }

    #[test]
    fn outputs_live_at_return() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare("f", &["x"], &["y"]);
        pb.define(f, |fb| {
            let x = fb.param(0);
            fb.assign(&fb.output(0), Prim::Neg, &[x]);
            fb.ret();
        });
        let p = pb.finish(f).unwrap();
        let lv = Liveness::new(&p.funcs[0]);
        // x is live at entry (read by the op); y is not (written first).
        assert!(lv.live_in[0].contains(&Var::new("x")));
        assert!(!lv.live_in[0].contains(&Var::new("y")));
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
        let lv = Liveness::new(&p.funcs[0]);
        let i = Var::new("i");
        let n = Var::new("n");
        // Header block (index 1) must see both i and n live at entry.
        assert!(lv.live_in[1].contains(&i));
        assert!(lv.live_in[1].contains(&n));
        assert!(lv.cross_block_vars().contains(&i));
    }

    #[test]
    fn temporaries_do_not_cross_blocks() {
        let p = fibonacci_program();
        let lv = Liveness::new(&p.funcs[0]);
        let crossing = lv.cross_block_vars();
        // All builder temporaries (names starting with '%') in fibonacci
        // are defined and consumed within a single block — including the
        // branch condition, which its own block's terminator reads.
        for v in &crossing {
            assert!(!v.name().starts_with('%'), "unexpected crossing temp {v}");
        }
        // The named variables do cross blocks.
        assert!(crossing.contains(&Var::new("n")));
    }
}
