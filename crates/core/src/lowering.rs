//! The `lsab → pcab` lowering (paper §3).
//!
//! Merges every function's CFG into one flat block list and replaces
//! calls with explicit stack discipline:
//!
//! - argument values are written onto the callee's parameter variables —
//!   *pushed* if the parameter is stack-classified and the call is
//!   recursive (saving the caller's frame beneath), *updated* in place
//!   otherwise;
//! - the caller *pushes* each of its own stacked variables that is live
//!   after a recursive call (caller-saves; paper optimization 1);
//! - control transfers via `PushJump(callee entry, resume block)`; the
//!   resume block copies the callee's outputs, pops the saved variables,
//!   and continues;
//! - variable classification implements optimization 3: a variable live
//!   across a recursive call is stacked, every other one becomes a
//!   mask-updated register;
//! - a peephole pass implements optimization 5: `Pop v; …; Push v = e`
//!   with no intervening access to `v` cancels into `Update v = e`
//!   (optimization 4, stack-top caching, lives in the runtime);
//! - a clean-up then removes what the machine would pay for and nothing
//!   needs: variables whose every read follows a write in the same block
//!   (made block-local temporaries: optimization 2, decided there alone),
//!   copies (propagated, or folded into the computation they copy), and
//!   blocks that only jump or return (threaded through). Each is a
//!   superstep or a dispatch saved, and none changes a member's values.
//!   It runs after optimization 5, which must not run again: copy
//!   propagation turns argument passing into the `Pop v; Push v = id(v)`
//!   shape of a re-save.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use autobatch_ir::analysis::{CallGraph, Liveness};
use autobatch_ir::{lsab, pcab, BlockId, FuncId, IrError, Prim, Var};

use crate::error::Result;
use crate::options::LoweringOptions;

/// Compile-time statistics reported by [`lower`], consumed by the
/// lowering-ablation bench.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoweringStats {
    /// Blocks in the merged program after the clean-up: a block that held
    /// no op and only jumped or returned has been threaded through and
    /// dropped.
    pub blocks: usize,
    /// Variables classified as stacked.
    pub stacked_vars: usize,
    /// Variables classified as registers.
    pub register_vars: usize,
    /// Static `Push` write sites.
    pub pushes: usize,
    /// Static `Pop` sites.
    pub pops: usize,
    /// Pop/push pairs cancelled by optimization 5.
    pub eliminated_pairs: usize,
}

/// Lower a locally-batchable program into the merged, stack-explicit
/// program-counter-batchable form.
///
/// # Errors
///
/// Returns an error if the input program is malformed (it is validated
/// first), if function names collide (they become variable-name prefixes),
/// or if the produced program fails its own validation (a compiler bug).
pub fn lower(
    program: &lsab::Program,
    opts: LoweringOptions,
) -> Result<(pcab::Program, LoweringStats)> {
    program.validate()?;
    let mut seen = BTreeSet::new();
    for f in &program.funcs {
        if !seen.insert(f.name.clone()) {
            return Err(IrError::DuplicateName {
                name: f.name.clone(),
            }
            .into());
        }
    }

    let cg = CallGraph::new(program);
    let liveness: Vec<Liveness> = program.funcs.iter().map(Liveness::new).collect();

    // ---- classification (optimization 3) ---------------------------------
    // A variable live across a recursive call is stacked; every other one
    // is a register, or stacked too without register demotion (the
    // paper's unoptimized baseline). Optimization 2 comes later: the
    // clean-up's rule (c) makes the block-local ones temporaries.
    let mut classes: BTreeMap<Var, pcab::VarClass> = BTreeMap::new();
    for (fi, f) in program.funcs.iter().enumerate() {
        let lv = &liveness[fi];
        let mut stacked: BTreeSet<Var> = BTreeSet::new();
        for (bi, b) in f.blocks.iter().enumerate() {
            for (oi, op) in b.ops.iter().enumerate() {
                if let lsab::Op::Call { outs, callee, .. } = op {
                    if cg.is_recursive_call(FuncId(fi), *callee) {
                        let mut live = lv.live_after_op(bi, oi).clone();
                        for w in outs {
                            live.remove(w);
                        }
                        stacked.extend(live);
                    }
                }
            }
        }
        for v in f.all_vars() {
            let class = if !opts.demote_registers || stacked.contains(&v) {
                pcab::VarClass::Stacked
            } else {
                pcab::VarClass::Register
            };
            classes.insert(mangle(&f.name, &v), class);
        }
    }

    // ---- block layout ----------------------------------------------------
    // Each lsab block splits at its calls into 1 + #calls pcab segments.
    let mut seg_start: HashMap<(usize, usize), usize> = HashMap::new();
    let mut next = 0usize;
    for (fi, f) in program.funcs.iter().enumerate() {
        for (bi, b) in f.blocks.iter().enumerate() {
            seg_start.insert((fi, bi), next);
            let calls = b
                .ops
                .iter()
                .filter(|op| matches!(op, lsab::Op::Call { .. }))
                .count();
            next += 1 + calls;
        }
    }
    let func_entry = |fi: usize| -> usize { seg_start[&(fi, 0)] };

    // ---- emission ----------------------------------------------------------
    let mut blocks: Vec<pcab::Block> = Vec::with_capacity(next);
    let mut temp_counter = 0usize;
    let fresh = |hint: &str, temp_counter: &mut usize| -> Var {
        let v = Var::new(format!("%{hint}{}", *temp_counter));
        *temp_counter += 1;
        v
    };

    for (fi, f) in program.funcs.iter().enumerate() {
        let lv = &liveness[fi];
        for (bi, b) in f.blocks.iter().enumerate() {
            let mut ops: Vec<pcab::Op> = Vec::new();
            let mut seg_index = seg_start[&(fi, bi)];
            for (oi, op) in b.ops.iter().enumerate() {
                match op {
                    lsab::Op::Prim { outs, prim, ins } => {
                        ops.push(pcab::Op::Compute {
                            outs: outs
                                .iter()
                                .map(|o| (mangle(&f.name, o), pcab::WriteKind::Update))
                                .collect(),
                            prim: prim.clone(),
                            ins: ins.iter().map(|i| mangle(&f.name, i)).collect(),
                        });
                    }
                    lsab::Op::Call { outs, callee, ins } => {
                        let g = &program.funcs[callee.0];
                        let recursive = cg.is_recursive_call(FuncId(fi), *callee);
                        // Argument temporaries, computed before any push
                        // mutates the variables they may alias.
                        let arg_temps: Vec<Var> = ins
                            .iter()
                            .map(|a| {
                                let t = fresh("c", &mut temp_counter);
                                ops.push(pcab::Op::Compute {
                                    outs: vec![(t.clone(), pcab::WriteKind::Update)],
                                    prim: Prim::Id,
                                    ins: vec![mangle(&f.name, a)],
                                });
                                t
                            })
                            .collect();
                        // Write args onto the callee's parameters.
                        let mut pushed_params: Vec<Var> = Vec::new();
                        for (p, t) in g.params.iter().zip(&arg_temps) {
                            let mp = mangle(&g.name, p);
                            let kind = if recursive
                                && classes.get(&mp) == Some(&pcab::VarClass::Stacked)
                            {
                                pushed_params.push(mp.clone());
                                pcab::WriteKind::Push
                            } else {
                                pcab::WriteKind::Update
                            };
                            ops.push(pcab::Op::Compute {
                                outs: vec![(mp, kind)],
                                prim: Prim::Id,
                                ins: vec![t.clone()],
                            });
                        }
                        // Caller-saves: stacked locals live after a
                        // recursive call (excluding the call's own
                        // results and the params just pushed).
                        let mut saves: Vec<Var> = Vec::new();
                        if recursive {
                            let mut live = lv.live_after_op(bi, oi).clone();
                            for w in outs {
                                live.remove(w);
                            }
                            for v in live {
                                let mv = mangle(&f.name, &v);
                                if classes.get(&mv) == Some(&pcab::VarClass::Stacked)
                                    && !pushed_params.contains(&mv)
                                {
                                    saves.push(mv);
                                }
                            }
                            saves.sort();
                            saves.dedup();
                            for v in &saves {
                                ops.push(pcab::Op::Compute {
                                    outs: vec![(v.clone(), pcab::WriteKind::Push)],
                                    prim: Prim::Id,
                                    ins: vec![v.clone()],
                                });
                            }
                        }
                        // Seal this segment with the PushJump.
                        let resume = seg_index + 1;
                        blocks.push(pcab::Block {
                            ops: std::mem::take(&mut ops),
                            term: pcab::Terminator::PushJump {
                                enter: BlockId(func_entry(callee.0)),
                                resume: BlockId(resume),
                            },
                        });
                        seg_index = resume;
                        // Resume segment: capture results, pop saves and
                        // params, bind results.
                        let result_temps: Vec<Var> = g
                            .outputs
                            .iter()
                            .map(|o| {
                                let t = fresh("r", &mut temp_counter);
                                ops.push(pcab::Op::Compute {
                                    outs: vec![(t.clone(), pcab::WriteKind::Update)],
                                    prim: Prim::Id,
                                    ins: vec![mangle(&g.name, o)],
                                });
                                t
                            })
                            .collect();
                        for v in saves.iter().rev() {
                            ops.push(pcab::Op::Pop { var: v.clone() });
                        }
                        for p in pushed_params.iter().rev() {
                            ops.push(pcab::Op::Pop { var: p.clone() });
                        }
                        for (y, t) in outs.iter().zip(&result_temps) {
                            ops.push(pcab::Op::Compute {
                                outs: vec![(mangle(&f.name, y), pcab::WriteKind::Update)],
                                prim: Prim::Id,
                                ins: vec![t.clone()],
                            });
                        }
                    }
                }
            }
            // Terminator of the final segment.
            let term = match &b.term {
                lsab::Terminator::Jump(t) => pcab::Terminator::Jump(BlockId(seg_start[&(fi, t.0)])),
                lsab::Terminator::Branch { cond, then_, else_ } => pcab::Terminator::Branch {
                    cond: mangle(&f.name, cond),
                    then_: BlockId(seg_start[&(fi, then_.0)]),
                    else_: BlockId(seg_start[&(fi, else_.0)]),
                },
                lsab::Terminator::Return => pcab::Terminator::Return,
            };
            blocks.push(pcab::Block { ops, term });
        }
    }
    debug_assert_eq!(blocks.len(), next);

    let entry_f = &program.funcs[program.entry.0];
    let mut out = pcab::Program {
        blocks,
        entry: BlockId(func_entry(program.entry.0)),
        inputs: entry_f
            .params
            .iter()
            .map(|p| mangle(&entry_f.name, p))
            .collect(),
        outputs: entry_f
            .outputs
            .iter()
            .map(|o| mangle(&entry_f.name, o))
            .collect(),
        classes,
    };

    // ---- optimization 5: pop-push elimination ---------------------------
    let mut eliminated = 0usize;
    if opts.pop_push_elimination {
        for b in &mut out.blocks {
            eliminated += eliminate_pop_push(&mut b.ops);
        }
    }
    // The clean-up (which also drops the `v = id(v)` updates the
    // cancellation leaves) comes after optimization 5 and must never be
    // followed by it: copy propagation turns argument passing such as
    // `pop k; %c = id(k); push k = id(%c)` into `pop k; push k = id(k)`,
    // which the cancellation would mistake for a re-save.
    clean_up(&mut out, opts.elide_temporaries);

    out.validate()?;
    let stats = LoweringStats {
        blocks: out.blocks.len(),
        stacked_vars: out.stacked_vars().len(),
        register_vars: out.register_vars().len(),
        pushes: out
            .blocks
            .iter()
            .flat_map(|b| &b.ops)
            .map(|op| match op {
                pcab::Op::Compute { outs, .. } => outs
                    .iter()
                    .filter(|(_, k)| *k == pcab::WriteKind::Push)
                    .count(),
                pcab::Op::Pop { .. } => 0,
            })
            .sum(),
        pops: out
            .blocks
            .iter()
            .flat_map(|b| &b.ops)
            .filter(|op| matches!(op, pcab::Op::Pop { .. }))
            .count(),
        eliminated_pairs: eliminated,
    };
    Ok((out, stats))
}

fn mangle(func: &str, v: &Var) -> Var {
    Var::new(format!("{func}.{v}"))
}

fn is_trivial_id(op: &pcab::Op) -> bool {
    match op {
        pcab::Op::Compute { outs, prim, ins } => {
            matches!(prim, Prim::Id)
                && outs.len() == 1
                && ins.len() == 1
                && outs[0].1 == pcab::WriteKind::Update
                && outs[0].0 == ins[0]
        }
        pcab::Op::Pop { .. } => false,
    }
}

/// Cancel `Pop v; …; Push v` pairs with no intervening access to `v`
/// (paper optimization 5). Two shapes arise from the caller-saves
/// discipline:
///
/// - *re-save*: `Pop v; …; Push v = id(v)` — a frame restored at one
///   resume point and immediately re-saved at the next call. Both ops
///   vanish: the restored value was never read, and the frame beneath is
///   re-exposed unchanged at the matching later pop. (The stale top left
///   behind is dead — the discipline guarantees the callee writes `v`
///   before any read.)
/// - *overwrite*: `Pop v; …; Push v = e` with `v ∉ reads(e)` — the
///   restored value is immediately replaced, so the pair collapses into
///   an in-place `Update v = e`.
///
/// Returns the number of cancelled pairs. Sound for programs in the
/// caller-saves discipline [`lower`] emits; not a general-purpose
/// peephole for hand-written stack code.
fn eliminate_pop_push(ops: &mut Vec<pcab::Op>) -> usize {
    let mut eliminated = 0;
    'outer: loop {
        for i in 0..ops.len() {
            let pcab::Op::Pop { var } = &ops[i] else {
                continue;
            };
            let v = var.clone();
            // Scan forward for a push of v with no intervening access.
            for j in i + 1..ops.len() {
                match &ops[j] {
                    pcab::Op::Pop { var: w } => {
                        if *w == v {
                            break; // another pop of v: give up on this pair
                        }
                    }
                    pcab::Op::Compute { outs, prim, ins } => {
                        let is_resave = matches!(prim, Prim::Id)
                            && ins.as_slice() == std::slice::from_ref(&v)
                            && outs.len() == 1
                            && outs[0] == (v.clone(), pcab::WriteKind::Push);
                        if is_resave {
                            // Remove both; stack depth stays balanced.
                            ops.remove(j);
                            ops.remove(i);
                            eliminated += 1;
                            continue 'outer;
                        }
                        if ins.contains(&v) {
                            break; // genuine read of v: cannot cancel
                        }
                        if let Some(pos) = outs
                            .iter()
                            .position(|(o, k)| *o == v && *k == pcab::WriteKind::Push)
                        {
                            // Cancel: drop the pop, demote push to update.
                            if let pcab::Op::Compute { outs, .. } = &mut ops[j] {
                                outs[pos].1 = pcab::WriteKind::Update;
                            }
                            ops.remove(i);
                            eliminated += 1;
                            continue 'outer;
                        }
                        if outs.iter().any(|(o, _)| *o == v) {
                            break; // non-push write of v: cannot cancel
                        }
                    }
                }
            }
        }
        break;
    }
    eliminated
}

/// The clean-up below the paper's optimizations: lowering emits only
/// what the machine has to run. `localize` applies rule (c), which is
/// optimization 2, so it follows [`LoweringOptions::elide_temporaries`].
///
/// - (c) a variable that is never pushed or popped, is no program input
///   or output, and is read in every block only after that block writes
///   it becomes a block-local temporary;
/// - (a) inside each block, copies are propagated and the copies nothing
///   reads are dropped ([`propagate_copies`]), and a computation whose one
///   reader is a copy writes the copy's target itself ([`fold_copies`]);
/// - (b) edges into blocks that hold no op are threaded through them, and
///   the blocks nothing reaches any more are dropped ([`thread_jumps`]).
///
/// Each rule keeps every member's values bit-identical; superstep counts
/// change, because a threaded block is no longer a superstep (and an
/// empty return block is no longer a join).
fn clean_up(p: &mut pcab::Program, localize: bool) {
    if localize {
        localize_block_locals(p);
    }
    let classes = &p.classes;
    for b in &mut p.blocks {
        propagate_copies(&mut b.ops, &mut b.term, classes);
        fold_copies(&mut b.ops, &b.term, classes);
    }
    thread_jumps(p);
}

/// The variables `op` reads.
fn reads(op: &pcab::Op) -> &[Var] {
    match op {
        pcab::Op::Compute { ins, .. } => ins,
        pcab::Op::Pop { .. } => &[],
    }
}

/// Whether `op` writes, pushes or pops `v`.
fn writes(op: &pcab::Op, v: &Var) -> bool {
    match op {
        pcab::Op::Compute { outs, .. } => outs.iter().any(|(w, _)| w == v),
        pcab::Op::Pop { var } => var == v,
    }
}

/// `v` and `x` of a copy `v = id(x)`.
fn copy(op: &pcab::Op) -> Option<(&Var, &Var)> {
    match op {
        pcab::Op::Compute {
            outs,
            prim: Prim::Id,
            ins,
        } => match (outs.as_slice(), ins.as_slice()) {
            ([(v, _)], [x]) => Some((v, x)),
            _ => None,
        },
        _ => None,
    }
}

/// `t` and `x` of a copy `t = id(x)` into a temporary.
fn copy_into_temp<'o>(
    op: &'o pcab::Op,
    classes: &BTreeMap<Var, pcab::VarClass>,
) -> Option<(&'o Var, &'o Var)> {
    copy(op).filter(|(t, _)| !classes.contains_key(*t))
}

/// Rule (c): drop from `classes` every variable that no block reads
/// before writing it, that is never pushed or popped and that is no
/// program input or output. Its value never crosses a superstep, so a
/// block-local temporary holds it.
fn localize_block_locals(p: &mut pcab::Program) {
    let mut persistent: BTreeSet<&Var> = p.inputs.iter().chain(&p.outputs).collect();
    for b in &p.blocks {
        let mut written: BTreeSet<&Var> = BTreeSet::new();
        for op in &b.ops {
            match op {
                pcab::Op::Compute { outs, ins, .. } => {
                    persistent.extend(ins.iter().filter(|v| !written.contains(v)));
                    for (w, kind) in outs {
                        if *kind == pcab::WriteKind::Push {
                            persistent.insert(w);
                        }
                        written.insert(w);
                    }
                }
                pcab::Op::Pop { var } => {
                    persistent.insert(var);
                }
            }
        }
        if let pcab::Terminator::Branch { cond, .. } = &b.term {
            if !written.contains(cond) {
                persistent.insert(cond);
            }
        }
    }
    let persistent: BTreeSet<Var> = persistent.into_iter().cloned().collect();
    p.classes.retain(|v, _| persistent.contains(v));
}

/// Rule (a), first half: after a copy `t = id(x)` into a temporary,
/// later reads of `t` (the branch condition too) read `x`, until `x` or
/// `t` is written or popped; then the copies into temporaries that
/// nothing reads, and those that became `v = id(v)`, are dropped.
fn propagate_copies(
    ops: &mut Vec<pcab::Op>,
    term: &mut pcab::Terminator,
    classes: &BTreeMap<Var, pcab::VarClass>,
) {
    // `(t, x)`: the temporary `t` holds the value `x` holds now.
    let mut alias: Vec<(Var, Var)> = Vec::new();
    let resolve = |alias: &[(Var, Var)], v: &mut Var| {
        if let Some((_, x)) = alias.iter().find(|(t, _)| t == v) {
            *v = x.clone();
        }
    };
    let mut propagated = Vec::with_capacity(ops.len());
    for mut op in ops.drain(..) {
        if let pcab::Op::Compute { ins, .. } = &mut op {
            for v in ins.iter_mut() {
                resolve(&alias, v);
            }
        }
        // A copy that became `v = id(v)` writes nothing new.
        if is_trivial_id(&op) {
            continue;
        }
        alias.retain(|(t, x)| !writes(&op, t) && !writes(&op, x));
        if let Some((t, x)) = copy_into_temp(&op, classes) {
            alias.push((t.clone(), x.clone()));
        }
        propagated.push(op);
    }
    *ops = propagated;
    if let pcab::Terminator::Branch { cond, .. } = term {
        resolve(&alias, cond);
    }
    // Backwards over the block: drop a copy into a temporary no later
    // op (or the branch) reads.
    let mut live: BTreeSet<Var> = match term {
        pcab::Terminator::Branch { cond, .. } => BTreeSet::from([cond.clone()]),
        _ => BTreeSet::new(),
    };
    let mut keep = vec![true; ops.len()];
    for (k, op) in ops.iter().enumerate().rev() {
        if let Some((t, _)) = copy_into_temp(op, classes) {
            if !live.contains(t) {
                keep[k] = false;
                continue;
            }
        }
        if let pcab::Op::Compute { outs, .. } = op {
            for (w, _) in outs {
                live.remove(w);
            }
        }
        live.extend(reads(op).iter().cloned());
    }
    let mut k = 0;
    ops.retain(|_| {
        k += 1;
        keep[k - 1]
    });
}

/// Rule (a), second half: `t = f(..); …; v = id(t)` becomes
/// `v = f(..)`, with the copy's write kind, when that copy is the one
/// read of this `t` and no op in between reads, writes or pops `v`.
/// `f` may read `v` itself: an op reads before it writes, so
/// `push n = sub(n, c)` is the same as `t = sub(n, c); push n = id(t)`.
fn fold_copies(
    ops: &mut Vec<pcab::Op>,
    term: &pcab::Terminator,
    classes: &BTreeMap<Var, pcab::VarClass>,
) {
    let mut j = 0;
    while j < ops.len() {
        let Some(i) = fold_site(ops, term, j, classes) else {
            j += 1;
            continue;
        };
        let pcab::Op::Compute { mut outs, ins, .. } = ops.remove(j) else {
            unreachable!("a fold removes a copy");
        };
        if let pcab::Op::Compute { outs: def, .. } = &mut ops[i] {
            if let Some(w) = def.iter_mut().find(|w| w.0 == ins[0]) {
                *w = outs.remove(0);
            }
        }
    }
}

/// Where the computation of the copy `ops[j]` folds into: the index of
/// the op that last wrote the copied temporary, if the fold is legal.
fn fold_site(
    ops: &[pcab::Op],
    term: &pcab::Terminator,
    j: usize,
    classes: &BTreeMap<Var, pcab::VarClass>,
) -> Option<usize> {
    let (v, t) = copy(&ops[j])?;
    if classes.contains_key(t) || v == t {
        return None;
    }
    let i = (0..j).rev().find(|&i| writes(&ops[i], t))?;
    let pcab::Op::Compute { outs: def, .. } = &ops[i] else {
        return None;
    };
    let between = &ops[i + 1..j];
    let legal = !def.iter().any(|(w, _)| w == v)
        && !between
            .iter()
            .any(|op| reads(op).contains(t) || reads(op).contains(v) || writes(op, v))
        && !read_later(&ops[j + 1..], term, t);
    legal.then_some(i)
}

/// Whether `v` is read after `ops` before anything writes it: by a later
/// op or, if none writes it, by the branch of `term`.
fn read_later(ops: &[pcab::Op], term: &pcab::Terminator, v: &Var) -> bool {
    for op in ops {
        if reads(op).contains(v) {
            return true;
        }
        if writes(op, v) {
            return false;
        }
    }
    matches!(term, pcab::Terminator::Branch { cond, .. } if cond == v)
}

/// Rule (b): an edge into a block that holds no op goes where that
/// block's `Jump` goes; a `Jump` into one that returns returns itself.
/// `Branch` and `PushJump` targets thread through jumps only: a branch
/// cannot return, so an empty return block a branch targets stays.
/// Then the blocks nothing reaches are dropped and the rest renumbered
/// in order.
fn thread_jumps(p: &mut pcab::Program) {
    use pcab::Terminator::{Jump, Return};
    let n = p.blocks.len();
    // Where an edge into each block goes. Bounded: a cycle of empty
    // jumps is a loop that never ends.
    let through: Vec<BlockId> = (0..n)
        .map(|mut b| {
            for _ in 0..n {
                match p.blocks[b].term {
                    Jump(next) if p.blocks[b].ops.is_empty() => b = next.0,
                    _ => break,
                }
            }
            BlockId(b)
        })
        .collect();
    let returns: Vec<bool> = (p.blocks.iter())
        .map(|b| b.ops.is_empty() && b.term == Return)
        .collect();
    p.entry = through[p.entry.0];
    for b in &mut p.blocks {
        for t in targets(&mut b.term) {
            *t = through[t.0];
        }
        if matches!(b.term, Jump(t) if returns[t.0]) {
            b.term = Return;
        }
    }

    let mut reachable = vec![false; n];
    let mut stack = vec![p.entry];
    while let Some(b) = stack.pop() {
        if !std::mem::replace(&mut reachable[b.0], true) {
            stack.extend(p.blocks[b.0].term.successors());
        }
    }
    let renumbered: Vec<usize> = (reachable.iter())
        .scan(0, |next, &r| {
            let i = *next;
            *next += usize::from(r);
            Some(i)
        })
        .collect();
    let mut k = 0;
    p.blocks.retain(|_| {
        k += 1;
        reachable[k - 1]
    });
    p.entry.0 = renumbered[p.entry.0];
    for b in &mut p.blocks {
        for t in targets(&mut b.term) {
            t.0 = renumbered[t.0];
        }
    }
}

/// The blocks `term` transfers control to, to be rewritten in place.
fn targets(term: &mut pcab::Terminator) -> Vec<&mut BlockId> {
    match term {
        pcab::Terminator::Jump(t) => vec![t],
        pcab::Terminator::Branch { then_, else_, .. } => vec![then_, else_],
        pcab::Terminator::PushJump { enter, resume } => vec![enter, resume],
        pcab::Terminator::Return => vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autobatch_ir::build::{fibonacci_program, ProgramBuilder};
    use autobatch_ir::pretty::pcab_listing;

    #[test]
    fn fibonacci_lowers_and_validates() {
        let p = fibonacci_program();
        let (pc, stats) = lower(&p, LoweringOptions::default()).unwrap();
        pc.validate().unwrap();
        // Two calls → the else-block splits into three segments; the join
        // block, which only returns, is threaded through and dropped.
        assert_eq!(stats.blocks, p.funcs[0].blocks.len() + 2 - 1);
        // n is live across the first recursive call → stacked; left is
        // live across the second → stacked.
        let stacked = pc.stacked_vars();
        assert!(stacked.contains(&Var::new("fibonacci.n")), "{stacked:?}");
        assert!(stacked.contains(&Var::new("fibonacci.left")), "{stacked:?}");
        // `right` and `out` are never live across a recursive call.
        assert!(pc.register_vars().contains(&Var::new("fibonacci.out")));
        assert!(stats.pushes > 0 && stats.pops > 0);
    }

    #[test]
    fn nonrecursive_program_has_no_stacked_vars() {
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
        let (pc, stats) = lower(&p, LoweringOptions::default()).unwrap();
        // The paper's headline property of the optimizations: a
        // non-recursive program runs entirely without variable stacks
        // (only the pc itself is stacked, and that lives in the runtime).
        assert_eq!(stats.stacked_vars, 0, "{}", pcab_listing(&pc));
        assert_eq!(stats.pushes, 0);
        assert_eq!(stats.pops, 0);
        // Calls still lower to PushJump.
        assert!(pc
            .blocks
            .iter()
            .any(|b| matches!(b.term, pcab::Terminator::PushJump { .. })));
    }

    #[test]
    fn unoptimized_lowering_stacks_everything() {
        let p = fibonacci_program();
        let (_, opt) = lower(&p, LoweringOptions::default()).unwrap();
        let (_, unopt) = lower(&p, LoweringOptions::unoptimized()).unwrap();
        assert!(unopt.stacked_vars > opt.stacked_vars);
        // Fibonacci's live-across-call sets are the same either way, so
        // push counts match; they may only grow without optimizations.
        assert!(unopt.pushes >= opt.pushes);
        assert_eq!(unopt.register_vars, 0);
    }

    #[test]
    fn duplicate_function_names_rejected() {
        let mut pb = ProgramBuilder::new();
        let a = pb.declare("same", &["x"], &["y"]);
        let b = pb.declare("same", &["x"], &["y"]);
        for id in [a, b] {
            pb.define(id, |fb| {
                let x = fb.param(0);
                fb.copy(&fb.output(0), &x);
                fb.ret();
            });
        }
        let p = pb.finish(a).unwrap();
        assert!(lower(&p, LoweringOptions::default()).is_err());
    }

    /// `f(n) = if n <= 0 { 0 } else { f(n-1) + f(n-2) + 10·n }`, with the
    /// `10·n` term computed *before* the calls into a variable `k` that
    /// is only read after the second call. `k` is therefore saved across
    /// both calls with no access in between: its `Pop` at the first
    /// resume point is immediately followed by its re-save `Push` at the
    /// second call — the pattern optimization 5 cancels.
    fn double_call_with_saved_var() -> lsab::Program {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare("twocalls", &["n"], &["out"]);
        pb.define(f, |fb| {
            let n = fb.param(0);
            let k = Var::new("k");
            let ten = fb.const_i64(10);
            fb.assign(&k, Prim::Mul, &[n.clone(), ten]);
            let zero = fb.const_i64(0);
            let base = fb.emit(Prim::Le, &[n.clone(), zero]);
            fb.if_else(
                &base,
                |fb| {
                    let z = fb.const_i64(0);
                    fb.copy(&fb.output(0), &z);
                },
                |fb| {
                    let one = fb.const_i64(1);
                    let n1 = fb.emit(Prim::Sub, &[fb.param(0), one]);
                    let a = fb.call(f, &[n1], 1);
                    let two = fb.const_i64(2);
                    let n2 = fb.emit(Prim::Sub, &[fb.param(0), two]);
                    let b = fb.call(f, &[n2], 1);
                    let s = fb.emit(Prim::Add, &[a[0].clone(), b[0].clone()]);
                    fb.assign(&fb.output(0), Prim::Add, &[s, Var::new("k")]);
                },
            );
            fb.ret();
        });
        pb.finish(f).unwrap()
    }

    #[test]
    fn pop_push_elimination_fires_on_consecutive_saves() {
        let p = double_call_with_saved_var();
        let (_, with) = lower(&p, LoweringOptions::default()).unwrap();
        let no_elim = LoweringOptions {
            pop_push_elimination: false,
            ..LoweringOptions::default()
        };
        let (_, without) = lower(&p, no_elim).unwrap();
        assert!(with.eliminated_pairs > 0, "elimination fired: {with:?}");
        assert!(with.pushes < without.pushes);
        assert!(with.pops < without.pops);
    }

    #[test]
    fn elimination_preserves_semantics() {
        use crate::lsab_vm::LocalStaticVm;
        use crate::options::ExecOptions;
        use crate::pc_vm::PcVm;
        use crate::KernelRegistry;
        use autobatch_tensor::Tensor;
        let p = double_call_with_saved_var();
        let input = Tensor::from_i64(&[0, 1, 2, 3, 4, 5, 6, 9], &[8]).unwrap();
        let reference = LocalStaticVm::new(&p, KernelRegistry::new(), ExecOptions::default())
            .run(std::slice::from_ref(&input), None)
            .unwrap();
        for opts in [
            LoweringOptions::default(),
            LoweringOptions {
                pop_push_elimination: false,
                ..LoweringOptions::default()
            },
            LoweringOptions::unoptimized(),
        ] {
            let (pc, _) = lower(&p, opts).unwrap();
            let vm = PcVm::new(&pc, KernelRegistry::new(), ExecOptions::default());
            let out = vm.run(std::slice::from_ref(&input), None).unwrap();
            assert_eq!(out, reference, "options {opts:?}");
        }
    }

    #[test]
    fn eliminate_pop_push_respects_intervening_reads() {
        let v = Var::new("v");
        let w = Var::new("w");
        let mut ops = vec![
            pcab::Op::Pop { var: v.clone() },
            pcab::Op::Compute {
                outs: vec![(w.clone(), pcab::WriteKind::Update)],
                prim: Prim::Id,
                ins: vec![v.clone()], // reads v: blocks elimination
            },
            pcab::Op::Compute {
                outs: vec![(v.clone(), pcab::WriteKind::Push)],
                prim: Prim::Id,
                ins: vec![w.clone()],
            },
        ];
        assert_eq!(eliminate_pop_push(&mut ops), 0);
        assert_eq!(ops.len(), 3);
    }

    #[test]
    fn eliminate_pop_push_cancels_clean_pair() {
        let v = Var::new("v");
        let w = Var::new("w");
        let mut ops = vec![
            pcab::Op::Pop { var: v.clone() },
            pcab::Op::Compute {
                outs: vec![(w.clone(), pcab::WriteKind::Update)],
                prim: Prim::ConstF64(1.0),
                ins: vec![],
            },
            pcab::Op::Compute {
                outs: vec![(v.clone(), pcab::WriteKind::Push)],
                prim: Prim::Id,
                ins: vec![w.clone()],
            },
        ];
        assert_eq!(eliminate_pop_push(&mut ops), 1);
        assert_eq!(ops.len(), 2);
        assert!(matches!(
            &ops[1],
            pcab::Op::Compute { outs, .. } if outs[0].1 == pcab::WriteKind::Update
        ));
    }

    /// Optimization 2 in isolation: block-local temporaries (the
    /// intermediate `Sub`/`Mul` results) must vanish from the classified
    /// variable set entirely, not merely demote to registers.
    #[test]
    fn temporary_elision_shrinks_classified_vars() {
        let p = fibonacci_program();
        let elide = LoweringOptions::default();
        let keep = LoweringOptions {
            elide_temporaries: false,
            ..LoweringOptions::default()
        };
        let (pc_elide, s_elide) = lower(&p, elide).unwrap();
        let (pc_keep, s_keep) = lower(&p, keep).unwrap();
        let classified = |s: &LoweringStats| s.stacked_vars + s.register_vars;
        assert!(
            classified(&s_elide) < classified(&s_keep),
            "elision must shrink the classified set: {s_elide:?} vs {s_keep:?}"
        );
        // Every variable classified under elision is also classified
        // without it: elision only removes, never invents.
        let keep_vars: BTreeSet<_> = pc_keep.classes.keys().cloned().collect();
        for v in pc_elide.classes.keys() {
            assert!(keep_vars.contains(v), "elision invented {v:?}");
        }
    }

    /// Optimization 3 in isolation: with demotion off, every persistent
    /// variable gets a stack; with it on, variables that never cross a
    /// recursive call (like fibonacci's output accumulator) become
    /// registers — and registers must never be pushed or popped.
    #[test]
    fn register_demotion_classifies_non_call_crossing_vars() {
        let p = fibonacci_program();
        let (pc_on, s_on) = lower(&p, LoweringOptions::default()).unwrap();
        let no_demote = LoweringOptions {
            demote_registers: false,
            ..LoweringOptions::default()
        };
        let (_, s_off) = lower(&p, no_demote).unwrap();
        assert!(s_on.register_vars > 0, "demotion found registers: {s_on:?}");
        assert_eq!(
            s_off.register_vars, 0,
            "demotion off leaves none: {s_off:?}"
        );
        assert!(
            s_off.stacked_vars > s_on.stacked_vars,
            "undemoted registers become stacks: {s_off:?} vs {s_on:?}"
        );
        // Demotion must be sound: it may only demote, never promote.
        assert_eq!(s_on.stacked_vars + s_on.register_vars, s_off.stacked_vars);
        assert!(pc_on.register_vars().contains(&Var::new("fibonacci.out")));
    }

    /// Structural invariants every lowered program must satisfy, under
    /// every optimization configuration:
    /// - the program validates;
    /// - `Push` writes and `Pop`s target only stack-classified variables;
    /// - register-classified variables receive only `Update` writes;
    /// - the reported [`LoweringStats`] agree with a manual count over
    ///   the emitted blocks.
    #[test]
    fn lowered_invariants_hold_across_all_configs() {
        let programs = [
            fibonacci_program(),
            double_call_with_saved_var(),
            autobatch_lang::compile(BINOM_SRC, "binom").unwrap(),
        ];
        let configs = (0..8).map(|bits| LoweringOptions {
            elide_temporaries: bits & 1 != 0,
            demote_registers: bits & 2 != 0,
            pop_push_elimination: bits & 4 != 0,
        });
        for p in &programs {
            for opts in configs.clone() {
                let (pc, stats) = lower(p, opts).unwrap();
                pc.validate().unwrap();
                assert_eq!(stats.blocks, pc.blocks.len(), "{opts:?}");
                // The clean-up left no block that only jumps, and no jump
                // into a block that only returns.
                for b in &pc.blocks {
                    if let pcab::Terminator::Jump(t) = b.term {
                        assert!(!b.ops.is_empty(), "empty jump block under {opts:?}");
                        let target = &pc.blocks[t.0];
                        let returns = target.term == pcab::Terminator::Return;
                        assert!(!(returns && target.ops.is_empty()), "{opts:?}");
                    }
                }
                let (mut pushes, mut pops) = (0usize, 0usize);
                for b in &pc.blocks {
                    for op in &b.ops {
                        match op {
                            pcab::Op::Pop { var } => {
                                pops += 1;
                                assert_eq!(
                                    pc.class_of(var),
                                    Some(pcab::VarClass::Stacked),
                                    "Pop of non-stacked {var:?} under {opts:?}"
                                );
                            }
                            pcab::Op::Compute { outs, .. } => {
                                for (var, kind) in outs {
                                    match pc.class_of(var) {
                                        Some(pcab::VarClass::Stacked) => {
                                            if *kind == pcab::WriteKind::Push {
                                                pushes += 1;
                                            }
                                        }
                                        Some(pcab::VarClass::Register) | None => assert_eq!(
                                            *kind,
                                            pcab::WriteKind::Update,
                                            "non-stacked {var:?} pushed under {opts:?}"
                                        ),
                                    }
                                }
                            }
                        }
                    }
                }
                assert_eq!(stats.pushes, pushes, "push count drifted under {opts:?}");
                assert_eq!(stats.pops, pops, "pop count drifted under {opts:?}");
            }
        }
    }

    #[test]
    fn mutual_recursion_lowers() {
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
                        let t = fb.const_bool(me == even);
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
        let (pc, _) = lower(&p, LoweringOptions::default()).unwrap();
        pc.validate().unwrap();
    }

    /// `C(n, k)` by Pascal's rule, the program `binom_divergent` serves.
    const BINOM_SRC: &str = "
        fn binom(n: int, k: int) -> (out: int) {
            if k <= 0 {
                out = 1;
            } else if k >= n {
                out = 1;
            } else {
                let left = binom(n - 1, k - 1);
                let right = binom(n - 1, k);
                out = left + right;
            }
        }
    ";

    /// What the machine runs for binom: 7 blocks, 20 ops (3 of them
    /// `id`s) and 1 register, where emission and optimization 5 leave 9
    /// blocks (one only returns, one only jumps to it), 35 ops (18 `id`s)
    /// and 3 registers. b5's `pop binom.k; …; push binom.k = id(binom.k)`
    /// passes the caller's `k` to the second call: the pop drops the
    /// first call's argument frame, so the pair is not a re-save, and
    /// optimization 5 must not see it (it runs before the clean-up).
    #[test]
    fn binom_lowers_to_the_listing_the_machine_runs() {
        let p = autobatch_lang::compile(BINOM_SRC, "binom").unwrap();
        let (pc, stats) = lower(&p, LoweringOptions::default()).unwrap();
        let want = [
            "program entry=b0 inputs=(binom.n, binom.k) outputs=(binom.out)",
            "stacked: binom.k, binom.left, binom.n",
            "registers: binom.out",
            "b0:",
            "  binom.%t0 = const(0i)()",
            "  binom.%t1 = le(binom.k, binom.%t0)",
            "  branch binom.%t1 ? b1 : b2",
            "b1:",
            "  binom.out = const(1i)()",
            "  return",
            "b2:",
            "  binom.%t3 = ge(binom.k, binom.n)",
            "  branch binom.%t3 ? b3 : b4",
            "b3:",
            "  binom.out = const(1i)()",
            "  return",
            "b4:",
            "  binom.%t5 = const(1i)()",
            "  push binom.n = sub(binom.n, binom.%t5)",
            "  binom.%t7 = const(1i)()",
            "  push binom.k = sub(binom.k, binom.%t7)",
            "  pushjump enter=b0 resume=b5",
            "b5:",
            "  pop binom.k",
            "  pop binom.n",
            "  binom.left = id(binom.out)",
            "  binom.%t10 = const(1i)()",
            "  push binom.n = sub(binom.n, binom.%t10)",
            "  push binom.k = id(binom.k)",
            "  push binom.left = id(binom.left)",
            "  pushjump enter=b0 resume=b6",
            "b6:",
            "  pop binom.left",
            "  pop binom.k",
            "  pop binom.n",
            "  binom.out = add(binom.left, binom.out)",
            "  return",
        ];
        assert_eq!(pcab_listing(&pc).lines().collect::<Vec<_>>(), want);
        assert_eq!((stats.blocks, stats.register_vars), (7, 1));
    }

    fn op(out: &str, kind: pcab::WriteKind, prim: Prim, ins: &[&str]) -> pcab::Op {
        pcab::Op::Compute {
            outs: vec![(Var::new(out), kind)],
            prim,
            ins: ins.iter().map(|v| Var::new(*v)).collect(),
        }
    }

    fn set(out: &str, prim: Prim, ins: &[&str]) -> pcab::Op {
        op(out, pcab::WriteKind::Update, prim, ins)
    }

    fn classes(vars: &[(&str, pcab::VarClass)]) -> BTreeMap<Var, pcab::VarClass> {
        vars.iter().map(|(v, c)| (Var::new(*v), *c)).collect()
    }

    #[test]
    fn a_copy_folds_into_its_computation_unless_the_target_is_touched_between() {
        use pcab::VarClass::{Register, Stacked};
        let classes = classes(&[("n", Stacked), ("v", Register), ("w", Register)]);
        let ret = pcab::Terminator::Return;
        let mut ops = vec![
            set("t", Prim::Sub, &["n", "w"]),
            set("u", Prim::Neg, &["w"]),
            op("n", pcab::WriteKind::Push, Prim::Id, &["t"]),
            set("v", Prim::Id, &["u"]),
        ];
        fold_copies(&mut ops, &ret, &classes);
        // The computation may read its new target: an op reads first.
        let folded = vec![
            op("n", pcab::WriteKind::Push, Prim::Sub, &["n", "w"]),
            set("v", Prim::Neg, &["w"]),
        ];
        assert_eq!(ops, folded);

        for refused in [
            // `v` is read between the computation and the copy.
            vec![
                set("t", Prim::Neg, &["w"]),
                set("w", Prim::Id, &["v"]),
                set("v", Prim::Id, &["t"]),
            ],
            // `v` is written between them.
            vec![
                set("t", Prim::Neg, &["w"]),
                set("v", Prim::Neg, &["w"]),
                set("v", Prim::Id, &["t"]),
            ],
            // `t` has a second read.
            vec![
                set("t", Prim::Neg, &["w"]),
                set("v", Prim::Id, &["t"]),
                set("w", Prim::Add, &["t", "v"]),
            ],
        ] {
            let mut ops = refused.clone();
            fold_copies(&mut ops, &ret, &classes);
            assert_eq!(ops, refused);
        }
    }

    #[test]
    fn a_pop_of_the_source_ends_a_copy_alias() {
        use pcab::VarClass::{Register, Stacked};
        let classes = classes(&[("x", Stacked), ("y", Register)]);
        let cond = |c: &str| pcab::Terminator::Branch {
            cond: Var::new(c),
            then_: BlockId(0),
            else_: BlockId(0),
        };
        let mut ops = vec![
            set("t", Prim::Id, &["x"]),
            set("c", Prim::Lt, &["t", "y"]),
            set("s", Prim::Id, &["c"]),
        ];
        let mut term = cond("s");
        propagate_copies(&mut ops, &mut term, &classes);
        assert_eq!(ops, vec![set("c", Prim::Lt, &["x", "y"])]);
        assert_eq!(term, cond("c"));

        // The pop exposes another frame of `x`: `t` still holds the old top.
        let refused = vec![
            set("t", Prim::Id, &["x"]),
            pcab::Op::Pop { var: Var::new("x") },
            set("y", Prim::Add, &["t", "x"]),
        ];
        let mut ops = refused.clone();
        propagate_copies(&mut ops, &mut pcab::Terminator::Return, &classes);
        assert_eq!(ops, refused);
    }

    #[test]
    fn jumps_thread_through_empty_blocks_but_a_branch_keeps_its_return() {
        use pcab::Terminator::{Branch, Jump, Return};
        let block = |ops: Vec<pcab::Op>, term| pcab::Block { ops, term };
        let branch = |then_, else_| Branch {
            cond: Var::new("c"),
            then_: BlockId(then_),
            else_: BlockId(else_),
        };
        let test = set("c", Prim::Lt, &["x", "x"]);
        let body = set("y", Prim::Neg, &["x"]);
        let mut p = pcab::Program {
            blocks: vec![
                // Nothing reaches this block: it goes, and the rest move up.
                block(vec![body.clone()], Return),
                block(vec![test.clone()], branch(2, 3)),
                block(vec![], Return),
                block(vec![], Jump(BlockId(4))),
                block(vec![body.clone()], Jump(BlockId(5))),
                block(vec![], Jump(BlockId(2))),
            ],
            entry: BlockId(1),
            inputs: vec![Var::new("x")],
            outputs: vec![Var::new("y")],
            classes: classes(&[
                ("x", pcab::VarClass::Register),
                ("y", pcab::VarClass::Register),
            ]),
        };
        thread_jumps(&mut p);
        // The branch's empty return block stays; its empty jump block is
        // threaded through; the jump chain into the return returns.
        let want = vec![
            block(vec![test], branch(1, 2)),
            block(vec![], Return),
            block(vec![body], Return),
        ];
        assert_eq!((p.entry, p.blocks), (BlockId(0), want));
    }

    #[test]
    fn a_variable_read_before_its_write_in_some_block_stays_persistent() {
        use pcab::Terminator::{Jump, Return};
        use pcab::VarClass::{Register, Stacked};
        let block = |ops: Vec<pcab::Op>, term| pcab::Block { ops, term };
        let mut p = pcab::Program {
            blocks: vec![
                block(
                    vec![
                        set("r", Prim::Neg, &["x"]),
                        set("s", Prim::Add, &["r", "r"]),
                    ],
                    Jump(BlockId(1)),
                ),
                // `s` is read before this block writes it; `k` is not.
                block(
                    vec![
                        set("k", Prim::Neg, &["s"]),
                        set("y", Prim::Add, &["k", "s"]),
                        set("s", Prim::Neg, &["y"]),
                    ],
                    Return,
                ),
            ],
            entry: BlockId(0),
            inputs: vec![Var::new("x")],
            outputs: vec![Var::new("y")],
            classes: classes(&[
                ("k", Stacked),
                ("r", Register),
                ("s", Register),
                ("x", Register),
                ("y", Register),
            ]),
        };
        localize_block_locals(&mut p);
        let kept: Vec<&str> = p.classes.keys().map(Var::name).collect();
        assert_eq!(kept, ["s", "x", "y"]);
        p.validate().unwrap();
    }
}
