//! The program-counter-batchable language (paper Figure 4).
//!
//! All function control-flow graphs are merged into one flat list of
//! blocks; calls become explicit stack manipulation: data stacks via
//! [`WriteKind::Push`]/[`Op::Pop`], and the program counter via
//! [`Terminator::PushJump`]/[`Terminator::Return`]. The paper's
//! optimization 5 adds an in-place [`WriteKind::Update`] for cancelled
//! pop/push pairs; optimizations 2–3 classify variables so that
//! temporaries bypass the machinery entirely and non-recursive variables
//! need no stack ([`VarClass::Register`]).

use std::collections::{BTreeMap, BTreeSet};

use crate::error::{IrError, Result};
use crate::prim::Prim;
use crate::var::{BlockId, Var};

/// How a computed output is written to a variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteKind {
    /// Push a new frame holding the value onto the variable's stack
    /// (stacked variables only).
    Push,
    /// Overwrite the variable's current top value in place, masked to the
    /// active members (registers, stacked tops, and temporaries).
    Update,
}

/// Storage class of a program variable (paper optimizations 2–3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarClass {
    /// Live across blocks but never across a recursive call: a masked
    /// flat value, no stack, no stack pointer.
    Register,
    /// Live across a recursive call: full `[Z, D, ..]` stack plus
    /// per-member stack pointers.
    Stacked,
}

/// An operation within a block.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `outs = prim(ins)`, with a per-output write kind.
    Compute {
        /// Output variables with their write kinds.
        outs: Vec<(Var, WriteKind)>,
        /// The primitive.
        prim: Prim,
        /// Input variables (always read at their current top value).
        ins: Vec<Var>,
    },
    /// Pop the top frame of a stacked variable (masked to active members).
    Pop {
        /// The stacked variable.
        var: Var,
    },
}

/// How a block ends.
#[derive(Debug, Clone, PartialEq)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Two-way branch on a boolean scalar variable.
    Branch {
        /// Condition variable.
        cond: Var,
        /// Target when true.
        then_: BlockId,
        /// Target when false.
        else_: BlockId,
    },
    /// Function call: write `resume` into the current program-counter
    /// frame, then push `enter` as the new pc top (Algorithm 2's
    /// `PushJump j k`).
    PushJump {
        /// The callee's entry block (becomes the new pc top).
        enter: BlockId,
        /// The block to resume at after the callee returns (stored in the
        /// caller's pc frame).
        resume: BlockId,
    },
    /// Pop the program counter, resuming the caller (or reaching the exit
    /// sentinel at the bottom of the pc stack).
    Return,
}

impl Terminator {
    /// Blocks this terminator can transfer control to directly.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Jump(b) => vec![*b],
            Terminator::Branch { then_, else_, .. } => vec![*then_, *else_],
            Terminator::PushJump { enter, resume } => vec![*enter, *resume],
            Terminator::Return => vec![],
        }
    }
}

/// A basic block.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// The ops, executed in order.
    pub ops: Vec<Op>,
    /// The terminator.
    pub term: Terminator,
}

/// A merged, stack-explicit program.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// The blocks; `entry` is the initial pc top.
    pub blocks: Vec<Block>,
    /// The entry block.
    pub entry: BlockId,
    /// Input variables (assigned from the batch inputs before the run).
    pub inputs: Vec<Var>,
    /// Output variables (read when all members reach the exit sentinel).
    pub outputs: Vec<Var>,
    /// Storage class of every persistent variable. Variables that appear
    /// in ops but not here are block-local temporaries (optimization 2).
    pub classes: BTreeMap<Var, VarClass>,
}

impl Program {
    /// The exit-sentinel block index (one past the last block).
    pub fn exit_sentinel(&self) -> BlockId {
        BlockId(self.blocks.len())
    }

    /// The storage class of a variable, or `None` for temporaries.
    pub fn class_of(&self, var: &Var) -> Option<VarClass> {
        self.classes.get(var).copied()
    }

    /// All stacked variables, in sorted order.
    pub fn stacked_vars(&self) -> Vec<Var> {
        self.classes
            .iter()
            .filter(|(_, c)| **c == VarClass::Stacked)
            .map(|(v, _)| v.clone())
            .collect()
    }

    /// All register variables, in sorted order.
    pub fn register_vars(&self) -> Vec<Var> {
        self.classes
            .iter()
            .filter(|(_, c)| **c == VarClass::Register)
            .map(|(v, _)| v.clone())
            .collect()
    }

    /// Validate structural well-formedness:
    ///
    /// - entry and all block targets are in range;
    /// - primitive arities match operand counts;
    /// - `Push`/`Pop` only target stacked variables;
    /// - register and temporary variables are only written with `Update`;
    /// - temporaries (variables absent from `classes`) never escape the
    ///   block they are written in;
    /// - inputs and outputs are classified (persistent) variables.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<()> {
        if self.blocks.is_empty() {
            return Err(IrError::NoEntry);
        }
        if self.entry.0 >= self.blocks.len() {
            return Err(IrError::BadBlock {
                func: None,
                block: self.entry,
                len: self.blocks.len(),
            });
        }
        for v in self.inputs.iter().chain(&self.outputs) {
            if self.class_of(v).is_none() {
                return Err(IrError::BadVarClass {
                    var: v.clone(),
                    what: "program inputs/outputs must be persistent variables".into(),
                });
            }
        }
        for (bi, b) in self.blocks.iter().enumerate() {
            let bid = BlockId(bi);
            let mut local_temps: BTreeSet<Var> = BTreeSet::new();
            for op in &b.ops {
                match op {
                    Op::Compute { outs, prim, ins } => {
                        if let Some(a) = prim.arity() {
                            if ins.len() != a.ins {
                                return Err(IrError::BadArity {
                                    what: format!("{bid}: inputs of `{prim}`"),
                                    expected: a.ins,
                                    got: ins.len(),
                                });
                            }
                            if outs.len() != a.outs {
                                return Err(IrError::BadArity {
                                    what: format!("{bid}: outputs of `{prim}`"),
                                    expected: a.outs,
                                    got: outs.len(),
                                });
                            }
                        }
                        for r in ins {
                            if self.class_of(r).is_none() && !local_temps.contains(r) {
                                return Err(IrError::UnassignedRead {
                                    var: r.clone(),
                                    func: None,
                                    block: bid,
                                });
                            }
                        }
                        for (w, kind) in outs {
                            match (self.class_of(w), kind) {
                                (Some(VarClass::Stacked), _) => {}
                                (Some(VarClass::Register), WriteKind::Update) => {}
                                (Some(VarClass::Register), WriteKind::Push) => {
                                    return Err(IrError::BadVarClass {
                                        var: w.clone(),
                                        what: "push to register variable".into(),
                                    });
                                }
                                (None, WriteKind::Update) => {
                                    local_temps.insert(w.clone());
                                }
                                (None, WriteKind::Push) => {
                                    return Err(IrError::BadVarClass {
                                        var: w.clone(),
                                        what: "push to temporary variable".into(),
                                    });
                                }
                            }
                        }
                    }
                    Op::Pop { var } => {
                        if self.class_of(var) != Some(VarClass::Stacked) {
                            return Err(IrError::BadVarClass {
                                var: var.clone(),
                                what: "pop of non-stacked variable".into(),
                            });
                        }
                    }
                }
            }
            if let Terminator::Branch { cond, .. } = &b.term {
                if self.class_of(cond).is_none() && !local_temps.contains(cond) {
                    return Err(IrError::UnassignedRead {
                        var: cond.clone(),
                        func: None,
                        block: bid,
                    });
                }
            }
            for s in b.term.successors() {
                if s.0 >= self.blocks.len() {
                    return Err(IrError::BadBlock {
                        func: None,
                        block: s,
                        len: self.blocks.len(),
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &str) -> Var {
        Var::new(s)
    }

    /// A single-block program: y = x + x; return.
    fn tiny() -> Program {
        let mut classes = BTreeMap::new();
        classes.insert(v("x"), VarClass::Register);
        classes.insert(v("y"), VarClass::Register);
        Program {
            blocks: vec![Block {
                ops: vec![Op::Compute {
                    outs: vec![(v("y"), WriteKind::Update)],
                    prim: Prim::Add,
                    ins: vec![v("x"), v("x")],
                }],
                term: Terminator::Return,
            }],
            entry: BlockId(0),
            inputs: vec![v("x")],
            outputs: vec![v("y")],
            classes,
        }
    }

    #[test]
    fn tiny_validates() {
        tiny().validate().unwrap();
    }

    #[test]
    fn exit_sentinel_is_block_count() {
        assert_eq!(tiny().exit_sentinel(), BlockId(1));
    }

    #[test]
    fn push_to_register_rejected() {
        let mut p = tiny();
        if let Op::Compute { outs, .. } = &mut p.blocks[0].ops[0] {
            outs[0].1 = WriteKind::Push;
        }
        assert!(matches!(p.validate(), Err(IrError::BadVarClass { .. })));
    }

    #[test]
    fn pop_of_register_rejected() {
        let mut p = tiny();
        p.blocks[0].ops.push(Op::Pop { var: v("x") });
        assert!(matches!(p.validate(), Err(IrError::BadVarClass { .. })));
    }

    #[test]
    fn temp_read_before_write_rejected() {
        let mut p = tiny();
        // `t` is not classified, so it is a temp; reading it without a
        // prior write in the same block is an error.
        p.blocks[0].ops.insert(
            0,
            Op::Compute {
                outs: vec![(v("y"), WriteKind::Update)],
                prim: Prim::Id,
                ins: vec![v("t")],
            },
        );
        assert!(matches!(p.validate(), Err(IrError::UnassignedRead { .. })));
    }

    #[test]
    fn temp_write_then_read_ok() {
        let mut p = tiny();
        p.blocks[0].ops.insert(
            0,
            Op::Compute {
                outs: vec![(v("t"), WriteKind::Update)],
                prim: Prim::ConstF64(1.0),
                ins: vec![],
            },
        );
        p.blocks[0].ops.insert(
            1,
            Op::Compute {
                outs: vec![(v("x"), WriteKind::Update)],
                prim: Prim::Id,
                ins: vec![v("t")],
            },
        );
        p.validate().unwrap();
    }

    #[test]
    fn unclassified_output_rejected() {
        let mut p = tiny();
        p.outputs = vec![v("ghost")];
        assert!(matches!(p.validate(), Err(IrError::BadVarClass { .. })));
    }

    #[test]
    fn pushjump_targets_checked() {
        let mut p = tiny();
        p.blocks[0].term = Terminator::PushJump {
            enter: BlockId(9),
            resume: BlockId(0),
        };
        assert!(matches!(p.validate(), Err(IrError::BadBlock { .. })));
    }
}
