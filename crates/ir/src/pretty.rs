//! Human-readable listings for both IRs.

use std::fmt::Write as _;

use crate::lsab;
use crate::pcab;
use crate::var::FuncId;

/// Render an [`lsab::Program`] as a textual listing.
pub fn lsab_listing(p: &lsab::Program) -> String {
    let mut s = String::new();
    for (fi, f) in p.funcs.iter().enumerate() {
        let marker = if FuncId(fi) == p.entry {
            " (entry)"
        } else {
            ""
        };
        let params: Vec<String> = f.params.iter().map(|v| v.to_string()).collect();
        let outs: Vec<String> = f.outputs.iter().map(|v| v.to_string()).collect();
        let _ = writeln!(
            s,
            "fn f{fi} {}({}) -> ({}){marker} {{",
            f.name,
            params.join(", "),
            outs.join(", ")
        );
        for (bi, b) in f.blocks.iter().enumerate() {
            let _ = writeln!(s, "  b{bi}:");
            for op in &b.ops {
                match op {
                    lsab::Op::Prim { outs, prim, ins } => {
                        let _ = writeln!(s, "    {} = {prim}({})", join(outs), join(ins));
                    }
                    lsab::Op::Call { outs, callee, ins } => {
                        let name = &p.funcs[callee.0].name;
                        let _ = writeln!(s, "    {} = call {name}({})", join(outs), join(ins));
                    }
                }
            }
            match &b.term {
                lsab::Terminator::Jump(t) => {
                    let _ = writeln!(s, "    jump {t}");
                }
                lsab::Terminator::Branch { cond, then_, else_ } => {
                    let _ = writeln!(s, "    branch {cond} ? {then_} : {else_}");
                }
                lsab::Terminator::Return => {
                    let _ = writeln!(s, "    return");
                }
            }
        }
        let _ = writeln!(s, "}}");
    }
    s
}

/// Render a [`pcab::Program`] as a textual listing.
pub fn pcab_listing(p: &pcab::Program) -> String {
    let mut s = String::new();
    let ins: Vec<String> = p.inputs.iter().map(|v| v.to_string()).collect();
    let outs: Vec<String> = p.outputs.iter().map(|v| v.to_string()).collect();
    let _ = writeln!(
        s,
        "program entry={} inputs=({}) outputs=({})",
        p.entry,
        ins.join(", "),
        outs.join(", ")
    );
    let stacked = p.stacked_vars();
    let regs = p.register_vars();
    let _ = writeln!(s, "stacked: {}", join(&stacked));
    let _ = writeln!(s, "registers: {}", join(&regs));
    for (bi, b) in p.blocks.iter().enumerate() {
        let _ = writeln!(s, "b{bi}:");
        for op in &b.ops {
            match op {
                pcab::Op::Compute { outs, prim, ins } => {
                    let outs_s: Vec<String> = outs
                        .iter()
                        .map(|(v, k)| match k {
                            pcab::WriteKind::Push => format!("push {v}"),
                            pcab::WriteKind::Update => format!("{v}"),
                        })
                        .collect();
                    let _ = writeln!(s, "  {} = {prim}({})", outs_s.join(", "), join(ins));
                }
                pcab::Op::Pop { var } => {
                    let _ = writeln!(s, "  pop {var}");
                }
            }
        }
        match &b.term {
            pcab::Terminator::Jump(t) => {
                let _ = writeln!(s, "  jump {t}");
            }
            pcab::Terminator::Branch { cond, then_, else_ } => {
                let _ = writeln!(s, "  branch {cond} ? {then_} : {else_}");
            }
            pcab::Terminator::PushJump { enter, resume } => {
                let _ = writeln!(s, "  pushjump enter={enter} resume={resume}");
            }
            pcab::Terminator::Return => {
                let _ = writeln!(s, "  return");
            }
        }
    }
    s
}

fn join(vars: &[crate::var::Var]) -> String {
    vars.iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::fibonacci_program;

    #[test]
    fn lsab_listing_mentions_everything() {
        let p = fibonacci_program();
        let s = lsab_listing(&p);
        assert!(s.contains("fibonacci"));
        assert!(s.contains("call fibonacci"));
        assert!(s.contains("branch"));
        assert!(s.contains("return"));
    }
}
