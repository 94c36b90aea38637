//! Static lint over every committed program: the models' NUTS kernels,
//! the built-in fibonacci, and each surface-language program embedded
//! in the `examples/` sources.
//!
//! For each program, runs the full static verification tier — the lsab
//! abstract interpreter, lowering, and the pcab abstract interpreter —
//! and prints the inferred signature, stack-depth bounds, divergence
//! facts, and the fusion spans of the runtime's own planner. Any
//! diagnostic from either verifier fails the lint (exit code 1), so an
//! ill-typed program cannot land in the tree: CI runs this binary over
//! exactly the set of programs the tests and examples execute.
//!
//! Usage: `cargo run --release -p autobatch-bench --bin irlint`

use std::path::PathBuf;
use std::process::ExitCode;

use autobatch_core::{fused_spans, lower, LoweringOptions};
use autobatch_ir::analysis::{analyze_lsab, analyze_pcab};
use autobatch_ir::build::fibonacci_program;
use autobatch_ir::lsab;

/// Lint one lsab program end to end. Returns the number of diagnostics.
fn lint(name: &str, program: &lsab::Program) -> usize {
    let mut issues = 0usize;
    let report = analyze_lsab(program);
    let dtypes: Vec<String> = report.input_dtypes.iter().map(|d| d.to_string()).collect();
    let outputs: Vec<String> = report.outputs.iter().map(|o| o.to_string()).collect();
    println!("{name}");
    println!(
        "  lsab: inputs [{}] -> outputs [{}], call depth {}, {} unreachable, {} divergent",
        dtypes.join(", "),
        outputs.join(", "),
        report.call_depth,
        report.unreachable.len(),
        report.divergent_branches.len(),
    );
    for d in &report.diagnostics {
        println!("  error (lsab): {d}");
        issues += 1;
    }
    if !report.ok() {
        return issues;
    }
    let pc = match lower(program, LoweringOptions::default()) {
        Ok((pc, _)) => pc,
        Err(e) => {
            println!("  error (lowering): {e}");
            return issues + 1;
        }
    };
    let report = analyze_pcab(&pc);
    let fused: usize = fused_spans(&pc).iter().map(Vec::len).sum();
    println!(
        "  pcab: pc depth {}, data depth {}, {} divergent, {} fused spans",
        report.pc_depth,
        report.data_depth,
        report.divergent_branches.len(),
        fused,
    );
    for d in &report.diagnostics {
        println!("  error (pcab): {d}");
        issues += 1;
    }
    issues
}

/// Every surface program embedded in `examples/*.rs`, compiled once per
/// defined function (each function is a valid entry point).
fn example_programs() -> Result<Vec<(String, lsab::Program)>, String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    files.sort();
    let mut out = Vec::new();
    for path in files {
        let file = path
            .file_name()
            .expect("filtered on extension")
            .to_string_lossy()
            .into_owned();
        let rust = std::fs::read_to_string(&path).map_err(|e| format!("{file}: {e}"))?;
        for src in autobatch_lang::embedded_sources(&rust) {
            let module = autobatch_lang::parse(&src)
                .map_err(|e| format!("{file}: embedded program no longer parses: {e}"))?;
            for f in &module.fns {
                let program = autobatch_lang::compile_module(&module, &f.name)
                    .map_err(|e| format!("{file}::{}: {e}", f.name))?;
                out.push((format!("examples/{file}::{}", f.name), program));
            }
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    let mut programs: Vec<(String, lsab::Program)> =
        vec![("builtin::fibonacci".into(), fibonacci_program())];
    for steps in [1, 8] {
        match autobatch_nuts::nuts_program(steps) {
            Ok(p) => programs.push((format!("nuts::program(leapfrog_steps={steps})"), p)),
            Err(e) => {
                eprintln!("irlint: nuts_program({steps}) failed to compile: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    match example_programs() {
        Ok(more) => programs.extend(more),
        Err(e) => {
            eprintln!("irlint: {e}");
            return ExitCode::FAILURE;
        }
    }
    let mut issues = 0usize;
    for (name, program) in &programs {
        issues += lint(name, program);
    }
    println!(
        "irlint: {} programs, {} diagnostics",
        programs.len(),
        issues
    );
    if issues == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
