//! # autobatch-bench
//!
//! The experiment harness regenerating the paper's evaluation (how to
//! run it: README, "Build, test, bench"):
//!
//! - `fig5_throughput` — Figure 5: NUTS gradient throughput vs batch
//!   size on Bayesian logistic regression, across the five execution
//!   configurations;
//! - `fig6_utilization` — Figure 6: batch gradient utilization vs batch
//!   size on the correlated Gaussian, local-static vs program-counter;
//! - `ablation_masking` — §2's first free choice: masking vs
//!   gather/scatter primitive execution, and this repository's default
//!   that picks one per superstep;
//! - `ablation_heuristic` — §2's second free choice: block-selection
//!   heuristics;
//! - `ablation_lowering` — §3's compiler optimizations on/off;
//! - `ablation_dynamic` — §5's alternative architecture: dynamic
//!   (on-the-fly) batching vs the paper's two static strategies;
//! - `probe_costs` — diagnostic: the cost composition of one batched
//!   NUTS run (per-kernel times, utilization, stack share);
//! - `irlint` — the static verification tier over every committed
//!   program (a CI step).
//!
//! Every binary but `ablation_masking` runs under [`paper_options`]:
//! the figures are the paper's, so they execute the way the paper did
//! whatever this repository's default strategy is.
//!
//! Each figure and ablation binary prints its table to stdout and
//! writes a CSV under `results/`. Wall-clock microbenchmarks of the
//! real interpreters live in `benches/`. Serving performance is not
//! measured here: `benchmark/` (BENCHMARK.json) owns the host clock,
//! and the serving stack's deterministic counts are exact assertions
//! in the `serve` and `tests/` suites.

#![warn(missing_docs)]

use std::fs;
use std::io::Write as _;
use std::path::Path;

use autobatch_core::{ExecOptions, ExecStrategy};
use autobatch_nuts::BatchNuts;

/// The options the paper's experiments run a NUTS program under: the
/// sampler's own, with the paper's §2 choice of masking pinned.
pub fn paper_options(nuts: &BatchNuts) -> ExecOptions {
    ExecOptions {
        strategy: ExecStrategy::Masking,
        ..nuts.exec_options()
    }
}

/// Batch sizes `1, 2, 4, … ≤ max`.
pub fn geometric_batches(max: usize) -> Vec<usize> {
    let mut v = Vec::new();
    let mut z = 1;
    while z <= max {
        v.push(z);
        z *= 2;
    }
    v
}

/// Print a fixed-width table to stdout.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for r in rows {
        for (i, c) in r.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(c.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    for r in rows {
        println!("{}", fmt_row(r));
    }
}

/// Write rows as CSV under `results/` (created if needed).
///
/// # Panics
///
/// Panics on I/O failure — the harness has nowhere sensible to recover to.
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<String>]) {
    let dir = Path::new("results");
    fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(name);
    let mut f = fs::File::create(&path).expect("create csv");
    writeln!(f, "{}", header.join(",")).expect("write header");
    for r in rows {
        writeln!(f, "{}", r.join(",")).expect("write row");
    }
    println!("wrote {}", path.display());
}

/// Format a float compactly for tables.
pub fn fmt_sig(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 1000.0 || x.abs() < 0.01 {
        format!("{x:.3e}")
    } else {
        format!("{x:.3}")
    }
}
