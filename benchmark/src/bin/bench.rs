//! The benchmark driver: load generator, correctness oracle, in-process
//! layer probes and report writer. `benchmark/run.sh` builds and runs
//! it; `benchmark/README.md` is the manual.
//!
//! ```text
//! bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run; the last stdout line is the result object
//! bench [--seed n] [--seconds s] [--trace] [--agree] [--quick]
//!     every workload; --trace adds the traced run to each,
//!     --agree runs everything twice and compares within the bounds
//! ```

use std::path::Path;
use std::process::ExitCode;

use autobatch_benchmark::alloc::CountingAlloc;
use autobatch_benchmark::json;
use autobatch_benchmark::metrics::END_TO_END;
use autobatch_benchmark::report::{result_line, table, write_trace};
use autobatch_benchmark::run::{run, Options, Outcome};
use autobatch_benchmark::workload::Workload;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The seed a run uses when none is given.
const DEFAULT_SEED: u64 = 1;
/// `--seconds` of a `--quick` run: long enough to exercise every phase,
/// far too short to compare.
const QUICK_SECONDS: f64 = 3.0;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: Option<f64>,
    /// Which kinds of run: untraced, traced.
    kinds: (bool, bool),
    agree: bool,
    quick: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: bench [--workload <name>] [--seed <n>] [--seconds <s>] [--trace [0|1]] [--agree] [--quick]\n\
         workloads: {}",
        Workload::ALL.map(Workload::name).join(", ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        workloads: Workload::ALL.to_vec(),
        seed: DEFAULT_SEED,
        seconds: None,
        kinds: (true, false),
        agree: false,
        quick: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let w = it.next().and_then(|n| Workload::parse(&n));
                a.workloads = vec![w.unwrap_or_else(|| usage())];
            }
            "--seed" => {
                a.seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--seconds" => {
                let s: f64 = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                if !(s > 0.0 && s <= 600.0) {
                    usage();
                }
                a.seconds = Some(s);
            }
            // `--trace 0|1` picks the one kind of run; a bare `--trace`
            // adds the traced run to the untraced one.
            "--trace" => match it.peek().map(String::as_str) {
                Some("0") => {
                    it.next();
                    a.kinds = (true, false);
                }
                Some("1") => {
                    it.next();
                    a.kinds = (false, true);
                }
                _ => a.kinds = (true, true),
            },
            "--agree" => a.agree = true,
            "--quick" => a.quick = true,
            _ => usage(),
        }
    }
    if a.agree && a.quick {
        eprintln!("bench: a --quick run is not comparable; --agree refuses it");
        std::process::exit(2);
    }
    a
}

/// `BENCHMARK.json`, from the repository root the benchmark runs in.
fn contract() -> Option<json::Value> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .or_else(|_| {
            std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
        })
        .ok()?;
    json::parse(&text).ok()
}

fn bound_of(contract: &json::Value, name: &str) -> Option<f64> {
    contract
        .get("end_to_end")?
        .items()
        .iter()
        .find(|m| m.get("name").and_then(json::Value::as_str) == Some(name))?
        .get("bound")?
        .as_f64()
}

/// Every requested run, in order. Prints each run's table and result
/// line as it completes.
fn run_set(a: &Args, seconds: f64, header: &[(&str, String)]) -> Result<Vec<Outcome>, String> {
    let mut all = Vec::new();
    for &workload in &a.workloads {
        for (wanted, trace) in [(a.kinds.0, false), (a.kinds.1, true)] {
            if !wanted {
                continue;
            }
            let o = run(Options {
                workload,
                seed: a.seed,
                seconds,
                trace,
            })
            .map_err(|e| format!("{}: {e}", workload.name()))?;
            print!("{}", table(&o, if trace { "traced" } else { "untraced" }));
            if trace {
                write_trace(Path::new("benchmark/out"), &o, header)
                    .map_err(|e| format!("writing the trace: {e}"))?;
            }
            println!("{}", result_line(&o));
            all.push(o);
        }
    }
    Ok(all)
}

/// Compare two sets of untraced runs metric by metric against each
/// metric's own bound. Returns whether they agree.
fn agree(first: &[Outcome], second: &[Outcome], contract: &json::Value) -> bool {
    let mut ok = true;
    println!("== agreement: run 1 vs run 2, each end-to-end metric within its own bound ==");
    for (a, b) in first.iter().zip(second) {
        for (ma, mb) in a.metrics.iter().zip(&b.metrics) {
            if !END_TO_END.contains(&ma.def) {
                continue;
            }
            let bound = bound_of(contract, ma.def.name).unwrap_or(0.0);
            let base = ma.value.abs().min(mb.value.abs()).max(f64::MIN_POSITIVE);
            let gap = (ma.value - mb.value).abs() / base;
            let fine = gap <= bound;
            ok &= fine;
            println!(
                "  {:<16} {:<16} {:>14.6} {:>14.6} {:<5} gap {:>6.2}% bound {:>5.1}%  {}",
                a.workload.name(),
                ma.def.name,
                ma.value,
                mb.value,
                ma.def.unit,
                gap * 100.0,
                bound * 100.0,
                if fine { "ok" } else { "DISAGREE" }
            );
        }
    }
    ok
}

fn main() -> ExitCode {
    let a = parse_args();
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    if nproc < 2 {
        eprintln!(
            "bench: {nproc} core available; the benchmark needs 2 (two server shards \
             beside the load generator) and would only measure contention"
        );
        return ExitCode::from(3);
    }
    let contract = contract();
    let seconds = if a.quick {
        QUICK_SECONDS
    } else {
        a.seconds
            .or_else(|| contract.as_ref()?.get("run_seconds")?.as_f64())
            .unwrap_or(20.0)
    };
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let header = [
        ("rustc", env("BENCH_RUSTC")),
        ("commit", env("BENCH_COMMIT")),
        ("nproc", nproc.to_string()),
        ("seed", a.seed.to_string()),
        ("seconds", seconds.to_string()),
    ];
    println!(
        "benchmark: rustc {} | commit {} | nproc {nproc} | seed {} | {seconds} s per run{}",
        header[0].1,
        header[1].1,
        a.seed,
        if a.quick {
            " | QUICK: these numbers are not comparable and must not be recorded"
        } else {
            ""
        }
    );

    let first = match run_set(&a, seconds, &header) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("bench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = first.iter().all(|o| o.correct);
    if a.agree {
        let Some(contract) = &contract else {
            eprintln!("bench: --agree needs BENCHMARK.json for the bounds");
            return ExitCode::FAILURE;
        };
        let second = match run_set(&a, seconds, &header) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("bench: {e}");
                return ExitCode::FAILURE;
            }
        };
        ok &= second.iter().all(|o| o.correct);
        ok &= agree(&first, &second, contract);
        for o in first.iter().chain(&second).filter(|o| o.lateness_flagged) {
            println!(
                "  {}: the run was flagged for generator lateness",
                o.workload.name()
            );
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
