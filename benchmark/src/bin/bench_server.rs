//! The server child of the benchmark: builds one workload's program,
//! serves it behind `IngressServer` on an ephemeral loopback port, and
//! stops when its stdin closes. See `autobatch_benchmark::server` for the
//! line protocol.

use std::fmt::Arguments;
use std::io::{BufRead, Write};
use std::time::{Duration, Instant};

use autobatch_benchmark::sys::process_cpu_seconds;
use autobatch_benchmark::workload::{build, Workload};
use autobatch_ingress::{IngressConfig, IngressServer};

/// Print one protocol line. A parent that has gone away is the end of
/// the job, not a panic.
fn say(line: Arguments<'_>) {
    let mut out = std::io::stdout().lock();
    if writeln!(out, "{line}").and_then(|()| out.flush()).is_err() {
        std::process::exit(0);
    }
}

fn main() {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
    };
    let workload = value("--workload")
        .and_then(|n| Workload::parse(n))
        .unwrap_or_else(|| {
            eprintln!("usage: bench-server --workload <name>");
            std::process::exit(2);
        });

    let built = build(workload);
    // The shipped defaults, spelled out where the benchmark depends on
    // them: chaos off, budgets unlimited, no queue budget.
    let config = IngressConfig {
        workers: 2,
        max_batch: 8,
        max_wait: Duration::from_millis(2),
        opts: built.opts,
        registry: built.registry,
        ..IngressConfig::default()
    };
    let handle = IngressServer::start(built.program, config, "127.0.0.1:0").unwrap_or_else(|e| {
        eprintln!("bench-server: {e}");
        std::process::exit(1);
    });
    say(format_args!(
        "READY {} {:.9}",
        handle.addr(),
        started.elapsed().as_secs_f64()
    ));

    for line in std::io::stdin().lock().lines() {
        match line.as_deref() {
            Ok("CPU") => match process_cpu_seconds() {
                Ok(s) => say(format_args!("CPU {s:.9}")),
                Err(e) => {
                    eprintln!("bench-server: {e}");
                    break;
                }
            },
            Ok(_) => {}
            Err(_) => break,
        }
    }
    let s = handle.shutdown();
    say(format_args!(
        "STATS completed={} shed={} rejected={} failed={} bad_frames={} retried={} respawned={} \
         peak_buffered={} peak_queue={} cancelled={} over_budget={} quarantined={}",
        s.completed,
        s.shed,
        s.rejected,
        s.failed,
        s.bad_frames,
        s.retried,
        s.respawned,
        s.peak_buffered,
        s.peak_queue,
        s.cancelled,
        s.over_budget,
        s.quarantined
    ));
}
