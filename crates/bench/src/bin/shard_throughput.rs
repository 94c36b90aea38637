//! Sharded serving throughput — the multi-worker `ShardedServer` vs a
//! single worker, on the divergent workloads of
//! `examples/batch_divergent_workload.rs`.
//!
//! For each workload the same request stream is served at 1, 2, and 4
//! workers (each worker a `BatchServer` + `PcMachine` of its own, batch
//! width `batch` per shard, join-at-entry admission), under both
//! scheduling policies: PC-affinity (the rows without a `mode`, gated
//! on `supersteps_total`) and the default least-loaded routing (`mode:
//! least-loaded`). Time is the fleet wall-clock from the aggregated
//! [`Trace`]: shards run concurrently on their own host threads, so
//! the aggregate `sim_time` is the *slowest shard*, not the sum —
//! exactly what `Trace::merge_parallel` computes. The cost model is
//! deterministic, so every gated field is bit-reproducible and safe to
//! gate CI on. Beside it each row carries `wall_s`, the host's own
//! clock around the drive (the minimum of `REPS` repetitions, each on
//! a fresh server): ungated, machine-dependent, and the number that
//! says what the shard runtime costs on a real clock.
//!
//! Workloads:
//!
//! - **divergent-binom** — recursive binomial coefficients `C(n, k)`
//!   with per-request (n, k) spread over coprime strides, so every
//!   shard sees a representative mix of shallow and deep recursions;
//! - **funnel-nuts** — NUTS chains on Neal's funnel, whose trajectory
//!   lengths vary wildly per chain.
//!
//! Usage: `shard_throughput [requests] [batch]` (defaults 48, 8).
//! `--smoke` runs a tiny configuration for CI and still writes the
//! `results/BENCH_shard_throughput.json` artifact the regression gate
//! compares against `results/baselines/`.

use std::sync::Arc;
use std::time::Instant;

use autobatch_accel::{Backend, Trace};
use autobatch_bench::{fmt_sig, json_str, print_table, write_csv, write_json};
use autobatch_core::{lower, ExecOptions, KernelRegistry, LoweringOptions};
use autobatch_ir::pcab::Program;
use autobatch_lang::compile;
use autobatch_models::NealsFunnel;
use autobatch_nuts::{BatchNuts, NutsConfig};
use autobatch_serve::{AdmissionPolicy, AffinityConfig, Request, SchedulingPolicy, ShardedServer};
use autobatch_tensor::{CounterRng, Tensor};

const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

/// Repetitions per row; `wall_s` is their minimum.
const REPS: usize = 5;

const BINOM_SRC: &str = "
    // C(n, k) by Pascal's rule — doubly data-dependent recursion.
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

/// Divergent (n, k) stream with costs spread over strides 7 and 5 —
/// coprime to every worker count in the sweep, so least-loaded
/// round-robin routing gives each shard a representative mix instead of
/// aligning all stragglers onto one shard.
fn binom_stream(n_requests: usize) -> Vec<(i64, i64)> {
    (0..n_requests)
        .map(|i| {
            let n = 10 + (i * 5 % 7) as i64; // 10..=16
            let k = 2 + (i * 3 % 5) as i64; // 2..=6
            (n, k)
        })
        .collect()
}

struct ShardResult {
    workers: usize,
    supersteps: u64,
    launches: u64,
    /// Fleet wall-clock: the slowest shard's simulated time.
    sim_time: f64,
    /// Host wall-clock of the drive, the fastest of `REPS`.
    wall: f64,
}

/// Serve `requests` through a `ShardedServer` at each worker count.
fn sweep_workers(
    program: &Program,
    registry: &KernelRegistry,
    opts: ExecOptions,
    batch: usize,
    requests: &[Request],
    scheduling: SchedulingPolicy,
) -> Vec<ShardResult> {
    WORKER_COUNTS
        .iter()
        .map(|&workers| {
            let policy = AdmissionPolicy::JoinAtEntry {
                max_batch: batch,
                min_utilization: 1.0,
            };
            let mut best: Option<ShardResult> = None;
            for _ in 0..REPS {
                let mut server = ShardedServer::new(
                    program,
                    registry.clone(),
                    opts,
                    policy,
                    workers,
                    Backend::hybrid_cpu(),
                )
                .expect("server");
                server.set_scheduling(scheduling);
                for r in requests {
                    server.submit(r.clone()).expect("submit");
                }
                let started = Instant::now();
                let done = server.run_until_idle().expect("serve");
                let wall = started.elapsed().as_secs_f64();
                assert_eq!(done.len(), requests.len());
                if std::env::var("SHARD_DEBUG").is_ok() {
                    for i in 0..workers {
                        let t = server.shard_trace(i);
                        eprintln!(
                            "  debug w{workers} shard {i}: supersteps {} sim {:.1}s mig {}/{}",
                            t.supersteps(),
                            t.sim_time(),
                            t.members_migrated_in(),
                            t.members_migrated_out()
                        );
                    }
                }
                let agg: Trace = server.aggregated_trace();
                let run = ShardResult {
                    workers,
                    supersteps: agg.supersteps(),
                    launches: agg.launches(),
                    sim_time: agg.sim_time(),
                    wall,
                };
                if let Some(b) = &best {
                    // The schedule is a pure function of the requests:
                    // only the host clock may differ between runs.
                    assert_eq!(
                        (b.supersteps, b.launches, b.sim_time),
                        (run.supersteps, run.launches, run.sim_time),
                        "repetitions must agree on every simulated number"
                    );
                }
                if best.as_ref().is_none_or(|b| run.wall < b.wall) {
                    best = Some(run);
                }
            }
            best.expect("REPS > 0")
        })
        .collect()
}

fn binom_requests(n_requests: usize) -> Vec<Request> {
    binom_stream(n_requests)
        .iter()
        .enumerate()
        .map(|(i, &(n, k))| Request {
            id: i as u64,
            inputs: vec![
                Tensor::from_i64(&[n], &[1]).expect("n"),
                Tensor::from_i64(&[k], &[1]).expect("k"),
            ],
            seed: i as u64,
        })
        .collect()
}

fn funnel_requests(nuts: &BatchNuts, n_requests: usize) -> Vec<Request> {
    let rng = CounterRng::new(64);
    (0..n_requests)
        .map(|i| {
            let q = rng
                .normal_batch(&[i as i64], &[nuts.dim()])
                .row(0)
                .expect("row");
            Request {
                id: i as u64,
                inputs: nuts.request_inputs(&q).expect("inputs"),
                seed: i as u64,
            }
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let pos: Vec<usize> = args.iter().filter_map(|a| a.parse().ok()).collect();
    let (n_requests, batch) = if smoke {
        (12, 4)
    } else {
        (
            pos.first().copied().unwrap_or(48),
            pos.get(1).copied().unwrap_or(8),
        )
    };

    // PC-affinity scheduling packs shards to capacity, migrates
    // stragglers and steals for idle shards: it is what keeps
    // `supersteps_total` flat as workers are added — the gated guard
    // against superstep inflation from underfilled, pc-mixed batches.
    // Least-loaded is what a server runs by default.
    let policies = [
        (
            "pc-affinity",
            SchedulingPolicy::PcAffinity(AffinityConfig::default()),
        ),
        ("least-loaded", SchedulingPolicy::LeastLoaded),
    ];

    let binom_program = compile(BINOM_SRC, "binom").expect("binom compiles");
    let (binom_pc, _) = lower(&binom_program, LoweringOptions::default()).expect("binom lowers");
    let binom_reqs = binom_requests(n_requests);
    let binom_results = policies.map(|(_, scheduling)| {
        sweep_workers(
            &binom_pc,
            &KernelRegistry::new(),
            ExecOptions::default(),
            batch,
            &binom_reqs,
            scheduling,
        )
    });

    if std::env::var("SHARD_SWEEP").is_ok() {
        // Tuning loop: binom only, skip the NUTS workload and artifacts.
        return;
    }
    let cfg = NutsConfig {
        step_size: 0.2,
        n_trajectories: 3,
        max_depth: 6,
        leapfrog_steps: 2,
        seed: 31,
    };
    let nuts = BatchNuts::new(Arc::new(NealsFunnel::new(5)), cfg).expect("NUTS compiles");
    let funnel_reqs = funnel_requests(&nuts, n_requests);
    let funnel_results = policies.map(|(_, scheduling)| {
        sweep_workers(
            nuts.lowered(),
            nuts.registry(),
            nuts.exec_options(),
            batch,
            &funnel_reqs,
            scheduling,
        )
    });

    let header = [
        "workload",
        "policy",
        "workers",
        "requests",
        "batch",
        "supersteps",
        "launches",
        "sim-time-s",
        "req-per-s",
        "wall-s",
    ];
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for (p, &(policy, scheduling)) in policies.iter().enumerate() {
        for (workload, results) in [
            ("divergent-binom", &binom_results[p]),
            ("funnel-nuts", &funnel_results[p]),
        ] {
            for r in results {
                let throughput = n_requests as f64 / r.sim_time;
                rows.push(vec![
                    workload.to_string(),
                    policy.to_string(),
                    r.workers.to_string(),
                    n_requests.to_string(),
                    batch.to_string(),
                    r.supersteps.to_string(),
                    r.launches.to_string(),
                    fmt_sig(r.sim_time),
                    fmt_sig(throughput),
                    fmt_sig(r.wall),
                ]);
                let mut row = vec![("workload", json_str(workload))];
                // The PC-affinity rows predate the second policy and
                // keep their `mode`-less key.
                if scheduling == SchedulingPolicy::LeastLoaded {
                    row.push(("mode", json_str(policy)));
                }
                row.extend([
                    ("workers", r.workers.to_string()),
                    ("requests", n_requests.to_string()),
                    ("batch", batch.to_string()),
                    // Gated lower-is-better: total supersteps must not
                    // inflate as workers are added (see the gate's METRICS).
                    ("supersteps_total", r.supersteps.to_string()),
                    ("launches", r.launches.to_string()),
                    ("sim_time_s", format!("{:.9}", r.sim_time)),
                    ("requests_per_s", format!("{:.6}", throughput)),
                    // Host clock, not in the gate's METRICS: reported only.
                    ("wall_s", format!("{:.6}", r.wall)),
                ]);
                json.push(row);
            }
            let one = &results[0];
            let four = results.last().expect("sweep is non-empty");
            println!(
                "{workload} ({policy}): 1 worker {} vs {} workers {} → speedup {:.2}× \
                 (host clock {} vs {})",
                fmt_sig(one.sim_time),
                four.workers,
                fmt_sig(four.sim_time),
                one.sim_time / four.sim_time,
                fmt_sig(one.wall),
                fmt_sig(four.wall),
            );
        }
    }
    print_table(
        "Sharded serving throughput: workers vs fleet wall-clock (hybrid-cpu)",
        &header,
        &rows,
    );
    write_csv("shard_throughput.csv", &header, &rows);
    write_json("BENCH_shard_throughput.json", &json);
}
