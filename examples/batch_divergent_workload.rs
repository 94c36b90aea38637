//! Batching a control-heavy classical algorithm beyond the paper's MCMC
//! workload: a recursive binomial-coefficient computation C(n, k) whose
//! recursion tree shape depends on *both* inputs, plus Neal's funnel —
//! a target whose NUTS trajectory lengths vary wildly, the regime where
//! batching across control flow pays most.
//!
//! Run with: `cargo run --release --example batch_divergent_workload`

use std::sync::Arc;
use std::time::Instant;

use autobatch::accel::{Backend, Trace};
use autobatch::core::Autobatcher;
use autobatch::lang::compile;
use autobatch::models::NealsFunnel;
use autobatch::nuts::{BatchNuts, NutsConfig};
use autobatch::serve::{AdmissionPolicy, BatchServer, Request, ShardedServer};
use autobatch::tensor::{CounterRng, Tensor};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- Part 1: batched recursive binomial coefficients -------------
    let source = "
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
    let ab = Autobatcher::new(compile(source, "binom")?)?;
    let ns = Tensor::from_i64(&[5, 10, 8, 12, 6, 9], &[6])?;
    let ks = Tensor::from_i64(&[2, 3, 8, 6, 0, 4], &[6])?;
    let out = ab.run_pc(&[ns, ks], None)?;
    println!("C(n,k) for divergent (n,k) pairs: {}", out[0]);
    assert_eq!(out[0].as_i64()?, &[10, 120, 1, 924, 1, 126]);

    // ---- Part 2: NUTS on Neal's funnel --------------------------------
    let dim = 10;
    let chains = 16;
    let model = Arc::new(NealsFunnel::new(dim));
    let nuts = BatchNuts::new(
        model,
        NutsConfig {
            step_size: 0.2,
            n_trajectories: 6,
            max_depth: 7,
            leapfrog_steps: 4,
            seed: 31,
        },
    )?;
    let rng = CounterRng::new(64);
    let q0 = rng.normal_batch(&(0..chains as i64).collect::<Vec<_>>(), &[dim]);
    let mut trace = Trace::new(Backend::xla_cpu());
    let samples = nuts.run_pc(&q0, Some(&mut trace))?;
    let necks: Vec<f64> = (0..chains)
        .map(|b| samples.as_f64().map(|v| v[b * dim]).unwrap_or(0.0))
        .collect();
    println!("\nfunnel neck coordinates after sampling: {necks:.2?}");
    println!(
        "gradient utilization on the funnel: {:.3} across {} supersteps",
        trace.utilization("grad"),
        trace.supersteps()
    );
    println!(
        "(the funnel's wildly varying trajectory lengths are exactly where\n\
         cross-trajectory batching earns its keep)"
    );

    // ---- Part 3: serving the funnel with dynamic batch admission ------
    // Chains arrive as requests and join the in-flight batch whenever a
    // lane frees up; per-request RNG seeds make each chain's draws
    // independent of whatever batch it lands in.
    let mut server = BatchServer::new(
        nuts.lowered(),
        nuts.registry().clone(),
        nuts.exec_options(),
        AdmissionPolicy::JoinAtEntry { max_batch: 8 },
    )?;
    for i in 0..chains as u64 {
        let q = q0.row(i as usize)?;
        server.submit(Request {
            id: i,
            inputs: nuts.request_inputs(&q)?,
            seed: i,
        })?;
    }
    let mut serve_trace = Trace::new(Backend::hybrid_cpu());
    let started = Instant::now();
    let served = server.run_until_idle(Some(&mut serve_trace))?;
    let single_wall = started.elapsed();
    let joined_mid_flight = served.iter().filter(|r| r.admitted_at > 0).count();
    println!(
        "\nserved {} chains with batch capacity 8: {} joined mid-flight, \
         peak batch {}, {} supersteps",
        served.len(),
        joined_mid_flight,
        serve_trace.peak_members(),
        serve_trace.supersteps()
    );
    assert_eq!(served.len(), chains);
    assert!(
        joined_mid_flight > 0,
        "no request joined an in-flight batch"
    );
    // Single-server responses arrive in completion order; index by chain
    // for the comparison below.
    let mut served = served;
    served.sort_by_key(|r| r.id);

    // ---- Part 4: sharding the fleet across worker threads -------------
    // One BatchServer saturates one host thread. The ShardedServer
    // partitions the same chains across workers (least-loaded routing),
    // each worker driving its own PcMachine: four workers, four lanes
    // each, and a request joins whenever its worker has a lane free. The
    // fleet runs no cost model, so what it reports is host time (the
    // single server above priced its run as well).
    let (workers, shard_batch) = (4, 4);
    let mut fleet = ShardedServer::new(
        nuts.lowered(),
        nuts.registry().clone(),
        nuts.exec_options(),
        AdmissionPolicy::JoinAtEntry {
            max_batch: shard_batch,
        },
        workers,
        Backend::hybrid_cpu(),
    )?;
    for i in 0..chains as u64 {
        let q = q0.row(i as usize)?;
        fleet.submit(Request {
            id: i,
            inputs: nuts.request_inputs(&q)?,
            seed: i,
        })?;
    }
    let started = Instant::now();
    let sharded = fleet.run_until_idle()?;
    let fleet_wall = started.elapsed();
    println!(
        "\nsharded the same {} chains over {} workers (batch {} each): \
         host wall-clock {:.1} ms vs single-server {:.1} ms, {} supersteps total",
        sharded.len(),
        workers,
        shard_batch,
        fleet_wall.as_secs_f64() * 1e3,
        single_wall.as_secs_f64() * 1e3,
        fleet.supersteps(),
    );
    assert_eq!(sharded.len(), chains);
    // Aggregation preserves submission order across shards.
    assert!(sharded.iter().enumerate().all(|(i, r)| r.id == i as u64));
    // Per-chain results are placement-independent: the sharded fleet
    // reproduces the single server's positions bit for bit.
    for (r, s) in served.iter().zip(&sharded) {
        assert_eq!(r.outputs, s.outputs, "sharding perturbed chain {}", r.id);
    }
    Ok(())
}
