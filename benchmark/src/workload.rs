//! The four workloads: the served program, the seeded request pool and
//! the oracle each reply is checked against.
//!
//! The names, rates and pool shapes here are the benchmark's contract
//! (`BENCHMARK.json`, `README.md`); a change to any of them is a
//! `benchmark` issue of its own, never part of a change that claims a
//! gain.

use std::sync::Arc;

use autobatch_core::{lower, ExecOptions, KernelRegistry, LoweringOptions};
use autobatch_ir::pcab::Program;
use autobatch_lang::compile;
use autobatch_models::LogisticRegression;
use autobatch_nuts::{BatchNuts, NativeNuts, NutsConfig};
use autobatch_tensor::{CounterRng, Tensor};

use crate::stats::Rng;

/// `C(n, k)` by Pascal's rule — doubly data-dependent recursion.
pub const BINOM_SRC: &str = "
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

/// One superstep per batch: what is left is the per-request fixed cost.
pub const ECHO_SRC: &str = "fn inc(n: int) -> (out: int) { out = n + 1; }";

/// One reduction over a wide row: the per-byte cost of the frame path.
pub const NORM_SRC: &str = "fn norm(q: vec) -> (out: float) { out = dot(q, q); }";

/// Elements per `payload_wide` request: 8,192 f64 = 64 KiB frames.
pub const WIDE_LEN: usize = 8192;

/// Rows and regressors of the `nuts_logistic` model (the paper's Fig. 5
/// workload scaled to fit the run).
pub const LOGISTIC_ROWS: usize = 512;
/// See [`LOGISTIC_ROWS`].
pub const LOGISTIC_DIM: usize = 24;

/// A workload, by its contract name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Divergent recursion on one-element tensors: superstep overhead.
    BinomDivergent,
    /// Batched NUTS on logistic regression: kernel time.
    NutsLogistic,
    /// `n + 1`: per-request fixed cost of `ingress` + `serve`.
    EchoSmall,
    /// 64 KiB request frames: per-byte cost of `ingress` and admission.
    PayloadWide,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::BinomDivergent,
        Workload::NutsLogistic,
        Workload::EchoSmall,
        Workload::PayloadWide,
    ];

    /// The contract name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BinomDivergent => "binom_divergent",
            Workload::NutsLogistic => "nuts_logistic",
            Workload::EchoSmall => "echo_small",
            Workload::PayloadWide => "payload_wide",
        }
    }

    /// Look a workload up by its contract name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark (one line; `BENCHMARK.json`
    /// carries the same text).
    pub fn why(self) -> &'static str {
        match self {
            Workload::BinomDivergent => {
                "divergent recursion on 1-element tensors: all time is superstep overhead in core and shard rounds in serve"
            }
            Workload::NutsLogistic => {
                "the paper's batched NUTS on logistic regression: >90% of time in models/tensor kernels, so kernel work shows and serving work barely does"
            }
            Workload::EchoSmall => {
                "one superstep per batch: the per-request fixed cost of ingress + serve (socket writes, channel, id maps, rounds)"
            }
            Workload::PayloadWide => {
                "64 KiB request frames: the same ingress and admission code as echo_small used per byte instead of per frame; where peak RSS can move"
            }
        }
    }

    /// Open-loop arrival rate of the paced phase — a constant of the
    /// workload, about a third to a half of seed-commit saturation
    /// throughput on a 2-core box. `binom_divergent` sits lower, at an
    /// eighth to a sixth: the host has slow spells in which it saturates
    /// at 220 rps instead of 325, and at 100 rps those put the paced
    /// phase on the knee of its queueing curve, where the median latency
    /// of two sets of runs differed by a quarter.
    pub fn rate_rps(self) -> f64 {
        match self {
            Workload::BinomDivergent => 40.0,
            Workload::NutsLogistic => 40.0,
            Workload::EchoSmall => 700.0,
            Workload::PayloadWide => 600.0,
        }
    }

    /// Requests in the seeded pool.
    pub fn pool_size(self) -> usize {
        match self {
            Workload::BinomDivergent => 512,
            Workload::NutsLogistic => 256,
            Workload::EchoSmall => 1024,
            Workload::PayloadWide => 64,
        }
    }

    /// Pool requests the in-process layer replays use (a multiple of the
    /// 32-request replay flush, sized so five repeats of every replay fit
    /// the traced run).
    pub fn replay_n(self) -> usize {
        match self {
            Workload::BinomDivergent => 64,
            Workload::NutsLogistic => 32,
            Workload::EchoSmall => 512,
            Workload::PayloadWide => 64,
        }
    }
}

/// The served program with everything a server (or a replay) needs to
/// run it.
#[derive(Debug)]
pub struct Built {
    /// The lowered, stack-explicit program.
    pub program: Program,
    /// External kernels (`grad`/`logp` for NUTS, empty otherwise).
    pub registry: KernelRegistry,
    /// VM options the program runs under.
    pub opts: ExecOptions,
    /// The model and sampler behind `nuts_logistic`, for its oracle.
    pub nuts: Option<(Arc<LogisticRegression>, BatchNuts)>,
}

/// Seed of the `nuts_logistic` model data and of the sampler's own RNG.
/// They are the served program — its weights, as it were — not its
/// inputs: `--seed` draws the initial positions the requests carry.
const NUTS_PROGRAM_SEED: u64 = 2020;

fn nuts_config() -> NutsConfig {
    NutsConfig {
        step_size: 0.02,
        n_trajectories: 2,
        max_depth: 5,
        leapfrog_steps: 4,
        seed: NUTS_PROGRAM_SEED,
    }
}

/// Compile, lower and (for NUTS) generate model data: everything between
/// process start and `IngressServer::start`. Panics on failure — the
/// programs are constants of the benchmark, so a failure is a bug here.
pub fn build(w: Workload) -> Built {
    let plain = |src: &str, entry: &str| {
        let lsab = compile(src, entry).expect("benchmark program compiles");
        let (program, _) = lower(&lsab, LoweringOptions::default()).expect("program lowers");
        Built {
            program,
            registry: KernelRegistry::new(),
            opts: ExecOptions::default(),
            nuts: None,
        }
    };
    match w {
        Workload::BinomDivergent => plain(BINOM_SRC, "binom"),
        Workload::EchoSmall => plain(ECHO_SRC, "inc"),
        Workload::PayloadWide => plain(NORM_SRC, "norm"),
        Workload::NutsLogistic => {
            let model = Arc::new(LogisticRegression::synthetic(
                LOGISTIC_ROWS,
                LOGISTIC_DIM,
                NUTS_PROGRAM_SEED,
            ));
            let nuts = BatchNuts::new(model.clone(), nuts_config()).expect("NUTS compiles");
            Built {
                program: nuts.lowered().clone(),
                registry: nuts.registry().clone(),
                opts: nuts.exec_options(),
                nuts: Some((model, nuts)),
            }
        }
    }
}

/// One pooled request: the per-request RNG seed and the `[1, elem..]`
/// input row per program input.
#[derive(Debug, Clone)]
pub struct Item {
    /// The member key the lane draws under.
    pub seed: u64,
    /// One tensor per program input.
    pub inputs: Vec<Tensor>,
}

/// What a correct reply to one pooled request carries.
#[derive(Debug, Clone, PartialEq)]
pub enum Expected {
    /// A bit-exact integer.
    Int(i64),
    /// Floats to 1e-12 relative (one for `payload_wide`, a position
    /// vector for `nuts_logistic`).
    Floats(Vec<f64>),
}

impl Expected {
    /// Does a reply's output list carry this answer?
    pub fn matches(&self, outputs: &[Tensor]) -> bool {
        let Some(first) = outputs.first() else {
            return false;
        };
        match self {
            Expected::Int(v) => first.as_i64().is_ok_and(|got| got == [*v]),
            Expected::Floats(want) => first.as_f64().is_ok_and(|got| {
                got.len() == want.len()
                    && got
                        .iter()
                        .zip(want)
                        .all(|(g, w)| (g - w).abs() <= 1e-12 * w.abs().max(1.0))
            }),
        }
    }
}

fn int_row(v: i64) -> Tensor {
    Tensor::from_i64(&[v], &[1]).expect("one-element row")
}

/// The seeded request pool: the same seed gives the same pool.
///
/// `binom_divergent` is stratified so that every seed offers the same
/// work at the same density: one request in four is a straggler, two in
/// every eight consecutive requests, and the three straggler depths come
/// in equal numbers. A straggler costs ~C(n,5) supersteps and the
/// server runs each flush of ~32 requests to completion, so with an
/// unstratified shuffle the luck of which flush gets how many stragglers
/// moved throughput by 8% between seeds. What the seed decides is where
/// in its block each straggler sits, how deep it is, and every shallow
/// request.
pub fn pool(w: Workload, seed: u64, built: &Built) -> Vec<Item> {
    let n = w.pool_size();
    let mut rng = Rng::new(seed, 1);
    match w {
        Workload::BinomDivergent => {
            // Blocks of eight: one straggler at a random even offset and
            // one at a random odd offset (the two connections walk the
            // even and the odd pool positions), depths 11, 12, 13 in a
            // random order per three stragglers.
            let mut depths: Vec<i64> = Vec::new();
            let mut nk = Vec::with_capacity(n);
            for _block in 0..n / 8 {
                let (even, odd) = (2 * rng.below(4) as usize, 2 * rng.below(4) as usize + 1);
                for offset in 0..8 {
                    if offset == even || offset == odd {
                        if depths.is_empty() {
                            depths = vec![11, 12, 13];
                            rng.shuffle(&mut depths);
                        }
                        nk.push((depths.pop().expect("refilled"), 5));
                    } else {
                        nk.push((3 + rng.below(5) as i64, 1 + rng.below(2) as i64));
                    }
                }
            }
            nk.iter()
                .enumerate()
                .map(|(i, &(n, k))| Item {
                    seed: i as u64,
                    inputs: vec![int_row(n), int_row(k)],
                })
                .collect()
        }
        Workload::EchoSmall => (0..n)
            .map(|i| Item {
                seed: i as u64,
                inputs: vec![int_row(rng.below(2_000_001) as i64 - 1_000_000)],
            })
            .collect(),
        Workload::PayloadWide => (0..n)
            .map(|i| {
                let q: Vec<f64> = (0..WIDE_LEN).map(|_| 2.0 * rng.next_f64() - 1.0).collect();
                Item {
                    seed: i as u64,
                    inputs: vec![Tensor::from_f64(&q, &[1, WIDE_LEN]).expect("wide row")],
                }
            })
            .collect(),
        Workload::NutsLogistic => {
            let (_, nuts) = built.nuts.as_ref().expect("built for nuts_logistic");
            let draws = CounterRng::new(seed);
            (0..n)
                .map(|i| {
                    let q0 = draws
                        .normal_batch(&[i as i64], &[LOGISTIC_DIM])
                        .mul(&Tensor::scalar(0.1))
                        .expect("scale");
                    Item {
                        seed: i as u64,
                        inputs: nuts.request_inputs(&q0).expect("chain inputs"),
                    }
                })
                .collect()
        }
    }
}

/// The one request every freshly started server is asked before its
/// set-up counts as done (`setup_s`): cheap, and the same whatever the
/// `--seed`, so that set-up time is the program's and not the input's.
pub fn probe(w: Workload, built: &Built) -> Item {
    match w {
        // Position 0 of a `binom_divergent` pool may hold a straggler.
        Workload::BinomDivergent => Item {
            seed: 0,
            inputs: vec![int_row(5), int_row(2)],
        },
        _ => pool(w, 0, built).swap_remove(0),
    }
}

/// `C(n, k)` in closed form (exact: every partial product divides).
pub fn binomial(n: i64, k: i64) -> i64 {
    if k <= 0 || k >= n {
        return 1;
    }
    let k = k.min(n - k);
    (1..=k).fold(1i64, |acc, i| acc * (n - k + i) / i)
}

/// The oracle: the expected reply to every pooled request, computed
/// outside the serving path (closed form, plain Rust, or the native
/// one-chain-at-a-time sampler). Also returns how many model gradients
/// the pool costs in total (NUTS only, else 0).
pub fn oracle(w: Workload, built: &Built, pool: &[Item]) -> (Vec<Expected>, u64) {
    let scalar = |t: &Tensor| t.as_i64().expect("int input")[0];
    match w {
        Workload::BinomDivergent => {
            let exp = pool
                .iter()
                .map(|it| Expected::Int(binomial(scalar(&it.inputs[0]), scalar(&it.inputs[1]))))
                .collect();
            (exp, 0)
        }
        Workload::EchoSmall => {
            let exp = pool
                .iter()
                .map(|it| Expected::Int(scalar(&it.inputs[0]) + 1))
                .collect();
            (exp, 0)
        }
        Workload::PayloadWide => {
            let exp = pool
                .iter()
                .map(|it| {
                    let q = it.inputs[0].as_f64().expect("float input");
                    Expected::Floats(vec![q.iter().map(|x| x * x).sum()])
                })
                .collect();
            (exp, 0)
        }
        Workload::NutsLogistic => {
            let (model, nuts) = built.nuts.as_ref().expect("built for nuts_logistic");
            let native = NativeNuts::new(model.as_ref(), nuts.config());
            // Two oracle threads: the chains are independent and the
            // timed phases have not started.
            let run = |items: &[Item]| -> Vec<(Expected, u64)> {
                items
                    .iter()
                    .map(|it| {
                        let q0 = it.inputs[0].reshape(&[LOGISTIC_DIM]).expect("row");
                        let (q, stats) = native.run_chain(&q0, it.seed, None).expect("chain");
                        (
                            Expected::Floats(q.as_f64().expect("position").to_vec()),
                            stats.grads,
                        )
                    })
                    .collect()
            };
            let (a, b) = pool.split_at(pool.len() / 2);
            let (ra, rb) = std::thread::scope(|s| {
                let h = s.spawn(|| run(a));
                let rb = run(b);
                (h.join().expect("oracle thread"), rb)
            });
            let grads = ra.iter().chain(&rb).map(|(_, g)| g).sum();
            (ra.into_iter().chain(rb).map(|(e, _)| e).collect(), grads)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(
                w.why().len() <= 200,
                "why of {} fits the contract",
                w.name()
            );
            assert_eq!(w.replay_n() % crate::probes::CHUNK, 0);
            assert!(w.replay_n() <= w.pool_size());
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn closed_form_binomial() {
        assert_eq!(binomial(13, 5), 1287);
        assert_eq!(binomial(7, 2), 21);
        assert_eq!(binomial(5, 0), 1);
        assert_eq!(binomial(5, 5), 1);
        assert_eq!(
            binomial(3, 7),
            1,
            "k >= n takes the base case, as the program does"
        );
    }

    fn flat(items: &[Item]) -> Vec<(u64, Vec<Tensor>)> {
        items
            .iter()
            .map(|it| (it.seed, it.inputs.clone()))
            .collect()
    }

    #[test]
    fn pools_are_deterministic_and_seeded() {
        for w in Workload::ALL {
            let built = build(w);
            let a = pool(w, 11, &built);
            assert_eq!(a.len(), w.pool_size());
            assert_eq!(flat(&a), flat(&pool(w, 11, &built)), "{}", w.name());
            assert_ne!(flat(&a), flat(&pool(w, 12, &built)), "{}", w.name());
        }
    }

    #[test]
    fn binom_pool_offers_every_seed_the_same_stragglers() {
        let built = build(Workload::BinomDivergent);
        let count = |seed| {
            let mut by_n = [0usize; 3];
            for it in pool(Workload::BinomDivergent, seed, &built) {
                let n = it.inputs[0].as_i64().unwrap()[0];
                if n >= 11 {
                    by_n[(n - 11) as usize] += 1;
                }
            }
            by_n
        };
        for seed in [1, 2] {
            let by_n = count(seed);
            assert_eq!(by_n.iter().sum::<usize>(), 128, "one request in four");
            assert!(by_n.iter().all(|&c| c == 42 || c == 43), "{by_n:?}");
        }
    }

    #[test]
    fn expected_matches_only_the_right_answer() {
        let e = Expected::Int(21);
        assert!(e.matches(&[int_row(21)]));
        assert!(!e.matches(&[int_row(22)]));
        assert!(!e.matches(&[]));
        let f = Expected::Floats(vec![1.0, 2.0]);
        let t = |v: &[f64]| Tensor::from_f64(v, &[1, v.len()]).unwrap();
        assert!(f.matches(&[t(&[1.0, 2.0 + 1e-13])]));
        assert!(!f.matches(&[t(&[1.0, 2.0 + 1e-9])]));
        assert!(!f.matches(&[t(&[1.0])]));
        assert!(!f.matches(&[int_row(1)]));
    }
}
