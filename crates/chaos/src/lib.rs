//! Deterministic, seed-replayable fault injection.
//!
//! The serving stack's robustness story (supervision, respawn, retry)
//! is only testable if failures are *reproducible*: a chaos test that
//! cannot replay the exact fault schedule that broke it is a flake
//! generator, not a test. This crate provides [`FaultPlan`], a tiny
//! `Copy` struct of per-site failure rates plus a seed, whose every
//! injection decision is a **pure function** of
//! `(seed, epoch, site, counter)` — no global state, no wall clock, no
//! thread-local RNG. Two runs with the same plan and the same counter
//! streams inject byte-identical fault schedules.
//!
//! # Design
//!
//! - Each injection site in the stack ([`FaultPoint`]) keeps its own
//!   monotonic counter (e.g. "supersteps executed", "frames read on
//!   this connection") and asks [`FaultPlan::fires`] whether the fault
//!   fires *at this counter value*. The decision hashes the counter
//!   rather than consuming shared RNG state, so adding a new site (or
//!   reordering calls) never perturbs the schedule of existing sites —
//!   the same property the paper's counter-based RNG gives program
//!   results under admission reordering.
//! - Rates are expressed in parts per 65 536 ([`FaultPlan::ALWAYS`]).
//!   A rate of `0` never fires and costs one predictable branch, so a
//!   default (all-zero) plan is safe to thread through hot paths.
//! - The `epoch` field decorrelates streams after recovery: a shard
//!   respawned by the supervisor gets the same seed but a fresh epoch
//!   ([`FaultPlan::with_epoch`]), so a deterministic plan does not
//!   re-kill the replacement at the exact same superstep forever.
//!
//! ```
//! use autobatch_chaos::{FaultPlan, FaultPoint};
//!
//! let plan = FaultPlan {
//!     seed: 7,
//!     exec_error: FaultPlan::ALWAYS / 8, // ~1/8 of supersteps fail
//!     ..FaultPlan::none()
//! };
//! let a: Vec<bool> = (0..64).map(|c| plan.fires(FaultPoint::ExecStep, c)).collect();
//! let b: Vec<bool> = (0..64).map(|c| plan.fires(FaultPoint::ExecStep, c)).collect();
//! assert_eq!(a, b); // replayable
//! assert!(a.iter().any(|&f| f));
//! assert!(!FaultPlan::none().fires(FaultPoint::ExecStep, 3)); // inert by default
//! ```

#![warn(missing_docs)]

/// Where in the stack a fault can be injected.
///
/// Each variant corresponds to one instrumented site; the site supplies
/// its own monotonic counter when calling [`FaultPlan::fires`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultPoint {
    /// A tensor-op execution error at the top of a VM superstep
    /// (before the block runs, so machine state stays consistent).
    ExecStep,
    /// A failure while submitting a request to a batch server.
    Admission,
    /// A shard worker thread panics outright.
    WorkerPanic,
    /// A shard worker stalls for an artificial delay before working.
    WorkerSlow,
    /// A wire frame has one byte flipped before decoding.
    WireCorrupt,
    /// A connection is cut mid-frame (truncated stream).
    WireTruncate,
    /// A lane becomes a runaway: instead of finishing, its pc is reset
    /// to the program entry at every exit, so the lane never terminates.
    /// Keyed by the lane's RNG member key (not a per-machine counter),
    /// so the same request runs away on every shard, under every
    /// placement, after every migration — respawn and retry cannot
    /// "heal" it, exactly like a genuinely non-terminating program.
    Runaway,
}

impl FaultPoint {
    /// Stable per-site tag mixed into the hash. Never reuse a value.
    fn tag(self) -> u64 {
        match self {
            FaultPoint::ExecStep => 0x01,
            FaultPoint::Admission => 0x02,
            FaultPoint::WorkerPanic => 0x03,
            FaultPoint::WorkerSlow => 0x04,
            FaultPoint::WireCorrupt => 0x05,
            FaultPoint::WireTruncate => 0x06,
            FaultPoint::Runaway => 0x07,
        }
    }

    /// Human-readable site name, used in injected error payloads.
    pub fn name(self) -> &'static str {
        match self {
            FaultPoint::ExecStep => "exec-step",
            FaultPoint::Admission => "admission",
            FaultPoint::WorkerPanic => "worker-panic",
            FaultPoint::WorkerSlow => "worker-slow",
            FaultPoint::WireCorrupt => "wire-corrupt",
            FaultPoint::WireTruncate => "wire-truncate",
            FaultPoint::Runaway => "runaway",
        }
    }
}

/// A seeded, deterministic fault schedule.
///
/// All decisions are pure functions of `(seed, epoch, site, counter)`;
/// see the [crate docs](crate) for the full contract. The default plan
/// is inert (all rates zero), so production paths can thread a
/// `FaultPlan` unconditionally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Master seed; one seed replays one complete fault schedule.
    pub seed: u64,
    /// Stream epoch. Respawned components bump this via
    /// [`with_epoch`](FaultPlan::with_epoch) so their fault stream
    /// decorrelates from the component they replaced.
    pub epoch: u64,
    /// Rate of [`FaultPoint::ExecStep`] faults, in parts per 65 536.
    pub exec_error: u32,
    /// Rate of [`FaultPoint::Admission`] faults.
    pub admit_error: u32,
    /// Rate of [`FaultPoint::WorkerPanic`] faults.
    pub worker_panic: u32,
    /// Rate of [`FaultPoint::WorkerSlow`] stalls.
    pub worker_slow: u32,
    /// Rate of [`FaultPoint::WireCorrupt`] byte flips.
    pub wire_corrupt: u32,
    /// Rate of [`FaultPoint::WireTruncate`] connection cuts.
    pub wire_truncate: u32,
    /// Rate of [`FaultPoint::Runaway`] non-terminating lanes. The
    /// counter for this site is the lane's RNG member key, so whether a
    /// given request runs away is a property of the request, stable
    /// across shards, retries, and migrations.
    pub runaway: u32,
    /// Ceiling on [`delay_micros`](FaultPlan::delay_micros) stalls, in
    /// microseconds. Defaults to 4000 (the natural 1–4 ms range), so
    /// plans that never touch the field behave as before; chaos sweeps
    /// lower it so an unlucky seed cannot stall a CI job past its
    /// `timeout-minutes`.
    pub max_slow_micros: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultPlan {
    /// Rate denominator: a rate of `ALWAYS` (or more) always fires.
    pub const ALWAYS: u32 = 1 << 16;

    /// The inert plan: no site ever fires, whatever the seed.
    pub const fn none() -> Self {
        FaultPlan {
            seed: 0,
            epoch: 0,
            exec_error: 0,
            admit_error: 0,
            worker_panic: 0,
            worker_slow: 0,
            wire_corrupt: 0,
            wire_truncate: 0,
            runaway: 0,
            max_slow_micros: 4000,
        }
    }

    /// The same plan on a different stream epoch.
    pub fn with_epoch(self, epoch: u64) -> Self {
        FaultPlan { epoch, ..self }
    }

    fn rate(&self, point: FaultPoint) -> u32 {
        match point {
            FaultPoint::ExecStep => self.exec_error,
            FaultPoint::Admission => self.admit_error,
            FaultPoint::WorkerPanic => self.worker_panic,
            FaultPoint::WorkerSlow => self.worker_slow,
            FaultPoint::WireCorrupt => self.wire_corrupt,
            FaultPoint::WireTruncate => self.wire_truncate,
            FaultPoint::Runaway => self.runaway,
        }
    }

    /// Does the fault at `point` fire on the site's `counter`-th event?
    ///
    /// Pure and stateless: the same `(plan, point, counter)` always
    /// returns the same answer.
    pub fn fires(&self, point: FaultPoint, counter: u64) -> bool {
        let rate = self.rate(point);
        if rate == 0 {
            return false;
        }
        if rate >= Self::ALWAYS {
            return true;
        }
        // Runaway is a property of the request (the counter is its RNG
        // member key), not of the component executing it: the same
        // request must run away on every shard, retry, and migration
        // target, so the component's stream epoch is deliberately left
        // out of this one roll.
        let roll = if point == FaultPoint::Runaway {
            FaultPlan { epoch: 0, ..*self }.roll(point, counter)
        } else {
            self.roll(point, counter)
        };
        (roll & 0xffff) < rate as u64
    }

    /// Deterministic stall length in microseconds for a
    /// [`FaultPoint::WorkerSlow`] event that fired: 1–4 ms, clamped to
    /// [`max_slow_micros`](FaultPlan::max_slow_micros) so a chaos sweep
    /// has a hard bound on the total stall it can inject.
    pub fn delay_micros(&self, counter: u64) -> u64 {
        let natural = 1000 + (self.roll(FaultPoint::WorkerSlow, counter) >> 16) % 3000;
        natural.min(self.max_slow_micros.max(1))
    }

    /// Which byte offset (modulo the frame length) a fired
    /// [`FaultPoint::WireCorrupt`] event flips.
    pub fn corrupt_offset(&self, counter: u64, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        ((self.roll(FaultPoint::WireCorrupt, counter) >> 16) % len as u64) as usize
    }

    /// One well-mixed 64-bit roll for `(seed, epoch, point, counter)`.
    fn roll(&self, point: FaultPoint, counter: u64) -> u64 {
        let mut x = self
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(self.epoch.wrapping_mul(0xbf58_476d_1ce4_e5b9))
            .wrapping_add(point.tag().wrapping_mul(0x94d0_49bb_1331_11eb))
            .wrapping_add(counter);
        // splitmix64 finalizer: full avalanche so nearby counters and
        // epochs produce statistically independent rolls.
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const POINTS: [FaultPoint; 7] = [
        FaultPoint::ExecStep,
        FaultPoint::Admission,
        FaultPoint::WorkerPanic,
        FaultPoint::WorkerSlow,
        FaultPoint::WireCorrupt,
        FaultPoint::WireTruncate,
        FaultPoint::Runaway,
    ];

    #[test]
    fn default_plan_never_fires() {
        let plan = FaultPlan::default();
        assert_eq!(plan, FaultPlan::none());
        for p in POINTS {
            for c in 0..1000 {
                assert!(!plan.fires(p, c));
            }
        }
    }

    #[test]
    fn always_rate_always_fires() {
        let plan = FaultPlan {
            seed: 42,
            exec_error: FaultPlan::ALWAYS,
            ..FaultPlan::none()
        };
        for c in 0..1000 {
            assert!(plan.fires(FaultPoint::ExecStep, c));
        }
    }

    #[test]
    fn decisions_are_replayable_and_seed_sensitive() {
        let mk = |seed| FaultPlan {
            seed,
            exec_error: FaultPlan::ALWAYS / 4,
            ..FaultPlan::none()
        };
        let sched = |plan: FaultPlan| -> Vec<bool> {
            (0..512)
                .map(|c| plan.fires(FaultPoint::ExecStep, c))
                .collect()
        };
        assert_eq!(sched(mk(1)), sched(mk(1)));
        assert_ne!(sched(mk(1)), sched(mk(2)));
    }

    #[test]
    fn rate_is_approximately_honored() {
        let plan = FaultPlan {
            seed: 9,
            worker_panic: FaultPlan::ALWAYS / 8,
            ..FaultPlan::none()
        };
        let fired = (0..100_000u64)
            .filter(|&c| plan.fires(FaultPoint::WorkerPanic, c))
            .count();
        let expect = 100_000 / 8;
        assert!(
            (fired as i64 - expect as i64).unsigned_abs() < expect as u64 / 5,
            "fired {fired} of 100000 at rate 1/8"
        );
    }

    #[test]
    fn sites_have_independent_streams() {
        let plan = FaultPlan {
            seed: 3,
            exec_error: FaultPlan::ALWAYS / 2,
            admit_error: FaultPlan::ALWAYS / 2,
            ..FaultPlan::none()
        };
        let a: Vec<bool> = (0..256)
            .map(|c| plan.fires(FaultPoint::ExecStep, c))
            .collect();
        let b: Vec<bool> = (0..256)
            .map(|c| plan.fires(FaultPoint::Admission, c))
            .collect();
        assert_ne!(a, b);
    }

    #[test]
    fn epochs_decorrelate_streams() {
        let plan = FaultPlan {
            seed: 5,
            worker_panic: FaultPlan::ALWAYS / 2,
            ..FaultPlan::none()
        };
        let a: Vec<bool> = (0..256)
            .map(|c| plan.fires(FaultPoint::WorkerPanic, c))
            .collect();
        let b: Vec<bool> = (0..256)
            .map(|c| plan.with_epoch(1).fires(FaultPoint::WorkerPanic, c))
            .collect();
        assert_ne!(a, b);
    }

    #[test]
    fn helpers_are_bounded() {
        let plan = FaultPlan {
            seed: 11,
            ..FaultPlan::none()
        };
        for c in 0..1000 {
            let d = plan.delay_micros(c);
            assert!((1000..4000).contains(&d), "delay {d}");
            assert!(plan.corrupt_offset(c, 16) < 16);
        }
        assert_eq!(plan.corrupt_offset(0, 0), 0);
    }

    #[test]
    fn slow_delays_respect_the_configured_ceiling() {
        let plan = FaultPlan {
            seed: 11,
            max_slow_micros: 1500,
            ..FaultPlan::none()
        };
        for c in 0..1000 {
            assert!(plan.delay_micros(c) <= 1500);
        }
        // A zero ceiling still stalls for at least a microsecond rather
        // than degenerating into a spin of zero-length sleeps.
        let zero = FaultPlan {
            max_slow_micros: 0,
            ..plan
        };
        for c in 0..100 {
            assert_eq!(zero.delay_micros(c), 1);
        }
    }
}
