//! Kernel-launch tracing and simulated timing.
//!
//! The virtual machines report every kernel launch (and every runtime
//! superstep) to a [`Trace`], which prices it against a [`Backend`] and
//! accumulates simulated wall-clock time plus per-kernel utilization
//! statistics. Figure 5 reads `gradients / sim_time`; Figure 6 reads the
//! active-lane utilization of the gradient kernel.

use std::collections::BTreeMap;
use std::fmt;

use crate::backend::Backend;

/// One kernel launch reported by a runtime.
///
/// The tag is borrowed: runtimes report launches from their hot loop,
/// with tags they built once, and a [`Trace`] copies a tag only the
/// first time it sees it (and per event under [`Trace::recording`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaunchRecord<'a> {
    /// Kernel tag, e.g. `"add"`, `"grad"`, `"block:7"`, `"stack"`.
    pub kernel: &'a str,
    /// Total useful floating-point work in the launch (all lanes).
    pub flops: f64,
    /// Sequential memory traffic in bytes.
    pub bytes: f64,
    /// Random-access (gather/scatter) traffic in bytes.
    pub random_bytes: f64,
    /// Independent elements available for parallel execution
    /// (batch members × per-member elements).
    pub parallel: usize,
    /// Batch members whose results are actually used (active lanes).
    pub active_members: usize,
    /// Total batch members processed (active + masked-out).
    pub total_members: usize,
}

impl<'a> LaunchRecord<'a> {
    /// Convenience constructor for a compute-only launch.
    pub fn compute(kernel: &'a str, flops: f64, parallel: usize) -> LaunchRecord<'a> {
        LaunchRecord {
            kernel,
            flops,
            bytes: 0.0,
            random_bytes: 0.0,
            parallel,
            active_members: parallel,
            total_members: parallel,
        }
    }
}

/// Aggregate statistics for one kernel tag.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelStats {
    /// Number of launches.
    pub launches: u64,
    /// Total flops across launches.
    pub flops: f64,
    /// Total simulated seconds spent.
    pub time: f64,
    /// Sum of active batch members over launches.
    pub active_members: u64,
    /// Sum of total batch members over launches.
    pub total_members: u64,
}

impl KernelStats {
    /// Active-lane utilization in `[0, 1]`: the fraction of processed
    /// batch members whose results were used.
    pub fn utilization(&self) -> f64 {
        if self.total_members == 0 {
            1.0
        } else {
            self.active_members as f64 / self.total_members as f64
        }
    }
}

/// The owned copy of a [`LaunchRecord`] a recording trace keeps.
#[derive(Debug, Clone)]
struct Recorded {
    kernel: String,
    flops: f64,
    bytes: f64,
    random_bytes: f64,
    parallel: usize,
    active_members: usize,
    total_members: usize,
}

impl Recorded {
    fn of(rec: &LaunchRecord<'_>) -> Recorded {
        Recorded {
            kernel: rec.kernel.to_owned(),
            flops: rec.flops,
            bytes: rec.bytes,
            random_bytes: rec.random_bytes,
            parallel: rec.parallel,
            active_members: rec.active_members,
            total_members: rec.total_members,
        }
    }

    fn record(&self) -> LaunchRecord<'_> {
        LaunchRecord {
            kernel: &self.kernel,
            flops: self.flops,
            bytes: self.bytes,
            random_bytes: self.random_bytes,
            parallel: self.parallel,
            active_members: self.active_members,
            total_members: self.total_members,
        }
    }
}

/// One recorded event, for post-hoc re-pricing.
#[derive(Debug, Clone)]
enum Event {
    Launch(Recorded),
    Logical(Recorded),
    Superstep,
    /// Batch membership change: `joined` members admitted / `left`
    /// members retired, leaving `total_after` live members.
    Membership {
        joined: usize,
        left: usize,
        total_after: usize,
    },
    /// Lane migration: `moved_in` lanes injected / `moved_out` lanes
    /// extracted, leaving `total_after` live members. Kept separate from
    /// [`Event::Membership`] so a migrated lane is not double-counted as
    /// a fresh admission.
    Migration {
        moved_in: usize,
        moved_out: usize,
        total_after: usize,
    },
}

/// A priced execution trace.
#[derive(Debug, Clone)]
pub struct Trace {
    backend: Backend,
    sim_time: f64,
    launches: u64,
    supersteps: u64,
    members_admitted: u64,
    members_retired: u64,
    members_migrated_in: u64,
    members_migrated_out: u64,
    peak_members: usize,
    per_kernel: BTreeMap<String, KernelStats>,
    logical: BTreeMap<String, KernelStats>,
    events: Option<Vec<Event>>,
}

impl Trace {
    /// Start an empty trace priced against `backend`.
    pub fn new(backend: Backend) -> Trace {
        Trace {
            backend,
            sim_time: 0.0,
            launches: 0,
            supersteps: 0,
            members_admitted: 0,
            members_retired: 0,
            members_migrated_in: 0,
            members_migrated_out: 0,
            peak_members: 0,
            per_kernel: BTreeMap::new(),
            logical: BTreeMap::new(),
            events: None,
        }
    }

    /// Start a trace that additionally records every event, enabling
    /// [`Trace::replay_as`]. Recording is only meaningful when the replay
    /// target shares the original backend's *semantics* (dispatch mode
    /// and functional-stack flag) — e.g. pricing one XLA-mode run for
    /// both the CPU and the GPU device.
    pub fn recording(backend: Backend) -> Trace {
        let mut t = Trace::new(backend);
        t.events = Some(Vec::new());
        t
    }

    /// Re-price a recorded run under another backend.
    ///
    /// # Panics
    ///
    /// Panics if this trace was not created with [`Trace::recording`], or
    /// if the target backend disagrees on dispatch mode or functional
    /// stack updates (the recorded event stream would be wrong).
    pub fn replay_as(&self, backend: Backend) -> Trace {
        let events = self
            .events
            .as_ref()
            .expect("replay_as requires Trace::recording");
        assert_eq!(
            self.backend.mode, backend.mode,
            "replay target must share the dispatch mode"
        );
        assert_eq!(
            self.backend.functional_stack_updates, backend.functional_stack_updates,
            "replay target must share stack-update semantics"
        );
        let mut out = Trace::new(backend);
        for e in events {
            match e {
                Event::Launch(r) => {
                    out.launch(&r.record());
                }
                Event::Logical(r) => out.record_logical(&r.record()),
                Event::Superstep => out.superstep(),
                Event::Membership {
                    joined,
                    left,
                    total_after,
                } => out.membership(*joined, *left, *total_after),
                Event::Migration {
                    moved_in,
                    moved_out,
                    total_after,
                } => {
                    out.migrate_in(*moved_in, *total_after);
                    out.migrate_out(*moved_out, *total_after);
                }
            }
        }
        out
    }

    /// The backend this trace prices against.
    pub fn backend(&self) -> &Backend {
        &self.backend
    }

    /// Price one kernel launch and accumulate it. Returns the launch's
    /// simulated duration in seconds.
    pub fn launch(&mut self, rec: &LaunchRecord<'_>) -> f64 {
        let b = &self.backend;
        let compute = if b.scalar_compute {
            b.device.scalar_time(rec.flops)
        } else {
            b.device.vector_time(rec.flops, rec.parallel)
        };
        let mem =
            b.device.mem_time(rec.bytes) + b.device.mem_time(rec.random_bytes) * b.gather_penalty;
        // Compute and memory overlap on real hardware; dispatch does not.
        let t = b.launch_overhead + compute.max(mem);
        if let Some(ev) = self.events.as_mut() {
            ev.push(Event::Launch(Recorded::of(rec)));
        }
        self.sim_time += t;
        self.launches += 1;
        accumulate(&mut self.per_kernel, rec, t);
        t
    }

    /// Record *logical* per-kernel statistics without pricing any time.
    ///
    /// Runtimes report every primitive here regardless of kernel fusion,
    /// so utilization questions ("what fraction of gradient lanes were
    /// useful?", the paper's Figure 6) can be answered even when the
    /// timed launches are whole fused blocks.
    pub fn record_logical(&mut self, rec: &LaunchRecord<'_>) {
        if let Some(ev) = self.events.as_mut() {
            ev.push(Event::Logical(Recorded::of(rec)));
        }
        accumulate(&mut self.logical, rec, 0.0);
    }

    /// Record a batch-membership change: `joined` members admitted and
    /// `left` members retired, leaving `total_after` live members.
    ///
    /// Dynamic-admission runtimes report every admission/retirement here
    /// so launch accounting stays truthful as the member set changes: the
    /// per-launch `total_members` in subsequent [`LaunchRecord`]s reflects
    /// the new batch width, and this method keeps the aggregate admission
    /// counters and the peak batch size in sync.
    pub fn membership(&mut self, joined: usize, left: usize, total_after: usize) {
        if let Some(ev) = self.events.as_mut() {
            ev.push(Event::Membership {
                joined,
                left,
                total_after,
            });
        }
        self.members_admitted += joined as u64;
        self.members_retired += left as u64;
        self.peak_members = self.peak_members.max(total_after);
    }

    /// Record `moved_in` lanes injected by migration, leaving
    /// `total_after` live members. Migration is accounted separately
    /// from [`Trace::membership`] so "members admitted == requests"
    /// invariants survive rebalancing: a migrated lane was admitted
    /// exactly once, on its first shard.
    pub fn migrate_in(&mut self, moved_in: usize, total_after: usize) {
        if let Some(ev) = self.events.as_mut() {
            ev.push(Event::Migration {
                moved_in,
                moved_out: 0,
                total_after,
            });
        }
        self.members_migrated_in += moved_in as u64;
        self.peak_members = self.peak_members.max(total_after);
    }

    /// Record `moved_out` lanes extracted by migration, leaving
    /// `total_after` live members (see [`Trace::migrate_in`]).
    pub fn migrate_out(&mut self, moved_out: usize, total_after: usize) {
        if let Some(ev) = self.events.as_mut() {
            ev.push(Event::Migration {
                moved_in: 0,
                moved_out,
                total_after,
            });
        }
        self.members_migrated_out += moved_out as u64;
        self.peak_members = self.peak_members.max(total_after);
    }

    /// Total members ever admitted into the traced batch.
    pub fn members_admitted(&self) -> u64 {
        self.members_admitted
    }

    /// Total members retired (completed and compacted out).
    pub fn members_retired(&self) -> u64 {
        self.members_retired
    }

    /// Total lanes injected by cross-shard migration.
    pub fn members_migrated_in(&self) -> u64 {
        self.members_migrated_in
    }

    /// Total lanes extracted by cross-shard migration.
    pub fn members_migrated_out(&self) -> u64 {
        self.members_migrated_out
    }

    /// Largest live batch size observed across membership changes.
    pub fn peak_members(&self) -> usize {
        self.peak_members
    }

    /// Members currently live according to membership accounting:
    /// admitted plus migrated-in, minus retired and migrated-out. When
    /// every lane edit of a machine is traced, this is the machine's
    /// live lane count.
    pub fn live_members(&self) -> u64 {
        (self.members_admitted + self.members_migrated_in)
            .saturating_sub(self.members_retired + self.members_migrated_out)
    }

    /// Record one runtime superstep (block selection + host control).
    pub fn superstep(&mut self) {
        if let Some(ev) = self.events.as_mut() {
            ev.push(Event::Superstep);
        }
        self.sim_time += self.backend.superstep_overhead;
        self.supersteps += 1;
    }

    /// Add raw host-side time (e.g. one-off setup being measured).
    pub fn add_host_time(&mut self, seconds: f64) {
        self.sim_time += seconds;
    }

    /// Total simulated seconds so far.
    pub fn sim_time(&self) -> f64 {
        self.sim_time
    }

    /// Total kernel launches so far.
    pub fn launches(&self) -> u64 {
        self.launches
    }

    /// Total runtime supersteps so far.
    pub fn supersteps(&self) -> u64 {
        self.supersteps
    }

    /// Statistics for one kernel tag, if it was ever launched.
    pub fn kernel_stats(&self, kernel: &str) -> Option<&KernelStats> {
        self.per_kernel.get(kernel)
    }

    /// Iterate over all per-kernel statistics, ordered by tag.
    pub fn kernels(&self) -> impl Iterator<Item = (&str, &KernelStats)> {
        self.per_kernel.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Logical statistics for one kernel tag (fusion-independent).
    pub fn logical_stats(&self, kernel: &str) -> Option<&KernelStats> {
        self.logical.get(kernel)
    }

    /// Sum of `active_members` over logical records of `kernel` — e.g.
    /// the number of *useful* gradient evaluations when
    /// `kernel == "grad"`. Falls back to timed launches if the kernel was
    /// never logically recorded.
    pub fn useful_count(&self, kernel: &str) -> u64 {
        self.logical_stats(kernel)
            .or_else(|| self.kernel_stats(kernel))
            .map_or(0, |s| s.active_members)
    }

    /// Active-lane utilization of one kernel tag (1.0 if never seen),
    /// preferring fusion-independent logical records.
    pub fn utilization(&self, kernel: &str) -> f64 {
        self.logical_stats(kernel)
            .or_else(|| self.kernel_stats(kernel))
            .map_or(1.0, KernelStats::utilization)
    }

    /// Whether stack updates on this backend copy the whole buffer.
    pub fn functional_stack_updates(&self) -> bool {
        self.backend.functional_stack_updates
    }
}

/// Add one record, `time` seconds long, to its tag's row. Launches
/// arrive by the million under a few dozen tags, so the hit path is one
/// lookup and no allocation; a tag is copied the first time it is seen.
fn accumulate(table: &mut BTreeMap<String, KernelStats>, rec: &LaunchRecord<'_>, time: f64) {
    let add = |s: &mut KernelStats| {
        s.launches += 1;
        s.flops += rec.flops;
        s.time += time;
        s.active_members += rec.active_members as u64;
        s.total_members += rec.total_members as u64;
    };
    match table.get_mut(rec.kernel) {
        Some(s) => add(s),
        None => add(table.entry(rec.kernel.to_owned()).or_default()),
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "trace[{}]: {:.6}s, {} launches, {} supersteps",
            self.backend.name, self.sim_time, self.launches, self.supersteps
        )?;
        for (k, s) in &self.per_kernel {
            writeln!(
                f,
                "  {k}: {} launches, {:.3e} flops, {:.6}s, util {:.3}",
                s.launches,
                s.flops,
                s.time,
                s.utilization()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Backend;

    #[test]
    fn launch_accumulates_time_and_stats() {
        let mut tr = Trace::new(Backend::native_cpu());
        let t = tr.launch(&LaunchRecord::compute("grad", 3.0e9, 1));
        assert!(
            t > 0.9 && t < 1.1,
            "3 Gflops at 3 Gflop/s scalar ≈ 1 s, got {t}"
        );
        assert_eq!(tr.launches(), 1);
        assert_eq!(tr.kernel_stats("grad").unwrap().launches, 1);
        assert!(tr.sim_time() > 0.0);
    }

    #[test]
    fn utilization_tracks_active_lanes() {
        let mut tr = Trace::new(Backend::xla_cpu());
        tr.launch(&LaunchRecord {
            kernel: "grad",
            flops: 100.0,
            bytes: 0.0,
            random_bytes: 0.0,
            parallel: 4,
            active_members: 1,
            total_members: 4,
        });
        tr.launch(&LaunchRecord {
            kernel: "grad",
            flops: 100.0,
            bytes: 0.0,
            random_bytes: 0.0,
            parallel: 4,
            active_members: 3,
            total_members: 4,
        });
        assert_eq!(tr.utilization("grad"), 0.5);
        assert_eq!(tr.useful_count("grad"), 4);
        assert_eq!(tr.utilization("never-launched"), 1.0);
    }

    #[test]
    fn logical_records_cost_no_time_but_count_utilization() {
        let mut tr = Trace::new(Backend::xla_cpu());
        tr.record_logical(&LaunchRecord {
            kernel: "grad",
            flops: 100.0,
            bytes: 0.0,
            random_bytes: 0.0,
            parallel: 8,
            active_members: 2,
            total_members: 8,
        });
        assert_eq!(tr.sim_time(), 0.0);
        assert_eq!(tr.utilization("grad"), 0.25);
        assert_eq!(tr.useful_count("grad"), 2);
        // Logical stats take precedence over timed ones.
        tr.launch(&LaunchRecord::compute("grad", 100.0, 8));
        assert_eq!(tr.utilization("grad"), 0.25);
    }

    #[test]
    fn eager_dispatch_dominates_small_batches() {
        let mut eager = Trace::new(Backend::eager_cpu());
        let mut xla = Trace::new(Backend::xla_cpu());
        let rec = LaunchRecord::compute("add", 100.0, 1);
        let te = eager.launch(&rec);
        let tx = xla.launch(&rec);
        assert!(te > 10.0 * tx, "eager {te} vs xla {tx}");
    }

    #[test]
    fn supersteps_are_counted_and_priced() {
        let mut tr = Trace::new(Backend::hybrid_cpu());
        tr.superstep();
        tr.superstep();
        assert_eq!(tr.supersteps(), 2);
        assert_eq!(tr.sim_time(), 2.0 * tr.backend().superstep_overhead);
    }

    #[test]
    fn memory_and_compute_overlap() {
        // A launch that is memory-bound should cost ~memory time, not sum.
        let mut tr = Trace::new(Backend::xla_cpu());
        let bw = tr.backend().device.mem_bw;
        let t = tr.launch(&LaunchRecord {
            kernel: "copy",
            flops: 1.0,
            bytes: bw, // exactly one second of traffic
            random_bytes: 0.0,
            parallel: 1,
            active_members: 1,
            total_members: 1,
        });
        assert!((t - 1.0).abs() < 0.01, "t = {t}");
    }

    #[test]
    fn membership_counters_track_admission_and_peak() {
        let mut tr = Trace::recording(Backend::hybrid_cpu());
        tr.membership(4, 0, 4);
        tr.membership(2, 1, 5);
        tr.membership(0, 5, 0);
        assert_eq!(tr.members_admitted(), 6);
        assert_eq!(tr.members_retired(), 6);
        assert_eq!(tr.peak_members(), 5);
        // Membership survives replay.
        let re = tr.replay_as(Backend::hybrid_cpu());
        assert_eq!(re.members_admitted(), 6);
        assert_eq!(re.peak_members(), 5);
    }

    #[test]
    fn live_members_tracks_admission_minus_retirement() {
        let mut tr = Trace::new(Backend::hybrid_cpu());
        assert_eq!(tr.live_members(), 0);
        tr.membership(4, 0, 4);
        assert_eq!(tr.live_members(), 4);
        tr.membership(2, 3, 3);
        assert_eq!(tr.live_members(), 3);
        tr.membership(0, 3, 0);
        assert_eq!(tr.live_members(), 0);
    }

    #[test]
    fn migration_counters_are_separate_from_admission() {
        let mut tr = Trace::recording(Backend::hybrid_cpu());
        tr.membership(4, 0, 4);
        tr.migrate_out(2, 2);
        assert_eq!(tr.live_members(), 2);
        tr.migrate_in(1, 3);
        assert_eq!(tr.members_admitted(), 4, "migration is not admission");
        assert_eq!(tr.members_migrated_in(), 1);
        assert_eq!(tr.members_migrated_out(), 2);
        assert_eq!(tr.live_members(), 3);
        assert_eq!(tr.peak_members(), 4);
        // Migration survives replay.
        let re = tr.replay_as(Backend::hybrid_cpu());
        assert_eq!(re.members_migrated_in(), 1);
        assert_eq!(re.members_migrated_out(), 2);
    }

    #[test]
    fn display_lists_kernels() {
        let mut tr = Trace::new(Backend::native_cpu());
        tr.launch(&LaunchRecord::compute("grad", 10.0, 1));
        let s = tr.to_string();
        assert!(s.contains("grad"));
        assert!(s.contains("native-cpu"));
    }
}
