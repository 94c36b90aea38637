//! The per-request cost ledger: where one request's share of the
//! end-to-end time goes, layer by layer.
//!
//! The replay is an onion. The same chunks of 16 pooled requests go
//! through successively larger entry points — a bare `PcMachine` (8
//! lanes, one chunk half at a time), one `BatchServer` per half, the
//! 2-shard `ShardedServer`, the `Supervisor` — and a layer's *self time*
//! is its span minus the part its child covers. The two shard halves run
//! in parallel, so a shard round's child is the **longer** half: the
//! ledger follows the blocking path, in wall-clock time per request.
//! The outermost layer, `ingress`, is what the TCP run adds over the
//! supervised replay; the share of the end-to-end time that is neither
//! replayed work nor measured wire work is reported as unattributed —
//! it is time spent waiting (socket latency, channel hops, poll ticks).

/// Span totals of one onion pass, in microseconds, summed over chunks.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnionPass {
    /// Requests the pass replayed.
    pub requests: usize,
    /// `Supervisor` submit + drive, all chunks.
    pub supervisor_us: f64,
    /// `ShardedServer` submit + drive, all chunks.
    pub shard_us: f64,
    /// `BatchServer` submit + drive, the longer half of each chunk.
    pub batch_server_us: f64,
    /// `PcMachine::admit_batch` on that half.
    pub vm_admit_us: f64,
    /// `PcMachine::step` until nothing runs, on that half.
    pub vm_step_us: f64,
    /// `PcMachine::retire_finished` on that half.
    pub vm_retire_us: f64,
}

/// Wall-clock microseconds per request, by layer. The eight rows from
/// `ingress_self_us` down sum to `e2e_us`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Ledger {
    /// One request's share of the saturated server: 1e6 / throughput.
    pub e2e_us: f64,
    /// What the TCP run adds over the supervised replay.
    pub ingress_self_us: f64,
    /// `Supervisor` minus the fleet under it.
    pub supervisor_self_us: f64,
    /// A shard round minus its longer half's `BatchServer`.
    pub shard_self_us: f64,
    /// `BatchServer` minus the machine under it.
    pub batch_server_self_us: f64,
    /// Admission into the machine.
    pub vm_admit_us: f64,
    /// Supersteps.
    pub vm_step_us: f64,
    /// Retirement.
    pub vm_retire_us: f64,
    /// Share of `e2e_us` that no replayed or measured work explains:
    /// `(ingress_self_us - wire_work_us) / e2e_us`.
    pub unattributed_share: f64,
}

/// Reduce an onion pass, the saturation throughput of the TCP run and
/// the measured wire work per request (encode, decode and frame I/O, in
/// microseconds) to the ledger.
pub fn ledger(throughput_rps: f64, pass: &OnionPass, wire_work_us: f64) -> Ledger {
    let n = pass.requests.max(1) as f64;
    let e2e_us = 1e6 / throughput_rps;
    let supervisor = pass.supervisor_us / n;
    let shard = pass.shard_us / n;
    let batch_server = pass.batch_server_us / n;
    let (admit, step, retire) = (
        pass.vm_admit_us / n,
        pass.vm_step_us / n,
        pass.vm_retire_us / n,
    );
    let ingress_self_us = e2e_us - supervisor;
    Ledger {
        e2e_us,
        ingress_self_us,
        supervisor_self_us: supervisor - shard,
        shard_self_us: shard - batch_server,
        batch_server_self_us: batch_server - (admit + step + retire),
        vm_admit_us: admit,
        vm_step_us: step,
        vm_retire_us: retire,
        unattributed_share: (ingress_self_us - wire_work_us) / e2e_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass() -> OnionPass {
        OnionPass {
            requests: 16,
            supervisor_us: 16.0 * 900.0,
            shard_us: 16.0 * 800.0,
            batch_server_us: 16.0 * 500.0,
            vm_admit_us: 16.0 * 20.0,
            vm_step_us: 16.0 * 400.0,
            vm_retire_us: 16.0 * 30.0,
        }
    }

    #[test]
    fn rows_sum_to_the_end_to_end_time() {
        let l = ledger(1000.0, &pass(), 40.0);
        assert_eq!(l.e2e_us, 1000.0);
        assert_eq!(l.ingress_self_us, 100.0);
        assert_eq!(l.supervisor_self_us, 100.0);
        assert_eq!(l.shard_self_us, 300.0);
        assert_eq!(l.batch_server_self_us, 50.0);
        let sum = l.ingress_self_us
            + l.supervisor_self_us
            + l.shard_self_us
            + l.batch_server_self_us
            + l.vm_admit_us
            + l.vm_step_us
            + l.vm_retire_us;
        assert!((sum - l.e2e_us).abs() < 1e-9);
        assert!((l.unattributed_share - 0.06).abs() < 1e-12);
    }

    #[test]
    fn a_latency_bound_server_shows_its_waiting() {
        // 690 µs per request end to end, 30 µs of it replayable work:
        // nearly everything is waiting, and the ledger says so.
        let mut p = pass();
        p.supervisor_us = 16.0 * 30.0;
        let l = ledger(1e6 / 690.0, &p, 5.0);
        assert!(l.unattributed_share > 0.9);
    }
}
