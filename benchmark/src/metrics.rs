//! The metric catalogue: every name the benchmark prints, with its unit
//! and direction. `BENCHMARK.json` lists the same names (a test holds
//! the two together) and adds the regression bound of each end-to-end
//! metric.

/// One metric of the catalogue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// The name, as printed and as claimed against.
    pub name: &'static str,
    /// The unit of its value.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the served system sees, per workload, from the
/// untraced run.
pub const END_TO_END: &[MetricDef] = &[
    def("throughput_rps", "1/s", "higher"),
    def("midmean_latency_ms", "ms", "lower"),
    def("cpu_ms_per_req", "ms", "lower"),
    def("peak_rss_mb", "MiB", "lower"),
    def("setup_s", "s", "lower"),
];

/// Single-layer numbers from the traced run; layer = crate name. They
/// carry no bound: they explain a move in an end-to-end metric, they do
/// not gate one. Metrics that do not apply to a workload read 0.
pub const PER_LAYER: &[MetricDef] = &[
    // Three numbers a user of the system would see, kept here because
    // they cannot be gated: `failed_share` is 0 at the seed commit (a
    // bound relative to 0 means nothing; failures are carried by the
    // result's `failed` count and make the run incorrect); the paced
    // median sits between the two modes of a bimodal distribution (a
    // reply is on time or a delayed-ACK period late), where a small
    // change in the mix moves it a long way, and spread by 6-11% over
    // ten seeds on `nuts_logistic` where the mean of the middle half of
    // the same samples (`midmean_latency_ms`) spread by 2.5-5%; and the
    // paced p99 does not repeat within any bound the run length allows
    // (one 200 ms delayed-ACK stall in a run moves it by a factor of ten).
    def("failed_share", "share", "lower"),
    def("p50_latency_ms", "ms", "lower"),
    def("p99_latency_ms", "ms", "lower"),
    def("lang.compile_ms", "ms", "lower"),
    def("core.lower_ms", "ms", "lower"),
    def("ir.verify_ms", "ms", "lower"),
    def("nuts.build_ms", "ms", "lower"),
    def("tensor.gather_rows_ns", "ns", "lower"),
    def("tensor.scatter_rows_ns", "ns", "lower"),
    def("tensor.pad_rows_ns", "ns", "lower"),
    def("tensor.elementwise_ns", "ns", "lower"),
    def("tensor.dot_ns", "ns", "lower"),
    def("models.grad_us", "us", "lower"),
    def("models.logp_us", "us", "lower"),
    def("nuts.grads_per_req", "count", "lower"),
    def("core.supersteps_per_req", "count", "lower"),
    def("core.ns_per_superstep", "ns", "lower"),
    def("core.allocs_per_superstep", "count", "lower"),
    def("core.admit_us_per_req", "us", "lower"),
    def("core.retire_us_per_req", "us", "lower"),
    def("core.active_lane_share", "share", "higher"),
    def("core.vm_only_rps", "1/s", "higher"),
    def("core.batch1_rps", "1/s", "higher"),
    def("core.batching_gain", "ratio", "higher"),
    def("core.lane_move_us", "us", "lower"),
    def("accel.trace_overhead_share", "share", "lower"),
    def("serve.batch_server_rps", "1/s", "higher"),
    def("serve.poll_idle_ns", "ns", "lower"),
    def("serve.sharded_rps", "1/s", "higher"),
    def("serve.sharded_rps_affinity", "1/s", "higher"),
    def("serve.shard_scaling", "ratio", "higher"),
    def("serve.round_idle_us", "us", "lower"),
    def("serve.superstep_inflation", "ratio", "lower"),
    def("serve.migrations_per_kreq", "count", "lower"),
    def("serve.supervised_rps", "1/s", "higher"),
    def("serve.retries", "count", "lower"),
    def("serve.respawns", "count", "lower"),
    def("ingress.encode_request_ns", "ns", "lower"),
    def("ingress.decode_request_ns", "ns", "lower"),
    def("ingress.encode_response_ns", "ns", "lower"),
    def("ingress.decode_response_ns", "ns", "lower"),
    def("ingress.frame_io_ns", "ns", "lower"),
    def("ingress.request_bytes", "B", "lower"),
    def("ingress.response_bytes", "B", "lower"),
    def("ingress.lone_call_ms", "ms", "lower"),
    def("ingress.queue_wait_p50_ms", "ms", "lower"),
    def("ingress.queue_wait_p99_ms", "ms", "lower"),
    def("ingress.post_admit_p50_ms", "ms", "lower"),
    def("ingress.peak_buffered", "count", "lower"),
    def("ingress.shed", "count", "lower"),
    def("ingress.rejected", "count", "lower"),
    def("ingress.failed", "count", "lower"),
    def("ledger.e2e_us", "us", "lower"),
    def("ledger.ingress_self_us", "us", "lower"),
    def("ledger.supervisor_self_us", "us", "lower"),
    def("ledger.shard_self_us", "us", "lower"),
    def("ledger.batch_server_self_us", "us", "lower"),
    def("ledger.vm_admit_us", "us", "lower"),
    def("ledger.vm_step_us", "us", "lower"),
    def("ledger.vm_retire_us", "us", "lower"),
    def("ledger.unattributed_share", "share", "lower"),
    def("loadgen.lateness_p99_ms", "ms", "lower"),
    def("loadgen.lateness_max_ms", "ms", "lower"),
    def("env.loopback_rtt_us", "us", "lower"),
    def("env.calibration_ms", "ms", "lower"),
    def("env.nproc", "count", "higher"),
    def("trace.overhead_share", "share", "lower"),
];

/// A measured value of one catalogue metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Which metric.
    pub def: MetricDef,
    /// Its value, as measured.
    pub value: f64,
}

/// Pair `values` (name, value) with the catalogue `defs`, in catalogue
/// order. Panics if a name is missing or unknown: the set of metrics a
/// run prints is fixed, and a gap is a bug in the benchmark.
pub fn bind(defs: &[MetricDef], values: &[(&str, f64)]) -> Vec<Metric> {
    for (name, _) in values {
        assert!(
            defs.iter().any(|d| d.name == *name),
            "{name} is not in the metric catalogue"
        );
    }
    defs.iter()
        .map(|d| {
            let value = values
                .iter()
                .find(|(name, _)| *name == d.name)
                .unwrap_or_else(|| panic!("no value for {}", d.name))
                .1;
            Metric { def: *d, value }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} appears twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(matches!(d.better, "higher" | "lower"));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn bind_orders_by_catalogue() {
        let defs = &END_TO_END[..2];
        let m = bind(
            defs,
            &[("midmean_latency_ms", 2.0), ("throughput_rps", 1.0)],
        );
        assert_eq!(m[0].def.name, "throughput_rps");
        assert_eq!(m[1].value, 2.0);
    }

    #[test]
    #[should_panic(expected = "no value for")]
    fn bind_refuses_a_gap() {
        bind(&END_TO_END[..2], &[("throughput_rps", 1.0)]);
    }
}
