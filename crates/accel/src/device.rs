//! Simulated hardware devices.
//!
//! The paper's evaluation ran on an 88-core CPU and a Tesla P100 GPU. We
//! cannot access that testbed, so the benchmarks execute on analytic
//! device models parameterized by the four quantities that drive the
//! shapes of the paper's figures: SIMD lane count, per-lane throughput,
//! scalar throughput, and memory bandwidth.

/// An analytic model of one execution device.
///
/// Work is priced wave-by-wave: a kernel over `E` independent elements
/// runs in `ceil(E / lanes)` waves, each costing
/// `flops_per_element / lane_flops` seconds. Throughput therefore scales
/// linearly with batch size until the lanes saturate and is flat
/// afterwards — precisely the behaviour Figure 5 reports.
#[derive(Debug, Clone, Copy)]
pub struct Device {
    /// Human-readable device name.
    pub name: &'static str,
    /// Number of parallel SIMD lanes (vector units × cores for a CPU,
    /// resident threads for a GPU).
    pub lanes: usize,
    /// Sustained per-lane throughput in flop/s when running vectorized.
    pub lane_flops: f64,
    /// Sustained throughput in flop/s of *scalar* (non-SIMD, single-core)
    /// native code, used to price the Stan-like baseline.
    pub scalar_flops: f64,
    /// Main-memory bandwidth in bytes/s.
    pub mem_bw: f64,
}

impl Device {
    /// An 88-core server CPU comparable to the paper's shared host:
    /// 88 cores × 4-wide SIMD at ~2 GHz in the paper's 32-bit precision
    /// (§4.1: "in 32-bit floating-point precision").
    pub fn cpu_88core() -> Device {
        Device {
            name: "cpu-88core",
            lanes: 88 * 4,
            lane_flops: 4.0e9,
            scalar_flops: 3.0e9,
            mem_bw: 100.0e9,
        }
    }

    /// A Tesla-P100-class GPU: ~1.8k f64 cores at ~0.66 GHz effective
    /// (≈ 4.7 Tflop/s f64 peak scaled to a sustained ~1.2 Tflop/s),
    /// 500 GB/s HBM2.
    pub fn gpu_p100() -> Device {
        Device {
            name: "gpu-p100",
            lanes: 56 * 1024,
            lane_flops: 8.0e7,
            scalar_flops: 1.0e8,
            mem_bw: 500.0e9,
        }
    }

    /// Time in seconds to execute `flops` of work spread evenly over
    /// `parallel` independent elements, using the vectorized lanes.
    ///
    /// `parallel == 0` costs nothing.
    pub fn vector_time(&self, flops: f64, parallel: usize) -> f64 {
        if parallel == 0 || flops <= 0.0 {
            return 0.0;
        }
        let waves = parallel.div_ceil(self.lanes) as f64;
        let flops_per_elem = flops / parallel as f64;
        waves * flops_per_elem / self.lane_flops
    }

    /// Time in seconds to execute `flops` of scalar native code.
    pub fn scalar_time(&self, flops: f64) -> f64 {
        flops.max(0.0) / self.scalar_flops
    }

    /// Time in seconds to move `bytes` of sequential memory traffic.
    pub fn mem_time(&self, bytes: f64) -> f64 {
        bytes.max(0.0) / self.mem_bw
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_time_scales_with_waves() {
        let d = Device {
            name: "toy",
            lanes: 4,
            lane_flops: 1.0,
            scalar_flops: 1.0,
            mem_bw: 1.0,
        };
        // 4 elements, 1 flop each: one wave of 1 second.
        assert_eq!(d.vector_time(4.0, 4), 1.0);
        // 5 elements: two waves.
        assert_eq!(d.vector_time(5.0, 5), 2.0);
        // 1 element costs the same as a full wave per flop.
        assert_eq!(d.vector_time(1.0, 1), 1.0);
        // Below-lane batches are "free" parallelism: 2 elems at 1 flop
        // each take one wave.
        assert_eq!(d.vector_time(2.0, 2), 1.0);
    }

    #[test]
    fn zero_work_is_free() {
        let d = Device::cpu_88core();
        assert_eq!(d.vector_time(0.0, 10), 0.0);
        assert_eq!(d.vector_time(10.0, 0), 0.0);
        assert_eq!(d.scalar_time(0.0), 0.0);
        assert_eq!(d.mem_time(0.0), 0.0);
    }

    #[test]
    fn presets_are_sane() {
        let cpu = Device::cpu_88core();
        let gpu = Device::gpu_p100();
        // GPU has far more parallel throughput; CPU wins scalar.
        assert!(gpu.lanes as f64 * gpu.lane_flops > cpu.lanes as f64 * cpu.lane_flops);
        assert!(cpu.scalar_flops > gpu.scalar_flops);
        assert!(gpu.mem_bw > cpu.mem_bw);
    }

    #[test]
    fn gpu_saturates_later_than_cpu() {
        let cpu = Device::cpu_88core();
        let gpu = Device::gpu_p100();
        // In the saturated regime (both devices run many waves) the GPU's
        // larger aggregate throughput wins; at small batches the CPU's
        // faster lanes win. That is the crossover shape of Figure 5.
        let per_elem = 1000.0;
        let big = 1 << 20;
        assert!(
            cpu.vector_time(per_elem * big as f64, big)
                > gpu.vector_time(per_elem * big as f64, big)
        );
        let small = 64;
        assert!(
            cpu.vector_time(per_elem * small as f64, small)
                < gpu.vector_time(per_elem * small as f64, small)
        );
    }
}
