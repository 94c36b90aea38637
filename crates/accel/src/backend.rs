//! Execution backend configurations.
//!
//! A backend pairs a [`Device`] with a *dispatch profile* describing how
//! the host drives kernels. The profiles encode the distinctions the
//! paper's Figure 5 measures:
//!
//! - **Eager**: every primitive is a separate kernel launch paying full
//!   framework dispatch overhead (TensorFlow Eager in the paper);
//! - **XLA**: basic blocks are fused into single kernels with small
//!   launch overhead; stack pushes/pops are *functional* updates that
//!   copy the whole stack buffer (as XLA's static-shape tensors do);
//! - **Hybrid**: XLA-fused basic blocks driven by eager host control,
//!   paying host-side per-superstep overhead but avoiding functional
//!   stack updates (the control language keeps the stacks);
//! - **Native**: scalar native code with negligible dispatch — the
//!   Stan-like baseline.

use crate::device::Device;

/// How the host dispatches work to the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DispatchMode {
    /// One launch per primitive op, full framework overhead.
    Eager,
    /// One launch per fused basic block, compiled overhead.
    Xla,
    /// Fused blocks + eager host control between supersteps.
    Hybrid,
    /// Scalar native code (no kernel launches at all).
    Native,
}

/// A fully specified execution backend for the cost model.
#[derive(Debug, Clone, Copy)]
pub struct Backend {
    /// Display name, e.g. `"pc-xla-gpu"`.
    pub name: &'static str,
    /// The hardware model.
    pub device: Device,
    /// The dispatch style.
    pub mode: DispatchMode,
    /// Host-side cost of one kernel launch, seconds.
    pub launch_overhead: f64,
    /// Host-side cost per runtime superstep (block selection, mask
    /// computation, Python-style interpreter overhead), seconds.
    pub superstep_overhead: f64,
    /// Whether stack updates are functional (copy the whole `[Z, D, ..]`
    /// buffer) as under XLA's static-shape discipline, or in-place.
    pub functional_stack_updates: bool,
    /// Multiplier on memory traffic for random-access gather/scatter
    /// relative to sequential streams.
    pub gather_penalty: f64,
    /// Whether compute is priced at scalar (non-SIMD) throughput.
    pub scalar_compute: bool,
}

impl Backend {
    /// TensorFlow-Eager-style backend: high per-primitive dispatch cost.
    pub fn eager(device: Device, name: &'static str) -> Backend {
        Backend {
            name,
            device,
            mode: DispatchMode::Eager,
            launch_overhead: 2e-3,
            superstep_overhead: 10e-3,
            functional_stack_updates: false,
            gather_penalty: 4.0,
            scalar_compute: false,
        }
    }

    /// Fully XLA-compiled backend: cheap fused-block launches, but
    /// functional (whole-buffer) stack updates.
    pub fn xla(device: Device, name: &'static str) -> Backend {
        Backend {
            name,
            device,
            mode: DispatchMode::Xla,
            launch_overhead: 20e-6,
            superstep_overhead: 3e-3,
            functional_stack_updates: true,
            gather_penalty: 4.0,
            scalar_compute: false,
        }
    }

    /// Hybrid backend: XLA-fused blocks under eager host control.
    pub fn hybrid(device: Device, name: &'static str) -> Backend {
        Backend {
            name,
            device,
            mode: DispatchMode::Hybrid,
            launch_overhead: 5e-3,
            superstep_overhead: 10e-3,
            functional_stack_updates: false,
            gather_penalty: 4.0,
            scalar_compute: false,
        }
    }

    /// Native scalar backend (the Stan-like baseline).
    pub fn native(device: Device, name: &'static str) -> Backend {
        Backend {
            name,
            device,
            mode: DispatchMode::Native,
            launch_overhead: 5e-9,
            superstep_overhead: 0.0,
            functional_stack_updates: false,
            gather_penalty: 1.0,
            scalar_compute: true,
        }
    }

    /// The five named configurations of the paper's Figure 5, on CPU.
    pub fn eager_cpu() -> Backend {
        Backend::eager(Device::cpu_88core(), "eager-cpu")
    }

    /// XLA-compiled CPU backend.
    pub fn xla_cpu() -> Backend {
        Backend::xla(Device::cpu_88core(), "xla-cpu")
    }

    /// Hybrid CPU backend.
    pub fn hybrid_cpu() -> Backend {
        Backend::hybrid(Device::cpu_88core(), "hybrid-cpu")
    }

    /// Native scalar CPU backend (Stan stand-in).
    pub fn native_cpu() -> Backend {
        Backend::native(Device::cpu_88core(), "native-cpu")
    }

    /// Eager GPU backend.
    pub fn eager_gpu() -> Backend {
        Backend::eager(Device::gpu_p100(), "eager-gpu")
    }

    /// XLA-compiled GPU backend.
    pub fn xla_gpu() -> Backend {
        Backend::xla(Device::gpu_p100(), "xla-gpu")
    }

    /// Hybrid GPU backend.
    pub fn hybrid_gpu() -> Backend {
        Backend::hybrid(Device::gpu_p100(), "hybrid-gpu")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_ordering_matches_paper_narrative() {
        // Within a compiled program, per-launch cost is smallest (XLA);
        // eager per-primitive dispatch and the hybrid's per-fused-kernel
        // invocation cost (paper §4.1 hypothesis 4) are both much larger;
        // native code pays essentially nothing.
        assert!(Backend::eager_cpu().launch_overhead > Backend::xla_cpu().launch_overhead);
        assert!(Backend::hybrid_cpu().launch_overhead > Backend::xla_cpu().launch_overhead);
        assert!(Backend::native_cpu().launch_overhead < Backend::xla_cpu().launch_overhead);
    }

    #[test]
    fn xla_uses_functional_stacks() {
        assert!(Backend::xla_cpu().functional_stack_updates);
        assert!(!Backend::hybrid_cpu().functional_stack_updates);
        assert!(!Backend::eager_cpu().functional_stack_updates);
    }

    #[test]
    fn names_are_distinct() {
        let names = [
            Backend::eager_cpu().name,
            Backend::xla_cpu().name,
            Backend::hybrid_cpu().name,
            Backend::native_cpu().name,
            Backend::eager_gpu().name,
            Backend::xla_gpu().name,
            Backend::hybrid_gpu().name,
        ];
        let mut unique = names.to_vec();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
    }
}
