//! The wall-clock serving benchmark described by `../BENCHMARK.json`:
//! four workloads served by a real `IngressServer` child over loopback
//! TCP, six end-to-end metrics from an untraced run, and an outside-in
//! per-layer ledger from a traced run. `README.md` in this directory is
//! the manual.

#![warn(missing_docs)]

pub mod alloc;
pub mod json;
pub mod ledger;
pub mod loadgen;
pub mod metrics;
pub mod probes;
pub mod report;
pub mod run;
pub mod server;
pub mod stats;
pub mod sys;
pub mod workload;
