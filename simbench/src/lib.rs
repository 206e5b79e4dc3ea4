//! Benchmark of the CLIP simulator: host throughput, memory and the
//! model's headline result on three workloads, and per-layer host cost
//! from a separate traced run. See `README.md` for the workloads and
//! metrics, and `src/main.rs` for the command line.

pub mod checks;
pub mod host;
pub mod metrics;
pub mod replay;
pub mod report;
pub mod spans;
pub mod workloads;
