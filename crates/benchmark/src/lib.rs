//! # ss-benchmark — `ssbench`, the repo's benchmark
//!
//! One reproducible spine that measures the system end to end and layer by
//! layer, from outside the layers: five named workloads, eleven named
//! end-to-end metrics with unit, direction and regression bound, every
//! output checked against an independent oracle, and a separate traced run
//! that attributes time to the layers by timing calls into their public
//! functions.  See `README.md` for the glossary; `BENCHMARK.json` at the
//! repo root is the driver's view of the same tables.

#![warn(missing_docs)]

pub mod compare;
pub mod gen;
pub mod host;
pub mod metrics;
pub mod record;
pub mod stats;
pub mod trace;
pub mod workloads;

/// `T = min(nproc, 4)`: threads of every parallel leg, and the most
/// generator threads or connections a workload ever uses.
pub fn team_threads() -> usize {
    ss_runtime::hardware_threads().min(4)
}
