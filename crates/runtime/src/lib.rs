//! # ss-runtime — parallel loop runtime and sparse-matrix substrate
//!
//! The execution substrate for the paper's evaluation: one persistent
//! worker-thread team per group ([`team`]) — the only code that creates
//! compute threads, with an in-region barrier for phased work and the one
//! loop that deals a region's iterations to its members
//! ([`Member::share`]) — the OpenMP-style `parallel for` entry points that
//! run on it ([`pool`]), CSR sparse matrices with the
//! subscripted-subscript kernels and the views a region's members share
//! an array through ([`sparse`]: [`atomic_cells`], [`BlockedVec`]), and
//! wall clock timing helpers ([`timer`]).  The `unsafe` code of the
//! parallel path lives in this crate; `ss-interp` and `ss-inspector`
//! forbid it.

pub mod pool;
pub mod sparse;
pub mod team;
pub mod timer;

pub use pool::{chunk_range, hardware_threads, parallel_for, parallel_for_mut, Schedule};
pub use sparse::{atomic_cells, BlockedVec, CsrMatrix, Word};
pub use team::{
    team_parallel_for_schedule, team_parallel_reduce, team_threads_spawned, with_shared_team,
    with_shared_team_in, Member, RegionAborted, ThreadTeam,
};
pub use timer::{time_it, Timer};
