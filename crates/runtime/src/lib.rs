//! # ss-runtime — parallel loop runtime and sparse-matrix substrate
//!
//! The execution substrate for the paper's evaluation: one persistent
//! worker-thread team per size ([`team`]) — the only code that creates
//! compute threads, with an in-region barrier for phased work — the
//! OpenMP-style `parallel for` entry points that run on it ([`pool`]), CSR sparse matrices with the subscripted-subscript
//! kernels ([`sparse`]), and wall clock timing helpers ([`timer`]).

pub mod pool;
pub mod sparse;
pub mod team;
pub mod timer;

pub use pool::{
    chunk_range, chunk_ranges, hardware_threads, parallel_for, parallel_for_mut, Schedule,
};
pub use sparse::{BlockedVec, CsrMatrix};
pub use team::{
    shared_team_count, team_parallel_for_schedule, team_parallel_reduce, team_threads_spawned,
    with_shared_team, with_shared_team_in, Member, RegionAborted, ThreadTeam,
};
pub use timer::{time_it, Timer};
