//! Umbrella crate for the subscripted-subscripts reproduction.
//!
//! Re-exports every workspace crate under one roof so the integration tests
//! in `tests/`, the runnable examples in `examples/` and downstream users
//! have a single dependency to point at.  See the README for the crate
//! graph; each `ss_*` module below is an independently usable crate.
//!
//! The stable embeddable surface — [`Session`], [`RunRequest`],
//! [`RunOutcome`], the [`Engine`] registry and the unified [`SsError`] —
//! is re-exported at the root: `use subscripted_subscripts::Session;` is
//! all an embedder needs.

pub use ss_interp::{
    Engine, EngineCaps, EngineRegistry, RunOutcome, RunRequest, Session, SsError, ValidationMode,
};

pub use ss_aggregation as aggregation;
pub use ss_cli as cli;
pub use ss_daemon as daemon;
pub use ss_deptest as deptest;
pub use ss_inspector as inspector;
pub use ss_interp as interp;
pub use ss_ir as ir;
pub use ss_npb as npb;
pub use ss_parallelizer as parallelizer;
pub use ss_properties as properties;
pub use ss_rangeprop as rangeprop;
pub use ss_runtime as runtime;
pub use ss_symbolic as symbolic;
