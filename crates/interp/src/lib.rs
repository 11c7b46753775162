//! # ss-interp — executing analyzed programs, serially and in parallel
//!
//! The paper's central claim is that compile-time analysis of the code that
//! fills index arrays licenses parallel execution with **zero** runtime
//! machinery.  The rest of this workspace *analyzes* mini-C programs; this
//! crate *runs* them — and exposes the stable, embeddable API every
//! consumer (the `sspar` CLI, the fuzz harness, the benches, embedders)
//! drives:
//!
//! * [`session`] — [`Session`], the long-lived facade: a content-addressed
//!   artifact cache (compile once per program per process, with hit/miss
//!   counters), builder-style [`RunRequest`]s, structured [`RunOutcome`]s
//!   (final heap, stage timings, verdict summary, stable JSON), and the
//!   differential validation mode asserting every engine produces
//!   bit-identical final heaps;
//! * [`matrix`] — the legs that validation mode runs (every row × opt
//!   level × serial/parallel, plus an inspector-baseline leg) and the rule
//!   they must agree by, in one place;
//! * [`engine`] — the [`Engine`] trait and [`EngineRegistry`]: execution
//!   strategies as pluggable trait objects with capability flags.  Built
//!   in: the **wavefront** engine (default) running the direct-threaded
//!   handler chain lowered from `ss_ir::bytecode`, plus level sets on the
//!   carried loops the compile-time wavefront gate approves; the same
//!   chain without level sets (**threaded**); the flat register-machine
//!   stream itself (**bytecode**); the threaded chain at O1 again under
//!   the row name **compiled**, which the benchmark still reports; and the
//!   **tree-walking** reference engine — three executors, five rows.
//!   All consume precompiled [`Artifacts`](ss_parallelizer::Artifacts);
//!   all but the reference (serial on every leg) dispatch every
//!   proven-parallel loop onto `ss_runtime` worker threads;
//! * [`request`] — the run request schema, declared once: one table
//!   row per knob (wire key, CLI flag, type and bounds, surfaces, help)
//!   that the `sspar` flag parser, its `--help` and the `sspard` wire
//!   parser all walk;
//! * [`error`] — [`SsError`], the unified error spanning parse, analysis,
//!   compilation, execution and validation, with stable
//!   [`exit_code`](SsError::exit_code)s;
//! * [`heap`] — the typed heap all engines execute against (integer
//!   scalars, dense row-major arrays);
//! * [`inputs`] — reproducible input synthesis for any program via a
//!   discovery pass (sizes arrays by observation, fills them with
//!   deterministic pseudo-random data).
//!
//! The generative counterpart of the differential mode is
//! `tests/engine_fuzz.rs` at the workspace root, which asserts the same
//! cross-engine agreement over randomly generated programs.
//!
//! ```
//! use ss_interp::{RunRequest, Session, ValidationMode};
//!
//! let session = Session::new();
//! let outcome = session
//!     .run(
//!         &RunRequest::new(
//!             "fig2",
//!             r#"
//!                 for (e = 0; e < nelt; e++) { mt_to_id[e] = e; }
//!                 for (miel = 0; miel < nelt; miel++) {
//!                     iel = mt_to_id[miel];
//!                     id_to_mt[iel] = miel;
//!                 }
//!             "#,
//!         )
//!         .threads(4)
//!         .validation(ValidationMode::Differential),
//!     )
//!     .unwrap();
//! assert!(outcome.heaps_match());
//! assert!(!outcome.dispatched.is_empty());
//! assert_eq!(session.cache_stats().misses, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod error;
pub mod heap;
pub mod inputs;
pub mod json;
pub mod matrix;
pub mod request;
pub mod session;

pub use engine::{
    Engine, EngineCaps, EngineRegistry, ExecError, ExecMode, ExecOptions, ExecOutcome, ExecStats,
    LoopStats, ScheduleChoice, ScheduleSource,
};
pub use error::SsError;
pub use heap::{ArrayVal, Heap};
pub use inputs::{input_value, synthesize_inputs, InputSpec};
pub use json::heap_json;
pub use matrix::{LegKind, Matrix};
pub use session::{
    analysis_json, registry_json, verdict_summary, CacheStats, ExecutionMode, InputSource,
    LoopVerdictSummary, RunOutcome, RunRequest, Session, ValidationMode, ValidationSummary,
};
pub use ss_ir::opt::OptLevel;
