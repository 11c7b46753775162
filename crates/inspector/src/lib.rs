//! Runtime parallelization baselines: inspector/executor schemes and an
//! LRPD-style speculative test.
//!
//! The paper's central claim is that the properties enabling parallelization
//! of subscripted-subscript loops (monotonicity, injectivity, …) can be
//! derived *at compile time* from the code that fills the index arrays, so
//! that no run-time machinery is needed.  Its related-work section contrasts
//! this with the long line of run-time techniques — inspector/executor
//! schemes (Saltz et al.; Mohammadi et al.; Venkat et al.) and speculative
//! run-time dependence testing (the LRPD test of Rauchwerger and Padua) —
//! whose "Achilles' heel is the significant overhead of the inserted
//! inspection and decision code".
//!
//! This crate implements those baselines so the claim can be measured rather
//! than asserted:
//!
//! * [`inspect`] — runtime *inspectors* that scan an index array before the
//!   loop runs and decide which of the Section 2 properties hold for this
//!   particular input (monotonicity, injectivity, injective subsets,
//!   conflict-freedom of a write-index set).  Inspection itself can be run
//!   in parallel, as production inspector/executor systems do.
//! * [`lrpd`] — a shadow-array LRPD-style test: the loop is executed
//!   speculatively in parallel while shadow state records which iterations
//!   touched which elements; if a cross-iteration conflict is detected the
//!   speculative result is discarded and the loop is re-executed serially.
//! * [`levelset`] — the inspector as a *scheduler*: per-iteration
//!   read/write address sets become dependence level sets, so a carried
//!   loop (SpTRSV, Gauss-Seidel) runs as a sequence of parallel
//!   wavefronts instead of conceding to serial execution.
//! * [`executor`] — drivers that combine an inspector with a parallel or
//!   serial executor for the two loop shapes the paper evaluates
//!   (range-partitioned loops such as Figure 9's product loop, and indirect
//!   scatter loops such as Figure 2's `id_to_mt[mt_to_id[i]] = i`), and
//!   report a per-invocation timing breakdown of inspection vs. execution.
//!
//! The ablation benchmark `inspector_overhead` (crate `ss-bench`) uses these
//! drivers to compare the compile-time approach (zero run-time analysis
//! cost) against the inspector/executor and speculative baselines on the
//! same kernels and inputs.
//!
//! ```
//! use ss_inspector::inspect::{inspect_index_array, InspectorConfig};
//! use ss_properties::ArrayProperty;
//!
//! let rowptr = vec![0i64, 3, 3, 7, 12];
//! let report = inspect_index_array(&rowptr, &InspectorConfig::serial());
//! assert!(report.properties.has(ArrayProperty::MonotonicInc));
//! assert!(!report.properties.has(ArrayProperty::Injective));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod executor;
pub mod inspect;
pub mod levelset;
pub mod lrpd;

pub use executor::{
    run_indirect_scatter, run_range_partitioned, ExecutionProfile, ExecutionStrategy,
};
pub use inspect::{inspect_index_array, InspectionReport, InspectorConfig};
pub use levelset::{build_level_sets, levelset_build_count, IterationAccess, LevelSchedule};
pub use lrpd::{lrpd_scatter, LrpdOutcome};
