//! # ss-aggregation — Phase 1 / Phase 2 loop aggregation
//!
//! The paper's core compile-time algorithm (Section 3):
//!
//! * [`phase1::phase1`] — the effect of one loop iteration, with scalars
//!   initialized to `λ(..)` and array writes recorded symbolically;
//! * [`phase2::phase2`] — aggregation of that effect across the iteration
//!   space, producing scalar closed forms over `Λ(..)`, array-section value
//!   ranges, and index-array **properties** (Monotonic inc/dec, strict
//!   variants, Injective, Identity, NonNegative, guarded subsets);
//! * [`collapse::analyze_program`] — the whole-program driver that collapses
//!   loop nests inside out in program order and builds the
//!   [`ss_properties::PropertyDatabase`] the dependence test consumes.
//!
//! The doctest below reproduces the headline derivation of the paper's
//! Figure 9 / Section 3.5: `rowptr` is proven monotonically increasing from
//! the CSR-construction code alone.
//!
//! ```
//! use ss_aggregation::analyze_program;
//! use ss_ir::parse_program;
//! use ss_properties::ArrayProperty;
//!
//! let program = parse_program("fig9", r#"
//!     for (i = 0; i < ROWLEN; i++) {
//!         count = 0;
//!         for (j = 0; j < COLUMNLEN; j++) {
//!             if (a[i][j] != 0) { count++; }
//!         }
//!         rowsize[i] = count;
//!     }
//!     rowptr[0] = 0;
//!     for (i = 1; i < ROWLEN + 1; i++) {
//!         rowptr[i] = rowptr[i-1] + rowsize[i-1];
//!     }
//! "#).unwrap();
//! let analysis = analyze_program(&program);
//! assert!(analysis.db.has_property("rowptr", ArrayProperty::MonotonicInc));
//! ```

pub mod collapse;
pub mod phase1;
pub mod phase2;

pub use collapse::{analyze_program, apply_summary, ProgramAnalysis};
pub use phase1::{phase1, Phase1Result};
pub use phase2::{instantiate_at_entry, phase2, CollapsedLoop};
