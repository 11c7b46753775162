//! # ss-deptest — data-dependence testing with index-array properties
//!
//! The extended Range Test of Section 5 of the paper, plus the baseline it is
//! compared against:
//!
//! * [`access`] — per-iteration access descriptors (points, ranges produced
//!   by inner loops, images of index arrays);
//! * [`monotone`] — property-aware sign determination
//!   (`rowstr[i+1] - rowstr[i] >= 0` given `Monotonic_inc`);
//! * [`range_test`] — the per-loop parallel/serial verdict, with
//!   [`range_test::RangeTestConfig::baseline`] modelling what conventional
//!   compilers (Cetus, ICC, PGI in the paper's study) conclude without
//!   subscripted-subscript reasoning.
//!
//! ```
//! use ss_aggregation::analyze_program;
//! use ss_deptest::{test_loop, RangeTestConfig};
//! use ss_ir::{parse_program, LoopId, LoopTree};
//!
//! let p = parse_program("fig2", r#"
//!     for (e = 0; e < nelt; e++) { mt_to_id[e] = e; }
//!     for (miel = 0; miel < nelt; miel++) {
//!         iel = mt_to_id[miel];
//!         id_to_mt[iel] = miel;
//!     }
//! "#).unwrap();
//! let analysis = analyze_program(&p);
//! let tree = LoopTree::build(&p);
//! let verdict = test_loop(&p, &tree, LoopId(1), analysis.db_for_loop(LoopId(1)),
//!                         &RangeTestConfig::default());
//! assert!(verdict.parallel);
//! let baseline = test_loop(&p, &tree, LoopId(1), analysis.db_for_loop(LoopId(1)),
//!                          &RangeTestConfig::baseline());
//! assert!(!baseline.parallel);
//! ```

pub mod access;
pub mod monotone;
pub mod range_test;

pub use access::{collect_iteration_accesses, AccessRegion, DescriptorSet, IterationAccess};
pub use monotone::{property_lower_bound, property_proves_nonneg, property_proves_positive};
pub use range_test::{test_loop, LoopVerdict, RangeTestConfig};
