//! # ss-npb — benchmark kernels and workloads
//!
//! The evaluation workloads of the paper:
//!
//! * [`cg`] — the NPB CG benchmark (Classes S/W/A/B/C), whose
//!   subscripted-subscript loops drive the Figure 10 speedup study;
//! * [`kernels`] — runnable serial/parallel Rust versions of the Figure 2, 5,
//!   6, 7 and 9 kernels, plus the NPB-IS bucket traversal and the CSparse
//!   `cs_ipvec` permutation scatter, with property-respecting input
//!   generators;
//! * [`ir_kernels`] — mini-C transcriptions of every study kernel (the
//!   Figure 1 catalogue), fed to the compile-time analysis.

pub mod cg;
pub mod ir_kernels;
pub mod kernels;

pub use cg::{
    conj_grad, figure10_sweep, makea, render_figure10, run_cg, run_cg_with, scaled_params,
    CgParams, CgResult, Class, SpeedupPoint,
};
pub use ir_kernels::{
    catalogue_inputs, run_catalogue_study, study_kernels, PatternClass, StudyKernel, Suite,
};
