//! # ss-npb — benchmark kernels and workloads
//!
//! The evaluation workloads of the paper:
//!
//! * [`cg`] — the NPB CG benchmark (Classes S/W/A/B/C), whose
//!   subscripted-subscript loops drive the Figure 10 speedup study;
//! * [`ir_kernels`] — mini-C transcriptions of every study kernel (the
//!   Figure 1 catalogue), fed to the compile-time analysis and run by
//!   `ss_interp`'s engines, whose parallel legs the analysis licenses;
//! * [`kernels`] — the two input generators of the native executor
//!   benchmark: a dense matrix for the Figure 9 product and a permutation
//!   for the CSparse `cs_ipvec` scatter.

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
