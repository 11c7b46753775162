//! Integration test: NPB CG, the one kernel that runs as native Rust rather
//! than as analysed mini-C, gives the serial answer at every team size and
//! converges.  The catalogue kernels' serial ≡ parallel argument is the
//! differential matrix in `tests/interp_validation.rs` and
//! `tests/session_api.rs`, whose parallel legs the analysis licenses.

use ss_npb::{run_cg_with, CgParams};

#[test]
fn cg_serial_and_parallel_agree_and_converge() {
    let params = CgParams {
        na: 800,
        nonzer: 6,
        niter: 2,
        shift: 20.0,
    };
    let serial = run_cg_with(&params, 1, 3);
    assert!(serial.rnorm < 1e-6);
    for threads in [2, 4, 8] {
        let par = run_cg_with(&params, threads, 3);
        assert!(
            (par.zeta - serial.zeta).abs() < 1e-6,
            "zeta diverged at {threads} threads"
        );
    }
}
