//! Ablation walk-through: compile-time parallelization vs. run-time schemes.
//!
//! Runs the Figure 9 product loop and the cs_ipvec permutation scatter under
//! four regimes — serial, compile-time parallel (this paper), an
//! inspector/executor scheme, and (for the scatter) LRPD-style speculation —
//! and prints a per-invocation cost breakdown showing how much of each
//! invocation the run-time schemes spend on analysis that the compile-time
//! approach performs once, at compilation.  The `wall` column is each
//! call's time from the outside.  The executors do all their work on their
//! own clocks, so it matches `total` there; for LRPD it also counts the
//! allocation and filling of the shadow and speculation buffers, which
//! its own clocks leave out.
//!
//! `cargo run --release --example inspector_vs_compiletime`

use ss_inspector::executor::{run_indirect_scatter, run_range_partitioned, Mode};
use ss_inspector::lrpd::lrpd_scatter;
use ss_npb::kernels::{fig9, ipvec};
use ss_runtime::{hardware_threads, time_it, CsrMatrix};

fn main() {
    let threads = hardware_threads().min(8);
    println!("threads used for parallel execution: {threads}\n");

    // ---- Figure 9 shape: rows partitioned by a monotonic rowptr ----------
    let dense = fig9::generate_dense(2000, 2500, 0.05, 7);
    let a = CsrMatrix::from_dense(&dense);
    let vector: Vec<f64> = (0..a.ncols).map(|i| 1.0 + (i % 17) as f64).collect();
    let bounds: Vec<i64> = a.rowptr.iter().map(|&r| r as i64).collect();
    let nnz = a.nnz();
    let values = a.values.clone();
    let vlen = vector.len();
    let row_body = move |_i: usize, j: usize| values[j] * vector[j % vlen];

    println!("== Figure 9 product loop (enabling property: rowptr monotonic) ==");
    println!(
        "{:<22} {:>14} {:>14} {:>14} {:>14} {:>10}",
        "mode", "inspect (ms)", "execute (ms)", "total (ms)", "wall (ms)", "strategy"
    );
    let mut reference: Option<Vec<f64>> = None;
    for (label, mode) in [
        ("serial", Mode::Serial),
        ("compile_time", Mode::CompileTime),
        ("inspector_executor", Mode::InspectorExecutor),
    ] {
        let mut data = vec![0.0f64; nnz];
        let (profile, wall) =
            time_it(|| run_range_partitioned(&mut data, &bounds, &row_body, threads, mode));
        match &reference {
            None => reference = Some(data),
            Some(r) => assert_eq!(r, &data, "{label} diverged from the serial result"),
        }
        println!(
            "{:<22} {:>14.3} {:>14.3} {:>14.3} {:>14.3} {:>10?}",
            label,
            profile.inspection_seconds * 1e3,
            profile.execution_seconds * 1e3,
            profile.total_seconds() * 1e3,
            wall * 1e3,
            profile.strategy
        );
    }

    // ---- cs_ipvec shape: scatter through an injective permutation --------
    let n = 1_000_000usize;
    let (p, b) = ipvec::generate(n, 3);
    let index: Vec<i64> = p.iter().map(|&x| x as i64).collect();
    let scatter_values: Vec<i64> = b.iter().map(|&v| (v * 1e6) as i64).collect();

    println!("\n== cs_ipvec scatter x[p[k]] = b[k] (enabling property: p injective) ==");
    println!(
        "{:<22} {:>14} {:>14} {:>14} {:>14} {:>10}",
        "mode", "inspect (ms)", "execute (ms)", "total (ms)", "wall (ms)", "strategy"
    );
    let mut reference: Option<Vec<i64>> = None;
    for (label, mode) in [
        ("serial", Mode::Serial),
        ("compile_time", Mode::CompileTime),
        ("inspector_executor", Mode::InspectorExecutor),
    ] {
        let mut target = vec![0i64; n];
        let (profile, wall) = time_it(|| {
            run_indirect_scatter(
                &mut target,
                &index,
                |i| scatter_values[i],
                |_| true,
                threads,
                mode,
            )
        });
        match &reference {
            None => reference = Some(target),
            Some(r) => assert_eq!(r, &target, "{label} diverged from the serial result"),
        }
        println!(
            "{:<22} {:>14.3} {:>14.3} {:>14.3} {:>14.3} {:>10?}",
            label,
            profile.inspection_seconds * 1e3,
            profile.execution_seconds * 1e3,
            profile.total_seconds() * 1e3,
            wall * 1e3,
            profile.strategy
        );
    }

    // LRPD speculation on the same scatter.
    let mut target = vec![0i64; n];
    let (outcome, wall) = time_it(|| {
        lrpd_scatter(
            &mut target,
            &index,
            |i| scatter_values[i],
            |_| true,
            threads,
        )
    });
    assert_eq!(reference.as_ref().unwrap(), &target);
    println!(
        "{:<22} {:>14.3} {:>14.3} {:>14.3} {:>14.3} {:>10}",
        "lrpd_speculative",
        (outcome.speculative_seconds + outcome.analysis_seconds) * 1e3,
        outcome.reexecution_seconds * 1e3,
        outcome.total_seconds() * 1e3,
        wall * 1e3,
        if outcome.speculation_succeeded {
            "Committed"
        } else {
            "ReRun"
        }
    );

    println!(
        "\nThe compile-time approach pays its analysis cost once, during \
         compilation; every run-time scheme above pays its inspect/speculate \
         column again on every invocation of the loop."
    );
}
