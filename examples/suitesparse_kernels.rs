//! SuiteSparse/CSparse walk-through: analyze the catalogued CSparse kernels,
//! show the derived index-array properties, and execute each kernel serial
//! vs. parallel under the differential matrix: every leg must match the
//! reference, and the timings show what the analysis-licensed
//! parallelization buys at this scale.  Exits nonzero if any kernel's legs
//! diverge.
//!
//! ```text
//! cargo run --release --example suitesparse_kernels
//! ```

use ss_interp::{RunRequest, Session, ValidationMode};
use ss_npb::{study_kernels, Suite};
use ss_parallelizer::parallelize_source;
use ss_runtime::hardware_threads;

/// The free scalars' value for every kernel.
const SCALE: i64 = 400;

fn main() {
    let threads = hardware_threads().min(8);
    let suitesparse = || {
        study_kernels()
            .into_iter()
            .filter(|k| k.suite == Suite::SuiteSparse)
    };

    // ---- Compile-time analysis of every CSparse kernel in the catalogue --
    println!("== compile-time analysis of the SuiteSparse kernels ==\n");
    for k in suitesparse() {
        let report = parallelize_source(k.name, k.source).expect("catalogued kernel parses");
        let target = report
            .loop_report(ss_ir::LoopId(k.target_loop))
            .expect("target loop analyzed");
        println!(
            "{:<24} pattern: {:<28} target loop {} -> {}",
            k.name,
            k.class.label(),
            k.target_loop,
            if target.parallel {
                "PARALLEL"
            } else {
                "serial"
            }
        );
        for reason in &target.reasons {
            println!("    {reason}");
        }
        println!();
    }

    // ---- Execution: serial vs. parallel, every leg against the reference --
    println!("== execution (scale n={SCALE}, serial vs. {threads}-thread parallel) ==\n");
    let session = Session::new();
    let mut failures = 0usize;
    for k in suitesparse() {
        // Timed on the `threaded` row: one executor, serial and parallel.
        let request = RunRequest::new(k.name, k.source)
            .engine("threaded")
            .threads(threads)
            .scale(SCALE)
            .validation(ValidationMode::Differential);
        match session.run(&request) {
            Ok(out) => {
                println!(
                    "{:<24} serial {:>8.2} ms   parallel {:>8.2} ms   speedup {:>5.2}x   {}",
                    k.name,
                    out.serial.as_ref().map_or(0.0, |s| s.total_seconds) * 1e3,
                    out.parallel.as_ref().map_or(0.0, |s| s.total_seconds) * 1e3,
                    out.speedup().unwrap_or(0.0),
                    if out.heaps_match() { "PASS" } else { "FAIL" }
                );
                if !out.heaps_match() {
                    failures += 1;
                    for m in out.mismatches().iter().take(5) {
                        println!("    {m}");
                    }
                }
            }
            Err(e) => {
                failures += 1;
                println!("{:<24} error: {e}", k.name);
            }
        }
    }
    if failures > 0 {
        eprintln!("\n{failures} kernel(s) FAILED validation");
        std::process::exit(1);
    }
}
