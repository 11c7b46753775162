//! Runs every catalogue kernel through the full analyze → prove → compile →
//! execute → validate loop and prints one line per kernel: which loops the
//! default engine dispatched, its serial and parallel times, and whether
//! the Session's differential matrix agreed — the reference against every
//! registered engine at every opt level it distinguishes, serially and in
//! parallel, plus an inspector-baseline leg.  Exits nonzero on any
//! validation failure, so CI can gate on it.
//!
//! Each kernel compiles **once** for its whole matrix — the session's
//! content-addressed artifact cache serves every leg.
//!
//! ```text
//! cargo run --release --example run_interpreter [-- <scale> [threads]]
//! ```

use ss_interp::{RunRequest, Session, ValidationMode};
use ss_runtime::hardware_threads;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale: i64 = args.first().and_then(|a| a.parse().ok()).unwrap_or(200);
    let threads: usize = args
        .get(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(hardware_threads);

    println!("interpreting the kernel catalogue: scale n={scale}, {threads} thread(s)\n");
    println!(
        "{:<24} {:>10} {:>12} {:>12} {:>9}  validation",
        "kernel", "dispatched", "serial s", "parallel s", "speedup"
    );
    let session = Session::new();
    let mut failures = 0usize;
    for kernel in ss_npb::study_kernels() {
        let request = RunRequest::new(kernel.name, kernel.source)
            .threads(threads)
            .scale(scale)
            .seed(42)
            .validation(ValidationMode::Differential);
        match session.run(&request) {
            Ok(out) => {
                let dispatched: Vec<String> =
                    out.dispatched.iter().map(|l| l.to_string()).collect();
                let legs = out.validation.as_ref().map_or(0, |v| v.compared.len());
                println!(
                    "{:<24} {:>10} {:>12.6} {:>12.6} {:>8.2}x  {} ({legs} legs)",
                    kernel.name,
                    dispatched.join(","),
                    out.serial.as_ref().map_or(0.0, |s| s.total_seconds),
                    out.parallel.as_ref().map_or(0.0, |s| s.total_seconds),
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
                println!("{:<24} error: {e}", kernel.name);
            }
        }
    }
    let stats = session.cache_stats();
    println!(
        "\nartifact cache: {} programs compiled once, {} cache hits",
        stats.misses, stats.hits
    );
    if failures > 0 {
        eprintln!("\n{failures} kernel(s) FAILED validation");
        std::process::exit(1);
    }
}
