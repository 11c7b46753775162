//! Quickstart: analyze the paper's Figure 9 program, print what the
//! parallelizer found, then run the program serially and with the loops
//! the analysis proved parallel dispatched to threads, under the
//! differential matrix (every engine, serial and parallel, against the
//! reference).  Exits nonzero if any leg's heap diverges.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use ss_interp::{RunRequest, Session, ValidationMode};
use ss_runtime::hardware_threads;

/// The free scalars' value: rows and columns of the Figure 9 matrix.
const SCALE: i64 = 400;

const FIGURE9: &str = r#"
    index = 0;
    ind = 0;
    for (i = 0; i < ROWLEN; i++) {
        count = 0;
        for (j = 0; j < COLUMNLEN; j++) {
            if (a[i][j] != 0) {
                count++;
                column_number[index] = j;
                index++;
                value[ind] = a[i][j];
                ind++;
            }
        }
        rowsize[i] = count;
    }
    rowptr[0] = 0;
    for (i = 1; i < ROWLEN + 1; i++) {
        rowptr[i] = rowptr[i-1] + rowsize[i-1];
    }
    for (i = 0; i < ROWLEN+1; i++) {
        if (i == 0) {
            j1 = i;
        } else {
            j1 = rowptr[i-1];
        }
        for (j = j1; j < rowptr[i]; j++) {
            product_array[j] = value[j] * vector[j];
        }
    }
"#;

fn main() {
    let threads = hardware_threads().min(8);

    // 1. Compile-time analysis of the Figure 9 program.
    let session = Session::new();
    let artifacts = session
        .artifacts("figure9", FIGURE9)
        .expect("figure 9 parses");
    let report = &artifacts.report;
    println!("===== analysis report =====");
    println!("{}", report.summary());
    println!("===== derived index-array facts =====");
    println!("{}", report.final_db);
    println!("===== annotated source =====");
    println!("{}", report.annotated_source);

    // 2. Execute it, the proven loops in parallel, and validate every leg.
    // The timed legs are the `threaded` row's, whose serial and parallel
    // runs share one executor, so the speedup is the dispatch's alone.
    let request = RunRequest::new("figure9", FIGURE9)
        .engine("threaded")
        .threads(threads)
        .scale(SCALE)
        .validation(ValidationMode::Differential);
    let out = match session.run(&request) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("figure 9 failed: {e}");
            std::process::exit(1);
        }
    };
    println!("===== execution (scale n={SCALE}) =====");
    println!(
        "serial:   {:.4} s",
        out.serial.as_ref().map_or(0.0, |s| s.total_seconds)
    );
    println!(
        "parallel: {:.4} s on {threads} threads (speedup {:.2}x)",
        out.parallel.as_ref().map_or(0.0, |s| s.total_seconds),
        out.speedup().unwrap_or(0.0)
    );
    let legs = out.validation.as_ref().map_or(0, |v| v.compared.len());
    if out.heaps_match() {
        println!("validation: PASS ({legs} legs)");
    } else {
        println!("validation: FAIL");
        for m in out.mismatches().iter().take(5) {
            println!("    {m}");
        }
        std::process::exit(1);
    }
}
