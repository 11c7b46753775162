//! Golden verdicts of the analysis over the study catalogue.
//!
//! For each catalogue kernel, in report order, every loop's extended and
//! baseline verdicts, its reductions and wavefront flag, and the reasons
//! and blockers the Range Test gave.  A change that only makes the
//! analysis cheaper must leave this file byte-identical.
//!
//! To bless an intentional change:
//! `UPDATE_GOLDEN=1 cargo test --test analysis_golden`.

mod verdicts;

use ss_ir::parse_program;
use ss_parallelizer::parallelize;
use std::fmt::Write as _;
use std::path::Path;

fn digest() -> String {
    let mut out = String::new();
    for kernel in ss_npb::study_kernels() {
        let program = parse_program(kernel.name, kernel.source).expect("kernel parses");
        let report = parallelize(&program);
        writeln!(out, "== {}", kernel.name).unwrap();
        verdicts::write_loops(&report, &mut out);
    }
    out
}

#[test]
fn catalogue_verdicts_are_stable() {
    let got = digest();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/analysis.txt");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &got).expect("write golden file");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e} (run with UPDATE_GOLDEN=1)",
            path.display()
        )
    });
    let diff: Vec<String> = (want.lines().zip(got.lines()).enumerate())
        .filter(|(_, (w, g))| w != g)
        .map(|(k, (w, g))| format!("  line {}:\n    want: {w}\n    got:  {g}", k + 1))
        .collect();
    assert!(
        diff.is_empty() && want.lines().count() == got.lines().count(),
        "analysis verdicts diverge from {}:\n{}",
        path.display(),
        diff.join("\n")
    );
}
