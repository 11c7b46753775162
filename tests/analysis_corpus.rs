//! Golden verdicts of the analysis over the generated corpus: the first
//! 1,024 programs of `engine_fuzz`'s generator (`tests/fuzzgen`).
//!
//! Per program, one line: case number, generator seed, loop count and an
//! FNV-1a digest of the same per-loop text `analysis_golden` pins for the
//! catalogue (extended and baseline verdicts, reductions, wavefront flag,
//! reasons, blockers).  The full text would be ~900 KB; a mismatch prints
//! the differing programs' source and current dump instead.  A change
//! that only makes the analysis cheaper must leave this file
//! byte-identical.
//!
//! To bless an intentional change:
//! `UPDATE_GOLDEN=1 cargo test --release --test analysis_corpus`.

mod fuzzgen;
mod verdicts;

use fuzzgen::GProgram;
use ss_ir::parse_program;
use ss_parallelizer::parallelize;
use std::path::Path;

const CASES: u32 = 1024;

/// 64-bit FNV-1a.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One generated program's source and verdict dump.
fn dump(seed: u64) -> (String, String, usize) {
    let source = GProgram::generate(seed).source();
    let program = parse_program("fuzz", &source).expect("generated program parses");
    let report = parallelize(&program);
    let mut text = String::new();
    verdicts::write_loops(&report, &mut text);
    (source, text, report.loops.len())
}

fn line(case: usize, seed: u64, text: &str, loops: usize) -> String {
    format!("{case:04} {seed:016x} loops={loops} {:016x}", fnv1a(text))
}

#[test]
fn corpus_verdicts_are_stable() {
    let seeds: Vec<u64> = fuzzgen::seeds(CASES).collect();
    let got: Vec<String> = (seeds.iter().enumerate())
        .map(|(case, &seed)| {
            let (_, text, loops) = dump(seed);
            line(case, seed, &text, loops)
        })
        .collect();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/analysis_corpus.txt");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, got.join("\n") + "\n").expect("write golden file");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e} (run with UPDATE_GOLDEN=1)",
            path.display()
        )
    });
    assert_eq!(
        want.lines().count(),
        got.len(),
        "{} pins a different number of programs",
        path.display()
    );
    let differing: Vec<String> = (want.lines().zip(&got).enumerate())
        .filter(|(_, (w, g))| w != g)
        .map(|(case, (w, g))| {
            let (source, text, _) = dump(seeds[case]);
            format!("  want: {w}\n  got:  {g}\nsource:\n{source}verdicts:\n{text}")
        })
        .collect();
    assert!(
        differing.is_empty(),
        "{} program(s) diverge from {}:\n{}",
        differing.len(),
        path.display(),
        differing.join("\n")
    );
}
