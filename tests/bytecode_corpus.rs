//! Golden lowering of every program the repository ships or generates:
//! the 15 catalogue kernels, the benchmark's `crates/benchmark/programs/*.c`
//! and the first 1,024 programs of `engine_fuzz`'s generator
//! (`tests/fuzzgen`).
//!
//! Per program, one line: its name (case number and seed for generated
//! ones), its loop count and an FNV-1a digest of the lowering's whole
//! shape — the O0 and O1 disassembly, the scalar and array slot tables in
//! slot order (slot numbers fix every register and the scalar order of
//! the wavefront cache key), and each loop's id with the dispatch facts
//! its bytecode `for` carries (`local_arrays`, `locals_dominated`,
//! `skewed`).  The two `*.bytecode.txt` goldens show full listings of two
//! kernels; this file shows every program, slot order and loop facts
//! included.  A change that only restructures the compiler must leave it
//! byte-identical; a mismatch prints the differing programs' source and
//! current dump.
//!
//! To bless an intentional change:
//! `UPDATE_GOLDEN=1 cargo test --release --test bytecode_corpus`.

mod fuzzgen;

use fuzzgen::GProgram;
use ss_ir::bytecode::walk;
use ss_ir::opt::OptLevel;
use ss_ir::{parse_program, Instr, LoopId};
use ss_parallelizer::Artifacts;
use std::fmt::Write;
use std::path::Path;

const CASES: u32 = 1024;

/// 64-bit FNV-1a.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Every program of the corpus as `(label, name, source)`, in line order.
fn corpus() -> Vec<(String, String, String)> {
    let mut out = Vec::new();
    for k in ss_npb::study_kernels() {
        out.push((k.name.to_string(), k.name.to_string(), k.source.to_string()));
    }
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/benchmark/programs");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .collect();
    files.sort();
    for path in files {
        let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
        let source = std::fs::read_to_string(&path).expect("read benchmark program");
        out.push((format!("programs/{stem}.c"), stem, source));
    }
    for (case, seed) in fuzzgen::seeds(CASES).enumerate() {
        let source = GProgram::generate(seed).source();
        out.push((format!("fuzz {case:04} {seed:016x}"), "fuzz".into(), source));
    }
    out
}

/// The dispatch facts the lowering recorded on counted loop `id`, if it
/// is one.
fn loop_facts(art: &Artifacts, id: LoopId) -> Option<String> {
    let mut found = None;
    walk(&art.bytecode.main, &mut |i| match i {
        Instr::For(f) if f.id == id => found = Some(f),
        _ => {}
    });
    let f = found?;
    let locals: Vec<String> = (f.local_arrays.iter())
        .map(|a| format!("{}:{}", a.0, art.slots.array_name(*a)))
        .collect();
    Some(format!(
        "locals=[{}] dominated={} skewed={}",
        locals.join(","),
        f.locals_dominated,
        f.skewed
    ))
}

/// One program's lowering dump and loop count.
fn dump(name: &str, source: &str) -> (String, usize) {
    let program = parse_program(name, source).expect("corpus program parses");
    let art = Artifacts::compile(&program);
    let slots = &art.slots;
    let mut text = String::new();
    writeln!(text, "scalars {}", slots.scalar_names().join(",")).unwrap();
    writeln!(text, "arrays {}", slots.array_names().join(",")).unwrap();
    for l in &art.report.loops {
        let facts = loop_facts(&art, l.loop_id).unwrap_or_else(|| "-".into());
        writeln!(text, "L{} {facts}", l.loop_id.0).unwrap();
    }
    for level in [OptLevel::O0, OptLevel::O1] {
        writeln!(text, "{level:?}").unwrap();
        text.push_str(&art.bytecode_at(level).disassemble());
    }
    (text, art.report.loops.len())
}

fn line(label: &str, text: &str, loops: usize) -> String {
    format!("{label} loops={loops} {:016x}", fnv1a(text))
}

#[test]
fn corpus_lowering_is_stable() {
    let corpus = corpus();
    let got: Vec<String> = (corpus.iter())
        .map(|(label, name, source)| {
            let (text, loops) = dump(name, source);
            line(label, &text, loops)
        })
        .collect();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/bytecode_corpus.txt");
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
        .map(|(k, (w, g))| {
            let (_, name, source) = &corpus[k];
            let (text, _) = dump(name, source);
            format!("  want: {w}\n  got:  {g}\nsource:\n{source}\nlowering:\n{text}")
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
