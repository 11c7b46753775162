//! Golden digests of synthesized inputs.
//!
//! `synthesize_inputs` turns a program into the initial heap every engine
//! starts from: free scalars bound to the scale, array extents discovered
//! by running the program's filling code once, every element filled with
//! the deterministic input function.  Any change to how discovery runs
//! must leave those heaps bit-identical, so this test pins, for the whole
//! study catalogue plus the benchmark's two iterative solvers at two
//! input specs, each free scalar and each array's dims and an FNV-1a
//! digest of its data.  Scale 257 is not a power of two, so a growing
//! discovery store must trim its overshoot.
//!
//! To bless an intentional change:
//! `UPDATE_GOLDEN=1 cargo test --test inputs_golden`.

use ss_interp::{synthesize_inputs, InputSpec};
use ss_ir::parse_program;
use std::fmt::Write as _;
use std::path::Path;

const SPECS: [InputSpec; 2] = [
    InputSpec { scale: 40, seed: 7 },
    InputSpec {
        scale: 257,
        seed: 3,
    },
];

/// Byte-wise 64-bit FNV-1a over the little-endian elements.
fn fnv1a(data: &[i64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in data.iter().flat_map(|v| v.to_le_bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The programs: the study catalogue, then the benchmark's solvers.
fn programs() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut out: Vec<(String, String)> = ss_npb::study_kernels()
        .into_iter()
        .map(|k| (k.name.to_string(), k.source.to_string()))
        .collect();
    for name in ["spmv_iter", "sptrsv_iter"] {
        let path = root.join(format!("crates/benchmark/programs/{name}.c"));
        let src = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        out.push((name.to_string(), src));
    }
    out
}

fn digest() -> String {
    let mut out = String::new();
    for (name, src) in programs() {
        let program = parse_program(&name, &src).expect("program parses");
        for spec in SPECS {
            writeln!(out, "== {name} scale={} seed={}", spec.scale, spec.seed).unwrap();
            let heap = match synthesize_inputs(&program, &spec) {
                Ok(heap) => heap,
                Err(e) => {
                    writeln!(out, "error {e}").unwrap();
                    continue;
                }
            };
            for (s, v) in &heap.scalars {
                writeln!(out, "scalar {s} = {v}").unwrap();
            }
            for (a, arr) in &heap.arrays {
                writeln!(out, "array {a} {:?} {:016x}", arr.dims, fnv1a(&arr.data)).unwrap();
            }
        }
    }
    out
}

#[test]
fn synthesized_inputs_are_stable() {
    let got = digest();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/inputs.digest.txt");
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
        "synthesized inputs diverge from {}:\n{}",
        path.display(),
        diff.join("\n")
    );
}
