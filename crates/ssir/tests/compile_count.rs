//! The process-wide slot-compilation counter, diffed around one compile.
//! Alone in its binary: beside the unit tests, which compile concurrently,
//! the diff counts their compilations too.

use ss_ir::parse_program;
use ss_ir::slots::{compilation_count, compile_program, SlotMap};

#[test]
fn compilation_counter_increments_once_per_compile() {
    let p = parse_program("t", "for (i = 0; i < n; i++) { x[i] = i; }").unwrap();
    let before = compilation_count();
    let _ = compile_program(&p);
    assert_eq!(compilation_count(), before + 1);
    // SlotMap::build is not a compilation.
    let _ = SlotMap::build(&p);
    assert_eq!(compilation_count(), before + 1);
}
