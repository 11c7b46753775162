//! The process-wide slot- and bytecode-compilation counters, each diffed
//! around one compile.  Alone in their binary: beside the unit tests,
//! which compile concurrently, the diffs count their compilations too.
//! The two tests here compile as well, so they serialize on a lock.

use ss_ir::bytecode::{bytecode_compilation_count, compile_bytecode};
use ss_ir::parse_program;
use ss_ir::slots::{compilation_count, compile_program, SlotMap};
use std::sync::Mutex;

static COUNTER_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn compilation_counter_increments_once_per_compile() {
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let p = parse_program("t", "for (i = 0; i < n; i++) { x[i] = i; }").unwrap();
    let before = compilation_count();
    let _ = compile_program(&p);
    assert_eq!(compilation_count(), before + 1);
    // SlotMap::build is not a compilation.
    let _ = SlotMap::build(&p);
    assert_eq!(compilation_count(), before + 1);
}

#[test]
fn bytecode_compilation_counter_increments_once_per_compile() {
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let program = parse_program("t", "x = 1;").unwrap();
    let compiled = compile_program(&program);
    let before = bytecode_compilation_count();
    let _ = compile_bytecode(&compiled);
    assert_eq!(bytecode_compilation_count(), before + 1);
}
