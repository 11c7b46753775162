//! The compile-time regime's run-time cost is one team region: its workers
//! store into the caller's buffer in place, so a call allocates nothing
//! the size of its output.  The allocation counter below is process-wide,
//! so this binary holds this one test and nothing runs beside it.

use ss_inspector::executor::{run_indirect_scatter, run_range_partitioned, Mode};
use ss_runtime::parallel_for;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting every byte it hands out.
struct Counting;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, whose contract
// is the caller's; counting touches only an atomic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: forwarded under the caller's contract, as above.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn compile_time_runs_allocate_nothing_output_sized() {
    const THREADS: usize = 2;
    const N: usize = 1 << 20;
    let bounds: Vec<i64> = (0..=N as i64 / 4).map(|i| 4 * i).collect();
    let index: Vec<i64> = (0..N as i64).rev().collect();
    let mut data = vec![0.0f64; N];
    let mut target = vec![0i64; N];
    // The team of two is spawned here, outside the count.
    parallel_for(THREADS, 1024, |_| {});

    let before = ALLOCATED.load(Ordering::Relaxed);
    run_range_partitioned(
        &mut data,
        &bounds,
        |i, j| (i + j) as f64,
        THREADS,
        Mode::CompileTime,
    );
    run_indirect_scatter(
        &mut target,
        &index,
        |i| i as i64,
        |_| true,
        THREADS,
        Mode::CompileTime,
    );
    let allocated = ALLOCATED.load(Ordering::Relaxed) - before;

    assert!(
        allocated < 64 << 10,
        "two compile-time calls on 2^20-element outputs allocated {allocated} bytes"
    );
    assert_eq!(data[N - 1], (N / 4 - 1 + N - 1) as f64);
    assert_eq!(target[0], N as i64 - 1);
}
