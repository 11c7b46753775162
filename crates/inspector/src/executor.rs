//! Inspector/executor drivers for the two loop shapes the paper evaluates.
//!
//! An inspector/executor scheme wraps a candidate loop in run-time machinery:
//! on every invocation the *inspector* scans the index arrays and decides
//! whether this input allows parallel execution, and the *executor* then
//! runs the loop either in parallel or serially.  The decision is always
//! correct for the given input, but its cost recurs on every invocation.
//!
//! The compile-time approach of the paper makes the same decision once, at
//! compilation, from the code that fills the index arrays; at run time the
//! parallel loop simply runs.  Here that regime's whole run-time cost is one
//! team region: its workers store straight into the caller's buffer through
//! [`ss_runtime::atomic_cells`], a relaxed-atomic view of it, with no
//! allocation, copy-in or copy-back (the licensed branch of the
//! inspector/executor regime runs the same way, and so do `ss-interp`'s
//! dispatched loops).  A compile-time assertion that is false for the
//! input makes the workers race on values, never into undefined
//! behaviour; this crate has no `unsafe` code.  The [`ExecutionProfile`]
//! returned by the drivers here records the
//! inspection and execution times separately so the ablation benchmark can
//! chart exactly how much of each invocation the inspector consumes.
//!
//! Two drivers are provided:
//!
//! * [`run_range_partitioned`] — the Figure 9 / Figure 3 shape: an outer
//!   loop over `i` whose body touches `data[bounds[i] .. bounds[i+1]]`.  The
//!   inspector checks monotonicity of `bounds`; the executor partitions the
//!   outer loop.
//! * [`run_indirect_scatter`] — the Figure 2 / Figure 5 shape:
//!   `target[index[i]] = value(i)` under an optional guard.  The inspector
//!   checks injectivity of the (guarded) write-index set; the executor
//!   scatters in parallel.

use crate::inspect::{inspect_index_array, inspect_write_conflicts, InspectorConfig};
use ss_properties::ArrayProperty;
use ss_runtime::{atomic_cells, parallel_for, time_it};
use std::sync::atomic::Ordering;

/// How the executor ended up running the loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionStrategy {
    /// The inspector licensed parallel execution.
    Parallel,
    /// The inspector found the enabling property violated; the loop ran
    /// serially.
    Serial,
    /// No inspection was performed (compile-time mode): the caller asserted
    /// the property, so the loop ran parallel with zero run-time analysis.
    CompileTimeParallel,
}

/// Per-invocation cost breakdown of an inspector/executor run.
#[derive(Debug, Clone)]
pub struct ExecutionProfile {
    /// How the loop was executed.
    pub strategy: ExecutionStrategy,
    /// Seconds the inspector spent scanning index arrays (0.0 in
    /// compile-time mode).
    pub inspection_seconds: f64,
    /// Seconds the executor spent running the loop: all of its work after
    /// the inspection, serial or parallel (a parallel run sets up nothing
    /// outside this clock).
    pub execution_seconds: f64,
}

impl ExecutionProfile {
    /// Total run-time cost of the invocation.
    pub fn total_seconds(&self) -> f64 {
        self.inspection_seconds + self.execution_seconds
    }
}

/// Runs the Figure 9 shape
///
/// ```text
/// for (i = 0; i < nrows; i++)
///     for (j = bounds[i]; j < bounds[i+1]; j++)
///         data[j] = row_body(i, j);
/// ```
///
/// under one of three regimes selected by `mode`:
///
/// * [`Mode::InspectorExecutor`] — inspect `bounds` for monotonicity on this
///   invocation, then run parallel (outer loop partitioned over threads) or
///   serial accordingly.
/// * [`Mode::CompileTime`] — skip inspection; the compile-time analysis
///   already proved `bounds` monotonic, so run parallel immediately.
/// * [`Mode::Serial`] — always serial (the "current compilers" baseline).
pub fn run_range_partitioned<F>(
    data: &mut [f64],
    bounds: &[i64],
    row_body: F,
    threads: usize,
    mode: Mode,
) -> ExecutionProfile
where
    F: Fn(usize, usize) -> f64 + Sync,
{
    let nrows = bounds.len().saturating_sub(1);
    let (licensed, inspection_seconds) = match mode {
        Mode::CompileTime => (true, 0.0),
        Mode::Serial => (false, 0.0),
        Mode::InspectorExecutor => {
            let report = inspect_index_array(bounds, &InspectorConfig::monotonicity_only());
            (
                report.properties.has(ArrayProperty::MonotonicInc),
                report.seconds,
            )
        }
    };

    let data_len = data.len();
    let row_range = |i: usize| -> std::ops::Range<usize> {
        let lo = bounds[i].clamp(0, data_len as i64) as usize;
        let hi = bounds[i + 1].clamp(0, data_len as i64) as usize;
        lo..hi.max(lo)
    };

    let (_, execution_seconds) = if licensed && threads > 1 {
        // Parallel executor: the monotonicity of `bounds` means row ranges
        // are non-overlapping, so rows can be assigned to threads freely.
        // Each thread stores its own rows through a relaxed-atomic view of
        // `data` itself: the ranges are disjoint, so relaxed stores
        // suffice, and the region's join publishes them to this thread.
        let cells = atomic_cells(data);
        time_it(|| {
            parallel_for(threads, nrows, |rows| {
                for i in rows {
                    for j in row_range(i) {
                        cells[j].store(row_body(i, j).to_bits(), Ordering::Relaxed);
                    }
                }
            });
        })
    } else {
        time_it(|| {
            for i in 0..nrows {
                for j in row_range(i) {
                    data[j] = row_body(i, j);
                }
            }
        })
    };

    ExecutionProfile {
        strategy: match (mode, licensed) {
            (Mode::CompileTime, _) => ExecutionStrategy::CompileTimeParallel,
            (_, true) => ExecutionStrategy::Parallel,
            (_, false) => ExecutionStrategy::Serial,
        },
        inspection_seconds,
        execution_seconds,
    }
}

/// Runs the Figure 2 / Figure 5 shape
///
/// ```text
/// for (i = 0; i < n; i++)
///     if (guard(i)) target[index[i]] = value(i);
/// ```
///
/// under the selected `mode`.  In inspector/executor mode the inspector
/// checks that the guarded write-index set is conflict-free (injective);
/// in compile-time mode that fact is assumed proven and the loop scatters in
/// parallel immediately.
#[allow(clippy::needless_range_loop)] // the serial fallback mirrors the C loop
pub fn run_indirect_scatter<V, G>(
    target: &mut [i64],
    index: &[i64],
    value: V,
    guard: G,
    threads: usize,
    mode: Mode,
) -> ExecutionProfile
where
    V: Fn(usize) -> i64 + Sync,
    G: Fn(usize) -> bool + Sync,
{
    let n = index.len();
    let (licensed, inspection_seconds) = match mode {
        Mode::CompileTime => (true, 0.0),
        Mode::Serial => (false, 0.0),
        Mode::InspectorExecutor => {
            let report = inspect_write_conflicts(index, &guard);
            (
                report.properties.has(ArrayProperty::Injective),
                report.seconds,
            )
        }
    };

    let (_, execution_seconds) = if licensed && threads > 1 {
        // The guarded writes are injective, so each cell has one writer:
        // relaxed stores into `target` itself, as in the range driver.
        let cells = atomic_cells(target);
        time_it(|| {
            parallel_for(threads, n, |iters| {
                for i in iters {
                    if guard(i) {
                        let slot = usize::try_from(index[i]).expect("negative subscript");
                        cells[slot].store(value(i) as u64, Ordering::Relaxed);
                    }
                }
            });
        })
    } else {
        time_it(|| {
            for i in 0..n {
                if guard(i) {
                    let slot = usize::try_from(index[i]).expect("negative subscript");
                    target[slot] = value(i);
                }
            }
        })
    };

    ExecutionProfile {
        strategy: match (mode, licensed) {
            (Mode::CompileTime, _) => ExecutionStrategy::CompileTimeParallel,
            (_, true) => ExecutionStrategy::Parallel,
            (_, false) => ExecutionStrategy::Serial,
        },
        inspection_seconds,
        execution_seconds,
    }
}

/// Which regime a driver runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Inspect on this invocation, then execute accordingly.
    InspectorExecutor,
    /// The property was proven at compile time; execute in parallel with no
    /// run-time analysis.
    CompileTime,
    /// Always execute serially (what a conventional compiler emits for these
    /// loops today).
    Serial,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    fn csr_bounds(nrows: usize, per_row: usize) -> Vec<i64> {
        (0..=nrows).map(|i| (i * per_row) as i64).collect()
    }

    #[test]
    fn range_partitioned_modes_agree_on_monotonic_bounds() {
        let nrows = 200;
        let per_row = 17;
        let bounds = csr_bounds(nrows, per_row);
        let n = nrows * per_row;
        let body = |i: usize, j: usize| (i * 1000 + j) as f64;

        let mut serial = vec![0.0; n];
        let p_serial = run_range_partitioned(&mut serial, &bounds, body, 4, Mode::Serial);
        assert_eq!(p_serial.strategy, ExecutionStrategy::Serial);

        let mut inspected = vec![0.0; n];
        let p_insp =
            run_range_partitioned(&mut inspected, &bounds, body, 4, Mode::InspectorExecutor);
        assert_eq!(p_insp.strategy, ExecutionStrategy::Parallel);
        assert!(p_insp.inspection_seconds > 0.0);

        let mut compiled = vec![0.0; n];
        let p_ct = run_range_partitioned(&mut compiled, &bounds, body, 4, Mode::CompileTime);
        assert_eq!(p_ct.strategy, ExecutionStrategy::CompileTimeParallel);
        assert_eq!(p_ct.inspection_seconds, 0.0);

        assert_eq!(serial, inspected);
        assert_eq!(serial, compiled);
    }

    #[test]
    fn inspector_refuses_non_monotonic_bounds() {
        // A corrupted rowptr: ranges overlap, so the inspector must fall
        // back to serial execution (and still produce the serial result).
        let bounds = vec![0i64, 10, 5, 20];
        let mut data = vec![0.0; 20];
        let profile = run_range_partitioned(
            &mut data,
            &bounds,
            |i, j| (i + j) as f64,
            4,
            Mode::InspectorExecutor,
        );
        assert_eq!(profile.strategy, ExecutionStrategy::Serial);
        let mut reference = vec![0.0; 20];
        run_range_partitioned(
            &mut reference,
            &bounds,
            |i, j| (i + j) as f64,
            1,
            Mode::Serial,
        );
        assert_eq!(data, reference);
    }

    #[test]
    fn indirect_scatter_modes_agree_on_injective_index() {
        let n = 5_000usize;
        let mut perm: Vec<i64> = (0..n as i64).collect();
        perm.shuffle(&mut StdRng::seed_from_u64(3));
        let value = |i: usize| i as i64;

        let mut serial = vec![-1i64; n];
        run_indirect_scatter(&mut serial, &perm, value, |_| true, 4, Mode::Serial);

        let mut inspected = vec![-1i64; n];
        let p = run_indirect_scatter(
            &mut inspected,
            &perm,
            value,
            |_| true,
            4,
            Mode::InspectorExecutor,
        );
        assert_eq!(p.strategy, ExecutionStrategy::Parallel);

        let mut compiled = vec![-1i64; n];
        let p = run_indirect_scatter(&mut compiled, &perm, value, |_| true, 4, Mode::CompileTime);
        assert_eq!(p.strategy, ExecutionStrategy::CompileTimeParallel);
        assert_eq!(p.inspection_seconds, 0.0);

        assert_eq!(serial, inspected);
        assert_eq!(serial, compiled);
    }

    #[test]
    fn inspector_refuses_conflicting_scatter() {
        let index = vec![0i64, 1, 1, 2];
        let mut target = vec![0i64; 3];
        let p = run_indirect_scatter(
            &mut target,
            &index,
            |i| i as i64 + 10,
            |_| true,
            4,
            Mode::InspectorExecutor,
        );
        assert_eq!(p.strategy, ExecutionStrategy::Serial);
        // Serial semantics: last write to element 1 wins.
        assert_eq!(target, vec![10, 12, 13]);
    }

    #[test]
    fn guarded_scatter_uses_the_injective_subset() {
        // Figure 5: duplicates exist in `index` but only on iterations the
        // guard excludes, so the inspector still licenses parallel
        // execution.
        let jmatch = vec![2i64, -1, 0, -1, 5, 1, -1, 4, 3];
        let index: Vec<i64> = jmatch.iter().map(|&v| v.max(0)).collect();
        let mut imatch = vec![-1i64; jmatch.len()];
        let p = run_indirect_scatter(
            &mut imatch,
            &index,
            |i| i as i64,
            |i| jmatch[i] >= 0,
            3,
            Mode::InspectorExecutor,
        );
        assert_eq!(p.strategy, ExecutionStrategy::Parallel);
        assert_eq!(imatch[0], 2); // jmatch[2] = 0 -> imatch[0] written by i=2
        assert_eq!(imatch[2], 0); // jmatch[0] = 2 -> imatch[2] written by i=0
        assert_eq!(imatch[6], -1); // untouched
    }

    /// Checks a compile-time run whose licensing property was false: a
    /// cell with several writers holds the value one of them stored, and
    /// every other cell holds the serial run's value.
    fn assert_race_on_values_only<T: PartialEq + std::fmt::Debug + Copy>(
        raced: &[T],
        serial: &[T],
        stored: &[Vec<T>],
    ) {
        for (j, writes) in stored.iter().enumerate() {
            if writes.len() > 1 {
                assert!(writes.contains(&raced[j]), "cell {j}: {:?}", raced[j]);
            } else {
                assert_eq!(raced[j], serial[j], "cell {j}");
            }
        }
    }

    #[test]
    fn false_compile_time_bounds_race_only_on_values() {
        // Non-monotonic bounds: even rows 2m cover 10m .. 10m + 30, so
        // every cell past the first ten has about three writers.
        let rows = 900;
        let bounds: Vec<i64> = (0..=rows as i64)
            .map(|i| if i % 2 == 0 { 5 * i } else { 5 * i + 25 })
            .collect();
        let len = 5 * rows + 30;
        let body = |i: usize, j: usize| (i * 100_000 + j) as f64;
        let mut stored = vec![Vec::new(); len];
        for i in 0..rows {
            let (lo, hi) = (bounds[i] as usize, bounds[i + 1] as usize);
            for (j, writes) in stored.iter_mut().enumerate().take(hi).skip(lo) {
                writes.push(body(i, j));
            }
        }
        assert!(stored.iter().any(|w| w.len() > 1));
        let mut serial = vec![-1.0; len];
        run_range_partitioned(&mut serial, &bounds, body, 1, Mode::Serial);
        for threads in [2, 3] {
            let mut raced = vec![-1.0; len];
            let p = run_range_partitioned(&mut raced, &bounds, body, threads, Mode::CompileTime);
            assert_eq!(p.strategy, ExecutionStrategy::CompileTimeParallel);
            assert_race_on_values_only(&raced, &serial, &stored);
        }
    }

    #[test]
    fn false_compile_time_injectivity_races_only_on_values() {
        // `index` wraps at 8,000: cells 0 .. 4,000 are written by iterations
        // `j` and `j + 8,000`, which land on different workers.
        let (len, n) = (8_000usize, 12_000usize);
        let index: Vec<i64> = (0..n).map(|i| (i % len) as i64).collect();
        let value = |i: usize| i as i64 + 1;
        let mut stored = vec![Vec::new(); len];
        for (i, &slot) in index.iter().enumerate() {
            stored[slot as usize].push(value(i));
        }
        let mut serial = vec![-1i64; len];
        run_indirect_scatter(&mut serial, &index, value, |_| true, 1, Mode::Serial);
        for threads in [2, 3] {
            let mut raced = vec![-1i64; len];
            let p = run_indirect_scatter(
                &mut raced,
                &index,
                value,
                |_| true,
                threads,
                Mode::CompileTime,
            );
            assert_eq!(p.strategy, ExecutionStrategy::CompileTimeParallel);
            assert_race_on_values_only(&raced, &serial, &stored);
        }
    }
}
