//! An LRPD-style speculative run-time test for scatter loops.
//!
//! The LRPD test (Rauchwerger & Padua) executes a candidate loop in parallel
//! *speculatively* while shadow state records, per element of the written
//! array, which iterations touched it.  After the speculative run the shadow
//! state is analyzed: if any element was written by more than one iteration
//! the speculation failed (a cross-iteration output dependence exists), the
//! speculative result is discarded and the loop is re-executed serially.
//!
//! This module implements the output-dependence portion of the test for the
//! loop shape the paper's Figure 2/5 kernels have:
//!
//! ```text
//! for (i = 0; i < n; i++)
//!     if (guard(i)) target[index[i]] = value(i);
//! ```
//!
//! which is exactly the case where the compile-time analysis instead proves
//! injectivity of `index` (or of its guarded subset) from the filling code.
//! The point of carrying the speculative baseline is the cost model: LRPD
//! pays for shadow marking and a privatized speculation buffer on *every*
//! invocation, and pays double (speculative run + serial re-run) when
//! speculation fails, whereas the compile-time result is free at run time.

use ss_runtime::{parallel_for, time_it};
use std::sync::atomic::{AtomicI64, AtomicU32, Ordering};

/// The result of one speculative execution.
#[derive(Debug, Clone)]
pub struct LrpdOutcome {
    /// Whether the speculative parallel execution was valid (no element
    /// written by two different iterations).
    pub speculation_succeeded: bool,
    /// Number of elements of the target that were written by more than one
    /// iteration (0 when speculation succeeded).
    pub conflicting_elements: usize,
    /// Seconds spent in the speculative parallel attempt, including shadow
    /// marking and the privatized speculation buffer.
    pub speculative_seconds: f64,
    /// Seconds spent analyzing the shadow array and, on success, committing
    /// the speculative buffer into the target.
    pub analysis_seconds: f64,
    /// Seconds spent re-executing serially (0.0 when speculation succeeded).
    pub reexecution_seconds: f64,
}

impl LrpdOutcome {
    /// Total run-time cost of obtaining a correct result via LRPD.
    pub fn total_seconds(&self) -> f64 {
        self.speculative_seconds + self.analysis_seconds + self.reexecution_seconds
    }
}

/// Executes `target[index[i]] = value(i)` for all `i` with `guard(i)`,
/// speculatively in parallel, falling back to serial re-execution when the
/// speculation fails.  On return `target` always holds the correct (serial
/// semantics) result.
///
/// `index[i]` values must be in `0..target.len()` for guarded iterations;
/// out-of-range subscripts are a bug in the caller's kernel, not a
/// dependence, and cause a panic just as the serial loop would.
#[allow(clippy::needless_range_loop)] // the serial re-execution mirrors the C loop
pub fn lrpd_scatter<V, G>(
    target: &mut [i64],
    index: &[i64],
    value: V,
    guard: G,
    threads: usize,
) -> LrpdOutcome
where
    V: Fn(usize) -> i64 + Sync,
    G: Fn(usize) -> bool + Sync,
{
    let n = index.len();
    let threads = threads.max(1);

    // Shadow array (write counts per element) and the privatized speculation
    // buffer the parallel run scatters into.  Both are per-invocation
    // allocations — part of the overhead the compile-time approach avoids.
    let shadow: Vec<AtomicU32> = (0..target.len()).map(|_| AtomicU32::new(0)).collect();
    let speculative: Vec<AtomicI64> = target.iter().map(|&v| AtomicI64::new(v)).collect();

    let (_, speculative_seconds) = time_it(|| {
        parallel_for(threads, n, |r| {
            for i in r {
                if !guard(i) {
                    continue;
                }
                let slot = usize::try_from(index[i]).expect("negative subscript");
                shadow[slot].fetch_add(1, Ordering::Relaxed);
                speculative[slot].store(value(i), Ordering::Relaxed);
            }
        });
    });

    let (conflicting_elements, analysis_seconds) = time_it(|| {
        let conflicts = shadow
            .iter()
            .filter(|c| c.load(Ordering::Relaxed) > 1)
            .count();
        if conflicts == 0 {
            // Commit: the speculative buffer is the loop's result.
            for (t, s) in target.iter_mut().zip(&speculative) {
                *t = s.load(Ordering::Relaxed);
            }
        }
        conflicts
    });

    if conflicting_elements == 0 {
        return LrpdOutcome {
            speculation_succeeded: true,
            conflicting_elements: 0,
            speculative_seconds,
            analysis_seconds,
            reexecution_seconds: 0.0,
        };
    }

    // Speculation failed: the target was never modified (all speculative
    // writes went to the privatized buffer), so the serial re-execution runs
    // directly on it with the loop's sequential semantics (last write wins).
    let (_, reexecution_seconds) = time_it(|| {
        for i in 0..n {
            if guard(i) {
                let slot = usize::try_from(index[i]).expect("negative subscript");
                target[slot] = value(i);
            }
        }
    });
    LrpdOutcome {
        speculation_succeeded: false,
        conflicting_elements,
        speculative_seconds,
        analysis_seconds,
        reexecution_seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    fn serial_reference(
        target: &[i64],
        index: &[i64],
        value: impl Fn(usize) -> i64,
        guard: impl Fn(usize) -> bool,
    ) -> Vec<i64> {
        let mut out = target.to_vec();
        for i in 0..index.len() {
            if guard(i) {
                out[index[i] as usize] = value(i);
            }
        }
        out
    }

    #[test]
    fn speculation_succeeds_on_injective_index() {
        let n = 10_000usize;
        let mut perm: Vec<i64> = (0..n as i64).collect();
        perm.shuffle(&mut StdRng::seed_from_u64(7));
        let mut target = vec![-1i64; n];
        let expect = serial_reference(&target, &perm, |i| i as i64, |_| true);
        let outcome = lrpd_scatter(&mut target, &perm, |i| i as i64, |_| true, 4);
        assert!(outcome.speculation_succeeded);
        assert_eq!(outcome.conflicting_elements, 0);
        assert_eq!(outcome.reexecution_seconds, 0.0);
        assert_eq!(target, expect);
    }

    #[test]
    fn speculation_fails_and_recovers_on_duplicate_subscripts() {
        let n = 5_000usize;
        let mut rng = StdRng::seed_from_u64(11);
        // Many duplicates: a histogram-style index.
        let index: Vec<i64> = (0..n).map(|_| rng.gen_range(0..64)).collect();
        let mut target = vec![0i64; 64];
        let expect = serial_reference(&target, &index, |i| i as i64, |_| true);
        let outcome = lrpd_scatter(&mut target, &index, |i| i as i64, |_| true, 4);
        assert!(!outcome.speculation_succeeded);
        assert!(outcome.conflicting_elements > 0);
        assert!(outcome.total_seconds() >= outcome.reexecution_seconds);
        assert_eq!(
            target, expect,
            "serial re-execution must restore sequential semantics"
        );
    }

    #[test]
    fn guarded_iterations_are_skipped() {
        // Figure 5 shape: only non-negative jmatch entries write, and those
        // form an injective subset.
        let jmatch = vec![2i64, -1, 0, -1, 5, 1, -1, 4, 3];
        let index: Vec<i64> = jmatch.iter().map(|&v| v.max(0)).collect();
        let mut imatch = vec![-1i64; jmatch.len()];
        let expect = serial_reference(&imatch, &index, |i| i as i64, |i| jmatch[i] >= 0);
        let outcome = lrpd_scatter(&mut imatch, &index, |i| i as i64, |i| jmatch[i] >= 0, 3);
        assert!(outcome.speculation_succeeded);
        assert_eq!(imatch, expect);
        // Unwritten elements keep their original value.
        assert_eq!(imatch[6], -1);
    }

    #[test]
    fn single_thread_still_detects_the_dependence() {
        let index = vec![3i64, 1, 3, 0];
        let mut target = vec![9i64; 4];
        let expect = serial_reference(&target, &index, |i| 100 + i as i64, |_| true);
        let outcome = lrpd_scatter(&mut target, &index, |i| 100 + i as i64, |_| true, 1);
        // Element 3 is written twice -> speculation is reported failed even
        // on one thread (the test is about the dependence, not the schedule).
        assert!(!outcome.speculation_succeeded);
        assert_eq!(target, expect);
    }

    #[test]
    fn empty_loop_is_a_successful_speculation() {
        let mut target = vec![1i64, 2, 3];
        let outcome = lrpd_scatter(&mut target, &[], |_| 0, |_| true, 4);
        assert!(outcome.speculation_succeeded);
        assert_eq!(target, vec![1, 2, 3]);
    }

    #[test]
    fn randomized_inputs_always_match_serial_semantics() {
        let mut rng = StdRng::seed_from_u64(99);
        for trial in 0..20 {
            let n = rng.gen_range(1..400);
            let m = rng.gen_range(1..200);
            let index: Vec<i64> = (0..n).map(|_| rng.gen_range(0..m) as i64).collect();
            let mut target: Vec<i64> = (0..m).map(|_| rng.gen_range(-50..50)).collect();
            let expect = serial_reference(&target, &index, |i| i as i64 * 3, |i| i % 3 != 0);
            let threads = rng.gen_range(1..6);
            lrpd_scatter(
                &mut target,
                &index,
                |i| i as i64 * 3,
                |i| i % 3 != 0,
                threads,
            );
            assert_eq!(
                target, expect,
                "trial {trial} diverged from serial semantics"
            );
        }
    }
}
