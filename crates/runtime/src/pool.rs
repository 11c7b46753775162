//! Parallel loop entry points.
//!
//! The paper evaluates its analysis by compiling the parallelized loops with
//! OpenMP (`#pragma omp parallel for`, static scheduling) and sweeping the
//! thread count.  This module is the equivalent surface: [`parallel_for`]
//! splits an iteration space into contiguous chunks and
//! [`parallel_for_mut`] does the same while handing each worker a disjoint
//! slice of the output vector.  Both take a plain thread count and run on
//! group 0's persistent team ([`with_shared_team`]) — respawned only when
//! the group's last region ran at another count — and with `threads <= 1`
//! they run inline without touching the team registry.
//!
//! [`Schedule`] names OpenMP's two assignments: `schedule(static)` and
//! `schedule(dynamic, chunk)`, where workers steal fixed-size chunks off a
//! shared atomic counter, which keeps them busy when per-iteration work is
//! skewed (e.g. CSR rows of wildly different lengths, the common case for
//! subscripted-subscript loops over `rowptr[i] .. rowptr[i+1]`).
//!
//! A region requested from inside a team worker runs inline on that worker
//! (OpenMP's default for nested regions).  Work that is a *sequence* of
//! dependent loops over the same data should not call these once per step:
//! it enters the team once ([`ThreadTeam::region`](crate::ThreadTeam::region),
//! the team's one entry, which these functions use as well), deals each
//! step's iterations with [`Member::share`](crate::Member::share) and
//! separates the steps with [`Member::barrier`](crate::Member::barrier).
//! Members that store into one shared buffer do so through
//! [`atomic_cells`](crate::atomic_cells).

use crate::team::{team_parallel_for_schedule, with_shared_team};
use std::sync::Mutex;

/// How a parallel region assigns iterations to the team's workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// One contiguous, nearly equal range per thread (OpenMP
    /// `schedule(static)`), assigned up front.  Zero scheduling overhead,
    /// but a thread stuck with the heavy iterations becomes the critical
    /// path.
    Static,
    /// Workers repeatedly claim the next `chunk` iterations from a shared
    /// atomic counter (OpenMP `schedule(dynamic, chunk)`).  One
    /// fetch-and-add per chunk buys load balance on skewed iteration
    /// spaces.
    Dynamic {
        /// Iterations claimed per steal; clamped to at least 1.
        chunk: usize,
    },
}

impl Schedule {
    /// A dynamic schedule with a chunk size that amortizes the counter
    /// traffic: about 8 chunks per thread, at least 1 iteration each.
    pub fn dynamic_for(n: usize, threads: usize) -> Schedule {
        Schedule::Dynamic {
            chunk: (n / (threads.max(1) * 8)).max(1),
        }
    }
}

/// Range `c` of `0..n` split into `chunks` contiguous, nearly equal ranges
/// (the first `n % chunks` are one longer).
pub fn chunk_range(n: usize, chunks: usize, c: usize) -> std::ops::Range<usize> {
    let (base, rem) = (n / chunks, n % chunks);
    let start = c * base + c.min(rem);
    start..start + base + usize::from(c < rem)
}

/// Runs `body(range)` for a static partition of `0..n` over `threads`
/// workers. With `threads <= 1` the body runs inline (the serial baseline).
pub fn parallel_for<F>(threads: usize, n: usize, body: F)
where
    F: Fn(std::ops::Range<usize>) + Sync,
{
    if threads <= 1 || n == 0 {
        body(0..n);
        return;
    }
    with_shared_team(threads, |team| {
        team_parallel_for_schedule(team, n, Schedule::Static, body)
    });
}

/// Runs `body(start_index, chunk)` where `chunk` is a disjoint mutable
/// sub-slice of `data`, partitioned statically over `threads` workers.
/// This is the shape of an OpenMP `parallel for` writing `data[i]` — each
/// worker owns a contiguous block, which is exactly what the dependence
/// analysis licensed.
pub fn parallel_for_mut<T, F>(threads: usize, data: &mut [T], body: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let n = data.len();
    if threads <= 1 || n == 0 {
        body(0, data);
        return;
    }
    with_shared_team(threads, |team| {
        // One slot per worker holding its block, taken by that worker alone.
        let mut rest = data;
        let slots: Vec<_> = (0..team.size())
            .map(|w| {
                let r = chunk_range(n, team.size(), w);
                let (head, tail) = std::mem::take(&mut rest).split_at_mut(r.len());
                rest = tail;
                Mutex::new(Some((r.start, head)))
            })
            .collect();
        team.region(|m| {
            let taken = slots[m.index()]
                .lock()
                .expect("no holder of a slot lock panics")
                .take();
            let (start, chunk) = taken.expect("one block per worker");
            body(start, chunk);
        });
    });
}

/// The number of hardware threads available (used to annotate reports).
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

    #[test]
    fn chunks_cover_the_range_exactly() {
        for n in [0usize, 1, 7, 100, 101, 1024] {
            for c in [1usize, 2, 3, 8, 16] {
                let ranges: Vec<_> = (0..c).map(|k| chunk_range(n, c, k)).collect();
                assert_eq!(ranges.len(), c);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next);
                    next = r.end;
                }
                assert_eq!(next, n);
                // balanced within 1
                let lens: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                assert!(lens.iter().max().unwrap() - lens.iter().min().unwrap() <= 1);
            }
        }
    }

    #[test]
    fn parallel_for_mut_matches_serial() {
        // 2 < 3 leaves one worker an empty block.
        for n in [10_000, 2] {
            let fill = |start: usize, chunk: &mut [u64]| {
                for (k, v) in chunk.iter_mut().enumerate() {
                    *v = ((start + k) as u64) * 3 + 1;
                }
            };
            let mut serial = vec![0u64; n];
            parallel_for_mut(1, &mut serial, fill);
            for threads in [2, 3, 8] {
                let mut par = vec![0u64; n];
                parallel_for_mut(threads, &mut par, fill);
                assert_eq!(par, serial);
            }
        }
    }

    #[test]
    fn work_is_split_across_chunks() {
        let invocations = |threads, n| {
            let counter = AtomicUsize::new(0);
            parallel_for(threads, n, |_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
            counter.load(Ordering::Relaxed)
        };
        assert_eq!(invocations(4, 100), 4);
        assert_eq!(invocations(1, 100), 1);
        // zero-length loops still work
        assert_eq!(invocations(4, 0), 1);
    }

    #[test]
    fn a_region_requested_from_inside_a_worker_runs_inline() {
        // Without the inline rule the inner call waits forever for the
        // 2-team its own caller is holding.
        let hits: Vec<AtomicU32> = (0..16).map(|_| AtomicU32::new(0)).collect();
        parallel_for(2, 4, |outer| {
            for o in outer {
                let worker = std::thread::current().id();
                parallel_for(2, 4, |inner| {
                    assert_eq!(std::thread::current().id(), worker);
                    for i in inner {
                        hits[o * 4 + i].fetch_add(1, Ordering::Relaxed);
                    }
                });
                let mut block = [0u32; 4];
                parallel_for_mut(2, &mut block, |start, chunk| {
                    for (k, v) in chunk.iter_mut().enumerate() {
                        *v = (start + k) as u32;
                    }
                });
                assert_eq!(block, [0, 1, 2, 3]);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn hardware_threads_is_positive() {
        assert!(hardware_threads() >= 1);
    }

    #[test]
    fn dynamic_for_picks_sane_chunks() {
        assert_eq!(Schedule::dynamic_for(0, 4), Schedule::Dynamic { chunk: 1 });
        assert_eq!(Schedule::dynamic_for(64, 4), Schedule::Dynamic { chunk: 2 });
        assert_eq!(
            Schedule::dynamic_for(10_000, 0),
            Schedule::Dynamic { chunk: 1250 }
        );
    }
}
