//! The persistent worker-thread team — the one place this workspace's
//! compute layers create threads.
//!
//! An interpreted program dispatches *adjacent* parallel loops — a fill
//! loop, a prefix sum, a traversal — and native CG opens six regions per
//! inner iteration; paying a spawn/join cycle per region would put thread
//! creation on the critical path (OpenMP keeps one team alive across
//! `parallel` regions for the same reason).
//!
//! [`ThreadTeam`] spawns its workers once and parks them on a condition
//! variable between regions.  [`ThreadTeam::run`] hands every worker the
//! same borrowed closure, runs worker 0's share on the requesting thread
//! itself (OpenMP's master thread: it is already running on a CPU, so only
//! `size - 1` wake-ups stand between a region and full width, and the
//! scheduler never has to place a woken worker next to a waker that is
//! about to sleep) and blocks until all of them finish, so the closure may
//! freely borrow stack data — the borrow provably outlives the workers'
//! use of it.  [`team_parallel_for_schedule`] and
//! [`team_parallel_reduce`] run a loop or a reduction on a team, including
//! chunk-stealing dynamic scheduling; [`with_shared_team`] lends out the
//! process-wide team of a given size, which is what the `threads: usize`
//! entry points in [`crate::pool`] run on.
//!
//! [`team_threads_spawned`] counts every worker ever spawned process-wide,
//! so tests can assert that back-to-back regions reuse one team instead of
//! respawning.

use crate::pool::{chunk_ranges, Schedule};
use std::cell::Cell;
use std::collections::HashMap;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

static TEAM_THREADS_SPAWNED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set while this thread executes its share of a team region (always,
    /// on a spawned worker); see [`with_shared_team_in`].
    static ON_TEAM: Cell<bool> = const { Cell::new(false) };
}

/// Process-wide count of worker threads ever spawned by [`ThreadTeam`]s.
/// Tests diff this around adjacent parallel regions to assert the team is
/// reused, not respawned.
pub fn team_threads_spawned() -> u64 {
    TEAM_THREADS_SPAWNED.load(Ordering::Relaxed)
}

/// The closure every worker of one region runs; raw pointer so the borrow
/// can cross the (pre-spawned) thread boundary.  Safety argument in
/// [`ThreadTeam::run`].
struct Job(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is Sync and `run` keeps the borrow alive until every
// worker has finished with it.
unsafe impl Send for Job {}

struct TeamState {
    job: Option<Job>,
    epoch: u64,
    remaining: usize,
    panicked: bool,
    shutdown: bool,
}

struct TeamShared {
    state: Mutex<TeamState>,
    work: Condvar,
    done: Condvar,
}

/// A fixed-size team: the requesting thread plus `size - 1` persistent
/// worker threads.
///
/// Workers are spawned in [`ThreadTeam::new`] and live until the team is
/// dropped; each [`run`](ThreadTeam::run) wakes all of them for one region.
/// A team of size ≤ 1 spawns no threads and runs regions inline.
pub struct ThreadTeam {
    shared: Arc<TeamShared>,
    handles: Vec<JoinHandle<()>>,
    size: usize,
}

impl ThreadTeam {
    /// Builds a team that splits regions `size` ways: the thread that
    /// requests a region is its worker 0, so `size - 1` threads are
    /// spawned (`size <= 1` spawns none).
    pub fn new(size: usize) -> ThreadTeam {
        let size = size.max(1);
        let shared = Arc::new(TeamShared {
            state: Mutex::new(TeamState {
                job: None,
                epoch: 0,
                remaining: 0,
                panicked: false,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (1..size)
            .map(|index| {
                let shared = Arc::clone(&shared);
                TEAM_THREADS_SPAWNED.fetch_add(1, Ordering::Relaxed);
                std::thread::spawn(move || worker_loop(&shared, index))
            })
            .collect();
        ThreadTeam {
            shared,
            handles,
            size,
        }
    }

    /// Number of logical workers (regions split their work `size` ways).
    pub fn size(&self) -> usize {
        self.size
    }

    /// Runs one parallel region: the caller executes `f(0)`, every spawned
    /// worker `f(worker_index)`, once each, and `run` returns when all of
    /// them have finished.  A panic in any of them is re-raised here after
    /// the region completes.
    pub fn run(&self, f: &(dyn Fn(usize) + Sync)) {
        if self.handles.is_empty() {
            f(0);
            return;
        }
        {
            let mut st = self.shared.state.lock().unwrap();
            // A real assert, not a debug one: the 'static transmute below
            // is only sound while regions never overlap, so the invariant
            // must hold in release builds too.
            assert!(st.job.is_none(), "overlapping team regions");
            // The transmute erases the borrow's lifetime; `run` blocks
            // below until `remaining == 0`, i.e. until every worker has
            // returned from `f`, so the pointee outlives all uses.
            let erased: &'static (dyn Fn(usize) + Sync) = unsafe {
                std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
            };
            st.job = Some(Job(erased as *const (dyn Fn(usize) + Sync)));
            st.epoch += 1;
            st.remaining = self.handles.len();
            st.panicked = false;
            self.shared.work.notify_all();
        }
        // The caller's share.  A panic in it must not unwind past the wait
        // below — the workers still hold the borrow of `f`.
        let was_on_team = ON_TEAM.replace(true);
        let own = catch_unwind(AssertUnwindSafe(|| f(0)));
        ON_TEAM.set(was_on_team);
        let mut st = self.shared.state.lock().unwrap();
        while st.remaining > 0 {
            st = self.shared.done.wait(st).unwrap();
        }
        st.job = None;
        let panicked = st.panicked;
        drop(st);
        if let Err(payload) = own {
            resume_unwind(payload);
        }
        if panicked {
            panic!("worker thread panicked");
        }
    }
}

impl Drop for ThreadTeam {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
            self.shared.work.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &TeamShared, index: usize) {
    ON_TEAM.set(true);
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen_epoch {
                    seen_epoch = st.epoch;
                    break st.job.as_ref().expect("epoch advanced without a job").0;
                }
                st = shared.work.wait(st).unwrap();
            }
        };
        // SAFETY: `run` keeps the closure alive until this worker (and all
        // others) decrement `remaining` below.
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*job)(index) }));
        let mut st = shared.state.lock().unwrap();
        if result.is_err() {
            st.panicked = true;
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            shared.done.notify_one();
        }
    }
}

/// The process-wide team registry behind [`with_shared_team`] and
/// [`with_shared_team_in`]: one persistent team per `(group, size)` key.
type TeamRegistry = Mutex<HashMap<(usize, usize), Arc<Mutex<ThreadTeam>>>>;
static SHARED_TEAMS: OnceLock<TeamRegistry> = OnceLock::new();

/// Runs `f` against a **process-wide** persistent team of `size` workers.
///
/// The first caller for a given size spawns the team; every later caller —
/// including later *runs* in the same process, e.g. repeated `sspar run`
/// invocations through the library — reuses it, so no parallel region
/// after the first pays a spawn/join cycle ([`team_threads_spawned`] stays
/// flat).  Teams park between regions and live for the process lifetime.
///
/// Each team is guarded by its own mutex for the duration of `f`
/// (a [`ThreadTeam`] runs one region at a time): concurrent callers
/// wanting the same size serialize on that team, while callers of
/// different sizes proceed in parallel.  A panic inside `f` (e.g. a
/// propagated worker panic) poisons neither invariant: the team survives
/// panicked regions by construction, so the lock is simply recovered.
///
/// This is [`with_shared_team_in`] for group 0 — callers that want
/// several *independent* teams of the same size (one per shard of a
/// server, say) pass distinct group keys there instead of serializing on
/// this one.
pub fn with_shared_team<R>(size: usize, f: impl FnOnce(&ThreadTeam) -> R) -> R {
    with_shared_team_in(0, size, f)
}

/// Runs `f` against the process-wide persistent team keyed by
/// `(group, size)`.
///
/// Distinct groups hold distinct teams even at equal sizes, so concurrent
/// callers mapped to different groups never serialize on one team's
/// region mutex — this is the sharding primitive `sspard` builds on (one
/// team per shard, requests hashed to shards).  Within one group the
/// semantics are exactly [`with_shared_team`]: spawn on first use, park
/// between regions, survive panicked regions, live for the process
/// lifetime.
///
/// Called from inside a team worker, `f` gets an inline team of one
/// instead: the team a nested region asks for may be the very one whose
/// region the caller is part of, and waiting for it would never end.
/// Nested regions serialise, as under OpenMP's default.
pub fn with_shared_team_in<R>(group: usize, size: usize, f: impl FnOnce(&ThreadTeam) -> R) -> R {
    if ON_TEAM.get() {
        return f(&ThreadTeam::new(1));
    }
    let registry = SHARED_TEAMS.get_or_init(|| Mutex::new(HashMap::new()));
    let team = {
        let mut map = registry.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(
            map.entry((group, size.max(1)))
                .or_insert_with(|| Arc::new(Mutex::new(ThreadTeam::new(size)))),
        )
    };
    let guard = team.lock().unwrap_or_else(|e| e.into_inner());
    f(&guard)
}

/// Number of distinct persistent teams the process-wide registry holds
/// (across all groups and sizes) — surfaced by long-running services'
/// stats endpoints.
pub fn shared_team_count() -> usize {
    SHARED_TEAMS
        .get()
        .map(|m| m.lock().unwrap_or_else(|e| e.into_inner()).len())
        .unwrap_or(0)
}

/// Runs `body(range)` over `0..n` on `team` under `schedule`, splitting the
/// space `team.size()` ways (static) or letting workers steal chunks
/// (dynamic), so skewed iteration spaces finish in roughly the time of the
/// heaviest single chunk rather than the heaviest precomputed partition.
pub fn team_parallel_for_schedule<F>(team: &ThreadTeam, n: usize, schedule: Schedule, body: F)
where
    F: Fn(Range<usize>) + Sync,
{
    if team.size() <= 1 || n == 0 {
        body(0..n);
        return;
    }
    match schedule {
        Schedule::Static => {
            let ranges = chunk_ranges(n, team.size());
            team.run(&|w| {
                let r = ranges[w].clone();
                if !r.is_empty() {
                    body(r);
                }
            });
        }
        Schedule::Dynamic { chunk } => {
            let chunk = chunk.max(1);
            let next = AtomicUsize::new(0);
            team.run(&|_| loop {
                let start = next.fetch_add(chunk, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                body(start..(start + chunk).min(n));
            });
        }
    }
}

/// A general parallel reduction over `0..n` on `team` under `schedule`:
/// every worker folds the ranges it executes into a private partial
/// starting from `identity` (one partial per worker, not per chunk), and
/// the partials are merged with `combine` in worker order once the region
/// completes.
///
/// `body(range, acc)` must fold every iteration of `range` into `acc` and
/// return the updated accumulator.  For the merge to reproduce the serial
/// result exactly, `combine` must be associative and commutative over the
/// values `body` produces — integer wrapping `+`, `min` and `max` qualify,
/// which is precisely the set of scalar reductions the compile-time
/// analysis licenses for dispatch.
pub fn team_parallel_reduce<T, F, C>(
    team: &ThreadTeam,
    n: usize,
    schedule: Schedule,
    identity: T,
    body: F,
    combine: C,
) -> T
where
    T: Clone + Send,
    F: Fn(Range<usize>, T) -> T + Sync,
    C: Fn(T, T) -> T,
{
    if team.size() <= 1 || n == 0 {
        return body(0..n, identity);
    }
    // Each worker's slot is pre-seeded with its own identity clone (taken
    // and put back by that worker alone), so `T` needs only `Send`.
    let slots: Vec<Mutex<Option<T>>> = (0..team.size())
        .map(|_| Mutex::new(Some(identity.clone())))
        .collect();
    match schedule {
        Schedule::Static => {
            let ranges = chunk_ranges(n, team.size());
            team.run(&|w| {
                let id = slots[w].lock().unwrap().take().expect("seeded identity");
                let acc = body(ranges[w].clone(), id);
                *slots[w].lock().unwrap() = Some(acc);
            });
        }
        Schedule::Dynamic { chunk } => {
            let chunk = chunk.max(1);
            let next = AtomicUsize::new(0);
            team.run(&|w| {
                let mut acc = slots[w].lock().unwrap().take().expect("seeded identity");
                loop {
                    let start = next.fetch_add(chunk, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    acc = body(start..(start + chunk).min(n), acc);
                }
                *slots[w].lock().unwrap() = Some(acc);
            });
        }
    }
    let mut it = slots.into_iter().filter_map(|s| s.into_inner().unwrap());
    let first = it.next().expect("at least one worker partial");
    it.fold(first, combine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU32;
    use std::thread::ThreadId;

    /// The threads one region of `team` runs on.  Sibling tests spawn
    /// shared teams at any moment, so reuse is asserted on worker identity,
    /// never on a diff of the process-wide [`team_threads_spawned`].
    fn worker_ids(team: &ThreadTeam) -> HashSet<ThreadId> {
        let ids = Mutex::new(HashSet::new());
        team.run(&|_| {
            ids.lock().unwrap().insert(std::thread::current().id());
        });
        ids.into_inner().unwrap()
    }

    #[test]
    fn a_team_survives_back_to_back_regions_without_respawning() {
        let team = ThreadTeam::new(4);
        let workers = worker_ids(&team);
        assert_eq!(workers.len(), 4);
        assert!(workers.contains(&std::thread::current().id()));
        let hits = AtomicU32::new(0);
        for _ in 0..50 {
            team_parallel_for_schedule(&team, 100, Schedule::Static, |r| {
                assert!(workers.contains(&std::thread::current().id()));
                hits.fetch_add(r.len() as u32, Ordering::Relaxed);
            });
        }
        assert_eq!(hits.load(Ordering::Relaxed), 50 * 100);
        assert_eq!(worker_ids(&team), workers);
    }

    #[test]
    fn team_of_one_runs_inline_and_spawns_nothing() {
        let team = ThreadTeam::new(1);
        assert_eq!(
            worker_ids(&team),
            HashSet::from([std::thread::current().id()])
        );
        let sum = Mutex::new(0u64);
        team_parallel_for_schedule(&team, 10, Schedule::Static, |r| {
            *sum.lock().unwrap() += r.len() as u64;
        });
        assert_eq!(*sum.lock().unwrap(), 10);
    }

    #[test]
    fn team_reduce_matches_the_serial_fold_for_both_schedules() {
        let n = 10_000usize;
        let term = |i: usize| ((i as i64).wrapping_mul(0x9e37) % 1001) - 500;
        let expected_sum: i64 = (0..n).map(term).sum();
        let expected_min: i64 = (0..n).map(term).min().unwrap();
        let expected_max: i64 = (0..n).map(term).max().unwrap();
        for threads in [1usize, 2, 3, 8] {
            let team = ThreadTeam::new(threads);
            for schedule in [
                Schedule::Static,
                Schedule::Dynamic { chunk: 7 },
                Schedule::dynamic_for(n, threads),
            ] {
                let sum = team_parallel_reduce(
                    &team,
                    n,
                    schedule,
                    0i64,
                    |r, acc| r.fold(acc, |a, i| a.wrapping_add(term(i))),
                    |a, b| a.wrapping_add(b),
                );
                assert_eq!(sum, expected_sum, "threads={threads} {schedule:?}");
                let min = team_parallel_reduce(
                    &team,
                    n,
                    schedule,
                    i64::MAX,
                    |r, acc| r.fold(acc, |a, i| a.min(term(i))),
                    |a: i64, b| a.min(b),
                );
                assert_eq!(min, expected_min);
                let max = team_parallel_reduce(
                    &team,
                    n,
                    schedule,
                    i64::MIN,
                    |r, acc| r.fold(acc, |a, i| a.max(term(i))),
                    |a: i64, b| a.max(b),
                );
                assert_eq!(max, expected_max);
            }
        }
    }

    #[test]
    fn team_reduce_handles_empty_and_degenerate_spaces() {
        let team = ThreadTeam::new(4);
        assert_eq!(
            team_parallel_reduce(
                &team,
                0,
                Schedule::Static,
                42i64,
                |_, acc| acc,
                |a, b| a + b
            ),
            42
        );
        assert_eq!(
            team_parallel_reduce(
                &team,
                1,
                Schedule::Dynamic { chunk: 16 },
                0i64,
                |r, acc| acc + r.len() as i64,
                |a, b| a + b
            ),
            1
        );
    }

    #[test]
    fn dynamic_stealing_on_a_team_covers_every_iteration_exactly_once() {
        for (n, threads, chunk) in [
            (0usize, 4usize, 3usize),
            (1, 4, 3),
            (97, 3, 5),
            (1000, 8, 1),
            (64, 2, 64),
        ] {
            let team = ThreadTeam::new(threads);
            let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
            team_parallel_for_schedule(&team, n, Schedule::Dynamic { chunk }, |r| {
                for i in r {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "n={n} threads={threads} chunk={chunk}"
            );
        }
    }

    #[test]
    fn dynamic_schedule_matches_static_results() {
        let n = 4096;
        let expected: Vec<u64> = (0..n)
            .map(|i| (i as u64).wrapping_mul(0x9e3779b9))
            .collect();
        let team = ThreadTeam::new(4);
        for schedule in [
            Schedule::Static,
            Schedule::Dynamic { chunk: 7 },
            Schedule::dynamic_for(n, 4),
        ] {
            let out: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            team_parallel_for_schedule(&team, n, schedule, |r| {
                for i in r {
                    out[i].store((i as u64).wrapping_mul(0x9e3779b9), Ordering::Relaxed);
                }
            });
            let got: Vec<u64> = out.iter().map(|v| v.load(Ordering::Relaxed)).collect();
            assert_eq!(got, expected, "{schedule:?}");
        }
    }

    #[test]
    fn chunk_stealing_and_static_agree_under_adversarial_skew() {
        // One iteration (the last) carries ~all the work; every other
        // iteration is trivial.  Whatever the schedule and whoever steals
        // what, the reduction and the element-wise results must be
        // bit-identical to the serial ones.
        let n = 513usize;
        let work = |i: usize| -> i64 {
            let rounds = if i == n - 1 { 40_000 } else { 1 };
            let mut acc = i as i64;
            for _ in 0..rounds {
                acc = acc
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
            }
            acc
        };
        let expected: i64 = (0..n).map(work).fold(0i64, |a, b| a.wrapping_add(b));
        for threads in [2usize, 3, 8] {
            let team = ThreadTeam::new(threads);
            for schedule in [Schedule::Static, Schedule::Dynamic { chunk: 1 }] {
                let got = team_parallel_reduce(
                    &team,
                    n,
                    schedule,
                    0i64,
                    |r, acc| r.fold(acc, |a, i| a.wrapping_add(work(i))),
                    |a, b| a.wrapping_add(b),
                );
                assert_eq!(got, expected, "threads={threads} {schedule:?}");
            }
        }
    }

    #[test]
    fn shared_teams_are_reused_across_calls_and_survive_panics() {
        let size = 5;
        let workers = with_shared_team(size, |t| {
            assert_eq!(t.size(), size);
            worker_ids(t)
        });
        assert_eq!(workers.len(), size);
        for _ in 0..10 {
            let sum = with_shared_team(size, |t| {
                team_parallel_reduce(
                    t,
                    1000,
                    Schedule::Static,
                    0i64,
                    |r, acc| {
                        assert!(workers.contains(&std::thread::current().id()));
                        r.fold(acc, |a, i| a + i as i64)
                    },
                    |a, b| a + b,
                )
            });
            assert_eq!(sum, (0..1000i64).sum::<i64>());
        }
        // A panicked region must not wedge the registry or the team.
        let r = std::panic::catch_unwind(|| {
            with_shared_team(size, |t| t.run(&|_| panic!("boom")));
        });
        assert!(r.is_err());
        assert_eq!(
            with_shared_team(size, worker_ids),
            workers,
            "every later caller reuses the registered team"
        );
    }

    #[test]
    fn distinct_groups_hold_distinct_teams_of_the_same_size() {
        let size = 6;
        let first = with_shared_team_in(100, size, worker_ids);
        let second = with_shared_team_in(101, size, worker_ids);
        assert_eq!((first.len(), second.len()), (size, size));
        // Only this thread, worker 0 of both regions, is on both teams.
        let me = HashSet::from([std::thread::current().id()]);
        assert_eq!(&first & &second, me);
        // Both are reused thereafter.
        assert_eq!(with_shared_team_in(100, size, worker_ids), first);
        assert_eq!(with_shared_team_in(101, size, worker_ids), second);
        assert!(shared_team_count() >= 2);
    }

    #[test]
    #[should_panic(expected = "worker thread panicked")]
    fn worker_panics_propagate_to_the_caller() {
        let team = ThreadTeam::new(2);
        team.run(&|w| {
            if w == 1 {
                panic!("boom");
            }
        });
    }

    #[test]
    fn a_team_still_works_after_a_panicked_region() {
        let team = ThreadTeam::new(2);
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            team.run(&|_| panic!("boom"));
        }));
        assert!(r.is_err());
        assert_eq!(worker_ids(&team).len(), 2);
    }
}
