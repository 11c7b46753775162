//! A persistent worker-thread team.
//!
//! The scoped-thread helpers in [`crate::pool`] spawn and join fresh OS
//! threads for every parallel region.  That is fine for one long loop, but
//! an interpreted program often dispatches *adjacent* parallel loops — a
//! fill loop, a prefix sum, a traversal — and paying a spawn/join cycle per
//! region puts thread creation on the critical path (OpenMP keeps one team
//! alive across `parallel` regions for the same reason).
//!
//! [`ThreadTeam`] spawns its workers once and parks them on a condition
//! variable between regions.  [`ThreadTeam::run`] hands every worker the
//! same borrowed closure and blocks until all of them finish, so the
//! closure may freely borrow stack data — the borrow provably outlives the
//! workers' use of it.  [`team_parallel_for_schedule`] and
//! [`team_parallel_reduce`] mirror the scoped-thread API on top of a team,
//! including chunk-stealing dynamic scheduling.
//!
//! [`team_threads_spawned`] counts every worker ever spawned process-wide,
//! so tests can assert that back-to-back regions reuse one pool instead of
//! respawning.

use crate::pool::{chunk_ranges, Schedule};
use std::collections::HashMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

static TEAM_THREADS_SPAWNED: AtomicU64 = AtomicU64::new(0);

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

/// A fixed-size team of persistent worker threads.
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
    /// Spawns a team of `size` workers (`size <= 1` spawns none).
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
        let mut handles = Vec::new();
        if size > 1 {
            for index in 0..size {
                let shared = Arc::clone(&shared);
                TEAM_THREADS_SPAWNED.fetch_add(1, Ordering::Relaxed);
                handles.push(std::thread::spawn(move || worker_loop(&shared, index)));
            }
        }
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

    /// Runs one parallel region: every worker executes `f(worker_index)`
    /// once, and `run` returns when all of them have finished.  Panics in a
    /// worker are re-raised here after the region completes.
    pub fn run(&self, f: &(dyn Fn(usize) + Sync)) {
        if self.handles.is_empty() {
            f(0);
            return;
        }
        let mut st = self.shared.state.lock().unwrap();
        // A real assert, not a debug one: the 'static transmute below is
        // only sound while regions never overlap, so the invariant must
        // hold in release builds too.
        assert!(st.job.is_none(), "overlapping team regions");
        // The transmute erases the borrow's lifetime; `run` blocks below
        // until `remaining == 0`, i.e. until every worker has returned from
        // `f`, so the pointee outlives all uses.
        let erased: &'static (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
        };
        st.job = Some(Job(erased as *const (dyn Fn(usize) + Sync)));
        st.epoch += 1;
        st.remaining = self.handles.len();
        st.panicked = false;
        self.shared.work.notify_all();
        while st.remaining > 0 {
            st = self.shared.done.wait(st).unwrap();
        }
        st.job = None;
        let panicked = st.panicked;
        drop(st);
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
pub fn with_shared_team_in<R>(group: usize, size: usize, f: impl FnOnce(&ThreadTeam) -> R) -> R {
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

/// [`crate::pool::parallel_for_schedule`] on a persistent team: runs
/// `body(range)` over `0..n` under `schedule`, splitting the space
/// `team.size()` ways (static) or letting workers steal chunks (dynamic).
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

/// [`crate::pool::parallel_reduce`] on a persistent team: every worker
/// folds the ranges it executes into a private partial starting from
/// `identity`; partials are merged with `combine` in worker order once the
/// region completes.  `combine` must be associative and commutative for
/// the merge to reproduce the serial result — the same contract as the
/// scoped-thread version.
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
    use std::sync::atomic::AtomicU32;

    /// Every test here spawns workers and several diff the process-wide
    /// [`team_threads_spawned`] counter, so they take turns.
    fn one_at_a_time() -> std::sync::MutexGuard<'static, ()> {
        static TURN: std::sync::Mutex<()> = std::sync::Mutex::new(());
        TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn a_team_survives_back_to_back_regions_without_respawning() {
        let _turn = one_at_a_time();
        let team = ThreadTeam::new(4);
        let spawned_after_creation = team_threads_spawned();
        let hits = AtomicU32::new(0);
        for _ in 0..50 {
            team_parallel_for_schedule(&team, 100, Schedule::Static, |r| {
                hits.fetch_add(r.len() as u32, Ordering::Relaxed);
            });
        }
        assert_eq!(hits.load(Ordering::Relaxed), 50 * 100);
        assert_eq!(
            team_threads_spawned(),
            spawned_after_creation,
            "50 adjacent regions must not spawn a single extra thread"
        );
    }

    #[test]
    fn team_of_one_runs_inline_and_spawns_nothing() {
        let _turn = one_at_a_time();
        let before = team_threads_spawned();
        let team = ThreadTeam::new(1);
        assert_eq!(team_threads_spawned(), before);
        let sum = std::sync::Mutex::new(0u64);
        team_parallel_for_schedule(&team, 10, Schedule::Static, |r| {
            *sum.lock().unwrap() += r.len() as u64;
        });
        assert_eq!(*sum.lock().unwrap(), 10);
    }

    #[test]
    fn team_reduce_matches_scoped_reduce_for_both_schedules() {
        let _turn = one_at_a_time();
        let n = 10_000usize;
        let term = |i: usize| ((i as i64).wrapping_mul(0x9e37) % 1001) - 500;
        let expected_sum: i64 = (0..n).map(term).sum();
        let expected_min: i64 = (0..n).map(term).min().unwrap();
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
            }
        }
    }

    #[test]
    fn dynamic_stealing_on_a_team_covers_every_iteration_exactly_once() {
        let _turn = one_at_a_time();
        for (n, threads, chunk) in [
            (0usize, 4usize, 3usize),
            (1, 4, 3),
            (97, 3, 5),
            (1000, 4, 1),
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
    fn chunk_stealing_and_static_agree_under_adversarial_skew() {
        let _turn = one_at_a_time();
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
        let _turn = one_at_a_time();
        // Use an unusual size so no other test in this binary registers it.
        let size = 5;
        let before = team_threads_spawned();
        let first = with_shared_team(size, |t| {
            assert_eq!(t.size(), size);
            team_threads_spawned()
        });
        assert_eq!(first, before + size as u64, "first caller spawns the team");
        for _ in 0..10 {
            let sum = with_shared_team(size, |t| {
                team_parallel_reduce(
                    t,
                    1000,
                    Schedule::Static,
                    0i64,
                    |r, acc| r.fold(acc, |a, i| a + i as i64),
                    |a, b| a + b,
                )
            });
            assert_eq!(sum, (0..1000i64).sum::<i64>());
        }
        assert_eq!(
            team_threads_spawned(),
            first,
            "every later caller reuses the registered team"
        );
        // A panicked region must not wedge the registry or the team.
        let r = std::panic::catch_unwind(|| {
            with_shared_team(size, |t| t.run(&|_| panic!("boom")));
        });
        assert!(r.is_err());
        let hits = AtomicU32::new(0);
        with_shared_team(size, |t| {
            t.run(&|_| {
                hits.fetch_add(1, Ordering::Relaxed);
            })
        });
        assert_eq!(hits.load(Ordering::Relaxed), size as u32);
        assert_eq!(team_threads_spawned(), first);
    }

    #[test]
    fn distinct_groups_hold_distinct_teams_of_the_same_size() {
        let _turn = one_at_a_time();
        // Unusual size so no other test in this binary registers it.
        let size = 6;
        let before = team_threads_spawned();
        with_shared_team_in(100, size, |t| assert_eq!(t.size(), size));
        let after_first = team_threads_spawned();
        assert_eq!(after_first, before + size as u64);
        // A different group at the same size spawns its own team…
        with_shared_team_in(101, size, |t| assert_eq!(t.size(), size));
        assert_eq!(team_threads_spawned(), after_first + size as u64);
        // …and both are reused thereafter.
        for group in [100, 101] {
            let sum = with_shared_team_in(group, size, |t| {
                team_parallel_reduce(
                    t,
                    500,
                    Schedule::Static,
                    0i64,
                    |r, acc| r.fold(acc, |a, i| a + i as i64),
                    |a, b| a + b,
                )
            });
            assert_eq!(sum, (0..500i64).sum::<i64>());
        }
        assert_eq!(team_threads_spawned(), after_first + size as u64);
        assert!(shared_team_count() >= 2);
    }

    #[test]
    #[should_panic(expected = "worker thread panicked")]
    fn worker_panics_propagate_to_the_caller() {
        let _turn = one_at_a_time();
        let team = ThreadTeam::new(2);
        team.run(&|w| {
            if w == 1 {
                panic!("boom");
            }
        });
    }

    #[test]
    fn a_team_still_works_after_a_panicked_region() {
        let _turn = one_at_a_time();
        let team = ThreadTeam::new(2);
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            team.run(&|_| panic!("boom"));
        }));
        assert!(r.is_err());
        let hits = AtomicU32::new(0);
        team.run(&|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 2);
    }
}
