//! The persistent worker-thread team — the one place this workspace's
//! compute layers create threads, and the one place that busy-waits.
//!
//! An interpreted program dispatches *adjacent* parallel loops — a fill
//! loop, a prefix sum, a traversal — and a wavefront loop or a CG solve is
//! a *sequence of dependent parallel phases*; paying a spawn/join cycle per
//! loop would put thread creation on the critical path, and paying a
//! fork/join per phase puts two condvar round trips there (OpenMP keeps one
//! team alive across `parallel` regions, and runs SpTRSV as one region with
//! a `barrier` per level, for the same reasons).
//!
//! **Regions.**  [`ThreadTeam`] spawns its workers once and parks them on a
//! condition variable between regions.  [`ThreadTeam::region`] — the one
//! entry — hands every worker the same borrowed closure, runs worker 0's
//! share on the requesting thread itself (OpenMP's master thread: it is
//! already running on a CPU, so only `size - 1` wake-ups stand between a
//! region and full width) and blocks until all of them have returned, so
//! the closure may freely borrow stack data — the borrow provably outlives
//! the workers' use of it.  It hands back one result per member, in worker
//! order.
//!
//! **Members.**  The closure receives a [`Member`]: its worker index, the
//! team size, [`Member::barrier`] and [`Member::share`], which deals the
//! member its part of a loop — its static [`chunk_range`], or chunks it
//! claims off a cursor the members share — and is the one work-sharing
//! loop of the workspace.  State a member carries from phase to phase is
//! just locals on its stack.
//!
//! **The barrier** is sense-reversing over atomics: arriving is a `Release`
//! decrement of the phase's pending count, the last arrival re-arms the
//! count and flips the team's sense, and leaving is an `Acquire` load of
//! the flipped sense — so everything any member wrote before the barrier is
//! visible to every member after it.  A waiter polls the sense for a
//! bounded number of [`spin_loop`](std::hint::spin_loop) iterations
//! (`BARRIER_SPINS`: the few microseconds by which balanced members on
//! their own CPUs miss each other), then for a bounded number of
//! [`yield_now`](std::thread::yield_now) calls (`BARRIER_YIELDS`: when the
//! member it waits for is runnable on *this* CPU — a team wider than the
//! machine, a vCPU the host took away — the yield is what lets it run, and
//! the barrier costs a context switch instead of a spin budget plus a
//! sleep), and only then parks on the team's mutex.
//!
//! **Departure.**  A member whose closure returns (or unwinds) while others
//! still have phases to run *departs*: it counts as arrived at the phase it
//! left in and the barrier stops waiting for it from then on (C++'s
//! `std::barrier::arrive_and_drop`).  Since every member departs sooner or
//! later, every phase completes and no waiter is ever stranded.
//!
//! **Abort.**  [`Member::abort`] — and a panic in any member — marks the
//! region aborted *before* that member arrives or departs, so every
//! [`barrier`](Member::barrier) that completes afterwards returns
//! [`RegionAborted`] and the members drain out instead of running a phase
//! whose predecessor did not finish.  A panic is re-raised by the region
//! entry once the region has drained; the team is reusable afterwards.
//!
//! [`team_parallel_for_schedule`] and [`team_parallel_reduce`] run a loop
//! or a reduction as a one-phase region whose members [`share`](Member::share)
//! it; [`with_shared_team_in`] lends out a group's one process-wide team,
//! respawned whenever a caller asks it for another size, which is what the
//! `threads: usize` entry points in [`crate::pool`] run on.
//!
//! [`team_threads_spawned`] counts every worker ever spawned process-wide,
//! so tests can assert that back-to-back regions reuse one team instead of
//! respawning.

use crate::pool::{chunk_range, Schedule};
use std::cell::Cell;
use std::collections::HashMap;
use std::convert::Infallible;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

static TEAM_THREADS_SPAWNED: AtomicU64 = AtomicU64::new(0);

/// How long a barrier waiter polls the sense flag before it starts
/// yielding, and how often it yields before it parks.  Constants, not
/// knobs: the spin (~3 µs) covers members of a balanced phase on their own
/// CPUs; the yields hand the CPU to a straggler that shares it, and — each
/// returning at once when nothing else is runnable here — stretch the
/// polling to the tens of microseconds a futex sleep and wake-up would
/// cost anyway.
const BARRIER_SPINS: u32 = 200;
const BARRIER_YIELDS: u32 = 50;

thread_local! {
    /// Set while this thread executes its share of a team region or holds
    /// a shared team (always, on a spawned worker); see
    /// [`with_shared_team_in`].
    static ON_TEAM: Cell<bool> = const { Cell::new(false) };
}

/// Holds this thread's previous [`ON_TEAM`] mark and puts it back when
/// dropped, unwinding included.
struct OnTeam(bool);

impl Drop for OnTeam {
    fn drop(&mut self) {
        ON_TEAM.set(self.0);
    }
}

/// Process-wide count of worker threads ever spawned by [`ThreadTeam`]s.
/// Tests diff this around adjacent parallel regions to assert the team is
/// reused, not respawned.
pub fn team_threads_spawned() -> u64 {
    TEAM_THREADS_SPAWNED.load(Ordering::Relaxed)
}

/// What every member of one region runs.
type RegionFn<'a> = dyn for<'m> Fn(&Member<'m>) + Sync + 'a;

/// The closure of the region in flight; raw pointer so the borrow can cross
/// the (pre-spawned) thread boundary.  Safety argument in
/// [`ThreadTeam::enter`].
struct Job(*const RegionFn<'static>);

// SAFETY: the pointee is Sync and `enter` keeps the borrow alive until
// every worker has finished with it.
unsafe impl Send for Job {}

struct TeamState {
    job: Option<Job>,
    epoch: u64,
    remaining: usize,
    panicked: bool,
    shutdown: bool,
    /// Members asleep in [`TeamShared::wait`]; the thread that opens a
    /// phase notifies only when there are any.
    parked: usize,
}

struct TeamShared {
    state: Mutex<TeamState>,
    work: Condvar,
    done: Condvar,
    /// Where barrier waiters park once their spin budget is spent.
    phase: Condvar,
    /// Members of the region in flight that have not departed.
    members: AtomicUsize,
    /// Members the current phase still waits for.
    pending: AtomicUsize,
    /// What the last arrival of every phase publishes: the flipped
    /// [`SENSE`] bit, plus [`ABORTED`] when the region was aborted by then —
    /// one word, so every leaver of a phase gets the same answer.
    sense: AtomicU8,
    /// Sticky for the region once a member aborted or panicked.
    aborted: AtomicBool,
}

const SENSE: u8 = 1;
const ABORTED: u8 = 2;

impl TeamShared {
    fn lock(&self) -> MutexGuard<'_, TeamState> {
        // No holder of the state lock runs caller code, so it cannot be
        // poisoned by a panicking region.
        self.state
            .lock()
            .expect("team state is never locked across caller code")
    }

    /// Counts one arrival at the current phase.  The last one re-arms the
    /// count for the members still on the team, publishes the flipped sense
    /// word (returned) and wakes the parked; every other arrival gets
    /// `None` and, unless it is departing, [`wait`](Self::wait)s.
    fn arrive(&self) -> Option<u8> {
        // Release: this member's writes are published to whoever opens the
        // phase; Acquire: the opener has seen every earlier arrival's.
        if self.pending.fetch_sub(1, Ordering::AcqRel) != 1 {
            return None;
        }
        // Nobody else touches the counters now: every member has arrived
        // or departed, and none can leave before the store below.
        self.pending
            .store(self.members.load(Ordering::Relaxed), Ordering::Relaxed);
        let mut word = !self.sense.load(Ordering::Relaxed) & SENSE;
        // An aborting member set the flag before it arrived or departed.
        if self.aborted.load(Ordering::Relaxed) {
            word |= ABORTED;
        }
        self.sense.store(word, Ordering::Release);
        // A waiter re-checks the sense under this lock before it sleeps, so
        // it either sees the flip or is counted in `parked` by now.
        if self.lock().parked > 0 {
            self.phase.notify_all();
        }
        Some(word)
    }

    /// Blocks until the team's sense bit equals `sense` and returns the
    /// word that opened the phase: a bounded spin, a bounded run of
    /// yields, then a park on the team's mutex.
    fn wait(&self, sense: u8) -> u8 {
        let opened = || Some(self.sense.load(Ordering::Acquire)).filter(|w| w & SENSE == sense);
        for _ in 0..BARRIER_SPINS {
            if let Some(word) = opened() {
                return word;
            }
            std::hint::spin_loop();
        }
        for _ in 0..BARRIER_YIELDS {
            if let Some(word) = opened() {
                return word;
            }
            std::thread::yield_now();
        }
        let mut st = self.lock();
        st.parked += 1;
        let word = loop {
            if let Some(word) = opened() {
                break word;
            }
            st = self
                .phase
                .wait(st)
                .expect("team state is never locked across caller code");
        };
        st.parked -= 1;
        word
    }
}

/// Returned by [`Member::barrier`] once the region has been aborted: the
/// phase before the barrier did not complete everywhere, so the member
/// must not start the next one — return from the region closure instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionAborted;

/// One member's handle on the region it is executing: who it is, how wide
/// the team is, and the barrier between the region's phases.
pub struct Member<'t> {
    shared: &'t TeamShared,
    index: usize,
    size: usize,
    /// The team's sense bit as of the last phase this member completed.
    sense: Cell<u8>,
}

impl Member<'_> {
    /// This member's worker index, `0..size`; 0 is the requesting thread.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Number of members the region started with.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Waits until every member still on the team has arrived, then lets
    /// all of them go: whatever any member wrote before its `barrier()` is
    /// visible to every member after it.  On a team of one it is a no-op.
    ///
    /// `Err(RegionAborted)` means a member aborted or panicked before it
    /// reached this barrier (or an earlier one): the caller must return
    /// instead of starting its next phase.  All members leaving the same
    /// barrier get the same answer.
    pub fn barrier(&self) -> Result<(), RegionAborted> {
        let aborted = if self.size > 1 {
            let sense = !self.sense.get() & SENSE;
            self.sense.set(sense);
            let word = self.shared.arrive();
            word.unwrap_or_else(|| self.shared.wait(sense)) & ABORTED != 0
        } else {
            self.shared.aborted.load(Ordering::Relaxed)
        };
        if aborted {
            return Err(RegionAborted);
        }
        Ok(())
    }

    /// Deals this member its share of `0..n` under `schedule` and calls `f`
    /// on each range it gets: its static [`chunk_range`] (skipped when
    /// empty), or — dynamic — chunks it claims off `cursor`, which every
    /// member of the phase passes and which starts at 0.  The first `Err`
    /// stops this member and is returned; the others carry on with theirs.
    pub fn share<E>(
        &self,
        n: usize,
        schedule: Schedule,
        cursor: &AtomicUsize,
        mut f: impl FnMut(Range<usize>) -> Result<(), E>,
    ) -> Result<(), E> {
        match schedule {
            Schedule::Static => {
                let range = chunk_range(n, self.size, self.index);
                if range.is_empty() {
                    return Ok(());
                }
                f(range)
            }
            Schedule::Dynamic { chunk } => {
                let chunk = chunk.max(1);
                loop {
                    let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                    if start >= n {
                        return Ok(());
                    }
                    f(start..(start + chunk).min(n))?;
                }
            }
        }
    }

    /// Aborts the region: the barrier ending the phase this member is in,
    /// and every later one, returns [`RegionAborted`] to all its members.
    /// The caller should return right after.
    pub fn abort(&self) {
        // Published by this member's next arrival (or its departure).
        self.shared.aborted.store(true, Ordering::Relaxed);
    }
}

/// Runs member `index`'s share of a region: the closure, then the
/// departure that lets the remaining members' barriers complete without it.
/// A panic marks the region aborted first and is handed back.
fn run_member(
    shared: &TeamShared,
    index: usize,
    size: usize,
    f: &RegionFn<'_>,
) -> std::thread::Result<()> {
    let member = Member {
        shared,
        index,
        size,
        sense: Cell::new(shared.sense.load(Ordering::Relaxed) & SENSE),
    };
    let result = catch_unwind(AssertUnwindSafe(|| f(&member)));
    if result.is_err() {
        member.abort();
    }
    if size > 1 {
        shared.members.fetch_sub(1, Ordering::Relaxed);
        shared.arrive();
    }
    result
}

/// A fixed-size team: the requesting thread plus `size - 1` persistent
/// worker threads.
///
/// Workers are spawned in [`ThreadTeam::new`] and live until the team is
/// dropped; each region wakes all of them once.  A team of size ≤ 1 spawns
/// no threads and runs regions inline.
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
                parked: 0,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            phase: Condvar::new(),
            members: AtomicUsize::new(0),
            pending: AtomicUsize::new(0),
            sense: AtomicU8::new(0),
            aborted: AtomicBool::new(false),
        });
        let handles = (1..size)
            .map(|index| {
                let shared = Arc::clone(&shared);
                TEAM_THREADS_SPAWNED.fetch_add(1, Ordering::Relaxed);
                std::thread::spawn(move || worker_loop(&shared, index, size))
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

    /// Runs one parallel region: the caller executes `f` as member 0, every
    /// spawned worker as member `worker_index`, once each, and `region`
    /// returns their results in worker order when all of them have
    /// finished.  Members may synchronise any number of times in between
    /// through [`Member::barrier`].  A panic in any of them is re-raised
    /// here after the region has drained.
    pub fn region<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&Member<'_>) -> R + Sync,
    {
        // One slot per member, written by that member alone.
        let slots: Vec<Mutex<Option<R>>> = (0..self.size).map(|_| Mutex::new(None)).collect();
        self.enter(&|m| {
            let result = f(m);
            *slots[m.index()].lock().expect("no slot holder panics") = Some(result);
        });
        let filled = slots.into_iter().map(|s| s.into_inner().ok().flatten());
        filled
            .map(|r| r.expect("every member of a drained region returned"))
            .collect()
    }

    /// The one region entry: publishes `f` as the team's job, runs member
    /// 0's share, and waits for every worker to finish theirs.
    fn enter(&self, f: &RegionFn<'_>) {
        let shared = &*self.shared;
        if self.handles.is_empty() {
            // A team of one: the region is the closure, called inline.
            shared.aborted.store(false, Ordering::Relaxed);
            if let Err(payload) = run_member(shared, 0, 1, f) {
                resume_unwind(payload);
            }
            return;
        }
        {
            let mut st = shared.lock();
            // A real assert, not a debug one: the 'static transmute below
            // is only sound while regions never overlap, so the invariant
            // must hold in release builds too.
            assert!(st.job.is_none(), "overlapping team regions");
            // The transmute erases the borrow's lifetime; `enter` blocks
            // below until `remaining == 0`, i.e. until every worker has
            // returned from `f`, so the pointee outlives all uses.
            let erased: &'static RegionFn<'static> =
                unsafe { std::mem::transmute::<&RegionFn<'_>, &'static RegionFn<'static>>(f) };
            st.job = Some(Job(erased as *const RegionFn<'static>));
            st.epoch += 1;
            st.remaining = self.handles.len();
            st.panicked = false;
            // Published to the workers by the lock they take to read `job`.
            shared.members.store(self.size, Ordering::Relaxed);
            shared.pending.store(self.size, Ordering::Relaxed);
            shared.aborted.store(false, Ordering::Relaxed);
            shared.work.notify_all();
        }
        // The caller's share.  A panic in it must not unwind past the wait
        // below — the workers still hold the borrow of `f`.
        let own = {
            let _on_team = OnTeam(ON_TEAM.replace(true));
            run_member(shared, 0, self.size, f)
        };
        let mut st = shared.lock();
        while st.remaining > 0 {
            st = shared
                .done
                .wait(st)
                .expect("team state is never locked across caller code");
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
            let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            st.shutdown = true;
            self.shared.work.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &TeamShared, index: usize, size: usize) {
    ON_TEAM.set(true);
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut st = shared.lock();
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen_epoch {
                    seen_epoch = st.epoch;
                    break st.job.as_ref().expect("epoch advanced without a job").0;
                }
                st = shared
                    .work
                    .wait(st)
                    .expect("team state is never locked across caller code");
            }
        };
        // SAFETY: `enter` keeps the closure alive until this worker (and
        // all others) decrement `remaining` below.
        let result = run_member(shared, index, size, unsafe { &*job });
        let mut st = shared.lock();
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
/// [`with_shared_team_in`]: one persistent team per group.
type TeamRegistry = Mutex<HashMap<usize, Arc<Mutex<ThreadTeam>>>>;
static SHARED_TEAMS: OnceLock<TeamRegistry> = OnceLock::new();

/// Runs `f` against group 0's process-wide persistent team, sized `size`:
/// the team the CLI, the tests, the benchmark and embedders share.
///
/// This is [`with_shared_team_in`] for group 0 — callers that want several
/// *independent* teams (one per shard of a server, say) pass distinct
/// group keys there instead of serializing on this one.
pub fn with_shared_team<R>(size: usize, f: impl FnOnce(&ThreadTeam) -> R) -> R {
    with_shared_team_in(0, size, f)
}

/// Runs `f` against `group`'s process-wide persistent team, sized `size`.
///
/// Each group holds one team.  The first caller spawns it; every later
/// caller asking for the same size — including later *runs* in the same
/// process — reuses it, so no region after the first pays a spawn/join
/// cycle ([`team_threads_spawned`] stays flat).  A caller asking for
/// another size replaces the team in place: the old team's workers are
/// joined and `size - 1` new ones spawned.  So a process holds at most one
/// team per group, whatever sizes its callers ask for, and a group whose
/// regions alternate sizes respawns on each change.
///
/// The team is guarded by its mutex for the duration of `f` (a
/// [`ThreadTeam`] runs one region at a time): concurrent callers of one
/// group serialize, while distinct groups proceed in parallel — this is
/// the sharding primitive `sspard` builds on (one group per shard).  A
/// panic inside `f` (e.g. a propagated worker panic) poisons no
/// invariant: the team survives panicked regions, so the lock is simply
/// recovered.
///
/// With `size <= 1`, or called while this thread is on a team — a member
/// of a region, or inside the `f` of an outer call — `f` gets an inline
/// team of one instead, with no lock taken: the team a nested request asks
/// for may be the very one the caller holds, and waiting for it would never
/// end.  Nested regions serialise, as under OpenMP's default.
pub fn with_shared_team_in<R>(group: usize, size: usize, f: impl FnOnce(&ThreadTeam) -> R) -> R {
    if size <= 1 || ON_TEAM.get() {
        return f(&ThreadTeam::new(1));
    }
    let team = {
        let registry = SHARED_TEAMS.get_or_init(Default::default);
        let mut map = registry.lock().unwrap_or_else(|e| e.into_inner());
        let slot = map.entry(group);
        Arc::clone(slot.or_insert_with(|| Arc::new(Mutex::new(ThreadTeam::new(size)))))
    };
    let mut guard = team.lock().unwrap_or_else(|e| e.into_inner());
    if guard.size() != size {
        // Joins the old workers before the new ones are spawned.
        *guard = ThreadTeam::new(1);
        *guard = ThreadTeam::new(size);
    }
    let _on_team = OnTeam(ON_TEAM.replace(true));
    f(&guard)
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
    let cursor = AtomicUsize::new(0);
    team.region(|m| {
        let Ok(()) = m.share(n, schedule, &cursor, |r| {
            body(r);
            Ok::<_, Infallible>(())
        });
    });
}

/// A general parallel reduction over `0..n` on `team` under `schedule`:
/// every worker folds the ranges it executes into a private partial
/// starting from a clone of `identity` (one partial per worker, not per
/// chunk), and the partials the region hands back are merged with `combine`
/// in worker order.
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
    T: Clone + Send + Sync,
    F: Fn(Range<usize>, T) -> T + Sync,
    C: Fn(T, T) -> T,
{
    if team.size() <= 1 || n == 0 {
        return body(0..n, identity);
    }
    let cursor = AtomicUsize::new(0);
    let partials = team.region(|m| {
        let mut acc = Some(identity.clone());
        let Ok(()) = m.share(n, schedule, &cursor, |r| {
            acc = acc.take().map(|a| body(r, a));
            Ok::<_, Infallible>(())
        });
        acc.expect("the fold puts the accumulator back")
    });
    partials
        .into_iter()
        .reduce(combine)
        .expect("a team has at least one member")
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
        team.region(|_| {
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
    fn a_write_before_a_barrier_is_read_after_it_for_ten_thousand_phases() {
        // Sizes 3 and 8 oversubscribe a small host: only a bounded spin
        // that falls back to yielding and parking gets through this in
        // seconds.
        const PHASES: u64 = 10_000;
        for size in [2usize, 3, 8] {
            let team = ThreadTeam::new(size);
            // Double-buffered by phase parity: a slow reader of phase `p`
            // is two barriers ahead of the writer that reuses its cell.
            let cells: Vec<[AtomicU64; 2]> = (0..size).map(|_| Default::default()).collect();
            let read = team.region(|m| {
                let (w, next) = (m.index(), (m.index() + 1) % size);
                let mut read = 0;
                for phase in 0..PHASES {
                    let buf = (phase % 2) as usize;
                    cells[w][buf].store(phase * 8 + w as u64, Ordering::Relaxed);
                    m.barrier().expect("nobody aborts");
                    assert_eq!(
                        cells[next][buf].load(Ordering::Relaxed),
                        phase * 8 + next as u64
                    );
                    read += 1;
                }
                read
            });
            assert_eq!(read, vec![PHASES; size]);
        }
    }

    #[test]
    fn a_member_that_returns_early_does_not_strand_the_others() {
        let team = ThreadTeam::new(4);
        let phases = team.region(|m| {
            let mine = if m.index() == 1 { 3 } else { 200 };
            for _ in 0..mine {
                m.barrier().expect("a departure is not an abort");
            }
            mine
        });
        assert_eq!(phases, vec![200, 3, 200, 200]);
    }

    #[test]
    fn a_panic_in_one_phase_releases_the_rest_and_the_team_survives() {
        let team = ThreadTeam::new(3);
        let stopped_at: Vec<AtomicU32> = (0..3).map(|_| AtomicU32::new(u32::MAX)).collect();
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            team.region(|m| {
                for phase in 0..1000u32 {
                    if m.index() == 2 && phase == 5 {
                        panic!("boom in phase 5");
                    }
                    if m.barrier().is_err() {
                        stopped_at[m.index()].store(phase, Ordering::Relaxed);
                        return;
                    }
                }
            })
        }));
        assert!(r.is_err(), "the region entry re-raises the member's panic");
        // The panicking member never arrived at barrier 5, so that is the
        // barrier that released the others — not an earlier or later one.
        let stopped: Vec<u32> = stopped_at
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .collect();
        assert_eq!(stopped, vec![5, 5, u32::MAX]);
        assert_eq!(team.region(|m| m.index()), vec![0, 1, 2]);
    }

    #[test]
    fn an_abort_fails_the_barrier_of_the_phase_it_happened_in() {
        let team = ThreadTeam::new(3);
        let completed = team.region(|m| {
            let mut completed = 0;
            loop {
                if m.index() == 0 && completed == 2 {
                    m.abort();
                    return completed;
                }
                if m.barrier().is_err() {
                    return completed;
                }
                completed += 1;
            }
        });
        assert_eq!(completed, vec![2, 2, 2]);
        // The flag is per region.
        assert_eq!(team.region(|m| m.barrier()), vec![Ok(()); 3]);
    }

    #[test]
    fn a_region_requested_from_inside_a_member_runs_inline_on_a_team_of_one() {
        let team = ThreadTeam::new(2);
        let nested = team.region(|_| {
            with_shared_team(4, |inner| {
                let sizes = inner.region(|m| {
                    m.barrier().expect("a team of one has a no-op barrier");
                    (m.index(), m.size())
                });
                (inner.size(), sizes)
            })
        });
        assert_eq!(nested, vec![(1, vec![(0, 1)]); 2]);
    }

    #[test]
    fn region_results_come_back_in_worker_order() {
        for size in [1usize, 2, 5] {
            let team = ThreadTeam::new(size);
            let expected: Vec<usize> = (0..size).map(|w| w * 10).collect();
            assert_eq!(team.region(|m| m.index() * 10), expected);
        }
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
    fn share_deals_each_iteration_once_and_stops_a_member_at_its_first_error() {
        let n = 1000usize;
        for schedule in [Schedule::Static, Schedule::Dynamic { chunk: 7 }] {
            let team = ThreadTeam::new(3);
            let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
            let cursor = AtomicUsize::new(0);
            // Whichever member is dealt iteration 500 fails on that range.
            let outcomes = team.region(|m| {
                let mut calls = 0;
                let outcome = m.share(n, schedule, &cursor, |r| {
                    calls += 1;
                    if r.contains(&500) {
                        return Err((r, calls));
                    }
                    for i in r {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(())
                });
                (outcome, calls)
            });
            let failed: Vec<_> = outcomes.iter().filter(|(o, _)| o.is_err()).collect();
            let [(Err((range, at)), calls)] = failed[..] else {
                panic!("{schedule:?}: {outcomes:?}");
            };
            assert_eq!(at, calls, "{schedule:?}: no range is dealt after the error");
            for (i, h) in hits.iter().enumerate() {
                let want = u32::from(!range.contains(&i));
                assert_eq!(h.load(Ordering::Relaxed), want, "{schedule:?} i={i}");
            }
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
            with_shared_team(size, |t| t.region(|_| panic!("boom")));
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
    }

    #[test]
    fn a_group_asked_for_another_size_replaces_its_team_and_its_holder_nests_inline() {
        let first = with_shared_team_in(102, 3, worker_ids);
        let second = with_shared_team_in(102, 2, worker_ids);
        assert_eq!((first.len(), second.len()), (3, 2));
        let me = HashSet::from([std::thread::current().id()]);
        assert_eq!(&first & &second, me, "the team of 2 is a new one");
        // The thread holding the group's team asks the group again: inline,
        // instead of waiting on the team it holds.
        let nested = with_shared_team_in(102, 2, |_| with_shared_team_in(102, 4, |t| t.size()));
        assert_eq!(nested, 1);
        assert_eq!(with_shared_team_in(102, 2, worker_ids), second);
    }

    #[test]
    #[should_panic(expected = "worker thread panicked")]
    fn worker_panics_propagate_to_the_caller() {
        let team = ThreadTeam::new(2);
        team.region(|m| {
            if m.index() == 1 {
                panic!("boom");
            }
        });
    }

    #[test]
    fn a_team_still_works_after_a_panicked_region() {
        let team = ThreadTeam::new(2);
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            team.region(|_| panic!("boom"));
        }));
        assert!(r.is_err());
        assert_eq!(worker_ids(&team).len(), 2);
    }
}
