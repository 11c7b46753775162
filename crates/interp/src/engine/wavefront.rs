//! The level-set dispatch strategy: serial-proven loops executed as
//! dependence level sets.
//!
//! The compile-time analysis concedes carried loops — SpTRSV, Gauss-
//! Seidel sweeps, histogram scatters — to serial execution.  This
//! strategy recovers them at run time, the way sparse solver libraries do:
//!
//! 1. **Gate** (compile time): `ss_parallelizer::wavefront` marks a
//!    serial loop wavefront-schedulable when its memory footprint is a
//!    pure function of loop-entry state (no written array and no scalar
//!    tainted by one ever reaches an address position or a branch).
//! 2. **Inspect** (first run per input): the loop body is executed
//!    serially on a *cloned* scalar frame with shadow copies of the written
//!    arrays, recording each iteration's read/write addresses — the base
//!    heap is untouched, so a failed or unprofitable inspection falls
//!    back to plain serial execution with bit-identical behavior.
//! 3. **Schedule**: `ss_inspector::levelset::build_level_sets` turns the
//!    recorded footprints into wavefronts (level sets): iterations in one
//!    level are provably conflict-free, and every dependence crosses
//!    levels in execution order.  The schedule is cached on the
//!    artifacts' engine-extension slot, keyed by the entry state that
//!    determined it (scalars + schedule-array contents), so one
//!    inspection serves every later run on the same input; each hit is
//!    verified against an independent checksum of that state, so a key
//!    collision costs a re-inspection, never a wrong schedule.  Schedule
//!    arrays the program never writes (an input matrix, typically the
//!    bulk of the state) are looked up by their *generations* first (see
//!    [`ArrayVal`]): a hit then hashes only the scalars and the arrays the
//!    program writes.  Only a generation miss hashes the stable arrays'
//!    contents, and a content hit files the new generation signature as
//!    the entry's one alias.
//! 4. **Execute**: the shared recipe (`engine::shared`) enters the
//!    persistent thread team once and runs the levels as the phases of
//!    that one region, each member crossing the team's in-region barrier
//!    between its share of one level and its share of the next — the same
//!    workers, body (the loop's lowered chain), fold and merge-back as a
//!    proven-parallel loop, which is the one-phase case.  When the
//!    schedule is too fine (average level width below [`MIN_AVG_WIDTH`])
//!    the loop stays serial: a pure recurrence inspects to `n` levels of
//!    one iteration and is not worth a barrier per iteration.
//!
//! Nothing here knows the loop body: this module owns the recording store
//! (`InspectArrays`, store kind `InspectKind`), the cache and the schedule
//! build, and the recipe replays the body — the chain the workers run,
//! lowered for this store kind — over that store.  Proven-parallel and
//! reduction loops never get here — the `Dispatcher` tries proof-based
//! dispatch first.
//!
//! Steps 1–3 are also the run-time-inspector baseline
//! (`ExecOptions::baseline_inspector`): on every dispatching row the
//! `Dispatcher` reads "one level" off the schedule as "an inspector would
//! have licensed a parallel executor"; step 4 stays reserved to rows with
//! `EngineCaps::level_sets`.

use super::shared::{elem_at, ArrayStore, Dispatcher, Spine, StoreKind};
use super::{restamp_written, ExecError, ExecOptions, ScheduleSource};
use crate::heap::{ArrayVal, Heap};
use ss_inspector::levelset::{build_level_sets, IterationAccess, LevelSchedule};
use ss_ir::slots::{ArraySlot, SlotMap};
use ss_ir::LoopId;
use ss_parallelizer::{Artifacts, EngineArtifact, WavefrontFact};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

/// Serial fallback threshold: schedules averaging fewer iterations per
/// level than this run serially (the barrier per level would dominate).
pub const MIN_AVG_WIDTH: f64 = 2.0;

// ---------------------------------------------------------------------------
// The schedule cache (an engine artifact).
// ---------------------------------------------------------------------------

/// What a cache hit is checked against before its schedule is trusted:
/// cheap facts of the entry state plus a second hash of the same words,
/// independent of the key's.
#[derive(Clone, PartialEq, Eq)]
struct EntryCheck {
    iterations: usize,
    schedule_array_lens: Vec<usize>,
    fnv: u64,
}

struct CachedSchedule {
    schedule: Arc<LevelSchedule>,
    check: EntryCheck,
    /// The generation key of this entry's one alias, if it has one.
    alias: Option<u64>,
}

/// A generation signature known to denote the state of a content entry.
struct Alias {
    check: EntryCheck,
    content_key: u64,
}

/// The cache's two indexes, keyed by `(loop, entry state hash)`.
#[derive(Default)]
struct Entries {
    /// The schedules, by the hash of every schedule array's contents.
    content: HashMap<(LoopId, u64), CachedSchedule>,
    /// Aliases, by the hash that stands the stable arrays' generations in
    /// for their contents.  At most one per content entry, so a client
    /// that synthesizes a fresh heap per request cannot grow it unbounded.
    generation: HashMap<(LoopId, u64), Alias>,
}

impl Entries {
    /// The schedule the generation signature `(key, check)` is an alias of.
    fn by_generation(
        &self,
        id: LoopId,
        (key, check): &(u64, EntryCheck),
    ) -> Option<Arc<LevelSchedule>> {
        let alias = self
            .generation
            .get(&(id, *key))
            .filter(|a| a.check == *check)?;
        let entry = self.content.get(&(id, alias.content_key))?;
        Some(Arc::clone(&entry.schedule))
    }

    /// Files a freshly inspected schedule, dropping the alias of the
    /// entry it replaces.
    fn insert(&mut self, id: LoopId, key: u64, schedule: Arc<LevelSchedule>, check: EntryCheck) {
        let cached = CachedSchedule {
            schedule,
            check,
            alias: None,
        };
        if let Some(old) = self.content.insert((id, key), cached).and_then(|c| c.alias) {
            self.generation.remove(&(id, old));
        }
    }

    /// Makes the generation signature `(key, check)` the one alias of
    /// content entry `content_key`, dropping whatever alias either had.
    fn alias(&mut self, id: LoopId, content_key: u64, (key, check): (u64, EntryCheck)) {
        let entry = (self.content.get_mut(&(id, content_key)))
            .expect("aliases are filed for an entry just found or inserted");
        if let Some(old) = entry.alias.replace(key).filter(|&old| old != key) {
            self.generation.remove(&(id, old));
        }
        let alias = Alias { check, content_key };
        if let Some(displaced) = self.generation.insert((id, key), alias) {
            if displaced.content_key != content_key {
                if let Some(e) = self.content.get_mut(&(id, displaced.content_key)) {
                    e.alias = None;
                }
            }
        }
    }
}

/// Level-set schedules cached on the artifacts.  One keyed extension slot
/// is shared by both opt levels and every executor: slot numbering and
/// flattened addresses are identical across streams, so a schedule
/// inspected at O0 is valid at O1 and vice versa.
#[derive(Default)]
struct WfScheduleCache {
    map: Mutex<Entries>,
}

impl EngineArtifact for WfScheduleCache {
    fn approx_bytes(&self) -> usize {
        let map = self.map.lock().unwrap_or_else(|e| e.into_inner());
        let schedules = map.content.values();
        let aliases = map.generation.values();
        std::mem::size_of::<Self>()
            + schedules
                .map(|c| 64 + c.schedule.approx_bytes())
                .sum::<usize>()
            + aliases
                .map(|a| 64 + 8 * a.check.schedule_array_lens.len())
                .sum::<usize>()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// The schedule cache of `artifacts`, created on first use.
fn schedule_cache(artifacts: &Artifacts) -> Arc<dyn EngineArtifact> {
    artifacts.engine_artifact("wavefront", 0, || Arc::<WfScheduleCache>::default())
}

fn as_cache(arc: &Arc<dyn EngineArtifact>) -> &WfScheduleCache {
    arc.as_any()
        .downcast_ref::<WfScheduleCache>()
        .expect("the level-set strategy owns its artifact slot")
}

/// Feeds one stream of words to two hashes: the std SipHash that keys the
/// cache, and a word-wise FNV-1a, independent of it, that verifies hits.
struct EntryHasher {
    key: DefaultHasher,
    fnv: u64,
}

impl EntryHasher {
    #[inline]
    fn eat(&mut self, word: u64) {
        self.fnv = (self.fnv ^ word).wrapping_mul(0x0100_0000_01b3);
    }
}

impl Hasher for EntryHasher {
    /// FNV-1a word-wise, not byte-wise: an index array arrives as one
    /// slice — multi-megabyte on a generation miss, when the cache hashes
    /// the arrays the program never writes — and this pass must stay
    /// cheaper than the SipHash one beside it.
    fn write(&mut self, bytes: &[u8]) {
        self.key.write(bytes);
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.eat(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.eat(u64::from_le_bytes(tail));
        }
    }

    fn finish(&self) -> u64 {
        self.key.finish()
    }
}

/// Hashes everything the gate proved the footprint depends on: the
/// scalars at loop entry, the contents of the schedule arrays, the
/// *shapes* of the watched arrays (their dims select flattened
/// addresses), and the iteration cap.  Returns the cache key and the
/// verifier a hit must reproduce.  With `by_generation`, the schedule
/// arrays it marks contribute their generations instead of their
/// contents: the generation signature.
fn entry_state(
    fact: &WavefrontFact,
    id: LoopId,
    spine: &Spine<'_>,
    iterations: usize,
    while_cap: u64,
    by_generation: Option<&[bool]>,
) -> (u64, EntryCheck) {
    let mut h = EntryHasher {
        key: DefaultHasher::new(),
        fnv: 0xcbf2_9ce4_8422_2325,
    };
    id.0.hash(&mut h);
    while_cap.hash(&mut h);
    for (v, d) in spine.regs.iter().zip(spine.defined.iter()) {
        v.hash(&mut h);
        d.hash(&mut h);
    }
    let array = |name: &str| {
        spine
            .slots
            .array_slot(name)
            .and_then(|a| spine.arrays[a.index()].as_ref())
    };
    let mut schedule_array_lens = Vec::with_capacity(fact.schedule_arrays.len());
    for (k, name) in fact.schedule_arrays.iter().enumerate() {
        name.hash(&mut h);
        match array(name) {
            Some(arr) => {
                arr.dims.hash(&mut h);
                if by_generation.is_some_and(|stable| stable[k]) {
                    arr.generation().hash(&mut h);
                } else {
                    // Content keys order `wavefront_schedule_dump` (and
                    // the golden schedules): keep this stream stable.
                    arr.data[..].hash(&mut h);
                }
                schedule_array_lens.push(arr.data.len());
            }
            None => 0u8.hash(&mut h),
        }
    }
    for name in &fact.watched {
        name.hash(&mut h);
        match array(name) {
            Some(arr) => arr.dims.hash(&mut h),
            None => 0u8.hash(&mut h),
        }
    }
    let check = EntryCheck {
        iterations,
        schedule_array_lens,
        fnv: h.fnv,
    };
    (h.finish(), check)
}

// ---------------------------------------------------------------------------
// Inspection: a faithful serial replay on shadow state.
// ---------------------------------------------------------------------------

/// Packs an array access as `slot << 48 | flattened index` — the flat
/// address currency of the level-set builder.
fn pack(slot: usize, flat: usize) -> u64 {
    ((slot as u64) << 48) | flat as u64
}

/// The inspection pass's array store: reads of unwatched arrays hit the
/// spine's arrays (immutably — the loop never writes them), watched
/// arrays are served from private shadow clones so the replay can run the
/// real updates without touching the base heap, and every watched access
/// is recorded for the schedule.
pub(super) struct InspectArrays<'m> {
    slots: &'m SlotMap,
    base: &'m [Option<ArrayVal>],
    watched: &'m [bool],
    shadows: Vec<Option<ArrayVal>>,
    reads: Vec<u64>,
    writes: Vec<u64>,
    /// Set when the replay does something the gate promised impossible
    /// (a write to an unwatched array, a declaration): the inspection is
    /// discarded and the loop falls back to serial.
    poisoned: bool,
}

impl ArrayStore for InspectArrays<'_> {
    fn read(&mut self, a: ArraySlot, indices: &[i64]) -> Result<i64, ExecError> {
        let i = a.index();
        let name = self.slots.array_name(a);
        let arr = if self.watched[i] {
            self.shadows[i].as_ref()
        } else {
            self.base[i].as_ref()
        }
        .ok_or_else(|| ExecError::UndefinedArray(name.to_string()))?;
        let flat = elem_at(name, arr, indices)?;
        if self.watched[i] {
            self.reads.push(pack(i, flat));
        }
        Ok(arr.data[flat])
    }

    fn write(&mut self, a: ArraySlot, indices: &[i64], v: i64) -> Result<(), ExecError> {
        let i = a.index();
        if !self.watched[i] {
            self.poisoned = true;
            return Ok(());
        }
        let name = self.slots.array_name(a);
        let arr = self.shadows[i]
            .as_mut()
            .ok_or_else(|| ExecError::UndefinedArray(name.to_string()))?;
        let flat = elem_at(name, arr, indices)?;
        // A shadow shares its original's generation but is never seen by
        // the cache, and dies with the replay.
        arr.data_mut_unstamped()[flat] = v;
        self.writes.push(pack(i, flat));
        Ok(())
    }

    fn declare(&mut self, _a: ArraySlot, _dims: Vec<usize>) -> Result<(), ExecError> {
        self.poisoned = true;
        Ok(())
    }
}

impl InspectArrays<'_> {
    /// What the iteration just replayed touched, cleared for the next one;
    /// `None` once the replay did something the gate promised impossible.
    pub(super) fn footprint(&mut self) -> Option<IterationAccess> {
        (!self.poisoned).then(|| IterationAccess {
            reads: std::mem::take(&mut self.reads),
            writes: std::mem::take(&mut self.writes),
        })
    }
}

/// The inspection replay's store kind: [`InspectArrays`].
pub(super) enum InspectKind {}

impl StoreKind for InspectKind {
    type Arrays<'s> = InspectArrays<'s>;
    const INDEX: u8 = 2;
}

/// Hands `replay` a recording store over cloned state — it runs the loop
/// serially and returns each iteration's footprint — and builds the
/// level-set schedule from them.  `None` means the replay errored or
/// misbehaved — the caller falls back to serial execution, which
/// reproduces the error (or the behavior) on the real state.
fn inspect_schedule(
    fact: &WavefrontFact,
    spine: &Spine<'_>,
    replay: impl FnOnce(InspectArrays<'_>) -> Option<Vec<IterationAccess>>,
) -> Option<LevelSchedule> {
    let mut watched = vec![false; spine.arrays.len()];
    for name in &fact.watched {
        watched[spine.slots.array_slot(name)?.index()] = true;
    }
    let shadows = spine
        .arrays
        .iter()
        .zip(&watched)
        .map(|(a, &w)| if w { a.clone() } else { None })
        .collect();
    let ia = InspectArrays {
        slots: spine.slots,
        base: &*spine.arrays,
        watched: &watched,
        shadows,
        reads: Vec::new(),
        writes: Vec::new(),
        poisoned: false,
    };
    Some(build_level_sets(&replay(ia)?))
}

// ---------------------------------------------------------------------------
// The strategy, as the dispatcher holds it.
// ---------------------------------------------------------------------------

/// A gate-approved loop: the gate's fact, and which of its schedule
/// arrays the program never writes (*stable*: looked up by generation).
pub(super) struct Gated<'r> {
    fact: &'r WavefrontFact,
    stable: Vec<bool>,
}

/// One run's view of the level-set strategy: the gated loops and the
/// artifacts' schedule cache.
pub(super) struct LevelSets<'r> {
    gated: HashMap<LoopId, Gated<'r>>,
    cache: Arc<dyn EngineArtifact>,
}

impl<'r> LevelSets<'r> {
    pub(super) fn new(artifacts: &'r Artifacts) -> LevelSets<'r> {
        let gate = |fact: &'r WavefrontFact| Gated {
            fact,
            stable: (fact.schedule_arrays.iter())
                .map(|name| !artifacts.written_arrays.contains(name))
                .collect(),
        };
        let loops = artifacts.report.loops.iter();
        LevelSets {
            gated: loops
                .filter_map(|l| l.wavefront.as_ref().map(|w| (l.loop_id, gate(w))))
                .collect(),
            cache: schedule_cache(artifacts),
        }
    }

    /// Loop `id`, when it is wavefront-schedulable.
    pub(super) fn gated(&self, id: LoopId) -> Option<&Gated<'r>> {
        self.gated.get(&id)
    }

    /// The schedule of `n` iterations for this entry state and where it
    /// came from — cached (and verified), or inspected through `replay`
    /// (see [`inspect_schedule`]) and cached now.  `None` means the replay
    /// failed: the loop goes to the serial path, which reproduces the
    /// failure on real state.
    pub(super) fn schedule(
        &self,
        gated: &Gated<'_>,
        id: LoopId,
        spine: &Spine<'_>,
        n: usize,
        while_cap: u64,
        replay: impl FnOnce(InspectArrays<'_>) -> Option<Vec<IterationAccess>>,
    ) -> Option<(Arc<LevelSchedule>, ScheduleSource)> {
        let fact = gated.fact;
        let lock = || {
            let cache = as_cache(&self.cache);
            cache.map.lock().unwrap_or_else(|e| e.into_inner())
        };
        let fits = |s: Arc<LevelSchedule>, source| (s.iterations() == n).then_some((s, source));
        let by_generation = (gated.stable.contains(&true))
            .then(|| entry_state(fact, id, spine, n, while_cap, Some(&gated.stable)));
        if let Some(signature) = &by_generation {
            if let Some(hit) = lock().by_generation(id, signature) {
                return fits(hit, ScheduleSource::Generation);
            }
        }
        let (key, check) = entry_state(fact, id, spine, n, while_cap, None);
        let mut entries = lock();
        let (schedule, source) = match entries.content.get(&(id, key)) {
            Some(hit) if hit.check == check => (Arc::clone(&hit.schedule), ScheduleSource::Content),
            // No entry, or a 64-bit key collision the verifier caught:
            // inspect afresh either way.
            _ => {
                let schedule = Arc::new(inspect_schedule(fact, spine, replay)?);
                entries.insert(id, key, Arc::clone(&schedule), check);
                (schedule, ScheduleSource::Inspected)
            }
        };
        if let Some(signature) = by_generation {
            entries.alias(id, key, signature);
        }
        fits(schedule, source)
    }
}

/// Runs the whole program through the bytecode executor with level-set
/// dispatch, then renders every level-set schedule the run built (or
/// reused from the cache) in loop order — the surface the golden-schedule
/// tests diff.
pub fn wavefront_schedule_dump(
    artifacts: &Artifacts,
    mut heap: Heap,
    opts: &ExecOptions,
) -> Result<String, ExecError> {
    restamp_written(artifacts, &mut heap);
    let dispatcher = Dispatcher::new(artifacts, opts, true);
    let bc = artifacts.bytecode_at(opts.opt_level);
    super::bytecode::run_bytecode(bc, heap, opts, Some(&dispatcher))?;
    let cache_arc = schedule_cache(artifacts);
    let map = as_cache(&cache_arc)
        .map
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    let mut entries: Vec<_> = map.content.iter().collect();
    entries.sort_by_key(|((id, key), _)| (*id, *key));
    let mut out = String::new();
    for ((id, _), cached) in entries {
        out.push_str(&format!("{id}\n"));
        out.push_str(&cached.schedule.render());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::bytecode::run_bytecode;
    use crate::engine::{ExecMode, ExecOutcome};
    use ss_ir::opt::OptLevel;

    /// The bytecode executor, serially or with level-set dispatch.
    fn run(art: &Artifacts, mut heap: Heap, opts: &ExecOptions, level_sets: bool) -> ExecOutcome {
        restamp_written(art, &mut heap);
        let dispatcher = level_sets.then(|| Dispatcher::new(art, opts, true));
        let bc = art.bytecode_at(opts.opt_level);
        run_bytecode(bc, heap, opts, dispatcher.as_ref()).unwrap()
    }

    const SPTRSV: &str = r#"
        for (i = 0; i < n; i++) {
            deg[i] = 0;
        }
        for (i = 0; i < n; i++) {
            for (j = 0; j < i; j++) {
                if (dep[i * n + j] % 5 == 0) {
                    lcol[ptr[i] + deg[i]] = j;
                    deg[i] = deg[i] + 1;
                }
            }
        }
        for (i = 0; i < n; i++) {
            sum = b[i];
            for (j = ptr[i]; j < ptr[i] + deg[i]; j++) {
                sum -= lval[j] * x[lcol[j]];
            }
            x[i] = sum;
        }
    "#;

    fn sptrsv_heap(n: usize) -> Heap {
        Heap::new()
            .with_scalar("n", n as i64)
            .with_array("deg", vec![0; n])
            .with_array("dep", (0..(n * n) as i64).map(|v| v * 7 + 3).collect())
            .with_array("ptr", (0..n as i64).map(|i| i * n as i64).collect())
            .with_array("b", (0..n as i64).map(|v| v * 11 - 40).collect())
            .with_array("lval", vec![1; n * n])
            .with_array("lcol", vec![0; n * n])
            .with_array("x", vec![0; n])
    }

    fn opts(threads: usize, level: OptLevel) -> ExecOptions {
        ExecOptions {
            threads,
            opt_level: level,
            ..ExecOptions::default()
        }
    }

    #[test]
    fn wavefront_matches_serial_on_a_sparse_triangular_solve() {
        let art = Artifacts::compile_source("sptrsv", SPTRSV).unwrap();
        let solve = art
            .report
            .loops
            .iter()
            .rev()
            .find(|l| l.wavefront.is_some())
            .expect("the solve loop is wavefront-schedulable");
        assert_eq!(solve.wavefront.as_ref().unwrap().watched, vec!["x"]);
        for level in [OptLevel::O0, OptLevel::O1] {
            let serial = run(&art, sptrsv_heap(24), &opts(1, level), false);
            let wf = run(&art, sptrsv_heap(24), &opts(4, level), true);
            assert_eq!(serial.heap, wf.heap, "heaps diverge at {level:?}");
        }
    }

    #[test]
    fn recurrences_fall_back_to_serial_execution() {
        // A pure chain inspects to one iteration per level — below the
        // width threshold, so execution stays serial (and correct).
        let src = "for (i = 1; i < n; i++) { x[i] = x[i - 1] + 1; }";
        let art = Artifacts::compile_source("chain", src).unwrap();
        assert!(art.report.loops[0].wavefront.is_some());
        let heap = Heap::new()
            .with_scalar("n", 64)
            .with_array("x", vec![0; 64]);
        let out = run(&art, heap.clone(), &opts(4, OptLevel::O1), true);
        let serial = run(&art, heap, &opts(1, OptLevel::O1), false);
        assert_eq!(out.heap, serial.heap);
        let stats = &out.stats.loops[&LoopId(0)];
        assert!(matches!(stats.mode, ExecMode::Serial));
    }

    #[test]
    fn schedule_dump_is_deterministic_and_level_ordered() {
        let src = "for (i = 0; i < n; i++) { h[idx[i]] = i; }";
        let art = Artifacts::compile_source("scatter", src).unwrap();
        let heap = || {
            Heap::new()
                .with_scalar("n", 6)
                .with_array("idx", vec![0, 1, 0, 2, 1, 2])
                .with_array("h", vec![0; 3])
        };
        let d1 = wavefront_schedule_dump(&art, heap(), &opts(2, OptLevel::O1)).unwrap();
        let d2 = wavefront_schedule_dump(&art, heap(), &opts(2, OptLevel::O1)).unwrap();
        assert_eq!(d1, d2);
        // Two writes per slot: two levels, preserving write order.
        assert!(d1.contains("iterations 6 levels 2"), "dump:\n{d1}");
        assert!(d1.contains("level 0: 0 1 3"), "dump:\n{d1}");
        assert!(d1.contains("level 1: 2 4 5"), "dump:\n{d1}");
    }

    #[test]
    fn a_colliding_cache_key_is_reinspected_not_trusted() {
        // Two inputs of one shape whose schedules differ; running B under
        // A's levels would put B's same-slot writes in one level.
        let src = "for (i = 0; i < n; i++) { h[idx[i]] = i; }";
        let heap = |idx: Vec<i64>| {
            Heap::new()
                .with_scalar("n", 6)
                .with_array("idx", idx)
                .with_array("h", vec![0; 3])
        };
        let (a, b) = (vec![0, 1, 0, 2, 1, 2], vec![0, 0, 1, 1, 2, 2]);
        let o = opts(2, OptLevel::O1);
        let entries = |art: &Artifacts| {
            let cache = schedule_cache(art);
            let map = as_cache(&cache).map.lock().unwrap();
            (map.content.iter())
                .map(|(k, c)| (*k, Arc::clone(&c.schedule), c.check.clone()))
                .collect::<Vec<_>>()
        };

        // B's true key and schedule, from an artifact store of its own.
        let art_b = Artifacts::compile_source("scatter", src).unwrap();
        run(&art_b, heap(b.clone()), &o, true);
        let (key_b, schedule_b, _) = entries(&art_b).pop().unwrap();

        // Forge the collision: A's entry, filed under B's key.
        let art = Artifacts::compile_source("scatter", src).unwrap();
        run(&art, heap(a), &o, true);
        let (_, schedule_a, check_a) = entries(&art).pop().unwrap();
        assert_ne!(schedule_a.render(), schedule_b.render());
        let cache = schedule_cache(&art);
        as_cache(&cache).map.lock().unwrap().content.insert(
            key_b,
            CachedSchedule {
                schedule: schedule_a,
                check: check_a,
                alias: None,
            },
        );

        let out = run(&art, heap(b.clone()), &o, true);
        assert_eq!(
            out.heap,
            run(&art, heap(b), &opts(1, OptLevel::O1), false).heap
        );
        assert_eq!(
            out.stats.loops[&LoopId(0)].schedule_source,
            Some(ScheduleSource::Inspected)
        );
        let healed = entries(&art).into_iter().find(|(k, ..)| *k == key_b);
        assert_eq!(healed.unwrap().1.render(), schedule_b.render());
    }

    #[test]
    fn a_schedule_array_rewritten_between_entries_is_reinspected() {
        // The level-set loop is entered twice with every scalar equal; in
        // between, the program rewrites its index array `r`.  The first
        // entry runs evens then odds; the second needs odds first (even
        // `i` reads `x[i - 1]`), so the first schedule would read stale
        // values.  `r` keeps the generation the run started with, so only
        // its contents can tell the two entries apart.
        let src = r#"
            i = 8;
            j = 8;
            while (cnt[0] < 2) {
                for (i = 0; i < n; i++) {
                    x[i] = x[r[i]] + 1;
                }
                for (j = 0; j < n; j++) {
                    if (j % 2 == 0 && j > 0) { r[j] = j - 1; } else { r[j] = j; }
                }
                cnt[0] = cnt[0] + 1;
            }
        "#;
        let art = Artifacts::compile_source("rewrite", src).unwrap();
        let solve = art.report.loops.iter().find(|l| l.wavefront.is_some());
        let id = solve.expect("the x loop is gated").loop_id;
        let heap = Heap::new()
            .with_scalar("n", 8)
            .with_array("x", (1..=8).map(|v| v * 10).collect())
            .with_array("r", (0..8).map(|i| i - i % 2).collect())
            .with_array("cnt", vec![0]);
        let registry = crate::EngineRegistry::builtin();
        let reference = registry.reference().unwrap();
        let expected = reference
            .run_serial(&art, heap.clone(), &opts(1, OptLevel::O1))
            .unwrap();
        let wavefront = registry.get("wavefront").unwrap();
        for level in [OptLevel::O0, OptLevel::O1] {
            let out = wavefront
                .run_parallel(&art, heap.clone(), &opts(2, level))
                .unwrap();
            assert_eq!(out.heap, expected.heap, "{level:?}");
            let stats = &out.stats.loops[&id];
            assert_eq!(
                (stats.invocations, stats.wavefront.map(|(l, _)| l)),
                (2, Some(2))
            );
            // Written arrays are never looked up by generation.
            assert!(matches!(
                stats.schedule_source,
                Some(ScheduleSource::Inspected | ScheduleSource::Content)
            ));
        }
    }
}
