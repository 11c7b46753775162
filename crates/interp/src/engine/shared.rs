//! What every dispatching executor shares: the array stores, the
//! worker-private storage, and **the** dispatch recipe.
//!
//! An executor decides how the *spine* runs (slot-addressed op trees,
//! the register-machine stream, the direct-threaded chain); a *dispatch
//! strategy* decides how a loop's iterations reach the thread team.  The
//! two meet here and nowhere else:
//!
//! * the spine offers a loop by its [`LoopId`] and `defined` flags,
//!   then its once-evaluated header and its state as a [`Spine`] (scalar
//!   frame, `defined` flags, array slots).  Whichever spine offers it, the
//!   loop body off the spine is one piece of code: the loop's lowered
//!   direct-threaded chain ([`ThBody`]), resolved by loop id, whose
//!   lowering also carries the loop's dispatch facts;
//! * the [`Dispatcher`] picks the [`Strategy`] — proof-based parallel-for
//!   first, then dependence level sets when the registry row enables them
//!   (or the run asks for the run-time-inspector baseline, which reads its
//!   verdict off the same inspection) — and [`Dispatcher::run`] does the
//!   rest: gate → size the iteration space (value `k` is `v0 + k·step`,
//!   nothing materialized) → snapshot scalars → one team region over
//!   [`SharedSlots`], one *phase* per level → fold [`ChunkAcc`] →
//!   last-writer / combiner / local-array merge-back.
//!
//! A dispatched loop is **one** region, whatever its strategy: each team
//! member builds one frame, runs its share of phase 0, crosses the team's
//! in-region barrier, runs its share of phase 1, … — a proven-parallel
//! loop is the one-phase case, a level-set loop has a phase per level.
//! Nothing forks or joins between levels; the barrier is also what makes
//! one level's stores visible to the next level's loads on another thread.
//!
//! Every region of every executor runs on the persistent process-wide
//! [`ss_runtime::ThreadTeam`] of the run's
//! [`team_group`](ExecOptions::team_group): the group holds one team,
//! spawned by the first dispatched region of the first run in the group
//! and reused by every later region of every later run at the same thread
//! count, so repeated runs in one process pay one spawn; a run at another
//! count respawns the group's team at that count.  [`run_region`] is the
//! only place in this crate that enters a team region (CI greps for it);
//! each phase's iterations reach the members through
//! [`ss_runtime::Member::share`].
//!
//! The members store into the spine's own arrays, through the
//! relaxed-atomic views [`SharedSlots`] takes with
//! [`ss_runtime::atomic_cells`] — on x86-64 the same plain loads and
//! stores as a `&mut` access.  The crate has no `unsafe` code: a verdict
//! that is wrong about the input (two iterations of one level that touch
//! the same element) makes the members race on values, never into
//! undefined behaviour, and the differential matrix sees the values.

use super::threaded::ThBody;
use super::wavefront::{Gated, InspectArrays, InspectKind, LevelSets, MIN_AVG_WIDTH};
use super::{ExecEnvTiming, ExecError, ExecMode, ExecOptions, ExecStats, ScheduleChoice};
use crate::heap::{row_major_flat, ArrayVal, Heap};
use ss_inspector::levelset::LevelSchedule;
use ss_ir::ast::{BinOp, LoopId};
use ss_ir::slots::{ArraySlot, SlotMap};
use ss_parallelizer::{Artifacts, ReductionOp};
use ss_runtime::{atomic_cells, with_shared_team_in, Schedule};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Heap <-> dense frame.
// ---------------------------------------------------------------------------

/// Loads the heap's scalars into the low `scalar_count()` entries of a
/// dense frame, marking them defined.
pub(super) fn load_scalars(heap: &Heap, slots: &SlotMap, regs: &mut [i64], defined: &mut [bool]) {
    for (i, name) in slots.scalar_names().iter().enumerate() {
        if let Some(&v) = heap.scalars.get(name) {
            regs[i] = v;
            defined[i] = true;
        }
    }
}

/// Writes the defined scalars back, so the final heap contains exactly
/// the names the tree walker would produce.
pub(super) fn store_scalars(heap: &mut Heap, slots: &SlotMap, regs: &[i64], defined: &[bool]) {
    for (i, name) in slots.scalar_names().iter().enumerate() {
        if defined[i] {
            heap.scalars.insert(name.clone(), regs[i]);
        }
    }
}

// ---------------------------------------------------------------------------
// Array stores.
// ---------------------------------------------------------------------------

/// The flat offset of `name[indices]` in `a`, or the access's error: the
/// one bounds and rank check of every heap-backed store.
pub(super) fn elem_at(name: &str, a: &ArrayVal, indices: &[i64]) -> Result<usize, ExecError> {
    if indices.len() != a.dims.len() {
        return Err(ExecError::ArityMismatch {
            array: name.to_string(),
            expected: a.dims.len(),
            got: indices.len(),
        });
    }
    a.flat_index(indices).ok_or_else(|| ExecError::OutOfBounds {
        array: name.to_string(),
        indices: indices.to_vec(),
        dims: a.dims.clone(),
    })
}

/// Where an executor's slot-addressed array traffic lands — and, on a
/// worker, the last-writer bookkeeping of the iterations it runs.
pub(crate) trait ArrayStore {
    fn read(&mut self, a: ArraySlot, indices: &[i64]) -> Result<i64, ExecError>;
    fn write(&mut self, a: ArraySlot, indices: &[i64], v: i64) -> Result<(), ExecError>;
    fn declare(&mut self, a: ArraySlot, dims: Vec<usize>) -> Result<(), ExecError>;

    /// Rank-1 read.  Overrides hit storage directly when the access is in
    /// range and defer everything else (undefined slot, rank mismatch, out
    /// of bounds) to [`read`](Self::read), whose error construction is the
    /// single source of truth.
    #[inline(always)]
    fn read1(&mut self, a: ArraySlot, i: i64) -> Result<i64, ExecError> {
        self.read(a, &[i])
    }

    /// Rank-1 write; see [`read1`](Self::read1).
    #[inline(always)]
    fn write1(&mut self, a: ArraySlot, i: i64, v: i64) -> Result<(), ExecError> {
        self.write(a, &[i], v)
    }

    /// Rank-2 read; see [`read1`](Self::read1).
    #[inline(always)]
    fn read2(&mut self, a: ArraySlot, i: i64, j: i64) -> Result<i64, ExecError> {
        self.read(a, &[i, j])
    }

    /// Rank-2 write; see [`read1`](Self::read1).
    #[inline(always)]
    fn write2(&mut self, a: ArraySlot, i: i64, j: i64, v: i64) -> Result<(), ExecError> {
        self.write(a, &[i, j], v)
    }

    /// Scalar slot `slot` was just written.  Only a worker's store records
    /// it (the iteration that wrote it, for the last-writer merge).
    #[inline(always)]
    fn note_scalar_write(&mut self, _slot: usize) {}
}

/// Names a family of array stores without their lifetimes, so code cached
/// for the life of the artifacts — the lowered chain's handlers — can be
/// monomorphized once per store kind: [`SpineKind`], [`WorkerKind`], the
/// level-set inspection's `InspectKind` and input synthesis'
/// `DiscoverKind`.
pub(crate) trait StoreKind: 'static {
    /// The store, borrowing the state it runs over for `'s`.
    type Arrays<'s>: ArrayStore;

    /// Distinct per kind; keys per-kind caches.
    const INDEX: u8;

    /// A frame of this kind just wrote scalar slot `slot`.  Only the
    /// spine marks it defined: the heap write-back and the dispatch gate
    /// read the marks, and neither runs off the spine.
    #[inline(always)]
    fn define(_defined: &mut [bool], _slot: usize) {}

    /// The spine's dense slots, which a loop handed to the dispatcher lends
    /// to the recipe; `None` off the spine, where nothing dispatches.
    #[inline(always)]
    fn spine<'a, 's>(_arrays: &'a mut Self::Arrays<'s>) -> Option<&'a mut SpineArrays<'s>> {
        None
    }
}

/// The spine's store kind: [`SpineArrays`].
pub(super) enum SpineKind {}

impl StoreKind for SpineKind {
    type Arrays<'s> = SpineArrays<'s>;
    const INDEX: u8 = 0;

    #[inline(always)]
    fn define(defined: &mut [bool], slot: usize) {
        defined[slot] = true;
    }

    #[inline(always)]
    fn spine<'a, 's>(arrays: &'a mut Self::Arrays<'s>) -> Option<&'a mut SpineArrays<'s>> {
        Some(arrays)
    }
}

/// A dispatched worker's store kind: [`WorkerArrays`].
pub(super) enum WorkerKind {}

impl StoreKind for WorkerKind {
    type Arrays<'s> = WorkerArrays<'s>;
    const INDEX: u8 = 1;
}

/// The spine's array store: one dense `Option<ArrayVal>` per slot, moved
/// out of (and back into) the heap.
pub(crate) struct SpineArrays<'m> {
    pub(super) slots: &'m SlotMap,
    pub(super) arrays: Vec<Option<ArrayVal>>,
}

impl<'m> SpineArrays<'m> {
    /// Moves the slotted arrays out of `heap` (taken, not cloned;
    /// unslotted heap entries stay in `heap`).
    pub(super) fn from_heap(heap: &mut Heap, slots: &'m SlotMap) -> SpineArrays<'m> {
        let arrays = slots
            .array_names()
            .iter()
            .map(|name| heap.arrays.remove(name))
            .collect();
        SpineArrays { slots, arrays }
    }

    pub(super) fn into_heap(self, heap: &mut Heap) {
        for (i, arr) in self.arrays.into_iter().enumerate() {
            if let Some(a) = arr {
                heap.arrays.insert(self.slots.array_names()[i].clone(), a);
            }
        }
    }
}

#[inline]
fn private_read(
    slots: &SlotMap,
    arrays: &[Option<ArrayVal>],
    a: ArraySlot,
    indices: &[i64],
) -> Result<i64, ExecError> {
    let name = slots.array_name(a);
    let arr = arrays[a.index()]
        .as_ref()
        .ok_or_else(|| ExecError::UndefinedArray(name.to_string()))?;
    elem_at(name, arr, indices).map(|flat| arr.data[flat])
}

#[inline]
fn private_write(
    slots: &SlotMap,
    arrays: &mut [Option<ArrayVal>],
    a: ArraySlot,
    indices: &[i64],
    v: i64,
) -> Result<(), ExecError> {
    let name = slots.array_name(a);
    let arr = arrays[a.index()]
        .as_mut()
        .ok_or_else(|| ExecError::UndefinedArray(name.to_string()))?;
    let flat = elem_at(name, arr, indices)?;
    arr.data_mut_unstamped()[flat] = v;
    Ok(())
}

impl ArrayStore for SpineArrays<'_> {
    #[inline]
    fn read(&mut self, a: ArraySlot, indices: &[i64]) -> Result<i64, ExecError> {
        private_read(self.slots, &self.arrays, a, indices)
    }

    #[inline]
    fn write(&mut self, a: ArraySlot, indices: &[i64], v: i64) -> Result<(), ExecError> {
        private_write(self.slots, &mut self.arrays, a, indices, v)
    }

    fn declare(&mut self, a: ArraySlot, dims: Vec<usize>) -> Result<(), ExecError> {
        self.arrays[a.index()] = Some(ArrayVal::declared(self.slots.array_name(a), dims)?);
        Ok(())
    }

    /// For rank 1 the row-major flat offset *is* the index and
    /// `data.len() == dims[0]`, so `data.get` is the whole bounds check.
    #[inline(always)]
    fn read1(&mut self, a: ArraySlot, i: i64) -> Result<i64, ExecError> {
        if let Some(arr) = &self.arrays[a.index()] {
            if arr.dims.len() == 1 && i >= 0 {
                if let Some(&v) = arr.data.get(i as usize) {
                    return Ok(v);
                }
            }
        }
        self.read(a, &[i])
    }

    #[inline(always)]
    fn write1(&mut self, a: ArraySlot, i: i64, v: i64) -> Result<(), ExecError> {
        if let Some(arr) = &mut self.arrays[a.index()] {
            if arr.dims.len() == 1 && i >= 0 {
                if let Some(e) = arr.data_mut_unstamped().get_mut(i as usize) {
                    *e = v;
                    return Ok(());
                }
            }
        }
        self.write(a, &[i], v)
    }

    #[inline(always)]
    fn read2(&mut self, a: ArraySlot, i: i64, j: i64) -> Result<i64, ExecError> {
        if let Some(arr) = &self.arrays[a.index()] {
            if let [d0, d1] = arr.dims[..] {
                if i >= 0 && (i as usize) < d0 && j >= 0 && (j as usize) < d1 {
                    return Ok(arr.data[i as usize * d1 + j as usize]);
                }
            }
        }
        self.read(a, &[i, j])
    }

    #[inline(always)]
    fn write2(&mut self, a: ArraySlot, i: i64, j: i64, v: i64) -> Result<(), ExecError> {
        if let Some(arr) = &mut self.arrays[a.index()] {
            if let [d0, d1] = arr.dims[..] {
                if i >= 0 && (i as usize) < d0 && j >= 0 && (j as usize) < d1 {
                    arr.data_mut_unstamped()[i as usize * d1 + j as usize] = v;
                    return Ok(());
                }
            }
        }
        self.write(a, &[i, j], v)
    }
}

/// The spine's shared arrays as relaxed-atomic views of their own cells,
/// one per array slot (`None` for worker-private or absent slots).
///
/// Between two team barriers the members of a correct verdict's region
/// touch disjoint elements (the dispatched loop's proven property, or one
/// level of a dependence level set), and an element one level writes is
/// read or rewritten by another member only in a later level, after a
/// [`Member::barrier`](ss_runtime::Member::barrier) whose
/// Release-on-arrive / Acquire-on-leave ordering makes that write
/// happen-before the access; so `Relaxed` loads and stores see what the
/// serial run sees.  A wrong verdict leaves a race on the values of the
/// elements it shares, nothing worse.
struct SharedSlots<'a> {
    arrs: Vec<Option<SharedSlotArray<'a>>>,
}

struct SharedSlotArray<'a> {
    dims: Vec<usize>,
    cells: &'a [AtomicU64],
}

impl<'a> SharedSlots<'a> {
    fn capture(arrays: &'a mut [Option<ArrayVal>], local: &[bool]) -> SharedSlots<'a> {
        let arrs = arrays
            .iter_mut()
            .enumerate()
            .map(|(i, a)| match a {
                Some(arr) if !local[i] => Some(SharedSlotArray {
                    dims: arr.dims.clone(),
                    cells: atomic_cells(arr.data_mut_unstamped()),
                }),
                _ => None,
            })
            .collect();
        SharedSlots { arrs }
    }

    /// The bounds-checked cell of `a[indices]` in the shared view.  Same
    /// error points as the heap path.
    #[inline]
    fn flat(
        &self,
        slots: &SlotMap,
        a: ArraySlot,
        indices: &[i64],
    ) -> Result<&AtomicU64, ExecError> {
        let name = || slots.array_name(a).to_string();
        let Some(arr) = &self.arrs[a.index()] else {
            return Err(ExecError::UndefinedArray(name()));
        };
        if indices.len() != arr.dims.len() {
            return Err(ExecError::ArityMismatch {
                array: name(),
                expected: arr.dims.len(),
                got: indices.len(),
            });
        }
        row_major_flat(&arr.dims, indices)
            .and_then(|flat| arr.cells.get(flat))
            .ok_or_else(|| ExecError::OutOfBounds {
                array: name(),
                indices: indices.to_vec(),
                dims: arr.dims.clone(),
            })
    }

    /// The cell of an in-range rank-1 (`j = None`) or rank-2 access to
    /// shared array `a`; `None` sends the access down the checked path
    /// (local or absent slot, other rank, out of bounds).
    #[inline(always)]
    fn fast(&self, a: ArraySlot, i: i64, j: Option<i64>) -> Option<&AtomicU64> {
        let arr = self.arrs[a.index()].as_ref()?;
        let flat = match (j, &arr.dims[..]) {
            (None, [_]) => usize::try_from(i).ok()?,
            (Some(j), &[d0, d1]) => {
                let i = usize::try_from(i).ok().filter(|&i| i < d0)?;
                let j = usize::try_from(j).ok().filter(|&j| j < d1)?;
                i * d1 + j
            }
            _ => return None,
        };
        arr.cells.get(flat)
    }
}

pub(super) const NOT_WRITTEN: usize = usize::MAX;

/// A worker's array store: shared relaxed-atomic views of the heap arrays,
/// private storage for the dispatched loop's local arrays, and the
/// last-writing iteration of every scalar slot and local array.
pub(super) struct WorkerArrays<'s> {
    slots: &'s SlotMap,
    shared: &'s SharedSlots<'s>,
    local: &'s [bool],
    locals: Vec<Option<ArrayVal>>,
    local_write_iter: Vec<usize>,
    scalar_write_iter: Vec<usize>,
    /// The iteration running now; the recipe sets it before each one.
    current_iter: usize,
}

impl ArrayStore for WorkerArrays<'_> {
    #[inline]
    fn read(&mut self, a: ArraySlot, indices: &[i64]) -> Result<i64, ExecError> {
        if self.local[a.index()] {
            return private_read(self.slots, &self.locals, a, indices);
        }
        let cell = self.shared.flat(self.slots, a, indices)?;
        Ok(cell.load(Ordering::Relaxed) as i64)
    }

    #[inline]
    fn write(&mut self, a: ArraySlot, indices: &[i64], v: i64) -> Result<(), ExecError> {
        if self.local[a.index()] {
            private_write(self.slots, &mut self.locals, a, indices, v)?;
            self.local_write_iter[a.index()] = self.current_iter;
            return Ok(());
        }
        let cell = self.shared.flat(self.slots, a, indices)?;
        cell.store(v as u64, Ordering::Relaxed);
        Ok(())
    }

    fn declare(&mut self, a: ArraySlot, dims: Vec<usize>) -> Result<(), ExecError> {
        // Every declaration inside a dispatched body targets a local slot
        // (that is how `local_arrays` is computed).
        let i = a.index();
        self.locals[i] = Some(ArrayVal::declared(self.slots.array_name(a), dims)?);
        self.local_write_iter[i] = self.current_iter;
        Ok(())
    }

    #[inline(always)]
    fn read1(&mut self, a: ArraySlot, i: i64) -> Result<i64, ExecError> {
        self.read_small(a, i, None)
    }

    #[inline(always)]
    fn write1(&mut self, a: ArraySlot, i: i64, v: i64) -> Result<(), ExecError> {
        self.write_small(a, i, None, v)
    }

    #[inline(always)]
    fn read2(&mut self, a: ArraySlot, i: i64, j: i64) -> Result<i64, ExecError> {
        self.read_small(a, i, Some(j))
    }

    #[inline(always)]
    fn write2(&mut self, a: ArraySlot, i: i64, j: i64, v: i64) -> Result<(), ExecError> {
        self.write_small(a, i, Some(j), v)
    }

    #[inline(always)]
    fn note_scalar_write(&mut self, slot: usize) {
        self.scalar_write_iter[slot] = self.current_iter;
    }
}

impl WorkerArrays<'_> {
    /// A rank-1 (`j = None`) or rank-2 read, straight off the shared view
    /// when [`SharedSlots::fast`] vouches for it.
    #[inline(always)]
    fn read_small(&mut self, a: ArraySlot, i: i64, j: Option<i64>) -> Result<i64, ExecError> {
        match (self.shared.fast(a, i, j), j) {
            (Some(cell), _) => Ok(cell.load(Ordering::Relaxed) as i64),
            (None, None) => self.read(a, &[i]),
            (None, Some(j)) => self.read(a, &[i, j]),
        }
    }

    /// The write counterpart of [`read_small`](Self::read_small).
    #[inline(always)]
    fn write_small(
        &mut self,
        a: ArraySlot,
        i: i64,
        j: Option<i64>,
        v: i64,
    ) -> Result<(), ExecError> {
        match (self.shared.fast(a, i, j), j) {
            (Some(cell), _) => {
                cell.store(v as u64, Ordering::Relaxed);
                Ok(())
            }
            (None, None) => self.write(a, &[i], v),
            (None, Some(j)) => self.write(a, &[i, j], v),
        }
    }
}

// ---------------------------------------------------------------------------
// What an executor hands the recipe.
// ---------------------------------------------------------------------------

/// The dispatching executor's state, as the recipe sees it: a dense frame
/// whose low `defined.len()` entries are the scalar slots (anything above
/// is the spine's temporaries; the compiled spine has none), and the
/// array slots.
pub(super) struct Spine<'a> {
    pub(super) regs: &'a mut [i64],
    pub(super) defined: &'a mut [bool],
    pub(super) arrays: &'a mut [Option<ArrayVal>],
    pub(super) slots: &'a SlotMap,
}

impl Spine<'_> {
    fn set(&mut self, slot: usize, v: i64) {
        self.regs[slot] = v;
        self.defined[slot] = true;
    }
}

// ---------------------------------------------------------------------------
// The fold.
// ---------------------------------------------------------------------------

/// One worker's contribution, folded over the phases it takes part in and
/// merged across workers by [`ChunkAcc::combine`].  Executor-agnostic: slot
/// indices, iteration numbers, array values.
#[derive(Clone)]
struct ChunkAcc {
    err: Option<ExecError>,
    /// Last write per scalar slot: `(iteration, value)`.
    scalar_writes: Vec<Option<(usize, i64)>>,
    /// Reduction partials, aligned with the loop's [`Reduction`] list.
    partials: Vec<i64>,
    /// Loop-local array state of the latest iteration seen, aligned with
    /// the loop's local arrays.
    locals: Vec<Option<(usize, ArrayVal)>>,
}

/// Keeps whichever of two `(iteration, payload)` entries was written by
/// the later iteration.
fn keep_latest<T>(mine: &mut Option<(usize, T)>, iter: usize, theirs: impl FnOnce() -> T) {
    if !matches!(mine, Some((best, _)) if *best >= iter) {
        *mine = Some((iter, theirs()));
    }
}

impl ChunkAcc {
    fn identity(nscalars: usize, reductions: &[Reduction], nlocals: usize) -> ChunkAcc {
        ChunkAcc {
            err: None,
            scalar_writes: vec![None; nscalars],
            partials: reductions.iter().map(|r| r.op.identity()).collect(),
            locals: vec![None; nlocals],
        }
    }

    /// Folds the phase a worker just finished into the accumulator and
    /// re-arms the worker for its next one: last-write marks cleared,
    /// reduction registers back at the operator identity.  Iteration
    /// ordinals are not monotone across levels, so a frame carried into
    /// the next level unfolded would let an *earlier* iteration there
    /// overwrite the value (and the mark) of the later one here.
    fn absorb(
        &mut self,
        (regs, arrays): (&mut [i64], &mut WorkerArrays<'_>),
        is_reduction: &[bool],
        reductions: &[Reduction],
        local_arrays: &[ArraySlot],
    ) {
        for (slot, iter) in arrays.scalar_write_iter.iter_mut().enumerate() {
            let iter = std::mem::replace(iter, NOT_WRITTEN);
            if iter != NOT_WRITTEN && !is_reduction[slot] {
                keep_latest(&mut self.scalar_writes[slot], iter, || regs[slot]);
            }
        }
        for (partial, r) in self.partials.iter_mut().zip(reductions) {
            let reg = &mut regs[r.slot];
            *partial =
                r.op.combine(*partial, std::mem::replace(reg, r.op.identity()));
        }
        for (mine, a) in self.locals.iter_mut().zip(local_arrays) {
            let iter = std::mem::replace(&mut arrays.local_write_iter[a.index()], NOT_WRITTEN);
            if iter == NOT_WRITTEN {
                continue;
            }
            if let Some(arr) = arrays.locals[a.index()].take() {
                keep_latest(mine, iter, || arr);
            }
        }
    }

    fn combine(mut self, other: ChunkAcc, reductions: &[Reduction]) -> ChunkAcc {
        if self.err.is_none() {
            self.err = other.err;
        }
        for (mine, theirs) in self.scalar_writes.iter_mut().zip(other.scalar_writes) {
            if let Some((iter, v)) = theirs {
                keep_latest(mine, iter, || v);
            }
        }
        for ((mine, theirs), r) in self.partials.iter_mut().zip(other.partials).zip(reductions) {
            *mine = r.op.combine(*mine, theirs);
        }
        for (mine, theirs) in self.locals.iter_mut().zip(other.locals) {
            if let Some((iter, arr)) = theirs {
                keep_latest(mine, iter, || arr);
            }
        }
        self
    }
}

// ---------------------------------------------------------------------------
// The dispatcher.
// ---------------------------------------------------------------------------

/// A recognized reduction accumulator of a dispatched loop: its scalar
/// slot, resolved once per run from the verdict's name, and its combiner.
pub(super) struct Reduction {
    slot: usize,
    op: ReductionOp,
}

/// The one dispatch policy: which loops leave the spine, and how.  Built
/// per run from the artifacts' report; `None` in an executor's runner
/// means serial.
pub(super) struct Dispatcher<'r> {
    /// Outermost proven-parallel loops, keyed for O(1) lookup at each
    /// `for`, with their (possibly empty) reductions.
    dispatchable: HashMap<LoopId, Vec<Reduction>>,
    /// The level-set inspection: present when the registry row runs
    /// level sets or the run records the inspector baseline.
    level_sets: Option<LevelSets<'r>>,
    /// Whether the registry row may *run* a loop as level sets.
    run_levels: bool,
    /// Where loop bodies are lowered (and cached).
    artifacts: &'r Artifacts,
    opts: &'r ExecOptions,
}

/// Loops with fewer iterations than this stay on the spine (dispatch would
/// cost more than it buys).
const MIN_PARALLEL_TRIP: usize = 2;

/// How one loop's iterations reach the team.
pub(super) enum Strategy<'d> {
    /// Proven independent up to the listed reductions: a region of one
    /// phase over `0..n`.
    Proof(&'d [Reduction]),
    /// Serial-proven but gate-approved: inspected into dependence level
    /// sets — the inspector baseline's verdict — and, on rows with
    /// [`EngineCaps::level_sets`](super::EngineCaps::level_sets), run as
    /// one region with a phase per level.
    LevelSets(&'d LevelSets<'d>, &'d Gated<'d>),
}

/// A loop the dispatcher takes: how its iterations reach the team, and
/// the body they run.
pub(super) struct Dispatch<'d> {
    strategy: Strategy<'d>,
    body: ThBody,
}

impl<'r> Dispatcher<'r> {
    pub(super) fn new(
        artifacts: &'r Artifacts,
        opts: &'r ExecOptions,
        level_sets: bool,
    ) -> Dispatcher<'r> {
        let report = &artifacts.report;
        let dispatchable = report
            .outermost_parallel_loops()
            .into_iter()
            .map(|id| {
                let reductions = report.loop_report(id).map_or(&[][..], |l| &l.reductions);
                let reductions = reductions.iter().map(|r| Reduction {
                    slot: (artifacts.compiled.slots.scalar_slot(&r.var))
                        .expect("an accumulator is a scalar of its program")
                        .index(),
                    op: r.op,
                });
                (id, reductions.collect())
            })
            .collect();
        Dispatcher {
            dispatchable,
            level_sets: (level_sets || opts.baseline_inspector).then(|| LevelSets::new(artifacts)),
            run_levels: level_sets,
            artifacts,
            opts,
        }
    }

    /// The gates that need no header value, for loop `id` of a spine whose
    /// scalars are `defined` so far.  `None` keeps the loop on the spine;
    /// otherwise the executor evaluates the loop header once and calls
    /// [`run`](Self::run).
    pub(super) fn strategy(&self, id: LoopId, defined: &[bool]) -> Option<Dispatch<'_>> {
        if self.opts.threads <= 1 {
            return None;
        }
        let body = |inspected| ThBody::new(self.artifacts, self.opts, id, inspected);
        if let Some(reductions) = self.dispatchable.get(&id) {
            if reductions.iter().any(|r| !defined[r.slot]) {
                // An accumulator nobody initialized: the serial run may
                // never write it at all (a guarded min/max whose guard
                // never fires against the implicit 0), so its name must
                // stay absent from the final heap — something a combiner
                // merge-back cannot reproduce.  Run such loops serially;
                // every real reduction initializes its accumulator (and
                // synthesized inputs bind all free scalars).
                return None;
            }
            let body = body(false);
            let lp = body.lp();
            if !lp.local_arrays.is_empty() && !lp.locals_dominated {
                // A worker could observe pre-declaration storage the
                // serial execution would not; keep such loops serial.
                return None;
            }
            let strategy = Strategy::Proof(reductions);
            return Some(Dispatch { strategy, body });
        }
        let level_sets = self.level_sets.as_ref()?;
        let gated = level_sets.gated(id)?;
        let body = body(true);
        let strategy = Strategy::LevelSets(level_sets, gated);
        body.lp()
            .local_arrays
            .is_empty()
            .then_some(Dispatch { strategy, body })
    }

    /// The rest of the recipe, from the once-evaluated `header` (initial
    /// value, bound, step — invariant under a dispatchable body) to the
    /// merged-back spine.  `Ok(false)` means the loop must run on the
    /// spine after all (too few iterations, no profitable schedule, a row
    /// that only inspects).
    pub(super) fn run(
        &self,
        Dispatch { strategy, body }: Dispatch<'_>,
        (v0, bound, step): (i64, i64, i64),
        spine: Spine<'_>,
        env: &mut ExecEnvTiming<'_>,
    ) -> Result<bool, ExecError> {
        let lp = body.lp();
        let while_cap = env.while_cap;
        let space = IterationSpace::new(v0, bound, step, lp.cond_op, lp.id, while_cap)?;
        if space.n < MIN_PARALLEL_TRIP {
            return Ok(false);
        }
        let (reductions, levels) = match strategy {
            Strategy::Proof(reductions) => (reductions, None),
            Strategy::LevelSets(level_sets, gated) => {
                // The inspection: the body replayed serially, in order, on
                // one frame over the strategy's recording store.
                let replay = |arrays: InspectArrays<'_>| {
                    let mut w = body.worker::<InspectKind>(spine.regs.to_vec(), arrays);
                    (0..space.n)
                        .map(|k| {
                            w.run_iteration(space.value(k)).ok()?;
                            w.frame().1.footprint()
                        })
                        .collect()
                };
                let Some((schedule, source)) =
                    level_sets.schedule(gated, lp.id, &spine, space.n, while_cap, replay)
                else {
                    return Ok(false);
                };
                env.stats.record_schedule_source(lp.id, source);
                if self.opts.baseline_inspector {
                    // One level: no element is shared by two iterations
                    // with a write among them — what a run-time inspector
                    // checks before licensing a parallel executor.
                    env.stats.record_inspection(lp.id, schedule.nlevels() <= 1);
                }
                // Too fine, and the barrier per level would cost more
                // than the level's width buys — stay serial.  The schedule stays cached,
                // so later runs skip straight to this decision.
                if !(self.run_levels && schedule.avg_width() >= MIN_AVG_WIDTH) {
                    return Ok(false);
                }
                (&[][..], Some(schedule))
            }
        };
        let plan = RegionPlan {
            space,
            reductions,
            levels: levels.as_deref(),
        };
        run_region(self.opts, &plan, spine, &body, env.stats)?;
        Ok(true)
    }
}

// ---------------------------------------------------------------------------
// The region recipe.
// ---------------------------------------------------------------------------

/// The iterations of a dispatchable loop, from its once-evaluated header
/// (initial value, bound, step) under the serial loop's termination rules
/// (iteration cap, zero step): `n` index values, value `k` being
/// `v0 + k·step`, and the index variable's exit value.
#[derive(Clone, Copy, Debug)]
struct IterationSpace {
    v0: i64,
    step: i64,
    n: usize,
    exit_value: i64,
}

impl IterationSpace {
    fn new(
        v0: i64,
        bound: i64,
        step: i64,
        cond_op: BinOp,
        loop_id: LoopId,
        while_cap: u64,
    ) -> Result<IterationSpace, ExecError> {
        let non_terminating = ExecError::NonTerminating {
            loop_id,
            cap: while_cap,
        };
        let space = |n: u64, exit_value| IterationSpace {
            v0,
            step,
            n: n as usize,
            exit_value,
        };
        if !super::serial::compare(cond_op, v0, bound) {
            return Ok(space(0, v0));
        }
        if step == 0 {
            return Err(non_terminating);
        }
        // In closed form when the index runs monotonically towards the
        // bound and no value up to the exit value wraps.
        let (v0w, bw, sw) = (v0 as i128, bound as i128, step as i128);
        let n = match (cond_op, step > 0) {
            (BinOp::Lt, true) => Some((bw - v0w + sw - 1) / sw),
            (BinOp::Le, true) => Some((bw - v0w) / sw + 1),
            (BinOp::Gt, false) => Some((v0w - bw - sw - 1) / -sw),
            (BinOp::Ge, false) => Some((v0w - bw) / -sw + 1),
            _ => None,
        };
        if let Some(n) = n {
            if let Ok(exit_value) = i64::try_from(v0w + n * sw) {
                return match u64::try_from(n) {
                    Ok(n) if n <= while_cap => Ok(space(n, exit_value)),
                    _ => Err(non_terminating),
                };
            }
        }
        // Otherwise the serial loop's own walk, wrapping as it does.
        let (mut n, mut v) = (0u64, v0);
        while super::serial::compare(cond_op, v, bound) {
            if n >= while_cap {
                return Err(non_terminating);
            }
            n += 1;
            v = v.wrapping_add(step);
        }
        Ok(space(n, v))
    }

    /// The index value of iteration `k`: exact, because wrapping addition
    /// is addition mod 2^64.
    fn value(&self, k: usize) -> i64 {
        self.v0.wrapping_add((k as i64).wrapping_mul(self.step))
    }
}

/// Maps the user's schedule choice (plus the loop's skew fact) onto a
/// concrete runtime schedule.  `chunk` overrides the auto-derived dynamic
/// chunk size ([`ExecOptions::chunk`]); `None` keeps
/// [`Schedule::dynamic_for`]'s derivation.
fn choose_schedule(
    choice: ScheduleChoice,
    skewed: bool,
    n: usize,
    threads: usize,
    chunk: Option<usize>,
) -> Schedule {
    let dynamic = || match chunk {
        Some(c) => Schedule::Dynamic { chunk: c.max(1) },
        None => Schedule::dynamic_for(n, threads),
    };
    match choice {
        ScheduleChoice::Static => Schedule::Static,
        ScheduleChoice::Dynamic => dynamic(),
        ScheduleChoice::Auto => {
            if skewed {
                dynamic()
            } else {
                Schedule::Static
            }
        }
    }
}

struct RegionPlan<'a> {
    space: IterationSpace,
    reductions: &'a [Reduction],
    /// `None` runs `0..n` as the region's only phase; a schedule runs its
    /// levels in order, one phase each, with the team's barrier between.
    levels: Option<&'a LevelSchedule>,
}

/// One phase of a region: the iterations it covers and how the members
/// share them.
struct Phase<'a> {
    /// Maps phase positions to iteration ordinals (one level of a
    /// schedule); `None` is `0..n` itself.
    order: Option<&'a [u32]>,
    n: usize,
    schedule: Schedule,
    /// The chunk-stealing cursor of a dynamic phase.
    next: AtomicUsize,
}

fn run_region(
    opts: &ExecOptions,
    plan: &RegionPlan<'_>,
    mut spine: Spine<'_>,
    body: &ThBody,
    stats: &mut ExecStats,
) -> Result<(), ExecError> {
    let start = Instant::now();
    let RegionPlan {
        space, reductions, ..
    } = *plan;
    let lp = body.lp();
    let threads = opts.threads;
    let nscalars = spine.defined.len();
    let narrays = spine.arrays.len();
    let mut local = vec![false; narrays];
    for a in &lp.local_arrays {
        local[a.index()] = true;
    }
    // Worker frames start from one snapshot of the spine's (a dense clone
    // per member); accumulators are re-seeded with the operator identity
    // so partials merge exactly.
    let mut snapshot = spine.regs.to_vec();
    let mut is_reduction = vec![false; nscalars];
    for r in reductions {
        snapshot[r.slot] = r.op.identity();
        is_reduction[r.slot] = true;
    }
    let shared = SharedSlots::capture(spine.arrays, &local);
    let slots = spine.slots;
    let orders: Vec<Option<&[u32]>> = match plan.levels {
        None => vec![None],
        Some(schedule) => schedule.by_level.iter().map(|l| Some(&l[..])).collect(),
    };
    let phases: Vec<Phase<'_>> = (orders.into_iter())
        .map(|order| {
            let n = order.map_or(space.n, <[u32]>::len);
            Phase {
                order,
                n,
                schedule: choose_schedule(opts.schedule, lp.skewed, n, threads, opts.chunk),
                next: AtomicUsize::new(0),
            }
        })
        .collect();
    let dynamic = phases
        .iter()
        .any(|p| matches!(p.schedule, Schedule::Dynamic { .. }));

    // The region: every member carries one frame through all the phases.
    let member_accs = with_shared_team_in(opts.team_group, threads, |team| {
        team.region(|m| {
            let mut acc = ChunkAcc::identity(nscalars, reductions, lp.local_arrays.len());
            let arrays = WorkerArrays {
                slots,
                shared: &shared,
                local: &local,
                locals: vec![None; narrays],
                local_write_iter: vec![NOT_WRITTEN; narrays],
                scalar_write_iter: vec![NOT_WRITTEN; nscalars],
                current_iter: 0,
            };
            let mut w = body.worker::<WorkerKind>(snapshot.clone(), arrays);
            for (level, phase) in phases.iter().enumerate() {
                // The previous level must be complete, everywhere, before
                // any iteration of this one starts.
                if level > 0 && m.barrier().is_err() {
                    break;
                }
                let outcome = m.share(phase.n, phase.schedule, &phase.next, |positions| {
                    for pos in positions {
                        let k = phase.order.map_or(pos, |o| o[pos] as usize);
                        w.frame().1.current_iter = k;
                        w.run_iteration(space.value(k))?;
                    }
                    Ok(())
                });
                acc.absorb(w.frame(), &is_reduction, reductions, &lp.local_arrays);
                if let Err(e) = outcome {
                    // The others finish their share of this level and
                    // leave at its barrier: no later level runs.
                    acc.err = Some(e);
                    m.abort();
                    break;
                }
            }
            acc
        })
    });
    let acc = member_accs
        .into_iter()
        .reduce(|a, b| a.combine(b, reductions))
        .expect("a team has at least one member");
    if let Some(e) = acc.err {
        return Err(e);
    }

    // Merge back: last-writing iteration for ordinary scalars, combiner
    // against the pre-loop value for reduction accumulators, the globally
    // last iteration's storage for loop-local arrays.
    for (slot, w) in acc.scalar_writes.into_iter().enumerate() {
        if let Some((_, value)) = w {
            spine.set(slot, value);
        }
    }
    for (r, partial) in reductions.iter().zip(acc.partials) {
        spine.set(r.slot, r.op.combine(spine.regs[r.slot], partial));
    }
    spine.set(lp.var as usize, space.exit_value);
    for (a, entry) in lp.local_arrays.iter().zip(acc.locals) {
        if let Some((_, arr)) = entry {
            spine.arrays[a.index()] = Some(arr);
        }
    }

    stats.record(
        lp.id,
        space.n as u64,
        start.elapsed().as_secs_f64(),
        ExecMode::Parallel { threads, dynamic },
    );
    if let Some(schedule) = plan.levels {
        stats.record_wavefront(lp.id, schedule.by_level.len(), schedule.avg_width());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The iteration space as the serial loop walks it, every value
    /// pushed: the oracle for [`IterationSpace::new`].
    fn materialize_iteration_space(
        v0: i64,
        bound: i64,
        step: i64,
        cond_op: BinOp,
        loop_id: LoopId,
        while_cap: u64,
    ) -> Result<(Vec<i64>, i64), ExecError> {
        let mut values = Vec::new();
        let mut v = v0;
        while super::super::serial::compare(cond_op, v, bound) {
            if values.len() as u64 >= while_cap {
                return Err(ExecError::NonTerminating {
                    loop_id,
                    cap: while_cap,
                });
            }
            values.push(v);
            v = v.wrapping_add(step);
            if step == 0 {
                return Err(ExecError::NonTerminating {
                    loop_id,
                    cap: while_cap,
                });
            }
        }
        Ok((values, v))
    }

    #[test]
    fn the_iteration_space_is_the_serial_walk_without_the_values() {
        let near = |base: i64| [base, base.wrapping_add(1), base.wrapping_add(7)];
        let mut starts = vec![0, 1, -1, 5, -5, 40, i64::MAX];
        starts.extend(near(i64::MAX - 10));
        starts.extend(near(i64::MIN));
        let steps = [
            0,
            1,
            -1,
            2,
            -3,
            7,
            -7,
            1 << 62,
            -(1 << 62),
            i64::MAX,
            i64::MIN,
        ];
        let ops = [
            BinOp::Lt,
            BinOp::Le,
            BinOp::Gt,
            BinOp::Ge,
            BinOp::Eq,
            BinOp::Ne,
        ];
        let (mut multi, mut errors) = (0, 0);
        for &v0 in &starts {
            for &bound in &starts {
                for &step in &steps {
                    for op in ops {
                        for cap in [0, 1, 3, 50] {
                            let id = LoopId(3);
                            let want = materialize_iteration_space(v0, bound, step, op, id, cap);
                            let got = IterationSpace::new(v0, bound, step, op, id, cap).map(|s| {
                                (
                                    (0..s.n).map(|k| s.value(k)).collect::<Vec<_>>(),
                                    s.exit_value,
                                )
                            });
                            assert_eq!(
                                got, want,
                                "v0={v0} bound={bound} step={step} {op:?} cap={cap}"
                            );
                            multi += got.as_ref().is_ok_and(|(v, _)| v.len() > 1) as usize;
                            errors += got.is_err() as usize;
                        }
                    }
                }
            }
        }
        // The grid reaches multi-iteration spaces and tripped caps alike.
        assert!(multi > 0 && errors > 0, "{multi} {errors}");
    }

    #[test]
    fn a_long_iteration_space_needs_no_walk() {
        // Near the default cap, and with an exit value at the edge of i64.
        let id = LoopId(0);
        let space = IterationSpace::new(0, 100_000_000, 1, BinOp::Lt, id, 100_000_000).unwrap();
        assert_eq!((space.n, space.exit_value), (100_000_000, 100_000_000));
        assert_eq!(space.value(99_999_999), 99_999_999);
        let top = IterationSpace::new(i64::MAX - 9, i64::MAX, 1, BinOp::Lt, id, 1 << 40).unwrap();
        assert_eq!((top.n, top.exit_value), (9, i64::MAX));
        let down = IterationSpace::new(10, -20, -3, BinOp::Ge, id, 100).unwrap();
        assert_eq!((down.n, down.exit_value, down.value(10)), (11, -23, -20));
        // One past the cap trips it, as the serial loop does.
        let err = IterationSpace::new(0, 101, 1, BinOp::Lt, id, 100).unwrap_err();
        assert_eq!(
            err,
            ExecError::NonTerminating {
                loop_id: id,
                cap: 100
            }
        );
    }

    #[test]
    fn a_rewritten_extent_cannot_reach_past_the_buffer() {
        // `dims` is a public field, so a caller can make it promise more
        // cells than the buffer holds; the shared views check the flat
        // offset against the buffer itself.
        let art = Artifacts::compile_source("rewritten", "x = a[1][0];").unwrap();
        let mut arr = ArrayVal::new(vec![2, 2], vec![10, 11, 12, 13]);
        arr.dims = vec![4, 4];
        let mut arrays = vec![Some(arr)];
        let shared = SharedSlots::capture(&mut arrays, &[false]);
        let a = ArraySlot(0);
        let load = |cell: &AtomicU64| cell.load(Ordering::Relaxed);
        assert_eq!(shared.fast(a, 0, Some(3)).map(load), Some(13));
        assert!(shared.fast(a, 1, Some(0)).is_none());
        assert!(matches!(
            shared.flat(&art.compiled.slots, a, &[1, 0]),
            Err(ExecError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn an_error_in_a_level_ends_the_region_at_that_levels_barrier() {
        // Three levels of eight iterations; iteration 11 (level 1) marks
        // `ran` and faults.  A real level-set loop cannot fault here — its
        // inspection replay would have faulted first and kept the loop
        // serial — unless a value-only operand changed under a cached
        // schedule, so the recipe is driven directly, with the real chain.
        let src = "for (i = 0; i < n; i++) { ran[i] = 1; x = 100 / (i - 11); }";
        let art = Artifacts::compile_source("fault", src).unwrap();
        let slots = &art.compiled.slots;
        let ran_slot = slots.array_names().iter().position(|a| a == "ran");
        let schedule = LevelSchedule {
            levels: (0..24).map(|k| k / 8).collect(),
            by_level: (0..3).map(|l| (8 * l..8 * l + 8).collect()).collect(),
        };
        let plan = RegionPlan {
            space: IterationSpace {
                v0: 0,
                step: 1,
                n: 24,
                exit_value: 24,
            },
            reductions: &[],
            levels: Some(&schedule),
        };
        for threads in [2, 3] {
            for (schedule, chunk) in [
                (ScheduleChoice::Static, None),
                (ScheduleChoice::Dynamic, Some(1)),
            ] {
                let opts = ExecOptions {
                    threads,
                    schedule,
                    chunk,
                    ..ExecOptions::default()
                };
                let body = ThBody::new(&art, &opts, LoopId(0), false);
                let mut heap = Heap::new().with_array("ran", vec![0; 24]);
                let mut arrays = SpineArrays::from_heap(&mut heap, slots);
                // A frame of the scalar slots only, as the compiled spine
                // lends it.
                let nscalars = slots.scalar_count();
                let (mut regs, mut defined) = (vec![7i64; nscalars], vec![false; nscalars]);
                let spine = Spine {
                    regs: &mut regs,
                    defined: &mut defined,
                    arrays: &mut arrays.arrays,
                    slots,
                };
                let mut stats = ExecStats::default();
                let err = run_region(&opts, &plan, spine, &body, &mut stats).unwrap_err();
                assert_eq!(err, ExecError::DivisionByZero, "{opts:?}");
                let ran = &arrays.arrays[ran_slot.unwrap()].as_ref().unwrap().data;
                // Level 0 ran whole, level 1 up to the fault at least, and
                // nobody started level 2.
                assert_eq!(ran[..8], [1; 8], "{opts:?}");
                assert!(ran[11] == 1 && ran[16..] == [0; 8], "{ran:?} {opts:?}");
                // No merge-back, no record: the spine is as it was.
                assert_eq!((regs, defined), (vec![7; nscalars], vec![false; nscalars]));
                assert!(stats.loops.is_empty());
            }
        }
    }
}
