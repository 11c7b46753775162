//! The direct-threaded execution tier: bytecode lowered to a pre-resolved
//! handler chain.
//!
//! The bytecode engines pay one `match` (opcode decode) per executed
//! instruction.  This tier removes that cost: `lower` walks an
//! [`ss_ir::bytecode`] stream **once** and emits a flat `ThOp` side
//! table where every element carries a plain function pointer to a
//! *monomorphized* handler (one per operator × operand shape) plus its
//! pre-decoded operands — register offsets widened to `u32`, pool
//! constants inlined as immediates, branch targets rewritten to indices
//! in the lowered stream.  Execution is then a tight
//! `pc = (op.run)(op, cx)?` chain with no decode step, the classic
//! direct-threaded dispatch structure, in safe Rust.
//!
//! Beyond dispatch, the lowering exploits facts the O1 pass already
//! proves:
//!
//! * **Constant fusion** — a `Const` into a temp that the next instruction
//!   reads and that is dead after its consumer (the optimizer's
//!   [`Liveness`] answers) folds into an immediate form of the consumer
//!   (`x + 1`, `i < n`-style compares against literals, `sum += 1`), so
//!   the pair costs one dispatch instead of two and no register traffic.
//! * **Counted loops** — when a `for` header is register- or
//!   constant-shaped ([`HeaderFast`]) and the body provably never writes
//!   the induction variable, bound or step registers, the loop runs as a
//!   native Rust `while` over a local induction value: no per-iteration
//!   header block, no guard re-dispatch.  [`HeaderFast::EvalOnce`] bounds
//!   (the hoisted `rowptr[i]` CSR shape) evaluate once per loop entry at
//!   the same program point — and therefore the same error point — as the
//!   bytecode engine's first bound evaluation.
//! * **Superinstructions** — the O1 fused forms (`LoadLoad`,
//!   `CmpBranch`, `Load2`/`Store2`, `Accum`) each get dedicated handlers;
//!   rank-1 loads and stores skip the general subscript-buffer path.
//! * **Division by constants** — a `/` or `%` whose divisor is a fused
//!   constant `d`, `2 ≤ |d| ≤ u32::MAX`, multiplies instead of dividing,
//!   as compiled code does (Granlund & Montgomery, "Division by invariant
//!   integers using multiplication", PLDI 1994): the multiplier
//!   `⌈2^64 / |d|⌉` is computed once, at lowering, and serves any dividend
//!   of at most 32 bits; wider ones take the hardware divide.  The O1
//!   divisibility test `x % d ==/!= 0` ahead of a branch, its temps dead
//!   after it, becomes one branch on `m·|x| mod 2^64 < m` (Lemire, Kaser &
//!   Kurz, "Faster remainder by direct computation", SPE 2019).  Divisors
//!   0 and ±1 keep the checked handlers, and with them every
//!   division-by-zero and `i64::MIN / −1` error point.
//!
//! Semantics stay bit-identical to the bytecode engines: wrapping
//! arithmetic, division/remainder error points, undefined-array and
//! bounds errors, `while` iteration caps and loop statistics all mirror
//! `super::bytecode` operation for operation, and the differential
//! validator plus the generative fuzz harness assert exactly that.
//!
//! Dispatch is `engine::shared`'s recipe like everywhere else: at each
//! lowered `For` the spine asks the run's `Dispatcher` for a strategy,
//! evaluates its lowered header once and lends its frame to the recipe.
//! The recipe's body is this chain too — `ThBody`, the body of every
//! dispatching row, whichever spine (this one or the bytecode
//! interpreter's) reached the loop: the
//! register numbering *is* the bytecode numbering and the slot numbering
//! is shared by every stream, so a spine's frame is handed over without
//! translation (a worker pads a frame that holds only the scalar slots up
//! to the chain's register count).  The handlers are generic over the
//! array store and monomorphized once per `StoreKind` — the spine's dense
//! slots, a region worker's shared views, the level-set inspection's
//! recording store, input synthesis' growing discovery store — so one
//! chain serves the spine, proof regions, level-set phases, the
//! inspection replay and the discovery pass (`run_chain`).  Each
//! lowering is cached on the pipeline's [`Artifacts`] (one per artifact,
//! opt level and store kind, created on first use, shared by clones and
//! charged to the session cache through [`EngineArtifact::approx_bytes`]);
//! [`ExtArtifacts::keys`] lists the `"threaded"` slots a program holds.

use super::shared::{
    load_scalars, store_scalars, ArrayStore, Dispatcher, Spine, SpineArrays, SpineKind, StoreKind,
    WorkerKind,
};
use super::wavefront::InspectKind;
use super::{ExecEnvTiming, ExecError, ExecMode, ExecOptions, ExecOutcome, ExecStats};
use crate::heap::Heap;
use ss_ir::ast::{AssignOp, BinOp};
use ss_ir::bytecode::{
    jump_targets, reg_writes, BcExpr, BcFor, BytecodeProgram, HeaderFast, Instr, Reg,
};
use ss_ir::opt::{Liveness, OptLevel};
use ss_ir::slots::ArraySlot;
use ss_ir::LoopId;
use ss_parallelizer::{Artifacts, EngineArtifact, ExtArtifacts};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

// ---------------------------------------------------------------------------
// The lowered program.
// ---------------------------------------------------------------------------

/// A handler: executes one lowered op and returns the next op index.
type Handler<K> = for<'s> fn(&ThOp<K>, &mut ThCtx<'s, K>) -> Result<u32, ExecError>;

/// One pre-decoded op: the handler pointer plus its flattened operands.
/// `next` is the fall-through index (pre-stored so handlers never compute
/// it); `ext` is the taken-branch target, loop/while table index, array
/// slot or subscript rank depending on the handler.
struct ThOp<K: StoreKind> {
    run: Handler<K>,
    a: u32,
    b: u32,
    c: u32,
    imm: i64,
    next: u32,
    ext: u32,
}

/// A lowered instruction block; `result` is the register a header block
/// leaves its value in (0 for statement blocks, which have none).
struct ThBlock<K: StoreKind> {
    ops: Vec<ThOp<K>>,
    result: u32,
}

/// A lowered loop-header value source, pre-resolved from [`HeaderFast`].
enum ThHeader<K: StoreKind> {
    /// Compile-time constant.
    Imm(i64),
    /// Plain register read.
    Reg(u32),
    /// Proven loop-invariant block: run once per loop entry, memoized.
    Once(ThBlock<K>),
    /// Re-evaluated every iteration (the general case).
    Every(ThBlock<K>),
}

/// A lowered `for` loop.  `counted` marks loops whose bound/step are
/// invariant register or immediate values and whose body never writes the
/// induction variable: those run as native counted loops.  The public
/// fields are the bytecode loop's dispatch facts, which the dispatcher
/// reads off the workers' chain (see [`ThBody::lp`]).
pub(super) struct ThLoop<K: StoreKind> {
    pub(super) id: LoopId,
    /// Register (= scalar slot) of the index variable.
    pub(super) var: u32,
    pub(super) cond_op: BinOp,
    cond: fn(i64, i64) -> bool,
    init: ThHeader<K>,
    bound: ThHeader<K>,
    step: ThHeader<K>,
    body: ThBlock<K>,
    counted: bool,
    /// Arrays declared inside the body: workers give these private storage.
    pub(super) local_arrays: Vec<ArraySlot>,
    pub(super) locals_dominated: bool,
    pub(super) skewed: bool,
}

/// A whole lowered program for store kind `K`: the engine-private
/// artifact the pipeline caches per opt level and store kind (see
/// [`Artifacts::engine_artifact`]).
struct ThProgram<K: StoreKind> {
    main: ThBlock<K>,
    loops: Vec<ThLoop<K>>,
    while_ids: Vec<LoopId>,
    nregs: usize,
    nscalars: usize,
}

impl<K: StoreKind> ThProgram<K> {
    fn loop_by_id(&self, id: LoopId) -> &ThLoop<K> {
        self.loops
            .iter()
            .find(|l| l.id == id)
            .expect("every loop of the bytecode stream is lowered")
    }
}

impl<K: StoreKind> EngineArtifact for ThProgram<K> {
    fn approx_bytes(&self) -> usize {
        fn block<K: StoreKind>(b: &ThBlock<K>) -> usize {
            b.ops.len() * std::mem::size_of::<ThOp<K>>()
        }
        fn header<K: StoreKind>(h: &ThHeader<K>) -> usize {
            match h {
                ThHeader::Once(b) | ThHeader::Every(b) => block(b),
                _ => 0,
            }
        }
        std::mem::size_of::<Self>()
            + block(&self.main)
            + self
                .loops
                .iter()
                .map(|l| {
                    std::mem::size_of::<ThLoop<K>>()
                        + block(&l.body)
                        + header(&l.init)
                        + header(&l.bound)
                        + header(&l.step)
                        + l.local_arrays.len() * std::mem::size_of::<ArraySlot>()
                })
                .sum::<usize>()
            + self.while_ids.len() * std::mem::size_of::<LoopId>()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

// ---------------------------------------------------------------------------
// Execution state.
// ---------------------------------------------------------------------------

/// One active `while` guard (iteration cap + timing), mirroring the
/// bytecode engine's guard stack.
struct WGuard {
    id: LoopId,
    iters: u64,
    start: Option<Instant>,
}

/// A chain's execution context: the register frame (low registers alias
/// scalar slots, exactly the bytecode numbering, so dispatched state can
/// be handed over without translation), the array store, the `while`
/// guard stack and the statistics.  On the spine the stats are the run's,
/// `dispatch` is the run's policy (`None` on serial runs) and `defined`
/// marks the scalars written so far; a worker or inspection frame
/// dispatches nothing, times nothing — its loops are accounted to the
/// dispatched ancestor — and keeps `defined` empty.
struct ThCtx<'s, K: StoreKind> {
    prog: &'s ThProgram<K>,
    regs: Vec<i64>,
    defined: Vec<bool>,
    arrays: K::Arrays<'s>,
    guards: Vec<WGuard>,
    stats: ExecStats,
    timing: bool,
    while_cap: u64,
    nscalars: usize,
    dispatch: Option<&'s Dispatcher<'s>>,
}

impl<K: StoreKind> ThCtx<'_, K> {
    /// The kind and the store hear of every scalar write: the spine marks
    /// it defined, a worker's store records the iteration.
    #[inline(always)]
    fn set(&mut self, r: u32, v: i64) {
        let i = r as usize;
        self.regs[i] = v;
        if i < self.nscalars {
            K::define(&mut self.defined, i);
            self.arrays.note_scalar_write(i);
        }
    }
}

/// The dispatch loop itself: no decode, just chase the handler chain.
/// The final op's pre-stored `next` equals `ops.len()`, which ends the
/// loop without a separate halt op.
#[inline]
fn exec_ops<K: StoreKind>(ops: &[ThOp<K>], cx: &mut ThCtx<'_, K>) -> Result<(), ExecError> {
    let mut pc = 0u32;
    while let Some(op) = ops.get(pc as usize) {
        pc = (op.run)(op, cx)?;
    }
    Ok(())
}

#[inline]
fn header_val<K: StoreKind>(
    h: &ThHeader<K>,
    cx: &mut ThCtx<'_, K>,
    cache: &mut Option<i64>,
) -> Result<i64, ExecError> {
    match h {
        ThHeader::Imm(v) => Ok(*v),
        ThHeader::Reg(r) => Ok(cx.regs[*r as usize]),
        ThHeader::Every(b) => {
            exec_ops(&b.ops, cx)?;
            Ok(cx.regs[b.result as usize])
        }
        ThHeader::Once(b) => {
            if let Some(v) = *cache {
                return Ok(v);
            }
            exec_ops(&b.ops, cx)?;
            let v = cx.regs[b.result as usize];
            *cache = Some(v);
            Ok(v)
        }
    }
}

fn run_loop<K: StoreKind>(lp: &ThLoop<K>, cx: &mut ThCtx<'_, K>) -> Result<(), ExecError> {
    if dispatch_loop(lp, cx)? {
        return Ok(());
    }
    let start = cx.timing.then(Instant::now);
    let v0 = header_val(&lp.init, cx, &mut None)?;
    cx.set(lp.var, v0);
    let iters = if lp.counted {
        counted_loop(lp, cx, v0)?
    } else {
        generic_loop(lp, cx)?
    };
    if let Some(t) = start {
        cx.stats
            .record(lp.id, iters, t.elapsed().as_secs_f64(), ExecMode::Serial);
    }
    Ok(())
}

/// The native counted-loop fast path: bound and step are loop-invariant
/// values (immediates, unwritten registers, or a memoized `EvalOnce`
/// block), so the induction value lives in a local and the per-iteration
/// work is one compare, one cap check and the body chain.  The bound is
/// resolved at the same program point as the bytecode engine's
/// first-iteration bound evaluation (after `init`, before the first
/// test), so error points coincide.
fn counted_loop<K: StoreKind>(
    lp: &ThLoop<K>,
    cx: &mut ThCtx<'_, K>,
    v0: i64,
) -> Result<u64, ExecError> {
    let bound = header_val(&lp.bound, cx, &mut None)?;
    let step = match &lp.step {
        ThHeader::Imm(v) => *v,
        ThHeader::Reg(r) => cx.regs[*r as usize],
        _ => unreachable!("counted loops restrict the step to Imm/Reg"),
    };
    let var = lp.var as usize;
    let cap = cx.while_cap;
    let cond = lp.cond;
    let mut v = v0;
    let mut iters: u64 = 0;
    while cond(v, bound) {
        if iters >= cap {
            return Err(ExecError::NonTerminating {
                loop_id: lp.id,
                cap,
            });
        }
        cx.regs[var] = v;
        exec_ops(&lp.body.ops, cx)?;
        v = v.wrapping_add(step);
        iters += 1;
    }
    cx.set(lp.var, v);
    Ok(iters)
}

/// The general path: re-resolve bound and step per iteration, exactly
/// like the bytecode engine's `exec_for` (step evaluated *after* the
/// body; `EvalOnce` memos are per loop entry).
fn generic_loop<K: StoreKind>(lp: &ThLoop<K>, cx: &mut ThCtx<'_, K>) -> Result<u64, ExecError> {
    let mut bound_cache: Option<i64> = None;
    let mut step_cache: Option<i64> = None;
    let mut iters: u64 = 0;
    loop {
        let v = cx.regs[lp.var as usize];
        let b = header_val(&lp.bound, cx, &mut bound_cache)?;
        if !(lp.cond)(v, b) {
            break;
        }
        if iters >= cx.while_cap {
            return Err(ExecError::NonTerminating {
                loop_id: lp.id,
                cap: cx.while_cap,
            });
        }
        exec_ops(&lp.body.ops, cx)?;
        let sv = header_val(&lp.step, cx, &mut step_cache)?;
        let cur = cx.regs[lp.var as usize];
        cx.set(lp.var, cur.wrapping_add(sv));
        iters += 1;
    }
    Ok(iters)
}

/// Offers one loop to the run's dispatcher.  Returns `Ok(false)` when the
/// loop must run serially here instead.
fn dispatch_loop<K: StoreKind>(lp: &ThLoop<K>, cx: &mut ThCtx<'_, K>) -> Result<bool, ExecError> {
    let Some(d) = cx.dispatch else {
        return Ok(false);
    };
    let Some(dispatch) = d.strategy(lp.id, &cx.defined) else {
        return Ok(false);
    };
    let header = (
        header_val(&lp.init, cx, &mut None)?,
        header_val(&lp.bound, cx, &mut None)?,
        header_val(&lp.step, cx, &mut None)?,
    );
    let arrays = K::spine(&mut cx.arrays).expect("only the spine holds a dispatcher");
    let spine = Spine {
        regs: &mut cx.regs,
        defined: &mut cx.defined,
        arrays: &mut arrays.arrays,
        slots: arrays.slots,
    };
    let mut env = ExecEnvTiming {
        stats: &mut cx.stats,
        timing: cx.timing,
        while_cap: cx.while_cap,
    };
    d.run(dispatch, header, spine, &mut env)
}

// ---------------------------------------------------------------------------
// The region body.
// ---------------------------------------------------------------------------

/// A dispatched loop as the recipe runs it: the loop's body in the
/// lowered chain of whichever store kind asks — a region's workers, or
/// the level-set inspection's replay.
pub(super) struct ThBody {
    id: LoopId,
    while_cap: u64,
    /// The workers' lowering, plus the inspection's for an inspected loop,
    /// from the artifacts' cache.
    chains: Vec<Arc<dyn EngineArtifact>>,
}

impl ThBody {
    /// Loop `id` of the stream at the run's opt level.
    pub(super) fn new(
        artifacts: &Artifacts,
        opts: &ExecOptions,
        id: LoopId,
        inspected: bool,
    ) -> Self {
        let level = opts.opt_level;
        let mut chains = vec![lowered::<WorkerKind>(artifacts, level)];
        if inspected {
            chains.push(lowered::<InspectKind>(artifacts, level));
        }
        ThBody {
            id,
            while_cap: opts.while_cap,
            chains,
        }
    }

    /// The loop as the workers' chain lowered it: its dispatch facts.
    pub(super) fn lp(&self) -> &ThLoop<WorkerKind> {
        th_program::<WorkerKind>(&self.chains[0]).loop_by_id(self.id)
    }

    /// A fresh worker over `regs`, a copy of the region's scalar snapshot
    /// (padded with the chain's temporaries when the spine has none), and
    /// `arrays`.
    pub(super) fn worker<'s, K: StoreKind>(
        &'s self,
        mut regs: Vec<i64>,
        arrays: K::Arrays<'s>,
    ) -> ThWorker<'s, K> {
        let prog = (self.chains.iter())
            .find_map(|c| c.as_any().downcast_ref::<ThProgram<K>>())
            .expect("the recipe runs a body only on the store kinds it was built for");
        regs.resize(prog.nregs, 0);
        ThWorker {
            lp: prog.loop_by_id(self.id),
            cx: ThCtx {
                prog,
                regs,
                defined: Vec::new(),
                arrays,
                guards: Vec::new(),
                stats: ExecStats::default(),
                timing: false,
                while_cap: self.while_cap,
                nscalars: prog.nscalars,
                dispatch: None,
            },
        }
    }
}

/// A [`ThBody`] worker: a frame of the kind's chain and the loop it runs.
pub(super) struct ThWorker<'s, K: StoreKind> {
    cx: ThCtx<'s, K>,
    lp: &'s ThLoop<K>,
}

impl<'s, K: StoreKind> ThWorker<'s, K> {
    /// Runs one iteration with the index variable at `value`.  Which
    /// iteration it is — the currency of last-writer merges — is the
    /// store's business (a region's worker store is told by the recipe).
    pub(super) fn run_iteration(&mut self, value: i64) -> Result<(), ExecError> {
        let lp = self.lp;
        self.cx.set(lp.var, value);
        exec_ops(&lp.body.ops, &mut self.cx)
    }

    /// The worker's frame and store; mutable so the recipe can fold a
    /// finished phase out of them and re-arm them for the next.
    pub(super) fn frame(&mut self) -> (&mut [i64], &mut K::Arrays<'s>) {
        (&mut self.cx.regs, &mut self.cx.arrays)
    }
}

// ---------------------------------------------------------------------------
// Handlers.  One `fn` per operator × operand shape: the lowering resolves
// the shape once so execution never re-inspects it.
// ---------------------------------------------------------------------------

/// Expands the three operand shapes (`rr` register/register, `ri`
/// register/immediate, `ir` immediate/register) of one binary operator
/// into dedicated handlers.
macro_rules! bin_handlers {
    ($rr:ident, $ri:ident, $ir:ident, |$x:ident, $y:ident| $body:expr) => {
        fn $rr<K: StoreKind>(op: &ThOp<K>, cx: &mut ThCtx<'_, K>) -> Result<u32, ExecError> {
            let $x = cx.regs[op.b as usize];
            let $y = cx.regs[op.c as usize];
            let v = $body;
            cx.set(op.a, v);
            Ok(op.next)
        }
        fn $ri<K: StoreKind>(op: &ThOp<K>, cx: &mut ThCtx<'_, K>) -> Result<u32, ExecError> {
            let $x = cx.regs[op.b as usize];
            let $y = op.imm;
            let v = $body;
            cx.set(op.a, v);
            Ok(op.next)
        }
        fn $ir<K: StoreKind>(op: &ThOp<K>, cx: &mut ThCtx<'_, K>) -> Result<u32, ExecError> {
            let $x = op.imm;
            let $y = cx.regs[op.b as usize];
            let v = $body;
            cx.set(op.a, v);
            Ok(op.next)
        }
    };
}

bin_handlers!(th_add_rr, th_add_ri, th_add_ir, |x, y| x.wrapping_add(y));
bin_handlers!(th_sub_rr, th_sub_ri, th_sub_ir, |x, y| x.wrapping_sub(y));
bin_handlers!(th_mul_rr, th_mul_ri, th_mul_ir, |x, y| x.wrapping_mul(y));
bin_handlers!(th_div_rr, th_div_ri, th_div_ir, |x, y| x
    .checked_div(y)
    .ok_or(ExecError::DivisionByZero)?);
bin_handlers!(th_mod_rr, th_mod_ri, th_mod_ir, |x, y| x
    .checked_rem(y)
    .ok_or(ExecError::DivisionByZero)?);
bin_handlers!(th_lt_rr, th_lt_ri, th_lt_ir, |x, y| (x < y) as i64);
bin_handlers!(th_le_rr, th_le_ri, th_le_ir, |x, y| (x <= y) as i64);
bin_handlers!(th_gt_rr, th_gt_ri, th_gt_ir, |x, y| (x > y) as i64);
bin_handlers!(th_ge_rr, th_ge_ri, th_ge_ir, |x, y| (x >= y) as i64);
bin_handlers!(th_eq_rr, th_eq_ri, th_eq_ir, |x, y| (x == y) as i64);
bin_handlers!(th_ne_rr, th_ne_ri, th_ne_ir, |x, y| (x != y) as i64);

/// Expands the fused compare-and-branch shapes of one relational
/// operator: a true comparison takes `ext`, a false one `next` (the
/// lowering swaps which side carries the jump target for `jump_if =
/// false` branches).
macro_rules! cmpbr_handlers {
    ($rr:ident, $ri:ident, $ir:ident, |$x:ident, $y:ident| $test:expr) => {
        fn $rr<K: StoreKind>(op: &ThOp<K>, cx: &mut ThCtx<'_, K>) -> Result<u32, ExecError> {
            let $x = cx.regs[op.b as usize];
            let $y = cx.regs[op.c as usize];
            Ok(if $test { op.ext } else { op.next })
        }
        fn $ri<K: StoreKind>(op: &ThOp<K>, cx: &mut ThCtx<'_, K>) -> Result<u32, ExecError> {
            let $x = cx.regs[op.b as usize];
            let $y = op.imm;
            Ok(if $test { op.ext } else { op.next })
        }
        fn $ir<K: StoreKind>(op: &ThOp<K>, cx: &mut ThCtx<'_, K>) -> Result<u32, ExecError> {
            let $x = op.imm;
            let $y = cx.regs[op.b as usize];
            Ok(if $test { op.ext } else { op.next })
        }
    };
}

cmpbr_handlers!(th_blt_rr, th_blt_ri, th_blt_ir, |x, y| x < y);
cmpbr_handlers!(th_ble_rr, th_ble_ri, th_ble_ir, |x, y| x <= y);
cmpbr_handlers!(th_bgt_rr, th_bgt_ri, th_bgt_ir, |x, y| x > y);
cmpbr_handlers!(th_bge_rr, th_bge_ri, th_bge_ir, |x, y| x >= y);
cmpbr_handlers!(th_beq_rr, th_beq_ri, th_beq_ir, |x, y| x == y);
cmpbr_handlers!(th_bne_rr, th_bne_ri, th_bne_ir, |x, y| x != y);

/// Expands the register and immediate shapes of one fused accumulate.
macro_rules! accum_handlers {
    ($rr:ident, $ri:ident, |$x:ident, $y:ident| $body:expr) => {
        fn $rr<K: StoreKind>(op: &ThOp<K>, cx: &mut ThCtx<'_, K>) -> Result<u32, ExecError> {
            let $x = cx.regs[op.a as usize];
            let $y = cx.regs[op.b as usize];
            let v = $body;
            cx.set(op.a, v);
            Ok(op.next)
        }
        fn $ri<K: StoreKind>(op: &ThOp<K>, cx: &mut ThCtx<'_, K>) -> Result<u32, ExecError> {
            let $x = cx.regs[op.a as usize];
            let $y = op.imm;
            let v = $body;
            cx.set(op.a, v);
            Ok(op.next)
        }
    };
}

accum_handlers!(th_acc_add_rr, th_acc_add_ri, |x, y| x.wrapping_add(y));
accum_handlers!(th_acc_sub_rr, th_acc_sub_ri, |x, y| x.wrapping_sub(y));
accum_handlers!(th_acc_mul_rr, th_acc_mul_ri, |x, y| x.wrapping_mul(y));

fn th_const<K: StoreKind>(op: &ThOp<K>, cx: &mut ThCtx<'_, K>) -> Result<u32, ExecError> {
    cx.set(op.a, op.imm);
    Ok(op.next)
}

fn th_copy<K: StoreKind>(op: &ThOp<K>, cx: &mut ThCtx<'_, K>) -> Result<u32, ExecError> {
    let v = cx.regs[op.b as usize];
    cx.set(op.a, v);
    Ok(op.next)
}

fn th_neg<K: StoreKind>(op: &ThOp<K>, cx: &mut ThCtx<'_, K>) -> Result<u32, ExecError> {
    let v = cx.regs[op.b as usize].wrapping_neg();
    cx.set(op.a, v);
    Ok(op.next)
}

fn th_not<K: StoreKind>(op: &ThOp<K>, cx: &mut ThCtx<'_, K>) -> Result<u32, ExecError> {
    let v = (cx.regs[op.b as usize] == 0) as i64;
    cx.set(op.a, v);
    Ok(op.next)
}

fn th_load1<K: StoreKind>(op: &ThOp<K>, cx: &mut ThCtx<'_, K>) -> Result<u32, ExecError> {
    let i = cx.regs[op.c as usize];
    let v = cx.arrays.read1(ArraySlot(op.b), i)?;
    cx.set(op.a, v);
    Ok(op.next)
}

fn th_load_n<K: StoreKind>(op: &ThOp<K>, cx: &mut ThCtx<'_, K>) -> Result<u32, ExecError> {
    let rank = op.ext as usize;
    let base = op.c as usize;
    let mut buf = [0i64; 4];
    let v = if rank <= 4 {
        buf[..rank].copy_from_slice(&cx.regs[base..base + rank]);
        cx.arrays.read(ArraySlot(op.b), &buf[..rank])?
    } else {
        let idxs: Vec<i64> = cx.regs[base..base + rank].to_vec();
        cx.arrays.read(ArraySlot(op.b), &idxs)?
    };
    cx.set(op.a, v);
    Ok(op.next)
}

fn th_store1<K: StoreKind>(op: &ThOp<K>, cx: &mut ThCtx<'_, K>) -> Result<u32, ExecError> {
    let v = cx.regs[op.a as usize];
    let i = cx.regs[op.c as usize];
    cx.arrays.write1(ArraySlot(op.b), i, v)?;
    Ok(op.next)
}

fn th_store_n<K: StoreKind>(op: &ThOp<K>, cx: &mut ThCtx<'_, K>) -> Result<u32, ExecError> {
    let rank = op.ext as usize;
    let base = op.c as usize;
    let v = cx.regs[op.a as usize];
    let mut buf = [0i64; 4];
    if rank <= 4 {
        buf[..rank].copy_from_slice(&cx.regs[base..base + rank]);
        cx.arrays.write(ArraySlot(op.b), &buf[..rank], v)?;
    } else {
        let idxs: Vec<i64> = cx.regs[base..base + rank].to_vec();
        cx.arrays.write(ArraySlot(op.b), &idxs, v)?;
    }
    Ok(op.next)
}

fn th_decl<K: StoreKind>(op: &ThOp<K>, cx: &mut ThCtx<'_, K>) -> Result<u32, ExecError> {
    let rank = op.ext as usize;
    let base = op.c as usize;
    let dims: Vec<usize> = cx.regs[base..base + rank]
        .iter()
        .map(|&d| d.max(0) as usize)
        .collect();
    cx.arrays.declare(ArraySlot(op.b), dims)?;
    Ok(op.next)
}

fn th_jz<K: StoreKind>(op: &ThOp<K>, cx: &mut ThCtx<'_, K>) -> Result<u32, ExecError> {
    Ok(if cx.regs[op.a as usize] == 0 {
        op.ext
    } else {
        op.next
    })
}

fn th_jnz<K: StoreKind>(op: &ThOp<K>, cx: &mut ThCtx<'_, K>) -> Result<u32, ExecError> {
    Ok(if cx.regs[op.a as usize] != 0 {
        op.ext
    } else {
        op.next
    })
}

fn th_jump<K: StoreKind>(op: &ThOp<K>, _cx: &mut ThCtx<'_, K>) -> Result<u32, ExecError> {
    Ok(op.ext)
}

fn th_for<K: StoreKind>(op: &ThOp<K>, cx: &mut ThCtx<'_, K>) -> Result<u32, ExecError> {
    let prog = cx.prog;
    run_loop(&prog.loops[op.ext as usize], cx)?;
    Ok(op.next)
}

fn th_wenter<K: StoreKind>(op: &ThOp<K>, cx: &mut ThCtx<'_, K>) -> Result<u32, ExecError> {
    let id = cx.prog.while_ids[op.ext as usize];
    let start = cx.timing.then(Instant::now);
    cx.guards.push(WGuard {
        id,
        iters: 0,
        start,
    });
    Ok(op.next)
}

fn th_witer<K: StoreKind>(op: &ThOp<K>, cx: &mut ThCtx<'_, K>) -> Result<u32, ExecError> {
    let cap = cx.while_cap;
    let g = cx.guards.last_mut().expect("unbalanced while guards");
    debug_assert_eq!(g.id, cx.prog.while_ids[op.ext as usize]);
    if g.iters >= cap {
        return Err(ExecError::NonTerminating { loop_id: g.id, cap });
    }
    g.iters += 1;
    Ok(op.next)
}

fn th_wexit<K: StoreKind>(op: &ThOp<K>, cx: &mut ThCtx<'_, K>) -> Result<u32, ExecError> {
    let g = cx.guards.pop().expect("unbalanced while guards");
    if let Some(t) = g.start {
        cx.stats
            .record(g.id, g.iters, t.elapsed().as_secs_f64(), ExecMode::Serial);
    }
    Ok(op.next)
}

fn th_ldld<K: StoreKind>(op: &ThOp<K>, cx: &mut ThCtx<'_, K>) -> Result<u32, ExecError> {
    // Inner read first, then the outer — the error order of the two loads
    // the superinstruction replaced.
    let i = cx.regs[op.c as usize];
    let inner = cx.arrays.read1(ArraySlot(op.ext), i)?;
    let v = cx.arrays.read1(ArraySlot(op.b), inner)?;
    cx.set(op.a, v);
    Ok(op.next)
}

fn th_load2<K: StoreKind>(op: &ThOp<K>, cx: &mut ThCtx<'_, K>) -> Result<u32, ExecError> {
    let (i, j) = (cx.regs[op.b as usize], cx.regs[op.c as usize]);
    let v = cx.arrays.read2(ArraySlot(op.ext), i, j)?;
    cx.set(op.a, v);
    Ok(op.next)
}

fn th_store2<K: StoreKind>(op: &ThOp<K>, cx: &mut ThCtx<'_, K>) -> Result<u32, ExecError> {
    let v = cx.regs[op.a as usize];
    let (i, j) = (cx.regs[op.b as usize], cx.regs[op.c as usize]);
    cx.arrays.write2(ArraySlot(op.ext), i, j, v)?;
    Ok(op.next)
}

// Division by a constant `d`, `2 ≤ |d| ≤ u32::MAX`: the op carries `|d|`
// in `c`, its multiplier `m = ⌈2^64 / |d|⌉` in `imm` and, for a quotient,
// `d < 0` in `ext`.  With a dividend of at most 32 bits, `|x| / |d|` is
// the high word of `m·|x|`, `|x| % |d|` the high word of `|d|` times its
// low word, and `|d|` divides `|x|` exactly when that low word is below
// `m` (Lemire, Kaser & Kurz 2019).  Wider dividends take the hardware
// divide.  Signs follow C truncation: the quotient's is the product of
// both signs, the remainder's the dividend's.

/// `|d|` and `⌈2^64 / |d|⌉`, for the divisors the multiply forms serve:
/// `None` for 0 and ±1 (whose error points and `i64::MIN / −1` stay with
/// the checked handlers) and beyond `u32::MAX`.
fn magic_divisor(d: i64) -> Option<(u32, u64)> {
    let ud = u32::try_from(d.unsigned_abs()).ok().filter(|&u| u >= 2)?;
    Some((ud, u64::MAX / u64::from(ud) + 1))
}

#[inline(always)]
fn mul_hi(a: u64, b: u64) -> u64 {
    ((u128::from(a) * u128::from(b)) >> 64) as u64
}

/// `x / d` truncated, `neg` the sign of `d`.
#[inline(always)]
fn div_magic(x: i64, ud: u32, m: u64, neg: bool) -> i64 {
    let ux = x.unsigned_abs();
    let q = if ux <= u64::from(u32::MAX) {
        mul_hi(m, ux)
    } else {
        ux / u64::from(ud)
    } as i64;
    let s = (x >> 63) ^ -(neg as i64);
    (q ^ s) - s
}

/// `x % d`, truncated: `d`'s sign plays no part.
#[inline(always)]
fn rem_magic(x: i64, ud: u32, m: u64) -> i64 {
    let ux = x.unsigned_abs();
    let r = if ux <= u64::from(u32::MAX) {
        mul_hi(m.wrapping_mul(ux), u64::from(ud))
    } else {
        ux % u64::from(ud)
    } as i64;
    let s = x >> 63;
    (r ^ s) - s
}

/// `x % d == 0`.
#[inline(always)]
fn divisible_magic(x: i64, ud: u32, m: u64) -> bool {
    let ux = x.unsigned_abs();
    if ux <= u64::from(u32::MAX) {
        m.wrapping_mul(ux) < m
    } else {
        ux.is_multiple_of(u64::from(ud))
    }
}

fn th_div_magic<K: StoreKind>(op: &ThOp<K>, cx: &mut ThCtx<'_, K>) -> Result<u32, ExecError> {
    let v = div_magic(cx.regs[op.b as usize], op.c, op.imm as u64, op.ext != 0);
    cx.set(op.a, v);
    Ok(op.next)
}

fn th_mod_magic<K: StoreKind>(op: &ThOp<K>, cx: &mut ThCtx<'_, K>) -> Result<u32, ExecError> {
    let v = rem_magic(cx.regs[op.b as usize], op.c, op.imm as u64);
    cx.set(op.a, v);
    Ok(op.next)
}

/// The fused `x % d == 0` branch: divisible takes `ext`, like a true
/// comparison of [`cmpbr_handlers`].
fn th_bdvd<K: StoreKind>(op: &ThOp<K>, cx: &mut ThCtx<'_, K>) -> Result<u32, ExecError> {
    let divisible = divisible_magic(cx.regs[op.b as usize], op.c, op.imm as u64);
    Ok(if divisible { op.ext } else { op.next })
}

/// The fused `x % d != 0` branch.
fn th_bndvd<K: StoreKind>(op: &ThOp<K>, cx: &mut ThCtx<'_, K>) -> Result<u32, ExecError> {
    let divisible = divisible_magic(cx.regs[op.b as usize], op.c, op.imm as u64);
    Ok(if divisible { op.next } else { op.ext })
}

/// Operand shape of a lowered binary operation.
#[derive(Clone, Copy)]
enum Shape {
    /// Both operands in registers.
    Rr,
    /// Left register, right immediate.
    Ri,
    /// Left immediate, right register.
    Ir,
}

fn bin_handler<K: StoreKind>(op: BinOp, shape: Shape) -> Handler<K> {
    macro_rules! pick {
        ($rr:ident, $ri:ident, $ir:ident) => {
            match shape {
                Shape::Rr => $rr::<K>,
                Shape::Ri => $ri::<K>,
                Shape::Ir => $ir::<K>,
            }
        };
    }
    match op {
        BinOp::Add => pick!(th_add_rr, th_add_ri, th_add_ir),
        BinOp::Sub => pick!(th_sub_rr, th_sub_ri, th_sub_ir),
        BinOp::Mul => pick!(th_mul_rr, th_mul_ri, th_mul_ir),
        BinOp::Div => pick!(th_div_rr, th_div_ri, th_div_ir),
        BinOp::Mod => pick!(th_mod_rr, th_mod_ri, th_mod_ir),
        BinOp::Lt => pick!(th_lt_rr, th_lt_ri, th_lt_ir),
        BinOp::Le => pick!(th_le_rr, th_le_ri, th_le_ir),
        BinOp::Gt => pick!(th_gt_rr, th_gt_ri, th_gt_ir),
        BinOp::Ge => pick!(th_ge_rr, th_ge_ri, th_ge_ir),
        BinOp::Eq => pick!(th_eq_rr, th_eq_ri, th_eq_ir),
        BinOp::Ne => pick!(th_ne_rr, th_ne_ri, th_ne_ir),
        BinOp::And | BinOp::Or => unreachable!("short-circuit ops compile to jumps"),
    }
}

fn cmpbr_handler<K: StoreKind>(op: BinOp, shape: Shape) -> Handler<K> {
    macro_rules! pick {
        ($rr:ident, $ri:ident, $ir:ident) => {
            match shape {
                Shape::Rr => $rr::<K>,
                Shape::Ri => $ri::<K>,
                Shape::Ir => $ir::<K>,
            }
        };
    }
    match op {
        BinOp::Lt => pick!(th_blt_rr, th_blt_ri, th_blt_ir),
        BinOp::Le => pick!(th_ble_rr, th_ble_ri, th_ble_ir),
        BinOp::Gt => pick!(th_bgt_rr, th_bgt_ri, th_bgt_ir),
        BinOp::Ge => pick!(th_bge_rr, th_bge_ri, th_bge_ir),
        BinOp::Eq => pick!(th_beq_rr, th_beq_ri, th_beq_ir),
        BinOp::Ne => pick!(th_bne_rr, th_bne_ri, th_bne_ir),
        _ => unreachable!("CmpBranch carries relational operators only"),
    }
}

fn accum_handler<K: StoreKind>(op: AssignOp, imm: bool) -> Handler<K> {
    match (op, imm) {
        (AssignOp::AddAssign, false) => th_acc_add_rr::<K>,
        (AssignOp::AddAssign, true) => th_acc_add_ri::<K>,
        (AssignOp::SubAssign, false) => th_acc_sub_rr::<K>,
        (AssignOp::SubAssign, true) => th_acc_sub_ri::<K>,
        (AssignOp::MulAssign, false) => th_acc_mul_rr::<K>,
        (AssignOp::MulAssign, true) => th_acc_mul_ri::<K>,
        (AssignOp::Assign, _) => unreachable!("plain assignment never reaches Accum"),
    }
}

fn cmp_fn(op: BinOp) -> fn(i64, i64) -> bool {
    match op {
        BinOp::Lt => |a, b| a < b,
        BinOp::Le => |a, b| a <= b,
        BinOp::Gt => |a, b| a > b,
        BinOp::Ge => |a, b| a >= b,
        BinOp::Eq => |a, b| a == b,
        BinOp::Ne => |a, b| a != b,
        // Mirror `serial::compare`: anything non-relational is an
        // immediately false exit test, not a panic.
        _ => |_, _| false,
    }
}

// ---------------------------------------------------------------------------
// Lowering.
// ---------------------------------------------------------------------------

/// Which pre-stored field of a lowered op holds a branch target awaiting
/// index translation.
enum PatchField {
    Ext,
    Next,
}

struct Lower<'b, K: StoreKind> {
    bc: &'b BytecodeProgram,
    loops: Vec<ThLoop<K>>,
    while_ids: Vec<LoopId>,
}

/// Aims the branch op `o`, lowered at `pos`, at bytecode index `target`:
/// a true test takes `ext`, so a branch on false keeps its target in
/// `next` and its fall-through in `ext`.
fn branch_to<K: StoreKind>(
    o: &mut ThOp<K>,
    pos: usize,
    target: u32,
    jump_if: bool,
    patches: &mut Vec<(usize, u32, PatchField)>,
) {
    if jump_if {
        patches.push((pos, target, PatchField::Ext));
    } else {
        o.ext = pos as u32 + 1;
        patches.push((pos, target, PatchField::Next));
    }
}

fn push<K: StoreKind>(out: &mut Vec<ThOp<K>>, run: Handler<K>) -> &mut ThOp<K> {
    let next = out.len() as u32 + 1;
    out.push(ThOp {
        run,
        a: 0,
        b: 0,
        c: 0,
        imm: 0,
        next,
        ext: 0,
    });
    out.last_mut().expect("just pushed")
}

impl<K: StoreKind> Lower<'_, K> {
    fn lower_block(&mut self, code: &[Instr], result: Option<Reg>) -> ThBlock<K> {
        let targets = jump_targets(code);
        let live = Liveness::compute(code, self.bc.slots.scalar_count(), self.bc.nregs, result);
        let mut out: Vec<ThOp<K>> = Vec::with_capacity(code.len());
        let mut map = vec![0u32; code.len() + 1];
        let mut patches: Vec<(usize, u32, PatchField)> = Vec::new();
        let mut i = 0usize;
        while i < code.len() {
            let pos = out.len() as u32;
            map[i] = pos;
            if let Instr::Const { dst: t, pool } = &code[i] {
                if self.try_fuse_divisibility(code, i, &targets, &live, &mut out, &mut patches) {
                    map[i + 1..i + 4].fill(pos);
                    i += 4;
                    continue;
                }
                // Constant fusion: a temp constant directly above its
                // consumer (no branch landing between the two) and dead
                // after it becomes the consumer's immediate.
                if i + 1 < code.len() && !targets[i + 1] && live.dead_after(code, i + 1, *t) {
                    let imm = self.bc.consts[*pool as usize];
                    if try_fuse(&code[i + 1], *t, imm, &mut out, &mut patches) {
                        map[i + 1] = pos;
                        i += 2;
                        continue;
                    }
                }
            }
            self.emit(&code[i], &mut out, &mut patches);
            i += 1;
        }
        map[code.len()] = out.len() as u32;
        for (idx, old, field) in patches {
            let n = map[old as usize];
            match field {
                PatchField::Ext => out[idx].ext = n,
                PatchField::Next => out[idx].next = n,
            }
        }
        ThBlock {
            ops: out,
            result: result.map_or(0, |r| r.0),
        }
    }

    /// Lowers the O1 divisibility test `const d; t ← x % d; const 0; cmpbr
    /// t ==/!= 0` at `i` to one branch when `d` has a multiplier, no jump
    /// lands inside the window and every temp it writes is dead after the
    /// branch; returns `false` to leave the window to the other rules.
    fn try_fuse_divisibility(
        &self,
        code: &[Instr],
        i: usize,
        targets: &[bool],
        live: &Liveness,
        out: &mut Vec<ThOp<K>>,
        patches: &mut Vec<(usize, u32, PatchField)>,
    ) -> bool {
        let Some(
            [Instr::Const { dst: td, pool: pd }, Instr::Bin {
                op: BinOp::Mod,
                dst: t,
                a: x,
                b,
            }, Instr::Const { dst: tz, pool: pz }, Instr::CmpBranch {
                op: cmp @ (BinOp::Eq | BinOp::Ne),
                a: ca,
                b: cb,
                target,
                jump_if,
            }],
        ) = code.get(i..i + 4)
        else {
            return false;
        };
        let consts = &self.bc.consts;
        let Some((ud, m)) = magic_divisor(consts[*pd as usize]) else {
            return false;
        };
        let shaped = b == td
            && x != td
            && consts[*pz as usize] == 0
            && t != tz
            && ((ca, cb) == (t, tz) || (ca, cb) == (tz, t));
        if !shaped
            || targets[i + 1..i + 4].contains(&true)
            || !live.dead_after(code, i + 1, *td)
            || !live.dead_after(code, i + 3, *t)
            || !live.dead_after(code, i + 3, *tz)
        {
            return false;
        }
        let pos = out.len();
        let o = push(out, if *cmp == BinOp::Eq { th_bdvd } else { th_bndvd });
        o.b = x.0;
        o.c = ud;
        o.imm = m as i64;
        branch_to(o, pos, *target, *jump_if, patches);
        true
    }

    fn emit(
        &mut self,
        ins: &Instr,
        out: &mut Vec<ThOp<K>>,
        patches: &mut Vec<(usize, u32, PatchField)>,
    ) {
        let pos = out.len();
        match ins {
            Instr::Const { dst, pool } => {
                let imm = self.bc.consts[*pool as usize];
                let o = push(out, th_const);
                o.a = dst.0;
                o.imm = imm;
            }
            Instr::Copy { dst, src } => {
                let o = push(out, th_copy);
                o.a = dst.0;
                o.b = src.0;
            }
            Instr::Bin { op, dst, a, b } => {
                let o = push(out, bin_handler(*op, Shape::Rr));
                o.a = dst.0;
                o.b = a.0;
                o.c = b.0;
            }
            Instr::Accum { op, dst, src } => {
                let o = push(out, accum_handler(*op, false));
                o.a = dst.0;
                o.b = src.0;
            }
            Instr::Neg { dst, src } => {
                let o = push(out, th_neg);
                o.a = dst.0;
                o.b = src.0;
            }
            Instr::Not { dst, src } => {
                let o = push(out, th_not);
                o.a = dst.0;
                o.b = src.0;
            }
            Instr::Load {
                dst,
                array,
                idx,
                rank,
            } => {
                let o = push(out, if *rank == 1 { th_load1 } else { th_load_n });
                o.a = dst.0;
                o.b = array.0;
                o.c = idx.0;
                o.ext = *rank as u32;
            }
            Instr::Store {
                array,
                idx,
                rank,
                src,
            } => {
                let o = push(out, if *rank == 1 { th_store1 } else { th_store_n });
                o.a = src.0;
                o.b = array.0;
                o.c = idx.0;
                o.ext = *rank as u32;
            }
            Instr::DeclArray { array, dims, rank } => {
                let o = push(out, th_decl);
                o.b = array.0;
                o.c = dims.0;
                o.ext = *rank as u32;
            }
            Instr::Jz { cond, target } => {
                let o = push(out, th_jz);
                o.a = cond.0;
                patches.push((pos, *target, PatchField::Ext));
            }
            Instr::Jnz { cond, target } => {
                let o = push(out, th_jnz);
                o.a = cond.0;
                patches.push((pos, *target, PatchField::Ext));
            }
            Instr::Jump { target } => {
                push(out, th_jump);
                patches.push((pos, *target, PatchField::Ext));
            }
            Instr::For(f) => {
                let li = self.lower_for(f);
                let o = push(out, th_for);
                o.ext = li;
            }
            Instr::WhileEnter { id } => {
                let wi = self.while_ids.len() as u32;
                self.while_ids.push(*id);
                let o = push(out, th_wenter);
                o.ext = wi;
            }
            Instr::WhileIter { id } => {
                let wi = self.while_ids.len() as u32;
                self.while_ids.push(*id);
                let o = push(out, th_witer);
                o.ext = wi;
            }
            Instr::WhileExit { id } => {
                let wi = self.while_ids.len() as u32;
                self.while_ids.push(*id);
                let o = push(out, th_wexit);
                o.ext = wi;
            }
            Instr::LoadLoad {
                dst,
                outer,
                inner,
                idx,
            } => {
                let o = push(out, th_ldld);
                o.a = dst.0;
                o.b = outer.0;
                o.c = idx.0;
                o.ext = inner.0;
            }
            Instr::CmpBranch {
                op,
                a,
                b,
                target,
                jump_if,
            } => {
                let o = push(out, cmpbr_handler(*op, Shape::Rr));
                o.b = a.0;
                o.c = b.0;
                branch_to(o, pos, *target, *jump_if, patches);
            }
            Instr::Load2 { dst, array, i0, i1 } => {
                let o = push(out, th_load2);
                o.a = dst.0;
                o.b = i0.0;
                o.c = i1.0;
                o.ext = array.0;
            }
            Instr::Store2 { array, i0, i1, src } => {
                let o = push(out, th_store2);
                o.a = src.0;
                o.b = i0.0;
                o.c = i1.0;
                o.ext = array.0;
            }
        }
    }

    fn lower_for(&mut self, f: &BcFor) -> u32 {
        let init = self.lower_header(&f.init, f.init_fast);
        let bound = self.lower_header(&f.bound, f.bound_fast);
        let step = self.lower_header(&f.step, f.step_fast);
        let body = self.lower_block(&f.body, None);
        let mut writes = HashSet::new();
        reg_writes(&f.body, &mut writes);
        let inv = |r: u32| !writes.contains(&r) && r != f.var.0;
        let step_ok = match &step {
            ThHeader::Imm(_) => true,
            ThHeader::Reg(r) => inv(*r),
            _ => false,
        };
        let bound_ok = match &bound {
            ThHeader::Imm(_) => true,
            ThHeader::Reg(r) => inv(*r),
            ThHeader::Once(_) => true,
            ThHeader::Every(_) => false,
        };
        let counted = !writes.contains(&f.var.0) && step_ok && bound_ok;
        let idx = self.loops.len() as u32;
        self.loops.push(ThLoop {
            id: f.id,
            var: f.var.0,
            cond_op: f.cond_op,
            cond: cmp_fn(f.cond_op),
            init,
            bound,
            step,
            body,
            counted,
            local_arrays: f.local_arrays.clone(),
            locals_dominated: f.locals_dominated,
            skewed: f.skewed,
        });
        idx
    }

    fn lower_header(&mut self, e: &BcExpr, fast: HeaderFast) -> ThHeader<K> {
        // O0 streams carry no fast facts: the optimizer's header-shape rule
        // recovers the two trivial shapes for them.
        let fast = match fast {
            HeaderFast::Eval => e.shape_fast(&self.bc.consts),
            other => other,
        };
        match fast {
            HeaderFast::Const(v) => ThHeader::Imm(v),
            HeaderFast::Reg(r) => ThHeader::Reg(r.0),
            HeaderFast::EvalOnce => ThHeader::Once(self.lower_block(&e.code, Some(e.result))),
            HeaderFast::Eval => ThHeader::Every(self.lower_block(&e.code, Some(e.result))),
        }
    }
}

/// Emits the fused immediate form of `next` when it is a fusable consumer
/// reading the constant in `t` through exactly one operand; returns
/// `false` to fall back to plain emission.
fn try_fuse<K: StoreKind>(
    next: &Instr,
    t: Reg,
    imm: i64,
    out: &mut Vec<ThOp<K>>,
    patches: &mut Vec<(usize, u32, PatchField)>,
) -> bool {
    // Division by a constant with a multiplier takes the multiply forms.
    if let (Instr::Bin { op, dst, a, b }, Some((ud, m))) = (next, magic_divisor(imm)) {
        if matches!(op, BinOp::Div | BinOp::Mod) && *b == t && *a != t {
            let h: Handler<K> = if *op == BinOp::Div {
                th_div_magic
            } else {
                th_mod_magic
            };
            let o = push(out, h);
            o.a = dst.0;
            o.b = a.0;
            o.c = ud;
            o.imm = m as i64;
            o.ext = (imm < 0) as u32;
            return true;
        }
    }
    match next {
        Instr::Bin { op, dst, a, b }
            if (*a == t) != (*b == t) && !matches!(op, BinOp::And | BinOp::Or) =>
        {
            let (h, reg) = if *b == t {
                (bin_handler(*op, Shape::Ri), a.0)
            } else {
                (bin_handler(*op, Shape::Ir), b.0)
            };
            let o = push(out, h);
            o.a = dst.0;
            o.b = reg;
            o.imm = imm;
            true
        }
        Instr::CmpBranch {
            op,
            a,
            b,
            target,
            jump_if,
        } if (*a == t) != (*b == t) => {
            let (h, reg) = if *b == t {
                (cmpbr_handler(*op, Shape::Ri), a.0)
            } else {
                (cmpbr_handler(*op, Shape::Ir), b.0)
            };
            let pos = out.len();
            let o = push(out, h);
            o.b = reg;
            o.imm = imm;
            branch_to(o, pos, *target, *jump_if, patches);
            true
        }
        Instr::Accum { op, dst, src } if *src == t && *dst != t => {
            let o = push(out, accum_handler(*op, true));
            o.a = dst.0;
            o.imm = imm;
            true
        }
        _ => false,
    }
}

/// Lowers one bytecode stream into its direct-threaded form for store
/// kind `K`.  Pure and deterministic — every kind's lowering has the same
/// ops and loop table, only the handlers' monomorphization differs; called
/// once per `(Artifacts, opt level, store kind)` through [`lowered`].
fn lower<K: StoreKind>(bc: &BytecodeProgram) -> ThProgram<K> {
    let mut lw = Lower {
        bc,
        loops: Vec::new(),
        while_ids: Vec::new(),
    };
    let main = lw.lower_block(&bc.main, None);
    ThProgram {
        main,
        loops: lw.loops,
        while_ids: lw.while_ids,
        nregs: bc.nregs,
        nscalars: bc.slots.scalar_count(),
    }
}

// ---------------------------------------------------------------------------
// Entry points.
// ---------------------------------------------------------------------------

/// The lowered program for `level` and store kind `K`, creating and
/// caching it on the artifacts on first use.  Returns the shared `Arc`;
/// downcast with [`th_program`].
pub(crate) fn lowered<K: StoreKind>(
    artifacts: &Artifacts,
    level: OptLevel,
) -> Arc<dyn EngineArtifact> {
    artifacts.engine_artifact(
        "threaded",
        K::INDEX << 1 | ExtArtifacts::level_key(level),
        || Arc::new(lower::<K>(artifacts.bytecode_at(level))),
    )
}

/// Recovers the concrete lowering from the engine-artifact slot.
fn th_program<K: StoreKind>(arc: &Arc<dyn EngineArtifact>) -> &ThProgram<K> {
    arc.as_any()
        .downcast_ref::<ThProgram<K>>()
        .expect("the threaded engine owns its artifact slots")
}

/// Runs the lowering of `artifacts` at `opts.opt_level` (created and
/// cached on first use) on the spine, handing loops to `dispatch` when
/// there is one (`None` = serial).
pub(super) fn run_threaded(
    artifacts: &Artifacts,
    mut heap: Heap,
    opts: &ExecOptions,
    dispatch: Option<&Dispatcher<'_>>,
) -> Result<ExecOutcome, ExecError> {
    let arc = lowered::<SpineKind>(artifacts, opts.opt_level);
    let prog = th_program::<SpineKind>(&arc);
    let slots = &artifacts.bytecode_at(opts.opt_level).slots;
    let start = Instant::now();
    let mut cx = ThCtx {
        prog,
        regs: vec![0; prog.nregs],
        defined: vec![false; prog.nscalars],
        arrays: SpineArrays::from_heap(&mut heap, slots),
        guards: Vec::new(),
        stats: ExecStats::default(),
        timing: true,
        while_cap: opts.while_cap,
        nscalars: prog.nscalars,
        dispatch,
    };
    load_scalars(&heap, slots, &mut cx.regs, &mut cx.defined);
    exec_ops(&prog.main.ops, &mut cx)?;
    cx.arrays.into_heap(&mut heap);
    store_scalars(&mut heap, slots, &cx.regs, &cx.defined);
    cx.stats.total_seconds = start.elapsed().as_secs_f64();
    Ok(ExecOutcome {
        heap,
        stats: cx.stats,
    })
}

/// Runs the whole program of `chain`, a lowering for store kind `K`,
/// serially over `arrays`, from a frame whose low registers hold
/// `scalars` (one per scalar slot): nothing dispatches and nothing is
/// timed.  Returns the store, for the caller to read what it recorded.
pub(crate) fn run_chain<'s, K: StoreKind>(
    chain: &'s Arc<dyn EngineArtifact>,
    mut scalars: Vec<i64>,
    arrays: K::Arrays<'s>,
    while_cap: u64,
) -> Result<K::Arrays<'s>, ExecError> {
    let prog = th_program::<K>(chain);
    scalars.resize(prog.nregs, 0);
    let mut cx = ThCtx {
        prog,
        regs: scalars,
        defined: Vec::new(),
        arrays,
        guards: Vec::new(),
        stats: ExecStats::default(),
        timing: false,
        while_cap,
        nscalars: prog.nscalars,
        dispatch: None,
    };
    exec_ops(&prog.main.ops, &mut cx)?;
    Ok(cx.arrays)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifacts(src: &str) -> Artifacts {
        Artifacts::compile_source("threaded-test", src).expect("test program compiles")
    }

    fn run_both(src: &str, heap: &Heap, level: OptLevel) -> (Heap, Heap) {
        let art = artifacts(src);
        let opts = ExecOptions {
            opt_level: level,
            ..ExecOptions::default()
        };
        let bc =
            super::super::bytecode::run_bytecode(art.bytecode_at(level), heap.clone(), &opts, None)
                .expect("bytecode run succeeds");
        let th = run_threaded(&art, heap.clone(), &opts, None).expect("threaded run succeeds");
        (bc.heap, th.heap)
    }

    #[test]
    fn threaded_matches_bytecode_on_a_csr_style_kernel() {
        let src = r#"
            for (i = 0; i < nnz; i++) { col[i] = (i * 3) % n; val[i] = i + 1; }
            for (i = 0; i < n; i++) { x[i] = i + 2; }
            for (i = 0; i < n; i++) {
                s = 0;
                for (j = rowptr[i]; j < rowptr[i + 1]; j++) {
                    s += val[j] * x[col[j]];
                }
                y[i] = s;
            }
        "#;
        let heap = Heap::new()
            .with_scalar("n", 4)
            .with_scalar("nnz", 6)
            .with_array("rowptr", vec![0, 2, 3, 5, 6])
            .with_array("col", vec![0; 6])
            .with_array("val", vec![0; 6])
            .with_array("x", vec![0; 4])
            .with_array("y", vec![0; 4]);
        for level in [OptLevel::O0, OptLevel::O1] {
            let (bc, th) = run_both(src, &heap, level);
            assert_eq!(bc, th, "heaps diverge at {level:?}");
        }
    }

    #[test]
    fn threaded_matches_bytecode_on_branches_whiles_and_errors() {
        let src = r#"
            n = 10; acc = 0; i = 0;
            while (i < n) {
                if (i % 2 == 0) { acc += i * 3; } else { acc -= 1; }
                i = i + 1;
            }
        "#;
        for level in [OptLevel::O0, OptLevel::O1] {
            let (bc, th) = run_both(src, &Heap::new(), level);
            assert_eq!(bc, th, "heaps diverge at {level:?}");
        }
        // Division by zero faults identically.
        let art = artifacts("a = 4; b = 0; c = a / b;");
        let opts = ExecOptions::default();
        let err = run_threaded(&art, Heap::new(), &opts, None).unwrap_err();
        assert!(matches!(err, ExecError::DivisionByZero));
    }

    #[test]
    fn counted_loops_preserve_the_induction_value_after_exit() {
        // The fast path keeps the induction value in a local; the
        // post-loop register must still hold the first failing value.
        let (bc, th) = run_both(
            "k = 0; for (i = 3; i < 11; i = i + 2) { k += i; } m = i;",
            &Heap::new(),
            OptLevel::O1,
        );
        assert_eq!(bc, th);
    }

    #[test]
    fn both_subscript_constants_of_a_prefix_sum_fuse_at_either_level() {
        // Each `i - 1` is a constant temp read once by the subtraction and
        // dead after it, so both lower to immediate forms: no standalone
        // constant op is left in the loop body.  The constant handler's
        // address is taken from a chain that keeps one — `x[3]`'s constant
        // temp is read by the load and the store, so it cannot fuse — not
        // from this test's own instance of the generic handler, whose
        // address may differ and would match nothing.
        // The lowered loop and the length of its bytecode body.
        let lower_loop = |src: &str, level| {
            let art = artifacts(src);
            let bc = art.bytecode_at(level);
            let Some(Instr::For(f)) = bc.main.iter().find(|i| matches!(i, Instr::For(_))) else {
                panic!("{src} is a structured loop");
            };
            (lower::<SpineKind>(bc), f.body.len())
        };
        for level in [OptLevel::O0, OptLevel::O1] {
            let (kept, kept_n) = lower_loop("for (i = 1; i < n; i++) { x[3] += i; }", level);
            let kept = &kept.loops[0].body.ops;
            // Nothing fused, so the first op is the constant's own.
            let constant = &kept[0];
            assert!(
                kept.len() == kept_n && constant.imm == 3,
                "the subscript constant is the kept chain's first op at {level}"
            );
            let (prefix_sum, n) =
                lower_loop("for (i = 1; i < n; i++) { s[i] = s[i-1] + t[i-1]; }", level);
            let body = &prefix_sum.loops[0].body.ops;
            assert!(
                !body
                    .iter()
                    .any(|op| std::ptr::fn_addr_eq(op.run, constant.run)),
                "a constant stayed a separate op at {level}"
            );
            assert_eq!(body.len(), n - 2, "two fusions at {level}");
        }
    }

    /// Dividends for the multiply forms: both sides of the 32-bit fast
    /// path's edge, the extremes, and a seeded sample at three magnitudes.
    fn dividends() -> Vec<i64> {
        let edge = 1i64 << 32;
        let mut xs = vec![0, i64::MIN, i64::MAX];
        for v in [1, edge - 1, edge, edge + 1] {
            xs.extend([v, -v]);
        }
        let mut s: u64 = 0x9e37_79b9_7f4a_7c15;
        for k in 0..480 {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            xs.push((s as i64) >> [0, 30, 52][k % 3]);
        }
        xs
    }

    /// Divisors that have a multiplier, each with its negation.
    fn divisors() -> Vec<i64> {
        (2..=64)
            .chain([17, 1_000_003, 1 << 31, u32::MAX as i64])
            .flat_map(|d| [d, -d])
            .collect()
    }

    #[test]
    fn multiply_forms_match_checked_division() {
        for d in divisors() {
            let (ud, m) = magic_divisor(d).expect("2 ≤ |d| ≤ u32::MAX has a multiplier");
            for x in dividends() {
                let q = x.checked_div(d).expect("|d| ≥ 2 never traps");
                let r = x.checked_rem(d).expect("|d| ≥ 2 never traps");
                assert_eq!(div_magic(x, ud, m, d < 0), q, "{x} / {d}");
                assert_eq!(rem_magic(x, ud, m), r, "{x} % {d}");
                assert_eq!(divisible_magic(x, ud, m), r == 0, "{x} % {d} == 0");
            }
        }
        for d in [0, 1, -1, 1 << 32, -(1 << 32), i64::MIN, i64::MAX] {
            assert!(
                magic_divisor(d).is_none(),
                "{d} stays with the checked handlers"
            );
        }
    }

    #[test]
    fn constant_division_handlers_match_checked_division() {
        // One loop per divisor: a quotient, a remainder and both fused
        // divisibility branches over every dividend.
        let (xs, ds) = (dividends(), divisors());
        let (n, k) = (xs.len(), ds.len());
        let mut src = format!("int q[{k}][{n}]; int r[{k}][{n}]; int z[{k}][{n}];\n");
        for (j, d) in ds.iter().enumerate() {
            src += &format!(
                "for (i = 0; i < n; i++) {{ q[{j}][i] = x[i] / {d}; r[{j}][i] = x[i] % {d}; \
                 if (x[i] % {d} == 0) {{ z[{j}][i] = 1; }} \
                 if (x[i] % {d} != 0) {{ z[{j}][i] = z[{j}][i] + 2; }} }}\n"
            );
        }
        let heap = Heap::new()
            .with_scalar("n", n as i64)
            .with_array("x", xs.clone());
        let art = artifacts(&src);
        // At O1 each loop holds four ops carrying its divisor's multiplier,
        // and four distinct handlers among them means both tests fused (an
        // unfused test would repeat the remainder's handler).  Handlers
        // are told apart within the one lowering: a generic handler's
        // address may differ between codegen units.
        let prog = lower::<SpineKind>(art.bytecode_at(OptLevel::O1));
        assert_eq!(prog.loops.len(), k);
        for (lp, &d) in prog.loops.iter().zip(&ds) {
            let (_, m) = magic_divisor(d).expect("every divisor has one");
            let runs: Vec<_> = (lp.body.ops.iter())
                .filter(|op| op.imm == m as i64)
                .map(|op| op.run)
                .collect();
            assert_eq!(runs.len(), 4, "`/`, `%` and both tests by {d} multiply");
            for (a, &ra) in runs.iter().enumerate() {
                let same = runs[a + 1..].iter().any(|&rb| std::ptr::fn_addr_eq(ra, rb));
                assert!(!same, "both tests by {d} fuse into their own handlers");
            }
        }
        for level in [OptLevel::O0, OptLevel::O1] {
            let (bc, th) = run_both(&src, &heap, level);
            assert_eq!(bc, th, "heaps diverge at {level:?}");
            for (j, &d) in ds.iter().enumerate() {
                for (i, &x) in xs.iter().enumerate() {
                    let at = |a: &str| th.arrays[a].data[j * n + i];
                    let rem = x.checked_rem(d).expect("|d| ≥ 2 never traps");
                    assert_eq!(at("q"), x.checked_div(d).unwrap(), "{x} / {d} at {level:?}");
                    assert_eq!(at("r"), rem, "{x} % {d} at {level:?}");
                    assert_eq!(at("z"), if rem == 0 { 1 } else { 2 }, "{x} % {d} == 0");
                }
            }
        }
    }

    #[test]
    fn lowering_is_cached_per_artifact_and_level() {
        // Pointer identity across runs: the artifact slot is filled once
        // and reused (the process-wide counter assertion, which needs
        // serialization against other tests, lives in the `compile_once`
        // integration suite).
        let art = artifacts("x = 1; y = x + 2;");
        let opts = ExecOptions::default();
        for _ in 0..3 {
            run_threaded(&art, Heap::new(), &opts, None).expect("runs");
        }
        let a1 = lowered::<SpineKind>(&art, OptLevel::O1);
        let a2 = lowered::<SpineKind>(&art, OptLevel::O1);
        let p1 = th_program::<SpineKind>(&a1) as *const ThProgram<SpineKind>;
        let p2 = th_program::<SpineKind>(&a2) as *const ThProgram<SpineKind>;
        assert_eq!(p1, p2);
    }
}
