//! The bytecode executor: flat register-machine execution.
//!
//! [`ss_ir::bytecode`] lowers the name-resolved AST into a linear
//! instruction stream; this executor runs that stream over a dense
//! register file whose low registers alias the scalar slots — per
//! iteration the hot path is one `match` per *instruction*, with no
//! recursion and no `Box` chasing per expression node.
//!
//! This interpreter runs spines only.  Array state lives in the dense
//! per-slot store of `engine::shared`, and how a loop's iterations reach
//! the thread team is not this module's business: at each `for` the spine
//! asks the run's `Dispatcher` for a strategy, evaluates the loop header
//! once and hands its frame, unchanged, to the shared recipe — whose
//! workers (and level-set inspection replay) run the loop's body as the
//! lowered direct-threaded chain of `engine::threaded`, which keeps this
//! stream's register numbering.
//!
//! Semantics mirror the tree walker operation for operation (evaluation
//! order, wrapping arithmetic, error points, undefined-value handling), so
//! final heaps are bit-identical across all executors — `validate` and the
//! generative fuzz harness (`tests/engine_fuzz.rs`) assert exactly that.

use super::serial::{apply_assign, apply_binop, compare};
use super::shared::{load_scalars, store_scalars, ArrayStore, Dispatcher, Spine, SpineArrays};
use super::{ExecEnvTiming, ExecError, ExecMode, ExecOptions, ExecOutcome, ExecStats};
use crate::heap::Heap;
use ss_ir::bytecode::{BcExpr, BcFor, BytecodeProgram, HeaderFast, Instr, Reg};
use ss_ir::LoopId;
use std::time::Instant;

// ---------------------------------------------------------------------------
// The register machine.
// ---------------------------------------------------------------------------

/// The register file: scalars in the low registers, expression temporaries
/// above, plus the scalars' defined-ness for heap write-back.
struct Machine<'a> {
    regs: Vec<i64>,
    defined: Vec<bool>,
    nscalars: usize,
    consts: &'a [i64],
}

impl<'a> Machine<'a> {
    fn new(regs: Vec<i64>, nscalars: usize, consts: &'a [i64]) -> Machine<'a> {
        Machine {
            regs,
            defined: vec![false; nscalars],
            nscalars,
            consts,
        }
    }

    #[inline]
    fn get(&self, r: Reg) -> i64 {
        self.regs[r.index()]
    }

    #[inline]
    fn set(&mut self, r: Reg, v: i64) {
        let i = r.index();
        self.regs[i] = v;
        if i < self.nscalars {
            self.defined[i] = true;
        }
    }
}

// ---------------------------------------------------------------------------
// The instruction interpreter.
// ---------------------------------------------------------------------------

/// Decides what happens when the interpreter reaches a `For` instruction:
/// the run's [`Dispatcher`] on a parallel run's spine, [`NoDispatch`]
/// otherwise.
trait BcPolicy {
    fn try_dispatch(
        &self,
        m: &mut Machine<'_>,
        arrays: &mut SpineArrays<'_>,
        f: &BcFor,
        env: &mut ExecEnvTiming<'_>,
    ) -> Result<bool, ExecError>;
}

/// Policy that never dispatches (serial runs, expression blocks).
struct NoDispatch;

impl BcPolicy for NoDispatch {
    fn try_dispatch(
        &self,
        _m: &mut Machine<'_>,
        _arrays: &mut SpineArrays<'_>,
        _f: &BcFor,
        _env: &mut ExecEnvTiming<'_>,
    ) -> Result<bool, ExecError> {
        Ok(false)
    }
}

/// One active flattened-`while` guard: iteration counter plus wall-clock
/// start (when timing).
struct WhileGuard {
    id: LoopId,
    iters: u64,
    start: Option<Instant>,
}

/// Runs a flat expression block and returns its value.
fn eval_block(
    m: &mut Machine<'_>,
    arrays: &mut SpineArrays<'_>,
    e: &BcExpr,
    env: &mut ExecEnvTiming<'_>,
) -> Result<i64, ExecError> {
    // Expression blocks contain no loops, so the no-dispatch policy is
    // exact, not an approximation.
    exec_code(m, arrays, &e.code, &NoDispatch, env)?;
    Ok(m.get(e.result))
}

/// A loop-header value through its O1 fast path when the optimizer derived
/// one (plain register read, compile-time constant), else by running the
/// block — the hot per-iteration `bound`/`step` evaluations go through
/// here.  `cache` holds the per-loop-entry memo for
/// [`HeaderFast::EvalOnce`] blocks: the optimizer proved re-evaluation
/// reproduces the first result bit for bit, so the first iteration runs
/// the block (same program point, same value, same error as `Eval` would)
/// and every later iteration reuses the value.
#[inline]
fn header_value(
    m: &mut Machine<'_>,
    arrays: &mut SpineArrays<'_>,
    block: &BcExpr,
    fast: HeaderFast,
    cache: &mut Option<i64>,
    env: &mut ExecEnvTiming<'_>,
) -> Result<i64, ExecError> {
    match fast {
        HeaderFast::Const(v) => Ok(v),
        HeaderFast::Reg(r) => Ok(m.get(r)),
        HeaderFast::Eval => eval_block(m, arrays, block, env),
        HeaderFast::EvalOnce => {
            if let Some(v) = *cache {
                return Ok(v);
            }
            let v = eval_block(m, arrays, block, env)?;
            *cache = Some(v);
            Ok(v)
        }
    }
}

fn exec_code<P: BcPolicy>(
    m: &mut Machine<'_>,
    arrays: &mut SpineArrays<'_>,
    code: &[Instr],
    pol: &P,
    env: &mut ExecEnvTiming<'_>,
) -> Result<(), ExecError> {
    let mut guards: Vec<WhileGuard> = Vec::new();
    let mut pc = 0usize;
    while pc < code.len() {
        match &code[pc] {
            Instr::Const { dst, pool } => {
                let v = m.consts[*pool as usize];
                m.set(*dst, v);
            }
            Instr::Copy { dst, src } => {
                let v = m.get(*src);
                m.set(*dst, v);
            }
            Instr::Bin { op, dst, a, b } => {
                let v = apply_binop(*op, m.get(*a), m.get(*b))?;
                m.set(*dst, v);
            }
            Instr::Accum { op, dst, src } => {
                let v = apply_assign(*op, m.get(*dst), m.get(*src));
                m.set(*dst, v);
            }
            Instr::Neg { dst, src } => {
                let v = m.get(*src).wrapping_neg();
                m.set(*dst, v);
            }
            Instr::Not { dst, src } => {
                let v = (m.get(*src) == 0) as i64;
                m.set(*dst, v);
            }
            Instr::Load {
                dst,
                array,
                idx,
                rank,
            } => {
                let v = with_indices(m, *idx, *rank, |idxs| arrays.read(*array, idxs))?;
                m.set(*dst, v);
            }
            Instr::Store {
                array,
                idx,
                rank,
                src,
            } => {
                let v = m.get(*src);
                with_indices(m, *idx, *rank, |idxs| arrays.write(*array, idxs, v))?;
            }
            Instr::DeclArray { array, dims, rank } => {
                let mut extents = Vec::with_capacity(*rank as usize);
                for k in 0..*rank {
                    extents.push(m.get(Reg(dims.0 + k as u32)).max(0) as usize);
                }
                arrays.declare(*array, extents)?;
            }
            Instr::Jz { cond, target } => {
                if m.get(*cond) == 0 {
                    pc = *target as usize;
                    continue;
                }
            }
            Instr::Jnz { cond, target } => {
                if m.get(*cond) != 0 {
                    pc = *target as usize;
                    continue;
                }
            }
            Instr::Jump { target } => {
                pc = *target as usize;
                continue;
            }
            Instr::For(f) => exec_for(m, arrays, f, pol, env)?,
            Instr::WhileEnter { id } => {
                guards.push(WhileGuard {
                    id: *id,
                    iters: 0,
                    start: env.timing.then(Instant::now),
                });
            }
            Instr::WhileIter { id } => {
                let g = guards.last_mut().expect("unbalanced while guard");
                debug_assert_eq!(g.id, *id);
                if g.iters >= env.while_cap {
                    return Err(ExecError::NonTerminating {
                        loop_id: *id,
                        cap: env.while_cap,
                    });
                }
                g.iters += 1;
            }
            Instr::WhileExit { id } => {
                let g = guards.pop().expect("unbalanced while guard");
                debug_assert_eq!(g.id, *id);
                if let Some(t) = g.start {
                    env.stats
                        .record(*id, g.iters, t.elapsed().as_secs_f64(), ExecMode::Serial);
                }
            }
            Instr::LoadLoad {
                dst,
                outer,
                inner,
                idx,
            } => {
                // Same order and error points as the two loads it fused:
                // the inner (index-array) read first, then the outer.
                let i = m.get(*idx);
                let inner_v = arrays.read(*inner, &[i])?;
                let v = arrays.read(*outer, &[inner_v])?;
                m.set(*dst, v);
            }
            Instr::CmpBranch {
                op,
                a,
                b,
                target,
                jump_if,
            } => {
                if compare(*op, m.get(*a), m.get(*b)) == *jump_if {
                    pc = *target as usize;
                    continue;
                }
            }
            Instr::Load2 { dst, array, i0, i1 } => {
                let idxs = [m.get(*i0), m.get(*i1)];
                let v = arrays.read(*array, &idxs)?;
                m.set(*dst, v);
            }
            Instr::Store2 { array, i0, i1, src } => {
                let v = m.get(*src);
                let idxs = [m.get(*i0), m.get(*i1)];
                arrays.write(*array, &idxs, v)?;
            }
        }
        pc += 1;
    }
    Ok(())
}

/// Gathers `rank` subscripts from consecutive registers without a heap
/// allocation (for any realistic rank) and hands them to `f`.
#[inline]
fn with_indices<R>(m: &Machine<'_>, first: Reg, rank: u8, f: impl FnOnce(&[i64]) -> R) -> R {
    let rank = rank as usize;
    if rank <= 8 {
        let mut buf = [0i64; 8];
        for (k, b) in buf.iter_mut().take(rank).enumerate() {
            *b = m.regs[first.index() + k];
        }
        f(&buf[..rank])
    } else {
        let idxs: Vec<i64> = (0..rank).map(|k| m.regs[first.index() + k]).collect();
        f(&idxs)
    }
}

// Never inlined: loop entry (the dispatch offer, header blocks, timing) is
// cold next to the instruction loop, and folding it into `exec_code` made
// that loop's codegen — and speed — vary with the policy type.
#[inline(never)]
fn exec_for<P: BcPolicy>(
    m: &mut Machine<'_>,
    arrays: &mut SpineArrays<'_>,
    f: &BcFor,
    pol: &P,
    env: &mut ExecEnvTiming<'_>,
) -> Result<(), ExecError> {
    if pol.try_dispatch(m, arrays, f, env)? {
        return Ok(());
    }
    let start = env.timing.then(Instant::now);
    let v0 = header_value(m, arrays, &f.init, f.init_fast, &mut None, env)?;
    m.set(f.var, v0);
    // Per-loop-entry memo for `EvalOnce` headers; a fresh entry to the same
    // loop re-evaluates (outer-loop state may have changed).
    let mut bound_cache: Option<i64> = None;
    let mut step_cache: Option<i64> = None;
    let mut iter: u64 = 0;
    loop {
        let v = m.get(f.var);
        let b = header_value(m, arrays, &f.bound, f.bound_fast, &mut bound_cache, env)?;
        if !compare(f.cond_op, v, b) {
            break;
        }
        if iter >= env.while_cap {
            return Err(ExecError::NonTerminating {
                loop_id: f.id,
                cap: env.while_cap,
            });
        }
        exec_code(m, arrays, &f.body, pol, env)?;
        let sv = header_value(m, arrays, &f.step, f.step_fast, &mut step_cache, env)?;
        let cur = m.get(f.var);
        m.set(f.var, cur.wrapping_add(sv));
        iter += 1;
    }
    if let Some(t) = start {
        env.stats
            .record(f.id, iter, t.elapsed().as_secs_f64(), ExecMode::Serial);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Dispatch: the executor's side of the shared recipe.
// ---------------------------------------------------------------------------

impl BcPolicy for Dispatcher<'_> {
    fn try_dispatch(
        &self,
        m: &mut Machine<'_>,
        arrays: &mut SpineArrays<'_>,
        f: &BcFor,
        env: &mut ExecEnvTiming<'_>,
    ) -> Result<bool, ExecError> {
        let Some(dispatch) = self.strategy(f.id, &m.defined) else {
            return Ok(false);
        };
        let header = (
            eval_block(m, arrays, &f.init, env)?,
            eval_block(m, arrays, &f.bound, env)?,
            eval_block(m, arrays, &f.step, env)?,
        );
        let spine = Spine {
            regs: &mut m.regs,
            defined: &mut m.defined,
            arrays: &mut arrays.arrays,
            slots: arrays.slots,
        };
        self.run(dispatch, header, spine, env)
    }
}

// ---------------------------------------------------------------------------
// The spine runner.
// ---------------------------------------------------------------------------

/// Runs `bc` — precompiled by the pipeline ([`ss_parallelizer::Artifacts`]);
/// this function never compiles — on the spine, handing loops to
/// `dispatch` when there is one (`None` = serial).
pub(super) fn run_bytecode(
    bc: &BytecodeProgram,
    mut heap: Heap,
    opts: &ExecOptions,
    dispatch: Option<&Dispatcher<'_>>,
) -> Result<ExecOutcome, ExecError> {
    let mut stats = ExecStats::default();
    let start = Instant::now();
    let slots = &bc.slots;
    let mut m = Machine::new(vec![0; bc.nregs], slots.scalar_count(), &bc.consts);
    load_scalars(&heap, slots, &mut m.regs, &mut m.defined);
    let mut arrays = SpineArrays::from_heap(&mut heap, slots);
    let mut env = ExecEnvTiming {
        stats: &mut stats,
        timing: true,
        while_cap: opts.while_cap,
    };
    match dispatch {
        Some(d) => exec_code(&mut m, &mut arrays, &bc.main, d, &mut env),
        None => exec_code(&mut m, &mut arrays, &bc.main, &NoDispatch, &mut env),
    }?;
    arrays.into_heap(&mut heap);
    store_scalars(&mut heap, slots, &m.regs, &m.defined);
    stats.total_seconds = start.elapsed().as_secs_f64();
    Ok(ExecOutcome { heap, stats })
}
