//! The compiled executor: slot-addressed op trees over dense frames.
//!
//! [`ss_ir::slots`] resolves every name once, at compile time; this
//! executor then runs [`CompiledBody`] op sequences against a `Frame`
//! whose scalars are a plain `Vec<i64>` — no hashing, no per-loop
//! free-variable analysis, no per-iteration snapshot construction — but
//! expressions are still walked as (slot-addressed) trees.  Kept as the
//! mid-level differential stage between the tree walker and the bytecode
//! stream.
//!
//! This executor runs spines only.  Array stores and the whole dispatch
//! recipe are `engine::shared`'s: at each `for` the spine asks the run's
//! `Dispatcher` for a strategy, evaluates the header once and lends its
//! frame to the recipe, whose workers run the loop's body as the lowered
//! direct-threaded chain of `engine::threaded` — the body of every
//! dispatching row.  Every stream shares this program's slot numbering,
//! so the frame is handed over as it is.
//!
//! Semantics mirror the tree walker operation for operation (same
//! evaluation order, same wrapping arithmetic, same error points), so final
//! heaps are bit-identical across engines — `validate` asserts exactly
//! that.

use super::serial::{apply_assign, apply_binop, compare};
use super::shared::{load_scalars, store_scalars, ArrayStore, Dispatcher, Spine, SpineArrays};
use super::{ExecEnvTiming, ExecError, ExecMode, ExecOptions, ExecOutcome, ExecStats};
use crate::heap::Heap;
use ss_ir::ast::{AssignOp, BinOp, UnOp};
use ss_ir::slots::{CExpr, CompiledBody, CompiledFor, CompiledProgram, Op, ScalarSlot};
use std::time::Instant;

/// The spine's state: dense scalar and array slots, materialized from (and
/// back into) a [`Heap`].  `defined` tracks which scalar slots the program
/// actually wrote (or the initial heap supplied) so the final heap contains
/// exactly the names the tree walker would produce.
struct Frame<'m> {
    scalars: Vec<i64>,
    defined: Vec<bool>,
    arrays: SpineArrays<'m>,
}

impl Frame<'_> {
    #[inline]
    fn scalar(&self, s: ScalarSlot) -> i64 {
        self.scalars[s.index()]
    }

    #[inline]
    fn set_scalar(&mut self, s: ScalarSlot, v: i64) {
        self.scalars[s.index()] = v;
        self.defined[s.index()] = true;
    }
}

// ---------------------------------------------------------------------------
// The op executor.
// ---------------------------------------------------------------------------

fn eval(st: &mut Frame<'_>, e: &CExpr) -> Result<i64, ExecError> {
    match e {
        CExpr::Int(v) => Ok(*v),
        CExpr::Scalar(s) => Ok(st.scalar(*s)),
        CExpr::Load { array, indices } => {
            // Rank-1 fast path: no index vector allocation.
            if let [ie] = indices.as_ref() {
                let idx = [eval(st, ie)?];
                return st.arrays.read(*array, &idx);
            }
            let mut idxs = Vec::with_capacity(indices.len());
            for ie in indices.iter() {
                idxs.push(eval(st, ie)?);
            }
            st.arrays.read(*array, &idxs)
        }
        CExpr::Binary(op, a, b) => {
            match op {
                BinOp::And => {
                    return Ok(if eval(st, a)? != 0 && eval(st, b)? != 0 {
                        1
                    } else {
                        0
                    })
                }
                BinOp::Or => {
                    return Ok(if eval(st, a)? != 0 || eval(st, b)? != 0 {
                        1
                    } else {
                        0
                    })
                }
                _ => {}
            }
            let x = eval(st, a)?;
            let y = eval(st, b)?;
            apply_binop(*op, x, y)
        }
        CExpr::Unary(op, a) => {
            let x = eval(st, a)?;
            Ok(match op {
                UnOp::Neg => x.wrapping_neg(),
                UnOp::Not => (x == 0) as i64,
            })
        }
    }
}

fn exec_body(
    st: &mut Frame<'_>,
    body: &CompiledBody,
    dispatch: Option<&Dispatcher<'_>>,
    env: &mut ExecEnvTiming<'_>,
) -> Result<(), ExecError> {
    let ops = &body.ops;
    let mut pc = 0usize;
    while pc < ops.len() {
        match &ops[pc] {
            Op::SetScalar { slot, op, value } => {
                let rhs = eval(st, value)?;
                let v = match op {
                    AssignOp::Assign => rhs,
                    _ => apply_assign(*op, st.scalar(*slot), rhs),
                };
                st.set_scalar(*slot, v);
            }
            Op::StoreElem {
                array,
                indices,
                op,
                value,
            } => {
                // Same order as the tree walker: value, then indices, then
                // (for compound ops) the element read.
                let rhs = eval(st, value)?;
                if let [ie] = indices.as_ref() {
                    let idx = [eval(st, ie)?];
                    let v = match op {
                        AssignOp::Assign => rhs,
                        _ => apply_assign(*op, st.arrays.read(*array, &idx)?, rhs),
                    };
                    st.arrays.write(*array, &idx, v)?;
                } else {
                    let mut idxs = Vec::with_capacity(indices.len());
                    for ie in indices.iter() {
                        idxs.push(eval(st, ie)?);
                    }
                    let v = match op {
                        AssignOp::Assign => rhs,
                        _ => apply_assign(*op, st.arrays.read(*array, &idxs)?, rhs),
                    };
                    st.arrays.write(*array, &idxs, v)?;
                }
            }
            Op::DeclArray { array, dims } => {
                let mut extents = Vec::with_capacity(dims.len());
                for d in dims.iter() {
                    extents.push(eval(st, d)?.max(0) as usize);
                }
                st.arrays.declare(*array, extents);
            }
            Op::BranchIfZero { cond, target } => {
                if eval(st, cond)? == 0 {
                    pc = *target;
                    continue;
                }
            }
            Op::Jump { target } => {
                pc = *target;
                continue;
            }
            Op::For(f) => exec_for(st, f, dispatch, env)?,
            Op::While { id, cond, body } => {
                let start = env.timing.then(Instant::now);
                let mut iter: u64 = 0;
                while eval(st, cond)? != 0 {
                    if iter >= env.while_cap {
                        return Err(ExecError::NonTerminating {
                            loop_id: *id,
                            cap: env.while_cap,
                        });
                    }
                    exec_body(st, body, dispatch, env)?;
                    iter += 1;
                }
                if let Some(t) = start {
                    env.stats
                        .record(*id, iter, t.elapsed().as_secs_f64(), ExecMode::Serial);
                }
            }
        }
        pc += 1;
    }
    Ok(())
}

fn exec_for(
    st: &mut Frame<'_>,
    f: &CompiledFor,
    dispatch: Option<&Dispatcher<'_>>,
    env: &mut ExecEnvTiming<'_>,
) -> Result<(), ExecError> {
    if let Some(d) = dispatch {
        if try_dispatch(d, st, f, env)? {
            return Ok(());
        }
    }
    let start = env.timing.then(Instant::now);
    let v0 = eval(st, &f.init)?;
    st.set_scalar(f.var, v0);
    let mut iter: u64 = 0;
    loop {
        let v = st.scalar(f.var);
        let b = eval(st, &f.bound)?;
        if !compare(f.cond_op, v, b) {
            break;
        }
        if iter >= env.while_cap {
            return Err(ExecError::NonTerminating {
                loop_id: f.id,
                cap: env.while_cap,
            });
        }
        exec_body(st, &f.body, dispatch, env)?;
        let sv = eval(st, &f.step)?;
        let cur = st.scalar(f.var);
        st.set_scalar(f.var, cur.wrapping_add(sv));
        iter += 1;
    }
    if let Some(t) = start {
        env.stats
            .record(f.id, iter, t.elapsed().as_secs_f64(), ExecMode::Serial);
    }
    Ok(())
}

/// Offers one loop to the run's dispatcher: evaluates the header once and
/// lends the frame to the recipe.  `Ok(false)` means the loop must run
/// serially here instead.
fn try_dispatch(
    d: &Dispatcher<'_>,
    st: &mut Frame<'_>,
    f: &CompiledFor,
    env: &mut ExecEnvTiming<'_>,
) -> Result<bool, ExecError> {
    let Some(dispatch) = d.strategy(f.id, &st.defined) else {
        return Ok(false);
    };
    let header = (eval(st, &f.init)?, eval(st, &f.bound)?, eval(st, &f.step)?);
    let spine = Spine {
        regs: &mut st.scalars,
        defined: &mut st.defined,
        arrays: &mut st.arrays.arrays,
        slots: st.arrays.slots,
    };
    d.run(dispatch, header, spine, env)
}

// ---------------------------------------------------------------------------
// The spine runner.
// ---------------------------------------------------------------------------

/// Runs `compiled` — precompiled by the pipeline
/// ([`ss_parallelizer::Artifacts`]); this function never compiles — on the
/// spine, handing loops to `dispatch` when there is one (`None` = serial).
pub(super) fn run_compiled(
    compiled: &CompiledProgram,
    mut heap: Heap,
    opts: &ExecOptions,
    dispatch: Option<&Dispatcher<'_>>,
) -> Result<ExecOutcome, ExecError> {
    let mut stats = ExecStats::default();
    let start = Instant::now();
    let slots = &compiled.slots;
    let mut frame = Frame {
        scalars: vec![0; slots.scalar_count()],
        defined: vec![false; slots.scalar_count()],
        arrays: SpineArrays::from_heap(&mut heap, slots),
    };
    load_scalars(&heap, slots, &mut frame.scalars, &mut frame.defined);
    let mut env = ExecEnvTiming {
        stats: &mut stats,
        timing: true,
        while_cap: opts.while_cap,
    };
    exec_body(&mut frame, &compiled.body, dispatch, &mut env)?;
    frame.arrays.into_heap(&mut heap);
    store_scalars(&mut heap, slots, &frame.scalars, &frame.defined);
    stats.total_seconds = start.elapsed().as_secs_f64();
    Ok(ExecOutcome { heap, stats })
}
