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
//! Array stores, worker-private storage and the whole dispatch recipe are
//! `engine::shared`'s: at each `for` the spine asks the run's
//! `Dispatcher` for a strategy, evaluates the header once and lends its
//! frame to the recipe, which runs iterations through the `RegionBody`
//! adapter at the bottom of this file.
//!
//! Semantics mirror the tree walker operation for operation (same
//! evaluation order, same wrapping arithmetic, same error points), so final
//! heaps are bit-identical across engines — `validate` asserts exactly
//! that.

use super::serial::{apply_assign, apply_binop, compare};
use super::shared::{
    load_scalars, store_scalars, ArrayStore, Dispatcher, LoopShape, RegionBody, Spine, SpineArrays,
    StoreKind,
};
use super::{ExecEnvTiming, ExecError, ExecMode, ExecOptions, ExecOutcome, ExecStats};
use crate::heap::Heap;
use ss_ir::ast::{AssignOp, BinOp, UnOp};
use ss_ir::slots::{CExpr, CompiledBody, CompiledFor, CompiledProgram, Op, ScalarSlot};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Slot stores.
// ---------------------------------------------------------------------------

/// Where slot-addressed accesses land: a scalar frame plus an array store.
trait SlotStore {
    type Arrays: ArrayStore;
    fn scalar(&self, s: ScalarSlot) -> i64;
    fn set_scalar(&mut self, s: ScalarSlot, v: i64);
    fn arrays(&mut self) -> &mut Self::Arrays;
}

/// The spine store: dense scalar and array slots, materialized from (and
/// back into) a [`Heap`].  `defined` tracks which scalar slots the program
/// actually wrote (or the initial heap supplied) so the final heap contains
/// exactly the names the tree walker would produce.
struct Frame<'m> {
    scalars: Vec<i64>,
    defined: Vec<bool>,
    arrays: SpineArrays<'m>,
}

impl<'m> SlotStore for Frame<'m> {
    type Arrays = SpineArrays<'m>;

    #[inline]
    fn scalar(&self, s: ScalarSlot) -> i64 {
        self.scalars[s.index()]
    }

    #[inline]
    fn set_scalar(&mut self, s: ScalarSlot, v: i64) {
        self.scalars[s.index()] = v;
        self.defined[s.index()] = true;
    }

    #[inline]
    fn arrays(&mut self) -> &mut SpineArrays<'m> {
        &mut self.arrays
    }
}

// ---------------------------------------------------------------------------
// The op executor.
// ---------------------------------------------------------------------------

fn eval<S: SlotStore>(st: &mut S, e: &CExpr) -> Result<i64, ExecError> {
    match e {
        CExpr::Int(v) => Ok(*v),
        CExpr::Scalar(s) => Ok(st.scalar(*s)),
        CExpr::Load { array, indices } => {
            // Rank-1 fast path: no index vector allocation.
            if let [ie] = indices.as_ref() {
                let idx = [eval(st, ie)?];
                return st.arrays().read(*array, &idx);
            }
            let mut idxs = Vec::with_capacity(indices.len());
            for ie in indices.iter() {
                idxs.push(eval(st, ie)?);
            }
            st.arrays().read(*array, &idxs)
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

/// Decides what happens when the executor reaches a compiled `for` loop:
/// the run's [`Dispatcher`] on the spine, [`NoDispatch`] everywhere else.
trait CompiledPolicy<S: SlotStore> {
    fn try_dispatch(
        &self,
        st: &mut S,
        f: &CompiledFor,
        env: &mut ExecEnvTiming<'_>,
    ) -> Result<bool, ExecError>;
}

/// Policy that never dispatches (serial runs, workers).
struct NoDispatch;

impl<S: SlotStore> CompiledPolicy<S> for NoDispatch {
    fn try_dispatch(
        &self,
        _st: &mut S,
        _f: &CompiledFor,
        _env: &mut ExecEnvTiming<'_>,
    ) -> Result<bool, ExecError> {
        Ok(false)
    }
}

fn exec_body<S: SlotStore, P: CompiledPolicy<S>>(
    st: &mut S,
    body: &CompiledBody,
    pol: &P,
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
                        _ => apply_assign(*op, st.arrays().read(*array, &idx)?, rhs),
                    };
                    st.arrays().write(*array, &idx, v)?;
                } else {
                    let mut idxs = Vec::with_capacity(indices.len());
                    for ie in indices.iter() {
                        idxs.push(eval(st, ie)?);
                    }
                    let v = match op {
                        AssignOp::Assign => rhs,
                        _ => apply_assign(*op, st.arrays().read(*array, &idxs)?, rhs),
                    };
                    st.arrays().write(*array, &idxs, v)?;
                }
            }
            Op::DeclArray { array, dims } => {
                let mut extents = Vec::with_capacity(dims.len());
                for d in dims.iter() {
                    extents.push(eval(st, d)?.max(0) as usize);
                }
                st.arrays().declare(*array, extents);
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
            Op::For(f) => exec_for(st, f, pol, env)?,
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
                    exec_body(st, body, pol, env)?;
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

fn exec_for<S: SlotStore, P: CompiledPolicy<S>>(
    st: &mut S,
    f: &CompiledFor,
    pol: &P,
    env: &mut ExecEnvTiming<'_>,
) -> Result<(), ExecError> {
    if pol.try_dispatch(st, f, env)? {
        return Ok(());
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
        exec_body(st, &f.body, pol, env)?;
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

// ---------------------------------------------------------------------------
// Dispatch: the executor's side of the shared recipe.
// ---------------------------------------------------------------------------

struct CompiledWorker<'s, K: StoreKind> {
    scalars: Vec<i64>,
    arrays: K::Arrays<'s>,
    /// Loops inside a dispatched body are accounted to the dispatched
    /// ancestor; their own records land here and are dropped.
    scratch: ExecStats,
}

/// A worker's scalar frame joined with its array store, as the op
/// executor sees it.
struct WorkerStore<'w, A> {
    scalars: &'w mut [i64],
    arrays: &'w mut A,
}

impl<A: ArrayStore> SlotStore for WorkerStore<'_, A> {
    type Arrays = A;

    #[inline]
    fn scalar(&self, s: ScalarSlot) -> i64 {
        self.scalars[s.index()]
    }

    #[inline]
    fn set_scalar(&mut self, s: ScalarSlot, v: i64) {
        self.scalars[s.index()] = v;
        self.arrays.note_scalar_write(s.index());
    }

    #[inline]
    fn arrays(&mut self) -> &mut A {
        self.arrays
    }
}

/// A compiled loop body as the recipe runs it.
struct CompiledRegion<'a> {
    f: &'a CompiledFor,
    while_cap: u64,
}

impl RegionBody for CompiledRegion<'_> {
    type Worker<'s, K: StoreKind>
        = CompiledWorker<'s, K>
    where
        Self: 's;

    fn worker<'s, K: StoreKind>(
        &'s self,
        scalars: Vec<i64>,
        arrays: K::Arrays<'s>,
    ) -> CompiledWorker<'s, K> {
        CompiledWorker {
            scalars,
            arrays,
            scratch: ExecStats::default(),
        }
    }

    fn run_iteration<'s, K: StoreKind>(
        &'s self,
        w: &mut CompiledWorker<'s, K>,
        value: i64,
    ) -> Result<(), ExecError> {
        let mut st = WorkerStore {
            scalars: &mut w.scalars,
            arrays: &mut w.arrays,
        };
        st.set_scalar(self.f.var, value);
        let mut env = ExecEnvTiming {
            stats: &mut w.scratch,
            timing: false,
            while_cap: self.while_cap,
        };
        exec_body(&mut st, &self.f.body, &NoDispatch, &mut env)
    }

    fn frame<'w, 's, K: StoreKind>(
        w: &'w mut CompiledWorker<'s, K>,
    ) -> (&'w mut [i64], &'w mut K::Arrays<'s>)
    where
        Self: 's,
    {
        (&mut w.scalars, &mut w.arrays)
    }
}

impl CompiledPolicy<Frame<'_>> for Dispatcher<'_> {
    fn try_dispatch(
        &self,
        st: &mut Frame<'_>,
        f: &CompiledFor,
        env: &mut ExecEnvTiming<'_>,
    ) -> Result<bool, ExecError> {
        let lp = LoopShape {
            id: f.id,
            var: f.var.index(),
            cond_op: f.cond_op,
            local_arrays: &f.local_arrays,
            locals_dominated: f.locals_dominated,
            skewed: f.skewed,
        };
        let Some(strategy) = self.strategy(&lp, &st.defined) else {
            return Ok(false);
        };
        let header = (eval(st, &f.init)?, eval(st, &f.bound)?, eval(st, &f.step)?);
        let body = CompiledRegion {
            f,
            while_cap: env.while_cap,
        };
        let spine = Spine {
            regs: &mut st.scalars,
            defined: &mut st.defined,
            arrays: &mut st.arrays.arrays,
            slots: st.arrays.slots,
        };
        self.run(strategy, &lp, header, spine, &body, env)
    }
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
    match dispatch {
        Some(d) => exec_body(&mut frame, &compiled.body, d, &mut env),
        None => exec_body(&mut frame, &compiled.body, &NoDispatch, &mut env),
    }?;
    frame.arrays.into_heap(&mut heap);
    store_scalars(&mut heap, slots, &frame.scalars, &frame.defined);
    stats.total_seconds = start.elapsed().as_secs_f64();
    Ok(ExecOutcome { heap, stats })
}
