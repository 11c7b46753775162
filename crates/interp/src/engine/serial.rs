//! The tree-walking statement walker and the serial reference engine.
//!
//! Evaluation and statement execution are written once, over the whole
//! heap: undefined scalars read as 0 (C-style zero init), arrays are
//! looked up by name.  Only the `ast` row's serial reference runs this
//! walker; it never dispatches — every parallel region of this crate is
//! entered by `engine::shared`.

use super::shared::elem_at;
use super::{ExecEnvTiming, ExecError, ExecMode, ExecOptions, ExecOutcome, ExecStats};
use crate::heap::{ArrayVal, Heap};
use ss_ir::ast::{AExpr, AssignOp, BinOp, Stmt, UnOp};
use ss_ir::Program;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Heap access.
// ---------------------------------------------------------------------------

fn scalar(heap: &Heap, name: &str) -> i64 {
    heap.scalars.get(name).copied().unwrap_or(0)
}

fn set_scalar(heap: &mut Heap, name: &str, v: i64) {
    // Fast path without the String allocation: loop counters are
    // rewritten every iteration.
    match heap.scalars.get_mut(name) {
        Some(slot) => *slot = v,
        None => {
            heap.scalars.insert(name.to_string(), v);
        }
    }
}

fn read_elem(heap: &Heap, array: &str, indices: &[i64]) -> Result<i64, ExecError> {
    let a = (heap.arrays.get(array)).ok_or_else(|| ExecError::UndefinedArray(array.to_string()))?;
    elem_at(array, a, indices).map(|flat| a.data[flat])
}

fn write_elem(heap: &mut Heap, array: &str, indices: &[i64], v: i64) -> Result<(), ExecError> {
    let a =
        (heap.arrays.get_mut(array)).ok_or_else(|| ExecError::UndefinedArray(array.to_string()))?;
    let flat = elem_at(array, a, indices)?;
    a.data_mut_unstamped()[flat] = v;
    Ok(())
}

// ---------------------------------------------------------------------------
// Expression evaluation (C semantics: wrapping arithmetic, 0/1 booleans,
// short-circuit && and ||, truncating division).
// ---------------------------------------------------------------------------

fn eval(st: &Heap, e: &AExpr) -> Result<i64, ExecError> {
    match e {
        AExpr::IntLit(v) => Ok(*v),
        AExpr::Var(name) => Ok(scalar(st, name)),
        AExpr::Index(array, idx_exprs) => {
            let mut idxs = Vec::with_capacity(idx_exprs.len());
            for ie in idx_exprs {
                idxs.push(eval(st, ie)?);
            }
            read_elem(st, array, &idxs)
        }
        AExpr::Binary(op, a, b) => {
            // Short-circuit operators first.
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
        AExpr::Unary(op, a) => {
            let x = eval(st, a)?;
            Ok(match op {
                UnOp::Neg => x.wrapping_neg(),
                UnOp::Not => (x == 0) as i64,
            })
        }
    }
}

/// One non-short-circuit binary operation (shared with the compiled
/// engine's evaluator so both fail and wrap identically).
pub(crate) fn apply_binop(op: BinOp, x: i64, y: i64) -> Result<i64, ExecError> {
    Ok(match op {
        BinOp::Add => x.wrapping_add(y),
        BinOp::Sub => x.wrapping_sub(y),
        BinOp::Mul => x.wrapping_mul(y),
        BinOp::Div => x.checked_div(y).ok_or(ExecError::DivisionByZero)?,
        BinOp::Mod => x.checked_rem(y).ok_or(ExecError::DivisionByZero)?,
        BinOp::Lt => (x < y) as i64,
        BinOp::Le => (x <= y) as i64,
        BinOp::Gt => (x > y) as i64,
        BinOp::Ge => (x >= y) as i64,
        BinOp::Eq => (x == y) as i64,
        BinOp::Ne => (x != y) as i64,
        BinOp::And | BinOp::Or => unreachable!("short-circuit ops handled by the caller"),
    })
}

pub(crate) fn compare(op: BinOp, a: i64, b: i64) -> bool {
    match op {
        BinOp::Lt => a < b,
        BinOp::Le => a <= b,
        BinOp::Gt => a > b,
        BinOp::Ge => a >= b,
        BinOp::Eq => a == b,
        BinOp::Ne => a != b,
        // The parser only produces comparison exit tests; treat anything
        // else as an immediately false condition rather than panicking.
        _ => false,
    }
}

/// The compound-assignment combine step, shared by both engines.
pub(crate) fn apply_assign(op: AssignOp, current: i64, rhs: i64) -> i64 {
    match op {
        AssignOp::Assign => rhs,
        AssignOp::AddAssign => current.wrapping_add(rhs),
        AssignOp::SubAssign => current.wrapping_sub(rhs),
        AssignOp::MulAssign => current.wrapping_mul(rhs),
    }
}

// ---------------------------------------------------------------------------
// The statement walker.
// ---------------------------------------------------------------------------

fn exec_stmts(st: &mut Heap, stmts: &[Stmt], env: &mut ExecEnvTiming<'_>) -> Result<(), ExecError> {
    for s in stmts {
        exec_stmt(st, s, env)?;
    }
    Ok(())
}

fn exec_stmt(st: &mut Heap, s: &Stmt, env: &mut ExecEnvTiming<'_>) -> Result<(), ExecError> {
    match s {
        Stmt::Decl { name, dims, init } => {
            if dims.is_empty() {
                let v = match init {
                    Some(e) => eval(st, e)?,
                    None => 0,
                };
                set_scalar(st, name, v);
            } else {
                let mut extents = Vec::with_capacity(dims.len());
                for d in dims {
                    let v = eval(st, d)?;
                    extents.push(v.max(0) as usize);
                }
                st.arrays
                    .insert(name.to_string(), ArrayVal::declared(name, extents)?);
            }
            Ok(())
        }
        Stmt::Assign { target, op, value } => {
            let rhs = eval(st, value)?;
            if target.is_scalar() {
                let v = match op {
                    AssignOp::Assign => rhs,
                    _ => apply_assign(*op, scalar(st, &target.name), rhs),
                };
                set_scalar(st, &target.name, v);
            } else {
                let mut idxs = Vec::with_capacity(target.indices.len());
                for ie in &target.indices {
                    idxs.push(eval(st, ie)?);
                }
                let v = match op {
                    AssignOp::Assign => rhs,
                    _ => apply_assign(*op, read_elem(st, &target.name, &idxs)?, rhs),
                };
                write_elem(st, &target.name, &idxs, v)?;
            }
            Ok(())
        }
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        } => {
            if eval(st, cond)? != 0 {
                exec_stmts(st, then_branch, env)
            } else {
                exec_stmts(st, else_branch, env)
            }
        }
        Stmt::For {
            id,
            var,
            init,
            cond_op,
            bound,
            step,
            body,
            ..
        } => {
            let start = env.timing.then(Instant::now);
            let v0 = eval(st, init)?;
            set_scalar(st, var, v0);
            let mut iter: u64 = 0;
            loop {
                let v = scalar(st, var);
                let b = eval(st, bound)?;
                if !compare(*cond_op, v, b) {
                    break;
                }
                if iter >= env.while_cap {
                    return Err(ExecError::NonTerminating {
                        loop_id: *id,
                        cap: env.while_cap,
                    });
                }
                exec_stmts(st, body, env)?;
                let sv = eval(st, step)?;
                let cur = scalar(st, var);
                set_scalar(st, var, cur.wrapping_add(sv));
                iter += 1;
            }
            if let Some(t) = start {
                env.stats
                    .record(*id, iter, t.elapsed().as_secs_f64(), ExecMode::Serial);
            }
            Ok(())
        }
        Stmt::While { id, cond, body } => {
            let start = env.timing.then(Instant::now);
            let mut iter: u64 = 0;
            while eval(st, cond)? != 0 {
                if iter >= env.while_cap {
                    return Err(ExecError::NonTerminating {
                        loop_id: *id,
                        cap: env.while_cap,
                    });
                }
                exec_stmts(st, body, env)?;
                iter += 1;
            }
            if let Some(t) = start {
                env.stats
                    .record(*id, iter, t.elapsed().as_secs_f64(), ExecMode::Serial);
            }
            Ok(())
        }
    }
}

/// The serial reference engine: tree-walks the whole program against the
/// heap (what the `ast` registry row executes, whichever leg asks).
pub(crate) fn run_serial_ast(
    program: &Program,
    mut heap: Heap,
    opts: &ExecOptions,
) -> Result<ExecOutcome, ExecError> {
    let mut stats = ExecStats::default();
    let start = Instant::now();
    let mut env = ExecEnvTiming {
        stats: &mut stats,
        timing: true,
        while_cap: opts.while_cap,
    };
    exec_stmts(&mut heap, &program.body, &mut env)?;
    stats.total_seconds = start.elapsed().as_secs_f64();
    Ok(ExecOutcome { heap, stats })
}
