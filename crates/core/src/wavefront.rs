//! Eligibility analysis for wavefront (level-set) execution of
//! serial-proven loops.
//!
//! A loop the dependence test proves *serial* is not necessarily a pure
//! recurrence: SpTRSV and Gauss-Seidel sweeps carry dependences only
//! along the sparsity structure, and run well as a sequence of parallel
//! wavefronts once a runtime inspection has grouped their iterations into
//! dependence level sets (`ss_inspector::levelset`).  That execution
//! strategy is sound only when the loop's *memory footprint* — which
//! addresses each iteration reads and writes — is a pure function of the
//! machine state at loop entry, so that
//!
//! 1. a serial inspection pass observes the same footprint the parallel
//!    executor will produce, and
//! 2. the resulting schedule can be cached under a key derived from the
//!    entry state (scalars plus the arrays feeding address computations).
//!
//! [`wavefront_fact`] checks exactly that, flow-insensitively:
//!
//! * let `W` be the arrays the loop body writes (the *watched* set the
//!   inspector shadows); a body-assigned scalar is **tainted** when it is
//!   (transitively) derived from a `W`-array value — computed as a
//!   fixpoint over the body's assignments, with compound assignments
//!   (`+=` …) counting the target itself as part of the right-hand side;
//! * every *address position* — array subscripts, `if`/`while`
//!   conditions, nested `for` headers — must mention no `W` array and no
//!   tainted scalar, so values produced by the loop can flow into other
//!   *values* but never into addresses or control flow;
//! * the loop itself must be a normalized counted `for` whose header
//!   mentions no body-assigned scalar and no `W` array (normalization
//!   alone does not guarantee bound invariance), whose body assigns
//!   neither its index variable nor any local declaration, and whose
//!   body-assigned scalars are all privatizable (the caller checks the
//!   dependence test reported no carried scalars).
//!
//! The returned [`WavefrontFact`] carries `W` (what the inspector must
//! shadow and record) and the *schedule arrays* — the arrays that feed
//! address positions, closed over scalar assignments — whose contents,
//! together with the entry scalars, key the cached schedule.

use ss_ir::ast::{assigned_scalars, for_each_stmt, written_arrays, AExpr, AssignOp, Program, Stmt};
use ss_ir::LoopId;
use std::collections::BTreeSet;

/// The facts a wavefront executor needs about an eligible loop.  Present
/// on a loop report exactly when the loop passed [`wavefront_fact`]'s
/// footprint-determinism gate (and the dependence test found no carried
/// scalars — checked by the analysis driver, not here).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WavefrontFact {
    /// Arrays the loop body writes: the inspector shadows these during
    /// the inspection pass and records every access to them.
    pub watched: Vec<String>,
    /// Arrays feeding address positions (transitively through scalar
    /// assignments) plus the loop's own header: their contents at loop
    /// entry, with the entry scalars, determine the footprint and
    /// therefore key the schedule cache.  Disjoint from `watched` by
    /// construction.
    pub schedule_arrays: Vec<String>,
}

/// Collects every subscript expression inside `e` (each returned
/// expression may itself contain nested subscripts; callers check whole
/// expressions recursively).
fn collect_subscripts<'a>(e: &'a AExpr, out: &mut Vec<&'a AExpr>) {
    e.for_each(&mut |x| {
        if let AExpr::Index(_, subs) = x {
            for s in subs {
                // The walk already descends into `s`; pushing the whole
                // subscript is enough because checks are recursive.
                out.push(s);
            }
        }
    });
}

/// The *address positions* of a loop body: every expression whose value
/// selects which memory the loop touches or which statements execute —
/// array subscripts (read and write side), branch and `while` conditions,
/// and nested `for` headers.
fn address_positions(body: &[Stmt]) -> Vec<&AExpr> {
    let mut out = Vec::new();
    for_each_stmt(body, &mut |s| match s {
        Stmt::Assign { target, value, .. } => {
            for idx in &target.indices {
                out.push(idx);
            }
            collect_subscripts(value, &mut out);
        }
        Stmt::If { cond, .. } | Stmt::While { cond, .. } => out.push(cond),
        Stmt::For {
            init, bound, step, ..
        } => {
            out.push(init);
            out.push(bound);
            out.push(step);
        }
        Stmt::Decl { init, dims, .. } => {
            for d in dims {
                out.push(d);
            }
            if let Some(e) = init {
                collect_subscripts(e, &mut out);
            }
        }
    });
    out
}

fn mentions_any(e: &AExpr, arrays: &BTreeSet<String>, scalars: &BTreeSet<String>) -> bool {
    e.arrays().iter().any(|a| arrays.contains(a))
        || e.variables().iter().any(|v| scalars.contains(v))
}

/// Decides wavefront eligibility for loop `id` of `program` and, when
/// eligible, returns the watched and schedule arrays.  See the module
/// docs for the exact conditions; the caller is responsible for the
/// dependence-level preconditions (loop proven serial, no reductions, no
/// carried scalars, normalized counted `for`).
pub fn wavefront_fact(program: &Program, id: LoopId) -> Option<WavefrontFact> {
    let Some(Stmt::For {
        var,
        init,
        bound,
        step,
        body,
        ..
    }) = program.find_loop(id)
    else {
        return None;
    };

    // Written arrays (W), body-assigned scalars, and structural vetoes.
    let watched: BTreeSet<String> = written_arrays(body).into_iter().collect();
    let assigned: BTreeSet<String> = assigned_scalars(body).into_iter().collect();
    let mut has_decl = false;
    for_each_stmt(body, &mut |s| has_decl |= matches!(s, Stmt::Decl { .. }));
    if has_decl || watched.is_empty() || assigned.contains(var) {
        return None;
    }

    // Taint fixpoint: scalars (transitively) derived from a watched-array
    // value.  Compound assignments read their target.
    let mut tainted: BTreeSet<String> = BTreeSet::new();
    loop {
        let before = tainted.len();
        for_each_stmt(body, &mut |s| match s {
            Stmt::Assign { target, op, value } if target.is_scalar() => {
                let self_read = !matches!(op, AssignOp::Assign) && tainted.contains(&target.name);
                if self_read || mentions_any(value, &watched, &tainted) {
                    tainted.insert(target.name.clone());
                }
            }
            Stmt::For {
                var,
                init,
                bound,
                step,
                ..
            } if [init, bound, step]
                .iter()
                .any(|e| mentions_any(e, &watched, &tainted)) =>
            {
                tainted.insert(var.clone());
            }
            _ => {}
        });
        if tainted.len() == before {
            break;
        }
    }

    // Address positions must be clean of watched arrays and tainted
    // scalars: the footprint then depends only on loop-entry state.
    let addrs = address_positions(body);
    if addrs.iter().any(|e| mentions_any(e, &watched, &tainted)) {
        return None;
    }

    // The loop's own header must be invariant: no body-assigned scalar,
    // no watched array (`is_normalized` does not guarantee this).
    if [init, bound, step]
        .iter()
        .any(|e| mentions_any(e, &watched, &assigned))
    {
        return None;
    }

    // Schedule arrays: arrays in address positions and in the header,
    // closed over the scalar assignments that feed address scalars.
    let mut schedule_arrays: BTreeSet<String> = BTreeSet::new();
    let mut addr_scalars: BTreeSet<String> = BTreeSet::new();
    for e in addrs.iter().copied().chain([init, bound, step]) {
        schedule_arrays.extend(e.arrays());
        addr_scalars.extend(e.variables());
    }
    loop {
        let before = (schedule_arrays.len(), addr_scalars.len());
        for_each_stmt(body, &mut |s| match s {
            Stmt::Assign { target, value, .. }
                if target.is_scalar() && addr_scalars.contains(&target.name) =>
            {
                schedule_arrays.extend(value.arrays());
                addr_scalars.extend(value.variables());
            }
            Stmt::For {
                var,
                init,
                bound,
                step,
                ..
            } if addr_scalars.contains(var) => {
                for e in [init, bound, step] {
                    schedule_arrays.extend(e.arrays());
                    addr_scalars.extend(e.variables());
                }
            }
            _ => {}
        });
        if (schedule_arrays.len(), addr_scalars.len()) == before {
            break;
        }
    }

    Some(WavefrontFact {
        watched: watched.into_iter().collect(),
        schedule_arrays: schedule_arrays.into_iter().collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_ir::parse_program;

    fn fact(src: &str, loop_id: u32) -> Option<WavefrontFact> {
        let program = parse_program("wavefront-test", src).expect("test source parses");
        wavefront_fact(&program, LoopId(loop_id))
    }

    #[test]
    fn sptrsv_shape_is_eligible_with_the_solution_vector_watched() {
        // The textbook sparse triangular solve: `x` is read through
        // `col[j]` (value position) and written at `x[i]`; all addresses
        // come from `rowptr`/`cnt`/`col` and untainted scalars.
        let f = fact(
            r#"
            for (i = 0; i < n; i++) {
                sum = b[i];
                for (j = rowptr[i]; j < rowptr[i] + cnt[i]; j++) {
                    sum -= val[j] * x[col[j]];
                }
                x[i] = sum / diag[i];
            }
            "#,
            0,
        )
        .expect("sptrsv is wavefront-eligible");
        assert_eq!(f.watched, vec!["x"]);
        assert_eq!(f.schedule_arrays, vec!["cnt", "col", "rowptr"]);
    }

    #[test]
    fn histogram_scatter_is_eligible_for_waw_ordering() {
        let f = fact("for (i = 0; i < n; i++) { h[idx[i]] = i; }", 0)
            .expect("scatter with clean index array is eligible");
        assert_eq!(f.watched, vec!["h"]);
        assert_eq!(f.schedule_arrays, vec!["idx"]);
    }

    #[test]
    fn written_arrays_must_stay_out_of_address_positions() {
        // `b` is written and read as a subscript: the footprint depends
        // on mid-loop values, so inspection cannot be trusted.
        assert!(fact(
            "for (i = 0; i < n; i++) { a[b[i]] = i; b[i + 1] = b[i] + 1; }",
            0
        )
        .is_none());
    }

    #[test]
    fn tainted_scalars_must_stay_out_of_address_positions() {
        // `t` is derived from the written array `x`, then used as an
        // index — ineligible.
        assert!(fact("for (i = 0; i < n; i++) { t = x[i]; x[a[t]] = i; }", 0).is_none());
        // Compound assignment taints through the accumulator.
        assert!(fact("for (i = 0; i < n; i++) { t = 0; t += x[i]; x[t] = i; }", 0).is_none());
    }

    #[test]
    fn control_flow_on_written_values_is_ineligible() {
        // Which branch runs depends on the evolving `x` — footprint is
        // not a function of entry state.
        assert!(fact(
            "for (i = 1; i < n; i++) { if (x[i - 1] > 0) { x[i] = 1; } }",
            0
        )
        .is_none());
    }

    #[test]
    fn loops_writing_their_own_bound_or_index_are_ineligible() {
        assert!(fact("for (i = 0; i < n; i++) { x[i] = 1; n = n - 1; }", 0).is_none());
        assert!(fact("for (i = 0; i < n; i++) { x[i] = 1; i = i + 1; }", 0).is_none());
    }

    #[test]
    fn local_declarations_in_the_body_are_ineligible() {
        assert!(fact(
            "for (i = 0; i < n; i++) { int t[4]; t[0] = i; x[i] = t[0]; }",
            0
        )
        .is_none());
    }

    #[test]
    fn value_only_use_of_written_arrays_is_allowed() {
        // Gauss-Seidel-style sweep: `x` feeds values, never addresses.
        let f = fact(
            r#"
            for (i = 0; i < n; i++) {
                acc = b[i];
                for (j = ptr[i]; j < ptr[i + 1]; j++) {
                    acc -= val[j] * x[col[j]];
                }
                x[i] = acc;
            }
            "#,
            0,
        )
        .expect("gauss-seidel sweep is eligible");
        assert_eq!(f.watched, vec!["x"]);
        assert_eq!(f.schedule_arrays, vec!["col", "ptr"]);
    }
}
