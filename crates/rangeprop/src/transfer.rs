//! Transfer functions: abstract interpretation of statement sequences.
//!
//! This is the "symbolic range analysis of the loop body" that Phase 1 of
//! the paper's algorithm performs.  The walker tracks scalar value ranges,
//! records every array write it encounters (with its symbolic subscript,
//! value range and guard conditions), and merges branches with the range
//! union.  Nested loops are delegated to a [`LoopHandler`]; loops the handler
//! does not summarize are treated conservatively (everything they write
//! becomes unknown).

use crate::env::Env;
use crate::eval::{eval_exact, eval_range, refine_with_condition};
use ss_ir::ast::{assigned_scalars, written_arrays, AExpr, AssignOp, LValue, LoopId, Stmt};
use ss_ir::convert::{to_condition, SymCondition};
use ss_symbolic::{Expr, SymRange};

/// One array write observed while interpreting a statement sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteRecord {
    /// Written array.
    pub array: String,
    /// Exact symbolic subscript (with local scalar chains resolved), or `⊥`.
    pub subscript: Expr,
    /// May-range of the subscript.
    pub subscript_range: SymRange,
    /// May-range of the written value.
    pub value: SymRange,
    /// Exact symbolic value, or `⊥`.
    pub value_exact: Expr,
    /// Guard conditions (from enclosing `if`s) under which the write occurs.
    pub guards: Vec<SymCondition>,
    /// True if some guard on the path could not be represented.
    pub under_unknown_guard: bool,
}

impl WriteRecord {
    /// True if the write executes unconditionally (no guards at all).
    pub fn is_unconditional(&self) -> bool {
        self.guards.is_empty() && !self.under_unknown_guard
    }
}

/// Hook for nested loops: the aggregation pass registers collapsed loop
/// summaries here so that outer-loop analysis can use them (the paper's
/// "the loop is collapsed, that is, it is substituted by a set of
/// expressions representing the effect of the loop").
pub trait LoopHandler {
    /// Applies the effect of nested loop `id` to the environment and write
    /// list. Returns `false` if no summary is available; the interpreter
    /// then clobbers everything the loop writes.
    fn apply(&self, id: LoopId, env: &mut Env, writes: &mut Vec<WriteRecord>) -> bool;
}

/// A [`LoopHandler`] with no summaries (every nested loop is clobbered).
pub struct NoSummaries;

impl LoopHandler for NoSummaries {
    fn apply(&self, _id: LoopId, _env: &mut Env, _writes: &mut Vec<WriteRecord>) -> bool {
        false
    }
}

/// Result of interpreting a statement sequence.
#[derive(Debug, Clone)]
pub struct BodyResult {
    /// The environment at the end of the sequence.
    pub env: Env,
    /// All array writes, in program order.
    pub writes: Vec<WriteRecord>,
}

impl BodyResult {
    /// The writes that target a given array.
    pub fn writes_to(&self, array: &str) -> Vec<&WriteRecord> {
        self.writes.iter().filter(|w| w.array == array).collect()
    }
}

/// Interprets a statement sequence starting from `env`.
pub fn analyze_block(stmts: &[Stmt], env: Env, handler: &dyn LoopHandler) -> BodyResult {
    let mut state = State {
        env,
        writes: Vec::new(),
        guards: Vec::new(),
        unknown_guard_depth: 0,
    };
    walk(stmts, &mut state, handler);
    BodyResult {
        env: state.env,
        writes: state.writes,
    }
}

struct State {
    env: Env,
    writes: Vec<WriteRecord>,
    guards: Vec<SymCondition>,
    unknown_guard_depth: usize,
}

fn walk(stmts: &[Stmt], state: &mut State, handler: &dyn LoopHandler) {
    for s in stmts {
        walk_stmt(s, state, handler);
    }
}

fn walk_stmt(s: &Stmt, state: &mut State, handler: &dyn LoopHandler) {
    match s {
        Stmt::Decl { name, dims, init } => {
            if dims.is_empty() {
                match init {
                    Some(e) => {
                        let r = eval_range(&state.env, e);
                        state.env.set_scalar(name.clone(), r);
                    }
                    None => state.env.set_scalar(name.clone(), SymRange::unknown()),
                }
            }
        }
        Stmt::Assign { target, op, value } => {
            let rhs = desugar_rhs(target, *op, value);
            apply_assign(target, &rhs, state);
        }
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        } => {
            let sym_cond = to_condition(cond);
            // Then path.
            let mut then_state = State {
                env: state.env.clone(),
                writes: Vec::new(),
                guards: state.guards.clone(),
                unknown_guard_depth: state.unknown_guard_depth,
            };
            match &sym_cond {
                Some(c) => {
                    refine_with_condition(&mut then_state.env, c, true);
                    then_state.guards.push(c.clone());
                }
                None => then_state.unknown_guard_depth += 1,
            }
            walk(then_branch, &mut then_state, handler);
            // Else path.
            let mut else_state = State {
                env: state.env.clone(),
                writes: Vec::new(),
                guards: state.guards.clone(),
                unknown_guard_depth: state.unknown_guard_depth,
            };
            match &sym_cond {
                Some(c) => {
                    refine_with_condition(&mut else_state.env, c, false);
                    else_state.guards.push(c.negate());
                }
                None => else_state.unknown_guard_depth += 1,
            }
            walk(else_branch, &mut else_state, handler);
            // Merge.
            state.env = then_state.env.merge(&else_state.env);
            state.writes.append(&mut then_state.writes);
            state.writes.append(&mut else_state.writes);
        }
        Stmt::For { id, body, var, .. } => {
            if !handler.apply(*id, &mut state.env, &mut state.writes) {
                clobber_loop_effects(body, Some(var), state);
            }
        }
        Stmt::While { id, body, .. } => {
            if !handler.apply(*id, &mut state.env, &mut state.writes) {
                clobber_loop_effects(body, None, state);
            }
        }
    }
}

fn desugar_rhs(target: &LValue, op: AssignOp, value: &AExpr) -> AExpr {
    let read_target = if target.is_scalar() {
        AExpr::Var(target.name.clone())
    } else {
        AExpr::Index(target.name.clone(), target.indices.clone())
    };
    match op {
        AssignOp::Assign => value.clone(),
        AssignOp::AddAssign => AExpr::add(read_target, value.clone()),
        AssignOp::SubAssign => AExpr::sub(read_target, value.clone()),
        AssignOp::MulAssign => AExpr::mul(read_target, value.clone()),
    }
}

fn apply_assign(target: &LValue, rhs: &AExpr, state: &mut State) {
    let value_range = eval_range(&state.env, rhs);
    let value_exact = eval_exact(&state.env, rhs);
    if target.is_scalar() {
        state.env.set_scalar(target.name.clone(), value_range);
        return;
    }
    // Array element write.
    let (subscript, subscript_range) = if target.indices.len() == 1 {
        (
            eval_exact(&state.env, &target.indices[0]),
            eval_range(&state.env, &target.indices[0]),
        )
    } else {
        (Expr::Bottom, SymRange::unknown())
    };
    // Keep whole-array value knowledge sound: widen with the written value
    // when both are known, otherwise forget it.
    match (
        state.env.array_value(&target.name).cloned(),
        value_range.has_unknown_bound(),
    ) {
        (Some(known), false) => {
            let widened = known.union(&value_range);
            state.env.set_array_value(target.name.clone(), widened);
        }
        (Some(_), true) => state.env.clear_array_value(&target.name),
        (None, _) => {}
    }
    state.writes.push(WriteRecord {
        array: target.name.clone(),
        subscript,
        subscript_range,
        value: value_range,
        value_exact,
        guards: state.guards.clone(),
        under_unknown_guard: state.unknown_guard_depth > 0,
    });
}

/// Conservative treatment of a nested loop without a summary: every scalar
/// it assigns becomes unknown, every array it writes is recorded as an
/// unknown-region write and its whole-array value knowledge is dropped.
fn clobber_loop_effects(body: &[Stmt], loop_var: Option<&str>, state: &mut State) {
    let mut scalars = assigned_scalars(body);
    if let Some(v) = loop_var {
        scalars.push(v.to_string());
    }
    for s in scalars {
        state.env.set_scalar(s, SymRange::unknown());
    }
    for a in written_arrays(body) {
        state.env.clear_array_value(&a);
        state.writes.push(WriteRecord {
            array: a,
            subscript: Expr::Bottom,
            subscript_range: SymRange::unknown(),
            value: SymRange::unknown(),
            value_exact: Expr::Bottom,
            guards: state.guards.clone(),
            under_unknown_guard: true,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_ir::parser::parse_program;
    use ss_symbolic::simplify;

    fn body_of_first_loop(src: &str) -> Vec<Stmt> {
        let p = parse_program("t", src).unwrap();
        let Stmt::For { body, .. } = &p.body[0] else {
            panic!("expected for loop");
        };
        body.clone()
    }

    #[test]
    fn straight_line_scalar_tracking() {
        let p = parse_program("t", "count = 0; count++; x = count * 2;").unwrap();
        let out = analyze_block(&p.body, Env::new(), &NoSummaries);
        assert_eq!(out.env.scalar("count"), SymRange::constant(1, 1));
        assert_eq!(out.env.scalar("x"), SymRange::constant(2, 2));
        assert!(out.writes.is_empty());
    }

    #[test]
    fn phase1_of_figure9_inner_loop_body() {
        // Body of the j loop (Figure 9 lines 3–8), analyzed for one iteration
        // with count starting at λ(count).
        let body = body_of_first_loop(
            r#"
            for (j = 0; j < COLUMNLEN; j++) {
                if (a[i][j] != 0) {
                    count++;
                    column_number[index] = j;
                    index++;
                    value[ind] = a[i][j];
                    ind++;
                }
            }
        "#,
        );
        let mut env = Env::new();
        env.set_scalar("count", SymRange::exact(Expr::lambda("count")));
        let out = analyze_block(&body, env, &NoSummaries);
        // count: [λ : λ + 1]  (the paper's Phase 1 result)
        let r = out.env.scalar("count");
        assert_eq!(r.lo, Expr::lambda("count"));
        assert_eq!(
            r.hi,
            simplify(&Expr::add(Expr::lambda("count"), Expr::int(1)))
        );
        // column_number and value are written under an unrepresentable guard
        // (2-D access in the condition) — still recorded, marked unknown-guard.
        let col = out.writes_to("column_number");
        assert_eq!(col.len(), 1);
        assert!(col[0].under_unknown_guard);
        let val = out.writes_to("value");
        assert_eq!(val.len(), 1);
        assert_eq!(val[0].value_exact, Expr::Bottom);
    }

    #[test]
    fn figure9_line14_recurrence_shape() {
        // rowptr[i] = rowptr[i-1] + rowsize[i-1];  with rowsize's value range
        // known from the previous (collapsed) loop.
        let p = parse_program("t", "rowptr[i] = rowptr[i-1] + rowsize[i-1];").unwrap();
        let mut env = Env::new();
        env.set_array_value(
            "rowsize",
            SymRange::new(
                Expr::int(0),
                Expr::sub(Expr::sym("COLUMNLEN"), Expr::int(1)),
            ),
        );
        let out = analyze_block(&p.body, env, &NoSummaries);
        let w = &out.writes[0];
        assert_eq!(w.array, "rowptr");
        assert_eq!(w.subscript, Expr::sym("i"));
        // value range: rowptr[i-1] + [0 : COLUMNLEN-1]
        assert_eq!(
            w.value.lo,
            Expr::array_ref("rowptr", Expr::add(Expr::Int(-1), Expr::sym("i")))
        );
        assert_eq!(
            w.value.hi,
            simplify(&Expr::add(
                Expr::array_ref("rowptr", Expr::sub(Expr::sym("i"), Expr::int(1))),
                Expr::sub(Expr::sym("COLUMNLEN"), Expr::int(1))
            ))
        );
        // the exact symbolic value keeps the recurrence shape (the value-range
        // knowledge about rowsize only affects the range form above)
        assert!(w.value_exact.contains_array_ref("rowptr"));
        assert!(w.value_exact.contains_array_ref("rowsize"));
    }

    #[test]
    fn figure2_body_resolves_scalar_chain() {
        let body = body_of_first_loop(
            r#"
            for (miel = 0; miel < nelt; miel++) {
                iel = mt_to_id[miel];
                id_to_mt[iel] = miel;
            }
        "#,
        );
        let out = analyze_block(&body, Env::new(), &NoSummaries);
        let w = &out.writes[0];
        assert_eq!(w.array, "id_to_mt");
        assert_eq!(w.subscript, Expr::array_ref("mt_to_id", Expr::sym("miel")));
        assert_eq!(w.value_exact, Expr::sym("miel"));
        assert!(w.is_unconditional());
    }

    #[test]
    fn figure8_body_produces_two_guarded_writes() {
        let body = body_of_first_loop(
            r#"
            for (miel = 0; miel < nelt; miel++) {
                iel = mt_to_id_old[miel];
                if (ich[iel] == 4) {
                    ntemp = (front[miel]-1)*7;
                    mielnew = miel + ntemp;
                } else {
                    ntemp = front[miel]*7;
                    mielnew = miel + ntemp;
                }
                mt_to_id[mielnew] = iel;
                ref_front_id[iel] = nelt + ntemp;
            }
        "#,
        );
        let out = analyze_block(&body, Env::new(), &NoSummaries);
        let writes = out.writes_to("mt_to_id");
        assert_eq!(writes.len(), 1);
        // After the merge, mielnew is only known as a range (the union of the
        // two branch values), so the subscript is not exact...
        let w = writes[0];
        assert_eq!(w.array, "mt_to_id");
        // ...but the subscript range's bounds mention front[miel].
        assert!(
            w.subscript_range.lo.contains_array_ref("front")
                || w.subscript_range.hi.contains_array_ref("front")
                || w.subscript == Expr::Bottom
        );
        // The guarded writes inside the branches were scalar assignments, so
        // only the two array writes appear.
        assert_eq!(out.writes.len(), 2);
    }

    #[test]
    fn unsummarized_nested_loops_clobber_their_effects() {
        let p = parse_program(
            "t",
            r#"
            count = 3;
            for (j = 0; j < n; j++) {
                count = count + 1;
                acc[j] = count;
            }
            y = count;
        "#,
        )
        .unwrap();
        let out = analyze_block(&p.body, Env::new(), &NoSummaries);
        assert!(out.env.scalar("count").is_unknown());
        assert!(out.env.scalar("y").is_unknown());
        let w = out.writes_to("acc");
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].subscript, Expr::Bottom);
        assert!(w[0].under_unknown_guard);
    }

    #[test]
    fn guards_are_attached_to_writes() {
        let p = parse_program(
            "t",
            r#"
            if (jmatch[i] >= 0) {
                imatch[jmatch[i]] = i;
            }
        "#,
        )
        .unwrap();
        let out = analyze_block(&p.body, Env::new(), &NoSummaries);
        let w = &out.writes[0];
        assert_eq!(w.guards.len(), 1);
        assert!(!w.under_unknown_guard);
        assert!(!w.is_unconditional());
        assert_eq!(w.subscript, Expr::array_ref("jmatch", Expr::sym("i")));
    }

    #[test]
    fn declarations_initialize_or_clear() {
        let p = parse_program("t", "int x = 4; int y; z = x + 1;").unwrap();
        let out = analyze_block(&p.body, Env::new(), &NoSummaries);
        assert_eq!(out.env.scalar("x"), SymRange::constant(4, 4));
        assert!(out.env.scalar("y").is_unknown());
        assert_eq!(out.env.scalar("z"), SymRange::constant(5, 5));
    }
}
