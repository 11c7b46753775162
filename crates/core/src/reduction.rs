//! Reduction recognition: turning carried scalar dependences into parallel
//! verdicts.
//!
//! A loop like `for (k = 0; k < n; k++) { total += value[k]; }` fails the
//! privatization test — `total` is read before written in every iteration —
//! yet it is parallelizable with per-thread partial accumulators merged by
//! the operator.  This pass recognizes the accumulation shapes the executor
//! can dispatch *exactly* (integer `+`/`-`/`*` wrap — wrapping addition and
//! multiplication are associative and commutative — and `min`/`max` are
//! idempotent, so any partition of the iteration space reproduces the
//! serial result bit for bit):
//!
//! * **sum** — `acc += e`, `acc -= e`, `acc = acc + e`, `acc = e + acc`,
//!   `acc = acc - e`;
//! * **product** — `acc *= e`, `acc = acc * e`, `acc = e * acc`
//!   (identity 1);
//! * **min** — `if (e < acc) { acc = e; }` (any of the four orientations of
//!   the comparison, strict or not);
//! * **max** — the mirror image.
//!
//! A scalar qualifies only when **every** mention of it in the loop body is
//! one of these update statements (all of the same operator) and the term
//! `e` never reads the accumulator — any other read or write would make the
//! intermediate value observable and the combiner merge unsound.  The
//! loop's own bound/step must not read the accumulator either (dispatch
//! evaluates them once, up front).

use ss_ir::ast::{assigned_scalars, AExpr, AssignOp, BinOp, LoopId, Program, Stmt};

/// The combiner of a recognized reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReductionOp {
    /// Sum (covers `+=` and `-=`: wrapping addition commutes either way).
    Add,
    /// Product (`*=`; identity 1 — wrapping multiplication is associative
    /// and commutative, so partial products merge exactly).
    Mul,
    /// Minimum (guarded compare-and-assign).
    Min,
    /// Maximum (guarded compare-and-assign).
    Max,
}

impl ReductionOp {
    /// The identity element partial accumulators start from.
    pub fn identity(self) -> i64 {
        match self {
            ReductionOp::Add => 0,
            ReductionOp::Mul => 1,
            ReductionOp::Min => i64::MAX,
            ReductionOp::Max => i64::MIN,
        }
    }

    /// Merges two partial results.
    pub fn combine(self, a: i64, b: i64) -> i64 {
        match self {
            ReductionOp::Add => a.wrapping_add(b),
            ReductionOp::Mul => a.wrapping_mul(b),
            ReductionOp::Min => a.min(b),
            ReductionOp::Max => a.max(b),
        }
    }

    /// OpenMP-style clause symbol (`+`, `*`, `min`, `max`).
    pub fn symbol(self) -> &'static str {
        match self {
            ReductionOp::Add => "+",
            ReductionOp::Mul => "*",
            ReductionOp::Min => "min",
            ReductionOp::Max => "max",
        }
    }
}

/// One recognized reduction accumulator of a loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReductionInfo {
    /// The accumulator's name.  Reports print it; a dispatcher resolves
    /// the frame slot it combines into from it, in the slot map of the
    /// compile it runs.
    pub var: String,
    /// The combiner.
    pub op: ReductionOp,
}

/// Recognizes the reduction accumulators of a `for` loop.  Returns one
/// [`ReductionInfo`] per scalar whose every mention in the body is a
/// well-formed update of a single operator; scalars that fail the shape
/// test are simply absent (the caller decides whether the remaining
/// blockers still forbid parallel execution).
pub fn recognize_reductions(program: &Program, id: LoopId) -> Vec<ReductionInfo> {
    let Some(Stmt::For {
        var,
        init,
        bound,
        step,
        body,
        ..
    }) = program.find_loop(id)
    else {
        return Vec::new();
    };
    let mut accumulators = Vec::new();
    for name in assigned_scalars(body) {
        if name == *var {
            continue;
        }
        // Dispatch evaluates the loop header once; an accumulator feeding
        // its own loop's bound would change the trip count mid-loop.
        if [init, bound, step].iter().any(|e| e.mentions_var(&name)) {
            continue;
        }
        if let Some(op) = classify(body, &name) {
            accumulators.push(ReductionInfo { var: name, op });
        }
    }
    accumulators
}

fn is_var(e: &AExpr, name: &str) -> bool {
    matches!(e, AExpr::Var(v) if v == name)
}

/// Classifies `acc` over the whole body: `Some(op)` iff every statement
/// mentioning `acc` is an update of that operator, and at least one update
/// exists.
fn classify(body: &[Stmt], acc: &str) -> Option<ReductionOp> {
    let mut op: Option<ReductionOp> = None;
    let mut updates = 0usize;
    if !scan(body, acc, &mut op, &mut updates) {
        return None;
    }
    if updates == 0 {
        return None;
    }
    op
}

fn scan(stmts: &[Stmt], acc: &str, op: &mut Option<ReductionOp>, updates: &mut usize) -> bool {
    for s in stmts {
        if let Some(kind) = match_update(s, acc) {
            match *op {
                None => *op = Some(kind),
                Some(existing) if existing == kind => {}
                Some(_) => return false,
            }
            *updates += 1;
            continue;
        }
        // Not an update: the statement must not touch `acc` at all.
        let writes_acc = match s {
            Stmt::Decl { name, dims, .. } => dims.is_empty() && name == acc,
            Stmt::Assign { target, .. } => target.is_scalar() && target.name == acc,
            Stmt::For { var, .. } => var == acc,
            Stmt::If { .. } | Stmt::While { .. } => false,
        };
        if writes_acc || s.exprs().into_iter().any(|e| e.mentions_var(acc)) {
            return false;
        }
        if !(s.child_blocks().into_iter()).all(|block| scan(block, acc, op, updates)) {
            return false;
        }
    }
    true
}

/// Matches one statement as a reduction update of `acc`.
fn match_update(s: &Stmt, acc: &str) -> Option<ReductionOp> {
    match s {
        // acc += e / acc -= e / acc *= e / acc = acc + e / acc = e + acc /
        // acc = acc - e / acc = acc * e / acc = e * acc
        Stmt::Assign { target, op, value } if target.is_scalar() && target.name == acc => {
            match op {
                AssignOp::AddAssign | AssignOp::SubAssign => {
                    (!value.mentions_var(acc)).then_some(ReductionOp::Add)
                }
                AssignOp::MulAssign => (!value.mentions_var(acc)).then_some(ReductionOp::Mul),
                AssignOp::Assign => {
                    let AExpr::Binary(bop, a, b) = value else {
                        return None;
                    };
                    match bop {
                        BinOp::Add => ((is_var(a, acc) && !b.mentions_var(acc))
                            || (is_var(b, acc) && !a.mentions_var(acc)))
                        .then_some(ReductionOp::Add),
                        BinOp::Sub if is_var(a, acc) && !b.mentions_var(acc) => {
                            Some(ReductionOp::Add)
                        }
                        BinOp::Mul => ((is_var(a, acc) && !b.mentions_var(acc))
                            || (is_var(b, acc) && !a.mentions_var(acc)))
                        .then_some(ReductionOp::Mul),
                        _ => None,
                    }
                }
            }
        }
        // if (e REL acc) { acc = e; }   — min/max update
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        } if else_branch.is_empty() && then_branch.len() == 1 => {
            let Stmt::Assign {
                target,
                op: AssignOp::Assign,
                value,
            } = &then_branch[0]
            else {
                return None;
            };
            if !target.is_scalar() || target.name != acc || value.mentions_var(acc) {
                return None;
            }
            let AExpr::Binary(rel, a, b) = cond else {
                return None;
            };
            // `value REL acc` orientation…
            if **a == *value && is_var(b, acc) {
                return match rel {
                    BinOp::Lt | BinOp::Le => Some(ReductionOp::Min),
                    BinOp::Gt | BinOp::Ge => Some(ReductionOp::Max),
                    _ => None,
                };
            }
            // …or `acc REL value`.
            if is_var(a, acc) && **b == *value {
                return match rel {
                    BinOp::Gt | BinOp::Ge => Some(ReductionOp::Min),
                    BinOp::Lt | BinOp::Le => Some(ReductionOp::Max),
                    _ => None,
                };
            }
            None
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_ir::parse_program;

    fn recognize(src: &str, loop_id: u32) -> Vec<ReductionInfo> {
        let p = parse_program("t", src).unwrap();
        recognize_reductions(&p, LoopId(loop_id))
    }

    #[test]
    fn sum_forms_are_recognized() {
        for src in [
            "total = 0; for (k = 0; k < n; k++) { total += a[k]; }",
            "total = 0; for (k = 0; k < n; k++) { total = total + a[k]; }",
            "total = 0; for (k = 0; k < n; k++) { total = a[k] + total; }",
            "total = 0; for (k = 0; k < n; k++) { total = total - a[k]; }",
            "total = 0; for (k = 0; k < n; k++) { total -= a[k]; }",
        ] {
            let r = recognize(src, 0);
            assert_eq!(r.len(), 1, "{src}");
            assert_eq!(r[0].var, "total");
            assert_eq!(r[0].op, ReductionOp::Add);
        }
    }

    #[test]
    fn product_forms_are_recognized() {
        for src in [
            "prod = 1; for (k = 0; k < n; k++) { prod *= a[k]; }",
            "prod = 1; for (k = 0; k < n; k++) { prod = prod * a[k]; }",
            "prod = 1; for (k = 0; k < n; k++) { prod = a[k] * prod; }",
        ] {
            let r = recognize(src, 0);
            assert_eq!(r.len(), 1, "{src}");
            assert_eq!(r[0].var, "prod");
            assert_eq!(r[0].op, ReductionOp::Mul);
        }
        // The term must not read the accumulator.
        assert!(recognize("for (k = 0; k < n; k++) { x = x * x; }", 0).is_empty());
        assert!(recognize("for (k = 0; k < n; k++) { x *= x + 1; }", 0).is_empty());
    }

    #[test]
    fn min_and_max_updates_are_recognized() {
        let r = recognize(
            "for (k = 0; k < n; k++) { if (a[k] < best) { best = a[k]; } }",
            0,
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].op, ReductionOp::Min);
        let r = recognize(
            "for (k = 0; k < n; k++) { if (best < a[k]) { best = a[k]; } }",
            0,
        );
        assert_eq!(r[0].op, ReductionOp::Max);
        let r = recognize(
            "for (k = 0; k < n; k++) { if (a[k] >= hi) { hi = a[k]; } }",
            0,
        );
        assert_eq!(r[0].op, ReductionOp::Max);
    }

    #[test]
    fn non_reductions_are_rejected() {
        // The accumulator is read outside its update.
        assert!(recognize(
            "for (k = 0; k < n; k++) { total += a[k]; out[k] = total; }",
            0
        )
        .is_empty());
        // Mixed operators.
        assert!(recognize(
            "for (k = 0; k < n; k++) { x += a[k]; if (a[k] < x) { x = a[k]; } }",
            0
        )
        .is_empty());
        assert!(recognize("for (k = 0; k < n; k++) { x *= a[k]; x += 1; }", 0).is_empty());
        // The term reads the accumulator.
        assert!(recognize("for (k = 0; k < n; k++) { x = x + x; }", 0).is_empty());
        // Plain overwrite: privatizable, not a reduction.
        assert!(recognize("for (k = 0; k < n; k++) { x = a[k]; }", 0).is_empty());
        // Histogram: the compound update targets an array element, never a
        // scalar accumulator.
        assert!(recognize("for (i = 0; i < n; i++) { hist[a[i]] += 1; }", 0).is_empty());
        // Accumulator in the loop bound.
        assert!(recognize("for (k = 0; k < x; k++) { x += a[k]; }", 0).is_empty());
    }

    #[test]
    fn nested_updates_and_multiple_accumulators() {
        let src = r#"
            total = 0;
            cnt = 0;
            for (i = 0; i < n; i++) {
                for (k = r[i]; k < r[i+1]; k++) {
                    total += v[k];
                    cnt += 1;
                }
            }
        "#;
        let r = recognize(src, 0);
        assert_eq!(r.len(), 2);
        assert!(r.iter().all(|x| x.op == ReductionOp::Add));
        let names: Vec<&str> = r.iter().map(|x| x.var.as_str()).collect();
        assert!(names.contains(&"total") && names.contains(&"cnt"));
        // The inner loop sees the same accumulators.
        let r = recognize(src, 1);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn identities_and_combiners() {
        assert_eq!(ReductionOp::Add.identity(), 0);
        assert_eq!(ReductionOp::Add.combine(3, -5), -2);
        assert_eq!(ReductionOp::Mul.identity(), 1);
        assert_eq!(ReductionOp::Mul.combine(3, -5), -15);
        assert_eq!(
            ReductionOp::Mul.combine(i64::MAX, 2),
            i64::MAX.wrapping_mul(2),
            "partial products wrap exactly like the serial accumulation"
        );
        assert_eq!(ReductionOp::Mul.symbol(), "*");
        assert_eq!(ReductionOp::Min.combine(ReductionOp::Min.identity(), 7), 7);
        assert_eq!(
            ReductionOp::Max.combine(ReductionOp::Max.identity(), -7),
            -7
        );
        assert_eq!(ReductionOp::Add.symbol(), "+");
        assert_eq!(ReductionOp::Min.symbol(), "min");
        assert_eq!(ReductionOp::Max.symbol(), "max");
    }
}
