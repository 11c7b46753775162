//! The extended Range Test (Section 5) and the loop parallelism verdict.
//!
//! For the loop under test, every pair of per-iteration access descriptors
//! that involves a write is compared between an arbitrary iteration `i` and
//! its successor `i+1` (the paper's formulation of the Range Test).  A pair
//! is independent when
//!
//! * both regions advance monotonically with `i` **and** the later
//!   iteration's region starts strictly after the earlier one ends (in either
//!   direction), or
//! * the access is a single point whose subscript provably takes distinct
//!   values in distinct iterations — via strict monotonicity, via an
//!   injective index array (`Figure 2`), via an injective subset under a
//!   matching guard (`Figure 5`), or via an injective index array applied to
//!   disjoint ranges (`Figure 6`).
//!
//! All of these proofs consume the index-array properties derived by the
//! aggregation pass; with an empty property database the test degenerates to
//! what conventional compilers can do (the *baseline* of the evaluation).

use crate::access::{collect_iteration_accesses, AccessRegion, DescriptorSet, IterationAccess};
use crate::monotone::{property_proves_nonneg, property_proves_positive};
use ss_ir::ast::{assigned_scalars, private_arrays, AExpr, AssignOp, BinOp, LoopId, Program, Stmt};
use ss_ir::convert::SymCondition;
use ss_ir::loops::{LoopInfo, LoopTree};
use ss_properties::{ArrayProperty, PropertyDatabase, ValueFilter};
use ss_symbolic::relation::{Assumptions, Proof};
use ss_symbolic::simplify::affine_in;
use ss_symbolic::subst::subst_sym;
use ss_symbolic::{simplify, simplify_diff, sym_eq, Expr, SymRange};
use std::cell::OnceCell;
use std::collections::HashSet;

/// Configuration of the dependence test.
#[derive(Debug, Clone)]
pub struct RangeTestConfig {
    /// Use the index-array properties derived by the aggregation pass
    /// (the paper's contribution). `false` models conventional compilers
    /// (Cetus / ICC / PGI in the paper's comparison).
    pub use_index_array_properties: bool,
}

impl Default for RangeTestConfig {
    fn default() -> Self {
        RangeTestConfig {
            use_index_array_properties: true,
        }
    }
}

impl RangeTestConfig {
    /// The baseline configuration (no subscripted-subscript reasoning).
    pub fn baseline() -> RangeTestConfig {
        RangeTestConfig {
            use_index_array_properties: false,
        }
    }
}

/// The verdict for one loop.
#[derive(Debug, Clone)]
pub struct LoopVerdict {
    /// The tested loop.
    pub loop_id: LoopId,
    /// True if every cross-iteration dependence was disproven.
    pub parallel: bool,
    /// Why the loop is parallel (one entry per discharged proof obligation).
    pub reasons: Vec<String>,
    /// What blocked parallelization.
    pub blockers: Vec<String>,
    /// Scalars with a carried dependence (read before written in an
    /// iteration); each contributes exactly one entry to `blockers`.  A
    /// later pass may still recognize these as reduction accumulators.
    pub carried_scalars: Vec<String>,
}

impl LoopVerdict {
    fn serial(loop_id: LoopId, blocker: impl Into<String>) -> LoopVerdict {
        LoopVerdict {
            loop_id,
            parallel: false,
            reasons: Vec::new(),
            blockers: vec![blocker.into()],
            carried_scalars: Vec::new(),
        }
    }
}

/// Tests a single loop of a program.
pub fn test_loop(
    program: &Program,
    tree: &LoopTree,
    id: LoopId,
    db: &PropertyDatabase,
    cfg: &RangeTestConfig,
) -> LoopVerdict {
    let Some(info) = tree.get(id) else {
        return LoopVerdict::serial(id, "loop not found");
    };
    if !info.is_normalized {
        return LoopVerdict::serial(id, "not a canonical unit-step counted loop");
    }
    let Some(Stmt::For { body, .. }) = program.find_loop(id) else {
        return LoopVerdict::serial(id, "loop body not found");
    };
    let empty_db = PropertyDatabase::new();
    let db = if cfg.use_index_array_properties {
        db
    } else {
        &empty_db
    };

    let mut verdict = LoopVerdict {
        loop_id: id,
        parallel: true,
        reasons: Vec::new(),
        blockers: Vec::new(),
        carried_scalars: Vec::new(),
    };

    // The index variable is excluded from the privatization test (every
    // iteration writes it by construction) — but only while the *header*
    // is its sole writer.  A body that assigns its own index makes the
    // iteration space non-affine: the next iteration depends on this
    // iteration's write, and a dispatcher that materialized the space from
    // the header would execute different iterations than the serial run
    // (found by the cross-engine fuzz harness, `tests/engine_fuzz.rs`).
    let assigned = assigned_scalars(body);
    if assigned.contains(&info.var) {
        verdict.blockers.push(format!(
            "loop index '{}' is assigned in the body (non-affine iteration space)",
            info.var
        ));
    }

    // Scalar dependences: every scalar assigned in the body must be
    // privatizable (written before read in each iteration).
    for name in non_private_scalars(body, &assigned, &info.var) {
        verdict.blockers.push(format!(
            "scalar '{name}' is read before written (carried scalar dependence)"
        ));
        verdict.carried_scalars.push(name);
    }

    // Array dependences.  Arrays declared at the top of the loop body are
    // re-initialized by every iteration before any use, so they are
    // per-iteration private — like privatizable scalars, they carry no
    // cross-iteration dependence and are excluded from the test.
    let private_arrays = private_arrays(body);
    let descriptors = collect_iteration_accesses(info, body, tree);
    let mut asm = Assumptions::new();
    asm.assume_range(info.var.clone(), info.index_range());
    for array in descriptors.written_arrays() {
        if private_arrays.contains(&array) {
            let reason =
                format!("array '{array}' is declared in the loop body (private per iteration)");
            if !verdict.reasons.contains(&reason) {
                verdict.reasons.push(reason);
            }
            continue;
        }
        check_array(&descriptors, &array, info, db, &asm, &mut verdict);
    }

    verdict.parallel = verdict.blockers.is_empty();
    verdict
}

fn check_array(
    descriptors: &DescriptorSet,
    array: &str,
    info: &LoopInfo,
    db: &PropertyDatabase,
    asm: &Assumptions,
    verdict: &mut LoopVerdict,
) {
    let accesses: Vec<Access<'_>> = (descriptors.for_array(array).into_iter())
        .map(|access| Access {
            access,
            facts: OnceCell::new(),
        })
        .collect();
    // Every pair (early iteration i, late iteration i+1) involving a write
    // must be independent.
    for early in &accesses {
        for late in &accesses {
            if !early.access.is_write && !late.access.is_write {
                continue;
            }
            match pair_independent(early, late, array, info, db, asm) {
                Ok(reason) => {
                    if !verdict.reasons.contains(&reason) {
                        verdict.reasons.push(reason);
                    }
                }
                Err(blocker) => {
                    if !verdict.blockers.contains(&blocker) {
                        verdict.blockers.push(blocker);
                    }
                }
            }
        }
    }
}

/// One access of the array under test, with what the Range Test derives
/// about it alone.  An access takes part in a pair per other access, so
/// the facts are derived once, by the first pair that needs them; pairs
/// settled by their guards or by a same-point proof never do.
struct Access<'a> {
    access: &'a IterationAccess,
    facts: OnceCell<Option<AccessFacts>>,
}

/// The range an access spans at iteration `i` (its subscript bounds, or
/// for an image under an index array the argument range), that range at
/// `i+1`, and whether it provably advances up or down with `i`.
struct AccessFacts {
    range: SymRange,
    next: SymRange,
    up: bool,
    down: bool,
}

impl AccessFacts {
    /// `None` for a region no range describes.
    fn derive(
        region: &AccessRegion,
        var: &str,
        db: &PropertyDatabase,
        asm: &Assumptions,
    ) -> Option<AccessFacts> {
        let range = match region {
            AccessRegion::Point(p) => SymRange::exact(p.clone()),
            AccessRegion::Range(r) | AccessRegion::Indirect { range: r, .. } => r.clone(),
            AccessRegion::Unknown => return None,
        };
        let next = next_iter_range(&range, var);
        let nonneg = |a: &Expr, b: &Expr| property_proves_nonneg(&simplify_diff(a, b), db, asm);
        Some(AccessFacts {
            up: nonneg(&next.lo, &range.lo) && nonneg(&next.hi, &range.hi),
            down: nonneg(&range.lo, &next.lo) && nonneg(&range.hi, &next.hi),
            range,
            next,
        })
    }
}

impl Access<'_> {
    fn facts(&self, var: &str, db: &PropertyDatabase, asm: &Assumptions) -> Option<&AccessFacts> {
        let derive = || AccessFacts::derive(&self.access.region, var, db, asm);
        self.facts.get_or_init(derive).as_ref()
    }
}

/// Shifts an expression from iteration `i` to iteration `i+1`.
fn next_iter(e: &Expr, var: &str) -> Expr {
    simplify(&subst_sym(e, var, &Expr::add(Expr::sym(var), Expr::Int(1))))
}

fn next_iter_range(r: &SymRange, var: &str) -> SymRange {
    SymRange {
        lo: next_iter(&r.lo, var),
        hi: next_iter(&r.hi, var),
    }
}

/// Checks whether the guard conditions of an access can hold at iteration
/// `i + shift`. Returns false only when some guard is provably violated.
fn guards_feasible(guards: &[SymCondition], var: &str, shift: i64, asm: &Assumptions) -> bool {
    for g in guards {
        let lhs = if shift == 0 {
            g.lhs.clone()
        } else {
            simplify(&subst_sym(
                &g.lhs,
                var,
                &Expr::add(Expr::sym(var), Expr::Int(shift)),
            ))
        };
        let rhs = if shift == 0 {
            g.rhs.clone()
        } else {
            simplify(&subst_sym(
                &g.rhs,
                var,
                &Expr::add(Expr::sym(var), Expr::Int(shift)),
            ))
        };
        let impossible = match g.op {
            BinOp::Eq => {
                asm.prove_lt(&lhs, &rhs) == Proof::Proven
                    || asm.prove_lt(&rhs, &lhs) == Proof::Proven
            }
            BinOp::Ne => asm.prove_eq(&lhs, &rhs) == Proof::Proven,
            BinOp::Lt => asm.prove_le(&rhs, &lhs) == Proof::Proven,
            BinOp::Le => asm.prove_lt(&rhs, &lhs) == Proof::Proven,
            BinOp::Gt => asm.prove_le(&lhs, &rhs) == Proof::Proven,
            BinOp::Ge => asm.prove_lt(&lhs, &rhs) == Proof::Proven,
            _ => false,
        };
        if impossible {
            return false;
        }
    }
    true
}

fn pair_independent(
    early: &Access<'_>,
    late: &Access<'_>,
    array: &str,
    info: &LoopInfo,
    db: &PropertyDatabase,
    asm: &Assumptions,
) -> Result<String, String> {
    let var = &info.var;
    let (e, l) = (early.access, late.access);
    // Vacuous pairs: a guard that cannot hold at the respective iteration.
    // (A write under an unrepresentable guard is still tested: the guard
    // only removes instances, never adds them.)
    if !guards_feasible(&e.guards, var, 0, asm) || !guards_feasible(&l.guards, var, 1, asm) {
        return Ok(format!(
            "accesses to '{array}' cannot co-execute in consecutive iterations (guards exclude them)"
        ));
    }

    // Indirect regions (Figure 6): the image of disjoint argument ranges
    // under an injective index array.
    if let (AccessRegion::Indirect { array: pa, .. }, AccessRegion::Indirect { array: pb, .. }) =
        (&e.region, &l.region)
    {
        if pa == pb && db.has_property(pa, ArrayProperty::Injective) {
            return check_advancing_ranges(early, late, var, db, asm)
                .map(|why| {
                    format!(
                    "writes to '{array}' go through injective index array '{pa}' applied to {why}"
                )
                })
                .map_err(|e| format!("indirect writes to '{array}': {e}"));
        }
        return Err(format!(
            "writes to '{array}' use index array '{pa}' whose injectivity is unknown"
        ));
    }

    let bounded = |r: &AccessRegion| matches!(r, AccessRegion::Point(_) | AccessRegion::Range(_));
    if !bounded(&e.region) || !bounded(&l.region) {
        return Err(format!(
            "an access to '{array}' could not be described as a subscript range"
        ));
    }

    // Same single-point access: injectivity-based reasoning.
    if e == l {
        if let AccessRegion::Point(p) = &e.region {
            if let Some(reason) = injective_subscript(p, var, db, &e.guards) {
                return Ok(format!("write subscript of '{array}' {reason}"));
            }
        }
    }

    check_advancing_ranges(early, late, var, db, asm)
        .map(|why| format!("accesses to '{array}' touch {why}"))
        .map_err(|e| format!("accesses to '{array}': {e}"))
}

/// Proves that the region of `early` (iteration `i`) and that of `late`
/// (iteration `i+1`) cannot overlap, via monotone advancement: both regions
/// move in the same direction with `i` and the later one starts strictly
/// past the earlier one.
fn check_advancing_ranges(
    early: &Access<'_>,
    late: &Access<'_>,
    var: &str,
    db: &PropertyDatabase,
    asm: &Assumptions,
) -> Result<String, String> {
    let cannot = "cannot prove the subscript ranges of consecutive iterations disjoint";
    // Both callers pass described regions; an undescribed one proves nothing.
    let (Some(a), Some(b)) = (early.facts(var, db, asm), late.facts(var, db, asm)) else {
        return Err(cannot.to_string());
    };
    // Increasing direction: regions advance upward and the successor's region
    // begins after the current one ends.
    if a.up && b.up && property_proves_positive(&simplify_diff(&b.next.lo, &a.range.hi), db, asm) {
        return Ok(
            "non-overlapping, monotonically advancing subscript ranges in consecutive iterations"
                .to_string(),
        );
    }
    // Decreasing direction.
    if a.down
        && b.down
        && property_proves_positive(&simplify_diff(&a.range.lo, &b.next.hi), db, asm)
    {
        return Ok(
            "non-overlapping, monotonically descending subscript ranges in consecutive iterations"
                .to_string(),
        );
    }
    Err(cannot.to_string())
}

/// Tries to prove that a point subscript takes pairwise-distinct values in
/// distinct iterations.
fn injective_subscript(
    p: &Expr,
    var: &str,
    db: &PropertyDatabase,
    guards: &[SymCondition],
) -> Option<String> {
    // Affine in the loop index with non-zero coefficient.
    if let Some((c, _)) = affine_in(p, var) {
        if c != 0 {
            return Some("is affine in the loop index with non-zero stride".to_string());
        }
        return None;
    }
    // c0 + k * b[inner] with b injective and inner itself injective in i.
    let (k, aref, rest_ok) = decompose_single_array_term(p, var);
    if let Some((b, inner)) = aref {
        if k != 0 && rest_ok {
            let inner_injective = affine_in(&inner, var).map(|(c, _)| c != 0).unwrap_or(false)
                || injective_subscript(&inner, var, db, guards).is_some();
            if inner_injective {
                if db.has_property(&b, ArrayProperty::Injective) {
                    return Some(format!("uses injective index array '{b}'"));
                }
                // Guarded subset injectivity (Figure 5): the access is guarded
                // by `b[inner] >= 0` and the non-negative subset is injective.
                let filter = ValueFilter::non_negative();
                let guard_matches = guards.iter().any(|g| {
                    g.op == BinOp::Ge
                        && g.rhs == Expr::Int(0)
                        && sym_eq(&g.lhs, &Expr::ArrayRef(b.clone(), Box::new(inner.clone())))
                });
                if guard_matches && db.has_property_on_subset(&b, &filter, ArrayProperty::Injective)
                {
                    return Some(format!(
                        "uses index array '{b}' whose guarded (non-negative) subset is injective"
                    ));
                }
            }
        }
    }
    None
}

/// Decomposes `p` as `constant/invariant + k * b[inner]` where the remainder
/// does not mention the loop index or any array. Returns `(k, Some((b,
/// inner)), remainder_ok)`.
fn decompose_single_array_term(p: &Expr, var: &str) -> (i64, Option<(String, Expr)>, bool) {
    let s = simplify(p);
    let terms: Vec<Expr> = match s {
        Expr::Add(xs) => xs,
        other => vec![other],
    };
    let mut aref: Option<(String, Expr)> = None;
    let mut coeff = 0i64;
    let mut rest_ok = true;
    for t in terms {
        match &t {
            Expr::ArrayRef(a, idx) => {
                if aref.is_none() {
                    aref = Some((a.clone(), (**idx).clone()));
                    coeff = 1;
                } else {
                    rest_ok = false;
                }
            }
            Expr::Mul(fs) => {
                let mut k = 1i64;
                let mut inner_ref: Option<(String, Expr)> = None;
                let mut clean = true;
                for f in fs {
                    match f {
                        Expr::Int(v) => k *= v,
                        Expr::ArrayRef(a, idx) if inner_ref.is_none() => {
                            inner_ref = Some((a.clone(), (**idx).clone()))
                        }
                        _ => clean = false,
                    }
                }
                match (clean, inner_ref, &aref) {
                    (true, Some(r), None) => {
                        aref = Some(r);
                        coeff = k;
                    }
                    (true, None, _) => {
                        // pure product of invariants
                        if t.contains_sym(var) {
                            rest_ok = false;
                        }
                    }
                    _ => rest_ok = false,
                }
            }
            other => {
                if other.contains_sym(var) || other.contains_any_array_ref() {
                    rest_ok = false;
                }
            }
        }
    }
    (coeff, aref, rest_ok)
}

/// Scalars assigned in the loop body that are (possibly) read before being
/// written in an iteration — these carry values across iterations and block
/// parallelization (they are not privatizable).  `assigned` is every scalar
/// the body assigns, its own index variable included.
fn non_private_scalars(body: &[Stmt], assigned: &[String], loop_var: &str) -> Vec<String> {
    let assigned: HashSet<&str> = (assigned.iter())
        .map(String::as_str)
        .filter(|&n| n != loop_var)
        .collect();
    let mut read_first: Vec<String> = Vec::new();

    // Walk in program order; the first dynamic access decides.
    fn note(
        name: &str,
        assigned: &HashSet<&str>,
        written: &HashSet<String>,
        read_first: &mut Vec<String>,
    ) {
        if assigned.contains(name)
            && !written.contains(name)
            && !read_first.iter().any(|r| r == name)
        {
            read_first.push(name.to_string());
        }
    }
    fn walk(
        stmts: &[Stmt],
        assigned: &HashSet<&str>,
        written: &mut HashSet<String>,
        read_first: &mut Vec<String>,
    ) {
        for s in stmts {
            // Everything the statement evaluates (declared extents
            // included) is read before the statement's own write.
            for e in s.exprs() {
                e.for_each(&mut |x| {
                    if let AExpr::Var(v) = x {
                        note(v, assigned, written, read_first);
                    }
                });
            }
            match s {
                Stmt::Decl { name, dims, .. } => {
                    if dims.is_empty() {
                        written.insert(name.clone());
                    }
                }
                Stmt::Assign { target, op, .. } => {
                    if target.is_scalar() {
                        // A compound assignment reads its target first.
                        if *op != AssignOp::Assign {
                            note(&target.name, assigned, written, read_first);
                        }
                        written.insert(target.name.clone());
                    }
                }
                Stmt::If {
                    then_branch,
                    else_branch,
                    ..
                } => {
                    // A write inside a branch only counts as "written before
                    // read" for later code if it happens on both paths; be
                    // conservative and only propagate the intersection.
                    let mut then_written = written.clone();
                    let mut else_written = written.clone();
                    walk(then_branch, assigned, &mut then_written, read_first);
                    walk(else_branch, assigned, &mut else_written, read_first);
                    *written = then_written.intersection(&else_written).cloned().collect();
                }
                Stmt::For { var, body, .. } => {
                    // The header init always runs, the body may run zero
                    // times: the index var counts as written, the body's
                    // writes do not dominate anything after the loop.
                    // Exposed reads inside the body are still detected
                    // against a scratch copy (found by the cross-engine
                    // fuzz harness: a plain write buried in a 0-trip inner
                    // loop must not make a later compound read look
                    // privatizable).
                    written.insert(var.clone());
                    let mut inner = written.clone();
                    walk(body, assigned, &mut inner, read_first);
                }
                Stmt::While { body, .. } => {
                    let mut inner = written.clone();
                    walk(body, assigned, &mut inner, read_first);
                }
            }
        }
    }
    walk(body, &assigned, &mut HashSet::new(), &mut read_first);
    read_first
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_aggregation::analyze_program;
    use ss_ir::parser::parse_program;

    /// Runs the full pipeline (aggregation + extended Range Test) and returns
    /// the verdict for the given loop, plus the baseline verdict.
    fn verdicts(src: &str, loop_id: u32) -> (LoopVerdict, LoopVerdict) {
        let p = parse_program("t", src).unwrap();
        let analysis = analyze_program(&p);
        let tree = LoopTree::build(&p);
        let extended = test_loop(
            &p,
            &tree,
            LoopId(loop_id),
            analysis.db_for_loop(LoopId(loop_id)),
            &RangeTestConfig::default(),
        );
        let baseline = test_loop(
            &p,
            &tree,
            LoopId(loop_id),
            analysis.db_for_loop(LoopId(loop_id)),
            &RangeTestConfig::baseline(),
        );
        (extended, baseline)
    }

    #[test]
    fn loop_local_array_declarations_are_private() {
        // scratch is re-declared every iteration: its writes repeat the same
        // indices across iterations but carry no dependence.
        let src = r#"
            for (i = 0; i < n; i++) {
                int scratch[8];
                for (t = 0; t < 8; t++) {
                    scratch[t] = dense[i][t] * 2;
                }
                for (t = 0; t < 8; t++) {
                    out[i * 8 + t] = scratch[t] + 1;
                }
            }
        "#;
        let (extended, baseline) = verdicts(src, 0);
        assert!(extended.parallel, "blockers: {:?}", extended.blockers);
        assert!(extended
            .reasons
            .iter()
            .any(|r| r.contains("scratch") && r.contains("private")));
        // Privatization is conventional compiler technology, available to
        // the baseline too.
        assert!(baseline.parallel);
    }

    #[test]
    fn arrays_touched_before_their_declaration_are_not_private() {
        // The first mention reads the previous iteration's storage: a real
        // cross-iteration flow the test must keep.
        let src = r#"
            for (i = 0; i < n; i++) {
                out[i] = scratch[0];
                int scratch[8];
                for (t = 0; t < 8; t++) { scratch[t] = i; }
            }
        "#;
        let (extended, _) = verdicts(src, 0);
        assert!(!extended.parallel);
        assert!(extended.blockers.iter().any(|b| b.contains("scratch")));

        // Declared only inside a branch: not unconditional, not private.
        let src = r#"
            for (i = 0; i < n; i++) {
                if (i % 2 == 0) {
                    int scratch[4];
                    scratch[0] = i;
                }
                out[i] = i;
            }
        "#;
        let (extended, _) = verdicts(src, 0);
        assert!(!extended.parallel);
    }

    #[test]
    fn figure2_injective_index_array_enables_parallelization() {
        // Filling code gives mt_to_id a strictly-monotonic (hence injective)
        // content; the transfer loop then writes through it.
        let src = r#"
            for (e = 0; e < nelt; e++) {
                mt_to_id[e] = e;
            }
            for (miel = 0; miel < nelt; miel++) {
                iel = mt_to_id[miel];
                id_to_mt[iel] = miel;
            }
        "#;
        let (extended, baseline) = verdicts(src, 1);
        assert!(extended.parallel, "blockers: {:?}", extended.blockers);
        assert!(extended.reasons.iter().any(|r| r.contains("injective")));
        assert!(!baseline.parallel);
    }

    #[test]
    fn figure3_monotonic_rowstr_enables_parallelization() {
        let src = r#"
            rowstr[0] = 0;
            for (r = 1; r <= nrows; r++) {
                rowstr[r] = rowstr[r-1] + rowcount[r-1];
            }
            for (j = 0; j < nrows; j++) {
                for (k = rowstr[j]; k < rowstr[j+1]; k++) {
                    colidx[k] = colidx[k] - firstcol;
                }
            }
        "#;
        // rowcount has no known sign, so first give it one via a counting loop.
        let src_full = format!(
            r#"
            for (i = 0; i < nrows; i++) {{
                cnt = 0;
                for (t = 0; t < ncols; t++) {{
                    if (dense[i][t] != 0) {{ cnt++; }}
                }}
                rowcount[i] = cnt;
            }}
            {src}
        "#
        );
        let (extended, baseline) = verdicts(&src_full, 3);
        assert!(extended.parallel, "blockers: {:?}", extended.blockers);
        assert!(!baseline.parallel);
        // The inner k-loop itself: subscript k is affine in k, parallel even
        // for the baseline.
        let (inner_ext, inner_base) = verdicts(&src_full, 4);
        assert!(inner_ext.parallel);
        assert!(inner_base.parallel);
    }

    #[test]
    fn figure5_guarded_injective_subset() {
        // jmatch gets an injective fill for the matched rows and -1 for the
        // rest — modelled by a guarded identity fill; the compile-time
        // analysis records the guarded-subset injectivity.
        let src = r#"
            for (r = 0; r < m; r++) {
                if (matched[r] > 0) {
                    jmatch[r] = r;
                } else {
                    jmatch[r] = 0 - 1;
                }
            }
            for (i = 0; i < m; i++) {
                if (jmatch[i] >= 0) {
                    imatch[jmatch[i]] = i;
                }
            }
        "#;
        let (extended, baseline) = verdicts(src, 1);
        assert!(!baseline.parallel);
        // The guarded-subset fact requires the subset fill to be recognized;
        // the write through jmatch[i] under the guard jmatch[i] >= 0 is then
        // provably conflict-free.
        assert!(extended.parallel, "blockers: {:?}", extended.blockers);
    }

    #[test]
    fn figure6_simultaneous_monotonic_and_injective() {
        let src = r#"
            for (b = 0; b < nb; b++) {
                bs = 0;
                for (t = 0; t < bmax; t++) {
                    if (members[b][t] > 0) { bs++; }
                }
                blocksize[b] = bs;
            }
            r[0] = 0;
            for (b = 1; b <= nb; b++) {
                r[b] = r[b-1] + blocksize[b-1];
            }
            for (k = 0; k < nzb; k++) {
                p[k] = k;
            }
            for (b = 0; b < nb; b++) {
                for (k = r[b]; k < r[b+1]; k++) {
                    Blk[p[k]] = b;
                }
            }
        "#;
        let (extended, baseline) = verdicts(src, 4);
        assert!(extended.parallel, "blockers: {:?}", extended.blockers);
        assert!(extended
            .reasons
            .iter()
            .any(|r| r.contains("injective index array 'p'")));
        assert!(!baseline.parallel);
    }

    #[test]
    fn figure9_product_loop() {
        let src = r#"
            index = 0;
            ind = 0;
            for (i = 0; i < ROWLEN; i++) {
                count = 0;
                for (j = 0; j < COLUMNLEN; j++) {
                    if (a[i][j] != 0) {
                        count++;
                        column_number[index] = j;
                        index++;
                        value[ind] = a[i][j];
                        ind++;
                    }
                }
                rowsize[i] = count;
            }
            rowptr[0] = 0;
            for (i = 1; i < ROWLEN + 1; i++) {
                rowptr[i] = rowptr[i-1] + rowsize[i-1];
            }
            for (i = 0; i < ROWLEN+1; i++) {
                if (i == 0) {
                    j1 = i;
                } else {
                    j1 = rowptr[i-1];
                }
                for (j = j1; j < rowptr[i]; j++) {
                    product_array[j] = value[j] * vector[j];
                }
            }
        "#;
        let (extended, baseline) = verdicts(src, 3);
        assert!(extended.parallel, "blockers: {:?}", extended.blockers);
        assert!(!baseline.parallel);
    }

    #[test]
    fn output_dependences_are_detected_when_properties_are_absent() {
        // idx has no derivable property (it is read from input): the loop
        // must stay serial even for the extended test.
        let src = r#"
            for (i = 0; i < n; i++) {
                hist[idx[i]] = i;
            }
        "#;
        let (extended, baseline) = verdicts(src, 0);
        assert!(!extended.parallel);
        assert!(!baseline.parallel);
    }

    #[test]
    fn true_dependences_block_parallelization() {
        // A genuine loop-carried flow dependence: a[i] = a[i-1] + 1.
        let src = "for (i = 1; i < n; i++) { a[i] = a[i-1] + 1; }";
        let (extended, _) = verdicts(src, 0);
        assert!(!extended.parallel);
        // A scalar carried across iterations (running sum) also blocks.
        let src = "for (i = 0; i < n; i++) { s = s + b[i]; c[i] = s; }";
        let (extended, _) = verdicts(src, 0);
        assert!(!extended.parallel);
        assert!(extended.blockers.iter().any(|b| b.contains("scalar 's'")));
    }

    /// Loop 1 of `x[i] = 3;` filling, then `body` over `i < 63`.
    fn after_filling_x(body: &str) -> LoopVerdict {
        let src = format!(
            "for (i = 0; i < 64; i++) {{ x[i] = 3; }}\nfor (i = 0; i < 63; i++) {{ {body} }}"
        );
        verdicts(&src, 1).0
    }

    #[test]
    fn reads_the_collector_once_dropped_keep_the_loop_serial() {
        // Each body reads `x[i + 1]` (or `x[i]`) where no descriptor used to
        // record it, while an iteration also writes `x`: run in parallel,
        // a later iteration's write can land before the read.
        for body in [
            // A `while` condition.
            "k = 0; while (k < x[i + 1]) { k = k + 1; } y[i] = k; x[i] = 0;",
            // A `while` body.
            "k = 0; s = 0; while (k < 1) { s = x[i + 1]; k = k + 1; } y[i] = s; x[i] = 0;",
            // An inner `for` bound.
            "k = 0; for (k = 0; k < x[i + 1]; k++) { s = s + 1; } y[i] = k; x[i] = 0;",
            // A declared extent.
            "int t[x[i]]; if (i > 0) { t[3] = i; } y[i] = i; x[i + 1] = 4;",
        ] {
            let v = after_filling_x(body);
            assert!(!v.parallel, "{body}");
            assert!(
                v.blockers.iter().any(|b| b.contains("'x'")),
                "{body}: {:?}",
                v.blockers
            );
        }
    }

    #[test]
    fn a_scalar_read_by_a_declared_extent_is_carried() {
        // `int t[m]` reads the `m` the previous iteration assigned.
        let src = "m = 1; for (i = 0; i < 8; i++) { int t[m]; if (i > 0) { t[3] = i; } y[i] = i; m = 4; }";
        let (extended, _) = verdicts(src, 0);
        assert!(!extended.parallel);
        assert_eq!(extended.carried_scalars, vec!["m"]);
    }

    #[test]
    fn private_scalars_do_not_block() {
        let src = "for (i = 0; i < n; i++) { t = b[i] * 2; c[i] = t; }";
        let (extended, baseline) = verdicts(src, 0);
        assert!(extended.parallel);
        assert!(baseline.parallel);
    }

    #[test]
    fn figure7_disjoint_strided_expressions() {
        // Simplified Figure 7/8 shape: the write subscript is
        // 7*front[index] + i with front strictly monotonic (filled as a
        // prefix sum of positive counts); successive outer iterations write
        // disjoint 7-element groups.
        let src = r#"
            front[0] = 1;
            for (f = 1; f < num_refine; f++) {
                front[f] = front[f-1] + 1;
            }
            for (idx = 0; idx < num_refine; idx++) {
                nelt = (front[idx] - 1) * 7;
                for (i = 0; i < 7; i++) {
                    tree[nelt + i] = idx + (i + 1) % 8;
                }
            }
        "#;
        let (extended, baseline) = verdicts(src, 1);
        assert!(extended.parallel, "blockers: {:?}", extended.blockers);
        assert!(!baseline.parallel);
    }
}
