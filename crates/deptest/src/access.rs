//! Per-iteration access descriptors.
//!
//! For the loop under test, every array access is described by the region it
//! touches *as a function of the loop index* `i`:
//!
//! * [`AccessRegion::Point`] — a single element, e.g. `mt_to_id[miel]` or
//!   `miel + 7*front[miel]`;
//! * [`AccessRegion::Range`] — a contiguous range produced by an inner loop,
//!   e.g. `[rowstr[i] : rowstr[i+1]-1]` (Figure 3 / Figure 9);
//! * [`AccessRegion::Indirect`] — an inner loop writing through an index
//!   array, e.g. `Blk[p[k]]` for `k` in `[r[b] : r[b+1]-1]` (Figure 6): the
//!   touched set is the image of the `k`-range under `p`;
//! * [`AccessRegion::Unknown`] — anything the analysis cannot describe.
//!
//! Scalar chains (`iel = mt_to_id[miel]; id_to_mt[iel] = ...`) are resolved
//! with the symbolic environment, and `if`/`else` statements split the
//! analysis into guarded *configurations* so that conditionally-defined
//! bounds (the `j1` of Figure 9) keep their exact per-branch values.

use ss_ir::ast::{assigned_scalars, for_each_stmt, AExpr, AssignOp, Stmt};
use ss_ir::convert::{to_condition, SymCondition};
use ss_ir::loops::{LoopInfo, LoopTree};
use ss_rangeprop::{eval_exact, eval_range, refine_with_condition, Env};
use ss_symbolic::simplify::affine_in;
use ss_symbolic::subst::subst_sym;
use ss_symbolic::{simplify, Expr, SymRange};

/// The elements an access touches in one iteration of the tested loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessRegion {
    /// A single element at the given subscript.
    Point(Expr),
    /// A contiguous subscript range.
    Range(SymRange),
    /// The image of a subscript range under an index array:
    /// `{ array[k] : k in range }`.
    Indirect {
        /// The index array applied to the range.
        array: String,
        /// The range of its arguments.
        range: SymRange,
    },
    /// Not describable.
    Unknown,
}

/// One access (read or write) of one iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IterationAccess {
    /// Accessed array.
    pub array: String,
    /// Whether the access writes the array.
    pub is_write: bool,
    /// The touched region as a function of the loop index.
    pub region: AccessRegion,
    /// Guard conditions (with resolved operands) under which the access
    /// executes.
    pub guards: Vec<SymCondition>,
    /// True if some guard on the path could not be represented.
    pub under_unknown_guard: bool,
}

/// All per-iteration accesses of a loop.
#[derive(Debug, Clone, Default)]
pub struct DescriptorSet {
    /// The accesses.
    pub accesses: Vec<IterationAccess>,
    /// Human-readable notes about constructs that had to be treated as
    /// unknown.
    pub notes: Vec<String>,
}

impl DescriptorSet {
    /// Arrays written at least once.
    pub fn written_arrays(&self) -> Vec<String> {
        let mut out = Vec::new();
        for a in &self.accesses {
            if a.is_write && !out.contains(&a.array) {
                out.push(a.array.clone());
            }
        }
        out
    }

    /// All accesses touching the given array.
    pub fn for_array(&self, array: &str) -> Vec<&IterationAccess> {
        self.accesses.iter().filter(|a| a.array == array).collect()
    }
}

const MAX_CONFIGS: usize = 16;

#[derive(Clone)]
struct Config {
    env: Env,
    guards: Vec<SymCondition>,
    unknown_guard: bool,
}

/// Collects the per-iteration access descriptors of a loop.
pub fn collect_iteration_accesses(
    info: &LoopInfo,
    body: &[Stmt],
    tree: &LoopTree,
) -> DescriptorSet {
    let mut out = DescriptorSet::default();
    let mut env = Env::new();
    env.set_scalar(info.var.clone(), SymRange::exact(Expr::sym(&info.var)));
    if info.first != Expr::Bottom && info.last != Expr::Bottom {
        env.assumptions
            .assume_range(info.var.clone(), info.index_range());
    }
    let mut configs = vec![Config {
        env,
        guards: Vec::new(),
        unknown_guard: false,
    }];
    walk(body, &mut configs, tree, &mut out);
    dedupe(&mut out);
    out
}

fn dedupe(out: &mut DescriptorSet) {
    let mut seen: Vec<IterationAccess> = Vec::new();
    for a in out.accesses.drain(..) {
        if !seen.contains(&a) {
            seen.push(a);
        }
    }
    out.accesses = seen;
}

fn walk(stmts: &[Stmt], configs: &mut Vec<Config>, tree: &LoopTree, out: &mut DescriptorSet) {
    for s in stmts {
        walk_stmt(s, configs, tree, out);
    }
}

fn walk_stmt(s: &Stmt, configs: &mut Vec<Config>, tree: &LoopTree, out: &mut DescriptorSet) {
    match s {
        Stmt::Decl { name, dims, init } => {
            for cfg in configs.iter_mut() {
                record_stmt_reads(s, cfg, out);
                if dims.is_empty() {
                    let r =
                        (init.as_ref()).map_or_else(SymRange::unknown, |e| eval_range(&cfg.env, e));
                    cfg.env.set_scalar(name.clone(), r);
                }
            }
        }
        Stmt::Assign { target, op, value } => {
            for cfg in configs.iter_mut() {
                // Reads: RHS, target indices, and the target itself for
                // compound assignments.
                record_stmt_reads(s, cfg, out);
                let read_target = if target.is_scalar() {
                    AExpr::Var(target.name.clone())
                } else {
                    AExpr::Index(target.name.clone(), target.indices.clone())
                };
                if *op != AssignOp::Assign && !target.is_scalar() {
                    record_access(&target.name, &target.indices, false, cfg, out);
                }
                let rhs = match op {
                    AssignOp::Assign => value.clone(),
                    AssignOp::AddAssign => AExpr::add(read_target.clone(), value.clone()),
                    AssignOp::SubAssign => AExpr::sub(read_target.clone(), value.clone()),
                    AssignOp::MulAssign => AExpr::mul(read_target.clone(), value.clone()),
                };
                if target.is_scalar() {
                    let r = eval_range(&cfg.env, &rhs);
                    cfg.env.set_scalar(target.name.clone(), r);
                } else {
                    record_access(&target.name, &target.indices, true, cfg, out);
                }
            }
        }
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        } => {
            for cfg in configs.iter_mut() {
                record_stmt_reads(s, cfg, out);
            }
            let sym_cond = to_condition(cond);
            let representable = sym_cond.is_some() && configs.len() * 2 <= MAX_CONFIGS;
            if representable {
                let c = sym_cond.unwrap();
                let mut then_configs: Vec<Config> = configs
                    .iter()
                    .map(|cfg| {
                        let mut t = cfg.clone();
                        refine_with_condition(&mut t.env, &c, true);
                        t.guards.push(resolve_condition(&cfg.env, &c));
                        t
                    })
                    .collect();
                let mut else_configs: Vec<Config> = configs
                    .iter()
                    .map(|cfg| {
                        let mut e = cfg.clone();
                        refine_with_condition(&mut e.env, &c, false);
                        e.guards.push(resolve_condition(&cfg.env, &c).negate());
                        e
                    })
                    .collect();
                walk(then_branch, &mut then_configs, tree, out);
                walk(else_branch, &mut else_configs, tree, out);
                configs.clear();
                configs.append(&mut then_configs);
                configs.append(&mut else_configs);
            } else {
                // Unrepresentable or too many configurations: analyze both
                // branches under an unknown guard without splitting.
                let mut marked: Vec<Config> = configs
                    .iter()
                    .map(|cfg| {
                        let mut m = cfg.clone();
                        m.unknown_guard = true;
                        m
                    })
                    .collect();
                walk(then_branch, &mut marked, tree, out);
                walk(else_branch, &mut marked, tree, out);
                // Scalar values after the branches are uncertain; merge the
                // branch environments into the originals conservatively.
                for (orig, m) in configs.iter_mut().zip(marked.iter()) {
                    orig.env = orig.env.merge(&m.env);
                }
            }
        }
        Stmt::For { id, var, body, .. } => {
            let info = tree.get(*id).cloned();
            for cfg in configs.iter_mut() {
                // The header is evaluated once, in the enclosing iteration.
                record_stmt_reads(s, cfg, out);
                match &info {
                    Some(inner) if inner.is_normalized => {
                        summarize_inner_loop(inner, body, cfg, tree, out);
                    }
                    _ => {
                        mark_unknown(body, cfg, out);
                        out.notes
                            .push(format!("inner loop {id} is not a canonical counted loop"));
                    }
                }
                // Scalars the inner loop modifies have unknown values after it.
                for name in assigned_scalars(body) {
                    cfg.env.set_scalar(name, SymRange::unknown());
                }
                cfg.env.set_scalar(var.clone(), SymRange::unknown());
            }
        }
        Stmt::While { body, .. } => {
            for cfg in configs.iter_mut() {
                // Condition and body alike run an unknown number of times.
                mark_unknown(std::slice::from_ref(s), cfg, out);
                for name in assigned_scalars(body) {
                    cfg.env.set_scalar(name, SymRange::unknown());
                }
            }
            out.notes.push("while loop treated as unknown".to_string());
        }
    }
}

/// Resolves the operands of a guard condition with the configuration's
/// current scalar values, so the guard stays meaningful after the scalars go
/// out of scope.
fn resolve_condition(env: &Env, c: &SymCondition) -> SymCondition {
    let resolve = |e: &Expr| -> Expr {
        let mut cur = e.clone();
        for name in e.symbols() {
            if env.has_scalar(&name) {
                if let Some(v) = env.scalar(&name).as_exact() {
                    cur = subst_sym(&cur, &name, v);
                }
            }
        }
        simplify(&cur)
    };
    SymCondition {
        lhs: resolve(&c.lhs),
        op: c.op,
        rhs: resolve(&c.rhs),
    }
}

/// Records the reads of every expression `s` itself evaluates, in
/// evaluation order.
fn record_stmt_reads(s: &Stmt, cfg: &Config, out: &mut DescriptorSet) {
    for e in s.exprs() {
        record_reads(e, cfg, out);
    }
}

fn record_reads(e: &AExpr, cfg: &Config, out: &mut DescriptorSet) {
    match e {
        AExpr::IntLit(_) | AExpr::Var(_) => {}
        AExpr::Index(a, idxs) => {
            for idx in idxs {
                record_reads(idx, cfg, out);
            }
            record_access(a, idxs, false, cfg, out);
        }
        AExpr::Binary(_, x, y) => {
            record_reads(x, cfg, out);
            record_reads(y, cfg, out);
        }
        AExpr::Unary(_, x) => record_reads(x, cfg, out),
    }
}

fn record_access(
    array: &str,
    indices: &[AExpr],
    is_write: bool,
    cfg: &Config,
    out: &mut DescriptorSet,
) {
    let region = if indices.len() == 1 {
        let exact = eval_exact(&cfg.env, &indices[0]);
        if exact != Expr::Bottom {
            AccessRegion::Point(exact)
        } else {
            let r = eval_range(&cfg.env, &indices[0]);
            if r.has_unknown_bound() {
                AccessRegion::Unknown
            } else {
                AccessRegion::Range(r)
            }
        }
    } else {
        AccessRegion::Unknown
    };
    out.accesses.push(IterationAccess {
        array: array.to_string(),
        is_write,
        region,
        guards: cfg.guards.clone(),
        under_unknown_guard: cfg.unknown_guard,
    });
}

/// Summarizes the accesses of a (normalized) inner loop as regions over the
/// outer iteration.
fn summarize_inner_loop(
    inner: &LoopInfo,
    body: &[Stmt],
    cfg: &Config,
    tree: &LoopTree,
    out: &mut DescriptorSet,
) {
    // Resolve the inner bounds with the outer configuration's scalar values.
    let lo = resolve_expr(&cfg.env, &inner.first);
    let hi = resolve_expr(&cfg.env, &inner.last);
    if lo == Expr::Bottom || hi == Expr::Bottom {
        mark_unknown(body, cfg, out);
        out.notes.push(format!(
            "bounds of inner loop {} could not be resolved",
            inner.id
        ));
        return;
    }
    // Collect the inner loop's own per-iteration accesses (in terms of the
    // inner index), then map them through the inner iteration range.
    let mut inner_env = cfg.env.clone();
    // Scalars the inner body itself modifies do not have a single value
    // across its iterations; subscripts through them are unknown.
    for name in assigned_scalars(body) {
        if name != inner.var {
            inner_env.set_scalar(name, SymRange::unknown());
        }
    }
    inner_env.set_scalar(inner.var.clone(), SymRange::exact(Expr::sym(&inner.var)));
    inner_env
        .assumptions
        .assume_range(inner.var.clone(), SymRange::new(lo.clone(), hi.clone()));
    let mut inner_configs = vec![Config {
        env: inner_env,
        guards: cfg.guards.clone(),
        unknown_guard: cfg.unknown_guard,
    }];
    let mut inner_set = DescriptorSet::default();
    walk(body, &mut inner_configs, tree, &mut inner_set);
    out.notes.append(&mut inner_set.notes);
    for acc in inner_set.accesses {
        let region = project_region(&acc.region, &inner.var, &lo, &hi);
        out.accesses.push(IterationAccess {
            array: acc.array,
            is_write: acc.is_write,
            region,
            guards: acc.guards,
            under_unknown_guard: acc.under_unknown_guard,
        });
    }
}

/// Maps a region expressed over an inner index `k ∈ [lo : hi]` to a region
/// over the outer iteration.
fn project_region(region: &AccessRegion, var: &str, lo: &Expr, hi: &Expr) -> AccessRegion {
    match region {
        AccessRegion::Unknown => AccessRegion::Unknown,
        AccessRegion::Point(p) => {
            if !p.contains_sym(var) {
                return AccessRegion::Point(p.clone());
            }
            if let Some((coeff, _)) = affine_in(p, var) {
                let at_lo = simplify(&subst_sym(p, var, lo));
                let at_hi = simplify(&subst_sym(p, var, hi));
                return if coeff >= 0 {
                    AccessRegion::Range(SymRange::new(at_lo, at_hi))
                } else {
                    AccessRegion::Range(SymRange::new(at_hi, at_lo))
                };
            }
            // The Figure 6 shape: an index array applied to the inner index.
            if let Expr::ArrayRef(a, idx) = p {
                if let Some((coeff, _)) = affine_in(idx, var) {
                    let at_lo = simplify(&subst_sym(idx, var, lo));
                    let at_hi = simplify(&subst_sym(idx, var, hi));
                    let range = if coeff >= 0 {
                        SymRange::new(at_lo, at_hi)
                    } else {
                        SymRange::new(at_hi, at_lo)
                    };
                    return AccessRegion::Indirect {
                        array: a.clone(),
                        range,
                    };
                }
            }
            AccessRegion::Unknown
        }
        AccessRegion::Range(r) => {
            let ok = |b: &Expr| -> bool {
                !b.contains_sym(var) || affine_in(b, var).map(|(c, _)| c >= 0).unwrap_or(false)
            };
            if ok(&r.lo) && ok(&r.hi) {
                AccessRegion::Range(SymRange::new(
                    simplify(&subst_sym(&r.lo, var, lo)),
                    simplify(&subst_sym(&r.hi, var, hi)),
                ))
            } else {
                AccessRegion::Unknown
            }
        }
        AccessRegion::Indirect { array, range } => {
            let ok = |b: &Expr| -> bool {
                !b.contains_sym(var) || affine_in(b, var).map(|(c, _)| c >= 0).unwrap_or(false)
            };
            if ok(&range.lo) && ok(&range.hi) {
                AccessRegion::Indirect {
                    array: array.clone(),
                    range: SymRange::new(
                        simplify(&subst_sym(&range.lo, var, lo)),
                        simplify(&subst_sym(&range.hi, var, hi)),
                    ),
                }
            } else {
                AccessRegion::Unknown
            }
        }
    }
}

/// Resolves a symbolic expression with a configuration's exactly-known
/// scalar values.
fn resolve_expr(env: &Env, e: &Expr) -> Expr {
    if *e == Expr::Bottom {
        return Expr::Bottom;
    }
    let mut cur = e.clone();
    for _ in 0..8 {
        let mut changed = false;
        for name in cur.clone().symbols() {
            if env.has_scalar(&name) {
                match env.scalar(&name).as_exact() {
                    Some(v) if !v.contains_sym(&name) => {
                        cur = subst_sym(&cur, &name, v);
                        changed = true;
                    }
                    Some(_) => {}
                    None => return Expr::Bottom,
                }
            }
        }
        if !changed {
            break;
        }
    }
    simplify(&cur)
}

/// Records every access of an unanalyzable construct as an unknown region
/// under an unknown guard: the reads of every expression its statements
/// evaluate, nested headers and conditions included, and every array
/// element they write.
fn mark_unknown(stmts: &[Stmt], cfg: &Config, out: &mut DescriptorSet) {
    let mut unknown = |array: &str, is_write: bool| {
        out.accesses.push(IterationAccess {
            array: array.to_string(),
            is_write,
            region: AccessRegion::Unknown,
            guards: cfg.guards.clone(),
            under_unknown_guard: true,
        })
    };
    for_each_stmt(stmts, &mut |s| {
        for e in s.exprs() {
            e.for_each(&mut |x| {
                if let AExpr::Index(a, _) = x {
                    unknown(a, false);
                }
            });
        }
        if let Stmt::Assign { target, .. } = s {
            if !target.is_scalar() {
                unknown(&target.name, true);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_ir::ast::{BinOp, LoopId};
    use ss_ir::parser::parse_program;

    fn descriptors(src: &str) -> DescriptorSet {
        let p = parse_program("t", src).unwrap();
        let tree = LoopTree::build(&p);
        let info = tree.get(LoopId(0)).unwrap();
        let ss_ir::Stmt::For { body, .. } = &p.body[0] else {
            panic!()
        };
        collect_iteration_accesses(info, body, &tree)
    }

    #[test]
    fn figure2_point_write_through_index_array() {
        let d = descriptors(
            r#"
            for (miel = 0; miel < nelt; miel++) {
                iel = mt_to_id[miel];
                id_to_mt[iel] = miel;
            }
        "#,
        );
        let writes: Vec<_> = d.for_array("id_to_mt");
        assert_eq!(writes.len(), 1);
        assert_eq!(
            writes[0].region,
            AccessRegion::Point(Expr::array_ref("mt_to_id", Expr::sym("miel")))
        );
        assert!(writes[0].is_write);
        // mt_to_id itself is only read
        assert!(d.for_array("mt_to_id").iter().all(|a| !a.is_write));
    }

    #[test]
    fn figure3_inner_loop_becomes_a_range() {
        // The compound form reads its target just as the spelled-out one.
        for update in [
            "colidx[k] = colidx[k] - firstcol;",
            "colidx[k] -= firstcol;",
        ] {
            let d = descriptors(&format!(
                "for (j = 0; j < nrows; j++) {{
                    for (k = rowstr[j]; k < rowstr[j+1]; k++) {{ {update} }}
                }}"
            ));
            let accs = d.for_array("colidx");
            // one read and one write, both covering [rowstr[j] : rowstr[j+1]-1]
            assert_eq!(accs.len(), 2, "{update}");
            assert_eq!(accs.iter().filter(|a| a.is_write).count(), 1, "{update}");
            for a in accs {
                let AccessRegion::Range(r) = &a.region else {
                    panic!("expected range, got {:?}", a.region);
                };
                assert_eq!(r.lo, Expr::array_ref("rowstr", Expr::sym("j")));
                assert_eq!(
                    r.hi,
                    simplify(&Expr::sub(
                        Expr::array_ref("rowstr", Expr::add(Expr::sym("j"), Expr::int(1))),
                        Expr::int(1)
                    ))
                );
            }
        }
    }

    #[test]
    fn figure5_guarded_point_write() {
        let d = descriptors(
            r#"
            for (i = 0; i < m; i++) {
                if (jmatch[i] >= 0) {
                    imatch[jmatch[i]] = i;
                }
            }
        "#,
        );
        let w = &d.for_array("imatch")[0];
        assert!(w.is_write);
        assert_eq!(
            w.region,
            AccessRegion::Point(Expr::array_ref("jmatch", Expr::sym("i")))
        );
        assert_eq!(w.guards.len(), 1);
        assert_eq!(w.guards[0].op, BinOp::Ge);
    }

    #[test]
    fn figure6_indirect_region() {
        let d = descriptors(
            r#"
            for (b = 0; b < nb; b++) {
                for (k = r[b]; k < r[b+1]; k++) {
                    Blk[p[k]] = b;
                }
            }
        "#,
        );
        let w = &d.for_array("Blk")[0];
        let AccessRegion::Indirect { array, range } = &w.region else {
            panic!("expected indirect region, got {:?}", w.region);
        };
        assert_eq!(array, "p");
        assert_eq!(range.lo, Expr::array_ref("r", Expr::sym("b")));
    }

    #[test]
    fn figure9_product_loop_splits_on_the_first_iteration_guard() {
        let d = descriptors(
            r#"
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
        "#,
        );
        let writes: Vec<_> = d
            .for_array("product_array")
            .into_iter()
            .filter(|a| a.is_write)
            .collect();
        // Two configurations: i == 0 (j1 = i, and i is pinned to 0) and
        // i != 0 (j1 = rowptr[i-1]).
        assert_eq!(writes.len(), 2);
        let first_iter = writes
            .iter()
            .find(|w| w.guards[0].op == BinOp::Eq)
            .expect("i == 0 configuration");
        let AccessRegion::Range(r0) = &first_iter.region else {
            panic!()
        };
        assert_eq!(r0.lo, Expr::Int(0));
        assert_eq!(
            r0.hi,
            simplify(&Expr::sub(
                Expr::array_ref("rowptr", Expr::int(0)),
                Expr::int(1)
            ))
        );
        let rest = writes
            .iter()
            .find(|w| w.guards[0].op == BinOp::Ne)
            .expect("i != 0 configuration");
        let AccessRegion::Range(r1) = &rest.region else {
            panic!()
        };
        assert_eq!(
            r1.lo,
            Expr::array_ref("rowptr", Expr::add(Expr::Int(-1), Expr::sym("i")))
        );
        // The read inside the `else` branch carries the negated guard.
        let else_read = d
            .for_array("rowptr")
            .into_iter()
            .find(|a| a.region == AccessRegion::Point(Expr::add(Expr::Int(-1), Expr::sym("i"))))
            .expect("rowptr[i-1] read");
        assert!(!else_read.is_write);
        assert_eq!(else_read.guards.len(), 1);
        assert_eq!(else_read.guards[0].op, BinOp::Ne);
        assert_eq!(
            r1.hi,
            simplify(&Expr::sub(
                Expr::array_ref("rowptr", Expr::sym("i")),
                Expr::int(1)
            ))
        );
    }

    #[test]
    fn unknown_constructs_are_marked() {
        let d = descriptors(
            r#"
            for (i = 0; i < n; i++) {
                while (q[i] > 0) {
                    out[q[i]] = i;
                }
            }
        "#,
        );
        let w = &d.for_array("out")[0];
        assert_eq!(w.region, AccessRegion::Unknown);
        assert!(!d.notes.is_empty());
    }

    #[test]
    fn extents_and_inner_headers_are_read_once_per_iteration() {
        let d = descriptors(
            "for (i = 0; i < n; i++) { int t[x[i]]; for (k = y[i]; k < y[i + 1]; k++) { s = k; } }",
        );
        let reads = |array: &str| -> Vec<AccessRegion> {
            (d.for_array(array).into_iter())
                .map(|a| {
                    assert!(!a.is_write);
                    a.region.clone()
                })
                .collect()
        };
        assert_eq!(reads("x"), vec![AccessRegion::Point(Expr::sym("i"))]);
        let next = simplify(&Expr::add(Expr::sym("i"), Expr::int(1)));
        assert_eq!(
            reads("y"),
            vec![
                AccessRegion::Point(Expr::sym("i")),
                AccessRegion::Point(next)
            ]
        );
    }

    #[test]
    fn reads_of_unanalyzable_constructs_are_unknown() {
        for src in [
            // A `while` condition and a `while` body.
            "for (i = 0; i < n; i++) { while (k < x[i]) { k = k + 1; } }",
            "for (i = 0; i < n; i++) { while (k < 1) { s = x[i]; k = k + 1; } }",
            // The body of a non-canonical `for`, and of one whose bounds do
            // not resolve (`m` has no exact value).
            "for (i = 0; i < n; i++) { for (k = 0; k < 8; k += 2) { s = x[k]; } }",
            "for (i = 0; i < n; i++) { int m; for (k = 0; k < m; k++) { s = x[k]; } }",
            // A header nested in a `while`.
            "for (i = 0; i < n; i++) { while (k < 1) { for (j = 0; j < x[i]; j++) { } k = 1; } }",
        ] {
            let d = descriptors(src);
            let x = d.for_array("x");
            assert_eq!(x.len(), 1, "{src}");
            assert!(!x[0].is_write, "{src}");
            assert_eq!(x[0].region, AccessRegion::Unknown, "{src}");
            assert!(x[0].under_unknown_guard, "{src}");
        }
    }

    #[test]
    fn two_dimensional_targets_are_unknown() {
        let d = descriptors("for (i = 0; i < n; i++) { grid[i][0] = 1; }");
        assert_eq!(d.for_array("grid")[0].region, AccessRegion::Unknown);
    }
}
