//! Loop-nest utilities: normalized loop descriptions and the loop tree.
//!
//! The analysis of Section 3 walks loop nests *inside out*; the dependence
//! test of Section 5 needs, for every loop, its index variable and symbolic
//! iteration range.  This module extracts both from the AST.

use crate::ast::{AExpr, BinOp, LoopId, Program, Stmt};
use crate::convert::to_symbolic;
use ss_symbolic::{simplify, Expr, SymRange};

/// A normalized description of a counted loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopInfo {
    /// The loop's id.
    pub id: LoopId,
    /// Index variable name.
    pub var: String,
    /// First value of the index variable.
    pub first: Expr,
    /// Last value of the index variable (inclusive), derived from the exit
    /// test; `⊥` for loops the analysis cannot normalize (e.g. `while`).
    pub last: Expr,
    /// Step (only unit steps are fully analyzed; larger constant steps are
    /// kept for the dependence test).
    pub step: Expr,
    /// Whether the loop is a canonical counted `for` loop with constant
    /// positive step.
    pub is_normalized: bool,
    /// Nesting depth (0 = outermost).
    pub depth: usize,
    /// Id of the directly enclosing loop, if any.
    pub parent: Option<LoopId>,
    /// `#pragma` annotations attached in the source (the manual-parallel
    /// oracle).
    pub pragmas: Vec<String>,
}

impl LoopInfo {
    /// The symbolic iteration range `[first : last]` of the index variable.
    pub fn index_range(&self) -> SymRange {
        SymRange::new(self.first.clone(), self.last.clone())
    }

    /// Symbolic trip count `last - first + 1` (unit-step loops only).
    pub fn trip_count(&self) -> Expr {
        if self.last == Expr::Bottom || self.first == Expr::Bottom {
            return Expr::Bottom;
        }
        simplify(&Expr::add(
            Expr::sub(self.last.clone(), self.first.clone()),
            Expr::Int(1),
        ))
    }

    /// True if the source carries an `omp parallel` pragma for this loop —
    /// i.e. a human parallelized it manually. Used as the oracle in the
    /// Figure 1 style study.
    pub fn manually_parallel(&self) -> bool {
        self.pragmas
            .iter()
            .any(|p| p.contains("omp") && p.contains("parallel"))
    }
}

/// The loop tree of a program: every loop's [`LoopInfo`] plus parent/child
/// relations, in program (pre-)order.
#[derive(Debug, Clone, Default)]
pub struct LoopTree {
    /// All loops in program order.
    pub loops: Vec<LoopInfo>,
}

impl LoopTree {
    /// Builds the loop tree of a program.
    pub fn build(program: &Program) -> LoopTree {
        let mut loops = Vec::new();
        collect(&program.body, 0, None, &mut loops);
        LoopTree { loops }
    }

    /// Looks up a loop by id.
    pub fn get(&self, id: LoopId) -> Option<&LoopInfo> {
        self.loops.iter().find(|l| l.id == id)
    }

    /// All loops directly nested inside `id`.
    pub fn children(&self, id: LoopId) -> Vec<&LoopInfo> {
        self.loops.iter().filter(|l| l.parent == Some(id)).collect()
    }

    /// Outermost loops (no enclosing loop).
    pub fn outermost(&self) -> Vec<&LoopInfo> {
        self.loops.iter().filter(|l| l.parent.is_none()).collect()
    }
}

fn collect(stmts: &[Stmt], depth: usize, parent: Option<LoopId>, out: &mut Vec<LoopInfo>) {
    for s in stmts {
        match s {
            Stmt::For {
                id,
                var,
                init,
                cond_op,
                bound,
                step,
                body,
                pragmas,
            } => {
                let info = normalize_for(
                    *id, var, init, *cond_op, bound, step, pragmas, depth, parent,
                );
                out.push(info);
                collect(body, depth + 1, Some(*id), out);
            }
            Stmt::While { id, body, .. } => {
                out.push(LoopInfo {
                    id: *id,
                    var: String::new(),
                    first: Expr::Bottom,
                    last: Expr::Bottom,
                    step: Expr::Bottom,
                    is_normalized: false,
                    depth,
                    parent,
                    pragmas: Vec::new(),
                });
                collect(body, depth + 1, Some(*id), out);
            }
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                collect(then_branch, depth, parent, out);
                collect(else_branch, depth, parent, out);
            }
            Stmt::Decl { .. } | Stmt::Assign { .. } => {}
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn normalize_for(
    id: LoopId,
    var: &str,
    init: &AExpr,
    cond_op: BinOp,
    bound: &AExpr,
    step: &AExpr,
    pragmas: &[String],
    depth: usize,
    parent: Option<LoopId>,
) -> LoopInfo {
    let first = to_symbolic(init);
    let bound_sym = to_symbolic(bound);
    let step_sym = to_symbolic(step);
    let step_const = simplify(&step_sym).as_int();
    // Only increasing loops with `<` or `<=` exit tests and constant positive
    // step are normalized; everything else is analyzed conservatively.
    let normalizable = matches!(cond_op, BinOp::Lt | BinOp::Le)
        && step_const.map(|k| k > 0).unwrap_or(false)
        && first != Expr::Bottom
        && bound_sym != Expr::Bottom;
    let last = if normalizable {
        match cond_op {
            BinOp::Lt => simplify(&Expr::sub(bound_sym.clone(), Expr::Int(1))),
            BinOp::Le => simplify(&bound_sym),
            _ => unreachable!(),
        }
    } else {
        Expr::Bottom
    };
    LoopInfo {
        id,
        var: var.to_string(),
        first: simplify(&first),
        last,
        step: simplify(&step_sym),
        is_normalized: normalizable && step_const == Some(1),
        depth,
        parent,
        pragmas: pragmas.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn tree(src: &str) -> LoopTree {
        LoopTree::build(&parse_program("t", src).unwrap())
    }

    #[test]
    fn builds_nested_tree_with_ranges() {
        let t = tree(
            r#"
            for (j = 0; j < lastrow - firstrow + 1; j++) {
                for (k = rowstr[j]; k < rowstr[j+1]; k++) {
                    colidx[k] = colidx[k] - firstcol;
                }
            }
        "#,
        );
        assert_eq!(t.loops.len(), 2);
        let outer = t.get(LoopId(0)).unwrap();
        let inner = t.get(LoopId(1)).unwrap();
        assert_eq!(outer.var, "j");
        assert_eq!(outer.depth, 0);
        assert!(outer.is_normalized);
        assert_eq!(outer.first, Expr::Int(0));
        // last = lastrow - firstrow + 1 - 1 = lastrow - firstrow
        assert_eq!(
            outer.last,
            simplify(&Expr::sub(Expr::sym("lastrow"), Expr::sym("firstrow")))
        );
        assert_eq!(inner.parent, Some(LoopId(0)));
        assert_eq!(inner.depth, 1);
        assert_eq!(inner.first, Expr::array_ref("rowstr", Expr::sym("j")));
        assert_eq!(
            inner.last,
            simplify(&Expr::sub(
                Expr::array_ref("rowstr", Expr::add(Expr::sym("j"), Expr::int(1))),
                Expr::int(1)
            ))
        );
        assert_eq!(t.children(LoopId(0)).len(), 1);
        assert_eq!(t.outermost().len(), 1);
    }

    #[test]
    fn le_bound_and_strided_step() {
        let t = tree("for (i = 1; i <= ROWLEN; i++) { rowptr[i] = 0; }");
        let l = t.get(LoopId(0)).unwrap();
        assert!(l.is_normalized);
        assert_eq!(l.first, Expr::Int(1));
        assert_eq!(l.last, Expr::sym("ROWLEN"));
        assert_eq!(l.trip_count(), Expr::sym("ROWLEN"));
        let t = tree("for (i = 0; i < n; i += 2) { a[i] = 0; }");
        let l = t.get(LoopId(0)).unwrap();
        assert!(!l.is_normalized); // non-unit step
        assert_eq!(l.step, Expr::Int(2));
        assert_eq!(l.last, simplify(&Expr::sub(Expr::sym("n"), Expr::int(1))));
    }

    #[test]
    fn while_and_decreasing_loops_are_not_normalized() {
        let t = tree("while (x < n) { x = x + 1; }");
        assert!(!t.loops[0].is_normalized);
        assert_eq!(t.loops[0].last, Expr::Bottom);
        let t = tree("for (i = n; i > 0; i = i - 1) { a[i] = 0; }");
        assert!(!t.loops[0].is_normalized);
        assert_eq!(t.loops[0].trip_count(), Expr::Bottom);
    }

    #[test]
    fn loops_inside_if_branches_keep_outer_parent() {
        let t = tree(
            r#"
            for (i = 0; i < n; i++) {
                if (c[i] > 0) {
                    for (j = 0; j < m; j++) { a[j] = 0; }
                } else {
                    for (k = 0; k < m; k++) { b[k] = 0; }
                }
            }
        "#,
        );
        assert_eq!(t.loops.len(), 3);
        assert_eq!(t.get(LoopId(1)).unwrap().parent, Some(LoopId(0)));
        assert_eq!(t.get(LoopId(2)).unwrap().parent, Some(LoopId(0)));
        assert_eq!(t.children(LoopId(0)).len(), 2);
    }

    #[test]
    fn manual_parallel_oracle() {
        let t = tree(
            "#pragma omp parallel for\nfor (i = 0; i < n; i++) { a[i] = 0; }\nfor (j = 0; j < n; j++) { b[j] = 0; }",
        );
        assert!(t.get(LoopId(0)).unwrap().manually_parallel());
        assert!(!t.get(LoopId(1)).unwrap().manually_parallel());
    }
}
