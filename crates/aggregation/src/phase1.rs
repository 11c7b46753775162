//! Phase 1: the effect of a single loop iteration (Section 3.3).
//!
//! Phase 1 abstractly interprets one iteration of a loop body.  Scalars the
//! body assigns are initialized to `λ(name)` — their (unknown) value at the
//! beginning of the iteration — so that the resulting value expressions
//! expose recurrences such as `count: [λ : λ+1]`.  Array writes are recorded
//! with their symbolic subscripts and value ranges.  Nested loops must
//! already be collapsed; their summaries are applied through the
//! [`ss_rangeprop::LoopHandler`] hook.

use ss_ir::ast::{assigned_scalars, Stmt};
use ss_ir::loops::LoopInfo;
use ss_rangeprop::{analyze_block, Env, LoopHandler, WriteRecord};
use ss_symbolic::{Expr, SymRange};
use std::collections::HashMap;

/// The per-iteration effect of a loop.
#[derive(Debug, Clone)]
pub struct Phase1Result {
    /// The loop this result describes.
    pub info: LoopInfo,
    /// Value ranges of the scalars assigned in the body, at the end of one
    /// iteration, over `λ(..)`, the loop index and loop-invariant symbols.
    pub scalars: HashMap<String, SymRange>,
    /// Array writes performed by one iteration, in program order.
    pub writes: Vec<WriteRecord>,
    /// The environment at the end of the iteration (used by Phase 2 for
    /// relational queries).
    pub exit_env: Env,
}

impl Phase1Result {
    /// The per-iteration value range of a scalar (λ-relative), if the body
    /// assigns it.
    pub fn scalar(&self, name: &str) -> Option<&SymRange> {
        self.scalars.get(name)
    }

    /// The writes that target a given array.
    pub fn writes_to(&self, array: &str) -> Vec<&WriteRecord> {
        self.writes.iter().filter(|w| w.array == array).collect()
    }
}

/// Runs Phase 1 on a loop.
///
/// * `info` — the normalized loop description;
/// * `body` — the loop body statements;
/// * `entry_env` — the environment at loop entry (facts established by the
///   code before the loop, e.g. known element-value ranges of arrays);
/// * `handler` — supplies collapsed summaries for nested loops.
pub fn phase1(
    info: &LoopInfo,
    body: &[Stmt],
    entry_env: &Env,
    handler: &dyn LoopHandler,
) -> Phase1Result {
    let mut env = entry_env.clone();
    // Scalars assigned in the body start the iteration at λ(name).
    let written = assigned_scalars(body);
    for name in &written {
        if name == &info.var {
            continue;
        }
        env.set_scalar(name.clone(), SymRange::exact(Expr::lambda(name)));
    }
    // The loop index reads as itself and carries its iteration-range
    // assumption, so that relational queries ("is i >= 1?") can be answered.
    if !info.var.is_empty() {
        env.set_scalar(info.var.clone(), SymRange::exact(Expr::sym(&info.var)));
        if info.first != Expr::Bottom && info.last != Expr::Bottom {
            env.assumptions
                .assume_range(info.var.clone(), info.index_range());
        }
    }
    let out = analyze_block(body, env, handler);
    let mut scalars = HashMap::new();
    for name in &written {
        if name == &info.var {
            continue;
        }
        scalars.insert(name.clone(), out.env.scalar(name));
    }
    Phase1Result {
        info: info.clone(),
        scalars,
        writes: out.writes,
        exit_env: out.env,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_ir::loops::LoopTree;
    use ss_ir::parser::parse_program;
    use ss_rangeprop::NoSummaries;
    use ss_symbolic::simplify;

    fn setup(src: &str) -> (ss_ir::Program, LoopTree) {
        let p = parse_program("t", src).unwrap();
        let t = LoopTree::build(&p);
        (p, t)
    }

    #[test]
    fn paper_phase1_of_loop3() {
        // The j-loop of Figure 9 (lines 3–8): count: [λ : λ+1],
        // column_number/value: ⊥.
        let (p, t) = setup(
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
        let info = t.get(ss_ir::LoopId(0)).unwrap();
        let ss_ir::Stmt::For { body, .. } = &p.body[0] else {
            panic!()
        };
        let r = phase1(info, body, &Env::new(), &NoSummaries);
        let count = r.scalar("count").unwrap();
        assert_eq!(count.lo, Expr::lambda("count"));
        assert_eq!(
            count.hi,
            simplify(&Expr::add(Expr::lambda("count"), Expr::int(1)))
        );
        // column_number's write is under an unknown guard with a λ-valued
        // subscript: effectively ⊥ for the aggregation step.
        let col = r.writes_to("column_number")[0];
        assert!(col.under_unknown_guard);
        assert_eq!(col.subscript, Expr::lambda("index"));
        // index advanced by [0:1] as well
        let index = r.scalar("index").unwrap();
        assert_eq!(index.lo, Expr::lambda("index"));
    }

    #[test]
    fn paper_phase1_of_loop13() {
        // rowptr[i] = rowptr[i-1] + rowsize[i-1], with rowsize's value range
        // known at entry: Phase 1 yields
        //   rowptr: [i], rowptr[i-1] + [0 : COLUMNLEN-1]
        let (p, t) = setup(
            r#"
            for (i = 1; i < ROWLEN + 1; i++) {
                rowptr[i] = rowptr[i-1] + rowsize[i-1];
            }
        "#,
        );
        let info = t.get(ss_ir::LoopId(0)).unwrap();
        let ss_ir::Stmt::For { body, .. } = &p.body[0] else {
            panic!()
        };
        let mut entry = Env::new();
        entry.set_array_value(
            "rowsize",
            SymRange::new(
                Expr::int(0),
                Expr::sub(Expr::sym("COLUMNLEN"), Expr::int(1)),
            ),
        );
        let r = phase1(info, body, &entry, &NoSummaries);
        assert_eq!(r.writes.len(), 1);
        let w = &r.writes[0];
        assert_eq!(w.array, "rowptr");
        assert_eq!(w.subscript, Expr::sym("i"));
        assert_eq!(
            w.value.lo,
            Expr::array_ref("rowptr", Expr::add(Expr::Int(-1), Expr::sym("i")))
        );
        assert!(w.value.hi.contains_sym("COLUMNLEN"));
        assert!(w.is_unconditional());
    }

    #[test]
    fn loop_index_carries_range_assumption() {
        let (p, t) = setup("for (i = 1; i < n; i++) { x = i - 1; }");
        let info = t.get(ss_ir::LoopId(0)).unwrap();
        let ss_ir::Stmt::For { body, .. } = &p.body[0] else {
            panic!()
        };
        let r = phase1(info, body, &Env::new(), &NoSummaries);
        // i - 1 >= 0 is provable from the index range [1 : n-1]
        assert!(r
            .exit_env
            .assumptions
            .prove_nonneg(&Expr::sub(Expr::sym("i"), Expr::int(1)))
            .is_proven());
        assert_eq!(
            r.scalar("x").unwrap().as_exact(),
            Some(&simplify(&Expr::sub(Expr::sym("i"), Expr::int(1))))
        );
    }
}
