//! Whole-program driver: inside-out loop collapsing in program order
//! (Section 3.1), producing the property database consumed by the
//! dependence test.
//!
//! The driver walks the top-level statements in program order, maintaining a
//! symbolic environment.  When it reaches a loop nest it collapses the nest
//! inside out — Phase 1 then Phase 2 per loop, innermost first — registering
//! every collapsed loop in a summary table.  Nested loops encountered during
//! an outer loop's Phase 1 are replaced by their summaries (instantiated at
//! the values live at that point), exactly as the paper prescribes.

use crate::phase1::{phase1, Phase1Result};
use crate::phase2::{instantiate_at_entry, phase2, CollapsedLoop};
use ss_ir::ast::{for_each_stmt, LoopId, Program, Stmt};
use ss_ir::loops::LoopTree;
use ss_properties::{ArrayFact, PropertyDatabase};
use ss_rangeprop::{analyze_block, Env, LoopHandler, WriteRecord};
use ss_symbolic::{Expr, SymRange};
use std::collections::HashMap;

/// The complete result of analyzing a program.
#[derive(Debug, Clone)]
pub struct ProgramAnalysis {
    /// Facts available at the end of the program.
    pub db: PropertyDatabase,
    /// Facts available at the entry of each loop (what the dependence test
    /// for that loop may use).
    pub db_at_loop: HashMap<LoopId, PropertyDatabase>,
    /// Every collapsed loop.
    pub collapsed: HashMap<LoopId, CollapsedLoop>,
    /// Phase 1 summaries (kept for reporting / debugging — these are the
    /// values the paper's Section 3.5 trace lists).
    pub phase1: HashMap<LoopId, Phase1Result>,
    /// The symbolic environment after the last statement.
    pub final_env: Env,
    /// The loop tree of the analyzed program.
    pub tree: LoopTree,
}

impl ProgramAnalysis {
    /// The property database to use when testing the given loop.
    pub fn db_for_loop(&self, id: LoopId) -> &PropertyDatabase {
        self.db_at_loop.get(&id).unwrap_or(&self.db)
    }
}

/// Applies collapsed-loop summaries when an outer loop's Phase 1 encounters a
/// nested loop.
struct SummaryHandler<'a> {
    collapsed: &'a HashMap<LoopId, CollapsedLoop>,
}

impl LoopHandler for SummaryHandler<'_> {
    fn apply(&self, id: LoopId, env: &mut Env, writes: &mut Vec<WriteRecord>) -> bool {
        let Some(summary) = self.collapsed.get(&id) else {
            return false;
        };
        apply_summary(summary, env, writes);
        true
    }
}

/// Applies a collapsed loop's effect to an environment, recording its array
/// writes.
pub fn apply_summary(summary: &CollapsedLoop, env: &mut Env, writes: &mut Vec<WriteRecord>) {
    // The snapshot used to instantiate Λ placeholders: the environment at
    // the loop's entry, i.e. before any of its effects are applied.
    let entry_snapshot = env.clone();
    for (name, range) in &summary.scalar_exit {
        let inst = instantiate_at_entry(range, &entry_snapshot);
        env.set_scalar(name.clone(), inst);
    }
    for name in &summary.clobbered_scalars {
        env.set_scalar(name.clone(), SymRange::unknown());
    }
    if !summary.index_var.is_empty() {
        // The index variable's value after the loop is not tracked.
        env.set_scalar(summary.index_var.clone(), SymRange::unknown());
    }
    for fact in &summary.array_facts {
        let index_range = instantiate_at_entry(&fact.index_range, &entry_snapshot);
        let value_range = fact
            .value_range
            .as_ref()
            .map(|r| instantiate_at_entry(r, &entry_snapshot));
        if let Some(vr) = &value_range {
            env.set_array_value(fact.array.clone(), vr.clone());
        } else {
            env.clear_array_value(&fact.array);
        }
        writes.push(WriteRecord {
            array: fact.array.clone(),
            subscript: Expr::Bottom,
            subscript_range: index_range,
            value: value_range.unwrap_or_else(SymRange::unknown),
            value_exact: Expr::Bottom,
            guards: Vec::new(),
            under_unknown_guard: true,
        });
    }
    for array in &summary.clobbered_arrays {
        env.clear_array_value(array);
        writes.push(WriteRecord {
            array: array.clone(),
            subscript: Expr::Bottom,
            subscript_range: SymRange::unknown(),
            value: SymRange::unknown(),
            value_exact: Expr::Bottom,
            guards: Vec::new(),
            under_unknown_guard: true,
        });
    }
}

/// Analyzes a whole program: collapses every loop nest in program order and
/// builds the property database.
pub fn analyze_program(program: &Program) -> ProgramAnalysis {
    let tree = LoopTree::build(program);
    let mut analysis = ProgramAnalysis {
        db: PropertyDatabase::new(),
        db_at_loop: HashMap::new(),
        collapsed: HashMap::new(),
        phase1: HashMap::new(),
        final_env: Env::new(),
        tree,
    };
    let mut env = Env::new();
    process_stmts(&program.body, &mut env, &mut analysis);
    // Record final scalar ranges in the database for reporting.
    for name in env.scalar_names() {
        let r = env.scalar(name);
        if !r.is_unknown() {
            analysis.db.set_scalar_range(name.clone(), r);
        }
    }
    analysis.final_env = env;
    analysis
}

fn process_stmts(stmts: &[Stmt], env: &mut Env, analysis: &mut ProgramAnalysis) {
    for s in stmts {
        // Snapshot the database for every loop contained in this statement:
        // those are the facts available when that loop is dependence-tested.
        let mut contained = Vec::new();
        for_each_stmt(std::slice::from_ref(s), &mut |x| {
            contained.extend(x.loop_id())
        });
        for id in &contained {
            analysis.db_at_loop.insert(*id, analysis.db.clone());
        }
        // Collapse every loop inside the statement, innermost first.
        collapse_loops_in_stmt(s, env, analysis);
        // Interpret the statement itself (loops are applied via their
        // summaries).
        let handler = SummaryHandler {
            collapsed: &analysis.collapsed,
        };
        let result = analyze_block(std::slice::from_ref(s), env.clone(), &handler);
        *env = result.env;
        // Soundness: forget facts about arrays this statement modified in
        // ways the analysis could not summarize, *before* publishing any
        // facts the statement newly established.
        invalidate_overwritten(s, &contained, analysis);
        // Publish the facts of top-level loops into the running database.
        if let Some(id) = s.loop_id() {
            if let Some(summary) = analysis.collapsed.get(&id) {
                publish_facts(summary, env, &mut analysis.db);
            }
        }
    }
}

/// Removes database facts invalidated by this statement: arrays that any
/// collapsed loop inside it clobbered, and arrays written directly by
/// non-loop statements (a single-element update after a property-creating
/// loop may break the property; the conservative response is to forget it).
fn invalidate_overwritten(s: &Stmt, contained: &[LoopId], analysis: &mut ProgramAnalysis) {
    let mut touched: Vec<String> = Vec::new();
    for id in contained {
        if let Some(summary) = analysis.collapsed.get(id) {
            touched.extend(summary.clobbered_arrays.iter().cloned());
        }
    }
    collect_plain_array_writes(s, &mut touched);
    for array in touched {
        analysis.db.invalidate_array(&array);
    }
}

/// Array names written by assignments that are not inside any loop of this
/// statement (writes inside loops are accounted for by the loop summaries).
fn collect_plain_array_writes(s: &Stmt, out: &mut Vec<String>) {
    match s {
        Stmt::Assign { target, .. } if !target.is_scalar() => out.push(target.name.clone()),
        Stmt::If {
            then_branch,
            else_branch,
            ..
        } => {
            for child in then_branch.iter().chain(else_branch.iter()) {
                collect_plain_array_writes(child, out);
            }
        }
        _ => {}
    }
}

fn collapse_loops_in_stmt(s: &Stmt, env: &Env, analysis: &mut ProgramAnalysis) {
    match s {
        Stmt::For { id, body, .. } | Stmt::While { id, body, .. } => {
            // Inner loops first (inside-out).
            for child in body {
                collapse_loops_in_stmt(child, env, analysis);
            }
            let info = analysis
                .tree
                .get(*id)
                .expect("loop id must be in the tree")
                .clone();
            let handler = SummaryHandler {
                collapsed: &analysis.collapsed,
            };
            let p1 = phase1(&info, body, env, &handler);
            let summary = phase2(&p1, env);
            analysis.phase1.insert(*id, p1);
            analysis.collapsed.insert(*id, summary);
        }
        Stmt::If {
            then_branch,
            else_branch,
            ..
        } => {
            for child in then_branch.iter().chain(else_branch.iter()) {
                collapse_loops_in_stmt(child, env, analysis);
            }
        }
        Stmt::Decl { .. } | Stmt::Assign { .. } => {}
    }
}

fn publish_facts(summary: &CollapsedLoop, env: &Env, db: &mut PropertyDatabase) {
    for fact in &summary.array_facts {
        let instantiated = ArrayFact {
            array: fact.array.clone(),
            index_range: instantiate_at_entry(&fact.index_range, env),
            value_range: fact
                .value_range
                .as_ref()
                .map(|r| instantiate_at_entry(r, env)),
            properties: fact.properties.clone(),
            guarded: fact.guarded.clone(),
            origin: fact.origin.clone(),
        };
        db.insert(instantiated);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_ir::parser::parse_program;
    use ss_properties::ArrayProperty;
    use ss_symbolic::simplify;

    /// The full Figure 9 program (lines 1–15: the CSR filling code).
    const FIGURE9_FILL: &str = r#"
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
    "#;

    #[test]
    fn figure9_full_pipeline_derives_rowptr_monotonicity() {
        let p = parse_program("fig9_fill", FIGURE9_FILL).unwrap();
        let analysis = analyze_program(&p);
        // The paper's key result: rowptr: [1 : ROWLEN], Monotonic_inc.
        assert!(analysis
            .db
            .has_property("rowptr", ArrayProperty::MonotonicInc));
        let fact = analysis.db.fact("rowptr").unwrap();
        assert_eq!(fact.index_range.lo, Expr::Int(1));
        assert_eq!(fact.index_range.hi, Expr::sym("ROWLEN"));
        // And the supporting fact: rowsize: [0 : ROWLEN-1], values
        // [0 : COLUMNLEN], non-negative.  (The paper's Section 3.5 trace
        // quotes COLUMNLEN-1 for this bound; with n = COLUMNLEN iterations of
        // a `λ+1` recurrence the sound aggregate is Λ + COLUMNLEN, which is
        // what we produce — a slightly wider but still correct envelope.)
        let rowsize = analysis.db.fact("rowsize").unwrap();
        assert!(rowsize.has(ArrayProperty::NonNegative));
        let vr = rowsize.value_range.as_ref().unwrap();
        assert_eq!(vr.lo, Expr::Int(0));
        assert_eq!(vr.hi, Expr::sym("COLUMNLEN"));
        assert_eq!(
            rowsize.index_range.hi,
            simplify(&Expr::sub(Expr::sym("ROWLEN"), Expr::int(1)))
        );
    }

    #[test]
    fn figure9_phase_trace_matches_paper_section_3_5() {
        let p = parse_program("fig9_fill", FIGURE9_FILL).unwrap();
        let analysis = analyze_program(&p);
        // Phase 1 (inner j-loop, id 1): count: [λ : λ+1]
        let p1_inner = &analysis.phase1[&LoopId(1)];
        let count = p1_inner.scalar("count").unwrap();
        assert_eq!(count.lo, Expr::lambda("count"));
        assert_eq!(
            count.hi,
            simplify(&Expr::add(Expr::lambda("count"), Expr::int(1)))
        );
        // Phase 2 (inner): count: [Λ : Λ + COLUMNLEN]
        let c_inner = &analysis.collapsed[&LoopId(1)];
        let count_exit = &c_inner.scalar_exit["count"];
        assert_eq!(count_exit.lo, Expr::big_lambda("count"));
        assert_eq!(
            count_exit.hi,
            simplify(&Expr::add(
                Expr::big_lambda("count"),
                Expr::sym("COLUMNLEN")
            ))
        );
        // Phase 1 (outer i-loop, id 0): rowsize: [i], [0 : COLUMNLEN]
        // (see the note above about the paper's COLUMNLEN-1).
        let p1_outer = &analysis.phase1[&LoopId(0)];
        let w = p1_outer.writes_to("rowsize")[0];
        assert_eq!(w.subscript, Expr::sym("i"));
        assert_eq!(w.value.lo, Expr::Int(0));
        assert_eq!(w.value.hi, Expr::sym("COLUMNLEN"));
        // Phase 2 (outer): rowsize: [0 : ROWLEN-1], [0 : COLUMNLEN-1]
        let c_outer = &analysis.collapsed[&LoopId(0)];
        let rowsize = c_outer.fact("rowsize").unwrap();
        assert_eq!(rowsize.index_range.lo, Expr::Int(0));
        // Phase 1 (rowptr loop, id 2): rowptr: [i], rowptr[i-1] + [0 : COLUMNLEN-1]
        let p1_rowptr = &analysis.phase1[&LoopId(2)];
        let w = p1_rowptr.writes_to("rowptr")[0];
        assert_eq!(
            w.value.lo,
            Expr::array_ref("rowptr", Expr::add(Expr::Int(-1), Expr::sym("i")))
        );
        // Phase 2 (rowptr loop): rowptr: [1 : ROWLEN], Monotonic_inc
        let c_rowptr = &analysis.collapsed[&LoopId(2)];
        assert!(c_rowptr
            .fact("rowptr")
            .unwrap()
            .has(ArrayProperty::MonotonicInc));
    }

    #[test]
    fn db_snapshots_reflect_program_order() {
        let p = parse_program(
            "t",
            r#"
            for (k = 0; k < n; k++) { perm[k] = k; }
            for (i = 0; i < n; i++) { out[perm[i]] = i; }
        "#,
        )
        .unwrap();
        let analysis = analyze_program(&p);
        // When testing the second loop, perm's injectivity is already known.
        let db1 = analysis.db_for_loop(LoopId(1));
        assert!(db1.has_property("perm", ArrayProperty::Injective));
        // When testing the first loop, nothing is known yet.
        let db0 = analysis.db_for_loop(LoopId(0));
        assert!(!db0.has_property("perm", ArrayProperty::Injective));
    }

    #[test]
    fn index_gathering_fill_produces_injectivity_for_csr_style_arrays() {
        // Figure 6 substrate: blocksize is a count (non-negative by
        // construction), r is its prefix sum (a CSR-style row pointer), p is
        // an index-gathering permutation.
        let p = parse_program(
            "fig6_fill",
            r#"
            for (b = 0; b < nb; b++) {
                bs = 0;
                for (t = 0; t < bmax; t++) {
                    if (members[b][t] > 0) {
                        bs++;
                    }
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
        "#,
        )
        .unwrap();
        let analysis = analyze_program(&p);
        assert!(analysis
            .db
            .has_property("blocksize", ArrayProperty::NonNegative));
        assert!(analysis.db.has_property("r", ArrayProperty::MonotonicInc));
        assert!(analysis.db.has_property("p", ArrayProperty::Injective));
        assert!(analysis.db.has_property("p", ArrayProperty::Identity));
    }

    #[test]
    fn scalars_surviving_loops_have_ranges_in_the_database() {
        let p = parse_program(
            "t",
            r#"
            total = 0;
            for (i = 0; i < n; i++) {
                total++;
            }
        "#,
        )
        .unwrap();
        let analysis = analyze_program(&p);
        let r = analysis.db.scalar_range("total").unwrap();
        // total = 0 + n * 1 = n after the loop (both bounds).
        assert_eq!(r.lo, Expr::sym("n"));
        assert_eq!(r.hi, Expr::sym("n"));
    }

    #[test]
    fn later_unanalyzable_writes_invalidate_earlier_facts() {
        // perm's injectivity (from the identity fill) must not survive the
        // scatter update `perm[swap[t]] = other[t]`, nor a plain
        // single-element write of unknown value.
        let p = parse_program(
            "t",
            r#"
            for (k = 0; k < n; k++) { perm[k] = k; }
            for (t = 0; t < nswaps; t++) { perm[swap[t]] = other[t]; }
        "#,
        )
        .unwrap();
        let analysis = analyze_program(&p);
        assert!(analysis
            .db_for_loop(LoopId(1))
            .has_property("perm", ArrayProperty::Injective));
        assert!(!analysis.db.has_property("perm", ArrayProperty::Injective));

        let p = parse_program(
            "t",
            r#"
            for (k = 0; k < n; k++) { perm[k] = k; }
            perm[3] = unknown_value;
            for (i = 0; i < n; i++) { out[perm[i]] = i; }
        "#,
        )
        .unwrap();
        let analysis = analyze_program(&p);
        assert!(
            !analysis
                .db_for_loop(LoopId(1))
                .has_property("perm", ArrayProperty::Injective),
            "single-element overwrite must invalidate the injectivity fact"
        );
    }

    #[test]
    fn unanalyzable_nests_are_reported_as_clobbered_not_wrong() {
        let p = parse_program(
            "t",
            r#"
            for (i = 0; i < n; i++) {
                x[idx[i]] = i;
            }
        "#,
        )
        .unwrap();
        let analysis = analyze_program(&p);
        let c = &analysis.collapsed[&LoopId(0)];
        assert!(c.clobbered_arrays.contains(&"x".to_string()));
        assert!(analysis.db.fact("x").is_none());
    }
}
