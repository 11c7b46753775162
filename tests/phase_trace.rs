//! Integration test: the Section 3.5 phase trace and the end-to-end Figure 9
//! pipeline, exercised through the public crate APIs only.

use ss_aggregation::analyze_program;
use ss_ir::{parse_program, LoopId};
use ss_parallelizer::parallelize;
use ss_properties::ArrayProperty;
use ss_symbolic::{simplify, Expr};

const FIGURE9_FULL: &str = r#"
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
    #pragma omp parallel for private(j,j1)
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

#[test]
fn section_3_5_phase_trace() {
    let program = parse_program("fig9", FIGURE9_FULL).unwrap();
    let analysis = analyze_program(&program);

    // Phase 1 (loop on line 3, id 1): count : [λ : λ+1]
    let p1 = &analysis.phase1[&LoopId(1)];
    let count = p1.scalar("count").unwrap();
    assert_eq!(count.lo, Expr::lambda("count"));
    assert_eq!(
        count.hi,
        simplify(&Expr::add(Expr::lambda("count"), Expr::int(1)))
    );

    // Phase 2 (loop 3): count : [Λ : Λ + COLUMNLEN]
    let c = &analysis.collapsed[&LoopId(1)];
    assert_eq!(c.scalar_exit["count"].lo, Expr::big_lambda("count"));

    // Phase 1 (loop on line 1, id 0): rowsize : [i], value range starting at 0
    let p1 = &analysis.phase1[&LoopId(0)];
    let w = p1.writes_to("rowsize")[0];
    assert_eq!(w.subscript, Expr::sym("i"));
    assert_eq!(w.value.lo, Expr::Int(0));

    // Phase 2 (loop 1): rowsize : [0 : ROWLEN-1]
    let rowsize = analysis.collapsed[&LoopId(0)].fact("rowsize").unwrap();
    assert_eq!(rowsize.index_range.lo, Expr::Int(0));
    assert_eq!(
        rowsize.index_range.hi,
        simplify(&Expr::sub(Expr::sym("ROWLEN"), Expr::int(1)))
    );

    // Phase 1 (loop on line 13, id 2): rowptr : [i], rowptr[i-1] + [0 : ...]
    let p1 = &analysis.phase1[&LoopId(2)];
    let w = p1.writes_to("rowptr")[0];
    assert_eq!(w.subscript, Expr::sym("i"));
    assert!(w.value.lo.contains_array_ref("rowptr"));

    // Phase 2 (loop 13): rowptr : [1 : ROWLEN], Monotonic_inc
    let rowptr = analysis.collapsed[&LoopId(2)].fact("rowptr").unwrap();
    assert!(rowptr.has(ArrayProperty::MonotonicInc));
    assert_eq!(rowptr.index_range.lo, Expr::Int(1));
    assert_eq!(rowptr.index_range.hi, Expr::sym("ROWLEN"));
}

#[test]
fn figure9_end_to_end_matches_the_manual_parallelization() {
    let program = parse_program("fig9", FIGURE9_FULL).unwrap();
    let report = parallelize(&program);
    // Every loop the original author marked with `#pragma omp parallel for`
    // is found parallel by the analysis, and it is exactly the loop whose
    // parallelism hinges on the index-array property.
    for l in &report.loops {
        if l.manually_parallel {
            assert!(
                l.parallel,
                "manual oracle loop {} must be detected",
                l.loop_id
            );
            assert!(!l.baseline_parallel);
        }
    }
    let product = report.loop_report(LoopId(3)).unwrap();
    assert!(product.manually_parallel && product.parallel && !product.baseline_parallel);
}
