//! Integration test: the Figure 1 study over the complete kernel catalogue.
//! Every catalogued loop must be parallelized by the extended analysis and
//! rejected by the property-free baseline, and the derived properties must
//! hold on concrete data produced by the runnable kernels.

use ss_npb::kernels::{fig2, fig5, fig6};
use ss_npb::run_catalogue_study;
use ss_properties::concrete;

#[test]
fn every_catalogued_kernel_is_detected_and_none_by_the_baseline() {
    let table = run_catalogue_study();
    for row in &table.rows {
        assert!(
            row.detected || row.wavefront,
            "kernel {} should be parallelized by the extended analysis or \
             marked wavefront-schedulable",
            row.kernel
        );
        assert!(
            !(row.detected && row.wavefront),
            "kernel {}: detected and wavefront are mutually exclusive",
            row.kernel
        );
        assert!(
            !row.baseline_detected,
            "kernel {} should NOT be parallelizable without index-array properties",
            row.kernel
        );
    }
    assert_eq!(
        table.detected_count() + table.wavefront_count(),
        table.rows.len()
    );
    // The carried SpTRSV / Gauss-Seidel kernels are the wavefront rows.
    assert_eq!(table.wavefront_count(), 2);
    assert_eq!(table.baseline_count(), 0);
}

#[test]
fn derived_properties_hold_on_concrete_index_arrays() {
    // Figure 2: the generated mt_to_id really is injective.
    let mt_to_id = fig2::generate(5000, 9);
    let v: Vec<i64> = mt_to_id.iter().map(|&x| x as i64).collect();
    assert!(concrete::is_injective(&v));
    // Figure 5: the non-negative subset of jmatch really is injective.
    let jmatch = fig5::generate(5000, 0.5, 9);
    assert!(concrete::is_injective_subset(&jmatch, |x| x >= 0));
    assert!(concrete::writes_are_conflict_free(
        &jmatch,
        Some(&|x| x >= 0)
    ));
    // Figure 6: r really is monotonic and p injective.
    let (r, p) = fig6::generate(300, 10, 9);
    let ri: Vec<i64> = r.iter().map(|&x| x as i64).collect();
    let pi: Vec<i64> = p.iter().map(|&x| x as i64).collect();
    assert!(concrete::is_monotonic_inc(&ri));
    assert!(concrete::is_injective(&pi));
}

#[test]
fn study_table_renders_for_the_report() {
    let table = run_catalogue_study();
    let txt = table.render();
    assert!(txt.contains("fig2_ua_transfer"));
    assert!(txt.contains("fig9_csr_product"));
    assert!(txt.contains("SuiteSparse"));
}

/// `LoopReport::has_subscripted_subscript` for every loop of the catalogue:
/// `(kernel, number of loops, ids of the loops whose flag is set)`.  Blessed
/// from the whole-program access collector the flag used to be derived
/// from; the per-loop walk (`Stmt::body_has_subscripted_subscript`) must
/// reproduce it exactly.
const SUBSCRIPTED_SUBSCRIPT_LOOPS: &[(&str, u32, &[u32])] = &[
    ("fig2_ua_transfer", 2, &[]),
    ("fig3_cg_colidx", 5, &[]),
    ("fig4_cg_gather", 5, &[]),
    ("fig5_csparse_maxtrans", 2, &[1]),
    ("fig6_csparse_blocks", 6, &[4, 5]),
    ("fig7_ua_refine", 3, &[]),
    ("fig9_csr_product", 5, &[]),
    ("cg_spmv_rows", 5, &[3, 4]),
    ("is_bucket_traversal", 5, &[]),
    ("csparse_ipvec", 2, &[1]),
    ("cg_norm_reduction", 5, &[]),
    ("ua_refine_scratch", 4, &[]),
    ("csparse_symperm_cols", 5, &[]),
    ("sptrsv_levels", 7, &[5, 6]),
    ("gauss_seidel_sweep", 7, &[5, 6]),
];

#[test]
fn subscripted_subscript_flags_match_the_blessed_table() {
    let kernels = ss_npb::study_kernels();
    assert_eq!(kernels.len(), SUBSCRIPTED_SUBSCRIPT_LOOPS.len());
    for (kernel, &(name, loops, flagged)) in kernels.iter().zip(SUBSCRIPTED_SUBSCRIPT_LOOPS) {
        assert_eq!(kernel.name, name);
        let report = ss_parallelizer::parallelize_source(kernel.name, kernel.source).unwrap();
        let ids: Vec<u32> = report.loops.iter().map(|l| l.loop_id.0).collect();
        assert_eq!(ids, (0..loops).collect::<Vec<_>>(), "kernel {name}");
        let set: Vec<u32> = report
            .loops
            .iter()
            .filter(|l| l.has_subscripted_subscript)
            .map(|l| l.loop_id.0)
            .collect();
        assert_eq!(set, flagged, "kernel {name}");
    }
}
