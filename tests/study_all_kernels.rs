//! Integration test: the Figure 1 study over the complete kernel catalogue.
//! Every catalogued loop must be parallelized by the extended analysis and
//! rejected by the property-free baseline, and every index-array fact the
//! analysis derives must hold on the heap the program itself builds.

use ss_deptest::{test_loop, RangeTestConfig};
use ss_inspector::inspect::{inspect_index_array, inspect_write_conflicts, InspectorConfig};
use ss_interp::{synthesize_inputs, EngineRegistry, ExecOptions, Heap, InputSpec};
use ss_npb::run_catalogue_study;
use ss_parallelizer::Artifacts;
use ss_properties::concrete::check_property;
use ss_properties::{ArrayProperty, PropertySet, ValueFilter};
use ss_symbolic::{Expr, Valuation};

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

/// The final heap as a valuation: its scalars, and its one-dimensional
/// arrays (index arrays are never multi-dimensional in the catalogue).
fn valuation(heap: &Heap) -> Valuation {
    let mut v = Valuation::new();
    v.syms = heap.scalars.iter().map(|(k, &x)| (k.clone(), x)).collect();
    v.arrays = heap
        .arrays
        .iter()
        .filter(|(_, a)| a.dims.len() == 1)
        .map(|(k, a)| (k.clone(), a.data.to_vec()))
        .collect();
    v
}

/// Every fact in the analysis' final property database, checked on the
/// heap the `ast` reference leaves behind: whole-section properties on
/// the fact's index range (`Identity` relative to its first index), by both
/// the concrete verifier and the runtime inspector; guarded properties on
/// the elements their filter accepts, `Injective` by the write-conflict
/// inspector.  A failure is a soundness finding about the analysis, not a
/// fixture to regenerate.
#[test]
fn derived_facts_hold_on_every_catalogue_reference_heap() {
    let reference = EngineRegistry::builtin().get("ast").unwrap();
    let mut checks = 0usize;
    for kernel in ss_npb::study_kernels() {
        let art = Artifacts::compile_source(kernel.name, kernel.source).unwrap();
        for scale in [16, 64, 200] {
            let inputs = synthesize_inputs(&art.program, &InputSpec { scale, seed: 1 }).unwrap();
            let heap = reference
                .run_serial(&art, inputs, &ExecOptions::default())
                .unwrap()
                .heap;
            let val = valuation(&heap);
            for fact in art.report.final_db.facts() {
                let at = format!(
                    "{} at scale {scale}: {} [{}]",
                    kernel.name, fact.array, fact.origin
                );
                let eval = |e| {
                    val.eval(e)
                        .unwrap_or_else(|err| panic!("{at}: {e}: {err:?}"))
                };
                let (lo, hi) = (eval(&fact.index_range.lo), eval(&fact.index_range.hi));
                let data = val
                    .arrays
                    .get(&fact.array)
                    .unwrap_or_else(|| panic!("{at}: no array"));
                let slice = if lo > hi {
                    &[][..]
                } else {
                    data.get(lo as usize..=hi as usize)
                        .unwrap_or_else(|| panic!("{at}: [{lo}, {hi}] out of bounds"))
                };
                for p in fact.properties.iter() {
                    let rebased: Vec<i64>;
                    let a = if p == ArrayProperty::Identity {
                        rebased = slice.iter().map(|&x| x - lo).collect();
                        &rebased[..]
                    } else {
                        slice
                    };
                    assert!(check_property(a, p), "{at}: {p} fails on {a:?}");
                    let inspected = inspect_index_array(a, &InspectorConfig::serial());
                    assert!(
                        inspected.licenses(&PropertySet::single(p)),
                        "{at}: the inspector refuses {p}"
                    );
                    checks += 1;
                }
                for guarded in &fact.guarded {
                    let filter = ValueFilter {
                        op: guarded.filter.op,
                        bound: Expr::int(eval(&guarded.filter.bound)),
                    };
                    let kept: Vec<usize> = (0..slice.len())
                        .filter(|&i| filter.accepts(slice[i]).unwrap())
                        .collect();
                    for p in guarded.properties.iter() {
                        let holds = match p {
                            ArrayProperty::Injective => inspect_write_conflicts(slice, |i| {
                                filter.accepts(slice[i]).unwrap()
                            })
                            .properties
                            .has(p),
                            ArrayProperty::Identity => {
                                kept.iter().all(|&i| slice[i] == lo + i as i64)
                            }
                            _ => check_property(
                                &kept.iter().map(|&i| slice[i]).collect::<Vec<_>>(),
                                p,
                            ),
                        };
                        assert!(holds, "{at}: {p} fails where {}", guarded.filter);
                        checks += 1;
                    }
                }
            }
        }
    }
    // 43 properties per scale: a change means the analysis now derives
    // more or fewer facts on the catalogue — re-bless knowingly.
    assert_eq!(checks, 3 * 43, "derived properties checked");
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

/// `parallelize` runs the baseline test only on loops the extended test
/// proved, which is sound only if the baseline never proves a loop the
/// extended test cannot.  Both tests run here on every catalogue loop.
#[test]
fn the_baseline_proves_no_loop_the_extended_test_cannot() {
    let mut loops = 0;
    for kernel in ss_npb::study_kernels() {
        let program = ss_ir::parse_program(kernel.name, kernel.source).unwrap();
        let analysis = ss_aggregation::analyze_program(&program);
        let tree = ss_ir::LoopTree::build(&program);
        for info in &tree.loops {
            let db = analysis.db_for_loop(info.id);
            let extended = test_loop(&program, &tree, info.id, db, &RangeTestConfig::default());
            let baseline = test_loop(&program, &tree, info.id, db, &RangeTestConfig::baseline());
            assert!(
                extended.parallel || !baseline.parallel,
                "kernel {} loop {}: baseline-parallel but extended-serial ({:?})",
                kernel.name,
                info.id,
                extended.blockers
            );
            loops += 1;
        }
    }
    assert_eq!(loops, 68, "catalogue loops checked");
}
