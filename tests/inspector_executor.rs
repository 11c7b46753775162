//! Integration test: the compile-time executors, the runtime inspectors
//! and the speculative (LRPD) baseline compute the same results on the
//! catalogue's scatter and range-partitioned shapes, and the run-time
//! schemes refuse or roll back on data that violates the licensing
//! property — exactly the safety net the compile-time approach must never
//! need.  That the analysis' own facts hold on the data the catalogue
//! programs build is `tests/study_all_kernels.rs`'s
//! `derived_facts_hold_on_every_catalogue_reference_heap`.

use proptest::prelude::*;
use ss_inspector::executor::{
    run_indirect_scatter, run_range_partitioned, ExecutionStrategy, Mode,
};
use ss_inspector::lrpd::lrpd_scatter;
use ss_npb::kernels::{fig9, ipvec};
use ss_runtime::CsrMatrix;

#[test]
fn all_three_schemes_produce_identical_results_on_the_scatter_kernel() {
    let n = 50_000usize;
    let (p, b) = ipvec::generate(n, 11);
    let index: Vec<i64> = p.iter().map(|&x| x as i64).collect();
    let values: Vec<i64> = b.iter().map(|&v| (v * 1e6) as i64).collect();

    let mut serial = vec![0i64; n];
    run_indirect_scatter(
        &mut serial,
        &index,
        |i| values[i],
        |_| true,
        1,
        Mode::Serial,
    );

    let mut compile_time = vec![0i64; n];
    let ct = run_indirect_scatter(
        &mut compile_time,
        &index,
        |i| values[i],
        |_| true,
        4,
        Mode::CompileTime,
    );
    assert_eq!(ct.strategy, ExecutionStrategy::CompileTimeParallel);
    assert_eq!(ct.inspection_seconds, 0.0);

    let mut inspected = vec![0i64; n];
    let ie = run_indirect_scatter(
        &mut inspected,
        &index,
        |i| values[i],
        |_| true,
        4,
        Mode::InspectorExecutor,
    );
    assert_eq!(ie.strategy, ExecutionStrategy::Parallel);

    let mut speculative = vec![0i64; n];
    let sp = lrpd_scatter(&mut speculative, &index, |i| values[i], |_| true, 4);
    assert!(sp.speculation_succeeded);

    assert_eq!(serial, compile_time);
    assert_eq!(serial, inspected);
    assert_eq!(serial, speculative);
}

#[test]
fn range_partitioned_execution_matches_the_fig9_kernel() {
    // Every mode of the range-partitioned driver must compute the product
    // array of Figure 9's lines 17–28, written out serially here.
    let dense = fig9::generate_dense(400, 500, 0.06, 13);
    let a = CsrMatrix::from_dense(&dense);
    let vector: Vec<f64> = (0..a.ncols).map(|i| 1.0 + (i % 13) as f64).collect();
    let mut expected = vec![0.0; a.nnz()];
    for i in 1..=a.nrows {
        for j in a.rowptr[i - 1]..a.rowptr[i] {
            expected[j] = a.values[j] * vector[j % vector.len()];
        }
    }

    let bounds: Vec<i64> = std::iter::once(0)
        .chain(a.rowptr.iter().map(|&r| r as i64))
        .collect();
    let values = a.values.clone();
    let vlen = vector.len();
    let row_body = move |_i: usize, j: usize| values[j] * vector[j % vlen];

    for mode in [Mode::Serial, Mode::CompileTime, Mode::InspectorExecutor] {
        let mut data = vec![0.0f64; a.nnz()];
        run_range_partitioned(&mut data, &bounds, &row_body, 4, mode);
        assert_eq!(data, expected, "mode {mode:?} diverged");
    }
}

#[test]
fn runtime_schemes_reject_what_the_compile_time_analysis_would_never_accept() {
    // A histogram index (massively non-injective): the compile-time analysis
    // refuses such loops (see tests/failure_injection.rs); the inspector
    // refuses them at run time; LRPD accepts the work but must roll back.
    let n = 20_000usize;
    let index: Vec<i64> = (0..n).map(|i| (i % 37) as i64).collect();

    let mut inspected = vec![0i64; 37];
    let profile = run_indirect_scatter(
        &mut inspected,
        &index,
        |i| i as i64,
        |_| true,
        4,
        Mode::InspectorExecutor,
    );
    assert_eq!(profile.strategy, ExecutionStrategy::Serial);

    let mut speculative = vec![0i64; 37];
    let outcome = lrpd_scatter(&mut speculative, &index, |i| i as i64, |_| true, 4);
    assert!(!outcome.speculation_succeeded);
    assert!(outcome.conflicting_elements > 0);
    assert_eq!(
        inspected, speculative,
        "both fallbacks preserve serial semantics"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On arbitrary permutations (always injective) every scheme agrees and
    /// parallel execution is always licensed.
    #[test]
    fn schemes_agree_on_random_permutations(n in 1usize..3000, seed in 0u64..500, threads in 1usize..6) {
        let (p, b) = ipvec::generate(n, seed);
        let index: Vec<i64> = p.iter().map(|&x| x as i64).collect();
        let values: Vec<i64> = b.iter().map(|&v| (v * 1e3) as i64).collect();

        let mut serial = vec![0i64; n];
        run_indirect_scatter(&mut serial, &index, |i| values[i], |_| true, 1, Mode::Serial);
        let mut inspected = vec![0i64; n];
        let profile = run_indirect_scatter(&mut inspected, &index, |i| values[i], |_| true, threads, Mode::InspectorExecutor);
        prop_assert_eq!(profile.strategy, ExecutionStrategy::Parallel);
        let mut speculative = vec![0i64; n];
        let outcome = lrpd_scatter(&mut speculative, &index, |i| values[i], |_| true, threads);
        prop_assert!(outcome.speculation_succeeded);
        prop_assert_eq!(&serial, &inspected);
        prop_assert_eq!(&serial, &speculative);
    }

    /// LRPD always reproduces serial semantics, whether or not speculation
    /// succeeds (mixed injective / non-injective inputs).
    #[test]
    fn lrpd_is_always_correct(
        n in 1usize..2000,
        m in 1usize..500,
        seed in 0u64..500,
        threads in 1usize..6,
    ) {
        let mut rng_state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = move || {
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            rng_state
        };
        let index: Vec<i64> = (0..n).map(|_| (next() % m as u64) as i64).collect();
        let mut expected = vec![-1i64; m];
        for i in 0..n {
            expected[index[i] as usize] = i as i64;
        }
        let mut target = vec![-1i64; m];
        lrpd_scatter(&mut target, &index, |i| i as i64, |_| true, threads);
        prop_assert_eq!(expected, target);
    }
}
