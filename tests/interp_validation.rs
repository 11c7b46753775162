//! End-to-end differential validation of the interpreter: every kernel the
//! compile-time analysis proves parallel must execute identically under the
//! serial reference engine and the parallel engine, over the whole built-in
//! catalogue and over randomly generated inputs for the Figure 2 / 5 / 9
//! patterns.  This is the test that turns compile-time verdicts into tested
//! claims — all of it driven through the [`Session`] API.

use proptest::prelude::*;
use ss_interp::{
    ExecMode, ExecutionMode, Heap, RunRequest, ScheduleChoice, Session, ValidationMode,
};
use ss_ir::LoopId;
use ss_runtime::hardware_threads;
use std::sync::OnceLock;

fn session() -> &'static Session {
    static SESSION: OnceLock<Session> = OnceLock::new();
    SESSION.get_or_init(Session::new)
}

fn differential(name: &str, src: &str, threads: usize, schedule: ScheduleChoice) -> RunRequest {
    RunRequest::new(name, src)
        .threads(threads)
        .schedule(schedule)
        .validation(ValidationMode::Differential)
}

/// Every catalogue kernel: the analysis proves its target loop (or, for the
/// carried-wavefront class, the wavefront engine recovers it at run time),
/// the parallel engine dispatches it, and the serial and parallel heaps
/// agree bit for bit.
#[test]
fn whole_catalogue_validates_serial_equals_parallel() {
    for kernel in ss_npb::study_kernels() {
        let carried = kernel.class == ss_npb::PatternClass::CarriedWavefront;
        let request = differential(kernel.name, kernel.source, 3, ScheduleChoice::Auto)
            .scale(48)
            .seed(11);
        let request = if carried {
            request.engine("wavefront")
        } else {
            request
        };
        let outcome = session()
            .run(&request)
            .unwrap_or_else(|e| panic!("{}: {e}", kernel.name));
        assert!(
            outcome.heaps_match(),
            "{}: serial and parallel heaps diverge: {:?}",
            kernel.name,
            outcome.mismatches()
        );
        let target = LoopId(kernel.target_loop);
        if carried {
            assert!(
                !outcome.proven_parallel.contains(&target),
                "{}: carried target loop {target} must stay unproven at compile time",
                kernel.name
            );
            let par = outcome.parallel.as_ref().unwrap();
            assert!(
                matches!(par.loops[&target].mode, ExecMode::Parallel { .. }),
                "{}: target loop {target} was not recovered by wavefront scheduling ({:?})",
                kernel.name,
                par.loops[&target].mode
            );
            continue;
        }
        assert!(
            outcome.proven_parallel.contains(&target),
            "{}: target loop {target} not proven parallel ({:?})",
            kernel.name,
            outcome.proven_parallel
        );
        assert!(
            outcome.dispatched.contains(&target),
            "{}: target loop {target} was not dispatched ({:?})",
            kernel.name,
            outcome.dispatched
        );
    }
}

/// On a multicore host, the dispatched loops must actually buy wall-clock
/// time on at least one kernel (the paper's Figure 10 claim, scaled down to
/// the interpreter).  Skipped on single-CPU machines, where threads can
/// only interleave.
#[test]
fn some_kernel_shows_parallel_speedup_on_multicore() {
    if hardware_threads() < 2 {
        eprintln!("skipping speedup check: only one hardware thread available");
        return;
    }
    let threads = hardware_threads().min(4);
    let mut best = 0.0f64;
    for kernel in ["fig9_csr_product", "fig3_cg_colidx", "cg_spmv_rows"] {
        let k = ss_npb::study_kernels()
            .into_iter()
            .find(|k| k.name == kernel)
            .unwrap();
        let outcome = session()
            .run(
                &differential(k.name, k.source, threads, ScheduleChoice::Auto)
                    .scale(400)
                    .seed(2),
            )
            .unwrap();
        assert!(outcome.heaps_match());
        let serial = outcome.serial.as_ref().unwrap();
        for (id, par) in &outcome.parallel.as_ref().unwrap().loops {
            if let Some(ser) = serial.loops.get(id) {
                if matches!(par.mode, ExecMode::Parallel { .. }) && par.seconds > 0.0 {
                    best = best.max(ser.seconds / par.seconds);
                }
            }
        }
    }
    assert!(
        best > 1.0,
        "no dispatched loop ran faster than serial on {threads} threads (best {best:.2}x)"
    );
}

/// Regression: a loop the analysis must *not* parallelize (a histogram — the
/// write index is an arbitrary input, massively non-injective) is never
/// scheduled as one parallel loop, and still executes correctly.  The
/// default row runs it on the team only as dependence level sets, which
/// order its conflicting writes.
#[test]
fn non_parallel_histogram_is_not_scheduled_parallel() {
    let src = "for (i = 0; i < n; i++) { hist[idx[i]] = i; }";
    let artifacts = session().artifacts("hist", src).unwrap();
    assert!(!artifacts.report.loop_report(LoopId(0)).unwrap().parallel);
    assert!(artifacts.report.outermost_parallel_loops().is_empty());

    let outcome = session()
        .run(
            &differential("hist", src, 4, ScheduleChoice::Auto)
                .scale(96)
                .seed(5),
        )
        .unwrap();
    let stats = &outcome.parallel.as_ref().unwrap().loops[&LoopId(0)];
    assert!(
        stats.wavefront.is_some_and(|(levels, _)| levels > 1),
        "histogram must run level by level: {stats:?}"
    );
    assert_eq!(outcome.dispatched, vec![LoopId(0)]);
    assert!(outcome.heaps_match());
}

const FIG2_PATTERN: &str = r#"
    for (e = 0; e < nelt; e++) { mt_to_id[e] = nelt - 1 - e; }
    for (miel = 0; miel < nelt; miel++) {
        iel = mt_to_id[miel];
        id_to_mt[iel] = vals[miel];
    }
"#;

const FIG5_PATTERN: &str = r#"
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

const FIG9_PATTERN: &str = r#"
    index = 0;
    for (i = 0; i < ROWLEN; i++) {
        count = 0;
        for (j = 0; j < COLUMNLEN; j++) {
            if (a[i][j] % 3 != 0) {
                count++;
                value[index] = a[i][j];
                index++;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Figure 2 pattern (injective map): arbitrary sizes, data seeds, thread
    /// counts and schedules — serial and parallel heaps always agree, and
    /// the scatter loop is always dispatched.
    #[test]
    fn fig2_pattern_equivalence(
        scale in 2i64..300,
        seed in 0u64..1000,
        threads in 2usize..6,
        dynamic in 0u8..2,
    ) {
        let schedule = if dynamic == 1 { ScheduleChoice::Dynamic } else { ScheduleChoice::Static };
        let outcome = session().run(
            &differential("fig2p", FIG2_PATTERN, threads, schedule).scale(scale).seed(seed),
        ).unwrap();
        prop_assert!(outcome.heaps_match(), "{:?}", outcome.mismatches());
        prop_assert!(outcome.dispatched.contains(&LoopId(1)));
    }

    /// Figure 5 pattern (injective subset under a guard): the matched-set
    /// input is random per seed, so the guarded write subset varies.
    #[test]
    fn fig5_pattern_equivalence(
        scale in 2i64..300,
        seed in 0u64..1000,
        threads in 2usize..6,
    ) {
        let outcome = session().run(
            &differential("fig5p", FIG5_PATTERN, threads, ScheduleChoice::Auto)
                .scale(scale)
                .seed(seed),
        ).unwrap();
        prop_assert!(outcome.heaps_match(), "{:?}", outcome.mismatches());
        prop_assert!(outcome.dispatched.contains(&LoopId(1)));
    }

    /// Figure 9 pattern (monotonic row pointers from a random matrix): the
    /// nonzero structure — and with it the generated rowptr index array —
    /// varies with every seed.
    #[test]
    fn fig9_pattern_equivalence(
        scale in 2i64..60,
        seed in 0u64..1000,
        threads in 2usize..6,
    ) {
        let outcome = session().run(
            &differential("fig9p", FIG9_PATTERN, threads, ScheduleChoice::Auto)
                .scale(scale)
                .seed(seed),
        ).unwrap();
        prop_assert!(outcome.heaps_match(), "{:?}", outcome.mismatches());
        // Loop 3 is the outer product loop (0/1 construction, 2 prefix sum).
        prop_assert!(outcome.dispatched.contains(&LoopId(3)));
    }

    /// Heap-level equivalence on explicitly generated permutations (the
    /// cs_ipvec shape), including the degenerate 1-element case.
    #[test]
    fn explicit_permutation_scatter_equivalence(
        n in 1i64..500,
        rot in 0i64..500,
        threads in 2usize..6,
    ) {
        let src = r#"
            for (k = 0; k < n; k++) { p[k] = (k + rot) % n; }
            for (k = 0; k < n; k++) { x[p[k]] = b[k]; }
        "#;
        let heap = Heap::new()
            .with_scalar("n", n)
            .with_scalar("rot", rot)
            .with_array("p", vec![0; n as usize])
            .with_array("b", (0..n).map(|i| i * 3 + 1).collect())
            .with_array("x", vec![-1; n as usize]);
        let outcome = session().run(
            &differential("ipvec_rot", src, threads, ScheduleChoice::Static)
                .initial_heap(heap),
        ).unwrap();
        prop_assert!(outcome.heaps_match(), "{:?}", outcome.mismatches());
    }
}

/// The inspector baseline three-way comparison: on an opaque permutation the
/// compile-time analysis must stay serial, while the runtime inspector
/// (which sees the data) licenses parallel execution — and on a histogram
/// both refuse.
#[test]
fn inspector_baseline_three_way_comparison() {
    let scatter_src = "for (i = 0; i < n; i++) { x[perm[i]] = i; }";
    let artifacts = session().artifacts("opaque_scatter", scatter_src).unwrap();
    assert!(artifacts.report.outermost_parallel_loops().is_empty());
    let n = 64i64;
    let heap = Heap::new()
        .with_scalar("n", n)
        .with_array("perm", (0..n).rev().collect())
        .with_array("x", vec![0; n as usize]);
    let out = session()
        .run(
            &RunRequest::new("opaque_scatter", scatter_src)
                .initial_heap(heap)
                .threads(4)
                .baseline_inspector(true)
                .mode(ExecutionMode::Parallel),
        )
        .unwrap();
    // The requested (default) engine ran the parallel leg itself: its
    // level-set inspection judged the compile-time-serial loop, found it
    // one level wide, and ran that level on the team.
    assert_eq!(out.engine, session().registry().default_engine().name());
    let stats = &out.parallel.as_ref().unwrap().loops[&LoopId(0)];
    assert_eq!(
        stats.inspector_conflict_free,
        Some(true),
        "inspector sees the permutation is injective"
    );
    assert_eq!(stats.wavefront.map(|(levels, _)| levels), Some(1));
    assert_eq!(out.dispatched, vec![LoopId(0)]);

    let hist_src = "for (i = 0; i < n; i++) { h[k[i]] = i; }";
    let out = session()
        .run(
            &RunRequest::new("hist", hist_src)
                .scale(64)
                .seed(9)
                .threads(4)
                .baseline_inspector(true)
                .mode(ExecutionMode::Parallel),
        )
        .unwrap();
    assert_eq!(
        out.parallel.as_ref().unwrap().loops[&LoopId(0)].inspector_conflict_free,
        Some(false),
        "inspector observes write conflicts on the histogram"
    );
}

/// Division and remainder by constants, whose multiply forms serve
/// dividends up to 32 bits and fall back to the hardware divide beyond:
/// negative dividends and divisors, dividends on both sides of ±2^32 and
/// the `i64` extremes, through a quotient, a remainder, both fused
/// divisibility branches and a `+` reduction.  Every leg of the matrix
/// must match the reference bit for bit.
#[test]
fn division_by_constants_agrees_across_the_matrix() {
    let src = r#"
        for (i = 0; i < n; i++) {
            q[i] = x[i] / 17;
            r[i] = x[i] % -17;
            big[i] = x[i] / -1000003 + x[i] % 4294967295;
            if (x[i] % 16 == 0) { hits += 1; }
            if (x[i] % 3 != 0) { w[i] = x[i] / -3; }
        }
        for (i = 0; i < n; i++) {
            cnt = 0;
            for (t = 0; t < i; t++) {
                if (x[t] % 17 == 0) { cnt = cnt + 1; }
            }
            rc[i] = cnt;
        }
    "#;
    let edge = 1i64 << 32;
    let mut xs: Vec<i64> = (-40..40).collect();
    for base in [edge - 1, edge, edge + 1, edge * 17, 1_000_003 * 5] {
        xs.extend([base, -base, base + 34, -base - 34]);
    }
    xs.extend([i64::MIN, i64::MAX, i64::MIN + 1]);
    let n = xs.len();
    let zeros = || vec![0; n];
    let heap = Heap::new()
        .with_scalar("n", n as i64)
        .with_scalar("hits", 0)
        .with_array("x", xs.clone())
        .with_array("q", zeros())
        .with_array("r", zeros())
        .with_array("big", zeros())
        .with_array("w", zeros())
        .with_array("rc", zeros());
    let outcome = session()
        .run(&differential("div_const", src, 2, ScheduleChoice::Auto).initial_heap(heap))
        .unwrap();
    assert!(outcome.heaps_match(), "{:?}", outcome.mismatches());
    let compared = &outcome.validation.as_ref().unwrap().compared;
    for row in [
        "threaded@O1",
        "parallel threaded@O1",
        "parallel wavefront@O1",
    ] {
        assert!(
            compared.iter().any(|l| l == row),
            "no {row} leg in {compared:?}"
        );
    }
    let (q, r) = (
        &outcome.heap.arrays["q"].data,
        &outcome.heap.arrays["r"].data,
    );
    for (i, &x) in xs.iter().enumerate() {
        assert_eq!(q[i], x / 17, "{x} / 17");
        assert_eq!(r[i], x % -17, "{x} % -17");
    }
}
