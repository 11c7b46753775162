//! Equivalence suite for reduction dispatch: `+`, `*`, `min` and `max`
//! accumulator loops must produce bit-identical heaps across every engine
//! in the registry, serial and parallel (the dispatching engines run them
//! with per-thread partials merged by the combiner), over arbitrary
//! inputs, thread counts and schedules — all driven through the
//! [`Session`] API.  Plus the regressions that keep recognition honest: a
//! histogram's compound array update is *not* a scalar reduction, and an
//! accumulator read outside its update disqualifies the loop.

use proptest::prelude::*;
use ss_interp::{ExecutionMode, Heap, RunRequest, ScheduleChoice, Session, ValidationMode};
use ss_ir::{parse_program, LoopId};
use ss_parallelizer::{parallelize, ReductionOp};
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

/// `sum += a[k] - 3` starting from a nonzero initial value.
const SUM_KERNEL: &str = r#"
    total = 7;
    for (k = 0; k < n; k++) {
        total += a[k] - 3;
    }
"#;

/// `prod *= 1 + a[k] % 3` starting from a nonzero initial value (the terms
/// stay small-ish but wrap for large n — wrapping products merge exactly).
const PROD_KERNEL: &str = r#"
    prod = 2;
    for (k = 0; k < n; k++) {
        prod *= 1 + a[k] % 3;
    }
"#;

/// Guarded compare-and-assign minimum over an opaque input array.
const MIN_KERNEL: &str = r#"
    for (k = 0; k < n; k++) {
        if (a[k] < best) { best = a[k]; }
    }
"#;

/// The mirror maximum, with the accumulator on the left of the comparison.
const MAX_KERNEL: &str = r#"
    for (k = 0; k < n; k++) {
        if (hi < a[k]) { hi = a[k]; }
    }
"#;

#[test]
fn reduction_kernels_are_recognized_with_the_right_operator() {
    for (src, var, op) in [
        (SUM_KERNEL, "total", ReductionOp::Add),
        (PROD_KERNEL, "prod", ReductionOp::Mul),
        (MIN_KERNEL, "best", ReductionOp::Min),
        (MAX_KERNEL, "hi", ReductionOp::Max),
    ] {
        let p = parse_program("red", src).unwrap();
        let report = parallelize(&p);
        let ids = p.loop_ids();
        let target = *ids.last().unwrap();
        let l = report.loop_report(target).unwrap();
        assert_eq!(l.reductions.len(), 1, "{src}");
        assert_eq!(l.reductions[0].var, var);
        assert_eq!(l.reductions[0].op, op);
        assert!(report.outermost_parallel_loops().contains(&target));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Each reduction kernel validates reference ≡ every serial engine ≡
    /// parallel and is actually dispatched, for arbitrary input scales,
    /// seeds, thread counts and schedules.
    #[test]
    fn reduction_kernels_validate_across_engines(
        scale in 2i64..400,
        seed in 0u64..1000,
        threads in 2usize..6,
        dynamic in 0u8..2,
    ) {
        let schedule = if dynamic == 1 { ScheduleChoice::Dynamic } else { ScheduleChoice::Static };
        for (name, src) in [
            ("sum", SUM_KERNEL),
            ("prod", PROD_KERNEL),
            ("min", MIN_KERNEL),
            ("max", MAX_KERNEL),
        ] {
            let outcome = session().run(
                &differential(name, src, threads, schedule).scale(scale).seed(seed),
            ).unwrap();
            prop_assert!(outcome.heaps_match(), "{name}: {:?}", outcome.mismatches());
            prop_assert!(
                !outcome.dispatched.is_empty(),
                "{name}: reduction loop was not dispatched"
            );
        }
    }

    /// The combiner merge is exact for negative values, wrapping sums,
    /// wrapping products and duplicated minima — explicit heaps, no
    /// synthesis in the way.
    #[test]
    fn explicit_sum_prod_and_min_merges_are_exact(
        n in 2i64..2000,
        bias in -1000i64..1000,
        threads in 2usize..8,
    ) {
        let src = r#"
            total = 0;
            prod = 3;
            for (k = 0; k < n; k++) {
                total += v[k];
                prod *= v[k];
                if (v[k] < lo) { lo = v[k]; }
            }
        "#;
        let artifacts = session().artifacts("exact", src).unwrap();
        prop_assert!(artifacts.report.outermost_parallel_loops().contains(&LoopId(0)));
        prop_assert_eq!(artifacts.report.loop_report(LoopId(0)).unwrap().reductions.len(), 3);
        // Odd values only, so the product never collapses to 0 (or a huge
        // power of two) and keeps wrapping non-trivially as n grows.
        let data: Vec<i64> = (0..n).map(|i| ((i * 131) % 601 - 300 + bias) | 1).collect();
        let heap = Heap::new()
            .with_scalar("n", n)
            .with_scalar("lo", 1 << 40)
            .with_array("v", data);
        let outcome = session().run(
            &differential("exact", src, threads, ScheduleChoice::Static)
                .initial_heap(heap),
        ).unwrap();
        prop_assert!(outcome.heaps_match(), "{:?}", outcome.mismatches());
        prop_assert!(outcome.dispatched.contains(&LoopId(0)));
    }
}

/// Regression: a histogram loop's `hist[a[i]] += 1` is a compound *array*
/// update, not a scalar reduction — no engine runs it as one parallel loop
/// (the default row only level by level, ordering its conflicting
/// updates), and every one computes the right histogram.
#[test]
fn histogram_compound_update_is_not_a_scalar_reduction() {
    let src = "for (i = 0; i < n; i++) { hist[a[i]] += 1; }";
    let artifacts = session().artifacts("hist", src).unwrap();
    let l = artifacts.report.loop_report(LoopId(0)).unwrap();
    assert!(l.reductions.is_empty(), "must not classify as a reduction");
    assert!(!l.parallel);
    assert!(artifacts.report.outermost_parallel_loops().is_empty());

    let outcome = session()
        .run(
            &differential("hist", src, 4, ScheduleChoice::Auto)
                .scale(64)
                .seed(3),
        )
        .unwrap();
    assert!(outcome.heaps_match(), "{:?}", outcome.mismatches());
    let stats = &outcome.parallel.as_ref().unwrap().loops[&LoopId(0)];
    assert!(
        stats.wavefront.is_some_and(|(levels, _)| levels > 1),
        "histogram must run level by level: {stats:?}"
    );
    assert_eq!(outcome.dispatched, vec![LoopId(0)]);
}

/// Regression: reading the accumulator outside its update disqualifies the
/// loop (the intermediate value is observable), and the run is still
/// correct under every engine.
#[test]
fn observable_accumulator_reads_disqualify_reduction() {
    let src = r#"
        total = 0;
        for (k = 0; k < n; k++) {
            total += a[k];
            trace[k] = total;
        }
    "#;
    let artifacts = session().artifacts("prefix", src).unwrap();
    assert!(artifacts
        .report
        .loop_report(LoopId(0))
        .unwrap()
        .reductions
        .is_empty());
    assert!(artifacts.report.outermost_parallel_loops().is_empty());
    let outcome = session()
        .run(
            &differential("prefix", src, 4, ScheduleChoice::Auto)
                .scale(80)
                .seed(5),
        )
        .unwrap();
    assert!(outcome.heaps_match());
    assert!(outcome.dispatched.is_empty());
}

/// Regression: a guarded min over non-negative data with an *uninitialized*
/// accumulator never writes it serially (the guard never fires against the
/// implicit 0), so the scalar must stay absent from the final heap.  A
/// combiner merge-back cannot reproduce that, so the engine declines to
/// dispatch — and the heaps still match bit for bit.
#[test]
fn uninitialized_accumulator_declines_dispatch_and_stays_bit_identical() {
    let src = "for (k = 0; k < n; k++) { if (v[k] < best) { best = v[k]; } }";
    let artifacts = session().artifacts("umin", src).unwrap();
    assert!(artifacts
        .report
        .outermost_parallel_loops()
        .contains(&LoopId(0)));
    // `best` deliberately absent from the heap; every v[k] >= 0.
    let heap = Heap::new()
        .with_scalar("n", 200)
        .with_array("v", (0..200).map(|i| (i * 13) % 101).collect());
    let serial = session()
        .run(
            &RunRequest::new("umin", src)
                .initial_heap(heap.clone())
                .mode(ExecutionMode::Serial),
        )
        .unwrap();
    assert!(
        !serial.heap.scalars.contains_key("best"),
        "serial never writes best"
    );
    let par = session()
        .run(
            &RunRequest::new("umin", src)
                .initial_heap(heap)
                .threads(4)
                .schedule(ScheduleChoice::Static)
                .mode(ExecutionMode::Parallel),
        )
        .unwrap();
    assert_eq!(par.heap, serial.heap);
    assert!(
        par.dispatched.is_empty(),
        "undefined accumulator must not be dispatched"
    );
}

/// The reference engine is valid for reduction programs too: it dispatches
/// nothing (serial on every leg) but computes identical heaps.
#[test]
fn reference_engine_runs_reduction_programs_serially_and_identically() {
    let reference = session().registry().reference().unwrap();
    assert!(!reference.caps().reductions);
    let heap = Heap::new()
        .with_scalar("n", 500)
        .with_array("a", (0..500).map(|i| (i * 7) % 97).collect());
    let serial = session()
        .run(
            &RunRequest::new("red", SUM_KERNEL)
                .initial_heap(heap.clone())
                .mode(ExecutionMode::Serial),
        )
        .unwrap();
    let ast_par = session()
        .run(
            &RunRequest::new("red", SUM_KERNEL)
                .engine(reference.name())
                .initial_heap(heap)
                .threads(4)
                .mode(ExecutionMode::Parallel),
        )
        .unwrap();
    assert_eq!(ast_par.heap, serial.heap);
    assert!(ast_par.dispatched.is_empty());
    // The whole suite above ran off one compilation per distinct source.
    let stats = session().cache_stats();
    assert!(
        stats.hits >= stats.misses,
        "repeated runs should be cache hits ({stats:?})"
    );
}
