//! API-level integration suite for the embeddable [`Session`] surface: the
//! whole kernel catalogue through `Session::run`'s differential matrix —
//! the reference against every non-reference row × every opt level it
//! distinguishes, serially and in parallel, plus an inspector-baseline leg
//! — asserting bit-identical final heaps; plus the cache contract (a
//! second run of the same source must not recompile), the registry
//! contract (custom registries, a corrupted row is caught, unknown names)
//! and the stability of the JSON output.

use ss_interp::{
    synthesize_inputs, Engine, EngineRegistry, ExecError, ExecOptions, ExecOutcome, ExecutionMode,
    Heap, InputSpec, Matrix, OptLevel, RunRequest, Session, SsError, ValidationMode,
};
use ss_ir::LoopId;
use ss_parallelizer::{Artifacts, VerdictKind};
use std::sync::Arc;

/// The matrix's size, read off the registry: every non-reference row at
/// every opt level it distinguishes, serially and in parallel, plus the
/// inspector-baseline leg.
fn expected_legs(registry: &EngineRegistry) -> usize {
    let rows: usize = registry
        .iter()
        .filter(|e| !e.caps().reference)
        .map(|e| e.caps().opt_levels.len())
        .sum();
    2 * rows + 1
}

/// The cache satellite pinned end-to-end: a second run of the same source
/// is a hit, and the session's cache counters say it compiled once.
#[test]
fn second_run_of_the_same_source_does_not_recompile() {
    let session = Session::new();
    let src = "for (i = 0; i < n; i++) { out[i] = i * 3; }";
    let req = RunRequest::new("twice", src).scale(64).threads(2);
    let first = session.run(&req).unwrap();
    assert!(!first.cache_hit);
    let second = session.run(&req).unwrap();
    assert!(second.cache_hit);
    assert_eq!(second.heap, first.heap);
    let stats = session.cache_stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    assert_eq!(stats.evictions, 0);

    // Same source under a different name is a different content address.
    let renamed = session
        .run(&RunRequest::new("other", src).scale(64))
        .unwrap();
    assert!(!renamed.cache_hit);
    assert_eq!(session.cache_stats().entries, 2);
}

/// Differential validation over the whole catalogue through the Session
/// API: every leg of the matrix is compared, all heaps match, and each
/// kernel compiles exactly once for its whole matrix.
#[test]
fn differential_mode_compares_the_whole_registry() {
    let session = Session::new();
    let expected = expected_legs(session.registry());
    assert_eq!(
        expected, 15,
        "7 serial + 7 parallel legs + the inspector leg"
    );
    for kernel in ss_npb::study_kernels() {
        let outcome = session
            .run(
                &RunRequest::new(kernel.name, kernel.source)
                    .scale(40)
                    .seed(17)
                    .threads(3)
                    .validation(ValidationMode::Differential),
            )
            .unwrap_or_else(|e| panic!("{}: {e}", kernel.name));
        assert!(
            outcome.heaps_match(),
            "{}: {:?}",
            kernel.name,
            outcome.mismatches()
        );
        let v = outcome.validation.as_ref().unwrap();
        assert_eq!(
            v.compared.len(),
            expected,
            "{}: {:?}",
            kernel.name,
            v.compared
        );
        assert!(outcome.ensure_validated().is_ok());
    }
    assert_eq!(
        session.cache_stats().misses as usize,
        ss_npb::study_kernels().len(),
        "every kernel compiles exactly once across the whole sweep"
    );
}

fn catalogue_kernel(name: &str) -> ss_npb::StudyKernel {
    ss_npb::study_kernels()
        .into_iter()
        .find(|k| k.name == name)
        .expect("catalogue kernel")
}

/// The default row makes the one choice a measured policy search made
/// reliably: a request that names no engine runs the carried-wavefront
/// kernels' target loops as level sets, and runs level sets only on loops
/// the compile-time gate approved.
#[test]
fn the_default_row_runs_gated_carried_loops_as_level_sets() {
    let session = Session::new();
    for name in ["sptrsv_levels", "gauss_seidel_sweep"] {
        let kernel = catalogue_kernel(name);
        let outcome = session
            .run(&RunRequest::new(kernel.name, kernel.source).threads(2))
            .unwrap();
        assert_eq!(outcome.engine, "wavefront", "{name}");
        let artifacts = session.artifacts(kernel.name, kernel.source).unwrap();
        let gated = |id: &LoopId| {
            artifacts
                .report
                .loop_report(*id)
                .unwrap()
                .wavefront
                .is_some()
        };
        let loops = &outcome.parallel.as_ref().unwrap().loops;
        let target = LoopId(kernel.target_loop);
        assert!(gated(&target), "{name}");
        assert!(loops[&target].wavefront.is_some(), "{name}: {loops:?}");
        for (id, stats) in loops {
            assert!(
                stats.wavefront.is_none() || gated(id),
                "{name}: loop {}",
                id.0
            );
        }
    }
}

/// The default's serial and parallel legs run one executor: on a kernel
/// with no carried loop, the matrix legs a default run reports are the
/// same row's.
#[test]
fn the_default_rows_serial_and_parallel_legs_name_one_row() {
    let session = Session::new();
    let kernel = catalogue_kernel("fig9_csr_product");
    let artifacts = session.artifacts(kernel.name, kernel.source).unwrap();
    let heap = synthesize_inputs(&artifacts.program, &InputSpec::default()).unwrap();
    let registry = session.registry();
    let default = registry.default_engine();
    let opts = ExecOptions {
        threads: 2,
        ..ExecOptions::default()
    };
    let matrix = Matrix::run(registry, default.as_ref(), &artifacts, &heap, &opts).unwrap();
    assert!(matrix.mismatches.is_empty(), "{:?}", matrix.mismatches);
    let requested: Vec<&str> = (matrix.legs.iter())
        .filter(|l| l.requested)
        .map(|l| l.label.as_str())
        .collect();
    assert_eq!(
        requested,
        [
            "wavefront@O1",
            "parallel wavefront@O1",
            "parallel wavefront@O1 + inspector"
        ]
    );
}

/// A row the request did not ask for is still on trial: `threaded`'s
/// parallel runs corrupt one element, and a differential run of the
/// default row must name those legs — and only those.
#[test]
fn a_corrupt_non_requested_row_fails_the_default_rows_validation() {
    #[derive(Debug)]
    struct CorruptParallel(Arc<dyn Engine>);
    impl Engine for CorruptParallel {
        fn name(&self) -> &'static str {
            self.0.name()
        }
        fn description(&self) -> &'static str {
            "threaded, but its parallel runs flip one element"
        }
        fn caps(&self) -> ss_interp::EngineCaps {
            self.0.caps()
        }
        fn run_serial(
            &self,
            a: &Artifacts,
            h: Heap,
            o: &ExecOptions,
        ) -> Result<ExecOutcome, SsError> {
            self.0.run_serial(a, h, o)
        }
        fn run_parallel(
            &self,
            a: &Artifacts,
            h: Heap,
            o: &ExecOptions,
        ) -> Result<ExecOutcome, SsError> {
            let mut out = self.0.run_parallel(a, h, o)?;
            out.heap.arrays.get_mut("out").unwrap().data_mut()[3] += 1;
            Ok(out)
        }
    }
    let mut registry = EngineRegistry::builtin();
    registry.register(Arc::new(CorruptParallel(registry.get("threaded").unwrap())));
    let session = Session::with_registry(registry);
    let outcome = session
        .run(
            &RunRequest::new("map", "for (i = 0; i < n; i++) { out[i] = i * 3; }")
                .scale(32)
                .threads(2)
                .validation(ValidationMode::Differential),
        )
        .unwrap();
    assert_eq!(outcome.engine, "wavefront");
    assert!(!outcome.heaps_match());
    let mismatches = outcome.mismatches();
    for leg in ["parallel threaded@O0", "parallel threaded@O1"] {
        assert!(
            mismatches
                .iter()
                .any(|m| m.contains(&format!("vs {leg}: array out[3]"))),
            "{leg} not named: {mismatches:?}"
        );
    }
    assert_eq!(mismatches.len(), 2, "{mismatches:?}");
    assert!(matches!(
        outcome.ensure_validated(),
        Err(SsError::Validation { .. })
    ));
}

/// Custom registries plug straight into a session: a registry restricted
/// to the reference engine still validates (the matrix degenerates to the
/// reference and its inspector leg), and unknown engine names fail in a
/// controlled way.
#[test]
fn custom_registries_drive_sessions() {
    let full = EngineRegistry::builtin();
    let mut only_reference = EngineRegistry::empty();
    only_reference.register(full.reference().unwrap());
    let session = Session::with_registry(only_reference);
    assert_eq!(session.registry().len(), 1);
    let outcome = session
        .run(
            &RunRequest::new("t", "for (i = 0; i < n; i++) { out[i] = i; }")
                .scale(32)
                .threads(2)
                .validation(ValidationMode::Differential),
        )
        .unwrap();
    assert!(outcome.heaps_match());
    assert_eq!(
        outcome.validation.as_ref().unwrap().compared.len(),
        expected_legs(session.registry())
    );
    // Unknown engine names name what exists.
    let err = session
        .run(&RunRequest::new("t", "x = 1;").engine("bytecode"))
        .unwrap_err();
    match err {
        SsError::UnknownEngine { available, .. } => {
            assert_eq!(available.len(), 1);
        }
        other => panic!("expected UnknownEngine, got {other:?}"),
    }
}

/// The verdict summary carries the paper's headline classification
/// (newly-enabled loops) through the stable API.
#[test]
fn verdict_summaries_expose_newly_enabled_loops() {
    let session = Session::new();
    let kernel = ss_npb::study_kernels()
        .into_iter()
        .find(|k| k.name == "fig9_csr_product")
        .unwrap();
    let outcome = session
        .run(
            &RunRequest::new(kernel.name, kernel.source)
                .scale(64)
                .threads(2)
                .validation(ValidationMode::Differential),
        )
        .unwrap();
    let target = outcome
        .verdicts
        .iter()
        .find(|v| v.loop_id.0 == kernel.target_loop)
        .unwrap();
    assert_eq!(target.verdict, VerdictKind::Parallel);
    assert!(
        target.newly_enabled,
        "fig9's product loop is the paper's win"
    );
    assert!(target.dispatched);
    // JSON carries the same facts, machine-readably.
    let j = outcome.to_json();
    assert!(j.contains("\"newly_enabled\":true"), "{j}");
    assert!(
        j.contains(&format!("\"loop\":{}", kernel.target_loop)),
        "{j}"
    );
}

/// Explicit heaps round-trip through the API: what goes in verbatim comes
/// out evolved, under both opt levels, bit-identically.
#[test]
fn explicit_heaps_run_identically_at_both_opt_levels() {
    let session = Session::new();
    let src = r#"
        for (i = 0; i < n; i++) { perm[i] = n - 1 - i; }
        for (i = 0; i < n; i++) { out[perm[i]] = v[i] * 2; }
    "#;
    let n = 128i64;
    let heap = Heap::new()
        .with_scalar("n", n)
        .with_array("perm", vec![0; n as usize])
        .with_array("v", (0..n).collect())
        .with_array("out", vec![0; n as usize]);
    let mut heaps = Vec::new();
    for level in [OptLevel::O0, OptLevel::O1] {
        let outcome = session
            .run(
                &RunRequest::new("roundtrip", src)
                    .initial_heap(heap.clone())
                    .opt_level(level)
                    .threads(2)
                    .validation(ValidationMode::Differential),
            )
            .unwrap();
        assert!(outcome.heaps_match());
        heaps.push(outcome.heap);
    }
    assert_eq!(heaps[0], heaps[1], "O0 and O1 runs must agree bit for bit");
    assert_eq!(heaps[0].arrays["out"].data[0], (n - 1) * 2);
}

/// A declared extent whose cell count wraps `usize` (2^32 × 2^32 is 0 once
/// wrapped) fails its declaration on every row, serially and in parallel,
/// with the `OutOfBounds` input discovery answers for the same
/// declaration — never a zero-length buffer that a later access indexes.
#[test]
fn a_declaration_whose_cell_count_wraps_fails_on_every_row() {
    let session = Session::new();
    let src = "int a[4294967296][4294967296]; int b[64]; \
               for (i = 0; i < 64; i++) { b[i] = a[i][0]; }";
    for engine in session.registry().names() {
        for mode in [ExecutionMode::Serial, ExecutionMode::Parallel] {
            let request = RunRequest::new("wrapped_extent", src)
                .engine(engine)
                .threads(2)
                .mode(mode)
                .initial_heap(Heap::default());
            match session.run(&request) {
                Err(SsError::Runtime(ExecError::OutOfBounds {
                    array,
                    indices,
                    dims,
                })) => {
                    assert_eq!(array, "a", "{engine} {mode:?}");
                    assert_eq!(indices, vec![1 << 32, 1 << 32], "{engine} {mode:?}");
                    assert!(dims.is_empty(), "{engine} {mode:?}");
                }
                other => panic!("{engine} {mode:?}: expected OutOfBounds, got {other:?}"),
            }
        }
    }
}
