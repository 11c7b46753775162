//! Compile-once, lower-once and inspect-once guarantees, read off the
//! objects that own each fact: a [`Session`] compiles each distinct
//! program at most once (its cache's `misses`), the threaded chain is
//! lowered at most once per (artifacts, opt level, store kind) (the
//! `"threaded"` slots of [`ExtArtifacts::keys`]), and the wavefront tier
//! inspects a carried loop once per input state
//! ([`LoopStats::schedule_source`]).  That engines never compile at all
//! is structural: the pipeline is the only compile site, which CI's
//! "One compile site" guard enforces.
//!
//! Nothing here reads a process-wide counter, so the tests need no lock;
//! the last one runs every check from four threads at once.
//!
//! [`ExtArtifacts::keys`]: ss_parallelizer::ExtArtifacts::keys
//! [`LoopStats::schedule_source`]: ss_interp::LoopStats::schedule_source

use ss_interp::{
    EngineRegistry, ExecOptions, Heap, OptLevel, RunRequest, ScheduleSource, Session,
    ValidationMode,
};
use ss_parallelizer::Artifacts;

const SRC: &str = r#"
    for (r = 0; r < reps; r++) {
        for (i = 0; i < n; i++) {
            out[i] = out[i] + r;
        }
    }
"#;

fn heap(reps: i64) -> Heap {
    Heap::new()
        .with_scalar("reps", reps)
        .with_scalar("n", 500)
        .with_array("out", vec![0; 500])
}

fn opts(threads: usize) -> ExecOptions {
    ExecOptions {
        threads,
        ..ExecOptions::default()
    }
}

/// The threaded lowerings cached on `artifacts`: their `(engine, slot)`
/// keys.
fn lowerings(artifacts: &Artifacts) -> Vec<(&'static str, u8)> {
    let mut keys = artifacts.ext.keys();
    keys.retain(|(engine, _)| *engine == "threaded");
    keys
}

/// The *first* run of a source compiles; every later run of the
/// identical source — any engine, any opt level, any validation mode —
/// hits the content-addressed cache.
fn session_compiles_each_program_once() {
    let session = Session::new();
    let base = RunRequest::new("cached", SRC)
        .initial_heap(heap(6))
        .threads(2);
    let first = session.run(&base.clone()).unwrap();
    assert!(!first.cache_hit);
    assert_eq!(session.cache_stats().misses, 1);

    // The differential matrix — every engine × opt level, serial and
    // parallel: many executions, zero compilations.
    let out = session
        .run(&base.clone().validation(ValidationMode::Differential))
        .unwrap();
    assert!(out.cache_hit);
    assert!(out.heaps_match(), "{:?}", out.mismatches());
    assert_eq!(out.heap, first.heap);
    let stats = session.cache_stats();
    assert_eq!(
        (stats.misses, stats.hits, stats.entries),
        (1, 1, 1),
        "cache hits must not recompile"
    );
}

/// The bytecode stream is lowered into its threaded handler chain at most
/// once per (artifacts, opt level, store kind), whichever row asks: the
/// `compiled` row's proof regions lower the worker chain at its one level
/// (O1), the `bytecode` row's add it at O0, the `threaded` row's spine
/// adds the spine chain at both levels and reuses the worker one, and the
/// `wavefront` row's level-set strategy for the carried outer loop adds
/// the inspection chain at both levels (resolved with the loop's body,
/// whether or not the schedule cache already answers).  Every later run,
/// serial or parallel, of any row reuses the cached lowerings.
fn engines_lower_once_per_artifacts_and_level() {
    let registry = EngineRegistry::builtin();
    let artifacts = Artifacts::compile_source("lower-once", SRC).unwrap();
    assert!(artifacts.report.loops[0].wavefront.is_some());
    let mut heaps = Vec::new();
    for round in 0..3 {
        let rows = [
            ("compiled", 1),
            ("bytecode", 1),
            ("threaded", 2),
            ("wavefront", 2),
        ];
        for (row, first_round) in rows {
            let engine = registry.get(row).unwrap();
            let at_start = lowerings(&artifacts).len();
            for &level in engine.caps().opt_levels {
                let serial = ExecOptions {
                    opt_level: level,
                    ..opts(1)
                };
                heaps.push(engine.run_serial(&artifacts, heap(6), &serial).unwrap());
                let par = ExecOptions {
                    opt_level: level,
                    ..opts(3)
                };
                heaps.push(engine.run_parallel(&artifacts, heap(6), &par).unwrap());
            }
            let lowered = if round == 0 { first_round } else { 0 };
            assert_eq!(
                lowerings(&artifacts).len(),
                at_start + lowered,
                "round {round}, {row}: one lowering per new (store kind, opt level)"
            );
        }
    }
    assert_eq!(lowerings(&artifacts).len(), 6, "never once per run");
    for outcome in &heaps {
        assert_eq!(outcome.heap, heaps[0].heap);
    }
}

/// Synthesized inputs are discovered on the program's O1 stream, run on
/// the threaded chain lowered for the discovery store and cached on the
/// artifacts like every other store kind: a program's first synthesized
/// run adds exactly that one lowering to what the same run on an explicit
/// heap lowers, and a second synthesized run — a cache hit — compiles and
/// lowers nothing.
fn discovery_lowers_once_per_artifacts() {
    let synthesized = RunRequest::new("discover-once", SRC).scale(40).threads(2);
    let explicit = synthesized.clone().initial_heap(heap(40));
    let cached = |session: &Session| session.artifacts("discover-once", SRC).unwrap();

    let plain = Session::new();
    plain.run(&explicit).unwrap();
    let explicit_lowerings = lowerings(&cached(&plain));

    let session = Session::new();
    let first = session.run(&synthesized).unwrap();
    assert!(!first.cache_hit);
    let after_first = lowerings(&cached(&session));
    assert_eq!(after_first.len(), explicit_lowerings.len() + 1);
    assert!(explicit_lowerings.iter().all(|k| after_first.contains(k)));

    let second = session.run(&synthesized).unwrap();
    assert!(second.cache_hit);
    assert_eq!(second.heap, first.heap);
    assert_eq!(
        lowerings(&cached(&session)),
        after_first,
        "discovery is lowered once per artifacts"
    );
    assert_eq!(
        session.cache_stats().misses,
        1,
        "and never recompiles the stream"
    );
}

const SCATTER: &str = r#"
    for (i = 0; i < n; i++) {
        x[idx[i]] = x[idx[i]] + i;
    }
"#;

/// `idx[i] = (i * stride) % 8`: the program reads `idx` and never writes
/// it, so runs look its schedule up by generation.
fn scatter_heap(stride: i64) -> Heap {
    Heap::new()
        .with_scalar("n", 40)
        .with_array("idx", (0..40).map(|i| (i * stride) % 8).collect())
        .with_array("x", vec![0; 8])
}

/// Where the scatter loop's schedule came from in one wavefront run of
/// `heap` at `level`.
fn scatter_run(artifacts: &Artifacts, heap: &Heap, level: OptLevel) -> Option<ScheduleSource> {
    let registry = EngineRegistry::builtin();
    let o = ExecOptions {
        opt_level: level,
        ..opts(4)
    };
    let out = (registry.get("wavefront").unwrap())
        .run_parallel(artifacts, heap.clone(), &o)
        .unwrap();
    let serial = (registry.reference().unwrap())
        .run_serial(artifacts, heap.clone(), &opts(1))
        .unwrap();
    assert_eq!(out.heap, serial.heap);
    out.stats.loops[&ss_ir::LoopId(0)].schedule_source
}

/// The wavefront tier inspects a carried loop and builds its level-set
/// schedule exactly once per (artifacts, input state): repeated runs on
/// equal inputs, at either opt level, reuse the schedule cached in the
/// artifact's engine-extension slot; a different input re-inspects.
fn wavefront_inspects_once_per_input() {
    use ScheduleSource::*;
    let artifacts = Artifacts::compile_source("schedule-once", SCATTER).unwrap();
    let first = scatter_run(&artifacts, &scatter_heap(1), OptLevel::O1);
    assert_eq!(
        first,
        Some(Inspected),
        "the first run inspects the loop and builds its schedule"
    );
    for level in [OptLevel::O0, OptLevel::O1] {
        assert_eq!(
            scatter_run(&artifacts, &scatter_heap(1), level),
            Some(Content),
            "equal inputs at either opt level reuse the cached schedule"
        );
    }
    // A different index pattern is a different dependence structure: the
    // cache must key on the input state, not just the loop.
    assert_eq!(
        scatter_run(&artifacts, &scatter_heap(3), OptLevel::O1),
        Some(Inspected),
        "a new input state re-inspects and builds a fresh schedule"
    );
}

#[test]
fn compiled_engine_runs_do_not_recompile_per_loop_entry() {
    // The dispatched loop is entered `reps` times with many iterations
    // each; the slot table the pipeline resolved up front serves every
    // entry (engines have no compile site to reach), and each entry's
    // iterations are counted once.
    let registry = EngineRegistry::builtin();
    let artifacts = Artifacts::compile_source("reuse", SRC).unwrap();
    assert!(!artifacts.report.outermost_parallel_loops().is_empty());
    let compiled = registry.get("compiled").unwrap();
    let par = compiled
        .run_parallel(&artifacts, heap(20), &opts(4))
        .unwrap();
    let id = ss_ir::LoopId(1);
    assert_eq!(par.stats.loops[&id].invocations, 20);
    assert_eq!(par.stats.loops[&id].iterations, 20 * 500);
    let reference = registry.reference().unwrap();
    let serial = reference
        .run_serial(&artifacts, heap(20), &opts(1))
        .unwrap();
    assert_eq!(par.heap, serial.heap);
}

#[test]
fn session_cache_makes_compilation_once_per_program_per_process() {
    session_compiles_each_program_once();
}

#[test]
fn threaded_engine_lowers_once_per_artifact_and_level() {
    engines_lower_once_per_artifacts_and_level();
}

#[test]
fn input_discovery_lowers_once_per_artifacts_never_per_run() {
    discovery_lowers_once_per_artifacts();
}

#[test]
fn wavefront_engine_builds_each_schedule_once_per_artifacts_and_input() {
    wavefront_inspects_once_per_input();
}

#[test]
fn schedule_hits_by_generation_on_clones_and_by_content_on_fresh_heaps() {
    // A clone of a seen heap carries the same generations: an O(1) hit.
    // A fresh heap with equal contents has new ones: its contents are
    // hashed, they hit, and nothing is rebuilt.
    use ScheduleSource::*;
    let artifacts = Artifacts::compile_source("generations", SCATTER).unwrap();
    let heap = scatter_heap(1);
    let run = |heap: &Heap| scatter_run(&artifacts, heap, OptLevel::O1);
    assert_eq!(run(&heap), Some(Inspected));
    assert_eq!(run(&heap), Some(Generation));
    assert_eq!(run(&scatter_heap(1)), Some(Content));
    // An entry keeps one alias, the latest: the first heap is now found by
    // content again.
    assert_eq!(run(&heap), Some(Content));
    assert_eq!(run(&heap), Some(Generation));
}

#[test]
fn data_mut_on_a_schedule_array_forces_a_reinspection() {
    // `data_mut` draws a fresh generation, so new contents written through
    // it can never hit the schedule of the old ones by generation.
    use ScheduleSource::*;
    let artifacts = Artifacts::compile_source("data-mut", SCATTER).unwrap();
    let run = |heap: &Heap| scatter_run(&artifacts, heap, OptLevel::O1);
    let mut heap = scatter_heap(1);
    assert_eq!(run(&heap), Some(Inspected));
    assert_eq!(run(&heap), Some(Generation));
    let strided = scatter_heap(3);
    let idx = heap.arrays.get_mut("idx").unwrap();
    idx.data_mut().copy_from_slice(&strided.arrays["idx"].data);
    assert_eq!(run(&heap), Some(Inspected));
}

#[test]
fn the_invariants_hold_from_four_threads_at_once() {
    // Each thread owns its sessions and artifacts, so no check can see
    // another's compiles, lowerings or inspections.
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                session_compiles_each_program_once();
                engines_lower_once_per_artifacts_and_level();
                discovery_lowers_once_per_artifacts();
                wavefront_inspects_once_per_input();
            });
        }
    });
}
