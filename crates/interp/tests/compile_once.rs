//! Compile-once and spawn-once guarantees, asserted through the
//! process-wide counters — now *session invariants*: one
//! [`Artifacts`](ss_parallelizer::Artifacts) invocation compiles each pass
//! exactly once, every engine consumes the same artifacts without
//! recompiling, a [`Session`] compiles each distinct program at most once
//! per process (the content-addressed cache), and one process-wide thread
//! team serves all parallel regions of all runs.
//!
//! These assertions diff global counters around runs, so they live in
//! their own test binary and serialize on a shared lock — inside the
//! unit-test binary any concurrently running engine test would perturb the
//! counts.

use ss_interp::{
    EngineRegistry, ExecOptions, Heap, Matrix, OptLevel, RunRequest, ScheduleSource, Session,
    ValidationMode,
};
use ss_parallelizer::Artifacts;
use std::sync::Mutex;

static COUNTER_LOCK: Mutex<()> = Mutex::new(());

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

#[test]
fn compiled_engine_runs_do_not_recompile_per_loop_entry() {
    // The dispatched loop is entered `reps` times with many iterations
    // each; the pipeline compiles the program exactly once — the slot
    // table is resolved up front and reused, never recomputed per loop
    // entry or per iteration.
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let registry = EngineRegistry::builtin();
    let before = ss_ir::slots::compilation_count();
    let artifacts = Artifacts::compile_source("reuse", SRC).unwrap();
    assert!(!artifacts.report.outermost_parallel_loops().is_empty());
    assert_eq!(
        ss_ir::slots::compilation_count(),
        before + 1,
        "one slot compilation per pipeline invocation"
    );
    let compiled = registry.get("compiled").unwrap();
    let par = compiled
        .run_parallel(&artifacts, heap(20), &opts(4))
        .unwrap();
    assert_eq!(
        ss_ir::slots::compilation_count(),
        before + 1,
        "executions never recompile, regardless of loop entries"
    );
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
fn bytecode_engine_compiles_once_and_runs_on_the_shared_team() {
    // 30 adjacent dispatched regions: one slot compilation, one bytecode
    // compilation, and at most one team's worth of spawned workers — zero
    // if an earlier test in this process already registered a team of this
    // size (the team is process-wide, not per-run).
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let registry = EngineRegistry::builtin();
    let slots_before = ss_ir::slots::compilation_count();
    let bc_before = ss_ir::bytecode::bytecode_compilation_count();
    let artifacts = Artifacts::compile_source("reuse", SRC).unwrap();
    assert_eq!(ss_ir::slots::compilation_count(), slots_before + 1);
    assert_eq!(
        ss_ir::bytecode::bytecode_compilation_count(),
        bc_before + 1,
        "one bytecode compilation per pipeline invocation"
    );
    let spawned_before = ss_runtime::team_threads_spawned();
    let threads = 3;
    let bytecode = registry.default_engine();
    assert_eq!(bytecode.name(), "bytecode");
    let par = bytecode
        .run_parallel(&artifacts, heap(30), &opts(threads))
        .unwrap();
    assert_eq!(ss_ir::slots::compilation_count(), slots_before + 1);
    assert_eq!(ss_ir::bytecode::bytecode_compilation_count(), bc_before + 1);
    let spawned = ss_runtime::team_threads_spawned() - spawned_before;
    assert!(
        spawned <= threads as u64,
        "30 adjacent parallel regions must reuse one persistent team \
         (spawned {spawned} workers)"
    );
    let id = ss_ir::LoopId(1);
    assert_eq!(par.stats.loops[&id].invocations, 30);
    let serial = registry
        .reference()
        .unwrap()
        .run_serial(&artifacts, heap(30), &opts(1))
        .unwrap();
    assert_eq!(par.heap, serial.heap);
}

#[test]
fn one_team_serves_repeated_runs_in_process() {
    // Repeated `sspar run`-style invocations in one process share the
    // process-wide team.  Whatever the first run had to spawn, the runs
    // after it — of any registry row: every parallel region runs on the
    // persistent team, and the `ast` reference opens none — spawn
    // *nothing*.
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let artifacts = Artifacts::compile_source("reuse", SRC).unwrap();
    let threads = 3;
    let registry = EngineRegistry::builtin();
    let first = registry
        .default_engine()
        .run_parallel(&artifacts, heap(5), &opts(threads))
        .unwrap();
    assert!(!first.stats.parallel_loops().is_empty());
    let spawned_after_first = ss_runtime::team_threads_spawned();
    for engine in registry.iter() {
        for _ in 0..2 {
            let again = engine
                .run_parallel(&artifacts, heap(5), &opts(threads))
                .unwrap();
            assert_eq!(again.heap, first.heap, "{}", engine.name());
        }
    }
    assert_eq!(
        ss_runtime::team_threads_spawned(),
        spawned_after_first,
        "runs after the first must not spawn a single worker"
    );
}

#[test]
fn session_cache_makes_compilation_once_per_program_per_process() {
    // The tentpole invariant of the Session API: the *first* run of a
    // source compiles (counters advance by exactly one per pass); every
    // later run of the identical source — any engine, any opt level, any
    // validation mode — hits the content-addressed cache and the counters
    // stay frozen.
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let session = Session::new();
    let slots_before = ss_ir::slots::compilation_count();
    let bc_before = ss_ir::bytecode::bytecode_compilation_count();

    let base = RunRequest::new("cached", SRC)
        .initial_heap(heap(6))
        .threads(2);
    let first = session.run(&base.clone()).unwrap();
    assert!(!first.cache_hit);
    assert_eq!(ss_ir::slots::compilation_count(), slots_before + 1);
    assert_eq!(ss_ir::bytecode::bytecode_compilation_count(), bc_before + 1);

    // The differential matrix — every engine × opt level, serial and
    // parallel: many executions, zero compilations.
    let out = session
        .run(&base.clone().validation(ValidationMode::Differential))
        .unwrap();
    assert!(out.cache_hit);
    assert!(out.heaps_match(), "{:?}", out.mismatches());
    assert_eq!(out.heap, first.heap);
    assert_eq!(
        ss_ir::slots::compilation_count(),
        slots_before + 1,
        "cache hits must not recompile the slot pass"
    );
    assert_eq!(
        ss_ir::bytecode::bytecode_compilation_count(),
        bc_before + 1,
        "cache hits must not recompile the bytecode pass"
    );
    let stats = session.cache_stats();
    assert_eq!((stats.misses, stats.hits, stats.entries), (1, 1, 1));
}

#[test]
fn threaded_engine_lowers_once_per_artifact_and_level() {
    // The bytecode stream is lowered into its threaded handler chain at
    // most once per (artifacts, opt level, store kind), whichever row
    // asks: the `compiled` row's proof regions lower the worker chain at
    // its one level (O1), the `bytecode` row's add it at O0, the
    // `threaded` row's spine adds the spine chain at both levels and
    // reuses the worker one, and the `wavefront` row's level-set strategy
    // for the carried outer loop adds the inspection chain at both levels
    // (resolved with the loop's body, whether or not the schedule cache
    // already answers).  Every later run, serial or parallel, of any row
    // reuses the lowerings cached in the artifact's engine-extension
    // slots.
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let registry = EngineRegistry::builtin();
    let artifacts = Artifacts::compile_source("lower-once", SRC).unwrap();
    assert!(artifacts.report.loops[0].wavefront.is_some());
    let lowerings = ss_interp::engine::threaded::threaded_lowering_count;
    let before = lowerings();
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
            let at_start = lowerings();
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
                lowerings(),
                at_start + lowered,
                "round {round}, {row}: one lowering per new (store kind, opt level)"
            );
        }
    }
    assert_eq!(lowerings(), before + 6, "never once per run");
    for outcome in &heaps {
        assert_eq!(outcome.heap, heaps[0].heap);
    }
}

#[test]
fn input_discovery_lowers_once_per_artifacts_never_per_run() {
    // Synthesized inputs are discovered on the program's O1 stream, run
    // on the threaded chain lowered for the discovery store and cached on
    // the artifacts like every other store kind: a program's first
    // synthesized run adds exactly that one lowering to what the same run
    // on an explicit heap lowers, and a second synthesized run — a cache
    // hit — compiles and lowers nothing.
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let lowerings = ss_interp::engine::threaded::threaded_lowering_count;
    let bytecode = ss_ir::bytecode::bytecode_compilation_count;
    let synthesized = RunRequest::new("discover-once", SRC).scale(40).threads(2);
    let explicit = synthesized.clone().initial_heap(heap(40));

    let before = lowerings();
    Session::new().run(&explicit).unwrap();
    let explicit_lowerings = lowerings() - before;

    let session = Session::new();
    let (lowered, compiled) = (lowerings(), bytecode());
    let first = session.run(&synthesized).unwrap();
    assert!(!first.cache_hit);
    assert_eq!(lowerings(), lowered + explicit_lowerings + 1);
    assert_eq!(bytecode(), compiled + 1);

    let (lowered, compiled) = (lowerings(), bytecode());
    let second = session.run(&synthesized).unwrap();
    assert!(second.cache_hit);
    assert_eq!(second.heap, first.heap);
    assert_eq!(
        lowerings(),
        lowered,
        "discovery is lowered once per artifacts"
    );
    assert_eq!(bytecode(), compiled, "and never recompiles the stream");
}

#[test]
fn wavefront_engine_builds_each_schedule_once_per_artifacts_and_input() {
    // The wavefront tier inspects a carried loop and builds its level-set
    // schedule exactly once per (artifacts, input state) — repeated runs
    // on the same heap, at either opt level, reuse the schedule cached in
    // the artifact's engine-extension slot; a different input re-inspects.
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    const WF: &str = r#"
        for (i = 0; i < n; i++) {
            x[idx[i]] = x[idx[i]] + i;
        }
    "#;
    let wf_heap = |stride: i64| {
        Heap::new()
            .with_scalar("n", 40)
            .with_array("idx", (0..40).map(|i| (i * stride) % 8).collect())
            .with_array("x", vec![0; 8])
    };
    let registry = EngineRegistry::builtin();
    let wavefront = registry.get("wavefront").unwrap();
    let artifacts = Artifacts::compile_source("schedule-once", WF).unwrap();
    let before = ss_inspector::levelset_build_count();
    let first = wavefront
        .run_parallel(&artifacts, wf_heap(1), &opts(4))
        .unwrap();
    assert_eq!(
        ss_inspector::levelset_build_count(),
        before + 1,
        "the first run inspects the loop and builds its schedule"
    );
    for level in [OptLevel::O0, OptLevel::O1] {
        let o = ExecOptions {
            opt_level: level,
            ..opts(4)
        };
        let again = wavefront.run_parallel(&artifacts, wf_heap(1), &o).unwrap();
        assert_eq!(again.heap, first.heap);
    }
    assert_eq!(
        ss_inspector::levelset_build_count(),
        before + 1,
        "identical inputs at either opt level reuse the cached schedule"
    );
    // A different index pattern is a different dependence structure: the
    // cache must key on the input state, not just the loop.
    wavefront
        .run_parallel(&artifacts, wf_heap(3), &opts(4))
        .unwrap();
    assert_eq!(
        ss_inspector::levelset_build_count(),
        before + 2,
        "a new input state re-inspects and builds a fresh schedule"
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

/// The scatter loop's schedule source and the level-set builds one
/// wavefront run of `heap` took.
fn scatter_run(artifacts: &Artifacts, heap: &Heap) -> (Option<ScheduleSource>, u64) {
    let wavefront = EngineRegistry::builtin().get("wavefront").unwrap();
    let before = ss_inspector::levelset_build_count();
    let out = wavefront
        .run_parallel(artifacts, heap.clone(), &opts(4))
        .unwrap();
    let serial = EngineRegistry::builtin()
        .reference()
        .unwrap()
        .run_serial(artifacts, heap.clone(), &opts(1))
        .unwrap();
    assert_eq!(out.heap, serial.heap);
    let source = out.stats.loops[&ss_ir::LoopId(0)].schedule_source;
    (source, ss_inspector::levelset_build_count() - before)
}

#[test]
fn schedule_hits_by_generation_on_clones_and_by_content_on_fresh_heaps() {
    // A clone of a seen heap carries the same generations: an O(1) hit.
    // A fresh heap with equal contents has new ones: its contents are
    // hashed, they hit, and nothing is rebuilt.
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let artifacts = Artifacts::compile_source("generations", SCATTER).unwrap();
    let heap = scatter_heap(1);
    use ScheduleSource::*;
    assert_eq!(scatter_run(&artifacts, &heap), (Some(Inspected), 1));
    assert_eq!(scatter_run(&artifacts, &heap), (Some(Generation), 0));
    assert_eq!(
        scatter_run(&artifacts, &scatter_heap(1)),
        (Some(Content), 0)
    );
    // An entry keeps one alias, the latest: the first heap is now found by
    // content again.
    assert_eq!(scatter_run(&artifacts, &heap), (Some(Content), 0));
    assert_eq!(scatter_run(&artifacts, &heap), (Some(Generation), 0));
}

#[test]
fn data_mut_on_a_schedule_array_forces_a_reinspection() {
    // `data_mut` draws a fresh generation, so new contents written through
    // it can never hit the schedule of the old ones by generation.
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let artifacts = Artifacts::compile_source("data-mut", SCATTER).unwrap();
    let mut heap = scatter_heap(1);
    use ScheduleSource::*;
    assert_eq!(scatter_run(&artifacts, &heap), (Some(Inspected), 1));
    assert_eq!(scatter_run(&artifacts, &heap), (Some(Generation), 0));
    let strided = scatter_heap(3);
    let idx = heap.arrays.get_mut("idx").unwrap();
    idx.data_mut().copy_from_slice(&strided.arrays["idx"].data);
    assert_eq!(scatter_run(&artifacts, &heap), (Some(Inspected), 1));
}

#[test]
fn one_pipeline_invocation_feeds_every_engine_without_recompiling() {
    // Registry-wide: Artifacts::compile is the only compile of the run.
    // Afterwards every registered engine (serial and parallel, every opt
    // level it distinguishes) executes with the counters frozen.
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let registry = EngineRegistry::builtin();
    let slots_before = ss_ir::slots::compilation_count();
    let bc_before = ss_ir::bytecode::bytecode_compilation_count();
    let artifacts = Artifacts::compile_source("pipeline", SRC).unwrap();
    assert_eq!(ss_ir::slots::compilation_count(), slots_before + 1);
    assert_eq!(ss_ir::bytecode::bytecode_compilation_count(), bc_before + 1);

    let matrix = Matrix::run(
        &registry,
        registry.default_engine().as_ref(),
        &artifacts,
        &heap(6),
        &opts(4),
    )
    .unwrap();
    assert!(matrix.mismatches.is_empty(), "{:?}", matrix.mismatches);
    assert!(
        matrix.legs.len() >= 12,
        "matrix covered {} legs",
        matrix.legs.len()
    );
    assert_eq!(
        ss_ir::slots::compilation_count(),
        slots_before + 1,
        "engines consuming artifacts must not recompile the slot pass"
    );
    assert_eq!(
        ss_ir::bytecode::bytecode_compilation_count(),
        bc_before + 1,
        "engines consuming artifacts must not recompile the bytecode pass"
    );
}
