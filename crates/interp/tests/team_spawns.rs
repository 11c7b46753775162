//! One process-wide thread team serves every parallel region of every
//! run, and a run at another thread count replaces it.  The team's spawn
//! counter (`ss_runtime::team_threads_spawned`) is process-wide, so this
//! binary holds this one test and nothing runs beside it.

use ss_interp::{EngineRegistry, ExecOptions, Heap};
use ss_parallelizer::Artifacts;
use ss_runtime::team_threads_spawned;

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
fn one_team_serves_every_region_of_every_run() {
    // 30 adjacent dispatched regions spawn at most one team's worth of
    // workers.  Repeated runs after it — of any registry row: every
    // parallel region runs on the persistent team, and the `ast`
    // reference opens none — spawn *nothing*.
    let registry = EngineRegistry::builtin();
    let artifacts = Artifacts::compile_source("reuse", SRC).unwrap();
    let threads = 3;
    let before = team_threads_spawned();
    let first = registry
        .default_engine()
        .run_parallel(&artifacts, heap(30), &opts(threads))
        .unwrap();
    let after_first = team_threads_spawned();
    assert!(
        after_first - before <= threads as u64,
        "30 adjacent parallel regions must reuse one persistent team \
         (spawned {} workers)",
        after_first - before
    );
    assert_eq!(first.stats.loops[&ss_ir::LoopId(1)].invocations, 30);
    let serial = (registry.reference().unwrap())
        .run_serial(&artifacts, heap(30), &opts(1))
        .unwrap();
    assert_eq!(first.heap, serial.heap);

    for engine in registry.iter() {
        for _ in 0..2 {
            let again = engine
                .run_parallel(&artifacts, heap(30), &opts(threads))
                .unwrap();
            assert_eq!(again.heap, first.heap, "{}", engine.name());
        }
    }
    assert_eq!(
        team_threads_spawned(),
        after_first,
        "runs after the first must not spawn a single worker"
    );

    // The group holds one team: a run at 2 threads replaces it with a team
    // of one worker, and a run back at 3 with a team of two.
    for threads in [2, 3] {
        let again = registry
            .default_engine()
            .run_parallel(&artifacts, heap(30), &opts(threads))
            .unwrap();
        assert_eq!(again.heap, first.heap, "{threads} threads");
    }
    assert_eq!(
        team_threads_spawned() - after_first,
        1 + 2,
        "each change of thread count respawns the group's one team"
    );
}
