//! One thread runtime: native CG, the CSR kernels, the inspector / LRPD
//! executors and the interpreter's engines all run their parallel regions
//! on the same persistent team of 2 (this thread and one spawned worker).
//! Alone in its binary, because it diffs the process-wide spawn counter.

use ss_inspector::executor::{run_indirect_scatter, run_range_partitioned, Mode};
use ss_inspector::inspect::{inspect_index_array, InspectorConfig};
use ss_inspector::lrpd::lrpd_scatter;
use ss_interp::{EngineRegistry, ExecOptions, Heap};
use ss_npb::{makea, run_cg, CgResult, Class};
use ss_parallelizer::Artifacts;
use ss_properties::ArrayProperty;
use ss_runtime::{parallel_for, team_threads_spawned};
use std::collections::HashSet;
use std::sync::Mutex;
use std::thread::ThreadId;

const THREADS: usize = 2;
const SEED: u64 = 7;

const SRC: &str = r#"
    for (r = 0; r < reps; r++) {
        for (i = 0; i < n; i++) {
            out[i] = out[i] + r;
        }
    }
"#;

/// Runs every layer's parallel entry point once at [`THREADS`] threads and
/// returns the threads the caller-supplied closures ran on plus CG's result.
fn one_pass(artifacts: &Artifacts) -> (HashSet<ThreadId>, CgResult) {
    let ids = Mutex::new(HashSet::new());
    let here = || {
        ids.lock().unwrap().insert(std::thread::current().id());
    };

    let cg = run_cg(Class::S, THREADS, SEED);

    let a = makea(&Class::S.params(), SEED);
    let x = vec![1.0; a.ncols];
    let mut y = vec![0.0; a.nrows];
    a.spmv(THREADS, &x, &mut y);
    let mut y_serial = vec![0.0; a.nrows];
    a.spmv_serial(&x, &mut y_serial);
    assert_eq!(y, y_serial);

    parallel_for(THREADS, 64, |_| here());

    let bounds: Vec<i64> = a.rowptr.iter().map(|&p| p as i64).collect();
    assert!(
        inspect_index_array(&bounds, &InspectorConfig::parallel(THREADS))
            .properties
            .has(ArrayProperty::MonotonicInc)
    );
    for mode in [Mode::CompileTime, Mode::InspectorExecutor] {
        let mut data = vec![0.0; a.values.len()];
        let body = |i: usize, j: usize| {
            here();
            (i + j) as f64
        };
        run_range_partitioned(&mut data, &bounds, body, THREADS, mode);
        assert_eq!(data.last(), Some(&((a.nrows - 1 + data.len() - 1) as f64)));
    }

    let n = 4096usize;
    let index: Vec<i64> = (0..n).map(|i| ((i * 5) % n) as i64).collect();
    let value = |i: usize| {
        here();
        i as i64
    };
    let mut expected = vec![0i64; n];
    for i in 0..n {
        expected[index[i] as usize] = i as i64;
    }
    for mode in [Mode::CompileTime, Mode::InspectorExecutor] {
        let mut target = vec![0i64; n];
        run_indirect_scatter(&mut target, &index, value, |_| true, THREADS, mode);
        assert_eq!(target, expected);
    }
    let mut target = vec![0i64; n];
    assert!(lrpd_scatter(&mut target, &index, value, |_| true, THREADS).speculation_succeeded);
    assert_eq!(target, expected);

    let registry = EngineRegistry::builtin();
    let heap = || {
        Heap::new()
            .with_scalar("reps", 4)
            .with_scalar("n", 500)
            .with_array("out", vec![0; 500])
    };
    let opts = ExecOptions {
        threads: THREADS,
        ..ExecOptions::default()
    };
    let mut heaps = Vec::new();
    for engine in ["ast", "bytecode"] {
        let run = registry.get(engine).unwrap();
        let outcome = run.run_parallel(artifacts, heap(), &opts).unwrap();
        // The reference is serial on every leg; it opens no region.
        assert_eq!(
            outcome.stats.parallel_loops().is_empty(),
            run.caps().reference,
            "{engine}"
        );
        heaps.push(outcome.heap);
    }
    assert_eq!(heaps[0], heaps[1]);

    (ids.into_inner().unwrap(), cg)
}

#[test]
fn one_team_serves_every_layer() {
    let artifacts = Artifacts::compile_source("one-runtime", SRC).unwrap();
    let serial = run_cg(Class::S, 1, SEED);

    let before = team_threads_spawned();
    let (first_ids, first_cg) = one_pass(&artifacts);
    let after_first = team_threads_spawned();
    let (second_ids, second_cg) = one_pass(&artifacts);

    assert!(
        first_ids.len() <= THREADS,
        "every region of every layer must run on the one {THREADS}-worker team, saw {first_ids:?}"
    );
    assert_eq!(
        second_ids, first_ids,
        "a second pass meets the same workers"
    );
    assert!(after_first - before <= THREADS as u64);
    assert_eq!(
        team_threads_spawned(),
        after_first,
        "no thread is created after the first pass"
    );

    for cg in [&first_cg, &second_cg] {
        assert!((cg.zeta - serial.zeta).abs() <= 1e-9 * serial.zeta.abs());
        assert!((cg.rnorm - serial.rnorm).abs() <= 1e-9);
    }
    assert_eq!(first_cg.zeta.to_bits(), second_cg.zeta.to_bits());
    assert_eq!(first_cg.rnorm.to_bits(), second_cg.rnorm.to_bits());
}
