//! One-second smokes of every workload (small inputs, same code paths), and
//! the oracles' own consistency.

use ss_benchmark::gen;
use ss_benchmark::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use ss_benchmark::record::{BenchFile, RunRecord};
use ss_benchmark::workloads::compile::{expected_for, expected_verdicts, verdict_tokens};
use ss_benchmark::workloads::{self, Size};
use ss_parallelizer::Artifacts;

fn smoke(workload: &str, traced: bool) -> RunRecord {
    let trace_out = std::env::temp_dir().join(format!(
        "ssbench-smoke-{}-{workload}.json",
        std::process::id()
    ));
    let record = workloads::run(workload, 11, 1.0, Size::Smoke, traced, Some(&trace_out))
        .unwrap_or_else(|e| panic!("{workload}: {e}"));
    assert!(record.correct(), "{workload}: {:?}", record.failures);
    assert_eq!(record.failed, 0);
    assert!(record.attempted >= 1);
    assert!(
        record.metrics.values().all(|m| m.value.is_finite()),
        "{workload}: {:?}",
        record.metrics
    );
    // The result line and the result file both parse back.
    let line = ss_daemon::jsonin::parse(&record.contract_line()).unwrap();
    assert_eq!(line.get("correct").and_then(|c| c.as_bool()), Some(true));
    let file = BenchFile {
        host: ss_benchmark::host::Provenance::read(),
        runs: vec![record.clone()],
    };
    assert_eq!(BenchFile::parse(&file.to_json()).unwrap().runs[0], record);
    if traced {
        let trace = std::fs::read_to_string(&trace_out).unwrap();
        let events = ss_daemon::jsonin::parse(&trace).unwrap();
        assert!(!events
            .get("traceEvents")
            .and_then(|e| e.as_arr())
            .unwrap()
            .is_empty());
        let _ = std::fs::remove_file(&trace_out);
    }
    record
}

fn untraced_smoke(workload: &str) {
    let record = smoke(workload, false);
    for def in END_TO_END {
        let m = record
            .metrics
            .get(def.name)
            .unwrap_or_else(|| panic!("{workload} lacks {}", def.name));
        assert!(
            m.value > 0.0 && m.samples > 0,
            "{workload}: {} = {:?}",
            def.name,
            m
        );
    }
    assert_eq!(record.metrics.len(), END_TO_END.len());
    assert_eq!(record.metrics["ok_share"].value, 1.0);
    assert!(!record.rows.is_empty());
}

fn traced_smoke(workload: &str, measured: &[&str]) {
    let record = smoke(workload, true);
    assert_eq!(record.metrics.len(), PER_LAYER.len());
    for (name, _, _) in PER_LAYER {
        assert!(record.metrics.contains_key(name), "{workload} lacks {name}");
    }
    for name in measured {
        assert!(
            record.metrics[*name].samples > 0,
            "{workload}: {name} was not measured"
        );
    }
    assert!(record.metrics["trace.spans"].value > 0.0);
}

#[test]
fn compile_catalogue_smoke() {
    untraced_smoke("compile_catalogue");
    traced_smoke(
        "compile_catalogue",
        &[
            "ssir.parse_ms",
            "ssir.opt_ms",
            "aggregation.analyze_program_ms",
            "deptest.test_loop_ms",
            "core.parallelize_self_ms",
            "core.analyze_share",
            "core.proven_loops",
            "trace.overhead_ratio",
        ],
    );
}

#[test]
fn exec_proven_smoke() {
    untraced_smoke("exec_proven");
    traced_smoke(
        "exec_proven",
        &[
            "engine.bytecode-O1.serial_ms",
            "engine.threaded-O0.serial_ms",
            "engine.ast-O1.serial_ms",
            "engine.compiled.parallel_ms",
            "engine.threaded.lowering_ms",
            "engine.proven_loop_share",
            "interp.inputs_ms",
            "interp.heap_clone_ms",
            "runtime.team_region_us",
            "runtime.dispatch_overhead_ms",
        ],
    );
}

#[test]
fn exec_wavefront_smoke() {
    untraced_smoke("exec_wavefront");
    traced_smoke(
        "exec_wavefront",
        &[
            "engine.wavefront.parallel_ms",
            "engine.wavefront.cold_ms",
            "inspector.schedule_build_ms",
            "inspector.levels",
            "inspector.avg_width",
            "inspector.levelset_builds",
        ],
    );
}

#[test]
fn native_kernels_smoke() {
    untraced_smoke("native_kernels");
    traced_smoke(
        "native_kernels",
        &[
            "npb.makea_ms",
            "npb.cg_serial_ms",
            "npb.cg_parallel_ms",
            "runtime.spmv_parallel_ms",
            "runtime.pool_region_us",
            "inspector.range_inspector_ms",
            "inspector.scatter_lrpd_ms",
            "inspector.overhead_ratio",
        ],
    );
}

#[test]
fn daemon_mix_smoke() {
    untraced_smoke("daemon_mix");
    traced_smoke(
        "daemon_mix",
        &[
            "daemon.wire_ms_p50",
            "daemon.client_stall_ms",
            "daemon.server_reported_ms_p50",
            "daemon.parse_request_us",
            "daemon.dispatch_run_ms",
            "daemon.dispatch_analyze_miss_ms",
            "interp.session_run_ms",
            "interp.to_json_ms",
            "interp.cache_hit_ratio",
            "daemon.response_bytes_p50",
        ],
    );
}

#[test]
fn unknown_workloads_are_refused() {
    assert!(workloads::run("no_such_workload", 1, 1.0, Size::Smoke, false, None).is_err());
    assert_eq!(WORKLOADS.len(), 5);
}

#[test]
fn expected_verdicts_prove_every_target_beyond_the_baseline() {
    let table = expected_verdicts();
    assert_eq!(table.len(), 15 + gen::OWNED_PROGRAMS.len());
    let mut proven = 0;
    for (name, entry) in &table {
        let target = &entry.loops[entry.target];
        if ["parallel/serial", "reduction/serial"].contains(&target.as_str()) {
            proven += 1;
        } else {
            // Recovered at run time by the wavefront engine instead.
            assert_eq!(target, "serial+w/serial", "{name}");
        }
        // The file says what the analysis says today.
        let program = gen::named_program(name).unwrap();
        let art = Artifacts::compile_source(name, &program.source).unwrap();
        assert_eq!(verdict_tokens(&art.report), entry.loops, "{name}");
    }
    // Figure 1: 13 of the 15 catalogue targets, plus spmv_iter's row loop.
    assert_eq!(proven, 14);
}

#[test]
fn stacked_programs_keep_their_parts_verdicts() {
    for seed in 1..=4 {
        for program in gen::compile_set(seed)
            .into_iter()
            .filter(|p| p.parts.len() > 1)
        {
            let art = Artifacts::compile_source(&program.name, &program.source)
                .unwrap_or_else(|e| panic!("{} (seed {seed}): {e}", program.name));
            assert_eq!(
                verdict_tokens(&art.report),
                expected_for(&program).unwrap(),
                "{} (seed {seed}) = {:?}",
                program.name,
                program.parts
            );
        }
    }
}
