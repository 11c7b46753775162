//! The names every later issue states its claim in: workloads, end-to-end
//! metrics (unit, direction, regression bound) and per-layer metrics.
//! `BENCHMARK.json` at the repo root carries the same table for the driver;
//! `benchmark_json_matches_the_tables` keeps the two from drifting.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (rates, speedups, proof counts).
    Higher,
}

impl Better {
    /// `lower` / `higher`, as `BENCHMARK.json` spells it.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: something a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Stable name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression.  Every timing metric carries 0.25,
    /// the most the driver allows: on the shared 2-CPU host the widest
    /// spread (inter-quartile range over ten runs, as a share of their
    /// median) was 13 %, on the `T`-way legs.  The two exact metrics
    /// (`ok_share`, `proven_loops`) carry 0.001: any lost op or loop is a
    /// larger share than that.
    pub bound: f64,
}

/// The eleven end-to-end metrics, reported on every workload.
pub const END_TO_END: [EndToEnd; 11] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_ms_p90",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ok_share",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.001,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "serial_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "parallel_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "parallel_speedup",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "best_serial_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "proven_loops",
        unit: "count",
        better: Better::Higher,
        bound: 0.001,
    },
];

/// The end-to-end metric named `name`.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The five workloads and why each is there.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "compile_catalogue",
        "cold parse-analyze-compile of 15 catalogue kernels plus stacked programs up to 8x larger; only the analysis and ssir layers work, no execution",
    ),
    (
        "exec_proven",
        "five programs with proven-parallel loops at scale 1024: few large dispatched regions, engines and team dispatch do the work, compile layers none",
    ),
    (
        "exec_wavefront",
        "three carried-dependence programs run as level sets: hundreds of narrow regions with a barrier each, so per-region cost shows that exec_proven hides",
    ),
    (
        "native_kernels",
        "no interpreter: NPB CG class A at 1 and T threads and compile-time vs inspector vs LRPD executors, on scoped-thread pool not team",
    ),
    (
        "daemon_mix",
        "closed loop through the shipped client against an in-process daemon, 40/15/40/5 analyze-hit/miss/run/meta: protocol, queue, socket, cache, JSON",
    ),
];

/// Per-layer metrics `(name, unit, direction)`, measured by the traced run
/// from outside the layers.  A traced run reports every name; a layer the
/// workload does not exercise reads 0 with 0 samples.
pub const PER_LAYER: [(&str, &str, Better); 79] = [
    // ssir
    ("ssir.parse_ms", "ms", Better::Lower),
    ("ssir.source_bytes_per_s", "B/s", Better::Higher),
    ("ssir.slots_ms", "ms", Better::Lower),
    ("ssir.bytecode_ms", "ms", Better::Lower),
    ("ssir.opt_ms", "ms", Better::Lower),
    ("ssir.instrs_o0", "count", Better::Lower),
    ("ssir.instrs_o1", "count", Better::Lower),
    // aggregation / deptest / core
    ("aggregation.analyze_program_ms", "ms", Better::Lower),
    ("deptest.test_loop_ms", "ms", Better::Lower),
    ("deptest.loops_tested", "count", Better::Lower),
    ("core.parallelize_ms", "ms", Better::Lower),
    ("core.parallelize_self_ms", "ms", Better::Lower),
    ("core.analyze_share", "ratio", Better::Lower),
    ("core.artifact_bytes", "B", Better::Lower),
    ("core.proven_loops", "count", Better::Higher),
    ("core.reduction_loops", "count", Better::Higher),
    ("core.wavefront_loops", "count", Better::Higher),
    ("core.baseline_proven_loops", "count", Better::Higher),
    // interp: engines
    ("engine.ast-O1.serial_ms", "ms", Better::Lower),
    ("engine.compiled-O1.serial_ms", "ms", Better::Lower),
    ("engine.bytecode-O0.serial_ms", "ms", Better::Lower),
    ("engine.bytecode-O1.serial_ms", "ms", Better::Lower),
    ("engine.threaded-O0.serial_ms", "ms", Better::Lower),
    ("engine.threaded-O1.serial_ms", "ms", Better::Lower),
    ("engine.wavefront-O0.serial_ms", "ms", Better::Lower),
    ("engine.wavefront-O1.serial_ms", "ms", Better::Lower),
    ("engine.bytecode.parallel_ms", "ms", Better::Lower),
    ("engine.threaded.parallel_ms", "ms", Better::Lower),
    ("engine.compiled.parallel_ms", "ms", Better::Lower),
    ("engine.wavefront.parallel_ms", "ms", Better::Lower),
    ("engine.threaded.lowering_ms", "ms", Better::Lower),
    ("engine.proven_loop_share", "ratio", Better::Higher),
    ("engine.loop_speedup", "ratio", Better::Higher),
    ("engine.regions", "count", Better::Lower),
    // interp: session
    ("interp.inputs_ms", "ms", Better::Lower),
    ("interp.heap_clone_ms", "ms", Better::Lower),
    ("interp.heap_bytes", "B", Better::Lower),
    ("interp.session_run_ms", "ms", Better::Lower),
    ("interp.to_json_ms", "ms", Better::Lower),
    ("interp.cache_hit_ratio", "ratio", Better::Higher),
    ("interp.cache_evictions", "count", Better::Lower),
    ("interp.cache_bytes", "B", Better::Lower),
    // runtime
    ("runtime.dispatch_overhead_ms", "ms", Better::Lower),
    ("runtime.team_region_us", "us", Better::Lower),
    ("runtime.pool_region_us", "us", Better::Lower),
    ("runtime.team_threads_spawned", "count", Better::Lower),
    ("runtime.spmv_serial_ms", "ms", Better::Lower),
    ("runtime.spmv_parallel_ms", "ms", Better::Lower),
    // inspector
    ("engine.wavefront.cold_ms", "ms", Better::Lower),
    ("engine.wavefront.warm_ms", "ms", Better::Lower),
    ("inspector.schedule_build_ms", "ms", Better::Lower),
    ("inspector.levelset_builds", "count", Better::Lower),
    ("inspector.levels", "count", Better::Lower),
    ("inspector.avg_width", "ratio", Better::Higher),
    ("engine.wavefront.loop_speedup", "ratio", Better::Higher),
    ("inspector.range_serial_ms", "ms", Better::Lower),
    ("inspector.range_compile_time_ms", "ms", Better::Lower),
    ("inspector.range_inspector_ms", "ms", Better::Lower),
    ("inspector.scatter_compile_time_ms", "ms", Better::Lower),
    ("inspector.scatter_inspector_ms", "ms", Better::Lower),
    ("inspector.scatter_lrpd_ms", "ms", Better::Lower),
    ("inspector.overhead_ratio", "ratio", Better::Lower),
    // npb
    ("npb.makea_ms", "ms", Better::Lower),
    ("npb.cg_serial_ms", "ms", Better::Lower),
    ("npb.cg_parallel_ms", "ms", Better::Lower),
    // daemon
    ("daemon.wire_ms_p50", "ms", Better::Lower),
    ("daemon.client_stall_ms", "ms", Better::Lower),
    ("daemon.server_reported_ms_p50", "ms", Better::Lower),
    ("daemon.queue_socket_ms", "ms", Better::Lower),
    ("daemon.parse_request_us", "us", Better::Lower),
    ("daemon.dispatch_analyze_hit_ms", "ms", Better::Lower),
    ("daemon.dispatch_analyze_miss_ms", "ms", Better::Lower),
    ("daemon.dispatch_run_ms", "ms", Better::Lower),
    ("daemon.response_bytes_p50", "B", Better::Lower),
    ("daemon.overloaded", "count", Better::Lower),
    // host / trace: they qualify a run, they move nothing
    ("host.calib_ms", "ms", Better::Lower),
    ("host.calib_drift", "ratio", Better::Lower),
    ("trace.overhead_ratio", "ratio", Better::Lower),
    ("trace.spans", "count", Better::Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use ss_daemon::jsonin::{self, Value};

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        names.extend(WORKLOADS.iter().map(|w| w.0));
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
    }

    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let doc = jsonin::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Value::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Value::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS.map(|w| w.0.to_string()));
        assert_eq!(names("per_layer"), PER_LAYER.map(|m| m.0.to_string()));
        let e2e = doc.get("end_to_end").and_then(Value::as_arr).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (json, def) in e2e.iter().zip(END_TO_END) {
            assert_eq!(json.get("name").and_then(Value::as_str), Some(def.name));
            assert_eq!(json.get("unit").and_then(Value::as_str), Some(def.unit));
            assert_eq!(
                json.get("better").and_then(Value::as_str),
                Some(def.better.label())
            );
            assert_eq!(json.get("bound").and_then(Value::as_f64), Some(def.bound));
        }
        for (json, def) in doc
            .get("per_layer")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .zip(PER_LAYER)
        {
            assert_eq!(json.get("unit").and_then(Value::as_str), Some(def.1));
            assert_eq!(
                json.get("better").and_then(Value::as_str),
                Some(def.2.label())
            );
        }
        for (json, def) in doc
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .zip(WORKLOADS)
        {
            assert_eq!(json.get("why").and_then(Value::as_str), Some(def.1));
        }
    }
}
