//! `sspar analyze` / `sspar trace`: verdicts, facts, annotated source,
//! bytecode listing, and the Phase 1 / Phase 2 trace.

use crate::{session, OutputFormat};
use ss_aggregation::analyze_program;
use ss_interp::{analysis_json, OptLevel, SsError};
use ss_ir::{parse_program, LoopId};
use ss_parallelizer::VerdictKind;

/// The verdict column of the text tables, derived from the report's own
/// classification.
fn verdict_cell(l: &ss_parallelizer::LoopReport) -> String {
    match l.verdict() {
        VerdictKind::Parallel => "PARALLEL".to_string(),
        VerdictKind::Reduction => {
            format!("PARALLEL (reduction {})", l.reduction_clause())
        }
        VerdictKind::Serial => "serial".to_string(),
    }
}

pub(crate) fn analyze_text(
    name: &str,
    source: &str,
    baseline: bool,
    no_source: bool,
    dump_bytecode: bool,
    opt_level: OptLevel,
    format: OutputFormat,
) -> Result<String, SsError> {
    // One pipeline invocation — served from the session cache when this
    // process has compiled the identical source before — feeds the verdict
    // table, the facts and the bytecode dump, so the L<n> loop ids in the
    // listing always match and nothing below recompiles.
    let artifacts = session().artifacts(name, source)?;
    if format == OutputFormat::Json {
        return Ok(analysis_json(&artifacts) + "\n");
    }
    let report = &artifacts.report;
    let mut out = String::new();
    out.push_str(&format!("== {name}: per-loop verdicts ==\n"));
    for l in &report.loops {
        out.push_str(&format!(
            "loop {:<3} (depth {}, index '{}'): {}\n",
            l.loop_id.0,
            l.depth,
            l.index_var,
            verdict_cell(l)
        ));
        if baseline {
            out.push_str(&format!(
                "    baseline (no index-array properties): {}\n",
                if l.baseline_parallel {
                    "parallel"
                } else {
                    "serial"
                }
            ));
        }
        for r in &l.reasons {
            out.push_str(&format!("    + {r}\n"));
        }
        for b in &l.blockers {
            out.push_str(&format!("    - {b}\n"));
        }
    }
    out.push_str("\n== derived index-array facts ==\n");
    out.push_str(&format!("{}\n", report.final_db));
    out.push_str(&format!(
        "\n== pipeline stages (analyze -> slots -> bytecode -> opt) ==\n{}\n",
        artifacts.stage_summary()
    ));
    if !no_source {
        out.push_str("\n== annotated source ==\n");
        out.push_str(&report.annotated_source);
        if !report.annotated_source.ends_with('\n') {
            out.push('\n');
        }
    }
    if dump_bytecode {
        out.push_str(&format!(
            "\n== register-machine bytecode ({opt_level}) ==\n"
        ));
        out.push_str(&artifacts.bytecode_at(opt_level).disassemble());
    }
    Ok(out)
}

pub(crate) fn trace_text(name: &str, source: &str) -> Result<String, SsError> {
    let program = parse_program(name, source)?;
    let analysis = analyze_program(&program);
    let mut out = String::new();
    out.push_str(&format!("== {name}: Phase 1 / Phase 2 trace ==\n"));
    let mut ids: Vec<LoopId> = analysis.collapsed.keys().copied().collect();
    ids.sort_by_key(|id| id.0);
    for id in ids {
        let collapsed = &analysis.collapsed[&id];
        out.push_str(&format!(
            "\nloop {} (index '{}'):\n",
            id.0, collapsed.index_var
        ));
        if let Some(p1) = analysis.phase1.get(&id) {
            out.push_str("  phase 1 (one iteration):\n");
            let mut scalars: Vec<_> = p1.scalars.iter().collect();
            scalars.sort_by(|a, b| a.0.cmp(b.0));
            for (name, range) in scalars {
                out.push_str(&format!("    {name}: {range}\n"));
            }
            for w in &p1.writes {
                out.push_str(&format!("    {}[{}] = {}\n", w.array, w.subscript, w.value));
            }
        }
        out.push_str("  phase 2 (whole loop):\n");
        let mut scalars: Vec<_> = collapsed.scalar_exit.iter().collect();
        scalars.sort_by(|a, b| a.0.cmp(b.0));
        for (name, range) in scalars {
            out.push_str(&format!("    {name}: {range}\n"));
        }
        for fact in &collapsed.array_facts {
            out.push_str(&format!("    {fact}\n"));
        }
        for a in &collapsed.clobbered_arrays {
            out.push_str(&format!("    {a}: ⊥ (clobbered)\n"));
        }
        for s in &collapsed.clobbered_scalars {
            out.push_str(&format!("    {s}: ⊥ (clobbered)\n"));
        }
    }
    out.push_str("\n== facts at end of program ==\n");
    out.push_str(&format!("{}\n", analysis.db));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use crate::tests::{args, MapReader, FIG2};
    use crate::{run, SsError};
    use std::collections::HashMap;

    #[test]
    fn analyze_reports_the_figure2_verdict() {
        let reader = MapReader(HashMap::from([("fig2.c".to_string(), FIG2.to_string())]));
        let out = run(&args(&["analyze", "fig2.c", "--baseline"]), &reader).unwrap();
        assert!(out.contains("loop 1"));
        assert!(out.contains("PARALLEL"));
        assert!(out.contains("baseline (no index-array properties): serial"));
        assert!(out.contains("#pragma omp parallel for"));
        assert!(out.contains("mt_to_id"));
    }

    #[test]
    fn analyze_format_json_emits_the_stable_schema() {
        let reader = MapReader(HashMap::from([("fig2.c".to_string(), FIG2.to_string())]));
        let out = run(&args(&["analyze", "fig2.c", "--format", "json"]), &reader).unwrap();
        for key in [
            "\"program\":\"fig2.c\"",
            "\"verdicts\":[",
            "\"verdict\":\"parallel\"",
            "\"newly_enabled\":true",
            "\"stages\":[{\"stage\":\"analyze\"",
            "\"annotated_source\":",
            "#pragma omp parallel for",
        ] {
            assert!(out.contains(key), "missing {key} in {out}");
        }
        assert!(out.ends_with('\n'));
        // No text-table artifacts in the JSON output.
        assert!(!out.contains("== "));
    }

    #[test]
    fn no_source_suppresses_the_annotated_listing() {
        let reader = MapReader(HashMap::from([("fig2.c".to_string(), FIG2.to_string())]));
        let out = run(&args(&["analyze", "fig2.c", "--no-source"]), &reader).unwrap();
        assert!(!out.contains("annotated source"));
        assert!(!out.contains("#pragma"));
    }

    #[test]
    fn analyze_by_catalogue_name_works_and_unknown_names_fail() {
        let reader = MapReader(HashMap::new());
        let out = run(&args(&["analyze", "--kernel", "fig9_csr_product"]), &reader).unwrap();
        assert!(out.contains("rowptr"));
        assert!(out.contains("PARALLEL"));
        let err = run(&args(&["analyze", "--kernel", "not_a_kernel"]), &reader).unwrap_err();
        assert!(matches!(err, SsError::UnknownKernel(_)));
    }

    #[test]
    fn dump_bytecode_prints_the_register_machine_listing() {
        let reader = MapReader(HashMap::new());
        let out = run(
            &args(&[
                "analyze",
                "--kernel",
                "fig9_csr_product",
                "--no-source",
                "--dump-bytecode",
            ]),
            &reader,
        )
        .unwrap();
        assert!(
            out.contains("== register-machine bytecode (O1) =="),
            "{out}"
        );
        assert!(out.contains("const["), "{out}");
        assert!(out.contains("for      L"), "{out}");
        // The default (O1) listing carries the fused superinstructions; the
        // O0 listing carries none.
        assert!(out.contains("cmpbr"), "{out}");
        let o0 = run(
            &args(&[
                "analyze",
                "--kernel",
                "fig9_csr_product",
                "--no-source",
                "--dump-bytecode",
                "--opt-level",
                "0",
            ]),
            &reader,
        )
        .unwrap();
        assert!(o0.contains("== register-machine bytecode (O0) =="), "{o0}");
        assert!(!o0.contains("cmpbr"), "{o0}");
        assert!(!o0.contains("load2"), "{o0}");
        // trace does not accept the flags
        for flag in ["--dump-bytecode", "--opt-level"] {
            assert!(matches!(
                run(
                    &args(&["trace", "--kernel", "fig9_csr_product", flag]),
                    &reader
                ),
                Err(SsError::Usage(_))
            ));
        }
    }

    #[test]
    fn analyze_prints_the_pipeline_stage_trace() {
        let reader = MapReader(HashMap::new());
        let out = run(
            &args(&["analyze", "--kernel", "fig9_csr_product", "--no-source"]),
            &reader,
        )
        .unwrap();
        assert!(out.contains("== pipeline stages"), "{out}");
        for stage in ["analyze", "slots", "bytecode", "opt"] {
            assert!(out.contains(stage), "{out}");
        }
    }

    #[test]
    fn trace_shows_the_section_3_5_derivation() {
        let reader = MapReader(HashMap::new());
        let out = run(&args(&["trace", "--kernel", "fig9_csr_product"]), &reader).unwrap();
        assert!(out.contains("phase 1 (one iteration)"));
        assert!(out.contains("phase 2 (whole loop)"));
        assert!(out.contains("Monotonic_inc"));
        assert!(out.contains("count"));
    }

    #[test]
    fn analyze_and_run_report_reduction_verdicts() {
        let reader = MapReader(HashMap::new());
        let out = run(
            &args(&["analyze", "--kernel", "cg_norm_reduction"]),
            &reader,
        )
        .unwrap();
        assert!(out.contains("PARALLEL (reduction +:total)"), "{out}");
        assert!(out.contains("#pragma omp parallel for reduction(+:total)"));

        let out = run(
            &args(&[
                "run",
                "--kernel",
                "cg_norm_reduction",
                "--threads",
                "2",
                "--n",
                "100",
                "--validate",
            ]),
            &reader,
        )
        .unwrap();
        assert!(out.contains("REDUCTION"), "{out}");
        assert!(out.contains("validation: PASS"));
    }
}
