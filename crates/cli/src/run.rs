//! `sspar run`: the per-loop execution table of one differential run.

use crate::{session, OutputFormat};
use ss_interp::{ExecMode, InputSource, RunRequest, SsError, ValidationMode};
use ss_parallelizer::VerdictKind;

pub(crate) fn run_text(request: RunRequest, format: OutputFormat) -> Result<String, SsError> {
    // `--validate` decides whether a mismatch fails the command; the
    // differential matrix itself always runs (the table below reports
    // both legs and the validation line), off one (cached) pipeline
    // invocation — nothing below recompiles.
    let enforce = request.validation == ValidationMode::Differential;
    let request = request.validation(ValidationMode::Differential);
    let outcome = session().run(&request)?;
    if enforce {
        outcome.ensure_validated()?;
    }
    if format == OutputFormat::Json {
        return Ok(outcome.to_json() + "\n");
    }
    let name = &request.name;
    let InputSource::Synthesized(inputs) = &request.inputs else {
        unreachable!("no flag supplies an explicit heap")
    };

    // Opt-level-sensitive engines show which stream they ran.
    let resolved = session().registry().get(&outcome.engine)?;
    let mut engine_name = if resolved.caps().opt_levels.len() > 1 {
        format!("{} ({})", outcome.engine, outcome.opt_level)
    } else {
        outcome.engine.clone()
    };
    engine_name.push_str(" engine");
    if request.baseline_inspector {
        engine_name.push_str(" + inspector baseline");
    }
    let serial_stats = outcome.serial.as_ref().expect("differential runs serially");
    let parallel_stats = outcome
        .parallel
        .as_ref()
        .expect("differential runs in parallel");
    let mut out = String::new();
    out.push_str(&format!(
        "== {name}: executed with scale n={} seed={} on {} thread(s), {engine_name} ==\n",
        inputs.scale, inputs.seed, outcome.threads
    ));
    out.push('\n');
    out.push_str(&format!(
        "{:<6} {:<7} {:<10} {:<18} {:>12} {:>12} {:>9}\n",
        "loop", "index", "verdict", "execution", "serial s", "parallel s", "speedup"
    ));
    for v in &outcome.verdicts {
        let verdict = match v.verdict {
            VerdictKind::Parallel => "PARALLEL",
            VerdictKind::Reduction => "REDUCTION",
            VerdictKind::Serial => "serial",
        };
        let (mode, inspected) = match parallel_stats.loops.get(&v.loop_id) {
            Some(s) => (
                match s.mode {
                    ExecMode::Serial => "serial".to_string(),
                    ExecMode::Parallel { threads, dynamic } => format!(
                        "{} x{threads} threads",
                        if dynamic { "dynamic" } else { "static" }
                    ),
                },
                s.inspector_conflict_free,
            ),
            // Inner loops of dispatched bodies are accounted to their
            // dispatched ancestor.
            None => ("(inside parallel)".to_string(), None),
        };
        let serial_s = serial_stats
            .loops
            .get(&v.loop_id)
            .map(|s| s.seconds)
            .unwrap_or(0.0);
        let parallel_s = parallel_stats
            .loops
            .get(&v.loop_id)
            .map(|s| s.seconds)
            .unwrap_or(0.0);
        let speedup = if parallel_s > 0.0 && parallel_stats.loops.contains_key(&v.loop_id) {
            format!("{:.2}x", serial_s / parallel_s)
        } else {
            "-".to_string()
        };
        out.push_str(&format!(
            "L{:<5} {:<7} {:<10} {:<18} {:>12.6} {:>12.6} {:>9}\n",
            v.loop_id.0, v.index_var, verdict, mode, serial_s, parallel_s, speedup
        ));
        if let Some((levels, avg_width)) = parallel_stats
            .loops
            .get(&v.loop_id)
            .and_then(|s| s.wavefront)
        {
            out.push_str(&format!(
                "       wavefront: {levels} level(s), avg width {avg_width:.1}\n"
            ));
        }
        if let Some(cf) = inspected {
            out.push_str(&format!(
                "       runtime inspector baseline: {}\n",
                if cf {
                    "would parallelize (conflict-free at runtime)"
                } else {
                    "refuses (cross-iteration conflicts observed)"
                }
            ));
        }
    }
    out.push_str(&format!(
        "\ntotal: serial {:.6}s, parallel {:.6}s, speedup {:.2}x\n",
        serial_stats.total_seconds,
        parallel_stats.total_seconds,
        outcome.speedup().unwrap_or(0.0)
    ));
    if let Some(v) = &outcome.validation {
        if v.heaps_match {
            out.push_str(&format!(
                "validation: PASS (the reference and {} legs have bit-identical final heaps: {})\n",
                v.compared.len(),
                v.compared.join(", ")
            ));
        } else {
            out.push_str(
                "validation: FAIL (heaps diverge; rerun with --validate to exit nonzero)\n",
            );
            for m in &v.mismatches {
                out.push_str(&format!("  {m}\n"));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use crate::tests::{args, MapReader};
    use crate::{run, session, SsError};
    use std::collections::HashMap;

    #[test]
    fn run_executes_and_validates_the_figure2_kernel() {
        let reader = MapReader(HashMap::new());
        let out = run(
            &args(&[
                "run",
                "--kernel",
                "fig2_ua_transfer",
                "--threads",
                "2",
                "--n",
                "200",
                "--validate",
            ]),
            &reader,
        )
        .unwrap();
        assert!(out.contains("PARALLEL"));
        assert!(out.contains("threads"));
        assert!(out.contains("validation: PASS"));
        assert!(out.contains("speedup"));
    }

    #[test]
    fn run_validates_under_every_engine_and_opt_level() {
        let reader = MapReader(HashMap::new());
        for (engine_args, shown) in [
            (vec![], "wavefront (O1) engine"),
            (vec!["--engine", "bytecode"], "bytecode (O1) engine"),
            (
                vec!["--engine", "bytecode", "--opt-level", "0"],
                "bytecode (O0) engine",
            ),
            (vec!["--engine", "threaded"], "threaded (O1) engine"),
            (
                vec!["--engine", "threaded", "--opt-level", "0"],
                "threaded (O0) engine",
            ),
            // The threaded chain at O1, shown under its row name.
            (vec!["--engine", "compiled"], "compiled engine"),
            (vec!["--engine", "ast"], "ast engine"),
        ] {
            let mut a = vec![
                "run",
                "--kernel",
                "fig9_csr_product",
                "--threads",
                "2",
                "--n",
                "120",
                "--validate",
            ];
            a.extend(engine_args);
            let out = run(&args(&a), &reader).unwrap();
            assert!(out.contains(shown), "{out}");
            assert!(out.contains("validation: PASS"), "{shown}: {out}");
        }
    }

    #[test]
    fn run_rejects_unknown_engines_with_the_registered_list() {
        let reader = MapReader(HashMap::new());
        let err = run(
            &args(&["run", "--kernel", "fig2_ua_transfer", "--engine", "jit"]),
            &reader,
        )
        .unwrap_err();
        match &err {
            SsError::UnknownEngine { name, available } => {
                assert_eq!(name, "jit");
                assert_eq!(
                    available,
                    &session()
                        .registry()
                        .names()
                        .iter()
                        .map(|n| n.to_string())
                        .collect::<Vec<_>>()
                );
            }
            other => panic!("expected UnknownEngine, got {other:?}"),
        }
        assert_eq!(err.exit_code(), 5);
    }

    #[test]
    fn run_format_json_emits_the_run_outcome() {
        let reader = MapReader(HashMap::new());
        let out = run(
            &args(&[
                "run",
                "--kernel",
                "fig2_ua_transfer",
                "--threads",
                "2",
                "--n",
                "64",
                "--format",
                "json",
            ]),
            &reader,
        )
        .unwrap();
        for key in [
            "\"program\":\"fig2_ua_transfer\"",
            "\"engine\":\"wavefront\"",
            "\"validation\":{\"heaps_match\":true",
            "\"dispatched\":[",
        ] {
            assert!(out.contains(key), "missing {key} in {out}");
        }
    }

    #[test]
    fn run_reports_inspector_baseline_on_serial_loops() {
        let reader = MapReader(HashMap::from([(
            "hist.c".to_string(),
            "for (i = 0; i < n; i++) { h[idx[i]] = i; }".to_string(),
        )]));
        let out = run(
            &args(&[
                "run",
                "hist.c",
                "--baseline",
                "inspector",
                "--threads",
                "2",
                "--n",
                "64",
                "--validate",
            ]),
            &reader,
        )
        .unwrap();
        // The requested (default) engine ran the parallel leg itself and
        // produced the verdict: 64 random indices below 64 collide.
        assert!(
            out.contains("wavefront (O1) engine + inspector baseline =="),
            "{out}"
        );
        assert!(out.contains("runtime inspector baseline: refuses"), "{out}");
        assert!(out.contains("parallel wavefront"), "{out}");
        assert!(out.contains("validation: PASS"));
    }

    #[test]
    fn run_surfaces_execution_errors() {
        let reader = MapReader(HashMap::from([(
            "oob.c".to_string(),
            "x = a[0 - 5];".to_string(),
        )]));
        assert!(matches!(
            run(&args(&["run", "oob.c"]), &reader),
            Err(SsError::Runtime(_))
        ));
    }
}
