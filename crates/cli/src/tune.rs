//! `sspar tune`: the policy-search table.

use crate::{input_spec, session, OutputFormat};
use ss_interp::{RunRequest, SsError, TunerConfig};

/// Searches the policy space for one kernel, prints the trial table and
/// the winner, and leaves the winner persisted in the session cache —
/// `sspar run --policy tuned` on the same (program, input shape)
/// reapplies it without re-searching.
pub(crate) fn tune_text(
    request: RunRequest,
    config: &TunerConfig,
    format: OutputFormat,
) -> Result<String, SsError> {
    let outcome = session().tune(&request, config)?;
    if format == OutputFormat::Json {
        return Ok(outcome.to_json() + "\n");
    }
    let name = &request.name;
    let inputs = input_spec(&request);
    let policy = &outcome.policy;
    let mut out = String::new();
    out.push_str(&format!(
        "== {name}: policy search at scale n={} seed={} (shape signature {:016x}) ==\n\n",
        inputs.scale, inputs.seed, outcome.signature
    ));
    out.push_str(&format!("{:<34} {:>12}\n", "policy", "median s"));
    for (i, t) in policy.trials.iter().enumerate() {
        let mut notes = Vec::new();
        if i == 0 {
            notes.push("default");
        }
        if t.point == policy.point {
            notes.push("winner");
        }
        out.push_str(&format!(
            "{:<34} {:>12.6}{}\n",
            t.point.label(),
            t.median_seconds,
            if notes.is_empty() {
                String::new()
            } else {
                format!("   <- {}", notes.join(", "))
            }
        ));
    }
    for p in &policy.pruned {
        out.push_str(&format!("pruned: {p}\n"));
    }
    out.push_str(&format!(
        "\nwinner: {} (median {:.6}s, {:.2}x vs default {:.6}s)\n",
        policy.point.label(),
        policy.median_seconds,
        policy.speedup_vs_default(),
        policy.default_median_seconds
    ));
    out.push_str(&format!(
        "provenance: {}\n",
        if outcome.cache_hit {
            "tuned-cache (persisted policy reapplied, no re-search)"
        } else {
            "tuned-search (fresh search, winner persisted)"
        }
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use crate::run;
    use crate::tests::{args, MapReader};
    use std::collections::HashMap;

    #[test]
    fn tune_searches_then_tuned_runs_reapply_the_persisted_policy() {
        let reader = MapReader(HashMap::new());
        let tune_args = args(&[
            "tune",
            "--kernel",
            "fig2_ua_transfer",
            "--n",
            "48",
            "--threads",
            "2",
            "--repeats",
            "1",
            "--budget-trials",
            "4",
        ]);
        let first = run(&tune_args, &reader).unwrap();
        assert!(first.contains("policy search"), "{first}");
        assert!(first.contains("<- default"), "{first}");
        assert!(first.contains("winner:"), "{first}");
        // The same (program, input shape) reapplies the persisted winner
        // without re-searching.
        let second = run(&tune_args, &reader).unwrap();
        assert!(second.contains("tuned-cache"), "{second}");
        // `run --policy tuned` applies it and reports the provenance.
        let run_out = run(
            &args(&[
                "run",
                "--kernel",
                "fig2_ua_transfer",
                "--n",
                "48",
                "--threads",
                "2",
                "--policy",
                "tuned",
                "--validate",
            ]),
            &reader,
        )
        .unwrap();
        assert!(run_out.contains("policy: tuned (tuned-cache)"), "{run_out}");
        assert!(run_out.contains("validation: PASS"), "{run_out}");
    }

    #[test]
    fn tune_format_json_emits_the_stable_outcome() {
        let reader = MapReader(HashMap::new());
        let out = run(
            &args(&[
                "tune",
                "--kernel",
                "csparse_ipvec",
                "--n",
                "40",
                "--repeats",
                "1",
                "--budget-trials",
                "3",
                "--format",
                "json",
            ]),
            &reader,
        )
        .unwrap();
        for key in [
            "\"program\":\"csparse_ipvec\"",
            "\"signature\":\"",
            "\"provenance\":\"tuned-",
            "\"winner\":{",
            "\"default_median_seconds\":",
            "\"speedup_vs_default\":",
            "\"trials\":[",
            "\"pruned\":[",
        ] {
            assert!(out.contains(key), "missing {key} in {out}");
        }
        assert!(out.ends_with('\n'));
    }
}
