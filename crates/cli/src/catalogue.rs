//! `sspar study` / `sspar kernels` / `sspar engines`: the built-in
//! catalogue and the engine registry.

use crate::{session, OutputFormat};
use ss_interp::registry_json;

pub(crate) fn engines_text(format: OutputFormat) -> String {
    let registry = session().registry();
    if format == OutputFormat::Json {
        return registry_json(registry) + "\n";
    }
    let width = (registry.iter())
        .map(|e| e.description().chars().count())
        .max()
        .unwrap_or(0);
    let mut out = String::new();
    out.push_str(&format!(
        "{:<10} {:<8} {:<width$} capabilities\n",
        "engine", "default", "description"
    ));
    for (i, e) in registry.iter().enumerate() {
        let caps = e.caps();
        let mut flags = Vec::new();
        if caps.reference {
            flags.push("reference".to_string());
        }
        if caps.reductions {
            flags.push("reductions".to_string());
        }
        if caps.local_arrays {
            flags.push("local-arrays".to_string());
        }
        if caps.level_sets {
            flags.push("level-sets".to_string());
        }
        flags.push(format!(
            "opt-levels:{}",
            caps.opt_levels
                .iter()
                .map(|l| l.to_string())
                .collect::<Vec<_>>()
                .join("/")
        ));
        out.push_str(&format!(
            "{:<10} {:<8} {:<width$} {}\n",
            e.name(),
            if i == 0 { "*" } else { "" },
            e.description(),
            flags.join(", ")
        ));
    }
    out
}

pub(crate) fn study_text() -> String {
    ss_npb::run_catalogue_study().render()
}

pub(crate) fn kernels_text() -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<24} {:<26} {:<30} {:>11}\n",
        "kernel", "program", "pattern", "target loop"
    ));
    for k in ss_npb::study_kernels() {
        out.push_str(&format!(
            "{:<24} {:<26} {:<30} {:>11}\n",
            k.name,
            k.program,
            k.class.label(),
            k.target_loop
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::tests::{args, MapReader};
    use crate::{run, session};
    use std::collections::HashMap;

    #[test]
    fn engines_lists_the_registry_with_capabilities() {
        let reader = MapReader(HashMap::new());
        let out = run(&args(&["engines"]), &reader).unwrap();
        // Every registered engine appears, flagged from its own caps —
        // the list cannot drift from what --engine accepts.
        for e in session().registry().iter() {
            assert!(out.contains(e.name()), "{out}");
            assert!(out.contains(e.description()), "{out}");
        }
        assert!(out.contains("reference"));
        assert!(out.contains("level-sets"));
        assert!(out.contains("opt-levels:O0/O1"));
        let json = run(&args(&["engines", "--format", "json"]), &reader).unwrap();
        assert!(json.contains("\"engines\":["), "{json}");
        assert!(json.contains("\"default\":true"), "{json}");
        assert!(json.contains("\"opt_levels\":[\"O0\",\"O1\"]"), "{json}");
    }

    #[test]
    fn engines_capability_column_starts_at_one_offset() {
        let reader = MapReader(HashMap::new());
        let out = run(&args(&["engines"]), &reader).unwrap();
        let mut lines = out.lines();
        let header = lines.next().expect("a header row");
        let offset = header.find("capabilities").expect("a capabilities column");
        for line in lines {
            let chars: Vec<char> = line.chars().collect();
            assert!(
                chars[offset - 1] == ' ' && chars[offset] != ' ',
                "a capability column off offset {offset}:\n{out}"
            );
        }
    }

    #[test]
    fn study_and_kernels_render_the_catalogue() {
        let reader = MapReader(HashMap::new());
        let study = run(&args(&["study"]), &reader).unwrap();
        assert!(study.contains("fig2_ua_transfer"));
        assert!(study.contains("parallelized by the extended analysis"));
        let kernels = run(&args(&["kernels"]), &reader).unwrap();
        assert!(kernels.contains("csparse_ipvec"));
        assert!(kernels.contains("is_bucket_traversal"));
    }
}
