//! # ss-bench — shared harness code for the paper's figures
//!
//! The integration tests and the runnable examples share the helpers in
//! this crate: converting the kernel catalogue into study inputs, and the
//! Figure 10 speedup sweep.  Measurement itself lives in one place, the
//! `ssbench` harness (`crates/benchmark`).

use ss_npb::{run_cg_with, scaled_params, CgParams, Class};
use ss_parallelizer::{run_study, StudyInput, StudyTable};

/// Converts the `ss-npb` kernel catalogue into study inputs for the
/// parallelizer's Figure-1 study.
pub fn catalogue_inputs() -> Vec<StudyInput> {
    ss_npb::study_kernels()
        .into_iter()
        .map(|k| StudyInput {
            name: k.name.to_string(),
            program: k.program.to_string(),
            suite: format!("{:?}", k.suite),
            pattern: k.class.label().to_string(),
            source: k.source.to_string(),
            target_loop: k.target_loop,
        })
        .collect()
}

/// Runs the Figure-1 study over the whole catalogue.
pub fn run_catalogue_study() -> StudyTable {
    run_study(&catalogue_inputs())
}

/// One measured point of the Figure 10 sweep.
#[derive(Debug, Clone)]
pub struct SpeedupPoint {
    /// NPB class.
    pub class: Class,
    /// Threads used for the subscripted-subscript loops.
    pub threads: usize,
    /// Wall-clock seconds of the timed section.
    pub seconds: f64,
    /// Speedup relative to the serial run of the same class.
    pub speedup: f64,
}

/// Runs the Figure 10 sweep: serial plus the given thread counts, for each
/// class, using problem sizes scaled by `fraction` (1.0 = official class
/// sizes).
pub fn figure10_sweep(classes: &[Class], threads: &[usize], fraction: f64) -> Vec<SpeedupPoint> {
    let mut out = Vec::new();
    for &class in classes {
        let params: CgParams = scaled_params(class, fraction);
        let serial = run_cg_with(&params, 1, 42);
        out.push(SpeedupPoint {
            class,
            threads: 1,
            seconds: serial.seconds,
            speedup: 1.0,
        });
        for &t in threads {
            if t <= 1 {
                continue;
            }
            let r = run_cg_with(&params, t, 42);
            out.push(SpeedupPoint {
                class,
                threads: t,
                seconds: r.seconds,
                speedup: serial.seconds / r.seconds.max(1e-12),
            });
        }
    }
    out
}

/// Renders the sweep as the Figure 10 table (classes × thread counts).
pub fn render_figure10(points: &[SpeedupPoint]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<8} {:>8} {:>12} {:>10}\n",
        "class", "threads", "seconds", "speedup"
    ));
    for p in points {
        out.push_str(&format!(
            "{:<8} {:>8} {:>12.4} {:>10.2}\n",
            p.class.name(),
            p.threads,
            p.seconds,
            p.speedup
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_converts_completely() {
        let inputs = catalogue_inputs();
        assert_eq!(inputs.len(), ss_npb::study_kernels().len());
        assert!(inputs.iter().all(|i| !i.source.is_empty()));
    }

    #[test]
    fn study_detects_every_catalogued_kernel() {
        let table = run_catalogue_study();
        // Every kernel is either proven parallel at compile time or marked
        // wavefront-schedulable for the runtime level-set tier.
        assert_eq!(
            table.detected_count() + table.wavefront_count(),
            table.rows.len()
        );
        assert!(table.wavefront_count() >= 2);
        // and the baseline detects none of them (they all hinge on
        // subscripted-subscript reasoning)
        assert_eq!(table.baseline_count(), 0);
    }

    #[test]
    fn tiny_figure10_sweep_produces_sane_numbers() {
        let points = figure10_sweep(&[Class::S], &[2], 0.2);
        assert_eq!(points.len(), 2);
        assert!(points.iter().all(|p| p.seconds > 0.0));
        assert!(points.iter().all(|p| p.speedup > 0.0));
        let txt = render_figure10(&points);
        assert!(txt.contains("class"));
        assert!(txt.contains('S'));
    }
}
