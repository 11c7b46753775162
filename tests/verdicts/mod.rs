//! The text both analysis goldens pin: per loop, in report order, its
//! extended and baseline verdicts, its reductions and wavefront flag, and
//! the reasons and blockers the Range Test gave.

use ss_parallelizer::ParallelizationReport;
use std::fmt::Write as _;

/// Appends `report`'s loops to `out`, one verdict line per loop followed
/// by its `+ reason` and `- blocker` lines.
pub fn write_loops(report: &ParallelizationReport, out: &mut String) {
    for l in &report.loops {
        writeln!(
            out,
            "{} parallel={} baseline={} reductions=[{}] wavefront={}",
            l.loop_id,
            l.parallel,
            l.baseline_parallel,
            l.reduction_clause(),
            l.wavefront.is_some()
        )
        .unwrap();
        for r in &l.reasons {
            writeln!(out, "  + {r}").unwrap();
        }
        for b in &l.blockers {
            writeln!(out, "  - {b}").unwrap();
        }
    }
}
