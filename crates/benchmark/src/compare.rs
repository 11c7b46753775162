//! `ssbench compare A.json B.json`: every end-to-end metric × workload, each
//! in its own row, held against the bound the benchmark fixed.
//!
//! `ok` means B's median is no worse than A's by more than the bound.
//! `regressed` means it is.  `unresolved` means one side's own runs spread
//! wider than the bound, so the difference cannot be told from noise —
//! unless every run of B reads better than every run of A, which is `ok`.

use crate::metrics::{Better, END_TO_END, WORKLOADS};
use crate::record::RunRecord;
use crate::stats;

/// Outcome of one metric × workload row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Within the bound.
    Ok,
    /// Worse than the bound allows.
    Regressed,
    /// Run-to-run spread wider than the bound.
    Unresolved,
}

impl Status {
    /// `ok` / `regressed` / `unresolved`.
    pub fn label(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Regressed => "regressed",
            Status::Unresolved => "unresolved",
        }
    }
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Workload.
    pub workload: &'static str,
    /// End-to-end metric.
    pub metric: &'static str,
    /// Median over A's runs (the base of `worse_by`).
    pub a: f64,
    /// Median over B's runs.
    pub b: f64,
    /// How much worse B is, as a share of A (negative: better).
    pub worse_by: f64,
    /// The metric's bound.
    pub bound: f64,
    /// Widest own spread of the two sides, as a share of the median.
    pub spread: f64,
    /// Outcome.
    pub status: Status,
}

fn values(runs: &[RunRecord], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| !r.traced && r.workload == workload)
        .filter_map(|r| r.metrics.get(metric).map(|m| m.value))
        .collect()
}

/// Compares the untraced runs of `a` (parent) and `b` (change).
pub fn compare(a: &[RunRecord], b: &[RunRecord]) -> Vec<Verdict> {
    let mut out = Vec::new();
    for (workload, _) in WORKLOADS {
        for def in END_TO_END {
            let (va, vb) = (values(a, workload, def.name), values(b, workload, def.name));
            let (Some(ma), Some(mb)) = (stats::median(&va), stats::median(&vb)) else {
                continue;
            };
            let sign = if def.better == Better::Lower {
                1.0
            } else {
                -1.0
            };
            let worse_by = if ma != 0.0 {
                sign * (mb - ma) / ma.abs()
            } else {
                sign * (mb - ma)
            };
            let spread = stats::relative_spread(&va).max(stats::relative_spread(&vb));
            let all_better = va.iter().all(|x| vb.iter().all(|y| sign * (y - x) < 0.0));
            let status = if spread > def.bound && !all_better {
                Status::Unresolved
            } else if worse_by > def.bound {
                Status::Regressed
            } else {
                Status::Ok
            };
            out.push(Verdict {
                workload,
                metric: def.name,
                a: ma,
                b: mb,
                worse_by,
                bound: def.bound,
                spread,
                status,
            });
        }
    }
    out
}

/// The comparison as a table, one row per metric × workload.
pub fn table(verdicts: &[Verdict]) -> String {
    let mut out = format!(
        "{:<18} {:<17} {:>14} {:>14} {:>9} {:>7} {:>7}  status\n",
        "workload", "metric", "A (base)", "B", "worse by", "bound", "spread"
    );
    for v in verdicts {
        out.push_str(&format!(
            "{:<18} {:<17} {:>14.4} {:>14.4} {:>+8.1}% {:>6.1}% {:>6.1}%  {}\n",
            v.workload,
            v.metric,
            v.a,
            v.b,
            v.worse_by * 100.0,
            v.bound * 100.0,
            v.spread * 100.0,
            v.status.label()
        ));
    }
    let count = |s: Status| verdicts.iter().filter(|v| v.status == s).count();
    out.push_str(&format!(
        "{} ok, {} regressed, {} unresolved\n",
        count(Status::Ok),
        count(Status::Regressed),
        count(Status::Unresolved)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::tests::record;

    fn status_of(verdicts: &[Verdict], metric: &str) -> Status {
        verdicts.iter().find(|v| v.metric == metric).unwrap().status
    }

    #[test]
    fn direction_and_bound_decide_each_row() {
        let bound = |name: &str| crate::metrics::end_to_end(name).unwrap().bound;
        let a = [record(
            "exec_proven",
            0,
            &[("op_ms_p50", 100.0), ("ops_per_s", 50.0), ("ok_share", 1.0)],
        )];
        // Slower by 0.8 of the bound: ok.  Fewer ops/s by 1.2 of it: regressed.
        let b = [record(
            "exec_proven",
            0,
            &[
                ("op_ms_p50", 100.0 * (1.0 + 0.8 * bound("op_ms_p50"))),
                ("ops_per_s", 50.0 * (1.0 - 1.2 * bound("ops_per_s"))),
                ("ok_share", 0.99),
            ],
        )];
        let verdicts = compare(&a, &b);
        assert_eq!(verdicts.len(), 3);
        assert_eq!(status_of(&verdicts, "op_ms_p50"), Status::Ok);
        assert_eq!(status_of(&verdicts, "ops_per_s"), Status::Regressed);
        // One failed op in a hundred is a regression of the exact metric.
        assert_eq!(status_of(&verdicts, "ok_share"), Status::Regressed);
        // Improvements never regress.
        assert!(compare(&b, &a).iter().all(|v| v.status == Status::Ok));
        assert!(table(&verdicts).contains("regressed"));
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_better() {
        let runs = |vals: &[f64]| -> Vec<RunRecord> {
            vals.iter()
                .map(|v| record("daemon_mix", 0, &[("serial_ms", *v)]))
                .collect()
        };
        // A's own runs differ by 30 % (bound 15 %): unresolved.
        let noisy = compare(&runs(&[100.0, 130.0]), &runs(&[110.0, 120.0]));
        assert_eq!(status_of(&noisy, "serial_ms"), Status::Unresolved);
        // Same spread, but every B run beats every A run: ok.
        let clear = compare(&runs(&[100.0, 130.0]), &runs(&[50.0, 60.0]));
        assert_eq!(status_of(&clear, "serial_ms"), Status::Ok);
        // Traced runs and other workloads are ignored.
        let mut traced = runs(&[100.0]);
        traced[0].traced = true;
        assert!(compare(&traced, &runs(&[100.0])).is_empty());
    }
}
