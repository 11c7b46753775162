//! What a run leaves behind: named metrics with sample counts, per-program
//! rows, the noise guard's verdict — and the result files made of them.

use crate::host::Provenance;
use crate::metrics::{self, PER_LAYER};
use ss_daemon::jsonin::{self, Value};
use ss_interp::json;
use std::collections::BTreeMap;

/// A metric value and how many samples it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    /// The value, as measured.
    pub value: f64,
    /// Samples behind it (0: the workload does not exercise the layer).
    pub samples: usize,
}

/// One (program, leg) row: floor, median, quartiles and sample count in ms.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Program (or request kind).
    pub program: String,
    /// Leg (`serial`, `parallel`, `best:threaded-O1`, …).
    pub leg: String,
    /// Samples.
    pub n: usize,
    /// Fastest sample, ms: what the end-to-end metrics are built from.
    pub floor_ms: f64,
    /// Median, ms.
    pub median_ms: f64,
    /// First quartile, ms.
    pub q1_ms: f64,
    /// Third quartile, ms.
    pub q3_ms: f64,
}

/// Everything one workload run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// Whether this was the traced run (per-layer metrics) or the untraced
    /// one (end-to-end metrics).
    pub traced: bool,
    /// Which interleaved set the run belongs to (`--sets`).
    pub set: usize,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// Ops attempted in the window.
    pub attempted: u64,
    /// Ops that errored, were refused, or failed their oracle.
    pub failed: u64,
    /// The named metrics.
    pub metrics: BTreeMap<String, Measured>,
    /// Per-program rows.
    pub rows: Vec<Row>,
    /// Calibration loop before the workload, ms.
    pub calib_ms: f64,
    /// Relative change of the calibration loop across the workload.
    pub calib_drift: f64,
    /// Drift beyond the limit: the host was not steady during this run.
    pub flagged: bool,
    /// First few oracle failures, verbatim.
    pub failures: Vec<String>,
}

impl RunRecord {
    /// True when every op passed its oracle.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The unit of metric `name`.
    pub fn unit_of(name: &str) -> &'static str {
        metrics::end_to_end(name)
            .map(|m| m.unit)
            .or_else(|| PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.1))
            .unwrap_or("")
    }

    /// The single-line result object the driver reads from the last line of
    /// standard output.
    pub fn contract_line(&self) -> String {
        json::object([
            ("correct", self.correct().to_string()),
            ("attempted", self.attempted.to_string()),
            ("failed", self.failed.to_string()),
            (
                "metrics",
                json::object(self.metrics.iter().map(|(name, m)| {
                    (
                        name.as_str(),
                        json::object([
                            ("value", json::number(m.value)),
                            ("unit", json::string(Self::unit_of(name))),
                        ]),
                    )
                })),
            ),
        ])
    }

    /// The record as a JSON object (one entry of a result file's `runs`).
    pub fn to_json(&self) -> String {
        json::object([
            ("workload", json::string(&self.workload)),
            ("traced", self.traced.to_string()),
            ("set", self.set.to_string()),
            ("seed", self.seed.to_string()),
            ("seconds", json::number(self.seconds)),
            ("attempted", self.attempted.to_string()),
            ("failed", self.failed.to_string()),
            (
                "metrics",
                json::object(self.metrics.iter().map(|(name, m)| {
                    let mut fields = vec![
                        ("value", json::number(m.value)),
                        ("unit", json::string(Self::unit_of(name))),
                        ("samples", m.samples.to_string()),
                    ];
                    if let Some(def) = metrics::end_to_end(name) {
                        fields.push(("better", json::string(def.better.label())));
                        fields.push(("bound", json::number(def.bound)));
                    }
                    (name.as_str(), json::object(fields))
                })),
            ),
            (
                "rows",
                json::array(self.rows.iter().map(|r| {
                    json::object([
                        ("program", json::string(&r.program)),
                        ("leg", json::string(&r.leg)),
                        ("n", r.n.to_string()),
                        ("floor_ms", json::number(r.floor_ms)),
                        ("median_ms", json::number(r.median_ms)),
                        ("q1_ms", json::number(r.q1_ms)),
                        ("q3_ms", json::number(r.q3_ms)),
                    ])
                })),
            ),
            ("calib_ms", json::number(self.calib_ms)),
            ("calib_drift", json::number(self.calib_drift)),
            ("flagged", self.flagged.to_string()),
            (
                "failures",
                json::string_array(self.failures.iter().map(String::as_str)),
            ),
        ])
    }

    fn from_value(v: &Value) -> Result<RunRecord, String> {
        let str_of = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("run record lacks string '{key}'"))
        };
        let num_of = |key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("run record lacks number '{key}'"))
        };
        let bool_of = |key: &str| -> Result<bool, String> {
            v.get(key)
                .and_then(Value::as_bool)
                .ok_or_else(|| format!("run record lacks boolean '{key}'"))
        };
        let Some(Value::Obj(metric_fields)) = v.get("metrics") else {
            return Err("run record lacks object 'metrics'".to_string());
        };
        let mut metrics = BTreeMap::new();
        for (name, m) in metric_fields {
            let field = |key: &str| {
                m.get(key)
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("metric '{name}' lacks number '{key}'"))
            };
            metrics.insert(
                name.clone(),
                Measured {
                    value: field("value")?,
                    samples: field("samples")? as usize,
                },
            );
        }
        let rows = v
            .get("rows")
            .and_then(Value::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(|r| {
                let num = |key: &str| r.get(key).and_then(Value::as_f64).unwrap_or(0.0);
                let text = |key: &str| {
                    r.get(key)
                        .and_then(Value::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                Row {
                    program: text("program"),
                    leg: text("leg"),
                    n: num("n") as usize,
                    floor_ms: num("floor_ms"),
                    median_ms: num("median_ms"),
                    q1_ms: num("q1_ms"),
                    q3_ms: num("q3_ms"),
                }
            })
            .collect();
        Ok(RunRecord {
            workload: str_of("workload")?,
            traced: bool_of("traced")?,
            set: num_of("set")? as usize,
            seed: num_of("seed")? as u64,
            seconds: num_of("seconds")?,
            attempted: num_of("attempted")? as u64,
            failed: num_of("failed")? as u64,
            metrics,
            rows,
            calib_ms: num_of("calib_ms")?,
            calib_drift: num_of("calib_drift")?,
            flagged: bool_of("flagged")?,
            failures: v
                .get("failures")
                .and_then(Value::as_arr)
                .unwrap_or(&[])
                .iter()
                .filter_map(|f| f.as_str().map(str::to_string))
                .collect(),
        })
    }

    /// The human-readable table: every metric by name with unit, direction,
    /// bound and sample count, then the per-program rows.
    pub fn table(&self) -> String {
        let mut out =
            format!(
            "== {} ({}) seed {} seconds {} · {} ops, {} failed · calib {:.2} ms drift {:+.1}%{}\n",
            self.workload,
            if self.traced { "traced" } else { "untraced" },
            self.seed,
            self.seconds,
            self.attempted,
            self.failed,
            self.calib_ms,
            self.calib_drift * 100.0,
            if self.flagged { " FLAGGED (host not steady)" } else { "" },
        );
        if self.traced {
            for (name, unit, better) in PER_LAYER {
                let Some(m) = self.metrics.get(name) else {
                    continue;
                };
                if m.samples == 0 {
                    continue; // layer not exercised by this workload
                }
                out.push_str(&format!(
                    "  {name:<36} {:>16.4} {unit:<6} {:<6} n={}\n",
                    m.value,
                    better.label(),
                    m.samples
                ));
            }
        } else {
            for def in metrics::END_TO_END {
                let Some(m) = self.metrics.get(def.name) else {
                    continue;
                };
                out.push_str(&format!(
                    "  {:<18} {:>14.4} {:<6} {:<6} bound {:<5} n={}\n",
                    def.name,
                    m.value,
                    def.unit,
                    def.better.label(),
                    def.bound,
                    m.samples
                ));
            }
            if let Some(ok) = self.metrics.get("ok_share") {
                out.push_str(&format!(
                    "  {:<18} {:>14.4} ratio  lower  (= 1 - ok_share; must be 0)\n",
                    "failed_share",
                    1.0 - ok.value
                ));
            }
        }
        for r in &self.rows {
            out.push_str(&format!(
                "    {:<28} {:<20} floor {:>10.4} ms  median {:>10.4}  q1 {:>10.4}  q3 {:>10.4}  n={}\n",
                r.program, r.leg, r.floor_ms, r.median_ms, r.q1_ms, r.q3_ms, r.n
            ));
        }
        for f in &self.failures {
            out.push_str(&format!("  FAILED: {f}\n"));
        }
        out
    }
}

/// A result file: provenance plus every run made.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchFile {
    /// Where the numbers came from.
    pub host: Provenance,
    /// Every run, in the order made.
    pub runs: Vec<RunRecord>,
}

impl BenchFile {
    /// The file as pretty-enough JSON: one run per line.
    pub fn to_json(&self) -> String {
        let runs: Vec<String> = self
            .runs
            .iter()
            .map(|r| format!("  {}", r.to_json()))
            .collect();
        format!(
            "{{\"schema\":\"ssbench/1\",\n\"host\":{},\n\"runs\":[\n{}\n]}}\n",
            self.host.to_json(),
            runs.join(",\n")
        )
    }

    /// Parses a result file.
    pub fn parse(text: &str) -> Result<BenchFile, String> {
        let doc = jsonin::parse(text)?;
        if doc.get("schema").and_then(Value::as_str) != Some("ssbench/1") {
            return Err("not an ssbench/1 result file".to_string());
        }
        let host = doc.get("host").ok_or("result file lacks 'host'")?;
        let text_of = |key: &str| {
            host.get(key)
                .and_then(Value::as_str)
                .unwrap_or("unknown")
                .to_string()
        };
        let count_of = |key: &str| host.get(key).and_then(Value::as_i64).unwrap_or(0) as usize;
        Ok(BenchFile {
            host: Provenance {
                git_rev: text_of("git_rev"),
                rustc: text_of("rustc"),
                nproc: count_of("nproc"),
                threads: count_of("threads"),
            },
            runs: doc
                .get("runs")
                .and_then(Value::as_arr)
                .ok_or("result file lacks 'runs'")?
                .iter()
                .map(RunRecord::from_value)
                .collect::<Result<_, _>>()?,
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn record(workload: &str, set: usize, values: &[(&str, f64)]) -> RunRecord {
        RunRecord {
            workload: workload.to_string(),
            traced: false,
            set,
            seed: 1,
            seconds: 1.0,
            attempted: 10,
            failed: 0,
            metrics: values
                .iter()
                .map(|(n, v)| {
                    (
                        n.to_string(),
                        Measured {
                            value: *v,
                            samples: 10,
                        },
                    )
                })
                .collect(),
            rows: vec![Row {
                program: "p".into(),
                leg: "serial".into(),
                n: 3,
                floor_ms: 1.0,
                median_ms: 1.5,
                q1_ms: 1.25,
                q3_ms: 2.0,
            }],
            calib_ms: 20.0,
            calib_drift: 0.01,
            flagged: false,
            failures: vec!["a \"quoted\" failure".into()],
        }
    }

    #[test]
    fn emitted_json_parses_back() {
        let file = BenchFile {
            host: Provenance {
                git_rev: "abc".into(),
                rustc: "rustc 1.0".into(),
                nproc: 2,
                threads: 2,
            },
            runs: vec![
                record(
                    "exec_proven",
                    0,
                    &[("op_ms_p50", 1.2034), ("ok_share", 1.0)],
                ),
                record("daemon_mix", 1, &[("ops_per_s", 22.5)]),
            ],
        };
        assert_eq!(BenchFile::parse(&file.to_json()).unwrap(), file);
        assert!(BenchFile::parse("{\"schema\":\"other\"}").is_err());
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let rec = record("exec_proven", 0, &[("op_ms_p50", 1.2034)]);
        let line = rec.contract_line();
        assert!(!line.contains('\n'));
        let Value::Obj(fields) = jsonin::parse(&line).unwrap() else {
            panic!()
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let doc = jsonin::parse(&line).unwrap();
        let m = doc.get("metrics").unwrap().get("op_ms_p50").unwrap();
        assert_eq!(m.get("value").and_then(Value::as_f64), Some(1.2034));
        assert_eq!(m.get("unit").and_then(Value::as_str), Some("ms"));
        assert!(rec.table().contains("op_ms_p50"));
    }
}
