//! Per-endpoint service metrics: request counts, error counts, and
//! latency percentiles over a bounded reservoir of recent samples.
//!
//! Everything is plain `std::sync` — a `Mutex` around small maps and
//! vectors is far below the noise floor of request handling (which
//! compiles and executes programs).  The JSON rendering goes through
//! `ss_interp::json`, like every other machine-readable surface.

use ss_interp::json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Most recent latency samples kept per endpoint; percentile error from
/// this cap is negligible for a p99 over steady traffic.
const RESERVOIR: usize = 4096;

#[derive(Debug, Default)]
struct EndpointStats {
    count: u64,
    errors: u64,
    /// Ring buffer of recent latencies in microseconds.
    samples: Vec<u64>,
    next: usize,
}

impl EndpointStats {
    fn record(&mut self, latency: Duration, ok: bool) {
        self.count += 1;
        if !ok {
            self.errors += 1;
        }
        let micros = latency.as_micros().min(u64::MAX as u128) as u64;
        if self.samples.len() < RESERVOIR {
            self.samples.push(micros);
        } else {
            self.samples[self.next] = micros;
            self.next = (self.next + 1) % RESERVOIR;
        }
    }
}

/// Sorted-copy nearest-rank percentile: the smallest sample such that at
/// least `p`% of the set is ≤ it (`rank = ⌈p/100 · N⌉`, 1-based); `None`
/// on an empty sample set.
pub fn percentile_micros(samples: &[u64], p: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    Some(sorted[(rank - 1).min(sorted.len() - 1)])
}

/// Daemon-wide metrics: one latency/count record per operation plus
/// transport-level rejection counters.
#[derive(Debug, Default)]
pub struct StatsRegistry {
    endpoints: Mutex<BTreeMap<&'static str, EndpointStats>>,
    overloaded: AtomicU64,
    rejected_malformed: AtomicU64,
    rejected_oversized: AtomicU64,
    timeouts: AtomicU64,
    internal: AtomicU64,
}

impl StatsRegistry {
    /// A fresh, all-zero registry.
    pub fn new() -> StatsRegistry {
        StatsRegistry::default()
    }

    /// Records one served request for `op` (`ok = false` for requests
    /// answered with an execution error).
    pub fn record(&self, op: &'static str, latency: Duration, ok: bool) {
        self.endpoints
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entry(op)
            .or_default()
            .record(latency, ok);
    }

    /// Counts a queue-full rejection.
    pub fn count_overloaded(&self) {
        self.overloaded.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a malformed request line.
    pub fn count_malformed(&self) {
        self.rejected_malformed.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts an oversized request line.
    pub fn count_oversized(&self) {
        self.rejected_oversized.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts an idle-connection timeout.
    pub fn count_timeout(&self) {
        self.timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a request whose handler panicked.
    pub fn count_internal(&self) {
        self.internal.fetch_add(1, Ordering::Relaxed);
    }

    /// Total queue-full rejections so far.
    pub fn overloaded_total(&self) -> u64 {
        self.overloaded.load(Ordering::Relaxed)
    }

    /// Requests served for `op` so far.
    pub fn served(&self, op: &str) -> u64 {
        self.endpoints
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(op)
            .map(|e| e.count)
            .unwrap_or(0)
    }

    /// The metrics as one JSON object:
    /// `{"endpoints":{op:{count,errors,p50_ms,p95_ms,p99_ms}},"rejected":{…}}`.
    pub fn to_json(&self) -> String {
        let endpoints = self.endpoints.lock().unwrap_or_else(|e| e.into_inner());
        let per_op = json::object(endpoints.iter().map(|(op, stats)| {
            let pct = |p: f64| {
                percentile_micros(&stats.samples, p)
                    .map(|micros| json::number(micros as f64 / 1000.0))
                    .unwrap_or_else(|| "null".to_string())
            };
            (
                *op,
                json::object([
                    ("count", stats.count.to_string()),
                    ("errors", stats.errors.to_string()),
                    ("p50_ms", pct(50.0)),
                    ("p95_ms", pct(95.0)),
                    ("p99_ms", pct(99.0)),
                ]),
            )
        }));
        json::object([
            ("endpoints", per_op),
            (
                "rejected",
                json::object([
                    ("overloaded", self.overloaded_total().to_string()),
                    (
                        "malformed",
                        self.rejected_malformed.load(Ordering::Relaxed).to_string(),
                    ),
                    (
                        "oversized",
                        self.rejected_oversized.load(Ordering::Relaxed).to_string(),
                    ),
                    (
                        "timeouts",
                        self.timeouts.load(Ordering::Relaxed).to_string(),
                    ),
                    (
                        "internal",
                        self.internal.load(Ordering::Relaxed).to_string(),
                    ),
                ]),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        // Nearest-rank: the p50 of 1..=100 is 50, not 51 — the smallest
        // sample with at least half the set at or below it.
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_micros(&samples, 50.0), Some(50));
        assert_eq!(percentile_micros(&samples, 95.0), Some(95));
        assert_eq!(percentile_micros(&samples, 99.0), Some(99));
        assert_eq!(percentile_micros(&samples, 100.0), Some(100));
        assert_eq!(percentile_micros(&[], 50.0), None);
        assert_eq!(percentile_micros(&[7], 99.0), Some(7));
        // Odd-sized set: p50 of {10, 20, 30} is the true median 20.
        assert_eq!(percentile_micros(&[10, 20, 30], 50.0), Some(20));
        // A sub-1-rank percentile clamps to the smallest sample.
        assert_eq!(percentile_micros(&samples, 0.1), Some(1));
    }

    #[test]
    fn recording_accumulates_and_renders() {
        let stats = StatsRegistry::new();
        stats.record("run", Duration::from_millis(2), true);
        stats.record("run", Duration::from_millis(4), false);
        stats.record("analyze", Duration::from_micros(500), true);
        stats.count_overloaded();
        stats.count_malformed();
        assert_eq!(stats.served("run"), 2);
        assert_eq!(stats.served("stats"), 0);
        assert_eq!(stats.overloaded_total(), 1);

        let rendered = stats.to_json();
        let v = crate::jsonin::parse(&rendered).unwrap();
        let run = v.get("endpoints").and_then(|e| e.get("run")).unwrap();
        assert_eq!(run.get("count").and_then(|c| c.as_i64()), Some(2));
        assert_eq!(run.get("errors").and_then(|c| c.as_i64()), Some(1));
        assert!(run.get("p99_ms").and_then(|c| c.as_f64()).unwrap() >= 2.0);
        let rejected = v.get("rejected").unwrap();
        assert_eq!(rejected.get("overloaded").and_then(|c| c.as_i64()), Some(1));
        assert_eq!(rejected.get("malformed").and_then(|c| c.as_i64()), Some(1));
        assert_eq!(rejected.get("oversized").and_then(|c| c.as_i64()), Some(0));
    }

    #[test]
    fn reservoir_is_bounded() {
        let stats = StatsRegistry::new();
        for i in 0..(RESERVOIR as u64 + 100) {
            stats.record("run", Duration::from_micros(i), true);
        }
        let guard = stats.endpoints.lock().unwrap();
        let run = guard.get("run").unwrap();
        assert_eq!(run.samples.len(), RESERVOIR);
        assert_eq!(run.count, RESERVOIR as u64 + 100);
    }
}
