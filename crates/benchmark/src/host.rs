//! What qualifies a run: the host it ran on and how steady that host was.

use ss_interp::json;
use std::process::Command;
use std::time::Instant;

/// A fixed integer loop timed before and after every workload: if the same
/// arithmetic got more than [`DRIFT_LIMIT`] slower or faster, something
/// else was competing for the machine and the run is flagged.
pub fn calibrate_ms() -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for i in 0..8_000_000u64 {
            x = std::hint::black_box(x ^ (x << 13) ^ (x >> 7)).wrapping_add(i);
        }
        std::hint::black_box(x);
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Calibration drift beyond which a run is flagged.
pub const DRIFT_LIMIT: f64 = 0.10;

/// Peak resident set of this process in MiB (`VmHWM`), 0 where `/proc`
/// does not say.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

/// Where a result file came from.
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_rev: String,
    /// `rustc -V`.
    pub rustc: String,
    /// Hardware threads the container exposes.
    pub nproc: usize,
    /// `T = min(nproc, 4)`: threads of every parallel leg.
    pub threads: usize,
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

impl Provenance {
    /// Reads the provenance of the current checkout and host.
    pub fn read() -> Provenance {
        Provenance {
            git_rev: command_line("git", &["rev-parse", "HEAD"]),
            rustc: command_line("rustc", &["-V"]),
            nproc: ss_runtime::hardware_threads(),
            threads: crate::team_threads(),
        }
    }

    /// The provenance as a JSON object.
    pub fn to_json(&self) -> String {
        json::object([
            ("git_rev", json::string(&self.git_rev)),
            ("rustc", json::string(&self.rustc)),
            ("nproc", self.nproc.to_string()),
            ("threads", self.threads.to_string()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_and_rss_read_something() {
        assert!(calibrate_ms() > 0.0);
        assert!(peak_rss_mb() > 0.0);
        let p = Provenance::read();
        assert!(p.threads >= 1 && p.threads <= 4 && p.threads <= p.nproc);
        assert!(ss_daemon::jsonin::parse(&p.to_json()).is_ok());
    }
}
