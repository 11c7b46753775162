//! A group holds one team, whatever sizes it is asked for: a request at
//! another size replaces the group's team and joins the old one's
//! workers, so requests naming distinct thread counts cannot pile up
//! parked workers.  Alone in its binary, because it reads the process's
//! thread count; Linux-only, because that count is the `Threads:` line of
//! `/proc/self/status`.
#![cfg(target_os = "linux")]

use ss_runtime::{team_parallel_for_schedule, with_shared_team_in, Schedule};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

fn os_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let line = status.lines().find_map(|l| l.strip_prefix("Threads:"));
    line.expect("a Threads: line").trim().parse().unwrap()
}

#[test]
fn a_group_asked_for_many_sizes_keeps_one_team() {
    const GROUP: usize = 7;
    let before = os_threads();
    for size in (2..=40).chain([3]) {
        let hits = AtomicUsize::new(0);
        with_shared_team_in(GROUP, size, |team| {
            assert_eq!(team.size(), size);
            team_parallel_for_schedule(team, 1000, Schedule::Static, |r| {
                hits.fetch_add(r.len(), Ordering::Relaxed);
            });
        });
        assert_eq!(hits.into_inner(), 1000, "size {size}");
    }
    // A joined worker may linger in the count for a moment after `join`
    // returns; a team kept alive never leaves it.
    let deadline = Instant::now() + Duration::from_secs(2);
    let mut gained = os_threads().saturating_sub(before);
    while gained > 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
        gained = os_threads().saturating_sub(before);
    }
    assert!(
        gained <= 2,
        "the group's last team has 2 workers, but the process gained {gained} threads"
    );
}
