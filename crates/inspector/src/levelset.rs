//! Dependence level sets: the inspector as a *scheduler*.
//!
//! The [`inspect`](crate::inspect) and [`lrpd`](crate::lrpd) baselines
//! answer a yes/no question — is this loop parallel for this input?  For
//! carried loops the answer is "no", and the cost-model baseline concedes
//! the whole SpTRSV / Gauss-Seidel workload class to serial execution.
//! Production sparse solvers do better: they inspect the dependence
//! structure once and run the loop as a sequence of parallel *wavefronts*
//! (level sets), where every iteration in a level depends only on
//! iterations in strictly earlier levels.
//!
//! [`build_level_sets`] turns per-iteration read/write address sets —
//! recorded by a faithful serial inspection pass — into that schedule
//! without materializing the iteration DAG.  Iterations are scanned in
//! serial order while two maps carry, per address, the deepest level that
//! wrote it (`wlevel`) and the deepest level that read it (`rlevel`):
//!
//! * an iteration's level is `max` over `wlevel[a] + 1` for every address
//!   it reads (RAW) and `max(wlevel[a], rlevel[a]) + 1` for every address
//!   it writes (WAW, WAR);
//! * afterwards its reads raise `rlevel` and its writes raise `wlevel` to
//!   that level.
//!
//! Two dependent iterations therefore never share a level, and iterations
//! within one level touch disjoint write sets — executing level by level
//! with a barrier between levels reproduces the serial result bit for bit.
//! A loop with no carried dependence at all collapses to a single level
//! (fully parallel); a true recurrence degenerates to `n` levels of one
//! iteration each, which the executor's cost threshold sends back to the
//! serial engine.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

static LEVELSET_BUILDS: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of [`build_level_sets`] invocations.  Kept because
/// `ssbench` reads it (its `inspector.levelset_builds` metric); tests read
/// where a run's schedule came from off the run's own loop statistics
/// instead.
pub fn levelset_build_count() -> u64 {
    LEVELSET_BUILDS.load(Ordering::Relaxed)
}

/// The read/write footprint of one iteration, as flat addresses.  What an
/// address *is* is the caller's business (the wavefront engine packs
/// `array slot << 48 | flattened index`); the schedule only needs equality
/// and hashing.
#[derive(Debug, Default, Clone)]
pub struct IterationAccess {
    /// Addresses the iteration read (value uses).
    pub reads: Vec<u64>,
    /// Addresses the iteration wrote.
    pub writes: Vec<u64>,
}

/// A wavefront schedule: iteration → level, plus the level-major view the
/// executor walks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelSchedule {
    /// `levels[k]` is the level of iteration ordinal `k`.
    pub levels: Vec<u32>,
    /// Iteration ordinals grouped by level, each group in ascending
    /// (serial) order: `by_level[l]` is wavefront `l`.
    pub by_level: Vec<Vec<u32>>,
}

impl LevelSchedule {
    /// Number of iterations scheduled.
    pub fn iterations(&self) -> usize {
        self.levels.len()
    }

    /// Number of wavefronts (1 ⇒ fully parallel, `iterations()` ⇒ a pure
    /// recurrence).
    pub fn nlevels(&self) -> usize {
        self.by_level.len()
    }

    /// Mean iterations per wavefront — the executor's profitability
    /// signal.  Zero-iteration schedules report 0.
    pub fn avg_width(&self) -> f64 {
        if self.by_level.is_empty() {
            0.0
        } else {
            self.levels.len() as f64 / self.by_level.len() as f64
        }
    }

    /// Approximate in-memory footprint in bytes (monotone, not exact) —
    /// what a byte-bounded artifact cache charges per cached schedule.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.levels.len() * std::mem::size_of::<u32>()
            + self
                .by_level
                .iter()
                .map(|l| std::mem::size_of::<Vec<u32>>() + l.len() * std::mem::size_of::<u32>())
                .sum::<usize>()
    }

    /// Renders the schedule in the golden-file layout: a header line, then
    /// one `level k: i0 i1 …` line per wavefront.
    pub fn render(&self) -> String {
        let mut out = format!(
            "iterations {} levels {} avg_width {:.2}\n",
            self.iterations(),
            self.nlevels(),
            self.avg_width()
        );
        for (level, iters) in self.by_level.iter().enumerate() {
            out.push_str(&format!("level {level}:"));
            for &k in iters {
                out.push_str(&format!(" {k}"));
            }
            out.push('\n');
        }
        out
    }
}

/// Builds the level-set schedule for a carried loop from each iteration's
/// recorded read/write address sets, in serial iteration order.
///
/// The construction is the standard one-pass scan described at module
/// level; it is `O(total accesses)` with two hash maps over the touched
/// addresses, and never builds the iteration DAG.
pub fn build_level_sets(accesses: &[IterationAccess]) -> LevelSchedule {
    LEVELSET_BUILDS.fetch_add(1, Ordering::Relaxed);
    let mut wlevel: HashMap<u64, u32> = HashMap::new();
    let mut rlevel: HashMap<u64, u32> = HashMap::new();
    let mut levels = Vec::with_capacity(accesses.len());
    let mut by_level: Vec<Vec<u32>> = Vec::new();
    for (k, acc) in accesses.iter().enumerate() {
        let mut level = 0u32;
        for a in &acc.reads {
            // RAW: run strictly after the deepest writer of this address.
            if let Some(&w) = wlevel.get(a) {
                level = level.max(w + 1);
            }
        }
        for a in &acc.writes {
            // WAW and WAR: run strictly after the deepest writer *and* the
            // deepest reader of this address.
            if let Some(&w) = wlevel.get(a) {
                level = level.max(w + 1);
            }
            if let Some(&r) = rlevel.get(a) {
                level = level.max(r + 1);
            }
        }
        for a in &acc.reads {
            let e = rlevel.entry(*a).or_insert(level);
            *e = (*e).max(level);
        }
        for a in &acc.writes {
            let e = wlevel.entry(*a).or_insert(level);
            *e = (*e).max(level);
        }
        levels.push(level);
        if by_level.len() <= level as usize {
            by_level.resize(level as usize + 1, Vec::new());
        }
        by_level[level as usize].push(k as u32);
    }
    LevelSchedule { levels, by_level }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(reads: &[u64], writes: &[u64]) -> IterationAccess {
        IterationAccess {
            reads: reads.to_vec(),
            writes: writes.to_vec(),
        }
    }

    #[test]
    fn independent_iterations_collapse_to_one_level() {
        // Disjoint writes, shared read-only input: fully parallel.
        let s = build_level_sets(&[acc(&[100], &[0]), acc(&[100], &[1]), acc(&[100], &[2])]);
        assert_eq!(s.levels, vec![0, 0, 0]);
        assert_eq!(s.nlevels(), 1);
        assert_eq!(s.by_level, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn a_pure_recurrence_gets_one_iteration_per_level() {
        // x[i] reads x[i-1]: the chain serializes completely.
        let s = build_level_sets(&[
            acc(&[], &[0]),
            acc(&[0], &[1]),
            acc(&[1], &[2]),
            acc(&[2], &[3]),
        ]);
        assert_eq!(s.levels, vec![0, 1, 2, 3]);
        assert_eq!(s.nlevels(), 4);
        assert!((s.avg_width() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn a_sparse_triangular_pattern_forms_wide_wavefronts() {
        // Row i reads the rows listed in its sparsity pattern and writes
        // itself — the SpTRSV shape.  Rows 0 and 1 are independent; 2
        // needs 0; 3 needs 1 and 2; 4 needs 0 only.
        let s = build_level_sets(&[
            acc(&[], &[10]),
            acc(&[], &[11]),
            acc(&[10], &[12]),
            acc(&[11, 12], &[13]),
            acc(&[10], &[14]),
        ]);
        assert_eq!(s.levels, vec![0, 0, 1, 2, 1]);
        assert_eq!(s.by_level, vec![vec![0, 1], vec![2, 4], vec![3]]);
    }

    #[test]
    fn waw_and_war_conflicts_are_ordered_not_ignored() {
        // Two writes to the same address (histogram shape) must land in
        // different levels, preserving last-writer-wins; a read followed
        // by a write of the same address (WAR) must also be split.
        let waw = build_level_sets(&[acc(&[], &[5]), acc(&[], &[5])]);
        assert_eq!(waw.levels, vec![0, 1]);
        let war = build_level_sets(&[acc(&[5], &[0]), acc(&[], &[5])]);
        assert_eq!(war.levels, vec![0, 1]);
    }

    #[test]
    fn within_iteration_reuse_does_not_self_serialize() {
        // An iteration reading and writing its *own* address is fine: the
        // conflict is within one iteration, not carried.
        let s = build_level_sets(&[acc(&[0], &[0]), acc(&[1], &[1])]);
        assert_eq!(s.levels, vec![0, 0]);
    }

    #[test]
    fn render_is_stable_and_line_oriented() {
        let s = build_level_sets(&[acc(&[], &[0]), acc(&[0], &[1]), acc(&[], &[2])]);
        let text = s.render();
        assert_eq!(
            text,
            "iterations 3 levels 2 avg_width 1.50\nlevel 0: 0 2\nlevel 1: 1\n"
        );
    }
}
