//! The auto-tuner (`ss_tuner`): kease-style measured search over the
//! execution-policy space, with winners persisted on the compiled
//! artifacts.
//!
//! The engine ladder gives every kernel a real policy space — every
//! non-reference registry row × the opt levels it distinguishes (the rows
//! the differential [`matrix`] runs) × schedule {static, dynamic} ×
//! dynamic chunk size {1, 4, 16, 64} × thread count — and the right point
//! depends on the kernel *and* its input shape (a skewed CSR matrix wants
//! dynamic scheduling; a pure recurrence wants to stay serial).  Instead
//! of hand-picking, [`search`] measures: every candidate runs `warmup`
//! untimed repetitions followed by `repeats` timed ones, and the candidate
//! with the smallest median wall-clock wins.  The default policy (the
//! registry default @ O1, auto schedule) is always candidate #0, so the
//! winner's median is ≤ the default's **by construction** on the
//! measuring host.
//!
//! The search is deterministic: candidates are enumerated in a fixed
//! order, shuffled only by the explicit [`TunerConfig::seed`] (a stable
//! hash-ranked permutation, so two searches with one seed measure the
//! same candidates in the same order — the property the determinism
//! tests pin).  It is also *pruned by the compile-time facts* already on
//! the artifacts, so no time is burned on legs the analysis can reject:
//!
//! * kernels whose loops carry no skew fact and no wavefront fact keep
//!   every leg; **skewed** kernels skip the static-only legs (dynamic
//!   scheduling dominates on skewed iteration spaces);
//! * kernels with **no wavefront-schedulable loop** skip the rows with
//!   the level-set strategy entirely (their serial path *is* their
//!   executor's own row);
//! * kernels with **no dispatchable loop at all** (nothing proven
//!   parallel, nothing wavefront-schedulable) skip every multi-thread
//!   leg.
//!
//! The winning [`TunedPolicy`] is persisted in the Session artifact
//! cache: it lives in an [`EngineArtifact`] extension slot on the
//! [`Artifacts`] (slot `("tuner", 0)`), keyed inside the slot by the
//! [`input_signature`] of the initial heap — so the full persistence key
//! is `(program content hash, input-shape signature)`, the policy rides
//! the session's LRU order, and its footprint is charged to the byte
//! bound through [`EngineArtifact::approx_bytes`] like any other engine
//! lowering.  [`Session::run`](crate::Session::run) with
//! [`RunPolicy::Tuned`](crate::RunPolicy::Tuned) applies a cached policy
//! with **zero re-search**: [`Session::tuner_stats`](crate::Session::tuner_stats)
//! counts the searches a session ran, and a cache hit adds none.

use crate::engine::{EngineRegistry, ExecOptions, ScheduleChoice};
use crate::error::SsError;
use crate::fnv::Fnv1a;
use crate::heap::Heap;
use crate::matrix;
use ss_ir::bytecode::{walk, Instr};
use ss_ir::opt::OptLevel;
use ss_parallelizer::{Artifacts, EngineArtifact};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// The chunk sizes the dynamic-schedule legs sweep.
pub const CHUNK_SIZES: [usize; 4] = [1, 4, 16, 64];

// ---------------------------------------------------------------------------
// Policy points and tuned winners.
// ---------------------------------------------------------------------------

/// One point of the policy space: everything a run needs to reproduce a
/// trial — engine, opt level, schedule (with the dynamic chunk size) and
/// thread count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyPoint {
    /// Engine name, resolved against the session registry.
    pub engine: String,
    /// Bytecode stream the engine executes.
    pub opt_level: OptLevel,
    /// Scheduling of dispatched loops.
    pub schedule: ScheduleChoice,
    /// Fixed dynamic chunk size (`None` = auto-derived; ignored by static
    /// schedules).
    pub chunk: Option<usize>,
    /// Worker threads; `1` means the serial path.
    pub threads: usize,
}

impl PolicyPoint {
    /// The default policy every consumer gets without tuning: the
    /// registry's default engine at O1, auto schedule, `threads` workers.
    /// Always measured as candidate #0, so a tuned winner can never be
    /// slower than it on the measuring host.
    pub fn default_point(registry: &EngineRegistry, threads: usize) -> PolicyPoint {
        PolicyPoint {
            engine: registry.default_engine().name().to_string(),
            opt_level: OptLevel::O1,
            schedule: ScheduleChoice::Auto,
            chunk: None,
            threads,
        }
    }

    /// Stable human/machine label: `bytecode@O1 serial`,
    /// `threaded@O0 x4 static`, `wavefront@O1 x2 dynamic/16`.
    pub fn label(&self) -> String {
        let sched = match (self.schedule, self.chunk) {
            (ScheduleChoice::Auto, _) => "auto".to_string(),
            (ScheduleChoice::Static, _) => "static".to_string(),
            (ScheduleChoice::Dynamic, None) => "dynamic".to_string(),
            (ScheduleChoice::Dynamic, Some(c)) => format!("dynamic/{c}"),
        };
        if self.threads <= 1 {
            format!("{}@{} serial", self.engine, self.opt_level)
        } else {
            format!(
                "{}@{} x{} {}",
                self.engine, self.opt_level, self.threads, sched
            )
        }
    }

    /// The engine options this point selects, layered over `base` (which
    /// keeps the non-tuned knobs: iteration cap, team group, trip
    /// threshold, inspector flag).
    pub fn apply(&self, base: ExecOptions) -> ExecOptions {
        ExecOptions {
            threads: self.threads,
            schedule: self.schedule,
            chunk: self.chunk,
            opt_level: self.opt_level,
            ..base
        }
    }
}

/// One measured trial of the search table.
#[derive(Debug, Clone)]
pub struct Trial {
    /// The candidate measured.
    pub point: PolicyPoint,
    /// Median wall-clock seconds over [`TunerConfig::repeats`] timed runs.
    pub median_seconds: f64,
}

/// The search result: the winning point, the full measured table and what
/// the pruner skipped.  Persisted (behind an `Arc`) in the artifact-cache
/// extension slot; [`approx_bytes`](Self::approx_bytes) is its charge
/// against the session byte bound.
#[derive(Debug, Clone)]
pub struct TunedPolicy {
    /// The winning policy point (smallest measured median; earliest in
    /// trial order on ties).
    pub point: PolicyPoint,
    /// The winner's median wall-clock seconds.
    pub median_seconds: f64,
    /// The default policy's median on the same host — the before/after
    /// baseline (winner ≤ default always holds: the default is measured
    /// as candidate #0).
    pub default_median_seconds: f64,
    /// Every measured trial, in measurement order (the search table).
    pub trials: Vec<Trial>,
    /// What the fact-based pruner (and the trial budget) skipped.
    pub pruned: Vec<String>,
}

impl TunedPolicy {
    /// Winner speedup over the default policy (≥ 1.0 up to timer noise).
    pub fn speedup_vs_default(&self) -> f64 {
        self.default_median_seconds / self.median_seconds.max(1e-12)
    }

    /// Approximate in-memory footprint (same contract as
    /// [`Artifacts::approx_bytes`]): monotone in table size, not exact.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self
                .trials
                .iter()
                .map(|t| std::mem::size_of::<Trial>() + t.point.engine.len())
                .sum::<usize>()
            + self.pruned.iter().map(|p| 24 + p.len()).sum::<usize>()
    }
}

// ---------------------------------------------------------------------------
// Persistence: the tuned-policy cache as an engine artifact.
// ---------------------------------------------------------------------------

/// Tuned policies cached on the artifacts, keyed by input-shape
/// signature.  The enclosing Session cache entry is keyed by the program
/// content hash, so the full persistence key is
/// `(program hash, input-shape signature)`; eviction of the artifacts
/// evicts the policies with them, and the footprint is charged through
/// [`EngineArtifact::approx_bytes`].
#[derive(Default)]
pub struct TunedPolicyCache {
    map: Mutex<HashMap<u64, Arc<TunedPolicy>>>,
}

impl EngineArtifact for TunedPolicyCache {
    fn approx_bytes(&self) -> usize {
        let map = self.map.lock().unwrap_or_else(|e| e.into_inner());
        std::mem::size_of::<Self>() + map.values().map(|p| 16 + p.approx_bytes()).sum::<usize>()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

fn policy_cache(artifacts: &Artifacts) -> Arc<dyn EngineArtifact> {
    artifacts.engine_artifact("tuner", 0, || Arc::<TunedPolicyCache>::default())
}

fn as_cache(arc: &Arc<dyn EngineArtifact>) -> &TunedPolicyCache {
    arc.as_any()
        .downcast_ref::<TunedPolicyCache>()
        .expect("the tuner owns its artifact slot")
}

/// The policy persisted for `signature` on these artifacts, if any.
pub fn cached_policy(artifacts: &Artifacts, signature: u64) -> Option<Arc<TunedPolicy>> {
    let cache = policy_cache(artifacts);
    let map = as_cache(&cache)
        .map
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    map.get(&signature).cloned()
}

/// Persists `policy` for `signature` on these artifacts (last write wins,
/// like concurrent compilations of one program).
pub fn store_policy(artifacts: &Artifacts, signature: u64, policy: Arc<TunedPolicy>) {
    let cache = policy_cache(artifacts);
    as_cache(&cache)
        .map
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(signature, policy);
}

/// The input-*shape* signature a tuned policy is keyed by: the crate's
/// word-wise FNV-1a (`fnv.rs`), finalized with SplitMix64, of the scalars
/// (name and value — loop bounds live here) and the array names and
/// extents.  Array *contents* are deliberately excluded: a policy is a
/// performance choice, not a correctness artifact, so inputs of one shape
/// share a policy even when their data differs (the wavefront engine's
/// own schedule cache — a correctness artifact — keys by contents).
pub fn input_signature(heap: &Heap) -> u64 {
    let mut fnv = Fnv1a::new();
    for (name, value) in &heap.scalars {
        fnv.write(name.as_bytes());
        fnv.write(&value.to_le_bytes());
    }
    for (name, arr) in &heap.arrays {
        fnv.write(name.as_bytes());
        for &d in &arr.dims {
            fnv.write(&(d as u64).to_le_bytes());
        }
    }
    let mut h = fnv.0;
    // SplitMix64 finalizer, same avalanche as the input synthesizer's.
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

// ---------------------------------------------------------------------------
// The search.
// ---------------------------------------------------------------------------

/// Knobs of one tuning search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TunerConfig {
    /// Maximum number of candidates measured (the default policy is always
    /// measured and does not count against the budget); `None` measures
    /// every enumerated candidate.
    pub budget_trials: Option<usize>,
    /// Timed repetitions per candidate (the median is the score).
    pub repeats: usize,
    /// Untimed warmup repetitions per candidate.
    pub warmup: usize,
    /// Orders the non-default candidates (a stable hash-ranked
    /// permutation): one seed, one trial order — always.
    pub seed: u64,
}

impl Default for TunerConfig {
    fn default() -> TunerConfig {
        TunerConfig {
            budget_trials: None,
            repeats: 3,
            warmup: 1,
            seed: 0,
        }
    }
}

/// The compile-time facts the pruner consults.
struct KernelFacts {
    /// Any loop in the O1 stream is skewed (CSR-shaped or triangular
    /// inner bounds).
    skewed: bool,
    /// Any loop carries a wavefront fact.
    wavefront: bool,
    /// Any loop is proven parallel (outermost).
    parallel: bool,
}

fn kernel_facts(artifacts: &Artifacts) -> KernelFacts {
    let mut skewed = false;
    walk(&artifacts.bytecode_at(OptLevel::O1).main, &mut |i| {
        skewed |= matches!(i, Instr::For(f) if f.skewed);
    });
    KernelFacts {
        skewed,
        wavefront: artifacts.report.loops.iter().any(|l| l.wavefront.is_some()),
        parallel: !artifacts.report.outermost_parallel_loops().is_empty(),
    }
}

fn rank(seed: u64, label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ seed;
    for b in label.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^ (h >> 31)
}

/// Enumerates the candidate policy points for these artifacts, pruned by
/// the compile-time loop facts, in the deterministic trial order `seed`
/// selects.  The default point ([`PolicyPoint::default_point`]) is always
/// first; `pruned` receives one note per skipped leg class.  Pure: same
/// artifacts, same seed, same list — the determinism tests pin this.
pub fn enumerate_candidates(
    registry: &EngineRegistry,
    artifacts: &Artifacts,
    base_threads: usize,
    seed: u64,
    pruned: &mut Vec<String>,
) -> Vec<PolicyPoint> {
    let facts = kernel_facts(artifacts);
    if !facts.wavefront {
        pruned.push("wavefront legs (no wavefront-schedulable loop)".to_string());
    }
    let mut thread_legs: Vec<usize> = Vec::new();
    if facts.parallel || facts.wavefront {
        for t in [2, ss_runtime::hardware_threads(), base_threads] {
            if t > 1 && !thread_legs.contains(&t) {
                thread_legs.push(t);
            }
        }
        thread_legs.sort_unstable();
    } else {
        pruned.push("multi-thread legs (no dispatchable loop)".to_string());
    }
    let mut schedules: Vec<(ScheduleChoice, Option<usize>)> = Vec::new();
    if facts.skewed {
        pruned.push("static legs (skewed loops)".to_string());
    } else {
        schedules.push((ScheduleChoice::Static, None));
    }
    for c in CHUNK_SIZES {
        schedules.push((ScheduleChoice::Dynamic, Some(c)));
    }

    let mut candidates = Vec::new();
    for (row, level) in matrix::rows(registry) {
        let level_sets = row.caps().level_sets;
        if level_sets && !facts.wavefront {
            continue;
        }
        let point = |threads, (schedule, chunk)| PolicyPoint {
            engine: row.name().to_string(),
            opt_level: level,
            schedule,
            chunk,
            threads,
        };
        // Serial legs: a level-set row's serial path *is* its executor's,
        // which has its own row, so it gets no serial candidates.
        if !level_sets {
            candidates.push(point(1, (ScheduleChoice::Auto, None)));
        }
        for &threads in &thread_legs {
            for &sched in &schedules {
                candidates.push(point(threads, sched));
            }
        }
    }
    // An undispatchable kernel never hands a loop to the thread team, so
    // the default's thread count is behaviorally irrelevant; pin it to 1
    // to keep the candidate set serial-only.
    let default_threads = if facts.parallel || facts.wavefront {
        base_threads
    } else {
        1
    };
    let default = PolicyPoint::default_point(registry, default_threads);
    candidates.retain(|p| *p != default);
    candidates.sort_by_key(|p| rank(seed, &p.label()));
    candidates.insert(0, default);
    candidates
}

/// Searches the policy space for these artifacts and input: warmup +
/// median-of-`repeats` timed trials per candidate, deterministic trial
/// ordering, fact-pruned legs, winner by smallest median (first in trial
/// order on exact ties — so the default wins draws).  Does **not**
/// consult or fill the persisted-policy cache; that is
/// [`Session::tune`](crate::Session::tune)'s job.
pub fn search(
    registry: &EngineRegistry,
    artifacts: &Artifacts,
    initial: &Heap,
    base: &ExecOptions,
    config: &TunerConfig,
) -> Result<TunedPolicy, SsError> {
    let mut pruned = Vec::new();
    let threads = base.threads.max(1);
    let candidates = enumerate_candidates(registry, artifacts, threads, config.seed, &mut pruned);
    let budget = config.budget_trials.unwrap_or(usize::MAX).max(1);
    if candidates.len() > budget {
        pruned.push(format!(
            "budget: measured {budget} of {} candidates",
            candidates.len()
        ));
    }
    let mut trials = Vec::new();
    for point in candidates.into_iter().take(budget) {
        let engine = registry.get(&point.engine)?;
        let opts = point.apply(base.clone());
        let mut samples = Vec::with_capacity(config.repeats.max(1));
        for rep in 0..config.warmup + config.repeats.max(1) {
            let out = if point.threads <= 1 {
                engine.run_serial(artifacts, initial.clone(), &opts)?
            } else {
                engine.run_parallel(artifacts, initial.clone(), &opts)?
            };
            if rep >= config.warmup {
                samples.push(out.stats.total_seconds);
            }
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("wall times are finite"));
        let median = samples[samples.len() / 2];
        trials.push(Trial {
            point,
            median_seconds: median,
        });
    }
    let default_median = trials[0].median_seconds;
    let winner = trials
        .iter()
        .min_by(|a, b| {
            a.median_seconds
                .partial_cmp(&b.median_seconds)
                .expect("wall times are finite")
        })
        .expect("the default candidate is always measured");
    Ok(TunedPolicy {
        point: winner.point.clone(),
        median_seconds: winner.median_seconds,
        default_median_seconds: default_median,
        trials: trials.clone(),
        pruned,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG9: &str = r#"
        for (i = 0; i < n; i++) {
            cnt = 0;
            for (t = 0; t < 5; t++) {
                if (w[i][t] != 0) { cnt++; }
            }
            rowsize[i] = cnt;
        }
        rowptr[0] = 0;
        for (i = 1; i <= n; i++) { rowptr[i] = rowptr[i-1] + rowsize[i-1]; }
        for (i = 0; i < n; i++) {
            for (j = rowptr[i]; j < rowptr[i+1]; j++) {
                out[j] = v[j] * 2;
            }
        }
    "#;

    #[test]
    fn default_point_is_always_first_and_unique() {
        let art = Artifacts::compile_source("fig9", FIG9).unwrap();
        let mut pruned = Vec::new();
        let c = enumerate_candidates(&EngineRegistry::builtin(), &art, 4, 7, &mut pruned);
        assert_eq!(
            c[0],
            PolicyPoint::default_point(&EngineRegistry::builtin(), 4)
        );
        let labels: Vec<String> = c.iter().map(|p| p.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(
            dedup.len(),
            labels.len(),
            "duplicate candidates: {labels:?}"
        );
    }

    #[test]
    fn skewed_kernels_skip_static_legs() {
        let art = Artifacts::compile_source("fig9", FIG9).unwrap();
        let mut pruned = Vec::new();
        let c = enumerate_candidates(&EngineRegistry::builtin(), &art, 2, 0, &mut pruned);
        assert!(
            c.iter()
                .all(|p| !matches!(p.schedule, ScheduleChoice::Static)),
            "static legs must be pruned on skewed kernels"
        );
        assert!(
            pruned.iter().any(|p| p.contains("static legs")),
            "{pruned:?}"
        );
    }

    #[test]
    fn non_wavefront_kernels_skip_the_wavefront_leg() {
        let src = "for (i = 0; i < n; i++) { out[i] = a[i] + 1; }";
        let art = Artifacts::compile_source("map", src).unwrap();
        let mut pruned = Vec::new();
        let c = enumerate_candidates(&EngineRegistry::builtin(), &art, 2, 0, &mut pruned);
        let registry = EngineRegistry::builtin();
        assert!(c
            .iter()
            .all(|p| !registry.get(&p.engine).unwrap().caps().level_sets));
        assert!(
            pruned.iter().any(|p| p.contains("wavefront legs")),
            "{pruned:?}"
        );
    }

    #[test]
    fn undispatchable_kernels_keep_only_serial_legs() {
        let src = "x = 0; for (i = 0; i < n; i++) { x = x * 2 + a[i] - x; }";
        let art = Artifacts::compile_source("chain", src).unwrap();
        if !kernel_facts(&art).parallel && !kernel_facts(&art).wavefront {
            let mut pruned = Vec::new();
            let c = enumerate_candidates(&EngineRegistry::builtin(), &art, 4, 0, &mut pruned);
            assert!(c.iter().all(|p| p.threads == 1), "{c:?}");
            assert!(pruned.iter().any(|p| p.contains("multi-thread")));
        }
    }

    #[test]
    fn trial_order_is_a_pure_function_of_the_seed() {
        let art = Artifacts::compile_source("fig9", FIG9).unwrap();
        let order = |seed| {
            let mut pruned = Vec::new();
            enumerate_candidates(&EngineRegistry::builtin(), &art, 2, seed, &mut pruned)
                .iter()
                .map(|p| p.label())
                .collect::<Vec<_>>()
        };
        assert_eq!(order(11), order(11));
        let (a, b) = (order(1), order(2));
        let mut sa = a.clone();
        let mut sb = b.clone();
        sa.sort();
        sb.sort();
        assert_eq!(sa, sb, "seeds permute, never change, the candidate set");
        assert_ne!(a, b, "different seeds order the trials differently");
    }

    #[test]
    fn input_signature_tracks_shape_not_contents() {
        let a = Heap::new().with_scalar("n", 8).with_array("x", vec![0; 8]);
        let b = Heap::new().with_scalar("n", 8).with_array("x", vec![9; 8]);
        let c = Heap::new().with_scalar("n", 9).with_array("x", vec![0; 8]);
        assert_eq!(input_signature(&a), input_signature(&b));
        assert_ne!(input_signature(&a), input_signature(&c));
    }
}
