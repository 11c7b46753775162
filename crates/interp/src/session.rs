//! [`Session`] — the stable, embeddable execution API.
//!
//! A `Session` is the long-lived facade every consumer (the `sspar` CLI,
//! the differential fuzz harness, the benches, the examples, embedders)
//! drives instead of reaching into crate internals:
//!
//! * it owns an **artifact cache** keyed by the `(name, source)` strings
//!   themselves — a hit is one hash and one compare, and no two programs
//!   can share a key — so compile-once, a pipeline invariant within one
//!   run, becomes compile-once-*per-program-per-process*, with
//!   hit/miss/eviction counters ([`Session::cache_stats`]);
//! * it owns the **engine registry** ([`EngineRegistry`]): requests select
//!   engines by name, capabilities come from [`EngineCaps`](crate::EngineCaps) flags, and
//!   registering a new engine makes it available to every surface (CLI
//!   `--engine`, `sspar engines`, validation, fuzzing) at once;
//! * it runs builder-style [`RunRequest`]s into structured
//!   [`RunOutcome`]s: final heap, per-stage pipeline timings, per-loop
//!   verdict summaries, per-loop execution statistics, the engine that
//!   actually ran, cache provenance, and — in
//!   [`ValidationMode::Differential`] — the full cross-engine
//!   bit-identical-heap comparison of the [`crate::matrix`];
//! * every failure is one [`SsError`] with a stable
//!   [`exit_code`](SsError::exit_code).
//!
//! ```
//! use ss_interp::{RunRequest, Session, ValidationMode};
//!
//! let session = Session::new();
//! let request = RunRequest::new(
//!     "fig2",
//!     r#"
//!         for (e = 0; e < nelt; e++) { mt_to_id[e] = e; }
//!         for (miel = 0; miel < nelt; miel++) {
//!             iel = mt_to_id[miel];
//!             id_to_mt[iel] = miel;
//!         }
//!     "#,
//! )
//! .threads(4)
//! .scale(256)
//! .validation(ValidationMode::Differential);
//!
//! let outcome = session.run(&request).unwrap();
//! assert!(outcome.heaps_match());
//! assert!(!outcome.dispatched.is_empty());
//!
//! // The second run of the same source is a cache hit: no recompilation.
//! session.run(&request).unwrap();
//! let stats = session.cache_stats();
//! assert_eq!((stats.misses, stats.hits), (1, 1));
//! ```

use crate::engine::{EngineRegistry, ExecOptions, ExecStats, ScheduleChoice};
use crate::error::SsError;
use crate::heap::Heap;
use crate::inputs::{synthesize_for, InputSpec};
use crate::json;
use crate::matrix::{LegKind, Matrix};
use ss_ir::opt::OptLevel;
use ss_ir::LoopId;
use ss_parallelizer::{Artifacts, ParallelizationReport, StageTiming, VerdictKind};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------------
// Requests.
// ---------------------------------------------------------------------------

/// Where a run's initial heap comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InputSource {
    /// Synthesize inputs from the program itself (discovery pass; see
    /// [`crate::inputs`]).
    Synthesized(InputSpec),
    /// Use this heap verbatim.
    Explicit(Heap),
}

/// How much cross-checking a run performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ValidationMode {
    /// Execute only what [`ExecutionMode`] asks for.
    #[default]
    None,
    /// Execute the full differential [`Matrix`] — the reference engine
    /// serially, every other registered engine at every level it
    /// distinguishes serially *and* in parallel, and the requested engine
    /// under the inspector baseline (16 executions on the built-in
    /// registry) — and diff all final heaps bit for bit
    /// ([`RunOutcome::validation`]).
    Differential,
}

/// Which executions a non-validating run performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionMode {
    /// Serial only.
    Serial,
    /// Parallel only.
    Parallel,
    /// Serial then parallel (so [`RunOutcome::speedup`] is available).
    #[default]
    Both,
}

/// A builder-style description of one execution: program, engine, threads,
/// schedule, opt level, inputs and validation mode.  Construct with
/// [`RunRequest::new`], refine with the chained setters, hand to
/// [`Session::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunRequest {
    /// Program name (used in reports and error messages).
    pub name: String,
    /// Mini-C source text.
    pub source: String,
    /// Engine name, resolved against the session's registry (`None` = the
    /// registry default).
    pub engine: Option<String>,
    /// Worker threads (`None` = all hardware threads).
    pub threads: Option<usize>,
    /// Scheduling of dispatched loops.
    pub schedule: ScheduleChoice,
    /// Which bytecode stream opt-level-sensitive engines execute.
    pub opt_level: OptLevel,
    /// The initial heap.
    pub inputs: InputSource,
    /// Cross-checking performed by the run.
    pub validation: ValidationMode,
    /// Which executions a [`ValidationMode::None`] run performs.
    pub mode: ExecutionMode,
    /// Record the runtime-inspector baseline on compile-time-serial loops:
    /// the parallel leg's per-loop
    /// [`inspector_conflict_free`](crate::LoopStats::inspector_conflict_free)
    /// verdicts, read off the level-set inspection by every dispatching
    /// engine.
    pub baseline_inspector: bool,
    /// Iteration cap per loop invocation (`None` = engine default).
    pub while_cap: Option<u64>,
    /// Persistent-team group dispatched loops run in (see
    /// [`ExecOptions::team_group`]): one team per group, respawned when
    /// the thread count changes; servers map one group per shard.
    pub team_group: usize,
}

impl RunRequest {
    /// A request with default knobs: registry-default engine, all hardware
    /// threads, auto schedule, `O1`, synthesized inputs at the default
    /// scale, no validation, serial + parallel execution.
    pub fn new(name: impl Into<String>, source: impl Into<String>) -> RunRequest {
        RunRequest {
            name: name.into(),
            source: source.into(),
            engine: None,
            threads: None,
            schedule: ScheduleChoice::default(),
            opt_level: OptLevel::O1,
            inputs: InputSource::Synthesized(InputSpec::default()),
            validation: ValidationMode::None,
            mode: ExecutionMode::default(),
            baseline_inspector: false,
            while_cap: None,
            team_group: 0,
        }
    }

    /// Selects the engine by registry name (e.g. `"bytecode"`).
    pub fn engine(mut self, name: impl Into<String>) -> RunRequest {
        self.engine = Some(name.into());
        self
    }

    /// Worker threads for dispatched loops.
    pub fn threads(mut self, threads: usize) -> RunRequest {
        self.threads = Some(threads);
        self
    }

    /// Scheduling of dispatched loops.
    pub fn schedule(mut self, schedule: ScheduleChoice) -> RunRequest {
        self.schedule = schedule;
        self
    }

    /// Which bytecode stream opt-level-sensitive engines execute.
    pub fn opt_level(mut self, level: OptLevel) -> RunRequest {
        self.opt_level = level;
        self
    }

    /// The synthesis parameters, for in-place edits.  Resets explicit
    /// inputs back to synthesis (at the default scale and seed).
    pub(crate) fn input_spec_mut(&mut self) -> &mut InputSpec {
        if let InputSource::Explicit(_) = self.inputs {
            self.inputs = InputSource::Synthesized(InputSpec::default());
        }
        match &mut self.inputs {
            InputSource::Synthesized(spec) => spec,
            InputSource::Explicit(_) => unreachable!("explicit inputs were just reset"),
        }
    }

    /// Input scale for synthesized inputs (loop bounds / data modulus).
    /// Resets explicit inputs back to synthesis.
    pub fn scale(mut self, scale: i64) -> RunRequest {
        self.input_spec_mut().scale = scale;
        self
    }

    /// Input data seed for synthesized inputs.  Resets explicit inputs
    /// back to synthesis.
    pub fn seed(mut self, seed: u64) -> RunRequest {
        self.input_spec_mut().seed = seed;
        self
    }

    /// Uses `heap` verbatim as the initial program state.
    pub fn initial_heap(mut self, heap: Heap) -> RunRequest {
        self.inputs = InputSource::Explicit(heap);
        self
    }

    /// Sets the validation mode.
    pub fn validation(mut self, mode: ValidationMode) -> RunRequest {
        self.validation = mode;
        self
    }

    /// Sets which executions a non-validating run performs.
    pub fn mode(mut self, mode: ExecutionMode) -> RunRequest {
        self.mode = mode;
        self
    }

    /// Records the runtime-inspector baseline on compile-time-serial loops.
    pub fn baseline_inspector(mut self, on: bool) -> RunRequest {
        self.baseline_inspector = on;
        self
    }

    /// Iteration cap per loop invocation.
    pub fn while_cap(mut self, cap: u64) -> RunRequest {
        self.while_cap = Some(cap);
        self
    }

    /// Persistent-team group dispatched loops run in.  Distinct groups
    /// hold independent thread teams, one each, so a server can execute
    /// concurrent requests on per-shard teams instead of serializing on one.
    pub fn team_group(mut self, group: usize) -> RunRequest {
        self.team_group = group;
        self
    }

    fn exec_options(&self) -> ExecOptions {
        let defaults = ExecOptions::default();
        ExecOptions {
            threads: self.threads.unwrap_or(defaults.threads),
            schedule: self.schedule,
            opt_level: self.opt_level,
            baseline_inspector: self.baseline_inspector,
            while_cap: self.while_cap.unwrap_or(defaults.while_cap),
            team_group: self.team_group,
            ..defaults
        }
    }
}

// ---------------------------------------------------------------------------
// Outcomes.
// ---------------------------------------------------------------------------

/// One loop's verdict and execution facts, as reported to consumers
/// (tables, JSON, assertions).
#[derive(Debug, Clone)]
pub struct LoopVerdictSummary {
    /// The loop.
    pub loop_id: LoopId,
    /// Loop index variable (empty for `while` loops).
    pub index_var: String,
    /// Nesting depth (0 = outermost).
    pub depth: usize,
    /// The compile-time verdict class.
    pub verdict: VerdictKind,
    /// Whether the property-free baseline also proves the loop parallel.
    pub baseline_parallel: bool,
    /// Parallel under the extended test but not the baseline — the loops
    /// the paper's technique newly enables.
    pub newly_enabled: bool,
    /// Recognized reductions as `op:var` clauses (`+:total`).
    pub reductions: Vec<String>,
    /// Whether the parallel leg of this run dispatched the loop.
    pub dispatched: bool,
}

/// Builds the per-loop verdict summaries from an analysis report;
/// `dispatched` marks the loops a parallel run actually sent to threads.
pub fn verdict_summary(
    report: &ParallelizationReport,
    dispatched: &[LoopId],
) -> Vec<LoopVerdictSummary> {
    report
        .loops
        .iter()
        .map(|l| LoopVerdictSummary {
            loop_id: l.loop_id,
            index_var: l.index_var.clone(),
            depth: l.depth,
            verdict: l.verdict(),
            baseline_parallel: l.baseline_parallel,
            newly_enabled: l.parallel && !l.baseline_parallel,
            reductions: l
                .reductions
                .iter()
                .map(|r| format!("{}:{}", r.op.symbol(), r.var))
                .collect(),
            dispatched: dispatched.contains(&l.loop_id),
        })
        .collect()
}

/// The cross-engine comparison of a [`ValidationMode::Differential`] run.
#[derive(Debug, Clone)]
pub struct ValidationSummary {
    /// Labels of every leg that was diffed against the reference, in
    /// execution order ([`Leg::label`](crate::matrix::Leg::label)).
    pub compared: Vec<String>,
    /// True when every final heap was bit-identical to the reference.
    pub heaps_match: bool,
    /// Human-readable differences otherwise, each prefixed with the
    /// comparison that produced it.
    pub mismatches: Vec<String>,
}

/// Everything one [`Session::run`] produces.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Program name.
    pub program: String,
    /// The engine that ran the requested execution, every leg of it.
    pub engine: String,
    /// Opt level the request asked for.
    pub opt_level: OptLevel,
    /// Worker threads the parallel leg used.
    pub threads: usize,
    /// True when the artifacts came from the session cache (no
    /// recompilation).
    pub cache_hit: bool,
    /// Wall-clock cost of each compile-pipeline stage (zero-cost on cache
    /// hits: the timings are the cached compilation's).
    pub stages: Vec<StageTiming>,
    /// Per-loop verdicts and dispatch facts.
    pub verdicts: Vec<LoopVerdictSummary>,
    /// Loops the analysis proved parallelizable (outermost ones, reduction
    /// loops included).
    pub proven_parallel: Vec<LoopId>,
    /// Loops the parallel leg actually dispatched to threads.
    pub dispatched: Vec<LoopId>,
    /// Statistics of the serial leg (the requested engine's), when one ran.
    pub serial: Option<ExecStats>,
    /// Statistics of the parallel leg, when one ran.
    pub parallel: Option<ExecStats>,
    /// The final heap (of the parallel leg when one ran, else the serial
    /// leg; under differential validation all heaps are compared anyway).
    pub heap: Heap,
    /// The cross-engine comparison, for differential runs.
    pub validation: Option<ValidationSummary>,
}

impl RunOutcome {
    /// True unless a differential run found diverging heaps.
    pub fn heaps_match(&self) -> bool {
        self.validation
            .as_ref()
            .map(|v| v.heaps_match)
            .unwrap_or(true)
    }

    /// The mismatch descriptions of a diverging differential run.
    pub fn mismatches(&self) -> &[String] {
        self.validation
            .as_ref()
            .map(|v| v.mismatches.as_slice())
            .unwrap_or(&[])
    }

    /// Errors with [`SsError::Validation`] when a differential run found
    /// diverging heaps — the hook CLI `--validate` exits through.
    pub fn ensure_validated(&self) -> Result<(), SsError> {
        match &self.validation {
            Some(v) if !v.heaps_match => Err(SsError::Validation {
                program: self.program.clone(),
                mismatches: v.mismatches.clone(),
            }),
            _ => Ok(()),
        }
    }

    /// Serial over parallel wall-clock, when both legs ran.
    pub fn speedup(&self) -> Option<f64> {
        match (&self.serial, &self.parallel) {
            (Some(s), Some(p)) => Some(s.total_seconds / p.total_seconds.max(1e-12)),
            _ => None,
        }
    }

    /// The outcome as one stable JSON object (schema documented on
    /// [`Session`]): program, engine, opt level, threads, cache
    /// provenance, stage timings, per-loop verdicts, wall-clock totals,
    /// speedup and the validation summary.  The final heap is *not*
    /// embedded (it can be arbitrarily large); consumers needing state
    /// read [`RunOutcome::heap`].
    pub fn to_json(&self) -> String {
        self.render_json(false)
    }

    /// [`to_json`](Self::to_json) plus a trailing `"heap"` field rendered
    /// by [`json::heap_json`] — the form the `sspard` daemon returns when
    /// a client asks for final state (`include_heap`).  Same serializer
    /// path, strictly additive schema.
    pub fn to_json_with_heap(&self) -> String {
        self.render_json(true)
    }

    fn render_json(&self, include_heap: bool) -> String {
        let mut fields = vec![
            ("program", json::string(&self.program)),
            ("engine", json::string(&self.engine)),
            (
                "parallel_engine",
                match &self.parallel {
                    Some(_) => json::string(&self.engine),
                    None => "null".to_string(),
                },
            ),
            ("opt_level", json::string(&self.opt_level.to_string())),
            ("threads", self.threads.to_string()),
            ("cache_hit", self.cache_hit.to_string()),
            ("stages", stages_json(&self.stages)),
            ("verdicts", verdicts_json(&self.verdicts)),
            (
                "proven_parallel",
                json::array(self.proven_parallel.iter().map(|l| l.0.to_string())),
            ),
            (
                "dispatched",
                json::array(self.dispatched.iter().map(|l| l.0.to_string())),
            ),
            (
                "serial_seconds",
                self.serial
                    .as_ref()
                    .map(|s| json::number(s.total_seconds))
                    .unwrap_or_else(|| "null".to_string()),
            ),
            (
                "parallel_seconds",
                self.parallel
                    .as_ref()
                    .map(|s| json::number(s.total_seconds))
                    .unwrap_or_else(|| "null".to_string()),
            ),
            (
                "speedup",
                self.speedup()
                    .map(json::number)
                    .unwrap_or_else(|| "null".to_string()),
            ),
        ];
        fields.push((
            "validation",
            match &self.validation {
                Some(v) => json::object([
                    ("heaps_match", v.heaps_match.to_string()),
                    (
                        "compared",
                        json::string_array(v.compared.iter().map(String::as_str)),
                    ),
                    (
                        "mismatches",
                        json::string_array(v.mismatches.iter().map(String::as_str)),
                    ),
                ]),
                None => "null".to_string(),
            },
        ));
        if include_heap {
            fields.push(("heap", json::heap_json(&self.heap)));
        }
        json::object(fields)
    }
}

fn stages_json(stages: &[StageTiming]) -> String {
    json::array(stages.iter().map(|s| {
        json::object([
            ("stage", json::string(s.stage)),
            ("seconds", json::number(s.seconds)),
        ])
    }))
}

fn verdicts_json(verdicts: &[LoopVerdictSummary]) -> String {
    json::array(verdicts.iter().map(|v| {
        json::object([
            ("loop", v.loop_id.0.to_string()),
            ("index_var", json::string(&v.index_var)),
            ("depth", v.depth.to_string()),
            ("verdict", json::string(v.verdict.label())),
            ("baseline_parallel", v.baseline_parallel.to_string()),
            ("newly_enabled", v.newly_enabled.to_string()),
            (
                "reductions",
                json::string_array(v.reductions.iter().map(String::as_str)),
            ),
            ("dispatched", v.dispatched.to_string()),
        ])
    }))
}

/// The analysis half of the JSON surface (`sspar analyze --format json`):
/// verdicts, pipeline stage timings and the annotated source of one
/// compiled program — no execution involved.
pub fn analysis_json(artifacts: &Artifacts) -> String {
    let verdicts = verdict_summary(&artifacts.report, &[]);
    json::object([
        ("program", json::string(&artifacts.report.name)),
        ("stages", stages_json(&artifacts.stages)),
        ("verdicts", verdicts_json(&verdicts)),
        (
            "reasons",
            json::array(artifacts.report.loops.iter().map(|l| {
                json::object([
                    ("loop", l.loop_id.0.to_string()),
                    (
                        "reasons",
                        json::string_array(l.reasons.iter().map(String::as_str)),
                    ),
                    (
                        "blockers",
                        json::string_array(l.blockers.iter().map(String::as_str)),
                    ),
                ])
            })),
        ),
        (
            "annotated_source",
            json::string(&artifacts.report.annotated_source),
        ),
    ])
}

/// The engine registry as one stable JSON object (`sspar engines
/// --format json`): per engine its name, default flag, description,
/// capability flags and distinguished opt levels — all escaped through
/// the same emitter as every other JSON surface.
pub fn registry_json(registry: &EngineRegistry) -> String {
    json::object([(
        "engines",
        json::array(registry.iter().enumerate().map(|(i, e)| {
            let caps = e.caps();
            json::object([
                ("name", json::string(e.name())),
                ("default", (i == 0).to_string()),
                ("description", json::string(e.description())),
                ("reference", caps.reference.to_string()),
                ("reductions", caps.reductions.to_string()),
                ("local_arrays", caps.local_arrays.to_string()),
                ("level_sets", caps.level_sets.to_string()),
                (
                    "opt_levels",
                    json::array(caps.opt_levels.iter().map(|l| json::string(&l.to_string()))),
                ),
            ])
        })),
    )])
}

// ---------------------------------------------------------------------------
// The session.
// ---------------------------------------------------------------------------

/// Counters of the session's content-addressed artifact cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found compiled artifacts.
    pub hits: u64,
    /// Lookups that had to compile.
    pub misses: u64,
    /// Entries dropped to respect the capacity bounds (entry-count or
    /// byte).
    pub evictions: u64,
    /// Programs currently cached.
    pub entries: usize,
    /// Entry-count capacity bound (`None` = unbounded).
    pub capacity: Option<usize>,
    /// Approximate bytes currently held (sum of
    /// [`Artifacts::approx_bytes`](ss_parallelizer::Artifacts::approx_bytes)
    /// over cached entries).
    pub bytes: usize,
    /// Byte capacity bound (`None` = unbounded).
    pub capacity_bytes: Option<usize>,
    /// Eviction policy under the capacity bounds (`"lru"`).
    pub policy: &'static str,
}

struct CacheEntry {
    artifacts: Arc<Artifacts>,
    /// Approximate byte charge, refreshed on every hit.
    charge: usize,
    /// The cache's `clock` at the entry's last use: eviction under the
    /// capacity bounds drops the entry with the smallest.
    last_use: u64,
}

struct CacheState {
    /// Keyed by `(name, source)`.
    map: HashMap<(String, String), CacheEntry>,
    /// Advances on every hit and insert, so each entry's `last_use` is
    /// distinct and the newest entry holds the largest.
    clock: u64,
    /// Sum of the byte charges of every entry in `map`.
    bytes: usize,
}

/// The long-lived execution facade: engine registry + content-addressed
/// artifact cache + [`RunRequest`] execution.  See the [module
/// docs](crate::session) for the JSON schema and an end-to-end example.
///
/// `Session` is `Send + Sync`; one instance can serve concurrent callers
/// (the cache is internally locked, engines are stateless).
pub struct Session {
    registry: EngineRegistry,
    cache: Mutex<CacheState>,
    capacity: Option<usize>,
    capacity_bytes: Option<usize>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Default for Session {
    fn default() -> Session {
        Session::new()
    }
}

impl Session {
    /// A session over the built-in engine registry and an unbounded cache.
    pub fn new() -> Session {
        Session::with_registry(EngineRegistry::builtin())
    }

    /// A session over a custom registry.
    pub fn with_registry(registry: EngineRegistry) -> Session {
        Session {
            registry,
            cache: Mutex::new(CacheState {
                map: HashMap::new(),
                clock: 0,
                bytes: 0,
            }),
            capacity: None,
            capacity_bytes: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Bounds the artifact cache to `capacity` programs (LRU eviction;
    /// long-running embedders and fuzz loops set this to keep memory
    /// flat while their hot programs stay cached).
    pub fn with_cache_capacity(mut self, capacity: usize) -> Session {
        self.capacity = Some(capacity.max(1));
        self
    }

    /// Bounds the artifact cache to approximately `bytes` of cached
    /// artifacts (each entry charged its
    /// [`Artifacts::approx_bytes`](ss_parallelizer::Artifacts::approx_bytes),
    /// refreshed on every hit so lazily attached engine lowerings are
    /// accounted; LRU eviction, composable with
    /// [`Session::with_cache_capacity`](Self::with_cache_capacity)).  The
    /// most recently used entry is never evicted, so a single program
    /// larger than the bound still caches (and the bound holds again as
    /// soon as anything else is inserted).
    pub fn with_cache_capacity_bytes(mut self, bytes: usize) -> Session {
        self.capacity_bytes = Some(bytes.max(1));
        self
    }

    /// The engine registry backing this session.
    pub fn registry(&self) -> &EngineRegistry {
        &self.registry
    }

    /// Cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        let state = self.cache.lock().unwrap_or_else(|e| e.into_inner());
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: state.map.len(),
            capacity: self.capacity,
            bytes: state.bytes,
            capacity_bytes: self.capacity_bytes,
            policy: "lru",
        }
    }

    /// Compiles `source` through the staged pipeline — or returns the
    /// cached artifacts when this session has compiled the identical
    /// `(name, source)` pair before.
    pub fn artifacts(&self, name: &str, source: &str) -> Result<Arc<Artifacts>, SsError> {
        Ok(self.artifacts_traced(name, source)?.0)
    }

    /// Evicts least-recently-used entries until both cache bounds hold
    /// again.  The most recently used entry (the largest `last_use`) is
    /// never evicted, so a single oversized program still caches.
    fn evict_over_bounds(&self, state: &mut CacheState) {
        let over = |state: &CacheState| {
            self.capacity.is_some_and(|cap| state.map.len() > cap)
                || self.capacity_bytes.is_some_and(|cap| state.bytes > cap)
        };
        while state.map.len() > 1 && over(state) {
            let oldest = (state.map.iter())
                .min_by_key(|(_, e)| e.last_use)
                .map(|(key, _)| key.clone())
                .expect("more than one entry");
            let evicted = state.map.remove(&oldest).expect("the entry just found");
            state.bytes -= evicted.charge;
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// [`artifacts`](Self::artifacts), plus whether the result was a cache
    /// hit.
    pub fn artifacts_traced(
        &self,
        name: &str,
        source: &str,
    ) -> Result<(Arc<Artifacts>, bool), SsError> {
        let key = (name.to_string(), source.to_string());
        {
            let mut guard = self.cache.lock().unwrap_or_else(|e| e.into_inner());
            let state = &mut *guard;
            state.clock += 1;
            if let Some(entry) = state.map.get_mut(&key) {
                // LRU: a hit makes the entry the most recently used, and
                // re-charges it — engine lowerings attach to `Artifacts`
                // lazily after insertion, so the byte account is
                // refreshed here.
                entry.last_use = state.clock;
                let found = Arc::clone(&entry.artifacts);
                let old_charge = std::mem::replace(&mut entry.charge, found.approx_bytes());
                if entry.charge != old_charge {
                    state.bytes = state.bytes + entry.charge - old_charge;
                    // The refreshed charge can push the account over the
                    // byte bound; re-run eviction so the invariant
                    // `bytes ≤ capacity_bytes` holds after hits too.  The
                    // just-hit entry is the most recently used, so it is
                    // never the one evicted.
                    self.evict_over_bounds(state);
                }
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok((found, true));
            }
        }
        // Compile outside the lock: concurrent misses on the same key may
        // both compile, but the cache stays consistent (first insert wins)
        // and no caller ever blocks on another's compilation.
        let compiled = Arc::new(Artifacts::compile_source(name, source)?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let charge = compiled.approx_bytes();
        let mut guard = self.cache.lock().unwrap_or_else(|e| e.into_inner());
        let state = &mut *guard;
        state.clock += 1;
        if let std::collections::hash_map::Entry::Vacant(slot) = state.map.entry(key) {
            slot.insert(CacheEntry {
                artifacts: Arc::clone(&compiled),
                charge,
                last_use: state.clock,
            });
            state.bytes += charge;
            // Evict least-recently-used entries under either bound; the
            // entry just inserted is never evicted, so oversized
            // singletons still cache.
            self.evict_over_bounds(state);
        }
        Ok((compiled, false))
    }

    /// The initial heap of `request` (synthesized or explicit).
    fn initial_heap(&self, request: &RunRequest, artifacts: &Artifacts) -> Result<Heap, SsError> {
        Ok(match &request.inputs {
            InputSource::Synthesized(spec) => synthesize_for(artifacts, spec)?,
            InputSource::Explicit(heap) => heap.clone(),
        })
    }

    /// Runs one [`RunRequest`] end to end: compile (or fetch from cache),
    /// resolve the engine, synthesize or adopt inputs, execute
    /// per the request's [`ExecutionMode`]/[`ValidationMode`], and
    /// assemble the structured [`RunOutcome`].
    pub fn run(&self, request: &RunRequest) -> Result<RunOutcome, SsError> {
        let (artifacts, cache_hit) = self.artifacts_traced(&request.name, &request.source)?;
        let initial = self.initial_heap(request, &artifacts)?;
        let opts = request.exec_options();
        let engine = match &request.engine {
            Some(name) => self.registry.get(name)?,
            None => self.registry.default_engine(),
        };
        let mut serial: Option<ExecStats> = None;
        let mut parallel: Option<ExecStats> = None;
        let mut validation: Option<ValidationSummary> = None;
        let heap;

        match request.validation {
            ValidationMode::Differential => {
                let matrix =
                    Matrix::run(&self.registry, engine.as_ref(), &artifacts, &initial, &opts)?;
                let reference = matrix.reference?;
                validation = Some(ValidationSummary {
                    compared: matrix.legs.iter().map(|l| l.label.clone()).collect(),
                    heaps_match: matrix.mismatches.is_empty(),
                    mismatches: matrix.mismatches,
                });
                // The requested row's legs (the inspector leg is its
                // parallel one when the request asked for the baseline, or
                // when the requested row is the reference); a requested leg
                // that failed where the reference did not is the run's error.
                for leg in matrix.legs.into_iter().filter(|l| l.requested) {
                    match leg.kind {
                        LegKind::Serial => serial = Some(leg.outcome?),
                        LegKind::Parallel if !opts.baseline_inspector => {
                            parallel = Some(leg.outcome?)
                        }
                        LegKind::Inspector if parallel.is_none() => parallel = Some(leg.outcome?),
                        _ => {}
                    }
                }
                serial.get_or_insert(reference.stats);
                heap = reference.heap;
            }
            ValidationMode::None => {
                let run_serial_leg =
                    matches!(request.mode, ExecutionMode::Serial | ExecutionMode::Both);
                let run_parallel_leg =
                    matches!(request.mode, ExecutionMode::Parallel | ExecutionMode::Both);
                let mut last_heap: Option<Heap> = None;
                if run_serial_leg {
                    let out = engine.run_serial(&artifacts, initial.clone(), &opts)?;
                    serial = Some(out.stats);
                    last_heap = Some(out.heap);
                }
                if run_parallel_leg {
                    let out = engine.run_parallel(&artifacts, initial.clone(), &opts)?;
                    parallel = Some(out.stats);
                    last_heap = Some(out.heap);
                }
                heap = last_heap.expect("ExecutionMode always runs at least one leg");
            }
        }

        let dispatched = parallel
            .as_ref()
            .map(|p| p.parallel_loops())
            .unwrap_or_default();
        Ok(RunOutcome {
            program: artifacts.report.name.clone(),
            engine: engine.name().to_string(),
            opt_level: opts.opt_level,
            threads: opts.threads,
            cache_hit,
            stages: artifacts.stages.clone(),
            verdicts: verdict_summary(&artifacts.report, &dispatched),
            proven_parallel: artifacts.report.outermost_parallel_loops(),
            dispatched,
            serial,
            parallel,
            heap,
            validation,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG2: &str = r#"
        for (e = 0; e < nelt; e++) { mt_to_id[e] = nelt - 1 - e; }
        for (miel = 0; miel < nelt; miel++) {
            iel = mt_to_id[miel];
            id_to_mt[iel] = miel;
        }
    "#;

    #[test]
    fn differential_run_validates_figure2_end_to_end() {
        let session = Session::new();
        let outcome = session
            .run(
                &RunRequest::new("fig2", FIG2)
                    .threads(4)
                    .scale(512)
                    .seed(3)
                    .validation(ValidationMode::Differential),
            )
            .unwrap();
        assert!(outcome.heaps_match(), "{:?}", outcome.mismatches());
        assert!(outcome.ensure_validated().is_ok());
        assert_eq!(outcome.proven_parallel, vec![LoopId(0), LoopId(1)]);
        assert_eq!(outcome.dispatched, vec![LoopId(0), LoopId(1)]);
        assert_eq!(outcome.engine, "wavefront");
        assert!(outcome.serial.is_some() && outcome.parallel.is_some());
        assert!(outcome.speedup().unwrap() > 0.0);
        let v = outcome.validation.as_ref().unwrap();
        // compiled + bytecode/threaded/wavefront @O0/O1, serially and in
        // parallel, then the inspector leg.
        assert_eq!(v.compared.len(), 15, "{:?}", v.compared);
        for label in [
            "bytecode@O0",
            "threaded@O1",
            "wavefront@O0",
            "compiled",
            "parallel bytecode@O0",
            "parallel threaded@O1",
            "parallel wavefront@O0",
            "parallel compiled",
            "parallel wavefront@O1 + inspector",
        ] {
            assert!(v.compared.iter().any(|c| c == label), "{label}");
        }
    }

    #[test]
    fn cache_hits_skip_recompilation_and_count() {
        let session = Session::new();
        let req = RunRequest::new("fig2", FIG2).threads(2).scale(64);
        session.run(&req).unwrap();
        let first = session.cache_stats();
        assert_eq!((first.hits, first.misses, first.entries), (0, 1, 1));
        let again = session.run(&req).unwrap();
        assert!(again.cache_hit);
        let second = session.cache_stats();
        assert_eq!((second.hits, second.misses, second.entries), (1, 1, 1));
        // A different source is a different content address.
        session
            .run(&RunRequest::new("other", "x = 1;").scale(4))
            .unwrap();
        assert_eq!(session.cache_stats().misses, 2);
    }

    #[test]
    fn bounded_caches_evict_the_least_recently_used_entry() {
        let session = Session::new().with_cache_capacity(2);
        session.artifacts("p0", "x = 1;").unwrap();
        session.artifacts("p1", "x = 2;").unwrap();
        // Touch p0: under LRU it is now the *most* recently used, so the
        // next insert must evict p1 instead (FIFO would drop p0).
        session.artifacts("p0", "x = 1;").unwrap();
        session.artifacts("p2", "x = 3;").unwrap();
        let stats = session.cache_stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.capacity, Some(2));
        assert_eq!(stats.policy, "lru");
        // p0 survived its hit; p1 was evicted and recompiles as a miss.
        session.artifacts("p0", "x = 1;").unwrap();
        assert_eq!(session.cache_stats().hits, 2);
        session.artifacts("p1", "x = 2;").unwrap();
        assert_eq!(session.cache_stats().misses, 4);
    }

    #[test]
    fn byte_bounded_caches_evict_lru_but_keep_the_newest_entry() {
        // A 1-byte budget cannot hold any artifact, yet the newest entry is
        // never evicted: each insert displaces the previous one.
        let session = Session::new().with_cache_capacity_bytes(1);
        session.artifacts("p0", "x = 1;").unwrap();
        let first = session.cache_stats();
        assert_eq!((first.entries, first.evictions), (1, 0));
        assert!(first.bytes > 0);
        assert_eq!(first.capacity_bytes, Some(1));

        session.artifacts("p1", "x = 2;").unwrap();
        let second = session.cache_stats();
        assert_eq!((second.entries, second.evictions), (1, 1));
        // The byte gauge reflects only the surviving entry.
        assert!(second.bytes > 0 && second.bytes < first.bytes * 2);

        // The survivor is still a hit; the evicted program recompiles.
        session.artifacts("p1", "x = 2;").unwrap();
        session.artifacts("p0", "x = 1;").unwrap();
        let third = session.cache_stats();
        assert_eq!((third.hits, third.misses), (1, 3));
    }

    #[test]
    fn hit_path_recharge_re_runs_eviction_and_keeps_the_byte_bound() {
        // Engine lowerings attach to cached artifacts lazily, so a cache
        // *hit* can grow an entry's byte charge.  The refreshed account
        // must re-run eviction: `bytes ≤ capacity_bytes` is an invariant
        // after hits, not just after inserts.
        let src0 = "for (i = 0; i < n; i++) { a[i] = i; }";
        let src1 = "for (i = 0; i < n; i++) { b[i] = i + 1; }";
        let base0 = {
            let s = Session::new();
            s.artifacts("p0", src0).unwrap();
            s.cache_stats().bytes
        };
        let base1 = {
            let s = Session::new();
            s.artifacts("p1", src1).unwrap();
            s.cache_stats().bytes
        };
        let grown0 = {
            // Running through the threaded engine attaches its lowering to
            // the artifacts; the next hit refreshes the charge.
            let s = Session::new();
            s.run(&RunRequest::new("p0", src0).engine("threaded").scale(8))
                .unwrap();
            s.artifacts("p0", src0).unwrap();
            s.cache_stats().bytes
        };
        assert!(grown0 > base0, "lowering should grow the charge");

        // Fits both fresh entries, but not the grown p0 plus p1.
        let cap = grown0 + base1 - 1;
        let session = Session::new().with_cache_capacity_bytes(cap);
        session
            .run(&RunRequest::new("p0", src0).engine("threaded").scale(8))
            .unwrap();
        session.artifacts("p1", src1).unwrap();
        let before = session.cache_stats();
        assert_eq!((before.entries, before.evictions), (2, 0));
        assert!(before.bytes <= cap);

        // The hit on p0 refreshes its charge past the bound: p1 (the LRU
        // entry) must be evicted — never the just-hit p0.
        session.artifacts("p0", src0).unwrap();
        let after = session.cache_stats();
        assert_eq!((after.entries, after.evictions), (1, 1));
        assert!(
            after.bytes <= cap,
            "bytes {} exceeds capacity {} after a hit",
            after.bytes,
            cap
        );
        // p0 survived (hit), p1 recompiles (miss).
        session.artifacts("p0", src0).unwrap();
        session.artifacts("p1", src1).unwrap();
        let third = session.cache_stats();
        assert_eq!((third.hits, third.misses), (2, 3));
    }

    #[test]
    fn generous_byte_budget_keeps_everything() {
        let session = Session::new().with_cache_capacity_bytes(64 << 20);
        for (i, src) in ["x = 1;", "x = 2;", "x = 3;"].iter().enumerate() {
            session.artifacts(&format!("p{i}"), src).unwrap();
        }
        let stats = session.cache_stats();
        assert_eq!((stats.entries, stats.evictions), (3, 0));
        assert!(stats.bytes > 0 && stats.bytes <= 64 << 20);
    }

    #[test]
    fn serial_only_and_parallel_only_modes_run_one_leg() {
        let session = Session::new();
        let serial = session
            .run(
                &RunRequest::new("fig2", FIG2)
                    .scale(32)
                    .mode(ExecutionMode::Serial),
            )
            .unwrap();
        assert!(serial.serial.is_some() && serial.parallel.is_none());
        assert!(serial.dispatched.is_empty());
        assert!(serial.speedup().is_none());
        let parallel = session
            .run(
                &RunRequest::new("fig2", FIG2)
                    .scale(32)
                    .threads(2)
                    .mode(ExecutionMode::Parallel),
            )
            .unwrap();
        assert!(parallel.serial.is_none() && parallel.parallel.is_some());
        assert!(!parallel.dispatched.is_empty());
        assert_eq!(parallel.heap, serial.heap);
    }

    #[test]
    fn explicit_heaps_are_used_verbatim() {
        let session = Session::new();
        let heap = Heap::new()
            .with_scalar("nelt", 5)
            .with_array("mt_to_id", vec![0; 5])
            .with_array("id_to_mt", vec![0; 5]);
        let outcome = session
            .run(
                &RunRequest::new("fig2", FIG2)
                    .initial_heap(heap)
                    .validation(ValidationMode::Differential),
            )
            .unwrap();
        assert!(outcome.heaps_match());
        assert_eq!(outcome.heap.scalars["nelt"], 5);
        assert_eq!(outcome.heap.arrays["id_to_mt"].data.len(), 5);
    }

    #[test]
    fn unknown_engines_fail_with_the_registry_names() {
        let session = Session::new();
        let err = session
            .run(&RunRequest::new("p", "x = 1;").engine("jit"))
            .unwrap_err();
        assert!(matches!(err, SsError::UnknownEngine { .. }));
        assert_eq!(err.exit_code(), 5);
    }

    #[test]
    fn parse_errors_carry_spans_through_the_session() {
        let session = Session::new();
        let err = session
            .run(&RunRequest::new("bad", "for (i = 0 i < n; i++) {}"))
            .unwrap_err();
        assert!(matches!(err, SsError::Parse(_)));
        assert!(err.span().is_some());
        assert_eq!(err.exit_code(), 4);
        // Failed compilations are not cached.
        assert_eq!(session.cache_stats().entries, 0);
    }

    #[test]
    fn inspector_requests_are_answered_by_the_requested_engine() {
        let session = Session::new();
        let outcome = session
            .run(
                &RunRequest::new("hist", "for (i = 0; i < n; i++) { h[idx[i]] = i; }")
                    .scale(64)
                    .threads(2)
                    .baseline_inspector(true)
                    .validation(ValidationMode::Differential),
            )
            .unwrap();
        assert!(outcome.heaps_match());
        assert_eq!(outcome.engine, "wavefront");
        let v = outcome.validation.as_ref().unwrap();
        assert_eq!(
            v.compared.last().unwrap(),
            "parallel wavefront@O1 + inspector"
        );
        assert!(outcome
            .to_json()
            .contains("\"parallel_engine\":\"wavefront\""));
        // 64 writes through indices below 64 drawn at random: some slot is
        // hit twice, so a run-time inspector refuses the loop.
        let stats = outcome.parallel.as_ref().unwrap();
        assert_eq!(stats.loops[&LoopId(0)].inspector_conflict_free, Some(false));
    }

    #[test]
    fn run_outcome_json_has_the_stable_shape() {
        let session = Session::new();
        let outcome = session
            .run(
                &RunRequest::new("fig2", FIG2)
                    .threads(2)
                    .scale(48)
                    .validation(ValidationMode::Differential),
            )
            .unwrap();
        let j = outcome.to_json();
        for key in [
            "\"program\":\"fig2\"",
            "\"engine\":\"wavefront\"",
            "\"opt_level\":\"O1\"",
            "\"cache_hit\":false",
            "\"stages\":[{\"stage\":\"analyze\"",
            "\"verdicts\":[",
            "\"verdict\":\"parallel\"",
            "\"newly_enabled\":true",
            "\"validation\":{\"heaps_match\":true",
            "\"speedup\":",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
        assert!(!j.contains("\"policy"), "{j}");
    }

    #[test]
    fn registry_json_reflects_the_live_registry() {
        let session = Session::new();
        let j = registry_json(session.registry());
        assert!(j.starts_with("{\"engines\":["), "{j}");
        for e in session.registry().iter() {
            assert!(j.contains(&format!("\"name\":\"{}\"", e.name())), "{j}");
        }
        assert!(j.contains("\"default\":true"), "{j}");
        assert!(j.contains("\"opt_levels\":[\"O0\",\"O1\"]"), "{j}");
        // Exactly one default engine.
        assert_eq!(j.matches("\"default\":true").count(), 1);
    }

    #[test]
    fn analysis_json_reports_verdicts_without_executing() {
        let session = Session::new();
        let artifacts = session.artifacts("fig2", FIG2).unwrap();
        let j = analysis_json(&artifacts);
        for key in [
            "\"program\":\"fig2\"",
            "\"verdicts\":[",
            "\"annotated_source\":",
            "#pragma omp parallel for",
            "\"reasons\":[",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
    }

    #[test]
    fn reduction_verdicts_surface_in_the_summary() {
        let session = Session::new();
        let outcome = session
            .run(
                &RunRequest::new(
                    "sum",
                    "total = 0;\nfor (k = 0; k < n; k++) { total += a[k]; }",
                )
                .scale(64)
                .threads(2)
                .validation(ValidationMode::Differential),
            )
            .unwrap();
        assert!(outcome.heaps_match());
        let v = &outcome.verdicts[0];
        assert_eq!(v.verdict, VerdictKind::Reduction);
        assert_eq!(v.reductions, vec!["+:total".to_string()]);
        assert!(v.dispatched);
        assert!(outcome.to_json().contains("\"reductions\":[\"+:total\"]"));
    }
}
