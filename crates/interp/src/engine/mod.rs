//! The execution engines: executors × dispatch strategies.
//!
//! Two independent questions decide how a program runs, and they are two
//! independent pieces of this module:
//!
//! * **how the program is executed on the spine** — the *executor*:
//!   * **ast** ([`serial`]): interprets the AST directly against the
//!     name-keyed heap.  The semantic reference
//!     ([`EngineCaps::reference`]): serial only — it never dispatches, so
//!     every other row, leg and strategy is diffed against code that
//!     shares nothing with the dispatcher;
//!   * **bytecode** ([`bytecode`]): the flat register-machine stream of
//!     [`ss_ir::bytecode`], O0 or O1 — names resolved once, no
//!     per-expression tree walking at all.  Spine only;
//!   * **threaded** ([`threaded`]): that stream lowered once more into a
//!     direct-threaded chain of monomorphized handler pointers with
//!     pre-decoded operands — no opcode decode per instruction, native
//!     counted loops for invariant headers.  The default row's executor,
//!     and the one body of every dispatched loop, whichever spine reached
//!     it;
//! * **how a loop's iterations reach the thread team** — the *dispatch
//!   strategy*, chosen per loop by the one `Dispatcher` in `shared`:
//!   * **proof-based parallel-for**: loops the compile-time analysis
//!     proved independent (up to recognized reductions and loop-local
//!     arrays) fan out as one region;
//!   * **level sets** ([`wavefront`]): serial-proven carried loops whose
//!     footprint is a function of entry state are inspected once per
//!     input and run as dependence level sets — one region, with a phase
//!     per level and the team's barrier between levels.  The
//!     same inspection is the run-time-inspector baseline
//!     ([`ExecOptions::baseline_inspector`]): one level means an
//!     inspector/executor scheme would have run the loop in parallel.
//!
//! `shared` holds what the dispatching executors have in common — array
//! stores, worker-private storage and the dispatch recipe itself (gates,
//! iteration space, one phased region on the persistent team, fold,
//! last-writer / combiner / local-array merge-back), written once: it is the only file
//! of this crate that enters a team region.  Its members store through
//! relaxed-atomic views of the spine's arrays, and the crate forbids
//! `unsafe` code.  A registered [`Engine`] is a *row*: an executor plus the
//! strategies its parallel runs may use ([`registry`]): `bytecode` and
//! `threaded` are their executors with proof dispatch; `compiled` is a
//! second name for the threaded row at O1, kept while the benchmark still
//! reports it; `wavefront` is the threaded executor with level sets as
//! well; `ast` is the reference and runs serially whichever leg asks.
//! Three executors, five rows.  The executor is the *spine*'s: every
//! dispatching row dispatches the same region body, the loop's lowered
//! threaded chain, so the bytecode interpreter runs spines only.
//! Consumers resolve engines by name or capability through the
//! [`EngineRegistry`], never by pattern-matching, and branch on
//! [`EngineCaps`] flags.
//!
//! Cross-engine agreement is itself a validation axis, on top of
//! serial-vs-parallel: the [`Session`](crate::Session) differential mode
//! asserts bit-identical final heaps across every row × opt level ×
//! serial/parallel, and `tests/engine_fuzz.rs` asserts the same over
//! generated programs.

pub mod bytecode;
pub mod registry;
pub mod serial;
mod shared;
pub mod threaded;
pub mod wavefront;

use crate::heap::Heap;
use ss_ir::ast::LoopId;
use ss_ir::opt::OptLevel;
use ss_parallelizer::Artifacts;
use std::collections::BTreeMap;

pub use registry::{Engine, EngineCaps, EngineRegistry};
pub(crate) use shared::{ArrayStore, StoreKind};

/// A runtime failure of the interpreted program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// An array was accessed that the heap does not contain.
    UndefinedArray(String),
    /// An array was accessed with the wrong number of subscripts.
    ArityMismatch {
        /// The array.
        array: String,
        /// Its rank.
        expected: usize,
        /// Subscripts supplied.
        got: usize,
    },
    /// A subscript fell outside the array's extents (or was negative).
    OutOfBounds {
        /// The array.
        array: String,
        /// The offending subscript vector.
        indices: Vec<i64>,
        /// The array's extents.
        dims: Vec<usize>,
    },
    /// Division or remainder by zero (or `i64::MIN / -1`).
    DivisionByZero,
    /// A loop exceeded the iteration cap (runaway `while`, zero step, …).
    NonTerminating {
        /// The loop.
        loop_id: LoopId,
        /// The cap it exceeded.
        cap: u64,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::UndefinedArray(a) => write!(f, "undefined array '{a}'"),
            ExecError::ArityMismatch {
                array,
                expected,
                got,
            } => write!(
                f,
                "array '{array}' has rank {expected} but was subscripted with {got} index(es)"
            ),
            ExecError::OutOfBounds {
                array,
                indices,
                dims,
            } => write!(
                f,
                "subscript {indices:?} out of bounds for '{array}' with extents {dims:?}"
            ),
            ExecError::DivisionByZero => write!(f, "division by zero"),
            ExecError::NonTerminating { loop_id, cap } => {
                write!(f, "loop {loop_id} exceeded {cap} iterations")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// How a loop was executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Ran on one thread.
    #[default]
    Serial,
    /// Dispatched onto worker threads.
    Parallel {
        /// Worker count.
        threads: usize,
        /// True under chunk-stealing (dynamic) scheduling.
        dynamic: bool,
    },
}

/// Accumulated execution facts for one loop.
#[derive(Debug, Clone, Default)]
pub struct LoopStats {
    /// Times the loop was entered.
    pub invocations: u64,
    /// Total iterations across invocations.
    pub iterations: u64,
    /// Wall-clock seconds inside the loop (nested loop time included).
    pub seconds: f64,
    /// How the loop ran (last invocation).
    pub mode: ExecMode,
    /// Under [`ExecOptions::baseline_inspector`], for loops the
    /// compile-time analysis left serial: whether a run-time inspector
    /// would have licensed parallel execution — the level-set inspection
    /// found a single level (AND over invocations).  `None` when there is
    /// no verdict: the knob is off, the run is serial or single-threaded,
    /// the loop was proven parallel (or sits inside a dispatched body), it
    /// had fewer than two iterations, the inspection replay failed, or the
    /// footprint gate rejected it — addresses or control flow depend on
    /// values the loop itself writes, where no inspector/executor scheme
    /// is sound.
    pub inspector_conflict_free: Option<bool>,
    /// For loops the wavefront engine executed as dependence level sets:
    /// `(level count, average level width)` of the schedule that ran (last
    /// invocation) — the schedule-quality facts `sspar run` surfaces
    /// without the golden dumps.
    pub wavefront: Option<(usize, f64)>,
    /// For loops the level-set strategy looked a schedule up for: where
    /// the last invocation's schedule came from.
    pub schedule_source: Option<ScheduleSource>,
}

/// Where a level-set loop's schedule came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleSource {
    /// A cache hit proven by the generations of the schedule arrays the
    /// program never writes: O(1) in their size.
    Generation,
    /// A cache hit found by hashing their contents — a fresh heap equal to
    /// one seen before.
    Content,
    /// A fresh inspection.
    Inspected,
}

/// Execution statistics for one engine run.
#[derive(Debug, Clone, Default)]
pub struct ExecStats {
    /// Per-loop statistics (only loops executed at the spine level; loops
    /// inside dispatched bodies are accounted to their dispatched ancestor).
    pub loops: BTreeMap<LoopId, LoopStats>,
    /// Wall-clock seconds for the whole program.
    pub total_seconds: f64,
}

impl ExecStats {
    /// Loops that were dispatched to threads in this run.
    pub fn parallel_loops(&self) -> Vec<LoopId> {
        self.loops
            .iter()
            .filter(|(_, s)| matches!(s.mode, ExecMode::Parallel { .. }))
            .map(|(id, _)| *id)
            .collect()
    }

    pub(crate) fn record(&mut self, id: LoopId, iterations: u64, seconds: f64, mode: ExecMode) {
        let s = self.loops.entry(id).or_default();
        s.invocations += 1;
        s.iterations += iterations;
        s.seconds += seconds;
        s.mode = mode;
    }

    pub(crate) fn record_wavefront(&mut self, id: LoopId, levels: usize, avg_width: f64) {
        let s = self.loops.entry(id).or_default();
        s.wavefront = Some((levels, avg_width));
    }

    pub(crate) fn record_inspection(&mut self, id: LoopId, conflict_free: bool) {
        let s = self.loops.entry(id).or_default();
        s.inspector_conflict_free =
            Some(s.inspector_conflict_free.unwrap_or(true) && conflict_free);
    }

    pub(crate) fn record_schedule_source(&mut self, id: LoopId, source: ScheduleSource) {
        self.loops.entry(id).or_default().schedule_source = Some(source);
    }
}

/// The engine rule of the generation invariant (see [`ArrayVal`]): the
/// executors write array storage without drawing generations, so every
/// array the program may write gets a fresh one before it runs.  Arrays
/// it only reads keep theirs.
///
/// [`ArrayVal`]: crate::heap::ArrayVal
pub(crate) fn restamp_written(artifacts: &Artifacts, heap: &mut Heap) {
    for name in &artifacts.written_arrays {
        if let Some(a) = heap.arrays.get_mut(name) {
            a.restamp();
        }
    }
}

/// Walker state shared down the recursion of both engines: per-loop stats,
/// whether to record wall times (off inside workers: the dispatching spine
/// times the whole loop instead), and the runaway-loop cap.
pub(crate) struct ExecEnvTiming<'a> {
    pub stats: &'a mut ExecStats,
    pub timing: bool,
    pub while_cap: u64,
}

/// Result of an engine run: the final heap plus statistics.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// Program state after execution.
    pub heap: Heap,
    /// Per-loop and total timing/mode facts.
    pub stats: ExecStats,
}

/// Which schedule the parallel engine uses for dispatched loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScheduleChoice {
    /// Static for uniform iteration spaces, dynamic for skewed ones (loops
    /// whose nested bounds go through an index array — the CSR row shape —
    /// or mention the loop's own index — a triangular nest).
    #[default]
    Auto,
    /// Always static chunking.
    Static,
    /// Always dynamic (chunk-stealing).
    Dynamic,
}

/// Knobs of the engines.  Which *engine* runs is no longer in here: pick
/// one from the [`EngineRegistry`] (or let
/// [`Session`](crate::Session)/[`RunRequest`](crate::RunRequest) resolve
/// it by name) and hand it these options.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Worker threads for dispatched loops.
    pub threads: usize,
    /// Scheduling of dispatched loops.
    pub schedule: ScheduleChoice,
    /// Fixed chunk size for dynamic (chunk-stealing) scheduling; `None`
    /// (every request's setting) derives the chunk from the iteration
    /// count and thread count.  Only consulted when the resolved schedule
    /// is dynamic; tests set it to force chunks smaller than the derived
    /// ones.
    pub chunk: Option<usize>,
    /// Which bytecode stream the executor runs, directly or as its
    /// threaded chain: the base compiler's (`O0`) or the optimized one
    /// (`O1`, the default).  Both are produced by the one pipeline
    /// invocation and are bit-identical in observable behavior —
    /// differential validation asserts it.  Only the `ast` reference,
    /// which walks the tree, ignores this.
    pub opt_level: OptLevel,
    /// Run the runtime-inspector baseline on loops the compile-time analysis
    /// left serial, recording whether an inspector/executor scheme would
    /// have parallelized them (see [`LoopStats::inspector_conflict_free`]).
    /// The verdict is read off the level-set strategy's (cached, verified)
    /// inspection, so every dispatching row's parallel run answers; the
    /// loop itself still runs as levels only on rows with
    /// [`EngineCaps::level_sets`].
    pub baseline_inspector: bool,
    /// Iteration cap per loop invocation, against runaway `while` loops.
    pub while_cap: u64,
    /// Which process-wide persistent-team group dispatched loops run in
    /// (see `ss_runtime::with_shared_team_in`).  A group holds one team,
    /// respawned when a run asks it for another thread count.  Group 0 —
    /// the default — is the team every one-shot consumer shares; a server
    /// that shards requests across independent teams assigns one group per
    /// shard so concurrent runs never serialize on a single team's mutex.
    pub team_group: usize,
}

impl Default for ExecOptions {
    fn default() -> ExecOptions {
        ExecOptions {
            threads: ss_runtime::hardware_threads(),
            schedule: ScheduleChoice::Auto,
            chunk: None,
            opt_level: OptLevel::O1,
            baseline_inspector: false,
            while_cap: 100_000_000,
            team_group: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_ir::parse_program;
    use ss_parallelizer::Artifacts;
    use std::sync::Arc;

    fn opts(threads: usize) -> ExecOptions {
        ExecOptions {
            threads,
            ..ExecOptions::default()
        }
    }

    fn compile(name: &str, src: &str) -> Artifacts {
        Artifacts::compile(&parse_program(name, src).unwrap())
    }

    fn engines() -> Vec<Arc<dyn Engine>> {
        EngineRegistry::builtin().iter().cloned().collect()
    }

    /// The schedule legs the recipe's merge must be exact under: the
    /// default (static here) and chunk stealing one iteration at a time,
    /// where every last-writer decision crosses a chunk boundary.
    fn schedule_legs(threads: usize) -> [ExecOptions; 2] {
        [
            opts(threads),
            ExecOptions {
                schedule: ScheduleChoice::Dynamic,
                chunk: Some(1),
                ..opts(threads)
            },
        ]
    }

    fn reference_engine() -> Arc<dyn Engine> {
        EngineRegistry::builtin().reference().unwrap()
    }

    #[test]
    fn serial_engines_run_a_prefix_sum() {
        let art = compile(
            "t",
            r#"
            s[0] = 0;
            for (i = 1; i <= n; i++) {
                s[i] = s[i-1] + i;
            }
        "#,
        );
        let heap = Heap::new()
            .with_scalar("n", 10)
            .with_array("s", vec![0; 11]);
        for engine in engines() {
            let out = engine.run_serial(&art, heap.clone(), &opts(1)).unwrap();
            assert_eq!(out.heap.arrays["s"].data[10], 55, "{}", engine.name());
            assert_eq!(out.heap.scalars["i"], 11);
            assert_eq!(out.stats.loops[&LoopId(0)].iterations, 10);
        }
    }

    #[test]
    fn runs_restamp_exactly_the_arrays_their_program_writes() {
        // `out` changes under an unchanged-looking generation unless the
        // run restamps it; `idx` is only read and keeps its generation.
        let art = compile("t", "for (i = 0; i < n; i++) { out[i] = idx[i] * 2; }");
        let heap = Heap::new()
            .with_scalar("n", 8)
            .with_array("idx", (0..8).collect())
            .with_array("out", vec![0; 8]);
        let generation = |h: &Heap, name: &str| h.arrays[name].generation();
        for engine in engines() {
            for parallel in [false, true] {
                let out = if parallel {
                    engine.run_parallel(&art, heap.clone(), &opts(2))
                } else {
                    engine.run_serial(&art, heap.clone(), &opts(1))
                };
                let out = out.unwrap().heap;
                let label = format!("{} parallel={parallel}", engine.name());
                assert_eq!(generation(&out, "idx"), generation(&heap, "idx"), "{label}");
                assert_ne!(generation(&out, "out"), generation(&heap, "out"), "{label}");
            }
        }
    }

    #[test]
    fn conditionals_compound_ops_and_short_circuit() {
        let art = compile(
            "t",
            r#"
            x = 0;
            for (i = 0; i < 10; i++) {
                if (i % 2 == 0 && i != 4) {
                    x += i;
                } else {
                    x -= 1;
                }
            }
            y = !x;
            z = -x;
        "#,
        );
        for engine in engines() {
            let out = engine.run_serial(&art, Heap::new(), &opts(1)).unwrap();
            // even, not 4: 0+2+6+8 = 16; five odd iterations and i==4 subtract 6.
            assert_eq!(out.heap.scalars["x"], 10, "{}", engine.name());
            assert_eq!(out.heap.scalars["y"], 0);
            assert_eq!(out.heap.scalars["z"], -10);
        }
    }

    #[test]
    fn errors_are_reported_identically_by_every_engine() {
        use crate::error::SsError;
        for engine in engines() {
            let o = opts(1);
            let art = compile("t", "x = a[5];");
            let heap = Heap::new().with_array("a", vec![0; 3]);
            assert!(matches!(
                engine.run_serial(&art, heap, &o),
                Err(SsError::Runtime(ExecError::OutOfBounds { .. }))
            ));

            let art = compile("t", "x = a[0];");
            assert!(matches!(
                engine.run_serial(&art, Heap::new(), &o),
                Err(SsError::Runtime(ExecError::UndefinedArray(_)))
            ));

            let art = compile("t", "x = 1 / y;");
            assert!(matches!(
                engine.run_serial(&art, Heap::new(), &o),
                Err(SsError::Runtime(ExecError::DivisionByZero))
            ));

            let art = compile("t", "while (1) { x = 0; }");
            let capped = ExecOptions {
                while_cap: 1000,
                ..o.clone()
            };
            assert!(matches!(
                engine.run_serial(&art, Heap::new(), &capped),
                Err(SsError::Runtime(ExecError::NonTerminating { .. }))
            ));
        }
    }

    #[test]
    fn serial_heaps_are_bit_identical_across_engines() {
        // Declarations, shadowing loop-local arrays, while loops, nested
        // conditionals, undefined-scalar reads — the shapes where an
        // engine-semantics divergence would hide.
        let src = r#"
            int g[4];
            g[2] = 7;
            total = undefined_scalar + 1;
            for (i = 0; i < 6; i++) {
                int g[3];
                g[i % 3] = i;
                out[i] = g[i % 3] + total;
            }
            w = 0;
            while (w < 4) {
                if (w % 2 == 0) { evens += w; } else { odds += w; }
                w = w + 1;
            }
        "#;
        let art = compile("tricky", src);
        let heap = Heap::new().with_array("out", vec![0; 6]);
        let reference = reference_engine()
            .run_serial(&art, heap.clone(), &opts(1))
            .unwrap();
        for engine in engines() {
            let out = engine.run_serial(&art, heap.clone(), &opts(1)).unwrap();
            assert_eq!(reference.heap, out.heap, "{}", engine.name());
            // The loop-local array's final state is the last iteration's.
            assert_eq!(out.heap.arrays["g"].dims, vec![3]);
        }
    }

    #[test]
    fn parallel_engines_match_serial_on_figure2() {
        let src = r#"
            for (e = 0; e < nelt; e++) { mt_to_id[e] = nelt - 1 - e; }
            for (miel = 0; miel < nelt; miel++) {
                iel = mt_to_id[miel];
                id_to_mt[iel] = miel;
            }
        "#;
        let art = compile("fig2", src);
        assert!(art.report.loop_report(LoopId(1)).unwrap().parallel);
        let n = 5000;
        let heap = Heap::new()
            .with_scalar("nelt", n)
            .with_array("mt_to_id", vec![0; n as usize])
            .with_array("id_to_mt", vec![0; n as usize]);
        let serial = reference_engine()
            .run_serial(&art, heap.clone(), &opts(1))
            .unwrap();
        for engine in engines() {
            for threads in [2, 4] {
                let par = engine
                    .run_parallel(&art, heap.clone(), &opts(threads))
                    .unwrap();
                assert_eq!(par.heap, serial.heap, "{} threads={threads}", engine.name());
                let expected = if engine.caps().reference {
                    ExecMode::Serial
                } else {
                    ExecMode::Parallel {
                        threads,
                        dynamic: false,
                    }
                };
                assert_eq!(par.stats.loops[&LoopId(1)].mode, expected);
            }
        }
    }

    #[test]
    fn histogram_loop_is_never_dispatched_by_proof_based_engines() {
        let art = compile("hist", "for (i = 0; i < n; i++) { h[idx[i]] = i; }");
        assert!(art.report.outermost_parallel_loops().is_empty());
        let heap = Heap::new()
            .with_scalar("n", 100)
            .with_array("idx", (0..100).map(|i| i % 7).collect())
            .with_array("h", vec![-1; 7]);
        let serial = reference_engine()
            .run_serial(&art, heap.clone(), &opts(1))
            .unwrap();
        for engine in engines() {
            let par = engine.run_parallel(&art, heap.clone(), &opts(4)).unwrap();
            if engine.caps().level_sets {
                // The compile-time analysis leaves the scatter serial, but
                // the level-set scheduler recovers it at run time — and the
                // result must still be bit-identical to the serial heap.
                assert!(matches!(
                    par.stats.loops[&LoopId(0)].mode,
                    ExecMode::Parallel { threads: 4, .. }
                ));
            } else {
                assert!(par.stats.parallel_loops().is_empty());
                assert_eq!(par.stats.loops[&LoopId(0)].mode, ExecMode::Serial);
            }
            assert_eq!(par.heap, serial.heap);
        }
    }

    /// Every dispatching row at every opt level it distinguishes, with the
    /// inspector baseline on.
    fn inspector_legs(threads: usize) -> Vec<(Arc<dyn Engine>, ExecOptions)> {
        let registry = EngineRegistry::builtin();
        crate::matrix::rows(&registry)
            .map(|(e, opt_level)| {
                let o = ExecOptions {
                    baseline_inspector: true,
                    opt_level,
                    ..opts(threads)
                };
                (Arc::clone(e), o)
            })
            .collect()
    }

    #[test]
    fn inspector_baseline_judges_serial_loops() {
        // Histogram (conflicting): a runtime inspector must refuse it.
        let hist = compile("hist", "for (i = 0; i < n; i++) { h[idx[i]] = i; }");
        let hist_heap = Heap::new()
            .with_scalar("n", 100)
            .with_array("idx", (0..100).map(|i| i % 7).collect())
            .with_array("h", vec![-1; 7]);
        // Permutation scatter via an opaque input array: the compile-time
        // analysis cannot prove it, but this input is injective so the
        // runtime inspector licenses it.
        let scatter = compile("scatter", "for (i = 0; i < n; i++) { x[p[i]] = i; }");
        assert!(scatter.report.outermost_parallel_loops().is_empty());
        let n = 50i64;
        let scatter_heap = Heap::new()
            .with_scalar("n", n)
            .with_array("p", (0..n).rev().collect())
            .with_array("x", vec![0; n as usize]);
        for (art, heap, verdict) in [
            (&hist, &hist_heap, Some(false)),
            (&scatter, &scatter_heap, Some(true)),
        ] {
            let serial = reference_engine()
                .run_serial(art, heap.clone(), &opts(1))
                .unwrap();
            for (engine, o) in inspector_legs(4) {
                let out = engine.run_parallel(art, heap.clone(), &o).unwrap();
                let label = format!("{} {:?} on {}", engine.name(), o.opt_level, art.report.name);
                assert_eq!(
                    out.stats.loops[&LoopId(0)].inspector_conflict_free,
                    verdict,
                    "{label}"
                );
                assert_eq!(out.heap, serial.heap, "{label}");
                // Judging a loop does not license running it: only rows
                // with the level-set strategy leave the spine.
                if !engine.caps().level_sets {
                    assert!(out.stats.parallel_loops().is_empty(), "{label}");
                }
            }
        }
    }

    #[test]
    fn inspector_never_licenses_a_loop_rewritten_by_dispatched_work() {
        // The outer serial loop rewrites the same x[] elements every
        // iteration through a proven-parallel inner loop.  The inspection
        // replays whole iterations, inner loop included, so it sees the
        // rewrites: the outer loop is never "conflict-free", and judging
        // it does not stop the inner loop from being dispatched.
        let src = r#"
            for (t = 0; t < reps; t++) {
                for (i = 0; i < n; i++) {
                    x[i] = t;
                }
            }
        "#;
        let art = compile("rewrite", src);
        assert!(art.report.outermost_parallel_loops().contains(&LoopId(1)));
        assert!(!art.report.loop_report(LoopId(0)).unwrap().parallel);
        let heap = Heap::new()
            .with_scalar("reps", 3)
            .with_scalar("n", 100)
            .with_array("x", vec![0; 100]);
        let serial = reference_engine()
            .run_serial(&art, heap.clone(), &opts(1))
            .unwrap();
        for (engine, o) in inspector_legs(4) {
            let out = engine.run_parallel(&art, heap.clone(), &o).unwrap();
            let label = format!("{} {:?}", engine.name(), o.opt_level);
            assert_ne!(
                out.stats.loops[&LoopId(0)].inspector_conflict_free,
                Some(true),
                "{label}"
            );
            assert!(out.stats.parallel_loops().contains(&LoopId(1)), "{label}");
            assert_eq!(out.heap, serial.heap, "{label}");
        }
    }

    #[test]
    fn inspector_gives_no_verdict_where_no_inspector_scheme_is_sound() {
        // x is both written and a subscript: which elements an iteration
        // touches depends on values earlier iterations wrote, so a
        // footprint recorded up front says nothing about the real run —
        // the gate rejects the loop and the baseline stays silent.
        let art = compile("chase", "for (i = 0; i < n; i++) { x[x[i]] = i; }");
        let lr = art.report.loop_report(LoopId(0)).unwrap();
        assert!(!lr.parallel && lr.wavefront.is_none());
        let n = 40i64;
        let heap = Heap::new()
            .with_scalar("n", n)
            .with_array("x", (0..n).rev().collect());
        let serial = reference_engine()
            .run_serial(&art, heap.clone(), &opts(1))
            .unwrap();
        for (engine, o) in inspector_legs(4) {
            let out = engine.run_parallel(&art, heap.clone(), &o).unwrap();
            let stats = &out.stats.loops[&LoopId(0)];
            assert_eq!(stats.inspector_conflict_free, None, "{}", engine.name());
            assert_eq!(stats.mode, ExecMode::Serial);
            assert_eq!(out.heap, serial.heap, "{}", engine.name());
        }

        // One thread: nothing is dispatched, so nothing is inspected —
        // even on a loop the gate approves.
        let art = compile("hist", "for (i = 0; i < n; i++) { h[idx[i]] = i; }");
        assert!(art
            .report
            .loop_report(LoopId(0))
            .unwrap()
            .wavefront
            .is_some());
        let heap = Heap::new()
            .with_scalar("n", 20)
            .with_array("idx", (0..20).map(|i| i % 7).collect())
            .with_array("h", vec![-1; 7]);
        for (engine, o) in inspector_legs(1) {
            let out = engine.run_parallel(&art, heap.clone(), &o).unwrap();
            assert_eq!(
                out.stats.loops[&LoopId(0)].inspector_conflict_free,
                None,
                "{}",
                engine.name()
            );
        }
    }

    #[test]
    fn skewed_bodies_choose_dynamic_scheduling_under_auto() {
        // Figure 9 shape: count → prefix-sum → per-row traversal, where the
        // monotonicity of rowptr is derived from the filling code.
        let src = r#"
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
        let art = compile("csr", src);
        // Loop 3 is the outer traversal; the properties enable it.
        assert!(art.report.outermost_parallel_loops().contains(&LoopId(3)));
        let heap = crate::inputs::synthesize_inputs(
            &art.program,
            &crate::inputs::InputSpec {
                scale: 200,
                seed: 5,
            },
        )
        .unwrap();
        let serial = reference_engine()
            .run_serial(&art, heap.clone(), &opts(1))
            .unwrap();
        for engine in engines() {
            let par = engine.run_parallel(&art, heap.clone(), &opts(4)).unwrap();
            assert_eq!(par.heap, serial.heap, "{}", engine.name());
            // Auto picks dynamic scheduling because the dispatched loop's
            // inner bounds go through the rowptr index array.
            let expected = if engine.caps().reference {
                ExecMode::Serial
            } else {
                ExecMode::Parallel {
                    threads: 4,
                    dynamic: true,
                }
            };
            assert_eq!(par.stats.loops[&LoopId(3)].mode, expected);
        }
    }

    #[test]
    fn scalar_merge_back_reproduces_serial_last_iteration_values() {
        // `last` is written under a condition met only by some iterations;
        // the merged value must come from the globally last writing
        // iteration, wherever its chunk ran.
        let src = r#"
            for (i = 0; i < n; i++) {
                t = i * 2;
                out[i] = t;
                if (i % 10 == 3) {
                    last = i;
                }
            }
        "#;
        let art = compile("t", src);
        assert!(!art.report.outermost_parallel_loops().is_empty());
        let n = 1000;
        let heap = Heap::new()
            .with_scalar("n", n)
            .with_array("out", vec![0; n as usize]);
        let serial = reference_engine()
            .run_serial(&art, heap.clone(), &opts(1))
            .unwrap();
        assert_eq!(serial.heap.scalars["last"], 993);
        for engine in engines() {
            for threads in [2, 3, 8] {
                for o in schedule_legs(threads) {
                    let par = engine.run_parallel(&art, heap.clone(), &o).unwrap();
                    assert_eq!(par.heap, serial.heap, "{} {o:?}", engine.name());
                }
            }
        }
    }

    #[test]
    fn level_set_merge_back_keeps_the_latest_iteration_across_levels() {
        // Iterations 2, 4, 10 and 12 read what their predecessor wrote, so
        // they form level 1 and the other sixty level 0.  On two workers
        // under the static split, worker 1 runs iteration 50 in level 0 and
        // then iteration 10 in level 1 — both write `last`.  Unless the
        // frame is folded at the end of every level, the earlier iteration's
        // later write wins the merge; the serial answer is 50.
        let src = r#"
            for (i = 0; i < n; i++) {
                x[i] = x[src[i]] + 1;
                if (mark[i] != 0) {
                    last = i;
                }
            }
        "#;
        let art = compile("t", src);
        assert!(art.report.loops[0].wavefront.is_some());
        let n = 64usize;
        let mut from: Vec<i64> = (0..n as i64).collect();
        let mut mark = vec![0i64; n];
        for i in [2usize, 4, 10, 12] {
            from[i] = i as i64 - 1;
        }
        mark[50] = 1;
        mark[10] = 1;
        let heap = Heap::new()
            .with_scalar("n", n as i64)
            .with_array("x", vec![0; n])
            .with_array("src", from)
            .with_array("mark", mark);
        let serial = reference_engine()
            .run_serial(&art, heap.clone(), &opts(1))
            .unwrap();
        assert_eq!(serial.heap.scalars["last"], 50);
        for engine in engines() {
            for level in [OptLevel::O0, OptLevel::O1] {
                for o in schedule_legs(2) {
                    let o = ExecOptions {
                        opt_level: level,
                        ..o
                    };
                    let par = engine.run_parallel(&art, heap.clone(), &o).unwrap();
                    assert_eq!(par.heap, serial.heap, "{} {o:?}", engine.name());
                    let levels = par.stats.loops[&LoopId(0)].wavefront.map(|(l, _)| l);
                    let expected = engine.caps().level_sets.then_some(2);
                    assert_eq!(levels, expected, "{} {o:?}", engine.name());
                }
            }
        }
    }

    #[test]
    fn undefined_accumulators_stay_serial_on_every_row() {
        // `best` is a recognized min-reduction accumulator nobody
        // initialized, and no v[k] is below the implicit 0: the serial run
        // never writes it, so its name must stay absent from the final
        // heap — which only a serial execution reproduces.
        let src = "for (k = 0; k < n; k++) { if (v[k] < best) { best = v[k]; } }";
        let art = compile("umin", src);
        assert!(art.report.outermost_parallel_loops().contains(&LoopId(0)));
        let heap = Heap::new()
            .with_scalar("n", 200)
            .with_array("v", (0..200).map(|i| (i * 13) % 101).collect());
        let serial = reference_engine()
            .run_serial(&art, heap.clone(), &opts(1))
            .unwrap();
        assert!(!serial.heap.scalars.contains_key("best"));
        for engine in engines() {
            let par = engine.run_parallel(&art, heap.clone(), &opts(4)).unwrap();
            assert_eq!(par.heap, serial.heap, "{}", engine.name());
            assert!(par.stats.parallel_loops().is_empty(), "{}", engine.name());
        }
    }

    #[test]
    fn worker_errors_are_the_serial_error() {
        use crate::error::SsError;
        // Exactly one iteration faults, so whichever worker runs it must
        // report the very error the serial run stops at.
        let art = compile("t", "for (i = 0; i < n; i++) { out[i] = 100 / (i - 37); }");
        assert!(!art.report.outermost_parallel_loops().is_empty());
        let heap = Heap::new()
            .with_scalar("n", 100)
            .with_array("out", vec![0; 100]);
        let serial = reference_engine()
            .run_serial(&art, heap.clone(), &opts(1))
            .unwrap_err();
        assert_eq!(serial, SsError::Runtime(ExecError::DivisionByZero));
        for engine in engines() {
            for o in schedule_legs(4) {
                let err = engine.run_parallel(&art, heap.clone(), &o).unwrap_err();
                assert_eq!(err, serial, "{} {o:?}", engine.name());
            }
        }
        // A too-small `out`: half the iterations fault, so a worker may trip
        // at a different index than the serial run — the kind must match.
        // This is the bounds check guarding the shared store's raw accesses.
        let art = compile("t", "for (i = 0; i < n; i++) { out[i] = i; }");
        assert!(!art.report.outermost_parallel_loops().is_empty());
        let heap = Heap::new()
            .with_scalar("n", 100)
            .with_array("out", vec![0; 50]);
        let serial = reference_engine()
            .run_serial(&art, heap.clone(), &opts(1))
            .unwrap_err();
        assert!(matches!(
            serial,
            SsError::Runtime(ExecError::OutOfBounds { .. })
        ));
        for engine in engines() {
            for o in schedule_legs(4) {
                let err = engine.run_parallel(&art, heap.clone(), &o).unwrap_err();
                assert!(
                    matches!(err, SsError::Runtime(ExecError::OutOfBounds { .. })),
                    "{} {o:?}: {err:?}",
                    engine.name()
                );
            }
        }
    }

    #[test]
    fn loop_local_arrays_dispatch_with_private_storage() {
        // scratch is declared per iteration; engines with the local_arrays
        // capability dispatch the loop with worker-private storage, the
        // others keep it serial — all must match the serial heap
        // (including scratch's final, last-iteration state).
        let src = r#"
            for (i = 0; i < n; i++) {
                int scratch[8];
                for (t = 0; t < 8; t++) {
                    scratch[t] = dense[i][t] * 2;
                }
                for (t = 0; t < 8; t++) {
                    out[i * 8 + t] = scratch[t] + 1;
                }
            }
        "#;
        let art = compile("scratch", src);
        assert!(art.report.loop_report(LoopId(0)).unwrap().parallel);
        let heap = crate::inputs::synthesize_inputs(
            &art.program,
            &crate::inputs::InputSpec { scale: 96, seed: 4 },
        )
        .unwrap();
        let serial = reference_engine()
            .run_serial(&art, heap.clone(), &opts(1))
            .unwrap();
        for engine in engines() {
            for threads in [2, 3, 8] {
                for o in schedule_legs(threads) {
                    let par = engine.run_parallel(&art, heap.clone(), &o).unwrap();
                    assert_eq!(par.heap, serial.heap, "{} {o:?}", engine.name());
                    assert_eq!(
                        par.stats.parallel_loops().contains(&LoopId(0)),
                        engine.caps().local_arrays,
                        "{}",
                        engine.name()
                    );
                }
            }
        }
    }

    #[test]
    fn rank3_accesses_and_loop_local_declarations_run_on_worker_stores() {
        // The dispatched body declares a rank-3 loop-local array, stores
        // into it and loads from it and from a shared rank-3 input, so the
        // workers run the lowered chain's `th_decl`, `th_store_n` and
        // `th_load_n` over their private storage and shared views.  (The
        // analysis proves no shared multi-dimensional write, so `out` is
        // rank 1.)
        let src = r#"
            for (i = 0; i < n; i++) {
                int tmp[2][2][3];
                for (t = 0; t < 12; t++) {
                    tmp[t / 6][(t / 3) % 2][t % 3] = cube[i][t % 2][t % 3] * 3 + t;
                }
                for (a = 0; a < 2; a++) {
                    out[i * 2 + a] = tmp[a][1][2] - tmp[1 - a][i % 2][i % 3];
                }
            }
        "#;
        let art = compile("rank3", src);
        assert!(art.report.outermost_parallel_loops().contains(&LoopId(0)));
        let n = 40usize;
        let mut heap = Heap::new().with_scalar("n", n as i64);
        heap.arrays.insert(
            "cube".into(),
            crate::heap::ArrayVal::new(
                vec![n, 2, 3],
                (0..6 * n as i64).map(|v| (v * 7) % 23 - 11).collect(),
            ),
        );
        let heap = heap.with_array("out", vec![0; 2 * n]);
        let serial = reference_engine()
            .run_serial(&art, heap.clone(), &opts(1))
            .unwrap();
        assert_eq!(serial.heap.arrays["tmp"].dims, vec![2, 2, 3]);
        for engine in engines() {
            for level in [OptLevel::O0, OptLevel::O1] {
                for o in schedule_legs(3) {
                    let o = ExecOptions {
                        opt_level: level,
                        ..o
                    };
                    let par = engine.run_parallel(&art, heap.clone(), &o).unwrap();
                    assert_eq!(par.heap, serial.heap, "{} {o:?}", engine.name());
                    assert_eq!(
                        par.stats.parallel_loops().contains(&LoopId(0)),
                        !engine.caps().reference,
                        "{} {o:?}",
                        engine.name()
                    );
                }
            }
        }
    }

    #[test]
    fn reduction_loops_dispatch_with_combiner_merge() {
        let src = r#"
            total = 5;
            best = 1000000;
            hi = 0 - 1000000;
            for (k = 0; k < n; k++) {
                total += a[k];
                if (a[k] < best) { best = a[k]; }
                if (a[k] > hi) { hi = a[k]; }
            }
        "#;
        let art = compile("red", src);
        assert!(art.report.outermost_parallel_loops().contains(&LoopId(0)));
        assert_eq!(
            art.report.loop_report(LoopId(0)).unwrap().reductions.len(),
            3
        );
        let n = 10_000i64;
        let data: Vec<i64> = (0..n).map(|i| (i * 37) % 1001 - 500).collect();
        let heap = Heap::new().with_scalar("n", n).with_array("a", data);
        let serial = reference_engine()
            .run_serial(&art, heap.clone(), &opts(1))
            .unwrap();
        // Rows without the capability (the reference: no combiner merge)
        // must leave the loop serial — and still compute the right answer.
        for engine in engines() {
            for threads in [2, 3, 8] {
                let par = engine
                    .run_parallel(&art, heap.clone(), &opts(threads))
                    .unwrap();
                assert_eq!(par.heap, serial.heap, "{} threads={threads}", engine.name());
                let expected = if engine.caps().reductions {
                    ExecMode::Parallel {
                        threads,
                        dynamic: false,
                    }
                } else {
                    ExecMode::Serial
                };
                assert_eq!(par.stats.loops[&LoopId(0)].mode, expected);
            }
        }
    }

    #[test]
    fn a_false_parallel_verdict_races_only_on_values() {
        // ROADMAP's ov9: over ℤ the subscript `i * 2^62` is disjoint across
        // iterations, but in wrapping i64 iterations 0 and 4 both
        // read-modify-write `y[0]`, and the delay loop makes the two
        // overlap.  Whether the loop is dispatched or kept serial, `y[0]`
        // ends as the serial run leaves it (y0 + 6) or as one of the racing
        // stores does (y0 + 1, y0 + 5), and every other cell is the
        // serial run's: the members race on values, not into undefined
        // behaviour.
        let art = compile(
            "ov9",
            r#"
            for (i = 0; i < 5; i++) {
                if (i == 0 || i == 4) {
                    v = y[i * 4611686018427387904];
                    s = 0; for (t = 0; t < 200000; t++) { s = s + t; }
                    y[i * 4611686018427387904] = v + i + 1;
                }
            }
        "#,
        );
        let y0 = 7;
        let heap = Heap::new().with_array("y", vec![y0, 20, 30, 40]);
        let serial = (reference_engine().run_serial(&art, heap.clone(), &opts(1)))
            .unwrap()
            .heap;
        assert_eq!(serial.arrays["y"].data[0], y0 + 6);
        let threaded = EngineRegistry::builtin().get("threaded").unwrap();
        for threads in [2, 3] {
            for opts in schedule_legs(threads) {
                for _ in 0..4 {
                    let raced = threaded.run_parallel(&art, heap.clone(), &opts).unwrap();
                    let (y, want) = (&raced.heap.arrays["y"].data, &serial.arrays["y"].data);
                    assert!([y0 + 1, y0 + 5, y0 + 6].contains(&y[0]), "{y:?} {opts:?}");
                    assert_eq!(y[1..], want[1..], "{opts:?}");
                    assert_eq!(raced.heap.arrays.len(), serial.arrays.len());
                }
            }
        }
    }
}
