//! `exec_proven` and `exec_wavefront`: precompiled programs executed by the
//! registry's engines at scale 1024 (the smallest size where two threads
//! beat one), compile excluded.
//!
//! Both use the same layers differently.  `exec_proven` dispatches a few
//! large proven-parallel regions, so engine speed and team dispatch /
//! merge-back dominate.  `exec_wavefront` runs carried loops as dependence
//! level sets: hundreds of narrow regions with a barrier each, so any
//! per-region cost that `exec_proven` hides is amplified.
//!
//! Legs per program and round: `serial` is the default engine
//! (`bytecode`@O1) `run_serial`; `parallel` is the workload's default
//! parallel engine at `T` threads on warm artifacts; `best:<row>` is the
//! serial leg of whichever registry row a quarter-scale probe in set-up
//! found fastest for that program.  Every leg's final heap must be
//! bit-identical to the `ast` reference engine's heap computed in set-up.

use super::{time_ms, Layers, OpLog, Size, Workload, BEST, PARALLEL, SERIAL};
use crate::gen::{self, Rng};
use crate::stats;
use crate::trace::Tracer;
use ss_interp::{
    synthesize_inputs, Engine, EngineRegistry, ExecMode, ExecOptions, ExecStats, Heap, InputSpec,
    OptLevel,
};
use ss_parallelizer::Artifacts;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Which exec workload: its programs and its default parallel engine.
#[derive(Debug, Clone, Copy)]
pub struct Flavor {
    programs: &'static [&'static str],
    parallel_engine: &'static str,
}

/// `exec_proven`: proven-parallel loops, dispatched by the default engine.
pub const PROVEN: Flavor = Flavor {
    programs: &[
        "fig9_csr_product",
        "cg_spmv_rows",
        "fig6_csparse_blocks",
        "cg_norm_reduction",
        "spmv_iter",
    ],
    parallel_engine: "bytecode",
};

/// `exec_wavefront`: carried loops, recovered by level-set scheduling.
pub const WAVEFRONT: Flavor = Flavor {
    programs: &["sptrsv_levels", "gauss_seidel_sweep", "sptrsv_iter"],
    parallel_engine: "wavefront",
};

/// Input scale of the window's legs.  The set-up probe that picks each
/// program's fastest row runs at a quarter of it.
fn scale_of(size: Size) -> i64 {
    match size {
        Size::Full => 1024,
        Size::Smoke => 96,
    }
}

/// One registry row: an engine at one of the opt levels it distinguishes.
#[derive(Clone)]
pub struct EngineRow {
    engine: Arc<dyn Engine>,
    level: OptLevel,
    /// `bytecode-O1`, `compiled-O1`, …
    pub label: String,
}

impl EngineRow {
    fn serial_span(&self) -> String {
        format!("engine.{}.serial", self.label)
    }

    fn parallel_span(&self) -> String {
        format!("engine.{}.parallel", self.engine.name())
    }
}

/// `EngineRegistry::builtin()` × `caps().opt_levels`.
pub fn registry_rows() -> Vec<EngineRow> {
    EngineRegistry::builtin()
        .iter()
        .flat_map(|engine| {
            engine.caps().opt_levels.iter().map(|&level| EngineRow {
                engine: Arc::clone(engine),
                level,
                label: format!(
                    "{}-O{}",
                    engine.name(),
                    if level == OptLevel::O0 { 0 } else { 1 }
                ),
            })
        })
        .collect()
}

fn options(level: OptLevel, threads: usize) -> ExecOptions {
    ExecOptions {
        threads,
        opt_level: level,
        ..ExecOptions::default()
    }
}

struct Prepared {
    name: String,
    artifacts: Artifacts,
    initial: Heap,
    reference: Heap,
    best: EngineRow,
    /// Set-up's own timings, ms: input synthesis and the `ast` reference.
    inputs_ms: f64,
    ast_ms: f64,
    /// Statistics of the latest default serial / parallel leg.
    serial_stats: ExecStats,
    parallel_stats: ExecStats,
}

impl Prepared {
    fn set_up(name: &str, seed: u64, scale: i64, rows: &[EngineRow]) -> Result<Prepared, String> {
        let program = gen::named_program(name).ok_or_else(|| format!("no program '{name}'"))?;
        let artifacts =
            Artifacts::compile_source(name, &program.source).map_err(|e| format!("{name}: {e}"))?;
        let spec = |scale| InputSpec { scale, seed };
        let (inputs_ms, initial) = time_ms(|| synthesize_inputs(&artifacts.program, &spec(scale)));
        let initial = initial.map_err(|e| format!("{name}: input synthesis: {e}"))?;
        let reference_row = rows
            .iter()
            .find(|r| r.engine.caps().reference)
            .ok_or("no reference engine registered")?;
        let (ast_ms, reference) = time_ms(|| {
            reference_row.engine.run_serial(
                &artifacts,
                initial.clone(),
                &options(reference_row.level, 1),
            )
        });
        let reference = reference
            .map_err(|e| format!("{name}: reference run: {e}"))?
            .heap;

        // Fastest row on a quarter-scale input: min of three per row.
        let probe = synthesize_inputs(&artifacts.program, &spec(scale / 4))
            .map_err(|e| format!("{name}: probe synthesis: {e}"))?;
        let mut best: Option<(f64, &EngineRow)> = None;
        for row in rows.iter().filter(|r| !r.engine.caps().reference) {
            let mut fastest = f64::INFINITY;
            for _ in 0..3 {
                let heap = probe.clone();
                let (ms, out) = time_ms(|| {
                    row.engine
                        .run_serial(&artifacts, heap, &options(row.level, 1))
                });
                out.map_err(|e| format!("{name}: probe {}: {e}", row.label))?;
                fastest = fastest.min(ms);
            }
            if best.is_none_or(|(ms, _)| fastest < ms) {
                best = Some((fastest, row));
            }
        }
        Ok(Prepared {
            name: name.to_string(),
            artifacts,
            initial,
            reference,
            best: best
                .ok_or("registry has no non-reference engine")?
                .1
                .clone(),
            inputs_ms,
            ast_ms,
            serial_stats: ExecStats::default(),
            parallel_stats: ExecStats::default(),
        })
    }

    /// One timed engine leg from a fresh copy of the initial heap, checked
    /// against the reference heap outside the timing.
    fn leg(
        &self,
        row: &EngineRow,
        threads: Option<usize>,
        tracer: Option<(&mut Tracer, &str)>,
    ) -> (f64, Result<ExecStats, String>) {
        let run = |heap: Heap| match threads {
            None => row
                .engine
                .run_serial(&self.artifacts, heap, &options(row.level, 1)),
            Some(t) => row
                .engine
                .run_parallel(&self.artifacts, heap, &options(row.level, t)),
        };
        let (ms, out) = match tracer {
            Some((tracer, span)) => {
                let heap = tracer.span("interp.heap_clone", || self.initial.clone());
                let id = tracer.open(span);
                let timed = time_ms(|| run(heap));
                tracer.close(id);
                timed
            }
            None => {
                let heap = self.initial.clone();
                time_ms(|| run(heap))
            }
        };
        let what = || {
            format!(
                "{} {}{}",
                self.name,
                row.label,
                if threads.is_some() { " parallel" } else { "" }
            )
        };
        let checked = match out {
            Err(e) => Err(format!("{}: {e}", what())),
            Ok(out) if out.heap != self.reference => Err(format!(
                "{}: heap differs from the ast reference ({})",
                what(),
                self.reference
                    .diff(&out.heap)
                    .into_iter()
                    .take(2)
                    .collect::<Vec<_>>()
                    .join("; ")
            )),
            Ok(out) => Ok(out.stats),
        };
        (ms, checked)
    }
}

/// An exec workload, set up and warm.
pub struct Exec {
    programs: Vec<Prepared>,
    order: Vec<usize>,
    rows: Vec<EngineRow>,
    /// The default engine's row (`bytecode`@O1) and the flavor's parallel one.
    serial_row: EngineRow,
    parallel_row: EngineRow,
    threads: usize,
    seed: u64,
    scale: i64,
    team_threads_before: u64,
    levelset_builds_before: u64,
}

impl Exec {
    /// Compiles the flavor's programs, synthesizes their inputs from
    /// `seed`, computes the reference heaps (programs spread over `T`
    /// threads: synthesis and the tree walker are the slow part), picks
    /// each program's fastest row, and runs one untimed warm-up round so
    /// lowerings, the thread team and the wavefront schedule cache are warm.
    pub fn set_up(flavor: Flavor, seed: u64, size: Size) -> Result<Exec, String> {
        let scale = scale_of(size);
        let threads = crate::team_threads();
        let rows = registry_rows();
        let team_threads_before = ss_runtime::team_threads_spawned();
        let levelset_builds_before = ss_inspector::levelset_build_count();
        // Workers pull the next program when free: set-up cost differs 2x
        // between programs.
        let next = AtomicUsize::new(0);
        let mut prepared: Vec<Option<Result<Prepared, String>>> =
            flavor.programs.iter().map(|_| None).collect();
        std::thread::scope(|scope| {
            let (rows, next) = (&rows, &next);
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(move || {
                        let mut done = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(name) = flavor.programs.get(i) else {
                                return done;
                            };
                            done.push((i, Prepared::set_up(name, seed, scale, rows)));
                        }
                    })
                })
                .collect();
            for handle in handles {
                for (i, result) in handle.join().expect("set-up thread panicked") {
                    prepared[i] = Some(result);
                }
            }
        });
        let programs = prepared
            .into_iter()
            .map(|p| p.expect("every program was assigned to a worker"))
            .collect::<Result<Vec<_>, _>>()?;
        let mut order: Vec<usize> = (0..programs.len()).collect();
        Rng::new(seed, 3).shuffle(&mut order);
        let row = |label: String| {
            rows.iter()
                .find(|r| r.label == label)
                .cloned()
                .ok_or(format!("registry has no row '{label}'"))
        };
        let workload = Exec {
            serial_row: row("bytecode-O1".to_string())?,
            parallel_row: row(format!("{}-O1", flavor.parallel_engine))?,
            programs,
            order,
            rows,
            threads,
            seed,
            scale,
            team_threads_before,
            levelset_builds_before,
        };
        super::warmed(workload)
    }

    /// The window's three legs of program `i`; spans when `tracer` is given.
    fn default_legs(&mut self, i: usize, log: &mut OpLog, mut tracer: Option<&mut Tracer>) {
        let p = &mut self.programs[i];
        let best_row = p.best.clone();
        let best_leg = format!("{BEST}{}", best_row.label);
        let legs = [
            (
                SERIAL,
                &self.serial_row,
                None,
                self.serial_row.serial_span(),
            ),
            (
                PARALLEL,
                &self.parallel_row,
                Some(self.threads),
                self.parallel_row.parallel_span(),
            ),
            (best_leg.as_str(), &best_row, None, best_row.serial_span()),
        ];
        for (leg, row, leg_threads, span) in legs {
            let (ms, checked) = p.leg(
                row,
                leg_threads,
                tracer.as_deref_mut().map(|t| (t, span.as_str())),
            );
            if let Ok(stats) = &checked {
                match leg {
                    SERIAL => p.serial_stats = stats.clone(),
                    PARALLEL => p.parallel_stats = stats.clone(),
                    _ => {}
                }
            }
            log.timed_leg(&p.name, leg, ms, checked.map(|_| ()));
        }
    }
    /// Fresh artifacts at probe scale: what the first run pays that the
    /// second does not — threaded lowering, wavefront inspection and
    /// level-set build.
    fn cold_start_probes(&self, out: &mut Layers) {
        let mut lowering = Vec::new();
        let (mut cold, mut warm) = (Vec::new(), Vec::new());
        let row = |label: &str| self.rows.iter().find(|r| r.label == label);
        let (Some(threaded), Some(wavefront)) = (row("threaded-O1"), row("wavefront-O1")) else {
            return;
        };
        for p in &self.programs {
            let source = gen::named_program(&p.name)
                .expect("set up from this name")
                .source;
            let Ok(fresh) = Artifacts::compile_source(&p.name, &source) else {
                continue;
            };
            let spec = InputSpec {
                scale: self.scale / 4,
                seed: self.seed,
            };
            let Ok(heap) = synthesize_inputs(&fresh.program, &spec) else {
                continue;
            };
            let serial = |heap: Heap| {
                time_ms(|| {
                    threaded
                        .engine
                        .run_serial(&fresh, heap, &options(OptLevel::O1, 1))
                })
                .0
            };
            let (first, second) = (serial(heap.clone()), serial(heap.clone()));
            lowering.push((first - second).max(0.0));
            let parallel = |heap: Heap| {
                time_ms(|| {
                    wavefront.engine.run_parallel(
                        &fresh,
                        heap,
                        &options(OptLevel::O1, self.threads),
                    )
                })
                .0
            };
            cold.push(parallel(heap.clone()));
            warm.push(parallel(heap));
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        out.set(
            "engine.threaded.lowering_ms",
            mean(&lowering),
            lowering.len(),
        );
        out.set("engine.wavefront.cold_ms", mean(&cold), cold.len());
        out.set("engine.wavefront.warm_ms", mean(&warm), warm.len());
        out.set(
            "inspector.schedule_build_ms",
            (mean(&cold) - mean(&warm)).max(0.0),
            cold.len(),
        );
        out.set(
            "inspector.levelset_builds",
            (ss_inspector::levelset_build_count() - self.levelset_builds_before) as f64,
            self.programs.len(),
        );
    }
}

fn dispatched_seconds(
    stats: &ExecStats,
    pick: impl Fn(&ss_interp::LoopStats) -> bool,
) -> Vec<(ss_ir::LoopId, f64)> {
    stats
        .loops
        .iter()
        .filter(|(_, s)| pick(s))
        .map(|(id, s)| (*id, s.seconds))
        .collect()
}

impl Workload for Exec {
    fn round(&mut self, log: &mut OpLog) {
        for i in self.order.clone() {
            self.default_legs(i, log, None);
        }
    }

    fn traced_round(&mut self, log: &mut OpLog, tracer: &mut Tracer) {
        for i in self.order.clone() {
            tracer.begin_op(i);
            self.default_legs(i, log, Some(tracer));
            // The rest of the ladder: every other non-reference row's
            // serial leg, every dispatching engine's parallel leg at O1,
            // and the dispatch path on one thread.  Not ops of the
            // workload: they only feed the per-layer rows.
            let p = &self.programs[i];
            let mut extra = |row: &EngineRow, leg_threads: Option<usize>, span: String| {
                let (_, checked) = p.leg(row, leg_threads, Some((tracer, span.as_str())));
                if let Err(why) = checked {
                    log.fail(why);
                }
            };
            for row in self.rows.iter().filter(|r| !r.engine.caps().reference) {
                if row.label != self.serial_row.label && row.label != p.best.label {
                    extra(row, None, row.serial_span());
                }
                if row.level == OptLevel::O1 && row.label != self.parallel_row.label {
                    extra(row, Some(self.threads), row.parallel_span());
                }
            }
            extra(
                &self.serial_row,
                Some(1),
                "runtime.dispatch_one_thread".to_string(),
            );
        }
    }

    fn proven_loops(&self) -> u64 {
        self.programs
            .iter()
            .map(|p| super::compile::proven_in(&p.artifacts.report))
            .sum()
    }

    fn layers(&mut self, tracer: &Tracer, out: &mut Layers) {
        let n = self.programs.len();
        for row in &self.rows {
            if !row.engine.caps().reference {
                out.set_from_spans(
                    &format!("engine.{}.serial_ms", row.label),
                    tracer,
                    &format!("engine.{}.serial", row.label),
                );
            }
            if row.level == OptLevel::O1 && row.engine.caps().reductions {
                out.set_from_spans(
                    &format!("engine.{}.parallel_ms", row.engine.name()),
                    tracer,
                    &format!("engine.{}.parallel", row.engine.name()),
                );
            }
        }
        out.set_from_spans("interp.heap_clone_ms", tracer, "interp.heap_clone");
        let of_programs =
            |f: &dyn Fn(&Prepared) -> f64| -> Vec<f64> { self.programs.iter().map(f).collect() };
        let geomean = |values: Vec<f64>| stats::geomean(&values).unwrap_or(0.0);
        out.set(
            "engine.ast-O1.serial_ms",
            geomean(of_programs(&|p| p.ast_ms)),
            n,
        );
        out.set(
            "interp.inputs_ms",
            geomean(of_programs(&|p| p.inputs_ms)),
            n,
        );
        let heap_bytes: usize = self
            .programs
            .iter()
            .map(|p| {
                p.initial
                    .arrays
                    .values()
                    .map(|a| a.data.len() * 8)
                    .sum::<usize>()
            })
            .sum();
        out.set("interp.heap_bytes", heap_bytes as f64, n);

        // Dispatch cost: `run_parallel` on one thread minus `run_serial`.
        let serial = tracer.by_program("engine.bytecode-O1.serial");
        let one_thread = tracer.by_program("runtime.dispatch_one_thread");
        let overheads: Vec<f64> = one_thread
            .iter()
            .filter_map(|(p, v)| Some(stats::floor(v)? - stats::floor(serial.get(p)?)?))
            .collect();
        if !overheads.is_empty() {
            out.set(
                "runtime.dispatch_overhead_ms",
                overheads.iter().sum::<f64>() / overheads.len() as f64,
                overheads.len(),
            );
        }

        // From the engines' own per-loop statistics (latest default legs).
        let mut shares = Vec::new();
        let mut loop_speedups = Vec::new();
        let mut wavefront_speedups = Vec::new();
        let (mut regions, mut levels, mut level_iterations, mut scheduled) =
            (0u64, 0usize, 0.0, 0usize);
        for p in &self.programs {
            let proven: f64 = p
                .artifacts
                .report
                .outermost_parallel_loops()
                .iter()
                .filter_map(|id| p.serial_stats.loops.get(id))
                .map(|s| s.seconds)
                .sum();
            if p.serial_stats.total_seconds > 0.0 {
                shares.push(proven / p.serial_stats.total_seconds);
            }
            let speedup_over = |picked: Vec<(ss_ir::LoopId, f64)>| -> Option<f64> {
                let parallel: f64 = picked.iter().map(|(_, s)| s).sum();
                let serial: f64 = picked
                    .iter()
                    .filter_map(|(id, _)| p.serial_stats.loops.get(id))
                    .map(|s| s.seconds)
                    .sum();
                (parallel > 0.0 && serial > 0.0).then(|| serial / parallel)
            };
            let is_parallel =
                |s: &ss_interp::LoopStats| matches!(s.mode, ExecMode::Parallel { .. });
            loop_speedups.extend(speedup_over(dispatched_seconds(&p.parallel_stats, |s| {
                is_parallel(s) && s.wavefront.is_none()
            })));
            wavefront_speedups.extend(speedup_over(dispatched_seconds(&p.parallel_stats, |s| {
                s.wavefront.is_some()
            })));
            for s in p.parallel_stats.loops.values() {
                if is_parallel(s) {
                    regions += s.invocations;
                }
                if let Some((l, w)) = s.wavefront {
                    levels += l;
                    level_iterations += l as f64 * w;
                    scheduled += 1;
                }
            }
        }
        if !shares.is_empty() {
            out.set(
                "engine.proven_loop_share",
                shares.iter().sum::<f64>() / shares.len() as f64,
                shares.len(),
            );
        }
        if let Some(g) = stats::geomean(&loop_speedups) {
            out.set("engine.loop_speedup", g, loop_speedups.len());
        }
        out.set("engine.regions", regions as f64, n);
        if let Some(g) = stats::geomean(&wavefront_speedups) {
            out.set("engine.wavefront.loop_speedup", g, wavefront_speedups.len());
        }
        if levels > 0 {
            out.set("inspector.levels", levels as f64, scheduled);
            out.set(
                "inspector.avg_width",
                level_iterations / levels as f64,
                scheduled,
            );
        }

        self.cold_start_probes(out);

        // An empty region on the shared `T`-team: the floor under every
        // dispatched region and every wavefront level.
        const REGIONS: usize = 2000;
        let (ms, ()) = time_ms(|| {
            ss_runtime::with_shared_team(self.threads, |team| {
                for _ in 0..REGIONS {
                    ss_runtime::team_parallel_for_schedule(
                        team,
                        self.threads,
                        ss_runtime::Schedule::Static,
                        |r| {
                            std::hint::black_box(r);
                        },
                    );
                }
            })
        });
        out.set("runtime.team_region_us", ms * 1e3 / REGIONS as f64, REGIONS);
        out.set(
            "runtime.team_threads_spawned",
            (ss_runtime::team_threads_spawned() - self.team_threads_before) as f64,
            1,
        );
    }
}
