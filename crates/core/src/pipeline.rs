//! The staged compilation pipeline: parse → analyze → slots → bytecode →
//! opt, with every stage's output carried in one typed [`Artifacts`] store.
//!
//! The first half of this module is the *analysis* pipeline (aggregate →
//! dependence-test → annotate, producing a [`ParallelizationReport`]); the
//! second half is the [`Artifacts`] store that runs the analysis, name
//! resolution and the one lowering (AST → bytecode → O1) exactly once and
//! hands every downstream consumer — all execution engines, the CLI, the
//! benches, the fuzz harness — the same compiled products.  Engines never
//! compile independently: this is the only compile site (CI's "One
//! compile site" guard), and `crates/interp/tests/compile_once.rs` checks
//! that a session compiles each program once.

use crate::reduction::{recognize_reductions, ReductionInfo};
use ss_aggregation::{analyze_program, ProgramAnalysis};
use ss_deptest::{test_loop, LoopVerdict, RangeTestConfig};
use ss_ir::ast::written_arrays;
use ss_ir::bytecode::{compile_bytecode, BytecodeProgram};
use ss_ir::loops::LoopTree;
use ss_ir::opt::{optimize, OptLevel};
use ss_ir::slots::{compile_program as compile_slots, SlotMap};
use ss_ir::{parse_program, print_program_with, IrError, LoopId, PrintOptions, Program, Stmt};
use ss_properties::PropertyDatabase;
use std::time::Instant;

/// The result for one loop: both the extended verdict and the baseline one.
#[derive(Debug, Clone)]
pub struct LoopReport {
    /// The loop.
    pub loop_id: LoopId,
    /// Loop index variable (empty for `while` loops).
    pub index_var: String,
    /// Nesting depth (0 = outermost).
    pub depth: usize,
    /// Id of the directly enclosing loop, if any.
    pub parent: Option<LoopId>,
    /// Whether the loop contains a subscripted-subscript access.
    pub has_subscripted_subscript: bool,
    /// Whether the source carried a manual `omp parallel` pragma (the oracle
    /// used in the Figure 1 study).
    pub manually_parallel: bool,
    /// Verdict of the extended Range Test (with index-array properties).
    pub parallel: bool,
    /// Verdict of the baseline test (no index-array properties) — what
    /// conventional compilers conclude.
    pub baseline_parallel: bool,
    /// Why the loop is parallel (empty when serial).
    pub reasons: Vec<String>,
    /// What blocked parallelization (empty when parallel).
    pub blockers: Vec<String>,
    /// Recognized reduction accumulators.  Non-empty exactly when the loop
    /// is parallelizable *as a reduction*: every dependence blocker was a
    /// carried scalar, and every carried scalar is a well-formed
    /// accumulator (`+`, `min` or `max`).  Such loops have
    /// `parallel == false` (they are not independence-parallel) but are
    /// dispatched by executors with per-thread partials and a combiner.
    pub reductions: Vec<ReductionInfo>,
    /// Present when the loop is serial (array-carried dependence, no
    /// carried scalars) but its memory footprint is provably a function
    /// of loop-entry state, so a wavefront engine may inspect it once
    /// and execute it as dependence level sets (see
    /// [`crate::wavefront::wavefront_fact`]).  Does **not** make the
    /// loop [`is_parallelizable`](Self::is_parallelizable): only the
    /// wavefront engine consumes this fact.
    pub wavefront: Option<crate::wavefront::WavefrontFact>,
}

impl LoopReport {
    /// True when an executor may run the loop's iterations concurrently —
    /// either fully independent (`parallel`) or via reduction dispatch.
    pub fn is_parallelizable(&self) -> bool {
        self.parallel || !self.reductions.is_empty()
    }

    /// The verdict class of the loop — the one classification every
    /// consumer (CLI tables, JSON output, the session API) renders from.
    pub fn verdict(&self) -> VerdictKind {
        if self.parallel {
            VerdictKind::Parallel
        } else if !self.reductions.is_empty() {
            VerdictKind::Reduction
        } else {
            VerdictKind::Serial
        }
    }

    /// The loop's reductions rendered as an OpenMP-style clause body
    /// (`+:total,min:best`); empty for non-reduction loops.
    pub fn reduction_clause(&self) -> String {
        reduction_clause(&self.reductions)
    }
}

/// How a loop may legally execute, as proven at compile time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerdictKind {
    /// Iterations are independent: dispatch freely.
    Parallel,
    /// Iterations carry only well-formed accumulators: dispatch with
    /// per-thread partials and a combiner.
    Reduction,
    /// A dependence blocks concurrent execution.
    Serial,
}

impl VerdictKind {
    /// Stable lower-case label (`parallel` / `reduction` / `serial`) used
    /// by machine-readable output.
    pub fn label(&self) -> &'static str {
        match self {
            VerdictKind::Parallel => "parallel",
            VerdictKind::Reduction => "reduction",
            VerdictKind::Serial => "serial",
        }
    }
}

/// The full report for a program.
#[derive(Debug, Clone)]
pub struct ParallelizationReport {
    /// Program name.
    pub name: String,
    /// Per-loop reports in loop-id order.
    pub loops: Vec<LoopReport>,
    /// The property database at the end of the program (for inspection).
    pub final_db: PropertyDatabase,
    /// The input program annotated with `#pragma omp parallel for` on every
    /// loop proven parallel by the extended test (outermost-parallel loops
    /// only, as OpenMP would nest otherwise).
    pub annotated_source: String,
}

impl ParallelizationReport {
    /// The report for a specific loop.
    pub fn loop_report(&self, id: LoopId) -> Option<&LoopReport> {
        self.loops.iter().find(|l| l.loop_id == id)
    }

    /// Loops the extended test proves parallel.
    pub fn parallel_loops(&self) -> Vec<LoopId> {
        self.loops
            .iter()
            .filter(|l| l.parallel)
            .map(|l| l.loop_id)
            .collect()
    }

    /// True if the loop is parallelizable (independence- or
    /// reduction-parallel) and no enclosing loop is — the loops an executor
    /// actually dispatches to threads (inner parallel loops run serially
    /// inside their parallel ancestor, exactly as the `#pragma` annotation
    /// logic avoids nesting OpenMP regions).
    pub fn is_outermost_parallel(&self, id: LoopId) -> bool {
        let Some(report) = self.loop_report(id) else {
            return false;
        };
        if !report.is_parallelizable() {
            return false;
        }
        let mut parent = report.parent;
        while let Some(p) = parent {
            match self.loop_report(p) {
                Some(anc) => {
                    if anc.is_parallelizable() {
                        return false;
                    }
                    parent = anc.parent;
                }
                None => break,
            }
        }
        true
    }

    /// The loops an executor dispatches to threads (see
    /// [`is_outermost_parallel`](Self::is_outermost_parallel)), in loop-id
    /// order.  This is the per-loop schedule the `ss-interp` parallel engine
    /// consumes.
    pub fn outermost_parallel_loops(&self) -> Vec<LoopId> {
        self.loops
            .iter()
            .filter(|l| self.is_outermost_parallel(l.loop_id))
            .map(|l| l.loop_id)
            .collect()
    }

    /// A human-readable multi-line summary.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("program {}\n", self.name));
        for l in &self.loops {
            let reduction_status;
            let status = match (l.parallel, l.baseline_parallel) {
                (true, true) => "parallel (also without properties)",
                (true, false) => "PARALLEL (enabled by index-array properties)",
                (false, _) if !l.reductions.is_empty() => {
                    reduction_status =
                        format!("PARALLEL (reduction {})", reduction_clause(&l.reductions));
                    reduction_status.as_str()
                }
                (false, _) => "serial",
            };
            out.push_str(&format!(
                "  {} ({}, depth {}): {}\n",
                l.loop_id, l.index_var, l.depth, status
            ));
            for r in &l.reasons {
                out.push_str(&format!("      + {r}\n"));
            }
            for b in &l.blockers {
                out.push_str(&format!("      - {b}\n"));
            }
        }
        out
    }
}

/// Parses and analyzes a mini-C source string.
pub fn parallelize_source(name: &str, src: &str) -> Result<ParallelizationReport, ss_ir::IrError> {
    let program = parse_program(name, src)?;
    Ok(parallelize(&program))
}

/// Analyzes an already-parsed program.
pub fn parallelize(program: &Program) -> ParallelizationReport {
    let analysis: ProgramAnalysis = analyze_program(program);
    let tree = LoopTree::build(program);
    let extended_cfg = RangeTestConfig::default();
    let baseline_cfg = RangeTestConfig::baseline();
    let mut loops = Vec::new();
    for info in &tree.loops {
        let db = analysis.db_for_loop(info.id);
        let extended: LoopVerdict = test_loop(program, &tree, info.id, db, &extended_cfg);
        // The baseline sees a subset of the extended test's facts, so it
        // can only prove loops the extended test proved.
        let baseline_parallel =
            extended.parallel && test_loop(program, &tree, info.id, db, &baseline_cfg).parallel;
        // A loop blocked *only* by carried scalars that all turn out to be
        // well-formed accumulators is reduction-parallel.
        let reductions = if !extended.parallel
            && !extended.carried_scalars.is_empty()
            && extended.blockers.len() == extended.carried_scalars.len()
        {
            let recognized = recognize_reductions(program, info.id);
            if extended
                .carried_scalars
                .iter()
                .all(|s| recognized.iter().any(|r| r.var == *s))
            {
                recognized
            } else {
                Vec::new()
            }
        } else {
            Vec::new()
        };
        let mut reasons = extended.reasons;
        for r in &reductions {
            reasons.push(format!(
                "scalar '{}' is a {} reduction (dispatched with per-thread partials)",
                r.var,
                r.op.symbol()
            ));
        }
        // A serial loop with no carried scalars may still be wavefront-
        // schedulable: its footprint must be a function of entry state.
        let wavefront = if !extended.parallel
            && reductions.is_empty()
            && extended.carried_scalars.is_empty()
            && info.is_normalized
        {
            crate::wavefront::wavefront_fact(program, info.id)
        } else {
            None
        };
        if let Some(f) = &wavefront {
            reasons.push(format!(
                "wavefront-schedulable: footprint determined by entry state (watched {})",
                f.watched.join(",")
            ));
        }
        loops.push(LoopReport {
            loop_id: info.id,
            index_var: info.var.clone(),
            depth: info.depth,
            parent: info.parent,
            has_subscripted_subscript: program
                .find_loop(info.id)
                .is_some_and(Stmt::body_has_subscripted_subscript),
            manually_parallel: info.manually_parallel(),
            parallel: extended.parallel,
            baseline_parallel,
            reasons,
            blockers: if reductions.is_empty() {
                extended.blockers
            } else {
                Vec::new()
            },
            reductions,
            wavefront,
        });
    }
    // Annotate outermost parallel loops.
    let mut report = ParallelizationReport {
        name: program.name.clone(),
        loops,
        final_db: analysis.db.clone(),
        annotated_source: String::new(),
    };
    let mut opts = PrintOptions::default();
    for id in report.outermost_parallel_loops() {
        let l = report.loop_report(id).expect("outermost loop has a report");
        let pragma = if l.reductions.is_empty() {
            "omp parallel for".to_string()
        } else {
            format!(
                "omp parallel for reduction({})",
                reduction_clause(&l.reductions)
            )
        };
        opts.extra_pragmas.insert(id.0, vec![pragma]);
    }
    report.annotated_source = print_program_with(program, &opts);
    report
}

/// Renders reductions as an OpenMP-style clause body: `+:total,min:best`.
fn reduction_clause(reductions: &[ReductionInfo]) -> String {
    reductions
        .iter()
        .map(|r| format!("{}:{}", r.op.symbol(), r.var))
        .collect::<Vec<_>>()
        .join(",")
}

// ---------------------------------------------------------------------------
// The staged compilation pipeline.
// ---------------------------------------------------------------------------

/// Wall-clock cost of one pipeline stage.
#[derive(Debug, Clone)]
pub struct StageTiming {
    /// Stage name (one of [`Artifacts::STAGES`]).
    pub stage: &'static str,
    /// Seconds spent in the stage.
    pub seconds: f64,
}

/// Everything one pipeline invocation produces, typed per stage (the
/// parse that yields [`Artifacts::program`] happens upstream, in
/// [`Artifacts::compile_source`] or at the caller; the four *timed*
/// stages are listed in [`Artifacts::STAGES`]):
///
/// | stage      | artifact                                      |
/// |------------|-----------------------------------------------|
/// | `analyze`  | [`Artifacts::report`] (dependence, privatization and reduction facts) |
/// | `slots`    | [`Artifacts::slots`] (every name interned into a dense slot) |
/// | `bytecode` | [`Artifacts::bytecode`] (the O0 register-machine stream, lowered from the AST through the slots) |
/// | `opt`      | [`Artifacts::optimized`] (the O1 stream)      |
///
/// Compilation happens **once** here, for the whole run: every engine (and
/// the disassembler, the benches, the fuzz harness) reads these fields
/// instead of recompiling at its own call site.  O0 and O1 streams are both
/// kept so differential consumers can execute either; `--opt-level` picks
/// which one an engine runs.
#[derive(Debug, Clone)]
pub struct Artifacts {
    /// The parsed program (the `parse` stage happens in
    /// [`Artifacts::compile_source`]; [`Artifacts::compile`] accepts an
    /// already-parsed AST).
    pub program: Program,
    /// Per-loop verdicts, reductions and index-array facts.
    pub report: ParallelizationReport,
    /// The program's name table: the slot of every scalar and array, the
    /// numbering every bytecode stream and dispatcher shares.
    pub slots: SlotMap,
    /// The unoptimized (`O0`) register-machine stream.
    pub bytecode: BytecodeProgram,
    /// The optimized (`O1`) stream: constant folding, superinstruction
    /// fusion, dead-store elimination (see `ss_ir::opt`).
    pub optimized: BytecodeProgram,
    /// [`written_arrays`] of the program, computed once: the arrays whose
    /// contents a run may change (engines restamp exactly these before
    /// each run).
    pub written_arrays: Vec<String>,
    /// Wall-clock cost per stage, in [`Artifacts::STAGES`] order.
    pub stages: Vec<StageTiming>,
    /// Lazily-populated engine-private lowerings (see
    /// [`Artifacts::engine_artifact`]), keyed by `(engine name, slot)`.
    pub ext: ExtArtifacts,
}

/// An engine-private lowering of the compiled program — e.g. the threaded
/// tier's pre-resolved handler stream — attached to [`Artifacts`] so a
/// Session artifact cache keyed by the program's `(name, source)` naturally
/// caches the lowering alongside everything else, with its footprint
/// charged through [`EngineArtifact::approx_bytes`].
pub trait EngineArtifact: std::any::Any + Send + Sync {
    /// Approximate in-memory footprint in bytes (same contract as
    /// [`Artifacts::approx_bytes`]: monotone in program size, not exact).
    fn approx_bytes(&self) -> usize;
    /// Downcasting hook so the owning engine can recover its concrete type.
    fn as_any(&self) -> &dyn std::any::Any;
}

/// The keyed lazy slots holding [`EngineArtifact`]s: each engine owns the
/// `(engine name, key)` namespace it fills — the threaded tier keys by opt
/// level, the wavefront tier keys its schedule cache under a single slot.
/// Cloning an [`Artifacts`] clones the `Arc`s (the lowering is shared, not
/// redone); a slot is filled at most once per `Artifacts` value.
#[derive(Default)]
pub struct ExtArtifacts {
    #[allow(clippy::type_complexity)]
    slots: std::sync::Mutex<
        std::collections::HashMap<(&'static str, u8), std::sync::Arc<dyn EngineArtifact>>,
    >,
}

impl Clone for ExtArtifacts {
    fn clone(&self) -> Self {
        ExtArtifacts {
            slots: std::sync::Mutex::new(
                self.slots.lock().unwrap_or_else(|e| e.into_inner()).clone(),
            ),
        }
    }
}

impl std::fmt::Debug for ExtArtifacts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        let mut keys: Vec<_> = slots
            .iter()
            .map(|((engine, key), a)| (*engine, *key, a.approx_bytes()))
            .collect();
        keys.sort_unstable();
        f.debug_struct("ExtArtifacts")
            .field("slots", &keys)
            .finish()
    }
}

impl ExtArtifacts {
    /// The slot key conventionally used for a per-opt-level artifact.
    pub fn level_key(level: OptLevel) -> u8 {
        match level {
            OptLevel::O0 => 0,
            OptLevel::O1 => 1,
        }
    }

    /// The populated slots' `(engine name, key)` pairs, sorted.
    pub fn keys(&self) -> Vec<(&'static str, u8)> {
        let slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        let mut keys: Vec<_> = slots.keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    /// Footprint of the populated slots.
    pub fn approx_bytes(&self) -> usize {
        self.slots
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .map(|a| a.approx_bytes())
            .sum()
    }
}

impl Artifacts {
    /// The named stages of the pipeline, in execution order.
    pub const STAGES: [&'static str; 4] = ["analyze", "slots", "bytecode", "opt"];

    /// Runs the full pipeline on an already-parsed program.
    pub fn compile(program: &Program) -> Artifacts {
        let mut stages = Vec::with_capacity(Self::STAGES.len());
        let mut timed = |stage: &'static str, start: Instant| {
            stages.push(StageTiming {
                stage,
                seconds: start.elapsed().as_secs_f64(),
            });
        };
        let t = Instant::now();
        let report = parallelize(program);
        timed("analyze", t);
        let t = Instant::now();
        let resolved = compile_slots(program);
        timed("slots", t);
        let t = Instant::now();
        let bytecode = compile_bytecode(&resolved);
        timed("bytecode", t);
        let t = Instant::now();
        let optimized = optimize(&bytecode, OptLevel::O1);
        timed("opt", t);
        Artifacts {
            program: program.clone(),
            report,
            slots: resolved.slots,
            bytecode,
            optimized,
            written_arrays: written_arrays(&program.body),
            stages,
            ext: ExtArtifacts::default(),
        }
    }

    /// Parses `src` and runs the pipeline (`parse` included).
    pub fn compile_source(name: &str, src: &str) -> Result<Artifacts, IrError> {
        Ok(Artifacts::compile(&parse_program(name, src)?))
    }

    /// The bytecode stream an engine runs at `level`.
    pub fn bytecode_at(&self, level: OptLevel) -> &BytecodeProgram {
        match level {
            OptLevel::O0 => &self.bytecode,
            OptLevel::O1 => &self.optimized,
        }
    }

    /// The engine-private lowering stored under `(engine, key)`, creating
    /// it with `lower` on first use.  Exactly one lowering per (Artifacts
    /// value, slot) is ever created — the slot map's lock is held across
    /// `lower`, and clones of these artifacts share the `Arc` — so an
    /// engine that lowers here pays the cost once per cached program, not
    /// once per run.  Per-opt-level artifacts key by
    /// [`ExtArtifacts::level_key`]; keys are namespaced by engine name, so
    /// engines never collide.
    pub fn engine_artifact(
        &self,
        engine: &'static str,
        key: u8,
        lower: impl FnOnce() -> std::sync::Arc<dyn EngineArtifact>,
    ) -> std::sync::Arc<dyn EngineArtifact> {
        let mut slots = self.ext.slots.lock().unwrap_or_else(|e| e.into_inner());
        slots.entry((engine, key)).or_insert_with(lower).clone()
    }

    /// Approximate in-memory footprint of these artifacts in bytes: both
    /// bytecode streams (instructions, constant pools, interned names),
    /// the annotated source, and a fixed allowance per analyzed loop for
    /// the report.  This is the per-entry accounting a byte-bounded
    /// artifact cache (`Session::with_cache_capacity_bytes`) charges —
    /// deliberately an estimate: it only has to be monotone in program
    /// size, not exact.
    pub fn approx_bytes(&self) -> usize {
        /// Per-loop allowance covering the `LoopReport` (reasons, blockers,
        /// facts), which is not walked.
        const PER_LOOP_OVERHEAD: usize = 4096;
        std::mem::size_of::<Artifacts>()
            + self.bytecode.approx_bytes()
            + self.optimized.approx_bytes()
            + 2 * self.report.annotated_source.len()
            + self.report.loops.len() * PER_LOOP_OVERHEAD
            + self.ext.approx_bytes()
    }

    /// One line per stage: `analyze 0.000123s · slots …` (what
    /// `sspar analyze` prints as the pipeline trace).
    pub fn stage_summary(&self) -> String {
        self.stages
            .iter()
            .map(|s| format!("{} {:.6}s", s.stage, s.seconds))
            .collect::<Vec<_>>()
            .join(" · ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure9_report_enables_the_product_loop() {
        let src = r#"
            index = 0;
            ind = 0;
            for (i = 0; i < ROWLEN; i++) {
                count = 0;
                for (j = 0; j < COLUMNLEN; j++) {
                    if (a[i][j] != 0) {
                        count++;
                        column_number[index] = j;
                        index++;
                        value[ind] = a[i][j];
                        ind++;
                    }
                }
                rowsize[i] = count;
            }
            rowptr[0] = 0;
            for (i = 1; i < ROWLEN + 1; i++) {
                rowptr[i] = rowptr[i-1] + rowsize[i-1];
            }
            #pragma omp parallel for private(j,j1)
            for (i = 0; i < ROWLEN+1; i++) {
                if (i == 0) {
                    j1 = i;
                } else {
                    j1 = rowptr[i-1];
                }
                for (j = j1; j < rowptr[i]; j++) {
                    product_array[j] = value[j] * vector[j];
                }
            }
        "#;
        let report = parallelize_source("fig9", src).unwrap();
        let product = report.loop_report(LoopId(3)).unwrap();
        assert!(product.parallel);
        assert!(!product.baseline_parallel);
        assert!(product.manually_parallel); // matches the manual oracle
        assert!(
            report
                .annotated_source
                .contains("#pragma omp parallel for\nfor (i = 0; i < ROWLEN+1; i++)")
                || report
                    .annotated_source
                    .contains("#pragma omp parallel for\nfor (i = 0; i < ROWLEN + 1; i++)")
        );
        let summary = report.summary();
        assert!(summary.contains("PARALLEL (enabled by index-array properties)"));
        // the database keeps the rowptr fact for inspection
        assert!(report
            .final_db
            .has_property("rowptr", ss_properties::ArrayProperty::MonotonicInc));
    }

    #[test]
    fn serial_loops_are_reported_with_blockers() {
        let report =
            parallelize_source("hist", "for (i = 0; i < n; i++) { hist[idx[i]] = i; }").unwrap();
        let l = report.loop_report(LoopId(0)).unwrap();
        assert!(!l.parallel);
        assert!(!l.blockers.is_empty());
        assert!(l.has_subscripted_subscript);
        assert!(report.parallel_loops().is_empty());
        assert!(!report.annotated_source.contains("#pragma"));
    }

    #[test]
    fn inner_loops_of_parallel_outer_loops_are_not_double_annotated() {
        let report = parallelize_source(
            "nest",
            r#"
            for (i = 0; i < n; i++) {
                for (j = 0; j < 8; j++) {
                    x[i * 8 + j] = i + j;
                }
            }
        "#,
        )
        .unwrap();
        // Outer loop parallel; pragma emitted once (on the outer loop only).
        assert!(report.loop_report(LoopId(0)).unwrap().parallel);
        let pragma_count = report
            .annotated_source
            .matches("#pragma omp parallel for")
            .count();
        assert_eq!(pragma_count, 1);
        // The execution schedule says the same thing: dispatch the outer
        // loop, run the inner one serially inside it.
        assert_eq!(report.outermost_parallel_loops(), vec![LoopId(0)]);
        assert!(report.is_outermost_parallel(LoopId(0)));
        assert!(!report.is_outermost_parallel(LoopId(1)));
        assert!(!report.is_outermost_parallel(LoopId(99)));
    }

    #[test]
    fn sum_reduction_loops_are_scheduled_parallel_with_a_combiner() {
        let report = parallelize_source(
            "sum",
            r#"
            total = 0;
            for (k = 0; k < n; k++) {
                total += a[k];
            }
        "#,
        )
        .unwrap();
        let l = report.loop_report(LoopId(0)).unwrap();
        assert!(!l.parallel, "a reduction is not independence-parallel");
        assert!(l.is_parallelizable());
        assert_eq!(l.reductions.len(), 1);
        assert_eq!(l.reductions[0].var, "total");
        assert_eq!(l.reductions[0].op, crate::reduction::ReductionOp::Add);
        assert!(l.blockers.is_empty());
        assert!(report.outermost_parallel_loops().contains(&LoopId(0)));
        assert!(report
            .annotated_source
            .contains("#pragma omp parallel for reduction(+:total)"));
        assert!(report.summary().contains("reduction"));
    }

    #[test]
    fn reduction_plus_array_dependence_stays_serial() {
        // The histogram write blocks the loop regardless of the recognized
        // accumulator shape on `total`.
        let report = parallelize_source(
            "mix",
            r#"
            total = 0;
            for (i = 0; i < n; i++) {
                hist[idx[i]] = i;
                total += idx[i];
            }
        "#,
        )
        .unwrap();
        let l = report.loop_report(LoopId(0)).unwrap();
        assert!(!l.is_parallelizable());
        assert!(l.reductions.is_empty());
        assert!(report.outermost_parallel_loops().is_empty());
    }

    #[test]
    fn parse_errors_are_propagated() {
        assert!(parallelize_source("bad", "for (i = 0 i < n; i++) {}").is_err());
        assert!(Artifacts::compile_source("bad", "for (i = 0 i < n; i++) {}").is_err());
    }

    #[test]
    fn artifacts_carry_every_stage_product() {
        let art = Artifacts::compile_source(
            "fig2",
            r#"
            for (e = 0; e < nelt; e++) { mt_to_id[e] = e; }
            for (miel = 0; miel < nelt; miel++) {
                iel = mt_to_id[miel];
                id_to_mt[iel] = miel;
            }
        "#,
        )
        .unwrap();
        // One invocation, every stage's artifact present and consistent.
        let names: Vec<&str> = art.stages.iter().map(|s| s.stage).collect();
        assert_eq!(names, Artifacts::STAGES);
        assert!(art.report.loop_report(LoopId(1)).unwrap().parallel);
        assert_eq!(art.slots.scalar_count(), art.bytecode.slots.scalar_count());
        assert_eq!(
            art.optimized.slots.scalar_count(),
            art.bytecode.slots.scalar_count()
        );
        // The O1 stream fused the subscripted-subscript load, so it is
        // strictly shorter than O0 here.
        assert!(art.optimized.instr_count() <= art.bytecode.instr_count());
        // A temp-consumed subscripted subscript does fuse and shrink.
        let fused =
            Artifacts::compile_source("gather", "for (i = 0; i < n; i++) { out[i] = a[b[i]]; }")
                .unwrap();
        assert!(fused.optimized.instr_count() < fused.bytecode.instr_count());
        assert_eq!(art.bytecode_at(OptLevel::O0).main, art.bytecode.main);
        assert_eq!(art.bytecode_at(OptLevel::O1).main, art.optimized.main);
        let summary = art.stage_summary();
        for stage in Artifacts::STAGES {
            assert!(summary.contains(stage), "{summary}");
        }
    }
}
