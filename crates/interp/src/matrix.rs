//! The differential matrix: the one place that says which executions a
//! [`ValidationMode::Differential`](crate::ValidationMode::Differential)
//! run performs and when they agree.
//!
//! The legs, off one set of artifacts and one initial heap:
//!
//! * the **reference** row (the registry's [`EngineCaps::reference`]
//!   engine), serially — every other leg is held to it;
//! * every non-reference row × every opt level it distinguishes,
//!   **serially** and then **in parallel** at the request's
//!   threads, schedule and chunk (7 + 7 legs on the built-in registry);
//! * one **inspector-baseline** parallel leg on the requested row at the
//!   requested opt level.
//!
//! The agreement rule: a serial leg must reproduce the reference's final
//! heap or fail with its exact error; a parallel leg must fail exactly
//! when the reference failed (workers may trip over a different failing
//! iteration first, so the error itself may differ) and otherwise
//! reproduce its heap.  [`Session::run`](crate::Session::run) reports the
//! matrix as its [`ValidationSummary`](crate::ValidationSummary); the
//! generative fuzzer (`tests/engine_fuzz.rs`) calls [`Matrix::run`] on bare
//! artifacts and reads its reach counters off [`Matrix::legs`].
//!
//! [`EngineCaps::reference`]: crate::EngineCaps::reference

use crate::engine::{Engine, EngineRegistry, ExecOptions, ExecOutcome, ExecStats};
use crate::error::SsError;
use crate::heap::Heap;
use ss_ir::opt::OptLevel;
use ss_parallelizer::Artifacts;
use std::sync::Arc;

/// What a leg executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LegKind {
    /// A non-reference row's serial run.
    Serial,
    /// A non-reference row's parallel run.
    Parallel,
    /// The requested row's parallel run with
    /// [`ExecOptions::baseline_inspector`] on.
    Inspector,
}

/// One executed leg of the matrix, already checked against the reference.
#[derive(Debug)]
pub struct Leg {
    /// `bytecode@O0`, `parallel compiled`, `parallel wavefront@O1 +
    /// inspector`: the name mismatches and
    /// [`ValidationSummary::compared`](crate::ValidationSummary::compared)
    /// use.
    pub label: String,
    /// What the leg executes.
    pub kind: LegKind,
    /// True on the requested row at the requested opt level (the legs a
    /// run reports as its serial and parallel statistics).
    pub requested: bool,
    /// The leg's statistics, or the error it stopped with.
    pub outcome: Result<ExecStats, SsError>,
}

/// Every leg of one differential run and how it compared.
#[derive(Debug)]
pub struct Matrix {
    /// The reference row's serial run, heap included.
    pub reference: Result<ExecOutcome, SsError>,
    /// Every other leg, in execution order: serial, parallel, inspector.
    pub legs: Vec<Leg>,
    /// One line per disagreement with the reference, prefixed with the
    /// comparison that produced it; empty when every leg agreed.
    pub mismatches: Vec<String>,
}

/// The non-reference rows of `registry`, each at every opt level it
/// distinguishes, in registration order — the matrix's serial and
/// parallel legs (and the engine tests' inspector legs).
pub(crate) fn rows(
    registry: &EngineRegistry,
) -> impl Iterator<Item = (&Arc<dyn Engine>, OptLevel)> {
    registry
        .iter()
        .filter(|e| !e.caps().reference)
        .flat_map(|e| e.caps().opt_levels.iter().map(move |&level| (e, level)))
}

/// `name` for single-level engines, `name@O<n>` for opt-level-sensitive
/// ones.
fn engine_label(engine: &dyn Engine, level: OptLevel) -> String {
    if engine.caps().opt_levels.len() > 1 {
        format!("{}@{level}", engine.name())
    } else {
        engine.name().to_string()
    }
}

impl Matrix {
    /// Runs every leg of the matrix for `requested` (a row of `registry`)
    /// over `artifacts` from `initial`, comparing each against the
    /// reference as it completes.  Fails only when no reference engine is
    /// registered; leg failures are [`Leg::outcome`]s, judged by the
    /// agreement rule.
    pub fn run(
        registry: &EngineRegistry,
        requested: &dyn Engine,
        artifacts: &Artifacts,
        initial: &Heap,
        opts: &ExecOptions,
    ) -> Result<Matrix, SsError> {
        let reference = registry.reference().ok_or_else(|| SsError::Unsupported {
            engine: requested.name().to_string(),
            reason: "differential validation needs a reference engine, and none is registered"
                .to_string(),
        })?;
        let ref_label = engine_label(reference.as_ref(), opts.opt_level);
        let ref_out = reference.run_serial(artifacts, initial.clone(), opts);

        // The requested row runs the request's level where it distinguishes
        // it, else the one level it has.
        let levels = requested.caps().opt_levels;
        let want = if levels.contains(&opts.opt_level) {
            opts.opt_level
        } else {
            levels[0]
        };
        let plan = [LegKind::Serial, LegKind::Parallel]
            .into_iter()
            .flat_map(|kind| rows(registry).map(move |(row, level)| (kind, row.as_ref(), level)))
            .chain([(LegKind::Inspector, requested, want)]);
        let (mut legs, mut mismatches) = (Vec::new(), Vec::new());
        for (kind, row, level) in plan {
            let leg_opts = ExecOptions {
                opt_level: level,
                baseline_inspector: kind == LegKind::Inspector,
                ..opts.clone()
            };
            let name = engine_label(row, level);
            let (label, out) = match kind {
                LegKind::Serial => (name, row.run_serial(artifacts, initial.clone(), &leg_opts)),
                LegKind::Parallel => (
                    format!("parallel {name}"),
                    row.run_parallel(artifacts, initial.clone(), &leg_opts),
                ),
                LegKind::Inspector => (
                    format!("parallel {name} + inspector"),
                    row.run_parallel(artifacts, initial.clone(), &leg_opts),
                ),
            };
            match (&ref_out, &out) {
                (Ok(r), Ok(g)) => mismatches.extend(
                    r.heap
                        .diff(&g.heap)
                        .into_iter()
                        .map(|m| format!("{ref_label} vs {label}: {m}")),
                ),
                (Err(re), Err(ge)) if kind == LegKind::Serial && re != ge => mismatches.push(
                    format!("{label} failed ({ge}) where {ref_label} failed ({re})"),
                ),
                (Err(_), Err(_)) => {}
                (Ok(_), Err(ge)) => {
                    mismatches.push(format!("{label} failed ({ge}) where {ref_label} succeeded"))
                }
                (Err(re), Ok(_)) => {
                    mismatches.push(format!("{label} succeeded where {ref_label} failed ({re})"))
                }
            }
            legs.push(Leg {
                label,
                kind,
                requested: row.name() == requested.name() && level == want,
                outcome: out.map(|o| o.stats),
            });
        }
        Ok(Matrix {
            reference: ref_out,
            legs,
            mismatches,
        })
    }
}
