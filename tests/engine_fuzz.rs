//! Generative differential fuzzing of the execution engines — and of the
//! analysis itself.
//!
//! Everything else in this repo tests the engines kernel by kernel; this
//! harness *generates* SS-IR programs — random nested loops, conditionals,
//! subscripted subscripts, compound assignments, reduction shapes (`+` and
//! `*`), loop-local array declarations, `while` loops, carried indirect
//! read/write loops (the level-set dispatch shape), deliberately unsafe
//! accesses — compiles each one through the staged pipeline **once** (the
//! shared [`Session`]'s content-addressed cache), and runs it through the
//! differential [`Matrix`]: **every engine in the registry**, serially and
//! in parallel, at every `--opt-level` the engine distinguishes, plus an
//! inspector-baseline leg (registering a new engine enrolls it in the hunt
//! automatically):
//!
//! * when the reference engine succeeds, every other execution must
//!   succeed with a **bit-identical final heap** (O0 ≡ O1 included — the
//!   optimizer is on trial here too);
//! * when the reference fails, the serial legs must fail with the
//!   **identical error**, and the parallel legs must fail too (workers may
//!   observe a different failing iteration first, so only the failure
//!   itself is asserted for them);
//! * the analysis itself is fuzzed for monotonicity: every loop the
//!   property-free **baseline** Range Test proves parallel must also be
//!   proven by the **extended** one (index-array properties only ever add
//!   facts — baseline verdicts ⊆ extended verdicts).  `parallelize` relies
//!   on it: it runs the baseline only where the extended test proved, so
//!   both tests run here directly, on every loop.
//!
//! Failures shrink: the harness greedily deletes statements (at any
//! nesting depth) while the divergence persists and reports the minimal
//! failing program together with the generator seed, so a red case pastes
//! straight into a regression test.
//!
//! Case count defaults to 256 (the CI floor) and scales with the
//! `ENGINE_FUZZ_CASES` environment variable for long local hunts.  At or
//! above the floor the hunt must also have *reached* every dispatch
//! strategy: it fails if no parallel leg ran a loop as level sets, if no
//! run-time-inspector-baseline leg produced a verdict, if no leg found
//! a level-set schedule by array generation, if no loop reached the
//! monotonicity check, or if no case divides by a literal the threaded
//! chain multiplies by (`|d| ≥ 2`) or none by one it keeps on the checked
//! handlers (0, ±1).

mod fuzzgen;

use fuzzgen::{GProgram, GStmt};
use ss_aggregation::analyze_program;
use ss_deptest::{test_loop, RangeTestConfig};
use ss_interp::{ExecOptions, Heap, LegKind, Matrix, ScheduleChoice, ScheduleSource, Session};
use ss_ir::ast::BinOp;
use ss_ir::bytecode::Instr;
use ss_ir::opt::OptLevel;
use ss_ir::LoopTree;
use std::sync::OnceLock;

/// One session for the whole hunt: every generated program compiles once
/// (the matrix and the shrinker re-resolve through the cache), bounded so
/// a 200k-case hunt keeps memory flat.
fn session() -> &'static Session {
    static SESSION: OnceLock<Session> = OnceLock::new();
    SESSION.get_or_init(|| Session::new().with_cache_capacity(256))
}

/// Runs the full differential matrix on `program`; `Some(description)`
/// on the first divergence.
fn check(program: &GProgram, reach: &mut Reach) -> Option<String> {
    check_source(
        &program.source(),
        program.threads,
        ScheduleChoice::Auto,
        reach,
    )
}

/// How far into the dispatcher a hunt got.
#[derive(Default)]
struct Reach {
    /// Parallel legs that ran some loop as dependence level sets.
    level_set_legs: usize,
    /// Inspector-baseline legs that judged some loop.
    inspector_legs: usize,
    /// Legs that found some loop's schedule by generation.
    generation_hits: usize,
    /// Loops both Range Test configurations judged.
    monotone_loops: usize,
    /// Cases whose O1 stream divides by a literal the threaded chain
    /// multiplies by (`2 ≤ |d| ≤ u32::MAX`) ...
    reduced_divisions: usize,
    /// ... and by a literal its checked handlers keep (0, ±1).
    generic_divisions: usize,
}

/// Whether `code` (loop blocks included) divides by a literal operand
/// with and without a multiplier: a `Const` directly above the `/` or `%`
/// that reads it as its divisor, the pair the threaded lowering fuses.
fn literal_divisors(code: &[Instr], consts: &[i64], seen: &mut (bool, bool)) {
    for pair in code.windows(2) {
        if let [Instr::Const { dst, pool }, Instr::Bin {
            op: BinOp::Div | BinOp::Mod,
            a,
            b,
            ..
        }] = pair
        {
            if b == dst && a != dst {
                let d = consts[*pool as usize].unsigned_abs();
                if (2..=u64::from(u32::MAX)).contains(&d) {
                    seen.0 = true;
                } else {
                    seen.1 = true;
                }
            }
        }
    }
    for ins in code {
        if let Instr::For(f) = ins {
            f.blocks()
                .into_iter()
                .for_each(|b| literal_divisors(b, consts, seen));
        }
    }
}

/// The initial heap of every case: the index arrays of the `input`
/// [`GStmt::Carried`] shape, in `0..16` with repeats (so writes conflict),
/// which programs read but never write.
fn input_heap() -> Heap {
    Heap::new()
        .with_array("ip", (0..16).map(|k| (k * 5 + 3) % 11).collect())
        .with_array("iq", (0..16).map(|k| (k * 3 + 1) % 16).collect())
}

/// The differential matrix for one source program, off **one** pipeline
/// invocation (the session cache): [`Matrix::run`] holds every registry
/// row at every opt level, serially and in parallel, and the default row's
/// inspector-baseline leg to the reference's heap or error — and the
/// analysis verdicts must be monotone (baseline ⊆ extended).  On top of
/// the matrix: the inspector leg's verdicts must be the level counts the
/// level-set legs ran.  `reach` counts the legs that got that far.
fn check_source(
    src: &str,
    threads: usize,
    schedule: ScheduleChoice,
    reach: &mut Reach,
) -> Option<String> {
    let registry = session().registry();
    let artifacts = match session().artifacts("fuzz", src) {
        Ok(a) => a,
        Err(e) => return Some(format!("generated program failed to parse: {e}")),
    };
    let bc = artifacts.bytecode_at(OptLevel::O1);
    let mut seen = (false, false);
    literal_divisors(&bc.main, &bc.consts, &mut seen);
    reach.reduced_divisions += seen.0 as usize;
    reach.generic_divisions += seen.1 as usize;
    // Fuzz the analysis itself: index-array properties only ever *add*
    // facts, so a loop the property-free baseline proves parallel must
    // stay parallel under the extended test.
    let program = &artifacts.program;
    let analysis = analyze_program(program);
    let tree = LoopTree::build(program);
    for info in &tree.loops {
        let db = analysis.db_for_loop(info.id);
        let extended = test_loop(program, &tree, info.id, db, &RangeTestConfig::default());
        let baseline = test_loop(program, &tree, info.id, db, &RangeTestConfig::baseline());
        reach.monotone_loops += 1;
        if baseline.parallel && !extended.parallel {
            return Some(format!(
                "analysis monotonicity violated: loop {} is baseline-parallel \
                 but extended-serial (blockers: {:?})",
                info.id.0, extended.blockers
            ));
        }
    }
    let opts = ExecOptions {
        threads,
        schedule,
        // Small cap so generated runaway loops fail fast — and all engines
        // must agree on the NonTerminating verdict.
        while_cap: 5_000,
        ..ExecOptions::default()
    };
    let default = registry.default_engine();
    let matrix = match Matrix::run(registry, default.as_ref(), &artifacts, &input_heap(), &opts) {
        Ok(m) => m,
        Err(e) => return Some(format!("the matrix did not run: {e}")),
    };
    if !matrix.mismatches.is_empty() {
        return Some(format!(
            "(threads={threads}, {schedule:?})\n  {}",
            matrix.mismatches.join("\n  ")
        ));
    }

    // Per level-set leg: the loops it ran as levels, with the level count
    // and how often the loop was entered.
    let level_legs: Vec<_> = matrix
        .legs
        .iter()
        .filter(|leg| leg.kind == LegKind::Parallel)
        .filter_map(|leg| {
            let ran: Vec<_> = (leg.outcome.as_ref().ok()?.loops.iter())
                .filter_map(|(id, l)| l.wavefront.map(|(levels, _)| (*id, levels, l.invocations)))
                .collect();
            (!ran.is_empty()).then_some((&leg.label, ran))
        })
        .collect();
    reach.level_set_legs += level_legs.len();
    reach.generation_hits += (matrix.legs.iter())
        .filter_map(|leg| leg.outcome.as_ref().ok())
        .filter(|stats| {
            (stats.loops.values()).any(|l| l.schedule_source == Some(ScheduleSource::Generation))
        })
        .count();
    let inspector = matrix.legs.last().expect("the inspector leg runs last");
    let Ok(stats) = &inspector.outcome else {
        return None;
    };
    let loops = &stats.loops;
    reach.inspector_legs += loops.values().any(|l| l.inspector_conflict_free.is_some()) as usize;
    let verdict = |id| loops.get(id).and_then(|l| l.inspector_conflict_free);
    for (leg, ran) in &level_legs {
        for (id, levels, invocations) in ran {
            // The verdict ANDs over invocations, the level count is the
            // last invocation's: exact for loops entered once, one-sided
            // otherwise.
            let one_level = *levels == 1;
            let consistent = match verdict(id) {
                Some(free) if *invocations == 1 => free == one_level,
                Some(free) => !free || one_level,
                None => false,
            };
            if !consistent {
                return Some(format!(
                    "{} judged loop {} {:?}, but {leg} ran it as {levels} level(s) \
                     (entered {invocations}x)",
                    inspector.label,
                    id.0,
                    verdict(id)
                ));
            }
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Shrinking.
// ---------------------------------------------------------------------------

/// Every statement position in the tree, as a path of child indices.
fn collect_paths(stmts: &[GStmt], prefix: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    for (k, s) in stmts.iter().enumerate() {
        prefix.push(k);
        out.push(prefix.clone());
        match s {
            GStmt::If(_, t, f) => {
                prefix.push(0);
                collect_paths(t, prefix, out);
                prefix.pop();
                prefix.push(1);
                collect_paths(f, prefix, out);
                prefix.pop();
            }
            GStmt::For { body, .. } | GStmt::While { body, .. } => {
                prefix.push(0);
                collect_paths(body, prefix, out);
                prefix.pop();
            }
            _ => {}
        }
        prefix.pop();
    }
}

/// Removes the statement at `path` (paths alternate statement index and
/// branch selector, mirroring `collect_paths`).
fn remove_at(stmts: &[GStmt], path: &[usize]) -> Vec<GStmt> {
    let mut out = stmts.to_vec();
    if path.len() == 1 {
        out.remove(path[0]);
        return out;
    }
    let (k, rest) = (path[0], &path[1..]);
    match &mut out[k] {
        GStmt::If(_, t, f) => {
            let (branch, rest) = (rest[0], &rest[1..]);
            if branch == 0 {
                *t = remove_at(t, rest);
            } else {
                *f = remove_at(f, rest);
            }
        }
        GStmt::For { body, .. } | GStmt::While { body, .. } => {
            *body = remove_at(body, &rest[1..]);
        }
        _ => unreachable!("path descends into a leaf"),
    }
    out
}

/// Greedy statement deletion: keeps removing any single statement (at any
/// depth) while the divergence persists.  With no upstream shrinking in
/// the vendored proptest, this is the harness's own minimizer.
fn shrink(program: &GProgram) -> GProgram {
    let mut current = program.clone();
    loop {
        let mut paths = Vec::new();
        collect_paths(&current.body, &mut Vec::new(), &mut paths);
        // Longest paths first: empty nested bodies before their parents.
        paths.sort_by_key(|p| std::cmp::Reverse(p.len()));
        let mut reduced = false;
        for path in paths {
            let candidate = GProgram {
                body: remove_at(&current.body, &path),
                ..current.clone()
            };
            if check(&candidate, &mut Reach::default()).is_some() {
                current = candidate;
                reduced = true;
                break;
            }
        }
        if !reduced {
            return current;
        }
    }
}

// ---------------------------------------------------------------------------
// The property.
// ---------------------------------------------------------------------------

fn fuzz_cases() -> u32 {
    std::env::var("ENGINE_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

#[test]
fn all_engines_agree_on_generated_programs() {
    let cases = fuzz_cases();
    let mut reach = Reach::default();
    for (case, seed) in fuzzgen::seeds(cases).enumerate() {
        let program = GProgram::generate(seed);
        if let Some(msg) = check(&program, &mut reach) {
            let minimal = shrink(&program);
            let why = check(&minimal, &mut Reach::default()).unwrap_or(msg);
            panic!(
                "cross-engine divergence (case {}/{cases}, seed {seed}, threads {}):\n{why}\n\
                 minimal failing program:\n{}",
                case + 1,
                minimal.threads,
                minimal.source()
            );
        }
    }
    eprintln!(
        "engine_fuzz: {cases} cases, {} level-set leg(s), {} inspector-verdict leg(s), \
         {} generation-hit leg(s), {} loop(s) checked for monotonicity; {} case(s) divide \
         by a multiplied literal, {} by 0 or ±1",
        reach.level_set_legs,
        reach.inspector_legs,
        reach.generation_hits,
        reach.monotone_loops,
        reach.reduced_divisions,
        reach.generic_divisions
    );
    // Short local runs (below the CI floor) are exempt.
    assert!(
        cases < 256 || reach.level_set_legs > 0,
        "no parallel leg of {cases} cases ran a loop as level sets: the \
         generator no longer reaches that dispatch strategy"
    );
    assert!(
        cases < 256 || reach.inspector_legs > 0,
        "no inspector-baseline leg of {cases} cases judged a loop: the \
         generator no longer reaches the run-time-inspector verdict"
    );
    assert!(
        cases < 256 || reach.generation_hits > 0,
        "no leg of {cases} cases found a schedule by generation: the \
         generator no longer reaches the generation-keyed cache"
    );
    assert!(
        cases < 256 || (reach.reduced_divisions > 0 && reach.generic_divisions > 0),
        "of {cases} cases, {} divide by a literal with a multiplier and {} by \
         0 or ±1: the generator no longer reaches both division paths of the \
         threaded chain",
        reach.reduced_divisions,
        reach.generic_divisions
    );
    assert!(
        cases < 256 || reach.monotone_loops > 0,
        "no loop of {cases} cases was judged by both Range Test \
         configurations: the monotonicity check no longer runs"
    );
}

/// Regression seeds: shapes the generator has produced that exercise the
/// trickiest agreed-upon semantics (undefined scalars feeding stores,
/// loop-local shadowing, runaway-loop caps).  Kept as plain sources so a
/// generator change cannot silently retire them, and run under every
/// schedule, since some diverged only under one.
#[test]
fn regression_shapes_stay_in_agreement() {
    let cases = [
        // Undefined scalar read flows into a store and a reduction.
        "int out[8];\nfor (i0 = 0; i0 < 8; i0++) { out[i0] = u0 + i0; s += u1; }\n",
        // Loop-local array shadows a global; last-iteration state survives.
        "int g[4];\ng[1] = 9;\nint out[6];\nfor (i0 = 0; i0 < 6; i0++) {\n    int g[3];\n    g[i0 % 3] = i0;\n    out[i0] = g[i0 % 3];\n}\n",
        // Loop counter rewritten inside the body: the cap must fire
        // identically everywhere.
        "for (i0 = 0; i0 < 4; i0++) { i0 = 0; x += 1; }\n",
        // Zero-trip and one-trip loops around a while.
        "w0 = 0;\nwhile (w0 < 3) {\n    for (i0 = 0; i0 < 0; i0++) { x = 99; }\n    w0 = w0 + 1;\n}\n",
        // Division by a value that becomes zero mid-loop.
        "y = 2;\nfor (i0 = 0; i0 < 5; i0++) { y = y - 1; x = 10 / y; }\n",
        // Self-assignment of a heap-absent scalar: every engine must
        // materialize `q` (as 0) in the final heap — the bytecode compiler
        // once elided the no-op copy and dropped the definition.
        "if (x < 0) { q = 1; }\nq = q;\n",
        // Product reduction: dispatched with identity-1 partials merged by
        // wrapping multiplication; must match the serial product exactly
        // (including the wrap for larger n).
        "int a[16];\nfor (p = 0; p < 16; p++) { a[p] = p - 7; }\nprod = 3;\nfor (i0 = 0; i0 < 16; i0++) { prod *= a[i0] * 2 + 1; }\n",
        // The O1 superinstruction shapes in one program: a fused
        // subscripted-subscript load, a compare-and-branch, rank-2 accesses
        // (copy-elided), a constant fold and a division kept unfolded
        // because it traps — O0 and O1 must agree bit for bit, errors
        // included.
        "int a[16]; int b[16]; int m[4][8];\nfor (p = 0; p < 16; p++) { a[p] = p; b[p] = 15 - p; }\nfor (i0 = 0; i0 < 4; i0++) {\n    for (i1 = 0; i1 < 8; i1++) {\n        m[i0][i1] = a[b[i0 + i1]] + (2 + 3);\n        if (m[i0][i1] != 0) { x += m[i0][i1] / (i1 - 3); }\n    }\n}\n",
        // SpTRSV shape: x[i0] rewritten from earlier x entries through an
        // index array — serial-proven, but the wavefront engine inspects
        // it at run time and must still match the reference bit for bit.
        "int idx[12]; int x[6];\nfor (p = 0; p < 12; p++) { idx[p] = (p * 5) % 6; }\nfor (p = 0; p < 6; p++) { x[p] = p + 1; }\nfor (i0 = 1; i0 < 6; i0++) {\n    acc = x[i0];\n    for (k = 0; k < i0; k++) {\n        if (idx[k] < i0) { acc = acc - x[idx[k]]; }\n    }\n    x[i0] = acc;\n}\n",
        // Reads the dependence test once missed, each of an `x` element a
        // later iteration overwrites: the loop must stay serial.  A `while`
        // condition, a `while` body, an inner `for` bound, a declared
        // extent.
        "int x[64]; int y[64];\nfor (i = 0; i < 64; i++) { x[i] = 3; }\nfor (i = 0; i < 63; i++) {\n    k = 0;\n    while (k < x[i + 1]) { k = k + 1; }\n    y[i] = k;\n    x[i] = 0;\n}\n",
        "int x[64]; int y[64];\nfor (i = 0; i < 64; i++) { x[i] = 3; }\nfor (i = 0; i < 63; i++) {\n    k = 0;\n    s = 0;\n    while (k < 1) { s = x[i + 1]; k = k + 1; }\n    y[i] = s;\n    x[i] = 0;\n}\n",
        "int x[64]; int y[64];\nfor (i = 0; i < 64; i++) { x[i] = 3; }\nfor (i = 0; i < 63; i++) {\n    k = 0;\n    for (k = 0; k < x[i + 1]; k++) { s = s + 1; }\n    y[i] = k;\n    x[i] = 0;\n}\n",
        "int x[64]; int y[64];\nfor (i = 0; i < 64; i++) { x[i] = 3; }\nfor (i = 0; i < 63; i++) {\n    int t[x[i]];\n    if (i > 0) { t[3] = i; }\n    y[i] = i;\n    x[i + 1] = 4;\n}\n",
        // A declared extent reads the scalar the previous iteration set.
        "int y[8];\nm = 1;\nfor (i = 0; i < 8; i++) { int t[m]; if (i > 0) { t[3] = i; } y[i] = i; m = 4; }\n",
    ];
    let schedules = [
        ScheduleChoice::Auto,
        ScheduleChoice::Static,
        ScheduleChoice::Dynamic,
    ];
    for (k, src) in cases.iter().enumerate() {
        for schedule in schedules {
            if let Some(msg) = check_source(src, 3, schedule, &mut Reach::default()) {
                panic!("regression case {k} diverged:\n{msg}\nsource:\n{src}");
            }
        }
    }
}
