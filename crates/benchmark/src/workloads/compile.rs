//! `compile_catalogue`: cold `Artifacts::compile_source` over the catalogue
//! and seeded stacked programs.  No execution: the analysis and `ss-ir`
//! layers do all the work, engines, runtime and daemon none.
//!
//! Legs per program and round: `serial` is one compile on the calling
//! thread; `parallel` is `T` threads compiling the same source at once
//! (what the daemon's `T` workers do on a burst of misses), recorded as the
//! batch's wall time per compile — so `parallel_speedup` is how much
//! compile throughput `T` callers buy.

use super::{time_ms, Layers, OpLog, Workload, PARALLEL, SERIAL};
use crate::gen::{self, Program, Rng};
use crate::stats;
use crate::trace::Tracer;
use ss_deptest::RangeTestConfig;
use ss_ir::LoopTree;
use ss_parallelizer::{Artifacts, ParallelizationReport, VerdictKind};
use std::collections::BTreeMap;
use std::time::Instant;

/// Hand-reviewed per-loop verdicts of the catalogue kernels and the
/// benchmark-owned programs.
pub const EXPECTED_VERDICTS: &str = include_str!("../../expected/verdicts.txt");

/// One parsed line of `expected/verdicts.txt`.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    /// The loop the paper's study targets.
    pub target: usize,
    /// `extended/baseline` per loop, in loop-id order.
    pub loops: Vec<String>,
}

/// Parses `expected/verdicts.txt`: `name: target N | v v v …` per line.
pub fn expected_verdicts() -> BTreeMap<String, Expected> {
    EXPECTED_VERDICTS
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|line| {
            let (name, rest) = line.split_once(':').expect("name: …");
            let (target, loops) = rest.split_once('|').expect("target N | …");
            let target = target
                .trim()
                .strip_prefix("target")
                .and_then(|t| t.trim().parse().ok())
                .expect("target N");
            (
                name.trim().to_string(),
                Expected {
                    target,
                    loops: loops.split_whitespace().map(str::to_string).collect(),
                },
            )
        })
        .collect()
}

/// The verdicts of `report` in the notation of `expected/verdicts.txt`:
/// `extended/baseline` per loop, `+w` marking a wavefront-schedulable one.
pub fn verdict_tokens(report: &ParallelizationReport) -> Vec<String> {
    report
        .loops
        .iter()
        .map(|l| {
            format!(
                "{}{}/{}",
                l.verdict().label(),
                if l.wavefront.is_some() { "+w" } else { "" },
                if l.baseline_parallel {
                    "parallel"
                } else {
                    "serial"
                }
            )
        })
        .collect()
}

/// The expected verdicts of `program`: its parts' lines concatenated.
pub fn expected_for(program: &Program) -> Result<Vec<String>, String> {
    let table = expected_verdicts();
    let mut out = Vec::new();
    for part in &program.parts {
        let entry = table
            .get(part)
            .ok_or_else(|| format!("expected/verdicts.txt has no line for '{part}'"))?;
        out.extend(entry.loops.iter().cloned());
    }
    Ok(out)
}

/// Loops of `report` the extended analysis proves parallel or
/// reduction-parallel.
pub fn proven_in(report: &ParallelizationReport) -> u64 {
    report
        .loops
        .iter()
        .filter(|l| l.is_parallelizable())
        .count() as u64
}

struct Entry {
    program: Program,
    expected: Vec<String>,
    /// The set-up compile: a second compile must produce the same bytecode.
    reference: Artifacts,
}

impl Entry {
    fn check(&self, compiled: Result<Artifacts, ss_ir::IrError>) -> Result<(), String> {
        let name = &self.program.name;
        let art = compiled.map_err(|e| format!("{name}: {e}"))?;
        let got = verdict_tokens(&art.report);
        if got != self.expected {
            return Err(format!(
                "{name}: verdicts {got:?} differ from expected {:?}",
                self.expected
            ));
        }
        let same = |a: &ss_ir::BytecodeProgram, b: &ss_ir::BytecodeProgram| {
            a.main == b.main && a.consts == b.consts && a.nregs == b.nregs
        };
        if !same(&art.bytecode, &self.reference.bytecode)
            || !same(&art.optimized, &self.reference.optimized)
        {
            return Err(format!("{name}: two compiles gave different bytecode"));
        }
        Ok(())
    }
}

/// The `compile_catalogue` workload.
pub struct CompileCatalogue {
    entries: Vec<Entry>,
    order: Vec<usize>,
    threads: usize,
}

impl CompileCatalogue {
    /// Generates the program set from `seed`, compiles each program once
    /// for the determinism oracle, and warms up with one untimed round.
    pub fn set_up(seed: u64) -> Result<CompileCatalogue, String> {
        let mut entries = Vec::new();
        for program in gen::compile_set(seed) {
            let expected = expected_for(&program)?;
            let reference = Artifacts::compile_source(&program.name, &program.source)
                .map_err(|e| format!("{}: {e}", program.name))?;
            entries.push(Entry {
                program,
                expected,
                reference,
            });
        }
        let mut order: Vec<usize> = (0..entries.len()).collect();
        Rng::new(seed, 2).shuffle(&mut order);
        let workload = CompileCatalogue {
            entries,
            order,
            threads: crate::team_threads(),
        };
        super::warmed(workload)
    }
}

impl CompileCatalogue {
    /// Reports of the 15 catalogue kernels: the part of the program set
    /// that does not depend on the seed, so verdict counts repeat exactly.
    fn catalogue_reports(&self) -> impl Iterator<Item = &ParallelizationReport> {
        self.entries
            .iter()
            .filter(|e| e.program.parts.len() == 1)
            .map(|e| &e.reference.report)
    }
}

impl Workload for CompileCatalogue {
    fn round(&mut self, log: &mut OpLog) {
        for &i in &self.order {
            let entry = &self.entries[i];
            let (name, source) = (&entry.program.name, &entry.program.source);

            let (ms, art) = time_ms(|| Artifacts::compile_source(name, source));
            log.timed_leg(name, SERIAL, ms, entry.check(art));

            let epoch = Instant::now();
            let batch: Vec<_> = std::thread::scope(|scope| {
                let compile = || {
                    let start = epoch.elapsed().as_secs_f64() * 1e3;
                    let art = Artifacts::compile_source(name, source);
                    (start, epoch.elapsed().as_secs_f64() * 1e3, art)
                };
                let others: Vec<_> = (1..self.threads).map(|_| scope.spawn(compile)).collect();
                let mine = compile();
                std::iter::once(mine)
                    .chain(
                        others
                            .into_iter()
                            .map(|h| h.join().expect("compile thread panicked")),
                    )
                    .collect()
            });
            let first = batch.iter().map(|b| b.0).fold(f64::INFINITY, f64::min);
            let last = batch.iter().map(|b| b.1).fold(0.0, f64::max);
            let compiles = batch.len();
            for (start, end, art) in batch {
                log.op(name, PARALLEL, end - start, entry.check(art));
            }
            log.section(name, PARALLEL, last - first, compiles);
        }
    }

    fn traced_round(&mut self, log: &mut OpLog, tracer: &mut Tracer) {
        for &i in &self.order {
            let entry = &self.entries[i];
            let (name, source) = (&entry.program.name, &entry.program.source);
            tracer.begin_op(i);

            // The op: the stages of `Artifacts::compile_source`, called one
            // by one so each gets a span.
            let op = tracer.open("op");
            let start = Instant::now();
            let program = tracer.span("ssir.parse", || ss_ir::parse_program(name, source));
            let Ok(program) = program else {
                tracer.close(op);
                log.fail(format!("{name}: does not parse"));
                continue;
            };
            let report = tracer.span("core.parallelize", || {
                ss_parallelizer::parallelize(&program)
            });
            let slots = tracer.span("ssir.slots", || ss_ir::compile_program(&program));
            let bytecode = tracer.span("ssir.bytecode", || ss_ir::compile_bytecode(&slots));
            let optimized = tracer.span("ssir.opt", || {
                ss_ir::optimize(&bytecode, ss_ir::OptLevel::O1)
            });
            let ms = start.elapsed().as_secs_f64() * 1e3;
            tracer.close(op);
            let check = if verdict_tokens(&report) != entry.expected {
                Err(format!("{name}: traced verdicts differ from expected"))
            } else if optimized.main != entry.reference.optimized.main {
                Err(format!("{name}: traced compile gave different bytecode"))
            } else {
                Ok(())
            };
            log.timed_leg(name, SERIAL, ms, check);

            // What `parallelize` spends inside the layers below it, by
            // making the same calls from here.
            let replica = tracer.open("replica");
            let analysis = tracer.span("aggregation.analyze_program", || {
                ss_aggregation::analyze_program(&program)
            });
            let tree = LoopTree::build(&program);
            tracer.span("deptest.test_loop", || {
                for info in &tree.loops {
                    let db = analysis.db_for_loop(info.id);
                    for cfg in [RangeTestConfig::default(), RangeTestConfig::baseline()] {
                        std::hint::black_box(ss_deptest::test_loop(
                            &program, &tree, info.id, db, &cfg,
                        ));
                    }
                }
            });
            tracer.close(replica);
        }
    }

    fn proven_loops(&self) -> u64 {
        self.catalogue_reports().map(proven_in).sum()
    }

    fn layers(&mut self, tracer: &Tracer, out: &mut Layers) {
        for (metric, span) in [
            ("ssir.parse_ms", "ssir.parse"),
            ("ssir.slots_ms", "ssir.slots"),
            ("ssir.bytecode_ms", "ssir.bytecode"),
            ("ssir.opt_ms", "ssir.opt"),
            (
                "aggregation.analyze_program_ms",
                "aggregation.analyze_program",
            ),
            ("deptest.test_loop_ms", "deptest.test_loop"),
            ("core.parallelize_ms", "core.parallelize"),
        ] {
            out.set_from_spans(metric, tracer, span);
        }
        // Per-program floors, summed over the set: shares and rates add.
        let total = |span: &str| -> (f64, usize) {
            let (floors, n) = tracer.program_floors(span);
            (floors.iter().sum(), n)
        };
        let (parse_ms, parses) = total("ssir.parse");
        let (parallelize_ms, n) = total("core.parallelize");
        let (op_ms, _) = total("op");
        if parses > 0 && op_ms > 0.0 {
            let bytes: usize = self.entries.iter().map(|e| e.program.source.len()).sum();
            out.set(
                "ssir.source_bytes_per_s",
                bytes as f64 / (parse_ms / 1e3),
                parses,
            );
            out.set("core.analyze_share", parallelize_ms / op_ms, n);
            let floors = |span: &str| -> BTreeMap<usize, f64> {
                tracer
                    .by_program(span)
                    .into_iter()
                    .filter_map(|(p, v)| Some((p, stats::floor(&v)?)))
                    .collect()
            };
            let (analyze, tests) = (
                floors("aggregation.analyze_program"),
                floors("deptest.test_loop"),
            );
            let own: Vec<f64> = floors("core.parallelize")
                .iter()
                .map(|(p, whole)| {
                    let below = analyze.get(p).unwrap_or(&0.0) + tests.get(p).unwrap_or(&0.0);
                    (whole - below).max(whole * 1e-3)
                })
                .collect();
            if let Some(g) = stats::geomean(&own) {
                out.set("core.parallelize_self_ms", g, n);
            }
        }
        let programs = self.entries.len();
        let tested: usize = self
            .entries
            .iter()
            .map(|e| 2 * e.reference.report.loops.len())
            .sum();
        out.set("deptest.loops_tested", tested as f64, programs);
        let kernels = self.catalogue_reports().count();
        let count = |pick: &dyn Fn(&ss_parallelizer::LoopReport) -> bool| -> f64 {
            self.catalogue_reports()
                .flat_map(|r| &r.loops)
                .filter(|l| pick(l))
                .count() as f64
        };
        out.set("core.proven_loops", self.proven_loops() as f64, kernels);
        out.set(
            "core.reduction_loops",
            count(&|l| l.verdict() == VerdictKind::Reduction),
            kernels,
        );
        out.set(
            "core.wavefront_loops",
            count(&|l| l.wavefront.is_some()),
            kernels,
        );
        out.set(
            "core.baseline_proven_loops",
            count(&|l| l.baseline_parallel),
            kernels,
        );
        let sum = |f: &dyn Fn(&Artifacts) -> usize| -> f64 {
            self.entries.iter().map(|e| f(&e.reference)).sum::<usize>() as f64
        };
        out.set(
            "ssir.instrs_o0",
            sum(&|a| a.bytecode.instr_count()),
            programs,
        );
        out.set(
            "ssir.instrs_o1",
            sum(&|a| a.optimized.instr_count()),
            programs,
        );
        out.set("core.artifact_bytes", sum(&|a| a.approx_bytes()), programs);
    }
}
