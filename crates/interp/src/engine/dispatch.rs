//! The AST (tree-walking) parallel engine.
//!
//! Kept as the differential reference for the compiled engine: same verdict
//! consumption, same scalar merge-back, but name-keyed stores and per-entry
//! snapshots.  Two deliberate limitations distinguish it from the compiled
//! dispatcher: loops whose bodies declare arrays are left serial (workers
//! have no private array storage), and reduction loops are left serial (a
//! name-keyed last-write merge cannot express a combiner).  It is also the
//! engine that carries the runtime-inspector baseline, whose recording
//! store hooks into the tree walker.

use super::serial::{eval, exec_stmts, ExecEnv, ForLoop, LoopPolicy, NoDispatch};
use super::store::{HeapStore, SharedArrays, Store, WorkerStore};
use super::{ExecError, ExecMode, ExecOptions, ExecOutcome, ExecStats};
use crate::heap::Heap;
use ss_ir::ast::{LoopId, Stmt};
use ss_ir::Program;
use ss_parallelizer::ParallelizationReport;
use ss_runtime::{team_parallel_for_schedule, with_shared_team_in, Schedule};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Mutex;
use std::time::Instant;

struct ParallelDispatch<'r> {
    dispatchable: &'r HashSet<LoopId>,
    opts: &'r ExecOptions,
}

impl LoopPolicy<HeapStore<'_>> for ParallelDispatch<'_> {
    fn try_dispatch(
        &mut self,
        st: &mut HeapStore<'_>,
        f: &ForLoop<'_>,
        env: &mut ExecEnv<'_>,
    ) -> Result<bool, ExecError> {
        if !self.dispatchable.contains(&f.id) || self.opts.threads <= 1 {
            return Ok(false);
        }
        if body_declares_array(f.body) {
            // Loop-local arrays would need per-worker allocation + merge;
            // the compiled engine provides that, this reference engine runs
            // such loops serially.
            return Ok(false);
        }
        // Materialize the iteration space.  Loop bound and step of a proven
        // parallel loop are invariant under its body (a loop rewriting its
        // own bound has a dependence the range test rejects), so evaluating
        // them once up front matches serial semantics.
        let v0 = eval(st, f.init)?;
        let bound = eval(st, f.bound)?;
        let step = eval(st, f.step)?;
        let (values, exit_value) =
            super::materialize_iteration_space(v0, bound, step, f.cond_op, f.id, env.while_cap)?;
        let n = values.len();
        if n < self.opts.min_parallel_trip {
            return Ok(false);
        }

        st.mark_frames_blind();
        let start = Instant::now();
        let threads = self.opts.threads;
        let schedule = super::choose_schedule(
            self.opts.schedule,
            ss_ir::slots::body_is_skewed(f.body),
            n,
            threads,
            self.opts.chunk,
        );
        let dynamic = matches!(schedule, Schedule::Dynamic { .. });

        let snapshot: HashMap<String, (i64, Option<usize>)> = st
            .heap
            .scalars
            .iter()
            .map(|(k, v)| (k.clone(), (*v, None)))
            .collect();
        let shared = SharedArrays::capture(st.heap);
        let while_cap = env.while_cap;
        type ChunkResult = (Result<(), ExecError>, HashMap<String, (usize, i64)>);
        let results: Mutex<Vec<ChunkResult>> = Mutex::new(Vec::new());

        with_shared_team_in(self.opts.team_group, threads, |team| {
            team_parallel_for_schedule(team, n, schedule, |range| {
                let mut ws = WorkerStore {
                    shared: &shared,
                    scalars: snapshot.clone(),
                    current_iter: 0,
                };
                let mut scratch_stats = ExecStats::default();
                let mut wenv = ExecEnv {
                    stats: &mut scratch_stats,
                    timing: false,
                    while_cap,
                };
                let mut res = Ok(());
                for k in range {
                    ws.current_iter = k;
                    ws.set_scalar(f.var, values[k]);
                    if let Err(e) = exec_stmts(&mut ws, f.body, &mut NoDispatch, &mut wenv) {
                        res = Err(e);
                        break;
                    }
                }
                let merged: HashMap<String, (usize, i64)> = ws
                    .scalars
                    .into_iter()
                    .filter_map(|(name, (value, iter))| iter.map(|it| (name, (it, value))))
                    .collect();
                results.lock().unwrap().push((res, merged));
            })
        });

        let chunks = results.into_inner().unwrap();
        if let Some((Err(e), _)) = chunks.iter().find(|(r, _)| r.is_err()) {
            return Err(e.clone());
        }
        // Merge scalars by last-writing iteration: for write-before-read
        // (privatizable) scalars — the only kind a proven-parallel body may
        // write — this reproduces the serial final values exactly.
        let mut final_writes: BTreeMap<&String, (usize, i64)> = BTreeMap::new();
        for (_, writes) in &chunks {
            for (name, &(iter, value)) in writes {
                match final_writes.get(name) {
                    Some(&(best, _)) if best >= iter => {}
                    _ => {
                        final_writes.insert(name, (iter, value));
                    }
                }
            }
        }
        for (name, (_, value)) in final_writes {
            st.heap.scalars.insert(name.clone(), value);
        }
        st.heap.scalars.insert(f.var.to_string(), exit_value);

        env.stats.record(
            f.id,
            n as u64,
            start.elapsed().as_secs_f64(),
            ExecMode::Parallel { threads, dynamic },
        );
        Ok(true)
    }
}

fn body_declares_array(body: &[Stmt]) -> bool {
    let mut found = false;
    walk_body(body, &mut |s| {
        if let Stmt::Decl { dims, .. } = s {
            if !dims.is_empty() {
                found = true;
            }
        }
    });
    found
}

fn walk_body(stmts: &[Stmt], f: &mut impl FnMut(&Stmt)) {
    for s in stmts {
        f(s);
        for block in s.child_blocks() {
            walk_body(block, f);
        }
    }
}

/// The AST parallel engine: dispatches the independence-parallel outermost
/// loops of `report` (reduction loops and loops with body-local array
/// declarations stay serial here — the compiled engine handles those),
/// optionally recording the runtime-inspector baseline on serial loops.
pub(crate) fn run_parallel_ast(
    program: &Program,
    report: &ParallelizationReport,
    mut heap: Heap,
    opts: &ExecOptions,
) -> Result<ExecOutcome, ExecError> {
    // Only independence-parallel loops: the name-keyed last-write merge has
    // no combiner for reduction accumulators.
    let dispatchable: HashSet<LoopId> = report
        .outermost_parallel_loops()
        .into_iter()
        .filter(|id| {
            report
                .loop_report(*id)
                .map(|l| l.reductions.is_empty())
                .unwrap_or(false)
        })
        .collect();
    let mut stats = ExecStats::default();
    let start = Instant::now();
    {
        let mut store = HeapStore::new(&mut heap, opts.baseline_inspector);
        let mut policy = ParallelDispatch {
            dispatchable: &dispatchable,
            opts,
        };
        let mut env = ExecEnv {
            stats: &mut stats,
            timing: true,
            while_cap: opts.while_cap,
        };
        exec_stmts(&mut store, &program.body, &mut policy, &mut env)?;
    }
    stats.total_seconds = start.elapsed().as_secs_f64();
    Ok(ExecOutcome { heap, stats })
}
