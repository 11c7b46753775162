//! The pluggable engine registry: every execution strategy behind one
//! object-safe [`Engine`] trait, enumerated — never pattern-matched — by
//! every consumer.
//!
//! The CLI's `--engine` flag, the differential validator, the generative
//! fuzz harness, the benchmark and the daemon all resolve engines through
//! an [`EngineRegistry`]; adding an execution strategy means registering
//! an [`Engine`] — no consumer changes, and surfaces like `sspar engines`
//! can never drift from what is actually runnable.  The built-in engines
//! are not code but rows of one table ([`EngineRegistry::builtin`]): an
//! *executor* (how a loop body runs) crossed with the *dispatch
//! strategies* its parallel runs may use.
//!
//! Engines execute **precompiled** [`Artifacts`] only: compilation happens
//! once, in the pipeline, and an engine runs whatever artifact store it is
//! handed.

use crate::engine::shared::Dispatcher;
use crate::engine::{
    bytecode, compiled, restamp_written, serial, threaded, ExecOptions, ExecOutcome,
};
use crate::error::SsError;
use crate::heap::Heap;
use ss_ir::opt::OptLevel;
use ss_parallelizer::Artifacts;
use std::sync::Arc;

/// What an engine can do, as data — consumers branch on these flags, not
/// on engine names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineCaps {
    /// The parallel dispatcher runs reduction loops with per-thread
    /// partials merged by the recognized combiner.
    pub reductions: bool,
    /// The parallel dispatcher gives loop-local array declarations
    /// worker-private storage.
    pub local_arrays: bool,
    /// Parallel runs recover serial-proven carried loops at run time:
    /// gate-approved loops are inspected into dependence level sets and
    /// executed level by level (the serial path is the executor's own).
    pub level_sets: bool,
    /// This engine is the semantic reference: differential validation
    /// diffs every other engine against its final heap.
    pub reference: bool,
    /// The `--opt-level`s that select *distinct* prepared programs for
    /// this engine.  Engines that do not consume the bytecode stream
    /// report a single level (the default); the differential matrix runs
    /// each engine once per listed level.
    pub opt_levels: &'static [OptLevel],
}

/// One execution strategy over pipeline [`Artifacts`].
///
/// Implementations are stateless handles (`Send + Sync`): all per-program
/// state lives in the artifacts, all per-run state in [`ExecOptions`] and
/// the heap.  Register implementations with
/// [`EngineRegistry::register`] — or obtain the built-ins via
/// [`EngineRegistry::builtin`].
pub trait Engine: Send + Sync + std::fmt::Debug {
    /// The stable name consumers select the engine by (`--engine <name>`).
    fn name(&self) -> &'static str;

    /// One-line human description for `sspar engines`.
    fn description(&self) -> &'static str;

    /// Capability flags (see [`EngineCaps`]).
    fn caps(&self) -> EngineCaps;

    /// Executes the whole program on one thread.
    fn run_serial(
        &self,
        artifacts: &Artifacts,
        heap: Heap,
        opts: &ExecOptions,
    ) -> Result<ExecOutcome, SsError>;

    /// Executes the program with the loops this engine's dispatch
    /// strategies cover sent to worker threads: proven-parallelizable
    /// loops per the artifacts' own analysis report, plus level-set
    /// scheduled ones under [`EngineCaps::level_sets`].  An engine without
    /// a dispatcher (the reference) runs serially and reports every loop
    /// [`ExecMode::Serial`](crate::ExecMode::Serial).  Under
    /// [`ExecOptions::baseline_inspector`] dispatching engines also record
    /// the run-time inspector's verdict on the loops left serial.
    fn run_parallel(
        &self,
        artifacts: &Artifacts,
        heap: Heap,
        opts: &ExecOptions,
    ) -> Result<ExecOutcome, SsError>;
}

// ---------------------------------------------------------------------------
// The built-in engines.
// ---------------------------------------------------------------------------

/// How a built-in engine runs a loop body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Executor {
    /// The tree walker over the name-keyed heap (`serial`): the semantic
    /// reference, serial on every leg.
    Ast,
    /// Slot-resolved op trees over dense frames (`compiled`).
    Compiled,
    /// The flat register-machine stream, O0 or O1 (`bytecode`).
    Bytecode,
    /// That stream lowered once into a direct-threaded handler chain
    /// (`wavefront`, `threaded`).
    Threaded,
}

/// One built-in engine: a row of [`BUILTINS`].  Everything that differs
/// between the built-ins is data here; how their parallel runs dispatch
/// is `engine::shared`'s one recipe.
#[derive(Debug)]
struct Builtin {
    name: &'static str,
    description: &'static str,
    executor: Executor,
    caps: EngineCaps,
}

/// What every slot-addressed executor's parallel runs can do.
const DISPATCHING: EngineCaps = EngineCaps {
    reductions: true,
    local_arrays: true,
    level_sets: false,
    reference: false,
    opt_levels: &[OptLevel::O0, OptLevel::O1],
};

/// The built-in engines, default first.  The default, `wavefront`, is the
/// threaded executor with the level-set strategy switched on — the only
/// difference between it and the `threaded` row is
/// [`EngineCaps::level_sets`].  Level sets run only on loops the
/// compile-time wavefront gate approves and whose levels are wide enough
/// on the run's input; every other loop runs as on `threaded`, so the
/// default's serial and parallel legs share one executor.  Every
/// dispatching row (`wavefront`, `bytecode`, `threaded`, `compiled`)
/// dispatches the same region body, the loop's lowered threaded chain;
/// the rows differ in their spine and strategies.
const BUILTINS: [Builtin; 5] = [
    Builtin {
        name: "wavefront",
        description: "direct-threaded chain plus level-set scheduling of carried loops",
        executor: Executor::Threaded,
        caps: EngineCaps {
            level_sets: true,
            ..DISPATCHING
        },
    },
    Builtin {
        name: "bytecode",
        description: "flat register-machine stream (O0/O1), persistent thread team",
        executor: Executor::Bytecode,
        caps: DISPATCHING,
    },
    Builtin {
        name: "threaded",
        description:
            "direct-threaded handler chain lowered from bytecode (O0/O1), persistent thread team",
        executor: Executor::Threaded,
        caps: DISPATCHING,
    },
    Builtin {
        name: "compiled",
        description: "slot-resolved op trees over dense frames",
        executor: Executor::Compiled,
        caps: EngineCaps {
            opt_levels: &[OptLevel::O1],
            ..DISPATCHING
        },
    },
    Builtin {
        name: "ast",
        description: "tree-walking serial reference over the name-keyed heap",
        executor: Executor::Ast,
        caps: EngineCaps {
            reductions: false,
            local_arrays: false,
            level_sets: false,
            reference: true,
            opt_levels: &[OptLevel::O1],
        },
    },
];

impl Builtin {
    /// Runs the row's executor on the spine, after restamping the arrays
    /// the program writes ([`restamp_written`]).  The reference walks the
    /// tree serially whichever leg asks; the slot-addressed executors
    /// share the one [`Dispatcher`], built only for parallel runs.
    fn run(
        &self,
        artifacts: &Artifacts,
        mut heap: Heap,
        opts: &ExecOptions,
        parallel: bool,
    ) -> Result<ExecOutcome, SsError> {
        restamp_written(artifacts, &mut heap);
        let dispatcher =
            || parallel.then(|| Dispatcher::new(artifacts, opts, self.caps.level_sets));
        Ok(match self.executor {
            Executor::Ast => serial::run_serial_ast(&artifacts.program, heap, opts),
            Executor::Compiled => {
                compiled::run_compiled(&artifacts.compiled, heap, opts, dispatcher().as_ref())
            }
            Executor::Bytecode => {
                let bc = artifacts.bytecode_at(opts.opt_level);
                bytecode::run_bytecode(bc, heap, opts, dispatcher().as_ref())
            }
            Executor::Threaded => {
                threaded::run_threaded(artifacts, heap, opts, dispatcher().as_ref())
            }
        }?)
    }
}

impl Engine for Builtin {
    fn name(&self) -> &'static str {
        self.name
    }

    fn description(&self) -> &'static str {
        self.description
    }

    fn caps(&self) -> EngineCaps {
        self.caps
    }

    fn run_serial(
        &self,
        artifacts: &Artifacts,
        heap: Heap,
        opts: &ExecOptions,
    ) -> Result<ExecOutcome, SsError> {
        self.run(artifacts, heap, opts, false)
    }

    fn run_parallel(
        &self,
        artifacts: &Artifacts,
        heap: Heap,
        opts: &ExecOptions,
    ) -> Result<ExecOutcome, SsError> {
        self.run(artifacts, heap, opts, true)
    }
}

// ---------------------------------------------------------------------------
// The registry.
// ---------------------------------------------------------------------------

/// An ordered collection of [`Engine`]s, resolved by name.  The first
/// registered engine is the default.
#[derive(Clone)]
pub struct EngineRegistry {
    engines: Vec<Arc<dyn Engine>>,
}

impl EngineRegistry {
    /// The built-in engines, default first: `wavefront`, `bytecode`,
    /// `threaded`, `compiled`, `ast`.
    pub fn builtin() -> EngineRegistry {
        let mut r = EngineRegistry::empty();
        for row in BUILTINS {
            r.register(Arc::new(row));
        }
        r
    }

    /// A registry with no engines (build custom sets with
    /// [`register`](Self::register)).
    pub fn empty() -> EngineRegistry {
        EngineRegistry {
            engines: Vec::new(),
        }
    }

    /// Registers an engine.  A same-named engine is replaced in place (its
    /// position — and default status, if first — is preserved).
    pub fn register(&mut self, engine: Arc<dyn Engine>) {
        match self.engines.iter_mut().find(|e| e.name() == engine.name()) {
            Some(slot) => *slot = engine,
            None => self.engines.push(engine),
        }
    }

    /// Resolves an engine by name.
    pub fn get(&self, name: &str) -> Result<Arc<dyn Engine>, SsError> {
        self.engines
            .iter()
            .find(|e| e.name() == name)
            .cloned()
            .ok_or_else(|| SsError::UnknownEngine {
                name: name.to_string(),
                available: self.names().iter().map(|n| n.to_string()).collect(),
            })
    }

    /// The default engine (the first registered one).
    ///
    /// # Panics
    /// On an [`empty`](Self::empty) registry.
    pub fn default_engine(&self) -> Arc<dyn Engine> {
        self.engines
            .first()
            .cloned()
            .expect("engine registry is empty")
    }

    /// The semantic-reference engine (first with [`EngineCaps::reference`]),
    /// if one is registered.
    pub fn reference(&self) -> Option<Arc<dyn Engine>> {
        self.engines.iter().find(|e| e.caps().reference).cloned()
    }

    /// Engines in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<dyn Engine>> {
        self.engines.iter()
    }

    /// Registered names, in order.
    pub fn names(&self) -> Vec<&'static str> {
        self.engines.iter().map(|e| e.name()).collect()
    }

    /// Number of registered engines.
    pub fn len(&self) -> usize {
        self.engines.len()
    }

    /// True when no engine is registered.
    pub fn is_empty(&self) -> bool {
        self.engines.is_empty()
    }
}

impl std::fmt::Debug for EngineRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineRegistry")
            .field("engines", &self.names())
            .finish()
    }
}

impl Default for EngineRegistry {
    fn default() -> EngineRegistry {
        EngineRegistry::builtin()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_registry_has_the_five_engines_default_first() {
        let r = EngineRegistry::builtin();
        assert_eq!(
            r.names(),
            vec!["wavefront", "bytecode", "threaded", "compiled", "ast"]
        );
        assert_eq!(r.default_engine().name(), "wavefront");
        assert_eq!(r.reference().unwrap().name(), "ast");
        assert_eq!(r.len(), 5);
        assert!(!r.is_empty());
    }

    #[test]
    fn unknown_names_list_what_is_registered() {
        let r = EngineRegistry::builtin();
        match r.get("jit") {
            Err(SsError::UnknownEngine { name, available }) => {
                assert_eq!(name, "jit");
                assert_eq!(
                    available,
                    vec!["wavefront", "bytecode", "threaded", "compiled", "ast"]
                );
            }
            other => panic!("expected UnknownEngine, got {other:?}"),
        }
    }

    #[test]
    fn registering_a_same_named_engine_replaces_it_in_place() {
        #[derive(Debug)]
        struct FakeWavefront(Arc<dyn Engine>);
        impl Engine for FakeWavefront {
            fn name(&self) -> &'static str {
                "wavefront"
            }
            fn description(&self) -> &'static str {
                "fake"
            }
            fn caps(&self) -> EngineCaps {
                self.0.caps()
            }
            fn run_serial(
                &self,
                a: &Artifacts,
                h: Heap,
                o: &ExecOptions,
            ) -> Result<ExecOutcome, SsError> {
                self.0.run_serial(a, h, o)
            }
            fn run_parallel(
                &self,
                a: &Artifacts,
                h: Heap,
                o: &ExecOptions,
            ) -> Result<ExecOutcome, SsError> {
                self.0.run_parallel(a, h, o)
            }
        }
        let mut r = EngineRegistry::builtin();
        r.register(Arc::new(FakeWavefront(r.reference().unwrap())));
        assert_eq!(r.len(), 5);
        assert_eq!(r.default_engine().name(), "wavefront");
        assert_eq!(r.default_engine().description(), "fake");
    }

    #[test]
    fn capability_flags_describe_the_builtin_engines() {
        let r = EngineRegistry::builtin();
        let bc = r.get("bytecode").unwrap();
        assert!(bc.caps().reductions && bc.caps().local_arrays);
        assert_eq!(bc.caps().opt_levels, &[OptLevel::O0, OptLevel::O1]);
        let th = r.get("threaded").unwrap();
        assert!(th.caps().reductions && th.caps().local_arrays);
        assert!(!th.caps().reference);
        assert_eq!(th.caps().opt_levels, &[OptLevel::O0, OptLevel::O1]);
        let wf = r.get("wavefront").unwrap();
        assert!(wf.caps().reductions && wf.caps().local_arrays);
        assert!(wf.caps().level_sets && !th.caps().level_sets && !bc.caps().level_sets);
        assert!(!wf.caps().reference);
        assert_eq!(wf.caps().opt_levels, &[OptLevel::O0, OptLevel::O1]);
        let ast = r.get("ast").unwrap();
        assert!(ast.caps().reference);
        assert!(!ast.caps().reductions);
        assert_eq!(ast.caps().opt_levels.len(), 1);
    }
}
