//! # ss-cli — the `sspar` command-line front end
//!
//! A miniature Cetus: point it at a mini-C kernel and it runs the
//! compile-time analysis, prints per-loop verdicts (extended vs. baseline),
//! the derived index-array facts, the Section 3.5-style phase trace, and the
//! source annotated with `#pragma omp parallel for` on every loop it proved
//! parallel.
//!
//! ```text
//! sspar analyze kernel.c          # verdicts + facts + annotated source
//! sspar analyze kernel.c --format json   # the same, machine-readable
//! sspar trace   kernel.c          # Phase 1 / Phase 2 summaries per loop
//! sspar study                     # the Figure-1 catalogue study table
//! sspar kernels                   # list the built-in catalogue kernels
//! sspar engines                   # list the registered execution engines
//! sspar analyze --kernel fig9_csr_product   # analyze a catalogue kernel
//! sspar tune --kernel sptrsv_levels         # search + persist the best policy
//! ```
//!
//! The CLI is a thin shell over the library API: every command drives one
//! process-wide [`ss_interp::Session`] (so repeated in-process invocations
//! share the content-addressed artifact cache), engines are whatever that
//! session's [`EngineRegistry`](ss_interp::EngineRegistry) holds — the CLI
//! never names an engine itself — and every failure is an
//! [`SsError`] whose [`exit_code`](SsError::exit_code) the binary exits
//! with.
//!
//! The command logic lives in [`run`], which is a pure function from
//! arguments (plus an abstract file reader) to output text, so the whole
//! CLI is unit-testable without touching the file system.

#![warn(missing_docs)]

use ss_aggregation::analyze_program;
use ss_interp::{
    analysis_json, registry_json, reset_pair_counts, set_pair_profiling, top_instruction_pairs,
    ExecMode, ExecutionMode, OptLevel, RunPolicy, RunRequest, ScheduleChoice, Session, SsError,
    TunerConfig, ValidationMode,
};
use ss_ir::{parse_program, LoopId};
use ss_parallelizer::{run_study, StudyInput, VerdictKind};
use std::sync::OnceLock;

/// The process-wide session: one artifact cache and one engine registry
/// serve every command of every in-process invocation.
fn session() -> &'static Session {
    static SESSION: OnceLock<Session> = OnceLock::new();
    SESSION.get_or_init(Session::new)
}

/// The usage text.
pub fn usage() -> String {
    "sspar — compile-time parallelization of subscripted subscript patterns\n\
     \n\
     USAGE:\n\
     \u{20}   sspar analyze <file.c> [--baseline] [--no-source] [--dump-bytecode] [--opt-level 0|1] [--format text|json]\n\
     \u{20}   sspar analyze --kernel <name>  [same options]\n\
     \u{20}   sspar trace   <file.c>\n\
     \u{20}   sspar trace   --kernel <name>\n\
     \u{20}   sspar run     <file.c> [run options]\n\
     \u{20}   sspar run     --kernel <name> [run options]\n\
     \u{20}   sspar tune    <file.c> [tune options]\n\
     \u{20}   sspar tune    --kernel <name> [tune options]\n\
     \u{20}   sspar study\n\
     \u{20}   sspar kernels\n\
     \u{20}   sspar engines [--format text|json]\n\
     \u{20}   sspar serve   [serve options]\n\
     \u{20}   sspar request <json-line> [--addr <host:port>]\n\
     \n\
     COMMANDS:\n\
     \u{20}   analyze   run the full pipeline and print per-loop verdicts,\n\
     \u{20}             derived index-array facts and the annotated source\n\
     \u{20}   trace     print the Phase 1 / Phase 2 aggregation summaries\n\
     \u{20}             (the paper's Section 3.5 trace) for every loop\n\
     \u{20}   run       analyze the program, synthesize inputs, execute it\n\
     \u{20}             serially and in parallel, and print per-loop timings\n\
     \u{20}   tune      search the execution-policy space (engine x opt level x\n\
     \u{20}             schedule x chunk x threads) with measured trials, print\n\
     \u{20}             the search table, and persist the winner per\n\
     \u{20}             (program, input shape) — `run --policy tuned` reapplies it\n\
     \u{20}   study     run the Figure-1 study over the built-in catalogue\n\
     \u{20}   kernels   list the built-in catalogue kernels\n\
     \u{20}   engines   list the registered execution engines and their\n\
     \u{20}             capabilities (exactly what --engine accepts)\n\
     \u{20}   serve     run the sspard daemon in-process (NDJSON over TCP)\n\
     \u{20}             until a `shutdown` request drains it\n\
     \u{20}   request   send one raw NDJSON request line to a running sspard\n\
     \u{20}             and print the response line\n\
     \n\
     SERVE OPTIONS:\n\
     \u{20}   --addr <host:port>      listen address (default 127.0.0.1:7878; :0 picks a port)\n\
     \u{20}   --workers <N>           worker threads (default 4)\n\
     \u{20}   --shards <N>            persistent thread-team shards (default 2)\n\
     \u{20}   --queue <N>             bounded request-queue depth (default 64)\n\
     \u{20}   --cache-capacity <N>    per-tenant artifact-cache entry bound (default unbounded)\n\
     \u{20}   --cache-capacity-bytes <N>  per-tenant artifact-cache byte bound (default unbounded)\n\
     \n\
     OPTIONS:\n\
     \u{20}   --kernel <name>  use a built-in catalogue kernel instead of a file\n\
     \u{20}   --baseline       analyze: also show the property-free baseline verdicts\n\
     \u{20}   --no-source      analyze: omit the annotated source from the output\n\
     \u{20}   --dump-bytecode  analyze: print the register-machine bytecode listing\n\
     \u{20}   --profile        analyze: execute the program once (bytecode engine,\n\
     \u{20}                    serial) with instruction-pair profiling on and print\n\
     \u{20}                    the hottest dynamically adjacent pairs — the fusion\n\
     \u{20}                    candidates for a profile-guided superinstruction pass\n\
     \u{20}                    (SSPAR_PROFILE=1 implies it)\n\
     \u{20}   --opt-level <0|1>  which bytecode stream to use: the base compiler's (0)\n\
     \u{20}                    or the optimized one (1, default — fused subscripted-\n\
     \u{20}                    subscript loads, compare-and-branch, constant folding)\n\
     \u{20}   --format <text|json>  analyze/engines/run: output format (default text);\n\
     \u{20}                    JSON schemas are stable for downstream tooling\n\
     \n\
     RUN OPTIONS:\n\
     \u{20}   --threads <N>           worker threads (default: all hardware threads)\n\
     \u{20}   --n <SIZE>              input scale: loop bounds / data modulus (default 256)\n\
     \u{20}   --seed <S>              input data seed (default 1)\n\
     \u{20}   --validate              exit nonzero unless all engines' heaps are identical\n\
     \u{20}   --baseline inspector    run the runtime-inspector baseline on serial loops\n\
     \u{20}   --schedule <auto|static|dynamic>  scheduling of parallel loops (default auto)\n\
     \u{20}   --engine <name>         execution engine, from `sspar engines`\n\
     \u{20}                           (default: the registry default)\n\
     \u{20}   --opt-level <0|1>       bytecode engine: run the O0 or O1 stream (default 1)\n\
     \u{20}   --policy <default|tuned>  tuned: search-or-reapply the persisted best\n\
     \u{20}                           policy for this (program, input shape) and run it\n\
     \u{20}   --format <text|json>    print the structured run outcome as JSON\n\
     \n\
     TUNE OPTIONS:\n\
     \u{20}   --budget-trials <N>     cap on measured trials (default: the full pruned space)\n\
     \u{20}   --repeats <N>           timed repeats per candidate, median kept (default 3)\n\
     \u{20}   --threads <N>           thread count the default policy is anchored to\n\
     \u{20}   --n <SIZE>              input scale (default 256)\n\
     \u{20}   --seed <S>              input data seed (default 1)\n\
     \u{20}   --trial-seed <S>        deterministic trial-order seed (default 0)\n\
     \u{20}   --format <text|json>    print the search table or the stable JSON outcome\n"
        .to_string()
}

fn usage_err() -> SsError {
    SsError::Usage(usage())
}

/// How the CLI obtains file contents; tests substitute an in-memory reader.
pub trait SourceReader {
    /// Reads the file at `path` into a string.
    fn read(&self, path: &str) -> Result<String, String>;
}

/// Reads from the real file system.
pub struct FsReader;

impl SourceReader for FsReader {
    fn read(&self, path: &str) -> Result<String, String> {
        std::fs::read_to_string(path).map_err(|e| e.to_string())
    }
}

/// Output format of machine-readable-capable commands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// Human-readable tables (the default).
    #[default]
    Text,
    /// Stable JSON for downstream tooling.
    Json,
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `sspar analyze …`
    Analyze {
        /// Source of the kernel text.
        input: Input,
        /// Show baseline verdicts alongside the extended ones.
        baseline: bool,
        /// Omit the annotated source.
        no_source: bool,
        /// Print the register-machine bytecode listing.
        dump_bytecode: bool,
        /// Execute once with instruction-pair profiling and print the
        /// hottest pairs.
        profile: bool,
        /// Which bytecode stream `--dump-bytecode` prints (and
        /// `--profile` executes).
        opt_level: OptLevel,
        /// Text or JSON output.
        format: OutputFormat,
    },
    /// `sspar trace …`
    Trace {
        /// Source of the kernel text.
        input: Input,
    },
    /// `sspar run …`
    Run {
        /// Source of the kernel text.
        input: Input,
        /// Execution options.
        options: RunOptions,
    },
    /// `sspar tune …` — search the execution-policy space and persist the
    /// winner in the session artifact cache.
    Tune {
        /// Source of the kernel text.
        input: Input,
        /// Tuner options.
        options: TuneOptions,
    },
    /// `sspar study`
    Study,
    /// `sspar kernels`
    Kernels,
    /// `sspar engines`
    Engines {
        /// Text or JSON output.
        format: OutputFormat,
    },
    /// `sspar serve` — run the `sspard` daemon in-process until drained.
    Serve {
        /// Daemon knobs.
        options: ServeOptions,
    },
    /// `sspar request` — one NDJSON request against a running daemon.
    Request {
        /// The raw request line (one JSON object).
        line: String,
        /// Daemon address.
        addr: String,
    },
}

/// Options of `sspar serve` (a subset of
/// [`ss_daemon::DaemonConfig`](ss_daemon::server::DaemonConfig)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeOptions {
    /// Listen address.
    pub addr: String,
    /// Worker threads.
    pub workers: usize,
    /// Persistent thread-team shards.
    pub shards: usize,
    /// Bounded request-queue depth.
    pub queue: usize,
    /// Per-tenant artifact-cache entry bound.
    pub cache_capacity: Option<usize>,
    /// Per-tenant artifact-cache byte bound.
    pub cache_capacity_bytes: Option<usize>,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            addr: "127.0.0.1:7878".to_string(),
            workers: 4,
            shards: 2,
            queue: 64,
            cache_capacity: None,
            cache_capacity_bytes: None,
        }
    }
}

/// The `--policy` knob of `sspar run`: how execution options are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PolicyFlag {
    /// The request's own engine/schedule/thread options, unmodified.
    #[default]
    Default,
    /// Search-or-reapply the persisted tuned policy for this
    /// (program, input shape) and run under it.
    Tuned,
}

/// Options of `sspar tune`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TuneOptions {
    /// Cap on measured trials (`None` = the full pruned space).
    pub budget_trials: Option<usize>,
    /// Timed repeats per candidate; the median is kept.
    pub repeats: usize,
    /// Thread count the default policy is anchored to (`None` = all
    /// hardware threads).
    pub threads: Option<usize>,
    /// Input scale (`--n`).
    pub scale: i64,
    /// Input data seed.
    pub seed: u64,
    /// Deterministic trial-order seed.
    pub trial_seed: u64,
    /// Text or JSON output.
    pub format: OutputFormat,
}

impl Default for TuneOptions {
    fn default() -> TuneOptions {
        TuneOptions {
            budget_trials: None,
            repeats: 3,
            threads: None,
            scale: 256,
            seed: 1,
            trial_seed: 0,
            format: OutputFormat::Text,
        }
    }
}

/// Options of `sspar run`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOptions {
    /// Worker threads (`None` = all hardware threads).
    pub threads: Option<usize>,
    /// Input scale (`--n`).
    pub scale: i64,
    /// Input seed.
    pub seed: u64,
    /// Exit nonzero unless all engines' final heaps are bit-identical.
    pub validate: bool,
    /// Run the runtime-inspector baseline on serial loops.
    pub baseline_inspector: bool,
    /// Scheduling of dispatched loops.
    pub schedule: ScheduleChoice,
    /// Execution engine by registry name (`None` = registry default).
    pub engine: Option<String>,
    /// Bytecode stream opt-level-sensitive engines run (`--opt-level`).
    pub opt_level: OptLevel,
    /// How execution options are chosen (`--policy`).
    pub policy: PolicyFlag,
    /// Text or JSON output.
    pub format: OutputFormat,
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        RunOptions {
            threads: None,
            scale: 256,
            seed: 1,
            validate: false,
            baseline_inspector: false,
            schedule: ScheduleChoice::Auto,
            engine: None,
            opt_level: OptLevel::O1,
            policy: PolicyFlag::Default,
            format: OutputFormat::Text,
        }
    }
}

/// Where the kernel text comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Input {
    /// A path on disk.
    File(String),
    /// A named kernel from the built-in catalogue.
    Catalogue(String),
}

fn parse_format(v: Option<&&str>) -> Result<OutputFormat, SsError> {
    match v {
        Some(&"text") => Ok(OutputFormat::Text),
        Some(&"json") => Ok(OutputFormat::Json),
        _ => Err(usage_err()),
    }
}

/// Parses the argument vector (without the program name).
pub fn parse_args(args: &[String]) -> Result<Command, SsError> {
    let mut it = args.iter().map(String::as_str);
    let cmd = it.next().ok_or_else(usage_err)?;
    match cmd {
        "study" => Ok(Command::Study),
        "kernels" => Ok(Command::Kernels),
        "engines" => {
            let rest: Vec<&str> = it.collect();
            let mut format = OutputFormat::Text;
            let mut i = 0;
            while i < rest.len() {
                match rest[i] {
                    "--format" => {
                        format = parse_format(rest.get(i + 1))?;
                        i += 2;
                    }
                    _ => return Err(usage_err()),
                }
            }
            Ok(Command::Engines { format })
        }
        "serve" => {
            let rest: Vec<&str> = it.collect();
            let mut options = ServeOptions::default();
            let parse_num = |rest: &[&str], i: usize| -> Result<usize, SsError> {
                rest.get(i + 1)
                    .and_then(|v| v.parse::<usize>().ok())
                    .ok_or_else(usage_err)
            };
            let mut i = 0;
            while i < rest.len() {
                match rest[i] {
                    "--addr" => {
                        options.addr = rest.get(i + 1).ok_or_else(usage_err)?.to_string();
                        i += 2;
                    }
                    "--workers" => {
                        options.workers = parse_num(&rest, i)?.max(1);
                        i += 2;
                    }
                    "--shards" => {
                        options.shards = parse_num(&rest, i)?.max(1);
                        i += 2;
                    }
                    "--queue" => {
                        options.queue = parse_num(&rest, i)?.max(1);
                        i += 2;
                    }
                    "--cache-capacity" => {
                        options.cache_capacity = Some(parse_num(&rest, i)?);
                        i += 2;
                    }
                    "--cache-capacity-bytes" => {
                        options.cache_capacity_bytes = Some(parse_num(&rest, i)?);
                        i += 2;
                    }
                    _ => return Err(usage_err()),
                }
            }
            Ok(Command::Serve { options })
        }
        "request" => {
            let rest: Vec<&str> = it.collect();
            let mut line: Option<String> = None;
            let mut addr = "127.0.0.1:7878".to_string();
            let mut i = 0;
            while i < rest.len() {
                match rest[i] {
                    "--addr" => {
                        addr = rest.get(i + 1).ok_or_else(usage_err)?.to_string();
                        i += 2;
                    }
                    other if line.is_none() => {
                        line = Some(other.to_string());
                        i += 1;
                    }
                    _ => return Err(usage_err()),
                }
            }
            let line = line.ok_or_else(usage_err)?;
            Ok(Command::Request { line, addr })
        }
        "run" => {
            let rest: Vec<&str> = it.collect();
            let mut input: Option<Input> = None;
            let mut options = RunOptions::default();
            let mut i = 0;
            let parse_val = |rest: &[&str], i: usize| -> Result<String, SsError> {
                rest.get(i + 1).map(|s| s.to_string()).ok_or_else(usage_err)
            };
            while i < rest.len() {
                match rest[i] {
                    "--kernel" => {
                        let name = parse_val(&rest, i)?;
                        input = Some(Input::Catalogue(name));
                        i += 2;
                    }
                    "--threads" => {
                        let v = parse_val(&rest, i)?;
                        let threads: usize = v.parse().map_err(|_| usage_err())?;
                        if threads < 1 {
                            return Err(usage_err());
                        }
                        options.threads = Some(threads);
                        i += 2;
                    }
                    "--n" => {
                        let v = parse_val(&rest, i)?;
                        let scale: i64 = v.parse().map_err(|_| usage_err())?;
                        if scale < 1 {
                            return Err(usage_err());
                        }
                        options.scale = scale;
                        i += 2;
                    }
                    "--seed" => {
                        let v = parse_val(&rest, i)?;
                        options.seed = v.parse().map_err(|_| usage_err())?;
                        i += 2;
                    }
                    "--validate" => {
                        options.validate = true;
                        i += 1;
                    }
                    "--baseline" => {
                        match rest.get(i + 1) {
                            Some(&"inspector") => options.baseline_inspector = true,
                            _ => return Err(usage_err()),
                        }
                        i += 2;
                    }
                    "--schedule" => {
                        options.schedule = match rest.get(i + 1) {
                            Some(&"auto") => ScheduleChoice::Auto,
                            Some(&"static") => ScheduleChoice::Static,
                            Some(&"dynamic") => ScheduleChoice::Dynamic,
                            _ => return Err(usage_err()),
                        };
                        i += 2;
                    }
                    "--engine" => {
                        // Any name is accepted here; the registry decides at
                        // execution time (unknown names exit with code 5 and
                        // the list of what is registered).
                        let name = rest.get(i + 1).ok_or_else(usage_err)?;
                        if name.starts_with("--") {
                            return Err(usage_err());
                        }
                        options.engine = Some(name.to_string());
                        i += 2;
                    }
                    "--opt-level" => {
                        options.opt_level = rest
                            .get(i + 1)
                            .and_then(|v| OptLevel::from_flag(v))
                            .ok_or_else(usage_err)?;
                        i += 2;
                    }
                    "--policy" => {
                        options.policy = match rest.get(i + 1) {
                            Some(&"default") => PolicyFlag::Default,
                            Some(&"tuned") => PolicyFlag::Tuned,
                            _ => return Err(usage_err()),
                        };
                        i += 2;
                    }
                    "--format" => {
                        options.format = parse_format(rest.get(i + 1))?;
                        i += 2;
                    }
                    other if !other.starts_with("--") && input.is_none() => {
                        input = Some(Input::File(other.to_string()));
                        i += 1;
                    }
                    _ => return Err(usage_err()),
                }
            }
            let input = input.ok_or_else(usage_err)?;
            Ok(Command::Run { input, options })
        }
        "tune" => {
            let rest: Vec<&str> = it.collect();
            let mut input: Option<Input> = None;
            let mut options = TuneOptions::default();
            let parse_val = |rest: &[&str], i: usize| -> Result<String, SsError> {
                rest.get(i + 1).map(|s| s.to_string()).ok_or_else(usage_err)
            };
            let mut i = 0;
            while i < rest.len() {
                match rest[i] {
                    "--kernel" => {
                        let name = parse_val(&rest, i)?;
                        input = Some(Input::Catalogue(name));
                        i += 2;
                    }
                    "--budget-trials" => {
                        let v: usize = parse_val(&rest, i)?.parse().map_err(|_| usage_err())?;
                        if v < 1 {
                            return Err(usage_err());
                        }
                        options.budget_trials = Some(v);
                        i += 2;
                    }
                    "--repeats" => {
                        let v: usize = parse_val(&rest, i)?.parse().map_err(|_| usage_err())?;
                        if v < 1 {
                            return Err(usage_err());
                        }
                        options.repeats = v;
                        i += 2;
                    }
                    "--threads" => {
                        let v: usize = parse_val(&rest, i)?.parse().map_err(|_| usage_err())?;
                        if v < 1 {
                            return Err(usage_err());
                        }
                        options.threads = Some(v);
                        i += 2;
                    }
                    "--n" => {
                        let v: i64 = parse_val(&rest, i)?.parse().map_err(|_| usage_err())?;
                        if v < 1 {
                            return Err(usage_err());
                        }
                        options.scale = v;
                        i += 2;
                    }
                    "--seed" => {
                        options.seed = parse_val(&rest, i)?.parse().map_err(|_| usage_err())?;
                        i += 2;
                    }
                    "--trial-seed" => {
                        options.trial_seed =
                            parse_val(&rest, i)?.parse().map_err(|_| usage_err())?;
                        i += 2;
                    }
                    "--format" => {
                        options.format = parse_format(rest.get(i + 1))?;
                        i += 2;
                    }
                    other if !other.starts_with("--") && input.is_none() => {
                        input = Some(Input::File(other.to_string()));
                        i += 1;
                    }
                    _ => return Err(usage_err()),
                }
            }
            let input = input.ok_or_else(usage_err)?;
            Ok(Command::Tune { input, options })
        }
        "analyze" | "trace" => {
            let rest: Vec<&str> = it.collect();
            let mut input: Option<Input> = None;
            let mut baseline = false;
            let mut no_source = false;
            let mut dump_bytecode = false;
            // The env flag serves wrappers that cannot edit the argument
            // vector (bench scripts, CI harnesses).
            let mut profile =
                cmd == "analyze" && std::env::var("SSPAR_PROFILE").is_ok_and(|v| v != "0");
            let mut opt_level = OptLevel::O1;
            let mut format = OutputFormat::Text;
            let mut i = 0;
            while i < rest.len() {
                match rest[i] {
                    "--kernel" => {
                        let name = rest.get(i + 1).ok_or_else(usage_err)?;
                        input = Some(Input::Catalogue(name.to_string()));
                        i += 2;
                    }
                    "--baseline" => {
                        baseline = true;
                        i += 1;
                    }
                    "--no-source" => {
                        no_source = true;
                        i += 1;
                    }
                    "--dump-bytecode" if cmd == "analyze" => {
                        dump_bytecode = true;
                        i += 1;
                    }
                    "--profile" if cmd == "analyze" => {
                        profile = true;
                        i += 1;
                    }
                    "--opt-level" if cmd == "analyze" => {
                        opt_level = rest
                            .get(i + 1)
                            .and_then(|v| OptLevel::from_flag(v))
                            .ok_or_else(usage_err)?;
                        i += 2;
                    }
                    "--format" if cmd == "analyze" => {
                        format = parse_format(rest.get(i + 1))?;
                        i += 2;
                    }
                    other if !other.starts_with("--") && input.is_none() => {
                        input = Some(Input::File(other.to_string()));
                        i += 1;
                    }
                    _ => return Err(usage_err()),
                }
            }
            let input = input.ok_or_else(usage_err)?;
            if cmd == "analyze" {
                Ok(Command::Analyze {
                    input,
                    baseline,
                    no_source,
                    dump_bytecode,
                    profile,
                    opt_level,
                    format,
                })
            } else {
                Ok(Command::Trace { input })
            }
        }
        "--help" | "-h" | "help" => Err(usage_err()),
        other => Err(SsError::Usage(format!(
            "unknown command '{other}'\n\n{}",
            usage()
        ))),
    }
}

/// Runs the parsed command, returning the text to print.
pub fn execute(cmd: &Command, reader: &dyn SourceReader) -> Result<String, SsError> {
    match cmd {
        Command::Study => Ok(study_text()),
        Command::Kernels => Ok(kernels_text()),
        Command::Engines { format } => Ok(engines_text(*format)),
        Command::Analyze {
            input,
            baseline,
            no_source,
            dump_bytecode,
            profile,
            opt_level,
            format,
        } => {
            let (name, source) = resolve_input(input, reader)?;
            analyze_text(
                &name,
                &source,
                *baseline,
                *no_source,
                *dump_bytecode,
                *profile,
                *opt_level,
                *format,
            )
        }
        Command::Trace { input } => {
            let (name, source) = resolve_input(input, reader)?;
            trace_text(&name, &source)
        }
        Command::Run { input, options } => {
            let (name, source) = resolve_input(input, reader)?;
            run_text(&name, &source, options)
        }
        Command::Tune { input, options } => {
            let (name, source) = resolve_input(input, reader)?;
            tune_text(&name, &source, options)
        }
        Command::Serve { options } => serve_text(options),
        Command::Request { line, addr } => request_text(line, addr),
    }
}

/// Runs the daemon in-process until a `shutdown` request drains it.  The
/// bound address goes to stderr immediately (stdout is the command's
/// *result*, which only exists once the daemon exits).
fn serve_text(options: &ServeOptions) -> Result<String, SsError> {
    let config = ss_daemon::DaemonConfig {
        addr: options.addr.clone(),
        workers: options.workers,
        shards: options.shards,
        queue: options.queue,
        cache_capacity: options.cache_capacity,
        cache_capacity_bytes: options.cache_capacity_bytes,
        ..ss_daemon::DaemonConfig::default()
    };
    let mut daemon = ss_daemon::start(config).map_err(|e| SsError::Io {
        path: options.addr.clone(),
        message: e.to_string(),
    })?;
    let addr = daemon.local_addr();
    eprintln!("sspard: listening on {addr}");
    daemon.join();
    Ok(format!("sspard: drained, listener {addr} closed\n"))
}

/// Sends one raw NDJSON line to a running daemon, returning the response
/// line (the op's stable JSON envelope) with a trailing newline.
fn request_text(line: &str, addr: &str) -> Result<String, SsError> {
    let mut response = ss_daemon::request(addr, line).map_err(|e| SsError::Io {
        path: addr.to_string(),
        message: e.to_string(),
    })?;
    response.push('\n');
    Ok(response)
}

/// Parses the arguments and runs the command in one step (what `main`
/// does).  Exit through [`SsError::exit_code`] on `Err`.
pub fn run(args: &[String], reader: &dyn SourceReader) -> Result<String, SsError> {
    execute(&parse_args(args)?, reader)
}

fn resolve_input(input: &Input, reader: &dyn SourceReader) -> Result<(String, String), SsError> {
    match input {
        Input::File(path) => Ok((
            path.clone(),
            reader.read(path).map_err(|message| SsError::Io {
                path: path.clone(),
                message,
            })?,
        )),
        Input::Catalogue(name) => {
            let kernel = ss_npb::study_kernels()
                .into_iter()
                .find(|k| k.name == name)
                .ok_or_else(|| SsError::UnknownKernel(name.clone()))?;
            Ok((kernel.name.to_string(), kernel.source.to_string()))
        }
    }
}

/// The verdict column of the text tables, derived from the report's own
/// classification.
fn verdict_cell(l: &ss_parallelizer::LoopReport) -> String {
    match l.verdict() {
        VerdictKind::Parallel => "PARALLEL".to_string(),
        VerdictKind::Reduction => {
            format!("PARALLEL (reduction {})", l.reduction_clause())
        }
        VerdictKind::Serial => "serial".to_string(),
    }
}

#[allow(clippy::too_many_arguments)]
fn analyze_text(
    name: &str,
    source: &str,
    baseline: bool,
    no_source: bool,
    dump_bytecode: bool,
    profile: bool,
    opt_level: OptLevel,
    format: OutputFormat,
) -> Result<String, SsError> {
    // One pipeline invocation — served from the session cache when this
    // process has compiled the identical source before — feeds the verdict
    // table, the facts and the bytecode dump, so the L<n> loop ids in the
    // listing always match and nothing below recompiles.
    let artifacts = session().artifacts(name, source)?;
    if format == OutputFormat::Json {
        let mut out = analysis_json(&artifacts);
        out.push('\n');
        return Ok(out);
    }
    let report = &artifacts.report;
    let mut out = String::new();
    out.push_str(&format!("== {name}: per-loop verdicts ==\n"));
    for l in &report.loops {
        out.push_str(&format!(
            "loop {:<3} (depth {}, index '{}'): {}\n",
            l.loop_id.0,
            l.depth,
            l.index_var,
            verdict_cell(l)
        ));
        if baseline {
            out.push_str(&format!(
                "    baseline (no index-array properties): {}\n",
                if l.baseline_parallel {
                    "parallel"
                } else {
                    "serial"
                }
            ));
        }
        for r in &l.reasons {
            out.push_str(&format!("    + {r}\n"));
        }
        for b in &l.blockers {
            out.push_str(&format!("    - {b}\n"));
        }
    }
    out.push_str("\n== derived index-array facts ==\n");
    out.push_str(&format!("{}\n", report.final_db));
    out.push_str(&format!(
        "\n== pipeline stages (analyze -> slots -> bytecode -> opt) ==\n{}\n",
        artifacts.stage_summary()
    ));
    if !no_source {
        out.push_str("\n== annotated source ==\n");
        out.push_str(&report.annotated_source);
        if !report.annotated_source.ends_with('\n') {
            out.push('\n');
        }
    }
    if dump_bytecode {
        out.push_str(&format!(
            "\n== register-machine bytecode ({opt_level}) ==\n"
        ));
        out.push_str(&artifacts.bytecode_at(opt_level).disassemble());
    }
    if profile {
        out.push_str(&profile_text(name, source, opt_level)?);
    }
    Ok(out)
}

/// Executes the program once (bytecode engine, serial, synthesized
/// inputs) with instruction-pair profiling on and renders the hottest
/// dynamically adjacent pairs — the fusion candidates a profile-guided
/// superinstruction pass would consider next.
fn profile_text(name: &str, source: &str, opt_level: OptLevel) -> Result<String, SsError> {
    const PROFILE_SCALE: i64 = 64;
    const TOP_PAIRS: usize = 12;
    reset_pair_counts();
    set_pair_profiling(true);
    let result = session().run(
        &RunRequest::new(name, source)
            .engine("bytecode")
            .opt_level(opt_level)
            .scale(PROFILE_SCALE)
            .mode(ExecutionMode::Serial),
    );
    set_pair_profiling(false);
    result?;
    let mut out = String::new();
    out.push_str(&format!(
        "\n== hottest instruction pairs ({opt_level}, dynamic order, n={PROFILE_SCALE}) ==\n"
    ));
    let pairs = top_instruction_pairs(TOP_PAIRS);
    if pairs.is_empty() {
        out.push_str("(no instruction pairs executed)\n");
    }
    for (prev, next, count) in pairs {
        out.push_str(&format!("{count:>12}  {prev} -> {next}\n"));
    }
    Ok(out)
}

fn trace_text(name: &str, source: &str) -> Result<String, SsError> {
    let program = parse_program(name, source)?;
    let analysis = analyze_program(&program);
    let mut out = String::new();
    out.push_str(&format!("== {name}: Phase 1 / Phase 2 trace ==\n"));
    let mut ids: Vec<LoopId> = analysis.collapsed.keys().copied().collect();
    ids.sort_by_key(|id| id.0);
    for id in ids {
        let collapsed = &analysis.collapsed[&id];
        out.push_str(&format!(
            "\nloop {} (index '{}'):\n",
            id.0, collapsed.index_var
        ));
        if let Some(p1) = analysis.phase1.get(&id) {
            out.push_str("  phase 1 (one iteration):\n");
            let mut scalars: Vec<_> = p1.scalars.iter().collect();
            scalars.sort_by(|a, b| a.0.cmp(b.0));
            for (name, range) in scalars {
                out.push_str(&format!("    {name}: {range}\n"));
            }
            for w in &p1.writes {
                out.push_str(&format!("    {}[{}] = {}\n", w.array, w.subscript, w.value));
            }
        }
        out.push_str("  phase 2 (whole loop):\n");
        let mut scalars: Vec<_> = collapsed.scalar_exit.iter().collect();
        scalars.sort_by(|a, b| a.0.cmp(b.0));
        for (name, range) in scalars {
            out.push_str(&format!("    {name}: {range}\n"));
        }
        for fact in &collapsed.array_facts {
            out.push_str(&format!("    {fact}\n"));
        }
        for a in &collapsed.clobbered_arrays {
            out.push_str(&format!("    {a}: ⊥ (clobbered)\n"));
        }
        for s in &collapsed.clobbered_scalars {
            out.push_str(&format!("    {s}: ⊥ (clobbered)\n"));
        }
    }
    out.push_str("\n== facts at end of program ==\n");
    out.push_str(&format!("{}\n", analysis.db));
    Ok(out)
}

/// Searches the policy space for one kernel, prints the trial table and
/// the winner, and leaves the winner persisted in the session cache —
/// `sspar run --policy tuned` on the same (program, input shape)
/// reapplies it without re-searching.
fn tune_text(name: &str, source: &str, options: &TuneOptions) -> Result<String, SsError> {
    let mut request = RunRequest::new(name, source)
        .scale(options.scale)
        .seed(options.seed);
    if let Some(threads) = options.threads {
        request = request.threads(threads);
    }
    let config = TunerConfig {
        budget_trials: options.budget_trials,
        repeats: options.repeats,
        seed: options.trial_seed,
        ..TunerConfig::default()
    };
    let outcome = session().tune(&request, &config)?;
    if options.format == OutputFormat::Json {
        let mut out = outcome.to_json();
        out.push('\n');
        return Ok(out);
    }
    let policy = &outcome.policy;
    let mut out = String::new();
    out.push_str(&format!(
        "== {name}: policy search at scale n={} seed={} (shape signature {:016x}) ==\n\n",
        options.scale, options.seed, outcome.signature
    ));
    out.push_str(&format!("{:<34} {:>12}\n", "policy", "median s"));
    for (i, t) in policy.trials.iter().enumerate() {
        let mut notes = Vec::new();
        if i == 0 {
            notes.push("default");
        }
        if t.point == policy.point {
            notes.push("winner");
        }
        out.push_str(&format!(
            "{:<34} {:>12.6}{}\n",
            t.point.label(),
            t.median_seconds,
            if notes.is_empty() {
                String::new()
            } else {
                format!("   <- {}", notes.join(", "))
            }
        ));
    }
    for p in &policy.pruned {
        out.push_str(&format!("pruned: {p}\n"));
    }
    out.push_str(&format!(
        "\nwinner: {} (median {:.6}s, {:.2}x vs default {:.6}s)\n",
        policy.point.label(),
        policy.median_seconds,
        policy.speedup_vs_default(),
        policy.default_median_seconds
    ));
    out.push_str(&format!(
        "provenance: {}\n",
        if outcome.cache_hit {
            "tuned-cache (persisted policy reapplied, no re-search)"
        } else {
            "tuned-search (fresh search, winner persisted)"
        }
    ));
    Ok(out)
}

fn run_text(name: &str, source: &str, options: &RunOptions) -> Result<String, SsError> {
    // One session request runs the whole differential matrix off one
    // (cached) pipeline invocation — nothing below recompiles.
    let mut request = RunRequest::new(name, source)
        .scale(options.scale)
        .seed(options.seed)
        .schedule(options.schedule)
        .opt_level(options.opt_level)
        .baseline_inspector(options.baseline_inspector)
        .validation(ValidationMode::Differential);
    if options.policy == PolicyFlag::Tuned {
        request = request.policy(RunPolicy::Tuned);
    }
    if let Some(engine) = &options.engine {
        request = request.engine(engine.clone());
    }
    if let Some(threads) = options.threads {
        request = request.threads(threads);
    }
    let outcome = session().run(&request)?;
    if options.validate {
        outcome.ensure_validated()?;
    }
    if options.format == OutputFormat::Json {
        let mut out = outcome.to_json();
        out.push('\n');
        return Ok(out);
    }

    // Report the engine that actually executed: the parallel leg is
    // redirected under the inspector baseline, and opt-level-sensitive
    // engines show which stream they ran.
    let resolved = session().registry().get(&outcome.engine)?;
    let engine_name = if options.baseline_inspector {
        format!(
            "{} (inspector baseline)",
            outcome.parallel_engine.as_deref().unwrap_or("?")
        )
    } else if resolved.caps().opt_levels.len() > 1 {
        format!("{} ({})", outcome.engine, outcome.opt_level)
    } else {
        outcome.engine.clone()
    };
    let serial_stats = outcome.serial.as_ref().expect("differential runs serially");
    let parallel_stats = outcome
        .parallel
        .as_ref()
        .expect("differential runs in parallel");
    let mut out = String::new();
    out.push_str(&format!(
        "== {name}: executed with scale n={} seed={} on {} thread(s), {engine_name} engine ==\n",
        options.scale, options.seed, outcome.threads
    ));
    if outcome.policy != "default" {
        out.push_str(&format!(
            "policy: {} ({})\n",
            outcome.policy,
            outcome.policy_provenance.as_deref().unwrap_or("-")
        ));
    }
    out.push('\n');
    out.push_str(&format!(
        "{:<6} {:<7} {:<10} {:<18} {:>12} {:>12} {:>9}\n",
        "loop", "index", "verdict", "execution", "serial s", "parallel s", "speedup"
    ));
    for v in &outcome.verdicts {
        let verdict = match v.verdict {
            VerdictKind::Parallel => "PARALLEL",
            VerdictKind::Reduction => "REDUCTION",
            VerdictKind::Serial => "serial",
        };
        let (mode, inspected) = match parallel_stats.loops.get(&v.loop_id) {
            Some(s) => (
                match s.mode {
                    ExecMode::Serial => "serial".to_string(),
                    ExecMode::Parallel { threads, dynamic } => format!(
                        "{} x{threads} threads",
                        if dynamic { "dynamic" } else { "static" }
                    ),
                },
                s.inspector_conflict_free,
            ),
            // Inner loops of dispatched bodies are accounted to their
            // dispatched ancestor.
            None => ("(inside parallel)".to_string(), None),
        };
        let serial_s = serial_stats
            .loops
            .get(&v.loop_id)
            .map(|s| s.seconds)
            .unwrap_or(0.0);
        let parallel_s = parallel_stats
            .loops
            .get(&v.loop_id)
            .map(|s| s.seconds)
            .unwrap_or(0.0);
        let speedup = if parallel_s > 0.0 && parallel_stats.loops.contains_key(&v.loop_id) {
            format!("{:.2}x", serial_s / parallel_s)
        } else {
            "-".to_string()
        };
        out.push_str(&format!(
            "L{:<5} {:<7} {:<10} {:<18} {:>12.6} {:>12.6} {:>9}\n",
            v.loop_id.0, v.index_var, verdict, mode, serial_s, parallel_s, speedup
        ));
        if let Some((levels, avg_width)) = parallel_stats
            .loops
            .get(&v.loop_id)
            .and_then(|s| s.wavefront)
        {
            out.push_str(&format!(
                "       wavefront: {levels} level(s), avg width {avg_width:.1}\n"
            ));
        }
        if let Some(cf) = inspected {
            out.push_str(&format!(
                "       runtime inspector baseline: {}\n",
                if cf {
                    "would parallelize (conflict-free at runtime)"
                } else {
                    "refuses (cross-iteration conflicts observed)"
                }
            ));
        }
    }
    out.push_str(&format!(
        "\ntotal: serial {:.6}s, parallel {:.6}s, speedup {:.2}x\n",
        serial_stats.total_seconds,
        parallel_stats.total_seconds,
        outcome.speedup().unwrap_or(0.0)
    ));
    if let Some(v) = &outcome.validation {
        if v.heaps_match {
            out.push_str(&format!(
                "validation: PASS (reference and {} final heaps are bit-identical)\n",
                v.compared.join(", ")
            ));
        } else {
            out.push_str(
                "validation: FAIL (heaps diverge; rerun with --validate to exit nonzero)\n",
            );
            for m in &v.mismatches {
                out.push_str(&format!("  {m}\n"));
            }
        }
    }
    Ok(out)
}

fn engines_text(format: OutputFormat) -> String {
    let registry = session().registry();
    if format == OutputFormat::Json {
        let mut out = registry_json(registry);
        out.push('\n');
        return out;
    }
    let mut out = String::new();
    out.push_str(&format!(
        "{:<10} {:<8} {:<55} capabilities\n",
        "engine", "default", "description"
    ));
    for (i, e) in registry.iter().enumerate() {
        let caps = e.caps();
        let mut flags = Vec::new();
        if caps.reference {
            flags.push("reference".to_string());
        }
        if caps.reductions {
            flags.push("reductions".to_string());
        }
        if caps.local_arrays {
            flags.push("local-arrays".to_string());
        }
        if caps.inspector_baseline {
            flags.push("inspector-baseline".to_string());
        }
        if caps.persistent_team {
            flags.push("persistent-team".to_string());
        }
        if caps.level_sets {
            flags.push("level-sets".to_string());
        }
        flags.push(format!(
            "opt-levels:{}",
            caps.opt_levels
                .iter()
                .map(|l| l.to_string())
                .collect::<Vec<_>>()
                .join("/")
        ));
        out.push_str(&format!(
            "{:<10} {:<8} {:<55} {}\n",
            e.name(),
            if i == 0 { "*" } else { "" },
            e.description(),
            flags.join(", ")
        ));
    }
    out
}

fn study_text() -> String {
    let inputs: Vec<StudyInput> = ss_npb::study_kernels()
        .into_iter()
        .map(|k| StudyInput {
            name: k.name.to_string(),
            program: k.program.to_string(),
            suite: format!("{:?}", k.suite),
            pattern: k.class.label().to_string(),
            source: k.source.to_string(),
            target_loop: k.target_loop,
        })
        .collect();
    run_study(&inputs).render()
}

fn kernels_text() -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<24} {:<26} {:<30} {:>11}\n",
        "kernel", "program", "pattern", "target loop"
    ));
    for k in ss_npb::study_kernels() {
        out.push_str(&format!(
            "{:<24} {:<26} {:<30} {:>11}\n",
            k.name,
            k.program,
            k.class.label(),
            k.target_loop
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    struct MapReader(HashMap<String, String>);

    impl SourceReader for MapReader {
        fn read(&self, path: &str) -> Result<String, String> {
            self.0
                .get(path)
                .cloned()
                .ok_or_else(|| format!("no such file: {path}"))
        }
    }

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    const FIG2: &str = r#"
        for (e = 0; e < nelt; e++) { mt_to_id[e] = e; }
        for (miel = 0; miel < nelt; miel++) {
            iel = mt_to_id[miel];
            id_to_mt[iel] = miel;
        }
    "#;

    #[test]
    fn parse_args_recognizes_every_command() {
        assert_eq!(parse_args(&args(&["study"])).unwrap(), Command::Study);
        assert_eq!(parse_args(&args(&["kernels"])).unwrap(), Command::Kernels);
        assert_eq!(
            parse_args(&args(&["engines"])).unwrap(),
            Command::Engines {
                format: OutputFormat::Text
            }
        );
        assert_eq!(
            parse_args(&args(&["engines", "--format", "json"])).unwrap(),
            Command::Engines {
                format: OutputFormat::Json
            }
        );
        assert_eq!(
            parse_args(&args(&["analyze", "k.c"])).unwrap(),
            Command::Analyze {
                input: Input::File("k.c".into()),
                baseline: false,
                no_source: false,
                dump_bytecode: false,
                profile: false,
                opt_level: OptLevel::O1,
                format: OutputFormat::Text,
            }
        );
        assert_eq!(
            parse_args(&args(&[
                "analyze",
                "--kernel",
                "fig9_csr_product",
                "--baseline",
                "--no-source",
                "--dump-bytecode",
                "--profile",
                "--opt-level",
                "0",
                "--format",
                "json"
            ]))
            .unwrap(),
            Command::Analyze {
                input: Input::Catalogue("fig9_csr_product".into()),
                baseline: true,
                no_source: true,
                dump_bytecode: true,
                profile: true,
                opt_level: OptLevel::O0,
                format: OutputFormat::Json,
            }
        );
        assert_eq!(
            parse_args(&args(&["trace", "k.c"])).unwrap(),
            Command::Trace {
                input: Input::File("k.c".into())
            }
        );
    }

    #[test]
    fn parse_args_rejects_bad_invocations() {
        assert!(matches!(parse_args(&[]), Err(SsError::Usage(_))));
        assert!(matches!(
            parse_args(&args(&["frobnicate"])),
            Err(SsError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&args(&["analyze"])),
            Err(SsError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&args(&["analyze", "--kernel"])),
            Err(SsError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&args(&["analyze", "k.c", "--bogus"])),
            Err(SsError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&args(&["analyze", "k.c", "--format", "yaml"])),
            Err(SsError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&args(&["engines", "--bogus"])),
            Err(SsError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&args(&["--help"])),
            Err(SsError::Usage(_))
        ));
    }

    #[test]
    fn analyze_reports_the_figure2_verdict() {
        let reader = MapReader(HashMap::from([("fig2.c".to_string(), FIG2.to_string())]));
        let out = run(&args(&["analyze", "fig2.c", "--baseline"]), &reader).unwrap();
        assert!(out.contains("loop 1"));
        assert!(out.contains("PARALLEL"));
        assert!(out.contains("baseline (no index-array properties): serial"));
        assert!(out.contains("#pragma omp parallel for"));
        assert!(out.contains("mt_to_id"));
    }

    #[test]
    fn analyze_format_json_emits_the_stable_schema() {
        let reader = MapReader(HashMap::from([("fig2.c".to_string(), FIG2.to_string())]));
        let out = run(&args(&["analyze", "fig2.c", "--format", "json"]), &reader).unwrap();
        for key in [
            "\"program\":\"fig2.c\"",
            "\"verdicts\":[",
            "\"verdict\":\"parallel\"",
            "\"newly_enabled\":true",
            "\"stages\":[{\"stage\":\"analyze\"",
            "\"annotated_source\":",
            "#pragma omp parallel for",
        ] {
            assert!(out.contains(key), "missing {key} in {out}");
        }
        assert!(out.ends_with('\n'));
        // No text-table artifacts in the JSON output.
        assert!(!out.contains("== "));
    }

    #[test]
    fn engines_lists_the_registry_with_capabilities() {
        let reader = MapReader(HashMap::new());
        let out = run(&args(&["engines"]), &reader).unwrap();
        // Every registered engine appears, flagged from its own caps —
        // the list cannot drift from what --engine accepts.
        for e in session().registry().iter() {
            assert!(out.contains(e.name()), "{out}");
            assert!(out.contains(e.description()), "{out}");
        }
        assert!(out.contains("reference"));
        assert!(out.contains("persistent-team"));
        assert!(out.contains("opt-levels:O0/O1"));
        let json = run(&args(&["engines", "--format", "json"]), &reader).unwrap();
        assert!(json.contains("\"engines\":["), "{json}");
        assert!(json.contains("\"default\":true"), "{json}");
        assert!(json.contains("\"opt_levels\":[\"O0\",\"O1\"]"), "{json}");
    }

    #[test]
    fn no_source_suppresses_the_annotated_listing() {
        let reader = MapReader(HashMap::from([("fig2.c".to_string(), FIG2.to_string())]));
        let out = run(&args(&["analyze", "fig2.c", "--no-source"]), &reader).unwrap();
        assert!(!out.contains("annotated source"));
        assert!(!out.contains("#pragma"));
    }

    #[test]
    fn analyze_by_catalogue_name_works_and_unknown_names_fail() {
        let reader = MapReader(HashMap::new());
        let out = run(&args(&["analyze", "--kernel", "fig9_csr_product"]), &reader).unwrap();
        assert!(out.contains("rowptr"));
        assert!(out.contains("PARALLEL"));
        let err = run(&args(&["analyze", "--kernel", "not_a_kernel"]), &reader).unwrap_err();
        assert!(matches!(err, SsError::UnknownKernel(_)));
    }

    #[test]
    fn dump_bytecode_prints_the_register_machine_listing() {
        let reader = MapReader(HashMap::new());
        let out = run(
            &args(&[
                "analyze",
                "--kernel",
                "fig9_csr_product",
                "--no-source",
                "--dump-bytecode",
            ]),
            &reader,
        )
        .unwrap();
        assert!(
            out.contains("== register-machine bytecode (O1) =="),
            "{out}"
        );
        assert!(out.contains("const["), "{out}");
        assert!(out.contains("for      L"), "{out}");
        // The default (O1) listing carries the fused superinstructions; the
        // O0 listing carries none.
        assert!(out.contains("cmpbr"), "{out}");
        let o0 = run(
            &args(&[
                "analyze",
                "--kernel",
                "fig9_csr_product",
                "--no-source",
                "--dump-bytecode",
                "--opt-level",
                "0",
            ]),
            &reader,
        )
        .unwrap();
        assert!(o0.contains("== register-machine bytecode (O0) =="), "{o0}");
        assert!(!o0.contains("cmpbr"), "{o0}");
        assert!(!o0.contains("load2"), "{o0}");
        // trace does not accept the flags
        for flag in ["--dump-bytecode", "--opt-level", "--profile"] {
            assert!(matches!(
                run(
                    &args(&["trace", "--kernel", "fig9_csr_product", flag]),
                    &reader
                ),
                Err(SsError::Usage(_))
            ));
        }
    }

    #[test]
    fn profile_prints_the_hottest_instruction_pairs() {
        let reader = MapReader(HashMap::new());
        let out = run(
            &args(&[
                "analyze",
                "--kernel",
                "fig9_csr_product",
                "--no-source",
                "--profile",
            ]),
            &reader,
        )
        .unwrap();
        assert!(out.contains("== hottest instruction pairs (O1"), "{out}");
        // A counted loop's hot path necessarily executes adjacent pairs;
        // at least one `prev -> next` line with a count must appear.
        // (Counts are process-wide, so only presence is asserted.)
        assert!(out.contains(" -> "), "{out}");
    }

    #[test]
    fn analyze_prints_the_pipeline_stage_trace() {
        let reader = MapReader(HashMap::new());
        let out = run(
            &args(&["analyze", "--kernel", "fig9_csr_product", "--no-source"]),
            &reader,
        )
        .unwrap();
        assert!(out.contains("== pipeline stages"), "{out}");
        for stage in ["analyze", "slots", "bytecode", "opt"] {
            assert!(out.contains(stage), "{out}");
        }
    }

    #[test]
    fn trace_shows_the_section_3_5_derivation() {
        let reader = MapReader(HashMap::new());
        let out = run(&args(&["trace", "--kernel", "fig9_csr_product"]), &reader).unwrap();
        assert!(out.contains("phase 1 (one iteration)"));
        assert!(out.contains("phase 2 (whole loop)"));
        assert!(out.contains("Monotonic_inc"));
        assert!(out.contains("count"));
    }

    #[test]
    fn study_and_kernels_render_the_catalogue() {
        let reader = MapReader(HashMap::new());
        let study = run(&args(&["study"]), &reader).unwrap();
        assert!(study.contains("fig2_ua_transfer"));
        assert!(study.contains("parallelized by the extended analysis"));
        let kernels = run(&args(&["kernels"]), &reader).unwrap();
        assert!(kernels.contains("csparse_ipvec"));
        assert!(kernels.contains("is_bucket_traversal"));
    }

    #[test]
    fn parse_args_recognizes_serve_and_request() {
        assert_eq!(
            parse_args(&args(&["serve"])).unwrap(),
            Command::Serve {
                options: ServeOptions::default()
            }
        );
        assert_eq!(
            parse_args(&args(&[
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "2",
                "--shards",
                "4",
                "--queue",
                "8",
                "--cache-capacity",
                "16",
                "--cache-capacity-bytes",
                "1048576",
            ]))
            .unwrap(),
            Command::Serve {
                options: ServeOptions {
                    addr: "127.0.0.1:0".into(),
                    workers: 2,
                    shards: 4,
                    queue: 8,
                    cache_capacity: Some(16),
                    cache_capacity_bytes: Some(1048576),
                }
            }
        );
        assert_eq!(
            parse_args(&args(&[
                "request",
                r#"{"op":"stats"}"#,
                "--addr",
                "127.0.0.1:9"
            ]))
            .unwrap(),
            Command::Request {
                line: r#"{"op":"stats"}"#.into(),
                addr: "127.0.0.1:9".into(),
            }
        );
        for bad in [
            vec!["serve", "--workers"],
            vec!["serve", "--workers", "x"],
            vec!["serve", "--bogus"],
            vec!["request"],
            vec!["request", "{}", "{}"],
            vec!["request", "{}", "--addr"],
        ] {
            assert!(
                matches!(parse_args(&args(&bad)), Err(SsError::Usage(_))),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn request_round_trips_against_a_live_daemon() {
        let daemon = ss_daemon::start(ss_daemon::DaemonConfig::default()).expect("bind");
        let addr = daemon.local_addr().to_string();
        let reader = MapReader(HashMap::new());
        let out = run(
            &args(&["request", r#"{"op":"engines"}"#, "--addr", &addr]),
            &reader,
        )
        .unwrap();
        assert!(out.starts_with(r#"{"ok":true"#), "{out}");
        assert!(out.contains("\"bytecode\""), "{out}");
        assert!(out.ends_with('\n'));

        // The daemon's run response and `sspar run --format json` emit
        // the same schema through the same serializer.
        let daemon_run = run(
            &args(&[
                "request",
                r#"{"op":"run","kernel":"fig2_ua_transfer","threads":2,"scale":64}"#,
                "--addr",
                &addr,
            ]),
            &reader,
        )
        .unwrap();
        for key in [
            "\"program\":\"fig2_ua_transfer\"",
            "\"engine\":\"bytecode\"",
            "\"stages\":[",
            "\"dispatched\":[",
        ] {
            assert!(daemon_run.contains(key), "missing {key} in {daemon_run}");
        }

        // Unreachable daemons surface as Io with exit code 3.
        drop(daemon);
        let err = run(
            &args(&["request", r#"{"op":"stats"}"#, "--addr", "127.0.0.1:1"]),
            &reader,
        )
        .unwrap_err();
        assert!(matches!(err, SsError::Io { .. }));
        assert_eq!(err.exit_code(), 3);
    }

    #[test]
    fn parse_args_recognizes_run_with_options() {
        assert_eq!(
            parse_args(&args(&[
                "run",
                "k.c",
                "--threads",
                "4",
                "--n",
                "128",
                "--seed",
                "9",
                "--validate",
                "--baseline",
                "inspector",
                "--schedule",
                "dynamic",
                "--engine",
                "ast",
                "--opt-level",
                "0",
                "--policy",
                "tuned",
                "--format",
                "json"
            ]))
            .unwrap(),
            Command::Run {
                input: Input::File("k.c".into()),
                options: RunOptions {
                    threads: Some(4),
                    scale: 128,
                    seed: 9,
                    validate: true,
                    baseline_inspector: true,
                    schedule: ScheduleChoice::Dynamic,
                    engine: Some("ast".into()),
                    opt_level: OptLevel::O0,
                    policy: PolicyFlag::Tuned,
                    format: OutputFormat::Json,
                },
            }
        );
        assert_eq!(
            parse_args(&args(&["run", "--kernel", "fig2_ua_transfer"])).unwrap(),
            Command::Run {
                input: Input::Catalogue("fig2_ua_transfer".into()),
                options: RunOptions::default(),
            }
        );
        for bad in [
            vec!["run"],
            vec!["run", "k.c", "--threads"],
            vec!["run", "k.c", "--threads", "0"],
            vec!["run", "k.c", "--n", "0"],
            vec!["run", "k.c", "--baseline", "lrpd"],
            vec!["run", "k.c", "--schedule", "guided"],
            vec!["run", "k.c", "--engine"],
            vec!["run", "k.c", "--engine", "--validate"],
            vec!["run", "k.c", "--opt-level", "2"],
            vec!["run", "k.c", "--opt-level"],
            vec!["run", "k.c", "--policy", "fastest"],
            vec!["run", "k.c", "--policy"],
            vec!["run", "k.c", "--format", "xml"],
        ] {
            assert!(
                matches!(parse_args(&args(&bad)), Err(SsError::Usage(_))),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn parse_args_recognizes_tune() {
        assert_eq!(
            parse_args(&args(&["tune", "--kernel", "sptrsv_levels"])).unwrap(),
            Command::Tune {
                input: Input::Catalogue("sptrsv_levels".into()),
                options: TuneOptions::default(),
            }
        );
        assert_eq!(
            parse_args(&args(&[
                "tune",
                "k.c",
                "--budget-trials",
                "6",
                "--repeats",
                "2",
                "--threads",
                "2",
                "--n",
                "64",
                "--seed",
                "7",
                "--trial-seed",
                "3",
                "--format",
                "json"
            ]))
            .unwrap(),
            Command::Tune {
                input: Input::File("k.c".into()),
                options: TuneOptions {
                    budget_trials: Some(6),
                    repeats: 2,
                    threads: Some(2),
                    scale: 64,
                    seed: 7,
                    trial_seed: 3,
                    format: OutputFormat::Json,
                },
            }
        );
        for bad in [
            vec!["tune"],
            vec!["tune", "k.c", "--budget-trials", "0"],
            vec!["tune", "k.c", "--repeats", "x"],
            vec!["tune", "k.c", "--format", "xml"],
            vec!["tune", "k.c", "--bogus"],
            vec!["bench"],
        ] {
            assert!(
                matches!(parse_args(&args(&bad)), Err(SsError::Usage(_))),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn tune_searches_then_tuned_runs_reapply_the_persisted_policy() {
        let reader = MapReader(HashMap::new());
        let tune_args = args(&[
            "tune",
            "--kernel",
            "fig2_ua_transfer",
            "--n",
            "48",
            "--threads",
            "2",
            "--repeats",
            "1",
            "--budget-trials",
            "4",
        ]);
        let first = run(&tune_args, &reader).unwrap();
        assert!(first.contains("policy search"), "{first}");
        assert!(first.contains("<- default"), "{first}");
        assert!(first.contains("winner:"), "{first}");
        // The same (program, input shape) reapplies the persisted winner
        // without re-searching.
        let second = run(&tune_args, &reader).unwrap();
        assert!(second.contains("tuned-cache"), "{second}");
        // `run --policy tuned` applies it and reports the provenance.
        let run_out = run(
            &args(&[
                "run",
                "--kernel",
                "fig2_ua_transfer",
                "--n",
                "48",
                "--threads",
                "2",
                "--policy",
                "tuned",
                "--validate",
            ]),
            &reader,
        )
        .unwrap();
        assert!(run_out.contains("policy: tuned (tuned-cache)"), "{run_out}");
        assert!(run_out.contains("validation: PASS"), "{run_out}");
    }

    #[test]
    fn tune_format_json_emits_the_stable_outcome() {
        let reader = MapReader(HashMap::new());
        let out = run(
            &args(&[
                "tune",
                "--kernel",
                "csparse_ipvec",
                "--n",
                "40",
                "--repeats",
                "1",
                "--budget-trials",
                "3",
                "--format",
                "json",
            ]),
            &reader,
        )
        .unwrap();
        for key in [
            "\"program\":\"csparse_ipvec\"",
            "\"signature\":\"",
            "\"provenance\":\"tuned-",
            "\"winner\":{",
            "\"default_median_seconds\":",
            "\"speedup_vs_default\":",
            "\"trials\":[",
            "\"pruned\":[",
        ] {
            assert!(out.contains(key), "missing {key} in {out}");
        }
        assert!(out.ends_with('\n'));
    }

    #[test]
    fn run_executes_and_validates_the_figure2_kernel() {
        let reader = MapReader(HashMap::new());
        let out = run(
            &args(&[
                "run",
                "--kernel",
                "fig2_ua_transfer",
                "--threads",
                "2",
                "--n",
                "200",
                "--validate",
            ]),
            &reader,
        )
        .unwrap();
        assert!(out.contains("PARALLEL"));
        assert!(out.contains("threads"));
        assert!(out.contains("validation: PASS"));
        assert!(out.contains("speedup"));
    }

    #[test]
    fn run_validates_under_every_engine_and_opt_level() {
        let reader = MapReader(HashMap::new());
        for (engine_args, shown) in [
            (vec!["--engine", "bytecode"], "bytecode (O1) engine"),
            (
                vec!["--engine", "bytecode", "--opt-level", "0"],
                "bytecode (O0) engine",
            ),
            (vec!["--engine", "threaded"], "threaded (O1) engine"),
            (
                vec!["--engine", "threaded", "--opt-level", "0"],
                "threaded (O0) engine",
            ),
            (vec!["--engine", "compiled"], "compiled engine"),
            (vec!["--engine", "ast"], "ast engine"),
        ] {
            let mut a = vec![
                "run",
                "--kernel",
                "fig9_csr_product",
                "--threads",
                "2",
                "--n",
                "120",
                "--validate",
            ];
            a.extend(engine_args);
            let out = run(&args(&a), &reader).unwrap();
            assert!(out.contains(shown), "{out}");
            assert!(out.contains("validation: PASS"), "{shown}: {out}");
        }
    }

    #[test]
    fn run_rejects_unknown_engines_with_the_registered_list() {
        let reader = MapReader(HashMap::new());
        let err = run(
            &args(&["run", "--kernel", "fig2_ua_transfer", "--engine", "jit"]),
            &reader,
        )
        .unwrap_err();
        match &err {
            SsError::UnknownEngine { name, available } => {
                assert_eq!(name, "jit");
                assert_eq!(
                    available,
                    &session()
                        .registry()
                        .names()
                        .iter()
                        .map(|n| n.to_string())
                        .collect::<Vec<_>>()
                );
            }
            other => panic!("expected UnknownEngine, got {other:?}"),
        }
        assert_eq!(err.exit_code(), 5);
    }

    #[test]
    fn run_format_json_emits_the_run_outcome() {
        let reader = MapReader(HashMap::new());
        let out = run(
            &args(&[
                "run",
                "--kernel",
                "fig2_ua_transfer",
                "--threads",
                "2",
                "--n",
                "64",
                "--format",
                "json",
            ]),
            &reader,
        )
        .unwrap();
        for key in [
            "\"program\":\"fig2_ua_transfer\"",
            "\"engine\":\"bytecode\"",
            "\"validation\":{\"heaps_match\":true",
            "\"dispatched\":[",
        ] {
            assert!(out.contains(key), "missing {key} in {out}");
        }
    }

    #[test]
    fn analyze_and_run_report_reduction_verdicts() {
        let reader = MapReader(HashMap::new());
        let out = run(
            &args(&["analyze", "--kernel", "cg_norm_reduction"]),
            &reader,
        )
        .unwrap();
        assert!(out.contains("PARALLEL (reduction +:total)"), "{out}");
        assert!(out.contains("#pragma omp parallel for reduction(+:total)"));

        let out = run(
            &args(&[
                "run",
                "--kernel",
                "cg_norm_reduction",
                "--threads",
                "2",
                "--n",
                "100",
                "--validate",
            ]),
            &reader,
        )
        .unwrap();
        assert!(out.contains("REDUCTION"), "{out}");
        assert!(out.contains("validation: PASS"));
    }

    #[test]
    fn run_reports_inspector_baseline_on_serial_loops() {
        let reader = MapReader(HashMap::from([(
            "hist.c".to_string(),
            "for (i = 0; i < n; i++) { h[idx[i]] = i; }".to_string(),
        )]));
        let out = run(
            &args(&[
                "run",
                "hist.c",
                "--baseline",
                "inspector",
                "--n",
                "64",
                "--validate",
            ]),
            &reader,
        )
        .unwrap();
        assert!(out.contains("runtime inspector baseline"));
        assert!(out.contains("(inspector baseline)"));
        assert!(out.contains("validation: PASS"));
    }

    #[test]
    fn run_surfaces_execution_errors() {
        let reader = MapReader(HashMap::from([(
            "oob.c".to_string(),
            "x = a[0 - 5];".to_string(),
        )]));
        assert!(matches!(
            run(&args(&["run", "oob.c"]), &reader),
            Err(SsError::Runtime(_))
        ));
    }

    #[test]
    fn missing_files_and_parse_errors_are_reported() {
        let reader = MapReader(HashMap::from([(
            "bad.c".to_string(),
            "for (i = 0 i < n; i++) {}".to_string(),
        )]));
        assert!(matches!(
            run(&args(&["analyze", "nope.c"]), &reader),
            Err(SsError::Io { .. })
        ));
        assert!(matches!(
            run(&args(&["analyze", "bad.c"]), &reader),
            Err(SsError::Parse(_))
        ));
        assert!(matches!(
            run(&args(&["trace", "bad.c"]), &reader),
            Err(SsError::Parse(_))
        ));
    }

    /// The satellite fix this PR pins: every failure class exits with its
    /// own stable code, parse errors and runtime errors included — they
    /// used to share exit 1.
    #[test]
    fn exit_codes_are_routed_through_ss_error() {
        let reader = MapReader(HashMap::from([
            ("bad.c".to_string(), "for (i = 0 i < n; i++) {}".to_string()),
            ("oob.c".to_string(), "x = a[0 - 5];".to_string()),
        ]));
        let cases: Vec<(Vec<&str>, i32)> = vec![
            (vec!["frobnicate"], 2),                  // usage
            (vec!["analyze", "nope.c"], 3),           // io
            (vec!["analyze", "bad.c"], 4),            // parse
            (vec!["run", "bad.c"], 4),                // parse via run
            (vec!["analyze", "--kernel", "nope"], 5), // unknown kernel
            (
                vec!["run", "--kernel", "fig2_ua_transfer", "--engine", "jit"],
                5,
            ), // unknown engine
            (vec!["run", "oob.c"], 7),                // runtime
        ];
        for (argv, code) in cases {
            let err = run(&args(&argv), &reader).unwrap_err();
            assert_eq!(err.exit_code(), code, "{argv:?} -> {err}");
        }
        // A parse error's span survives to the CLI surface.
        let err = run(&args(&["analyze", "bad.c"]), &reader).unwrap_err();
        assert!(err.span().is_some());
    }
}
