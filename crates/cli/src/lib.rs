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
use ss_interp::request::{self, Raw, RunSpec, Surface};
use ss_interp::{
    analysis_json, registry_json, reset_pair_counts, set_pair_profiling, top_instruction_pairs,
    ExecMode, ExecutionMode, InputSource, InputSpec, OptLevel, RunRequest, Session, SsError,
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

/// The usage text.  The RUN and TUNE OPTIONS blocks are rendered from the
/// request-schema table ([`ss_interp::request::FIELDS`]) — flag, value
/// shape, help and bounds of every row the verb's surface carries — so
/// they cannot drift from what the parser accepts.
pub fn usage() -> String {
    let options =
        |surface: Surface| -> String { request::fields(surface).map(|f| f.usage_line()).collect() };
    format!(
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
         \u{20}   request   send one raw NDJSON request line to a running sspard\n\
         \u{20}             (default --addr 127.0.0.1:7878) and print the response line\n\
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
         \u{20}   --opt-level <0|1>  analyze: which bytecode stream --dump-bytecode prints\n\
         \u{20}                    and --profile executes: the base compiler's (0) or the\n\
         \u{20}                    optimized one (1, default — fused subscripted-subscript\n\
         \u{20}                    loads, compare-and-branch, constant folding)\n\
         \u{20}   --format <text|json>  analyze/engines/run/tune: output format (default\n\
         \u{20}                    text); JSON schemas are stable for downstream tooling\n\
         \n\
         RUN OPTIONS:\n\
         {}\
         \n\
         TUNE OPTIONS:\n\
         {}",
        options(Surface::CliRun),
        options(Surface::CliTune),
    )
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
        /// The run's knobs, as the request-schema table applied the flags
        /// (program left empty until `input` is resolved).  `--validate`
        /// shows as [`ValidationMode::Differential`]: the command line
        /// always runs the differential matrix, the flag decides whether
        /// a mismatch fails the command.
        spec: RunSpec,
        /// Text or JSON output.
        format: OutputFormat,
    },
    /// `sspar tune …` — search the execution-policy space and persist the
    /// winner in the session artifact cache.
    Tune {
        /// Source of the kernel text.
        input: Input,
        /// The search's knobs (request and tuner halves), as the
        /// request-schema table applied the flags.
        spec: RunSpec,
        /// Text or JSON output.
        format: OutputFormat,
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
    /// `sspar request` — one NDJSON request against a running daemon.
    Request {
        /// The raw request line (one JSON object).
        line: String,
        /// Daemon address.
        addr: String,
    },
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

/// Where the command line's knobs start: the request schema's defaults
/// except the input scale, which `sspar` has always started at 256 while
/// the wire and the embedding API start at `InputSpec::default()` (64).
/// Unifying the two is a behaviour change, left to a later issue; until
/// then the difference lives here, once.
fn cli_spec() -> RunSpec {
    let mut spec = RunSpec::default();
    spec.request = spec.request.scale(256);
    spec
}

/// The one place a request-schema flag is matched: if `rest[*i]` is a
/// flag `surface` carries, checks and applies it (with its value, for
/// every kind but bare flags) to `spec`, advances `*i` past it and
/// returns `true`; `false` leaves the argument to the verb's own flags.
fn table_flag(
    surface: Surface,
    rest: &[&str],
    i: &mut usize,
    spec: &mut RunSpec,
) -> Result<bool, SsError> {
    let Some(field) = request::lookup(surface, rest[*i]) else {
        return Ok(false);
    };
    let raw = if field.takes_value() {
        *i += 1;
        // A following flag is a missing value, not a value.
        match rest.get(*i) {
            Some(value) if !value.starts_with("--") => Raw::Arg(value),
            _ => return Err(usage_err()),
        }
    } else {
        Raw::Bool(true)
    };
    field
        .apply(spec, raw)
        .map_err(|e| SsError::Usage(format!("{} {}\n\n{}", e.flag, e.reason, usage())))?;
    *i += 1;
    Ok(true)
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
        // The verbs that take a program share one flag walk: the verb's
        // request-schema surface first, then the program selector,
        // `--format`, and `analyze`'s own booleans.
        "analyze" | "trace" | "run" | "tune" => {
            let surface = match cmd {
                "analyze" => Some(Surface::CliAnalyze),
                "run" => Some(Surface::CliRun),
                "tune" => Some(Surface::CliTune),
                _ => None,
            };
            let report = matches!(cmd, "analyze" | "trace");
            let rest: Vec<&str> = it.collect();
            let mut input: Option<Input> = None;
            let mut baseline = false;
            let mut no_source = false;
            let mut dump_bytecode = false;
            // The env flag serves wrappers that cannot edit the argument
            // vector (bench scripts, CI harnesses).
            let mut profile =
                cmd == "analyze" && std::env::var("SSPAR_PROFILE").is_ok_and(|v| v != "0");
            let mut spec = cli_spec();
            let mut format = OutputFormat::Text;
            let mut i = 0;
            while i < rest.len() {
                if let Some(surface) = surface {
                    if table_flag(surface, &rest, &mut i, &mut spec)? {
                        continue;
                    }
                }
                match rest[i] {
                    "--kernel" => {
                        let name = rest.get(i + 1).ok_or_else(usage_err)?;
                        input = Some(Input::Catalogue(name.to_string()));
                        i += 2;
                    }
                    "--format" if cmd != "trace" => {
                        format = parse_format(rest.get(i + 1))?;
                        i += 2;
                    }
                    "--baseline" if report => {
                        baseline = true;
                        i += 1;
                    }
                    "--no-source" if report => {
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
                    other if !other.starts_with("--") && input.is_none() => {
                        input = Some(Input::File(other.to_string()));
                        i += 1;
                    }
                    _ => return Err(usage_err()),
                }
            }
            let input = input.ok_or_else(usage_err)?;
            Ok(match cmd {
                "analyze" => Command::Analyze {
                    input,
                    baseline,
                    no_source,
                    dump_bytecode,
                    profile,
                    opt_level: spec.request.opt_level,
                    format,
                },
                "trace" => Command::Trace { input },
                "run" => Command::Run {
                    input,
                    spec,
                    format,
                },
                _ => Command::Tune {
                    input,
                    spec,
                    format,
                },
            })
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
        Command::Run {
            input,
            spec,
            format,
        } => run_text(program_request(input, spec, reader)?, *format),
        Command::Tune {
            input,
            spec,
            format,
        } => tune_text(program_request(input, spec, reader)?, &spec.tuner, *format),
        Command::Request { line, addr } => request_text(line, addr),
    }
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

/// The session request of a `run`/`tune`: the parsed knobs with the
/// program `input` names filled in.
fn program_request(
    input: &Input,
    spec: &RunSpec,
    reader: &dyn SourceReader,
) -> Result<RunRequest, SsError> {
    let (name, source) = resolve_input(input, reader)?;
    Ok(RunRequest {
        name,
        source,
        ..spec.request.clone()
    })
}

/// The input scale and seed of a command-line request (which only ever
/// synthesizes its inputs).
fn input_spec(request: &RunRequest) -> InputSpec {
    match &request.inputs {
        InputSource::Synthesized(spec) => *spec,
        InputSource::Explicit(_) => unreachable!("no flag supplies an explicit heap"),
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
        return Ok(analysis_json(&artifacts) + "\n");
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
fn tune_text(
    request: RunRequest,
    config: &TunerConfig,
    format: OutputFormat,
) -> Result<String, SsError> {
    let outcome = session().tune(&request, config)?;
    if format == OutputFormat::Json {
        return Ok(outcome.to_json() + "\n");
    }
    let name = &request.name;
    let inputs = input_spec(&request);
    let policy = &outcome.policy;
    let mut out = String::new();
    out.push_str(&format!(
        "== {name}: policy search at scale n={} seed={} (shape signature {:016x}) ==\n\n",
        inputs.scale, inputs.seed, outcome.signature
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

fn run_text(request: RunRequest, format: OutputFormat) -> Result<String, SsError> {
    // `--validate` decides whether a mismatch fails the command; the
    // differential matrix itself always runs (the table below reports
    // both legs and the validation line), off one (cached) pipeline
    // invocation — nothing below recompiles.
    let enforce = request.validation == ValidationMode::Differential;
    let request = request.validation(ValidationMode::Differential);
    let outcome = session().run(&request)?;
    if enforce {
        outcome.ensure_validated()?;
    }
    if format == OutputFormat::Json {
        return Ok(outcome.to_json() + "\n");
    }
    let name = &request.name;
    let inputs = input_spec(&request);

    // Report the engine that actually executed: the parallel leg is
    // redirected under the inspector baseline, and opt-level-sensitive
    // engines show which stream they ran.
    let resolved = session().registry().get(&outcome.engine)?;
    let engine_name = if request.baseline_inspector {
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
        inputs.scale, inputs.seed, outcome.threads
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
        return registry_json(registry) + "\n";
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
    use ss_interp::{RunPolicy, ScheduleChoice};
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
        // The request schema's bounds, in their command-line spelling (the
        // wire spellings are rows of the daemon's
        // `malformed_requests_are_rejected_with_reasons`); the message
        // names the flag and what it expects.
        for (bad, needle) in [
            (vec!["run", "k.c", "--n", "0"], "--n must be a positive"),
            (vec!["run", "k.c", "--n", "-5"], "--n must be a positive"),
            (vec!["tune", "k.c", "--n", "1000000"], "no larger than 2048"),
            (
                vec!["run", "k.c", "--threads", "40000"],
                "--threads must be",
            ),
            (vec!["tune", "k.c", "--threads", "0"], "--threads must be"),
            (
                vec!["run", "k.c", "--seed", "-1"],
                "--seed must be an integer no smaller than 0",
            ),
            (vec!["tune", "k.c", "--seed", "x"], "got 'x'"),
        ] {
            match parse_args(&args(&bad)) {
                Err(SsError::Usage(message)) => {
                    assert!(message.contains(needle), "{bad:?}: {message}")
                }
                other => panic!("{bad:?}: expected a usage error, got {other:?}"),
            }
        }
    }

    /// The help cannot drift from the parser: every flag a command-line
    /// surface of the request schema carries is in the usage text, with
    /// its generated line under the verb's OPTIONS block.
    #[test]
    fn usage_lists_every_request_schema_flag() {
        let usage = usage();
        let (run_block, tune_block) = usage
            .split_once("RUN OPTIONS:")
            .and_then(|(_, rest)| rest.split_once("TUNE OPTIONS:"))
            .expect("both generated blocks");
        for (surface, block) in [
            (Surface::CliRun, run_block),
            (Surface::CliTune, tune_block),
            (Surface::CliAnalyze, usage.as_str()),
        ] {
            for field in request::fields(surface) {
                assert!(block.contains(field.flag), "{surface:?}: {}", field.flag);
                assert!(usage.contains(field.help), "{}", field.flag);
            }
        }
        assert!(run_block.contains("--threads <1..=1024>"), "{run_block}");
        assert!(!run_block.contains("--repeats"), "{run_block}");
        assert!(!tune_block.contains("--schedule"), "{tune_block}");
        assert!(!usage.contains("serve"), "{usage}");
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
    fn parse_args_recognizes_request() {
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
            vec!["request"],
            vec!["request", "{}", "{}"],
            vec!["request", "{}", "--addr"],
            // `sspard` is the one way to start the daemon.
            vec!["serve"],
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
                spec: RunSpec {
                    request: RunRequest::new("", "")
                        .threads(4)
                        .scale(128)
                        .seed(9)
                        .validation(ValidationMode::Differential)
                        .baseline_inspector(true)
                        .schedule(ScheduleChoice::Dynamic)
                        .engine("ast")
                        .opt_level(OptLevel::O0)
                        .policy(RunPolicy::Tuned),
                    tuner: TunerConfig::default(),
                },
                format: OutputFormat::Json,
            }
        );
        // No flag: the command line's starting point — the API defaults at
        // scale 256.
        assert_eq!(
            parse_args(&args(&["run", "--kernel", "fig2_ua_transfer"])).unwrap(),
            Command::Run {
                input: Input::Catalogue("fig2_ua_transfer".into()),
                spec: RunSpec {
                    request: RunRequest::new("", "").scale(256),
                    tuner: TunerConfig::default(),
                },
                format: OutputFormat::Text,
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
            // Flags of other surfaces: tune's, the wire's.
            vec!["run", "k.c", "--repeats", "2"],
            vec!["run", "k.c", "--mode", "serial"],
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
                spec: cli_spec(),
                format: OutputFormat::Text,
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
                spec: RunSpec {
                    request: RunRequest::new("", "").threads(2).scale(64).seed(7),
                    tuner: TunerConfig {
                        budget_trials: Some(6),
                        repeats: 2,
                        seed: 3,
                        ..TunerConfig::default()
                    },
                },
                format: OutputFormat::Json,
            }
        );
        for bad in [
            vec!["tune"],
            vec!["tune", "k.c", "--budget-trials", "0"],
            vec!["tune", "k.c", "--repeats", "x"],
            vec!["tune", "k.c", "--format", "xml"],
            vec!["tune", "k.c", "--bogus"],
            // Flags of `run`'s surface only.
            vec!["tune", "k.c", "--schedule", "static"],
            vec!["tune", "k.c", "--validate"],
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
