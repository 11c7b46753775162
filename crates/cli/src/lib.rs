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
//! CLI is unit-testable without touching the file system.  This file
//! holds the command line itself ([`Command`], [`parse_args`], [`usage`],
//! [`execute`]); each verb's renderer lives in its own module.

#![warn(missing_docs)]

mod analyze;
mod catalogue;
mod run;

use analyze::{analyze_text, trace_text};
use catalogue::{engines_text, kernels_text, study_text};
use run::run_text;
use ss_interp::request::{self, Raw, Surface};
use ss_interp::{OptLevel, RunRequest, Session, SsError};
use std::sync::OnceLock;

/// The process-wide session: one artifact cache and one engine registry
/// serve every command of every in-process invocation.
pub(crate) fn session() -> &'static Session {
    static SESSION: OnceLock<Session> = OnceLock::new();
    SESSION.get_or_init(Session::new)
}

/// The usage text.  The RUN OPTIONS block is rendered from the
/// request-schema table ([`ss_interp::request::FIELDS`]) — flag, value
/// shape, help and bounds of every row `run`'s surface carries — so it
/// cannot drift from what the parser accepts.
pub fn usage() -> String {
    let run_options: String = request::fields(Surface::CliRun)
        .map(|f| f.usage_line())
        .collect();
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
         \u{20}   --opt-level <0|1>  analyze: which bytecode stream --dump-bytecode prints:\n\
         \u{20}                    the base compiler's (0) or the optimized one (1,\n\
         \u{20}                    default — fused subscripted-subscript loads,\n\
         \u{20}                    compare-and-branch, constant folding)\n\
         \u{20}   --format <text|json>  analyze/engines/run: output format (default\n\
         \u{20}                    text); JSON schemas are stable for downstream tooling\n\
         \n\
         RUN OPTIONS:\n\
         {run_options}"
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
        /// Which bytecode stream `--dump-bytecode` prints.
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
        /// shows as [`ss_interp::ValidationMode::Differential`]: the command line
        /// always runs the differential matrix, the flag decides whether
        /// a mismatch fails the command.
        request: RunRequest,
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

/// The one place a request-schema flag is matched: if `rest[*i]` is a
/// flag `surface` carries, checks and applies it (with its value, for
/// every kind but bare flags) to `spec`, advances `*i` past it and
/// returns `true`; `false` leaves the argument to the verb's own flags.
fn table_flag(
    surface: Surface,
    rest: &[&str],
    i: &mut usize,
    request: &mut RunRequest,
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
        .apply(request, raw)
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
        "analyze" | "trace" | "run" => {
            let surface = match cmd {
                "analyze" => Some(Surface::CliAnalyze),
                "run" => Some(Surface::CliRun),
                _ => None,
            };
            let report = matches!(cmd, "analyze" | "trace");
            let rest: Vec<&str> = it.collect();
            let mut input: Option<Input> = None;
            let mut baseline = false;
            let mut no_source = false;
            let mut dump_bytecode = false;
            let mut request = RunRequest::new("", "");
            let mut format = OutputFormat::Text;
            let mut i = 0;
            while i < rest.len() {
                if let Some(surface) = surface {
                    if table_flag(surface, &rest, &mut i, &mut request)? {
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
                    opt_level: request.opt_level,
                    format,
                },
                "trace" => Command::Trace { input },
                _ => Command::Run {
                    input,
                    request,
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
            request,
            format,
        } => run_text(program_request(input, request, reader)?, *format),
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

/// The session request of a `run`: the parsed knobs with the program
/// `input` names filled in.
fn program_request(
    input: &Input,
    request: &RunRequest,
    reader: &dyn SourceReader,
) -> Result<RunRequest, SsError> {
    let (name, source) = resolve_input(input, reader)?;
    Ok(RunRequest {
        name,
        source,
        ..request.clone()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_interp::{ScheduleChoice, ValidationMode};
    use std::collections::HashMap;

    pub(crate) struct MapReader(pub(crate) HashMap<String, String>);

    impl SourceReader for MapReader {
        fn read(&self, path: &str) -> Result<String, String> {
            self.0
                .get(path)
                .cloned()
                .ok_or_else(|| format!("no such file: {path}"))
        }
    }

    pub(crate) fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    pub(crate) const FIG2: &str = r#"
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
            (vec!["run", "k.c", "--n", "1000000"], "no larger than 2048"),
            (
                vec!["run", "k.c", "--threads", "40000"],
                "--threads must be",
            ),
            (vec!["run", "k.c", "--threads", "0"], "--threads must be"),
            (
                vec!["run", "k.c", "--seed", "-1"],
                "--seed must be an integer no smaller than 0",
            ),
            (vec!["run", "k.c", "--seed", "x"], "got 'x'"),
            // No verb searches execution policies.
            (
                vec!["tune", "--kernel", "sptrsv_levels"],
                "unknown command 'tune'",
            ),
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
        let (_, run_block) = usage
            .split_once("RUN OPTIONS:")
            .expect("the generated block");
        for (surface, block) in [
            (Surface::CliRun, run_block),
            (Surface::CliAnalyze, usage.as_str()),
        ] {
            for field in request::fields(surface) {
                assert!(block.contains(field.flag), "{surface:?}: {}", field.flag);
                assert!(usage.contains(field.help), "{}", field.flag);
            }
        }
        assert!(run_block.contains("--threads <1..=1024>"), "{run_block}");
        assert!(!usage.contains("tune"), "{usage}");
        assert!(!usage.contains("serve"), "{usage}");
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
            "\"engine\":\"wavefront\"",
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
                "--format",
                "json"
            ]))
            .unwrap(),
            Command::Run {
                input: Input::File("k.c".into()),
                request: RunRequest::new("", "")
                    .threads(4)
                    .scale(128)
                    .seed(9)
                    .validation(ValidationMode::Differential)
                    .baseline_inspector(true)
                    .schedule(ScheduleChoice::Dynamic)
                    .engine("ast")
                    .opt_level(OptLevel::O0),
                format: OutputFormat::Json,
            }
        );
        // No flag: the command line starts where the wire and the API do.
        assert_eq!(
            parse_args(&args(&["run", "--kernel", "fig2_ua_transfer"])).unwrap(),
            Command::Run {
                input: Input::Catalogue("fig2_ua_transfer".into()),
                request: RunRequest::new("", ""),
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
            vec!["run", "k.c", "--format", "xml"],
            // Flags no command-line surface carries.
            vec!["run", "k.c", "--policy", "tuned"],
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
