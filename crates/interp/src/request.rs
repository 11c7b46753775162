//! The run/tune request schema, declared **once**.
//!
//! A "run" is a bundle of knobs — engine, opt level, threads, input scale
//! and seed, schedule, policy, mode, validation, the tuner's budget — and
//! every surface that accepts one (the `sspar run`/`tune`/`analyze`
//! command lines, the `sspard` wire `run`/`tune` ops) used to declare
//! those knobs, their bounds and their defaults on its own.  This module
//! is the one declaration: [`FIELDS`] is a table with one row per knob —
//! its wire key, its CLI flag, its [`Kind`] (type, bounds, and how it
//! lands on a [`RunSpec`]), the [`Surface`]s that carry it and its help
//! line.  The surfaces walk the table ([`lookup`] → [`Field::apply`]);
//! they keep only what is theirs (program selection, `--format`, `op`,
//! `id`, `tenant`, …).  Adding or bounding a knob is a one-row change.
//!
//! ```
//! use ss_interp::request::{lookup, Raw, RunSpec, Surface};
//!
//! let mut spec = RunSpec::default();
//! // The command line and the wire spell the same row differently …
//! let cli = lookup(Surface::CliRun, "--n").unwrap();
//! let wire = lookup(Surface::WireRun, "scale").unwrap();
//! assert_eq!(cli.key, wire.key);
//! // … and share its bounds.
//! cli.apply(&mut spec, Raw::Arg("128")).unwrap();
//! assert!(wire.apply(&mut spec, Raw::Int(0)).is_err());
//! // A row is only visible on the surfaces that carry it.
//! assert!(lookup(Surface::WireRun, "schedule").is_none());
//! ```

use crate::engine::ScheduleChoice;
use crate::session::{ExecutionMode, RunPolicy, RunRequest, ValidationMode};
use crate::tuner::TunerConfig;
use ss_ir::opt::OptLevel;

/// Largest input `scale` a command line or wire request may name.  Heaps
/// grow with the scale — quadratically for `fig9_csr_product`, measured
/// (peak RSS of one `sspar run`) at 337 MB for scale 1024, 1.3 GB for
/// 2048 and 5.3 GB for 4096 — and the wire used to accept any value, zero
/// and negatives included.  2048 keeps the daemon's default four workers
/// inside a 16 GB host even when all four run the worst kernel.  A cap on
/// what one request may ask for, not a memory budget; the embedding API
/// ([`RunRequest::scale`]) stays uncapped.
pub const MAX_SCALE: i64 = 2048;

/// Largest `threads` a command line or wire request may name.  Measured
/// reason: `{"op":"run",…,"threads":40000}` made the runtime fail to map
/// a stack guard page and **abort the whole daemon process**.  The
/// embedding API ([`RunRequest::threads`]) stays uncapped.
pub const MAX_THREADS: i64 = 1024;

/// Everything a run or a tune is configured by: the session request plus
/// the tuner's knobs.  Every surface starts from [`RunSpec::default`],
/// walks [`FIELDS`] over its input, fills in the program, and hands
/// `request` (and `tuner`) to [`Session`](crate::Session).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSpec {
    /// The session request (program name and source left empty until the
    /// surface resolves them).
    pub request: RunRequest,
    /// The tuner's knobs (`tune` only).
    pub tuner: TunerConfig,
}

impl Default for RunSpec {
    fn default() -> RunSpec {
        RunSpec {
            request: RunRequest::new("", ""),
            tuner: TunerConfig::default(),
        }
    }
}

/// Where a request comes in.  A row of [`FIELDS`] is visible on exactly
/// the surfaces its `on` column lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Surface {
    /// `sspar analyze` flags.
    CliAnalyze,
    /// `sspar run` flags.
    CliRun,
    /// `sspar tune` flags.
    CliTune,
    /// Keys of a wire `{"op":"run",…}` request.
    WireRun,
    /// Keys of a wire `{"op":"tune",…}` request.
    WireTune,
}

/// One accepted word of a [`Kind::Choice`] and what choosing it stores.
pub type Word = (&'static str, fn(&mut RunSpec));

/// A knob's type and bounds, with the setter that lands a checked value
/// on the spec.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// `Int(min, max, set)`: an integer in `min..=max` (`i64::MAX` = no
    /// upper bound).
    Int(i64, i64, fn(&mut RunSpec, i64)),
    /// A boolean: a bare flag on the command line, `true`/`false` on the
    /// wire.
    Flag(fn(&mut RunSpec, bool)),
    /// One word of a closed set, each with its own effect.
    Choice(&'static [Word]),
    /// Free text (checked later by whoever resolves it, e.g. the engine
    /// registry).
    Text(fn(&mut RunSpec, &str)),
}

impl Kind {
    /// What a valid value looks like, for error messages.
    fn expects(&self) -> String {
        match *self {
            Kind::Int(0, 1, _) => "0 or 1".to_string(),
            Kind::Int(1, i64::MAX, _) => "a positive integer".to_string(),
            Kind::Int(1, max, _) => format!("a positive integer no larger than {max}"),
            Kind::Int(min, ..) => format!("an integer no smaller than {min}"),
            Kind::Flag(_) => "a boolean".to_string(),
            Kind::Choice(words) => words.iter().map(|w| w.0).collect::<Vec<_>>().join("|"),
            Kind::Text(_) => "a string".to_string(),
        }
    }

    /// The value placeholder of a usage line, bounds included
    /// (`<1..=1024>`, `<auto|static|dynamic>`, …; empty for bare flags,
    /// the word itself for one-word choices).
    fn placeholder(&self) -> String {
        match *self {
            Kind::Int(0, 1, _) => " <0|1>".to_string(),
            Kind::Int(min, i64::MAX, _) => format!(" <{min}..>"),
            Kind::Int(min, max, _) => format!(" <{min}..={max}>"),
            Kind::Flag(_) => String::new(),
            Kind::Choice([(word, _)]) => format!(" {word}"),
            Kind::Choice(_) => format!(" <{}>", self.expects()),
            Kind::Text(_) => " <name>".to_string(),
        }
    }
}

/// A value as a surface received it, before any checking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Raw<'a> {
    /// The command-line argument following a flag.
    Arg(&'a str),
    /// A JSON integer.
    Int(i64),
    /// A JSON boolean, or a bare command-line flag (`true`).
    Bool(bool),
    /// A JSON string.
    Str(&'a str),
    /// Any other JSON value (array, object, fractional number).
    Other,
}

impl<'a> Raw<'a> {
    /// The value as an integer: a JSON integer, or a command-line
    /// argument that parses as one.
    fn int(self) -> Option<i64> {
        match self {
            Raw::Arg(s) => s.parse().ok(),
            Raw::Int(n) => Some(n),
            _ => None,
        }
    }

    /// The value as a boolean: a JSON boolean or a bare flag.
    fn flag(self) -> Option<bool> {
        match self {
            Raw::Bool(on) => Some(on),
            _ => None,
        }
    }

    /// The value as text: a JSON string or a command-line argument.
    fn word(self) -> Option<&'a str> {
        match self {
            Raw::Arg(s) | Raw::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl std::fmt::Display for Raw<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Raw::Arg(s) | Raw::Str(s) => write!(f, "'{s}'"),
            Raw::Int(n) => write!(f, "{n}"),
            Raw::Bool(b) => write!(f, "{b}"),
            Raw::Other => write!(f, "a value of another type"),
        }
    }
}

/// A value that failed its row's kind or bounds.  Surfaces translate it
/// (`SsError::Usage` on the command line, `malformed` on the wire),
/// naming the row by their own spelling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldError {
    /// The row's wire key.
    pub key: &'static str,
    /// The row's CLI flag.
    pub flag: &'static str,
    /// What was expected and what arrived (`must be …, got …`).
    pub reason: String,
}

/// One knob of a run: a row of [`FIELDS`].
#[derive(Debug, Clone, Copy)]
pub struct Field {
    /// Spelling as a wire JSON key.
    pub key: &'static str,
    /// Spelling as a command-line flag.
    pub flag: &'static str,
    /// Type, bounds and setter.
    pub kind: Kind,
    /// The surfaces that carry the knob.
    pub on: &'static [Surface],
    /// One help line (the generated `--help` blocks and the docs).
    pub help: &'static str,
}

impl Field {
    /// Whether the flag consumes the following argument (everything but
    /// bare boolean flags does).
    pub fn takes_value(&self) -> bool {
        !matches!(self.kind, Kind::Flag(_))
    }

    /// Checks `raw` against the row's kind and bounds and, when it
    /// passes, stores it on `spec`.
    pub fn apply(&self, spec: &mut RunSpec, raw: Raw<'_>) -> Result<(), FieldError> {
        let stored = match self.kind {
            Kind::Int(min, max, set) => raw
                .int()
                .filter(|n| (min..=max).contains(n))
                .map(|n| set(spec, n)),
            Kind::Flag(set) => raw.flag().map(|on| set(spec, on)),
            Kind::Choice(words) => raw
                .word()
                .and_then(|w| words.iter().find(|(word, _)| *word == w))
                .map(|(_, set)| set(spec)),
            Kind::Text(set) => raw.word().map(|text| set(spec, text)),
        };
        stored.ok_or_else(|| FieldError {
            key: self.key,
            flag: self.flag,
            reason: format!("must be {}, got {raw}", self.kind.expects()),
        })
    }

    /// The row's line of a command-line usage block: flag, value
    /// placeholder (with bounds), help.
    pub fn usage_line(&self) -> String {
        let flag = format!("{}{}", self.flag, self.kind.placeholder());
        format!("    {flag:<34}{}\n", self.help)
    }
}

use Surface::{CliAnalyze, CliRun, CliTune, WireRun, WireTune};

/// The schema: every knob of a run or a tune, once.  The `on` column
/// reproduces each surface's historical exposure exactly (`schedule`,
/// `baseline_inspector`, `repeats` and `trial_seed` are command-line
/// only; `mode` is wire only; `chunk`, `while_cap` and `team_group` are
/// embedding-API only and therefore not rows).
pub const FIELDS: &[Field] = &[
    Field {
        key: "engine",
        flag: "--engine",
        kind: Kind::Text(|s, name| s.request.engine = Some(name.to_string())),
        on: &[CliRun, WireRun],
        help: "execution engine, from `sspar engines` (default: the registry's)",
    },
    Field {
        key: "opt_level",
        flag: "--opt-level",
        kind: Kind::Int(0, 1, |s, n| {
            s.request.opt_level = if n == 0 { OptLevel::O0 } else { OptLevel::O1 }
        }),
        on: &[CliAnalyze, CliRun, WireRun],
        help: "bytecode stream: the base compiler's (0) or the optimized one (1, default)",
    },
    Field {
        key: "threads",
        flag: "--threads",
        kind: Kind::Int(1, MAX_THREADS, |s, n| s.request.threads = Some(n as usize)),
        on: &[CliRun, CliTune, WireRun, WireTune],
        help: "worker threads; anchors tune's default policy (default: all hardware threads)",
    },
    Field {
        key: "scale",
        flag: "--n",
        kind: Kind::Int(1, MAX_SCALE, |s, n| s.request.input_spec_mut().scale = n),
        on: &[CliRun, CliTune, WireRun, WireTune],
        help: "input scale: loop bounds / data modulus (default 64)",
    },
    Field {
        key: "seed",
        flag: "--seed",
        kind: Kind::Int(0, i64::MAX, |s, n| {
            s.request.input_spec_mut().seed = n as u64
        }),
        on: &[CliRun, CliTune, WireRun, WireTune],
        help: "input data seed (default 1)",
    },
    Field {
        key: "schedule",
        flag: "--schedule",
        kind: Kind::Choice(&[
            ("auto", |s| s.request.schedule = ScheduleChoice::Auto),
            ("static", |s| s.request.schedule = ScheduleChoice::Static),
            ("dynamic", |s| s.request.schedule = ScheduleChoice::Dynamic),
        ]),
        on: &[CliRun],
        help: "scheduling of parallel loops (default auto)",
    },
    Field {
        key: "policy",
        flag: "--policy",
        kind: Kind::Choice(&[
            ("default", |s| s.request.policy = RunPolicy::Default),
            ("tuned", |s| s.request.policy = RunPolicy::Tuned),
        ]),
        on: &[CliRun, WireRun],
        help: "tuned: search-or-reapply the persisted best policy of (program, input shape)",
    },
    Field {
        key: "mode",
        flag: "--mode",
        kind: Kind::Choice(&[
            ("both", |s| s.request.mode = ExecutionMode::Both),
            ("serial", |s| s.request.mode = ExecutionMode::Serial),
            ("parallel", |s| s.request.mode = ExecutionMode::Parallel),
        ]),
        on: &[WireRun],
        help: "which legs a non-validating run executes (default both)",
    },
    Field {
        key: "baseline_inspector",
        flag: "--baseline",
        kind: Kind::Choice(&[("inspector", |s| s.request.baseline_inspector = true)]),
        on: &[CliRun],
        help: "run the runtime-inspector baseline on serial loops",
    },
    Field {
        key: "validate",
        flag: "--validate",
        kind: Kind::Flag(|s, on| {
            s.request.validation = if on {
                ValidationMode::Differential
            } else {
                ValidationMode::None
            }
        }),
        on: &[CliRun, WireRun],
        help: "diff the reference's final heap against every row x opt level, serial and \
               parallel, plus an inspector leg (16 executions); here, a mismatch exits nonzero",
    },
    Field {
        key: "budget_trials",
        flag: "--budget-trials",
        kind: Kind::Int(1, i64::MAX, |s, n| s.tuner.budget_trials = Some(n as usize)),
        on: &[CliTune, WireTune],
        help: "cap on measured trials (default: the full pruned space)",
    },
    Field {
        key: "repeats",
        flag: "--repeats",
        kind: Kind::Int(1, i64::MAX, |s, n| s.tuner.repeats = n as usize),
        on: &[CliTune],
        help: "timed repeats per candidate, median kept (default 3)",
    },
    Field {
        key: "trial_seed",
        flag: "--trial-seed",
        kind: Kind::Int(0, i64::MAX, |s, n| s.tuner.seed = n as u64),
        on: &[CliTune],
        help: "deterministic trial-order seed (default 0)",
    },
];

/// The rows `surface` carries, in table order.
pub fn fields(surface: Surface) -> impl Iterator<Item = &'static Field> {
    FIELDS.iter().filter(move |f| f.on.contains(&surface))
}

/// The row `surface` spells as `name` (a flag on command-line surfaces, a
/// key on wire surfaces), if it carries one.
pub fn lookup(surface: Surface, name: &str) -> Option<&'static Field> {
    let wire = matches!(surface, WireRun | WireTune);
    fields(surface).find(|f| name == if wire { f.key } else { f.flag })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::InputSpec;
    use crate::session::InputSource;

    #[test]
    fn every_row_lands_on_the_spec() {
        let mut spec = RunSpec::default();
        for (key, raw) in [
            ("engine", Raw::Str("threaded")),
            ("opt_level", Raw::Int(0)),
            ("threads", Raw::Int(3)),
            ("scale", Raw::Int(96)),
            ("seed", Raw::Int(7)),
            ("schedule", Raw::Arg("dynamic")),
            ("policy", Raw::Str("tuned")),
            ("mode", Raw::Str("serial")),
            ("baseline_inspector", Raw::Arg("inspector")),
            ("validate", Raw::Bool(true)),
            ("budget_trials", Raw::Int(5)),
            ("repeats", Raw::Arg("2")),
            ("trial_seed", Raw::Arg("9")),
        ] {
            let field = FIELDS.iter().find(|f| f.key == key).expect(key);
            field.apply(&mut spec, raw).expect(key);
        }
        let r = &spec.request;
        assert_eq!(r.engine.as_deref(), Some("threaded"));
        assert_eq!(r.opt_level, OptLevel::O0);
        assert_eq!(r.threads, Some(3));
        assert!(matches!(
            r.inputs,
            InputSource::Synthesized(InputSpec { scale: 96, seed: 7 })
        ));
        assert_eq!(r.schedule, ScheduleChoice::Dynamic);
        assert_eq!(r.policy, RunPolicy::Tuned);
        assert_eq!(r.mode, ExecutionMode::Serial);
        assert!(r.baseline_inspector);
        assert_eq!(r.validation, ValidationMode::Differential);
        assert_eq!(spec.tuner.budget_trials, Some(5));
        assert_eq!((spec.tuner.repeats, spec.tuner.seed), (2, 9));
        // Every row was exercised: adding one without extending this test
        // fails here.
        assert_eq!(FIELDS.len(), 13);
    }

    #[test]
    fn kinds_reject_wrong_types_and_out_of_range_values_naming_what_they_expect() {
        let row = |key: &str| FIELDS.iter().find(|f| f.key == key).unwrap();
        for (key, raw, needle) in [
            ("opt_level", Raw::Int(3), "0 or 1, got 3"),
            ("opt_level", Raw::Str("1"), "0 or 1"),
            ("threads", Raw::Int(0), "positive"),
            ("threads", Raw::Int(MAX_THREADS + 1), "no larger than 1024"),
            ("repeats", Raw::Arg("0"), "a positive integer,"),
            ("scale", Raw::Arg("-5"), "positive"),
            ("scale", Raw::Arg("x"), "got 'x'"),
            ("scale", Raw::Other, "another type"),
            ("seed", Raw::Int(-1), "no smaller than 0"),
            ("policy", Raw::Str("fastest"), "default|tuned"),
            ("policy", Raw::Int(1), "default|tuned"),
            ("baseline_inspector", Raw::Arg("lrpd"), "inspector"),
            ("validate", Raw::Str("yes"), "a boolean"),
            ("engine", Raw::Int(5), "a string"),
        ] {
            let mut spec = RunSpec::default();
            let err = row(key).apply(&mut spec, raw).unwrap_err();
            assert_eq!(err.key, key);
            assert!(err.reason.contains(needle), "{key}: {}", err.reason);
            assert_eq!(
                spec,
                RunSpec::default(),
                "{key}: a rejected value is not stored"
            );
        }
    }

    #[test]
    fn rows_are_visible_only_on_their_surfaces_and_spelled_once() {
        assert!(lookup(Surface::CliRun, "--schedule").is_some());
        assert!(lookup(Surface::CliTune, "--schedule").is_none());
        assert!(lookup(Surface::WireRun, "schedule").is_none());
        assert!(lookup(Surface::WireRun, "mode").is_some());
        assert!(lookup(Surface::CliRun, "--mode").is_none());
        // Command-line surfaces answer to flags only, wire surfaces to
        // keys only.
        assert!(lookup(Surface::CliRun, "scale").is_none());
        assert!(lookup(Surface::WireRun, "--n").is_none());
        assert_eq!(
            fields(Surface::CliAnalyze)
                .map(|f| f.key)
                .collect::<Vec<_>>(),
            ["opt_level"]
        );
        for (i, a) in FIELDS.iter().enumerate() {
            for b in &FIELDS[i + 1..] {
                assert!(a.key != b.key && a.flag != b.flag, "{} / {}", a.key, b.key);
            }
        }
    }

    #[test]
    fn usage_lines_carry_flag_placeholder_help_and_bounds() {
        let line = |key: &str| FIELDS.iter().find(|f| f.key == key).unwrap().usage_line();
        assert!(line("threads").contains("--threads <1..=1024> "));
        assert!(line("opt_level").contains("--opt-level <0|1>"));
        assert!(line("schedule").contains("--schedule <auto|static|dynamic>"));
        assert!(line("baseline_inspector").contains("--baseline inspector "));
        assert!(line("validate").contains("--validate "));
        assert!(line("repeats").contains("--repeats <1..> "));
    }
}
