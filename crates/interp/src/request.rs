//! The run request schema, declared **once**.
//!
//! A "run" is a bundle of knobs — engine, opt level, threads, input scale
//! and seed, schedule, mode, validation — and every surface that accepts
//! one (the `sspar run`/`analyze` command lines, the `sspard` wire `run`
//! op) used to declare those knobs, their bounds and their defaults on
//! its own.  This module is the one declaration: [`FIELDS`] is a table
//! with one row per knob — its wire key, its CLI flag, its [`Kind`] (type,
//! bounds, and how it lands on a [`RunRequest`]), the [`Surface`]s that
//! carry it and its help line.  The surfaces walk the table
//! ([`lookup`] → [`Field::apply`]); they keep only what is theirs
//! (program selection, `--format`, `op`, `id`, `tenant`, …).  Adding or
//! bounding a knob is a one-row change.
//!
//! ```
//! use ss_interp::request::{lookup, Raw, Surface};
//! use ss_interp::RunRequest;
//!
//! let mut request = RunRequest::new("", "");
//! // The command line and the wire spell the same row differently …
//! let cli = lookup(Surface::CliRun, "--n").unwrap();
//! let wire = lookup(Surface::WireRun, "scale").unwrap();
//! assert_eq!(cli.key, wire.key);
//! // … and share its bounds.
//! cli.apply(&mut request, Raw::Arg("128")).unwrap();
//! assert!(wire.apply(&mut request, Raw::Int(0)).is_err());
//! // A row is only visible on the surfaces that carry it.
//! assert!(lookup(Surface::WireRun, "schedule").is_none());
//! ```

use crate::engine::ScheduleChoice;
use crate::session::{ExecutionMode, RunRequest, ValidationMode};
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

/// Where a request comes in.  A row of [`FIELDS`] is visible on exactly
/// the surfaces its `on` column lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Surface {
    /// `sspar analyze` flags.
    CliAnalyze,
    /// `sspar run` flags.
    CliRun,
    /// Keys of a wire `{"op":"run",…}` request.
    WireRun,
}

/// One accepted word of a [`Kind::Choice`] and what choosing it stores.
pub type Word = (&'static str, fn(&mut RunRequest));

/// A knob's type and bounds, with the setter that lands a checked value
/// on the request.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// `Int(min, max, set)`: an integer in `min..=max` (`i64::MAX` = no
    /// upper bound).
    Int(i64, i64, fn(&mut RunRequest, i64)),
    /// A boolean: a bare flag on the command line, `true`/`false` on the
    /// wire.
    Flag(fn(&mut RunRequest, bool)),
    /// One word of a closed set, each with its own effect.
    Choice(&'static [Word]),
    /// Free text (checked later by whoever resolves it, e.g. the engine
    /// registry).
    Text(fn(&mut RunRequest, &str)),
}

impl Kind {
    /// What a valid value looks like, for error messages.
    fn expects(&self) -> String {
        match *self {
            Kind::Int(0, 1, _) => "0 or 1".to_string(),
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
    /// passes, stores it on `request`.
    pub fn apply(&self, request: &mut RunRequest, raw: Raw<'_>) -> Result<(), FieldError> {
        let stored = match self.kind {
            Kind::Int(min, max, set) => raw
                .int()
                .filter(|n| (min..=max).contains(n))
                .map(|n| set(request, n)),
            Kind::Flag(set) => raw.flag().map(|on| set(request, on)),
            Kind::Choice(words) => raw
                .word()
                .and_then(|w| words.iter().find(|(word, _)| *word == w))
                .map(|(_, set)| set(request)),
            Kind::Text(set) => raw.word().map(|text| set(request, text)),
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

use Surface::{CliAnalyze, CliRun, WireRun};

/// The schema: every knob of a run, once.  The `on` column reproduces
/// each surface's historical exposure exactly (`schedule` and
/// `baseline_inspector` are command-line only; `mode` is wire only;
/// `while_cap` and `team_group` are embedding-API only and therefore not
/// rows).
pub const FIELDS: &[Field] = &[
    Field {
        key: "engine",
        flag: "--engine",
        kind: Kind::Text(|r, name| r.engine = Some(name.to_string())),
        on: &[CliRun, WireRun],
        help: "execution engine, from `sspar engines` (default: the registry's)",
    },
    Field {
        key: "opt_level",
        flag: "--opt-level",
        kind: Kind::Int(0, 1, |r, n| {
            r.opt_level = if n == 0 { OptLevel::O0 } else { OptLevel::O1 }
        }),
        on: &[CliAnalyze, CliRun, WireRun],
        help: "bytecode stream: the base compiler's (0) or the optimized one (1, default)",
    },
    Field {
        key: "threads",
        flag: "--threads",
        kind: Kind::Int(1, MAX_THREADS, |r, n| r.threads = Some(n as usize)),
        on: &[CliRun, WireRun],
        help: "worker threads (default: all hardware threads)",
    },
    Field {
        key: "scale",
        flag: "--n",
        kind: Kind::Int(1, MAX_SCALE, |r, n| r.input_spec_mut().scale = n),
        on: &[CliRun, WireRun],
        help: "input scale: loop bounds / data modulus (default 64)",
    },
    Field {
        key: "seed",
        flag: "--seed",
        kind: Kind::Int(0, i64::MAX, |r, n| r.input_spec_mut().seed = n as u64),
        on: &[CliRun, WireRun],
        help: "input data seed (default 1)",
    },
    Field {
        key: "schedule",
        flag: "--schedule",
        kind: Kind::Choice(&[
            ("auto", |r| r.schedule = ScheduleChoice::Auto),
            ("static", |r| r.schedule = ScheduleChoice::Static),
            ("dynamic", |r| r.schedule = ScheduleChoice::Dynamic),
        ]),
        on: &[CliRun],
        help: "scheduling of parallel loops (default auto)",
    },
    Field {
        key: "mode",
        flag: "--mode",
        kind: Kind::Choice(&[
            ("both", |r| r.mode = ExecutionMode::Both),
            ("serial", |r| r.mode = ExecutionMode::Serial),
            ("parallel", |r| r.mode = ExecutionMode::Parallel),
        ]),
        on: &[WireRun],
        help: "which legs a non-validating run executes (default both)",
    },
    Field {
        key: "baseline_inspector",
        flag: "--baseline",
        kind: Kind::Choice(&[("inspector", |r| r.baseline_inspector = true)]),
        on: &[CliRun],
        help: "run the runtime-inspector baseline on serial loops",
    },
    Field {
        key: "validate",
        flag: "--validate",
        kind: Kind::Flag(|r, on| {
            r.validation = if on {
                ValidationMode::Differential
            } else {
                ValidationMode::None
            }
        }),
        on: &[CliRun, WireRun],
        help: "diff the reference's final heap against every row x opt level, serial and \
               parallel, plus an inspector leg (16 executions); here, a mismatch exits nonzero",
    },
];

/// The rows `surface` carries, in table order.
pub fn fields(surface: Surface) -> impl Iterator<Item = &'static Field> {
    FIELDS.iter().filter(move |f| f.on.contains(&surface))
}

/// The row `surface` spells as `name` (a flag on command-line surfaces, a
/// key on wire surfaces), if it carries one.
pub fn lookup(surface: Surface, name: &str) -> Option<&'static Field> {
    let wire = surface == WireRun;
    fields(surface).find(|f| name == if wire { f.key } else { f.flag })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::InputSpec;
    use crate::session::InputSource;

    #[test]
    fn every_row_lands_on_the_request() {
        let mut r = RunRequest::new("", "");
        for (key, raw) in [
            ("engine", Raw::Str("threaded")),
            ("opt_level", Raw::Int(0)),
            ("threads", Raw::Int(3)),
            ("scale", Raw::Int(96)),
            ("seed", Raw::Int(7)),
            ("schedule", Raw::Arg("dynamic")),
            ("mode", Raw::Str("serial")),
            ("baseline_inspector", Raw::Arg("inspector")),
            ("validate", Raw::Bool(true)),
        ] {
            let field = FIELDS.iter().find(|f| f.key == key).expect(key);
            field.apply(&mut r, raw).expect(key);
        }
        assert_eq!(r.engine.as_deref(), Some("threaded"));
        assert_eq!(r.opt_level, OptLevel::O0);
        assert_eq!(r.threads, Some(3));
        assert!(matches!(
            r.inputs,
            InputSource::Synthesized(InputSpec { scale: 96, seed: 7 })
        ));
        assert_eq!(r.schedule, ScheduleChoice::Dynamic);
        assert_eq!(r.mode, ExecutionMode::Serial);
        assert!(r.baseline_inspector);
        assert_eq!(r.validation, ValidationMode::Differential);
        // Every row was exercised: adding one without extending this test
        // fails here.
        assert_eq!(FIELDS.len(), 9);
    }

    #[test]
    fn kinds_reject_wrong_types_and_out_of_range_values_naming_what_they_expect() {
        let row = |key: &str| FIELDS.iter().find(|f| f.key == key).unwrap();
        for (key, raw, needle) in [
            ("opt_level", Raw::Int(3), "0 or 1, got 3"),
            ("opt_level", Raw::Str("1"), "0 or 1"),
            ("threads", Raw::Int(0), "positive"),
            ("threads", Raw::Int(MAX_THREADS + 1), "no larger than 1024"),
            ("scale", Raw::Arg("-5"), "positive"),
            ("scale", Raw::Arg("x"), "got 'x'"),
            ("scale", Raw::Other, "another type"),
            ("seed", Raw::Int(-1), "no smaller than 0"),
            ("schedule", Raw::Str("guided"), "auto|static|dynamic"),
            ("schedule", Raw::Int(1), "auto|static|dynamic"),
            ("baseline_inspector", Raw::Arg("lrpd"), "inspector"),
            ("validate", Raw::Str("yes"), "a boolean"),
            ("engine", Raw::Int(5), "a string"),
        ] {
            let mut r = RunRequest::new("", "");
            let err = row(key).apply(&mut r, raw).unwrap_err();
            assert_eq!(err.key, key);
            assert!(err.reason.contains(needle), "{key}: {}", err.reason);
            assert_eq!(
                r,
                RunRequest::new("", ""),
                "{key}: a rejected value is not stored"
            );
        }
    }

    #[test]
    fn rows_are_visible_only_on_their_surfaces_and_spelled_once() {
        assert!(lookup(Surface::CliRun, "--schedule").is_some());
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
        assert!(line("seed").contains("--seed <0..> "));
    }
}
