//! [`SsError`] — the one error type of the embeddable API.
//!
//! Every failure a caller can observe through [`crate::Session`] (and
//! through the `sspar` CLI built on it) is a variant here: command-line
//! usage, I/O, parse/compile, unknown names, capability mismatches,
//! runtime faults and differential-validation divergence.  Each variant
//! maps to a **stable** process exit code via [`SsError::exit_code`], so
//! scripts and CI can distinguish failure classes without scraping stderr;
//! parse errors keep their source span ([`SsError::span`]).

use crate::engine::ExecError;
use ss_ir::IrError;

/// The unified error of the `sspar` stack: parse, analysis, compilation,
/// execution and validation failures behind one type with stable exit
/// codes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SsError {
    /// The command line did not form a valid invocation; the payload is
    /// the usage text to print.  Exit code 2.
    Usage(String),
    /// A file could not be read.  Exit code 3.
    Io {
        /// The path that failed.
        path: String,
        /// The underlying OS error text.
        message: String,
    },
    /// The source did not lex/parse (spans available via
    /// [`SsError::span`]).  Exit code 4.
    Parse(IrError),
    /// No catalogue kernel of the requested name.  Exit code 5.
    UnknownKernel(String),
    /// No registered engine of the requested name.  Exit code 5.
    UnknownEngine {
        /// The name that failed to resolve.
        name: String,
        /// Every name the registry does know, for the error message.
        available: Vec<String>,
    },
    /// The request needs an engine capability the registry lacks (a
    /// differential run without a reference engine).  Exit code 6.
    Unsupported {
        /// The refusing engine.
        engine: String,
        /// Why it refused.
        reason: String,
    },
    /// The program failed while executing (out of bounds, division by
    /// zero, runaway loop, …).  Exit code 7.
    Runtime(ExecError),
    /// Differential validation found diverging final heaps.  Exit code 8.
    Validation {
        /// The program whose heaps diverged.
        program: String,
        /// Human-readable differences, each prefixed with the comparison
        /// that produced it.
        mismatches: Vec<String>,
    },
}

impl SsError {
    /// The stable process exit code of this failure class:
    ///
    /// | code | class |
    /// |------|-------|
    /// | 0    | success (no `SsError`) |
    /// | 2    | usage |
    /// | 3    | I/O |
    /// | 4    | parse / compile |
    /// | 5    | unknown kernel or engine name |
    /// | 6    | capability mismatch (engine refused the program) |
    /// | 7    | runtime fault |
    /// | 8    | validation divergence |
    ///
    /// These values are part of the CLI contract and asserted by the CLI
    /// test suite; never renumber an existing class.
    pub fn exit_code(&self) -> i32 {
        match self {
            SsError::Usage(_) => 2,
            SsError::Io { .. } => 3,
            SsError::Parse(_) => 4,
            SsError::UnknownKernel(_) | SsError::UnknownEngine { .. } => 5,
            SsError::Unsupported { .. } => 6,
            SsError::Runtime(_) => 7,
            SsError::Validation { .. } => 8,
        }
    }

    /// The 1-based `(line, column)` source position, for errors anchored
    /// to one (lex/parse errors).
    pub fn span(&self) -> Option<(usize, usize)> {
        match self {
            SsError::Parse(e) => e.position(),
            _ => None,
        }
    }
}

impl std::fmt::Display for SsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SsError::Usage(u) => write!(f, "{u}"),
            SsError::Io { path, message } => write!(f, "error: cannot read {path}: {message}"),
            SsError::Parse(e) => write!(f, "{e}"),
            SsError::UnknownKernel(k) => {
                write!(
                    f,
                    "error: no catalogue kernel named '{k}' (try `sspar kernels`)"
                )
            }
            SsError::UnknownEngine { name, available } => {
                write!(
                    f,
                    "error: no engine named '{name}' (registered: {})",
                    available.join(", ")
                )
            }
            SsError::Unsupported { engine, reason } => {
                write!(
                    f,
                    "error: engine '{engine}' cannot run this program: {reason}"
                )
            }
            SsError::Runtime(e) => write!(f, "execution error: {e}"),
            SsError::Validation {
                program,
                mismatches,
            } => {
                write!(
                    f,
                    "validation FAILED: {program}: final heaps diverge:\n  {}",
                    mismatches.join("\n  ")
                )
            }
        }
    }
}

impl std::error::Error for SsError {}

impl From<IrError> for SsError {
    fn from(e: IrError) -> SsError {
        SsError::Parse(e)
    }
}

impl From<ExecError> for SsError {
    fn from(e: ExecError) -> SsError {
        SsError::Runtime(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_are_stable_and_distinct_per_class() {
        let errors = [
            (SsError::Usage("u".into()), 2),
            (
                SsError::Io {
                    path: "x".into(),
                    message: "gone".into(),
                },
                3,
            ),
            (SsError::Parse(IrError::parse(1, 2, "bad".into())), 4),
            (SsError::UnknownKernel("k".into()), 5),
            (
                SsError::UnknownEngine {
                    name: "jit".into(),
                    available: vec!["bytecode".into()],
                },
                5,
            ),
            (
                SsError::Unsupported {
                    engine: "x".into(),
                    reason: "y".into(),
                },
                6,
            ),
            (SsError::Runtime(ExecError::DivisionByZero), 7),
            (
                SsError::Validation {
                    program: "p".into(),
                    mismatches: vec!["m".into()],
                },
                8,
            ),
        ];
        for (e, code) in errors {
            assert_eq!(e.exit_code(), code, "{e}");
        }
    }

    #[test]
    fn parse_errors_carry_their_span() {
        let e = SsError::from(IrError::parse(7, 3, "expected ';'".into()));
        assert_eq!(e.span(), Some((7, 3)));
        assert_eq!(SsError::Runtime(ExecError::DivisionByZero).span(), None);
    }

    #[test]
    fn display_names_the_failure_class() {
        assert!(SsError::UnknownEngine {
            name: "jit".into(),
            available: vec!["bytecode".into(), "ast".into()],
        }
        .to_string()
        .contains("bytecode, ast"));
        assert!(SsError::Runtime(ExecError::DivisionByZero)
            .to_string()
            .contains("division by zero"));
    }
}
