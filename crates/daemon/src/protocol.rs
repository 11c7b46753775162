//! The `sspard` wire protocol: newline-delimited JSON requests and
//! responses.
//!
//! One request object per line, one response object per line, in order.
//! Requests name an operation (`"op"`); responses are either
//! `{"ok":true,"op":…,"result":…}` or `{"ok":false,"error":{…}}`.  An
//! optional request `"id"` (string or integer) is echoed back verbatim so
//! clients can correlate pipelined traffic.
//!
//! Error objects carry a stable `class` (see [`WireError`]) and, for
//! failures originating in the execution stack, the same stable
//! `exit_code` the `sspar` CLI would have exited with — the daemon is the
//! CLI's contract over a socket.

use crate::jsonin::{self, Value};
use ss_interp::json;
use ss_interp::request::{self, Raw, Surface};
use ss_interp::{RunRequest, SsError};

/// The operations a request line can name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Compile (or fetch from the tenant's cache) and return the analysis
    /// report — no execution.
    Analyze,
    /// Compile and execute, returning the stable `RunOutcome` JSON.
    Run,
    /// The engine registry (names, capabilities, opt levels).
    Engines,
    /// Daemon-wide counters: per-endpoint latency percentiles, queue
    /// rejections, per-tenant cache statistics.
    Stats,
    /// Graceful drain: stop accepting, finish in-flight work, exit.
    Shutdown,
}

impl Op {
    /// The wire name (`"op"` field value).
    pub fn name(self) -> &'static str {
        match self {
            Op::Analyze => "analyze",
            Op::Run => "run",
            Op::Engines => "engines",
            Op::Stats => "stats",
            Op::Shutdown => "shutdown",
        }
    }
}

/// A parsed request line.
#[derive(Debug, Clone)]
pub struct Request {
    /// The operation.
    pub op: Op,
    /// Client correlation id, echoed into the response (already rendered
    /// as a JSON value: quoted string or bare integer).
    pub id: Option<String>,
    /// Session namespace; tenants share nothing but the process.
    pub tenant: String,
    /// Catalogue kernel name (`kernel`) — exclusive with `source`.
    pub kernel: Option<String>,
    /// Program name for inline `source` (defaults to `"inline"`).
    pub name: Option<String>,
    /// Inline mini-C source — exclusive with `kernel`.
    pub source: Option<String>,
    /// Embed the final heap in the `run` response.
    pub include_heap: bool,
    /// The knobs of a `run` — every key the [`ss_interp::request`] table
    /// carries on the wire, applied over the wire's starting point
    /// (program left empty until the service resolves `kernel`/`source`).
    pub run: RunRequest,
}

/// A structured wire failure: a stable machine-readable `class`, a human
/// `message`, and the CLI-compatible `exit_code` of the failure class
/// (transport-layer classes reuse 2, the usage code).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Stable class label: `malformed`, `oversized`, `timeout`,
    /// `overloaded`, `shutting_down`, `internal`, or an execution class (`parse`,
    /// `unknown_kernel`, `unknown_engine`, `unsupported`, `runtime`,
    /// `validation`, `usage`, `io`).
    pub class: &'static str,
    /// Human-readable description.
    pub message: String,
    /// The exit code `sspar` maps this failure class to.
    pub exit_code: i32,
}

impl WireError {
    /// A request line that is not valid JSON or not a valid request shape.
    pub fn malformed(message: impl Into<String>) -> WireError {
        WireError {
            class: "malformed",
            message: message.into(),
            exit_code: 2,
        }
    }

    /// A request line exceeding the configured byte cap.
    pub fn oversized(limit: usize) -> WireError {
        WireError {
            class: "oversized",
            message: format!("request line exceeds {limit} bytes"),
            exit_code: 2,
        }
    }

    /// An idle connection exceeding the configured read timeout.
    pub fn timeout(limit_ms: u64) -> WireError {
        WireError {
            class: "timeout",
            message: format!("no complete request line within {limit_ms} ms"),
            exit_code: 2,
        }
    }

    /// Admission control: the bounded request queue is full.
    pub fn overloaded(queue: usize) -> WireError {
        WireError {
            class: "overloaded",
            message: format!("request queue full ({queue} pending); retry later"),
            exit_code: 2,
        }
    }

    /// The daemon is draining and no longer admits requests.
    pub fn shutting_down() -> WireError {
        WireError {
            class: "shutting_down",
            message: "daemon is draining; no new requests admitted".to_string(),
            exit_code: 2,
        }
    }

    /// Serving the request panicked — a bug in the daemon or an engine,
    /// not in the request.  101 is the exit code of a panicking `sspar`.
    pub fn internal(panic_message: &str) -> WireError {
        WireError {
            class: "internal",
            message: format!("request handler panicked: {panic_message}"),
            exit_code: 101,
        }
    }
}

impl From<&SsError> for WireError {
    fn from(e: &SsError) -> WireError {
        let class = match e {
            SsError::Usage(_) => "usage",
            SsError::Io { .. } => "io",
            SsError::Parse(_) => "parse",
            SsError::UnknownKernel(_) => "unknown_kernel",
            SsError::UnknownEngine { .. } => "unknown_engine",
            SsError::Unsupported { .. } => "unsupported",
            SsError::Runtime(_) => "runtime",
            SsError::Validation { .. } => "validation",
        };
        WireError {
            class,
            message: e.to_string(),
            exit_code: e.exit_code(),
        }
    }
}

/// Renders a success response line (no trailing newline).
pub fn ok_response(id: Option<&str>, op: Op, result: String) -> String {
    let mut fields = vec![("ok", "true".to_string())];
    if let Some(id) = id {
        fields.push(("id", id.to_string()));
    }
    fields.push(("op", json::string(op.name())));
    fields.push(("result", result));
    json::object(fields)
}

/// Renders an error response line (no trailing newline).
pub fn error_response(id: Option<&str>, error: &WireError) -> String {
    let mut fields = vec![("ok", "false".to_string())];
    if let Some(id) = id {
        fields.push(("id", id.to_string()));
    }
    fields.push((
        "error",
        json::object([
            ("class", json::string(error.class)),
            ("message", json::string(&error.message)),
            ("exit_code", error.exit_code.to_string()),
        ]),
    ));
    json::object(fields)
}

/// Parses one request line.  Unknown fields are ignored (forward
/// compatibility); unknown `op`s, type mismatches and contradictory
/// program selectors are [`WireError::malformed`].
pub fn parse_request(line: &str) -> Result<Request, WireError> {
    let value = jsonin::parse(line).map_err(|e| WireError::malformed(format!("bad JSON: {e}")))?;
    let Value::Obj(entries) = &value else {
        return Err(WireError::malformed("request must be a JSON object"));
    };

    let id = match value.get("id") {
        None | Some(Value::Null) => None,
        Some(Value::Str(s)) => Some(json::string(s)),
        Some(n @ Value::Num(_)) => Some(
            n.as_i64()
                .ok_or_else(|| WireError::malformed("'id' must be a string or integer"))?
                .to_string(),
        ),
        Some(_) => return Err(WireError::malformed("'id' must be a string or integer")),
    };

    let op = match value.get("op").and_then(Value::as_str) {
        Some("analyze") => Op::Analyze,
        Some("run") => Op::Run,
        Some("engines") => Op::Engines,
        Some("stats") => Op::Stats,
        Some("shutdown") => Op::Shutdown,
        Some(other) => {
            return Err(WireError::malformed(format!(
                "unknown op '{other}' (expected analyze|run|engines|stats|shutdown)"
            )))
        }
        None => return Err(WireError::malformed("missing string field 'op'")),
    };

    let str_field = |key: &str| -> Result<Option<String>, WireError> {
        match value.get(key) {
            None | Some(Value::Null) => Ok(None),
            Some(Value::Str(s)) => Ok(Some(s.clone())),
            Some(_) => Err(WireError::malformed(format!("'{key}' must be a string"))),
        }
    };
    let include_heap = match value.get("include_heap") {
        None | Some(Value::Null) => false,
        Some(v) => v
            .as_bool()
            .ok_or_else(|| WireError::malformed("'include_heap' must be a boolean"))?,
    };

    let kernel = str_field("kernel")?;
    let source = str_field("source")?;
    if matches!(op, Op::Analyze | Op::Run) {
        match (&kernel, &source) {
            (Some(_), Some(_)) => {
                return Err(WireError::malformed(
                    "give either 'kernel' or 'source', not both",
                ))
            }
            (None, None) => {
                return Err(WireError::malformed(format!(
                    "'{}' needs a program: 'kernel' (catalogue name) or 'source'",
                    op.name()
                )))
            }
            _ => {}
        }
    }

    // The knobs: every key of the wire surface in the request-schema
    // table is checked (kind, bounds) and applied; every other key is
    // ignored (forward compatibility).  The wire starts from the
    // embedding API's defaults, as the command line does.
    let mut run = RunRequest::new("", "");
    if op == Op::Run {
        for (key, v) in entries {
            let raw = match v {
                Value::Null => continue,
                Value::Bool(b) => Raw::Bool(*b),
                Value::Str(s) => Raw::Str(s),
                Value::Num(_) => v.as_i64().map_or(Raw::Other, Raw::Int),
                Value::Arr(_) | Value::Obj(_) => Raw::Other,
            };
            if let Some(field) = request::lookup(Surface::WireRun, key) {
                field
                    .apply(&mut run, raw)
                    .map_err(|e| WireError::malformed(format!("'{}' {}", e.key, e.reason)))?;
            }
        }
    }

    Ok(Request {
        op,
        id,
        tenant: str_field("tenant")?.unwrap_or_else(|| "default".to_string()),
        kernel,
        name: str_field("name")?,
        source,
        include_heap,
        run,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_interp::{ExecutionMode, InputSource, InputSpec, OptLevel, ValidationMode};

    fn input_spec(request: &RunRequest) -> InputSpec {
        match &request.inputs {
            InputSource::Synthesized(spec) => *spec,
            InputSource::Explicit(_) => panic!("wire requests synthesize their inputs"),
        }
    }

    #[test]
    fn minimal_requests_parse_with_defaults() {
        let r = parse_request(r#"{"op":"run","kernel":"fig2_ua_transfer"}"#).unwrap();
        assert_eq!(r.op, Op::Run);
        assert_eq!(r.tenant, "default");
        assert_eq!(r.kernel.as_deref(), Some("fig2_ua_transfer"));
        assert!(!r.include_heap);
        assert!(r.id.is_none());
        // No knob given: the wire's starting point, which is the embedding
        // API's (scale 64, not the command line's 256).
        assert_eq!(r.run, RunRequest::new("", ""));
        assert_eq!(r.run.opt_level, OptLevel::O1);
        assert_eq!(r.run.validation, ValidationMode::None);
        assert_eq!(r.run.mode, ExecutionMode::Both);
        assert_eq!(input_spec(&r.run).scale, 64);

        let r = parse_request(r#"{"op":"engines"}"#).unwrap();
        assert_eq!(r.op, Op::Engines);
    }

    #[test]
    fn full_requests_parse_every_knob() {
        let r = parse_request(
            r#"{"op":"run","id":7,"tenant":"t1","source":"x = 1;","name":"p",
               "engine":"bytecode","opt_level":0,"threads":2,"scale":64,"seed":9,
               "validate":true,"include_heap":true,"mode":"serial"}"#,
        )
        .unwrap();
        assert_eq!(r.id.as_deref(), Some("7"));
        assert_eq!(r.tenant, "t1");
        assert!(r.include_heap);
        let run = &r.run;
        assert_eq!(run.engine.as_deref(), Some("bytecode"));
        assert_eq!(run.opt_level, OptLevel::O0);
        assert_eq!(run.threads, Some(2));
        assert_eq!(input_spec(run), InputSpec { scale: 64, seed: 9 });
        assert_eq!(run.mode, ExecutionMode::Serial);
        assert_eq!(run.validation, ValidationMode::Differential);

        let r = parse_request(r#"{"op":"stats","id":"abc"}"#).unwrap();
        assert_eq!(r.id.as_deref(), Some("\"abc\""));

        // Keys outside the wire surface are unknown keys, and unknown keys
        // are ignored: `schedule` is command-line only; `policy`,
        // `budget_trials` and `frobnicate` belong to no surface.
        let r = parse_request(
            r#"{"op":"run","kernel":"k","schedule":"dynamic","budget_trials":3,
               "policy":"tuned","frobnicate":[1],"threads":null}"#,
        )
        .unwrap();
        assert_eq!(r.run, RunRequest::new("", ""));
    }

    #[test]
    fn malformed_requests_are_rejected_with_reasons() {
        for (line, needle) in [
            ("not json", "bad JSON"),
            ("[1,2]", "must be a JSON object"),
            (r#"{"op":"dance"}"#, "unknown op"),
            // No op searches execution policies.
            (r#"{"op":"tune","kernel":"k"}"#, "unknown op 'tune'"),
            (r#"{"kernel":"k"}"#, "missing string field 'op'"),
            (r#"{"op":"run"}"#, "needs a program"),
            (r#"{"op":"run","kernel":"k","source":"x = 1;"}"#, "not both"),
            (r#"{"op":"run","kernel":"k","opt_level":3}"#, "0 or 1"),
            (r#"{"op":"run","kernel":"k","threads":0}"#, "positive"),
            (r#"{"op":"run","kernel":"k","mode":"warp"}"#, "mode"),
            (r#"{"op":"run","kernel":"k","id":[1]}"#, "'id'"),
            // Out-of-range knobs name the key.  All five answered
            // `"ok":true` before the bounds moved into the schema table
            // (`threads:40000` after aborting the daemon process).
            (r#"{"op":"run","kernel":"k","scale":0}"#, "'scale'"),
            (r#"{"op":"run","kernel":"k","scale":-5}"#, "'scale'"),
            (r#"{"op":"run","kernel":"k","seed":-1}"#, "'seed'"),
            (r#"{"op":"run","kernel":"k","threads":40000}"#, "'threads'"),
            (r#"{"op":"run","kernel":"k","scale":1000000}"#, "'scale'"),
            (r#"{"op":"run","kernel":"k","threads":2.5}"#, "'threads'"),
            (
                r#"{"op":"run","kernel":"k","validate":"yes"}"#,
                "'validate'",
            ),
            (
                r#"{"op":"run","kernel":"k","include_heap":1}"#,
                "'include_heap'",
            ),
        ] {
            let err = parse_request(line).unwrap_err();
            assert_eq!(err.class, "malformed", "{line}");
            assert!(err.message.contains(needle), "{line}: {}", err.message);
        }
    }

    #[test]
    fn responses_render_and_echo_ids() {
        let ok = ok_response(Some("7"), Op::Run, "{}".to_string());
        assert_eq!(ok, r#"{"ok":true,"id":7,"op":"run","result":{}}"#);
        let err = error_response(Some("\"abc\""), &WireError::overloaded(4));
        assert!(err.starts_with(r#"{"ok":false,"id":"abc","error":{"class":"overloaded""#));
        assert!(err.contains("\"exit_code\":2"));
        let bare = error_response(None, &WireError::malformed("x"));
        assert!(bare.starts_with(r#"{"ok":false,"error":"#));
    }

    #[test]
    fn execution_errors_map_to_stable_classes_and_exit_codes() {
        let e = SsError::UnknownKernel("nope".to_string());
        let w = WireError::from(&e);
        assert_eq!((w.class, w.exit_code), ("unknown_kernel", 5));
        let e = SsError::Validation {
            program: "p".to_string(),
            mismatches: vec!["m".to_string()],
        };
        let w = WireError::from(&e);
        assert_eq!((w.class, w.exit_code), ("validation", 8));
    }
}
