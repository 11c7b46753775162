//! The request schema and the JSON layer, seen from the one crate where
//! both halves of each are visible: the wire parser next to the table's
//! command-line spelling, and the `jsonin` parser next to the
//! `ss_interp::json` emitter.

use ss_daemon::jsonin::{self, Value};
use ss_daemon::protocol::parse_request;
use ss_interp::request::{self, Field, Kind, Raw, Surface};
use ss_interp::{analysis_json, json, registry_json, RunRequest, Session, ValidationMode};

/// In-range and out-of-range sample values of a row, in the spelling a
/// command line would carry them (JSON renders them per kind below).
fn samples(field: &Field) -> (Vec<String>, Vec<String>) {
    match field.kind {
        Kind::Int(min, max, _) => {
            let top = if max == i64::MAX { min + 12_345 } else { max };
            let mut bad = vec![(min - 1).to_string()];
            if max != i64::MAX {
                bad.push((max + 1).to_string());
            }
            (vec![min.to_string(), top.to_string()], bad)
        }
        Kind::Flag(_) => (vec!["true".to_string()], vec![]),
        Kind::Choice(options) => (
            options.iter().map(|(word, _)| word.to_string()).collect(),
            vec!["bogus".to_string()],
        ),
        Kind::Text(_) => (vec!["threaded".to_string()], vec![]),
    }
}

/// For every row carried by both the command line and the wire: the flag
/// spelling and the JSON spelling of the same in-range value build equal
/// `RunRequest`s, and the same out-of-range value is rejected by both.
#[test]
fn flag_and_json_spellings_of_every_shared_row_agree() {
    let mut shared = 0;
    for field in request::fields(Surface::CliRun).filter(|f| f.on.contains(&Surface::WireRun)) {
        shared += 1;
        let by_flag = request::lookup(Surface::CliRun, field.flag).expect("carried by the surface");
        let line = |value: &str| {
            let rendered = match field.kind {
                Kind::Int(..) | Kind::Flag(_) => value.to_string(),
                Kind::Choice(_) | Kind::Text(_) => json::string(value),
            };
            format!(r#"{{"op":"run","kernel":"k","{}":{rendered}}}"#, field.key)
        };
        let (good, bad) = samples(field);
        for value in &good {
            let mut from_flag = RunRequest::new("", "");
            let raw = if by_flag.takes_value() {
                Raw::Arg(value)
            } else {
                Raw::Bool(true)
            };
            by_flag.apply(&mut from_flag, raw).expect(field.flag);
            let from_wire = parse_request(&line(value)).expect(field.key).run;
            assert_eq!(from_flag, from_wire, "{} = {value}", field.key);
        }
        for value in &bad {
            let mut request = RunRequest::new("", "");
            let flag_err = by_flag.apply(&mut request, Raw::Arg(value)).unwrap_err();
            let wire_err = parse_request(&line(value)).unwrap_err();
            assert_eq!(wire_err.class, "malformed", "{} = {value}", field.key);
            // Same expectation in both messages; only the echo of the
            // offending value is spelled per surface.
            let (expects, _) = flag_err
                .reason
                .split_once(", got")
                .expect("must be …, got …");
            assert!(
                wire_err.message.contains(field.key) && wire_err.message.contains(expects),
                "{} = {value}: {} vs {}",
                field.key,
                wire_err.message,
                flag_err.reason
            );
        }
    }
    // engine, opt_level, threads, scale, seed, validate.
    assert_eq!(shared, 6);
}

/// Keeps the hand-written protocol paragraph honest: every key a wire
/// surface of the schema carries is named in README's "Request fields".
#[test]
fn readme_request_fields_paragraph_names_every_wire_key() {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
        .expect("README.md at the workspace root");
    let paragraph = readme
        .split("\n\n")
        .find(|p| p.starts_with("Request fields:"))
        .expect("the 'Request fields:' paragraph");
    let own = [
        "op",
        "id",
        "tenant",
        "kernel",
        "source",
        "name",
        "include_heap",
    ];
    let schema = request::fields(Surface::WireRun).map(|f| f.key);
    for key in own.into_iter().chain(schema) {
        assert!(
            paragraph.contains(&format!("`{key}`")),
            "README omits `{key}`"
        );
    }
}

/// Deterministic xorshift64 — the vendored `proptest`/`rand` are stubs.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// A string drawn from the characters a JSON layer gets wrong:
    /// quotes, backslashes, every control byte, DEL, line separators,
    /// multi-byte and non-BMP scalars — among plain ASCII.
    fn string(&mut self) -> String {
        const NASTY: &[char] = &[
            '"',
            '\\',
            '/',
            '\u{7f}',
            '\u{e9}',
            '\u{2028}',
            '\u{2029}',
            '\u{fffd}',
            '\u{1d11e}',
            '\u{1f600}',
            '\u{10ffff}',
        ];
        let len = self.next() % 24;
        (0..len)
            .map(|_| match self.next() % 4 {
                0 => NASTY[(self.next() % NASTY.len() as u64) as usize],
                1 => char::from((self.next() % 0x20) as u8),
                _ => char::from(0x20 + (self.next() % 0x5f) as u8),
            })
            .collect()
    }
}

/// Emit → parse is the identity: what `ss_interp::json` renders,
/// `jsonin` reads back unchanged.
#[test]
fn emitted_json_parses_back_to_what_was_emitted() {
    let mut gen = Gen(0x9e37_79b9_7f4a_7c15);
    for _ in 0..2000 {
        let s = gen.string();
        let emitted = json::string(&s);
        assert_eq!(
            jsonin::parse(&emitted),
            Ok(Value::Str(s.clone())),
            "{s:?} as {emitted}"
        );
    }

    let fixed = [
        0.0,
        -0.0,
        1.0,
        -1.5,
        1e-7,
        1e21,
        123456789.125,
        f64::MAX,
        f64::MIN_POSITIVE,
    ];
    let random = std::iter::repeat_with(|| f64::from_bits(gen.next())).take(2000);
    for v in fixed.into_iter().chain(random) {
        let emitted = json::number(v);
        if v.is_finite() {
            assert_eq!(
                jsonin::parse(&emitted).ok().and_then(|p| p.as_f64()),
                Some(v),
                "{v:?} as {emitted}"
            );
        } else {
            assert_eq!(emitted, "null");
        }
    }
    for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert_eq!(jsonin::parse(&json::number(v)), Ok(Value::Null));
    }

    // The stable schemas, whole: one catalogue kernel through every
    // emitter the CLI and the daemon share.
    let kernel = ss_npb::study_kernels()
        .into_iter()
        .find(|k| k.name == "fig2_ua_transfer")
        .expect("catalogue kernel");
    let session = Session::new();
    let request = RunRequest::new(kernel.name, kernel.source)
        .threads(2)
        .scale(32)
        .validation(ValidationMode::Differential);
    let run = session.run(&request).expect("run");
    let artifacts = session
        .artifacts(kernel.name, kernel.source)
        .expect("artifacts");
    for (what, emitted) in [
        ("run outcome", run.to_json_with_heap()),
        ("analysis", analysis_json(&artifacts)),
    ] {
        let parsed = jsonin::parse(&emitted).unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(
            parsed.get("program").and_then(Value::as_str),
            Some(kernel.name),
            "{what}"
        );
    }
    let registry = jsonin::parse(&registry_json(session.registry())).expect("registry");
    assert_eq!(
        registry
            .get("engines")
            .and_then(Value::as_arr)
            .map(<[Value]>::len),
        Some(session.registry().names().len())
    );
}
