//! Minimal JSON emission (the workspace builds offline and std-only, so
//! machine-readable output is rendered by hand here).
//!
//! This is the **single serializer path** for every machine-readable
//! surface of the system: `sspar run --format json`, the stable schemas
//! of [`crate::session`], and the `sspard` daemon's wire responses all
//! render through these helpers, so the formats cannot drift apart.
//! Strings are escaped per RFC 8259 and non-finite numbers become `null`.

use crate::heap::Heap;

/// Escapes `s` as the *contents* of a JSON string (no surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A quoted, escaped JSON string literal.
pub fn string(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

/// A JSON number for `v`, or `null` when it is not finite (JSON has no
/// NaN/Infinity).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` round-trips f64 (shortest representation) and always
        // parses as a JSON number.
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// `[a,b,c]` from already-rendered JSON values.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    let body: Vec<String> = items.into_iter().collect();
    format!("[{}]", body.join(","))
}

/// An array of string literals.
pub fn string_array<'a>(items: impl IntoIterator<Item = &'a str>) -> String {
    array(items.into_iter().map(string))
}

/// `{"k":v,…}` from already-rendered JSON values.
pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let body: Vec<String> = fields
        .into_iter()
        .map(|(k, v)| format!("{}:{v}", string(k)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// The full contents of a [`Heap`] as one JSON object:
/// `{"scalars":{name:value,…},"arrays":{name:{"dims":[…],"data":[…]},…}}`.
///
/// `BTreeMap` iteration makes the rendering deterministic, so two
/// bit-identical heaps always serialize to byte-identical JSON — the
/// property the daemon soak test and cross-engine validation rely on.
pub fn heap_json(heap: &Heap) -> String {
    let scalars = object(
        heap.scalars
            .iter()
            .map(|(name, value)| (name.as_str(), value.to_string())),
    );
    let arrays = object(heap.arrays.iter().map(|(name, arr)| {
        (
            name.as_str(),
            object([
                ("dims", array(arr.dims.iter().map(|d| d.to_string()))),
                ("data", array(arr.data.iter().map(|v| v.to_string()))),
            ]),
        )
    }));
    object([("scalars", scalars), ("arrays", arrays)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_quotes_newlines_and_control_chars() {
        assert_eq!(escape(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(escape("x\ny\tz"), "x\\ny\\tz");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(string("hi"), "\"hi\"");
    }

    #[test]
    fn numbers_round_trip_and_nonfinite_becomes_null() {
        assert_eq!(number(1.5), "1.5");
        assert_eq!(number(0.0), "0.0");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }

    #[test]
    fn heap_renders_scalars_and_arrays_deterministically() {
        let heap = Heap::new().with_scalar("n", 3).with_array("a", vec![7, -1]);
        assert_eq!(
            heap_json(&heap),
            r#"{"scalars":{"n":3},"arrays":{"a":{"dims":[2],"data":[7,-1]}}}"#
        );
    }

    #[test]
    fn composites_render() {
        assert_eq!(
            object([("a", "1".to_string()), ("b", string_array(["x"]))]),
            r#"{"a":1,"b":["x"]}"#
        );
        assert_eq!(array(["1".to_string(), "2".to_string()]), "[1,2]");
    }
}
