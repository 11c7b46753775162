//! Minimal JSON *parsing* for the daemon's wire protocol.
//!
//! The emission half lives in `ss_interp::json` (the single serializer
//! path of the whole system); this module is its inverse, just big enough
//! to read one request object per line: RFC 8259 values, string escapes
//! including `\uXXXX` (with surrogate pairs), and numbers via `f64`.
//! Hand-rolled because the workspace builds offline and std-only.

/// A parsed JSON value.  Object fields keep their source order; lookups
/// go through [`Value::get`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`; see [`Value::as_i64`]).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, fields in source order (later duplicates shadow earlier
    /// ones in [`Value::get`]).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The value of field `key`, for objects (last occurrence wins).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, for strings.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, for booleans.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number payload, for numbers.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number payload as an integer, when it is one exactly (no
    /// fractional part, within `i64` range).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Num(n) if n.fract() == 0.0 && n.abs() < 9.0e18 => Some(*n as i64),
            _ => None,
        }
    }

    /// The array elements, for arrays.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses exactly one JSON value from `input` (surrounding whitespace
/// allowed, trailing garbage rejected).  Errors carry a byte offset and a
/// short description.
pub fn parse(input: &str) -> Result<Value, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing characters at byte {pos}"));
    }
    Ok(value)
}

/// Nesting guard: a request line is one flat-ish object; anything deeper
/// than this is hostile or broken input, not a protocol message.
const MAX_DEPTH: usize = 64;

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(bytes, pos, depth),
        Some(b'[') => parse_array(bytes, pos, depth),
        Some(b'"') => parse_string(bytes, pos).map(Value::Str),
        Some(b't') => parse_literal(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Value::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(c) => Err(format!("unexpected byte {c:#04x} at byte {pos}")),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: Value,
) -> Result<Value, String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(format!("expected '{literal}' at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii number slice");
    text.parse::<f64>()
        .ok()
        .filter(|n| n.is_finite())
        .map(Value::Num)
        .ok_or_else(|| format!("invalid number '{text}' at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        *pos += 1;
                        let first = parse_hex4(bytes, pos)?;
                        let code = if (0xD800..0xDC00).contains(&first) {
                            // High surrogate: a \uXXXX low surrogate must
                            // follow to form one scalar value.
                            if bytes.get(*pos) == Some(&b'\\') && bytes.get(*pos + 1) == Some(&b'u')
                            {
                                *pos += 2;
                                let second = parse_hex4(bytes, pos)?;
                                if !(0xDC00..0xE000).contains(&second) {
                                    return Err("invalid low surrogate".to_string());
                                }
                                0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
                            } else {
                                return Err("lone high surrogate".to_string());
                            }
                        } else if (0xDC00..0xE000).contains(&first) {
                            return Err("lone low surrogate".to_string());
                        } else {
                            first
                        };
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| format!("invalid code point {code:#x}"))?,
                        );
                        continue; // parse_hex4 already advanced past the digits
                    }
                    other => return Err(format!("invalid escape {other:?}")),
                }
                *pos += 1;
            }
            Some(&c) if c < 0x20 => {
                return Err(format!("unescaped control byte {c:#04x} in string"));
            }
            Some(_) => {
                // Copy one UTF-8 scalar (input is a &str, so boundaries
                // are valid by construction).
                let text = std::str::from_utf8(&bytes[*pos..]).map_err(|_| "invalid utf-8")?;
                let ch = text.chars().next().expect("non-empty checked above");
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, String> {
    let slice = bytes
        .get(*pos..*pos + 4)
        .ok_or_else(|| "truncated \\u escape".to_string())?;
    let text = std::str::from_utf8(slice).map_err(|_| "non-ascii \\u escape".to_string())?;
    let code = u32::from_str_radix(text, 16).map_err(|_| format!("bad \\u escape '{text}'"))?;
    *pos += 4;
    Ok(code)
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        skip_ws(bytes, pos);
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    *pos += 1; // consume '{'
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}"));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}"));
        }
        *pos += 1;
        skip_ws(bytes, pos);
        let value = parse_value(bytes, pos, depth + 1)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_parse() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("-42").unwrap().as_i64(), Some(-42));
        assert_eq!(parse("1.5e2").unwrap().as_f64(), Some(150.0));
        assert_eq!(parse("1.5").unwrap().as_i64(), None);
        assert_eq!(parse(r#""hi""#).unwrap().as_str(), Some("hi"));
    }

    #[test]
    fn strings_decode_escapes_and_surrogate_pairs() {
        assert_eq!(
            parse(r#""a\"b\\c\n\tA""#).unwrap().as_str(),
            Some("a\"b\\c\n\tA")
        );
        assert_eq!(parse(r#""😀""#).unwrap().as_str(), Some("😀"));
        assert!(parse(r#""\ud83d""#).is_err());
        assert!(parse("\"raw\ncontrol\"").is_err());
    }

    #[test]
    fn composites_parse_and_get_resolves_fields() {
        let v = parse(r#"{"op":"run","n":3,"flags":[1,2],"deep":{"x":null}}"#).unwrap();
        assert_eq!(v.get("op").and_then(Value::as_str), Some("run"));
        assert_eq!(v.get("n").and_then(Value::as_i64), Some(3));
        assert_eq!(
            v.get("flags").and_then(Value::as_arr).map(<[Value]>::len),
            Some(2)
        );
        assert_eq!(v.get("deep").and_then(|d| d.get("x")), Some(&Value::Null));
        assert_eq!(v.get("absent"), None);
    }

    #[test]
    fn duplicate_keys_shadow_and_errors_are_structured() {
        let v = parse(r#"{"a":1,"a":2}"#).unwrap();
        assert_eq!(v.get("a").and_then(Value::as_i64), Some(2));
        for bad in ["{", "[1,", r#"{"a"}"#, "tru", "1 2", "", "nan"] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn round_trips_the_emitter_output() {
        // The emitter in ss_interp::json is the other half of the wire;
        // whatever it produces must come back unchanged.
        let emitted = ss_interp::json::object([
            ("s", ss_interp::json::string("x\n\"y\"")),
            ("n", ss_interp::json::number(2.5)),
            ("a", ss_interp::json::string_array(["p", "q"])),
        ]);
        let v = parse(&emitted).unwrap();
        assert_eq!(v.get("s").and_then(Value::as_str), Some("x\n\"y\""));
        assert_eq!(v.get("n").and_then(Value::as_f64), Some(2.5));
        assert_eq!(
            v.get("a").and_then(Value::as_arr).unwrap()[1].as_str(),
            Some("q")
        );
    }

    #[test]
    fn depth_is_bounded() {
        let mut hostile = String::new();
        for _ in 0..100 {
            hostile.push('[');
        }
        assert!(parse(&hostile).is_err());
    }
}
