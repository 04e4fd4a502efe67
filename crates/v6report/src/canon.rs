//! A hand-rolled canonical JSON value: writer and parser.
//!
//! The committed `reports/*.json` goldens are diffed byte-for-byte in
//! CI, so the serialized form must be a pure function of the data:
//!
//! * object keys are sorted (the value is stored in a `BTreeMap`, so
//!   insertion order cannot leak into the output);
//! * integers print as plain decimal; non-integral numbers always print
//!   with exactly three fractional digits (`{:.3}`), so re-parsing and
//!   re-writing a manifest is byte-stable;
//! * indentation is fixed at two spaces and every file ends in a single
//!   newline;
//! * there is nowhere to put a timestamp, hostname, or wall-clock
//!   figure — the schema in `manifest.rs` simply never records one.
//!
//! The parser accepts standard JSON (it must read `v6labd` job bodies,
//! which clients write, not us) and rejects duplicate keys, since a
//! manifest with two spellings of one field cannot be canonical.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value with canonical (sorted-key, fixed-format) rendering.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// A non-integral number; canonically rendered as `{:.3}`.
    F64(f64),
    /// A string.
    Str(String),
    /// An array (order is data, preserved as given).
    Arr(Vec<Json>),
    /// An object (keys always iterate sorted).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(BTreeMap::new())
    }

    /// Insert `key` into an object value; panics on non-objects (the
    /// builder in `manifest.rs` only ever calls it on objects).
    pub fn set(&mut self, key: &str, value: Json) {
        match self {
            Json::Obj(map) => {
                map.insert(key.to_string(), value);
            }
            other => panic!("set {key:?} on non-object {other:?}"),
        }
    }

    /// The member named `key`, if this is an object that has one.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// Walk a dotted path of object keys (array elements are not
    /// addressable this way; the differ walks them structurally).
    pub fn get_path(&self, path: &[&str]) -> Option<&Json> {
        path.iter().try_fold(self, |v, k| v.get(k))
    }

    /// The value as `f64` if it is any kind of number.
    pub fn as_number(&self) -> Option<f64> {
        match *self {
            Json::U64(v) => Some(v as f64),
            Json::I64(v) => Some(v as f64),
            Json::F64(v) => Some(v),
            _ => None,
        }
    }

    /// Canonical text form (no trailing newline; callers writing files
    /// append one).
    pub fn canonical(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => {
                assert!(v.is_finite(), "canonical JSON holds finite numbers only");
                let _ = write!(out, "{v:.3}");
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    pad(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                pad(out, indent);
                out.push(']');
            }
            Json::Obj(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in map.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    pad(out, indent + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                out.push('\n');
                pad(out, indent);
                out.push('}');
            }
        }
    }

    /// Parse a JSON document (standard syntax, duplicate keys rejected).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(value)
    }
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(b) = bytes.get(*pos) {
        if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        } else {
            break;
        }
    }
}

fn expect(bytes: &[u8], pos: &mut usize, want: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&want) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected {:?} at byte {}, found {:?}",
            want as char,
            *pos,
            bytes.get(*pos).map(|&b| b as char)
        ))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos}", pos = *pos))
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        if map.insert(key.clone(), value).is_some() {
            return Err(format!("duplicate key {key:?}"));
        }
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            other => return Err(format!("expected ',' or '}}', found {other:?}")),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            other => return Err(format!("expected ',' or ']', found {other:?}")),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
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
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).ok_or("surrogate \\u escape")?);
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar, however many bytes long.
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().expect("non-empty by match arm");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut fractional = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                fractional = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    if fractional {
        let v: f64 = text.parse().map_err(|_| format!("bad number {text:?}"))?;
        if !v.is_finite() {
            return Err(format!("non-finite number {text:?}"));
        }
        Ok(Json::F64(v))
    } else if let Some(stripped) = text.strip_prefix('-') {
        let v: i64 = format!("-{stripped}")
            .parse()
            .map_err(|_| format!("bad number {text:?}"))?;
        Ok(Json::I64(v))
    } else {
        let v: u64 = text.parse().map_err(|_| format!("bad number {text:?}"))?;
        Ok(Json::U64(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_sort_regardless_of_insertion_order() {
        let mut a = Json::obj();
        a.set("zebra", Json::U64(1));
        a.set("alpha", Json::U64(2));
        let mut b = Json::obj();
        b.set("alpha", Json::U64(2));
        b.set("zebra", Json::U64(1));
        assert_eq!(a.canonical(), b.canonical());
        assert!(a.canonical().find("alpha") < a.canonical().find("zebra"));
    }

    #[test]
    fn roundtrip_is_byte_stable() {
        let mut v = Json::obj();
        v.set("count", Json::U64(66));
        v.set("ms", Json::F64(25.569));
        v.set("neg", Json::I64(-3));
        v.set("name", Json::Str("paper/off/macos \"q\"\n".into()));
        v.set("rows", Json::Arr(vec![Json::Bool(true), Json::Null]));
        v.set("empty", Json::obj());
        let text = v.canonical();
        let reparsed = Json::parse(&text).expect("own output parses");
        assert_eq!(reparsed.canonical(), text, "parse∘write is the identity");
    }

    #[test]
    fn floats_always_carry_three_decimals() {
        assert_eq!(Json::F64(2.78).canonical(), "2.780");
        assert_eq!(Json::F64(2581.0).canonical(), "2581.000");
        assert_eq!(Json::U64(2581).canonical(), "2581");
    }

    #[test]
    fn parser_accepts_bench_style_json_and_rejects_duplicates() {
        let bench = r#"{ "a": { "ms_per_iter": 1.234, "frames_per_sec": 123456 }, "s": 2.78 }"#;
        let v = Json::parse(bench).expect("parses");
        assert_eq!(
            v.get_path(&["a", "frames_per_sec"]),
            Some(&Json::U64(123456))
        );
        assert!(Json::parse(r#"{"a":1,"a":2}"#).is_err());
        assert!(Json::parse("{}x").is_err());
    }
}
