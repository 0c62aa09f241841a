//! The one JSON value type of the workspace.
//!
//! Every document the system writes — the metrics object, the
//! `sia.profile.v1` profile, the Chrome trace, `sia.diag.v1`, the language
//! server's messages and the bench reports — is built as a [`Json`] and
//! printed by its `Display`; every document it reads is parsed into one by
//! [`parse_json`]. One escaper and one number spelling follow: an integer
//! exactly as written, any other number in its shortest round-trip form and
//! never with an exponent, a non-finite number as `null`. The output is
//! compact: no whitespace between tokens.

use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true`/`false`
    Bool(bool),
    /// An integer, exact over the whole `u64` and `i64` ranges.
    Int(i128),
    /// Any other number.
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, insertion order preserved. A writer's keys are literals,
    /// borrowed rather than copied into every member.
    Obj(Vec<(Cow<'static, str>, Json)>),
}

impl Json {
    /// An object with these members, in this order.
    pub fn obj<K: Into<Cow<'static, str>>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The object's members, if this is an object.
    pub fn as_object(&self) -> Option<&[(Cow<'static, str>, Json)]> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is a number (an integer rounds to the nearest
    /// `f64`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The integer, if this is one that fits a `u64` — exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }
}

macro_rules! from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Int(n as i128)
            }
        }
    )*};
}
from_int!(i32, u32, u64, usize);

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl FromIterator<Json> for Json {
    fn from_iter<I: IntoIterator<Item = Json>>(items: I) -> Json {
        Json::Arr(items.into_iter().collect())
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => fmt::Display::fmt(b, f),
            Json::Int(n) => fmt::Display::fmt(n, f),
            Json::Num(x) if !x.is_finite() => f.write_str("null"),
            // `{}` never writes an exponent; the `.0` keeps an integral
            // float a float when it is read back.
            Json::Num(x) if x.fract() == 0.0 => write!(f, "{x:.1}"),
            Json::Num(x) => fmt::Display::fmt(x, f),
            Json::Str(s) => write_string(f, s),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    v.fmt(f)?;
                }
                f.write_char(']')
            }
            Json::Obj(members) => {
                f.write_char('{')?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write_string(f, k)?;
                    f.write_char(':')?;
                    v.fmt(f)?;
                }
                f.write_char('}')
            }
        }
    }
}

/// The one string escaper. Runs that need no escape are written whole.
fn write_string(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    let mut run = 0;
    // Every character that needs an escape is ASCII, so byte indices do.
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        f.write_str(&s[run..i])?;
        match b {
            b'"' => f.write_str("\\\"")?,
            b'\\' => f.write_str("\\\\")?,
            b'\n' => f.write_str("\\n")?,
            b'\r' => f.write_str("\\r")?,
            b'\t' => f.write_str("\\t")?,
            b => write!(f, "\\u{b:04x}")?,
        }
        run = i + 1;
    }
    f.write_str(&s[run..])?;
    f.write_char('"')
}

/// What a lint reads: a parsed document, or text that it parses first.
pub trait Document {
    /// The document as a tree.
    fn tree(&self) -> Result<Cow<'_, Json>, String>;
}

impl Document for Json {
    fn tree(&self) -> Result<Cow<'_, Json>, String> {
        Ok(Cow::Borrowed(self))
    }
}

impl<T: AsRef<str> + ?Sized> Document for T {
    fn tree(&self) -> Result<Cow<'_, Json>, String> {
        parse_json(self.as_ref()).map(Cow::Owned)
    }
}

/// Deepest `[`/`{` nesting [`parse_json`] follows — ten times what the
/// trace and profile exports use. The parser recurses once per level and
/// the file may be anybody's, so past this it is an error, not a stack.
const MAX_JSON_DEPTH: usize = 128;

/// Parses a JSON document; errors carry a byte offset.
pub fn parse_json(s: &str) -> Result<Json, String> {
    let b = s.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(b, &mut pos, 0)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth == MAX_JSON_DEPTH => Err(format!(
            "nesting deeper than {MAX_JSON_DEPTH} at byte {pos}"
        )),
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(b, pos, depth + 1)? {
                    Json::Str(s) => s,
                    _ => return Err(format!("object key is not a string at byte {pos}")),
                };
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let val = parse_value(b, pos, depth + 1)?;
                members.push((key.into(), val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b't') => expect_lit(b, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect_lit(b, pos, "false").map(|()| Json::Bool(false)),
        Some(b'n') => expect_lit(b, pos, "null").map(|()| Json::Null),
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
            // An integer literal keeps its exact value; past `i128` it is
            // an ordinary number.
            match text.parse::<i128>() {
                Ok(n) => Ok(Json::Int(n)),
                Err(_) => text
                    .parse::<f64>()
                    .map(Json::Num)
                    .map_err(|_| format!("bad number {text:?} at byte {start}")),
            }
        }
    }
}

fn expect_lit(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

/// The four hex digits of a `\u` escape whose `u` is at `at`.
fn hex4(b: &[u8], at: usize) -> Result<u32, String> {
    b.get(at + 1..at + 5)
        .and_then(|h| std::str::from_utf8(h).ok())
        .and_then(|h| u32::from_str_radix(h, 16).ok())
        .ok_or_else(|| format!("bad \\u escape at byte {at}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let mut code = hex4(b, *pos)?;
                        *pos += 4;
                        // A high surrogate escape and the low one after it
                        // are one character outside the basic plane.
                        if (0xd800..0xdc00).contains(&code) && b[*pos + 1..].starts_with(b"\\u") {
                            let low = hex4(b, *pos + 2)?;
                            if (0xdc00..0xe000).contains(&low) {
                                code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                                *pos += 6;
                            }
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // The ordinary characters up to the next quote or escape,
                // in one copy. Both delimiters are ASCII and `b` is the
                // bytes of a `&str`, so the run is whole UTF-8 scalars.
                let run = &b[*pos..];
                let len = run.iter().position(|c| matches!(c, b'"' | b'\\'));
                let run = &run[..len.unwrap_or(run.len())];
                out.push_str(std::str::from_utf8(run).map_err(|e| e.to_string())?);
                *pos += run.len();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_round_trips_basics() {
        let v = parse_json(r#"{"a":[1,2.5,-3e2],"b":"xA","c":true,"d":null}"#).unwrap();
        assert_eq!(v.get("b").and_then(Json::as_str), Some("xA"));
        let arr = v.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(arr[0], Json::Int(1));
        assert_eq!(arr[2].as_f64(), Some(-300.0));
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        // Runs between escapes are copied whole, multi-byte scalars included.
        let v = parse_json(r#"["é→\u00e9\"ß\\", ""]"#).unwrap();
        assert_eq!(v.as_array().unwrap()[0].as_str(), Some("é→é\"ß\\"));
        assert!(parse_json("\"open").is_err());
        // The tree prints back to the same text, compact.
        let text = r#"{"a":[1,2.5,-300.0,-0.0],"b":"xA","c":true,"d":null}"#;
        assert_eq!(parse_json(text).unwrap().to_string(), text);
    }

    /// The file is anybody's: nesting past the cap is an error, not a stack
    /// overflow, and nesting up to it parses.
    #[test]
    fn parser_bounds_nesting() {
        let err = parse_json(&"[".repeat(100_000)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        let err = parse_json(&r#"{"a":"#.repeat(100_000)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        let deep = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse_json(&deep(MAX_JSON_DEPTH)).is_ok());
        assert!(parse_json(&deep(MAX_JSON_DEPTH + 1)).is_err());
    }

    #[test]
    fn writer_escapes_strings() {
        let doc = Json::obj([("a\"b", Json::from("x\ny\t\u{1}\\é"))]);
        assert_eq!(doc.to_string(), r#"{"a\"b":"x\ny\t\u0001\\é"}"#);
        assert_eq!(parse_json(&doc.to_string()).unwrap(), doc);
    }

    /// Integers are read back bit-equal, however large; other numbers keep
    /// every digit and never print an exponent or a non-finite value.
    #[test]
    fn numbers_keep_their_value() {
        for n in [u64::MAX, (32 << 48) | 1, 0] {
            let back = parse_json(&Json::from(n).to_string()).unwrap();
            assert_eq!(back.as_u64(), Some(n));
        }
        assert_eq!(parse_json("-4").unwrap().as_u64(), None);
        assert_eq!(parse_json("1.0").unwrap().as_u64(), None);
        for (x, text) in [
            (0.1 + 0.2, "0.30000000000000004"),
            (2.5e-7, "0.00000025"),
            (1e21, "1000000000000000000000.0"),
            (7.0, "7.0"),
            (f64::NAN, "null"),
            (f64::NEG_INFINITY, "null"),
        ] {
            assert_eq!(Json::Num(x).to_string(), text);
        }
        assert_eq!(parse_json("0.00000025").unwrap(), Json::Num(2.5e-7));
    }

    #[test]
    fn surrogate_pair_escape_is_one_character() {
        let v = parse_json(r#""\uD83D\uDE00 \ud83d x \uDE00""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600} \u{fffd} x \u{fffd}"));
    }
}
