//! Hand-rolled JSON helpers: string escaping for the exporters, and one
//! strict parser. Tests validate exported documents with it, and
//! `repro bench-check` reads committed baselines with it.

use std::collections::BTreeMap;

/// Renders `s` as a JSON string literal (quotes included).
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// null
    Null,
    /// true/false
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; keys are sorted, so key order never matters.
    Obj(BTreeMap<String, Value>),
}

/// Strict recursive-descent parse of `s` as exactly one JSON value.
///
/// # Errors
///
/// A message with the byte offset of the first malformed input.
pub fn parse(s: &str) -> Result<Value, String> {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    let v = value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(v)
}

/// Strict check that `s` is exactly one JSON value: [`parse`] with the
/// value discarded.
///
/// # Errors
///
/// As for [`parse`].
pub fn validate(s: &str) -> Result<(), String> {
    parse(s).map(drop)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    match b.get(*pos) {
        Some(b'{') => object(b, pos),
        Some(b'[') => array(b, pos),
        Some(b'"') => string_lit(b, pos).map(Value::Str),
        Some(b't') => literal(b, pos, b"true", Value::Bool(true)),
        Some(b'f') => literal(b, pos, b"false", Value::Bool(false)),
        Some(b'n') => literal(b, pos, b"null", Value::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, pos),
        Some(c) => Err(format!("unexpected byte {c:#x} at {pos:?}")),
        None => Err("unexpected end of input".into()),
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if b.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at offset {}", c as char, pos))
    }
}

fn object(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(b, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        let key = string_lit(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        skip_ws(b, pos);
        map.insert(key, value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
        }
    }
}

fn array(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        skip_ws(b, pos);
        items.push(value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at offset {pos}")),
        }
    }
}

fn string_lit(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    let mut run = *pos;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' | b'\\' => {
                // The input is a `&str`, and a run ends at an ASCII byte,
                // so the run is whole UTF-8.
                out.push_str(std::str::from_utf8(&b[run..*pos]).expect("utf-8 input"));
                *pos += 1;
                if c == b'"' {
                    return Ok(out);
                }
                out.push(escape(b, pos)?);
                run = *pos;
            }
            c if c < 0x20 => return Err(format!("raw control byte in string at {pos}")),
            _ => *pos += 1,
        }
    }
    Err("unterminated string".into())
}

/// Decodes the escape after a backslash.
fn escape(b: &[u8], pos: &mut usize) -> Result<char, String> {
    let c = match b.get(*pos) {
        Some(b'"') => '"',
        Some(b'\\') => '\\',
        Some(b'/') => '/',
        Some(b'b') => '\u{8}',
        Some(b'f') => '\u{c}',
        Some(b'n') => '\n',
        Some(b'r') => '\r',
        Some(b't') => '\t',
        Some(b'u') => {
            let hex = b
                .get(*pos + 1..*pos + 5)
                .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                .ok_or_else(|| format!("bad \\u escape at {pos}"))?;
            let code = u32::from_str_radix(std::str::from_utf8(hex).expect("hex"), 16)
                .expect("four hex digits");
            *pos += 4;
            char::from_u32(code).unwrap_or('\u{fffd}')
        }
        _ => return Err(format!("bad escape at offset {pos}")),
    };
    *pos += 1;
    Ok(c)
}

fn literal(b: &[u8], pos: &mut usize, lit: &[u8], v: Value) -> Result<Value, String> {
    if b.len() >= *pos + lit.len() && &b[*pos..*pos + lit.len()] == lit {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at offset {pos}"))
    }
}

fn number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let int_start = *pos;
    while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
        *pos += 1;
    }
    if *pos == int_start {
        return Err(format!("number without digits at offset {start}"));
    }
    // Leading zero must stand alone.
    if b[int_start] == b'0' && *pos - int_start > 1 {
        return Err(format!("leading zero at offset {int_start}"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        let frac_start = *pos;
        while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
            *pos += 1;
        }
        if *pos == frac_start {
            return Err(format!("empty fraction at offset {frac_start}"));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        let exp_start = *pos;
        while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
            *pos += 1;
        }
        if *pos == exp_start {
            return Err(format!("empty exponent at offset {exp_start}"));
        }
    }
    let text = std::str::from_utf8(&b[start..*pos]).expect("ascii number");
    Ok(Value::Num(text.parse().expect("a JSON number is an f64")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(string("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(string("\u{1}"), "\"\\u0001\"");
        validate(&string("quote \" backslash \\ newline \n tab \t")).unwrap();
    }

    #[test]
    fn accepts_valid_documents() {
        for doc in [
            "{}",
            "[]",
            "0",
            "-12.5e3",
            "true",
            "null",
            r#"{"a":[1,2,{"b":"cé"}],"d":false}"#,
            r#"  { "x" : [ ] }  "#,
        ] {
            validate(doc).unwrap_or_else(|e| panic!("{doc}: {e}"));
        }
    }

    #[test]
    fn parse_builds_the_value_tree() {
        let v = parse(r#" {"a":[1,-2.5e1,{"b":"c\nd\u00e9\/"}],"e":true,"f":null} "#).unwrap();
        let Value::Obj(m) = &v else { panic!("object") };
        assert_eq!(m["e"], Value::Bool(true));
        assert_eq!(m["f"], Value::Null);
        let Value::Arr(a) = &m["a"] else {
            panic!("array")
        };
        assert_eq!(a[..2], [Value::Num(1.0), Value::Num(-25.0)]);
        let Value::Obj(inner) = &a[2] else {
            panic!("inner")
        };
        assert_eq!(inner["b"], Value::Str("c\ndé/".into()));
        assert_eq!(
            parse(&string("é \" \\ \u{1}")),
            Ok(Value::Str("é \" \\ \u{1}".into()))
        );
    }

    #[test]
    fn rejects_invalid_documents() {
        for doc in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "01",
            "1.",
            "1e",
            "\"unterminated",
            "{} extra",
            "{'single':1}",
        ] {
            assert!(validate(doc).is_err(), "should reject: {doc}");
        }
    }
}
