//! The workspace's one JSON type: a minimal hand-rolled reader and printer.
//!
//! The analyzer is dependency-free by design (it polices the rest of the
//! workspace, so it must not need anything the offline container cannot
//! vendor). The bench binaries build every `BENCH_*.json` as a [`Value`]
//! and print it with `Display`; [`parse`] reads them back and covers full
//! JSON: nested containers, escapes, exponents; errors carry a byte offset.

use std::fmt::{self, Write as _};

/// A parsed JSON value. Objects keep insertion order (a `Vec`, not a map):
/// key lookup is linear, which is fine at bench-file sizes and avoids
/// pulling a map into the analyzer — or caring about hash order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The object's fields, if this is an object.
    pub fn fields(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(f) => Some(f),
            _ => None,
        }
    }

    /// The array's elements, if this is an array.
    pub fn items(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Whether this is a (finite) number.
    pub fn is_num(&self) -> bool {
        matches!(self, Value::Num(_))
    }
}

macro_rules! value_from {
    ($($t:ty => |$x:ident| $make:expr),* $(,)?) => {
        $(impl From<$t> for Value { fn from($x: $t) -> Value { $make } })*
    };
}
value_from! {
    f64 => |x| Value::Num(x), u64 => |x| Value::Num(x as f64), usize => |x| Value::Num(x as f64),
    bool => |x| Value::Bool(x), String => |x| Value::Str(x), &str => |x| Value::Str(x.to_string()),
    Vec<Value> => |x| Value::Arr(x),
}

/// Prints JSON that [`parse`] reads back to an equal value; a non-finite
/// number has no JSON spelling and prints as `null`. A container of
/// scalars stays on one line, any other indents two spaces per level.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        print(self, f, 0)
    }
}

fn print(v: &Value, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
    let (brackets, items): (&str, Vec<(Option<&String>, &Value)>) = match v {
        // Rust prints the shortest digits that parse back to the same f64,
        // never an exponent, and an integral value without `.0`.
        Value::Num(x) if x.is_finite() => return write!(f, "{x}"),
        Value::Num(_) | Value::Null => return f.write_str("null"),
        Value::Bool(b) => return write!(f, "{b}"),
        Value::Str(s) => return print_str(f, s),
        Value::Arr(items) => ("[]", items.iter().map(|v| (None, v)).collect()),
        Value::Obj(fields) => ("{}", fields.iter().map(|(k, v)| (Some(k), v)).collect()),
    };
    let flat = items.iter().all(|(_, v)| !matches!(v, Value::Arr(_) | Value::Obj(_)));
    let line = |d: usize| if flat { String::new() } else { format!("\n{:w$}", "", w = 2 * d) };
    f.write_str(&brackets[..1])?;
    for (i, (key, child)) in items.into_iter().enumerate() {
        let sep = if i == 0 { "" } else if flat { ", " } else { "," };
        write!(f, "{sep}{}", line(depth + 1))?;
        if let Some(key) = key {
            print_str(f, key)?;
            f.write_str(": ")?;
        }
        print(child, f, depth + 1)?;
    }
    write!(f, "{}{}", line(depth), &brackets[1..])
}

fn print_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' | '\\' => write!(f, "\\{c}")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

/// Parse one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing content at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            other => Err(format!("unexpected {:?} at byte {}", other.map(|b| b as char), self.pos)),
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or(format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(format!("bad escape `\\{}`", other as char));
                        }
                    }
                }
                Some(_) => {
                    // Multi-byte UTF-8 passes through byte-wise; re-slice
                    // on char boundaries to stay valid.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid UTF-8 in string".to_string())?;
                    let c = rest.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": null, "d": true}, "e": "s\n"}"#)
            .expect("parses");
        assert_eq!(v.get("a").unwrap().items().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().items().unwrap()[2], Value::Num(-300.0));
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Value::Null));
        assert_eq!(v.get("e"), Some(&Value::Str("s\n".to_string())));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse(r#"{"a": }"#).is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse(r#"{"a": 01x}"#).is_err());
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(parse("\"\\u0041\\t\"").unwrap(), Value::Str("A\t".to_string()));
    }

    fn obj(fields: Vec<(&str, Value)>) -> Value {
        Value::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    #[test]
    fn print_then_parse_round_trips() {
        let doc = obj(vec![
            ("ints", vec![0u64.into(), 42usize.into(), Value::Num(-7.0), Value::Num(2f64.powi(53))].into()),
            ("floats", vec![Value::Num(0.1), Value::Num(-2.5e-9), Value::Num(1e21), 217.5.into()].into()),
            ("text", "quote \" backslash \\ newline \n tab \t bell \u{7} é ✓".into()),
            ("key \"with\" escapes\n", true.into()),
            (
                "nested",
                obj(vec![
                    ("empty_arr", Value::Arr(vec![])),
                    ("empty_obj", obj(vec![])),
                    ("rows", vec![obj(vec![("a", Value::Null)]), obj(vec![("a", false.into())])].into()),
                ]),
            ),
        ]);
        let text = doc.to_string();
        assert_eq!(parse(&text).expect("printer emits valid JSON"), doc, "{text}");
        // Integral values print as integers, fractions as the shortest
        // digits that round-trip, nothing as an exponent.
        assert!(text.contains("\"ints\": [0, 42, -7, 9007199254740992]"), "{text}");
        assert!(text.contains("[0.1, -0.0000000025, 1000000000000000000000, 217.5]"), "{text}");
        // Scalar-only containers stay on one line; the rest indent.
        assert!(text.contains("\n    \"rows\": [\n      {\"a\": null},\n      {\"a\": false}\n    ]"), "{text}");
        assert!(text.contains("\"empty_arr\": [],") && text.contains("\"empty_obj\": {},"), "{text}");
    }

    #[test]
    fn non_finite_numbers_print_as_null() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let text = Value::Arr(vec![Value::Num(x), Value::Num(1.0)]).to_string();
            assert_eq!(text, "[null, 1]");
            assert_eq!(parse(&text).unwrap(), Value::Arr(vec![Value::Null, Value::Num(1.0)]));
        }
    }
}
