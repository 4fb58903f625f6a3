//! A JSON value with a writer and a reader — just enough for the
//! result files this harness writes and reads back (`--compare`, the
//! all-workloads roll-up, the `BENCHMARK.json` consistency test). No
//! registry access, so no serde.

use std::fmt::{self, Write as _};

/// A JSON document. Objects keep insertion order so written files are
/// stable and diffable.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Build an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Member `key` of an object (`None` for other kinds or a miss).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Multi-line rendering: one member per line at the two outermost
    /// levels, compact below (one metric per line in a result file).
    pub fn pretty(&self) -> String {
        let mut s = String::new();
        self.write_pretty(&mut s, 0);
        s.push('\n');
        s
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        let (open, close, len) = match self {
            Value::Arr(items) => ('[', ']', items.len()),
            Value::Obj(pairs) => ('{', '}', pairs.len()),
            _ => return out.push_str(&self.to_string()),
        };
        if depth >= 3 || len == 0 {
            return out.push_str(&self.to_string());
        }
        let pad = "  ".repeat(depth + 1);
        out.push(open);
        out.push('\n');
        for i in 0..len {
            out.push_str(&pad);
            match self {
                Value::Arr(items) => items[i].write_pretty(out, depth + 1),
                Value::Obj(pairs) => {
                    let _ = write!(out, "{}: ", Value::Str(pairs[i].0.clone()));
                    pairs[i].1.write_pretty(out, depth + 1);
                }
                _ => unreachable!("matched as a container above"),
            }
            out.push_str(if i + 1 < len { ",\n" } else { "\n" });
        }
        out.push_str(&"  ".repeat(depth));
        out.push(close);
    }
}

/// Compact single-line JSON. Numbers print with every digit `f64`
/// needs to round-trip; whole numbers print without a fraction.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            // JSON has no NaN/inf; a non-finite metric is a harness bug
            // that `Run::correct` turns into a failed run.
            Value::Num(x) if !x.is_finite() => f.write_str("null"),
            Value::Num(x) => write!(f, "{x}"),
            Value::Str(s) => {
                f.write_char('"')?;
                for c in s.chars() {
                    match c {
                        '"' => f.write_str("\\\"")?,
                        '\\' => f.write_str("\\\\")?,
                        '\n' => f.write_str("\\n")?,
                        '\t' => f.write_str("\\t")?,
                        '\r' => f.write_str("\\r")?,
                        c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                        c => f.write_char(c)?,
                    }
                }
                f.write_char('"')
            }
            Value::Arr(items) => {
                f.write_char('[')?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_char(']')
            }
            Value::Obj(pairs) => {
                f.write_char('{')?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{}: {v}", Value::Str(k.clone()))?;
                }
                f.write_char('}')
            }
        }
    }
}

/// Parse one JSON document (trailing whitespace allowed).
pub fn parse(src: &str) -> Result<Value, String> {
    let mut p = Parser {
        s: src.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("JSON error at byte {}: {what}", self.i)
    }

    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.s[self.i..].starts_with(lit.as_bytes());
        if hit {
            self.i += lit.len();
        }
        hit
    }

    fn value(&mut self) -> Result<Value, String> {
        self.ws();
        match self.s.get(self.i).copied() {
            None => Err(self.err("unexpected end")),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Value::Str),
            Some(_) if self.eat("null") => Ok(Value::Null),
            Some(_) if self.eat("true") => Ok(Value::Bool(true)),
            Some(_) if self.eat("false") => Ok(Value::Bool(false)),
            Some(_) => self.number(),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.i += 1;
        let mut pairs = Vec::new();
        self.ws();
        if self.eat("}") {
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            if !self.eat(":") {
                return Err(self.err("expected ':'"));
            }
            pairs.push((key, self.value()?));
            self.ws();
            if self.eat("}") {
                return Ok(Value::Obj(pairs));
            }
            if !self.eat(",") {
                return Err(self.err("expected ',' or '}'"));
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.i += 1;
        let mut items = Vec::new();
        self.ws();
        if self.eat("]") {
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.ws();
            if self.eat("]") {
                return Ok(Value::Arr(items));
            }
            if !self.eat(",") {
                return Err(self.err("expected ',' or ']'"));
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(self.err("expected a string"));
        }
        let mut out = Vec::new();
        loop {
            let Some(&b) = self.s.get(self.i) else {
                return Err(self.err("unterminated string"));
            };
            self.i += 1;
            match b {
                b'"' => break,
                b'\\' => {
                    let Some(&e) = self.s.get(self.i) else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.i += 1;
                    match e {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.i += 4;
                            // Surrogate pairs never occur in files this
                            // harness writes; map strays to U+FFFD.
                            let c = char::from_u32(hex).unwrap_or('\u{fffd}');
                            out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        other => out.push(other), // `\"`, `\\`, `\/`
                    }
                }
                b => out.push(b),
            }
        }
        String::from_utf8(out).map_err(|_| self.err("string is not UTF-8"))
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        while self
            .s
            .get(self.i)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.s[start..self.i])
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or_else(|| self.err("expected a value"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn written_documents_read_back_identically() {
        let doc = Value::obj([
            ("correct", Value::Bool(true)),
            ("attempted", Value::Num(1000.0)),
            ("name", Value::str("tab\t \"quoted\" back\\slash\nline µs")),
            (
                "metrics",
                Value::obj([(
                    "solve_w1_s",
                    Value::obj([
                        ("value", Value::Num(0.412_345_678_901_234_5)),
                        ("unit", Value::str("s")),
                    ]),
                )]),
            ),
            ("list", Value::Arr(vec![Value::Null, Value::Num(-1.5e-9)])),
            ("empty", Value::Obj(vec![])),
        ]);
        assert_eq!(parse(&doc.to_string()).unwrap(), doc);
        assert_eq!(parse(&doc.pretty()).unwrap(), doc);
    }

    #[test]
    fn whole_numbers_print_without_a_fraction_and_times_keep_their_digits() {
        assert_eq!(Value::Num(1000.0).to_string(), "1000");
        assert_eq!(Value::Num(0.0).to_string(), "0");
        assert_eq!(Value::Num(1.203_456_789_012).to_string(), "1.203456789012");
        // The result line must be one line.
        let line = Value::obj([("a", Value::Arr(vec![Value::Num(1.0), Value::Num(2.0)]))]);
        assert_eq!(line.to_string(), r#"{"a": [1, 2]}"#);
        assert!(!line.to_string().contains('\n'));
    }

    #[test]
    fn non_finite_numbers_never_reach_the_file_as_bare_words() {
        assert_eq!(Value::Num(f64::NAN).to_string(), "null");
        assert_eq!(Value::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\": 1} x",
            "\"open",
            "nul",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn lookups_miss_quietly() {
        let v = parse(r#"{"a": {"b": [1, "x"]}}"#).unwrap();
        let b = v
            .get("a")
            .and_then(|a| a.get("b"))
            .and_then(Value::as_arr)
            .unwrap();
        assert_eq!(b[0].as_f64(), Some(1.0));
        assert_eq!(b[1].as_str(), Some("x"));
        assert!(v.get("zz").is_none());
        assert!(b[0].get("a").is_none());
    }
}
