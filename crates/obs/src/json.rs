//! The workspace's one JSON reader and one JSON string escaper.
//!
//! Every JSON document the workspace reads back — `/run` request bodies,
//! `/metrics` scrapes, `/metrics/history` lines, JSONL event logs and
//! flight dumps — is an object whose values are strings, integers or
//! booleans, plus one level of nesting: a value may be a flat object, or an
//! array whose elements are scalars or flat objects. Integers span
//! `i64::MIN..=u64::MAX`. Floats, `null` and deeper nesting are parse
//! errors, never panics. Each caller checks its own shape on top: a `/run`
//! cell spec takes only scalars, the event-log validator only compact,
//! escape-free integer and string fields.
//!
//! [`escape`] is the one escape rule for every hand-built JSON string:
//! `"` and `\` are backslash-escaped, newline, carriage return and tab use
//! their short forms, every other control byte is written `\u00XX`, and
//! everything else (multi-byte UTF-8 included) passes through. The reader
//! parses each of those forms back.

/// One parsed value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Value {
    /// A string.
    Str(String),
    /// An integer in `i64::MIN..=u64::MAX`.
    Int(i128),
    /// A boolean.
    Bool(bool),
    /// An array of scalars and flat objects.
    Array(Vec<Value>),
    /// A flat object, in document order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The string contents, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer, if this is an integer in `u64` range.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// The value of the first `key` field in a parsed object.
#[must_use]
pub fn get<'a>(pairs: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Parses one JSON object into `(key, value)` pairs in document order.
///
/// # Errors
///
/// Returns a human-readable message on any deviation from the grammar in
/// the module docs.
pub fn parse(text: &str) -> Result<Vec<(String, Value)>, String> {
    let mut p = Parser { text, pos: 0 };
    p.skip_ws();
    let pairs = p.object(true)?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err("trailing bytes after object".into());
    }
    Ok(pairs)
}

/// Escapes `s` for embedding between the quotes of a hand-built JSON
/// string (the rule is in the module docs).
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.next() {
            Some(b) if b == want => Ok(()),
            _ => Err(format!("expected `{}`", want as char)),
        }
    }

    /// `open [item (, item)*] close`, with whitespace around every token.
    fn seq<T>(
        &mut self,
        (open, close): (u8, u8),
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.expect(open)?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(items);
        }
        loop {
            self.skip_ws();
            items.push(item(self)?);
            self.skip_ws();
            match self.next() {
                Some(b',') => {}
                Some(b) if b == close => return Ok(items),
                _ => return Err(format!("expected `,` or `{}`", close as char)),
            }
        }
    }

    /// One `{...}` object; its values may nest one level when `nested`.
    fn object(&mut self, nested: bool) -> Result<Vec<(String, Value)>, String> {
        self.seq((b'{', b'}'), |p| {
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let value = match p.peek() {
                Some(b'{') if nested => Value::Object(p.object(false)?),
                Some(b'[') if nested => Value::Array(p.seq((b'[', b']'), |p| match p.peek() {
                    Some(b'{') => Ok(Value::Object(p.object(false)?)),
                    _ => p.scalar(),
                })?),
                _ => p.scalar()?,
            };
            Ok((key, value))
        })
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the literal run up to the next quote, backslash or
            // control byte; all three are ASCII, so the slice ends on a
            // character boundary.
            let start = self.pos;
            while self.peek().is_some_and(|b| b >= 0x20 && b != b'"' && b != b'\\') {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.next() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => out.push(match self.next() {
                    Some(b'"') => '"',
                    Some(b'\\') => '\\',
                    Some(b'/') => '/',
                    Some(b'n') => '\n',
                    Some(b'r') => '\r',
                    Some(b't') => '\t',
                    Some(b'u') => {
                        // Four hex digits naming a scalar value (no surrogates).
                        let c = self
                            .text
                            .get(self.pos..self.pos + 4)
                            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                            .and_then(|h| char::from_u32(u32::from_str_radix(h, 16).ok()?))
                            .ok_or("bad `\\u` escape")?;
                        self.pos += 4;
                        c
                    }
                    _ => return Err("unsupported string escape".into()),
                }),
                Some(_) => return Err("control byte in string".into()),
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn scalar(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'-' | b'0'..=b'9') => {
                let start = self.pos;
                self.pos += 1;
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
                if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
                    return Err("floats are not accepted".into());
                }
                self.text[start..self.pos]
                    .parse::<i128>()
                    .ok()
                    .filter(|n| (i128::from(i64::MIN)..=i128::from(u64::MAX)).contains(n))
                    .map(Value::Int)
                    .ok_or_else(|| "integer missing or out of range".into())
            }
            Some(b't') if self.text[self.pos..].starts_with("true") => {
                self.pos += 4;
                Ok(Value::Bool(true))
            }
            Some(b'f') if self.text[self.pos..].starts_with("false") => {
                self.pos += 5;
                Ok(Value::Bool(false))
            }
            _ => Err("expected a string, integer or boolean value".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_one_level_of_nesting() {
        let pairs = parse(
            r#"{ "s": "mcf", "n": 18446744073709551615, "neg": -9223372036854775808,
                 "b": false, "o": {"hits": 3}, "a": [1, "x", {"k": true}], "e": [] }"#,
        )
        .unwrap();
        assert_eq!(get(&pairs, "s").and_then(Value::as_str), Some("mcf"));
        assert_eq!(get(&pairs, "n").and_then(Value::as_u64), Some(u64::MAX));
        assert_eq!(get(&pairs, "neg"), Some(&Value::Int(i128::from(i64::MIN))));
        assert_eq!(get(&pairs, "neg").and_then(Value::as_u64), None);
        assert_eq!(get(&pairs, "b"), Some(&Value::Bool(false)));
        assert_eq!(get(&pairs, "o"), Some(&Value::Object(vec![("hits".into(), Value::Int(3))])));
        let a = get(&pairs, "a").and_then(Value::as_array).unwrap();
        assert_eq!(a[1], Value::Str("x".into()));
        assert_eq!(a[2], Value::Object(vec![("k".into(), Value::Bool(true))]));
        assert_eq!(get(&pairs, "e").and_then(Value::as_array), Some(&[][..]));
        assert_eq!(get(&pairs, "missing"), None);
    }

    #[test]
    fn rejects_what_the_grammar_excludes() {
        // The `/run` cell-spec tests reject the flat-grammar cases; these
        // are the nesting, escape and range edges the reader adds.
        for bad in [
            r#"{"a":1e3}"#,
            r#"{"a":-}"#,
            r#"{"a":{"b":{}}}"#,
            r#"{"a":{"b":[]}}"#,
            r#"{"a":[[1]]}"#,
            r#"{"a":[{"b":[]}]}"#,
            r#"{"a":[1,]}"#,
            r#"{"a":"\u12"}"#,
            r#"{"a":"\ud800"}"#,
            "{\"a\":\"\u{1}\"}",
            r#"{"a":18446744073709551616}"#,
            r#"{"a":-9223372036854775809}"#,
        ] {
            assert!(parse(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn escaped_strings_parse_back_to_the_input() {
        let mut input: String = (0u8..0x20).map(char::from).collect();
        input.push_str("\"quoted\" back\\slash héllo ⚙ 𝄞 /");
        let doc = format!("{{\"k\":\"{}\"}}", escape(&input));
        assert_eq!(parse(&doc).unwrap(), vec![("k".to_string(), Value::Str(input))]);
        assert_eq!(escape("a\"b\\c\n\u{1}"), "a\\\"b\\\\c\\n\\u0001");
    }
}
