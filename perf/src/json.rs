//! A JSON value with a writer and a parser, owned by the benchmark so that
//! its result files do not depend on any crate the benchmark measures.

use std::fmt::Write as _;

#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Key order is kept as written.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    #[cfg(test)]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// One line, no spaces after separators except `": "` and `", "`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Two-space indented, one field or element per line.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => write_sequence(out, indent, '[', ']', items, |out, item, inner| {
                item.write(out, inner)
            }),
            Json::Obj(fields) => {
                write_sequence(out, indent, '{', '}', fields, |out, (key, value), inner| {
                    write_string(out, key);
                    out.push_str(": ");
                    value.write(out, inner);
                })
            }
        }
    }

    pub fn parse(input: &str) -> Result<Json, String> {
        let mut parser = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        let value = parser.value()?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing characters"));
        }
        Ok(value)
    }
}

fn write_sequence<T>(
    out: &mut String,
    indent: Option<usize>,
    open: char,
    close: char,
    items: &[T],
    mut write_item: impl FnMut(&mut String, &T, Option<usize>),
) {
    out.push(open);
    let inner = indent.map(|depth| depth + 1);
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match inner {
            Some(depth) => {
                out.push('\n');
                out.push_str(&"  ".repeat(depth));
            }
            None if i > 0 => out.push(' '),
            None => {}
        }
        write_item(out, item, inner);
    }
    if let (Some(depth), false) = (indent, items.is_empty()) {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
    out.push(close);
}

fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no NaN or infinity.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        // Rust prints the shortest decimal that parses back to `n`, never
        // in exponent form: always a valid JSON number.
        let _ = write!(out, "{n}");
    }
}

fn write_string(out: &mut String, s: &str) {
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("JSON: {what} at byte {}", self.pos)
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, literal: &str) -> bool {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_whitespace();
        match self.bytes.get(self.pos) {
            None => Err(self.error("unexpected end")),
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.sequence(b'}', |p| {
                    p.skip_whitespace();
                    let key = p.string()?;
                    p.skip_whitespace();
                    if !p.eat(":") {
                        return Err(p.error("expected ':'"));
                    }
                    fields.push((key, p.value()?));
                    Ok(())
                })?;
                Ok(Json::Obj(fields))
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.sequence(b']', |p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) => self.number(),
        }
    }

    /// Comma-separated items up to `close`; the opening bracket is consumed.
    fn sequence(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.skip_whitespace();
        if self.bytes.get(self.pos) == Some(&close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_whitespace();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(c) if *c == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.error("expected ',' or a closing bracket")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|text| text.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.error("expected a value"))
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(self.error("expected a string"));
        }
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            let Some(&byte) = self.bytes.get(self.pos) else {
                return Err(self.error("unterminated string"));
            };
            self.pos += 1;
            match byte {
                b'"' => break,
                b'\\' => {
                    let Some(&escape) = self.bytes.get(self.pos) else {
                        return Err(self.error("unterminated escape"));
                    };
                    self.pos += 1;
                    let c = match escape {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => self.unicode_escape()?,
                        _ => return Err(self.error("unknown escape")),
                    };
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                byte => out.push(byte),
            }
        }
        String::from_utf8(out).map_err(|_| self.error("invalid UTF-8 in string"))
    }

    /// The four hex digits after `\u`; surrogate halves (which only pair up
    /// to name characters outside the basic plane) are not written by this
    /// module and are rejected.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|d| std::str::from_utf8(d).ok())
            .and_then(|d| u32::from_str_radix(d, 16).ok())
            .ok_or_else(|| self.error("expected four hex digits"))?;
        self.pos += 4;
        char::from_u32(digits).ok_or_else(|| self.error("unpaired surrogate"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str("curl-8.solo \"q\"\n\\".into())),
            ("n".into(), Json::Num(5.0)),
            ("wall_s".into(), Json::Num(4.012345678901234)),
            ("tiny".into(), Json::Num(0.000000123)),
            ("neg".into(), Json::Num(-0.5)),
            ("ok".into(), Json::Bool(true)),
            ("none".into(), Json::Null),
            ("empty".into(), Json::Arr(vec![])),
            (
                "reps".into(),
                Json::Arr(vec![Json::Num(1.5), Json::Obj(vec![])]),
            ),
        ])
    }

    #[test]
    fn compact_form_is_one_line_and_exact() {
        let v = Json::Obj(vec![
            ("a".into(), Json::Num(1.0)),
            (
                "b".into(),
                Json::Arr(vec![Json::Num(0.25), Json::Str("x".into())]),
            ),
        ]);
        assert_eq!(v.render(), r#"{"a": 1, "b": [0.25, "x"]}"#);
    }

    #[test]
    fn both_forms_parse_back_to_the_same_value() {
        let v = sample();
        assert!(!v.render().contains('\n'));
        assert_eq!(Json::parse(&v.render()), Ok(v.clone()));
        assert_eq!(Json::parse(&v.render_pretty()), Ok(v));
    }

    #[test]
    fn numbers_keep_all_their_digits() {
        let v = Json::Num(0.1 + 0.2);
        assert_eq!(Json::parse(&v.render()), Ok(v));
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(3.0).render(), "3");
    }

    #[test]
    fn control_characters_are_escaped() {
        let v = Json::Str("a\u{1}b\tc".into());
        assert_eq!(v.render(), "\"a\\u0001b\\tc\"");
        assert_eq!(Json::parse(&v.render()), Ok(v));
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "\"open",
            "tru",
            "[1] x",
            "\"\\ud800\"",
            "{\"a\":}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn accessors_select_by_type() {
        let v = sample();
        assert_eq!(v.get("n").and_then(Json::as_f64), Some(5.0));
        assert_eq!(v.get("ok").and_then(Json::as_f64), None);
        assert!(v.get("name").and_then(Json::as_str).is_some());
        assert_eq!(v.get("missing"), None);
    }
}
