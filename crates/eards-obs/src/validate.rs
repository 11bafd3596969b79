//! Schema checks for the emitted trace formats.
//!
//! CI (and the CLI `trace-check` command) run these against exported
//! files to prove the traces round-trip: the JSONL event log is one
//! object per line with a numeric `t_ms` and string `kind`; the Chrome
//! trace is an object with a `traceEvents` array of well-formed entries.
//! The parser is a small recursive-descent JSON reader — the workspace
//! carries no serialization dependency, and the subset we emit is tiny.
//! [`Json`]'s `Display` is the matching writer.

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (duplicate keys are kept).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Renders JSON text that [`parse`] reads back to an equal value:
/// object members keep their order, numbers print in Rust's shortest
/// round-trip form (so the parsed `f64` has the same bits; a non-finite
/// number prints as `null`) and strings are escaped. A container holding
/// another container puts each member on its own indented line, so a
/// committed document diffs line by line.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&render(self, 0))
    }
}

fn render(v: &Json, indent: usize) -> String {
    let members: Vec<(Option<&str>, &Json)> = match v {
        Json::Bool(b) => return b.to_string(),
        Json::Num(n) if n.is_finite() => return n.to_string(),
        Json::Null | Json::Num(_) => return "null".into(),
        Json::Str(s) => return escape(s),
        Json::Arr(items) => items.iter().map(|v| (None, v)).collect(),
        Json::Obj(members) => members.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
    };
    let nested = members
        .iter()
        .any(|(_, v)| matches!(v, Json::Arr(_) | Json::Obj(_)));
    let sep = format!("\n{:w$}", "", w = indent + 2);
    let mut out = String::from(if matches!(v, Json::Arr(_)) { "[" } else { "{" });
    for (i, (key, value)) in members.into_iter().enumerate() {
        if i > 0 {
            out.push_str(if nested { "," } else { ", " });
        }
        if nested {
            out.push_str(&sep);
        }
        if let Some(key) = key {
            out += &(escape(key) + ": ");
        }
        out += &render(value, indent + 2);
    }
    if nested {
        out.push_str(&sep[..indent + 1]);
    }
    out + if matches!(v, Json::Arr(_)) { "]" } else { "}" }
}

fn escape(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => out.extend(['\\', c]),
            c if c < ' ' => out += &format!("\\u{:04x}", u32::from(c)),
            c => out.push(c),
        }
    }
    out + "\""
}

macro_rules! json_from_number {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Num(n as f64)
            }
        }
    )*};
}

json_from_number!(f64, u32, u64, usize);

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.eat_literal("null", Json::Null),
            Some(b't') => self.eat_literal("true", Json::Bool(true)),
            Some(b'f') => self.eat_literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(self.err(&format!("unexpected '{}'", b as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not emitted by our exporters;
                            // map lone surrogates to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (input is a &str, so the
                    // byte stream is valid UTF-8 by construction).
                    let start = self.pos;
                    self.pos += 1;
                    while self.bytes.get(self.pos).is_some_and(|b| b & 0xC0 == 0x80) {
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(chunk);
                }
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Parses one complete JSON document; trailing whitespace is allowed,
/// trailing garbage is an error.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser::new(text);
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage after document"));
    }
    Ok(v)
}

fn require_num(obj: &Json, key: &str, ctx: &str) -> Result<(), String> {
    match obj.get(key) {
        Some(Json::Num(_)) => Ok(()),
        Some(_) => Err(format!("{ctx}: \"{key}\" is not a number")),
        None => Err(format!("{ctx}: missing \"{key}\"")),
    }
}

fn require_str(obj: &Json, key: &str, ctx: &str) -> Result<(), String> {
    match obj.get(key) {
        Some(Json::Str(_)) => Ok(()),
        Some(_) => Err(format!("{ctx}: \"{key}\" is not a string")),
        None => Err(format!("{ctx}: missing \"{key}\"")),
    }
}

/// Validates a JSONL event log: every non-empty line must be a JSON
/// object carrying a numeric `t_ms` and a string `kind`. Returns the
/// number of event records.
pub fn validate_jsonl(text: &str) -> Result<usize, String> {
    let mut n = 0;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let ctx = format!("line {}", i + 1);
        let v = parse(line).map_err(|e| format!("{ctx}: {e}"))?;
        if !matches!(v, Json::Obj(_)) {
            return Err(format!("{ctx}: not a JSON object"));
        }
        require_num(&v, "t_ms", &ctx)?;
        require_str(&v, "kind", &ctx)?;
        n += 1;
    }
    Ok(n)
}

/// Validates a Chrome `trace_event` document: a JSON object whose
/// `traceEvents` member is an array of objects each carrying string
/// `name`/`ph` and numeric `ts`/`pid`/`tid` (and numeric `dur` for
/// complete events, `ph:"X"`). Returns the number of trace entries.
pub fn validate_chrome(text: &str) -> Result<usize, String> {
    let doc = parse(text)?;
    let events = doc
        .get("traceEvents")
        .ok_or("missing \"traceEvents\"")?
        .as_arr()
        .ok_or("\"traceEvents\" is not an array")?;
    for (i, entry) in events.iter().enumerate() {
        let ctx = format!("traceEvents[{i}]");
        if !matches!(entry, Json::Obj(_)) {
            return Err(format!("{ctx}: not a JSON object"));
        }
        require_str(entry, "name", &ctx)?;
        require_str(entry, "ph", &ctx)?;
        require_num(entry, "ts", &ctx)?;
        require_num(entry, "pid", &ctx)?;
        require_num(entry, "tid", &ctx)?;
        if entry.get("ph").and_then(Json::as_str) == Some("X") {
            require_num(entry, "dur", &ctx)?;
        }
    }
    Ok(events.len())
}

/// Validates a metrics dump: a JSON object with a `counters` object of
/// numeric values and a `histograms` object whose members each carry
/// `bounds`/`counts` arrays and numeric `count`.
pub fn validate_metrics(text: &str) -> Result<(), String> {
    let doc = parse(text)?;
    let counters = doc.get("counters").ok_or("missing \"counters\"")?;
    match counters {
        Json::Obj(members) => {
            for (name, v) in members {
                if !matches!(v, Json::Num(_)) {
                    return Err(format!("counter \"{name}\" is not a number"));
                }
            }
        }
        _ => return Err("\"counters\" is not an object".to_string()),
    }
    let hists = doc.get("histograms").ok_or("missing \"histograms\"")?;
    match hists {
        Json::Obj(members) => {
            for (name, h) in members {
                let ctx = format!("histogram \"{name}\"");
                if h.get("bounds").and_then(Json::as_arr).is_none() {
                    return Err(format!("{ctx}: missing \"bounds\" array"));
                }
                if h.get("counts").and_then(Json::as_arr).is_none() {
                    return Err(format!("{ctx}: missing \"counts\" array"));
                }
                require_num(h, "count", &ctx)?;
            }
        }
        _ => return Err("\"histograms\" is not an object".to_string()),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_nesting() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("-1.5e2").unwrap(), Json::Num(-150.0));
        assert_eq!(
            parse("\"a\\nb\\u0041\"").unwrap(),
            Json::Str("a\nbA".to_string())
        );
        let doc = parse("{\"a\":[1,{\"b\":null}],\"c\":\"x\"}").unwrap();
        assert_eq!(doc.get("c").and_then(Json::as_str), Some("x"));
        let arr = doc.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].get("b"), Some(&Json::Null));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("{} garbage").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn jsonl_checks_each_line() {
        let good = "{\"t_ms\":1,\"kind\":\"creation\",\"vm\":1}\n\
                    {\"t_ms\":2,\"kind\":\"fault\"}\n";
        assert_eq!(validate_jsonl(good).unwrap(), 2);
        assert_eq!(validate_jsonl("").unwrap(), 0);
        assert!(
            validate_jsonl("{\"kind\":\"x\"}\n").is_err(),
            "missing t_ms"
        );
        assert!(
            validate_jsonl("{\"t_ms\":\"1\",\"kind\":\"x\"}\n").is_err(),
            "t_ms must be numeric"
        );
        assert!(validate_jsonl("[1,2]\n").is_err(), "line must be an object");
    }

    #[test]
    fn chrome_checks_entries() {
        let good = "{\"traceEvents\":[\
            {\"name\":\"a\",\"ph\":\"i\",\"ts\":0,\"pid\":1,\"tid\":1,\"s\":\"g\",\"args\":{}},\
            {\"name\":\"b\",\"ph\":\"X\",\"ts\":5,\"dur\":2,\"pid\":2,\"tid\":1}]}";
        assert_eq!(validate_chrome(good).unwrap(), 2);
        assert_eq!(validate_chrome("{\"traceEvents\":[]}").unwrap(), 0);
        assert!(validate_chrome("{}").is_err());
        let no_dur =
            "{\"traceEvents\":[{\"name\":\"b\",\"ph\":\"X\",\"ts\":5,\"pid\":2,\"tid\":1}]}";
        assert!(validate_chrome(no_dur).is_err(), "X events need dur");
    }

    #[test]
    fn metrics_checks_shape() {
        let good = "{\"counters\":{\"a\":1},\"histograms\":{\
            \"h\":{\"bounds\":[1.0],\"counts\":[0,1],\"count\":1,\"sum\":2.0}}}";
        validate_metrics(good).unwrap();
        assert!(validate_metrics("{\"counters\":{}}").is_err());
        assert!(validate_metrics("{\"counters\":{\"a\":\"x\"},\"histograms\":{}}").is_err());
    }
}
