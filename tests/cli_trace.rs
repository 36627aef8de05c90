//! `apusim run --trace` end to end: both trace files are strict JSON (the
//! Chrome trace as one document, the JSONL stream line by line); the
//! merged Chrome trace carries both processes (HSA schedule operations as
//! pid 1, every telemetry event as pid 2) and drops no event; and the
//! JSONL stream's header counts every line while its `seq` numbers run
//! without gaps from `dropped_events`.

use std::path::PathBuf;
use std::process::Command;

/// Run `apusim run stream --trace FILE` with `extra` arguments and return
/// the trace it wrote.
fn traced_stream(file: &str, extra: &[&str]) -> String {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(file);
    let _ = std::fs::remove_file(&path);
    let out = Command::new(env!("CARGO_BIN_EXE_apusim"))
        .args(["run", "stream", "--trace"])
        .arg(&path)
        .args(extra)
        .output()
        .expect("spawn apusim");
    assert!(out.status.success(), "{out:?}");
    std::fs::read_to_string(&path).expect("trace written")
}

/// A parsed JSON value. Strings, numbers, `true`, `false` and `null`
/// keep their source text.
#[derive(Debug)]
enum Json {
    Scalar(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one RFC 8259 document, rejecting whatever a strict reader
    /// rejects (trailing commas, bad escapes, raw control characters,
    /// leading zeros, trailing bytes). The error names the byte offset.
    fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            b: text.as_bytes(),
            at: 0,
        };
        let value = p.value()?;
        p.ws();
        if p.at == p.b.len() {
            Ok(value)
        } else {
            Err(p.err("trailing bytes"))
        }
    }

    /// The member `key` of an object.
    fn get(&self, key: &str) -> &Json {
        let Json::Obj(members) = self else {
            panic!("not an object: {self:?}")
        };
        let found = members.iter().find(|(k, _)| k == key);
        &found.unwrap_or_else(|| panic!("no {key:?} in {self:?}")).1
    }

    fn u64(&self) -> u64 {
        match self {
            Json::Scalar(n) => n.parse().unwrap_or_else(|_| panic!("{n} is not a u64")),
            _ => panic!("not a scalar: {self:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("not a string: {self:?}"),
        }
    }
}

/// Recursive-descent reader over the bytes of one document.
struct Parser<'a> {
    b: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.at)
    }

    fn ws(&mut self) {
        while matches!(self.b.get(self.at), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.b[self.at..].starts_with(lit.as_bytes());
        if hit {
            self.at += lit.len();
        }
        hit
    }

    fn digits(&mut self) -> usize {
        let from = self.at;
        while self.b.get(self.at).is_some_and(u8::is_ascii_digit) {
            self.at += 1;
        }
        self.at - from
    }

    /// The comma-separated items of an array or object up to `close`,
    /// the opening bracket already consumed.
    fn items(
        &mut self,
        close: &str,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.ws();
        if self.eat(close) {
            return Ok(());
        }
        loop {
            item(self)?;
            self.ws();
            if self.eat(close) {
                return Ok(());
            }
            if !self.eat(",") {
                return Err(self.err("expected ',' or a closing bracket"));
            }
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        let from = self.at;
        if self.eat("{") {
            let mut members = Vec::new();
            self.items("}", |p| {
                p.ws();
                let key = p.string()?;
                p.ws();
                if !p.eat(":") {
                    return Err(p.err("expected ':'"));
                }
                members.push((key, p.value()?));
                Ok(())
            })?;
            Ok(Json::Obj(members))
        } else if self.eat("[") {
            let mut elems = Vec::new();
            self.items("]", |p| {
                elems.push(p.value()?);
                Ok(())
            })?;
            Ok(Json::Arr(elems))
        } else if self.b.get(self.at) == Some(&b'"') {
            self.string().map(Json::Str)
        } else {
            if !(self.eat("null") || self.eat("true") || self.eat("false")) {
                self.number()?;
            }
            Ok(Json::Scalar(
                String::from_utf8_lossy(&self.b[from..self.at]).into_owned(),
            ))
        }
    }

    /// A string's source between its quotes: escapes are checked, not
    /// decoded (no asserted string carries one).
    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(self.err("expected a string"));
        }
        let from = self.at;
        loop {
            let hex = self.b.get(self.at + 2..self.at + 6).unwrap_or_default();
            self.at += match self.b.get(self.at) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => break,
                Some(0..=0x1f) => return Err(self.err("raw control character in a string")),
                Some(b'\\') => match self.b.get(self.at + 1) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => 2,
                    Some(b'u') if hex.len() == 4 && hex.iter().all(u8::is_ascii_hexdigit) => 6,
                    _ => return Err(self.err("bad escape")),
                },
                Some(_) => 1,
            };
        }
        let raw = String::from_utf8_lossy(&self.b[from..self.at]).into_owned();
        self.at += 1;
        Ok(raw)
    }

    fn number(&mut self) -> Result<(), String> {
        self.eat("-");
        let int = self.digits();
        if int == 0 || (int > 1 && self.b[self.at - int] == b'0') {
            return Err(self.err("expected a value"));
        }
        if self.eat(".") && self.digits() == 0 {
            return Err(self.err("no digits after '.'"));
        }
        if self.eat("e") || self.eat("E") {
            let _ = self.eat("+") || self.eat("-");
            if self.digits() == 0 {
                return Err(self.err("no exponent digits"));
            }
        }
        Ok(())
    }
}

#[test]
fn strict_reader_accepts_json_and_rejects_near_misses() {
    let good = r#" {"a":[1,-0.5,2e3,1E-2,true,false,null],"b":"q\"\\\/\b\f\n\r\t\u00e9é","c":{}, "d":[]} "#;
    let Json::Obj(members) = Json::parse(good).expect("valid JSON") else {
        panic!("not an object")
    };
    assert_eq!(members.len(), 4);
    assert_eq!(
        format!("{:?}", members[0].1),
        r#"Arr([Scalar("1"), Scalar("-0.5"), Scalar("2e3"), Scalar("1E-2"), Scalar("true"), Scalar("false"), Scalar("null")])"#
    );
    assert_eq!(members[1].1.str(), r#"q\"\\\/\b\f\n\r\t\u00e9é"#);
    for bad in [
        "",
        "{",
        "[1,]",
        r#"{"a":1,}"#,
        r#"{"a" 1}"#,
        r#"{a:1}"#,
        "[1 2]",
        r#""\x""#,
        r#""\u12g4""#,
        "\"a\nb\"",
        r#""open"#,
        "01",
        "1.",
        "1e",
        "-",
        "+1",
        "tru",
        "{}{}",
        "{}\n,",
    ] {
        assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
    }
}

#[test]
fn chrome_trace_parses_carries_both_processes_and_drops_nothing() {
    let trace = traced_stream("cli_trace_stream.json", &[]);
    let doc = Json::parse(&trace).unwrap_or_else(|e| panic!("chrome trace: {e}"));
    let other = doc.get("otherData");
    assert_eq!(other.get("dropped_events").u64(), 0, "{other:?}");
    let telemetry_events = other.get("telemetry_events").u64();
    assert!(telemetry_events > 0, "{other:?}");
    let Json::Arr(events) = doc.get("traceEvents") else {
        panic!("traceEvents is not an array")
    };
    // Metadata (`ph:"M"`) names both processes even for an empty run, so
    // only real events count: HSA operations under pid 1, and exactly one
    // event per telemetry record under pid 2.
    let real = |pid: u64| {
        events
            .iter()
            .filter(move |e| e.get("pid").u64() == pid && e.get("ph").str() != "M")
    };
    assert!(real(1).any(|e| e.get("ph").str() == "X"), "no HSA op");
    assert_eq!(real(2).count() as u64, telemetry_events);
}

#[test]
fn jsonl_trace_parses_counts_every_event_and_seq_has_no_gaps() {
    let trace = traced_stream("cli_trace_stream.jsonl", &["--trace-format", "jsonl"]);
    let lines: Vec<Json> = trace
        .lines()
        .enumerate()
        .map(|(i, l)| Json::parse(l).unwrap_or_else(|e| panic!("line {}: {e}: {l}", i + 1)))
        .collect();
    let header = &lines[0];
    assert_eq!(header.get("type").str(), "header", "{header:?}");
    let dropped = header.get("dropped_events").u64();
    assert_eq!(dropped, 0, "{header:?}");
    assert_eq!(lines.len() as u64, 1 + header.get("events").u64());
    let seqs: Vec<u64> = lines[1..].iter().map(|l| l.get("seq").u64()).collect();
    let gap_free: Vec<u64> = (dropped..dropped + seqs.len() as u64).collect();
    assert_eq!(seqs, gap_free, "seq runs without gaps from dropped_events");
}
