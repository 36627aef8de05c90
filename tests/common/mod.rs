//! The strict JSON reader the trace tests parse with, shared by the
//! integration tests that declare `mod common;` (each uses part of it).
#![allow(dead_code)]

/// A parsed JSON value. Strings, numbers, `true`, `false` and `null`
/// keep their source text.
#[derive(Debug)]
pub enum Json {
    Scalar(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one RFC 8259 document, rejecting whatever a strict reader
    /// rejects (trailing commas, bad escapes, raw control characters,
    /// leading zeros, trailing bytes). The error names the byte offset.
    pub fn parse(text: &str) -> Result<Json, String> {
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
    pub fn get(&self, key: &str) -> &Json {
        let Json::Obj(members) = self else {
            panic!("not an object: {self:?}")
        };
        let found = members.iter().find(|(k, _)| k == key);
        &found.unwrap_or_else(|| panic!("no {key:?} in {self:?}")).1
    }

    pub fn u64(&self) -> u64 {
        match self {
            Json::Scalar(n) => n.parse().unwrap_or_else(|_| panic!("{n} is not a u64")),
            _ => panic!("not a scalar: {self:?}"),
        }
    }

    pub fn str(&self) -> &str {
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
