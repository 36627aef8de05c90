//! `PROTO v1`: the line-oriented wire format of `apusim serve`.
//!
//! The protocol deliberately introduces **no second serialization format**:
//! everything that crosses the wire is one of the repo's existing canonical
//! text encodings, framed. A capture travels as its `mapir v1` text, a
//! sweep cell as the exact [`SweepRequest::canonical`] block the result
//! cache keys on, a single result as [`SweepResult::to_text`], and a sweep
//! report as the [`render_report`] bytes the offline `apusim replay` path
//! prints. The framing is all this module adds:
//!
//! ```text
//! request  = "PROTO v1 " VERB "\n" body "END\n"
//! response = ok | err | busy
//! ok       = "OK " verb-token (" " key "=" value)* "\n" body "END\n"
//! err      = "ERR " message "\n" "END\n"
//! busy     = "BUSY in_flight=" N " max=" M "\n" "END\n"
//! ```
//!
//! Bodies are zero or more `\n`-terminated lines; a body line equal to the
//! terminator `END` is reserved by the protocol (none of the framed
//! encodings can produce one — their lines start with thread numbers,
//! known keywords, or padded workload columns). Frames are bounded: a
//! reader enforces a byte limit so a malformed or malicious peer cannot
//! balloon server memory, and every parse failure is a clean
//! [`ProtoError`], never a panic. The one body the server parses itself,
//! a `CAPTURE`'s `mapir v1` text, fails the same way: a malformed capture
//! is a `line N: …` error the server answers with `ERR`. The property
//! tests in `crates/batch/tests/proto_prop.rs` feed arbitrary bytes through
//! the readers and capture-shaped text through `MapIr::parse` and a live
//! server's `CAPTURE` to pin both.
//!
//! [`SweepRequest::canonical`]: crate::SweepRequest::canonical
//! [`SweepResult::to_text`]: crate::SweepResult::to_text
//! [`render_report`]: crate::render_report

use crate::request::{closes_block, SweepRequest};
use omp_offload::modes::Tokens;
use omp_offload::MapIr;
use std::fmt;
use std::io::BufRead;
use std::sync::Arc;

/// Wire-format version, spoken in every request header. Independent of the
/// canonical-encoding versions it frames (those invalidate the cache; this
/// one gates the conversation).
pub const PROTO_VERSION: u32 = 1;

/// Frame terminator line.
pub const END: &str = "END";

/// A request head's words before its verb, for its writer and its reader.
fn request_head() -> String {
    format!("PROTO v{PROTO_VERSION}")
}

/// The first word of each response head, for its writer and its reader.
const OK: &str = "OK";
const ERR: &str = "ERR";
const BUSY: &str = "BUSY";

/// The keys of a `BUSY` head's `key=value` pairs, in wire order.
const BUSY_KEYS: [&str; 2] = ["in_flight", "max"];

/// Default per-frame byte bound readers enforce.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 64 << 20;

/// A frame failed to read or parse. The message is safe to ship back in an
/// `ERR` response verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// What went wrong, one line.
    pub message: String,
}

impl ProtoError {
    fn new(message: impl Into<String>) -> Self {
        ProtoError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ProtoError {}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        ProtoError::new(format!("io: {e}"))
    }
}

/// The request verbs a server answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verb {
    /// Liveness probe; empty body, empty response body.
    Ping,
    /// Upload a capture (`mapir v1` body); the server keeps it resident and
    /// answers with its canonical digest.
    Capture,
    /// Run one or more sweep cells (stanza body) and answer with the
    /// rendered sweep report — byte-identical to offline `apusim replay`.
    Sweep,
    /// Run exactly one cell and answer with its raw `sweepresult` text
    /// ([`SweepResult::to_text`](crate::SweepResult::to_text)).
    Result,
    /// Counter snapshot (`key=value` pairs in the response header).
    Stats,
    /// Prometheus-style exposition of the latency, pool and cache-size
    /// instruments (text body; see `omp_offload::metrics` for the
    /// format). It restates no `STATS` counter.
    Metrics,
    /// Run cache garbage collection against the server's byte budget.
    Gc,
    /// Stop accepting, drain in-flight work, exit the accept loop.
    Shutdown,
}

impl Verb {
    /// The wire token of each verb, in canonical order (echoed lower-case,
    /// [`Verb::lower`], in `OK` responses).
    pub const TOKENS: Tokens<Verb, 8> = Tokens {
        what: "verb",
        table: [
            (Verb::Ping, "PING"),
            (Verb::Capture, "CAPTURE"),
            (Verb::Sweep, "SWEEP"),
            (Verb::Result, "RESULT"),
            (Verb::Stats, "STATS"),
            (Verb::Metrics, "METRICS"),
            (Verb::Gc, "GC"),
            (Verb::Shutdown, "SHUTDOWN"),
        ],
    };

    /// Every verb, in canonical order.
    pub const ALL: [Verb; 8] = Self::TOKENS.values();

    /// Wire token, as request headers spell it.
    pub fn token(self) -> &'static str {
        Self::TOKENS.token(self)
    }

    /// Lower-case token, echoed in `OK` response headers.
    pub fn lower(self) -> String {
        self.token().to_ascii_lowercase()
    }

    /// Parse either casing's token.
    pub fn from_token(s: &str) -> Option<Verb> {
        Verb::ALL
            .into_iter()
            .find(|v| v.token() == s || v.lower() == s)
    }
}

impl fmt::Display for Verb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// One request frame: a verb plus its body (possibly empty; when non-empty,
/// always `\n`-terminated).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the client asks for.
    pub verb: Verb,
    /// Verb-specific payload (an existing canonical encoding, or empty).
    pub body: String,
}

impl Frame {
    /// A frame with a body (the body gains a trailing newline if missing).
    pub fn new(verb: Verb, body: impl Into<String>) -> Frame {
        let body = normalize_body(body.into());
        Frame { verb, body }
    }

    /// Serialize to wire bytes (header, body, terminator).
    pub fn to_wire(&self) -> String {
        let (head, verb, body) = (request_head(), self.verb.token(), &self.body);
        format!("{head} {verb}\n{body}{END}\n")
    }

    /// Read one frame off `r`. `Ok(None)` on clean end-of-stream before any
    /// byte; an error on anything else that is not a well-formed frame
    /// within `max_bytes`. Total: arbitrary input yields a frame or a
    /// [`ProtoError`], never a panic and never unbounded buffering.
    pub fn read_from(r: &mut impl BufRead, max_bytes: usize) -> Result<Option<Frame>, ProtoError> {
        let Some(header) = read_line(r, max_bytes)? else {
            return Ok(None);
        };
        let head = request_head();
        let verb_tok = header.strip_prefix(&head).and_then(|h| h.strip_prefix(' '));
        let verb_tok = verb_tok.ok_or_else(|| {
            ProtoError::new(format!("bad frame header (expected '{head} <VERB>')"))
        })?;
        let verb = Verb::from_token(verb_tok)
            .ok_or_else(|| ProtoError::new(format!("unknown verb '{verb_tok}'")))?;
        let body = read_body(r, max_bytes)?;
        Ok(Some(Frame { verb, body }))
    }
}

/// What a server says back. Every variant's wire form ends with the same
/// `END` terminator, so clients read all three uniformly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The request was answered.
    Ok {
        /// Echo of the request verb.
        verb: Verb,
        /// Ordered `key=value` summary pairs in the header line.
        info: Vec<(String, String)>,
        /// Verb-specific payload (report bytes, result text, or empty).
        body: String,
    },
    /// The request was rejected or failed; the connection stays usable
    /// unless the framing itself was broken.
    Err {
        /// One-line reason.
        message: String,
    },
    /// Admission control rejected the request; retry later.
    Busy {
        /// Cells currently running or queued.
        in_flight: u64,
        /// The server's admission bound.
        max: u64,
    },
}

impl Response {
    /// An `OK` response with no info pairs.
    pub fn ok(verb: Verb, body: impl Into<String>) -> Response {
        Response::ok_with(verb, Vec::new(), body)
    }

    /// An `OK` response carrying `key=value` info pairs.
    pub fn ok_with(verb: Verb, info: Vec<(String, String)>, body: impl Into<String>) -> Response {
        Response::Ok {
            verb,
            info,
            body: normalize_body(body.into()),
        }
    }

    /// An `ERR` response; newlines in the message are flattened so the
    /// header stays one line.
    pub fn err(message: impl Into<String>) -> Response {
        Response::Err {
            message: message.into().replace('\n', " / "),
        }
    }

    /// The response payload when this is `Ok`, `Err` otherwise — for
    /// clients that expect success.
    pub fn into_ok_body(self) -> Result<String, ProtoError> {
        match self {
            Response::Ok { body, .. } => Ok(body),
            Response::Err { message } => Err(ProtoError::new(format!("server error: {message}"))),
            Response::Busy { in_flight, max } => Err(ProtoError::new(format!(
                "server busy ({in_flight}/{max} in flight)"
            ))),
        }
    }

    /// Every info pair when this is `Ok`, wire order (empty otherwise).
    pub fn info(&self) -> &[(String, String)] {
        match self {
            Response::Ok { info, .. } => info,
            _ => &[],
        }
    }

    /// The value of info pair `key` when this is `Ok` and carries it.
    pub fn info_get(&self, key: &str) -> Option<&str> {
        match self {
            Response::Ok { info, .. } => {
                info.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
            }
            _ => None,
        }
    }

    /// Serialize to wire bytes.
    pub fn to_wire(&self) -> String {
        match self {
            Response::Ok { verb, info, body } => {
                let mut head = format!("{OK} {}", verb.lower());
                for (k, v) in info {
                    head.push(' ');
                    head.push_str(k);
                    head.push('=');
                    head.push_str(v);
                }
                format!("{head}\n{body}{END}\n")
            }
            Response::Err { message } => format!("{ERR} {message}\n{END}\n"),
            Response::Busy { in_flight, max } => {
                let [k_in_flight, k_max] = BUSY_KEYS;
                format!("{BUSY} {k_in_flight}={in_flight} {k_max}={max}\n{END}\n")
            }
        }
    }

    /// Read one response off `r`. `Ok(None)` on clean end-of-stream.
    pub fn read_from(
        r: &mut impl BufRead,
        max_bytes: usize,
    ) -> Result<Option<Response>, ProtoError> {
        let Some(header) = read_line(r, max_bytes)? else {
            return Ok(None);
        };
        let (word, rest) = header.split_once(' ').unwrap_or_default();
        let mut toks = rest.split(' ');
        let resp = match word {
            OK => {
                let verb_tok = toks.next().unwrap_or_default();
                let verb = Verb::from_token(verb_tok).ok_or_else(|| {
                    ProtoError::new(format!("unknown response verb '{verb_tok}'"))
                })?;
                let info = read_pairs(toks)?;
                let body = read_body(r, max_bytes)?;
                return Ok(Some(Response::Ok { verb, info, body }));
            }
            ERR => Response::err(rest),
            BUSY => {
                let info = read_pairs(toks)?;
                let value = |k| info.iter().find(|(key, _)| key == k)?.1.parse().ok();
                let bad = || ProtoError::new(format!("bad BUSY header '{rest}'"));
                let [in_flight, max] = BUSY_KEYS.map(|k| value(k).ok_or_else(bad));
                let (in_flight, max) = (in_flight?, max?);
                Response::Busy { in_flight, max }
            }
            _ => return Err(ProtoError::new("bad response header")),
        };
        expect_end(r, max_bytes)?;
        Ok(Some(resp))
    }
}

/// The `key=value` pairs of a response head (`OK` info, `BUSY` counts).
fn read_pairs<'a>(
    toks: impl Iterator<Item = &'a str>,
) -> Result<Vec<(String, String)>, ProtoError> {
    toks.map(|t| match t.split_once('=') {
        Some((k, v)) => Ok((k.to_string(), v.to_string())),
        None => Err(ProtoError::new(format!("bad info token '{t}'"))),
    })
    .collect()
}

/// The key of a stanza's display-name line, `name <label>`.
const NAME_KEY: &str = "name";

/// One sweep-cell stanza: the optional display-name line plus the exact
/// canonical request block. This is the unit the `SWEEP` and `RESULT`
/// bodies are made of, and the only way a cell is ever spelled on the wire.
pub fn sweep_stanza(name: &str, req: &SweepRequest) -> String {
    let name = name.replace('\n', " ");
    format!("{NAME_KEY} {name}\n{}", req.canonical())
}

/// Split a `SWEEP`/`RESULT` body into cells, the inverse of
/// [`sweep_stanza`]: an optional name line (else `cell<i>`), then a request
/// block up to its closing line; `resolve` looks capture digests up.
pub(crate) fn parse_stanzas(
    body: &str,
    resolve: impl Fn(u64) -> Option<Arc<MapIr>>,
) -> Result<Vec<SweepRequest>, String> {
    let mut lines = body.lines().peekable();
    let mut out: Vec<SweepRequest> = Vec::new();
    while let Some(&first) = lines.peek() {
        let name = match first.split_once(' ').filter(|(k, _)| *k == NAME_KEY) {
            Some((_, label)) => {
                lines.next();
                label.to_string()
            }
            None => format!("cell{}", out.len()),
        };
        let mut block = String::new();
        loop {
            let line = lines
                .next()
                .ok_or_else(|| format!("truncated request stanza for '{name}'"))?;
            block.push_str(line);
            block.push('\n');
            if closes_block(line) {
                break;
            }
        }
        let req =
            SweepRequest::from_canonical(name, &block, &resolve).map_err(|e| e.to_string())?;
        out.push(req);
    }
    if out.is_empty() {
        return Err("empty request body".to_string());
    }
    Ok(out)
}

fn normalize_body(mut body: String) -> String {
    if !body.is_empty() && !body.ends_with('\n') {
        body.push('\n');
    }
    body
}

/// Read one `\n`-terminated line, bounded. `Ok(None)` on immediate EOF.
fn read_line(r: &mut impl BufRead, max_bytes: usize) -> Result<Option<String>, ProtoError> {
    let mut line = String::new();
    let mut n = 0usize;
    // Bounded read_line: take() prevents one enormous line from buffering
    // past the frame limit.
    let mut limited = std::io::Read::take(&mut *r, max_bytes as u64 + 1);
    n += limited.read_line(&mut line)?;
    if n == 0 {
        return Ok(None);
    }
    if n > max_bytes {
        return Err(ProtoError::new(format!("frame exceeds {max_bytes} bytes")));
    }
    if !line.ends_with('\n') {
        return Err(ProtoError::new("unexpected end of stream mid-frame"));
    }
    line.pop();
    Ok(Some(line))
}

/// Accumulate body lines until the `END` terminator, bounded by
/// `max_bytes` across the whole body.
fn read_body(r: &mut impl BufRead, max_bytes: usize) -> Result<String, ProtoError> {
    let mut body = String::new();
    loop {
        match read_line(r, max_bytes)? {
            None => return Err(ProtoError::new("unexpected end of stream mid-frame")),
            Some(line) if line == END => return Ok(body),
            Some(line) => {
                if body.len() + line.len() + 1 > max_bytes {
                    return Err(ProtoError::new(format!("frame exceeds {max_bytes} bytes")));
                }
                body.push_str(&line);
                body.push('\n');
            }
        }
    }
}

fn expect_end(r: &mut impl BufRead, max_bytes: usize) -> Result<(), ProtoError> {
    match read_line(r, max_bytes)? {
        Some(line) if line == END => Ok(()),
        Some(_) => Err(ProtoError::new("expected END terminator")),
        None => Err(ProtoError::new("unexpected end of stream mid-frame")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn frame_back(text: &str) -> Result<Option<Frame>, ProtoError> {
        Frame::read_from(
            &mut BufReader::new(text.as_bytes()),
            DEFAULT_MAX_FRAME_BYTES,
        )
    }

    #[test]
    fn frames_round_trip() {
        for verb in Verb::ALL {
            for body in ["", "mapir v1\n0 taskwait\n"] {
                let f = Frame::new(verb, body);
                let back = frame_back(&f.to_wire()).unwrap().unwrap();
                assert_eq!(back, f);
            }
        }
    }

    #[test]
    fn responses_round_trip() {
        let samples = [
            Response::ok(Verb::Ping, ""),
            Response::ok_with(
                Verb::Capture,
                vec![
                    ("digest".into(), "00deadbeef00cafe".into()),
                    ("records".into(), "12".into()),
                ],
                "",
            ),
            Response::ok(Verb::Sweep, "workload line 1\nline 2\n"),
            Response::err("unknown capture"),
            Response::Busy {
                in_flight: 7,
                max: 8,
            },
        ];
        for resp in samples {
            let wire = resp.to_wire();
            let back = Response::read_from(
                &mut BufReader::new(wire.as_bytes()),
                DEFAULT_MAX_FRAME_BYTES,
            )
            .unwrap()
            .unwrap();
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn eof_before_any_byte_is_a_clean_none() {
        assert_eq!(frame_back("").unwrap(), None);
        let none =
            Response::read_from(&mut BufReader::new(&b""[..]), DEFAULT_MAX_FRAME_BYTES).unwrap();
        assert_eq!(none, None);
    }

    #[test]
    fn malformed_frames_error_cleanly() {
        for bad in [
            "HELLO\n",
            "PROTO v2 PING\nEND\n",
            "PROTO v1 FROB\nEND\n",
            "PROTO v1 PING\n",     // missing END
            "PROTO v1 PING\nbody", // EOF mid-line
            "PROTO v1 PING",       // EOF mid-header
        ] {
            assert!(frame_back(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn oversized_frames_are_bounded() {
        let huge = format!("PROTO v1 CAPTURE\n{}\nEND\n", "x".repeat(4096));
        let err = Frame::read_from(&mut BufReader::new(huge.as_bytes()), 256).unwrap_err();
        assert!(err.message.contains("exceeds"));
    }

    #[test]
    fn err_messages_stay_single_line() {
        let r = Response::err("line one\nline two");
        assert_eq!(r.to_wire(), "ERR line one / line two\nEND\n");
    }

    #[test]
    fn verb_tokens_round_trip_both_casings() {
        for v in Verb::ALL {
            assert_eq!(Verb::from_token(v.token()), Some(v));
            assert_eq!(Verb::from_token(&v.lower()), Some(v));
        }
        assert_eq!(Verb::from_token("Ping"), None);
    }

    #[test]
    fn into_ok_body_reports_failures() {
        assert_eq!(
            Response::ok(Verb::Ping, "pong\n").into_ok_body().unwrap(),
            "pong\n"
        );
        assert!(Response::err("nope").into_ok_body().is_err());
        let busy = Response::Busy {
            in_flight: 3,
            max: 3,
        };
        assert!(busy.into_ok_body().unwrap_err().message.contains("busy"));
    }
}
