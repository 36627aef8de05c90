//! Property: the `PROTO v1` reader is total — arbitrary input parses or is
//! rejected with a clean [`ProtoError`], never a panic and never unbounded
//! buffering — and every well-formed frame/response round-trips through its
//! wire form byte-exactly.
//!
//! This is the anti-drift pin for the serve wire format: the framing grammar
//! lives in one module, and these properties keep hand-rolled client
//! implementations honest about what the server will accept.
//!
//! The one body the server parses itself, a `CAPTURE`'s `mapir v1` text,
//! is held to the same rule: capture-shaped text with real op keywords,
//! counts up to `u64::MAX`, and truncated or overlong lines parses to a
//! capture or fails with a clean error, through `MapIr::parse` and through
//! a live server, which then keeps answering. Every capture of both sweep
//! corpora round-trips through its text exactly.
//!
//! [`ProtoError`]: omp_batch::ProtoError

use omp_batch::{
    full_corpus, smoke_corpus, Client, Frame, ProtoError, Response, Server, ServerConfig, Verb,
    PROTO_VERSION,
};
use omp_offload::MapIr;
use proptest::prelude::*;
use std::io::BufReader;
use std::sync::{Mutex, MutexGuard, OnceLock};

const BOUND: usize = 64 << 10;

fn read_frame(bytes: &[u8], max: usize) -> Result<Option<Frame>, ProtoError> {
    Frame::read_from(&mut BufReader::new(bytes), max)
}

fn read_response(bytes: &[u8], max: usize) -> Result<Option<Response>, ProtoError> {
    Response::read_from(&mut BufReader::new(bytes), max)
}

/// Printable-ASCII strings (space through `~`), length drawn from `len`.
fn printable(len: std::ops::Range<usize>) -> impl Strategy<Value = String> {
    proptest::collection::vec(32u8..127u8, len)
        .prop_map(|bs| bs.into_iter().map(|b| b as char).collect())
}

/// A body line that cannot collide with the frame terminator or smuggle a
/// line break: printable ASCII, not exactly `END`.
fn body_line() -> impl Strategy<Value = String> {
    printable(0..40).prop_map(|s| if s == "END" { format!("{s}.") } else { s })
}

/// A well-formed body: zero or more `\n`-terminated lines.
fn body() -> impl Strategy<Value = String> {
    proptest::collection::vec(body_line(), 0..6).prop_map(|lines| {
        lines
            .into_iter()
            .map(|l| format!("{l}\n"))
            .collect::<String>()
    })
}

fn verb() -> impl Strategy<Value = Verb> {
    (0usize..Verb::ALL.len()).prop_map(|i| Verb::ALL[i])
}

/// Info key/value pairs as the header grammar allows: keys are lower-case
/// words (no `=`), values are space-free printable ASCII (a `=` inside a
/// value is legal — the first `=` splits).
fn info_pairs() -> impl Strategy<Value = Vec<(String, String)>> {
    let key = proptest::collection::vec(97u8..123u8, 1..9)
        .prop_map(|bs| bs.into_iter().map(|b| b as char).collect::<String>());
    let value = proptest::collection::vec(33u8..127u8, 0..12)
        .prop_map(|bs| bs.into_iter().map(|b| b as char).collect::<String>());
    proptest::collection::vec((key, value), 0..4)
}

proptest! {
    /// Arbitrary bytes: the frame reader returns a frame, a clean None, or
    /// a ProtoError. It must never panic (proptest reports panics as
    /// failures) and never buffer past its bound.
    #[test]
    fn frame_reader_is_total_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = read_frame(&bytes, BOUND);
        let _ = read_frame(&bytes, 64); // tiny bound: the limiter must also be total
    }

    /// Arbitrary bytes: the response reader is total too.
    #[test]
    fn response_reader_is_total_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = read_response(&bytes, BOUND);
        let _ = read_response(&bytes, 64);
    }

    /// Arbitrary *text* lines (valid UTF-8, newline-framed) — closer to the
    /// grammar than raw bytes, so this exercises the header parsers rather
    /// than UTF-8 validation.
    #[test]
    fn framers_are_total_on_arbitrary_lines(lines in proptest::collection::vec(printable(0..60), 0..8)) {
        let text = lines.into_iter().map(|l| format!("{l}\n")).collect::<String>();
        let _ = read_frame(text.as_bytes(), BOUND);
        let _ = read_response(text.as_bytes(), BOUND);
    }

    /// Every well-formed frame survives a wire round trip byte-exactly.
    #[test]
    fn frames_round_trip(v in verb(), b in body()) {
        let frame = Frame::new(v, b);
        let wire = frame.to_wire();
        prop_assert!(wire.starts_with(&format!("PROTO v{PROTO_VERSION} ")));
        let back = read_frame(wire.as_bytes(), BOUND).unwrap().unwrap();
        prop_assert_eq!(back, frame);
    }

    /// Every well-formed OK response (info pairs and all) round-trips.
    #[test]
    fn ok_responses_round_trip(v in verb(), info in info_pairs(), b in body()) {
        let resp = Response::ok_with(v, info, b);
        let back = read_response(resp.to_wire().as_bytes(), BOUND).unwrap().unwrap();
        prop_assert_eq!(back, resp);
    }

    /// ERR and BUSY responses round-trip; ERR flattens embedded newlines so
    /// the reconstructed message never splits the header.
    #[test]
    fn err_and_busy_round_trip(msg in printable(1..60), in_flight in 0u64..1000, max in 1u64..1000) {
        let err = Response::err(msg);
        let back = read_response(err.to_wire().as_bytes(), BOUND).unwrap().unwrap();
        prop_assert_eq!(back, err);

        let busy = Response::Busy { in_flight, max };
        let back = read_response(busy.to_wire().as_bytes(), BOUND).unwrap().unwrap();
        prop_assert_eq!(back, busy);
    }

    /// A frame over the reader's byte bound is rejected, not buffered.
    #[test]
    fn oversized_frames_are_rejected(v in verb(), n in 300usize..2000) {
        let frame = Frame::new(v, "x".repeat(n));
        let err = read_frame(frame.to_wire().as_bytes(), 256).unwrap_err();
        prop_assert!(err.message.contains("exceeds"));
    }

    /// Truncating a valid frame anywhere strictly inside its wire bytes
    /// yields an error or a clean None — never a successful parse of
    /// different content, never a panic.
    #[test]
    fn truncated_frames_never_misparse(v in verb(), b in body(), frac in 0.0f64..1.0) {
        let wire = Frame::new(v, b).to_wire();
        let cut = ((wire.len() - 1) as f64 * frac) as usize;
        match read_frame(&wire.as_bytes()[..cut], BOUND) {
            Ok(None) => prop_assert_eq!(cut, 0),
            Ok(Some(_)) => prop_assert!(false, "truncated frame parsed as complete"),
            Err(_) => {}
        }
    }
}

/// One line of each MapIR op, as `to_text` writes them.
const OP_LINES: [&str; 12] = [
    "0 host_alloc 4096 8192",
    "0 host_free 4096",
    "0 pool_alloc 1073741824 4096",
    "0 pool_free 1073741824",
    "0 host_write 4096 8192",
    "0 host_read 4096 64",
    "0 global 0 1048576 8",
    "0 enter to 0 4096 8192",
    "0 exit from 0 1 4096 8192",
    "0 update 1 0 4096 64",
    "1 kernel axpy 1 2 1 1 alloc 0 4096 8192 tofrom 1 64 8 1073741824 4096 0",
    "1 taskwait",
];

/// Numbers a mutated token takes: counts and flags at their edges, a count
/// that sizes 24 TiB of maps, and `u64::MAX`.
const NUMBERS: [u64; 6] = [0, 1, 2, 4096, 1 << 40, u64::MAX];

/// One capture-shaped line: an op line kept whole, truncated after `at`
/// tokens, extended by `at` numbers, or with its token `at` (a keyword or
/// a count among them) replaced by another op's keyword or a number.
fn capture_line() -> impl Strategy<Value = String> {
    (0..OP_LINES.len(), 0u8..5, 0usize..16, 0..NUMBERS.len()).prop_map(|(op, how, at, n)| {
        let mut toks: Vec<String> = OP_LINES[op].split(' ').map(String::from).collect();
        let len = toks.len();
        match how {
            1 => toks.truncate(at % len),
            2 => toks.extend((0..at).map(|i| NUMBERS[(n + i) % NUMBERS.len()].to_string())),
            3 => toks[at % len] = OP_LINES[at % 12].split(' ').nth(1).unwrap().to_string(),
            4 => toks[at % len] = NUMBERS[n].to_string(),
            _ => {}
        }
        toks.join(" ")
    })
}

/// A client of one server that every capture-body case talks to.
fn capture_client() -> MutexGuard<'static, Client> {
    static CLIENT: OnceLock<Mutex<Client>> = OnceLock::new();
    let client = CLIENT.get_or_init(|| {
        let server = Server::bind_tcp("127.0.0.1:0", ServerConfig::default()).expect("bind");
        let addr = server.tcp_addr().expect("a TCP address").to_string();
        drop(server.spawn());
        Mutex::new(Client::connect_tcp(&addr).expect("connect"))
    });
    client.lock().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Capture-shaped text parses to a capture or fails cleanly, and the
    /// server answers its CAPTURE with OK exactly when it parses to a
    /// non-empty capture, then answers PING: no input panics or aborts
    /// the parser or the server.
    #[test]
    fn capture_bodies_parse_or_fail_cleanly(header in 0u8..8, lines in proptest::collection::vec(capture_line(), 0..6)) {
        let mut text = if header == 0 { String::new() } else { "mapir v1\n".to_string() };
        for line in lines {
            text.push_str(&line);
            text.push('\n');
        }
        let parsed = MapIr::parse(&text);
        if let Ok(ir) = &parsed {
            prop_assert_eq!(MapIr::parse(&ir.to_text()).as_ref(), Ok(ir));
        }
        let mut client = capture_client();
        let resp = client.capture(&text).expect("the server answers every CAPTURE");
        let accepted = matches!(resp, Response::Ok { .. });
        prop_assert_eq!(accepted, parsed.is_ok_and(|ir| !ir.is_empty()), "{:?} for {}", resp, text);
        prop_assert!(client.ping().is_ok_and(|r| matches!(r, Response::Ok { .. })));
    }
}

#[test]
fn every_corpus_capture_round_trips_through_its_text() {
    for req in smoke_corpus().iter().chain(&full_corpus()) {
        let text = req.ir.to_text();
        let back = MapIr::parse(&text).expect("a capture's text parses");
        assert_eq!(back.to_text(), text, "{}", req.name);
    }
}
