//! `apusim run --trace` end to end: both trace files are strict JSON (the
//! Chrome trace as one document, the JSONL stream line by line); the
//! merged Chrome trace carries both processes (HSA schedule operations as
//! pid 1, every telemetry event as pid 2) and drops no event; and the
//! JSONL stream's header counts every line while its `seq` numbers run
//! without gaps from `dropped_events`.

mod common;

use common::Json;
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
