//! The serve byte-identity matrix: `apusim serve` is pinned against the
//! offline replay path, cold and warm, serial and parallel, one client and
//! many — every `SWEEP` response body must equal the offline
//! [`render_report`] bytes for the same corpus, every `RESULT` body the
//! cell's `sweepresult` text, and the server's counters must account for
//! every cell exactly.
//!
//! Robustness is pinned alongside: malformed frames are answered with `ERR`
//! and poison nothing, admission control answers `BUSY` deterministically,
//! a zero timeout detaches the connection while the sweep still finishes
//! into the cache, `SHUTDOWN` drains and removes the socket, and a bind
//! replaces only a stale socket, never a regular file or a live server's.

use omp_batch::{
    execute, render_report, run_sweep, smoke_corpus, CacheMode, Client, ElideKind, Server,
    ServerConfig, ServerStats, SweepRequest,
};
use omp_offload::metrics::{MetricKind, MetricsSnapshot};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let d = std::env::temp_dir().join(format!(
        "apusim-serve-{}-{}-{}",
        std::process::id(),
        tag,
        SEQ.fetch_add(1, Ordering::Relaxed),
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("scratch dir");
    d
}

/// The test corpus: the CI smoke corpus plus profile-guided variants of its
/// first two cells, so served `plan` cells are on the hot path.
fn corpus() -> Vec<SweepRequest> {
    let mut corpus = smoke_corpus();
    let extra: Vec<SweepRequest> = corpus
        .iter()
        .take(2)
        .map(|r| {
            SweepRequest::builder(format!("{}+plan", r.name), Arc::clone(&r.ir))
                .preset(r.preset)
                .config(r.config)
                .elide(ElideKind::Plan)
                .build()
                .expect("plan variant is valid")
        })
        .collect();
    corpus.extend(extra);
    corpus
}

/// Unique capture texts of a corpus, keyed by canonical digest.
fn captures_of(corpus: &[SweepRequest]) -> BTreeMap<u64, String> {
    corpus
        .iter()
        .map(|r| (SweepRequest::capture_digest(&r.ir), r.ir.to_text()))
        .collect()
}

/// The offline reference: what `apusim replay` prints for this corpus.
fn offline_report(corpus: &[SweepRequest]) -> String {
    let outcome = run_sweep(corpus, 1, &CacheMode::Off).expect("offline sweep");
    render_report(corpus, &outcome.results)
}

fn cells_of(corpus: &[SweepRequest]) -> Vec<(String, SweepRequest)> {
    corpus.iter().map(|r| (r.name.clone(), r.clone())).collect()
}

fn upload_captures(client: &mut Client, corpus: &[SweepRequest]) {
    for (digest, text) in captures_of(corpus) {
        let resp = client.capture(&text).expect("capture roundtrip");
        assert_eq!(
            resp.info_get("digest"),
            Some(format!("{digest:016x}").as_str()),
            "server and client disagree on a capture digest"
        );
    }
}

fn info_u64(resp: &omp_batch::Response, key: &str) -> u64 {
    resp.info_get(key)
        .unwrap_or_else(|| panic!("missing info key '{key}' in {resp:?}"))
        .parse()
        .expect("numeric info value")
}

#[test]
fn serve_matches_offline_replay_cold_and_warm() {
    let corpus = corpus();
    let n = corpus.len() as u64;
    let expected = offline_report(&corpus);
    let cells = cells_of(&corpus);

    for jobs in [1usize, 8] {
        let dir = scratch_dir(&format!("identity-j{jobs}"));
        let sock = dir.join("serve.sock");
        let server = Server::bind_unix(
            &sock,
            ServerConfig {
                cache: CacheMode::Dir(dir.join("cache")),
                jobs,
                ..ServerConfig::default()
            },
        )
        .expect("bind");
        let handle = server.spawn();

        let mut client = Client::connect_unix(&sock).expect("connect");
        assert_eq!(client.ping().unwrap().info_get("proto"), Some("1"));
        upload_captures(&mut client, &corpus);

        // Cold: every cell simulates; the report is the offline bytes.
        let cold = client.sweep(&cells).expect("cold sweep");
        assert_eq!(info_u64(&cold, "hits"), 0, "-j {jobs} cold hits");
        assert_eq!(info_u64(&cold, "simulated"), n, "-j {jobs} cold simulated");
        assert_eq!(
            cold.into_ok_body().unwrap(),
            expected,
            "-j {jobs} cold serve output diverged from offline replay"
        );

        // Warm: every cell hits; the bytes cannot tell the difference.
        let warm = client.sweep(&cells).expect("warm sweep");
        assert_eq!(info_u64(&warm, "hits"), n, "-j {jobs} warm hits");
        assert_eq!(info_u64(&warm, "simulated"), 0, "-j {jobs} warm simulated");
        assert_eq!(
            warm.into_ok_body().unwrap(),
            expected,
            "-j {jobs} warm serve output diverged from offline replay"
        );

        client.shutdown().expect("shutdown");
        handle.join().expect("server exits cleanly");
        assert!(!sock.exists(), "socket file removed on shutdown");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn concurrent_clients_get_identical_bytes_with_exact_accounting() {
    let corpus = corpus();
    let n = corpus.len() as u64;
    let expected = offline_report(&corpus);
    let cells = cells_of(&corpus);

    let dir = scratch_dir("concurrent");
    let sock = dir.join("serve.sock");
    let server = Server::bind_unix(
        &sock,
        ServerConfig {
            cache: CacheMode::Dir(dir.join("cache")),
            jobs: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let handle = server.spawn();

    // Phase 1 (sequential): one client warms the cache, so phase 2's
    // accounting is exact — concurrent cold sweeps could legitimately race
    // the same cell into multiple simulations.
    let mut warmer = Client::connect_unix(&sock).expect("connect");
    upload_captures(&mut warmer, &corpus);
    let cold = warmer.sweep(&cells).expect("cold sweep");
    assert_eq!(info_u64(&cold, "simulated"), n);
    assert_eq!(cold.into_ok_body().unwrap(), expected);

    // Phase 2: N concurrent clients sweep the warmed corpus while K others
    // speak garbage. Every well-formed client must read the offline bytes.
    const CLIENTS: usize = 6;
    const MALFORMED: usize = 3;
    let mut threads = Vec::new();
    for _ in 0..CLIENTS {
        let sock = sock.clone();
        let cells = cells.clone();
        let expected = expected.clone();
        threads.push(std::thread::spawn(move || {
            let mut c = Client::connect_unix(&sock).expect("connect");
            let resp = c.sweep(&cells).expect("warm sweep");
            assert_eq!(info_u64(&resp, "hits"), cells.len() as u64);
            assert_eq!(info_u64(&resp, "simulated"), 0);
            assert_eq!(resp.into_ok_body().unwrap(), expected);
        }));
    }
    for _ in 0..MALFORMED {
        let sock = sock.clone();
        threads.push(std::thread::spawn(move || {
            let mut s = UnixStream::connect(&sock).expect("connect");
            s.write_all(b"NOT A PROTOCOL\n").expect("write garbage");
            s.flush().unwrap();
            let mut line = String::new();
            BufReader::new(&s).read_line(&mut line).expect("read reply");
            assert!(
                line.starts_with("ERR "),
                "malformed frame must get ERR, got {line:?}"
            );
        }));
    }
    for t in threads {
        t.join().expect("client thread");
    }

    // Exact accounting across the whole run.
    let mut auditor = Client::connect_unix(&sock).expect("connect");
    let stats = auditor.stats().expect("stats");
    assert_eq!(
        info_u64(&stats, "simulated"),
        n,
        "cold sweep simulated each cell once"
    );
    // Concurrent identical sweeps may coalesce onto one run: every client
    // either led a sweep (hitting all n cells from the cache) or parked on
    // a leader's rendezvous. Each read the same bytes regardless.
    let hits = info_u64(&stats, "hits");
    let coalesced = info_u64(&stats, "coalesced");
    assert_eq!(hits % n, 0, "warm hits come in whole corpora");
    let leaders = hits / n;
    assert!(
        (1..=CLIENTS as u64).contains(&leaders),
        "between one and {CLIENTS} warm sweeps actually ran, got {leaders}"
    );
    assert_eq!(
        leaders + coalesced,
        CLIENTS as u64,
        "every warm client either led a sweep or coalesced onto one"
    );
    assert_eq!(info_u64(&stats, "in_flight"), 0);
    assert_eq!(info_u64(&stats, "malformed"), MALFORMED as u64);
    assert_eq!(info_u64(&stats, "busy_rejections"), 0);
    assert_eq!(
        info_u64(&stats, "captures"),
        captures_of(&corpus).len() as u64
    );

    auditor.shutdown().expect("shutdown");
    handle.join().expect("server exits cleanly");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn identical_inflight_sweeps_coalesce_onto_one_run() {
    let corpus = corpus();
    let n = corpus.len() as u64;
    let expected = offline_report(&corpus);
    let cells = cells_of(&corpus);

    // No cache and one worker: if the second client did NOT coalesce, the
    // corpus would simulate twice and the global counter would say so.
    let dir = scratch_dir("coalesce");
    let sock = dir.join("serve.sock");
    let server = Server::bind_unix(
        &sock,
        ServerConfig {
            cache: CacheMode::Off,
            jobs: 1,
            timeout: Duration::from_secs(120),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let handle = server.spawn();

    let mut client = Client::connect_unix(&sock).expect("connect");
    upload_captures(&mut client, &corpus);

    // Fire the leader's cold sweep on a thread...
    let leader = {
        let sock = sock.clone();
        let cells = cells.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect_unix(&sock).expect("connect");
            c.sweep(&cells).expect("leader sweep")
        })
    };
    // ...wait until it is visibly in flight (the sweep itself takes far
    // longer than this poll loop, so the rendezvous window is wide open)...
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let stats = client.stats().expect("stats");
        if info_u64(&stats, "in_flight") > 0 {
            break;
        }
        assert!(Instant::now() < deadline, "leader sweep never admitted");
        std::thread::sleep(Duration::from_millis(2));
    }
    // ...then send the byte-identical request: it must park on the
    // leader's rendezvous instead of simulating the corpus again.
    let waiter = client.sweep(&cells).expect("waiter sweep");
    let leader = leader.join().expect("leader thread");

    assert_eq!(
        info_u64(&waiter, "simulated"),
        n,
        "the waiter reports the leader's accounting"
    );
    assert_eq!(leader.into_ok_body().unwrap(), expected);
    assert_eq!(
        waiter.into_ok_body().unwrap(),
        expected,
        "leader and waiter read the same bytes"
    );

    let stats = client.stats().expect("stats");
    assert_eq!(info_u64(&stats, "coalesced"), 1, "second client coalesced");
    assert_eq!(
        info_u64(&stats, "simulated"),
        n,
        "two clients, each cell simulated exactly once with the cache off"
    );
    assert_eq!(info_u64(&stats, "hits"), 0);
    assert_eq!(info_u64(&stats, "in_flight"), 0);

    // The waiter's response reports the leader's simulated cells, so its
    // latency is cold too: two cold sweeps, no warm one.
    let body = client.metrics().expect("metrics").into_ok_body().unwrap();
    let snap = MetricsSnapshot::parse(&body).expect("metrics body parses");
    let lat = |temp: &str| {
        let labels = [("verb", "sweep"), ("temp", temp)];
        snap.value("omp_serve_latency_us", "_count", &labels)
    };
    assert_eq!(
        (lat("cold"), lat("warm")),
        (Some(2), Some(0)),
        "leader and waiter are cold"
    );

    client.shutdown().expect("shutdown");
    handle.join().expect("server exits cleanly");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stats_info_round_trips_and_appends_uptime_last() {
    // Satellite contract: `STATS` keeps its existing keys in place (CI
    // greps them), appends `uptime_ms` at the end, and the info pairs
    // invert exactly through ServerStats::from_info.
    let s = ServerStats {
        requests: 11,
        hits: 2,
        simulated: 3,
        in_flight: 1,
        captures: 4,
        evicted: 5,
        busy_rejections: 6,
        malformed: 7,
        coalesced: 8,
        uptime_ms: 90_001,
    };
    let info = s.info();
    let keys: Vec<&str> = info.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "requests",
            "hits",
            "simulated",
            "in_flight",
            "captures",
            "evicted",
            "busy_rejections",
            "malformed",
            "coalesced",
            "uptime_ms",
        ],
        "STATS key order is pinned; new keys append at the end"
    );
    assert_eq!(ServerStats::from_info(&info).unwrap(), s);
    // Unknown keys are tolerated (forward compatibility); junk is not.
    let mut extended = info.clone();
    extended.push(("future_key".into(), "1".into()));
    assert_eq!(ServerStats::from_info(&extended).unwrap(), s);
    // The `plans` key an older server sends parses and is ignored.
    let mut older = info.clone();
    older.insert(5, ("plans".into(), "2".into()));
    assert_eq!(ServerStats::from_info(&older).unwrap(), s);
    assert!(ServerStats::from_info(&[("hits".into(), "x".into())]).is_err());
}

/// Every `METRICS` series of a two-worker server, in render order: family,
/// suffix and labels of each sample line, with the value dropped.
const METRICS_SERIES: &str = r#"omp_cache_size_bytes
omp_serve_latency_us_bucket{verb="ping",temp="warm",le="100"}
omp_serve_latency_us_bucket{verb="ping",temp="warm",le="1000"}
omp_serve_latency_us_bucket{verb="ping",temp="warm",le="10000"}
omp_serve_latency_us_bucket{verb="ping",temp="warm",le="100000"}
omp_serve_latency_us_bucket{verb="ping",temp="warm",le="1000000"}
omp_serve_latency_us_bucket{verb="ping",temp="warm",le="10000000"}
omp_serve_latency_us_bucket{verb="ping",temp="warm",le="+Inf"}
omp_serve_latency_us_sum{verb="ping",temp="warm"}
omp_serve_latency_us_count{verb="ping",temp="warm"}
omp_serve_latency_us_bucket{verb="capture",temp="warm",le="100"}
omp_serve_latency_us_bucket{verb="capture",temp="warm",le="1000"}
omp_serve_latency_us_bucket{verb="capture",temp="warm",le="10000"}
omp_serve_latency_us_bucket{verb="capture",temp="warm",le="100000"}
omp_serve_latency_us_bucket{verb="capture",temp="warm",le="1000000"}
omp_serve_latency_us_bucket{verb="capture",temp="warm",le="10000000"}
omp_serve_latency_us_bucket{verb="capture",temp="warm",le="+Inf"}
omp_serve_latency_us_sum{verb="capture",temp="warm"}
omp_serve_latency_us_count{verb="capture",temp="warm"}
omp_serve_latency_us_bucket{verb="sweep",temp="warm",le="100"}
omp_serve_latency_us_bucket{verb="sweep",temp="warm",le="1000"}
omp_serve_latency_us_bucket{verb="sweep",temp="warm",le="10000"}
omp_serve_latency_us_bucket{verb="sweep",temp="warm",le="100000"}
omp_serve_latency_us_bucket{verb="sweep",temp="warm",le="1000000"}
omp_serve_latency_us_bucket{verb="sweep",temp="warm",le="10000000"}
omp_serve_latency_us_bucket{verb="sweep",temp="warm",le="+Inf"}
omp_serve_latency_us_sum{verb="sweep",temp="warm"}
omp_serve_latency_us_count{verb="sweep",temp="warm"}
omp_serve_latency_us_bucket{verb="sweep",temp="cold",le="100"}
omp_serve_latency_us_bucket{verb="sweep",temp="cold",le="1000"}
omp_serve_latency_us_bucket{verb="sweep",temp="cold",le="10000"}
omp_serve_latency_us_bucket{verb="sweep",temp="cold",le="100000"}
omp_serve_latency_us_bucket{verb="sweep",temp="cold",le="1000000"}
omp_serve_latency_us_bucket{verb="sweep",temp="cold",le="10000000"}
omp_serve_latency_us_bucket{verb="sweep",temp="cold",le="+Inf"}
omp_serve_latency_us_sum{verb="sweep",temp="cold"}
omp_serve_latency_us_count{verb="sweep",temp="cold"}
omp_serve_latency_us_bucket{verb="result",temp="warm",le="100"}
omp_serve_latency_us_bucket{verb="result",temp="warm",le="1000"}
omp_serve_latency_us_bucket{verb="result",temp="warm",le="10000"}
omp_serve_latency_us_bucket{verb="result",temp="warm",le="100000"}
omp_serve_latency_us_bucket{verb="result",temp="warm",le="1000000"}
omp_serve_latency_us_bucket{verb="result",temp="warm",le="10000000"}
omp_serve_latency_us_bucket{verb="result",temp="warm",le="+Inf"}
omp_serve_latency_us_sum{verb="result",temp="warm"}
omp_serve_latency_us_count{verb="result",temp="warm"}
omp_serve_latency_us_bucket{verb="result",temp="cold",le="100"}
omp_serve_latency_us_bucket{verb="result",temp="cold",le="1000"}
omp_serve_latency_us_bucket{verb="result",temp="cold",le="10000"}
omp_serve_latency_us_bucket{verb="result",temp="cold",le="100000"}
omp_serve_latency_us_bucket{verb="result",temp="cold",le="1000000"}
omp_serve_latency_us_bucket{verb="result",temp="cold",le="10000000"}
omp_serve_latency_us_bucket{verb="result",temp="cold",le="+Inf"}
omp_serve_latency_us_sum{verb="result",temp="cold"}
omp_serve_latency_us_count{verb="result",temp="cold"}
omp_serve_latency_us_bucket{verb="stats",temp="warm",le="100"}
omp_serve_latency_us_bucket{verb="stats",temp="warm",le="1000"}
omp_serve_latency_us_bucket{verb="stats",temp="warm",le="10000"}
omp_serve_latency_us_bucket{verb="stats",temp="warm",le="100000"}
omp_serve_latency_us_bucket{verb="stats",temp="warm",le="1000000"}
omp_serve_latency_us_bucket{verb="stats",temp="warm",le="10000000"}
omp_serve_latency_us_bucket{verb="stats",temp="warm",le="+Inf"}
omp_serve_latency_us_sum{verb="stats",temp="warm"}
omp_serve_latency_us_count{verb="stats",temp="warm"}
omp_serve_latency_us_bucket{verb="metrics",temp="warm",le="100"}
omp_serve_latency_us_bucket{verb="metrics",temp="warm",le="1000"}
omp_serve_latency_us_bucket{verb="metrics",temp="warm",le="10000"}
omp_serve_latency_us_bucket{verb="metrics",temp="warm",le="100000"}
omp_serve_latency_us_bucket{verb="metrics",temp="warm",le="1000000"}
omp_serve_latency_us_bucket{verb="metrics",temp="warm",le="10000000"}
omp_serve_latency_us_bucket{verb="metrics",temp="warm",le="+Inf"}
omp_serve_latency_us_sum{verb="metrics",temp="warm"}
omp_serve_latency_us_count{verb="metrics",temp="warm"}
omp_serve_latency_us_bucket{verb="gc",temp="warm",le="100"}
omp_serve_latency_us_bucket{verb="gc",temp="warm",le="1000"}
omp_serve_latency_us_bucket{verb="gc",temp="warm",le="10000"}
omp_serve_latency_us_bucket{verb="gc",temp="warm",le="100000"}
omp_serve_latency_us_bucket{verb="gc",temp="warm",le="1000000"}
omp_serve_latency_us_bucket{verb="gc",temp="warm",le="10000000"}
omp_serve_latency_us_bucket{verb="gc",temp="warm",le="+Inf"}
omp_serve_latency_us_sum{verb="gc",temp="warm"}
omp_serve_latency_us_count{verb="gc",temp="warm"}
omp_serve_latency_us_bucket{verb="shutdown",temp="warm",le="100"}
omp_serve_latency_us_bucket{verb="shutdown",temp="warm",le="1000"}
omp_serve_latency_us_bucket{verb="shutdown",temp="warm",le="10000"}
omp_serve_latency_us_bucket{verb="shutdown",temp="warm",le="100000"}
omp_serve_latency_us_bucket{verb="shutdown",temp="warm",le="1000000"}
omp_serve_latency_us_bucket{verb="shutdown",temp="warm",le="10000000"}
omp_serve_latency_us_bucket{verb="shutdown",temp="warm",le="+Inf"}
omp_serve_latency_us_sum{verb="shutdown",temp="warm"}
omp_serve_latency_us_count{verb="shutdown",temp="warm"}
omp_pool_ops_total{worker="0",event="own_pop"}
omp_pool_ops_total{worker="0",event="steal"}
omp_pool_ops_total{worker="0",event="steal_failure"}
omp_pool_ops_total{worker="1",event="own_pop"}
omp_pool_ops_total{worker="1",event="steal"}
omp_pool_ops_total{worker="1",event="steal_failure"}
omp_pool_queue_depth_hwm{worker="0"}
omp_pool_queue_depth_hwm{worker="1"}"#;

#[test]
fn metrics_verb_round_trips_and_agrees_with_stats() {
    let corpus = corpus();
    let n = corpus.len() as u64;
    let expected = offline_report(&corpus);
    let cells = cells_of(&corpus);

    let dir = scratch_dir("metrics");
    let sock = dir.join("serve.sock");
    let server = Server::bind_unix(
        &sock,
        ServerConfig {
            cache: CacheMode::Dir(dir.join("cache")),
            jobs: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let handle = server.spawn();

    let mut client = Client::connect_unix(&sock).expect("connect");
    upload_captures(&mut client, &corpus);
    // One cold and one warm sweep, so both latency temperatures and the
    // pool counters have data.
    let cold = client.sweep(&cells).expect("cold sweep");
    assert_eq!(cold.into_ok_body().unwrap(), expected);
    let warm = client.sweep(&cells).expect("warm sweep");
    assert_eq!(warm.into_ok_body().unwrap(), expected);

    // STATS first, METRICS second: nothing else is handled in between.
    let stats_resp = client.stats().expect("stats");
    let stats = ServerStats::from_info(
        &stats_resp
            .info()
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect::<Vec<_>>(),
    )
    .expect("stats info parses");
    let metrics = client.metrics().expect("metrics");
    let families = info_u64(&metrics, "families");
    let body = metrics.into_ok_body().expect("metrics OK").to_string();

    // Exact round-trip on live data: parse then re-render is byte-identical.
    let snap = MetricsSnapshot::parse(&body).expect("metrics body parses");
    assert_eq!(
        snap.render(),
        body,
        "metrics exposition round-trips exactly"
    );
    assert_eq!(snap.families.len() as u64, families);

    // Golden family schema: names and kinds are pinned. No family
    // restates a STATS counter.
    let schema: Vec<(&str, MetricKind)> = snap
        .families
        .iter()
        .map(|f| (f.name.as_str(), f.kind))
        .collect();
    assert_eq!(
        schema,
        [
            ("omp_cache_size_bytes", MetricKind::Gauge),
            ("omp_serve_latency_us", MetricKind::Histogram),
            ("omp_pool_ops_total", MetricKind::Counter),
            ("omp_pool_queue_depth_hwm", MetricKind::Gauge),
        ],
        "METRICS family schema is pinned"
    );
    let series: Vec<&str> = body
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| l.rsplit_once(' ').expect("sample line has a value").0)
        .collect();
    assert_eq!(
        series,
        METRICS_SERIES.lines().collect::<Vec<_>>(),
        "METRICS series list is pinned"
    );

    assert_eq!((stats.hits, stats.simulated), (n, n));
    assert_eq!((stats.malformed, stats.in_flight), (0, 0));
    assert!(
        snap.value("omp_cache_size_bytes", "", &[]).unwrap() > 0,
        "the cold sweep stored entries"
    );

    // What the two views share. Every request STATS counted, itself
    // included, was timed before its response went out; the METRICS
    // request is timed only after its body is built.
    let family = |name: &str| snap.families.iter().find(|f| f.name == name).unwrap();
    let timed: u64 = family("omp_serve_latency_us")
        .samples
        .iter()
        .filter(|s| s.suffix == "_count")
        .map(|s| s.value)
        .sum();
    assert_eq!(timed, stats.requests, "one latency sample per request");
    // Cache hits never reach the pool, so only the cold sweep scheduled
    // work: every simulated cell exactly once (own pop or steal).
    let scheduled: u64 = family("omp_pool_ops_total")
        .samples
        .iter()
        .filter(|s| {
            s.labels
                .iter()
                .any(|(k, val)| k == "event" && (val == "own_pop" || val == "steal"))
        })
        .map(|s| s.value)
        .sum();
    assert_eq!(
        scheduled, stats.simulated,
        "the pool scheduled each simulated cell once; warm hits bypass it"
    );

    // Latency has both temperatures for the sweep verb.
    let lat = |temp: &str| {
        snap.value(
            "omp_serve_latency_us",
            "_count",
            &[("verb", "sweep"), ("temp", temp)],
        )
        .unwrap()
    };
    assert_eq!(lat("cold"), 1, "one cold sweep observed");
    assert_eq!(lat("warm"), 1, "one warm sweep observed");

    // And none of this changed the response bytes: a third sweep still
    // reads the offline report.
    let again = client.sweep(&cells).expect("sweep after metrics");
    assert_eq!(again.into_ok_body().unwrap(), expected);

    client.shutdown().expect("shutdown");
    handle.join().expect("server exits cleanly");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn result_verb_errors_and_admission_control() {
    let corpus = corpus();
    let req = &corpus[0];
    let mut expected_text = execute(req).expect("offline execute").to_text();
    if !expected_text.ends_with('\n') {
        expected_text.push('\n');
    }

    let dir = scratch_dir("result");
    let sock = dir.join("serve.sock");
    let server = Server::bind_unix(
        &sock,
        ServerConfig {
            cache: CacheMode::Dir(dir.join("cache")),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let handle = server.spawn();
    let mut client = Client::connect_unix(&sock).expect("connect");

    // A sweep naming an un-uploaded capture is an ERR, not a hang or panic.
    let early = client
        .result(&req.name, req)
        .expect("roundtrip")
        .into_ok_body();
    assert!(early.is_err(), "sweep before CAPTURE must fail");

    upload_captures(&mut client, std::slice::from_ref(req));
    let resp = client.result(&req.name, req).expect("result roundtrip");
    assert_eq!(
        resp.info_get("digest"),
        Some(format!("{:016x}", req.digest()).as_str())
    );
    assert_eq!(
        resp.into_ok_body().unwrap(),
        expected_text,
        "RESULT body is the cell's sweepresult text"
    );

    // GC without a configured byte budget is a clean refusal.
    assert!(client.gc().expect("roundtrip").into_ok_body().is_err());

    client.shutdown().expect("shutdown");
    handle.join().expect("server exits cleanly");

    // Admission control: a zero-slot server answers BUSY deterministically.
    let sock2 = dir.join("busy.sock");
    let busy_server = Server::bind_unix(
        &sock2,
        ServerConfig {
            max_inflight: 0,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let busy_handle = busy_server.spawn();
    let mut c2 = Client::connect_unix(&sock2).expect("connect");
    upload_captures(&mut c2, std::slice::from_ref(req));
    match c2.result(&req.name, req).expect("roundtrip") {
        omp_batch::Response::Busy { in_flight, max } => {
            assert_eq!((in_flight, max), (0, 0));
        }
        other => panic!("expected BUSY from a zero-slot server, got {other:?}"),
    }
    c2.shutdown().expect("shutdown");
    busy_handle.join().expect("server exits cleanly");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `RESULT` body and `STATS` snapshot `client` gets for `req` after
/// `PING` and the capture upload, then the server's clean shutdown.
fn ping_upload_result_stats(
    mut client: Client,
    handle: omp_batch::ServerHandle,
    req: &SweepRequest,
) -> (String, ServerStats) {
    assert_eq!(client.ping().unwrap().info_get("proto"), Some("1"));
    upload_captures(&mut client, std::slice::from_ref(req));
    let body = client
        .result(&req.name, req)
        .expect("result roundtrip")
        .into_ok_body()
        .expect("RESULT answered");
    let stats = client.stats().expect("stats roundtrip");
    let stats = ServerStats::from_info(stats.info()).expect("STATS info parses");
    client.shutdown().expect("shutdown");
    handle.join().expect("server exits cleanly");
    (body, stats)
}

#[test]
fn tcp_transport_answers_like_the_unix_socket() {
    let req = &smoke_corpus()[0];
    let dir = scratch_dir("tcp");
    let sock = dir.join("serve.sock");
    let unix = Server::bind_unix(&sock, ServerConfig::default()).expect("bind unix");
    let unix_handle = unix.spawn();
    let client = Client::connect_unix(&sock).expect("connect unix");
    let (unix_body, unix_stats) = ping_upload_result_stats(client, unix_handle, req);

    // Port 0: the OS picks a free port, read back through `tcp_addr`.
    let tcp = Server::bind_tcp("127.0.0.1:0", ServerConfig::default()).expect("bind tcp");
    let addr = tcp.tcp_addr().expect("a TCP-bound server has an address");
    assert!(addr.ip().is_loopback() && addr.port() != 0, "{addr}");
    let tcp_handle = tcp.spawn();
    let client = Client::connect_tcp(&addr.to_string()).expect("connect tcp");
    let (tcp_body, tcp_stats) = ping_upload_result_stats(client, tcp_handle, req);

    assert_eq!(tcp_body, unix_body, "TCP and Unix RESULT bodies differ");
    assert_eq!(tcp_body, execute(req).expect("offline execute").to_text());
    assert_eq!((tcp_stats.captures, tcp_stats.simulated), (1, 1));
    assert_eq!(
        ServerStats {
            uptime_ms: 0,
            ..tcp_stats
        },
        ServerStats {
            uptime_ms: 0,
            ..unix_stats
        }
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn timed_out_sweeps_still_finish_into_the_cache() {
    let corpus = corpus();
    let n = corpus.len() as u64;
    let cells = cells_of(&corpus);

    let dir = scratch_dir("timeout");
    let sock = dir.join("serve.sock");
    let cache_dir = dir.join("cache");
    let server = Server::bind_unix(
        &sock,
        ServerConfig {
            cache: CacheMode::Dir(cache_dir.clone()),
            jobs: 2,
            timeout: Duration::ZERO,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let handle = server.spawn();

    let mut client = Client::connect_unix(&sock).expect("connect");
    upload_captures(&mut client, &corpus);
    // With a zero timeout the connection detaches (almost) immediately; a
    // lucky scheduler may still deliver the result, so accept either — the
    // invariant under test is what happens *after*.
    let resp = client.sweep(&cells).expect("roundtrip");
    if let Err(e) = resp.into_ok_body() {
        assert!(e.message.contains("timeout"), "unexpected error: {e}");
    }

    // The detached sweep must drain to zero and land every cell in the
    // cache: a fresh offline sweep against the same directory hits n/n.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let stats = client.stats().expect("stats");
        if info_u64(&stats, "in_flight") == 0 && info_u64(&stats, "simulated") >= n {
            break;
        }
        assert!(Instant::now() < deadline, "detached sweep never finished");
        std::thread::sleep(Duration::from_millis(20));
    }
    let warm = run_sweep(&corpus, 1, &CacheMode::Dir(cache_dir)).expect("offline warm sweep");
    assert_eq!(warm.stats.hits, n, "detached sweep cached every cell");
    assert_eq!(warm.stats.simulated, 0);

    client.shutdown().expect("shutdown");
    handle.join().expect("server exits cleanly");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bind_unix_leaves_a_regular_file_alone() {
    let dir = scratch_dir("bind-file");
    let path = dir.join("notes.txt");
    std::fs::write(&path, "keep me").unwrap();
    let err = Server::bind_unix(&path, ServerConfig::default())
        .err()
        .expect("binding over a regular file fails");
    assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse);
    assert_eq!(std::fs::read_to_string(&path).unwrap(), "keep me");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bind_unix_leaves_a_live_server_reachable() {
    let dir = scratch_dir("bind-live");
    let sock = dir.join("serve.sock");
    let first = Server::bind_unix(&sock, ServerConfig::default())
        .expect("bind")
        .spawn();
    let err = Server::bind_unix(&sock, ServerConfig::default())
        .err()
        .expect("a second bind on a live path fails");
    assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse);
    let mut client = Client::connect_unix(&sock).expect("the first server keeps its path");
    assert_eq!(client.ping().unwrap().info_get("proto"), Some("1"));
    client.shutdown().expect("shutdown");
    first.join().expect("server exits cleanly");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bind_unix_replaces_a_stale_socket() {
    let dir = scratch_dir("bind-stale");
    let sock = dir.join("serve.sock");
    // Dropping a listener leaves its socket file behind, as a killed
    // server does.
    drop(std::os::unix::net::UnixListener::bind(&sock).unwrap());
    assert!(sock.exists());
    let handle = Server::bind_unix(&sock, ServerConfig::default())
        .expect("a stale socket is replaced")
        .spawn();
    let mut client = Client::connect_unix(&sock).expect("connect");
    assert_eq!(client.ping().unwrap().info_get("proto"), Some("1"));
    client.shutdown().expect("shutdown");
    handle.join().expect("server exits cleanly");
    let _ = std::fs::remove_dir_all(&dir);
}
