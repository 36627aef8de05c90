//! `apusim serve` end to end, driven through the binary: the served sweep
//! report is byte-equal to offline `apusim replay`, cold and warm; a
//! garbage frame gets `ERR`; `METRICS` holds the four instrument families,
//! restates no `STATS` counter and agrees with `STATS` where they meet;
//! `--gc` succeeds; `--shutdown` drains the server and removes its socket;
//! and `cache gc --dry-run` accepts the store the server wrote. Over
//! `--tcp` the served report is the same bytes, and the server drains too.
//! A capture the MapIR reader rejects gets `ERR` and the server keeps
//! answering; `--jobs 0` serves one pool worker per core; a malformed byte
//! size exits 2 naming the option and the value.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Relative to the directory every command runs in, so the socket path
/// stays far below the 108-byte limit of a Unix socket address.
const SOCK: &str = "apusim.sock";

/// How long the server may take to start answering, and to drain.
const DEADLINE: Duration = Duration::from_secs(60);

/// Run `apusim` with the whitespace-separated `args` in `dir`.
fn apusim(dir: &Path, args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_apusim"))
        .current_dir(dir)
        .args(args.split_whitespace())
        .output()
        .expect("spawn apusim")
}

/// [`apusim`], which must exit 0; returns its stdout.
fn ok(dir: &Path, args: &str) -> String {
    let out = apusim(dir, args);
    assert!(out.status.success(), "apusim {args}: {out:?}");
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// Kills the server if the test fails before shutting it down.
struct Serving(Child);

impl Drop for Serving {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Poll `until` every few milliseconds, failing the test as `what` once
/// [`DEADLINE`] passes.
fn poll<T>(what: &str, mut until: impl FnMut() -> Option<T>) -> T {
    let start = Instant::now();
    loop {
        if let Some(v) = until() {
            return v;
        }
        assert!(start.elapsed() < DEADLINE, "{what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// A fresh scratch directory for the test `tag`.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("apusim-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Start `apusim serve --socket SOCK` plus `args` in `dir`, once it answers
/// `--ping`.
fn serve(dir: &Path, args: &str) -> Serving {
    let child = Command::new(env!("CARGO_BIN_EXE_apusim"))
        .current_dir(dir)
        .args(["serve", "--socket", SOCK])
        .args(args.split_whitespace())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn apusim serve");
    let mut server = Serving(child);
    poll("the server never answered --ping", || {
        if let Some(status) = server.0.try_wait().expect("poll server") {
            panic!("the server exited before answering: {status}");
        }
        apusim(dir, &format!("request --socket {SOCK} --ping"))
            .status
            .success()
            .then_some(())
    });
    server
}

/// Send `--shutdown` and wait for the server to drain and exit 0.
fn shut_down(dir: &Path, mut server: Serving) {
    ok(dir, &format!("request --socket {SOCK} --shutdown"));
    let status = poll("the server never drained", || {
        server.0.try_wait().expect("poll server")
    });
    assert!(status.success(), "apusim serve exited with {status}");
}

/// The value of `key=N` in a `STATS` line.
fn stat(stats: &str, key: &str) -> u64 {
    stats
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
        .unwrap_or_else(|| panic!("no {key}= in {stats}"))
        .parse()
        .expect("numeric STATS value")
}

/// The sum of the `METRICS` samples whose series starts with `series` and
/// contains `label`.
fn sum(metrics: &str, series: &str, label: &str) -> u64 {
    metrics
        .lines()
        .filter(|l| l.starts_with(series) && l.contains(label))
        .map(|l| l.rsplit_once(' ').expect("sample line has a value").1)
        .map(|v| v.parse::<u64>().expect("numeric METRICS value"))
        .sum()
}

#[test]
fn served_sweeps_match_offline_replay_and_the_server_drains() {
    let dir = scratch("serve");
    ok(&dir, "run stream --scale 0.05 --capture s1.mapir");
    ok(&dir, "run ep --scale 0.02 --capture s2.mapir");
    // Two capture files, so the offline reference runs the batched sweep
    // path the server schedules on.
    let offline = ok(
        &dir,
        "replay s1.mapir s2.mapir --config izc --cache replay-cache",
    );

    let server = serve(&dir, "--cache serve-cache --cache-max-bytes 64M");

    let request = |verb: &str| ok(&dir, &format!("request --socket {SOCK} {verb}"));
    let cold = request("s1.mapir s2.mapir --config izc");
    let warm = request("s1.mapir s2.mapir --config izc");
    assert_eq!(
        cold, offline,
        "cold served report differs from offline replay"
    );
    assert_eq!(
        warm, offline,
        "warm served report differs from offline replay"
    );

    // A malformed frame is answered with ERR on its own connection.
    let mut garbage = UnixStream::connect(dir.join(SOCK)).expect("connect");
    garbage.write_all(b"TOTAL GARBAGE\n").expect("send garbage");
    let mut reply = String::new();
    BufReader::new(&garbage)
        .read_line(&mut reply)
        .expect("read reply");
    assert!(reply.starts_with("ERR "), "malformed frame got {reply:?}");

    let stats = request("--stats");
    assert!(stats.contains("hits=2 simulated=2"), "{stats}");
    assert!(stats.contains("malformed=1"), "{stats}");

    // METRICS holds only the instruments, and meets STATS in two places:
    // every request STATS counted (itself included) was timed, and the
    // pool scheduled each simulated cell once.
    let metrics = request("--metrics");
    let types: Vec<&str> = metrics
        .lines()
        .filter(|l| l.starts_with("# TYPE "))
        .collect();
    assert_eq!(
        types,
        [
            "# TYPE omp_cache_size_bytes gauge",
            "# TYPE omp_serve_latency_us histogram",
            "# TYPE omp_pool_ops_total counter",
            "# TYPE omp_pool_queue_depth_hwm gauge",
        ]
    );
    assert!(
        metrics
            .lines()
            .filter(|l| l.starts_with('#'))
            .all(|l| l.starts_with("# HELP ") || l.starts_with("# TYPE ")),
        "a comment other than HELP and TYPE:\n{metrics}"
    );
    assert_eq!(
        sum(&metrics, "omp_serve_latency_us_count{", ""),
        stat(&stats, "requests")
    );
    let pool = |event: &str| sum(&metrics, "omp_pool_ops_total{", event);
    assert_eq!(
        pool(r#"event="own_pop""#) + pool(r#"event="steal""#),
        stat(&stats, "simulated")
    );

    request("--gc");
    shut_down(&dir, server);
    assert!(!dir.join(SOCK).exists(), "socket removed on shutdown");
    ok(&dir, "cache gc --cache serve-cache --dry-run");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn served_sweeps_over_tcp_match_offline_replay() {
    let dir = scratch("serve-tcp");
    ok(&dir, "run stream --scale 0.05 --capture s.mapir");
    // `--cache off` routes one capture through the batched sweep path.
    let offline = ok(&dir, "replay s.mapir --config izc --cache off");

    let child = Command::new(env!("CARGO_BIN_EXE_apusim"))
        .current_dir(&dir)
        .args(["serve", "--tcp", "127.0.0.1:0", "--cache", "off"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn apusim serve");
    let mut server = Serving(child);
    // The OS picks the port; serve names it on its first stderr line.
    let mut banner = String::new();
    BufReader::new(server.0.stderr.as_mut().expect("piped stderr"))
        .read_line(&mut banner)
        .expect("read the listening line");
    let addr = banner
        .trim_end()
        .strip_prefix("apusim serve: listening on tcp ")
        .unwrap_or_else(|| panic!("no TCP address in {banner:?}"))
        .to_string();

    let request = |verb: &str| ok(&dir, &format!("request --tcp {addr} {verb}"));
    request("--ping");
    assert_eq!(
        request("s.mapir --config izc"),
        offline,
        "served report over TCP differs from offline replay"
    );
    let stats = request("--stats");
    assert!(stats.contains("hits=0 simulated=1"), "{stats}");
    request("--shutdown");
    let status = poll("the server never drained", || {
        server.0.try_wait().expect("poll server")
    });
    assert!(status.success(), "apusim serve exited with {status}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_malformed_capture_gets_err_and_the_server_keeps_answering() {
    let dir = scratch("bad-capture");
    ok(&dir, "run stream --scale 0.05 --capture s.mapir");
    let offline = ok(&dir, "replay s.mapir --config izc --cache off");
    // A kernel that claims 2^40 maps and holds none: a reader that sized a
    // buffer by the count asked for 24 TiB and aborted the server.
    let bad = "mapir v1\n0 kernel k 0 1099511627776 0 0\n";
    std::fs::write(dir.join("bad.mapir"), bad).expect("write bad.mapir");
    let server = serve(&dir, "--cache off");

    let out = apusim(&dir, &format!("request --socket {SOCK} bad.mapir"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("apusim request: error: bad capture: line 2: "),
        "{stderr}"
    );
    ok(&dir, &format!("request --socket {SOCK} --ping"));
    let served = ok(
        &dir,
        &format!("request --socket {SOCK} s.mapir --config izc"),
    );
    assert_eq!(served, offline, "the server answers a sweep after the ERR");
    shut_down(&dir, server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn jobs_zero_serves_one_pool_worker_per_core() {
    let dir = scratch("jobs-zero");
    let server = serve(&dir, "--jobs 0 --cache off");
    let metrics = ok(&dir, &format!("request --socket {SOCK} --metrics"));
    let series = metrics
        .lines()
        .filter(|l| l.starts_with("omp_pool_queue_depth_hwm{"))
        .count();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(series, cores, "{metrics}");
    shut_down(&dir, server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_malformed_byte_size_exits_2_naming_the_option_and_the_value() {
    let dir = scratch("bad-size");
    for (args, flag, value) in [
        (
            "serve --socket no-such-dir/s.sock --cache-max-bytes x",
            "--cache-max-bytes",
            "x",
        ),
        ("cache gc --max-bytes 12Q", "--max-bytes", "12Q"),
    ] {
        let out = apusim(&dir, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args}: {stderr}");
        let line = format!("apusim: bad value '{value}' for {flag}\n");
        assert!(stderr.starts_with(&line), "{args}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
