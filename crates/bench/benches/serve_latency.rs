//! Request latency of `apusim serve`: the same sweep answered cold (every
//! cell simulated) vs warm (every cell a cache hit against resident state),
//! measured end-to-end through the `PROTO v1` socket. Writes
//! `BENCH_serve.json` for CI to archive.
//!
//! The number at stake is the point of the serve mode: once the cache is
//! warm and the parsed captures are resident, a repeated request should
//! cost socket framing plus cache reads — far below a cold simulation. The
//! response bytes are identical either way (pinned by
//! `crates/batch/tests/serve_matrix.rs`), so latency is the only axis.

use omp_batch::{smoke_corpus, CacheMode, Client, Server, ServerConfig, SweepRequest};
use std::path::PathBuf;
use std::time::Instant;

fn scratch_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("apusim-bench-serve-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("scratch dir");
    d
}

fn info_u64(resp: &omp_batch::Response, key: &str) -> u64 {
    resp.info_get(key)
        .unwrap_or_else(|| panic!("missing info key '{key}'"))
        .parse()
        .expect("numeric info value")
}

/// One timed SWEEP round trip; returns (seconds, hits, simulated).
fn timed_sweep(client: &mut Client, cells: &[(String, SweepRequest)]) -> (f64, u64, u64) {
    let t0 = Instant::now();
    let resp = client.sweep(cells).expect("sweep roundtrip");
    let seconds = t0.elapsed().as_secs_f64();
    let (hits, simulated) = (info_u64(&resp, "hits"), info_u64(&resp, "simulated"));
    resp.into_ok_body().expect("OK sweep");
    (seconds, hits, simulated)
}

fn main() {
    let corpus = smoke_corpus();
    let cells: Vec<(String, SweepRequest)> =
        corpus.iter().map(|r| (r.name.clone(), r.clone())).collect();
    let n = cells.len() as u64;

    let dir = scratch_dir("latency");
    let sock = dir.join("serve.sock");
    let server = Server::bind_unix(
        &sock,
        ServerConfig {
            cache: CacheMode::Dir(dir.join("cache")),
            jobs: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind serve socket");
    let handle = server.spawn();

    let mut client = Client::connect_unix(&sock).expect("connect");
    client.ping().expect("ping").into_ok_body().expect("pong");
    for text in corpus
        .iter()
        .map(|r| r.ir.to_text())
        .collect::<std::collections::BTreeSet<_>>()
    {
        client
            .capture(&text)
            .expect("capture")
            .into_ok_body()
            .expect("capture accepted");
    }

    // Cold: one pass, fresh cache — every cell simulates.
    let (cold_s, cold_hits, cold_sim) = timed_sweep(&mut client, &cells);
    assert_eq!((cold_hits, cold_sim), (0, n), "cold pass must simulate all");

    // Warm: best of several repeats — every cell must hit.
    let mut warm_s = f64::INFINITY;
    let mut warm_hits = 0;
    const WARM_PASSES: usize = 5;
    for _ in 0..WARM_PASSES {
        let (s, hits, simulated) = timed_sweep(&mut client, &cells);
        assert_eq!(simulated, 0, "warm pass must simulate nothing");
        warm_s = warm_s.min(s);
        warm_hits = hits;
    }
    let hit_rate = warm_hits as f64 / n as f64;
    let speedup = cold_s / warm_s.max(1e-9);

    client.shutdown().expect("shutdown");
    handle.join().expect("server exits cleanly");
    let _ = std::fs::remove_dir_all(&dir);

    let json = format!(
        "{{\n  \"cells\": {n},\n  \
         \"cold\": {{\"seconds\": {cold_s:.6}, \"hits\": {cold_hits}, \"simulated\": {cold_sim}}},\n  \
         \"warm\": {{\"seconds\": {warm_s:.6}, \"hits\": {warm_hits}, \"simulated\": 0, \
         \"hit_rate\": {hit_rate:.3}, \"best_of\": {WARM_PASSES}}},\n  \
         \"speedup_warm_vs_cold\": {speedup:.3}\n}}\n"
    );
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    println!(
        "serve_latency: {n} cells | cold {:.1} ms | warm {:.3} ms ({speedup:.0}x) at {:.0}% hit rate",
        1e3 * cold_s,
        1e3 * warm_s,
        100.0 * hit_rate,
    );
    println!("wrote BENCH_serve.json");
}
