//! `apusim serve`: a long-lived sweep service over the result cache.
//!
//! A [`Server`] owns everything the offline replay path re-builds per
//! invocation and keeps it resident between requests: parsed captures
//! (`Arc<MapIr>`, keyed by the digest of their canonical `mapir v1` text),
//! elision plans derived once per capture, and an open [`ResultCache`].
//! Requests arrive as `PROTO v1` frames ([`crate::proto`]) over a
//! Unix-domain socket or TCP; sweep cells are scheduled through
//! [`run_sweep_derived`] on the same work-stealing pool the offline path
//! uses (multi-tenant cells fan out per tenant), answered from the cache on
//! hit, simulated-then-stored on miss. A sweep whose corpus is
//! byte-identical to one already in flight *coalesces*: the second client
//! parks on the first sweep's rendezvous and reads the same bytes, counted
//! by `coalesced` in `STATS`.
//!
//! ## The byte-identity contract
//!
//! A `SWEEP` response body is exactly the [`render_report`] bytes the
//! offline `apusim replay` prints for the same corpus, and a `RESULT` body
//! is exactly the cell's `sweepresult v1` text — cached or cold, serial or
//! concurrent, first request or thousandth. The contract holds because the
//! server adds no third path: it resolves the same canonical encodings
//! through the same cell recipe ([`crate::cell_recipe`]) and cache code,
//! and residency only pre-computes the elision plan (the derive hook of
//! [`run_sweep_derived`]), which determinism guarantees is equivalent.
//! `tests/serve_matrix.rs` pins this against offline replay.
//!
//! ## Robustness
//!
//! Admission control bounds in-flight cells (`BUSY` response, never a
//! hang); per-request timeouts detach the waiting connection while the
//! sweep finishes into the cache (a retry then hits); malformed frames are
//! answered with `ERR` and poison nothing; and a `SHUTDOWN` request stops
//! the accept loop and drains in-flight work to zero before the socket is
//! removed. There is no signal handling — the runtime is `forbid(unsafe)`
//! and the container has no signal crate — but an un-drained kill is still
//! safe: cache writes are temp-file-plus-rename, so the store can lose at
//! most un-renamed work, never serve a torn entry.

use crate::cache::ResultCache;
use crate::driver::DriveStats;
use crate::proto::{
    sweep_stanza, Frame, ProtoError, Response, Verb, DEFAULT_MAX_FRAME_BYTES, PROTO_VERSION,
};
use crate::request::SweepRequest;
use crate::result::SweepResult;
use crate::sweep::{render_report, run_sweep_derived};
use crate::CacheMode;
use omp_offload::metrics::{
    Counter, FamilySnapshot, Gauge, Histogram, MetricClass, MetricKind, MetricsRegistry,
    MetricsSnapshot, Sample,
};
use omp_offload::{ElisionPlan, MapIr, OmpError};
use std::collections::HashMap;
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Tunables of one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Result store the server answers from and feeds.
    pub cache: CacheMode,
    /// Work-stealing workers per sweep (the offline `-j N`).
    pub jobs: usize,
    /// Admission bound: total sweep cells running or queued across all
    /// connections before requests get `BUSY`.
    pub max_inflight: usize,
    /// How long a connection waits for its sweep before answering `ERR
    /// timeout` (the sweep itself keeps running into the cache).
    pub timeout: Duration,
    /// When set, cache GC runs to this byte budget after any sweep that
    /// stored new entries (and on explicit `GC` requests).
    pub cache_max_bytes: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            cache: CacheMode::Off,
            jobs: 1,
            max_inflight: 256,
            timeout: Duration::from_secs(30),
            cache_max_bytes: None,
        }
    }
}

/// Snapshot of the server's counters, as served by `STATS`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Well-formed frames handled.
    pub requests: u64,
    /// Sweep cells answered from the result cache.
    pub hits: u64,
    /// Sweep cells simulated (cache misses).
    pub simulated: u64,
    /// Sweep cells currently running or queued.
    pub in_flight: u64,
    /// Captures resident in memory.
    pub captures: u64,
    /// Elision plans warmed.
    pub plans: u64,
    /// Cache entries evicted by GC since start.
    pub evicted: u64,
    /// Requests rejected by admission control.
    pub busy_rejections: u64,
    /// Malformed frames rejected.
    pub malformed: u64,
    /// Sweep requests coalesced onto an identical in-flight sweep.
    pub coalesced: u64,
    /// Milliseconds since the server was constructed.
    pub uptime_ms: u64,
}

impl ServerStats {
    /// The `k=v` info pairs a `STATS` response carries, in wire order.
    /// [`from_info`](Self::from_info) inverts this exactly.
    pub fn info(&self) -> Vec<(String, String)> {
        // Existing keys stay in place (scripts grep them positionally);
        // new fields append at the end.
        [
            ("requests", self.requests),
            ("hits", self.hits),
            ("simulated", self.simulated),
            ("in_flight", self.in_flight),
            ("captures", self.captures),
            ("plans", self.plans),
            ("evicted", self.evicted),
            ("busy_rejections", self.busy_rejections),
            ("malformed", self.malformed),
            ("coalesced", self.coalesced),
            ("uptime_ms", self.uptime_ms),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
    }

    /// Parse a `STATS` response's info pairs back into a snapshot.
    /// Unknown keys are ignored (forward compatibility); missing keys
    /// stay at their default.
    pub fn from_info(info: &[(String, String)]) -> Result<ServerStats, String> {
        let mut s = ServerStats::default();
        for (k, v) in info {
            let v: u64 = v
                .parse()
                .map_err(|e| format!("stats key {k}: bad value {v:?}: {e}"))?;
            match k.as_str() {
                "requests" => s.requests = v,
                "hits" => s.hits = v,
                "simulated" => s.simulated = v,
                "in_flight" => s.in_flight = v,
                "captures" => s.captures = v,
                "plans" => s.plans = v,
                "evicted" => s.evicted = v,
                "busy_rejections" => s.busy_rejections = v,
                "malformed" => s.malformed = v,
                "coalesced" => s.coalesced = v,
                "uptime_ms" => s.uptime_ms = v,
                _ => {}
            }
        }
        Ok(s)
    }
}

/// Where a running server can be reached (for the shutdown self-connect).
#[derive(Debug, Clone)]
enum SelfAddr {
    Unix(PathBuf),
    Tcp(SocketAddr),
}

/// Inclusive upper edges of the request-latency histograms, microseconds:
/// 100µs, 1ms, 10ms, 100ms, 1s, 10s (+Inf implicit).
const LATENCY_BOUNDS_US: &[u64] = &[100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];

/// Live instruments of one pool worker slot.
struct PoolWorker {
    own_pops: Arc<Counter>,
    steals: Arc<Counter>,
    steal_failures: Arc<Counter>,
    depth_hwm: Arc<Gauge>,
}

/// The server's schedule-class instruments: per-verb request latency
/// (cold = at least one cell simulated, warm = everything answered from
/// residency or the cache) and the work-stealing pool counters absorbed
/// from every sweep's [`DriveStats`]. All of it is [`MetricClass::Schedule`]
/// — it rides the `METRICS` verb only and never enters response bodies,
/// so the byte-identity contract is untouched.
struct ServeMetrics {
    registry: MetricsRegistry,
    latency: Vec<(Verb, bool, Arc<Histogram>)>,
    pool: Vec<PoolWorker>,
}

impl ServeMetrics {
    fn new(jobs: usize) -> ServeMetrics {
        let registry = MetricsRegistry::new();
        let mut latency = Vec::new();
        for verb in Verb::ALL {
            // Only the simulating verbs have a cold path.
            let colds: &[bool] = if matches!(verb, Verb::Sweep | Verb::Result) {
                &[false, true]
            } else {
                &[false]
            };
            for &cold in colds {
                let h = registry.histogram(
                    "omp_serve_latency_us",
                    "Wall-clock request handling latency, integer microseconds.",
                    MetricClass::Schedule,
                    &[
                        ("verb", verb.lower()),
                        ("temp", if cold { "cold" } else { "warm" }),
                    ],
                    LATENCY_BOUNDS_US,
                );
                latency.push((verb, cold, h));
            }
        }
        let pool = (0..jobs.max(1))
            .map(|w| {
                let wl = w.to_string();
                let ops = |event: &str| {
                    registry.counter(
                        "omp_pool_ops_total",
                        "Work-stealing pool scheduling events, accumulated across sweeps.",
                        MetricClass::Schedule,
                        &[("worker", &wl), ("event", event)],
                    )
                };
                PoolWorker {
                    own_pops: ops("own_pop"),
                    steals: ops("steal"),
                    steal_failures: ops("steal_failure"),
                    depth_hwm: registry.gauge(
                        "omp_pool_queue_depth_hwm",
                        "High-water mark of each worker's seeded queue depth.",
                        MetricClass::Schedule,
                        &[("worker", &wl)],
                    ),
                }
            })
            .collect();
        ServeMetrics {
            registry,
            latency,
            pool,
        }
    }

    /// Record one handled request's latency.
    fn observe_latency(&self, verb: Verb, cold: bool, micros: u64) {
        if let Some((_, _, h)) = self
            .latency
            .iter()
            .find(|(v, c, _)| *v == verb && *c == cold)
        {
            h.observe(micros);
        }
    }

    /// Fold one sweep's scheduling counters into the pool instruments.
    fn absorb_pool(&self, stats: &DriveStats) {
        for (w, ws) in stats.workers.iter().enumerate() {
            if let Some(p) = self.pool.get(w) {
                p.own_pops.add(ws.own_pops);
                p.steals.add(ws.steals);
                p.steal_failures.add(ws.steal_failures);
                p.depth_hwm.raise_to(ws.queue_depth_hwm);
            }
        }
    }
}

/// State shared by every connection thread.
struct Shared {
    cfg: ServerConfig,
    cache: ResultCache,
    addr: SelfAddr,
    /// Resident captures, keyed by the digest of their canonical text
    /// (exactly the digest the `capture` line of a request block names).
    captures: Mutex<HashMap<u64, Arc<MapIr>>>,
    /// Fast path for re-uploads: digest of the *received* capture bytes →
    /// canonical digest, so a known capture skips parsing entirely.
    raw_index: Mutex<HashMap<u64, u64>>,
    /// Elision plans derived once per capture, keyed like `captures`.
    plans: Mutex<HashMap<u64, Arc<ElisionPlan>>>,
    /// Sweeps currently running, keyed by the fold of their cells' content
    /// digests: an identical concurrent request parks here instead of
    /// re-running the corpus ([`handle_sweep`]).
    inflight: Mutex<HashMap<u64, Arc<Inflight>>>,
    /// Construction instant, the zero of `uptime_ms`.
    start: Instant,
    /// Schedule-class instruments (latency, pool); see [`ServeMetrics`].
    metrics: ServeMetrics,
    shutdown: AtomicBool,
    requests: AtomicU64,
    hits: AtomicU64,
    simulated: AtomicU64,
    in_flight: AtomicU64,
    evicted: AtomicU64,
    busy_rejections: AtomicU64,
    malformed: AtomicU64,
    coalesced: AtomicU64,
}

/// What a finished sweep leaves for everyone parked on it: the per-cell
/// results (name-independent, so each waiter renders its own verb's
/// response from its own corpus) plus the leader's cache counters, or the
/// rendered error.
type SweepDone = Result<(Arc<Vec<SweepResult>>, u64, u64), String>;

/// Rendezvous for one in-flight sweep: the leader's worker thread fills
/// `done` and notifies; the leader and any coalesced waiters block on the
/// condvar with their own deadlines.
#[derive(Default)]
struct Inflight {
    done: Mutex<Option<SweepDone>>,
    cv: Condvar,
}

impl Shared {
    fn new(addr: SelfAddr, cfg: ServerConfig) -> Shared {
        Shared {
            cache: ResultCache::open(&cfg.cache),
            addr,
            start: Instant::now(),
            metrics: ServeMetrics::new(cfg.jobs),
            captures: Mutex::new(HashMap::new()),
            raw_index: Mutex::new(HashMap::new()),
            plans: Mutex::new(HashMap::new()),
            inflight: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            simulated: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            busy_rejections: AtomicU64::new(0),
            malformed: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            cfg,
        }
    }

    fn stats(&self) -> ServerStats {
        ServerStats {
            requests: self.requests.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            simulated: self.simulated.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::Relaxed),
            captures: self.captures.lock().unwrap().len() as u64,
            plans: self.plans.lock().unwrap().len() as u64,
            evicted: self.evicted.load(Ordering::Relaxed),
            busy_rejections: self.busy_rejections.load(Ordering::Relaxed),
            malformed: self.malformed.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            uptime_ms: u64::try_from(self.start.elapsed().as_millis()).unwrap_or(u64::MAX),
        }
    }

    /// Reserve `n` in-flight slots, or report `(current, max)` when the
    /// admission bound would be exceeded. Lock-free so a flood of requests
    /// is rejected with `BUSY` rather than queued behind a mutex.
    fn try_admit(&self, n: u64) -> Result<(), (u64, u64)> {
        let max = self.cfg.max_inflight as u64;
        let mut cur = self.in_flight.load(Ordering::Relaxed);
        loop {
            if cur + n > max {
                return Err((cur, max));
            }
            match self.in_flight.compare_exchange_weak(
                cur,
                cur + n,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Ok(()),
                Err(actual) => cur = actual,
            }
        }
    }

    /// The elision plan for a resident capture, derived on first use.
    fn plan_for(&self, digest: u64, ir: &MapIr) -> Arc<ElisionPlan> {
        if let Some(p) = self.plans.lock().unwrap().get(&digest) {
            return Arc::clone(p);
        }
        // Derive outside the lock; a racing duplicate derivation is
        // harmless (plans are pure functions of the capture).
        let fresh = Arc::new(omp_mapcheck::elision_plan(ir));
        Arc::clone(self.plans.lock().unwrap().entry(digest).or_insert(fresh))
    }
}

/// Releases admitted in-flight slots even if a sweep worker unwinds.
struct SlotGuard {
    shared: Arc<Shared>,
    n: u64,
}

impl Drop for SlotGuard {
    fn drop(&mut self) {
        self.shared.in_flight.fetch_sub(self.n, Ordering::Relaxed);
    }
}

/// Settles one in-flight sweep even if its worker unwinds: deregisters the
/// coalescing key, releases the admitted slots, then publishes the outcome —
/// `Err("sweep panicked")` when the worker never produced one — so no
/// waiter, present or future, parks on a dead rendezvous.
struct InflightGuard {
    key: u64,
    inflight: Arc<Inflight>,
    slots: Option<SlotGuard>,
    done: Option<SweepDone>,
}

impl Drop for InflightGuard {
    fn drop(&mut self) {
        // Deregister and release slots before publishing: a client holding
        // its response (or a STATS reader it wakes) must observe these
        // cells as no longer in flight, and a late identical request must
        // start fresh (it will hit the cache) rather than park on a
        // completed rendezvous.
        if let Some(slots) = self.slots.take() {
            let inflight = &slots.shared.inflight;
            inflight
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .remove(&self.key);
        }
        let outcome = self.done.take();
        let mut done = self
            .inflight
            .done
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *done = Some(outcome.unwrap_or_else(|| Err("sweep panicked".to_string())));
        self.inflight.cv.notify_all();
    }
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn accept(&self) -> std::io::Result<Conn> {
        match self {
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
        }
    }
}

/// One accepted (or dialed) connection; stream kind erased.
#[derive(Debug)]
enum Conn {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Conn {
    fn try_clone(&self) -> std::io::Result<Conn> {
        match self {
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Unix(s) => s.read(buf),
            Conn::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Unix(s) => s.write(buf),
            Conn::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Unix(s) => s.flush(),
            Conn::Tcp(s) => s.flush(),
        }
    }
}

/// A bound, not-yet-running sweep service. [`run`](Self::run) blocks the
/// calling thread in the accept loop; [`spawn`](Self::spawn) runs it on a
/// background thread and returns a joinable handle (the in-process shape
/// the integration tests and the latency bench use).
pub struct Server {
    listener: Listener,
    shared: Arc<Shared>,
}

impl Server {
    fn new(listener: Listener, addr: SelfAddr, cfg: ServerConfig) -> Server {
        Server {
            listener,
            shared: Arc::new(Shared::new(addr, cfg)),
        }
    }

    /// Bind a Unix-domain socket at `path` (a stale socket file from a
    /// previous unclean exit is removed first).
    pub fn bind_unix(path: &Path, cfg: ServerConfig) -> std::io::Result<Server> {
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        Ok(Server::new(
            Listener::Unix(listener),
            SelfAddr::Unix(path.to_path_buf()),
            cfg,
        ))
    }

    /// Bind a TCP listener at `addr` (e.g. `127.0.0.1:0` to let the OS pick
    /// a port — read it back with [`tcp_addr`](Self::tcp_addr)).
    pub fn bind_tcp(addr: &str, cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        Ok(Server::new(
            Listener::Tcp(listener),
            SelfAddr::Tcp(local),
            cfg,
        ))
    }

    /// The bound TCP address, when TCP-bound.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        match &self.shared.addr {
            SelfAddr::Tcp(a) => Some(*a),
            SelfAddr::Unix(_) => None,
        }
    }

    /// Run the accept loop on the calling thread until a `SHUTDOWN` request
    /// arrives, then drain in-flight work to zero and clean up the socket.
    pub fn run(self) -> std::io::Result<()> {
        loop {
            let conn = self.listener.accept();
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            match conn {
                Ok(conn) => {
                    let shared = Arc::clone(&self.shared);
                    std::thread::spawn(move || handle_connection(conn, shared));
                }
                Err(e) => {
                    eprintln!("apusim serve: accept failed: {e}");
                }
            }
        }
        // Graceful drain: every admitted cell finishes (and reaches the
        // cache) before the listener goes away.
        while self.shared.in_flight.load(Ordering::SeqCst) > 0 {
            std::thread::sleep(Duration::from_millis(10));
        }
        if let SelfAddr::Unix(path) = &self.shared.addr {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }

    /// Run the accept loop on a background thread.
    pub fn spawn(self) -> ServerHandle {
        ServerHandle {
            thread: std::thread::spawn(move || self.run()),
        }
    }
}

/// Join handle for a [`Server::spawn`]ed accept loop.
pub struct ServerHandle {
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl ServerHandle {
    /// Wait for the server to shut down (send it a `SHUTDOWN` frame first).
    pub fn join(self) -> std::io::Result<()> {
        self.thread
            .join()
            .map_err(|_| std::io::Error::other("server thread panicked"))?
    }
}

fn handle_connection(conn: Conn, shared: Arc<Shared>) {
    let Ok(read_half) = conn.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = conn;
    loop {
        match Frame::read_from(&mut reader, DEFAULT_MAX_FRAME_BYTES) {
            Ok(None) => break,
            Ok(Some(frame)) => {
                shared.requests.fetch_add(1, Ordering::Relaxed);
                let verb = frame.verb;
                let is_shutdown = verb == Verb::Shutdown;
                let handled_at = Instant::now();
                let resp = handle_frame(frame, &shared);
                // Latency is observed after the response is built, so a
                // METRICS body reflects every request before this one.
                let micros = u64::try_from(handled_at.elapsed().as_micros()).unwrap_or(u64::MAX);
                shared
                    .metrics
                    .observe_latency(verb, response_is_cold(&resp), micros);
                if writer.write_all(resp.to_wire().as_bytes()).is_err() {
                    break;
                }
                let _ = writer.flush();
                if is_shutdown {
                    // Unblock the accept loop so it can observe the flag;
                    // the requester already holds its response bytes.
                    match &shared.addr {
                        SelfAddr::Unix(path) => {
                            let _ = UnixStream::connect(path);
                        }
                        SelfAddr::Tcp(addr) => {
                            let _ = TcpStream::connect(addr);
                        }
                    }
                    break;
                }
            }
            Err(e) => {
                // Malformed-request isolation: answer, close this
                // connection, poison nothing else.
                shared.malformed.fetch_add(1, Ordering::Relaxed);
                let _ = writer.write_all(Response::err(e.message).to_wire().as_bytes());
                let _ = writer.flush();
                break;
            }
        }
    }
}

/// Whether a response carries cold work: any `simulated=N` info pair with
/// `N > 0` (sweep/result verbs only ever emit one). Cache hits, coalesced
/// waits, and the non-simulating verbs are all warm.
fn response_is_cold(resp: &Response) -> bool {
    match resp {
        Response::Ok { info, .. } => info
            .iter()
            .any(|(k, v)| k == "simulated" && v.parse::<u64>().is_ok_and(|n| n > 0)),
        _ => false,
    }
}

fn handle_frame(frame: Frame, shared: &Arc<Shared>) -> Response {
    match frame.verb {
        Verb::Ping => Response::ok_with(
            Verb::Ping,
            vec![("proto".into(), PROTO_VERSION.to_string())],
            "",
        ),
        Verb::Capture => handle_capture(&frame.body, shared),
        Verb::Sweep => handle_sweep(Verb::Sweep, &frame.body, shared),
        Verb::Result => handle_sweep(Verb::Result, &frame.body, shared),
        Verb::Stats => Response::ok_with(Verb::Stats, shared.stats().info(), ""),
        Verb::Metrics => handle_metrics(shared),
        Verb::Gc => handle_gc(shared),
        Verb::Shutdown => {
            shared.shutdown.store(true, Ordering::SeqCst);
            // The accept loop is unblocked by handle_connection *after*
            // this response is flushed, so the requester always reads its
            // OK before the server process can exit.
            Response::ok(Verb::Shutdown, "")
        }
    }
}

fn handle_capture(body: &str, shared: &Arc<Shared>) -> Response {
    let respond = |digest: u64, records: usize| {
        Response::ok_with(
            Verb::Capture,
            vec![
                ("digest".into(), format!("{digest:016x}")),
                ("records".into(), records.to_string()),
            ],
            "",
        )
    };
    // Warm path: a byte-identical upload skips parsing entirely.
    let raw_digest = omp_offload::digest::fnv1a(body.as_bytes());
    if let Some(&canonical) = shared.raw_index.lock().unwrap().get(&raw_digest) {
        if let Some(ir) = shared.captures.lock().unwrap().get(&canonical) {
            return respond(canonical, ir.len());
        }
    }
    let ir = match MapIr::parse(body) {
        Ok(ir) => ir,
        Err(e) => return Response::err(format!("bad capture: {e}")),
    };
    if ir.is_empty() {
        return Response::err("bad capture: no records");
    }
    // Residency key = digest of the *canonical* text, which is exactly what
    // request blocks name in their `capture` line.
    let digest = SweepRequest::capture_digest(&ir);
    let records = ir.len();
    shared
        .captures
        .lock()
        .unwrap()
        .entry(digest)
        .or_insert_with(|| Arc::new(ir));
    shared.raw_index.lock().unwrap().insert(raw_digest, digest);
    respond(digest, records)
}

/// Split a `SWEEP`/`RESULT` body into cells: each stanza is an optional
/// `name <label>` line followed by a canonical request block, which always
/// ends with its `capture` line (the block grew an optional `tenants` line
/// in v2, so stanzas are capture-terminated rather than fixed-length).
fn parse_stanzas(body: &str, shared: &Arc<Shared>) -> Result<Vec<SweepRequest>, String> {
    let captures = shared.captures.lock().unwrap().clone();
    let mut lines = body.lines().peekable();
    let mut out: Vec<SweepRequest> = Vec::new();
    while let Some(&first) = lines.peek() {
        let name = match first.strip_prefix("name ") {
            Some(label) => {
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
            if line.starts_with("capture ") {
                break;
            }
        }
        let req = SweepRequest::from_canonical(name, &block, |d| captures.get(&d).cloned())
            .map_err(|e| e.to_string())?;
        out.push(req);
    }
    if out.is_empty() {
        return Err("empty request body".to_string());
    }
    Ok(out)
}

fn handle_sweep(verb: Verb, body: &str, shared: &Arc<Shared>) -> Response {
    let corpus = match parse_stanzas(body, shared) {
        Ok(c) => c,
        Err(e) => return Response::err(e),
    };
    if verb == Verb::Result && corpus.len() != 1 {
        return Response::err(format!(
            "RESULT takes exactly one request stanza, got {}",
            corpus.len()
        ));
    }
    // Coalescing: a corpus identical (by content digests) to one already
    // running parks on that run instead of re-simulating it. The key folds
    // the cells' digests only — stanza labels don't affect the work, and
    // every waiter renders its own response from its own corpus.
    let key = corpus.iter().fold(0xcbf2_9ce4_8422_2325u64, |acc, req| {
        (acc ^ req.digest()).wrapping_mul(0x100_0000_01b3)
    });
    let existing = shared.inflight.lock().unwrap().get(&key).cloned();
    if let Some(inflight) = existing {
        shared.coalesced.fetch_add(1, Ordering::Relaxed);
        return wait_for_sweep(verb, &corpus, &inflight, shared);
    }
    let n = corpus.len() as u64;
    if let Err((cur, max)) = shared.try_admit(n) {
        shared.busy_rejections.fetch_add(1, Ordering::Relaxed);
        return Response::Busy {
            in_flight: cur,
            max,
        };
    }
    // Admit-before-register: a key in the in-flight map always stands for
    // admitted, running work, so waiters can never park on a sweep that
    // was bounced by admission control.
    let inflight = Arc::new(Inflight::default());
    shared
        .inflight
        .lock()
        .unwrap()
        .insert(key, Arc::clone(&inflight));
    // The sweep runs on its own thread so the connection (and any
    // coalesced waiters) can stop waiting at their timeouts while the work
    // still completes into the cache.
    let worker_shared = Arc::clone(shared);
    let worker_inflight = Arc::clone(&inflight);
    let worker_corpus = corpus.clone();
    std::thread::spawn(move || {
        let sweep = || match run_resident_sweep(&worker_corpus, &worker_shared) {
            Ok((results, hits, simulated)) => Ok((Arc::new(results), hits, simulated)),
            Err(e) => Err(format!("sweep failed: {e}")),
        };
        sweep_worker(&worker_shared, key, n, worker_inflight, sweep);
    });
    wait_for_sweep(verb, &corpus, &inflight, shared)
}

/// The sweep thread's body: run `sweep` for the in-flight sweep registered
/// under `key` holding `n` admitted slots. An [`InflightGuard`] settles the
/// registration whether `sweep` returns or panics.
fn sweep_worker(
    shared: &Arc<Shared>,
    key: u64,
    n: u64,
    inflight: Arc<Inflight>,
    sweep: impl FnOnce() -> SweepDone,
) {
    let mut guard = InflightGuard {
        key,
        inflight,
        slots: Some(SlotGuard {
            shared: Arc::clone(shared),
            n,
        }),
        done: None,
    };
    guard.done = Some(sweep());
}

/// Park on an in-flight sweep until its worker publishes, then render this
/// connection's response — leader and coalesced waiters share this path.
fn wait_for_sweep(
    verb: Verb,
    corpus: &[SweepRequest],
    inflight: &Inflight,
    shared: &Arc<Shared>,
) -> Response {
    let deadline = Instant::now() + shared.cfg.timeout;
    let mut done = inflight.done.lock().unwrap();
    while done.is_none() {
        let Some(remaining) = deadline
            .checked_duration_since(Instant::now())
            .filter(|d| !d.is_zero())
        else {
            return Response::err(format!(
                "timeout after {}ms (the sweep continues server-side and will \
                 be cached; retry to collect it)",
                shared.cfg.timeout.as_millis()
            ));
        };
        done = inflight.cv.wait_timeout(done, remaining).unwrap().0;
    }
    let (results, hits, simulated) = match done.as_ref().expect("loop exits on Some") {
        Ok((results, hits, simulated)) => (Arc::clone(results), *hits, *simulated),
        Err(e) => return Response::err(e.clone()),
    };
    let info = vec![
        ("cells".into(), corpus.len().to_string()),
        ("hits".into(), hits.to_string()),
        ("simulated".into(), simulated.to_string()),
    ];
    match verb {
        Verb::Result => {
            let mut info = info;
            info.push(("digest".into(), format!("{:016x}", corpus[0].digest())));
            Response::ok_with(Verb::Result, info, results[0].to_text())
        }
        _ => Response::ok_with(Verb::Sweep, info, render_report(corpus, &results)),
    }
}

/// The resident equivalent of [`crate::run_sweep`]: same cache protocol,
/// same driver, but the elision plan comes from the server's warm table
/// instead of being re-derived per cell.
fn run_resident_sweep(
    corpus: &[SweepRequest],
    shared: &Arc<Shared>,
) -> Result<(Vec<SweepResult>, u64, u64), OmpError> {
    let outcome = run_sweep_derived(corpus, shared.cfg.jobs, &shared.cache, |req| {
        let elide = req.elide.mode_with(|| {
            let digest = SweepRequest::capture_digest(&req.ir);
            (*shared.plan_for(digest, &req.ir)).clone()
        });
        (req.preset.model(), elide)
    })?;
    let results = outcome.results;
    // Fold this sweep's scheduling counters into the pool instruments
    // (stats channel only; the results travel untouched).
    shared.metrics.absorb_pool(&outcome.pool);
    let (h, s) = (outcome.stats.hits, outcome.stats.simulated);
    shared.hits.fetch_add(h, Ordering::Relaxed);
    shared.simulated.fetch_add(s, Ordering::Relaxed);
    // Keep the store inside its byte budget once new entries landed.
    if s > 0 {
        if let Some(max_bytes) = shared.cfg.cache_max_bytes {
            if let Ok(gc) = shared.cache.gc(max_bytes, false) {
                shared
                    .evicted
                    .fetch_add(gc.evicted as u64, Ordering::Relaxed);
            }
        }
    }
    Ok((results, h, s))
}

fn handle_gc(shared: &Arc<Shared>) -> Response {
    let Some(max_bytes) = shared.cfg.cache_max_bytes else {
        return Response::err("no cache byte budget configured (start with --cache-max-bytes)");
    };
    match shared.cache.gc(max_bytes, false) {
        Ok(s) => {
            shared
                .evicted
                .fetch_add(s.evicted as u64, Ordering::Relaxed);
            Response::ok_with(
                Verb::Gc,
                vec![
                    ("scanned".into(), s.scanned.to_string()),
                    ("evicted".into(), s.evicted.to_string()),
                    ("bytes_freed".into(), s.bytes_freed.to_string()),
                    ("bytes_kept".into(), s.bytes_kept.to_string()),
                ],
                "",
            )
        }
        Err(e) => Response::err(format!("gc failed: {e}")),
    }
}

/// Build the `METRICS` exposition: the derivable families are read from
/// the same atomics `STATS` serves (so the two verbs agree counter-for-
/// counter by construction), then the schedule-class families — momentary
/// gauges plus the live latency/pool instruments — follow in a fixed
/// order. The body is [`MetricsSnapshot::render`] text and re-parses
/// exactly (`tests/serve_matrix.rs` pins both properties).
fn handle_metrics(shared: &Arc<Shared>) -> Response {
    let stats = shared.stats();
    let mut snap = MetricsSnapshot::default();
    snap.push(FamilySnapshot {
        name: "omp_serve_events_total".into(),
        help: "Request-derived serve counters, identical to STATS.".into(),
        kind: MetricKind::Counter,
        class: MetricClass::Derivable,
        samples: vec![
            Sample::labelled("event", "requests", stats.requests),
            Sample::labelled("event", "hits", stats.hits),
            Sample::labelled("event", "simulated", stats.simulated),
            Sample::labelled("event", "malformed", stats.malformed),
        ],
    });
    snap.push(FamilySnapshot {
        name: "omp_serve_resident".into(),
        help: "Objects resident in server memory.".into(),
        kind: MetricKind::Gauge,
        class: MetricClass::Derivable,
        samples: vec![
            Sample::labelled("kind", "captures", stats.captures),
            Sample::labelled("kind", "plans", stats.plans),
        ],
    });
    snap.push(FamilySnapshot {
        name: "omp_serve_schedule_events_total".into(),
        help: "Schedule-dependent serve counters (timing and admission).".into(),
        kind: MetricKind::Counter,
        class: MetricClass::Schedule,
        samples: vec![
            Sample::labelled("event", "coalesced", stats.coalesced),
            Sample::labelled("event", "busy_rejections", stats.busy_rejections),
            Sample::labelled("event", "evicted", stats.evicted),
        ],
    });
    let plain_gauge = |name: &str, help: &str, value: u64| FamilySnapshot {
        name: name.into(),
        help: help.into(),
        kind: MetricKind::Gauge,
        class: MetricClass::Schedule,
        samples: vec![Sample::plain(value)],
    };
    snap.push(plain_gauge(
        "omp_serve_inflight",
        "Sweep cells currently running or queued.",
        stats.in_flight,
    ));
    snap.push(plain_gauge(
        "omp_serve_uptime_ms",
        "Milliseconds since the server was constructed.",
        stats.uptime_ms,
    ));
    snap.push(plain_gauge(
        "omp_cache_size_bytes",
        "Bytes the result cache's entries occupy on disk.",
        shared.cache.size_bytes(),
    ));
    snap.extend(shared.metrics.registry.snapshot());
    let body = snap.render();
    Response::ok_with(
        Verb::Metrics,
        vec![("families".into(), snap.families.len().to_string())],
        body,
    )
}

/// A blocking `PROTO v1` client over a Unix or TCP connection. One
/// connection serves many sequential requests; the typed helpers wrap
/// [`roundtrip`](Self::roundtrip) for the common verbs.
pub struct Client {
    reader: BufReader<Conn>,
    writer: Conn,
}

impl Client {
    fn new(conn: Conn) -> std::io::Result<Client> {
        let read_half = conn.try_clone()?;
        Ok(Client {
            reader: BufReader::new(read_half),
            writer: conn,
        })
    }

    /// Connect to a Unix-domain server socket.
    pub fn connect_unix(path: &Path) -> std::io::Result<Client> {
        Client::new(Conn::Unix(UnixStream::connect(path)?))
    }

    /// Connect to a TCP server.
    pub fn connect_tcp(addr: &str) -> std::io::Result<Client> {
        Client::new(Conn::Tcp(TcpStream::connect(addr)?))
    }

    /// Send one frame, read one response.
    pub fn roundtrip(&mut self, frame: &Frame) -> Result<Response, ProtoError> {
        self.writer.write_all(frame.to_wire().as_bytes())?;
        self.writer.flush()?;
        Response::read_from(&mut self.reader, DEFAULT_MAX_FRAME_BYTES)?.ok_or_else(|| ProtoError {
            message: "server closed the connection".to_string(),
        })
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<Response, ProtoError> {
        self.roundtrip(&Frame::bare(Verb::Ping))
    }

    /// Upload a capture (its `mapir v1` text); returns the server's
    /// response carrying `digest=` and `records=` info.
    pub fn capture(&mut self, mapir_text: &str) -> Result<Response, ProtoError> {
        self.roundtrip(&Frame::new(Verb::Capture, mapir_text))
    }

    /// Run named sweep cells; the `OK` body is the rendered sweep report.
    /// Captures must already be resident (see [`capture`](Self::capture)).
    pub fn sweep(&mut self, cells: &[(String, SweepRequest)]) -> Result<Response, ProtoError> {
        let body: String = cells
            .iter()
            .map(|(name, req)| sweep_stanza(name, req))
            .collect();
        self.roundtrip(&Frame::new(Verb::Sweep, body))
    }

    /// Run exactly one cell; the `OK` body is its `sweepresult v1` text.
    pub fn result(&mut self, name: &str, req: &SweepRequest) -> Result<Response, ProtoError> {
        self.roundtrip(&Frame::new(Verb::Result, sweep_stanza(name, req)))
    }

    /// Counter snapshot.
    pub fn stats(&mut self) -> Result<Response, ProtoError> {
        self.roundtrip(&Frame::bare(Verb::Stats))
    }

    /// Prometheus-style metrics exposition; the `OK` body is the text
    /// (parseable with [`MetricsSnapshot::parse`]).
    pub fn metrics(&mut self) -> Result<Response, ProtoError> {
        self.roundtrip(&Frame::bare(Verb::Metrics))
    }

    /// Trigger cache GC against the server's configured byte budget.
    pub fn gc(&mut self) -> Result<Response, ProtoError> {
        self.roundtrip(&Frame::bare(Verb::Gc))
    }

    /// Ask the server to drain and exit.
    pub fn shutdown(&mut self) -> Result<Response, ProtoError> {
        self.roundtrip(&Frame::bare(Verb::Shutdown))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_sweep_deregisters_releases_and_fails_its_waiters() {
        let addr = SelfAddr::Tcp(SocketAddr::from(([127, 0, 0, 1], 0)));
        let shared = Arc::new(Shared::new(addr, ServerConfig::default()));
        shared.try_admit(3).unwrap();
        let inflight = Arc::new(Inflight::default());
        shared
            .inflight
            .lock()
            .unwrap()
            .insert(7, Arc::clone(&inflight));
        let waiter = {
            let (shared, inflight) = (Arc::clone(&shared), Arc::clone(&inflight));
            std::thread::spawn(move || wait_for_sweep(Verb::Sweep, &[], &inflight, &shared))
        };
        let worker = {
            let (shared, inflight) = (Arc::clone(&shared), Arc::clone(&inflight));
            std::thread::spawn(move || {
                sweep_worker(&shared, 7, 3, inflight, || panic!("injected sweep panic"))
            })
        };
        assert!(worker.join().is_err(), "the sweep closure panics");
        assert!(shared.inflight.lock().unwrap().is_empty());
        assert_eq!(shared.in_flight.load(Ordering::Relaxed), 0);
        assert_eq!(waiter.join().unwrap(), Response::err("sweep panicked"));
    }
}
