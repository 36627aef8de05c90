//! An in-process `apusim serve` instance on a Unix socket, with the
//! set-up the serve workloads share and the counters scraped from it.

use omp_batch::{
    CacheMode, Client, Response, Server, ServerConfig, ServerHandle, ServerStats, SweepRequest,
};
use omp_offload::MetricsSnapshot;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// A running server plus the control connection the benchmark drives it
/// with (set-up, scrapes, shutdown). Load runs on connections of its own.
pub struct Served {
    handle: ServerHandle,
    /// Socket path, relative to the working directory (keeps it short).
    pub sock: PathBuf,
    ctl: Client,
}

/// The counters one scrape reads; subtract two to get a window's share.
#[derive(Debug, Clone, Copy, Default)]
pub struct Scrape {
    /// `STATS`.
    pub stats: ServerStats,
    /// Handle-time sum (µs) and count of `RESULT` requests of one
    /// temperature (`warm`: answered from the cache, `cold`: simulated).
    pub handle_us: (u64, u64),
    /// Pool steals and failed steals over all workers.
    pub steals: (u64, u64),
}

impl Scrape {
    /// `self - before`, field by field.
    pub fn since(&self, before: &Scrape) -> Scrape {
        let (a, b) = (&self.stats, &before.stats);
        Scrape {
            stats: ServerStats {
                requests: a.requests - b.requests,
                hits: a.hits - b.hits,
                simulated: a.simulated - b.simulated,
                coalesced: a.coalesced - b.coalesced,
                busy_rejections: a.busy_rejections - b.busy_rejections,
                ..*a
            },
            handle_us: (
                self.handle_us.0 - before.handle_us.0,
                self.handle_us.1 - before.handle_us.1,
            ),
            steals: (
                self.steals.0 - before.steals.0,
                self.steals.1 - before.steals.1,
            ),
        }
    }
}

/// `Ok` bodies, or the failure as a one-line message.
pub fn ok_body(r: Result<Response, omp_batch::ProtoError>) -> Result<(Response, String), String> {
    let resp = r.map_err(|e| e.to_string())?;
    match &resp {
        Response::Ok { body, .. } => {
            let body = body.clone();
            Ok((resp, body))
        }
        other => Err(other.to_wire().lines().next().unwrap_or("").to_string()),
    }
}

impl Served {
    /// Bind `dir/serve.sock` with its cache in `dir/cache`, start the
    /// accept loop and connect the control client.
    pub fn start(dir: &Path, jobs: usize) -> Result<Served, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let sock = dir.join("serve.sock");
        let cfg = ServerConfig {
            cache: CacheMode::Dir(dir.join("cache")),
            jobs,
            timeout: Duration::from_secs(60),
            ..ServerConfig::default()
        };
        let server = Server::bind_unix(&sock, cfg).map_err(|e| format!("bind: {e}"))?;
        let handle = server.spawn();
        let ctl = Client::connect_unix(&sock).map_err(|e| format!("connect: {e}"))?;
        Ok(Served { handle, sock, ctl })
    }

    /// A new load connection.
    pub fn connect(&self) -> Result<Client, String> {
        Client::connect_unix(&self.sock).map_err(|e| format!("connect: {e}"))
    }

    /// Upload every distinct capture of `cells`.
    pub fn upload(&mut self, cells: &[SweepRequest]) -> Result<(), String> {
        let texts: BTreeSet<String> = cells.iter().map(|r| r.ir.to_text()).collect();
        for t in texts {
            ok_body(self.ctl.capture(&t))?;
        }
        Ok(())
    }

    /// Simulate `cells` into the cache with one `SWEEP`, then fetch each
    /// cell's `RESULT` text (now a cache hit).
    pub fn fill(&mut self, cells: &[SweepRequest]) -> Result<Vec<String>, String> {
        let named: Vec<(String, SweepRequest)> =
            cells.iter().map(|r| (r.name.clone(), r.clone())).collect();
        let (resp, _) = ok_body(self.ctl.sweep(&named))?;
        let simulated = resp.info_get("simulated").unwrap_or("?");
        if simulated != cells.len().to_string() {
            return Err(format!(
                "fill simulated {simulated} of {} cells",
                cells.len()
            ));
        }
        cells
            .iter()
            .map(|r| ok_body(self.ctl.result(&r.name, r)).map(|(_, body)| body))
            .collect()
    }

    /// Read `STATS` and `METRICS`, with the handle times of `temp`
    /// (`warm` or `cold`) `RESULT` requests.
    pub fn scrape(&mut self, jobs: usize, temp: &str) -> Result<Scrape, String> {
        let (resp, _) = ok_body(self.ctl.stats())?;
        let stats = ServerStats::from_info(resp.info())?;
        let (_, body) = ok_body(self.ctl.metrics())?;
        let snap = MetricsSnapshot::parse(&body)?;
        let labels = [("verb", "result"), ("temp", temp)];
        let get = |suffix: &str| {
            snap.value("omp_serve_latency_us", suffix, &labels)
                .ok_or_else(|| format!("METRICS lacks omp_serve_latency_us{suffix}"))
        };
        let handle_us = (get("_sum")?, get("_count")?);
        let mut steals = (0, 0);
        for w in 0..jobs {
            let w = w.to_string();
            let pool = |event: &str| {
                snap.value(
                    "omp_pool_ops_total",
                    "",
                    &[("worker", &w), ("event", event)],
                )
                .unwrap_or(0)
            };
            steals.0 += pool("steal");
            steals.1 += pool("steal_failure");
        }
        Ok(Scrape {
            stats,
            handle_us,
            steals,
        })
    }

    /// Shut the server down and wait for its accept loop to drain.
    pub fn stop(mut self) -> Result<(), String> {
        ok_body(self.ctl.shutdown())?;
        self.handle.join().map_err(|e| format!("server exit: {e}"))
    }
}
