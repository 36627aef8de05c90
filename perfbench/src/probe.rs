//! Per-call timings of the layers a workload's requests pass through,
//! taken from the benchmark's own code on the workload's own request mix:
//! the request and result codecs, `PROTO v1` framing, the result cache,
//! and the check layer's `elision_plan`/`optimize`.

use omp_batch::proto::{sweep_stanza, DEFAULT_MAX_FRAME_BYTES};
use omp_batch::{CacheMode, Frame, Response, ResultCache, SweepRequest, SweepResult, Verb};
use std::collections::BTreeMap;
use std::io::BufReader;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Samples per timed call, enough for a guarded median.
const MIN_SAMPLES: usize = 20;

/// Per-call samples of every probed layer.
#[derive(Debug, Default)]
pub struct Probe {
    /// `canonical()` + `from_canonical()`, µs.
    pub request_codec_us: Vec<f64>,
    /// `to_text()` + `parse()`, µs.
    pub result_codec_us: Vec<f64>,
    /// Request frame and response frame, each `to_wire()` + `read_from()`, µs.
    pub frame_us: Vec<f64>,
    /// `ResultCache::lookup` hits, µs.
    pub lookup_us: Vec<f64>,
    /// `ResultCache::store`, ms.
    pub store_ms: Vec<f64>,
    /// `elision_plan` per distinct capture, µs.
    pub elision_us: Vec<f64>,
    /// `optimize` per distinct capture, ms.
    pub optimize_ms: Vec<f64>,
    /// Round trips whose output differed from the input.
    pub mismatches: u64,
}

fn since_us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Time every layer call over `cells` (with their `results`), repeating
/// the mix until each call has [`MIN_SAMPLES`] samples. The cache lives in
/// `cache_dir`, which keeps every entry for a later warm serve probe.
pub fn run(cells: &[SweepRequest], results: &[SweepResult], cache_dir: &Path) -> Probe {
    assert_eq!(cells.len(), results.len(), "cells/results misalignment");
    let mut p = Probe::default();
    let rounds = MIN_SAMPLES.div_ceil(cells.len().max(1));
    let cache = ResultCache::open(&CacheMode::Dir(cache_dir.to_path_buf()));
    for _ in 0..rounds {
        for (req, res) in cells.iter().zip(results) {
            let t = Instant::now();
            let canonical = req.canonical();
            let back =
                SweepRequest::from_canonical(&req.name, &canonical, |_| Some(Arc::clone(&req.ir)));
            p.request_codec_us.push(since_us(t));
            if back.map(|b| b.canonical() != canonical).unwrap_or(true) {
                p.mismatches += 1;
            }

            let t = Instant::now();
            let text = res.to_text();
            let parsed = SweepResult::parse(&text);
            p.result_codec_us.push(since_us(t));
            if parsed.as_ref() != Ok(res) {
                p.mismatches += 1;
            }

            let t = Instant::now();
            let frame = Frame::new(Verb::Result, sweep_stanza(&req.name, req));
            let wire = frame.to_wire();
            let f = Frame::read_from(
                &mut BufReader::new(wire.as_bytes()),
                DEFAULT_MAX_FRAME_BYTES,
            );
            let resp = Response::ok_with(
                Verb::Result,
                vec![("cells".into(), "1".into())],
                text.clone(),
            );
            let wire = resp.to_wire();
            let r = Response::read_from(
                &mut BufReader::new(wire.as_bytes()),
                DEFAULT_MAX_FRAME_BYTES,
            );
            p.frame_us.push(since_us(t));
            if f.ok().flatten() != Some(frame) || r.ok().flatten() != Some(resp) {
                p.mismatches += 1;
            }

            let t = Instant::now();
            let stored = cache.store(req, res);
            p.store_ms.push(since_us(t) / 1e3);
            let t = Instant::now();
            let hit = cache.lookup(req);
            p.lookup_us.push(since_us(t));
            if stored.is_err() || hit.as_ref() != Some(res) {
                p.mismatches += 1;
            }
        }
    }

    let mut captures: BTreeMap<u64, Arc<omp_offload::MapIr>> = BTreeMap::new();
    for req in cells {
        captures
            .entry(SweepRequest::capture_digest(&req.ir))
            .or_insert_with(|| Arc::clone(&req.ir));
    }
    let rounds = MIN_SAMPLES.div_ceil(captures.len().max(1));
    for _ in 0..rounds {
        for ir in captures.values() {
            let t = Instant::now();
            std::hint::black_box(omp_mapcheck::elision_plan(ir));
            p.elision_us.push(since_us(t));
            let t = Instant::now();
            let _ = std::hint::black_box(omp_mapcheck::optimize(ir));
            p.optimize_ms.push(since_us(t) / 1e3);
        }
    }
    p
}
