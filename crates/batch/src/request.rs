//! Sweep requests and their canonical, digestable encoding.
//!
//! A [`SweepRequest`] names one deterministic simulation: re-execute a MapIR
//! capture under one (cost preset, configuration, elide mode, fault seed,
//! telemetry mode) tuple. Every field that can change the simulation's
//! result is folded into a *canonical encoding* — a stable, line-oriented
//! text block — and the request digest is the FNV-1a hash of that block.
//! Two requests with equal digests (and equal canonical blocks, which the
//! cache verifies byte-for-byte) therefore produce byte-identical results,
//! which is what makes the content-addressed result store sound.
//!
//! Requests are constructed through [`SweepRequest::builder`], the one
//! choke point that validates field combinations (a capture whose kernels
//! dereference raw host pointers cannot run under a non-XNACK
//! configuration — the MC005 gate — and empty captures or labels are
//! rejected outright). [`SweepRequest::canonical`] is the only encoder and
//! [`SweepRequest::from_canonical`] its exact inverse, which is what the
//! `PROTO v1` wire format ships — there is no second serialization format
//! to drift.
//!
//! Display-only fields (the request's `name` label) are deliberately kept
//! *out* of the encoding: the same capture swept under two file names is
//! one cache entry, not two.

use omp_offload::digest::Fnv1a;
use omp_offload::{MapIr, RuntimeConfig};
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

pub use omp_offload::modes::{ElideKind, ModeParseError, TelemetryKind};

/// Canonical-encoding format version. Bump when the encoding, the
/// simulation semantics it names, or the result schema changes; the cache
/// folds it into its salt so stale entries self-invalidate. v2: the `opt`
/// elide kind (static whole-program optimization before replay).
pub const REQUEST_VERSION: u32 = 2;

/// Cost-model preset a request runs under. Requests name presets rather
/// than carrying a full [`CostModel`](apu_mem::CostModel) so the canonical
/// encoding stays small and stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CostPreset {
    /// [`CostModel::mi300a`](apu_mem::CostModel::mi300a) — the calibrated
    /// MI300A preset.
    #[default]
    Mi300a,
    /// [`CostModel::mi300a_no_thp`](apu_mem::CostModel::mi300a_no_thp) —
    /// the THP-disabled variant the check harness uses.
    Mi300aNoThp,
}

impl CostPreset {
    /// Every preset, in canonical order.
    pub const ALL: [CostPreset; 2] = [CostPreset::Mi300a, CostPreset::Mi300aNoThp];

    /// The accepted token set, for usage strings.
    pub const EXPECTED: &'static str = "mi300a | mi300a_no_thp";

    /// Stable canonical-encoding token.
    pub fn token(self) -> &'static str {
        match self {
            CostPreset::Mi300a => "mi300a",
            CostPreset::Mi300aNoThp => "mi300a_no_thp",
        }
    }

    /// Materialize the preset.
    pub fn model(self) -> apu_mem::CostModel {
        match self {
            CostPreset::Mi300a => apu_mem::CostModel::mi300a(),
            CostPreset::Mi300aNoThp => apu_mem::CostModel::mi300a_no_thp(),
        }
    }
}

impl fmt::Display for CostPreset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

impl FromStr for CostPreset {
    type Err = ModeParseError;

    fn from_str(s: &str) -> Result<Self, ModeParseError> {
        match s {
            "mi300a" => Ok(CostPreset::Mi300a),
            "mi300a_no_thp" => Ok(CostPreset::Mi300aNoThp),
            other => Err(ModeParseError {
                what: "cost preset",
                got: other.to_string(),
                expected: Self::EXPECTED,
            }),
        }
    }
}

/// Why a request could not be built (or decoded). Every construction path —
/// CLI, corpus builders, the serve wire format — funnels through
/// [`SweepRequestBuilder::build`], so these are the complete set of ways a
/// request can be invalid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// The display label is empty.
    EmptyName,
    /// The capture has no records; replaying it names no simulation.
    EmptyCapture,
    /// The capture's kernels dereference raw (unmapped) host memory outside
    /// any device-pool allocation, but the configuration runs with XNACK
    /// disabled — the MC005 gate, rejected before it can reach a runtime.
    RawAccessNeedsXnack {
        /// The configuration that cannot serve the raw access.
        config: RuntimeConfig,
    },
    /// A canonical block failed to decode (wire/cache form).
    Malformed(String),
    /// A canonical block references a capture digest the decoder's resolver
    /// does not hold.
    UnknownCapture {
        /// The unresolved capture digest.
        digest: u64,
    },
    /// The tenant count is zero or beyond the pool's VA-window capacity.
    BadTenantCount {
        /// The rejected count.
        tenants: u32,
    },
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::EmptyName => f.write_str("request name is empty"),
            RequestError::EmptyCapture => f.write_str("capture has no records"),
            RequestError::RawAccessNeedsXnack { config } => write!(
                f,
                "capture dereferences raw host memory outside any device pool; \
                 config '{}' runs without XNACK (MC005)",
                config.token()
            ),
            RequestError::Malformed(msg) => write!(f, "malformed request: {msg}"),
            RequestError::UnknownCapture { digest } => {
                write!(f, "unknown capture {digest:016x} (upload it first)")
            }
            RequestError::BadTenantCount { tenants } => {
                write!(
                    f,
                    "tenant count {tenants} out of range (1..={})",
                    omp_offload::MAX_TENANTS
                )
            }
        }
    }
}

impl std::error::Error for RequestError {}

/// One cell of a sweep: a capture plus everything that determines its
/// simulated outcome. Captures are shared (`Arc`) so a corpus replaying one
/// capture under many configurations carries it once. Build through
/// [`SweepRequest::builder`].
#[derive(Debug, Clone)]
pub struct SweepRequest {
    /// Display label (workload or capture-file name). *Not* part of the
    /// canonical encoding or digest.
    pub name: String,
    /// The captured operation stream to re-execute.
    pub ir: Arc<MapIr>,
    /// Cost-model preset.
    pub preset: CostPreset,
    /// Runtime configuration to replay under.
    pub config: RuntimeConfig,
    /// Elision mode.
    pub elide: ElideKind,
    /// Deterministic fault-plan seed (`None` = healthy run).
    pub fault_seed: Option<u64>,
    /// Telemetry collection mode.
    pub telemetry: TelemetryKind,
    /// Concurrent data environments replaying this capture over one shared
    /// mapping table (1 = the classic single-tenant cell). Each tenant's
    /// result is byte-equal to running it alone; the cell's primary result
    /// fields are tenant 0's.
    pub tenants: u32,
}

/// Typed constructor for [`SweepRequest`]: collects the result-determining
/// fields, then [`build`](Self::build) validates the combination at one
/// choke point. Obtained from [`SweepRequest::builder`].
#[derive(Debug, Clone)]
pub struct SweepRequestBuilder {
    name: String,
    ir: Arc<MapIr>,
    preset: CostPreset,
    config: RuntimeConfig,
    elide: ElideKind,
    fault_seed: Option<u64>,
    telemetry: TelemetryKind,
    tenants: u32,
}

impl SweepRequestBuilder {
    /// Cost-model preset (default: the calibrated MI300A model).
    pub fn preset(mut self, preset: CostPreset) -> Self {
        self.preset = preset;
        self
    }

    /// Runtime configuration (default: Implicit Zero-Copy).
    pub fn config(mut self, config: RuntimeConfig) -> Self {
        self.config = config;
        self
    }

    /// Elision strategy (default: off).
    pub fn elide(mut self, elide: ElideKind) -> Self {
        self.elide = elide;
        self
    }

    /// Deterministic fault-plan seed (default: healthy run).
    pub fn fault_seed(mut self, seed: u64) -> Self {
        self.fault_seed = Some(seed);
        self
    }

    /// Telemetry collection mode (default: off).
    pub fn telemetry(mut self, telemetry: TelemetryKind) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Concurrent tenants replaying the capture over one shared mapping
    /// table (default 1). Validated against the tenant-pool VA-window
    /// capacity at [`build`](Self::build).
    pub fn tenants(mut self, tenants: u32) -> Self {
        self.tenants = tenants;
        self
    }

    /// Validate the field combination and produce the request. This is the
    /// single gate every construction path goes through: empty labels and
    /// captures are rejected, and the configuration must be one of the
    /// capture's [`admissible_configs`](omp_mapcheck::admissible_configs) —
    /// a capture whose kernels touch raw host memory outside any
    /// device-pool allocation cannot run XNACK-disabled (the combination
    /// the static checker flags as MC005 — it would fault on real
    /// hardware).
    pub fn build(self) -> Result<SweepRequest, RequestError> {
        if self.name.is_empty() {
            return Err(RequestError::EmptyName);
        }
        if self.ir.is_empty() {
            return Err(RequestError::EmptyCapture);
        }
        if !omp_mapcheck::admissible_configs(&self.ir).contains(&self.config) {
            return Err(RequestError::RawAccessNeedsXnack {
                config: self.config,
            });
        }
        if self.tenants == 0 || self.tenants > omp_offload::MAX_TENANTS {
            return Err(RequestError::BadTenantCount {
                tenants: self.tenants,
            });
        }
        Ok(SweepRequest {
            name: self.name,
            ir: self.ir,
            preset: self.preset,
            config: self.config,
            elide: self.elide,
            fault_seed: self.fault_seed,
            telemetry: self.telemetry,
            tenants: self.tenants,
        })
    }
}

impl SweepRequest {
    /// Start building a request for `ir`, labelled `name`. Defaults: the
    /// calibrated MI300A preset, Implicit Zero-Copy, no elision, healthy,
    /// telemetry off.
    pub fn builder(name: impl Into<String>, ir: Arc<MapIr>) -> SweepRequestBuilder {
        SweepRequestBuilder {
            name: name.into(),
            ir,
            preset: CostPreset::Mi300a,
            config: RuntimeConfig::ImplicitZeroCopy,
            elide: ElideKind::Off,
            fault_seed: None,
            telemetry: TelemetryKind::Off,
            tenants: 1,
        }
    }

    /// The FNV-1a digest of the capture's stable `mapir v1` text — the
    /// identity under which the capture enters the canonical encoding (and
    /// the key of the serve layer's resident-capture table).
    pub fn capture_digest(ir: &MapIr) -> u64 {
        let mut h = Fnv1a::new();
        h.write_str(&ir.to_text());
        h.finish()
    }

    /// The canonical encoding: every result-determining field, one per
    /// line, in fixed order. The capture itself enters as the FNV-1a digest
    /// of its stable `mapir v1` text plus its record count — the capture
    /// body is *not* inlined, keeping cache entries small. This is the only
    /// encoder: the cache stores it, the wire format ships it, and
    /// [`from_canonical`](Self::from_canonical) inverts it.
    pub fn canonical(&self) -> String {
        let mut block = format!(
            "sweepreq v{}\npreset {}\nconfig {}\nelide {}\nfault {}\ntelemetry {}\n",
            REQUEST_VERSION,
            self.preset.token(),
            self.config.token(),
            self.elide.token(),
            self.fault_seed
                .map_or_else(|| "none".to_string(), |s| s.to_string()),
            self.telemetry.token(),
        );
        // The single-tenant default is encoded by *omission* so every
        // pre-tenant cache entry and wire block stays byte-identical (no
        // REQUEST_VERSION bump, no cache self-invalidation).
        if self.tenants > 1 {
            block.push_str(&format!("tenants {}\n", self.tenants));
        }
        block.push_str(&format!(
            "capture {:016x} {}\n",
            Self::capture_digest(&self.ir),
            self.ir.len(),
        ));
        block
    }

    /// Decode a canonical block produced by [`canonical`](Self::canonical),
    /// resolving the capture digest through `resolve` (the serve layer's
    /// resident-capture table; a test can close over a map). The decoded
    /// request passes through [`SweepRequestBuilder::build`], so wire
    /// requests face exactly the same validation as locally built ones.
    /// `name` is the display label (not part of the encoding).
    pub fn from_canonical(
        name: impl Into<String>,
        text: &str,
        resolve: impl FnOnce(u64) -> Option<Arc<MapIr>>,
    ) -> Result<SweepRequest, RequestError> {
        let mut lines = text.lines();
        let bad = |msg: &str| RequestError::Malformed(msg.to_string());
        match lines.next() {
            Some(l) if l == format!("sweepreq v{REQUEST_VERSION}") => {}
            other => {
                return Err(bad(&format!(
                    "bad header {other:?} (expected 'sweepreq v{REQUEST_VERSION}')"
                )))
            }
        }
        let mut field = |key: &'static str| -> Result<String, RequestError> {
            match lines.next().and_then(|l| l.split_once(' ')) {
                Some((k, v)) if k == key => Ok(v.to_string()),
                other => Err(bad(&format!("expected '{key} ...', got {other:?}"))),
            }
        };
        let preset: CostPreset = field("preset")?
            .parse()
            .map_err(|e: ModeParseError| bad(&e.to_string()))?;
        let config_tok = field("config")?;
        let config: RuntimeConfig = config_tok
            .parse()
            .map_err(|_| bad(&format!("unknown config token '{config_tok}'")))?;
        let elide: ElideKind = field("elide")?
            .parse()
            .map_err(|e: ModeParseError| bad(&e.to_string()))?;
        let fault_raw = field("fault")?;
        let fault_seed = if fault_raw == "none" {
            None
        } else {
            Some(
                fault_raw
                    .parse::<u64>()
                    .map_err(|_| bad(&format!("bad fault seed '{fault_raw}'")))?,
            )
        };
        let telemetry: TelemetryKind = field("telemetry")?
            .parse()
            .map_err(|e: ModeParseError| bad(&e.to_string()))?;
        // Optional `tenants N` line (emitted only for N > 1), then the
        // terminal capture line.
        let next = lines
            .next()
            .ok_or_else(|| bad("expected 'tenants ...' or 'capture ...'"))?;
        let (tenants, capture_line) = if let Some(v) = next.strip_prefix("tenants ") {
            let n: u32 = v
                .parse()
                .map_err(|_| bad(&format!("bad tenant count '{v}'")))?;
            let cap = match lines.next().and_then(|l| l.split_once(' ')) {
                Some(("capture", rest)) => rest.to_string(),
                other => return Err(bad(&format!("expected 'capture ...', got {other:?}"))),
            };
            (n, cap)
        } else if let Some(v) = next.strip_prefix("capture ") {
            (1, v.to_string())
        } else {
            return Err(bad(&format!(
                "expected 'tenants ...' or 'capture ...', got '{next}'"
            )));
        };
        let (digest_hex, len_str) = capture_line
            .split_once(' ')
            .ok_or_else(|| bad("capture line needs '<digest> <records>'"))?;
        let digest = u64::from_str_radix(digest_hex, 16)
            .map_err(|_| bad(&format!("bad capture digest '{digest_hex}'")))?;
        let len: usize = len_str
            .parse()
            .map_err(|_| bad(&format!("bad capture record count '{len_str}'")))?;
        if let Some(extra) = lines.next() {
            if !extra.trim().is_empty() {
                return Err(bad(&format!("trailing content '{extra}'")));
            }
        }
        let ir = resolve(digest).ok_or(RequestError::UnknownCapture { digest })?;
        if ir.len() != len {
            return Err(bad(&format!(
                "capture {digest:016x} has {} records, request claims {len}",
                ir.len()
            )));
        }
        let mut b = SweepRequest::builder(name, ir)
            .preset(preset)
            .config(config)
            .elide(elide)
            .telemetry(telemetry)
            .tenants(tenants);
        if let Some(seed) = fault_seed {
            b = b.fault_seed(seed);
        }
        b.build()
    }

    /// The request digest: FNV-1a over the canonical encoding. This is the
    /// content address of the request's result.
    pub fn digest(&self) -> u64 {
        omp_offload::digest::fnv1a(self.canonical().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apu_mem::{AddrRange, VirtAddr};
    use omp_offload::{KernelOp, MapOp};

    fn small_ir() -> Arc<MapIr> {
        let mut ir = MapIr::new();
        ir.push(
            0,
            MapOp::HostAlloc {
                range: AddrRange::new(VirtAddr(4096), 8192),
            },
        );
        Arc::new(ir)
    }

    fn req(config: RuntimeConfig) -> SweepRequest {
        SweepRequest::builder("w", small_ir())
            .config(config)
            .build()
            .unwrap()
    }

    #[test]
    fn canonical_is_stable_and_name_free() {
        let a = SweepRequest::builder("first", small_ir())
            .config(RuntimeConfig::LegacyCopy)
            .build()
            .unwrap();
        let b = SweepRequest::builder("second", small_ir())
            .config(RuntimeConfig::LegacyCopy)
            .build()
            .unwrap();
        assert_eq!(a.canonical(), b.canonical());
        assert_eq!(a.digest(), b.digest());
        assert!(a
            .canonical()
            .starts_with("sweepreq v2\npreset mi300a\nconfig copy\n"));
    }

    #[test]
    fn every_result_determining_field_changes_the_digest() {
        let base = req(RuntimeConfig::LegacyCopy);
        let d0 = base.digest();
        let variants = [
            SweepRequest {
                config: RuntimeConfig::ImplicitZeroCopy,
                ..base.clone()
            },
            SweepRequest {
                elide: ElideKind::Online,
                ..base.clone()
            },
            SweepRequest {
                elide: ElideKind::Opt,
                ..base.clone()
            },
            SweepRequest {
                fault_seed: Some(7),
                ..base.clone()
            },
            SweepRequest {
                telemetry: TelemetryKind::Ring,
                ..base.clone()
            },
            SweepRequest {
                preset: CostPreset::Mi300aNoThp,
                ..base.clone()
            },
        ];
        for v in &variants {
            assert_ne!(v.digest(), d0, "{}", v.canonical());
        }
        let mut ir2 = (*base.ir).clone();
        ir2.push(0, MapOp::Taskwait);
        let changed = SweepRequest {
            ir: Arc::new(ir2),
            ..base
        };
        assert_ne!(changed.digest(), d0);
    }

    #[test]
    fn tokens_round_trip() {
        for p in CostPreset::ALL {
            assert_eq!(p.token().parse::<CostPreset>(), Ok(p));
        }
        for e in ElideKind::ALL {
            assert_eq!(e.token().parse::<ElideKind>(), Ok(e));
        }
        for t in TelemetryKind::ALL {
            assert_eq!(t.token().parse::<TelemetryKind>(), Ok(t));
        }
        for c in RuntimeConfig::ALL {
            assert_eq!(c.token().parse::<RuntimeConfig>(), Ok(c));
        }
        assert!("bogus".parse::<CostPreset>().is_err());
    }

    #[test]
    fn canonical_round_trips_through_from_canonical() {
        let mut base = req(RuntimeConfig::EagerMaps);
        base.elide = ElideKind::Plan;
        base.fault_seed = Some(42);
        base.telemetry = TelemetryKind::Ring;
        base.preset = CostPreset::Mi300aNoThp;
        let ir = Arc::clone(&base.ir);
        let back = SweepRequest::from_canonical("w", &base.canonical(), |d| {
            assert_eq!(d, SweepRequest::capture_digest(&ir));
            Some(Arc::clone(&ir))
        })
        .unwrap();
        assert_eq!(back.canonical(), base.canonical());
        assert_eq!(back.digest(), base.digest());
        assert_eq!(back.name, "w");
    }

    #[test]
    fn from_canonical_rejects_garbage_and_mismatches() {
        let base = req(RuntimeConfig::LegacyCopy);
        let ir = Arc::clone(&base.ir);
        let ok = |text: &str| SweepRequest::from_canonical("w", text, |_| Some(Arc::clone(&ir)));
        assert!(matches!(ok(""), Err(RequestError::Malformed(_))));
        assert!(matches!(
            ok("sweepreq v9\n"),
            Err(RequestError::Malformed(_))
        ));
        let tampered = base.canonical().replace("config copy", "config frob");
        assert!(matches!(ok(&tampered), Err(RequestError::Malformed(_))));
        let bad_count = {
            let c = base.canonical();
            let head = c.rsplit_once(' ').unwrap().0;
            format!("{head} 999\n")
        };
        assert!(matches!(ok(&bad_count), Err(RequestError::Malformed(_))));
        let unresolved = SweepRequest::from_canonical("w", &base.canonical(), |_| None);
        assert!(matches!(
            unresolved,
            Err(RequestError::UnknownCapture { .. })
        ));
    }

    #[test]
    fn single_tenant_encoding_is_unchanged_and_multi_tenant_round_trips() {
        let base = req(RuntimeConfig::LegacyCopy);
        // tenants == 1 is encoded by omission: pre-tenant cache entries and
        // wire blocks stay byte-identical.
        assert!(!base.canonical().contains("tenants"));
        let multi = SweepRequest {
            tenants: 4,
            ..base.clone()
        };
        assert!(multi.canonical().contains("\ntenants 4\ncapture "));
        assert_ne!(multi.digest(), base.digest());
        let ir = Arc::clone(&multi.ir);
        let back = SweepRequest::from_canonical("w", &multi.canonical(), |_| Some(Arc::clone(&ir)))
            .unwrap();
        assert_eq!(back.tenants, 4);
        assert_eq!(back.canonical(), multi.canonical());
    }

    #[test]
    fn tenant_count_is_validated() {
        for bad in [0, omp_offload::MAX_TENANTS + 1] {
            let err = SweepRequest::builder("w", small_ir())
                .tenants(bad)
                .build()
                .unwrap_err();
            assert_eq!(err, RequestError::BadTenantCount { tenants: bad });
        }
        assert!(SweepRequest::builder("w", small_ir())
            .tenants(omp_offload::MAX_TENANTS)
            .build()
            .is_ok());
    }

    #[test]
    fn builder_validates_at_the_choke_point() {
        assert_eq!(
            SweepRequest::builder("", small_ir()).build().unwrap_err(),
            RequestError::EmptyName
        );
        assert_eq!(
            SweepRequest::builder("w", Arc::new(MapIr::new()))
                .build()
                .unwrap_err(),
            RequestError::EmptyCapture
        );
    }

    #[test]
    fn raw_access_rejected_under_non_xnack_configs() {
        // A kernel dereferencing raw host memory outside any pool.
        let mut ir = MapIr::new();
        ir.push(
            0,
            MapOp::HostAlloc {
                range: AddrRange::new(VirtAddr(4096), 8192),
            },
        );
        ir.push(
            0,
            MapOp::Kernel(KernelOp {
                name: "usm_kernel".into(),
                maps: vec![],
                raw: vec![AddrRange::new(VirtAddr(4096), 8192)],
                globals: vec![],
                nowait: false,
            }),
        );
        let ir = Arc::new(ir);
        for config in [RuntimeConfig::LegacyCopy, RuntimeConfig::EagerMaps] {
            let err = SweepRequest::builder("w", Arc::clone(&ir))
                .config(config)
                .build()
                .unwrap_err();
            assert_eq!(err, RequestError::RawAccessNeedsXnack { config });
        }
        for config in [
            RuntimeConfig::UnifiedSharedMemory,
            RuntimeConfig::ImplicitZeroCopy,
        ] {
            assert!(SweepRequest::builder("w", Arc::clone(&ir))
                .config(config)
                .build()
                .is_ok());
        }

        // The same raw range backed by a pool allocation is fine anywhere.
        let mut pooled = MapIr::new();
        pooled.push(
            0,
            MapOp::PoolAlloc {
                range: AddrRange::new(VirtAddr(4096), 8192),
            },
        );
        pooled.push(
            0,
            MapOp::Kernel(KernelOp {
                name: "pool_kernel".into(),
                maps: vec![],
                raw: vec![AddrRange::new(VirtAddr(4096), 4096)],
                globals: vec![],
                nowait: false,
            }),
        );
        let pooled = Arc::new(pooled);
        for config in RuntimeConfig::ALL {
            assert!(SweepRequest::builder("w", Arc::clone(&pooled))
                .config(config)
                .build()
                .is_ok());
        }
    }
}
