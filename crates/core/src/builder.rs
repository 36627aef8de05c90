//! The unified construction path for [`OmpRuntime`].
//!
//! One builder composes every startup concern: configuration selection
//! (explicit or environment-resolved), system kind, memory options,
//! host-thread count and fault plan — and performs the startup
//! *degradation* decision the real stack makes: a
//! configuration that needs XNACK silently falls back to Copy data handling
//! when the deployment lacks it (except `unified_shared_memory` binaries,
//! which have no fallback and fail with
//! [`OmpError::UnsupportedDeployment`]).

use crate::config::{RunEnv, RuntimeConfig};
use crate::elide::ElideMode;
use crate::error::OmpError;
use crate::metrics::MetricsMode;
use crate::runtime::OmpRuntime;
use crate::table::MappingTable;
use crate::telemetry::TelemetryMode;
use apu_mem::{CostModel, MemOptions, SystemKind, XnackMode};
use hsa_rocr::{HsaRuntime, Topology};
use sim_des::FaultPlan;
use std::sync::Arc;

/// Instrumentation switches forwarded from the builder to the runtime
/// constructor (grouped so the constructor signature stays readable).
#[derive(Debug, Clone)]
pub(crate) struct Instrumentation {
    pub capture: bool,
    pub sanitize: bool,
    pub elide: ElideMode,
    pub telemetry: TelemetryMode,
    pub metrics: MetricsMode,
    /// Shared mapping table (tenant pools); `None` builds a private one.
    pub table: Option<Arc<MappingTable>>,
    /// Host-VA window `[lo, hi)` this runtime owns within a shared table.
    pub window: Option<(u64, u64)>,
}

/// Builder for [`OmpRuntime`]; obtain one via
/// [`OmpRuntime::builder`].
///
/// ```
/// use omp_offload::{OmpRuntime, RuntimeConfig};
/// use apu_mem::CostModel;
/// use hsa_rocr::Topology;
///
/// let rt = OmpRuntime::builder(CostModel::mi300a(), Topology::default())
///     .config(RuntimeConfig::ImplicitZeroCopy)
///     .threads(2)
///     .build()
///     .unwrap();
/// assert_eq!(rt.threads(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct RuntimeBuilder {
    cost: CostModel,
    topo: Topology,
    config: Option<RuntimeConfig>,
    system: Option<SystemKind>,
    env: Option<RunEnv>,
    threads: usize,
    fault_plan: Option<FaultPlan>,
    mem_options: MemOptions,
    capture: bool,
    sanitize: bool,
    elide: ElideMode,
    telemetry: TelemetryMode,
    metrics: MetricsMode,
    shared_table: Option<Arc<MappingTable>>,
    tenant: Option<u32>,
}

impl RuntimeBuilder {
    pub(crate) fn new(cost: CostModel, topo: Topology) -> Self {
        RuntimeBuilder {
            cost,
            topo,
            config: None,
            system: None,
            env: None,
            threads: 1,
            fault_plan: None,
            mem_options: MemOptions::default(),
            capture: false,
            sanitize: false,
            elide: ElideMode::Off,
            telemetry: TelemetryMode::Off,
            metrics: MetricsMode::Off,
            shared_table: None,
            tenant: None,
        }
    }

    /// Request a configuration explicitly. When a deployment environment or
    /// fault plan says XNACK is unavailable, an XNACK-dependent request is
    /// degraded (Implicit Zero-Copy → Copy) or rejected (USM).
    pub fn config(mut self, config: RuntimeConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Run on an explicit system kind (APU or discrete GPU). Overrides the
    /// kind implied by [`env`](Self::env).
    pub fn system(mut self, kind: SystemKind) -> Self {
        self.system = Some(kind);
        self
    }

    /// Resolve the configuration from a deployment environment, as the real
    /// stack does at startup. A non-APU environment gets an MI200-class
    /// discrete device unless [`system`](Self::system) overrides it.
    pub fn env(mut self, env: RunEnv) -> Self {
        self.env = Some(env);
        self
    }

    /// OpenMP host-thread count (default 1).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Attach a deterministic fault-injection schedule. The plan is armed
    /// *after* device/thread initialization so injected failures target the
    /// measured phase of the run.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Typed memory-subsystem options (pagewise oracle, capacity override).
    pub fn mem_options(mut self, opts: MemOptions) -> Self {
        self.mem_options = opts;
        self
    }

    /// Capture mode: record the program's data-environment operations into
    /// a [`MapIr`](crate::MapIr) stream instead of executing them.
    /// Address-producing calls (`host_alloc`, `omp_target_alloc`,
    /// `declare_target_global`) still execute so the stream carries real
    /// addresses; maps, updates, kernel launches, and kernel bodies do not
    /// run. Retrieve the stream with
    /// [`OmpRuntime::take_mapir`](crate::OmpRuntime::take_mapir).
    /// Capture takes precedence over [`sanitize`](Self::sanitize).
    pub fn capture(mut self, on: bool) -> Self {
        self.capture = on;
        self
    }

    /// Sanitizer mode: validate data-environment invariants dynamically
    /// while the program executes, recording
    /// [`Diagnostic`](crate::Diagnostic)s (same codes as the static
    /// `omp-mapcheck` checker) into the report's
    /// [`sanitizer`](crate::RunReport::sanitizer) field. Execution itself is
    /// unchanged — the sanitizer observes, it never blocks or repairs.
    pub fn sanitize(mut self, on: bool) -> Self {
        self.sanitize = on;
        self
    }

    /// Handle MC007-redundant maps according to `mode` (default
    /// [`ElideMode::Off`]): promote re-maps of present extents that carry a
    /// transfer direction and no `always` modifier into no-transfer `alloc`
    /// maps, either by probing the live mapping table
    /// ([`ElideMode::Online`]) or by applying a precomputed plan
    /// ([`ElideMode::Plan`]). Promotion never changes program results — the
    /// enclosing reference already keeps transfers suppressed — it removes
    /// the per-entry transfer-decision service cost under Copy data
    /// handling.
    pub fn elide(mut self, mode: ElideMode) -> Self {
        self.elide = mode;
        self
    }

    /// Telemetry collection mode (default [`TelemetryMode::Off`]). With a
    /// ring attached, every runtime charge emits a typed
    /// [`Event`](crate::telemetry::Event) whose fold reproduces the
    /// [`OverheadLedger`](crate::OverheadLedger) field for field; the
    /// collected stream lands in
    /// [`RunReport::telemetry`](crate::RunReport::telemetry). Off costs one
    /// branch per charge site.
    pub fn telemetry(mut self, mode: TelemetryMode) -> Self {
        self.telemetry = mode;
        self
    }

    /// Concurrency-metrics mode (default [`MetricsMode::Off`]). `On` arms
    /// the mapping table's lock-contention instruments,
    /// read back through [`OmpRuntime::contention`]. The ledger needs no
    /// arming: it is always kept and lands in
    /// [`RunReport::ledger`](crate::RunReport::ledger). Off costs one
    /// branch per instrumented lock site.
    pub fn metrics(mut self, mode: MetricsMode) -> Self {
        self.metrics = mode;
        self
    }

    /// Attach this runtime to a shared mapping table as tenant `id` (used
    /// by [`TenantPool`](crate::TenantPool)): the memory image shifts into
    /// the tenant's disjoint VA window and the end-of-program leak scan is
    /// bounded to that window's slice of the shared table.
    pub(crate) fn attach_tenant(mut self, table: Arc<MappingTable>, id: u32) -> Self {
        self.shared_table = Some(table);
        self.tenant = Some(id);
        self
    }

    /// The attached fault plan, if any (tenant derivation).
    pub(crate) fn fault_plan_ref(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Construct the runtime: pick the engaging configuration (with startup
    /// degradation), build the memory system, run device/per-thread
    /// initialization, and arm the fault plan.
    ///
    /// With neither [`config`](Self::config) nor [`env`](Self::env) given,
    /// the default MI300A environment ([`RunEnv::mi300a`]) is resolved —
    /// Implicit Zero-Copy.
    pub fn build(self) -> Result<OmpRuntime, OmpError> {
        assert!(self.threads >= 1, "at least one host thread");

        let env_xnack = self.env.is_none_or(|e| e.hsa_xnack);
        let plan_xnack_unavailable = self
            .fault_plan
            .as_ref()
            .is_some_and(|p| p.xnack_unavailable());
        let xnack_available = env_xnack && !plan_xnack_unavailable;

        const USM_REASON: &str = "unified_shared_memory binary requires XNACK support";
        let requested = match (self.config, self.env) {
            (Some(c), _) => c,
            (None, env) => {
                let mut e = env.unwrap_or_else(RunEnv::mi300a);
                // Fold plan-level XNACK unavailability into resolution.
                e.hsa_xnack = e.hsa_xnack && !plan_xnack_unavailable;
                e.resolve()
                    .ok_or(OmpError::UnsupportedDeployment { reason: USM_REASON })?
            }
        };

        // Startup degradation: an explicitly requested XNACK-dependent
        // configuration meets a deployment without XNACK.
        let (config, degraded_from) = if requested.xnack() == XnackMode::Enabled && !xnack_available
        {
            match requested {
                RuntimeConfig::UnifiedSharedMemory => {
                    // `requires unified_shared_memory` binaries pass raw host
                    // pointers with no maps: there is nothing to degrade to.
                    return Err(OmpError::UnsupportedDeployment { reason: USM_REASON });
                }
                other => (RuntimeConfig::LegacyCopy, Some(other)),
            }
        } else {
            (requested, None)
        };

        let kind = match (self.system, self.env) {
            (Some(k), _) => k,
            (None, Some(e)) if !e.is_apu => {
                SystemKind::Discrete(apu_mem::DiscreteSpec::mi200_class())
            }
            _ => SystemKind::Apu,
        };

        let mut mem_options = self.mem_options;
        let window = self.tenant.map(|id| {
            let shift = u64::from(id) * crate::tenant::TENANT_VA_STRIDE;
            mem_options.va_shift = shift;
            let lo = apu_mem::HOST_VA_BASE + shift;
            (lo, lo + crate::tenant::TENANT_VA_STRIDE)
        });

        let mut hsa = HsaRuntime::new(self.cost, self.topo, kind, mem_options);
        hsa.device_init(0)?;
        for t in 1..self.threads {
            hsa.thread_init(t)?;
        }
        if let Some(plan) = self.fault_plan {
            hsa.set_fault_plan(plan);
        }

        Ok(OmpRuntime::from_parts(
            hsa,
            config,
            self.threads,
            degraded_from,
            Instrumentation {
                capture: self.capture,
                sanitize: self.sanitize,
                elide: self.elide,
                telemetry: self.telemetry,
                metrics: self.metrics,
                table: self.shared_table,
                window,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_des::FaultSpec;

    fn cost() -> CostModel {
        CostModel::mi300a_no_thp()
    }

    #[test]
    fn builder_defaults_resolve_like_mi300a() {
        let rt = OmpRuntime::builder(cost(), Topology::default())
            .build()
            .unwrap();
        assert_eq!(rt.config(), RuntimeConfig::ImplicitZeroCopy);
        assert_eq!(rt.threads(), 1);
        assert!(rt.degraded_from().is_none());
    }

    #[test]
    fn explicit_config_and_threads() {
        let rt = OmpRuntime::builder(cost(), Topology::default())
            .config(RuntimeConfig::EagerMaps)
            .threads(4)
            .build()
            .unwrap();
        assert_eq!(rt.config(), RuntimeConfig::EagerMaps);
        assert_eq!(rt.threads(), 4);
    }

    #[test]
    fn izc_degrades_to_copy_without_xnack() {
        let mut env = RunEnv::mi300a();
        env.hsa_xnack = false;
        let rt = OmpRuntime::builder(cost(), Topology::default())
            .config(RuntimeConfig::ImplicitZeroCopy)
            .env(env)
            .build()
            .unwrap();
        assert_eq!(rt.config(), RuntimeConfig::LegacyCopy);
        assert_eq!(rt.degraded_from(), Some(RuntimeConfig::ImplicitZeroCopy));
        assert_eq!(rt.ledger().degradations, 1);
    }

    #[test]
    fn usm_without_xnack_has_no_fallback() {
        let mut env = RunEnv::mi300a();
        env.hsa_xnack = false;
        let result = OmpRuntime::builder(cost(), Topology::default())
            .config(RuntimeConfig::UnifiedSharedMemory)
            .env(env)
            .build();
        assert!(matches!(
            result.err(),
            Some(OmpError::UnsupportedDeployment { .. })
        ));
    }

    #[test]
    fn fault_plan_xnack_unavailability_degrades_like_env() {
        let plan = FaultPlan::new(1, FaultSpec::none()).with_xnack_unavailable(true);
        let rt = OmpRuntime::builder(cost(), Topology::default())
            .config(RuntimeConfig::ImplicitZeroCopy)
            .fault_plan(plan)
            .build()
            .unwrap();
        assert_eq!(rt.config(), RuntimeConfig::LegacyCopy);
        assert_eq!(rt.degraded_from(), Some(RuntimeConfig::ImplicitZeroCopy));
    }

    #[test]
    fn env_only_resolution_keeps_discrete_kind() {
        let env = RunEnv {
            is_apu: false,
            hsa_xnack: false,
            ompx_apu_maps: false,
            eager_maps: false,
            requires_usm: false,
        };
        let rt = OmpRuntime::builder(cost(), Topology::default())
            .env(env)
            .build()
            .unwrap();
        assert_eq!(rt.config(), RuntimeConfig::LegacyCopy);
        assert!(matches!(rt.mem().kind(), SystemKind::Discrete(_)));
        // Environment-resolved fallback is selection, not degradation.
        assert!(rt.degraded_from().is_none());
    }

    #[test]
    fn mem_options_flow_through() {
        let rt = OmpRuntime::builder(cost(), Topology::default())
            .config(RuntimeConfig::LegacyCopy)
            .mem_options(MemOptions::default().pagewise(true))
            .build()
            .unwrap();
        assert!(rt.mem().is_pagewise());
    }
}
