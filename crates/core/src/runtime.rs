//! The OpenMP offloading runtime (libomptarget analog).
//!
//! One [`OmpRuntime`] instance drives one application run in one of the four
//! configurations. Host threads (identified by index, mirroring OpenMP host
//! threads offloading to the same device) issue data-environment operations
//! and target regions; the runtime translates them into HSA calls according
//! to the active configuration and attributes overheads to the MM/MI ledger.

use crate::builder::{Instrumentation, RuntimeBuilder};
use crate::config::RuntimeConfig;
use crate::diag::Diagnostic;
use crate::elide::ElideMode;
use crate::error::OmpError;
use crate::globals::{GlobalId, GlobalRegistry};
use crate::kernel::{KernelCtx, TargetRegion};
use crate::mapir::{KernelOp, MapIr, MapOp};
use crate::mapping::{MapDir, MapEntry, Presence};
use crate::sanitize::{MapSanitizer, SanitizerReport};
use crate::shard::{MapLookupCache, ShardedMappingTable};
use crate::telemetry::{ElideProbe, EventKind, Recorder, TelemetryReport};
use crate::trace::{KernelTraceEntry, OverheadLedger, RecoveryAction, RecoveryEvent};
use apu_mem::{AddrRange, ApuMemory, CostModel, MemError, MemStats, VirtAddr, XnackMode};
use hsa_rocr::{ApiStats, HsaRunResult, HsaRuntime, Topology};
use sim_des::{AsyncToken, Backoff, FaultStats, RunOptions, Schedule, VirtDuration};
use std::sync::Arc;

/// Call attempts per recovery episode (first try plus retries). It must
/// exceed the fault plan's `max_burst` for recovery to be guaranteed; the
/// shipped fault specs burst at most twice.
const MAX_ATTEMPTS: u32 = 4;
/// Virtual-time delay schedule between attempts.
const BACKOFF: Backoff = Backoff::default_policy();

/// Everything measured in one completed run.
#[derive(Debug)]
pub struct RunReport {
    /// The configuration that ran.
    pub config: RuntimeConfig,
    /// Host threads used.
    pub threads: usize,
    /// Total virtual execution time.
    pub makespan: VirtDuration,
    /// rocprof-style per-API statistics (Table I).
    pub api_stats: ApiStats,
    /// MM/MI overhead decomposition (Table III).
    pub ledger: OverheadLedger,
    /// Memory-subsystem counters.
    pub mem_stats: MemStats,
    /// The full schedule (per-op latencies, resource utilization).
    pub schedule: Schedule,
    /// Kernel trace, when enabled.
    pub kernel_trace: Vec<KernelTraceEntry>,
    /// What the attached fault plan injected (zeroes on healthy runs).
    pub fault_stats: FaultStats,
    /// When startup degradation replaced the requested configuration, the
    /// configuration originally asked for.
    pub degraded_from: Option<RuntimeConfig>,
    /// Map-sanitizer findings, when the runtime was built with
    /// [`RuntimeBuilder::sanitize`](crate::RuntimeBuilder::sanitize).
    pub sanitizer: Option<SanitizerReport>,
    /// Collected telemetry stream, when the runtime was built with
    /// [`RuntimeBuilder::telemetry`](crate::RuntimeBuilder::telemetry).
    pub telemetry: Option<TelemetryReport>,
    /// `(hits, misses)` observed by the mapping table's extent-keyed
    /// presence lookup cache over the whole run.
    pub mapping_cache: (u64, u64),
}

/// The OpenMP offloading runtime for one run.
pub struct OmpRuntime {
    hsa: HsaRuntime,
    config: RuntimeConfig,
    xnack: XnackMode,
    /// The mapping table — possibly shared with other tenants of a
    /// [`crate::tenant::TenantPool`]; a solo runtime owns its `Arc` alone.
    mapping: Arc<ShardedMappingTable>,
    /// This runtime's private presence lookup cache (the zero-contention
    /// fast path). Invalidated at this runtime's own insert/remove sites;
    /// sound across tenants because their VA windows are disjoint.
    lookup: MapLookupCache,
    /// Live entries *this* runtime inserted (the shared table's `len()`
    /// counts every tenant's).
    live_maps: usize,
    /// Host-VA window `[lo, hi)` owned by this tenant, when the table is
    /// shared; bounds the end-of-program leak scan to our own entries.
    window: Option<(u64, u64)>,
    globals: GlobalRegistry,
    threads: usize,
    trace_kernels: bool,
    kernel_trace: Vec<KernelTraceEntry>,
    /// Outstanding `target nowait` regions per thread: (token, deferred
    /// exit maps).
    pending_nowait: Vec<Vec<(AsyncToken, Vec<MapEntry>)>>,
    /// Configuration degradation at startup, if any.
    degraded_from: Option<RuntimeConfig>,
    /// XNACK capability was lost mid-run: dispatches prefault their access
    /// sets host-side so kernels never hit a fatal fault.
    xnack_lost: bool,
    /// Capture mode: data-environment directives are recorded here instead
    /// of executing (address-producing calls still execute so the stream
    /// carries real addresses).
    capture: Option<MapIr>,
    /// Sanitizer mode: dynamic invariant checking alongside execution.
    sanitizer: Option<MapSanitizer>,
    /// How MC007-redundant maps are handled (promotion to `alloc`).
    elide: ElideMode,
    /// Data-environment operation counter, advanced identically on capture
    /// and on execution so plan-mode elision sites (keyed by capture op
    /// index) line up when the same program runs for real.
    op_counter: u64,
    /// The ledger and, telemetry on, the event ring: every charge and
    /// every event goes through its one mutator.
    recorder: Recorder,
    /// Sanitizer diagnostics already recorded as `Sanitizer` events.
    san_seen: usize,
}

impl OmpRuntime {
    /// Start building a runtime: the single construction path composing
    /// configuration, system kind, environment resolution, memory options
    /// and fault plan.
    pub fn builder(cost: CostModel, topo: Topology) -> RuntimeBuilder {
        RuntimeBuilder::new(cost, topo)
    }

    /// Assemble a runtime from an initialized HSA layer (builder only).
    pub(crate) fn from_parts(
        hsa: HsaRuntime,
        config: RuntimeConfig,
        threads: usize,
        degraded_from: Option<RuntimeConfig>,
        instr: Instrumentation,
    ) -> Self {
        let mut rt = OmpRuntime {
            hsa,
            config,
            xnack: config.xnack(),
            mapping: instr
                .table
                .unwrap_or_else(|| Arc::new(ShardedMappingTable::new())),
            lookup: MapLookupCache::new(),
            live_maps: 0,
            window: instr.window,
            globals: GlobalRegistry::new(),
            threads,
            trace_kernels: false,
            kernel_trace: Vec::new(),
            pending_nowait: vec![Vec::new(); threads],
            degraded_from,
            xnack_lost: false,
            capture: instr.capture.then(MapIr::new),
            // Capture wins: recorded directives never execute, so there is
            // nothing for a sanitizer to observe.
            sanitizer: (instr.sanitize && !instr.capture).then(|| MapSanitizer::new(config)),
            elide: instr.elide,
            op_counter: 0,
            recorder: Recorder::new(instr.telemetry),
            san_seen: 0,
        };
        if instr.metrics.is_on() {
            rt.mapping.enable_metrics();
        }
        if let Some(from) = degraded_from {
            rt.charge_recovery(
                0,
                0,
                RecoveryAction::StartupDegradation { from, to: config },
            );
        }
        rt
    }

    /// The active configuration.
    pub fn config(&self) -> RuntimeConfig {
        self.config
    }

    /// When startup degradation replaced the requested configuration, the
    /// configuration originally asked for.
    pub fn degraded_from(&self) -> Option<RuntimeConfig> {
        self.degraded_from
    }

    /// What the attached fault plan injected so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.hsa.fault_stats()
    }

    /// Host-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Live mapping-table entries this runtime inserted (diagnostics).
    pub fn live_mappings(&self) -> usize {
        self.live_maps
    }

    /// `(hits, misses)` observed by this runtime's extent-keyed presence
    /// lookup cache (the online-elision hot path).
    pub fn mapping_cache_stats(&self) -> (u64, u64) {
        self.lookup.stats()
    }

    /// Telemetry events evicted by ring overflow so far (0 when off). While
    /// it is zero, folding the stream gives back [`ledger`](Self::ledger)
    /// field for field.
    pub fn telemetry_dropped(&self) -> u64 {
        self.recorder.dropped()
    }

    /// FNV-1a digest over every live virtual memory area: address, length,
    /// and full contents (sparse pages read as zeros). Two runs of the same
    /// program digest equal iff they left bit-identical memory behind —
    /// this is how the harness asserts elision never changes results.
    ///
    /// Contents are folded where they live, as the spans of
    /// [`ApuMemory::vma_spans`]: materialized chunks are hashed in place and
    /// unmaterialized runs through [`Fnv1a::write_zeros`], so the digest
    /// allocates and copies nothing. The fold still absorbs every byte.
    ///
    /// [`Fnv1a::write_zeros`]: crate::digest::Fnv1a::write_zeros
    pub fn memory_digest(&self) -> u64 {
        let mut h = crate::digest::Fnv1a::new();
        let mem = self.mem();
        for vma in mem.vmas() {
            h.write_u64(vma.range.start.as_u64());
            h.write_u64(vma.range.len);
            mem.vma_spans(vma, |bytes, n| match bytes {
                Some(b) => h.write(b),
                None => h.write_zeros(n),
            });
        }
        h.finish()
    }

    /// The overhead ledger so far.
    pub fn ledger(&self) -> &OverheadLedger {
        self.recorder.ledger()
    }

    /// The shard-contention report of the underlying mapping table
    /// (all-zero unless built with
    /// [`MetricsMode::On`](crate::metrics::MetricsMode)).
    pub fn contention(&self) -> crate::shard::ShardContention {
        self.mapping.contention()
    }

    /// Direct memory access (test setup: initializing host buffers).
    pub fn mem_mut(&mut self) -> &mut ApuMemory {
        self.hsa.mem_mut()
    }

    /// Read-only memory access.
    pub fn mem(&self) -> &ApuMemory {
        self.hsa.mem()
    }

    /// Enable the kernel trace (`LIBOMPTARGET_KERNEL_TRACE` analog).
    pub fn set_kernel_trace(&mut self, on: bool) {
        self.trace_kernels = on;
    }

    /// Allocate host (OS) memory on behalf of `thread`.
    pub fn host_alloc(&mut self, thread: usize, len: u64) -> Result<VirtAddr, OmpError> {
        let addr = self.hsa.host_alloc(thread, len)?;
        self.record(
            thread,
            MapOp::HostAlloc {
                range: AddrRange::new(addr, len),
            },
        );
        Ok(addr)
    }

    /// Free host memory. GPU translations for the region are torn down, so
    /// re-allocated regions fault again on first GPU touch.
    pub fn host_free(&mut self, thread: usize, addr: VirtAddr) -> Result<(), OmpError> {
        self.record(thread, MapOp::HostFree { addr });
        Ok(self.hsa.host_free(thread, addr)?)
    }

    /// Host-side write to `range` (CPU initialization or update of a
    /// buffer): faults the pages in host-side, informs the sanitizer's
    /// staleness clocks, and is recorded in capture mode. Workloads use this
    /// instead of touching [`mem_mut`](Self::mem_mut) directly so host-side
    /// data traffic is visible to the checking passes.
    pub fn host_write(&mut self, thread: usize, range: AddrRange) -> Result<(), OmpError> {
        self.record(thread, MapOp::HostWrite { range });
        if let Some(s) = &mut self.sanitizer {
            s.on_host_write(thread as u32, range);
        }
        self.sync_sanitizer_events(thread);
        self.hsa.mem_mut().host_touch(range)?;
        Ok(())
    }

    /// Host-side read of `range` (result consumption, convergence checks).
    /// Pure bookkeeping: checks the sanitizer's staleness clocks (MC004) and
    /// is recorded in capture mode.
    pub fn host_read(&mut self, thread: usize, range: AddrRange) {
        self.record(thread, MapOp::HostRead { range });
        if let Some(s) = &mut self.sanitizer {
            s.on_host_read(thread as u32, range);
        }
        self.sync_sanitizer_events(thread);
    }

    /// Host-side compute on `thread` (advances its virtual clock).
    pub fn host_compute(&mut self, thread: usize, duration: VirtDuration) {
        self.hsa.host_compute(thread, duration);
    }

    /// `omp_target_alloc`: explicit device allocation. Returns a device
    /// pointer usable in target regions via
    /// [`TargetRegion::access`](crate::TargetRegion::access) (it is
    /// GPU-translated in every configuration — pool memory is bulk-faulted
    /// at allocation).
    pub fn omp_target_alloc(&mut self, thread: usize, len: u64) -> Result<VirtAddr, OmpError> {
        let a0 = self.anchor(thread);
        let d = self.pool_allocate_recovered(thread, len)?;
        let pages = self.mem().page_size().pages_covering(d, len);
        let cost = self.mem().cost().pool_alloc_cost(pages);
        self.charge(
            thread,
            a0,
            EventKind::PoolAlloc {
                range: AddrRange::new(d, len),
                cost,
            },
        );
        self.record(
            thread,
            MapOp::PoolAlloc {
                range: AddrRange::new(d, len),
            },
        );
        if let Some(s) = &mut self.sanitizer {
            s.on_pool_alloc(AddrRange::new(d, len));
        }
        self.sync_sanitizer_events(thread);
        Ok(d)
    }

    /// `omp_target_free`.
    pub fn omp_target_free(&mut self, thread: usize, addr: VirtAddr) -> Result<(), OmpError> {
        self.record(thread, MapOp::PoolFree { addr });
        if let Some(s) = &mut self.sanitizer {
            s.on_pool_free(addr);
        }
        self.sync_sanitizer_events(thread);
        self.hsa.pool_free(thread, addr)?;
        Ok(())
    }

    /// `omp_target_memcpy`: explicit transfer between any two accessible
    /// buffers (host or device side; under `unified_shared_memory`, "host
    /// pointers may be passed as device pointer arguments to device memory
    /// routines" — which works here in any configuration because the APU
    /// shares storage).
    pub fn omp_target_memcpy(
        &mut self,
        thread: usize,
        dst: VirtAddr,
        src: VirtAddr,
        len: u64,
    ) -> Result<(), OmpError> {
        self.issue_copy(thread, src, dst, len, false)
    }

    /// Register a `declare target` global of `len` bytes. In configurations
    /// with Copy-style global handling, a device copy is pool-allocated; in
    /// USM, device code indirects into the host storage.
    pub fn declare_target_global(&mut self, thread: usize, len: u64) -> Result<GlobalId, OmpError> {
        let host = self.hsa.host_alloc(thread, len)?;
        let device = if self.config.globals_as_copy() {
            let a0 = self.anchor(thread);
            let d = self.pool_allocate_recovered(thread, len)?;
            let pages = self.mem().page_size().pages_covering(d, len);
            let cost = self.mem().cost().pool_alloc_cost(pages);
            self.charge(
                thread,
                a0,
                EventKind::PoolAlloc {
                    range: AddrRange::new(host, len),
                    cost,
                },
            );
            Some(d)
        } else {
            None
        };
        let id = self.globals.register(AddrRange::new(host, len), device);
        self.record(
            thread,
            MapOp::GlobalDecl {
                id: id.0,
                host: AddrRange::new(host, len),
            },
        );
        Ok(id)
    }

    /// Host address of a global (for CPU-side initialization).
    pub fn global_host(&self, id: GlobalId) -> Result<AddrRange, OmpError> {
        Ok(self.globals.get(id)?.host)
    }

    /// `omp_target_is_present`: is `addr` mapped into the device data
    /// environment? In zero-copy configurations presence still reflects the
    /// mapping table (the bookkeeping exists even though storage is shared).
    pub fn is_present(&self, addr: VirtAddr) -> bool {
        self.mapping.find(addr).is_some()
    }

    /// `#pragma omp target enter data map(...)`.
    pub fn target_enter_data(
        &mut self,
        thread: usize,
        entries: &[MapEntry],
    ) -> Result<(), OmpError> {
        for e in entries {
            let op_idx = self.record(thread, MapOp::MapEnter { entry: *e });
            if self.capture.is_none() {
                let mut entry = [*e];
                self.elide_rewrite(thread, &mut entry, op_idx);
                self.begin_map(thread, &entry[0])?;
            }
        }
        Ok(())
    }

    /// `#pragma omp target exit data map(...)`. `delete` forces removal
    /// regardless of reference count (`map(delete: ...)`).
    pub fn target_exit_data(
        &mut self,
        thread: usize,
        entries: &[MapEntry],
        delete: bool,
    ) -> Result<(), OmpError> {
        for e in entries {
            self.record(thread, MapOp::MapExit { entry: *e, delete });
            if self.capture.is_none() {
                self.end_map(thread, e, delete)?;
            }
        }
        Ok(())
    }

    /// `#pragma omp target data map(...) { ... }` — the structured data
    /// construct: enters the data environment, runs `body` with the
    /// runtime, and exits the environment even if nothing inside launched.
    /// Mirrors the lexical scoping of the pragma.
    pub fn target_data<R>(
        &mut self,
        thread: usize,
        entries: &[MapEntry],
        body: impl FnOnce(&mut Self) -> Result<R, OmpError>,
    ) -> Result<R, OmpError> {
        self.target_enter_data(thread, entries)?;
        let result = body(self)?;
        self.target_exit_data(thread, entries, false)?;
        Ok(result)
    }

    /// `#pragma omp target update to(...) from(...)`. A storage operation
    /// only in the Copy configuration; zero-copy configurations share the
    /// physical pages, so the update is already visible.
    pub fn target_update(
        &mut self,
        thread: usize,
        to: &[AddrRange],
        from: &[AddrRange],
    ) -> Result<(), OmpError> {
        if self.capture.is_some() {
            self.record(
                thread,
                MapOp::Update {
                    to: to.to_vec(),
                    from: from.to_vec(),
                },
            );
            return Ok(());
        }
        self.note_op();
        if !self.config.is_zero_copy() {
            if self.sanitizer.is_some() {
                let tov: Vec<(AddrRange, Presence)> =
                    to.iter().map(|r| (*r, self.mapping.presence(r))).collect();
                let fromv: Vec<(AddrRange, Presence)> = from
                    .iter()
                    .map(|r| (*r, self.mapping.presence(r)))
                    .collect();
                if let Some(s) = &mut self.sanitizer {
                    s.on_update(thread as u32, &tov, &fromv);
                }
                self.sync_sanitizer_events(thread);
            }
            for r in to {
                let dev = self.require_translation(r)?;
                self.issue_copy(thread, r.start, dev, r.len, false)?;
            }
            for r in from {
                let dev = self.require_translation(r)?;
                self.issue_copy(thread, dev, r.start, r.len, true)?;
            }
        }
        Ok(())
    }

    /// Execute one `target` construct: enter its implicit data environment,
    /// transfer referenced globals (per-configuration), launch the kernel
    /// (resolving its access set against the GPU page table), run the real
    /// body if present, and exit the data environment.
    pub fn target(&mut self, thread: usize, region: TargetRegion<'_>) -> Result<(), OmpError> {
        self.launch(thread, region, false)
    }

    /// `#pragma omp target nowait`: like [`target`](Self::target), but the
    /// host thread continues immediately after dispatch. The region's exit
    /// maps (`from`-transfers, releases) are deferred until the matching
    /// [`taskwait`](Self::taskwait), as in real deferred target tasks.
    ///
    /// The body (if any) executes immediately against memory — callers must
    /// not read results on the host before `taskwait` (a data race under
    /// real OpenMP as well).
    pub fn target_nowait(
        &mut self,
        thread: usize,
        region: TargetRegion<'_>,
    ) -> Result<(), OmpError> {
        self.launch(thread, region, true)
    }

    /// The body of [`target`](Self::target) and
    /// [`target_nowait`](Self::target_nowait): `nowait` selects the
    /// asynchronous dispatch and defers the exit maps to `taskwait`.
    fn launch(
        &mut self,
        thread: usize,
        region: TargetRegion<'_>,
        nowait: bool,
    ) -> Result<(), OmpError> {
        let TargetRegion {
            name,
            mut maps,
            raw_accesses,
            globals,
            compute,
            body,
        } = region;

        if self.capture.is_some() {
            let op = MapOp::Kernel(KernelOp {
                name: name.to_string(),
                maps,
                raw: raw_accesses,
                globals: globals.iter().map(|g| g.0).collect(),
                nowait,
            });
            self.record(thread, op);
            return Ok(());
        }

        let op_idx = self.note_op();
        // Elision rewrites the map list up front so everything downstream —
        // begin maps, the sanitizer's kernel hook, argument translation,
        // and the exit maps (deferred to `taskwait` under nowait) — sees the
        // promoted `alloc` entries.
        self.elide_rewrite(thread, &mut maps, op_idx);
        for e in &maps {
            self.begin_map(thread, e)?;
        }
        if let Some(s) = &mut self.sanitizer {
            s.on_kernel(thread as u32, &maps, &raw_accesses);
        }
        self.sync_sanitizer_events(thread);

        // Globals: Copy-style handling issues a system-to-system transfer
        // per target (map(always, to) semantics); USM indirects.
        let mut access: Vec<AddrRange> = Vec::with_capacity(maps.len() + globals.len());
        let mut global_addrs = Vec::with_capacity(globals.len());
        for gid in &globals {
            let g = self.globals.get(*gid)?.clone();
            if let Some(dev) = g.device {
                self.issue_copy(thread, g.host.start, dev, g.host.len, false)?;
            }
            let gr = g.gpu_range();
            access.push(gr);
            global_addrs.push(gr.start);
        }

        // Kernel argument translation: in Copy mode, device buffers; in
        // zero-copy modes, the host pointers themselves.
        let mut args = Vec::with_capacity(maps.len());
        for e in &maps {
            let dev = self.require_translation(&e.range)?;
            access.push(AddrRange::new(dev, e.range.len));
            args.push(dev);
        }

        // Raw (unmapped) host-pointer dereferences: passed through verbatim.
        // Under XNACK configurations they demand-fault; under Copy or Eager
        // Maps the GPU has no translation and the access is fatal — USM-only
        // programs are not portable to those configurations (paper §IV-B).
        access.extend(raw_accesses.iter().copied());

        self.prepare_dispatch(thread, &access)?;
        let a0 = self.anchor(thread);
        let xnack = self.xnack;
        let (out, token) = self.with_retry(thread, RecoveryAction::RetriedDispatch, |hsa| {
            if nowait {
                hsa.dispatch_kernel_nowait(thread, compute, &access, xnack)
                    .map(|(out, token)| (out, Some(token)))
            } else {
                hsa.dispatch_kernel(thread, compute, &access, xnack)
                    .map(|out| (out, None))
            }
        })?;
        let cost = self.mem().cost();
        let fault_stall = cost.fault_stall(out.replayed_pages, out.zero_filled_pages);
        let tlb_stall = cost.tlb_miss * out.tlb_misses;
        let name: Arc<str> = Arc::from(name);
        self.recorder.record(
            thread as u32,
            a0,
            a0,
            EventKind::KernelLaunch {
                name: Arc::clone(&name),
                compute,
            },
        );
        if self.trace_kernels {
            self.kernel_trace.push(KernelTraceEntry {
                name: Arc::clone(&name),
                thread: thread as u32,
                compute,
                stall: out.stall,
                faulted_pages: out.faulted_pages(),
            });
        }
        self.charge(
            thread,
            a0,
            EventKind::KernelComplete {
                name,
                compute,
                fault_stall,
                tlb_stall,
                replayed_pages: out.replayed_pages,
                zero_filled_pages: out.zero_filled_pages,
            },
        );

        if let Some(body) = body {
            let mut ctx = KernelCtx::new(self.hsa.mem_mut(), args, global_addrs);
            body(&mut ctx)?;
        }

        match token {
            Some(token) => self.pending_nowait[thread].push((token, maps)),
            None => {
                for e in &maps {
                    self.end_map(thread, e, false)?;
                }
            }
        }
        Ok(())
    }

    /// `#pragma omp taskwait`: block `thread` until all of its outstanding
    /// `target nowait` regions complete, then run their deferred exit maps.
    pub fn taskwait(&mut self, thread: usize) -> Result<(), OmpError> {
        self.record(thread, MapOp::Taskwait);
        let pending = std::mem::take(&mut self.pending_nowait[thread]);
        let tokens: Vec<AsyncToken> = pending.iter().map(|(t, _)| *t).collect();
        self.hsa.await_kernels(thread, &tokens);
        for (_, maps) in pending {
            for e in &maps {
                self.end_map(thread, e, false)?;
            }
        }
        Ok(())
    }

    /// Outstanding `target nowait` regions not yet reclaimed by a
    /// [`taskwait`](Self::taskwait) (diagnostics: should be 0 at finish).
    pub fn pending_nowaits(&self) -> usize {
        self.pending_nowait.iter().map(Vec::len).sum()
    }

    /// True when this runtime records MapIR instead of executing the data
    /// environment (built with [`RuntimeBuilder::capture`](crate::RuntimeBuilder::capture)).
    pub fn is_capturing(&self) -> bool {
        self.capture.is_some()
    }

    /// Take the MapIR captured so far (capture mode only; `None` otherwise
    /// or when already taken).
    pub fn take_mapir(&mut self) -> Option<MapIr> {
        self.capture.take()
    }

    /// Sanitizer diagnostics recorded so far (empty when the sanitizer is
    /// off). End-of-program leak checks only appear after
    /// [`sanitizer_finalize`](Self::sanitizer_finalize) or `finish`.
    pub fn sanitizer_diagnostics(&self) -> &[Diagnostic] {
        self.sanitizer.as_ref().map_or(&[], |s| s.diagnostics())
    }

    /// Run the sanitizer's end-of-program checks (leaked mappings → MC001)
    /// against the live table and return everything found. Idempotent;
    /// `finish` runs it too, so call it directly when a run aborts early
    /// and `finish` is never reached.
    pub fn sanitizer_finalize(&mut self) -> &[Diagnostic] {
        if self.sanitizer.is_some() {
            let live = self.live_snapshot();
            if let Some(s) = &mut self.sanitizer {
                s.end_of_program(&live);
            }
            self.sync_sanitizer_events(0);
        }
        self.sanitizer_diagnostics()
    }

    /// The live table entries this runtime is responsible for, sorted by
    /// host start — the whole table for a solo runtime, our VA window's
    /// slice when the table is shared.
    fn live_snapshot(&self) -> Vec<crate::mapping::Mapping> {
        match self.window {
            Some((lo, hi)) => self.mapping.snapshot_window(lo, hi),
            None => self.mapping.snapshot(),
        }
    }

    /// Advance the operation counter: one tick per data-environment
    /// operation, in the exact order capture mode records them. Execute
    /// paths that don't call [`record`](Self::record) (kernels, updates)
    /// tick it directly so plan-mode elision sites — keyed by capture op
    /// index — resolve against the same numbering at execution time.
    fn note_op(&mut self) -> u64 {
        let idx = self.op_counter;
        self.op_counter += 1;
        idx
    }

    /// Append to the capture stream (no-op unless in capture mode) and
    /// return the operation's stream index.
    fn record(&mut self, thread: usize, op: MapOp) -> u64 {
        let idx = self.note_op();
        if let Some(ir) = &mut self.capture {
            ir.push(thread as u32, op);
        }
        idx
    }

    /// Telemetry anchor: `thread`'s op-stream cursor "now". Captured before
    /// the HSA work a charge covers; the resolved schedule turns it into a
    /// virtual timestamp (see [`crate::telemetry::resolve`]).
    fn anchor(&self, thread: usize) -> u32 {
        self.hsa.thread_ops(thread) as u32
    }

    /// Record a charged event spanning `a0` to `thread`'s current cursor.
    /// Every charge goes through here, after the HSA work it covers;
    /// instantaneous events pass the current cursor as `a0`.
    fn charge(&mut self, thread: usize, a0: u32, kind: EventKind) {
        let a1 = self.anchor(thread);
        self.recorder.record(thread as u32, a0, a1, kind);
    }

    /// Charge a recovery episode or degradation (instantaneous): the
    /// ledger counts it and the stream carries it as a `Recovery` event.
    fn charge_recovery(&mut self, thread: usize, attempts: u32, action: RecoveryAction) {
        let event = RecoveryEvent {
            thread: thread as u32,
            attempts,
            action,
        };
        self.charge(thread, self.anchor(thread), EventKind::Recovery { event });
    }

    /// Record sanitizer diagnostics found since the last sync as verdict
    /// events (instantaneous at `thread`'s cursor). Called after every
    /// sanitizer hook site.
    fn sync_sanitizer_events(&mut self, thread: usize) {
        let Some(s) = &self.sanitizer else { return };
        let diags = s.diagnostics();
        if diags.len() > self.san_seen {
            let a = self.anchor(thread);
            for d in &diags[self.san_seen..] {
                self.recorder
                    .record(thread as u32, a, a, EventKind::Sanitizer { code: d.code });
            }
            self.san_seen = diags.len();
        }
    }

    /// The elision optimization pass: rewrite MC007-eligible entries in
    /// `maps` — present extent, transfer direction, no `always` — into
    /// no-transfer `alloc` maps, per the active [`ElideMode`].
    ///
    /// Eligibility is evaluated against the table state *before* the
    /// enclosing construct begins any of its own maps (the whole vector is
    /// rewritten up front): presence then implies an enclosing reference
    /// that outlives this construct, so neither the suppressed entry
    /// transfer nor the exit-side from-transfer decision can change — the
    /// rewrite only removes the per-entry transfer-decision service cost
    /// (see DESIGN.md §11). Two maps of the same extent within one
    /// construct are deliberately *not* treated as making each other
    /// present.
    ///
    /// Online mode charges the (cached) presence probe under Copy data
    /// handling; plan mode charges nothing. Zero-copy configurations charge
    /// neither the service cost nor the probe, so elision is
    /// makespan-neutral there.
    fn elide_rewrite(&mut self, thread: usize, maps: &mut [MapEntry], op_idx: u64) {
        if self.elide == ElideMode::Off {
            return;
        }
        let online = self.elide == ElideMode::Online;
        let zc = self.config.is_zero_copy();
        let (svc, hit_cost, miss_cost) = {
            let c = self.mem().cost();
            (c.map_service, c.map_lookup_hit, c.map_lookup_miss)
        };
        for (i, entry) in maps.iter_mut().enumerate() {
            let e = *entry;
            if e.dir == MapDir::Alloc || e.always {
                continue;
            }
            let (probe, lookup, saved) = if online {
                let (presence, hit) = self.mapping.presence_cached(&self.lookup, &e.range);
                if presence != Presence::Present {
                    continue;
                }
                let probe = if hit {
                    ElideProbe::CacheHit
                } else {
                    ElideProbe::CacheMiss
                };
                let lookup = if zc {
                    VirtDuration::ZERO
                } else if hit {
                    hit_cost
                } else {
                    miss_cost
                };
                let saved = if zc { VirtDuration::ZERO } else { svc - lookup };
                (probe, lookup, saved)
            } else {
                let planned = match &self.elide {
                    ElideMode::Plan(p) => p.contains(op_idx, i as u32),
                    _ => unreachable!("Off and Online handled above"),
                };
                if !planned {
                    continue;
                }
                let saved = if zc { VirtDuration::ZERO } else { svc };
                (ElideProbe::Planned, VirtDuration::ZERO, saved)
            };
            let a0 = self.anchor(thread);
            if online && !zc {
                self.hsa.host_compute(thread, lookup);
            }
            self.charge(
                thread,
                a0,
                EventKind::Elide {
                    range: e.range,
                    probe,
                    lookup,
                    saved,
                },
            );
            *entry = MapEntry::alloc(e.range);
        }
    }

    /// Finish the run: resolve the schedule and collect all statistics.
    pub fn finish(self) -> RunReport {
        self.finish_with(&RunOptions::noiseless())
    }

    /// Finish once per seed: the recorded program is scheduled repeatedly
    /// under different noise seeds (the paper's N-runs methodology).
    /// Returns the full report for the first seed plus every makespan.
    pub fn finish_replicated(
        self,
        opts: &RunOptions,
        seeds: &[u64],
    ) -> (RunReport, Vec<VirtDuration>) {
        self.finish_by(|hsa| {
            let results = hsa.finish_many(opts, seeds);
            let makespans = results.iter().map(|r| r.makespan()).collect();
            let first = results.into_iter().next().expect("at least one seed");
            (first, makespans)
        })
    }

    /// Finish with explicit scheduling options (noise model, seed).
    pub fn finish_with(self, opts: &RunOptions) -> RunReport {
        self.finish_by(|hsa| (hsa.finish(opts), ())).0
    }

    /// The one body behind both finishes: run the end-of-program sanitizer
    /// scan, collect the counters, and let `resolve` schedule the recorded
    /// streams (the report takes its schedule from the result it returns).
    fn finish_by<T>(
        mut self,
        resolve: impl FnOnce(HsaRuntime) -> (HsaRunResult, T),
    ) -> (RunReport, T) {
        self.sanitizer_finalize();
        let sanitizer = self.sanitizer.take().map(MapSanitizer::into_report);
        let mem_stats = self.hsa.mem().stats();
        let fault_stats = self.hsa.fault_stats();
        let mapping_cache = self.lookup.stats();
        let (ledger, telemetry) = self.recorder.into_report();
        let (result, extra) = resolve(self.hsa);
        let report = RunReport {
            config: self.config,
            threads: self.threads,
            makespan: result.makespan(),
            api_stats: result.api_stats,
            ledger,
            mem_stats,
            schedule: result.schedule,
            kernel_trace: self.kernel_trace,
            fault_stats,
            degraded_from: self.degraded_from,
            sanitizer,
            telemetry,
            mapping_cache,
        };
        (report, extra)
    }

    // ---- internals ----

    fn require_translation(&self, range: &AddrRange) -> Result<VirtAddr, OmpError> {
        self.mapping
            .translate(range.start)
            .ok_or(OmpError::KernelDataNotPresent { range: *range })
    }

    fn issue_copy(
        &mut self,
        thread: usize,
        src: VirtAddr,
        dst: VirtAddr,
        len: u64,
        with_handler: bool,
    ) -> Result<(), OmpError> {
        let a0 = self.anchor(thread);
        self.with_retry(thread, RecoveryAction::RetriedCopy, |hsa| {
            hsa.async_copy(thread, src, dst, len, with_handler)
        })?;
        let cost = self.mem().transfer_duration(src, dst, len);
        // Attribute the copy to its host-side extent: the destination for
        // device-to-host transfers, the source otherwise.
        let range = if with_handler {
            AddrRange::new(dst, len)
        } else {
            AddrRange::new(src, len)
        };
        self.charge(
            thread,
            a0,
            EventKind::Copy {
                range,
                bytes: len,
                cost,
                to_host: with_handler,
            },
        );
        Ok(())
    }

    /// Run one HSA call under the recovery policy: injected transient
    /// failures back off and retry until the attempt budget runs out, and a
    /// call that succeeds after retries is logged as `action`.
    fn with_retry<T>(
        &mut self,
        thread: usize,
        action: RecoveryAction,
        mut call: impl FnMut(&mut HsaRuntime) -> Result<T, MemError>,
    ) -> Result<T, OmpError> {
        let mut attempt: u32 = 0;
        loop {
            match call(&mut self.hsa) {
                Ok(v) => {
                    if attempt > 0 {
                        self.charge_recovery(thread, attempt + 1, action);
                    }
                    return Ok(v);
                }
                Err(MemError::Injected { kind }) => {
                    attempt += 1;
                    if attempt >= MAX_ATTEMPTS {
                        return Err(OmpError::RecoveryExhausted {
                            kind,
                            attempts: attempt,
                        });
                    }
                    self.charge_backoff(thread, attempt);
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Virtual-time retry delay between attempts, charged to the issuing
    /// thread and the recovery ledger.
    fn charge_backoff(&mut self, thread: usize, attempt: u32) {
        let a0 = self.anchor(thread);
        let d = BACKOFF.delay(attempt);
        self.hsa.recovery_wait(thread, d);
        self.charge(thread, a0, EventKind::Backoff { attempt, delay: d });
    }

    /// Pool allocation under the recovery policy: injected transient
    /// failures back off and retry; real VRAM exhaustion on discrete systems
    /// is relieved by evicting resident unified-memory pages, then retried.
    /// When eviction frees nothing the original out-of-memory error
    /// propagates — the policy never spins on a hopeless allocation.
    fn pool_allocate_recovered(&mut self, thread: usize, len: u64) -> Result<VirtAddr, OmpError> {
        let mut attempt: u32 = 0;
        let mut evicted_total: u64 = 0;
        loop {
            match self.hsa.pool_allocate(thread, len) {
                Ok(addr) => {
                    if attempt > 0 {
                        let action = if evicted_total > 0 {
                            RecoveryAction::EvictedThenRetriedAlloc {
                                pages: evicted_total,
                            }
                        } else {
                            RecoveryAction::RetriedAlloc
                        };
                        self.charge_recovery(thread, attempt + 1, action);
                    }
                    return Ok(addr);
                }
                Err(MemError::Injected { kind }) => {
                    attempt += 1;
                    if attempt >= MAX_ATTEMPTS {
                        return Err(OmpError::RecoveryExhausted {
                            kind,
                            attempts: attempt,
                        });
                    }
                    self.charge_backoff(thread, attempt);
                }
                Err(MemError::OutOfMemory {
                    requested,
                    available,
                }) => {
                    attempt += 1;
                    let deficit = requested.saturating_sub(available).max(1);
                    let pages = deficit.div_ceil(self.mem().page_size().bytes());
                    let a0 = self.anchor(thread);
                    let evicted = if attempt < MAX_ATTEMPTS {
                        self.hsa.evict_um_pages(thread, pages.max(1))
                    } else {
                        0
                    };
                    if evicted == 0 {
                        return Err(MemError::OutOfMemory {
                            requested,
                            available,
                        }
                        .into());
                    }
                    evicted_total += evicted;
                    self.charge(thread, a0, EventKind::Evicted { pages: evicted });
                    self.charge_backoff(thread, attempt);
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Pre-dispatch fault handling: consume a scheduled mid-run XNACK loss,
    /// and — once XNACK is gone — prefault the kernel's access set host-side
    /// (Eager-Maps-style degradation) so demand paging is never needed.
    fn prepare_dispatch(&mut self, thread: usize, access: &[AddrRange]) -> Result<(), OmpError> {
        let kernels = self.ledger().kernels;
        let flipped = self
            .hsa
            .fault_plan_mut()
            .is_some_and(|p| p.xnack_flip_due(kernels));
        if flipped && self.xnack == XnackMode::Enabled {
            self.xnack = XnackMode::Disabled;
            self.xnack_lost = true;
            self.charge_recovery(thread, 0, RecoveryAction::XnackLost);
        }
        if self.xnack_lost {
            for r in access {
                if r.len == 0 {
                    continue;
                }
                let a0 = self.anchor(thread);
                let out = self.hsa.svm_prefault(thread, *r)?;
                self.charge(
                    thread,
                    a0,
                    EventKind::Prefault {
                        range: *r,
                        cost: out.cost,
                        recovery: true,
                    },
                );
            }
        }
        Ok(())
    }

    fn begin_map(&mut self, thread: usize, e: &MapEntry) -> Result<(), OmpError> {
        self.charge(
            thread,
            self.anchor(thread),
            EventKind::MapBegin {
                range: e.range,
                dir: e.dir,
                always: e.always,
            },
        );
        let presence = self.mapping.presence(&e.range);
        if let Some(s) = &mut self.sanitizer {
            s.on_map_enter(thread as u32, e, presence);
        }
        self.sync_sanitizer_events(thread);
        match presence {
            Presence::Partial => return Err(OmpError::PartialOverlap { range: e.range }),
            Presence::Present => {
                self.mapping.retain(&e.range)?;
                if !self.config.is_zero_copy() {
                    if e.always && e.dir.copies_to() {
                        let dev = self.require_translation(&e.range)?;
                        self.issue_copy(thread, e.range.start, dev, e.range.len, false)?;
                    } else if e.dir != MapDir::Alloc && !e.always {
                        // Transfer-direction re-map of a present extent
                        // (MC007's pattern): no data moves, but the entry
                        // still runs the full targetDataBegin transfer-
                        // decision path. This is the service cost the
                        // elision pass recovers; `alloc` entries
                        // short-circuit it.
                        let svc = self.mem().cost().map_service;
                        let a0 = self.anchor(thread);
                        self.hsa.host_compute(thread, svc);
                        self.charge(
                            thread,
                            a0,
                            EventKind::MapService {
                                range: e.range,
                                cost: svc,
                            },
                        );
                    }
                }
            }
            Presence::Absent => {
                if self.config.is_zero_copy() {
                    // Zero-copy: presence bookkeeping only; device == host.
                    self.mapping.insert(e.range, e.range.start);
                    self.lookup.invalidate();
                    self.live_maps += 1;
                } else {
                    let a0 = self.anchor(thread);
                    let dev = self.pool_allocate_recovered(thread, e.range.len)?;
                    let pages = self.mem().page_size().pages_covering(dev, e.range.len);
                    let cost = self.mem().cost().pool_alloc_cost(pages);
                    self.charge(
                        thread,
                        a0,
                        EventKind::PoolAlloc {
                            range: e.range,
                            cost,
                        },
                    );
                    self.mapping.insert(e.range, dev);
                    self.lookup.invalidate();
                    self.live_maps += 1;
                    if e.dir.copies_to() {
                        self.issue_copy(thread, e.range.start, dev, e.range.len, false)?;
                    }
                }
            }
        }
        // Eager Maps: every map triggers a host-side prefault of the host
        // range — new pages are inserted, present pages are re-checked.
        if self.config.prefaults_on_map() {
            let a0 = self.anchor(thread);
            let out = self.hsa.svm_prefault(thread, e.range)?;
            self.charge(
                thread,
                a0,
                EventKind::Prefault {
                    range: e.range,
                    cost: out.cost,
                    recovery: false,
                },
            );
        }
        Ok(())
    }

    fn end_map(&mut self, thread: usize, e: &MapEntry, delete: bool) -> Result<(), OmpError> {
        self.charge(
            thread,
            self.anchor(thread),
            EventKind::MapEnd {
                range: e.range,
                dir: e.dir,
                delete,
            },
        );
        if self.sanitizer.is_some() {
            let presence = self.mapping.presence(&e.range);
            let disappearing = match self.mapping.find(e.range.start) {
                Some(m) => m.refcount == 1 || delete,
                None => true,
            };
            if let Some(s) = &mut self.sanitizer {
                s.on_map_exit(thread as u32, e, presence, disappearing);
            }
        }
        self.sync_sanitizer_events(thread);
        if self.config.is_zero_copy() {
            if self.mapping.release(&e.range, delete)?.is_some() {
                self.lookup.invalidate();
                self.live_maps -= 1;
            }
            return Ok(());
        }
        // Copy configuration: from-transfers happen when the entry is about
        // to disappear, or on every exit with the `always` modifier.
        let (refcount, dev) = {
            let m = self
                .mapping
                .find(e.range.start)
                .ok_or(OmpError::NotMapped { range: e.range })?;
            (m.refcount, m.translate(e.range.start))
        };
        let disappearing = refcount == 1 || delete;
        if e.dir.copies_from() && (disappearing || e.always) {
            self.issue_copy(thread, dev, e.range.start, e.range.len, true)?;
        }
        if let Some(removed) = self.mapping.release(&e.range, delete)? {
            self.lookup.invalidate();
            self.live_maps -= 1;
            let pages = self
                .mem()
                .page_size()
                .pages_covering(removed.payload, removed.host.len);
            let cost = self.mem().cost().pool_free_cost(pages);
            let a0 = self.anchor(thread);
            self.hsa.pool_free(thread, removed.payload)?;
            self.charge(
                thread,
                a0,
                EventKind::PoolFree {
                    range: removed.host,
                    cost,
                },
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RunEnv;
    use crate::mapping::MapEntry;
    use crate::telemetry::TelemetryMode;

    fn rt(config: RuntimeConfig) -> OmpRuntime {
        OmpRuntime::builder(CostModel::mi300a_no_thp(), Topology::default())
            .config(config)
            .build()
            .unwrap()
    }

    fn write_f64s(rt: &mut OmpRuntime, addr: VirtAddr, vals: &[f64]) {
        let mut raw = Vec::new();
        for v in vals {
            raw.extend_from_slice(&v.to_le_bytes());
        }
        rt.mem_mut().cpu_write(addr, &raw).unwrap();
    }

    fn read_f64s(rt: &OmpRuntime, addr: VirtAddr, n: usize) -> Vec<f64> {
        let mut raw = vec![0u8; n * 8];
        rt.mem().cpu_read(addr, &mut raw).unwrap();
        raw.chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }

    /// The paper's Fig. 2 program: a[i] += b[i] * alpha, under each config.
    fn run_axpy(config: RuntimeConfig) -> Vec<f64> {
        const N: usize = 64;
        let mut r = rt(config);
        let a = r.host_alloc(0, (N * 8) as u64).unwrap();
        let b = r.host_alloc(0, (N * 8) as u64).unwrap();
        let alpha = r.declare_target_global(0, 8).unwrap();
        write_f64s(&mut r, a, &vec![1.0; N]);
        write_f64s(&mut r, b, &(0..N).map(|i| i as f64).collect::<Vec<_>>());
        let ah = r.global_host(alpha).unwrap();
        write_f64s(&mut r, ah.start, &[2.0]);

        let region = TargetRegion::new("axpy", VirtDuration::from_micros(10))
            .map(MapEntry::tofrom(AddrRange::new(a, (N * 8) as u64)))
            .map(MapEntry::to(AddrRange::new(b, (N * 8) as u64)))
            .global(alpha)
            .body(move |ctx| {
                let av = ctx.read_f64s(ctx.arg(0), N)?;
                let bv = ctx.read_f64s(ctx.arg(1), N)?;
                let alpha = ctx.read_f64s(ctx.global(0), 1)?[0];
                let out: Vec<f64> = av.iter().zip(&bv).map(|(x, y)| x + y * alpha).collect();
                ctx.write_f64s(ctx.arg(0), &out)
            });
        r.target(0, region).unwrap();
        let result = read_f64s(&r, a, N);
        let report = r.finish();
        assert!(report.makespan > VirtDuration::ZERO);
        result
    }

    #[test]
    fn all_configs_compute_identical_results() {
        let expected: Vec<f64> = (0..64).map(|i| 1.0 + 2.0 * i as f64).collect();
        for config in RuntimeConfig::ALL {
            assert_eq!(run_axpy(config), expected, "config {config}");
        }
    }

    #[test]
    fn copy_mode_allocates_and_copies() {
        let mut r = rt(RuntimeConfig::LegacyCopy);
        let a = r.host_alloc(0, 4096).unwrap();
        let e = MapEntry::tofrom(AddrRange::new(a, 4096));
        let region = TargetRegion::new("k", VirtDuration::from_micros(5)).map(e);
        r.target(0, region).unwrap();
        let report = r.finish();
        // alloc + to-copy + from-copy + free
        assert!(report.ledger.mm_alloc > VirtDuration::ZERO);
        assert_eq!(report.ledger.copies, 2);
        assert!(report.ledger.mm_free > VirtDuration::ZERO);
        assert_eq!(report.ledger.mi_total(), VirtDuration::ZERO);
        assert_eq!(report.mem_stats.xnack_pages(), 0);
    }

    #[test]
    fn zero_copy_folds_storage_operations() {
        for config in [
            RuntimeConfig::ImplicitZeroCopy,
            RuntimeConfig::UnifiedSharedMemory,
        ] {
            let mut r = rt(config);
            let a = r.host_alloc(0, 4096).unwrap();
            let e = MapEntry::tofrom(AddrRange::new(a, 4096));
            let region = TargetRegion::new("k", VirtDuration::from_micros(5)).map(e);
            r.target(0, region).unwrap();
            let report = r.finish();
            assert_eq!(report.ledger.copies, 0, "{config}");
            assert_eq!(report.ledger.mm_alloc, VirtDuration::ZERO);
            // ...but pays first-touch MI instead.
            assert!(report.ledger.mi_total() > VirtDuration::ZERO);
            assert_eq!(report.mem_stats.xnack_pages(), 1);
        }
    }

    #[test]
    fn eager_maps_prefaults_instead_of_faulting() {
        let mut r = rt(RuntimeConfig::EagerMaps);
        let a = r.host_alloc(0, 16 * 4096).unwrap();
        let e = MapEntry::tofrom(AddrRange::new(a, 16 * 4096));
        let region = TargetRegion::new("k", VirtDuration::from_micros(5)).map(e);
        r.target(0, region).unwrap();
        let report = r.finish();
        assert_eq!(report.ledger.mi_total(), VirtDuration::ZERO);
        assert!(report.ledger.mm_prefault > VirtDuration::ZERO);
        assert_eq!(report.ledger.prefault_calls, 1);
        assert_eq!(report.mem_stats.prefault_new_pages(), 16);
        assert_eq!(report.mem_stats.xnack_pages(), 0);
    }

    #[test]
    fn eager_maps_represents_remaps_cheaply() {
        let mut r = rt(RuntimeConfig::EagerMaps);
        let a = r.host_alloc(0, 16 * 4096).unwrap();
        let range = AddrRange::new(a, 16 * 4096);
        r.target_enter_data(0, &[MapEntry::to(range)]).unwrap();
        for _ in 0..10 {
            let region =
                TargetRegion::new("k", VirtDuration::from_micros(5)).map(MapEntry::tofrom(range));
            r.target(0, region).unwrap();
        }
        let report = r.finish();
        // 11 prefault calls; only the first inserted pages.
        assert_eq!(report.ledger.prefault_calls, 11);
        assert_eq!(report.mem_stats.prefault_new_pages(), 16);
        assert_eq!(report.mem_stats.prefault_present_pages, 160);
    }

    #[test]
    fn refcounted_presence_avoids_recopies() {
        let mut r = rt(RuntimeConfig::LegacyCopy);
        let a = r.host_alloc(0, 4096).unwrap();
        let range = AddrRange::new(a, 4096);
        r.target_enter_data(0, &[MapEntry::to(range)]).unwrap();
        for _ in 0..5 {
            let region =
                TargetRegion::new("k", VirtDuration::from_micros(5)).map(MapEntry::tofrom(range));
            r.target(0, region).unwrap();
        }
        r.target_exit_data(0, &[MapEntry::from(range)], false)
            .unwrap();
        let report = r.finish();
        // One to-copy at enter, one from-copy at final exit; the five inner
        // targets found the data present.
        assert_eq!(report.ledger.copies, 2);
        assert_eq!(report.mem_stats.pool_allocs as usize, 1 + 16); // data + init
    }

    #[test]
    fn always_modifier_forces_transfers() {
        let mut r = rt(RuntimeConfig::LegacyCopy);
        let a = r.host_alloc(0, 4096).unwrap();
        let range = AddrRange::new(a, 4096);
        r.target_enter_data(0, &[MapEntry::to(range)]).unwrap();
        for _ in 0..3 {
            let region = TargetRegion::new("k", VirtDuration::from_micros(5))
                .map(MapEntry::tofrom(range).always());
            r.target(0, region).unwrap();
        }
        r.target_exit_data(0, &[MapEntry::from(range)], false)
            .unwrap();
        let report = r.finish();
        // enter(1 to) + 3 * (always to + always from) + exit(1 from)
        assert_eq!(report.ledger.copies, 8);
    }

    #[test]
    fn copy_mode_stale_until_from_copy() {
        // In Copy mode a kernel's writes live in the device buffer until a
        // from-transfer; zero-copy sees them immediately.
        let mut r = rt(RuntimeConfig::LegacyCopy);
        let a = r.host_alloc(0, 4096).unwrap();
        let range = AddrRange::new(a, 8);
        write_f64s(&mut r, a, &[1.0]);
        r.target_enter_data(0, &[MapEntry::to(range)]).unwrap();
        let region = TargetRegion::new("k", VirtDuration::from_micros(5))
            .map(MapEntry::alloc(range))
            .body(|ctx| ctx.write_f64s(ctx.arg(0), &[42.0]));
        r.target(0, region).unwrap();
        // Host copy still stale.
        assert_eq!(read_f64s(&r, a, 1), vec![1.0]);
        r.target_update(0, &[], &[range]).unwrap();
        assert_eq!(read_f64s(&r, a, 1), vec![42.0]);
        r.target_exit_data(0, &[MapEntry::from(range)], false)
            .unwrap();
    }

    #[test]
    fn zero_copy_writes_visible_immediately() {
        let mut r = rt(RuntimeConfig::ImplicitZeroCopy);
        let a = r.host_alloc(0, 4096).unwrap();
        let range = AddrRange::new(a, 8);
        write_f64s(&mut r, a, &[1.0]);
        let region = TargetRegion::new("k", VirtDuration::from_micros(5))
            .map(MapEntry::alloc(range))
            .body(|ctx| ctx.write_f64s(ctx.arg(0), &[42.0]));
        r.target(0, region).unwrap();
        assert_eq!(read_f64s(&r, a, 1), vec![42.0]);
    }

    #[test]
    fn partial_overlap_rejected() {
        let mut r = rt(RuntimeConfig::LegacyCopy);
        let a = r.host_alloc(0, 8192).unwrap();
        r.target_enter_data(0, &[MapEntry::to(AddrRange::new(a, 4096))])
            .unwrap();
        let err = r
            .target_enter_data(0, &[MapEntry::to(AddrRange::new(a.offset(2048), 4096))])
            .unwrap_err();
        assert!(matches!(err, OmpError::PartialOverlap { .. }));
    }

    #[test]
    fn kernel_without_mapping_fails_in_copy_mode() {
        let mut r = rt(RuntimeConfig::LegacyCopy);
        let a = r.host_alloc(0, 4096).unwrap();
        let region = TargetRegion::new("k", VirtDuration::from_micros(5));
        // No maps at all: fine (empty access set).
        r.target(0, region).unwrap();
        // Update of never-mapped data: error.
        let err = r
            .target_update(0, &[AddrRange::new(a, 4096)], &[])
            .unwrap_err();
        assert!(matches!(err, OmpError::KernelDataNotPresent { .. }));
    }

    #[test]
    fn usm_globals_have_no_transfers() {
        let mut r = rt(RuntimeConfig::UnifiedSharedMemory);
        let g = r.declare_target_global(0, 8).unwrap();
        let gh = r.global_host(g).unwrap();
        write_f64s(&mut r, gh.start, &[7.0]);
        let region = TargetRegion::new("k", VirtDuration::from_micros(5)).global(g);
        r.target(0, region).unwrap();
        let report = r.finish();
        assert_eq!(report.ledger.copies, 0);
    }

    #[test]
    fn izc_globals_transfer_like_copy() {
        let mut r = rt(RuntimeConfig::ImplicitZeroCopy);
        let g = r.declare_target_global(0, 8).unwrap();
        let region = TargetRegion::new("k", VirtDuration::from_micros(5)).global(g);
        r.target(0, region).unwrap();
        let report = r.finish();
        // One system-to-system transfer per target referencing the global.
        assert_eq!(report.ledger.copies, 1);
    }

    #[test]
    fn delete_forces_removal() {
        let mut r = rt(RuntimeConfig::LegacyCopy);
        let a = r.host_alloc(0, 4096).unwrap();
        let range = AddrRange::new(a, 4096);
        r.target_enter_data(0, &[MapEntry::to(range)]).unwrap();
        r.target_enter_data(0, &[MapEntry::to(range)]).unwrap();
        assert_eq!(r.live_mappings(), 1);
        r.target_exit_data(0, &[MapEntry::from(range)], true)
            .unwrap();
        assert_eq!(r.live_mappings(), 0);
    }

    #[test]
    fn kernel_trace_records_launches() {
        let mut r = rt(RuntimeConfig::ImplicitZeroCopy);
        r.set_kernel_trace(true);
        let a = r.host_alloc(0, 4096).unwrap();
        let region = TargetRegion::new("traced", VirtDuration::from_micros(5))
            .map(MapEntry::tofrom(AddrRange::new(a, 4096)));
        r.target(0, region).unwrap();
        let report = r.finish();
        assert_eq!(report.kernel_trace.len(), 1);
        let e = &report.kernel_trace[0];
        assert_eq!(&*e.name, "traced");
        assert_eq!(e.faulted_pages, 1);
        assert!(e.stall > VirtDuration::ZERO);
    }

    #[test]
    fn is_present_tracks_the_data_environment() {
        let mut r = rt(RuntimeConfig::ImplicitZeroCopy);
        let a = r.host_alloc(0, 4096).unwrap();
        let range = AddrRange::new(a, 4096);
        assert!(!r.is_present(a));
        r.target_enter_data(0, &[MapEntry::to(range)]).unwrap();
        assert!(r.is_present(a));
        assert!(r.is_present(a.offset(100)));
        r.target_exit_data(0, &[MapEntry::alloc(range)], false)
            .unwrap();
        assert!(!r.is_present(a));
    }

    #[test]
    fn omp_target_routines_roundtrip() {
        // The explicit device-memory API: alloc, memcpy in, kernel via raw
        // device pointer, memcpy out — works in every configuration
        // because pool memory is always GPU-translated.
        for config in RuntimeConfig::ALL {
            let mut r = rt(config);
            let host = r.host_alloc(0, 4096).unwrap();
            write_f64s(&mut r, host, &[3.5]);
            let dev = r.omp_target_alloc(0, 4096).unwrap();
            r.omp_target_memcpy(0, dev, host, 8).unwrap();
            let region = TargetRegion::new("dev_ptr_kernel", VirtDuration::from_micros(5))
                .access(AddrRange::new(dev, 4096))
                .body(move |ctx| {
                    let mut raw = [0u8; 8];
                    ctx.read(dev, &mut raw)?;
                    let v = f64::from_le_bytes(raw);
                    ctx.write(dev, &(v * 2.0).to_le_bytes())
                });
            r.target(0, region).unwrap();
            r.omp_target_memcpy(0, host, dev, 8).unwrap();
            assert_eq!(read_f64s(&r, host, 1), vec![7.0], "{config}");
            r.omp_target_free(0, dev).unwrap();
            let report = r.finish();
            assert_eq!(report.ledger.copies, 2);
        }
    }

    #[test]
    fn usm_host_pointer_to_device_routine() {
        // The paper's §III-B quote: under unified_shared_memory, host
        // pointers may be passed to device memory routines.
        let mut r = rt(RuntimeConfig::UnifiedSharedMemory);
        let a = r.host_alloc(0, 4096).unwrap();
        let b = r.host_alloc(0, 4096).unwrap();
        write_f64s(&mut r, a, &[9.0]);
        r.omp_target_memcpy(0, b, a, 8).unwrap();
        assert_eq!(read_f64s(&r, b, 1), vec![9.0]);
    }

    #[test]
    fn target_data_scopes_the_environment() {
        let mut r = rt(RuntimeConfig::LegacyCopy);
        let a = r.host_alloc(0, 4096).unwrap();
        let range = AddrRange::new(a, 4096);
        let out = r
            .target_data(0, &[MapEntry::tofrom(range)], |rt| {
                assert_eq!(rt.live_mappings(), 1);
                for _ in 0..3 {
                    rt.target(
                        0,
                        TargetRegion::new("k", VirtDuration::from_micros(5))
                            .map(MapEntry::alloc(range)),
                    )?;
                }
                Ok(42)
            })
            .unwrap();
        assert_eq!(out, 42);
        assert_eq!(r.live_mappings(), 0);
        let report = r.finish();
        // One to-copy entering the region, one from-copy leaving it.
        assert_eq!(report.ledger.copies, 2);
    }

    #[test]
    fn usm_style_raw_pointers_work_only_with_xnack() {
        // A `requires unified_shared_memory` program passes host pointers
        // straight to kernels, with no maps at all.
        for config in [
            RuntimeConfig::UnifiedSharedMemory,
            RuntimeConfig::ImplicitZeroCopy,
        ] {
            let mut r = rt(config);
            let a = r.host_alloc(0, 4096).unwrap();
            let region = TargetRegion::new("usm_kernel", VirtDuration::from_micros(5))
                .access(AddrRange::new(a, 4096));
            r.target(0, region).unwrap();
            let report = r.finish();
            assert_eq!(report.ledger.copies, 0, "{config}");
            assert_eq!(report.mem_stats.xnack_pages(), 1);
        }
        // The same binary is NOT portable to Copy or Eager Maps: the GPU has
        // no translation for the raw host pointer and faults fatally.
        for config in [RuntimeConfig::LegacyCopy, RuntimeConfig::EagerMaps] {
            let mut r = rt(config);
            let a = r.host_alloc(0, 4096).unwrap();
            let region = TargetRegion::new("usm_kernel", VirtDuration::from_micros(5))
                .access(AddrRange::new(a, 4096));
            let err = r.target(0, region).unwrap_err();
            assert!(
                matches!(err, OmpError::Mem(apu_mem::MemError::GpuFatalFault { .. })),
                "{config}: {err}"
            );
        }
    }

    #[test]
    fn raw_access_body_shares_host_storage() {
        let mut r = rt(RuntimeConfig::UnifiedSharedMemory);
        let a = r.host_alloc(0, 4096).unwrap();
        write_f64s(&mut r, a, &[5.0]);
        let range = AddrRange::new(a, 4096);
        let region = TargetRegion::new("incr", VirtDuration::from_micros(5))
            .access(range)
            .body(move |ctx| {
                // Host pointer used verbatim in device code.
                let mut raw = [0u8; 8];
                ctx.read(range.start, &mut raw)?;
                let v = f64::from_le_bytes(raw);
                ctx.write(range.start, &(v + 1.0).to_le_bytes())
            });
        r.target(0, region).unwrap();
        assert_eq!(read_f64s(&r, a, 1), vec![6.0]);
    }

    #[test]
    fn unsupported_deployment_is_reported() {
        let mut env = RunEnv::mi300a();
        env.requires_usm = true;
        env.hsa_xnack = false;
        let result = OmpRuntime::builder(CostModel::mi300a_no_thp(), Topology::default())
            .env(env)
            .build();
        assert!(matches!(
            result.err(),
            Some(OmpError::UnsupportedDeployment { .. })
        ));
    }

    fn faulty_rt(config: RuntimeConfig, spec: sim_des::FaultSpec, seed: u64) -> OmpRuntime {
        OmpRuntime::builder(CostModel::mi300a_no_thp(), Topology::default())
            .config(config)
            .fault_plan(sim_des::FaultPlan::new(seed, spec))
            .telemetry(TelemetryMode::ring())
            .build()
            .unwrap()
    }

    /// The recovery episodes and degradations a ring-on run recorded, in
    /// order.
    fn recovery_events(report: &RunReport) -> Vec<RecoveryEvent> {
        let telemetry = report.telemetry.as_ref().expect("ring was on");
        telemetry
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Recovery { event } => Some(event),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn injected_faults_recover_with_identical_results() {
        let expected: Vec<f64> = (0..64).map(|i| 1.0 + 2.0 * i as f64).collect();
        let spec = sim_des::FaultSpec::soak();
        for config in RuntimeConfig::ALL {
            const N: usize = 64;
            let mut r = faulty_rt(config, spec, 42);
            let a = r.host_alloc(0, (N * 8) as u64).unwrap();
            let b = r.host_alloc(0, (N * 8) as u64).unwrap();
            let alpha = r.declare_target_global(0, 8).unwrap();
            write_f64s(&mut r, a, &vec![1.0; N]);
            write_f64s(&mut r, b, &(0..N).map(|i| i as f64).collect::<Vec<_>>());
            let ah = r.global_host(alpha).unwrap();
            write_f64s(&mut r, ah.start, &[2.0]);
            let region = TargetRegion::new("axpy", VirtDuration::from_micros(10))
                .map(MapEntry::tofrom(AddrRange::new(a, (N * 8) as u64)))
                .map(MapEntry::to(AddrRange::new(b, (N * 8) as u64)))
                .global(alpha)
                .body(move |ctx| {
                    let av = ctx.read_f64s(ctx.arg(0), N)?;
                    let bv = ctx.read_f64s(ctx.arg(1), N)?;
                    let alpha = ctx.read_f64s(ctx.global(0), 1)?[0];
                    let out: Vec<f64> = av.iter().zip(&bv).map(|(x, y)| x + y * alpha).collect();
                    ctx.write_f64s(ctx.arg(0), &out)
                });
            r.target(0, region).unwrap();
            assert_eq!(read_f64s(&r, a, N), expected, "config {config}");
            assert_eq!(r.live_mappings(), 0, "config {config}");
        }
    }

    #[test]
    fn recovery_ledger_and_log_record_retries() {
        // With soak rates, 16 Copy-mode targets essentially always hit at
        // least one injected fault; every episode must be recovered and
        // recorded consistently in the ledger and the event stream.
        let mut r = faulty_rt(RuntimeConfig::LegacyCopy, sim_des::FaultSpec::soak(), 7);
        let a = r.host_alloc(0, 4096).unwrap();
        let range = AddrRange::new(a, 4096);
        for _ in 0..16 {
            let region =
                TargetRegion::new("k", VirtDuration::from_micros(5)).map(MapEntry::tofrom(range));
            r.target(0, region).unwrap();
        }
        let stats = r.fault_stats();
        assert!(stats.total_injected() > 0, "soak spec injected nothing");
        assert!(r.ledger().retries >= r.ledger().recoveries);
        assert!(r.ledger().recovery_backoff > VirtDuration::ZERO);
        let report = r.finish();
        assert!(report.fault_stats.total_injected() > 0);
        let episodes = recovery_events(&report);
        assert!(!episodes.is_empty());
        assert_eq!(report.ledger.recoveries as usize, episodes.len());
        assert!(report.ledger.has_recovery_activity());
    }

    #[test]
    fn mid_run_xnack_flip_degrades_but_preserves_results() {
        let plan = sim_des::FaultPlan::new(3, sim_des::FaultSpec::none()).with_xnack_flip_after(2);
        let mut r = OmpRuntime::builder(CostModel::mi300a_no_thp(), Topology::default())
            .config(RuntimeConfig::ImplicitZeroCopy)
            .fault_plan(plan)
            .telemetry(TelemetryMode::ring())
            .build()
            .unwrap();
        let a = r.host_alloc(0, 4096).unwrap();
        let range = AddrRange::new(a, 8);
        write_f64s(&mut r, a, &[0.0]);
        for _ in 0..6 {
            let region = TargetRegion::new("incr", VirtDuration::from_micros(5))
                .map(MapEntry::tofrom(range))
                .body(move |ctx| {
                    let v = ctx.read_f64s(ctx.arg(0), 1)?[0];
                    ctx.write_f64s(ctx.arg(0), &[v + 1.0])
                });
            r.target(0, region).unwrap();
        }
        assert_eq!(read_f64s(&r, a, 1), vec![6.0]);
        let report = r.finish();
        assert!(recovery_events(&report)
            .iter()
            .any(|e| e.action == RecoveryAction::XnackLost));
        assert_eq!(report.fault_stats.xnack_flips, 1);
        assert_eq!(report.ledger.degradations, 1);
        // Post-flip dispatches prefault their access sets host-side.
        assert!(report.ledger.recovery_prefaults > 0);
        assert!(report.ledger.recovery_prefault > VirtDuration::ZERO);
    }

    #[test]
    fn discrete_pool_exhaustion_evicts_then_retries() {
        use apu_mem::{DiscreteSpec, SystemKind};
        // VRAM sized to device init (16 x 64 KiB runtime buffers) plus 8
        // pages: UM pages migrated by a zero-copy-style access fill the
        // remainder, then a pool allocation must evict them to fit.
        let spec = DiscreteSpec {
            vram_bytes: (256 + 8) * 4096,
            ..DiscreteSpec::mi200_class()
        };
        let mut r = OmpRuntime::builder(CostModel::mi300a_no_thp(), Topology::default())
            .config(RuntimeConfig::UnifiedSharedMemory)
            .system(SystemKind::Discrete(spec))
            .telemetry(TelemetryMode::ring())
            .build()
            .unwrap();
        let a = r.host_alloc(0, 6 * 4096).unwrap();
        let region = TargetRegion::new("touch", VirtDuration::from_micros(5))
            .access(AddrRange::new(a, 6 * 4096));
        r.target(0, region).unwrap();
        // 6 UM pages resident; a 4-page pool alloc needs eviction to fit.
        let dev = r.omp_target_alloc(0, 4 * 4096).unwrap();
        assert!(dev.0 > 0);
        assert!(r.ledger().evicted_for_retry > 0);
        assert!(recovery_events(&r.finish())
            .iter()
            .any(|e| matches!(e.action, RecoveryAction::EvictedThenRetriedAlloc { .. })));
    }

    #[test]
    fn recovery_exhaustion_reports_the_site() {
        // An always-failing site exhausts the attempt budget.
        let spec = sim_des::FaultSpec {
            pool_alloc_fail: 1.0,
            max_burst: u32::MAX,
            ..sim_des::FaultSpec::none()
        };
        let mut r = faulty_rt(RuntimeConfig::LegacyCopy, spec, 1);
        let err = r.omp_target_alloc(0, 4096).unwrap_err();
        assert!(matches!(
            err,
            OmpError::RecoveryExhausted {
                kind: sim_des::FaultKind::PoolAllocFail,
                ..
            }
        ));
    }

    fn issue_small_program(r: &mut OmpRuntime) {
        let a = r.host_alloc(0, 8192).unwrap();
        let range = AddrRange::new(a, 8192);
        r.host_write(0, range).unwrap();
        r.target_enter_data(0, &[MapEntry::to(range)]).unwrap();
        let region =
            TargetRegion::new("k", VirtDuration::from_micros(5)).map(MapEntry::alloc(range));
        r.target(0, region).unwrap();
        r.target_exit_data(0, &[MapEntry::from(range)], false)
            .unwrap();
        r.host_read(0, range);
        r.host_free(0, a).unwrap();
    }

    #[test]
    fn capture_records_without_executing() {
        let mut r = OmpRuntime::builder(CostModel::mi300a_no_thp(), Topology::default())
            .config(RuntimeConfig::ImplicitZeroCopy)
            .capture(true)
            .build()
            .unwrap();
        assert!(r.is_capturing());
        issue_small_program(&mut r);
        // No data-environment execution happened.
        assert_eq!(r.live_mappings(), 0);
        assert_eq!(r.ledger().kernels, 0);
        assert_eq!(r.ledger().maps, 0);
        let ir = r.take_mapir().expect("capture present");
        assert_eq!(ir.kernels(), 1);
        // host_alloc, host_write, enter, kernel, exit, host_read, host_free.
        assert_eq!(ir.len(), 7);
        // The stream round-trips through the text format.
        assert_eq!(crate::mapir::MapIr::parse(&ir.to_text()).unwrap(), ir);
        assert!(r.take_mapir().is_none(), "take drains the capture");
    }

    #[test]
    fn capture_runs_the_same_program_regardless_of_its_own_config() {
        // Workloads issue identical directive streams under every
        // configuration, so one capture (modulo addresses) stands for all.
        let build = |config| {
            let mut r = OmpRuntime::builder(CostModel::mi300a_no_thp(), Topology::default())
                .config(config)
                .capture(true)
                .build()
                .unwrap();
            issue_small_program(&mut r);
            r.take_mapir().unwrap()
        };
        let a = build(RuntimeConfig::ImplicitZeroCopy);
        let b = build(RuntimeConfig::LegacyCopy);
        assert_eq!(a, b);
    }

    #[test]
    fn sanitizer_is_silent_on_a_clean_run_and_flags_a_leak() {
        for config in RuntimeConfig::ALL {
            let mut r = OmpRuntime::builder(CostModel::mi300a_no_thp(), Topology::default())
                .config(config)
                .sanitize(true)
                .build()
                .unwrap();
            issue_small_program(&mut r);
            let report = r.finish().sanitizer.expect("sanitizer report");
            assert!(report.is_clean(), "{config:?}: {:?}", report.diagnostics);
        }

        let mut r = OmpRuntime::builder(CostModel::mi300a_no_thp(), Topology::default())
            .config(RuntimeConfig::LegacyCopy)
            .sanitize(true)
            .build()
            .unwrap();
        let a = r.host_alloc(0, 4096).unwrap();
        r.target_enter_data(0, &[MapEntry::to(AddrRange::new(a, 4096))])
            .unwrap();
        let report = r.finish().sanitizer.unwrap();
        let codes: Vec<_> = report.diagnostics.iter().map(|d| d.code).collect();
        assert_eq!(codes, [crate::diag::DiagCode::Mc001]);
    }

    #[test]
    fn sanitizer_does_not_change_measured_behavior() {
        let run = |sanitize: bool| {
            let mut r = OmpRuntime::builder(CostModel::mi300a_no_thp(), Topology::default())
                .config(RuntimeConfig::LegacyCopy)
                .sanitize(sanitize)
                .build()
                .unwrap();
            issue_small_program(&mut r);
            let report = r.finish();
            (
                report.makespan,
                report.ledger.copies,
                report.ledger.bytes_copied,
                report.ledger.maps,
                report.ledger.kernels,
            )
        };
        assert_eq!(run(false), run(true));
    }

    /// A program with per-iteration MC007 sites: one enclosing `tofrom`
    /// enter, then kernels that re-map the present extent with a transfer
    /// direction and no `always`.
    fn redundant_remap_program(r: &mut OmpRuntime, iters: u64) {
        let a = r.host_alloc(0, 8192).unwrap();
        let range = AddrRange::new(a, 8192);
        r.host_write(0, range).unwrap();
        r.target_enter_data(0, &[MapEntry::tofrom(range)]).unwrap();
        for _ in 0..iters {
            let region = TargetRegion::new("iter", VirtDuration::from_micros(5))
                .map(MapEntry::tofrom(range));
            r.target(0, region).unwrap();
        }
        r.target_exit_data(0, &[MapEntry::from(range)], false)
            .unwrap();
        r.host_read(0, range);
    }

    fn elide_run(config: RuntimeConfig, elide: ElideMode) -> (u64, RunReport) {
        let mut r = OmpRuntime::builder(CostModel::mi300a_no_thp(), Topology::default())
            .config(config)
            .sanitize(true)
            .elide(elide)
            .build()
            .unwrap();
        redundant_remap_program(&mut r, 10);
        let digest = r.memory_digest();
        (digest, r.finish())
    }

    /// The digest as a byte walk: each VMA's start and length, then its
    /// whole content read through `cpu_read`. `memory_digest` must equal it.
    fn reference_digest(r: &OmpRuntime) -> u64 {
        let mut h = crate::digest::Fnv1a::new();
        for vma in r.mem().vmas() {
            h.write_u64(vma.range.start.as_u64());
            h.write_u64(vma.range.len);
            let mut buf = vec![0u8; vma.range.len as usize];
            r.mem().cpu_read(vma.range.start, &mut buf).unwrap();
            h.write(&buf);
        }
        h.finish()
    }

    #[test]
    fn memory_digest_folds_materialized_content() {
        let mut r = rt(RuntimeConfig::ImplicitZeroCopy);
        let a = r.host_alloc(0, 5 * 4096 + 100).unwrap();
        let b = r.host_alloc(0, 3 * 4096).unwrap();
        let empty = r.memory_digest();
        let pattern: Vec<u8> = (1..=6000u32).map(|i| (i % 251 + 1) as u8).collect();
        let mem = r.mem_mut();
        // Non-zero writes straddling chunk boundaries in both VMAs.
        mem.cpu_write(a.offset(4000), &pattern).unwrap();
        mem.cpu_write(a.offset(4 * 4096 + 50), &pattern[..4146])
            .unwrap();
        mem.cpu_write(b.offset(4090), &pattern[..20]).unwrap();
        // A zero write over a whole materialized chunk keeps it resident.
        mem.cpu_write(a.offset(4096), &[0u8; 4096]).unwrap();
        assert!(mem.resident_content_bytes() >= 5 * 4096);
        let digest = r.memory_digest();
        assert_eq!(digest, reference_digest(&r));
        assert_ne!(digest, empty);
    }

    #[test]
    fn online_elision_saves_map_service_under_copy() {
        let (d_off, off) = elide_run(RuntimeConfig::LegacyCopy, ElideMode::Off);
        let (d_on, on) = elide_run(RuntimeConfig::LegacyCopy, ElideMode::Online);
        // Bit-identical memory, identical transfers and storage operations.
        assert_eq!(d_off, d_on);
        assert_eq!(off.ledger.copies, on.ledger.copies);
        assert_eq!(off.ledger.bytes_copied, on.ledger.bytes_copied);
        assert_eq!(off.ledger.kernels, on.ledger.kernels);
        assert_eq!(off.ledger.maps, on.ledger.maps);
        // Every per-iteration re-map was promoted, and the accounting
        // identity holds exactly: what the unelided run paid extra is what
        // the elided run reports as saved.
        assert_eq!(off.ledger.maps_elided, 0);
        assert_eq!(on.ledger.maps_elided, 10);
        assert!(on.ledger.mm_saved > VirtDuration::ZERO);
        assert_eq!(
            off.ledger.mm_total() - on.ledger.mm_total(),
            on.ledger.mm_saved
        );
        assert!(on.makespan <= off.makespan);
        // The unelided run warns MC007; the elided run is diagnostic-clean.
        let off_codes: Vec<_> = off
            .sanitizer
            .unwrap()
            .diagnostics
            .iter()
            .map(|d| d.code)
            .collect();
        assert_eq!(off_codes, [crate::diag::DiagCode::Mc007]);
        assert!(on.sanitizer.unwrap().is_clean());
    }

    #[test]
    fn plan_elision_applies_at_capture_op_indices() {
        // Op stream: host_alloc(0), host_write(1), enter(2), kernels
        // (3..13), exit(13), host_read(14). Plan the ten kernel map sites.
        let mut plan = crate::elide::ElisionPlan::new();
        for i in 0..10 {
            plan.insert(3 + i, 0);
        }
        let (d_off, off) = elide_run(RuntimeConfig::LegacyCopy, ElideMode::Off);
        let (d_plan, planned) = elide_run(RuntimeConfig::LegacyCopy, ElideMode::Plan(plan));
        assert_eq!(d_off, d_plan);
        assert_eq!(planned.ledger.maps_elided, 10);
        // Plan mode charges no lookups at all: the full service cost is
        // recovered.
        let svc = CostModel::mi300a_no_thp().map_service;
        assert_eq!(planned.ledger.mm_saved, svc * 10);
        assert_eq!(
            off.ledger.mm_total() - planned.ledger.mm_total(),
            planned.ledger.mm_saved
        );
        assert!(planned.sanitizer.unwrap().is_clean());
    }

    #[test]
    fn elision_is_makespan_neutral_under_zero_copy() {
        for config in RuntimeConfig::ZERO_COPY {
            let (d_off, off) = elide_run(config, ElideMode::Off);
            let (d_on, on) = elide_run(config, ElideMode::Online);
            assert_eq!(d_off, d_on, "{config:?}");
            // Promotion still happens (uniform diagnostics), but zero-copy
            // configurations never paid the service cost, so nothing is
            // charged or saved and the makespan is untouched.
            assert_eq!(on.ledger.maps_elided, 10, "{config:?}");
            assert_eq!(on.ledger.mm_saved, VirtDuration::ZERO, "{config:?}");
            assert_eq!(on.makespan, off.makespan, "{config:?}");
            assert_eq!(off.ledger.copies, on.ledger.copies, "{config:?}");
            assert!(on.sanitizer.unwrap().is_clean(), "{config:?}");
        }
    }

    #[test]
    fn online_elision_lookups_hit_the_mapping_cache() {
        let mut r = OmpRuntime::builder(CostModel::mi300a_no_thp(), Topology::default())
            .config(RuntimeConfig::LegacyCopy)
            .elide(ElideMode::Online)
            .build()
            .unwrap();
        redundant_remap_program(&mut r, 10);
        let (hits, misses) = r.mapping_cache_stats();
        // The enter's eligibility probe misses (extent absent), the first
        // kernel probe misses (the enter's insert flushed the cache), and
        // the nine repeats hit.
        assert_eq!((hits, misses), (9, 2));
    }
}
