//! The simulated HSA/ROCr runtime.
//!
//! `HsaRuntime` is the recording facade the OpenMP layer drives: every call
//! performs its *functional* effect against [`ApuMemory`] immediately (so
//! memory semantics are real) and records timed operations into per-thread
//! streams. `finish()` resolves the streams against the socket's shared
//! resources and returns the schedule plus rocprof-style API statistics.

use crate::api::HsaApiKind;
use crate::stats::ApiStats;
use crate::topology::{Resources, Topology};
use apu_mem::{
    AddrRange, ApuMemory, CostModel, GpuAccessOutcome, MemError, MemOptions, PrefaultOutcome,
    VirtAddr, XnackMode,
};
use sim_des::{
    schedule, AsyncToken, FaultKind, FaultPlan, FaultStats, Machine, Op, OpStreams, RunOptions,
    Schedule, Tag, VirtDuration,
};

/// Completed-run artifacts.
#[derive(Debug)]
pub struct HsaRunResult {
    /// The resolved schedule (makespan, per-op latencies, utilization).
    pub schedule: Schedule,
    /// Per-API call statistics (paper Table I analog).
    pub api_stats: ApiStats,
}

impl HsaRunResult {
    /// Total virtual execution time.
    pub fn makespan(&self) -> VirtDuration {
        self.schedule.makespan()
    }
}

/// The recording HSA/ROCr runtime for one run on one APU socket.
#[derive(Debug)]
pub struct HsaRuntime {
    mem: ApuMemory,
    machine: Machine,
    res: Resources,
    streams: OpStreams,
    /// Record-time call counts (cross-checked against the schedule).
    recorded: [u64; crate::api::API_KIND_COUNT],
    /// Async-token allocator for `nowait` dispatches.
    next_token: u64,
    /// Optional injected-failure schedule, consulted before each fallible
    /// call's functional effect (so injected failures are always safe to
    /// retry).
    fault: Option<FaultPlan>,
}

impl HsaRuntime {
    /// The canonical constructor: a runtime over a system of the given kind
    /// with typed memory options. All other constructors delegate here.
    pub fn with_options(
        cost: CostModel,
        topo: Topology,
        kind: apu_mem::SystemKind,
        opts: MemOptions,
    ) -> Self {
        let (machine, res) = topo.machine();
        HsaRuntime {
            mem: ApuMemory::with_options(cost, kind, opts),
            machine,
            res,
            streams: OpStreams::new(1),
            recorded: [0; crate::api::API_KIND_COUNT],
            next_token: 0,
            fault: None,
        }
    }

    /// A runtime over a fresh socket.
    pub fn new(cost: CostModel, topo: Topology) -> Self {
        Self::with_options(cost, topo, apu_mem::SystemKind::Apu, MemOptions::default())
    }

    /// A runtime with a custom HBM capacity (tests).
    pub fn with_capacity(cost: CostModel, topo: Topology, capacity: u64) -> Self {
        Self::with_options(
            cost,
            topo,
            apu_mem::SystemKind::Apu,
            MemOptions::default().capacity(capacity),
        )
    }

    /// Attach an injected-failure schedule. Callers normally attach *after*
    /// device/thread initialization so faults target the measured phase of
    /// a run, not runtime bring-up.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = Some(plan);
    }

    /// Mutable access to the attached fault plan (for plan-level queries
    /// such as the mid-run XNACK flip).
    pub fn fault_plan_mut(&mut self) -> Option<&mut FaultPlan> {
        self.fault.as_mut()
    }

    /// What the attached plan injected so far (zeroes when no plan).
    pub fn fault_stats(&self) -> FaultStats {
        self.fault.as_ref().map(|p| p.stats()).unwrap_or_default()
    }

    /// Consult the fault plan at a transient site. When the plan says the
    /// call fails, the failed attempt still charges its CPU-side service
    /// time under the runtime lock (the call happened; it returned an
    /// error) and counts in the API statistics.
    fn inject(
        &mut self,
        thread: usize,
        kind: FaultKind,
        api: HsaApiKind,
        service: VirtDuration,
    ) -> Result<(), MemError> {
        let Some(plan) = self.fault.as_mut() else {
            return Ok(());
        };
        if !plan.should_fail(kind) {
            return Ok(());
        }
        self.count(api);
        self.streams.push(
            thread,
            Op::service(api.tag(), self.res.runtime_lock, service),
        );
        Err(MemError::Injected { kind })
    }

    /// The memory subsystem (read-only).
    pub fn mem(&self) -> &ApuMemory {
        &self.mem
    }

    /// The memory subsystem (content access for kernel bodies).
    pub fn mem_mut(&mut self) -> &mut ApuMemory {
        &mut self.mem
    }

    /// Resource handles (for layers recording their own ops).
    pub fn resources(&self) -> Resources {
        self.res
    }

    /// Operations recorded so far on `thread`'s stream (0 for a thread that
    /// has not recorded yet). This is the telemetry anchor: the engine
    /// resolves a thread's ops in issue order, so "`k` ops recorded" names
    /// one exact point on the finished schedule's clock.
    pub fn thread_ops(&self, thread: usize) -> usize {
        if thread < self.streams.threads() {
            self.streams.stream(thread).len()
        } else {
            0
        }
    }

    /// Record-time count of calls of `kind`.
    pub fn recorded_calls(&self, kind: HsaApiKind) -> u64 {
        self.recorded[kind as usize]
    }

    fn count(&mut self, kind: HsaApiKind) {
        self.recorded[kind as usize] += 1;
    }

    fn lock_service(&self) -> VirtDuration {
        self.mem.cost().runtime_call_service
    }

    /// Initialization performed once per device: queue and signal creation,
    /// GPU code-object load, and a few runtime-internal pool allocations
    /// with their setup copies. This is why even zero-copy configurations
    /// show a small number of `memory_pool_allocate`/`memory_async_copy`
    /// calls (19 and 3 for QMCPack S2 in the paper's Table I).
    pub fn device_init(&mut self, thread: usize) -> Result<(), MemError> {
        let lock = self.res.runtime_lock;
        let svc = self.lock_service();
        self.count(HsaApiKind::QueueCreate);
        self.streams.push(
            thread,
            Op::service(
                HsaApiKind::QueueCreate.tag(),
                lock,
                svc + VirtDuration::from_micros(20),
            ),
        );
        for _ in 0..2 {
            self.count(HsaApiKind::SignalCreate);
            self.streams.push(
                thread,
                Op::service(HsaApiKind::SignalCreate.tag(), lock, svc),
            );
        }
        self.count(HsaApiKind::CodeObjectLoad);
        self.streams.push(
            thread,
            Op::service(
                HsaApiKind::CodeObjectLoad.tag(),
                lock,
                svc + VirtDuration::from_micros(400),
            ),
        );
        // Runtime-internal structures: device environment, queues, printf
        // buffers, and the initial copies populating them.
        for i in 0..16 {
            let a = self.pool_allocate(thread, 64 * 1024)?;
            if i < 3 {
                let h = self.host_alloc(thread, 64 * 1024)?;
                self.async_copy(thread, h, a, 64 * 1024, false)?;
            }
        }
        Ok(())
    }

    /// Per-extra-thread initialization (signals, queue wiring, scratch).
    pub fn thread_init(&mut self, thread: usize) -> Result<(), MemError> {
        let lock = self.res.runtime_lock;
        let svc = self.lock_service();
        for _ in 0..2 {
            self.count(HsaApiKind::SignalCreate);
            self.streams.push(
                thread,
                Op::service(HsaApiKind::SignalCreate.tag(), lock, svc),
            );
        }
        for _ in 0..10 {
            self.pool_allocate(thread, 64 * 1024)?;
        }
        Ok(())
    }

    /// Host (OS) allocation — not an HSA call; charged locally.
    pub fn host_alloc(&mut self, thread: usize, len: u64) -> Result<VirtAddr, MemError> {
        let out = self.mem.host_alloc(len)?;
        self.streams
            .push(thread, Op::local(Tag::UNTAGGED, out.cost));
        Ok(out.addr)
    }

    /// Host (OS) free.
    pub fn host_free(&mut self, thread: usize, addr: VirtAddr) -> Result<(), MemError> {
        let out = self.mem.host_free(addr)?;
        self.streams
            .push(thread, Op::local(Tag::UNTAGGED, out.cost));
        Ok(())
    }

    /// `hsa_amd_memory_pool_allocate`: device memory from the single HBM;
    /// the driver bulk-populates the GPU page table (XNACK-off behaviour).
    pub fn pool_allocate(&mut self, thread: usize, len: u64) -> Result<VirtAddr, MemError> {
        let failed_service = self.lock_service() + self.mem.cost().pool_alloc_base;
        self.inject(
            thread,
            FaultKind::PoolAllocFail,
            HsaApiKind::MemoryPoolAllocate,
            failed_service,
        )?;
        let out = self.mem.pool_alloc(len)?;
        self.count(HsaApiKind::MemoryPoolAllocate);
        self.streams.push(
            thread,
            Op::service(
                HsaApiKind::MemoryPoolAllocate.tag(),
                self.res.runtime_lock,
                self.lock_service() + out.cost,
            ),
        );
        Ok(out.addr)
    }

    /// `hsa_amd_memory_pool_free`.
    pub fn pool_free(&mut self, thread: usize, addr: VirtAddr) -> Result<(), MemError> {
        let out = self.mem.pool_free(addr)?;
        self.count(HsaApiKind::MemoryPoolFree);
        self.streams.push(
            thread,
            Op::service(
                HsaApiKind::MemoryPoolFree.tag(),
                self.res.runtime_lock,
                self.lock_service() + out.cost,
            ),
        );
        Ok(())
    }

    /// `hsa_amd_memory_async_copy` + completion wait: content moves now;
    /// the DMA time serves on a copy engine inside the `signal_wait` op, so
    /// one thread's copy can hide behind another thread's kernel.
    /// `with_handler` models copies registered with an async completion
    /// callback (`signal_async_handler`).
    pub fn async_copy(
        &mut self,
        thread: usize,
        src: VirtAddr,
        dst: VirtAddr,
        len: u64,
        with_handler: bool,
    ) -> Result<(), MemError> {
        let failed_service = self.lock_service() + self.mem.cost().copy_submit;
        self.inject(
            thread,
            FaultKind::DmaError,
            HsaApiKind::MemoryAsyncCopy,
            failed_service,
        )?;
        self.mem.copy(src, dst, len)?;
        let dma_time = self.mem.transfer_duration(src, dst, len);
        let cost = self.mem.cost();
        let submit = cost.copy_submit;
        let wait_svc = cost.signal_wait_service;
        let handler = cost.copy_handler;

        self.count(HsaApiKind::MemoryAsyncCopy);
        self.streams.push(
            thread,
            Op::service(
                HsaApiKind::MemoryAsyncCopy.tag(),
                self.res.runtime_lock,
                self.lock_service() + submit,
            ),
        );
        self.count(HsaApiKind::SignalWaitScacquire);
        self.streams.push(
            thread,
            Op::new(HsaApiKind::SignalWaitScacquire.tag())
                .then_service(self.res.dma, dma_time)
                .then_local(wait_svc),
        );
        if with_handler {
            self.count(HsaApiKind::SignalAsyncHandler);
            self.streams.push(
                thread,
                Op::local(HsaApiKind::SignalAsyncHandler.tag(), handler),
            );
        }
        Ok(())
    }

    /// `hsa_amd_svm_attributes_set`: host-side GPU page-table prefault of
    /// `range` (a syscall — serialized on the runtime stack and subject to
    /// OS-interference noise).
    pub fn svm_prefault(
        &mut self,
        thread: usize,
        range: AddrRange,
    ) -> Result<PrefaultOutcome, MemError> {
        let out = self.mem.prefault(range)?;
        self.count(HsaApiKind::SvmAttributesSet);
        self.streams.push(
            thread,
            Op::service(
                HsaApiKind::SvmAttributesSet.tag(),
                self.res.runtime_lock,
                self.lock_service() + out.cost,
            ),
        );
        Ok(out)
    }

    /// Dispatch a kernel and wait for completion.
    ///
    /// `compute` is the kernel's modeled execution time; `access` is its
    /// accessed-address set, resolved against the GPU page table under
    /// `xnack`. First-touch XNACK replays stall the kernel: their cost is
    /// added to the GPU service time, exactly the paper's MI overhead.
    pub fn dispatch_kernel(
        &mut self,
        thread: usize,
        compute: VirtDuration,
        access: &[AddrRange],
        xnack: XnackMode,
    ) -> Result<GpuAccessOutcome, MemError> {
        let failed_service = self.lock_service() + self.mem.cost().kernel_dispatch;
        self.inject(
            thread,
            FaultKind::QueueFull,
            HsaApiKind::KernelDispatch,
            failed_service,
        )?;
        let out = self.mem.gpu_access(access, xnack)?;
        let cost = self.mem.cost();
        let dispatch = cost.kernel_dispatch;
        let wait_svc = cost.signal_wait_service;

        self.count(HsaApiKind::KernelDispatch);
        self.streams.push(
            thread,
            Op::service(
                HsaApiKind::KernelDispatch.tag(),
                self.res.runtime_lock,
                self.lock_service() + dispatch,
            ),
        );
        self.count(HsaApiKind::SignalWaitScacquire);
        self.streams.push(
            thread,
            Op::new(HsaApiKind::SignalWaitScacquire.tag())
                .then_service(self.res.gpu, compute + out.stall)
                .then_local(wait_svc),
        );
        Ok(out)
    }

    /// Dispatch a kernel **without waiting** (`target nowait`): the GPU
    /// service is submitted at the thread's current virtual clock and the
    /// thread continues; pass the returned token to
    /// [`await_kernels`](Self::await_kernels) (same thread) to block on
    /// completion. Access-set resolution (faults) happens at dispatch.
    pub fn dispatch_kernel_nowait(
        &mut self,
        thread: usize,
        compute: VirtDuration,
        access: &[AddrRange],
        xnack: XnackMode,
    ) -> Result<(GpuAccessOutcome, AsyncToken), MemError> {
        let failed_service = self.lock_service() + self.mem.cost().kernel_dispatch;
        self.inject(
            thread,
            FaultKind::QueueFull,
            HsaApiKind::KernelDispatch,
            failed_service,
        )?;
        let out = self.mem.gpu_access(access, xnack)?;
        let cost = self.mem.cost();
        let dispatch = cost.kernel_dispatch;
        let token = AsyncToken(self.next_token);
        self.next_token += 1;
        self.count(HsaApiKind::KernelDispatch);
        self.streams.push(
            thread,
            Op::new(HsaApiKind::KernelDispatch.tag())
                .then_service(self.res.runtime_lock, self.lock_service() + dispatch)
                .then_async_service(self.res.gpu, compute + out.stall, token),
        );
        Ok((out, token))
    }

    /// Block `thread` until the given async kernels complete (`taskwait`):
    /// one `signal_wait_scacquire` per outstanding kernel.
    pub fn await_kernels(&mut self, thread: usize, tokens: &[AsyncToken]) {
        let wait_svc = self.mem.cost().signal_wait_service;
        for &token in tokens {
            self.count(HsaApiKind::SignalWaitScacquire);
            self.streams.push(
                thread,
                Op::new(HsaApiKind::SignalWaitScacquire.tag())
                    .then_await(token)
                    .then_local(wait_svc),
            );
        }
    }

    /// Host-side computation on `thread` (untagged, uncontended).
    pub fn host_compute(&mut self, thread: usize, duration: VirtDuration) {
        self.streams
            .push(thread, Op::local(Tag::UNTAGGED, duration));
    }

    /// Charge a recovery-policy backoff wait on `thread` in virtual time.
    /// Tagged [`HsaApiKind::RecoveryBackoff`] so degraded runs show up in
    /// API statistics and the Chrome timeline.
    pub fn recovery_wait(&mut self, thread: usize, duration: VirtDuration) {
        if duration == VirtDuration::ZERO {
            return;
        }
        self.count(HsaApiKind::RecoveryBackoff);
        self.streams.push(
            thread,
            Op::local(HsaApiKind::RecoveryBackoff.tag(), duration),
        );
    }

    /// Eviction-then-retry support: evict up to `max_pages` unified-memory
    /// pages from VRAM (discrete only), charging the page-table teardown
    /// under the runtime lock as recovery work. Returns pages evicted.
    pub fn evict_um_pages(&mut self, thread: usize, max_pages: u64) -> u64 {
        let evicted = self.mem.evict_um_pages(max_pages);
        if evicted > 0 {
            let cost = self.mem.cost().pool_free_cost(evicted);
            self.count(HsaApiKind::RecoveryBackoff);
            self.streams.push(
                thread,
                Op::service(
                    HsaApiKind::RecoveryBackoff.tag(),
                    self.res.runtime_lock,
                    self.lock_service() + cost,
                ),
            );
        }
        evicted
    }

    /// Resolve all recorded streams. `noise` options are augmented with the
    /// syscall-class tag of `svm_attributes_set` for outlier injection.
    pub fn finish(self, opts: &RunOptions) -> HsaRunResult {
        let sv = HsaApiKind::SvmAttributesSet as u32;
        let opts = (*opts).syscall_tags(sv, sv);
        let schedule = schedule(self.machine, self.streams, &opts);
        let api_stats = ApiStats::from_schedule(&schedule);
        HsaRunResult {
            schedule,
            api_stats,
        }
    }

    /// Resolve the recorded streams once per seed (the paper's N-runs
    /// methodology: the program is identical across runs; OS noise differs).
    /// Much cheaper than re-recording the workload for every repeat.
    pub fn finish_many(self, opts: &RunOptions, seeds: &[u64]) -> Vec<HsaRunResult> {
        assert!(!seeds.is_empty(), "at least one seed");
        let sv = HsaApiKind::SvmAttributesSet as u32;
        let base = (*opts).syscall_tags(sv, sv);
        let mut results = Vec::with_capacity(seeds.len());
        for &seed in seeds {
            let mut o = base;
            o.seed = seed;
            let sched = schedule(self.machine.clone(), self.streams.clone(), &o);
            let api_stats = ApiStats::from_schedule(&sched);
            results.push(HsaRunResult {
                schedule: sched,
                api_stats,
            });
        }
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt() -> HsaRuntime {
        HsaRuntime::with_capacity(CostModel::mi300a_no_thp(), Topology::default(), 1 << 30)
    }

    #[test]
    fn pool_alloc_records_call_and_populates_gpu_pt() {
        let mut r = rt();
        let a = r.pool_allocate(0, 10_000).unwrap();
        assert_eq!(r.recorded_calls(HsaApiKind::MemoryPoolAllocate), 1);
        assert!(r.mem().gpu_pt().len() >= 3);
        r.pool_free(0, a).unwrap();
        let res = r.finish(&RunOptions::noiseless());
        assert_eq!(res.api_stats.get(HsaApiKind::MemoryPoolAllocate).calls, 1);
        assert_eq!(res.api_stats.get(HsaApiKind::MemoryPoolFree).calls, 1);
        assert!(res.makespan() > VirtDuration::ZERO);
    }

    #[test]
    fn async_copy_moves_content_and_counts_calls() {
        let mut r = rt();
        let h = r.host_alloc(0, 4096).unwrap();
        let d = r.pool_allocate(0, 4096).unwrap();
        r.mem_mut().cpu_write(h, b"payload").unwrap();
        r.async_copy(0, h, d, 7, true).unwrap();
        let mut buf = [0u8; 7];
        r.mem_mut().gpu_read(d, &mut buf).unwrap();
        assert_eq!(&buf, b"payload");
        let res = r.finish(&RunOptions::noiseless());
        assert_eq!(res.api_stats.get(HsaApiKind::MemoryAsyncCopy).calls, 1);
        assert_eq!(res.api_stats.get(HsaApiKind::SignalAsyncHandler).calls, 1);
        assert_eq!(res.api_stats.get(HsaApiKind::SignalWaitScacquire).calls, 1);
    }

    #[test]
    fn kernel_stall_includes_xnack_cost() {
        let mut r = rt();
        let h = r.host_alloc(0, 8192).unwrap();
        let range = AddrRange::new(h, 8192);
        let compute = VirtDuration::from_micros(100);
        let out = r
            .dispatch_kernel(0, compute, &[range], XnackMode::Enabled)
            .unwrap();
        assert_eq!(out.faulted_pages(), 2);
        let res = r.finish(&RunOptions::noiseless());
        let wait = res.api_stats.get(HsaApiKind::SignalWaitScacquire);
        // Wait latency covers compute + fault stall.
        assert!(wait.total_latency > compute);
    }

    #[test]
    fn kernel_on_unmapped_host_memory_without_xnack_fails() {
        let mut r = rt();
        let h = r.host_alloc(0, 4096).unwrap();
        let err = r
            .dispatch_kernel(
                0,
                VirtDuration::from_micros(1),
                &[AddrRange::new(h, 4096)],
                XnackMode::Disabled,
            )
            .unwrap_err();
        assert!(matches!(err, MemError::GpuFatalFault { .. }));
    }

    #[test]
    fn copies_overlap_kernels_across_threads() {
        // Thread 0 runs a long kernel; thread 1 copies concurrently.
        let mut r = rt();
        let d1 = r.pool_allocate(0, 1 << 20).unwrap();
        let h = r.host_alloc(1, 1 << 20).unwrap();
        let d2 = r.pool_allocate(1, 1 << 20).unwrap();
        let kernel = VirtDuration::from_millis(10);
        r.dispatch_kernel(
            0,
            kernel,
            &[AddrRange::new(d1, 1 << 20)],
            XnackMode::Disabled,
        )
        .unwrap();
        r.async_copy(1, h, d2, 1 << 20, false).unwrap();
        let res = r.finish(&RunOptions::noiseless());
        // The copy (on thread 1) completes while the kernel (thread 0) is
        // still running: data-transfer latency hiding.
        let kernel_end = res
            .schedule
            .records()
            .iter()
            .filter(|x| x.thread == 0 && x.tag == HsaApiKind::SignalWaitScacquire.tag())
            .map(|x| x.end)
            .max()
            .unwrap();
        let copy_end = res
            .schedule
            .records()
            .iter()
            .filter(|x| x.thread == 1 && x.tag == HsaApiKind::SignalWaitScacquire.tag())
            .map(|x| x.end)
            .max()
            .unwrap();
        assert!(copy_end < kernel_end);
        assert_eq!(
            res.schedule
                .thread_finish(0)
                .since(sim_des::VirtInstant::ZERO),
            res.makespan()
        );
    }

    #[test]
    fn device_init_emits_expected_call_mix() {
        let mut r = rt();
        r.device_init(0).unwrap();
        assert_eq!(r.recorded_calls(HsaApiKind::QueueCreate), 1);
        assert_eq!(r.recorded_calls(HsaApiKind::CodeObjectLoad), 1);
        assert_eq!(r.recorded_calls(HsaApiKind::MemoryPoolAllocate), 16);
        assert_eq!(r.recorded_calls(HsaApiKind::MemoryAsyncCopy), 3);
    }

    #[test]
    fn prefault_via_svm_counts_syscall() {
        let mut r = rt();
        let h = r.host_alloc(0, 16 * 4096).unwrap();
        let out = r.svm_prefault(0, AddrRange::new(h, 16 * 4096)).unwrap();
        assert_eq!(out.new_pages(), 16);
        assert_eq!(r.recorded_calls(HsaApiKind::SvmAttributesSet), 1);
        // Now GPU access never faults even with XNACK disabled.
        let o = r
            .dispatch_kernel(
                0,
                VirtDuration::from_micros(1),
                &[AddrRange::new(h, 16 * 4096)],
                XnackMode::Disabled,
            )
            .unwrap();
        assert_eq!(o.faulted_pages(), 0);
    }

    #[test]
    fn recorded_counts_match_schedule() {
        let mut r = rt();
        let h = r.host_alloc(0, 4096).unwrap();
        let d = r.pool_allocate(0, 4096).unwrap();
        r.async_copy(0, h, d, 100, true).unwrap();
        r.dispatch_kernel(0, VirtDuration::from_micros(5), &[], XnackMode::Disabled)
            .unwrap();
        let expected_waits = r.recorded_calls(HsaApiKind::SignalWaitScacquire);
        let res = r.finish(&RunOptions::noiseless());
        assert_eq!(
            res.api_stats.get(HsaApiKind::SignalWaitScacquire).calls,
            expected_waits
        );
    }
}
