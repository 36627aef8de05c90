//! The simulated HSA/ROCr runtime.
//!
//! `HsaRuntime` is the recording facade the OpenMP layer drives: every call
//! performs its *functional* effect against [`ApuMemory`] immediately (so
//! memory semantics are real), records timed operations into per-thread
//! streams, and returns what it scheduled: a pool allocation its
//! [`AllocOutcome`], a pool free or an eviction its [`FreeOutcome`], a
//! copy its DMA time.
//! `finish()` resolves the streams against the socket's shared resources,
//! once per noise seed.

use crate::api::HsaApiKind;
use crate::topology::{Resources, Topology};
use apu_mem::{
    AddrRange, AllocOutcome, ApuMemory, CostModel, FreeOutcome, GpuAccessOutcome, MemError,
    MemOptions, PrefaultOutcome, SystemKind, VirtAddr, XnackMode,
};
use sim_des::{
    schedule, AsyncToken, FaultKind, FaultPlan, FaultStats, Machine, Op, OpStreams, RunOptions,
    Schedule, Tag, VirtDuration,
};

/// The recording HSA/ROCr runtime for one run on one APU socket.
#[derive(Debug)]
pub struct HsaRuntime {
    mem: ApuMemory,
    machine: Machine,
    res: Resources,
    streams: OpStreams,
    /// Async-token allocator for `nowait` dispatches.
    next_token: u64,
    /// Optional injected-failure schedule, consulted before each fallible
    /// call's functional effect (so injected failures are always safe to
    /// retry).
    fault: Option<FaultPlan>,
}

impl HsaRuntime {
    /// A runtime over a fresh system of the given kind with typed memory
    /// options.
    pub fn new(cost: CostModel, topo: Topology, kind: SystemKind, opts: MemOptions) -> Self {
        let (machine, res) = topo.machine();
        HsaRuntime {
            mem: ApuMemory::with_options(cost, kind, opts),
            machine,
            res,
            streams: OpStreams::new(1),
            next_token: 0,
            fault: None,
        }
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
        self.streams.push(
            thread,
            Op::service(
                HsaApiKind::QueueCreate.tag(),
                lock,
                svc + VirtDuration::from_micros(20),
            ),
        );
        for _ in 0..2 {
            self.streams.push(
                thread,
                Op::service(HsaApiKind::SignalCreate.tag(), lock, svc),
            );
        }
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
            let a = self.pool_allocate(thread, 64 * 1024)?.addr;
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
    /// Returns the allocation, whose `cost` is what the call scheduled
    /// beyond the runtime-lock service.
    pub fn pool_allocate(&mut self, thread: usize, len: u64) -> Result<AllocOutcome, MemError> {
        let failed_service = self.lock_service() + self.mem.cost().pool_alloc_base;
        self.inject(
            thread,
            FaultKind::PoolAllocFail,
            HsaApiKind::MemoryPoolAllocate,
            failed_service,
        )?;
        let out = self.mem.pool_alloc(len)?;
        self.streams.push(
            thread,
            Op::service(
                HsaApiKind::MemoryPoolAllocate.tag(),
                self.res.runtime_lock,
                self.lock_service() + out.cost,
            ),
        );
        Ok(out)
    }

    /// `hsa_amd_memory_pool_free`. Returns the free, whose `cost` is what
    /// the call scheduled beyond the runtime-lock service.
    pub fn pool_free(&mut self, thread: usize, addr: VirtAddr) -> Result<FreeOutcome, MemError> {
        let out = self.mem.pool_free(addr)?;
        self.streams.push(
            thread,
            Op::service(
                HsaApiKind::MemoryPoolFree.tag(),
                self.res.runtime_lock,
                self.lock_service() + out.cost,
            ),
        );
        Ok(out)
    }

    /// `hsa_amd_memory_async_copy` + completion wait: content moves now;
    /// the DMA time serves on a copy engine inside the `signal_wait` op, so
    /// one thread's copy can hide behind another thread's kernel.
    /// `with_handler` models copies registered with an async completion
    /// callback (`signal_async_handler`). Returns the DMA time scheduled.
    pub fn async_copy(
        &mut self,
        thread: usize,
        src: VirtAddr,
        dst: VirtAddr,
        len: u64,
        with_handler: bool,
    ) -> Result<VirtDuration, MemError> {
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

        self.streams.push(
            thread,
            Op::service(
                HsaApiKind::MemoryAsyncCopy.tag(),
                self.res.runtime_lock,
                self.lock_service() + submit,
            ),
        );
        self.streams.push(
            thread,
            Op::new(HsaApiKind::SignalWaitScacquire.tag())
                .then_service(self.res.dma, dma_time)
                .then_local(wait_svc),
        );
        if with_handler {
            self.streams.push(
                thread,
                Op::local(HsaApiKind::SignalAsyncHandler.tag(), handler),
            );
        }
        Ok(dma_time)
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

    /// Dispatch a kernel. Without `nowait` the thread waits for completion;
    /// with it (`target nowait`) the GPU service is submitted at the
    /// thread's current virtual clock, the thread continues, and the
    /// returned token goes to [`await_kernels`](Self::await_kernels) (same
    /// thread) to block on completion.
    ///
    /// `compute` is the kernel's modeled execution time; `access` is its
    /// accessed-address set, resolved at dispatch against the GPU page
    /// table under `xnack`. First-touch XNACK replays stall the kernel:
    /// their cost is added to the GPU service time, exactly the paper's MI
    /// overhead.
    pub fn dispatch_kernel(
        &mut self,
        thread: usize,
        compute: VirtDuration,
        access: &[AddrRange],
        xnack: XnackMode,
        nowait: bool,
    ) -> Result<(GpuAccessOutcome, Option<AsyncToken>), MemError> {
        // A failed dispatch serves the same time under the lock.
        let dispatch = self.lock_service() + self.mem.cost().kernel_dispatch;
        self.inject(
            thread,
            FaultKind::QueueFull,
            HsaApiKind::KernelDispatch,
            dispatch,
        )?;
        let out = self.mem.gpu_access(access, xnack)?;
        let lock = self.res.runtime_lock;
        let gpu = compute + out.stall;
        if nowait {
            let token = AsyncToken(self.next_token);
            self.next_token += 1;
            self.streams.push(
                thread,
                Op::new(HsaApiKind::KernelDispatch.tag())
                    .then_service(lock, dispatch)
                    .then_async_service(self.res.gpu, gpu, token),
            );
            return Ok((out, Some(token)));
        }
        self.streams.push(
            thread,
            Op::service(HsaApiKind::KernelDispatch.tag(), lock, dispatch),
        );
        self.streams.push(
            thread,
            Op::new(HsaApiKind::SignalWaitScacquire.tag())
                .then_service(self.res.gpu, gpu)
                .then_local(self.mem.cost().signal_wait_service),
        );
        Ok((out, None))
    }

    /// Block `thread` until the given async kernels complete (`taskwait`):
    /// one `signal_wait_scacquire` per outstanding kernel.
    pub fn await_kernels(&mut self, thread: usize, tokens: &[AsyncToken]) {
        let wait_svc = self.mem.cost().signal_wait_service;
        for &token in tokens {
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
        self.streams.push(
            thread,
            Op::local(HsaApiKind::RecoveryBackoff.tag(), duration),
        );
    }

    /// Eviction-then-retry support: evict up to `max_pages` unified-memory
    /// pages from VRAM (discrete only), scheduling the page-table teardown
    /// under the runtime lock as recovery work. Returns the eviction, whose
    /// `cost` is what the call scheduled beyond the runtime-lock service
    /// (nothing is scheduled when no page was evicted).
    pub fn evict_um_pages(&mut self, thread: usize, max_pages: u64) -> FreeOutcome {
        let out = self.mem.evict_um_pages(max_pages);
        if out.pages > 0 {
            self.streams.push(
                thread,
                Op::service(
                    HsaApiKind::RecoveryBackoff.tag(),
                    self.res.runtime_lock,
                    self.lock_service() + out.cost,
                ),
            );
        }
        out
    }

    /// Resolve the recorded streams once per seed (the paper's N-runs
    /// methodology: the program is identical across runs; OS noise
    /// differs), returning one schedule per seed in order. `opts` is
    /// augmented with the syscall-class tag of `svm_attributes_set` for
    /// outlier injection. The last seed schedules the streams themselves,
    /// so a single-seed finish copies nothing.
    pub fn finish(self, opts: &RunOptions, seeds: &[u64]) -> Vec<Schedule> {
        let (&last, rest) = seeds.split_last().expect("at least one seed");
        let sv = HsaApiKind::SvmAttributesSet as u32;
        let base = (*opts).syscall_tags(sv, sv);
        let seeded = |seed| RunOptions { seed, ..base };
        let mut schedules: Vec<Schedule> = rest
            .iter()
            .map(|&seed| schedule(self.machine.clone(), self.streams.clone(), &seeded(seed)))
            .collect();
        schedules.push(schedule(self.machine, self.streams, &seeded(last)));
        schedules
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::ApiStats;

    fn rt() -> HsaRuntime {
        HsaRuntime::new(
            CostModel::mi300a_no_thp(),
            Topology::default(),
            SystemKind::Apu,
            MemOptions::default().capacity(1 << 30),
        )
    }

    /// The one noiseless schedule of a finished runtime.
    fn finish(r: HsaRuntime) -> Schedule {
        let [schedule] = r
            .finish(&RunOptions::noiseless(), &[0])
            .try_into()
            .expect("one schedule per seed");
        schedule
    }

    fn stats(r: HsaRuntime) -> ApiStats {
        ApiStats::from_schedule(&finish(r))
    }

    #[test]
    fn pool_alloc_records_call_and_populates_gpu_pt() {
        let mut r = rt();
        let a = r.pool_allocate(0, 10_000).unwrap();
        assert_eq!(a.pages, 3);
        assert!(r.mem().gpu_pt().len() >= 3);
        let f = r.pool_free(0, a.addr).unwrap();
        // Each call returns the cost it scheduled behind the lock service.
        let cost = r.mem().cost().clone();
        assert_eq!(a.cost, cost.pool_alloc_cost(3));
        assert_eq!(f.cost, cost.pool_free_cost(3));
        let stats = stats(r);
        let svc = cost.runtime_call_service;
        let alloc = stats.get(HsaApiKind::MemoryPoolAllocate);
        let free = stats.get(HsaApiKind::MemoryPoolFree);
        assert_eq!((alloc.calls, alloc.total_latency), (1, svc + a.cost));
        assert_eq!((free.calls, free.total_latency), (1, svc + f.cost));
    }

    #[test]
    fn async_copy_moves_content_and_counts_calls() {
        let mut r = rt();
        let h = r.host_alloc(0, 4096).unwrap();
        let d = r.pool_allocate(0, 4096).unwrap().addr;
        r.mem_mut().cpu_write(h, b"payload").unwrap();
        let dma = r.async_copy(0, h, d, 7, true).unwrap();
        assert_eq!(dma, r.mem().cost().copy_duration(7));
        let mut buf = [0u8; 7];
        r.mem_mut().gpu_read(d, &mut buf).unwrap();
        assert_eq!(&buf, b"payload");
        let wait_svc = r.mem().cost().signal_wait_service;
        let stats = stats(r);
        assert_eq!(stats.get(HsaApiKind::MemoryAsyncCopy).calls, 1);
        assert_eq!(stats.get(HsaApiKind::SignalAsyncHandler).calls, 1);
        // The wait serves the returned DMA time.
        let wait = stats.get(HsaApiKind::SignalWaitScacquire);
        assert_eq!((wait.calls, wait.total_latency), (1, dma + wait_svc));
    }

    #[test]
    fn kernel_stall_includes_xnack_cost() {
        let mut r = rt();
        let h = r.host_alloc(0, 8192).unwrap();
        let range = AddrRange::new(h, 8192);
        let compute = VirtDuration::from_micros(100);
        let (out, token) = r
            .dispatch_kernel(0, compute, &[range], XnackMode::Enabled, false)
            .unwrap();
        assert_eq!(out.faulted_pages(), 2);
        assert_eq!(token, None);
        let wait = stats(r).get(HsaApiKind::SignalWaitScacquire);
        // Wait latency covers compute + fault stall.
        assert!(wait.total_latency > compute);
    }

    #[test]
    fn nowait_dispatch_records_one_op_and_awaits_its_token() {
        let mut r = rt();
        let compute = VirtDuration::from_micros(50);
        let (_, token) = r
            .dispatch_kernel(0, compute, &[], XnackMode::Disabled, true)
            .unwrap();
        let token = token.expect("a nowait dispatch returns its token");
        // One dispatch op carries the lock service and the async GPU
        // service; the wait comes only from `await_kernels`.
        assert_eq!(r.thread_ops(0), 1);
        r.await_kernels(0, &[token]);
        assert_eq!(r.thread_ops(0), 2);
        let wait_svc = r.mem().cost().signal_wait_service;
        let schedule = finish(r);
        let stats = ApiStats::from_schedule(&schedule);
        assert_eq!(stats.get(HsaApiKind::KernelDispatch).calls, 1);
        assert_eq!(stats.get(HsaApiKind::SignalWaitScacquire).calls, 1);
        assert!(schedule.makespan() >= compute + wait_svc);
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
                false,
            )
            .unwrap_err();
        assert!(matches!(err, MemError::GpuFatalFault { .. }));
    }

    #[test]
    fn copies_overlap_kernels_across_threads() {
        // Thread 0 runs a long kernel; thread 1 copies concurrently.
        let mut r = rt();
        let d1 = r.pool_allocate(0, 1 << 20).unwrap().addr;
        let h = r.host_alloc(1, 1 << 20).unwrap();
        let d2 = r.pool_allocate(1, 1 << 20).unwrap().addr;
        let kernel = VirtDuration::from_millis(10);
        r.dispatch_kernel(
            0,
            kernel,
            &[AddrRange::new(d1, 1 << 20)],
            XnackMode::Disabled,
            false,
        )
        .unwrap();
        r.async_copy(1, h, d2, 1 << 20, false).unwrap();
        let schedule = finish(r);
        // The copy (on thread 1) completes while the kernel (thread 0) is
        // still running: data-transfer latency hiding.
        let kernel_end = schedule
            .records()
            .iter()
            .filter(|x| x.thread == 0 && x.tag == HsaApiKind::SignalWaitScacquire.tag())
            .map(|x| x.end)
            .max()
            .unwrap();
        let copy_end = schedule
            .records()
            .iter()
            .filter(|x| x.thread == 1 && x.tag == HsaApiKind::SignalWaitScacquire.tag())
            .map(|x| x.end)
            .max()
            .unwrap();
        assert!(copy_end < kernel_end);
        assert_eq!(
            schedule.thread_finish(0).since(sim_des::VirtInstant::ZERO),
            schedule.makespan()
        );
    }

    #[test]
    fn device_init_emits_expected_call_mix() {
        let mut r = rt();
        r.device_init(0).unwrap();
        let stats = stats(r);
        assert_eq!(stats.get(HsaApiKind::QueueCreate).calls, 1);
        assert_eq!(stats.get(HsaApiKind::CodeObjectLoad).calls, 1);
        assert_eq!(stats.get(HsaApiKind::MemoryPoolAllocate).calls, 16);
        assert_eq!(stats.get(HsaApiKind::MemoryAsyncCopy).calls, 3);
    }

    #[test]
    fn prefault_via_svm_counts_syscall() {
        let mut r = rt();
        let h = r.host_alloc(0, 16 * 4096).unwrap();
        let out = r.svm_prefault(0, AddrRange::new(h, 16 * 4096)).unwrap();
        assert_eq!(out.new_pages(), 16);
        // Now GPU access never faults even with XNACK disabled.
        let (o, _) = r
            .dispatch_kernel(
                0,
                VirtDuration::from_micros(1),
                &[AddrRange::new(h, 16 * 4096)],
                XnackMode::Disabled,
                false,
            )
            .unwrap();
        assert_eq!(o.faulted_pages(), 0);
        assert_eq!(stats(r).get(HsaApiKind::SvmAttributesSet).calls, 1);
    }

    #[test]
    fn recorded_counts_match_schedule() {
        let mut r = rt();
        let h = r.host_alloc(0, 4096).unwrap();
        let d = r.pool_allocate(0, 4096).unwrap().addr;
        r.async_copy(0, h, d, 100, true).unwrap();
        r.dispatch_kernel(
            0,
            VirtDuration::from_micros(5),
            &[],
            XnackMode::Disabled,
            false,
        )
        .unwrap();
        // Every recorded op but the host allocation's untagged one is an API
        // call, and the statistics count each call from its op's tag.
        let recorded = r.thread_ops(0) as u64;
        let stats = stats(r);
        assert_eq!(stats.total_calls(), recorded - 1);
        assert_eq!(stats.get(HsaApiKind::SignalWaitScacquire).calls, 2);
    }
}
