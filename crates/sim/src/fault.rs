//! Deterministic fault-injection plans.
//!
//! Real MI300A deployments do not always present the happy path the rest of
//! this simulator models: pool allocations fail under VRAM pressure, SDMA
//! engines return transient errors, the compute queue backs up, and XNACK
//! may be unavailable at boot (`HSA_XNACK=0`) or effectively lost mid-run
//! when an administrator flips the deployment mode. A [`FaultPlan`] is a
//! *seeded* schedule of such failures: higher layers consult it at each
//! injection point (pool allocate, async copy submit, kernel dispatch) and
//! the plan answers, deterministically, whether that particular call fails.
//!
//! ## Determinism
//!
//! The record phase of a run is single-threaded per runtime, so injection
//! points are consulted in a fixed order. Each fault site draws from its own
//! [`SplitMix64`] stream (derived from the plan seed and the site
//! discriminant), which makes the answer at one site independent of how
//! often the other sites are consulted. Two runs with the same seed and the
//! same workload therefore observe byte-identical fault schedules.
//!
//! ## Bounded bursts
//!
//! Transient faults fire in *bursts*: when a site triggers, the next draw(s)
//! at that site also fail, up to `max_burst` consecutive failures, and the
//! consultation immediately after an episode is guaranteed to succeed.
//! Keeping `max_burst` strictly below a recovery policy's retry budget
//! therefore guarantees that bounded retry always eventually succeeds, which
//! is what lets the soak tests assert semantic equivalence between faulty
//! and healthy runs.

use crate::noise::SplitMix64;
use crate::time::VirtDuration;

/// The kinds of failure a plan can inject, one per modeled layer boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// `memory_pool_allocate` returns a transient driver/fragmentation
    /// failure (distinct from a genuine capacity `OutOfMemory`).
    PoolAllocFail,
    /// The SDMA engine rejects or corrupts an async copy submission; the
    /// copy has no effect and must be resubmitted.
    DmaError,
    /// The GPU compute (AQL) queue is full; the dispatch packet cannot be
    /// enqueued until earlier work drains.
    QueueFull,
    /// XNACK demand-paging capability is lost (at startup: unavailable
    /// deployment; mid-run: administrative mode flip). Not a per-call
    /// fault — see [`FaultPlan::xnack_unavailable`] and
    /// [`FaultPlan::xnack_flip_due`].
    XnackLost,
}

impl FaultKind {
    /// All per-call (transient) fault sites, in discriminant order.
    pub const TRANSIENT: [FaultKind; 3] = [
        FaultKind::PoolAllocFail,
        FaultKind::DmaError,
        FaultKind::QueueFull,
    ];

    /// Stable short label for ledgers and traces.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::PoolAllocFail => "pool_alloc_fail",
            FaultKind::DmaError => "dma_error",
            FaultKind::QueueFull => "queue_full",
            FaultKind::XnackLost => "xnack_lost",
        }
    }

    fn site_index(self) -> usize {
        match self {
            FaultKind::PoolAllocFail => 0,
            FaultKind::DmaError => 1,
            FaultKind::QueueFull => 2,
            FaultKind::XnackLost => 3,
        }
    }
}

/// Per-site probabilities and burst bound for a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Probability that a pool allocation fails transiently.
    pub pool_alloc_fail: f64,
    /// Probability that an async-copy submission fails.
    pub dma_error: f64,
    /// Probability that a kernel dispatch hits a full queue.
    pub queue_full: f64,
    /// Maximum *consecutive* failures per episode (>= 1). Recovery retry
    /// budgets must exceed this for recovery to be guaranteed.
    pub max_burst: u32,
    /// Whether XNACK is unavailable from the start of the run.
    pub xnack_unavailable: bool,
    /// If set, XNACK capability is lost after this many kernel dispatches.
    pub xnack_flip_after_kernels: Option<u64>,
}

impl FaultSpec {
    /// A plan that never fires; useful as a neutral element in tests.
    pub fn none() -> Self {
        FaultSpec {
            pool_alloc_fail: 0.0,
            dma_error: 0.0,
            queue_full: 0.0,
            max_burst: 1,
            xnack_unavailable: false,
            xnack_flip_after_kernels: None,
        }
    }

    /// Aggressive transient rates for soak testing: every site fires often,
    /// but bursts stay within the default recovery budget.
    pub fn soak() -> Self {
        FaultSpec {
            pool_alloc_fail: 0.20,
            dma_error: 0.15,
            queue_full: 0.10,
            max_burst: 2,
            xnack_unavailable: false,
            xnack_flip_after_kernels: None,
        }
    }

    fn probability(&self, kind: FaultKind) -> f64 {
        match kind {
            FaultKind::PoolAllocFail => self.pool_alloc_fail,
            FaultKind::DmaError => self.dma_error,
            FaultKind::QueueFull => self.queue_full,
            FaultKind::XnackLost => 0.0,
        }
    }
}

/// Counters of what a plan actually injected, for reports and replay checks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Injected transient pool-allocation failures.
    pub pool_alloc_failures: u64,
    /// Injected DMA submission errors.
    pub dma_errors: u64,
    /// Injected queue-full dispatch rejections.
    pub queue_full: u64,
    /// 1 when a mid-run XNACK flip fired.
    pub xnack_flips: u64,
    /// Distinct failure episodes (bursts), across all transient sites.
    pub episodes: u64,
}

impl FaultStats {
    /// Total injected per-call failures.
    pub fn total_injected(&self) -> u64 {
        self.pool_alloc_failures + self.dma_errors + self.queue_full
    }
}

#[derive(Debug, Clone)]
struct Site {
    rng: SplitMix64,
    probability: f64,
    burst_left: u32,
    // The consultation right after an episode always succeeds; without this
    // cooldown two adjacent episodes could chain into a run longer than
    // `max_burst`, voiding the bounded-retry guarantee.
    cooldown: bool,
}

/// A seeded, deterministic schedule of injected failures.
///
/// Attach one to a run (via the runtime builder) and the HSA layer consults
/// it at each injection point. Cloning a plan clones its full PRNG state;
/// to replay a schedule, construct a fresh plan from the same seed.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    spec: FaultSpec,
    sites: [Site; 3],
    xnack_unavailable: bool,
    xnack_flip_after: Option<u64>,
    xnack_flip_fired: bool,
    stats: FaultStats,
}

impl FaultPlan {
    /// Build a plan with explicit per-site rates.
    pub fn new(seed: u64, spec: FaultSpec) -> Self {
        assert!(spec.max_burst >= 1, "max_burst must be >= 1");
        let site = |kind: FaultKind| Site {
            // Mix the site discriminant into the stream seed so each site
            // draws independently of how often the others are consulted.
            rng: SplitMix64::new(
                seed ^ (0xFA17_0000_0000_0000u64).wrapping_add(kind.site_index() as u64),
            ),
            probability: spec.probability(kind),
            burst_left: 0,
            cooldown: false,
        };
        FaultPlan {
            seed,
            spec,
            sites: [
                site(FaultKind::PoolAllocFail),
                site(FaultKind::DmaError),
                site(FaultKind::QueueFull),
            ],
            xnack_unavailable: spec.xnack_unavailable,
            xnack_flip_after: spec.xnack_flip_after_kernels,
            xnack_flip_fired: false,
            stats: FaultStats::default(),
        }
    }

    /// Derive a complete fault schedule from a single seed — the form the
    /// `repro --faults <seed>` flag uses. Transient rates are drawn in
    /// moderate bands and roughly half of all seeds schedule a mid-run
    /// XNACK flip. Startup XNACK-unavailability is *not* derived here (it
    /// is a deployment property; see [`FaultPlan::with_xnack_unavailable`])
    /// so that a seeded repro run never turns into an unsupported
    /// deployment.
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x5EED_FA17);
        let spec = FaultSpec {
            pool_alloc_fail: 0.02 + 0.08 * rng.next_f64(),
            dma_error: 0.02 + 0.06 * rng.next_f64(),
            queue_full: 0.01 + 0.05 * rng.next_f64(),
            max_burst: 2,
            xnack_unavailable: false,
            xnack_flip_after_kernels: if rng.next_f64() < 0.5 {
                Some(1 + rng.next_u64() % 16)
            } else {
                None
            },
        };
        FaultPlan::new(seed, spec)
    }

    /// The seed the plan was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The spec the plan was built from.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Mark XNACK as unavailable from startup (deployment-level fault).
    pub fn with_xnack_unavailable(mut self, unavailable: bool) -> Self {
        self.xnack_unavailable = unavailable;
        self
    }

    /// Schedule a mid-run XNACK flip after `kernels` dispatches.
    pub fn with_xnack_flip_after(mut self, kernels: u64) -> Self {
        self.xnack_flip_after = Some(kernels);
        self
    }

    /// True when the deployment lacks XNACK from the start.
    pub fn xnack_unavailable(&self) -> bool {
        self.xnack_unavailable
    }

    /// The scheduled mid-run XNACK flip, if any (kernel-dispatch count).
    pub fn xnack_flip_after(&self) -> Option<u64> {
        self.xnack_flip_after
    }

    /// Consult the plan at a transient fault site: should *this* call fail?
    ///
    /// Draws one value from the site's stream per consultation; a triggered
    /// episode fails up to `max_burst` consecutive calls at that site.
    pub fn should_fail(&mut self, kind: FaultKind) -> bool {
        let idx = kind.site_index();
        assert!(idx < self.sites.len(), "not a transient fault site");
        let site = &mut self.sites[idx];
        let fail = if site.burst_left > 0 {
            site.burst_left -= 1;
            site.cooldown = site.burst_left == 0;
            true
        } else if site.cooldown {
            site.cooldown = false;
            false
        } else if site.probability > 0.0 && site.rng.next_f64() < site.probability {
            // New episode: this call fails, plus 0..max_burst-1 follow-ups.
            site.burst_left = (site.rng.next_u64() % self.spec.max_burst as u64) as u32;
            site.cooldown = site.burst_left == 0;
            self.stats.episodes += 1;
            true
        } else {
            false
        };
        if fail {
            match kind {
                FaultKind::PoolAllocFail => self.stats.pool_alloc_failures += 1,
                FaultKind::DmaError => self.stats.dma_errors += 1,
                FaultKind::QueueFull => self.stats.queue_full += 1,
                FaultKind::XnackLost => {}
            }
        }
        fail
    }

    /// Consult the plan's mid-run XNACK flip: returns `true` exactly once,
    /// on the first call where `kernels_dispatched` reaches the scheduled
    /// flip point.
    pub fn xnack_flip_due(&mut self, kernels_dispatched: u64) -> bool {
        match self.xnack_flip_after {
            Some(after) if !self.xnack_flip_fired && kernels_dispatched >= after => {
                self.xnack_flip_fired = true;
                self.stats.xnack_flips += 1;
                true
            }
            _ => false,
        }
    }

    /// What the plan has injected so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }
}

/// Exponential backoff schedule, charged in virtual time between recovery
/// retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    /// Delay before the first retry.
    pub base: VirtDuration,
    /// Multiplier applied per subsequent retry.
    pub factor: u32,
    /// Upper bound on any single delay.
    pub max: VirtDuration,
}

impl Backoff {
    /// Default schedule: 10µs, doubling, capped at 1ms.
    pub const fn default_policy() -> Self {
        Backoff {
            base: VirtDuration::from_micros(10),
            factor: 2,
            max: VirtDuration::from_millis(1),
        }
    }

    /// Delay charged before retry number `attempt` (0-based: the delay
    /// after the first failure is `delay(0) == base`).
    pub fn delay(&self, attempt: u32) -> VirtDuration {
        let mut d = self.base;
        for _ in 0..attempt {
            let next = VirtDuration::from_nanos(d.as_nanos().saturating_mul(self.factor as u64));
            if next >= self.max {
                return self.max;
            }
            d = next;
        }
        d.min(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let mut a = FaultPlan::new(42, FaultSpec::soak());
        let mut b = FaultPlan::new(42, FaultSpec::soak());
        for i in 0..1000 {
            let kind = FaultKind::TRANSIENT[i % 3];
            assert_eq!(a.should_fail(kind), b.should_fail(kind));
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn sites_are_independent_streams() {
        // Consulting one site must not perturb another site's answers.
        let mut lone = FaultPlan::new(7, FaultSpec::soak());
        let lone_answers: Vec<bool> = (0..200)
            .map(|_| lone.should_fail(FaultKind::DmaError))
            .collect();
        let mut mixed = FaultPlan::new(7, FaultSpec::soak());
        let mixed_answers: Vec<bool> = (0..200)
            .map(|_| {
                mixed.should_fail(FaultKind::PoolAllocFail);
                mixed.should_fail(FaultKind::QueueFull);
                mixed.should_fail(FaultKind::DmaError)
            })
            .collect();
        assert_eq!(lone_answers, mixed_answers);
    }

    #[test]
    fn bursts_are_bounded() {
        let spec = FaultSpec {
            pool_alloc_fail: 0.3,
            max_burst: 2,
            ..FaultSpec::none()
        };
        let mut plan = FaultPlan::new(11, spec);
        let mut run = 0u32;
        for _ in 0..10_000 {
            if plan.should_fail(FaultKind::PoolAllocFail) {
                run += 1;
                assert!(run <= spec.max_burst, "burst exceeded max_burst");
            } else {
                run = 0;
            }
        }
        assert!(plan.stats().pool_alloc_failures > 0);
    }

    #[test]
    fn none_spec_never_fires() {
        let mut plan = FaultPlan::new(3, FaultSpec::none());
        for _ in 0..1000 {
            assert!(!plan.should_fail(FaultKind::DmaError));
        }
        assert_eq!(plan.stats().total_injected(), 0);
    }

    #[test]
    fn xnack_flip_fires_once() {
        let mut plan = FaultPlan::new(1, FaultSpec::none()).with_xnack_flip_after(3);
        assert!(!plan.xnack_flip_due(0));
        assert!(!plan.xnack_flip_due(2));
        assert!(plan.xnack_flip_due(3));
        assert!(!plan.xnack_flip_due(4));
        assert_eq!(plan.stats().xnack_flips, 1);
    }

    #[test]
    fn from_seed_is_deterministic_and_bounded() {
        let a = FaultPlan::from_seed(99);
        let b = FaultPlan::from_seed(99);
        assert_eq!(a.spec().pool_alloc_fail, b.spec().pool_alloc_fail);
        assert_eq!(
            a.spec().xnack_flip_after_kernels,
            b.spec().xnack_flip_after_kernels
        );
        assert!(!a.xnack_unavailable());
        assert!(a.spec().max_burst >= 1);
        assert!(a.spec().pool_alloc_fail < 0.5);
    }

    #[test]
    fn backoff_grows_and_caps() {
        let b = Backoff::default_policy();
        assert_eq!(b.delay(0), VirtDuration::from_micros(10));
        assert_eq!(b.delay(1), VirtDuration::from_micros(20));
        assert_eq!(b.delay(2), VirtDuration::from_micros(40));
        assert_eq!(b.delay(20), VirtDuration::from_millis(1));
    }
}
