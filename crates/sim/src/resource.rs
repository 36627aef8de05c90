//! Shared resources contended for by simulated threads.
//!
//! A resource is a pool of `capacity` identical FIFO servers (e.g. two SDMA
//! copy engines, one serialized runtime-stack lock, four accelerated compute
//! dies). Service requests are granted to the earliest-free server; requests
//! are ordered by arrival time, which the engine guarantees by always
//! advancing the thread with the smallest virtual clock.

use crate::time::{VirtDuration, VirtInstant};
use std::fmt;

/// Identifies a resource registered with a [`Machine`](crate::Machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ResourceId(pub(crate) u32);

impl ResourceId {
    #[inline]
    /// Zero-based index into the machine's resource list.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ResourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "res#{}", self.0)
    }
}

/// A pool of identical FIFO servers.
#[derive(Debug, Clone)]
pub struct Pool {
    name: String,
    /// Time at which each server becomes free.
    servers: Vec<VirtInstant>,
    /// Total busy time across all servers.
    busy: VirtDuration,
    /// Total time requests spent queued (start - arrival).
    queue_wait: VirtDuration,
    /// Number of grants.
    grants: u64,
}

impl Pool {
    /// Create a new instance.
    pub fn new(name: impl Into<String>, capacity: usize) -> Self {
        assert!(capacity > 0, "resource pool must have at least one server");
        Pool {
            name: name.into(),
            servers: vec![VirtInstant::ZERO; capacity],
            busy: VirtDuration::ZERO,
            queue_wait: VirtDuration::ZERO,
            grants: 0,
        }
    }

    /// Display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of identical servers in the pool.
    pub fn capacity(&self) -> usize {
        self.servers.len()
    }

    /// Serve a request arriving at `arrival` for `duration`.
    /// Returns the (start, end) of service on the earliest-free server.
    pub fn serve(
        &mut self,
        arrival: VirtInstant,
        duration: VirtDuration,
    ) -> (VirtInstant, VirtInstant) {
        let idx = self
            .servers
            .iter()
            .enumerate()
            .min_by_key(|(_, free)| **free)
            .map(|(i, _)| i)
            .expect("pool has at least one server");
        let start = arrival.max(self.servers[idx]);
        let end = start + duration;
        self.servers[idx] = end;
        self.busy += duration;
        self.queue_wait += start - arrival;
        self.grants += 1;
        (start, end)
    }

    /// Total service time granted so far.
    pub fn busy_time(&self) -> VirtDuration {
        self.busy
    }

    /// Total time requests spent queued before service.
    pub fn queue_wait(&self) -> VirtDuration {
        self.queue_wait
    }

    /// Number of service grants.
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Reset server availability and statistics (for reuse between runs).
    pub fn reset(&mut self) {
        for s in &mut self.servers {
            *s = VirtInstant::ZERO;
        }
        self.busy = VirtDuration::ZERO;
        self.queue_wait = VirtDuration::ZERO;
        self.grants = 0;
    }
}

/// Per-resource utilization figures extracted from a completed run.
#[derive(Debug, Clone)]
pub struct ResourceStats {
    /// Display name.
    pub name: String,
    /// Number of identical servers in the pool.
    pub capacity: usize,
    /// Total busy time across the pool's servers.
    pub busy: VirtDuration,
    /// Total time requests spent queued before service.
    pub queue_wait: VirtDuration,
    /// Number of service grants.
    pub grants: u64,
}

impl ResourceStats {
    /// Fraction of one server-lifetime the pool was busy, given the makespan.
    pub fn utilization(&self, makespan: VirtDuration) -> f64 {
        if makespan.is_zero() {
            return 0.0;
        }
        self.busy.as_nanos() as f64 / (makespan.as_nanos() as f64 * self.capacity as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(v: u64) -> VirtInstant {
        VirtInstant::from_nanos(v)
    }

    fn dur(v: u64) -> VirtDuration {
        VirtDuration::from_nanos(v)
    }

    #[test]
    fn single_server_serializes() {
        let mut p = Pool::new("lock", 1);
        let (s1, e1) = p.serve(ns(0), dur(100));
        assert_eq!((s1.as_nanos(), e1.as_nanos()), (0, 100));
        let (s2, e2) = p.serve(ns(10), dur(50));
        assert_eq!((s2.as_nanos(), e2.as_nanos()), (100, 150));
        assert_eq!(p.busy_time().as_nanos(), 150);
        assert_eq!(p.queue_wait().as_nanos(), 90);
        assert_eq!(p.grants(), 2);
    }

    #[test]
    fn two_servers_run_concurrently() {
        let mut p = Pool::new("dma", 2);
        let (_, e1) = p.serve(ns(0), dur(100));
        let (s2, _) = p.serve(ns(10), dur(100));
        assert_eq!(e1.as_nanos(), 100);
        assert_eq!(s2.as_nanos(), 10); // second engine free immediately
        let (s3, _) = p.serve(ns(20), dur(10));
        assert_eq!(s3.as_nanos(), 100); // earliest-free server is #1 at t=100
    }

    #[test]
    fn idle_gap_is_not_busy() {
        let mut p = Pool::new("gpu", 1);
        p.serve(ns(0), dur(10));
        p.serve(ns(1000), dur(10));
        assert_eq!(p.busy_time().as_nanos(), 20);
        assert_eq!(p.queue_wait(), VirtDuration::ZERO);
    }

    #[test]
    fn reset_clears_state() {
        let mut p = Pool::new("lock", 1);
        p.serve(ns(0), dur(100));
        p.reset();
        assert_eq!(p.busy_time(), VirtDuration::ZERO);
        assert_eq!(p.grants(), 0);
        let (s, _) = p.serve(ns(0), dur(1));
        assert_eq!(s.as_nanos(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_capacity_rejected() {
        let _ = Pool::new("bad", 0);
    }

    #[test]
    fn utilization_is_bounded() {
        let stats = ResourceStats {
            name: "gpu".into(),
            capacity: 2,
            busy: dur(100),
            queue_wait: VirtDuration::ZERO,
            grants: 1,
        };
        let u = stats.utilization(dur(100));
        assert!((u - 0.5).abs() < 1e-12);
        assert_eq!(stats.utilization(VirtDuration::ZERO), 0.0);
    }
}
