//! Deterministic measurement-noise model.
//!
//! Real measurements on the paper's testbed exhibit run-to-run variation
//! (reported as Coefficient of Variation), including rare large outliers
//! attributed to operating-system interference on the Eager Maps prefault
//! syscall path. Virtual time is deterministic, so to reproduce the paper's
//! statistical-robustness analysis we perturb segment durations with a
//! *seeded* jitter: same seed, same "measurement".
//!
//! The generator is an embedded SplitMix64 so this crate stays
//! dependency-free; fault plans and the random programs of the
//! cross-config equivalence test draw from it too.

/// SplitMix64: tiny, high-quality, deterministic PRNG.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a new instance.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    #[inline]
    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Configuration of the jitter applied to service durations.
#[derive(Debug, Clone, Copy)]
pub struct NoiseModel {
    /// Relative half-width of the uniform jitter band: durations are scaled
    /// by a factor uniform in `[1 - rel_jitter, 1 + rel_jitter]`.
    pub rel_jitter: f64,
    /// Probability that a *syscall-class* segment suffers an OS-interference
    /// outlier (the paper observed one Eager Maps data point an order of
    /// magnitude larger than the rest, CoV 4.2).
    pub outlier_prob: f64,
    /// Multiplier applied to a segment hit by an outlier.
    pub outlier_scale: f64,
}

impl NoiseModel {
    /// No perturbation at all.
    pub const NONE: NoiseModel = NoiseModel {
        rel_jitter: 0.0,
        outlier_prob: 0.0,
        outlier_scale: 1.0,
    };

    /// Mild jitter resembling a quiet HPC node.
    pub fn quiet_node() -> Self {
        NoiseModel {
            rel_jitter: 0.02,
            outlier_prob: 0.0,
            outlier_scale: 1.0,
        }
    }

    /// Jitter plus rare large OS-interference outliers on syscalls.
    pub fn os_interference() -> Self {
        NoiseModel {
            rel_jitter: 0.02,
            outlier_prob: 1e-6,
            outlier_scale: 5_000.0,
        }
    }

    /// True when this model applies no perturbation.
    pub fn is_none(&self) -> bool {
        self.rel_jitter == 0.0 && self.outlier_prob == 0.0
    }

    /// Jitter factor for an ordinary segment.
    #[inline]
    pub fn factor(&self, rng: &mut SplitMix64) -> f64 {
        if self.rel_jitter == 0.0 {
            return 1.0;
        }
        1.0 + self.rel_jitter * (2.0 * rng.next_f64() - 1.0)
    }

    /// Jitter factor for a syscall-class segment (may be an outlier).
    #[inline]
    pub fn syscall_factor(&self, rng: &mut SplitMix64) -> f64 {
        let base = self.factor(rng);
        if self.outlier_prob > 0.0 && rng.next_f64() < self.outlier_prob {
            base * self.outlier_scale
        } else {
            base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn splitmix_f64_in_unit_interval() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..10_000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn none_model_is_identity() {
        let mut rng = SplitMix64::new(1);
        assert_eq!(NoiseModel::NONE.factor(&mut rng), 1.0);
        assert_eq!(NoiseModel::NONE.syscall_factor(&mut rng), 1.0);
        assert!(NoiseModel::NONE.is_none());
    }

    #[test]
    fn jitter_stays_in_band() {
        let m = NoiseModel::quiet_node();
        let mut rng = SplitMix64::new(3);
        for _ in 0..10_000 {
            let f = m.factor(&mut rng);
            assert!((1.0 - m.rel_jitter..=1.0 + m.rel_jitter).contains(&f));
        }
    }

    #[test]
    fn outliers_eventually_fire() {
        let m = NoiseModel {
            rel_jitter: 0.0,
            outlier_prob: 0.01,
            outlier_scale: 100.0,
        };
        let mut rng = SplitMix64::new(9);
        let mut hit = false;
        for _ in 0..10_000 {
            if m.syscall_factor(&mut rng) > 10.0 {
                hit = true;
                break;
            }
        }
        assert!(hit, "expected at least one outlier in 10k draws at p=0.01");
    }
}
