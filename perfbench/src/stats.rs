//! Order statistics for the reported timings.
//!
//! Percentiles are nearest-rank: the `p`-th percentile of `n` samples is
//! the `ceil(p·n)`-th smallest. A tail percentile is only meaningful when
//! enough samples lie beyond it, so [`percentile`] refuses (returns an
//! error the caller turns into a loud failure) whenever fewer than
//! [`MIN_BEYOND`] samples sit above the chosen rank. Such a metric is never
//! printed.

/// Samples that must lie strictly above a percentile's rank.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `p`-th percentile (`0 < p < 1`) of `samples`.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    assert!(p > 0.0 && p < 1.0, "percentile rank {p} outside (0, 1)");
    let n = samples.len();
    // Rank in 1..=n; the epsilon keeps e.g. 0.9·100 at exactly 90.
    let rank = ((p * n as f64) - 1e-9).ceil().max(1.0) as usize;
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{} of {n} samples has {beyond} beyond it (needs {MIN_BEYOND})",
            p * 100.0
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// Median by nearest rank, without the tail guard: used for small sets of
/// repeated whole measurements (passes, set-ups), not for latency tails.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[(sorted.len() - 1) / 2]
}

/// Arithmetic mean (0 for no samples).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled-looking order: percentile must sort first.
        (0..n).map(|i| ((i * 37) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn nearest_rank_picks_the_ceil_rank() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 0.5).unwrap(), 50.0);
        assert_eq!(percentile(&s, 0.9).unwrap(), 90.0);
        let s = ramp(21);
        // ceil(0.5 * 21) = 11th smallest.
        assert_eq!(percentile(&s, 0.5).unwrap(), 11.0);
    }

    #[test]
    fn thin_tails_fail_loudly() {
        // p90 of 99 samples: rank 90, only 9 beyond.
        assert!(percentile(&ramp(99), 0.9).is_err());
        assert!(percentile(&ramp(100), 0.9).is_ok());
        // p99 needs 1000 samples.
        assert!(percentile(&ramp(999), 0.99).is_err());
        assert!(percentile(&ramp(1000), 0.99).is_ok());
        // p50 needs 20.
        assert!(percentile(&ramp(19), 0.5).is_err());
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
