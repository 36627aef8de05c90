//! Seeded input generation: every input the benchmark feeds the program
//! (corpus order, the warm cells each connection asks for, cold cells and
//! their fault seeds) is drawn here from `--seed`, so a seed names one
//! exact input set.

/// SplitMix64: tiny, fast, and good enough to shuffle and sample inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

/// Independent draw streams derived from one `--seed`.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    /// Sweep corpus order.
    CorpusOrder,
    /// Cell choices of the closed-loop warm reader.
    WarmCells,
    /// Cold cells of the open-loop writer: cell, elide mode, fault seed.
    ColdCells,
    /// Replacement choices of latency sample `n`.
    Sample(u64),
}

impl Rng {
    /// The generator for `stream` of `seed`.
    pub fn new(seed: u64, stream: Stream) -> Rng {
        let k = match stream {
            Stream::CorpusOrder => 1,
            Stream::ColdCells => 2,
            Stream::WarmCells => 3,
            Stream::Sample(n) => 1024 + n,
        };
        let mut r = Rng(seed ^ k.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(`s`) popularity over `n` items: item of rank `r` (1-based) is
/// drawn with probability proportional to `r^-s`.
#[derive(Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n >= 1` ranks.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n >= 1, "Zipf over no items");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += (r as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// A 0-based rank.
    pub fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws(seed: u64) -> (Vec<usize>, Vec<usize>, Vec<u64>) {
        let z = Zipf::new(84, 1.1);
        let mut conn = Rng::new(seed, Stream::WarmCells);
        let zipf: Vec<usize> = (0..200).map(|_| z.draw(&mut conn)).collect();
        let mut order: Vec<usize> = (0..84).collect();
        Rng::new(seed, Stream::CorpusOrder).shuffle(&mut order);
        let mut cold = Rng::new(seed, Stream::ColdCells);
        let faults: Vec<u64> = (0..50).map(|_| cold.next_u64()).collect();
        (zipf, order, faults)
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = draws(7);
        assert_eq!(a, draws(7));
        let b = draws(8);
        assert_ne!(a.0, b.0, "zipf draws");
        assert_ne!(a.1, b.1, "corpus permutation");
        assert_ne!(a.2, b.2, "fault seeds");
    }

    #[test]
    fn streams_are_independent() {
        let mut x = Rng::new(1, Stream::Sample(0));
        let mut y = Rng::new(1, Stream::Sample(1));
        assert_ne!(x.next_u64(), y.next_u64());
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<usize> = (0..100).collect();
        Rng::new(3, Stream::CorpusOrder).shuffle(&mut v);
        let mut s = v.clone();
        s.sort();
        assert_eq!(s, (0..100).collect::<Vec<_>>());
        assert_ne!(v, s);
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(84, 1.1);
        let mut rng = Rng::new(5, Stream::ColdCells);
        let mut counts = [0usize; 84];
        for _ in 0..20_000 {
            counts[z.draw(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[10]);
        assert!(counts[10] > counts[83]);
        // Rank 1 carries about 1/H(84, 1.1) ≈ 23% of draws.
        assert!((3_500..5_800).contains(&counts[0]), "{}", counts[0]);
    }
}
