//! The benchmark's own seeded generators. `--seed` reaches nothing else: the
//! program under test receives the generated arrival times and tensors,
//! never the seed.

/// SplitMix64, one stream per purpose (`Rng::new(seed, stream)`), so adding
/// a draw to one generator cannot shift another's values.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in [lo, hi).
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit() * (hi - lo)
    }

    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}

/// `n` arrival instants with unit mean gap, each gap jittered uniformly in
/// [0.5, 1.5): multiply by `1000 / rate_rps` for a schedule in simulated ms.
/// One draw serves every rate of a ladder, so rates differ only in scale.
pub fn unit_arrivals(rng: &mut Rng, n: usize) -> Vec<f64> {
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            t += rng.range(0.5, 1.5);
            t
        })
        .collect()
}

/// On/off load: bursts of `PHASE_ARRIVALS` arrivals at `burst_rps` alternate
/// with lulls of as many at `lull_rps`; gaps jittered as above. The phase
/// pattern is fixed and only the jitter is seeded, so every seed offers the
/// same mix of overload and recovery. Returns arrival instants in simulated
/// ms.
pub fn bursty_arrivals(rng: &mut Rng, n: usize, burst_rps: f64, lull_rps: f64) -> Vec<f64> {
    const PHASE_ARRIVALS: usize = 400;
    let mut t = 0.0;
    (0..n)
        .map(|i| {
            let burst = (i / PHASE_ARRIVALS).is_multiple_of(2);
            t += 1000.0 / if burst { burst_rps } else { lull_rps } * rng.range(0.5, 1.5);
            t
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_and_streams_are_independent() {
        let draw = |seed, stream| unit_arrivals(&mut Rng::new(seed, stream), 100);
        assert_eq!(draw(2019, 1), draw(2019, 1));
        assert_ne!(draw(2019, 1), draw(7, 1));
        assert_ne!(draw(2019, 1), draw(2019, 2));
    }

    #[test]
    fn arrivals_increase_with_unit_mean_gap() {
        let a = unit_arrivals(&mut Rng::new(1, 1), 100_000);
        assert!(a.windows(2).all(|w| w[1] > w[0]));
        let mean_gap = a.last().unwrap() / a.len() as f64;
        assert!((mean_gap - 1.0).abs() < 0.01, "{mean_gap}");
    }

    #[test]
    fn bursts_alternate_between_the_two_rates() {
        let a = bursty_arrivals(&mut Rng::new(3, 1), 50_000, 100.0, 10.0);
        assert_eq!(a.len(), 50_000);
        assert!(a.windows(2).all(|w| w[1] > w[0]));
        let gaps: Vec<f64> = a.windows(2).map(|w| w[1] - w[0]).collect();
        let fast = gaps.iter().filter(|g| **g < 20.0).count();
        let slow = gaps.iter().filter(|g| **g >= 50.0).count();
        assert!(fast > 10_000 && slow > 10_000, "fast {fast} slow {slow}");
    }
}
