//! std-only stand-in for the slice of `rand` 0.8 the unigpu crates use:
//! `StdRng::seed_from_u64`, `Rng::gen_range` over half-open ranges and
//! `Rng::gen_bool`.
//!
//! `StdRng` is SplitMix64 — the generator the repo already carries in
//! `telemetry/trace.rs` and `fleet/router.rs` and that ROADMAP item 1 hoists
//! in place of `rand`. Its stream differs from the published crate's ChaCha12,
//! so anything seeded through it (random weights, tuner exploration) differs
//! from a registry build; every draw is still a pure function of the seed.

use std::ops::Range;

pub mod rngs {
    /// SplitMix64: one 64-bit state word advanced by the golden-ratio
    /// increment, finalized by two xor-shift-multiply rounds.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        pub(crate) state: u64,
    }
}

use rngs::StdRng;

pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

impl RngCore for StdRng {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        StdRng { state: seed }
    }
}

/// A type `gen_range` can draw uniformly from a half-open range.
pub trait SampleUniform: Sized {
    fn sample<R: RngCore + ?Sized>(rng: &mut R, range: Range<Self>) -> Self;
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
                assert!(range.start < range.end, "gen_range: empty range");
                let span = range.end.abs_diff(range.start) as u128;
                // 128-bit multiply-shift maps the 64-bit draw onto [0, span)
                // with bias below 2^-64 per value.
                let offset = ((rng.next_u64() as u128 * span) >> 64) as u64;
                (range.start as i128 + offset as i128) as $t
            }
        }
    )*};
}
uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// 53 random mantissa bits → a uniform f64 in [0, 1).
fn unit_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl SampleUniform for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
        assert!(range.start < range.end, "gen_range: empty range");
        let v = range.start + unit_f64(rng) * (range.end - range.start);
        // Rounding can land exactly on the excluded upper bound.
        if v < range.end {
            v
        } else {
            range.start
        }
    }
}

impl SampleUniform for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
        assert!(range.start < range.end, "gen_range: empty range");
        let unit = (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32);
        let v = range.start + unit * (range.end - range.start);
        if v < range.end {
            v
        } else {
            range.start
        }
    }
}

pub trait Rng: RngCore {
    fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T {
        T::sample(self, range)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p = {p} outside [0, 1]");
        unit_f64(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::*;

    #[test]
    fn matches_the_splitmix64_reference_vector() {
        // First outputs of SplitMix64 from state 1234567 (Vigna's reference).
        let mut rng = StdRng::seed_from_u64(1234567);
        assert_eq!(rng.next_u64(), 6457827717110365317);
        assert_eq!(rng.next_u64(), 3203168211198807973);
        assert_eq!(rng.next_u64(), 9817491932198370423);
    }

    #[test]
    fn same_seed_same_stream_and_seeds_differ() {
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..8)
                .map(|_| rng.gen_range(0usize..1000))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(2019), draw(2019));
        assert_ne!(draw(2019), draw(7));
    }

    #[test]
    fn ranges_are_half_open_and_covered() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            seen[rng.gen_range(0usize..5)] = true;
            let f = rng.gen_range(-0.25f32..0.25);
            assert!((-0.25..0.25).contains(&f));
            let d = rng.gen_range(1e-9f64..1.0);
            assert!((1e-9..1.0).contains(&d));
            let i = rng.gen_range(-3i32..3);
            assert!((-3..3).contains(&i));
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_bool_tracks_its_probability() {
        let mut rng = StdRng::seed_from_u64(42);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2800..3200).contains(&hits), "{hits}");
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }
}
