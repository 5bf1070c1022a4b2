//! Seeded generators for the `ops` property suites: every case draws from a
//! SplitMix64 stream keyed by its case number, so a failure names the case
//! that replays it.
#![allow(dead_code)] // each suite uses its own subset

use unigpu_telemetry::hash::splitmix64;
use unigpu_tensor::Tensor;

pub struct Rng(u64);

impl Rng {
    pub fn new(case: u64) -> Self {
        Rng(case.wrapping_mul(0xa076_1d64_78bd_642f))
    }

    pub fn next_u64(&mut self) -> u64 {
        let z = splitmix64(self.0);
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z
    }

    /// Uniform in `lo..hi`.
    pub fn int(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }

    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.int(0, items.len())]
    }

    /// Uniform in `[lo, hi)`.
    pub fn float(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * ((self.next_u64() >> 40) as f32 / (1u64 << 24) as f32)
    }

    pub fn tensor<const N: usize>(&mut self, shape: [usize; N], lo: f32, hi: f32) -> Tensor {
        let data = (0..shape.iter().product()).map(|_| self.float(lo, hi)).collect();
        Tensor::from_vec(shape, data)
    }
}
