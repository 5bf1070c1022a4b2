//! The workspace's two deterministic mixers: FNV-1a-64 and the SplitMix64
//! finalizer.
//!
//! Artifact fingerprints, [`TraceContext`](crate::TraceContext) ids, the
//! serve/fleet report digests and the router's candidate hash all have to be
//! stable across processes and releases (`DefaultHasher` is neither), so they
//! share the one implementation here.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Streaming FNV-1a, 64-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl Fnv1a {
    pub fn new() -> Self {
        Fnv1a(FNV_OFFSET)
    }

    /// Mix `bytes` in one byte at a time — standard FNV-1a.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix_u64(u64::from(b));
        }
    }

    /// Mix a whole word in one xor-multiply step. This is what the report
    /// digests are defined over (not the byte-wise hash of the word's
    /// encoding), so it must stay `(h ^ v) * PRIME`.
    pub fn mix_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(FNV_PRIME);
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// SplitMix64 finalizer: a fast, well-mixed bijection on `u64`.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(Fnv1a::new().finish(), 0xcbf2_9ce4_8422_2325, "empty input = offset basis");
        let mut h = Fnv1a::new();
        h.update(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut split = Fnv1a::new();
        split.update(b"foo");
        split.update(b"bar");
        let mut whole = Fnv1a::new();
        whole.update(b"foobar");
        assert_eq!(split, whole, "updates concatenate");
        assert_eq!(whole.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn mix_u64_is_one_word_wise_xor_multiply() {
        let words = [0u64, 1, 0xff, u64::MAX, 2.5f64.to_bits()];
        let mut h = Fnv1a::new();
        let mut by_hand = 0xcbf2_9ce4_8422_2325u64;
        for v in words {
            h.mix_u64(v);
            by_hand = (by_hand ^ v).wrapping_mul(0x100_0000_01b3);
            assert_eq!(h.finish(), by_hand);
        }
    }

    #[test]
    fn splitmix64_matches_the_reference_sequence() {
        // first outputs of the reference generator seeded with 0
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(0x9e37_79b9_7f4a_7c15), 0x6e78_9e6a_a1b9_65f4);
    }
}
