//! Segmented argsort — Figure 2 of the paper.
//!
//! NMS sorts many *small, variable-length* score lists. One GPU thread per
//! segment diverges badly (threads with short segments idle while the longest
//! one runs). The paper's fix:
//!
//! 1. **flatten** the segments into one array, remembering segment starts;
//! 2. chop the flat array into **equal-length blocks** (load balancing);
//! 3. **block-sort** each block — here a real barrier-phased *bitonic sort*
//!    running on the simulated work-group executor;
//! 4. **cooperative merge** rounds: each round doubles the cooperating block
//!    span (Figure 2's `coop 2 → coop 4 → coop 8`), with merge-path
//!    partitioning so every block writes an equal-sized output chunk.
//!
//! Segment independence is preserved by sorting the composite key
//! `(segment, -value, index)`: globally sorting the flattened array under
//! this key equals concatenating per-segment sorts, which is exactly the
//! "only the segments that span the active interface between two input lists
//! are modified" property. The merge makes that property literal: a chunk
//! whose merge-path split shows its whole output comes from one run is
//! copied, so once the runs outgrow the segments only the chunks that
//! straddle a segment boundary still merge.
//!
//! The composite key is packed into one unsigned integer and compared as
//! one: `(segment << 32 | desc(value)) << ib | index`, where `desc` maps
//! `f32::total_cmp` order onto inverted unsigned bits, so a higher score gets
//! a smaller key, and `ib` is the bit width of the longest segment's last
//! index. The key is a `u64` when `bits(segments) + ib <= 32` and a `u128`
//! otherwise, decided from `offsets` alone; both widths run the same code.
//! Padding is all ones, after every real key: the segment field holds at
//! most `2^bits(segments) - 2`, so it is never all ones, and no real key —
//! not even a −NaN's, whose `desc` is `0xffff_ffff` — equals the padding.
//! No two elements share a segment and an index, so keys are unique: every
//! compare-exchange is a branch-free integer `min`/`max`, no tie is left for
//! the network to break, and the ranks are the same at either width.
//!
//! Within a segment the order is descending in `total_cmp`: +NaN first, then
//! +∞ … +0.0, then −0.0 … −∞, then −NaN; equal scores keep their index order.

use unigpu_device::{dispatch_chunks, DeviceSpec, KernelProfile};

/// The block size of Figure 2: the sort `box_nms` runs and the one every
/// price of it (Figure 2, Table 4) assumes.
pub const SORT_BLOCK: usize = 256;

/// `f32::total_cmp` order as inverted unsigned bits: the larger the value,
/// the smaller the key. A negative float (sign set) already orders that way
/// by its raw bits; a positive one flips its 31 low bits.
fn desc(v: f32) -> u32 {
    let bits = v.to_bits();
    let positive = (bits >> 31) ^ 1;
    bits ^ (positive * 0x7fff_ffff)
}

/// Bits needed to write `x`: `bits(0) == 0`, `bits(20) == 5`.
fn bits(x: usize) -> u32 {
    usize::BITS - x.leading_zeros()
}

/// The packed key's local-index field width, `ib = bits(max_len - 1)`, and
/// whether the whole key fits a `u64`: `bits(segments) + ib <= 32`.
fn key_layout(offsets: &[usize]) -> (u32, bool) {
    let max_len = offsets
        .windows(2)
        .map(|seg| {
            debug_assert!(seg[0] <= seg[1], "offsets must be nondecreasing");
            seg[1] - seg[0]
        })
        .max()
        .unwrap_or(0);
    let ib = bits(max_len.saturating_sub(1));
    (ib, bits(offsets.len() - 1) + ib <= 32)
}

/// An unsigned integer holding one packed sort key.
trait SortKey: Copy + Ord + Send + Sync {
    /// All ones: sorts after every real key.
    const PAD: Self;
    /// `(seg << 32 | desc) << ib | local`.
    fn pack(seg: usize, desc: u32, local: usize, ib: u32) -> Self;
    /// The low 32 bits, where the local index lives.
    fn low(self) -> u32;
}

impl SortKey for u64 {
    const PAD: u64 = u64::MAX;
    fn pack(seg: usize, desc: u32, local: usize, ib: u32) -> u64 {
        ((seg as u64) << 32 | u64::from(desc)) << ib | local as u64
    }
    fn low(self) -> u32 {
        self as u32
    }
}

impl SortKey for u128 {
    const PAD: u128 = u128::MAX;
    fn pack(seg: usize, desc: u32, local: usize, ib: u32) -> u128 {
        ((seg as u128) << 32 | u128::from(desc)) << ib | local as u128
    }
    fn low(self) -> u32 {
        self as u32
    }
}

/// In-place bitonic sort of a power-of-two block, expressed as the exact
/// compare-exchange network a work-group executes between barriers. Each
/// stage `k` opens with a mirror phase (element `t` of every `k`-run against
/// element `k - 1 - t`) and closes with half-cleaner phases, so every
/// compare-exchange puts the smaller key first and no pair needs a direction.
fn bitonic_sort_block<K: SortKey>(block: &mut [K]) {
    let n = block.len();
    debug_assert!(n.is_power_of_two());
    let mut k = 2;
    while k <= n {
        for run in block.chunks_exact_mut(k) {
            let (lo, hi) = run.split_at_mut(k / 2);
            lo.iter_mut()
                .zip(hi.iter_mut().rev())
                .for_each(compare_exchange);
        }
        let mut j = k / 4;
        while j > 0 {
            // Short runs get a copy with their length known at compile time,
            // where the loop would otherwise cost more than the exchanges.
            match j {
                1 => half_clean(block, 1),
                2 => half_clean(block, 2),
                4 => half_clean(block, 4),
                8 => half_clean(block, 8),
                _ => half_clean(block, j),
            }
            j /= 2;
        }
        k *= 2;
    }
}

fn compare_exchange<K: SortKey>((a, b): (&mut K, &mut K)) {
    (*a, *b) = ((*a).min(*b), (*a).max(*b));
}

/// One barrier-separated phase: element `t` of every `2j`-run against
/// element `t + j`; the pairs are disjoint.
#[inline(always)]
fn half_clean<K: SortKey>(block: &mut [K], j: usize) {
    for run in block.chunks_exact_mut(2 * j) {
        let (lo, hi) = run.split_at_mut(j);
        lo.iter_mut().zip(hi).for_each(compare_exchange);
    }
}

/// Merge-path diagonal search: how many elements of `a` belong before the
/// `diag`-th output element when merging sorted runs `a` and `b`.
fn merge_path<K: SortKey>(a: &[K], b: &[K], diag: usize) -> usize {
    let mut lo = diag.saturating_sub(b.len());
    let mut hi = diag.min(a.len());
    while lo < hi {
        let mid = (lo + hi) / 2;
        // a[mid] vs b[diag-1-mid]: if a[mid] <= b[...], take more from a.
        if a[mid] <= b[diag - 1 - mid] {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Merge `out.len()` outputs starting at merge-path split (`ai`, `bi`) into
/// `out`. A chunk that lies on one side of the active interface — its last
/// `a` element precedes `b`'s next, or the other way round — is a copy of
/// one run. Otherwise it merges sequentially: an exhausted run reads as
/// padding, which can only tie with padding in the other run, and padding
/// keys are all equal.
fn merge_chunk<K: SortKey>(a: &[K], b: &[K], mut ai: usize, mut bi: usize, out: &mut [K]) {
    let len = out.len();
    if let Some(&last) = a.get(ai + len - 1) {
        if b.get(bi).is_none_or(|&y| last <= y) {
            out.copy_from_slice(&a[ai..ai + len]);
            return;
        }
    }
    if let Some(&last) = b.get(bi + len - 1) {
        if a.get(ai).is_none_or(|&x| last < x) {
            out.copy_from_slice(&b[bi..bi + len]);
            return;
        }
    }
    let at = |i: usize| a.get(i).copied().unwrap_or(K::PAD);
    let bt = |j: usize| b.get(j).copied().unwrap_or(K::PAD);
    let (mut x, mut y) = (at(ai), bt(bi));
    for slot in out.iter_mut() {
        // Both runs' next keys load before the compare that picks one, which
        // keeps the loads off the chain from one output to the next.
        let (next_x, next_y) = (at(ai + 1), bt(bi + 1));
        let take_a = x <= y;
        *slot = if take_a { x } else { y };
        (x, y) = if take_a { (next_x, y) } else { (x, next_y) };
        ai += usize::from(take_a);
        bi += usize::from(!take_a);
    }
}

/// Segmented argsort (descending by value in `f32::total_cmp` order, ties by
/// original index).
///
/// `offsets` is CSR-style: segment `s` is `data[offsets[s]..offsets[s+1]]`.
/// Returns, for each flattened position `offsets[s] + r`, the *local index*
/// within segment `s` of its rank-`r` element (the `numpy.argsort` contract
/// applied per segment, descending). NaN scores do not panic: +NaN ranks
/// first and −NaN last (the module docs give the whole order).
///
/// `block` is the equal-length block size of Figure 2 (power of two).
pub fn segmented_argsort(data: &[f32], offsets: &[usize], block: usize) -> Vec<i32> {
    assert!(block.is_power_of_two() && block >= 2, "block must be a power of two >= 2");
    assert!(!offsets.is_empty() && *offsets.last().unwrap() == data.len(),
        "offsets must start at 0 and end at data.len()");
    if data.is_empty() {
        return Vec::new();
    }
    let (ib, narrow) = key_layout(offsets);
    if narrow {
        sort_packed::<u64>(data, offsets, block, ib)
    } else {
        sort_packed::<u128>(data, offsets, block, ib)
    }
}

/// [`segmented_argsort`] at one key width; `ib` is the local index's field
/// width from [`key_layout`].
fn sort_packed<K: SortKey>(data: &[f32], offsets: &[usize], block: usize, ib: u32) -> Vec<i32> {
    let n = data.len();

    // Step 1: flatten with composite keys, padded to a block multiple.
    let padded = n.div_ceil(block) * block;
    let mut keys = vec![K::PAD; padded];
    for (s, seg) in offsets.windows(2).enumerate() {
        let (lo, hi) = (seg[0], seg[1]);
        for (local, (k, &v)) in keys[lo..hi].iter_mut().zip(&data[lo..hi]).enumerate() {
            *k = K::pack(s, desc(v), local, ib);
        }
    }

    // Step 2+3: equal blocks, bitonic block sort (one work-group per block).
    dispatch_chunks(&mut keys, block, |_, chunk| bitonic_sort_block(chunk));

    // Step 4: cooperative merge rounds, doubling the span each round.
    let mut src = keys;
    let mut dst = vec![K::PAD; padded];
    let mut width = block;
    while width < padded {
        let span = 2 * width;
        // Each output chunk of `block` elements is produced by one group via
        // merge-path partitioning, so cooperation within a span is balanced.
        dispatch_chunks(&mut dst, block, |g, out| {
            let chunk_start = g * block;
            let span_start = (chunk_start / span) * span;
            let a = &src[span_start..(span_start + width).min(padded)];
            let b = &src[(span_start + width).min(padded)..(span_start + span).min(padded)];
            let diag = chunk_start - span_start;
            let ai = merge_path(a, b, diag);
            let bi = diag - ai;
            merge_chunk(a, b, ai, bi, out);
        });
        std::mem::swap(&mut src, &mut dst);
        width = span;
    }

    // Gather: src[offsets[s] + rank] is the rank-th element of segment s,
    // and a key's low `ib` bits are its local index.
    let mask = ((1u64 << ib.min(32)) - 1) as u32;
    src[..n].iter().map(|&k| (k.low() & mask) as i32).collect()
}

/// The naive GPU realization Table 4 ablates against: one thread per
/// segment, each insertion-sorting its own variable-length list into the
/// same order as [`segmented_argsort`].
pub fn naive_segment_argsort(data: &[f32], offsets: &[usize]) -> Vec<i32> {
    let n = data.len();
    let mut out = vec![0i32; n];
    for s in 0..offsets.len() - 1 {
        let (lo, hi) = (offsets[s], offsets[s + 1]);
        let mut idx: Vec<i32> = (0..(hi - lo) as i32).collect();
        // Insertion sort — what a single GPU thread would actually run.
        for i in 1..idx.len() {
            let key = idx[i];
            let mut j = i;
            while j > 0 {
                let a = data[lo + idx[j - 1] as usize];
                let b = data[lo + key as usize];
                // `a` ranks after `b`: lower in `total_cmp`, or equal with a
                // larger index.
                if a.total_cmp(&b).then(key.cmp(&idx[j - 1])).is_lt() {
                    idx[j] = idx[j - 1];
                    j -= 1;
                } else {
                    break;
                }
            }
            idx[j] = key;
        }
        out[lo..hi].copy_from_slice(&idx);
    }
    out
}

/// Cost-model profiles for the optimized segmented sort: one block-sort
/// launch plus `log2(blocks)` cooperative merge launches.
pub fn segmented_sort_profiles(n: usize, block: usize, _spec: &DeviceSpec) -> Vec<KernelProfile> {
    let padded = n.div_ceil(block).max(1) * block;
    let blocks = padded / block;
    let bitonic_phases = {
        let lb = block.trailing_zeros() as usize;
        lb * (lb + 1) / 2
    };
    let mut v = vec![KernelProfile::new("segsort/block_bitonic", padded)
        .workgroup(block.min(256))
        .flops(bitonic_phases as f64 * 2.0)
        .reads(12.0)
        .writes(12.0)
        .divergence(0.85)
        .coalesce(0.8)
        .with_barriers(bitonic_phases)];
    let merge_rounds = (blocks as f64).log2().ceil() as usize;
    if merge_rounds > 0 {
        v.push(
            KernelProfile::new("segsort/coop_merge", padded)
                .workgroup(block.min(256))
                .flops(4.0)
                .reads(12.0)
                .writes(12.0)
                .divergence(0.9)
                .coalesce(0.85)
                .repeated(merge_rounds),
        );
    }
    v
}

/// Cost-model profile of the naive GPU sort Table 4 ablates against: an
/// odd-even transposition network over the *un-segmented* flat array (the
/// pre-optimization TVM code sorted everything in one go). One work-item per
/// element, `max_len` barrier-separated passes, divergent compare-exchanges,
/// strided accesses — `O(n·max_len)` work versus the segmented pipeline's
/// `O(n·log n)`.
pub fn naive_sort_profile(seg_lens: &[usize]) -> KernelProfile {
    let n: usize = seg_lens.iter().sum::<usize>().max(1);
    let n_segs = seg_lens.len().max(1);
    let max_len = seg_lens.iter().copied().max().unwrap_or(1).max(1);
    let mean_len = (n / n_segs).max(1);
    KernelProfile::new("segsort/naive_odd_even", n)
        .workgroup(64)
        .flops(4.0 * max_len as f64) // one compare-exchange per pass
        .reads(2.0 * max_len as f64) // neighbour re-reads survive in cache
        .writes(8.0)
        .simd(0.3) // divergent compare-exchange lanes
        .divergence(0.25)
        .imbalance((max_len as f64 / mean_len as f64).clamp(1.0, 8.0))
        .coalesce(0.3)
        .slm(16.0) // scratch staging: spills to DRAM on Mali
        .with_barriers((max_len / 64).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use unigpu_telemetry::hash::SplitMix64;

    fn reference_argsort(data: &[f32], offsets: &[usize]) -> Vec<i32> {
        let mut out = vec![0i32; data.len()];
        for s in 0..offsets.len() - 1 {
            let (lo, hi) = (offsets[s], offsets[s + 1]);
            let mut idx: Vec<usize> = (0..hi - lo).collect();
            idx.sort_by(|&a, &b| data[lo + b].total_cmp(&data[lo + a]).then(a.cmp(&b)));
            for (r, &i) in idx.iter().enumerate() {
                out[lo + r] = i as i32;
            }
        }
        out
    }

    /// Scores drawn from a pool of special values, so every total-order
    /// edge meets ties, mixed with uniform ones.
    fn special_score(rng: &mut SplitMix64) -> f32 {
        const POOL: [f32; 10] = [
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            0.5,
            -1e-45,
            f32::MAX,
            f32::MIN,
        ];
        if rng.chance(0.5) {
            POOL[rng.below(POOL.len())]
        } else {
            rng.f32_in(-1.0, 1.0)
        }
    }

    /// Ragged segments: empty, one-element and longer ones.
    fn ragged(rng: &mut SplitMix64, segments: usize, max_len: usize) -> (Vec<f32>, Vec<usize>) {
        let mut offsets = vec![0];
        let mut data = Vec::new();
        for _ in 0..segments {
            let len = match rng.below(4) {
                0 => 0,
                1 => 1,
                _ => rng.below(max_len + 1),
            };
            data.extend((0..len).map(|_| special_score(rng)));
            offsets.push(data.len());
        }
        (data, offsets)
    }

    /// Both key widths through the same generic sort.
    fn both_widths(data: &[f32], offsets: &[usize], block: usize) -> (Vec<i32>, Vec<i32>) {
        let (ib, _) = key_layout(offsets);
        (
            sort_packed::<u64>(data, offsets, block, ib),
            sort_packed::<u128>(data, offsets, block, ib),
        )
    }

    #[test]
    fn both_key_widths_give_the_same_ranks() {
        let mut rng = SplitMix64::new(0x5ee9);
        for case in 0..60 {
            let segments = 1 + rng.below(12);
            let (data, offsets) = ragged(&mut rng, segments, 300);
            if data.is_empty() {
                continue;
            }
            let want = reference_argsort(&data, &offsets);
            for block in [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024] {
                let (narrow, wide) = both_widths(&data, &offsets, block);
                assert_eq!(narrow, want, "case {case} block {block}: u64");
                assert_eq!(wide, want, "case {case} block {block}: u128");
                assert_eq!(segmented_argsort(&data, &offsets, block), want);
            }
        }
    }

    /// One long segment after `segments - 1` empty ones, the long one at
    /// the end so its segment field is the largest.
    fn boundary_case(segments: usize, longest: usize) -> (Vec<f32>, Vec<usize>) {
        let mut rng = SplitMix64::new(segments as u64);
        let data: Vec<f32> = (0..longest).map(|_| special_score(&mut rng)).collect();
        let mut offsets = vec![0; segments];
        offsets.push(longest);
        (data, offsets)
    }

    #[test]
    fn width_boundary_takes_u64_at_32_bits() {
        let (data, offsets) = boundary_case(65_535, 65_536);
        // bits(65_535) + bits(65_535) = 16 + 16
        assert_eq!(key_layout(&offsets), (16, true));
        let want = reference_argsort(&data, &offsets);
        assert_eq!(segmented_argsort(&data, &offsets, 256), want);
        // The widest real key still sorts before the padding.
        let widest = u64::pack(65_534, u32::MAX, 65_535, 16);
        assert!(widest < u64::PAD);
    }

    #[test]
    fn width_boundary_takes_u128_at_33_bits() {
        let (data, offsets) = boundary_case(65_536, 32_769);
        // bits(65_536) + bits(32_768) = 17 + 16
        assert_eq!(key_layout(&offsets), (16, false));
        let want = reference_argsort(&data, &offsets);
        assert_eq!(segmented_argsort(&data, &offsets, 256), want);
    }

    #[test]
    fn presorted_reversed_and_equal_segments_take_the_copy_path() {
        let shapes: [fn(usize) -> f32; 3] = [
            |i| 1e4 - i as f32, // already in rank order
            |i| i as f32,       // reverse rank order
            |_| 0.25,           // all equal: index order decides
        ];
        for (s, score) in shapes.iter().enumerate() {
            for lens in [&[1000][..], &[300, 0, 1, 700, 129, 513], &[2; 64]] {
                let mut offsets = vec![0];
                let mut data = Vec::new();
                for &len in lens {
                    data.extend((0..len).map(score));
                    offsets.push(data.len());
                }
                let want = reference_argsort(&data, &offsets);
                for block in [2, 4, 16, 64, 256] {
                    let (narrow, wide) = both_widths(&data, &offsets, block);
                    assert_eq!(narrow, want, "shape {s} lens {lens:?} block {block}");
                    assert_eq!(wide, want, "shape {s} lens {lens:?} block {block}");
                }
            }
        }
    }

    #[test]
    fn every_merge_chunk_equals_the_sequential_merge() {
        // Runs with padding tails and disjoint, interleaved or nested ranges,
        // cut into chunks at every merge-path split.
        fn run(rng: &mut SplitMix64) -> Vec<u64> {
            let (base, step) = (rng.below(64) as u64, 1 + rng.below(3) as u64);
            let mut v: Vec<u64> = (0..rng.below(40) as u64)
                .map(|i| (base + i * step) * 2 + u64::from(rng.chance(0.5)))
                .collect();
            v.sort_unstable();
            v.dedup();
            v.extend(std::iter::repeat_n(u64::PAD, rng.below(3)));
            v
        }
        let mut rng = SplitMix64::new(7);
        for case in 0..400 {
            let (a, b) = (run(&mut rng), run(&mut rng));
            let mut want: Vec<u64> = a.iter().chain(&b).copied().collect();
            want.sort_unstable();
            let total = want.len();
            let chunk = 1 + rng.below(8);
            for start in (0..total).step_by(chunk) {
                let mut out = vec![0; chunk.min(total - start)];
                let ai = merge_path(&a, &b, start);
                merge_chunk(&a, &b, ai, start - ai, &mut out);
                assert_eq!(
                    out,
                    want[start..start + out.len()],
                    "case {case} start {start}"
                );
            }
        }
    }

    #[test]
    fn single_segment_sorts_descending() {
        let data = [0.3, 0.9, 0.1, 0.5];
        let offsets = [0, 4];
        let got = segmented_argsort(&data, &offsets, 2);
        assert_eq!(got, vec![1, 3, 0, 2]);
    }

    #[test]
    fn multiple_variable_segments() {
        let data = [0.5, 0.2, 0.9, /*|*/ 0.4, /*|*/ 0.1, 0.8, 0.8, 0.3];
        let offsets = [0, 3, 4, 8];
        let got = segmented_argsort(&data, &offsets, 4);
        assert_eq!(got, reference_argsort(&data, &offsets));
    }

    #[test]
    fn empty_segments_are_fine() {
        let data = [0.5, 0.1];
        let offsets = [0, 0, 2, 2];
        let got = segmented_argsort(&data, &offsets, 2);
        assert_eq!(got, vec![0, 1]);
    }

    #[test]
    fn ties_break_by_original_index() {
        let data = [0.7, 0.7, 0.7];
        let offsets = [0, 3];
        assert_eq!(segmented_argsort(&data, &offsets, 2), vec![0, 1, 2]);
    }

    #[test]
    fn nan_and_signed_zero_follow_total_cmp() {
        // +NaN first, -NaN last, +0.0 before -0.0 — and the naive sort agrees.
        let data = [0.5, f32::NAN, 0.9, -f32::NAN, -0.0, 0.0];
        let offsets = [0, 6];
        let want = vec![1, 2, 0, 5, 4, 3];
        assert_eq!(reference_argsort(&data, &offsets), want);
        assert_eq!(segmented_argsort(&data, &offsets, 2), want);
        assert_eq!(naive_segment_argsort(&data, &offsets), want);
    }

    #[test]
    fn desc_keys_invert_total_cmp() {
        let vals = [
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            1.0,
            -1.0,
            1e-45,
            -1e-45,
            f32::MAX,
            f32::MIN,
        ];
        for a in vals {
            for b in vals {
                assert_eq!(desc(a).cmp(&desc(b)), b.total_cmp(&a), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn matches_reference_across_block_sizes() {
        let data: Vec<f32> = (0..97).map(|i| ((i * 37) % 89) as f32 / 10.0).collect();
        let offsets = [0usize, 10, 11, 40, 40, 97];
        let want = reference_argsort(&data, &offsets);
        for block in [2, 4, 8, 16, 32, 64, 128] {
            assert_eq!(
                segmented_argsort(&data, &offsets, block),
                want,
                "block={block}"
            );
        }
    }

    #[test]
    fn naive_and_optimized_agree() {
        let data: Vec<f32> = (0..64).map(|i| ((i * 13) % 31) as f32).collect();
        let offsets = [0usize, 5, 5, 20, 33, 64];
        assert_eq!(
            segmented_argsort(&data, &offsets, 8),
            naive_segment_argsort(&data, &offsets)
        );
    }

    #[test]
    fn bitonic_block_is_a_real_sort() {
        let mut block: Vec<u64> = (0..16)
            .map(|i| u64::pack(0, desc(((i * 7) % 16) as f32), i, 4))
            .collect();
        bitonic_sort_block(&mut block);
        assert!(block.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn merge_path_splits_are_consistent() {
        let mk = |vals: &[f32]| -> Vec<u64> {
            vals.iter()
                .enumerate()
                .map(|(i, &v)| u64::pack(0, desc(v), i, 2))
                .collect()
        };
        // a and b sorted descending (our key order)
        let a = mk(&[9.0, 7.0, 5.0]);
        let b = mk(&[8.0, 6.0, 4.0]);
        for diag in 0..=6 {
            let ai = merge_path(&a, &b, diag);
            let bi = diag - ai;
            assert!(ai <= a.len() && bi <= b.len());
        }
    }

    #[test]
    fn optimized_profile_beats_naive_on_imbalanced_input() {
        use unigpu_device::CostModel;
        let spec = unigpu_device::DeviceSpec::mali_t860();
        let m = CostModel::new(spec.clone());
        // SSD-like: 21 classes × ~1000 candidates, one long segment.
        let mut lens = vec![40usize; 20];
        lens.push(5000);
        let n: usize = lens.iter().sum();
        let opt: f64 = segmented_sort_profiles(n, 256, &spec)
            .iter()
            .map(|p| m.kernel_time_ms(p))
            .sum();
        let naive = m.kernel_time_ms(&naive_sort_profile(&lens));
        assert!(
            naive > 3.0 * opt,
            "naive {naive:.3} ms should be >> optimized {opt:.3} ms"
        );
    }
}
