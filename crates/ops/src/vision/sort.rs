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
//! are modified" property.
//!
//! The composite key is packed into one `u128` and compared as an unsigned
//! integer: `segment << 64 | desc(value) << 32 | index`, where `desc` maps
//! `f32::total_cmp` order onto inverted unsigned bits, so a higher score gets
//! a smaller key. Padding is `u128::MAX`, after every real key. No two
//! elements share a segment and an index, so keys are unique: every
//! compare-exchange is a branch-free integer `min`/`max`, and no tie is left
//! for the network to break.
//!
//! Within a segment the order is descending in `total_cmp`: +NaN first, then
//! +∞ … +0.0, then −0.0 … −∞, then −NaN; equal scores keep their index order.

use unigpu_device::{dispatch_chunks, DeviceSpec, KernelProfile};

/// Padding key: sorts after every real element.
const PAD: u128 = u128::MAX;

/// `f32::total_cmp` order as inverted unsigned bits: the larger the value,
/// the smaller the key. A negative float (sign set) already orders that way
/// by its raw bits; a positive one flips its 31 low bits.
fn desc(v: f32) -> u32 {
    let bits = v.to_bits();
    let positive = (bits >> 31) ^ 1;
    bits ^ (positive * 0x7fff_ffff)
}

fn key(seg: usize, val: f32, idx: usize) -> u128 {
    (seg as u128) << 64 | u128::from(desc(val)) << 32 | idx as u128
}

/// In-place bitonic sort of a power-of-two block, expressed as the exact
/// compare-exchange network a work-group executes between barriers.
fn bitonic_sort_block(block: &mut [u128]) {
    let n = block.len();
    debug_assert!(n.is_power_of_two());
    let mut k = 2;
    while k <= n {
        let mut j = k / 2;
        while j > 0 {
            // One barrier-separated phase: work-item `base + t` compare-
            // exchanges with partner `base + t + j`; pairs are disjoint, and
            // the direction is the same for every pair of a `2j` run.
            for (r, run) in block.chunks_exact_mut(2 * j).enumerate() {
                let ascending = (r * 2 * j) & k == 0;
                let (lo, hi) = run.split_at_mut(j);
                for (a, b) in lo.iter_mut().zip(hi) {
                    let (min, max) = ((*a).min(*b), (*a).max(*b));
                    (*a, *b) = if ascending { (min, max) } else { (max, min) };
                }
            }
            j /= 2;
        }
        k *= 2;
    }
}

/// Merge-path diagonal search: how many elements of `a` belong before the
/// `diag`-th output element when merging sorted runs `a` and `b`.
fn merge_path(a: &[u128], b: &[u128], diag: usize) -> usize {
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

/// Sequentially merge `out.len()` outputs starting at merge-path split
/// (`ai`, `bi`) into `out`. An exhausted run reads as [`PAD`], which can
/// only tie with padding in the other run, and padding keys are all equal.
fn merge_chunk(a: &[u128], b: &[u128], mut ai: usize, mut bi: usize, out: &mut [u128]) {
    for slot in out.iter_mut() {
        let x = a.get(ai).copied().unwrap_or(PAD);
        let y = b.get(bi).copied().unwrap_or(PAD);
        let take_a = x <= y;
        *slot = if take_a { x } else { y };
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
    let n = data.len();
    if n == 0 {
        return Vec::new();
    }

    // Step 1: flatten with composite keys, padded to a block multiple.
    let padded = n.div_ceil(block) * block;
    let mut keys = vec![PAD; padded];
    for (s, seg) in offsets.windows(2).enumerate() {
        let (lo, hi) = (seg[0], seg[1]);
        debug_assert!(lo <= hi, "offsets must be nondecreasing");
        for (local, (k, &v)) in keys[lo..hi].iter_mut().zip(&data[lo..hi]).enumerate() {
            *k = key(s, v, local);
        }
    }

    // Step 2+3: equal blocks, bitonic block sort (one work-group per block).
    dispatch_chunks(&mut keys, block, |_, chunk| bitonic_sort_block(chunk));

    // Step 4: cooperative merge rounds, doubling the span each round.
    let mut src = keys;
    let mut dst = vec![PAD; padded];
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
    // and a key's low 32 bits are its local index.
    src[..n].iter().map(|&k| k as u32 as i32).collect()
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
        let mut block: Vec<u128> = (0..16).map(|i| key(0, ((i * 7) % 16) as f32, i)).collect();
        bitonic_sort_block(&mut block);
        assert!(block.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn merge_path_splits_are_consistent() {
        let mk = |vals: &[f32]| -> Vec<u128> {
            vals.iter().enumerate().map(|(i, &v)| key(0, v, i)).collect()
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
