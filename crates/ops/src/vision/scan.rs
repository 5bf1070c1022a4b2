//! Prefix sum (scan) — Figure 3 of the paper.
//!
//! Hillis–Steele scan is `O(n log n)` work with a *global* synchronization
//! per pass, and the element count far exceeds the processor count on an
//! integrated GPU. The paper's three-stage scheme with **register blocking**
//! fixes both:
//!
//! 1. **up-sweep** — each processor sequentially scans its own contiguous
//!    block (elements live in registers, no synchronization at all);
//! 2. **scan** — the per-block totals (one per processor) are scanned with
//!    Hillis–Steele, which is now tiny (`P` elements, `log P` passes);
//! 3. **down-sweep** — each processor adds its exclusive block offset to its
//!    scanned block, again with no synchronization.
//!
//! Latency drops from `O(n)` (sequential) to `O(n/P + log P)` with exactly
//! three kernel launches instead of `log n` global-sync passes.

use unigpu_device::{dispatch_chunks, dispatch_map, DeviceSpec, KernelProfile};

/// Inclusive prefix sum with the three-stage register-blocked scheme over
/// `processors` simulated cores.
pub fn prefix_sum(data: &[f32], processors: usize) -> Vec<f32> {
    let n = data.len();
    if n == 0 {
        return Vec::new();
    }
    let p = processors.clamp(1, n);
    let block = n.div_ceil(p);

    // Stage 1 (up-sweep): sequential scan inside each processor's block.
    let mut out = data.to_vec();
    dispatch_chunks(&mut out, block, |_, chunk| {
        let mut acc = 0.0f32;
        for v in chunk.iter_mut() {
            acc += *v;
            *v = acc;
        }
    });

    // Per-block reductions (the red bold numbers of Figure 3).
    let sums: Vec<f32> = dispatch_map(n.div_ceil(block), |g| {
        out[((g + 1) * block).min(n) - 1]
    });

    // Stage 2 (scan): Hillis–Steele over the P partial sums. Each pass d
    // adds element i-2^d to element i; double-buffered, log2(P) passes.
    let scanned = hillis_steele(&sums);

    // Stage 3 (down-sweep): add the exclusive predecessor total per block.
    dispatch_chunks(&mut out, block, |g, chunk| {
        if g == 0 {
            return;
        }
        let offset = scanned[g - 1];
        for v in chunk.iter_mut() {
            *v += offset;
        }
    });
    out
}

/// Classic Hillis–Steele inclusive scan (the paper's baseline, also used on
/// the short partial-sums array of stage 2). Pass `d` adds element
/// `i − 2^d` to element `i`; all passes are barrier-separated.
pub fn hillis_steele(data: &[f32]) -> Vec<f32> {
    let n = data.len();
    let mut cur = data.to_vec();
    let mut next = vec![0.0f32; n];
    let mut stride = 1usize;
    while stride < n {
        for i in 0..n {
            next[i] = if i >= stride { cur[i] + cur[i - stride] } else { cur[i] };
        }
        std::mem::swap(&mut cur, &mut next);
        stride *= 2;
    }
    cur
}

/// Profiles of the optimized three-stage scan: 3 launches, no global syncs
/// inside a launch, stage 2 operates on `P` elements only.
pub fn scan_profiles(n: usize, processors: usize, _spec: &DeviceSpec) -> Vec<KernelProfile> {
    let p = processors.clamp(1, n.max(1));
    let block = n.div_ceil(p).max(1);
    vec![
        KernelProfile::new("scan/up_sweep", p)
            .workgroup(64)
            .flops(block as f64)
            .reads(4.0 * block as f64)
            .writes(4.0 * block as f64)
            .coalesce(0.9),
        KernelProfile::new("scan/partials_hs", p)
            .workgroup(p.clamp(1, 256))
            .flops((p as f64).log2().max(1.0))
            .reads(8.0)
            .writes(4.0)
            .with_barriers((p as f64).log2().ceil() as usize),
        KernelProfile::new("scan/down_sweep", p)
            .workgroup(64)
            .flops(block as f64)
            .reads(4.0 * block as f64 + 4.0)
            .writes(4.0 * block as f64)
            .coalesce(0.9),
    ]
}

/// Profile of the naive global Hillis–Steele scan: `log2(n)` launches, each
/// streaming the whole array with a global synchronization between passes.
pub fn naive_scan_profile(n: usize) -> KernelProfile {
    let passes = (n.max(2) as f64).log2().ceil() as usize;
    KernelProfile::new("scan/global_hillis_steele", n.max(1))
        .workgroup(64)
        .flops(1.0)
        .reads(8.0)
        .writes(4.0)
        .coalesce(0.85)
        .repeated(passes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serial_scan(data: &[f32]) -> Vec<f32> {
        let mut acc = 0.0;
        data.iter()
            .map(|&v| {
                acc += v;
                acc
            })
            .collect()
    }

    /// The exact worked example of Figure 3: 18 elements, 5 processors.
    #[test]
    fn figure3_walkthrough() {
        let data = [
            5.0, 7.0, 1.0, 1.0, 3.0, 4.0, 2.0, 0.0, 3.0, 1.0, 1.0, 2.0, 6.0, 1.0, 2.0, 3.0,
            1.0, 3.0,
        ];
        let got = prefix_sum(&data, 5);
        let want = [
            5.0, 12.0, 13.0, 14.0, 17.0, 21.0, 23.0, 23.0, 26.0, 27.0, 28.0, 30.0, 36.0,
            37.0, 39.0, 42.0, 43.0, 46.0,
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn matches_serial_for_any_processor_count() {
        let data: Vec<f32> = (0..133).map(|i| ((i * 7) % 11) as f32).collect();
        let want = serial_scan(&data);
        for p in [1, 2, 3, 5, 8, 64, 133, 500] {
            assert_eq!(prefix_sum(&data, p), want, "p={p}");
        }
    }

    #[test]
    fn hillis_steele_matches_serial() {
        let data: Vec<f32> = (0..37).map(|i| (i % 5) as f32).collect();
        assert_eq!(hillis_steele(&data), serial_scan(&data));
    }

    #[test]
    fn empty_and_singleton() {
        assert!(prefix_sum(&[], 4).is_empty());
        assert_eq!(prefix_sum(&[7.0], 4), vec![7.0]);
    }

    #[test]
    fn three_stage_beats_naive_in_cost() {
        use unigpu_device::{CostModel, DeviceSpec};
        for spec in [DeviceSpec::intel_hd505(), DeviceSpec::mali_t860(), DeviceSpec::maxwell_nano()] {
            let m = CostModel::new(spec.clone());
            let n = 1 << 17;
            let opt: f64 = scan_profiles(n, spec.max_concurrency(), &spec)
                .iter()
                .map(|p| m.kernel_time_ms(p))
                .sum();
            let naive = m.kernel_time_ms(&naive_scan_profile(n));
            assert!(
                naive > 2.0 * opt,
                "{}: naive {naive:.3} ms vs three-stage {opt:.3} ms",
                spec.name
            );
        }
    }
}
