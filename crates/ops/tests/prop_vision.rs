//! Property tests for the vision-specific operators: segmented sort, prefix
//! sum and NMS invariants over seeded random inputs, and `roi_align` against
//! the per-channel loop nest it replaced.

mod common;

use common::Rng;
use unigpu_ops::vision::nms::{box_nms, iou, naive_nms_profile, NmsConfig};
use unigpu_ops::vision::roi_align;
use unigpu_ops::vision::scan::{hillis_steele, prefix_sum};
use unigpu_ops::vision::sort::{naive_segment_argsort, segmented_argsort};
use unigpu_tensor::Tensor;

const CASES: u64 = 64;

/// 1–7 segments of 0–39 values each, values in tenths so ties occur.
fn arb_segments(rng: &mut Rng) -> (Vec<f32>, Vec<usize>) {
    let mut offsets = vec![0usize];
    for _ in 0..rng.int(1, 8) {
        offsets.push(offsets[offsets.len() - 1] + rng.int(0, 40));
    }
    let n = offsets[offsets.len() - 1];
    let data = (0..n).map(|_| rng.int(0, 1000) as f32 / 10.0).collect();
    (data, offsets)
}

#[test]
fn segmented_sort_equals_naive() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let (data, offsets) = arb_segments(&mut rng);
        let block = 1usize << rng.int(1, 6); // 2..32
        assert_eq!(
            segmented_argsort(&data, &offsets, block),
            naive_segment_argsort(&data, &offsets),
            "case {case}"
        );
    }
}

/// Per-segment descending `total_cmp` order, ties by index: the contract
/// both sorts must meet bit for bit.
fn total_cmp_argsort(data: &[f32], offsets: &[usize]) -> Vec<i32> {
    let mut out = Vec::with_capacity(data.len());
    for seg in offsets.windows(2) {
        let vals = &data[seg[0]..seg[1]];
        let mut idx: Vec<usize> = (0..vals.len()).collect();
        idx.sort_by(|&a, &b| vals[b].total_cmp(&vals[a]).then(a.cmp(&b)));
        out.extend(idx.iter().map(|&i| i as i32));
    }
    out
}

/// Segments of 0–399 values until there are at least `min_len` values, half
/// of them drawn from ±NaN, ±0.0, ±∞ and a few repeated finite values.
fn arb_wide_segments(rng: &mut Rng, min_len: usize) -> (Vec<f32>, Vec<usize>) {
    const SPECIAL: [f32; 9] =
        [f32::NAN, -f32::NAN, 0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, 0.5, -0.5, 1e-45];
    let mut offsets = vec![0usize];
    while offsets[offsets.len() - 1] < min_len {
        offsets.push(offsets[offsets.len() - 1] + rng.int(0, 400));
    }
    let n = offsets[offsets.len() - 1];
    let data = (0..n)
        .map(|_| if rng.int(0, 2) == 0 { rng.pick(&SPECIAL) } else { rng.int(0, 100) as f32 / 10.0 })
        .collect();
    (data, offsets)
}

#[test]
fn segmented_sort_matches_total_cmp_over_many_merge_rounds() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let block = rng.pick(&[64usize, 256]);
        // more than 8 blocks, so at least 4 merge rounds
        let (data, offsets) = arb_wide_segments(&mut rng, 8 * block + 1);
        let n = data.len();
        let want = total_cmp_argsort(&data, &offsets);
        assert_eq!(segmented_argsort(&data, &offsets, block), want, "case {case}: n {n}, block {block}");
        assert_eq!(naive_segment_argsort(&data, &offsets), want, "case {case}");
    }
}

#[test]
fn segmented_sort_output_is_ranked() {
    for case in 0..CASES {
        let (data, offsets) = arb_segments(&mut Rng::new(case));
        let ranks = segmented_argsort(&data, &offsets, 16);
        for s in 0..offsets.len() - 1 {
            let (lo, hi) = (offsets[s], offsets[s + 1]);
            // ranks within a segment are a permutation of 0..len
            let mut seen: Vec<i32> = ranks[lo..hi].to_vec();
            seen.sort_unstable();
            assert!(seen.iter().enumerate().all(|(i, &r)| r == i as i32), "case {case}");
            // values in rank order are non-increasing
            for w in ranks[lo..hi].windows(2) {
                assert!(data[lo + w[0] as usize] >= data[lo + w[1] as usize], "case {case}");
            }
        }
    }
}

#[test]
fn prefix_sum_matches_serial_integers() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        // Integer-valued f32 sums are exact up to 2^24: bit-equal comparisons valid.
        let data: Vec<f32> = (0..rng.int(0, 300)).map(|_| rng.int(0, 100) as f32).collect();
        let p = rng.int(1, 64);
        let mut acc = 0.0f32;
        let want: Vec<f32> = data
            .iter()
            .map(|&v| {
                acc += v;
                acc
            })
            .collect();
        assert_eq!(prefix_sum(&data, p), want, "case {case}");
        assert_eq!(hillis_steele(&data), want, "case {case}");
    }
}

#[test]
fn nms_postconditions() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let n = rng.int(1, 60);
        let mut rows = Vec::with_capacity(n * 6);
        for _ in 0..n {
            let (x, y) = (rng.int(0, 50), rng.int(0, 50));
            let (w, h) = (rng.int(1, 20), rng.int(1, 20));
            let (score, class) = (rng.int(0, 100), rng.int(0, 3));
            rows.extend([
                class as f32,
                score as f32 / 100.0,
                x as f32,
                y as f32,
                (x + w) as f32,
                (y + h) as f32,
            ]);
        }
        let thresh = rng.float(0.1, 0.9);
        let t = Tensor::from_vec([1, n, 6], rows);
        let cfg = NmsConfig { iou_threshold: thresh, valid_thresh: 0.005, ..Default::default() };
        let out = box_nms(&t, &cfg);
        let v = out.as_f32();

        // 1. valid rows are a prefix, sorted by descending score
        let mut seen_invalid = false;
        let mut last_score = f32::INFINITY;
        let mut kept = vec![];
        for i in 0..n {
            let r = &v[i * 6..i * 6 + 6];
            if r[0] < 0.0 {
                seen_invalid = true;
                assert!(r.iter().all(|&x| x == -1.0), "case {case}: invalid rows are all -1");
            } else {
                assert!(!seen_invalid, "case {case}: valid rows must form a prefix");
                assert!(r[1] <= last_score, "case {case}: scores must be non-increasing");
                last_score = r[1];
                kept.push((r[0], [r[2], r[3], r[4], r[5]]));
            }
        }
        // 2. no same-class pair above the threshold survives
        for a in 0..kept.len() {
            for b in a + 1..kept.len() {
                if kept[a].0 == kept[b].0 {
                    assert!(iou(kept[a].1, kept[b].1) <= thresh + 1e-6, "case {case}");
                }
            }
        }
    }
}

#[test]
fn naive_nms_profile_worsens_with_boxes() {
    for case in 0..CASES {
        let n = Rng::new(case).int(10, 2000);
        let small = naive_nms_profile(n, 5);
        let big = naive_nms_profile(n * 2, 5);
        assert!(big.total_flops() > small.total_flops(), "n = {n}");
    }
}

/// `roi_align` as it was before the sampling geometry was hoisted out of the
/// channel loop: floor/clamp/index math redone for every channel. Kept as
/// the oracle whose bits the table-driven version must reproduce.
fn roi_align_per_channel(
    features: &Tensor,
    rois: &Tensor,
    pooled: usize,
    spatial_scale: f32,
    sampling_ratio: usize,
) -> Tensor {
    fn bilinear(feat: &[f32], h: usize, w: usize, y: f32, x: f32) -> f32 {
        if y < -1.0 || y > h as f32 || x < -1.0 || x > w as f32 {
            return 0.0;
        }
        let y = y.max(0.0);
        let x = x.max(0.0);
        let (y0, x0) = (y.floor() as usize, x.floor() as usize);
        let y1 = (y0 + 1).min(h - 1);
        let x1 = (x0 + 1).min(w - 1);
        let y0 = y0.min(h - 1);
        let x0 = x0.min(w - 1);
        let ly = y - y0 as f32;
        let lx = x - x0 as f32;
        let v00 = feat[y0 * w + x0];
        let v01 = feat[y0 * w + x1];
        let v10 = feat[y1 * w + x0];
        let v11 = feat[y1 * w + x1];
        v00 * (1.0 - ly) * (1.0 - lx) + v01 * (1.0 - ly) * lx + v10 * ly * (1.0 - lx) + v11 * ly * lx
    }

    let (_, c, h, w) = features.shape().nchw();
    let r = rois.shape().dim(0);
    let f = features.as_f32();
    let rr = rois.as_f32();
    let mut out = Tensor::zeros([r, c, pooled, pooled]);
    let o = out.as_f32_mut();
    for ri in 0..r {
        let b = rr[ri * 5] as usize;
        let x1 = rr[ri * 5 + 1] * spatial_scale;
        let y1 = rr[ri * 5 + 2] * spatial_scale;
        let x2 = rr[ri * 5 + 3] * spatial_scale;
        let y2 = rr[ri * 5 + 4] * spatial_scale;
        let rw = (x2 - x1).max(1.0);
        let rh = (y2 - y1).max(1.0);
        let bin_w = rw / pooled as f32;
        let bin_h = rh / pooled as f32;
        for ci in 0..c {
            let feat = &f[(b * c + ci) * h * w..(b * c + ci + 1) * h * w];
            for py in 0..pooled {
                for px in 0..pooled {
                    let mut acc = 0.0f32;
                    for sy in 0..sampling_ratio {
                        let yy = y1
                            + py as f32 * bin_h
                            + (sy as f32 + 0.5) * bin_h / sampling_ratio as f32;
                        for sx in 0..sampling_ratio {
                            let xx = x1
                                + px as f32 * bin_w
                                + (sx as f32 + 0.5) * bin_w / sampling_ratio as f32;
                            acc += bilinear(feat, h, w, yy, xx);
                        }
                    }
                    o[((ri * c + ci) * pooled + py) * pooled + px] =
                        acc / (sampling_ratio * sampling_ratio) as f32;
                }
            }
        }
    }
    out
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_f32().iter().map(|v| v.to_bits()).collect()
}

/// Few channels, and counts on both sides of vector widths, so the
/// channel-inner loop runs its vector body, its tail, or both.
const ROI_CHANNELS: [usize; 9] = [1, 2, 3, 4, 7, 8, 9, 33, 256];

#[test]
fn roi_align_is_bit_identical_to_the_per_channel_loop() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let (n, c) = (rng.int(1, 3), ROI_CHANNELS[case as usize % ROI_CHANNELS.len()]);
        let (h, w) = (rng.int(1, 12), rng.int(1, 12));
        let features = rng.tensor([n, c, h, w], -1.0, 1.0);
        let r = rng.int(1, 9);
        let mut rows = Vec::with_capacity(r * 5);
        for _ in 0..r {
            // image coordinates run to twice the map's, so boxes hang over
            // every edge and some miss the map altogether
            let (x, y) = (rng.float(-8.0, 2.0 * w as f32), rng.float(-8.0, 2.0 * h as f32));
            let (bw, bh) = match rng.int(0, 4) {
                0 => (0.0, 0.0),                   // zero area
                1 => (rng.float(-3.0, 0.0), 0.25), // x2 < x1, thinner than a bin
                _ => (rng.float(0.0, 12.0), rng.float(0.0, 12.0)),
            };
            rows.extend([rng.int(0, n) as f32, x, y, x + bw, y + bh]);
        }
        let rois = Tensor::from_vec([r, 5], rows);
        let (pooled, scale, sampling) = (rng.int(1, 5), rng.pick(&[1.0, 0.5, 0.125]), rng.int(1, 4));
        assert_eq!(
            bits(&roi_align(&features, &rois, pooled, scale, sampling)),
            bits(&roi_align_per_channel(&features, &rois, pooled, scale, sampling)),
            "case {case}: {n}x{c}x{h}x{w}, pooled {pooled}, scale {scale}, sampling {sampling}, rois {:?}",
            rois.as_f32()
        );
    }
}

#[test]
fn roi_align_ignores_feature_values_outside_the_map() {
    // A sample off the map is zero even where the features are not finite:
    // it must be skipped, not weighted by zero.
    let mut features = Tensor::full([1, 2, 4, 4], f32::INFINITY);
    features.set(&[0, 1, 3, 3], f32::NAN);
    let rois = Tensor::from_vec([2, 5], vec![
        0.0, 100.0, 100.0, 108.0, 108.0, // wholly outside
        0.0, 2.5, 2.5, 9.0, 9.0, // straddles the corner
    ]);
    let got = roi_align(&features, &rois, 2, 1.0, 2);
    assert_eq!(bits(&got), bits(&roi_align_per_channel(&features, &rois, 2, 1.0, 2)));
    assert!(got.as_f32()[..8].iter().all(|&v| v == 0.0));
}
