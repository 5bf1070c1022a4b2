//! `box_nms` — non-maximum suppression over detection candidates (§3.1.1,
//! §4.3).
//!
//! Input/output follow the MXNet `box_nms` convention the GluonCV SSD models
//! use: a `[batch, num_boxes, 6]` tensor whose rows are
//! `(class_id, score, x1, y1, x2, y2)`; suppressed/invalid rows are all `-1`.
//!
//! The optimized GPU realization applies the paper's three tricks:
//! * scores are ordered with the *segmented sort* of Figure 2 (one segment
//!   per batch image), not per-thread local sorts;
//! * "it avoids branch divergence by initializing all output to be invalid
//!   instead of doing it in a comparison style" — the output tensor is
//!   pre-filled with `-1` and only surviving boxes are written;
//! * the inner suppression loop is aligned with threads (each thread owns one
//!   candidate and checks it against the newly accepted box), one step upper
//!   with blocks, batch level unrolled.

use super::sort::{segmented_argsort, SORT_BLOCK};
use unigpu_device::{DeviceSpec, KernelProfile};
use unigpu_tensor::Tensor;

/// NMS parameters (MXNet `box_nms` semantics).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NmsConfig {
    /// Suppress a candidate when its IoU with an accepted box exceeds this.
    pub iou_threshold: f32,
    /// Drop candidates with `score <= valid_thresh` before sorting.
    pub valid_thresh: f32,
    /// Keep only the `topk` highest-scoring candidates pre-suppression.
    pub topk: Option<usize>,
    /// Suppress across classes (false: only same-class boxes suppress).
    pub force_suppress: bool,
}

impl Default for NmsConfig {
    fn default() -> Self {
        NmsConfig {
            iou_threshold: 0.5,
            valid_thresh: 0.0,
            topk: None,
            force_suppress: false,
        }
    }
}

/// Intersection-over-union of two corner-form boxes `(x1, y1, x2, y2)`.
pub fn iou(a: [f32; 4], b: [f32; 4]) -> f32 {
    let ix = (a[2].min(b[2]) - a[0].max(b[0])).max(0.0);
    let iy = (a[3].min(b[3]) - a[1].max(b[1])).max(0.0);
    let inter = ix * iy;
    let area_a = (a[2] - a[0]).max(0.0) * (a[3] - a[1]).max(0.0);
    let area_b = (b[2] - b[0]).max(0.0) * (b[3] - b[1]).max(0.0);
    let union = area_a + area_b - inter;
    if union <= 0.0 {
        0.0
    } else {
        inter / union
    }
}

fn row(boxes: &[f32], i: usize) -> (f32, f32, [f32; 4]) {
    let r = &boxes[i * 6..i * 6 + 6];
    (r[0], r[1], [r[2], r[3], r[4], r[5]])
}

/// Non-maximum suppression. See module docs for the tensor convention.
///
/// # Panics
/// Panics unless `boxes` is `[batch, n, 6]` f32.
pub fn box_nms(boxes: &Tensor, cfg: &NmsConfig) -> Tensor {
    let dims = boxes.shape().dims();
    assert_eq!(dims.len(), 3, "box_nms expects [batch, n, 6]");
    assert_eq!(dims[2], 6, "box rows are (class, score, x1, y1, x2, y2)");
    let mut out = Tensor::zeros(boxes.shape().clone());
    box_nms_into(boxes.as_f32(), dims[0], cfg, out.as_f32_mut());
    out
}

/// [`box_nms`] of `batch` images of `n` rows each into `out`, which holds
/// `m >= n` rows per image: each image's survivors go to the first of its
/// rows in score order, and every other row is `-1`.
///
/// # Panics
/// Panics if either buffer is not `batch` images of whole rows, or `out`'s
/// images are shorter than `boxes`'.
pub(crate) fn box_nms_into(boxes: &[f32], batch: usize, cfg: &NmsConfig, out: &mut [f32]) {
    let image = |len: usize| {
        assert!(len.is_multiple_of(6 * batch), "{len} floats are not {batch} images of 6-float rows");
        len / (6 * batch)
    };
    let (n, m) = (image(boxes.len()), image(out.len()));
    assert!(n <= m, "{n} boxes per image do not fit in {m} output rows");

    // Divergence-free init: everything starts invalid.
    out.fill(-1.0);

    // Gather valid candidates per batch and sort them all with ONE segmented
    // sort launch (scores flattened, one segment per image).
    // Reserved for every box, so the gather never reallocates.
    let mut flat_scores = Vec::with_capacity(batch * n);
    let mut flat_ids: Vec<usize> = Vec::with_capacity(batch * n);
    let mut offsets = Vec::with_capacity(batch + 1);
    offsets.push(0);
    for b in 0..batch {
        for i in 0..n {
            let (cls, score, _) = row(&boxes[b * n * 6..], i);
            if cls >= 0.0 && score > cfg.valid_thresh {
                flat_scores.push(score);
                flat_ids.push(i);
            }
        }
        offsets.push(flat_scores.len());
    }
    let ranks = if flat_scores.is_empty() {
        Vec::new()
    } else {
        segmented_argsort(&flat_scores, &offsets, SORT_BLOCK)
    };

    for b in 0..batch {
        let seg = &ranks[offsets[b]..offsets[b + 1]];
        let ids = &flat_ids[offsets[b]..offsets[b + 1]];
        let mut order: Vec<usize> = seg.iter().map(|&r| ids[r as usize]).collect();
        if let Some(k) = cfg.topk {
            order.truncate(k);
        }
        let bsrc = &boxes[b * n * 6..(b + 1) * n * 6];
        let mut suppressed = vec![false; order.len()];
        let mut emit = 0usize;
        for i in 0..order.len() {
            if suppressed[i] {
                continue;
            }
            let (cls_i, _, box_i) = row(bsrc, order[i]);
            // Accept candidate i.
            let dst = &mut out[(b * m + emit) * 6..(b * m + emit) * 6 + 6];
            dst.copy_from_slice(&bsrc[order[i] * 6..order[i] * 6 + 6]);
            emit += 1;
            // Thread-per-candidate suppression sweep (data-parallel on GPU).
            for (j, s) in suppressed.iter_mut().enumerate().skip(i + 1) {
                if *s {
                    continue;
                }
                let (cls_j, _, box_j) = row(bsrc, order[j]);
                if (cfg.force_suppress || cls_i == cls_j)
                    && iou(box_i, box_j) > cfg.iou_threshold
                {
                    *s = true;
                }
            }
        }
    }
}

/// Profiles for the optimized `box_nms`: segmented-sort launches plus one
/// thread-aligned suppression kernel.
pub fn nms_profiles(n_boxes: usize, spec: &DeviceSpec) -> Vec<KernelProfile> {
    let mut v = super::sort::segmented_sort_profiles(n_boxes, SORT_BLOCK, spec);
    // Suppression: each surviving round sweeps candidates in parallel; model
    // as n·√n pair checks (typical survivor counts are ~√n for detection).
    let sweeps = (n_boxes as f64).sqrt().ceil().max(1.0);
    v.push(
        KernelProfile::new("nms/suppress", n_boxes.max(1))
            .workgroup(128)
            .flops(8.0 * sweeps)
            .reads(24.0)
            .writes(24.0)
            .divergence(0.85)
            .coalesce(0.85),
    );
    v
}

/// Profile of the naive comparison-style NMS: every thread owns one box and
/// checks it against every other box in its class ("doing it in a
/// comparison style" writes outputs behind divergent branches; the paper's
/// version instead initializes all outputs invalid). `O(n²/classes)` pair
/// checks with uncoalesced box reads and local scratch that spills to DRAM
/// on Mali.
pub fn naive_nms_profile(n_boxes: usize, n_classes: usize) -> KernelProfile {
    let per_class = (n_boxes / n_classes.max(1)).max(1);
    KernelProfile::new("nms/naive_all_pairs", n_boxes.max(1))
        .workgroup(32)
        .flops(8.0 * per_class as f64)
        .reads(6.0 * per_class as f64)
        .writes(24.0)
        .simd(0.3)
        .divergence(0.25)
        .imbalance(2.0)
        .coalesce(0.25)
        .slm(24.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boxes(rows: &[[f32; 6]]) -> Tensor {
        Tensor::from_vec([1, rows.len(), 6], rows.concat())
    }

    #[test]
    fn iou_identity_is_one() {
        assert_eq!(iou([0.0, 0.0, 2.0, 2.0], [0.0, 0.0, 2.0, 2.0]), 1.0);
    }

    #[test]
    fn iou_disjoint_is_zero() {
        assert_eq!(iou([0.0, 0.0, 1.0, 1.0], [2.0, 2.0, 3.0, 3.0]), 0.0);
    }

    #[test]
    fn iou_half_overlap() {
        // [0,2]x[0,2] vs [1,3]x[0,2]: inter 2, union 6
        let v = iou([0.0, 0.0, 2.0, 2.0], [1.0, 0.0, 3.0, 2.0]);
        assert!((v - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn suppresses_overlapping_same_class() {
        let t = boxes(&[
            [0.0, 0.9, 0.0, 0.0, 1.0, 1.0],
            [0.0, 0.8, 0.05, 0.05, 1.05, 1.05], // IoU ~0.82 with first
            [0.0, 0.7, 5.0, 5.0, 6.0, 6.0],
        ]);
        let y = box_nms(&t, &NmsConfig::default());
        let v = y.as_f32();
        assert_eq!(v[1], 0.9); // best kept
        assert_eq!(v[7], 0.7); // disjoint kept, in score order
        assert_eq!(v[12], -1.0); // third slot invalid
    }

    #[test]
    fn different_classes_do_not_suppress_by_default() {
        let t = boxes(&[
            [0.0, 0.9, 0.0, 0.0, 1.0, 1.0],
            [1.0, 0.8, 0.0, 0.0, 1.0, 1.0], // same box, other class
        ]);
        let keep = box_nms(&t, &NmsConfig::default());
        assert_eq!(keep.as_f32()[7], 0.8);
        let force = box_nms(&t, &NmsConfig { force_suppress: true, ..Default::default() });
        assert_eq!(force.as_f32()[7], -1.0);
    }

    #[test]
    fn valid_thresh_drops_low_scores() {
        let t = boxes(&[
            [0.0, 0.9, 0.0, 0.0, 1.0, 1.0],
            [0.0, 0.01, 5.0, 5.0, 6.0, 6.0],
        ]);
        let y = box_nms(&t, &NmsConfig { valid_thresh: 0.05, ..Default::default() });
        assert_eq!(y.as_f32()[7], -1.0);
    }

    #[test]
    fn nan_scores_are_dropped_before_the_sort() {
        // `score > valid_thresh` is false for either NaN, so neither reaches
        // the segmented sort, where +NaN would rank first.
        let t = boxes(&[
            [0.0, f32::NAN, 0.0, 0.0, 1.0, 1.0],
            [0.0, 0.6, 5.0, 5.0, 6.0, 6.0],
            [0.0, -f32::NAN, 9.0, 9.0, 10.0, 10.0],
        ]);
        let y = box_nms(&t, &NmsConfig::default());
        let v = y.as_f32();
        assert_eq!(&v[..6], &[0.0, 0.6, 5.0, 5.0, 6.0, 6.0]);
        assert!(v[6..].iter().all(|&x| x == -1.0));
    }

    #[test]
    fn negative_class_rows_are_ignored() {
        let t = boxes(&[
            [-1.0, 0.9, 0.0, 0.0, 1.0, 1.0],
            [0.0, 0.5, 2.0, 2.0, 3.0, 3.0],
        ]);
        let y = box_nms(&t, &NmsConfig::default());
        assert_eq!(y.as_f32()[1], 0.5);
        assert_eq!(y.as_f32()[7], -1.0);
    }

    #[test]
    fn topk_limits_candidates() {
        let t = boxes(&[
            [0.0, 0.9, 0.0, 0.0, 1.0, 1.0],
            [0.0, 0.8, 2.0, 0.0, 3.0, 1.0],
            [0.0, 0.7, 4.0, 0.0, 5.0, 1.0],
        ]);
        let y = box_nms(&t, &NmsConfig { topk: Some(2), ..Default::default() });
        let v = y.as_f32();
        assert_eq!(v[1], 0.9);
        assert_eq!(v[7], 0.8);
        assert_eq!(v[13], -1.0);
    }

    #[test]
    fn output_is_score_sorted() {
        let t = boxes(&[
            [0.0, 0.3, 0.0, 0.0, 1.0, 1.0],
            [0.0, 0.9, 2.0, 0.0, 3.0, 1.0],
            [0.0, 0.6, 4.0, 0.0, 5.0, 1.0],
        ]);
        let y = box_nms(&t, &NmsConfig::default());
        let v = y.as_f32();
        assert_eq!([v[1], v[7], v[13]], [0.9, 0.6, 0.3]);
    }

    #[test]
    fn batches_are_independent() {
        let mut data = vec![];
        data.extend_from_slice(&[0.0, 0.9, 0.0, 0.0, 1.0, 1.0]);
        data.extend_from_slice(&[0.0, 0.5, 0.0, 0.0, 1.0, 1.0]); // suppressed in batch 0
        data.extend_from_slice(&[0.0, 0.4, 0.0, 0.0, 1.0, 1.0]); // batch 1: kept
        data.extend_from_slice(&[0.0, 0.3, 9.0, 9.0, 10.0, 10.0]); // batch 1: kept
        let t = Tensor::from_vec([2, 2, 6], data);
        let y = box_nms(&t, &NmsConfig::default());
        let v = y.as_f32();
        assert_eq!(v[1], 0.9);
        assert_eq!(v[7], -1.0);
        assert_eq!(v[13], 0.4);
        assert_eq!(v[19], 0.3);
    }

    #[test]
    fn kept_boxes_never_violate_threshold() {
        // pseudo-random boxes; verify the NMS postcondition.
        let mut rows = vec![];
        for i in 0..40u32 {
            let x = (i * 7 % 13) as f32;
            let y = (i * 11 % 17) as f32;
            rows.push([
                (i % 3) as f32,
                0.1 + (i * 29 % 83) as f32 / 100.0,
                x,
                y,
                x + 2.0,
                y + 2.0,
            ]);
        }
        let t = boxes(&rows);
        let cfg = NmsConfig { iou_threshold: 0.4, ..Default::default() };
        let y = box_nms(&t, &cfg);
        let v = y.as_f32();
        let kept: Vec<(f32, [f32; 4])> = (0..40)
            .filter(|i| v[i * 6] >= 0.0)
            .map(|i| (v[i * 6], [v[i * 6 + 2], v[i * 6 + 3], v[i * 6 + 4], v[i * 6 + 5]]))
            .collect();
        for a in 0..kept.len() {
            for b in a + 1..kept.len() {
                if kept[a].0 == kept[b].0 {
                    assert!(
                        iou(kept[a].1, kept[b].1) <= cfg.iou_threshold + 1e-6,
                        "same-class survivors overlap too much"
                    );
                }
            }
        }
    }

    #[test]
    fn optimized_profile_beats_naive() {
        use unigpu_device::CostModel;
        let spec = unigpu_device::DeviceSpec::intel_hd505();
        let m = CostModel::new(spec.clone());
        let opt: f64 = nms_profiles(6132, &spec).iter().map(|p| m.kernel_time_ms(p)).sum();
        let naive = m.kernel_time_ms(&naive_nms_profile(6132, 21));
        assert!(naive > 2.0 * opt, "naive {naive:.3} vs optimized {opt:.3}");
    }
}
