//! YOLOv3 detection head: decode the raw feature-map predictions of each
//! scale into scored boxes, then suppress them with `box_nms`.

use super::nms::{box_nms_into, NmsConfig};
use unigpu_device::KernelProfile;

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// One output scale of the head.
#[derive(Debug, Clone, Copy)]
pub struct YoloScale<'a> {
    /// `[1, a*(5+classes), h, w]` raw network output.
    pub feat: &'a [f32],
    /// The feature map's `(h, w)`.
    pub hw: (usize, usize),
    /// `a` anchor `(w, h)` pairs in pixels.
    pub anchors: &'a [(f32, f32)],
    /// Input pixels per feature cell.
    pub stride: usize,
}

/// Decode one YOLO output scale.
///
/// Writes candidate rows `(class, score, x1, y1, x2, y2)` in input-image
/// pixels, for cells whose objectness exceeds `conf_thresh`, to the front of
/// `rows`, and returns how many it wrote: at most one per anchor-cell.
///
/// # Panics
/// Panics if the feature map is not `a*(5+classes)` planes of `h·w`, or a
/// row overruns `rows`.
fn yolo_decode_scale(
    scale: &YoloScale<'_>,
    classes: usize,
    conf_thresh: f32,
    rows: &mut [f32],
) -> usize {
    let (h, w) = scale.hw;
    let f = scale.feat;
    assert_eq!(
        f.len(),
        scale.anchors.len() * (5 + classes) * h * w,
        "feature channels mismatch"
    );
    let at = |ch: usize, y: usize, x: usize| f[(ch * h + y) * w + x];
    let stride = scale.stride as f32;
    let mut out = rows.chunks_exact_mut(6);
    let mut n = 0;
    for (ai, &(anchor_w, anchor_h)) in scale.anchors.iter().enumerate() {
        let base = ai * (5 + classes);
        for y in 0..h {
            for x in 0..w {
                let obj = sigmoid(at(base + 4, y, x));
                if obj <= conf_thresh {
                    continue;
                }
                let bx = (sigmoid(at(base, y, x)) + x as f32) * stride;
                let by = (sigmoid(at(base + 1, y, x)) + y as f32) * stride;
                let bw = anchor_w * at(base + 2, y, x).exp();
                let bh = anchor_h * at(base + 3, y, x).exp();
                // best class
                let mut best = 0usize;
                let mut best_p = f32::MIN;
                for cls in 0..classes {
                    let p = at(base + 5 + cls, y, x);
                    if p > best_p {
                        best_p = p;
                        best = cls;
                    }
                }
                let score = obj * sigmoid(best_p);
                if score > conf_thresh {
                    let row = out.next().expect("candidate rows overrun their buffer");
                    row.copy_from_slice(&[
                        best as f32,
                        score,
                        bx - bw / 2.0,
                        by - bh / 2.0,
                        bx + bw / 2.0,
                        by + bh / 2.0,
                    ]);
                    n += 1;
                }
            }
        }
    }
    n
}

/// Full YOLOv3 post-processing: decode every scale's candidates into
/// `scratch` and suppress them into `out`, which holds one row per
/// anchor-cell of every scale (the most candidates there can be). Returns the
/// candidate count `n`: the first `max(n, 1)` rows of `out` are `box_nms`'s
/// `[1, n, 6]` output (one invalid row for none), and the rest are `-1`.
///
/// # Panics
/// Panics if a feature map is not `a*(5+classes)` planes of its `hw`, or
/// the candidates overrun `scratch` or `out`.
pub fn yolo_detect<'a>(
    scales: impl IntoIterator<Item = YoloScale<'a>>,
    classes: usize,
    conf_thresh: f32,
    nms: &NmsConfig,
    scratch: &mut [f32],
    out: &mut [f32],
) -> usize {
    let mut n = 0;
    for scale in scales {
        n += yolo_decode_scale(&scale, classes, conf_thresh, &mut scratch[n * 6..]);
    }
    box_nms_into(&scratch[..n * 6], 1, nms, out);
    n
}

/// Cost-model profile of the decode kernels: one work-item per anchor-cell,
/// sigmoid/exp transcendentals, conditional emission (mild divergence).
pub fn yolo_decode_profile(cells: usize, classes: usize) -> KernelProfile {
    KernelProfile::new("yolo/decode", cells.max(1))
        .workgroup(128)
        .flops(30.0 + classes as f64)
        .reads(4.0 * (5.0 + classes as f64))
        .writes(24.0)
        .divergence(0.8)
        .coalesce(0.7)
}

#[cfg(test)]
mod tests {
    use super::*;
    use unigpu_tensor::Tensor;

    /// Build a feature map with one confident cell.
    fn one_hot_feat(h: usize, w: usize, classes: usize, cell: (usize, usize)) -> Tensor {
        let c = 5 + classes;
        let mut t = Tensor::full([1, c, h, w], -10.0); // sigmoid(-10) ~ 0
        // objectness high at `cell`
        t.set(&[0, 4, cell.0, cell.1], 10.0);
        // tx = ty = 0 → sigmoid = 0.5 (center of cell); tw = th = 0 → anchor size
        t.set(&[0, 0, cell.0, cell.1], 0.0);
        t.set(&[0, 1, cell.0, cell.1], 0.0);
        t.set(&[0, 2, cell.0, cell.1], 0.0);
        t.set(&[0, 3, cell.0, cell.1], 0.0);
        // class 2 hot
        t.set(&[0, 5 + 2, cell.0, cell.1], 10.0);
        t
    }

    fn scale<'a>(feat: &'a Tensor, anchors: &'a [(f32, f32)], stride: usize) -> YoloScale<'a> {
        let (_, _, h, w) = feat.shape().nchw();
        YoloScale { feat: feat.as_f32(), hw: (h, w), anchors, stride }
    }

    fn decode(feat: &Tensor, anchors: &[(f32, f32)], stride: usize) -> Vec<[f32; 6]> {
        let mut rows = vec![f32::NAN; feat.numel() * 6];
        let n = yolo_decode_scale(&scale(feat, anchors, stride), 3, 0.3, &mut rows);
        rows[..n * 6].chunks(6).map(|r| r.try_into().unwrap()).collect()
    }

    /// The `[1, max(n, 1), 6]` detections of `yolo_detect` over `feats`.
    fn detect(feats: &[(&Tensor, (f32, f32), usize)], nms: &NmsConfig) -> Tensor {
        let anchors: Vec<[(f32, f32); 1]> = feats.iter().map(|&(_, a, _)| [a]).collect();
        let cells: usize = feats.iter().map(|(f, _, _)| f.numel() / 8).sum();
        let (mut scratch, mut out) = (vec![f32::NAN; cells * 6], vec![f32::NAN; cells * 6]);
        let scales = feats.iter().zip(&anchors).map(|(&(f, _, s), a)| scale(f, a, s));
        let n = yolo_detect(scales, 3, 0.3, nms, &mut scratch, &mut out);
        assert!(out[n.max(1) * 6..].iter().all(|&x| x == -1.0), "rows past the candidates");
        Tensor::from_vec([1, n.max(1), 6], out[..n.max(1) * 6].to_vec())
    }

    #[test]
    fn decodes_center_and_anchor_size() {
        let feat = one_hot_feat(4, 4, 3, (1, 2));
        let rows = decode(&feat, &[(32.0, 64.0)], 16);
        assert_eq!(rows.len(), 1);
        let r = rows[0];
        assert_eq!(r[0], 2.0, "class id");
        assert!(r[1] > 0.9, "score");
        let cx = (r[2] + r[4]) / 2.0;
        let cy = (r[3] + r[5]) / 2.0;
        assert!((cx - (2.5 * 16.0)).abs() < 1e-3, "cx = {cx}");
        assert!((cy - (1.5 * 16.0)).abs() < 1e-3, "cy = {cy}");
        assert!(((r[4] - r[2]) - 32.0).abs() < 1e-3, "w from anchor");
        assert!(((r[5] - r[3]) - 64.0).abs() < 1e-3, "h from anchor");
    }

    #[test]
    fn low_objectness_emits_nothing() {
        let feat = Tensor::full([1, 8, 4, 4], -10.0);
        assert!(decode(&feat, &[(32.0, 32.0)], 16).is_empty());
    }

    #[test]
    fn multi_scale_detect_suppresses_duplicates() {
        // the same object seen at two scales → one survivor after NMS
        let f1 = one_hot_feat(4, 4, 3, (1, 1));
        let f2 = one_hot_feat(2, 2, 3, (0, 0));
        // scale strides chosen so both decode near the same pixels
        let det = detect(
            &[(&f1, (48.0, 48.0), 16), (&f2, (48.0, 48.0), 32)],
            &NmsConfig { iou_threshold: 0.3, force_suppress: true, ..Default::default() },
        );
        let v = det.as_f32();
        let kept = (0..v.len() / 6).filter(|&i| v[i * 6] >= 0.0).count();
        assert_eq!(kept, 1, "duplicate across scales must be suppressed");
    }

    #[test]
    fn empty_detection_returns_invalid_tensor() {
        let f = Tensor::full([1, 8, 2, 2], -10.0);
        let det = detect(&[(&f, (32.0, 32.0), 16)], &NmsConfig::default());
        assert_eq!(det.shape().dims(), &[1, 1, 6]);
        assert!(det.as_f32().iter().all(|&x| x == -1.0));
    }
}
