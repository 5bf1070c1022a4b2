//! SSD multibox operators: anchor (prior) generation and detection decoding
//! (`MultiboxPrior` / `MultiboxDetection` in the MXNet operator set, §3.1.1).

use super::nms::{box_nms_into, NmsConfig};
use unigpu_device::{DeviceSpec, KernelProfile};

/// Configuration of the decode + NMS stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiboxConfig {
    /// Box-regression variances (center, size) per the SSD paper.
    pub variances: (f32, f32),
    /// Discard detections with class probability below this.
    pub score_thresh: f32,
    pub nms: NmsConfig,
}

impl Default for MultiboxConfig {
    fn default() -> Self {
        MultiboxConfig {
            variances: (0.1, 0.2),
            score_thresh: 0.01,
            nms: NmsConfig { iou_threshold: 0.45, valid_thresh: 0.01, topk: Some(400), force_suppress: false },
        }
    }
}

/// Generate SSD anchors for one `h×w` feature map into `out`.
///
/// `sizes` are scales relative to the image; `ratios` are aspect ratios.
/// Anchor count per cell is `sizes.len() + ratios.len() - 1` (the SSD
/// convention: all sizes at ratio 1, plus extra ratios at the first size).
/// Writes `[1, h*w*anchors_per_cell, 4]` corner-form boxes in `[0,1]` image
/// coordinates (unclipped, like MXNet's default).
///
/// # Panics
/// Panics if `sizes` or `ratios` is empty, or `out` is not that long.
pub fn multibox_prior_into(h: usize, w: usize, sizes: &[f32], ratios: &[f32], out: &mut [f32]) {
    assert!(!sizes.is_empty() && !ratios.is_empty());
    let per_cell = sizes.len() + ratios.len() - 1;
    assert_eq!(out.len(), h * w * per_cell * 4, "prior output length mismatch");
    let mut boxes = out.chunks_exact_mut(4);
    for i in 0..h {
        let cy = (i as f32 + 0.5) / h as f32;
        for j in 0..w {
            let cx = (j as f32 + 0.5) / w as f32;
            let mut emit = |bw: f32, bh: f32| {
                let o = boxes.next().expect("one box per anchor");
                o.copy_from_slice(&[cx - bw / 2.0, cy - bh / 2.0, cx + bw / 2.0, cy + bh / 2.0]);
            };
            // all sizes at ratio 1
            for &s in sizes {
                emit(s, s);
            }
            // extra ratios at the first size
            for &r in &ratios[1..] {
                let sq = r.sqrt();
                emit(sizes[0] * sq, sizes[0] / sq);
            }
        }
    }
}

/// Decode SSD predictions into detections and run NMS.
///
/// * `cls_probs`: `[batch, num_classes, num_anchors]` softmax outputs where
///   class 0 is background;
/// * `loc_preds`: `[batch, num_anchors*4]` box regression deltas;
/// * `anchors`:   `[1, num_anchors, 4]` corner-form priors.
///
/// Writes `[batch, num_anchors, 6]` rows `(class-1, score, x1, y1, x2, y2)`
/// post-NMS (invalid rows −1) into `out`, matching `MultiBoxDetection`. The
/// candidate rows are decoded into the first `out.len()` floats of
/// `scratch`.
///
/// # Panics
/// Panics if the buffers' lengths disagree with `anchors`' count, or
/// `scratch` is shorter than `out`.
pub fn multibox_detection(
    cls_probs: &[f32],
    loc_preds: &[f32],
    anchors: &[f32],
    cfg: &MultiboxConfig,
    scratch: &mut [f32],
    out: &mut [f32],
) {
    let n_anc = anchors.len() / 4;
    assert!(n_anc > 0 && anchors.len() == n_anc * 4, "anchors shape mismatch");
    let batch = loc_preds.len() / (n_anc * 4);
    assert!(batch > 0 && loc_preds.len() == batch * n_anc * 4, "loc_preds shape mismatch");
    let n_cls = cls_probs.len() / (batch * n_anc);
    assert_eq!(cls_probs.len(), batch * n_cls * n_anc, "cls_probs shape mismatch");
    assert_eq!(out.len(), batch * n_anc * 6, "detection output length mismatch");
    let (cp, lp, an) = (cls_probs, loc_preds, anchors);
    let (v_c, v_s) = cfg.variances;

    let c = &mut scratch[..out.len()];
    c.fill(-1.0);
    for b in 0..batch {
        for a in 0..n_anc {
            // best non-background class
            let mut best_cls = -1i32;
            let mut best_p = cfg.score_thresh;
            for cls in 1..n_cls {
                let p = cp[(b * n_cls + cls) * n_anc + a];
                if p > best_p {
                    best_p = p;
                    best_cls = cls as i32 - 1;
                }
            }
            if best_cls < 0 {
                continue;
            }
            // decode center-form regression against the anchor
            let (ax1, ay1, ax2, ay2) = (an[a * 4], an[a * 4 + 1], an[a * 4 + 2], an[a * 4 + 3]);
            let (aw, ah) = (ax2 - ax1, ay2 - ay1);
            let (acx, acy) = (ax1 + aw / 2.0, ay1 + ah / 2.0);
            let d = &lp[(b * n_anc + a) * 4..(b * n_anc + a) * 4 + 4];
            let cx = acx + d[0] * v_c * aw;
            let cy = acy + d[1] * v_c * ah;
            let bw = aw * (d[2] * v_s).exp();
            let bh = ah * (d[3] * v_s).exp();
            let row = &mut c[(b * n_anc + a) * 6..(b * n_anc + a) * 6 + 6];
            row[0] = best_cls as f32;
            row[1] = best_p;
            row[2] = cx - bw / 2.0;
            row[3] = cy - bh / 2.0;
            row[4] = cx + bw / 2.0;
            row[5] = cy + bh / 2.0;
        }
    }
    box_nms_into(c, batch, &cfg.nms, out);
}

/// Profiles for the decode stage (anchor transform + class argmax); NMS adds
/// its own profiles from [`super::nms::nms_profiles`].
pub fn multibox_profiles(n_anchors: usize, n_classes: usize, spec: &DeviceSpec) -> Vec<KernelProfile> {
    let mut v = vec![KernelProfile::new("multibox/decode", n_anchors.max(1))
        .workgroup(128)
        .flops(n_classes as f64 + 20.0)
        .reads(4.0 * (n_classes as f64 + 8.0))
        .writes(24.0)
        .coalesce(0.8)];
    v.extend(super::nms::nms_profiles(n_anchors, spec));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use unigpu_tensor::Tensor;

    fn multibox_prior(h: usize, w: usize, sizes: &[f32], ratios: &[f32]) -> Tensor {
        let mut p = Tensor::zeros([1, h * w * (sizes.len() + ratios.len() - 1), 4]);
        multibox_prior_into(h, w, sizes, ratios, p.as_f32_mut());
        p
    }

    fn detect(cls: &Tensor, loc: &Tensor, anchors: &Tensor, cfg: &MultiboxConfig) -> Tensor {
        let mut det = Tensor::zeros([cls.shape().dim(0), anchors.shape().dim(1), 6]);
        let mut scratch = vec![f32::NAN; det.numel()];
        let (c, l, a) = (cls.as_f32(), loc.as_f32(), anchors.as_f32());
        multibox_detection(c, l, a, cfg, &mut scratch, det.as_f32_mut());
        det
    }

    #[test]
    fn prior_count_and_centering() {
        let sizes = [0.2, 0.4];
        let ratios = [1.0, 2.0, 0.5];
        let p = multibox_prior(2, 2, &sizes, &ratios);
        // per cell: 2 sizes + 2 extra ratios = 4
        assert_eq!(p.shape().dims(), &[1, 2 * 2 * 4, 4]);
        // first anchor of cell (0,0): center (0.25, 0.25), size 0.2
        let v = p.as_f32();
        assert!((v[0] - (0.25 - 0.1)).abs() < 1e-6);
        assert!((v[2] - (0.25 + 0.1)).abs() < 1e-6);
    }

    #[test]
    fn prior_aspect_ratio_shapes() {
        let p = multibox_prior(1, 1, &[0.4], &[1.0, 4.0]);
        let v = p.as_f32();
        // anchor 1: ratio 4 → w = 0.4*2, h = 0.4/2
        let w = v[6] - v[4];
        let h = v[7] - v[5];
        assert!((w - 0.8).abs() < 1e-6);
        assert!((h - 0.2).abs() < 1e-6);
        assert!((w / h - 4.0).abs() < 1e-5);
    }

    #[test]
    fn zero_deltas_decode_to_anchor() {
        let anchors = Tensor::from_vec([1, 1, 4], vec![0.2, 0.2, 0.6, 0.6]);
        // classes: bg + 1; anchor strongly class 1
        let cls = Tensor::from_vec([1, 2, 1], vec![0.1, 0.9]);
        let loc = Tensor::zeros([1, 4]);
        let det = detect(&cls, &loc, &anchors, &MultiboxConfig::default());
        let v = det.as_f32();
        assert_eq!(v[0], 0.0); // class 1 → id 0
        assert_eq!(v[1], 0.9);
        assert!((v[2] - 0.2).abs() < 1e-6 && (v[5] - 0.6).abs() < 1e-6);
    }

    #[test]
    fn deltas_shift_and_scale() {
        let anchors = Tensor::from_vec([1, 1, 4], vec![0.0, 0.0, 0.4, 0.4]);
        let cls = Tensor::from_vec([1, 2, 1], vec![0.0, 1.0]);
        // dx = 1 → cx += 0.1*0.4; dw = ln(2)/0.2 → width doubles
        let loc = Tensor::from_vec([1, 4], vec![1.0, 0.0, (2.0f32).ln() / 0.2, 0.0]);
        let det = detect(&cls, &loc, &anchors, &MultiboxConfig::default());
        let v = det.as_f32();
        let w = v[4] - v[2];
        assert!((w - 0.8).abs() < 1e-5, "width should double: {w}");
        let cx = (v[2] + v[4]) / 2.0;
        assert!((cx - 0.24).abs() < 1e-5, "center should shift: {cx}");
    }

    #[test]
    fn background_only_anchors_yield_nothing() {
        let anchors = Tensor::from_vec([1, 2, 4], vec![0.0, 0.0, 0.5, 0.5, 0.5, 0.5, 1.0, 1.0]);
        let cls = Tensor::from_vec([1, 2, 2], vec![0.99, 0.99, 0.01, 0.01]);
        let loc = Tensor::zeros([1, 8]);
        let cfg = MultiboxConfig { score_thresh: 0.5, ..Default::default() };
        let det = detect(&cls, &loc, &anchors, &cfg);
        assert!(det.as_f32().iter().all(|&x| x == -1.0));
    }

    #[test]
    fn duplicate_anchors_suppressed_by_nms() {
        let anchors = Tensor::from_vec([1, 2, 4], vec![0.2, 0.2, 0.6, 0.6, 0.21, 0.2, 0.61, 0.6]);
        let cls = Tensor::from_vec([1, 2, 2], vec![0.1, 0.2, 0.9, 0.8]);
        let loc = Tensor::zeros([1, 8]);
        let det = detect(&cls, &loc, &anchors, &MultiboxConfig::default());
        let v = det.as_f32();
        assert_eq!(v[1], 0.9);
        assert_eq!(v[6], -1.0, "near-duplicate anchor must be suppressed");
    }
}
