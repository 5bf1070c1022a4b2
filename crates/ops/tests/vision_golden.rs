//! Bit-for-bit safety net under the §3.1 vision operators: FNV-1a over the
//! output bits of `segmented_argsort` (blocks 64 and 256), `box_nms` and
//! `roi_align` at the SSD-300 sizes the benchmark's `exec_functional` runs
//! (20×8732 scores, 8732 boxes, a 256×38×38 feature map, 300 ROIs, some off
//! the map), plus one ragged score set of ±NaN, ±0.0, ±∞ and ties, must equal
//! `tests/golden/vision.digest`. The golden was captured on the element-struct
//! sort and the per-ROI sample table, before the packed-key sort and the
//! channel-inner ROIAlign replaced them.
//!
//! An intended change of the bits is re-captured by pasting the `left` side
//! of the failed assertion over the golden.

mod common;

use common::Rng;
use unigpu_ops::vision::{
    box_nms, multibox_detection, roi_align, segmented_argsort, yolo_detect, MultiboxConfig,
    NmsConfig, YoloScale,
};
use unigpu_telemetry::hash::Fnv1a;
use unigpu_tensor::Tensor;

const ANCHORS: usize = 8732;
const CLASSES: usize = 20;
const ROIS: usize = 300;
const MAP: usize = 38;

fn digest(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = Fnv1a::new();
    for v in values {
        h.mix_u64(v);
    }
    h.finish()
}

fn ranks_digest(ranks: &[i32]) -> u64 {
    digest(ranks.iter().map(|&r| r as u32 as u64))
}

fn tensor_digest(t: &Tensor) -> u64 {
    let dims = t.shape().dims().iter().map(|&d| d as u64);
    digest(dims.chain(t.as_f32().iter().map(|v| u64::from(v.to_bits()))))
}

/// Nine ragged segments (one empty) over values drawn from a small pool of
/// special and repeated values, so every total-order edge case meets ties.
fn special_scores(rng: &mut Rng) -> (Vec<f32>, Vec<usize>) {
    const POOL: [f32; 12] = [
        f32::NAN,
        -f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.0,
        -0.0,
        0.5,
        -0.5,
        1.0,
        f32::MIN_POSITIVE,
        -1e-45,
        f32::MAX,
    ];
    let mut offsets = vec![0usize];
    for len in [300, 0, 1, 517, 64, 65, 700, 2, 357] {
        offsets.push(offsets[offsets.len() - 1] + len);
    }
    let n = offsets[offsets.len() - 1];
    let data = (0..n)
        .map(|_| if rng.int(0, 3) == 0 { rng.float(-1.0, 1.0) } else { rng.pick(&POOL) })
        .collect();
    (data, offsets)
}

fn boxes(rng: &mut Rng) -> Tensor {
    let mut rows = Vec::with_capacity(ANCHORS * 6);
    for _ in 0..ANCHORS {
        let (x, y) = (rng.float(0.0, 0.8), rng.float(0.0, 0.8));
        let (w, h) = (rng.float(0.05, 0.2), rng.float(0.05, 0.2));
        rows.extend([rng.int(0, CLASSES) as f32, rng.float(0.0, 1.0), x, y, x + w, y + h]);
    }
    Tensor::from_vec([1, ANCHORS, 6], rows)
}

/// Mostly boxes inside the map as the benchmark draws them; every tenth lies
/// wholly off the map, every seventh hangs over an edge, one is the `-1`
/// padding marker.
fn rois(rng: &mut Rng) -> Tensor {
    let mut rows = Vec::with_capacity(ROIS * 5);
    for i in 0..ROIS {
        let (x, y) = if i % 10 == 0 {
            (rng.float(40.0, 60.0), rng.float(-30.0, 60.0))
        } else if i % 7 == 0 {
            (rng.float(-6.0, 0.0), rng.float(32.0, 38.0))
        } else {
            (rng.float(0.0, 28.0), rng.float(0.0, 28.0))
        };
        let batch = if i == 150 { -1.0 } else { 0.0 };
        rows.extend([batch, x, y, x + rng.float(2.0, 9.0), y + rng.float(2.0, 9.0)]);
    }
    Tensor::from_vec([ROIS, 5], rows)
}

/// Per-anchor class probabilities `[1, classes + 1, ANCHORS]` (each anchor's
/// column sums to about one), box deltas and corner-form anchors.
fn ssd_head(rng: &mut Rng) -> (Tensor, Tensor, Tensor) {
    let per = CLASSES + 1;
    let mut probs = vec![0.0; per * ANCHORS];
    for a in 0..ANCHORS {
        let raw: Vec<f32> = (0..per).map(|_| rng.float(0.0, 1.0)).collect();
        let sum: f32 = raw.iter().sum();
        for (c, p) in raw.iter().enumerate() {
            probs[c * ANCHORS + a] = p / sum;
        }
    }
    let loc = rng.tensor([1, ANCHORS * 4], -1.0, 1.0);
    let anchors = boxes(rng).as_f32().chunks(6).flat_map(|r| r[2..].to_vec()).collect();
    (
        Tensor::from_vec([1, per, ANCHORS], probs),
        loc,
        Tensor::from_vec([1, ANCHORS, 4], anchors),
    )
}

/// Yolov3's three heads at a 128² input: 4², 8² and 16² cells, three
/// anchors of 5 + 80 channels each.
const YOLO_CELLS: [usize; 3] = [4, 8, 16];

fn yolo_anchors() -> Vec<Vec<(f32, f32)>> {
    vec![
        vec![(116.0, 90.0), (156.0, 198.0), (373.0, 326.0)],
        vec![(30.0, 61.0), (62.0, 45.0), (59.0, 119.0)],
        vec![(10.0, 13.0), (16.0, 30.0), (33.0, 23.0)],
    ]
}

#[test]
fn vision_outputs_match_the_golden() {
    let mut rng = Rng::new(2019);
    let scores: Vec<f32> = (0..ANCHORS * CLASSES).map(|_| rng.float(0.0, 1.0)).collect();
    let offsets: Vec<usize> = (0..=CLASSES).map(|c| c * ANCHORS).collect();
    let (special, special_offsets) = special_scores(&mut rng);
    let boxes = boxes(&mut rng);
    let features = rng.tensor([1, 256, MAP, MAP], -1.0, 1.0);
    let rois = rois(&mut rng);
    let (probs, loc, anchors) = ssd_head(&mut rng);
    let feats: Vec<Tensor> = YOLO_CELLS
        .iter()
        .map(|&s| rng.tensor([1, 3 * 85, s, s], -3.0, 3.0))
        .collect();

    let mut actual = String::new();
    for block in [64, 256] {
        actual += &format!(
            "segmented_argsort {CLASSES}x{ANCHORS} block {block} {:016x}\n",
            ranks_digest(&segmented_argsort(&scores, &offsets, block))
        );
    }
    for block in [64, 256] {
        actual += &format!(
            "segmented_argsort special block {block} {:016x}\n",
            ranks_digest(&segmented_argsort(&special, &special_offsets, block))
        );
    }
    let cfg = NmsConfig { iou_threshold: 0.45, valid_thresh: 0.01, topk: Some(400), force_suppress: false };
    actual += &format!("box_nms {ANCHORS} {:016x}\n", tensor_digest(&box_nms(&boxes, &cfg)));
    actual += &format!(
        "roi_align {ROIS}x256x7x7 {:016x}\n",
        tensor_digest(&roi_align(&features, &rois, 7, 1.0, 2))
    );
    let mut detections = Tensor::zeros([1, ANCHORS, 6]);
    let mut scratch = vec![f32::NAN; ANCHORS * 6];
    let (p, l, a) = (probs.as_f32(), loc.as_f32(), anchors.as_f32());
    multibox_detection(p, l, a, &MultiboxConfig::default(), &mut scratch, detections.as_f32_mut());
    actual += &format!("multibox_detection {ANCHORS}x{} {:016x}\n", CLASSES + 1, tensor_digest(&detections));
    let yolo_nms = NmsConfig { iou_threshold: 0.45, valid_thresh: 0.3, topk: Some(400), force_suppress: false };
    let anchors = yolo_anchors();
    let scales = feats.iter().zip(&anchors).zip([32, 16, 8]).map(|((f, a), stride)| {
        let (_, _, h, w) = f.shape().nchw();
        YoloScale { feat: f.as_f32(), hw: (h, w), anchors: a, stride }
    });
    let cells: usize = YOLO_CELLS.iter().map(|s| 3 * s * s).sum();
    let (mut scratch, mut out) = (vec![f32::NAN; cells * 6], vec![f32::NAN; cells * 6]);
    let n = yolo_detect(scales, 80, 0.3, &yolo_nms, &mut scratch, &mut out).max(1);
    let yolo = Tensor::from_vec([1, n, 6], out[..n * 6].to_vec());
    actual += &format!("yolo_detect 3x85 4/8/16 {:016x}\n", tensor_digest(&yolo));
    assert_eq!(actual, include_str!("golden/vision.digest"));
}
