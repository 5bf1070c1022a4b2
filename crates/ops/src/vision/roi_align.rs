//! `ROIAlign` — bilinear region-of-interest pooling (§2.2/§3.1.1 lists it
//! among the vision-specific operators vendor libraries run suboptimally).
//!
//! Channels are the innermost loop: the features are transposed to `NHWC`
//! once per call, so a sample's four taps are four contiguous channel rows
//! and one bin is accumulated for every channel at once; an ROI's bin sums
//! are then written out one channel row at a time. Each channel still
//! receives exactly the per-channel arithmetic — the same bilinear
//! expression, its samples added in `(sy, sx)` order from `0.0`, one
//! division — so the output bits do not depend on the loop order.

use unigpu_tensor::layout::nchw_to_nhwc;
use unigpu_tensor::Tensor;

/// One bilinear sample of an `h × w` map: the pixel offsets of its four taps
/// `(v00, v01, v10, v11)` and the weights `(1-ly, 1-lx, ly, lx)`. It depends
/// on the ROI geometry only, so every channel shares it.
struct Sample {
    taps: [usize; 4],
    hy: f32,
    hx: f32,
    ly: f32,
    lx: f32,
}

impl Sample {
    /// The sample at fractional `(y, x)`; `None` outside the map, where the
    /// sample is zero whatever the features hold (Detectron semantics).
    fn at(h: usize, w: usize, y: f32, x: f32) -> Option<Sample> {
        if y < -1.0 || y > h as f32 || x < -1.0 || x > w as f32 {
            return None;
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
        Some(Sample {
            taps: [y0 * w + x0, y0 * w + x1, y1 * w + x0, y1 * w + x1],
            hy: 1.0 - ly,
            hx: 1.0 - lx,
            ly,
            lx,
        })
    }

    /// Add this sample to every channel's accumulator; `pixels` is one image
    /// in `HWC` order with `acc.len()` channels.
    fn accumulate(&self, pixels: &[f32], acc: &mut [f32]) {
        let c = acc.len();
        let [r00, r01, r10, r11] = self.taps.map(|t| &pixels[t * c..][..c]);
        let Sample { hy, hx, ly, lx, .. } = *self;
        let taps = r00.iter().zip(r01).zip(r10).zip(r11);
        for (a, (((&v00, &v01), &v10), &v11)) in acc.iter_mut().zip(taps) {
            *a += v00 * hy * hx + v01 * hy * lx + v10 * ly * hx + v11 * ly * lx;
        }
    }
}

/// ROIAlign.
///
/// * `features`: `[n, c, h, w]`;
/// * `rois`: `[r, 5]` rows `(batch_index, x1, y1, x2, y2)` in feature-map
///   coordinates after `spatial_scale` is applied; a negative batch index
///   (MXNet's `-1` padding marker) yields an all-zero output row;
/// * output: `[r, c, pooled, pooled]`, each bin averaging
///   `sampling_ratio × sampling_ratio` bilinear samples.
///
/// # Panics
/// Panics on a non-finite or out-of-range batch index.
pub fn roi_align(
    features: &Tensor,
    rois: &Tensor,
    pooled: usize,
    spatial_scale: f32,
    sampling_ratio: usize,
) -> Tensor {
    let (n, c, h, w) = features.shape().nchw();
    let rdims = rois.shape().dims();
    assert_eq!(rdims.len(), 2, "rois must be [r, 5]");
    assert_eq!(rdims[1], 5, "roi rows are (batch, x1, y1, x2, y2)");
    assert!(sampling_ratio >= 1);
    let r = rdims[0];
    let nhwc = nchw_to_nhwc(features);
    let rr = rois.as_f32();
    let mut out = Tensor::zeros([r, c, pooled, pooled]);
    let o = out.as_f32_mut();
    let bins = pooled * pooled;
    let per_bin = sampling_ratio * sampling_ratio;
    // one ROI's sums, bin-major: a bin's channels are contiguous
    let mut sums = vec![0.0f32; bins * c];

    for ri in 0..r {
        let batch = rr[ri * 5];
        assert!(batch.is_finite(), "roi {ri} batch index {batch} is not finite");
        if batch < 0.0 {
            continue;
        }
        let b = batch as usize;
        assert!(b < n, "roi batch index {b} out of range");
        let x1 = rr[ri * 5 + 1] * spatial_scale;
        let y1 = rr[ri * 5 + 2] * spatial_scale;
        let x2 = rr[ri * 5 + 3] * spatial_scale;
        let y2 = rr[ri * 5 + 4] * spatial_scale;
        let rw = (x2 - x1).max(1.0);
        let rh = (y2 - y1).max(1.0);
        let bin_w = rw / pooled as f32;
        let bin_h = rh / pooled as f32;
        let pixels = &nhwc.as_f32()[b * h * w * c..][..h * w * c];
        sums.fill(0.0);
        for py in 0..pooled {
            for px in 0..pooled {
                let acc = &mut sums[(py * pooled + px) * c..][..c];
                for sy in 0..sampling_ratio {
                    let yy = y1
                        + py as f32 * bin_h
                        + (sy as f32 + 0.5) * bin_h / sampling_ratio as f32;
                    for sx in 0..sampling_ratio {
                        let xx = x1
                            + px as f32 * bin_w
                            + (sx as f32 + 0.5) * bin_w / sampling_ratio as f32;
                        match Sample::at(h, w, yy, xx) {
                            Some(s) => s.accumulate(pixels, acc),
                            // Off the map the sample is zero and reads
                            // nothing; adding it keeps each channel's
                            // sequence of additions the per-channel one.
                            None => acc.iter_mut().for_each(|a| *a += 0.0),
                        }
                    }
                }
            }
        }
        // Channel-major out, one contiguous row of bins per channel: the
        // strided reads stay within `sums`, which fits in cache.
        let out_roi = &mut o[ri * c * bins..][..c * bins];
        for ci in 0..c {
            for (bin, slot) in out_roi[ci * bins..][..bins].iter_mut().enumerate() {
                *slot = sums[bin * c + ci] / per_bin as f32;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_features_pool_to_constant() {
        let feat = Tensor::full([1, 2, 8, 8], 3.5);
        let rois = Tensor::from_vec([1, 5], vec![0.0, 1.0, 1.0, 6.0, 6.0]);
        let y = roi_align(&feat, &rois, 2, 1.0, 2);
        assert!(y.as_f32().iter().all(|&v| (v - 3.5).abs() < 1e-6));
    }

    #[test]
    fn linear_ramp_pools_to_exact_means() {
        // f(y,x) = x: bilinear interp of a linear function is exact.
        let mut feat = Tensor::zeros([1, 1, 8, 8]);
        for y in 0..8 {
            for x in 0..8 {
                feat.set(&[0, 0, y, x], x as f32);
            }
        }
        let rois = Tensor::from_vec([1, 5], vec![0.0, 0.0, 0.0, 4.0, 4.0]);
        let out = roi_align(&feat, &rois, 2, 1.0, 2);
        // bin (·,0) covers x∈[0,2): samples at 0.5, 1.5 → mean 1.0
        assert!((out.at(&[0, 0, 0, 0]) - 1.0).abs() < 1e-5);
        // bin (·,1) covers x∈[2,4): samples at 2.5, 3.5 → mean 3.0
        assert!((out.at(&[0, 0, 0, 1]) - 3.0).abs() < 1e-5);
    }

    #[test]
    fn spatial_scale_rescales_rois() {
        let feat = Tensor::full([1, 1, 4, 4], 1.0);
        // roi in image coords 0..32 with scale 1/8 → feature coords 0..4
        let rois = Tensor::from_vec([1, 5], vec![0.0, 0.0, 0.0, 32.0, 32.0]);
        let y = roi_align(&feat, &rois, 2, 0.125, 1);
        assert!(y.as_f32().iter().all(|&v| (v - 1.0).abs() < 1e-6));
    }

    #[test]
    fn batch_index_selects_image() {
        let mut feat = Tensor::zeros([2, 1, 2, 2]);
        for y in 0..2 {
            for x in 0..2 {
                feat.set(&[1, 0, y, x], 9.0);
            }
        }
        let rois = Tensor::from_vec([2, 5], vec![
            0.0, 0.0, 0.0, 2.0, 2.0, //
            1.0, 0.0, 0.0, 2.0, 2.0,
        ]);
        let y = roi_align(&feat, &rois, 1, 1.0, 1);
        assert_eq!(y.at(&[0, 0, 0, 0]), 0.0);
        assert_eq!(y.at(&[1, 0, 0, 0]), 9.0);
    }

    #[test]
    fn negative_batch_index_marks_a_padding_roi() {
        // MXNet pads ROI lists with batch index -1: such a row pools nothing,
        // it must not fall through to image 0.
        let feat = Tensor::full([1, 2, 4, 4], 7.0);
        let rois = Tensor::from_vec([2, 5], vec![
            -1.0, 0.0, 0.0, 4.0, 4.0, //
            0.0, 0.0, 0.0, 4.0, 4.0,
        ]);
        let y = roi_align(&feat, &rois, 2, 1.0, 2);
        let (padding, real) = y.as_f32().split_at(2 * 2 * 2);
        assert!(padding.iter().all(|&v| v == 0.0));
        assert!(real.iter().all(|&v| v == 7.0));
    }

    #[test]
    #[should_panic(expected = "roi 1 batch index NaN is not finite")]
    fn non_finite_batch_index_panics() {
        let feat = Tensor::full([1, 1, 4, 4], 1.0);
        let rois = Tensor::from_vec([2, 5], vec![
            0.0, 0.0, 0.0, 4.0, 4.0, //
            f32::NAN, 0.0, 0.0, 4.0, 4.0,
        ]);
        roi_align(&feat, &rois, 2, 1.0, 1);
    }

    #[test]
    fn out_of_map_samples_are_zero() {
        let feat = Tensor::full([1, 1, 4, 4], 2.0);
        // roi far outside the map
        let rois = Tensor::from_vec([1, 5], vec![0.0, 100.0, 100.0, 108.0, 108.0]);
        let y = roi_align(&feat, &rois, 2, 1.0, 1);
        assert!(y.as_f32().iter().all(|&v| v == 0.0));
    }
}
