//! Direct convolution — the functional ground truth every schedule variant
//! must reproduce exactly.
//!
//! Loop order: per `(n, oc)` output plane, the taps `(ic, kh, kw)` run
//! *outside* and the output positions `(oh, ow)` inside. The output range a
//! kernel row or column can reach is computed once per call, not tested per
//! element, so the inner loop is a branch-free, contiguous
//! `out_row[ow] += x_row[ow] * k` that LLVM vectorizes. For `stride_w > 1`
//! the input rows are first regrouped by column phase, which makes every
//! tap's reads contiguous again.
//!
//! What is preserved is the order *per output element*: each one starts at
//! `0.0` and receives its in-bounds products in `(ic_in_group, kh, kw)` order,
//! exactly as a loop with one accumulator per element would produce them.
//! Floating-point addition is not associative, so this fixed order — which
//! the spatial-pack template shares — is the only way "schedules never change
//! results" can hold bit-for-bit rather than approximately. The oracle is
//! `conv_scalar` in this file's tests (one accumulator, bounds tested per tap,
//! no loop tricks); the tests sweep kernel × stride × pad × groups × batch
//! against it with `assert_eq!` on whole tensors.

use crate::workload::ConvWorkload;
use std::borrow::Cow;
use unigpu_tensor::Tensor;

/// One kernel row (or column) against one axis of the image.
struct Tap {
    /// Output positions `lo..hi` are the ones whose tap
    /// `o * stride + k - pad` lands inside `[0, len)`; `lo == hi` when the
    /// tap is wholly in the padding.
    lo: usize,
    hi: usize,
    /// Input position read by output `lo`.
    src: usize,
}

fn taps(kernel: usize, out: usize, len: usize, stride: usize, pad: usize) -> Vec<Tap> {
    (0..kernel)
        .map(|k| {
            let lo = pad.saturating_sub(k).div_ceil(stride);
            let hi = (len + pad).saturating_sub(k).div_ceil(stride).min(out).max(lo);
            Tap { lo, hi, src: lo * stride + k - pad }
        })
        .collect()
}

/// Start of each column phase within a de-interleaved row: phase `p` holds
/// columns `p, p + stride, …`, phases laid out back to back.
fn phase_starts(width: usize, stride: usize) -> Vec<usize> {
    let mut start = 0;
    (0..stride)
        .map(|p| {
            let s = start;
            start += width.saturating_sub(p).div_ceil(stride);
            s
        })
        .collect()
}

/// Every row of `x` (rows of `width`) regrouped by column phase.
fn split_phases(x: &[f32], width: usize, stride: usize) -> Vec<f32> {
    let mut out = Vec::with_capacity(x.len());
    for row in x.chunks(width) {
        for p in 0..stride {
            out.extend(row[p.min(row.len())..].iter().step_by(stride));
        }
    }
    out
}

/// 2-d convolution over `NCHW` data with `OIHW` weights, zero padding,
/// arbitrary stride and channel groups.
///
/// # Panics
/// Panics if tensor shapes disagree with the workload.
pub fn conv2d_ref(data: &Tensor, weight: &Tensor, w: &ConvWorkload) -> Tensor {
    assert_eq!(data.shape().dims(), w.input_shape(), "input shape mismatch");
    assert_eq!(weight.shape().dims(), w.weight_shape(), "weight shape mismatch");
    let (oh, ow) = (w.out_h(), w.out_w());
    let (ih, iw) = (w.height, w.width);
    let icg = w.in_ch_per_group();
    let ocg = w.out_ch_per_group();
    let k = weight.as_f32();
    let taps_per_ic = w.kernel_h * w.kernel_w;
    let row_taps = taps(w.kernel_h, oh, ih, w.stride_h, w.pad_h);
    let mut col_taps = taps(w.kernel_w, ow, iw, w.stride_w, w.pad_w);
    // For `stride_w > 1` every input row is regrouped by column phase, so a
    // tap's reads are contiguous whatever the stride: column `q` moves to
    // `phase[q % stride_w] + q / stride_w`.
    let phase = phase_starts(iw, w.stride_w);
    for t in &mut col_taps {
        t.src = phase[t.src % w.stride_w] + t.src / w.stride_w;
    }
    let x: Cow<[f32]> = if w.stride_w == 1 {
        Cow::Borrowed(data.as_f32())
    } else {
        Cow::Owned(split_phases(data.as_f32(), iw, w.stride_w))
    };

    let mut out = Tensor::zeros(w.output_shape());
    // One (n, oc) output plane at a time: planes are disjoint.
    out.as_f32_mut()
        .chunks_mut(oh * ow)
        .enumerate()
        .for_each(|(plane, o)| {
            let n = plane / w.out_channels;
            let oc = plane % w.out_channels;
            let g = oc / ocg;
            for ic in 0..icg {
                let x_plane = &x[(n * w.in_channels + g * icg + ic) * ih * iw..][..ih * iw];
                let k_ic = &k[(oc * icg + ic) * taps_per_ic..][..taps_per_ic];
                for (rt, k_row) in row_taps.iter().zip(k_ic.chunks(w.kernel_w)) {
                    for (ct, &kv) in col_taps.iter().zip(k_row) {
                        if rt.lo == rt.hi || ct.lo == ct.hi {
                            continue;
                        }
                        // A tap valid on every column of equally wide planes
                        // (a 1x1 kernel, a padded kernel's centre column; only
                        // unit `stride_w` fits) is one contiguous run over all
                        // its rows when those are adjacent too.
                        let whole_rows = ct.hi - ct.lo == ow && ow == iw && w.stride_h == 1;
                        let (rows, run) = if whole_rows {
                            (1, (rt.hi - rt.lo) * ow)
                        } else {
                            (rt.hi - rt.lo, ct.hi - ct.lo)
                        };
                        for r in 0..rows {
                            let x_row = &x_plane[(rt.src + r * w.stride_h) * iw + ct.src..][..run];
                            let out_row = &mut o[(rt.lo + r) * ow + ct.lo..][..run];
                            for (acc, xv) in out_row.iter_mut().zip(x_row) {
                                *acc += xv * kv;
                            }
                        }
                    }
                }
            }
        });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use unigpu_tensor::init::random_uniform;
    use unigpu_tensor::Initializer;

    /// Scalar re-derivation with no loop tricks at all, for cross-checking.
    fn conv_scalar(data: &Tensor, weight: &Tensor, w: &ConvWorkload) -> Tensor {
        let mut out = Tensor::zeros(w.output_shape());
        let icg = w.in_ch_per_group();
        let ocg = w.out_ch_per_group();
        for n in 0..w.batch {
            for oc in 0..w.out_channels {
                for ohi in 0..w.out_h() {
                    for owi in 0..w.out_w() {
                        let mut acc = 0.0f32;
                        for ic in 0..icg {
                            for khi in 0..w.kernel_h {
                                for kwi in 0..w.kernel_w {
                                    let hi = ohi as isize * w.stride_h as isize + khi as isize
                                        - w.pad_h as isize;
                                    let wi = owi as isize * w.stride_w as isize + kwi as isize
                                        - w.pad_w as isize;
                                    if hi >= 0
                                        && hi < w.height as isize
                                        && wi >= 0
                                        && wi < w.width as isize
                                    {
                                        let c = (oc / ocg) * icg + ic;
                                        acc += data.at(&[n, c, hi as usize, wi as usize])
                                            * weight.at(&[oc, ic, khi, kwi]);
                                    }
                                }
                            }
                        }
                        out.set(&[n, oc, ohi, owi], acc);
                    }
                }
            }
        }
        out
    }

    #[test]
    fn matches_scalar_rederivation() {
        let w = ConvWorkload::square(2, 3, 8, 9, 3, 1, 1);
        let data = random_uniform(w.input_shape(), 1);
        let wt = random_uniform(w.weight_shape(), 2);
        assert_eq!(conv2d_ref(&data, &wt, &w), conv_scalar(&data, &wt, &w));
    }

    /// Signed data and weights, so sums cancel and the reduction order shows.
    fn assert_matches_scalar(w: &ConvWorkload, seed: u64) {
        let signed = Initializer::Uniform { lo: -1.0, hi: 1.0 };
        let data = signed.init(w.input_shape(), seed);
        let wt = signed.init(w.weight_shape(), seed + 1);
        assert_eq!(conv2d_ref(&data, &wt, w), conv_scalar(&data, &wt, w), "{w}");
    }

    #[test]
    fn kernel_stride_pad_group_sweep_is_bit_identical_to_scalar() {
        // (in, out, groups): dense, grouped, depthwise
        let channels = [(3, 4, 1), (4, 6, 2), (3, 3, 3)];
        let mut seed = 0;
        for k in [1, 3, 5, 7] {
            for s in 1..=3 {
                for p in 0..=3 {
                    for (ic, oc, groups) in channels {
                        for n in 1..=2 {
                            // 9 x 8: k = 7, s = 3, p = 0 leaves a single output pixel
                            let w = ConvWorkload {
                                height: 9,
                                width: 8,
                                groups,
                                ..ConvWorkload::square(n, ic, oc, 0, k, s, p)
                            };
                            seed += 2;
                            assert_matches_scalar(&w, seed);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn non_square_and_padding_only_taps_are_bit_identical_to_scalar() {
        let base = ConvWorkload::square(2, 4, 6, 0, 0, 0, 0);
        let shapes = [
            // (h, w, kh, kw, sh, sw, ph, pw)
            (11, 7, 3, 5, 1, 2, 2, 0), // everything differs by axis
            (6, 13, 5, 1, 3, 1, 0, 2),
            (10, 10, 1, 7, 2, 3, 0, 3),
            (5, 5, 1, 1, 1, 1, 3, 2),  // pad >= kernel: border outputs see no tap
            (4, 6, 3, 3, 1, 2, 3, 3),
            (2, 2, 3, 3, 4, 4, 3, 3),  // kernel row 1 reads rows -2 and 2 only: no valid output
            (1, 1, 7, 7, 1, 1, 3, 3),  // kernel rows 5, 6 start past the image: usize underflow trap
            (1, 3, 3, 5, 2, 3, 1, 1),  // one output pixel
            (7, 7, 7, 7, 2, 2, 0, 0),
        ];
        for (i, (h, wd, kh, kw, sh, sw, ph, pw)) in shapes.into_iter().enumerate() {
            for groups in [1, 2] {
                let w = ConvWorkload {
                    height: h,
                    width: wd,
                    kernel_h: kh,
                    kernel_w: kw,
                    stride_h: sh,
                    stride_w: sw,
                    pad_h: ph,
                    pad_w: pw,
                    groups,
                    ..base
                };
                assert_matches_scalar(&w, 1000 + i as u64);
            }
        }
    }

    #[test]
    fn non_finite_inputs_propagate_like_scalar() {
        // Taps in the padding are skipped, never multiplied by zero: an
        // infinity stays an infinity and makes no NaN.
        let w = ConvWorkload::square(1, 2, 2, 5, 3, 2, 1);
        let mut data = random_uniform(w.input_shape(), 9);
        data.set(&[0, 1, 2, 2], f32::INFINITY);
        data.set(&[0, 0, 4, 0], f32::NAN);
        let wt = random_uniform(w.weight_shape(), 10);
        let (got, want) = (conv2d_ref(&data, &wt, &w), conv_scalar(&data, &wt, &w));
        let bits = |t: &Tensor| t.as_f32().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn identity_kernel_is_identity() {
        // 1x1 kernel with identity channel mixing copies the input.
        let w = ConvWorkload::square(1, 3, 3, 5, 1, 1, 0);
        let data = random_uniform(w.input_shape(), 5);
        let mut wt = Tensor::zeros(w.weight_shape());
        for c in 0..3 {
            wt.set(&[c, c, 0, 0], 1.0);
        }
        assert_eq!(conv2d_ref(&data, &wt, &w), data);
    }

    #[test]
    fn grouped_conv_blocks_cross_group_flow() {
        // 2 groups: output group 0 must ignore input channels of group 1.
        let mut w = ConvWorkload::square(1, 4, 4, 4, 1, 1, 0);
        w.groups = 2;
        let mut data = Tensor::zeros(w.input_shape());
        // put energy only in input channel 3 (group 1)
        for h in 0..4 {
            for x in 0..4 {
                data.set(&[0, 3, h, x], 1.0);
            }
        }
        let wt = Tensor::full(w.weight_shape(), 1.0);
        let out = conv2d_ref(&data, &wt, &w);
        // output channels 0,1 (group 0) see nothing
        for oc in 0..2 {
            for h in 0..4 {
                for x in 0..4 {
                    assert_eq!(out.at(&[0, oc, h, x]), 0.0);
                }
            }
        }
        // output channels 2,3 (group 1) see channel 3
        assert_eq!(out.at(&[0, 2, 0, 0]), 1.0);
    }

    #[test]
    fn depthwise_is_per_channel() {
        let w = ConvWorkload::depthwise(1, 3, 6, 3, 1, 1);
        let data = random_uniform(w.input_shape(), 7);
        let wt = random_uniform(w.weight_shape(), 8);
        let out = conv2d_ref(&data, &wt, &w);
        assert_eq!(out, conv_scalar(&data, &wt, &w));
    }
}
