//! Spatial pooling operators.

use unigpu_device::dispatch_lanes;
use unigpu_tensor::Tensor;

fn pool2d(
    x: &Tensor,
    kernel: usize,
    stride: usize,
    pad: usize,
    init: f32,
    step: impl Fn(f32, f32) -> f32,
    finish: impl Fn(f32, usize) -> f32,
) -> Tensor {
    let (n, c, h, w) = x.shape().nchw();
    let oh = (h + 2 * pad - kernel) / stride + 1;
    let ow = (w + 2 * pad - kernel) / stride + 1;
    let xs = x.as_f32();
    let mut out = Tensor::zeros([n, c, oh, ow]);
    let o = out.as_f32_mut();
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * h * w;
            for ohi in 0..oh {
                for owi in 0..ow {
                    let mut acc = init;
                    let mut count = 0usize;
                    for kh in 0..kernel {
                        let hi = (ohi * stride + kh) as isize - pad as isize;
                        if hi < 0 || hi >= h as isize {
                            continue;
                        }
                        for kw in 0..kernel {
                            let wi = (owi * stride + kw) as isize - pad as isize;
                            if wi < 0 || wi >= w as isize {
                                continue;
                            }
                            acc = step(acc, xs[base + hi as usize * w + wi as usize]);
                            count += 1;
                        }
                    }
                    o[((ni * c + ci) * oh + ohi) * ow + owi] = finish(acc, count);
                }
            }
        }
    }
    out
}

/// Max pooling of the `NCHW` input `x` of extents `nchw` into `out`, which
/// is overwritten whole. Padding is zero-excluded: it never wins the max, and
/// the window simply shrinks at borders, matching MXNet/GluonCV semantics. A
/// window wholly in the padding gives `0.0`.
///
/// Each output is `acc = acc.max(tap)` from `-∞` over its in-bounds taps in
/// `(kh, kw)` order, as in the scalar loop, but computed a row at a time:
/// the input rows go in order, each is split by column phase (column `q`
/// of the padded row to phase `q % stride`), and then every tap `kw` reads
/// one contiguous run of a phase for a run of outputs, in vector lanes.
///
/// # Panics
/// Panics if a buffer's length disagrees with the extents.
pub fn max_pool2d_into(
    x: &[f32],
    (n, c, h, w): (usize, usize, usize, usize),
    kernel: usize,
    stride: usize,
    pad: usize,
    out: &mut [f32],
) {
    let oh = (h + 2 * pad - kernel) / stride + 1;
    let ow = (w + 2 * pad - kernel) / stride + 1;
    assert_eq!(x.len(), n * c * h * w, "max-pool input length mismatch");
    assert_eq!(
        out.len(),
        n * c * oh * ow,
        "max-pool output length mismatch"
    );
    // Output positions `lo..hi` on one axis whose tap `k` is in bounds.
    let reach = |k: usize, outs: usize, len: usize| {
        let lo = pad.saturating_sub(k).div_ceil(stride);
        (lo, (len + pad).saturating_sub(k).div_ceil(stride).min(outs).max(lo))
    };
    let mut reaches = [(0, 0); MAX_KERNEL];
    for (kw, r) in reaches.iter_mut().enumerate().take(kernel) {
        *r = reach(kw, ow, w);
    }
    // The outputs with an in-bounds tap; the others are windows wholly in
    // the padding.
    let live_rows = reach(kernel - 1, oh, h).0..reach(0, oh, h).1;
    let live_cols = reach(kernel - 1, ow, w).0..reach(0, ow, w).1;
    // Phase `b` of a split row holds padded columns `b, b + stride, …`.
    let pitch = (w + 2 * pad).div_ceil(stride);
    let splits = stride * pitch <= SPLIT_ROW;

    // One work-group per (n, c) plane; a lane splits its rows in its own buffer.
    let one_plane = |p: usize, o: &mut [f32], split: &mut [f32; SPLIT_ROW]| {
        o.fill(f32::NEG_INFINITY);
        let plane = &x[p * h * w..][..h * w];
        for (r, row) in (0..h).map(|r| (r, &plane[r * w..][..w])) {
            if splits {
                for b in 0..stride {
                    // Phase `b`'s first column inside the image.
                    let j0 = pad.saturating_sub(b).div_ceil(stride);
                    let src = row.get(b + j0 * stride - pad..).unwrap_or_default();
                    let dst = &mut split[b * pitch + j0..];
                    dst.iter_mut().zip(src.iter().step_by(stride)).for_each(|(d, &v)| *d = v);
                }
            }
            // The outputs whose window holds padded row `r + pad`, each at
            // its own kh; row `r` comes after their smaller kh's.
            let (first, last) = reach_rows(r + pad, kernel, stride, oh);
            for orow in first..last {
                let acc = &mut o[orow * ow..][..ow];
                for kw in 0..kernel {
                    let (lo, hi) = if kw < MAX_KERNEL { reaches[kw] } else { reach(kw, ow, w) };
                    let acc = &mut acc[lo..hi];
                    let max = |(a, &v): (&mut f32, &f32)| *a = a.max(v);
                    if splits {
                        acc.iter_mut().zip(&split[kw % stride * pitch + lo + kw / stride..]).for_each(max);
                    } else {
                        acc.iter_mut().zip(row[lo * stride + kw - pad..].iter().step_by(stride)).for_each(max);
                    }
                }
            }
        }
        for (orow, acc) in o.chunks_exact_mut(ow).enumerate() {
            if live_rows.contains(&orow) {
                acc[..live_cols.start].fill(0.0);
                acc[live_cols.end..].fill(0.0);
            } else {
                acc.fill(0.0);
            }
        }
    };
    let lane = |first: usize, run: &mut [f32], _: &mut [f32]| {
        let mut split = [0.0f32; SPLIT_ROW];
        for (i, o) in run.chunks_exact_mut(oh * ow).enumerate() {
            one_plane(first + i, o, &mut split);
        }
    };
    dispatch_lanes(out, oh * ow, kernel * kernel, &mut [], lane);
}

/// Floats of one input row split by column phase that `max_pool2d_into` keeps
/// on the stack; a wider row is read strided instead.
const SPLIT_ROW: usize = 1024;
/// Kernel columns whose output range `max_pool2d_into` computes once per call.
const MAX_KERNEL: usize = 16;

/// Output rows `first..last` whose window holds padded row `pr`.
fn reach_rows(pr: usize, kernel: usize, stride: usize, outs: usize) -> (usize, usize) {
    let first = (pr + 1).saturating_sub(kernel).div_ceil(stride).min(outs);
    (first, (pr / stride + 1).min(outs).max(first))
}

/// Average pooling, excluding padding from the divisor.
pub fn avg_pool2d(x: &Tensor, kernel: usize, stride: usize, pad: usize) -> Tensor {
    pool2d(x, kernel, stride, pad, 0.0, |a, v| a + v, |acc, count| {
        if count == 0 {
            0.0
        } else {
            acc / count as f32
        }
    })
}

/// Global average pooling: `NCHW → NC11`.
pub fn global_avg_pool(x: &Tensor) -> Tensor {
    let (n, c, h, w) = x.shape().nchw();
    let mut out = Tensor::zeros([n, c, 1, 1]);
    global_avg_pool_into(x.as_f32(), h * w, out.as_f32_mut());
    out
}

/// [`global_avg_pool`] of `out.len()` planes of `plane` floats each into
/// `out`.
///
/// # Panics
/// Panics if `x` does not hold `out.len()` planes.
pub fn global_avg_pool_into(x: &[f32], plane: usize, out: &mut [f32]) {
    assert_eq!(
        x.len(),
        out.len() * plane,
        "global-pool input length mismatch"
    );
    for (i, o) in out.iter_mut().enumerate() {
        let sum: f32 = x[i * plane..(i + 1) * plane].iter().sum();
        *o = sum / plane as f32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unigpu_telemetry::hash::SplitMix64;

    fn t2x2(vals: [f32; 16]) -> Tensor {
        Tensor::from_vec([1, 1, 4, 4], vals.to_vec())
    }

    fn max_pool2d(x: &Tensor, kernel: usize, stride: usize, pad: usize) -> Tensor {
        let (n, c, h, w) = x.shape().nchw();
        let oh = (h + 2 * pad - kernel) / stride + 1;
        let ow = (w + 2 * pad - kernel) / stride + 1;
        let mut out = Tensor::zeros([n, c, oh, ow]);
        max_pool2d_into(
            x.as_f32(),
            (n, c, h, w),
            kernel,
            stride,
            pad,
            out.as_f32_mut(),
        );
        out
    }

    #[test]
    fn max_pool_2x2_stride2() {
        let x = t2x2([
            1.0, 2.0, 3.0, 4.0, //
            5.0, 6.0, 7.0, 8.0, //
            9.0, 10.0, 11.0, 12.0, //
            13.0, 14.0, 15.0, 16.0,
        ]);
        let y = max_pool2d(&x, 2, 2, 0);
        assert_eq!(y.shape().dims(), &[1, 1, 2, 2]);
        assert_eq!(y.as_f32(), &[6.0, 8.0, 14.0, 16.0]);
    }

    /// The scalar loop `max_pool2d_into` must reproduce: every in-bounds tap in
    /// `(kh, kw)` order into `acc.max(tap)` from `-∞`, `0.0` for no tap.
    fn max_pool_scalar(x: &Tensor, kernel: usize, stride: usize, pad: usize) -> Tensor {
        let finish = |acc, count| if count == 0 { 0.0 } else { acc };
        pool2d(x, kernel, stride, pad, f32::NEG_INFINITY, f32::max, finish)
    }

    /// Mostly `[-1, 1)`, else ±0, subnormals, ±∞ or NaN.
    fn special(rng: &mut SplitMix64) -> f32 {
        let sign = if rng.chance(0.5) { -1.0 } else { 1.0 };
        match rng.below(10) {
            0 => sign * 0.0,
            1 => sign * f32::from_bits(1 + rng.below(0x7f_ffff) as u32),
            2 => sign * f32::INFINITY,
            3 => f32::NAN,
            _ => rng.f32_in(-1.0, 1.0),
        }
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_f32().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn max_pool_matches_the_scalar_loop_bit_for_bit() {
        let mut rng = SplitMix64::new(0x9001);
        let mut cases = 0;
        for kernel in 1..=3 {
            for stride in 1..=3 {
                for pad in 0..=2 {
                    for _ in 0..4 {
                        let (h, w) = (1 + rng.below(11), 1 + rng.below(11));
                        if h + 2 * pad < kernel || w + 2 * pad < kernel {
                            continue;
                        }
                        let shape = [1 + rng.below(2), 1 + rng.below(3), h, w];
                        let data = (0..shape.iter().product()).map(|_| special(&mut rng)).collect();
                        let x = Tensor::from_vec(shape, data);
                        let want = max_pool_scalar(&x, kernel, stride, pad);
                        let what = format!("{shape:?} k{kernel} s{stride} p{pad}");
                        assert_eq!(bits(&max_pool2d(&x, kernel, stride, pad)), bits(&want), "{what}");
                        cases += 1;
                    }
                }
            }
        }
        assert!(cases > 90, "{cases} cases");
        // ResNet's 3/2/1, SqueezeNet's 3/2/0, and rows too wide to split on
        // the stack, which are read strided; the last two are big enough
        // that the lanes split their planes
        for (shape, k, s, p) in [
            ([1, 3, 17, 17], 3, 2, 1),
            ([1, 2, 15, 16], 3, 2, 0),
            ([1, 1, 3, 2 * SPLIT_ROW + 5], 3, 2, 1),
            ([1, 1, 2, SPLIT_ROW + 1], 3, 1, 1),
            ([2, 33, 31, 31], 3, 2, 0),
            ([1, 9, 3, 2 * SPLIT_ROW + 5], 3, 2, 1),
        ] {
            let data = (0..shape.iter().product()).map(|_| special(&mut rng)).collect();
            let x = Tensor::from_vec(shape, data);
            assert_eq!(bits(&max_pool2d(&x, k, s, p)), bits(&max_pool_scalar(&x, k, s, p)));
        }
    }

    #[test]
    fn windows_wholly_in_the_padding_are_zero_and_minus_infinity_stays() {
        // k1 p2: a ring two wide of windows that hold only padding
        let x = Tensor::full([1, 1, 2, 3], f32::NEG_INFINITY);
        let y = max_pool2d(&x, 1, 1, 2);
        assert_eq!(y.shape().dims(), &[1, 1, 6, 7]);
        for (i, &v) in y.as_f32().iter().enumerate() {
            let (r, c) = (i / 7, i % 7);
            let inside = (2..4).contains(&r) && (2..5).contains(&c);
            assert_eq!(v, if inside { f32::NEG_INFINITY } else { 0.0 }, "({r}, {c})");
        }
        assert_eq!(bits(&y), bits(&max_pool_scalar(&x, 1, 1, 2)));
    }

    #[test]
    fn avg_pool_excludes_padding_from_divisor() {
        let x = Tensor::from_vec([1, 1, 2, 2], vec![4.0, 4.0, 4.0, 4.0]);
        // 3x3 window with pad 1 at corner covers 4 real cells → avg must be 4.
        let y = avg_pool2d(&x, 3, 1, 1);
        assert_eq!(y.at(&[0, 0, 0, 0]), 4.0);
    }

    #[test]
    fn max_pool_padding_never_wins() {
        let x = Tensor::from_vec([1, 1, 2, 2], vec![-5.0, -6.0, -7.0, -8.0]);
        let y = max_pool2d(&x, 3, 1, 1);
        // all values negative; zero-padding must not leak a 0 into the max
        assert_eq!(y.at(&[0, 0, 0, 0]), -5.0);
    }

    #[test]
    fn resnet_style_3x3_stride2_pad1() {
        let x = t2x2([
            1.0, 2.0, 3.0, 4.0, //
            5.0, 6.0, 7.0, 8.0, //
            9.0, 10.0, 11.0, 12.0, //
            13.0, 14.0, 15.0, 16.0,
        ]);
        let y = max_pool2d(&x, 3, 2, 1);
        assert_eq!(y.shape().dims(), &[1, 1, 2, 2]);
        assert_eq!(y.as_f32(), &[6.0, 8.0, 14.0, 16.0]);
    }

    #[test]
    fn global_avg_pool_means() {
        let x = Tensor::from_vec([1, 2, 2, 2], vec![1.0, 2.0, 3.0, 4.0, 10.0, 10.0, 10.0, 10.0]);
        let y = global_avg_pool(&x);
        assert_eq!(y.shape().dims(), &[1, 2, 1, 1]);
        assert_eq!(y.as_f32(), &[2.5, 10.0]);
    }
}
