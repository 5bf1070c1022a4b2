//! Direct convolution — the functional ground truth every schedule variant
//! must reproduce exactly.
//!
//! What is fixed is the order *per output element*: each one starts at
//! `+0.0` and receives its products in `(ic_in_group, kh, kw)` order, exactly
//! as a loop with one accumulator per element would produce them.
//! Floating-point addition is not associative, so this fixed order — which
//! the spatial-pack template shares — is the only way "schedules never change
//! results" can hold bit-for-bit rather than approximately. The oracle is
//! `conv_scalar` in this file's tests (one accumulator, bounds tested per tap,
//! no loop tricks); the tests sweep kernel × stride × pad × groups × batch
//! against it with `assert_eq!` on whole tensors.
//!
//! Two loop orders keep that order.
//!
//! * **Register tiles**, for ungrouped convolutions with finite weights. The
//!   input is copied once into zero-padded planes, split by stride phase, so
//!   that every tap of every output is in bounds (a unit-stride unpadded
//!   input, every 1×1 conv's, is read in place). Output `(oh, ow)` sits at
//!   flat position `oh * pitch + ow` of a plane, and tap `(kh, kw)` reads the
//!   padded input at that position plus a fixed offset: a tap's reads for a
//!   run of outputs are one contiguous run, across row ends. An `OB × V`
//!   block of accumulators (output channels × flat positions) stays in
//!   registers for the whole `(ic, kh, kw)` reduction and is stored once;
//!   the `pitch - ow` junk columns of each row are computed and dropped.
//!   Each of the `OB` output channels reads its `OIHW` weight row in place,
//!   so nothing about the weights is copied or re-derived per call except
//!   their finiteness, and [`conv2d_prechecked`] takes that as known.
//! * **Plane taps**, for everything else. Per `(n, oc)` output plane the taps
//!   `(ic, kh, kw)` run outside and the output positions inside, over the
//!   output range each kernel row and column can reach, so the inner loop is
//!   a branch-free `out_row[ow] += x_row[ow] * k` that LLVM vectorizes. For
//!   `stride_w > 1` the input rows are first regrouped by column phase, which
//!   makes every tap's reads contiguous again.

use crate::workload::ConvWorkload;
use unigpu_tensor::Tensor;

/// Output channels per register tile.
const OB: usize = 2;
/// Flat output positions per register tile (four 128-bit vectors).
const V: usize = 16;
/// Output channels whose tiles sweep a plane together (a multiple of `OB`),
/// so their weights stay in cache however wide the conv.
const OC_CHUNK: usize = 32;
/// Most taps (`kernel_h * kernel_w`) a register tile takes: their offsets
/// live in a stack array.
const MAX_TAPS: usize = 128;

/// 2-d convolution over `NCHW` data with `OIHW` weights, zero padding,
/// arbitrary stride and channel groups.
///
/// # Panics
/// Panics if tensor shapes disagree with the workload.
pub fn conv2d_ref(data: &Tensor, weight: &Tensor, w: &ConvWorkload) -> Tensor {
    conv2d_prechecked(data, weight, all_finite(weight.as_f32()), w)
}

/// [`conv2d_ref`] for a caller that keeps its weights and so knows
/// `finite == all_finite(weight)` already: a compiled model checks each
/// constant once, not on every call. Same bits as `conv2d_ref`.
///
/// # Panics
/// Panics if tensor shapes disagree with the workload.
pub fn conv2d_prechecked(data: &Tensor, weight: &Tensor, finite: bool, w: &ConvWorkload) -> Tensor {
    assert_eq!(data.shape().dims(), w.input_shape(), "input shape mismatch");
    assert_eq!(weight.shape().dims(), w.weight_shape(), "weight shape mismatch");
    let mut out = Tensor::zeros(w.output_shape());
    let mut scratch = vec![0.0f32; conv2d_scratch_len(w, finite)];
    conv2d_prechecked_into(
        data.as_f32(),
        weight.as_f32(),
        finite,
        w,
        &mut scratch,
        out.as_f32_mut(),
    );
    out
}

/// [`conv2d_prechecked`] into a caller's buffers: `x` and `k` are the `NCHW`
/// input and `OIHW` weights, `out` receives the `NCHW` output, and `scratch`
/// (at least [`conv2d_scratch_len`] floats) holds the padded or
/// phase-split input copy. Neither buffer needs to be zero: `out` is
/// overwritten whole and `scratch`'s padding is zeroed here.
///
/// # Panics
/// Panics if a buffer's length disagrees with the workload.
pub fn conv2d_prechecked_into(
    x: &[f32],
    k: &[f32],
    finite: bool,
    w: &ConvWorkload,
    scratch: &mut [f32],
    out: &mut [f32],
) {
    let numel = |shape: [usize; 4]| shape.iter().product::<usize>();
    assert_eq!(x.len(), numel(w.input_shape()), "input length mismatch");
    assert_eq!(k.len(), numel(w.weight_shape()), "weight length mismatch");
    assert_eq!(out.len(), numel(w.output_shape()), "output length mismatch");
    let scratch = &mut scratch[..conv2d_scratch_len(w, finite)];
    debug_assert_eq!(finite, all_finite(k), "wrong finiteness for the weights");
    if takes_register_tiles(w, finite) {
        register_tiles(x, k, w, scratch, out);
    } else {
        out.fill(0.0);
        plane_taps(x, k, w, scratch, out);
    }
}

/// Floats of scratch [`conv2d_prechecked_into`] needs for `w` with weights
/// that are all finite or not: the register tiles' padded input, or the plane
/// taps' phase-split rows for `stride_w > 1`. Zero when the input is read in
/// place.
pub fn conv2d_scratch_len(w: &ConvWorkload, finite: bool) -> usize {
    let input = w.batch * w.in_channels;
    if !takes_register_tiles(w, finite) {
        return if w.stride_w > 1 {
            input * w.height * w.width
        } else {
            0
        };
    }
    if reads_input_in_place(w) {
        0
    } else {
        // The padded input plus `V + pad_w` zeros: a plane shorter than one
        // tile reads past its end, and so does the last row's right padding.
        input * Padded::new(w).channel + V + w.pad_w
    }
}

/// Whether no value is infinite or NaN. A fold without an early exit, so it
/// runs at vector speed.
pub fn all_finite(values: &[f32]) -> bool {
    values.iter().fold(true, |all, v| all & v.is_finite())
}

/// Whether the register tiles compute `w`, with weights that are all finite
/// or not.
///
/// A register tile adds a product for every tap, also where the tap lands in
/// the zero padding and the plane taps (and the scalar oracle) add nothing.
/// Those extra terms are `0 · k`, which is `±0` for every finite `k`. Under
/// round-to-nearest an accumulator that starts at `+0.0` never becomes
/// `−0.0`: a sum is `−0` only when both terms are (`+0 + −0 = +0`, and an
/// exact cancellation `x + (−x)` gives `+0`). Adding `±0` to it therefore
/// leaves it unchanged bit for bit: `+0` stays `+0`, and any other non-NaN
/// value, infinities included, is its own sum with zero. A NaN stays a NaN,
/// though its sign and payload are unspecified in Rust either way. An
/// infinite or NaN weight would make an extra term `0 · ∞ = NaN`, so such
/// weights take the plane taps.
fn takes_register_tiles(w: &ConvWorkload, finite: bool) -> bool {
    w.groups == 1 && w.kernel_h * w.kernel_w <= MAX_TAPS && finite
}

/// The register tiles' input layout: per image and input channel,
/// `stride_h * stride_w` phase planes of `rows × pitch`, back to back. Phase
/// `(a, b)` holds the zero-padded input's rows `a, a + stride_h, …` and
/// columns `b, b + stride_w, …`, so the padded position of output
/// `(oh, ow)`'s tap `(kh, kw)` is the tap's offset plus `oh * pitch + ow`.
/// At unit `stride_w` a row's right padding is the next row's left padding:
/// each row holds `pad_w` zeros and then the image row, and a tap past the
/// row's end reads the zeros that start the next row (or, after the last
/// row, `pad_w` more). A row has `pad_w` fewer junk columns that way.
struct Padded {
    rows: usize,
    pitch: usize,
    /// Floats per input channel.
    channel: usize,
}

impl Padded {
    fn new(w: &ConvWorkload) -> Self {
        let rows = (w.height + 2 * w.pad_h).div_ceil(w.stride_h);
        let pitch = match w.stride_w {
            // no narrower than an output row, which `pad_w >= kernel_w` makes wider
            1 => (w.width + w.pad_w).max(w.out_w()),
            s => (w.width + 2 * w.pad_w).div_ceil(s),
        };
        Padded { rows, pitch, channel: w.stride_h * w.stride_w * rows * pitch }
    }

    /// Offset within a channel of the padded input's row `r`, column `c`.
    fn at(&self, r: usize, c: usize, w: &ConvWorkload) -> usize {
        let phase = (r % w.stride_h) * w.stride_w + c % w.stride_w;
        phase * self.rows * self.pitch + r / w.stride_h * self.pitch + c / w.stride_w
    }

    /// Copies `x` (`NCHW`) into `dst`, whose padding is already zero.
    fn fill(&self, x: &[f32], w: &ConvWorkload, dst: &mut [f32]) {
        let planes = x.chunks_exact(w.height * w.width);
        for (src, dst) in planes.zip(dst.chunks_exact_mut(self.channel)) {
            for (r, row) in src.chunks_exact(w.width).enumerate() {
                // Columns `c0, c0 + stride_w, …` land side by side in one phase.
                for c0 in 0..w.stride_w.min(w.width) {
                    let to = &mut dst[self.at(r + w.pad_h, c0 + w.pad_w, w)..];
                    for (d, &v) in to.iter_mut().zip(row[c0..].iter().step_by(w.stride_w)) {
                        *d = v;
                    }
                }
            }
        }
    }
}

/// Whether the register tiles read `x` as its own padded plane: unit stride
/// and no padding, with a plane no shorter than one tile.
fn reads_input_in_place(w: &ConvWorkload) -> bool {
    let len = (w.out_h() - 1) * Padded::new(w).pitch + w.out_w();
    (w.stride_h, w.stride_w, w.pad_h, w.pad_w) == (1, 1, 0, 0) && len >= V
}

/// Register-tiled convolution of an ungrouped workload into `out`, with the
/// padded input in `scratch` unless it is read in place.
fn register_tiles(x: &[f32], k: &[f32], w: &ConvWorkload, scratch: &mut [f32], out: &mut [f32]) {
    let pd = Padded::new(w);
    let (oh, ow) = (w.out_h(), w.out_w());
    let plane = oh * ow;
    let taps = w.kernel_h * w.kernel_w;
    let per_oc = w.in_channels * taps;
    // Flat positions `0..len` of a plane cover every output.
    let len = (oh - 1) * pd.pitch + ow;
    let x = if reads_input_in_place(w) {
        x
    } else {
        scratch.fill(0.0);
        pd.fill(x, w, scratch);
        &*scratch
    };

    let mut offsets = [0; MAX_TAPS];
    for (t, off) in offsets[..taps].iter_mut().enumerate() {
        *off = pd.at(t / w.kernel_w, t % w.kernel_w, w);
    }
    let offsets = &offsets[..taps];
    debug_assert_eq!(offsets[0], 0, "the first tap reads the plane's start");

    for (chunk, k_chunk) in k.chunks(OC_CHUNK * per_oc).enumerate() {
        let channels = k_chunk.len() / per_oc;
        for n in 0..w.batch {
            let x_n = &x[n * w.in_channels * pd.channel..];
            let out_n = &mut out[(n * w.out_channels + chunk * OC_CHUNK) * plane..][..channels * plane];
            for start in (0..len).step_by(V) {
                // A plane's last tile ends at `len`, recomputing part of the
                // one before (to the same bits); a plane shorter than a tile
                // keeps `len` of its `V` positions.
                let p0 = start.min(len.saturating_sub(V));
                let (row, col) = (p0 / pd.pitch, p0 % pd.pitch);
                let count = V.min(len - p0);
                let tiles = k_chunk.chunks(OB * per_oc).zip(out_n.chunks_mut(OB * plane));
                for (k_tile, out_tile) in tiles {
                    // An odd last channel is computed twice; its copy is dropped.
                    let ks = std::array::from_fn(|ob| {
                        let ob = ob.min(k_tile.len() / per_oc - 1);
                        &k_tile[ob * per_oc..][..per_oc]
                    });
                    let acc = if taps == 1 {
                        tile_1x1(x_n, ks, pd.channel, p0)
                    } else {
                        tile(x_n, ks, offsets, pd.channel, p0)
                    };
                    for (acc, o) in acc.iter().zip(out_tile.chunks_exact_mut(plane)) {
                        store(&acc[..count], o, row, col, pd.pitch, ow);
                    }
                }
            }
        }
    }
}

/// One register tile: the `OB` output channels whose `[ic][kh][kw]` weights
/// are `ks`, at flat positions `p0..p0 + V`, summed over `(ic, kh, kw)`.
fn tile(x: &[f32], ks: [&[f32]; OB], offsets: &[usize], channel: usize, p0: usize) -> [[f32; V]; OB] {
    let mut acc = [[0.0f32; V]; OB];
    let taps = offsets.len();
    let [k0, k1] = ks;
    for (ic, (k0, k1)) in k0.chunks_exact(taps).zip(k1.chunks_exact(taps)).enumerate() {
        let x_ic = &x[ic * channel + p0..];
        for ((&off, &k0), &k1) in offsets.iter().zip(k0).zip(k1) {
            let xs = &x_ic[off..][..V];
            for (a, kv) in acc.iter_mut().zip([k0, k1]) {
                // A splat keeps each weight in one broadcast register.
                let kv = [kv; V];
                for v in 0..V {
                    a[v] += xs[v] * kv[v];
                }
            }
        }
    }
    acc
}

/// [`tile`] for a single tap, whose offset is 0: input channel `ic` is one
/// run of `x` with weights `k0[ic]` and `k1[ic]`, in the same `ic` order.
fn tile_1x1(x: &[f32], [k0, k1]: [&[f32]; OB], channel: usize, p0: usize) -> [[f32; V]; OB] {
    let mut acc = [[0.0f32; V]; OB];
    for (ic, (&k0, &k1)) in k0.iter().zip(k1).enumerate() {
        let xs = &x[ic * channel + p0..][..V];
        for (a, kv) in acc.iter_mut().zip([k0, k1]) {
            let kv = [kv; V];
            for v in 0..V {
                a[v] += xs[v] * kv[v];
            }
        }
    }
    acc
}

/// Stores `acc`, flat positions from `(row, col)` on at `pitch`, into an
/// output plane `ow` wide, dropping the junk columns `ow..pitch`.
fn store(acc: &[f32], o: &mut [f32], mut row: usize, mut col: usize, pitch: usize, ow: usize) {
    let mut i = 0;
    while i < acc.len() {
        let run = (pitch - col).min(acc.len() - i);
        if col < ow {
            let keep = run.min(ow - col);
            o[row * ow + col..][..keep].copy_from_slice(&acc[i..i + keep]);
        }
        i += run;
        row += 1;
        col = 0;
    }
}

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

impl Tap {
    fn new(k: usize, out: usize, len: usize, stride: usize, pad: usize) -> Tap {
        let lo = pad.saturating_sub(k).div_ceil(stride);
        let hi = (len + pad).saturating_sub(k).div_ceil(stride).min(out).max(lo);
        Tap { lo, hi, src: lo * stride + k - pad }
    }
}

/// Every row of `x` (rows of `width`) regrouped by column phase into `out`:
/// phase `p` holds columns `p, p + stride, …`, phases laid out back to back.
fn split_phases(x: &[f32], width: usize, stride: usize, out: &mut [f32]) {
    let mut to = out.iter_mut();
    for row in x.chunks(width) {
        for p in 0..stride {
            for &v in row[p.min(row.len())..].iter().step_by(stride) {
                *to.next().expect("scratch holds every input value") = v;
            }
        }
    }
}

/// Plane-tap convolution of any workload into `out`, which starts at zero;
/// for `stride_w > 1` the phase-split input goes to `scratch`.
fn plane_taps(x: &[f32], k: &[f32], w: &ConvWorkload, scratch: &mut [f32], out: &mut [f32]) {
    let (oh, ow) = (w.out_h(), w.out_w());
    let (ih, iw) = (w.height, w.width);
    let icg = w.in_ch_per_group();
    let ocg = w.out_ch_per_group();
    let sw = w.stride_w;
    let taps_per_ic = w.kernel_h * w.kernel_w;
    // For `stride_w > 1` every input row is regrouped by column phase, so a
    // tap's reads are contiguous whatever the stride. Phase `p` holds
    // `ceil((iw - p) / sw)` columns, so column `q` moves to
    // `p * (iw / sw) + min(p, iw % sw) + q / sw` with `p = q % sw`.
    let x = if sw == 1 {
        x
    } else {
        split_phases(x, iw, sw, scratch);
        &*scratch
    };

    // One (n, oc) output plane at a time: planes are disjoint.
    out.chunks_mut(oh * ow).enumerate().for_each(|(plane, o)| {
        let n = plane / w.out_channels;
        let oc = plane % w.out_channels;
        let g = oc / ocg;
        for ic in 0..icg {
            let x_plane = &x[(n * w.in_channels + g * icg + ic) * ih * iw..][..ih * iw];
            let k_ic = &k[(oc * icg + ic) * taps_per_ic..][..taps_per_ic];
            for (kh, k_row) in k_ic.chunks(w.kernel_w).enumerate() {
                let rt = Tap::new(kh, oh, ih, w.stride_h, w.pad_h);
                if rt.lo == rt.hi {
                    continue;
                }
                for (kw, &kv) in k_row.iter().enumerate() {
                    let ct = Tap::new(kw, ow, iw, sw, w.pad_w);
                    if ct.lo == ct.hi {
                        continue;
                    }
                    let phase = ct.src % sw;
                    let src = phase * (iw / sw) + phase.min(iw % sw) + ct.src / sw;
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
                        let x_row = &x_plane[(rt.src + r * w.stride_h) * iw + src..][..run];
                        let out_row = &mut o[(rt.lo + r) * ow + ct.lo..][..run];
                        for (acc, xv) in out_row.iter_mut().zip(x_row) {
                            *acc += xv * kv;
                        }
                    }
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use unigpu_telemetry::hash::SplitMix64;
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
    /// Both entry points: the per-call check and the caller's known flag.
    fn assert_matches_scalar(w: &ConvWorkload, seed: u64) {
        let signed = Initializer::Uniform { lo: -1.0, hi: 1.0 };
        let data = signed.init(w.input_shape(), seed);
        let wt = signed.init(w.weight_shape(), seed + 1);
        let want = conv_scalar(&data, &wt, w);
        assert_eq!(conv2d_ref(&data, &wt, w), want, "{w}");
        assert_eq!(conv2d_prechecked(&data, &wt, true, w), want, "{w}, prechecked");
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

    /// A value drawn mostly from `[-1, 1)`, else from the specials: for data
    /// also NaN, ±∞ and ±f32::MAX-scale, for weights only finite ones.
    fn special(rng: &mut SplitMix64, finite: bool) -> f32 {
        let sign = if rng.chance(0.5) { -1.0 } else { 1.0 };
        match rng.below(100) {
            0..=5 => sign * 0.0,
            6..=10 => sign * f32::from_bits(1 + rng.below(0x7f_ffff) as u32), // subnormal
            11..=12 => sign * f32::MAX * rng.f32_in(0.5, 1.0),
            13 if !finite => sign * f32::INFINITY,
            14 if !finite => f32::NAN,
            _ => rng.f32_in(-1.0, 1.0),
        }
    }

    /// Equal bits wherever the oracle is not NaN, NaN wherever it is. A NaN's
    /// sign and payload depend on operand order, which Rust leaves open.
    fn assert_same_bits_and_nans(got: &Tensor, want: &Tensor, what: &str) {
        assert_eq!(got.shape(), want.shape(), "{what}");
        for (i, (g, v)) in got.as_f32().iter().zip(want.as_f32()).enumerate() {
            if v.is_nan() {
                assert!(g.is_nan(), "{what}: element {i} is {g}, scalar NaN");
            } else {
                assert_eq!(g.to_bits(), v.to_bits(), "{what}: element {i} is {g}, scalar {v}");
            }
        }
    }

    #[test]
    fn register_tiles_match_scalar_on_special_values() {
        // (batch, ic, oc, h, w, kh, kw, stride, pad) kept on purpose; the
        // seeded shapes below add breadth.
        let fixed = [
            (1, 3, 5, 31, 31, 3, 3, 1, 1),   // 31 rows at pitch 33: 1021 = 63 tiles + 13
            (2, 4, 3, 9, 8, 3, 3, 1, 1),     // odd out_channels: one dropped tile channel
            (1, 2, 2, 5, 5, 1, 1, 1, 3),     // pad >= kernel: border outputs see no tap
            (1, 3, 2, 4, 6, 3, 3, 2, 3),     // pad >= kernel, strided
            (1, 2, 3, 1, 1, 7, 7, 1, 3),     // one output pixel, 6 of 7 rows in the padding
            (2, 3, 2, 1, 3, 3, 5, 2, 1),     // one output pixel, strided
            (1, 3, 4, 16, 16, 7, 7, 2, 3),   // conv1's shape class
            (1, 5, 4, 7, 7, 1, 1, 1, 0),     // 1x1 on a 49-position plane: borrowed input
            (2, 4, 2, 4, 4, 1, 1, 1, 0),     // 1x1 shorter than one tile: copied input
            (1, 2, 2, 10, 10, 1, 1, 2, 0),   // 1x1, stride 2
            (2, 2, 37, 6, 6, 3, 3, 1, 1),    // two weight chunks, the last one odd
        ];
        let mut rng = SplitMix64::new(0x5eed);
        let mut shapes: Vec<_> = fixed.to_vec();
        while shapes.len() < 200 {
            let (kh, kw) = (1 + rng.below(5), 1 + rng.below(5));
            let (s, p) = (1 + rng.below(3), rng.below(5));
            let (h, wd) = (1 + rng.below(12), 1 + rng.below(12));
            if h + 2 * p >= kh && wd + 2 * p >= kw {
                shapes.push((1 + rng.below(2), 1 + rng.below(5), 1 + rng.below(5), h, wd, kh, kw, s, p));
            }
        }
        for (case, &(n, ic, oc, h, wd, kh, kw, s, p)) in shapes.iter().enumerate() {
            let w = ConvWorkload {
                height: h,
                width: wd,
                kernel_h: kh,
                kernel_w: kw,
                stride_h: s,
                stride_w: s,
                pad_h: p,
                pad_w: p,
                ..ConvWorkload::square(n, ic, oc, 0, 0, 0, 0)
            };
            let numel = |shape: [usize; 4]| shape.iter().product::<usize>();
            let data: Vec<f32> = (0..numel(w.input_shape())).map(|_| special(&mut rng, false)).collect();
            let wt: Vec<f32> = (0..numel(w.weight_shape())).map(|_| special(&mut rng, true)).collect();
            assert!(takes_register_tiles(&w, all_finite(&wt)), "case {case}: {w}");
            let (data, wt) = (Tensor::from_vec(w.input_shape(), data), Tensor::from_vec(w.weight_shape(), wt));
            let what = format!("case {case}: {w}");
            let want = conv_scalar(&data, &wt, &w);
            assert_same_bits_and_nans(&conv2d_ref(&data, &wt, &w), &want, &what);
            let prechecked = conv2d_prechecked(&data, &wt, true, &w);
            assert_same_bits_and_nans(&prechecked, &want, &format!("{what}, prechecked"));
        }
    }

    #[test]
    fn non_finite_weights_take_the_plane_taps() {
        // The infinite weight is the top-left tap, which the top row and left
        // column of outputs place in the padding: a register tile would add
        // `0 · ∞ = NaN` there. Positive data keeps every NaN the weight's own,
        // so the bits are fixed.
        let w = ConvWorkload::square(1, 2, 3, 6, 3, 1, 1);
        let data = Initializer::Uniform { lo: 0.5, hi: 1.5 }.init(w.input_shape(), 21);
        let mut wt = Initializer::Uniform { lo: -1.0, hi: 1.0 }.init(w.weight_shape(), 22);
        wt.set(&[0, 0, 0, 0], f32::INFINITY);
        wt.set(&[1, 1, 2, 1], f32::NAN);
        assert!(!takes_register_tiles(&w, all_finite(wt.as_f32())));
        let (got, want) = (conv2d_ref(&data, &wt, &w), conv_scalar(&data, &wt, &w));
        let bits = |t: &Tensor| t.as_f32().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
        assert_eq!(bits(&conv2d_prechecked(&data, &wt, false, &w)), bits(&want));
        assert!(want.at(&[0, 0, 0, 0]).is_finite() && want.at(&[0, 0, 1, 1]) == f32::INFINITY);
    }

    #[test]
    fn all_finite_sees_every_non_finite_value() {
        assert!(all_finite(&[]));
        assert!(all_finite(&[0.0, -0.0, f32::MAX, f32::MIN, f32::from_bits(1)]));
        for bad in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -f32::NAN] {
            for at in [0, 17, 36] {
                let mut v = vec![1.0f32; 37];
                v[at] = bad;
                assert!(!all_finite(&v), "{bad} at {at}");
            }
        }
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
