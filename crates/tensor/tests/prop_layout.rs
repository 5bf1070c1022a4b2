//! Property tests: layout transformations are lossless bijections on the
//! logical (unpadded) element set, for arbitrary shapes and block sizes.
//!
//! Every case draws from a SplitMix64 stream keyed by its case number, so a
//! failure names the case that replays it.

use unigpu_telemetry::hash::SplitMix64;
use unigpu_tensor::layout::{convert, nchw_to_nchwc, nchw_to_nhwc, nchwc_to_nchw, nhwc_to_nchw};
use unigpu_tensor::{Layout, Tensor};

const CASES: u64 = 256;

/// Uniform in `lo..hi`.
fn int(rng: &mut SplitMix64, lo: usize, hi: usize) -> usize {
    lo + rng.below(hi - lo)
}

fn arb_nchw(rng: &mut SplitMix64) -> (usize, usize, usize, usize) {
    (int(rng, 1, 3), int(rng, 1, 17), int(rng, 1, 6), int(rng, 1, 6))
}

/// `check(case, rng)` with every case's own stream.
fn for_each_case(mut check: impl FnMut(u64, &mut SplitMix64)) {
    for case in 0..CASES {
        check(case, &mut SplitMix64::new(case));
    }
}

fn seq(dims: [usize; 4]) -> Tensor {
    let n: usize = dims.iter().product();
    Tensor::from_vec(dims, (0..n).map(|x| (x % 251) as f32).collect())
}

#[test]
fn nchwc_round_trip() {
    for_each_case(|case, rng| {
        let (n, c, h, w) = arb_nchw(rng);
        let block = int(rng, 1, 9);
        let t = seq([n, c, h, w]);
        let b = nchw_to_nchwc(&t, block);
        assert_eq!(b.shape().dims()[1], c.div_ceil(block), "case {case}");
        assert_eq!(nchwc_to_nchw(&b, c), t, "case {case}");
    });
}

#[test]
fn nhwc_round_trip() {
    for_each_case(|case, rng| {
        let (n, c, h, w) = arb_nchw(rng);
        let t = seq([n, c, h, w]);
        assert_eq!(nhwc_to_nchw(&nchw_to_nhwc(&t)), t, "case {case}");
    });
}

#[test]
fn convert_any_path_preserves_data() {
    for_each_case(|case, rng| {
        let (n, c, h, w) = arb_nchw(rng);
        let (b1, b2) = (int(rng, 1, 9), int(rng, 1, 9));
        let t = seq([n, c, h, w]);
        // NCHW -> NCHWc(b1) -> NHWC -> NCHWc(b2) -> NCHW must be identity.
        let x = convert(&t, Layout::NCHW, Layout::NCHWc(b1), c);
        let x = convert(&x, Layout::NCHWc(b1), Layout::NHWC, c);
        let x = convert(&x, Layout::NHWC, Layout::NCHWc(b2), c);
        let x = convert(&x, Layout::NCHWc(b2), Layout::NCHW, c);
        assert_eq!(x, t, "case {case}");
    });
}

#[test]
fn blocked_padding_is_zero() {
    for_each_case(|case, rng| {
        let (n, c, h, w) = arb_nchw(rng);
        let block = int(rng, 2, 9);
        let t = Tensor::full([n, c, h, w], 1.0);
        let b = nchw_to_nchwc(&t, block);
        let (_, cb, _, _, blk) = b.shape().nchwc();
        let total = cb * blk;
        // every padded channel slot must be exactly zero
        for ci in c..total {
            let (co, cil) = (ci / blk, ci % blk);
            for ni in 0..n {
                for hi in 0..h {
                    for wi in 0..w {
                        assert_eq!(b.at(&[ni, co, hi, wi, cil]), 0.0, "case {case}");
                    }
                }
            }
        }
    });
}
