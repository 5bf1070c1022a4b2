//! Data layouts and layout transformations.
//!
//! §3.2.3 of the paper: "optimizing convolution kernels requires transforming
//! input and output to different data layouts which might bring extra
//! overhead; the graph tuner uses dynamic programming to examine the trade-off
//! between optimized kernels and data layout transformation overheads."
//!
//! The layouts here mirror the TVM convention:
//! * `NCHW`          — framework-default activation layout.
//! * `NCHWc(c)`      — channel-blocked activations; the innermost `c` axis is
//!   sized to the device SIMD width so a vector load grabs one channel block.
//! * `NHWC`          — channels-last (used by some vendor libraries).
//! * weights `OIHW`  — framework default.

use crate::{Shape, Tensor};
use serde::{Deserialize, Serialize};

/// Activation layouts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Layout {
    /// batch, channel, height, width
    NCHW,
    /// batch, channel-block, height, width, channel-in-block
    NCHWc(usize),
    /// batch, height, width, channel
    NHWC,
}

impl Layout {
    /// Channel block size (1 for unblocked layouts).
    pub fn block(self) -> usize {
        match self {
            Layout::NCHWc(c) => c,
            _ => 1,
        }
    }

    /// Short TVM-style tag, e.g. `NCHW8c`.
    pub fn tag(self) -> String {
        match self {
            Layout::NCHW => "NCHW".into(),
            Layout::NHWC => "NHWC".into(),
            Layout::NCHWc(c) => format!("NCHW{c}c"),
        }
    }
}

impl std::fmt::Display for Layout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.tag())
    }
}

/// Convert `NCHW` → `NCHWc(block)`.
///
/// Channels that do not fill the last block are zero-padded, matching TVM's
/// behaviour; the inverse transform drops the padding.
///
/// # Panics
/// Panics if `t` is not rank-4 f32 or `block == 0`.
pub fn nchw_to_nchwc(t: &Tensor, block: usize) -> Tensor {
    assert!(block > 0, "block must be positive");
    let (n, c, h, w) = t.shape().nchw();
    let cb = c.div_ceil(block);
    let mut out = Tensor::zeros(Shape::from([n, cb, h, w, block]));
    let src = t.as_f32();
    let dst = out.as_f32_mut();
    for ni in 0..n {
        for ci in 0..c {
            let (co, cil) = (ci / block, ci % block);
            for hi in 0..h {
                let s_base = ((ni * c + ci) * h + hi) * w;
                let d_base = ((((ni * cb + co) * h) + hi) * w) * block + cil;
                for wi in 0..w {
                    dst[d_base + wi * block] = src[s_base + wi];
                }
            }
        }
    }
    out
}

/// Convert `NCHWc` → `NCHW`, dropping any channel padding beyond `channels`.
///
/// # Panics
/// Panics if `t` is not rank-5 f32 or `channels` exceeds the blocked capacity.
pub fn nchwc_to_nchw(t: &Tensor, channels: usize) -> Tensor {
    let (n, cb, h, w, block) = t.shape().nchwc();
    assert!(channels <= cb * block, "channels {channels} exceed blocked capacity {}", cb * block);
    let mut out = Tensor::zeros(Shape::from([n, channels, h, w]));
    let src = t.as_f32();
    let dst = out.as_f32_mut();
    for ni in 0..n {
        for ci in 0..channels {
            let (co, cil) = (ci / block, ci % block);
            for hi in 0..h {
                let d_base = ((ni * channels + ci) * h + hi) * w;
                let s_base = ((((ni * cb + co) * h) + hi) * w) * block + cil;
                for wi in 0..w {
                    dst[d_base + wi] = src[s_base + wi * block];
                }
            }
        }
    }
    out
}

/// Convert `NCHW` → `NHWC`.
///
/// Each image is a `c × hw` to `hw × c` transpose, done in square tiles so
/// that both the rows read and the rows written stay in cache.
pub fn nchw_to_nhwc(t: &Tensor) -> Tensor {
    const TILE: usize = 16;
    let (n, c, h, w) = t.shape().nchw();
    let hw = h * w;
    let mut out = Tensor::zeros(Shape::from([n, h, w, c]));
    if out.numel() == 0 {
        return out;
    }
    let src = t.as_f32();
    let dst = out.as_f32_mut();
    for (image, pixels) in src.chunks_exact(c * hw).zip(dst.chunks_exact_mut(hw * c)) {
        for p0 in (0..hw).step_by(TILE) {
            for c0 in (0..c).step_by(TILE) {
                let channels = c0..(c0 + TILE).min(c);
                for p in p0..(p0 + TILE).min(hw) {
                    let row = &mut pixels[p * c..][channels.clone()];
                    for (d, ci) in row.iter_mut().zip(channels.clone()) {
                        *d = image[ci * hw + p];
                    }
                }
            }
        }
    }
    out
}

/// Convert `NHWC` → `NCHW`.
pub fn nhwc_to_nchw(t: &Tensor) -> Tensor {
    let dims = t.shape().dims();
    assert_eq!(dims.len(), 4, "expected NHWC rank-4");
    let (n, h, w, c) = (dims[0], dims[1], dims[2], dims[3]);
    let mut out = Tensor::zeros(Shape::from([n, c, h, w]));
    let src = t.as_f32();
    let dst = out.as_f32_mut();
    for ni in 0..n {
        for hi in 0..h {
            for wi in 0..w {
                for ci in 0..c {
                    dst[((ni * c + ci) * h + hi) * w + wi] = src[((ni * h + hi) * w + wi) * c + ci];
                }
            }
        }
    }
    out
}

/// Transform a tensor between activation layouts, given the logical channel
/// count (needed when leaving a padded blocked layout).
pub fn convert(t: &Tensor, from: Layout, to: Layout, channels: usize) -> Tensor {
    if from == to {
        return t.clone();
    }
    // Route through NCHW as the canonical hub.
    let canonical = match from {
        Layout::NCHW => t.clone(),
        Layout::NCHWc(_) => nchwc_to_nchw(t, channels),
        Layout::NHWC => nhwc_to_nchw(t),
    };
    match to {
        Layout::NCHW => canonical,
        Layout::NCHWc(b) => nchw_to_nchwc(&canonical, b),
        Layout::NHWC => nchw_to_nhwc(&canonical),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_tensor(dims: [usize; 4]) -> Tensor {
        let n: usize = dims.iter().product();
        Tensor::from_vec(dims, (0..n).map(|x| x as f32).collect())
    }

    #[test]
    fn nchwc_round_trip_exact_block() {
        let t = seq_tensor([2, 8, 3, 3]);
        let b = nchw_to_nchwc(&t, 4);
        assert_eq!(b.shape().dims(), &[2, 2, 3, 3, 4]);
        let back = nchwc_to_nchw(&b, 8);
        assert_eq!(back, t);
    }

    #[test]
    fn nchwc_round_trip_padded() {
        let t = seq_tensor([1, 6, 2, 2]);
        let b = nchw_to_nchwc(&t, 4);
        assert_eq!(b.shape().dims(), &[1, 2, 2, 2, 4]);
        let back = nchwc_to_nchw(&b, 6);
        assert_eq!(back, t);
    }

    #[test]
    fn nchwc_padding_is_zero() {
        let t = Tensor::full([1, 5, 1, 1], 1.0);
        let b = nchw_to_nchwc(&t, 4);
        // channels 5..8 in the second block must be zero
        assert_eq!(b.at(&[0, 1, 0, 0, 1]), 0.0);
        assert_eq!(b.at(&[0, 1, 0, 0, 0]), 1.0);
    }

    #[test]
    fn nhwc_round_trip() {
        let t = seq_tensor([2, 3, 4, 5]);
        let back = nhwc_to_nchw(&nchw_to_nhwc(&t));
        assert_eq!(back, t);
    }

    #[test]
    fn nhwc_places_channels_last() {
        let t = seq_tensor([1, 2, 1, 1]); // values 0,1 for channels 0,1
        let x = nchw_to_nhwc(&t);
        assert_eq!(x.as_f32(), &[0.0, 1.0]);
    }

    #[test]
    fn convert_identity_is_clone() {
        let t = seq_tensor([1, 4, 2, 2]);
        assert_eq!(convert(&t, Layout::NCHW, Layout::NCHW, 4), t);
    }

    #[test]
    fn convert_between_blocked_layouts() {
        let t = seq_tensor([1, 8, 2, 2]);
        let a = nchw_to_nchwc(&t, 4);
        let b = convert(&a, Layout::NCHWc(4), Layout::NCHWc(8), 8);
        assert_eq!(b.shape().dims(), &[1, 1, 2, 2, 8]);
        assert_eq!(nchwc_to_nchw(&b, 8), t);
    }

    #[test]
    fn layout_tags() {
        assert_eq!(Layout::NCHWc(8).tag(), "NCHW8c");
        assert_eq!(Layout::NCHW.tag(), "NCHW");
    }
}
