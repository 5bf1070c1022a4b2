//! Elementwise operators and tensor plumbing (concat, upsample, flatten).

use unigpu_tensor::Tensor;

/// Rectified linear unit.
pub fn relu(x: &Tensor) -> Tensor {
    let mut y = x.clone();
    y.map_inplace(|v| v.max(0.0));
    y
}

/// Leaky ReLU (`alpha·x` for `x < 0`) — used by YOLOv3's Darknet backbone.
pub fn leaky_relu(x: &Tensor, alpha: f32) -> Tensor {
    let mut y = x.clone();
    y.map_inplace(|v| if v >= 0.0 { v } else { alpha * v });
    y
}

/// Logistic sigmoid.
pub fn sigmoid(x: &Tensor) -> Tensor {
    let mut y = x.clone();
    y.map_inplace(|v| 1.0 / (1.0 + (-v).exp()));
    y
}

/// Elementwise sum of two same-shape tensors (residual connections).
pub fn add(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape(), b.shape(), "elementwise add shape mismatch");
    let mut y = Tensor::zeros(a.shape().clone());
    add_into(a.as_f32(), b.as_f32(), y.as_f32_mut());
    y
}

/// [`add`] of two equally long buffers into `out`.
///
/// # Panics
/// Panics if the three lengths differ.
pub fn add_into(a: &[f32], b: &[f32], out: &mut [f32]) {
    assert!(
        a.len() == b.len() && a.len() == out.len(),
        "elementwise add length mismatch"
    );
    for ((o, x), y) in out.iter_mut().zip(a).zip(b) {
        *o = x + y;
    }
}

/// One part of a concat along axis 1 (the channels of `NCHW` tensors: Fire
/// modules, SSD and YOLO heads): each of the `n` equal rows of `part` goes to
/// floats `offset..` of the matching `total`-float row of `out`. Over a
/// concat's parts in order, the offsets are the running sums of their rows.
///
/// # Panics
/// Panics if `part` does not split into `n` rows or a row overruns `out`'s.
pub fn concat_channels_into(part: &[f32], n: usize, offset: usize, total: usize, out: &mut [f32]) {
    assert!(
        part.len().is_multiple_of(n),
        "concat part of {} floats in {n} rows",
        part.len()
    );
    let row = part.len() / n;
    assert!(
        offset + row <= total && out.len() == n * total,
        "concat part overruns its output"
    );
    for (src, dst) in part.chunks_exact(row).zip(out.chunks_exact_mut(total)) {
        dst[offset..offset + row].copy_from_slice(src);
    }
}

/// Nearest-neighbour spatial upsampling by an integer factor (YOLOv3 feature
/// pyramid) of the `NCHW` input `x` of extents `nchw` into `out`.
///
/// # Panics
/// Panics if `scale` is 0 or a buffer's length disagrees with the extents.
pub fn upsample_nearest_into(
    x: &[f32],
    (n, c, h, w): (usize, usize, usize, usize),
    scale: usize,
    out: &mut [f32],
) {
    assert!(scale >= 1);
    let (oh, ow) = (h * scale, w * scale);
    assert!(
        x.len() == n * c * h * w && out.len() == n * c * oh * ow,
        "upsample length mismatch"
    );
    for (o, x) in out.chunks_exact_mut(oh * ow).zip(x.chunks_exact(h * w)) {
        for (ohi, row) in o.chunks_exact_mut(ow).enumerate() {
            let src = &x[ohi / scale * w..][..w];
            for (owi, v) in row.iter_mut().enumerate() {
                *v = src[owi / scale];
            }
        }
    }
}

/// Flatten `NCHW → N×(CHW)` for the classifier head.
pub fn flatten(x: &Tensor) -> Tensor {
    let (n, c, h, w) = x.shape().nchw();
    x.clone().reshape([n, c * h * w])
}

#[cfg(test)]
mod tests {
    use super::*;
    use unigpu_tensor::Shape;

    #[test]
    fn relu_clamps_negatives() {
        let x = Tensor::from_vec([4], vec![-1.0, 0.0, 2.0, -0.5]);
        assert_eq!(relu(&x).as_f32(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn leaky_relu_scales_negatives() {
        let x = Tensor::from_vec([3], vec![-10.0, 0.0, 5.0]);
        assert_eq!(leaky_relu(&x, 0.1).as_f32(), &[-1.0, 0.0, 5.0]);
    }

    #[test]
    fn sigmoid_midpoint() {
        let x = Tensor::from_vec([1], vec![0.0]);
        assert_eq!(sigmoid(&x).as_f32(), &[0.5]);
    }

    #[test]
    fn add_elementwise() {
        let a = Tensor::from_vec([2], vec![1.0, 2.0]);
        let b = Tensor::from_vec([2], vec![10.0, 20.0]);
        assert_eq!(add(&a, &b).as_f32(), &[11.0, 22.0]);
    }

    fn concat_channels(parts: &[&Tensor]) -> Tensor {
        let (n, _, h, w) = parts[0].shape().nchw();
        let c_total: usize = parts.iter().map(|p| p.shape().dim(1)).sum();
        let mut out = Tensor::zeros(Shape::from([n, c_total, h, w]));
        let mut c_off = 0;
        for p in parts {
            concat_channels_into(
                p.as_f32(),
                n,
                c_off * h * w,
                c_total * h * w,
                out.as_f32_mut(),
            );
            c_off += p.shape().dim(1);
        }
        out
    }

    #[test]
    fn concat_stacks_channels_in_order() {
        let a = Tensor::full([1, 1, 2, 2], 1.0);
        let b = Tensor::full([1, 2, 2, 2], 2.0);
        let y = concat_channels(&[&a, &b]);
        assert_eq!(y.shape().dims(), &[1, 3, 2, 2]);
        assert_eq!(y.at(&[0, 0, 0, 0]), 1.0);
        assert_eq!(y.at(&[0, 1, 1, 1]), 2.0);
        assert_eq!(y.at(&[0, 2, 0, 1]), 2.0);
    }

    #[test]
    fn concat_multibatch_keeps_batches_separate() {
        let a = Tensor::from_vec([2, 1, 1, 1], vec![1.0, 2.0]);
        let b = Tensor::from_vec([2, 1, 1, 1], vec![3.0, 4.0]);
        let y = concat_channels(&[&a, &b]);
        assert_eq!(y.as_f32(), &[1.0, 3.0, 2.0, 4.0]);
    }

    #[test]
    fn upsample_replicates_pixels() {
        let x = Tensor::from_vec([1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let mut y = Tensor::zeros([1, 1, 4, 4]);
        upsample_nearest_into(x.as_f32(), x.shape().nchw(), 2, y.as_f32_mut());
        assert_eq!(y.shape().dims(), &[1, 1, 4, 4]);
        assert_eq!(y.at(&[0, 0, 0, 0]), 1.0);
        assert_eq!(y.at(&[0, 0, 0, 1]), 1.0);
        assert_eq!(y.at(&[0, 0, 1, 1]), 1.0);
        assert_eq!(y.at(&[0, 0, 3, 3]), 4.0);
        assert_eq!(y.at(&[0, 0, 2, 1]), 3.0);
    }

    #[test]
    fn flatten_reshapes() {
        let x = Tensor::zeros([2, 3, 4, 5]);
        assert_eq!(flatten(&x).shape().dims(), &[2, 60]);
    }
}
