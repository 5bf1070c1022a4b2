//! Batch normalization (inference form), BN folding, and softmax.

use unigpu_tensor::Tensor;

/// Inference batch norm of `NCHW` data `x`, in planes of `plane` floats,
/// into `out`: `y = gamma · (x - mean) / sqrt(var + eps) + beta`, with the
/// channel count that of the four `[gamma, beta, mean, var]` parameters.
///
/// # Panics
/// Panics if a parameter's length differs from the others', or `x` and
/// `out` are not whole planes of every channel.
pub fn batch_norm_into(x: &[f32], plane: usize, params: [&[f32]; 4], eps: f32, out: &mut [f32]) {
    let [g, b, m, v] = params;
    let c = g.len();
    assert!(params.iter().all(|p| p.len() == c), "BN parameter length mismatch");
    assert!(
        x.len() == out.len() && x.len().is_multiple_of(c * plane),
        "BN data of {} floats is not whole planes of {c} channels",
        x.len()
    );
    for (p, (o, x)) in out.chunks_exact_mut(plane).zip(x.chunks_exact(plane)).enumerate() {
        let ci = p % c;
        let scale = g[ci] / (v[ci] + eps).sqrt();
        let shift = b[ci] - m[ci] * scale;
        for (o, &x) in o.iter_mut().zip(x) {
            *o = x * scale + shift;
        }
    }
}

/// Fold an inference batch norm into the preceding convolution's weights and
/// bias — the "simplifying inference for batch-norm" graph optimization
/// (§3.2.3). Returns `(weight', bias')` such that
/// `conv(x, weight') + bias' == bn(conv(x, weight) + bias)` exactly in real
/// arithmetic (and to f32 rounding in practice).
pub fn fold_batch_norm(
    weight: &Tensor, // OIHW
    bias: Option<&Tensor>,
    gamma: &Tensor,
    beta: &Tensor,
    mean: &Tensor,
    var: &Tensor,
    eps: f32,
) -> (Tensor, Tensor) {
    let dims = weight.shape().dims();
    assert_eq!(dims.len(), 4, "expected OIHW weights");
    let oc = dims[0];
    let per_oc = dims[1] * dims[2] * dims[3];
    let (g, m, v) = (gamma.as_f32(), mean.as_f32(), var.as_f32());
    let ws = weight.as_f32();
    let mut w2 = Vec::with_capacity(ws.len());
    let mut b2 = Vec::with_capacity(oc);
    for o in 0..oc {
        let scale = g[o] / (v[o] + eps).sqrt();
        w2.extend(ws[o * per_oc..(o + 1) * per_oc].iter().map(|x| x * scale));
        let b0 = bias.map_or(0.0, |t| t.as_f32()[o]);
        b2.push((b0 - m[o]) * scale + beta.as_f32()[o]);
    }
    (
        Tensor::from_vec(weight.shape().clone(), w2),
        Tensor::from_vec([oc], b2),
    )
}

/// Numerically stable softmax along the last dimension.
pub fn softmax(x: &Tensor) -> Tensor {
    let last = *x.shape().dims().last().expect("softmax needs rank >= 1");
    let mut out = Tensor::zeros(x.shape().clone());
    softmax_into(x.as_f32(), last, out.as_f32_mut());
    out
}

/// [`softmax`] of `x`'s rows of `last` floats into `out`.
///
/// # Panics
/// Panics if `x` and `out` differ in length.
pub fn softmax_into(x: &[f32], last: usize, out: &mut [f32]) {
    out.copy_from_slice(x);
    for row in out.chunks_mut(last) {
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::reference::conv2d_ref;
    use crate::nn::linear::bias_add;
    use crate::workload::ConvWorkload;
    use unigpu_tensor::init::random_uniform;
    use unigpu_tensor::{allclose, Tensor};

    fn batch_norm(x: &Tensor, params: [&Tensor; 4], eps: f32) -> Tensor {
        let (_, _, h, w) = x.shape().nchw();
        let mut y = Tensor::zeros(x.shape().clone());
        batch_norm_into(x.as_f32(), h * w, params.map(Tensor::as_f32), eps, y.as_f32_mut());
        y
    }

    #[test]
    fn bn_normalizes_channel() {
        let x = Tensor::from_vec([1, 1, 1, 4], vec![1.0, 2.0, 3.0, 4.0]);
        let y = batch_norm(
            &x,
            [
                &Tensor::full([1], 1.0),
                &Tensor::zeros([1]),
                &Tensor::full([1], 2.5),
                &Tensor::full([1], 1.25),
            ],
            0.0,
        );
        // (x - 2.5)/sqrt(1.25): symmetric around 0
        let v = y.as_f32();
        assert!((v[0] + v[3]).abs() < 1e-6);
        assert!((v[1] + v[2]).abs() < 1e-6);
    }

    #[test]
    fn bn_fold_equals_conv_then_bn() {
        let w = ConvWorkload::square(1, 3, 8, 6, 3, 1, 1);
        let data = random_uniform(w.input_shape(), 41);
        let wt = random_uniform(w.weight_shape(), 42);
        let gamma = random_uniform([8], 43);
        let beta = random_uniform([8], 44);
        let mean = random_uniform([8], 45);
        let var = {
            let mut v = random_uniform([8], 46);
            v.map_inplace(|x| x + 0.5); // keep variance positive
            v
        };
        let eps = 1e-5;

        let unfused = batch_norm(&conv2d_ref(&data, &wt, &w), [&gamma, &beta, &mean, &var], eps);
        let (wf, bf) = fold_batch_norm(&wt, None, &gamma, &beta, &mean, &var, eps);
        let fused = bias_add(&conv2d_ref(&data, &wf, &w), &bf);
        assert!(
            allclose(&fused, &unfused, 1e-4, 1e-5),
            "BN folding must preserve results"
        );
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = random_uniform([3, 7], 47);
        let y = softmax(&x);
        for r in 0..3 {
            let s: f32 = (0..7).map(|c| y.at(&[r, c])).sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let x = Tensor::from_vec([1, 3], vec![1000.0, 1001.0, 999.0]);
        let y = softmax(&x);
        assert!(y.as_f32().iter().all(|v| v.is_finite()));
        assert!(y.at(&[0, 1]) > y.at(&[0, 0]));
    }

    #[test]
    fn softmax_preserves_order() {
        let x = Tensor::from_vec([1, 4], vec![0.1, 3.0, -2.0, 1.0]);
        let y = softmax(&x);
        let v = y.as_f32();
        assert!(v[1] > v[3] && v[3] > v[0] && v[0] > v[2]);
    }
}
