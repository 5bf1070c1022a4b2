//! Dense (fully connected) layers and bias addition.

use unigpu_tensor::Tensor;

/// `y[n, m] = Σ_k x[n, k] · w[m, k] (+ bias[m])` — weights stored row-major
/// per output (`MK`), the framework-default layout.
///
/// # Panics
/// Panics on shape mismatch.
pub fn dense(x: &Tensor, w: &Tensor, bias: Option<&Tensor>) -> Tensor {
    let (n, k) = {
        let d = x.shape().dims();
        assert_eq!(d.len(), 2, "dense input must be rank-2, got {}", x.shape());
        (d[0], d[1])
    };
    let (m, k2) = {
        let d = w.shape().dims();
        assert_eq!(d.len(), 2, "dense weight must be rank-2");
        (d[0], d[1])
    };
    assert_eq!(k, k2, "dense reduction mismatch: {k} vs {k2}");
    if let Some(b) = bias {
        assert_eq!(b.numel(), m, "bias length {} != out features {m}", b.numel());
    }
    let mut out = Tensor::zeros([n, m]);
    dense_into(
        x.as_f32(),
        w.as_f32(),
        k,
        bias.map(Tensor::as_f32),
        out.as_f32_mut(),
    );
    out
}

/// [`dense`] into `out` (`n × m`), with the input `x` (`n × k`) and the
/// weights `w` (`m × k`) as flat buffers.
///
/// # Panics
/// Panics if the lengths do not fit one `n` and `m`.
pub fn dense_into(x: &[f32], w: &[f32], k: usize, bias: Option<&[f32]>, out: &mut [f32]) {
    let (n, m) = (x.len() / k, w.len() / k);
    assert!(
        x.len() == n * k && w.len() == m * k && out.len() == n * m,
        "dense length mismatch"
    );
    for (ni, row) in out.chunks_mut(m).enumerate() {
        for (mi, slot) in row.iter_mut().enumerate() {
            let mut acc = 0.0f32;
            for ki in 0..k {
                acc += x[ni * k + ki] * w[mi * k + ki];
            }
            if let Some(b) = bias {
                acc += b[mi];
            }
            *slot = acc;
        }
    }
}

/// Add a per-channel bias to an `NCHW` tensor.
pub fn bias_add(x: &Tensor, bias: &Tensor) -> Tensor {
    let (_, c, h, w) = x.shape().nchw();
    assert_eq!(bias.numel(), c, "bias length {} != channels {c}", bias.numel());
    let mut out = x.clone();
    let b = bias.as_f32();
    let plane = h * w;
    out.as_f32_mut()
        .chunks_mut(plane)
        .enumerate()
        .for_each(|(p, chunk)| {
            let ci = p % c;
            for v in chunk {
                *v += b[ci];
            }
        });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use unigpu_tensor::init::random_uniform;

    #[test]
    fn dense_matches_manual() {
        let x = Tensor::from_vec([2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let w = Tensor::from_vec([2, 3], vec![1.0, 0.0, -1.0, 0.5, 0.5, 0.5]);
        let y = dense(&x, &w, None);
        assert_eq!(y.shape().dims(), &[2, 2]);
        assert_eq!(y.at(&[0, 0]), 1.0 - 3.0);
        assert_eq!(y.at(&[0, 1]), 0.5 * 6.0);
        assert_eq!(y.at(&[1, 0]), 4.0 - 6.0);
    }

    #[test]
    fn dense_bias_applies_per_output() {
        let x = Tensor::from_vec([1, 2], vec![1.0, 1.0]);
        let w = Tensor::from_vec([3, 2], vec![0.0; 6]);
        let b = Tensor::from_vec([3], vec![1.0, 2.0, 3.0]);
        let y = dense(&x, &w, Some(&b));
        assert_eq!(y.as_f32(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "reduction mismatch")]
    fn dense_shape_mismatch_panics() {
        let x = random_uniform([1, 3], 1);
        let w = random_uniform([2, 4], 2);
        dense(&x, &w, None);
    }

    #[test]
    fn bias_add_per_channel() {
        let x = Tensor::zeros([1, 2, 2, 2]);
        let b = Tensor::from_vec([2], vec![1.0, -1.0]);
        let y = bias_add(&x, &b);
        assert_eq!(y.at(&[0, 0, 1, 1]), 1.0);
        assert_eq!(y.at(&[0, 1, 0, 0]), -1.0);
    }

    #[test]
    fn bias_add_multibatch() {
        let x = Tensor::zeros([2, 3, 1, 1]);
        let b = Tensor::from_vec([3], vec![1.0, 2.0, 3.0]);
        let y = bias_add(&x, &b);
        assert_eq!(y.at(&[1, 2, 0, 0]), 3.0);
        assert_eq!(y.at(&[0, 0, 0, 0]), 1.0);
    }
}
