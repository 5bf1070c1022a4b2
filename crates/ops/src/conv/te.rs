//! Convolution expressed in the unified IR — the path that, on real
//! hardware, feeds the OpenCL/CUDA code generators (Fig. 1).
//!
//! Used here to (a) prove the IR pipeline end-to-end on small shapes (lower →
//! interpret → match the native reference bit-for-bit is not expected across
//! f32/f64, so we compare within tolerance), and (b) emit the kernel sources
//! reported in EXPERIMENTS.md.

use crate::workload::ConvWorkload;
use unigpu_ir::compute::row_major_index;
use unigpu_ir::{Axis, BinOp, Compute, Expr};

/// Declare `conv2d_nchw` as a unified-IR compute for workload `w`.
///
/// Buffers: reads `data` (flat NCHW) and `weight` (flat OIHW), writes `out`.
/// Zero padding is expressed with a `Select` guard over clamped coordinates,
/// so every load stays in bounds regardless of schedule.
pub fn conv2d_compute(w: &ConvWorkload) -> Compute {
    assert_eq!(w.groups, 1, "the IR demo covers dense conv (groups=1)");
    let (n, c, oc) = (w.batch, w.in_channels, w.out_channels);
    let (ih, iw) = (w.height, w.width);
    let (oh, ow) = (w.out_h(), w.out_w());

    let axes = vec![
        Axis::new("n", n),
        Axis::new("oc", oc),
        Axis::new("oh", oh),
        Axis::new("ow", ow),
    ];
    let reduce = vec![
        Axis::new("ic", c),
        Axis::new("kh", w.kernel_h),
        Axis::new("kw", w.kernel_w),
    ];

    // hi = oh*stride + kh - pad (may be out of range: guarded)
    let hi = Expr::var("oh") * Expr::from(w.stride_h) + Expr::var("kh")
        - Expr::from(w.pad_h);
    let wi = Expr::var("ow") * Expr::from(w.stride_w) + Expr::var("kw")
        - Expr::from(w.pad_w);
    let in_range = Expr::bin(
        BinOp::And,
        Expr::bin(
            BinOp::And,
            Expr::bin(BinOp::Ge, hi.clone(), Expr::Int(0)),
            Expr::lt(hi.clone(), Expr::from(ih)),
        ),
        Expr::bin(
            BinOp::And,
            Expr::bin(BinOp::Ge, wi.clone(), Expr::Int(0)),
            Expr::lt(wi.clone(), Expr::from(iw)),
        ),
    );
    // Clamp coordinates so the load itself is always legal.
    let hc = Expr::max(Expr::min(hi, Expr::from(ih as i64 - 1)), Expr::Int(0));
    let wc = Expr::max(Expr::min(wi, Expr::from(iw as i64 - 1)), Expr::Int(0));

    let data_idx = row_major_index(&[
        (Expr::var("n"), 0),
        (Expr::var("ic"), c),
        (hc, ih),
        (wc, iw),
    ]);
    let weight_idx = row_major_index(&[
        (Expr::var("oc"), 0),
        (Expr::var("ic"), c),
        (Expr::var("kh"), w.kernel_h),
        (Expr::var("kw"), w.kernel_w),
    ]);
    let body = Expr::select(
        in_range,
        Expr::load("data", data_idx) * Expr::load("weight", weight_idx),
        Expr::Float(0.0),
    );
    let out_idx = row_major_index(&[
        (Expr::var("n"), 0),
        (Expr::var("oc"), oc),
        (Expr::var("oh"), oh),
        (Expr::var("ow"), ow),
    ]);
    Compute::reduce_sum("out", axes, reduce, body, out_idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::reference::conv2d_ref;
    use unigpu_ir::codegen::{generate, line_count, Target};
    use unigpu_ir::eval::Machine;
    use unigpu_ir::{lower, LoopTag, Schedule};
    use unigpu_tensor::init::random_uniform;
    use unigpu_tensor::Tensor;

    fn run_ir(w: &ConvWorkload, s: &Schedule, data: &Tensor, weight: &Tensor) -> Vec<f32> {
        let c = conv2d_compute(w);
        let stmt = lower(&c, s);
        let f64s = |t: &Tensor| t.as_f32().iter().map(|&x| x as f64).collect();
        let mut m = Machine::new()
            .with_buffer("data", f64s(data))
            .with_buffer("weight", f64s(weight))
            .with_buffer("out", vec![0.0; w.out_numel()]);
        m.run(&stmt);
        m.buffer("out").iter().map(|&x| x as f32).collect()
    }

    #[test]
    fn ir_conv_matches_native_reference() {
        let w = ConvWorkload::square(1, 3, 4, 8, 3, 1, 1);
        let data = random_uniform(w.input_shape(), 21);
        let wt = random_uniform(w.weight_shape(), 22);
        let c = conv2d_compute(&w);
        let got = run_ir(&w, &Schedule::default_for(&c), &data, &wt);
        let want = conv2d_ref(&data, &wt, &w);
        for (g, r) in got.iter().zip(want.as_f32()) {
            assert!((g - r).abs() < 1e-4, "{g} vs {r}");
        }
    }

    #[test]
    fn scheduled_ir_conv_matches_default() {
        let w = ConvWorkload::square(1, 2, 4, 6, 3, 2, 1);
        let data = random_uniform(w.input_shape(), 31);
        let wt = random_uniform(w.weight_shape(), 32);
        let c = conv2d_compute(&w);
        let base = run_ir(&w, &Schedule::default_for(&c), &data, &wt);

        let mut s = Schedule::default_for(&c);
        s.split("oc", 2).unwrap();
        s.bind("oc.o", LoopTag::BlockIdx(0)).unwrap();
        s.bind("oc.i", LoopTag::ThreadIdx(0)).unwrap();
        s.split("ow", 3).unwrap(); // imperfect: 3 ∤ out_w? out_w = 3 → perfect; use oh
        s.unroll("kw").unwrap();
        s.vectorize("ow.i").unwrap();
        let got = run_ir(&w, &s, &data, &wt);
        assert_eq!(got, base, "scheduling must not change IR results");
    }

    #[test]
    fn both_targets_generate_from_one_schedule() {
        let w = ConvWorkload::square(1, 8, 16, 14, 3, 1, 1);
        let c = conv2d_compute(&w);
        let mut s = Schedule::default_for(&c);
        s.split_bind("oc", 8, 0).unwrap();
        s.split("ow", 7).unwrap();
        s.vectorize("ow.i").unwrap();
        s.unroll("kw").unwrap();
        let stmt = lower(&c, &s);
        let ocl = generate("conv2d_nchw", &stmt, Target::OpenCl);
        let cu = generate("conv2d_nchw", &stmt, Target::Cuda);
        assert!(ocl.contains("__kernel"));
        assert!(cu.contains("__global__"));
        // §3.1.1-style conciseness check: the IR description is far smaller
        // than either generated kernel.
        assert!(line_count(&ocl) > 15);
        assert!(line_count(&cu) > 15);
    }
}
