//! Functional graph executor — computes real tensors for every node.

use crate::graph::Graph;
use crate::node::{Activation, Const, Node, OpKind};
use unigpu_ops::conv::{all_finite, conv2d_prechecked};
use unigpu_ops::nn;
use unigpu_ops::vision;
use unigpu_telemetry::SpanRecorder;
use unigpu_tensor::Tensor;

/// Executes a graph on concrete inputs.
#[derive(Debug, Default)]
pub struct Executor;

/// A node's value for the length of one run. Borrow rule: only what a node
/// computes is owned; weights stay in the graph, inputs with the caller, and a
/// `DeviceCopy` (integrated GPUs share DRAM with the CPU) names its producer.
enum Value<'a> {
    Owned(Tensor),
    Borrowed(&'a Tensor),
    Constant(&'a Const),
    SameAs(usize),
}

fn tensor<'v>(values: &'v [Value<'_>], id: usize) -> &'v Tensor {
    match values.get(id).unwrap_or_else(|| panic!("node {id} read before it was computed")) {
        Value::Owned(t) => t,
        Value::Borrowed(t) => t,
        Value::Constant(c) => c.value(),
        Value::SameAs(producer) => tensor(values, *producer),
    }
}

/// The constant node `id` holds or names, if it is one.
fn constant<'v>(values: &'v [Value<'_>], id: usize) -> Option<&'v Const> {
    match &values[id] {
        Value::Constant(c) => Some(c),
        Value::SameAs(producer) => constant(values, *producer),
        Value::Owned(_) | Value::Borrowed(_) => None,
    }
}

/// The same scalar formulas as `nn::{relu, leaky_relu, sigmoid}`, applied to
/// a buffer the caller already owns.
fn act_inplace(xs: &mut [f32], act: Activation) {
    match act {
        Activation::None => {}
        Activation::Relu => xs.iter_mut().for_each(|v| *v = v.max(0.0)),
        Activation::LeakyRelu(a) => {
            xs.iter_mut().for_each(|v| *v = if *v >= 0.0 { *v } else { a * *v })
        }
        Activation::Sigmoid => xs.iter_mut().for_each(|v| *v = 1.0 / (1.0 + (-*v).exp())),
    }
}

fn apply_act(mut t: Tensor, act: Activation) -> Tensor {
    act_inplace(t.as_f32_mut(), act);
    t
}

/// Bias then activation over the convolution's accumulator, one output plane
/// at a time while it is cache-hot.
fn conv_epilogue(y: &mut Tensor, bias: Option<&Tensor>, act: Activation) {
    let (_, c, h, w) = y.shape().nchw();
    if let Some(b) = bias {
        assert_eq!(b.numel(), c, "bias length {} != channels {c}", b.numel());
    }
    for (p, plane) in y.as_f32_mut().chunks_mut(h * w).enumerate() {
        if let Some(b) = bias {
            let b = b.as_f32()[p % c];
            plane.iter_mut().for_each(|v| *v += b);
        }
        act_inplace(plane, act);
    }
}

impl Executor {
    /// Run `graph` with `inputs` bound to its `Input` nodes in order.
    /// Returns the tensors of the marked outputs.
    pub fn run(&self, graph: &Graph, inputs: &[Tensor]) -> Vec<Tensor> {
        self.run_impl(graph, inputs, None)
    }

    /// Like [`Executor::run`], recording one wall-clock span per executed
    /// node (name, op kind, output shape) into `recorder`.
    pub fn run_traced(
        &self,
        graph: &Graph,
        inputs: &[Tensor],
        recorder: &SpanRecorder,
    ) -> Vec<Tensor> {
        self.run_impl(graph, inputs, Some(recorder))
    }

    fn run_impl(
        &self,
        graph: &Graph,
        inputs: &[Tensor],
        recorder: Option<&SpanRecorder>,
    ) -> Vec<Tensor> {
        let input_ids = graph.input_ids();
        assert_eq!(
            input_ids.len(),
            inputs.len(),
            "graph `{}` expects {} inputs, got {}",
            graph.name,
            input_ids.len(),
            inputs.len()
        );
        // in node order: `values[id]` exists once node `id` has run
        let mut values: Vec<Value> = Vec::with_capacity(graph.nodes.len());
        let mut next_input = 0usize;

        for (id, node) in graph.nodes.iter().enumerate() {
            let span_clock = recorder.map(|r| (r.now_us(), std::time::Instant::now()));
            let out = match &node.op {
                OpKind::Input { shape } => {
                    let t = &inputs[next_input];
                    assert_eq!(
                        t.shape(),
                        shape,
                        "input {next_input} shape mismatch for `{}`",
                        node.name
                    );
                    next_input += 1;
                    Value::Borrowed(t)
                }
                OpKind::Constant(c) => Value::Constant(c),
                OpKind::DeviceCopy => Value::SameAs(node.inputs[0]),
                _ => Value::Owned(compute(node, &values)),
            };
            values.push(out);
            if let (Some(r), Some((start_us, started))) = (recorder, span_clock) {
                r.record(unigpu_telemetry::SpanRecord {
                    name: node.name.clone(),
                    category: "op".into(),
                    start_us,
                    dur_us: started.elapsed().as_secs_f64() * 1e6,
                    lane: 0,
                    attrs: vec![
                        ("op".into(), node.op.name().into()),
                        ("shape".into(), format!("{:?}", tensor(&values, id).shape().dims())),
                    ],
                    trace: None,
                });
            }
        }

        graph.outputs.iter().map(|&o| tensor(&values, o).clone()).collect()
    }
}

/// The tensor a computing node produces from its inputs' `values`.
fn compute(node: &Node, values: &[Value<'_>]) -> Tensor {
    let get = |i: usize| tensor(values, node.inputs[i]);
    let all_inputs = || (0..node.inputs.len()).map(get).collect::<Vec<&Tensor>>();
    match &node.op {
        OpKind::Input { .. } | OpKind::Constant(_) | OpKind::DeviceCopy => {
            unreachable!("`{}` holds no tensor of its own", node.op.name())
        }
        OpKind::Conv2d { w, bias, act } => {
            // A constant weight, every model's, is checked once and not per run.
            let finite = match constant(values, node.inputs[1]) {
                Some(c) => c.all_finite(),
                None => all_finite(get(1).as_f32()),
            };
            let mut y = conv2d_prechecked(get(0), get(1), finite, w);
            conv_epilogue(&mut y, bias.then(|| get(2)), *act);
            y
        }
        OpKind::BatchNorm { eps } => nn::batch_norm(get(0), get(1), get(2), get(3), get(4), *eps),
        OpKind::Act(a) => apply_act(get(0).clone(), *a),
        OpKind::Add => nn::add(get(0), get(1)),
        OpKind::Concat => nn::concat_channels(&all_inputs()),
        OpKind::MaxPool { k, s, p } => nn::max_pool2d(get(0), *k, *s, *p),
        OpKind::AvgPool { k, s, p } => nn::avg_pool2d(get(0), *k, *s, *p),
        OpKind::GlobalAvgPool => nn::global_avg_pool(get(0)),
        OpKind::Dense { bias, .. } => nn::dense(get(0), get(1), bias.then(|| get(2))),
        OpKind::Flatten => nn::flatten(get(0)),
        OpKind::Softmax => nn::softmax(get(0)),
        OpKind::UpsampleNearest { scale } => nn::upsample_nearest(get(0), *scale),
        OpKind::FlattenHead => flatten_head(get(0)),
        OpKind::ConcatFlat => {
            // concat along axis 1 for each batch row
            let parts = all_inputs();
            let n = parts[0].shape().dim(0);
            let total: usize = parts.iter().map(|p| p.shape().dim(1)).sum();
            let mut data = Vec::with_capacity(n * total);
            for b in 0..n {
                for p in &parts {
                    let cols = p.shape().dim(1);
                    data.extend_from_slice(&p.as_f32()[b * cols..(b + 1) * cols]);
                }
            }
            Tensor::from_vec([n, total], data)
        }
        OpKind::ClsProbs { classes } => cls_probs(get(0), *classes),
        OpKind::MultiboxPrior { sizes, ratios } => {
            let (_, _, h, w) = get(0).shape().nchw();
            vision::multibox_prior(h, w, sizes, ratios)
        }
        OpKind::ConcatAnchors => {
            let parts = all_inputs();
            let total: usize = parts.iter().map(|p| p.shape().dim(1)).sum();
            let mut data = Vec::with_capacity(total * 4);
            for p in &parts {
                data.extend_from_slice(p.as_f32());
            }
            Tensor::from_vec([1, total, 4], data)
        }
        OpKind::MultiboxDetection { cfg } => vision::multibox_detection(get(0), get(1), get(2), cfg),
        OpKind::YoloDetect { anchors, strides, classes, conf, nms } => {
            vision::yolo::yolo_detect(&all_inputs(), anchors, strides, *classes, *conf, nms)
        }
    }
}

/// `NCHW → [N, H·W·C]`: transpose to NHWC then flatten (SSD head layout, so
/// per-position predictions stay contiguous).
fn flatten_head(x: &Tensor) -> Tensor {
    let (n, c, h, w) = x.shape().nchw();
    let src = x.as_f32();
    let mut out = vec![0.0f32; n * c * h * w];
    for ni in 0..n {
        for hi in 0..h {
            for wi in 0..w {
                for ci in 0..c {
                    out[((ni * h + hi) * w + wi) * c + ci] =
                        src[((ni * c + ci) * h + hi) * w + wi];
                }
            }
        }
    }
    Tensor::from_vec([n, c * h * w], out)
}

/// `[1, total·(classes)] → [1, classes, anchors]` with per-anchor softmax.
/// `classes` here includes background (the ClsProbs op stores `classes` as
/// foreground count; rows are `classes + 1` wide).
fn cls_probs(x: &Tensor, classes: usize) -> Tensor {
    let d = x.shape().dims();
    let per = classes + 1;
    let anchors = d[1] / per;
    let batch = d[0];
    let src = x.as_f32();
    let mut out = Tensor::zeros([batch, per, anchors]);
    let o = out.as_f32_mut();
    for b in 0..batch {
        for a in 0..anchors {
            let row = &src[b * d[1] + a * per..b * d[1] + (a + 1) * per];
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            // exponentials go straight into their output slots, then get normalized
            let mut sum = 0.0f32;
            for (cls, &v) in row.iter().enumerate() {
                let e = (v - max).exp();
                o[(b * per + cls) * anchors + a] = e;
                sum += e;
            }
            for cls in 0..per {
                o[(b * per + cls) * anchors + a] /= sum;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use unigpu_ops::conv::conv2d_ref;
    use unigpu_ops::ConvWorkload;
    use unigpu_tensor::init::random_uniform;
    use unigpu_tensor::Shape;

    #[test]
    fn conv_relu_pipeline_executes() {
        let w = ConvWorkload::square(1, 3, 4, 6, 3, 1, 1);
        let mut g = Graph::new("toy");
        let x = g.add(OpKind::Input { shape: Shape::from(w.input_shape()) }, vec![], "x");
        let wt = g.add(OpKind::constant(random_uniform(w.weight_shape(), 1)), vec![], "w");
        let c = g.add(OpKind::Conv2d { w, bias: false, act: Activation::Relu }, vec![x, wt], "c");
        g.mark_output(c);
        let data = {
            let mut t = random_uniform(w.input_shape(), 2);
            t.map_inplace(|v| v - 0.5);
            t
        };
        let out = Executor.run(&g, &[data]);
        assert_eq!(out[0].shape().dims(), &[1, 4, 6, 6]);
        assert!(out[0].as_f32().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn fused_activation_equals_separate_node() {
        let w = ConvWorkload::square(1, 2, 3, 5, 3, 1, 1);
        let data = random_uniform(w.input_shape(), 3);
        let wt = random_uniform(w.weight_shape(), 4);

        let build = |fused: bool| {
            let mut g = Graph::new("t");
            let x = g.add(OpKind::Input { shape: Shape::from(w.input_shape()) }, vec![], "x");
            let k = g.add(OpKind::constant(wt.clone()), vec![], "w");
            if fused {
                let c = g.add(
                    OpKind::Conv2d { w, bias: false, act: Activation::Relu },
                    vec![x, k],
                    "c",
                );
                g.mark_output(c);
            } else {
                let c = g.add(
                    OpKind::Conv2d { w, bias: false, act: Activation::None },
                    vec![x, k],
                    "c",
                );
                let r = g.add(OpKind::Act(Activation::Relu), vec![c], "r");
                g.mark_output(r);
            }
            g
        };
        let data = [data];
        let a = Executor.run(&build(true), &data);
        let b = Executor.run(&build(false), &data);
        assert_eq!(a, b);
    }

    #[test]
    fn conv_epilogue_equals_bias_add_then_activation() {
        let w = ConvWorkload::square(2, 3, 4, 5, 3, 1, 1);
        let signed = |seed| {
            let mut t = random_uniform(w.input_shape(), seed);
            t.map_inplace(|v| v - 0.5);
            t
        };
        let (data, wt) = (signed(5), random_uniform(w.weight_shape(), 6));
        let mut bias = random_uniform([4], 7);
        bias.map_inplace(|v| v - 0.5);
        let biased = nn::bias_add(&conv2d_ref(&data, &wt, &w), &bias);
        for act in [
            Activation::None,
            Activation::Relu,
            Activation::LeakyRelu(0.1),
            Activation::Sigmoid,
        ] {
            let mut g = Graph::new("t");
            let x = g.add(OpKind::Input { shape: Shape::from(w.input_shape()) }, vec![], "x");
            let k = g.add(OpKind::constant(wt.clone()), vec![], "w");
            let b = g.add(OpKind::constant(bias.clone()), vec![], "b");
            let c = g.add(OpKind::Conv2d { w, bias: true, act }, vec![x, k, b], "c");
            g.mark_output(c);
            let want = match act {
                Activation::None => biased.clone(),
                Activation::Relu => nn::relu(&biased),
                Activation::LeakyRelu(a) => nn::leaky_relu(&biased, a),
                Activation::Sigmoid => nn::sigmoid(&biased),
            };
            assert_eq!(Executor.run(&g, std::slice::from_ref(&data)), [want], "{act:?}");
        }
    }

    #[test]
    fn non_finite_constant_weights_get_conv2d_refs_bits() {
        // An infinite weight in the padding's reach: the register tiles would
        // make NaNs the plane taps do not, so the constant's flag must be right.
        let w = ConvWorkload::square(1, 2, 3, 6, 3, 1, 1);
        let data = random_uniform(w.input_shape(), 11);
        let mut wt = random_uniform(w.weight_shape(), 12);
        wt.set(&[0, 0, 0, 0], f32::INFINITY);
        let mut g = Graph::new("inf");
        let x = g.add(OpKind::Input { shape: Shape::from(w.input_shape()) }, vec![], "x");
        let k = g.add(OpKind::constant(wt.clone()), vec![], "w");
        let k_gpu = g.add(OpKind::DeviceCopy, vec![k], "w.gpu");
        let c = g.add(OpKind::Conv2d { w, bias: false, act: Activation::None }, vec![x, k_gpu], "c");
        g.mark_output(c);
        let bits = |t: &Tensor| t.as_f32().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let want = bits(&conv2d_ref(&data, &wt, &w));
        for run in 0..2 {
            let got = Executor.run(&g, std::slice::from_ref(&data));
            assert_eq!(bits(&got[0]), want, "run {run}");
        }
    }

    #[test]
    fn device_copies_and_borrowed_values_reach_consumers_and_outputs() {
        let mut g = Graph::new("copies");
        let sh = Shape::from([1, 1, 2, 2]);
        let x = g.add(OpKind::Input { shape: sh.clone() }, vec![], "x");
        let k = g.add(OpKind::constant(Tensor::full(sh, 10.0)), vec![], "k");
        let x_gpu = g.add(OpKind::DeviceCopy, vec![x], "x.gpu");
        let sum = g.add(OpKind::Add, vec![x_gpu, k], "sum");
        let sum_cpu = g.add(OpKind::DeviceCopy, vec![sum], "sum.cpu");
        let sum_back = g.add(OpKind::DeviceCopy, vec![sum_cpu], "sum.gpu");
        let twice = g.add(OpKind::Add, vec![sum_back, sum], "twice");
        for id in [x, k, x_gpu, sum_back, twice] {
            g.mark_output(id);
        }
        let data = Tensor::from_vec([1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let out = Executor.run(&g, std::slice::from_ref(&data));
        assert_eq!(out[0], data);
        assert_eq!(out[1].as_f32(), &[10.0; 4]);
        assert_eq!(out[2], data);
        assert_eq!(out[3].as_f32(), &[11.0, 12.0, 13.0, 14.0]);
        assert_eq!(out[4].as_f32(), &[22.0, 24.0, 26.0, 28.0]);
    }

    #[test]
    fn flatten_head_is_nhwc_order() {
        // 1x2x1x2 tensor: channels (A,B), positions p0,p1
        let x = Tensor::from_vec([1, 2, 1, 2], vec![1.0, 2.0, 10.0, 20.0]);
        let y = flatten_head(&x);
        // NHWC: p0(A,B), p1(A,B)
        assert_eq!(y.as_f32(), &[1.0, 10.0, 2.0, 20.0]);
    }

    #[test]
    fn cls_probs_softmaxes_per_anchor() {
        // 2 anchors, 1 foreground class (per=2)
        let x = Tensor::from_vec([1, 4], vec![0.0, 0.0, 5.0, -5.0]);
        let y = cls_probs(&x, 1);
        assert_eq!(y.shape().dims(), &[1, 2, 2]);
        assert!((y.at(&[0, 0, 0]) - 0.5).abs() < 1e-6);
        assert!(y.at(&[0, 0, 1]) > 0.99); // anchor 1 strongly background
        let s: f32 = y.at(&[0, 0, 1]) + y.at(&[0, 1, 1]);
        assert!((s - 1.0).abs() < 1e-6);
    }

    #[test]
    fn residual_add_and_pool() {
        let mut g = Graph::new("res");
        let sh = Shape::from([1, 2, 4, 4]);
        let x = g.add(OpKind::Input { shape: sh.clone() }, vec![], "x");
        let y = g.add(OpKind::Add, vec![x, x], "double");
        let p = g.add(OpKind::GlobalAvgPool, vec![y], "gap");
        g.mark_output(p);
        let data = Tensor::full([1, 2, 4, 4], 1.5);
        let out = Executor.run(&g, &[data]);
        assert_eq!(out[0].as_f32(), &[3.0, 3.0]);
    }

    #[test]
    fn traced_run_produces_span_per_node() {
        let w = ConvWorkload::square(1, 3, 4, 6, 3, 1, 1);
        let mut g = Graph::new("traced");
        let x = g.add(OpKind::Input { shape: Shape::from(w.input_shape()) }, vec![], "x");
        let wt = g.add(OpKind::constant(random_uniform(w.weight_shape(), 1)), vec![], "w");
        let c = g.add(OpKind::Conv2d { w, bias: false, act: Activation::Relu }, vec![x, wt], "c");
        let p = g.add(OpKind::GlobalAvgPool, vec![c], "gap");
        g.mark_output(p);

        let recorder = unigpu_telemetry::SpanRecorder::new();
        let out = Executor.run_traced(&g, &[random_uniform(w.input_shape(), 2)], &recorder);
        assert_eq!(out.len(), 1);

        let spans = recorder.spans();
        assert_eq!(spans.len(), g.nodes.len(), "one span per executed node");
        assert!(spans
            .iter()
            .any(|s| s.attrs.contains(&("op".to_string(), "conv2d".to_string()))));
        for pair in spans.windows(2) {
            assert!(pair[1].start_us >= pair[0].start_us, "spans start in execution order");
        }
        // untraced runs stay silent
        let before = recorder.len();
        Executor.run(&g, &[random_uniform(w.input_shape(), 3)]);
        assert_eq!(recorder.len(), before);
    }

    #[test]
    #[should_panic(expected = "expects 1 inputs")]
    fn wrong_input_count_panics() {
        let mut g = Graph::new("t");
        g.add(OpKind::Input { shape: Shape::from([1]) }, vec![], "x");
        Executor.run(&g, &[]);
    }
}
