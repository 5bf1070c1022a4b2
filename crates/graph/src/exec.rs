//! Functional graph executor — computes real tensors for every node.
//!
//! # Executor memory
//!
//! A run follows an arena layout (`memory.rs`) in a workspace. Every operator
//! writes its arena slot, which it overwrites whole: a convolution's plane
//! taps zero their slot first, the detectors mark every row invalid before they
//! store their survivors, and every other kernel stores every output. A slot
//! is read only after the step that writes it in the same run, so a
//! workspace may be reused with whatever an earlier run left in it.
//! `DeviceCopy` and `Flatten` name their producer's slot, and a value only a
//! concat reads (a fire module's expand convs, an SSD prior, a YOLO
//! upsample) is written straight into its range of the concat's slot. A
//! convolution that strides or pads copies its input into a scratch slot,
//! and the detectors decode their candidate rows into one. `YoloDetect`'s
//! slot holds as many rows as there are anchor-cells; the workspace keeps
//! how many candidates the run found, and the output is trimmed to
//! `max(candidates, 1)` rows when it is copied out. Weights stay in the
//! graph, inputs with the caller, and the outputs are copied out at the end.
//!
//! [`Executor::run`] and [`Executor::run_traced`] infer shapes and place an
//! arena per call, into a fresh workspace. [`Plan::run`](crate::Plan::run)
//! places its arena from the plan's shapes once and keeps one workspace, so
//! that a warm inference allocates nothing but the tensors it returns and
//! what `box_nms` sorts.

use crate::graph::Graph;
use crate::memory::{is_concat, Arena, Loc, Step, Workspace};
use crate::node::{Activation, Const, Node, OpKind};
use std::ops::Range;
use unigpu_ops::conv::{all_finite, conv2d_prechecked_into};
use unigpu_ops::nn;
use unigpu_ops::vision;
use unigpu_telemetry::SpanRecorder;
use unigpu_tensor::{Shape, Tensor};

/// Executes a graph on concrete inputs.
#[derive(Debug, Default)]
pub struct Executor;

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

/// Bias then activation over the convolution's accumulator `y` of `c`
/// channels, one output plane at a time while it is cache-hot.
fn conv_epilogue(y: &mut [f32], c: usize, plane: usize, bias: Option<&[f32]>, act: Activation) {
    if let Some(b) = bias {
        assert_eq!(b.len(), c, "bias length {} != channels {c}", b.len());
    }
    for (p, plane) in y.chunks_mut(plane).enumerate() {
        if let Some(b) = bias {
            let b = b[p % c];
            plane.iter_mut().for_each(|v| *v += b);
        }
        act_inplace(plane, act);
    }
}

/// The arena around one step's two mutable regions (its output and its
/// scratch): the rest, in up to three read-only pieces, each with its start.
struct Frozen<'a> {
    pieces: [(usize, &'a [f32]); 3],
}

impl<'a> Frozen<'a> {
    fn get(&self, at: usize, len: usize) -> &'a [f32] {
        self.pieces
            .iter()
            .find(|(start, p)| *start <= at && at + len <= start + p.len())
            .map(|(start, p)| &p[at - start..][..len])
            .unwrap_or_else(|| {
                panic!(
                    "arena floats {at}..{} overlap the step's output or scratch",
                    at + len
                )
            })
    }
}

/// Splits `arena` into the disjoint mutable ranges `a` and `b` (either may be
/// empty) and the read-only rest.
fn carve(
    arena: &mut [f32],
    a: Range<usize>,
    b: Range<usize>,
) -> (&mut [f32], &mut [f32], Frozen<'_>) {
    // An empty range sits at the other's end, where it splits nothing.
    let a = if a.is_empty() { b.end..b.end } else { a };
    let b = if b.is_empty() { a.end..a.end } else { b };
    let swap = a.start > b.start;
    let (lo, hi) = if swap { (&b, &a) } else { (&a, &b) };
    assert!(lo.end <= hi.start, "a step's output and scratch overlap");
    let (p0, rest) = arena.split_at_mut(lo.start);
    let (m0, rest) = rest.split_at_mut(lo.len());
    let (p1, rest) = rest.split_at_mut(hi.start - lo.end);
    let (m1, p2) = rest.split_at_mut(hi.len());
    let frozen = Frozen {
        pieces: [(0, &*p0), (lo.end, &*p1), (hi.end, &*p2)],
    };
    if swap {
        (m1, m0, frozen)
    } else {
        (m0, m1, frozen)
    }
}

/// What one step reads: the values of earlier steps, wherever they live.
struct Env<'a> {
    graph: &'a Graph,
    shapes: &'a [Shape],
    layout: &'a Arena,
    inputs: &'a [Tensor],
    arena: Frozen<'a>,
}

impl<'a> Env<'a> {
    fn data(&self, id: usize) -> &'a [f32] {
        match self.layout.locs[id] {
            Loc::Input(k) => self.inputs[k].as_f32(),
            Loc::Const(_) => self.constant(id).expect("a constant node").value().as_f32(),
            Loc::Arena(at) => self.arena.get(at, self.shapes[id].numel()),
        }
    }

    /// The constant node `id` holds or names, if it is one.
    fn constant(&self, id: usize) -> Option<&'a Const> {
        match self.layout.locs[id] {
            Loc::Const(c) => match &self.graph.nodes[c].op {
                OpKind::Constant(k) => Some(k),
                _ => None,
            },
            _ => None,
        }
    }
}

impl Executor {
    /// Run `graph` with `inputs` bound to its `Input` nodes in order.
    /// Returns the tensors of the marked outputs.
    pub fn run(&self, graph: &Graph, inputs: &[Tensor]) -> Vec<Tensor> {
        run_once(graph, inputs, None)
    }

    /// Like [`Executor::run`], recording one wall-clock span per executed
    /// node (name, op kind, output shape) into `recorder`.
    pub fn run_traced(
        &self,
        graph: &Graph,
        inputs: &[Tensor],
        recorder: &SpanRecorder,
    ) -> Vec<Tensor> {
        run_once(graph, inputs, Some(recorder))
    }
}

/// One run of `graph` in an arena placed for it alone.
fn run_once(graph: &Graph, inputs: &[Tensor], recorder: Option<&SpanRecorder>) -> Vec<Tensor> {
    let shapes = graph.infer_shapes();
    let layout = Arena::new(graph, &shapes);
    run_steps(graph, &shapes, &layout, &mut layout.workspace(), inputs, recorder)
}

/// Runs `graph`, whose shapes are `shapes`, in `layout`, in a workspace the
/// layout made (for this run or an earlier one).
pub(crate) fn run_steps(
    graph: &Graph,
    shapes: &[Shape],
    layout: &Arena,
    ws: &mut Workspace,
    inputs: &[Tensor],
    recorder: Option<&SpanRecorder>,
) -> Vec<Tensor> {
    assert_eq!(
        layout.locs.len(),
        graph.nodes.len(),
        "an arena for another graph"
    );
    assert_eq!(
        layout.inputs,
        inputs.len(),
        "graph `{}` expects {} inputs, got {}",
        graph.name,
        layout.inputs,
        inputs.len()
    );
    assert!(
        ws.arena.len() == layout.arena_len && ws.rows.len() == layout.locs.len(),
        "a workspace for another arena"
    );

    for (id, node) in graph.nodes.iter().enumerate() {
        let span_clock = recorder.map(|r| (r.now_us(), std::time::Instant::now()));
        let out = match (layout.steps[id], layout.locs[id]) {
            (Step::Write, Loc::Arena(at)) => at..at + shapes[id].numel(),
            _ => 0..0,
        };
        let scratch = layout.scratch[id].map_or(0..0, |(at, len)| at..at + len);
        let (out, scratch, arena) = carve(&mut ws.arena, out, scratch);
        let env = Env {
            graph,
            shapes,
            layout,
            inputs,
            arena,
        };
        match layout.steps[id] {
            Step::Free => {
                if let (OpKind::Input { shape }, Loc::Input(k)) = (&node.op, layout.locs[id]) {
                    assert_eq!(
                        inputs[k].shape(),
                        shape,
                        "input {k} shape mismatch for `{}`",
                        node.name
                    );
                }
            }
            Step::Write => {
                if let Some(rows) = compute_into(id, node, &env, scratch, out) {
                    ws.rows[id] = rows;
                }
            }
        }
        if let (Some(r), Some((start_us, started))) = (recorder, span_clock) {
            let dims = format!("{:?}", value_shape(graph, shapes, &ws.rows, id).dims());
            r.record(unigpu_telemetry::SpanRecord {
                name: node.name.clone(),
                category: "op".into(),
                start_us,
                dur_us: started.elapsed().as_secs_f64() * 1e6,
                lane: 0,
                attrs: vec![("op".into(), node.op.name().into()), ("shape".into(), dims)],
                trace: None,
            });
        }
    }

    let (_, _, arena) = carve(&mut ws.arena, 0..0, 0..0);
    let env = Env {
        graph,
        shapes,
        layout,
        inputs,
        arena,
    };
    graph
        .outputs
        .iter()
        .map(|&o| {
            let shape = value_shape(graph, shapes, &ws.rows, o);
            let data = env.data(o)[..shape.numel()].to_vec();
            Tensor::from_vec(shape, data)
        })
        .collect()
}

/// The shape of node `id`'s value: shape inference's, but a `YoloDetect`'s
/// (or a copy of it) has the `max(candidates, 1)` rows its step found.
fn value_shape(graph: &Graph, shapes: &[Shape], rows: &[usize], id: usize) -> Shape {
    let mut src = id;
    while graph.nodes[src].op == OpKind::DeviceCopy {
        src = graph.nodes[src].inputs[0];
    }
    match graph.nodes[src].op {
        OpKind::YoloDetect { .. } => Shape::from([1, rows[src].max(1), 6]),
        _ => shapes[id].clone(),
    }
}

/// Computes node `id` into `out`, which it overwrites whole, and returns
/// how many rows it found if that depends on the data.
fn compute_into(
    id: usize,
    node: &Node,
    env: &Env<'_>,
    scratch: &mut [f32],
    out: &mut [f32],
) -> Option<usize> {
    let shapes = env.shapes;
    let get = |i: usize| env.data(node.inputs[i]);
    let shape = |i: usize| &shapes[node.inputs[i]];
    match &node.op {
        OpKind::Conv2d { w, bias, act } => {
            // A constant weight, every model's, is checked once and not per run.
            let finite = env
                .constant(node.inputs[1])
                .map_or_else(|| all_finite(get(1)), Const::all_finite);
            conv2d_prechecked_into(get(0), get(1), finite, w, scratch, out);
            conv_epilogue(
                out,
                w.out_channels,
                w.out_h() * w.out_w(),
                bias.then(|| get(2)),
                *act,
            );
        }
        OpKind::BatchNorm { eps } => {
            let (_, _, h, w) = shape(0).nchw();
            nn::batch_norm_into(get(0), h * w, [get(1), get(2), get(3), get(4)], *eps, out)
        }
        OpKind::Act(a) => {
            out.copy_from_slice(get(0));
            act_inplace(out, *a);
        }
        OpKind::Add => nn::add_into(get(0), get(1), out),
        op if is_concat(op) => {
            // An input the arena hosts has already written its range.
            let n = shapes[id].dim(0);
            let total = out.len() / n;
            let mut offset = 0;
            for &i in &node.inputs {
                if !env.layout.in_place[i] {
                    nn::concat_channels_into(env.data(i), n, offset, total, out);
                }
                offset += shapes[i].numel() / n;
            }
        }
        OpKind::MaxPool { k, s, p } => {
            nn::max_pool2d_into(get(0), shape(0).nchw(), *k, *s, *p, out)
        }
        OpKind::GlobalAvgPool => {
            let (_, _, h, w) = shape(0).nchw();
            nn::global_avg_pool_into(get(0), h * w, out)
        }
        OpKind::Dense { bias, .. } => {
            nn::dense_into(get(0), get(1), shape(0).dim(1), bias.then(|| get(2)), out)
        }
        OpKind::Softmax => {
            nn::softmax_into(get(0), shapes[id].dims().last().copied().unwrap_or(1), out)
        }
        OpKind::UpsampleNearest { scale } => {
            nn::upsample_nearest_into(get(0), shape(0).nchw(), *scale, out)
        }
        OpKind::FlattenHead => flatten_head_into(get(0), shape(0).nchw(), out),
        OpKind::ClsProbs { classes } => cls_probs_into(get(0), shape(0).dims(), *classes, out),
        OpKind::MultiboxPrior { sizes, ratios } => {
            let (_, _, h, w) = shape(0).nchw();
            vision::multibox_prior_into(h, w, sizes, ratios, out)
        }
        OpKind::MultiboxDetection { cfg } => {
            vision::multibox_detection(get(0), get(1), get(2), cfg, scratch, out)
        }
        OpKind::YoloDetect { anchors, strides, classes, conf, nms } => {
            let scales = anchors.iter().zip(strides).enumerate().map(|(k, (a, &stride))| {
                let (_, _, h, w) = shape(k).nchw();
                vision::YoloScale { feat: get(k), hw: (h, w), anchors: a, stride }
            });
            return Some(vision::yolo_detect(scales, *classes, *conf, nms, scratch, out));
        }
        op => unreachable!("`{}` is no step's to compute", op.name()),
    }
    None
}

/// `NCHW → [N, H·W·C]`: transpose to NHWC then flatten (SSD head layout, so
/// per-position predictions stay contiguous).
fn flatten_head_into(src: &[f32], (n, c, h, w): (usize, usize, usize, usize), out: &mut [f32]) {
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
}

/// `[1, total·(classes)] → [1, classes, anchors]` with per-anchor softmax.
/// `classes` here includes background (the ClsProbs op stores `classes` as
/// foreground count; rows are `classes + 1` wide). `d` is the input's dims.
fn cls_probs_into(src: &[f32], d: &[usize], classes: usize, o: &mut [f32]) {
    let per = classes + 1;
    let anchors = d[1] / per;
    let batch = d[0];
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
        let mut y = Tensor::zeros([1, 4]);
        flatten_head_into(x.as_f32(), x.shape().nchw(), y.as_f32_mut());
        // NHWC: p0(A,B), p1(A,B)
        assert_eq!(y.as_f32(), &[1.0, 10.0, 2.0, 20.0]);
    }

    #[test]
    fn cls_probs_softmaxes_per_anchor() {
        // 2 anchors, 1 foreground class (per=2)
        let x = Tensor::from_vec([1, 4], vec![0.0, 0.0, 5.0, -5.0]);
        let mut y = Tensor::zeros([1, 2, 2]);
        cls_probs_into(x.as_f32(), x.shape().dims(), 1, y.as_f32_mut());
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
