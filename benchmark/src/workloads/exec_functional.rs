//! `exec_functional`: `CompiledModel::run` on SqueezeNet1.0 with a seeded
//! input, checked against `Executor::run` on the *unoptimized* graph, plus
//! the four §3 vision operators at SSD-300 sizes. The only workload where
//! `ops` and `device::exec` compute real tensors; every other workload only
//! prices them, so kernel work shows here and nowhere else.
//!
//! One operation is one inference followed by one pass of the four operators.

use super::{speedup_vs_vendor, zoo_entry, SimCell};
use crate::gen::Rng;
use crate::harness::{mean_ns, Ctx, RepCost};
use crate::trace::Tracer;
use unigpu::device::{dispatch_chunks, Platform};
use unigpu::engine::{CompiledModel, Engine};
use unigpu::graph::{Executor, Graph};
use unigpu::ops::conv::conv2d_ref;
use unigpu::ops::nn::dense;
use unigpu::ops::vision::{box_nms, prefix_sum, roi_align, segmented_argsort, NmsConfig};
use unigpu::ops::ConvWorkload;
use unigpu::telemetry::SpanRecorder;
use unigpu::tensor::layout::nchw_to_nchwc;
use unigpu::tensor::Tensor;

/// Input edge. The paper evaluates at 224, where one reference-kernel
/// inference takes 2.7 s here and a run would hold three reps; 128 gives a
/// run about ten. The traced run, which repeats the inference for its probes,
/// uses 96.
const INPUT: usize = 128;
const TRACED_INPUT: usize = 96;
/// Largest |difference| allowed between optimized and reference outputs.
const TOLERANCE: f32 = 1e-4;

/// SSD-300 sizes: 8732 anchors, 20 foreground classes, top 400 into NMS,
/// 300 regions pooled 7×7 from a 256-channel 38×38 feature map.
const ANCHORS: usize = 8732;
const CLASSES: usize = 20;
const NMS_TOPK: usize = 400;
const ROIS: usize = 300;

struct VisionInputs {
    scores: Vec<f32>,
    offsets: Vec<usize>,
    boxes: Tensor,
    features: Tensor,
    rois: Tensor,
}

fn uniform(rng: &mut Rng, n: usize, lo: f64, hi: f64) -> Vec<f32> {
    (0..n).map(|_| rng.range(lo, hi) as f32).collect()
}

fn vision_inputs(seed: u64) -> VisionInputs {
    let mut rng = Rng::new(seed, 5);
    let scores = uniform(&mut rng, ANCHORS * CLASSES, 0.0, 1.0);
    let offsets = (0..=CLASSES).map(|c| c * ANCHORS).collect();
    let mut rows = Vec::with_capacity(ANCHORS * 6);
    for _ in 0..ANCHORS {
        let (x, y) = (rng.range(0.0, 0.8), rng.range(0.0, 0.8));
        let (w, h) = (rng.range(0.05, 0.2), rng.range(0.05, 0.2));
        rows.extend([
            rng.below(CLASSES) as f32,
            rng.unit() as f32,
            x as f32,
            y as f32,
            (x + w) as f32,
            (y + h) as f32,
        ]);
    }
    let mut roi_rows = Vec::with_capacity(ROIS * 5);
    for _ in 0..ROIS {
        let (x, y) = (rng.range(0.0, 28.0), rng.range(0.0, 28.0));
        roi_rows.extend([
            0.0,
            x as f32,
            y as f32,
            (x + rng.range(2.0, 9.0)) as f32,
            (y + rng.range(2.0, 9.0)) as f32,
        ]);
    }
    VisionInputs {
        scores,
        offsets,
        boxes: Tensor::from_vec([1, ANCHORS, 6], rows),
        features: Tensor::from_vec(
            [1, 256, 38, 38],
            uniform(&mut rng, 256 * 38 * 38, -1.0, 1.0),
        ),
        rois: Tensor::from_vec([ROIS, 5], roi_rows),
    }
}

/// One pass of the four operators, each a timed part of `cost`; returns a
/// checksum so nothing is elided.
fn vision_pass(tracer: &Tracer, cost: &mut RepCost, v: &VisionInputs) -> f64 {
    let order = cost.part(|| {
        tracer.span("ops.argsort", || {
            segmented_argsort(&v.scores, &v.offsets, 256)
        })
    });
    let scan = cost.part(|| tracer.span("ops.scan", || prefix_sum(&v.scores[..ANCHORS], 256)));
    let cfg = NmsConfig {
        iou_threshold: 0.45,
        valid_thresh: 0.01,
        topk: Some(NMS_TOPK),
        force_suppress: false,
    };
    let kept = cost.part(|| tracer.span("ops.nms", || box_nms(&v.boxes, &cfg)));
    let pooled = cost.part(|| {
        tracer.span("ops.roi_align", || {
            roi_align(&v.features, &v.rois, 7, 1.0, 2)
        })
    });
    order[0] as f64 + scan[ANCHORS - 1] as f64 + kept.as_f32()[1] as f64 + pooled.as_f32()[0] as f64
}

struct Setup {
    model: Graph,
    compiled: CompiledModel,
    input: Tensor,
    vision: VisionInputs,
}

fn setup(tracer: &Tracer, seed: u64, edge: usize) -> Setup {
    let model = tracer.span("models.build", || unigpu::models::squeezenet(1, edge, 1000));
    let compiled = tracer.span("engine.compile", || {
        Engine::builder()
            .platform(Platform::deeplens())
            .persist(false)
            .build()
            .compile(&model)
    });
    let shape = compiled.input_shape();
    let input = Tensor::from_vec(
        shape.clone(),
        uniform(&mut Rng::new(seed, 4), shape.numel(), -1.0, 1.0),
    );
    Setup {
        model,
        compiled,
        input,
        vision: vision_inputs(seed),
    }
}

fn max_abs_diff(a: &[Tensor], b: &[Tensor]) -> f32 {
    assert_eq!(a.len(), b.len(), "output count differs");
    a.iter()
        .zip(b)
        .flat_map(|(x, y)| {
            assert_eq!(x.shape(), y.shape(), "output shape differs");
            x.as_f32()
                .iter()
                .zip(y.as_f32())
                .map(|(p, q)| (p - q).abs())
        })
        .fold(0.0, f32::max)
}

pub fn run(ctx: &mut Ctx, tracer: &Tracer) {
    let (seed, edge) = (ctx.seed, if ctx.traced { TRACED_INPUT } else { INPUT });
    let s = ctx.setup(|| setup(tracer, seed, edge));
    // Priced after set-up: it is the benchmark's bookkeeping, not start-up work.
    let cell = SimCell::price(
        &s.compiled,
        &s.model,
        &zoo_entry("SqueezeNet1.0"),
        &Platform::deeplens(),
    );
    println!(
        "SqueezeNet1.0 at {edge}x{edge} on DeepLens: {:.3} sim ms per sample",
        cell.ours_ms
    );

    // The reference is the executor on the graph no pass has touched.
    let reference = Executor.run(&s.model, std::slice::from_ref(&s.input));
    ctx.check(
        reference
            .iter()
            .all(|t| t.as_f32().iter().all(|v| v.is_finite())),
        "reference output is not finite",
    );

    let mut checksum = None;
    ctx.measure(tracer, |ctx, tracer| {
        let mut cost = RepCost {
            ops: 1,
            ..RepCost::default()
        };
        let out = cost.part(|| {
            tracer.span("engine.run", || {
                s.compiled.run(std::slice::from_ref(&s.input))
            })
        });
        let sum = vision_pass(tracer, &mut cost, &s.vision);
        let diff = max_abs_diff(&out, &reference);
        ctx.check(
            diff <= TOLERANCE,
            format!("optimized output differs from the reference by {diff:e}"),
        );
        ctx.check(
            *checksum.get_or_insert(sum) == sum,
            "vision operators are not deterministic",
        );
        cost
    });
    ctx.ops(1, 0);
    ctx.set(
        "served_ratio",
        (ctx.attempted() - ctx.failed()) as f64 / ctx.attempted() as f64,
    );
    ctx.set("sim_p50_ms", cell.ours_ms);
    ctx.set("sim_p99_ms", cell.ours_ms);
    ctx.set("sim_goodput_rps", cell.batch8_rps);
    ctx.set(
        "sim_speedup_vs_vendor",
        speedup_vs_vendor(std::slice::from_ref(&cell)),
    );

    if ctx.traced {
        ctx.set("models.build_ms", tracer.mean_ns("models.build") / 1e6);
        ctx.set(
            "engine.compile_cold_ms",
            tracer.mean_ns("engine.compile") / 1e6,
        );
        ctx.set("graph.exec_ms", tracer.mean_ns("engine.run") / 1e6);
        ctx.set("ops.argsort_ms", tracer.mean_ns("ops.argsort") / 1e6);
        ctx.set("ops.scan_ms", tracer.mean_ns("ops.scan") / 1e6);
        ctx.set("ops.nms_ms", tracer.mean_ns("ops.nms") / 1e6);
        ctx.set("ops.roi_align_ms", tracer.mean_ns("ops.roi_align") / 1e6);
        kernel_probes(ctx, tracer, &s);
    }
}

/// Single kernels at fixed shapes, and where an inference spends its time.
fn kernel_probes(ctx: &mut Ctx, tracer: &Tracer, s: &Setup) {
    let mut rng = Rng::new(ctx.seed, 6);
    // ResNet's 64 -> 64 3x3 at 56x56.
    let w = ConvWorkload::square(1, 64, 64, 56, 3, 1, 1);
    let data = Tensor::from_vec(
        w.input_shape(),
        uniform(&mut rng, w.input_shape().iter().product(), -1.0, 1.0),
    );
    let weight = Tensor::from_vec(
        w.weight_shape(),
        uniform(&mut rng, w.weight_shape().iter().product(), -1.0, 1.0),
    );
    tracer.span("ops.conv_ref", || conv2d_ref(&data, &weight, &w));
    ctx.set("ops.conv_ref_ms", tracer.mean_ns("ops.conv_ref") / 1e6);

    let x = Tensor::from_vec([1, 2048], uniform(&mut rng, 2048, -1.0, 1.0));
    let fc = Tensor::from_vec([1000, 2048], uniform(&mut rng, 1000 * 2048, -1.0, 1.0));
    tracer.span("ops.dense", || dense(&x, &fc, None));
    ctx.set("ops.dense_ms", tracer.mean_ns("ops.dense") / 1e6);

    tracer.span("tensor.layout_transform", || nchw_to_nchwc(&data, 8));
    ctx.set(
        "tensor.layout_transform_ms",
        tracer.mean_ns("tensor.layout_transform") / 1e6,
    );

    // Work-group dispatch with an empty kernel: what `device::exec` adds per group.
    tracer.span("device.dispatch", || {
        let mut out = vec![0.0f32; 1 << 20];
        let groups = out.len() / 256;
        let ns = mean_ns(20, || {
            dispatch_chunks(&mut out, 256, |g, chunk| chunk[0] = g as f32)
        });
        ctx.set("device.dispatch_ns_per_group", ns / groups as f64);
    });

    // Share of one inference spent in convolutions, from the executor's own
    // per-node spans.
    let recorder = SpanRecorder::new();
    tracer.span("graph.exec_traced", || {
        Executor.run_traced(
            &s.compiled.placement().graph,
            std::slice::from_ref(&s.input),
            &recorder,
        )
    });
    let (mut conv_us, mut total_us) = (0.0, 0.0);
    for span in recorder.spans() {
        total_us += span.dur_us;
        if span
            .attrs
            .iter()
            .any(|(k, v)| k == "op" && v.starts_with("conv"))
        {
            conv_us += span.dur_us;
        }
    }
    ctx.set("ops.conv_share", conv_us / total_us);
}
