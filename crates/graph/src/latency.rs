//! Simulated end-to-end latency estimation for a placed graph.
//!
//! Every operator contributes its cost-model kernel profiles, priced on the
//! cost model of its assigned device; `DeviceCopy` nodes price the §3.1.2
//! CPU↔GPU boundary crossing. The sum over topological order is the model's
//! single-sample inference latency — the number reported in Tables 1–5.

use crate::graph::NodeId;
use crate::node::OpKind;
use crate::passes::{Device, Placement};
use crate::plan::Plan;
use unigpu_device::{CostModel, DeviceSpec, KernelProfile, Platform, TransferProfile, Vendor};
use unigpu_ops::conv::{conv_profile, ConvConfig};
use unigpu_ops::nn::{eltwise_profile, pool_profile, reduction_profile};
use unigpu_ops::vision::multibox::multibox_profiles;
use unigpu_ops::vision::nms::{naive_nms_profile, nms_profiles};
use unigpu_ops::vision::sort::naive_sort_profile;
use unigpu_ops::vision::yolo::yolo_decode_profile;
use unigpu_ops::ConvWorkload;
use unigpu_tensor::Shape;

/// Supplies the convolution schedule per (workload, device) — the tuner's
/// database implements this; the untuned path uses [`FallbackSchedules`].
pub trait ScheduleProvider {
    fn conv_config(&self, w: &ConvWorkload, spec: &DeviceSpec) -> ConvConfig;
}

/// The untuned provider: TVM-style fallback schedules (Table 5's "Before").
#[derive(Debug, Default, Clone, Copy)]
pub struct FallbackSchedules;

impl ScheduleProvider for FallbackSchedules {
    fn conv_config(&self, w: &ConvWorkload, spec: &DeviceSpec) -> ConvConfig {
        ConvConfig::fallback_for(w, spec)
    }
}

/// Latency-estimation switches.
#[derive(Debug, Clone, Copy)]
pub struct LatencyOptions {
    /// Use the §3.1 optimized vision operators (`false` reproduces the
    /// "Before" column of Table 4).
    pub vision_optimized: bool,
}

impl Default for LatencyOptions {
    fn default() -> Self {
        LatencyOptions { vision_optimized: true }
    }
}

/// Per-node timing entry.
#[derive(Debug, Clone)]
pub struct OpTiming {
    pub node: NodeId,
    pub name: String,
    pub op: &'static str,
    pub device: Device,
    pub ms: f64,
}

/// End-to-end latency breakdown.
#[derive(Debug, Clone, Default)]
pub struct LatencyReport {
    pub total_ms: f64,
    pub gpu_ms: f64,
    pub cpu_ms: f64,
    pub transfer_ms: f64,
    pub per_op: Vec<OpTiming>,
}

impl LatencyReport {
    /// Sum of conv/dense kernel time (the "computationally-intensive" part),
    /// started from `+0.0`: `f64`'s `Sum` starts from `-0.0`, which an empty
    /// sum would print as `-0.00`.
    pub fn conv_ms(&self) -> f64 {
        self.per_op
            .iter()
            .filter(|t| t.op == "conv2d" || t.op == "dense")
            .fold(0.0, |ms, t| ms + t.ms)
    }

    /// Sum over vision-specific operators, started from `+0.0` like
    /// [`Self::conv_ms`].
    pub fn vision_ms(&self) -> f64 {
        self.per_op
            .iter()
            .filter(|t| {
                matches!(t.op, "multibox_detection" | "yolo_detect" | "multibox_prior" | "cls_probs")
            })
            .fold(0.0, |ms, t| ms + t.ms)
    }
}

/// CPU realizations of the fallback vision operators: scalar but
/// branch-tolerant (no divergence penalty, tiny launch cost).
fn cpu_vision_profiles(anchors: usize, classes: usize) -> Vec<KernelProfile> {
    let n = anchors.max(1) as f64;
    vec![
        KernelProfile::new("cpu/sort+nms", anchors.max(1))
            .workgroup(1)
            .flops(n.log2().max(1.0) * 4.0 + n.sqrt() * 8.0 + classes as f64)
            .reads(32.0)
            .writes(24.0)
            .simd(0.5)
            .coalesce(0.8),
    ]
}

/// Profiles of one operator instance given its input/output shapes.
fn op_profiles(
    op: &OpKind,
    in_shapes: &[&Shape],
    out_shape: &Shape,
    spec: &DeviceSpec,
    provider: &dyn ScheduleProvider,
    opts: &LatencyOptions,
    device: Device,
) -> Vec<KernelProfile> {
    let out_n = out_shape.numel();
    match op {
        OpKind::Input { .. } | OpKind::Constant(_) | OpKind::DeviceCopy => vec![],
        OpKind::Conv2d { w, bias, act } => {
            let mut p = conv_profile(w, &provider.conv_config(w, spec), spec);
            // fused epilogue adds a few flops but no extra launch
            if *bias {
                p.flops_per_item += 1.0;
            }
            if !matches!(act, crate::node::Activation::None) {
                p.flops_per_item += 2.0;
            }
            vec![p]
        }
        OpKind::Dense { units, .. } => {
            let in_feat = in_shapes[0].dim(1);
            let batch = in_shapes[0].dim(0);
            let w = ConvWorkload::square(batch, in_feat, *units, 1, 1, 1, 0);
            vec![conv_profile(&w, &provider.conv_config(&w, spec), spec)]
        }
        OpKind::BatchNorm { .. } => vec![eltwise_profile("batch_norm", out_n, 4.0)],
        OpKind::Act(_) => vec![eltwise_profile("activation", out_n, 2.0)],
        OpKind::Add => vec![eltwise_profile("add", out_n, 1.0).reads(8.0)],
        OpKind::Concat
        | OpKind::Flatten
        | OpKind::FlattenHead
        | OpKind::ConcatFlat
        | OpKind::ConcatAnchors
        | OpKind::UpsampleNearest { .. } => vec![eltwise_profile(op.name(), out_n, 0.0)],
        OpKind::MaxPool { k, .. } => {
            vec![pool_profile(op.name(), out_n, k * k)]
        }
        OpKind::GlobalAvgPool => {
            let (_, _, h, w) = in_shapes[0].nchw();
            vec![reduction_profile("global_avg_pool", out_n, h * w)]
        }
        OpKind::Softmax => {
            let cols = *in_shapes[0].dims().last().unwrap();
            vec![reduction_profile("softmax", out_n / cols.max(1), cols)]
        }
        OpKind::ClsProbs { classes } => {
            let anchors = out_shape.dim(2);
            vec![reduction_profile("cls_probs", anchors, classes + 1)]
        }
        OpKind::MultiboxPrior { .. } => vec![eltwise_profile("multibox_prior", out_n, 4.0)],
        OpKind::MultiboxDetection { .. } => {
            let anchors = in_shapes[2].dim(1);
            let classes = in_shapes[0].dim(1);
            if device == Device::Cpu {
                cpu_vision_profiles(anchors, classes)
            } else if opts.vision_optimized {
                multibox_profiles(anchors, classes, spec)
            } else {
                // naive GPU path: divergent decode + one global scalar sort +
                // comparison-style NMS
                vec![
                    KernelProfile::new("multibox/decode_naive", anchors)
                        .workgroup(64)
                        .flops(classes as f64 + 20.0)
                        .reads(4.0 * (classes as f64 + 8.0))
                        .writes(24.0)
                        .simd(0.4)
                        .coalesce(0.4),
                    // the naive code sorts the whole candidate array at once
                    naive_sort_profile(&[anchors]),
                    naive_nms_profile(anchors, classes),
                ]
            }
        }
        OpKind::YoloDetect { anchors, classes, .. } => {
            let mut v = Vec::new();
            let mut total_cells = 0usize;
            for (s, a) in in_shapes.iter().zip(anchors) {
                let (_, _, h, w) = s.nchw();
                total_cells += a.len() * h * w;
            }
            if device == Device::Cpu {
                return cpu_vision_profiles(total_cells, *classes);
            }
            if opts.vision_optimized {
                v.push(yolo_decode_profile(total_cells, *classes));
                v.extend(nms_profiles(total_cells, spec));
            } else {
                // naive: divergent decode (every cell branches), scalar sort
                // over three unequal scales, branching NMS
                v.push(
                    yolo_decode_profile(total_cells, *classes)
                        .simd(0.25)
                        .divergence(0.3)
                        .coalesce(0.25),
                );
                v.push(naive_sort_profile(&[total_cells]));
                // the naive YOLO NMS was class-agnostic: all-pairs checks
                v.push(naive_nms_profile(total_cells, 1));
            }
            v
        }
    }
}

/// Span lanes of a traced estimate (Chrome `tid`s).
pub const LANE_GPU: u32 = 0;
/// CPU-fallback lane.
pub const LANE_CPU: u32 = 1;
/// CPU↔GPU transfer lane (§3.1.2 boundary crossings).
pub const LANE_TRANSFER: u32 = 2;

/// Estimate the single-sample latency of a placed graph on a platform: the
/// report of its [`Plan`].
pub fn estimate_latency(
    placement: &Placement,
    platform: &Platform,
    provider: &dyn ScheduleProvider,
    opts: &LatencyOptions,
) -> LatencyReport {
    Plan::new(placement, platform, provider, opts).report
}

/// Prices every node of `placement`, whose shapes are `shapes`, on its
/// device: per node its device and ms, in node order, and the report they
/// sum to in that order.
pub(crate) fn price(
    placement: &Placement,
    shapes: &[Shape],
    platform: &Platform,
    provider: &dyn ScheduleProvider,
    opts: &LatencyOptions,
) -> (Vec<(Device, f64)>, LatencyReport) {
    let g = &placement.graph;
    let gpu = CostModel::new(platform.gpu.clone());
    let cpu = CostModel::new(platform.cpu.clone());

    let mut report = LatencyReport::default();
    let mut steps = Vec::with_capacity(g.nodes.len());

    for (id, node) in g.nodes.iter().enumerate() {
        let device = placement.device[id];
        let ms = if let OpKind::DeviceCopy = node.op {
            let bytes = shapes[node.inputs[0]].numel() * 4;
            let t = gpu.transfer_time_ms(&TransferProfile { bytes });
            report.transfer_ms += t;
            t
        } else {
            let (model, spec) = match device {
                Device::Gpu => (&gpu, &platform.gpu),
                Device::Cpu => (&cpu, &platform.cpu),
            };
            let in_shapes: Vec<&Shape> = node.inputs.iter().map(|&i| &shapes[i]).collect();
            let profiles =
                op_profiles(&node.op, &in_shapes, &shapes[id], spec, provider, opts, device);
            let t: f64 = profiles.iter().map(|p| model.kernel_time_ms(p)).sum();
            match device {
                Device::Gpu => report.gpu_ms += t,
                Device::Cpu => report.cpu_ms += t,
            }
            t
        };
        steps.push((device, ms));
        report.total_ms += ms;
        if ms > 0.0 {
            report.per_op.push(OpTiming {
                node: id,
                name: node.name.clone(),
                op: node.op.name(),
                device,
                ms,
            });
        }
    }
    // Vendor check: CUDA outperforms OpenCL on Nvidia (§2.1) is already
    // encoded in launch overheads; nothing extra here.
    debug_assert!(platform.gpu.vendor != Vendor::Generic);
    (steps, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::node::Activation;
    use crate::passes::{place, PlacementPolicy};
    use unigpu_tensor::{Shape, Tensor};

    fn conv_graph(n_convs: usize) -> Graph {
        let mut g = Graph::new("chain");
        let w = ConvWorkload::square(1, 64, 64, 28, 3, 1, 1);
        let mut x = g.add(OpKind::Input { shape: Shape::from(w.input_shape()) }, vec![], "x");
        for i in 0..n_convs {
            let k = g.add(
                OpKind::constant(Tensor::zeros(w.weight_shape())),
                vec![],
                format!("w{i}"),
            );
            x = g.add(
                OpKind::Conv2d { w, bias: false, act: Activation::Relu },
                vec![x, k],
                format!("conv{i}"),
            );
        }
        g.mark_output(x);
        g
    }

    #[test]
    fn latency_scales_with_depth() {
        let p1 = place(&conv_graph(2), PlacementPolicy::AllGpu);
        let p2 = place(&conv_graph(8), PlacementPolicy::AllGpu);
        let plat = Platform::deeplens();
        let r1 = estimate_latency(&p1, &plat, &FallbackSchedules, &LatencyOptions::default());
        let r2 = estimate_latency(&p2, &plat, &FallbackSchedules, &LatencyOptions::default());
        assert!(r2.total_ms > 3.0 * r1.total_ms);
        assert!(r1.cpu_ms == 0.0 && r1.transfer_ms == 0.0);
    }

    #[test]
    fn gpu_beats_cpu_on_conv_heavy_graphs_once_tuned() {
        // The paper's §1 FLOPs argument assumes reasonable schedules on both
        // sides; the *untuned* CUDA fallback can genuinely lose to the CPU
        // (which is Table 5's whole point), so compare tuned-quality
        // schedules here.
        let g = conv_graph(6);
        let plat = Platform::jetson_nano();
        let gpu = estimate_latency(
            &place(&g, PlacementPolicy::AllGpu),
            &plat,
            &TunedQuality,
            &LatencyOptions::default(),
        );
        let cpu = estimate_latency(
            &place(&g, PlacementPolicy::AllCpu),
            &plat,
            &TunedQuality,
            &LatencyOptions::default(),
        );
        assert!(cpu.total_ms > gpu.total_ms, "cpu {} vs gpu {}", cpu.total_ms, gpu.total_ms);
    }

    /// A hand-written good-quality provider used by several tests.
    struct TunedQuality;
    impl ScheduleProvider for TunedQuality {
        fn conv_config(&self, w: &ConvWorkload, spec: &DeviceSpec) -> ConvConfig {
            let mut c = ConvConfig {
                tile_oc: 8.min(w.out_channels),
                tile_oh: 2,
                tile_ow: 4,
                vector_width: spec.simd_width.min(8),
                unroll: 4,
                workgroup: (32, 4),
                use_subgroup: spec.has_subgroups,
                use_slm: false,
            };
            if spec.vendor == Vendor::Nvidia {
                c.vector_width = 1;
                c.tile_oc = 4.min(w.out_channels);
                c.tile_oh = 1;
                c.tile_ow = 2;
            }
            c
        }
    }

    #[test]
    fn better_schedule_lowers_latency() {
        struct Tuned;
        impl ScheduleProvider for Tuned {
            fn conv_config(&self, w: &ConvWorkload, spec: &DeviceSpec) -> ConvConfig {
                let mut c = ConvConfig {
                    tile_oc: 8.min(w.out_channels),
                    tile_oh: 2,
                    tile_ow: 4,
                    vector_width: spec.simd_width.min(8),
                    unroll: 4,
                    workgroup: (32, 4),
                    use_subgroup: spec.has_subgroups,
                    use_slm: false,
                };
                if spec.vendor == Vendor::Nvidia {
                    // Maxwell prefers parallelism over giant register tiles.
                    c.vector_width = 1;
                    c.tile_oc = 4.min(w.out_channels);
                    c.tile_oh = 1;
                    c.tile_ow = 2;
                }
                c
            }
        }
        let g = conv_graph(4);
        for plat in Platform::all() {
            let placed = place(&g, PlacementPolicy::AllGpu);
            let before =
                estimate_latency(&placed, &plat, &FallbackSchedules, &LatencyOptions::default());
            let after = estimate_latency(&placed, &plat, &Tuned, &LatencyOptions::default());
            assert!(
                after.total_ms < before.total_ms,
                "{}: tuned {} must beat fallback {}",
                plat.name,
                after.total_ms,
                before.total_ms
            );
        }
    }

    #[test]
    fn report_partitions_are_consistent() {
        let g = conv_graph(3);
        let plat = Platform::aisage();
        let r = estimate_latency(
            &place(&g, PlacementPolicy::AllGpu),
            &plat,
            &FallbackSchedules,
            &LatencyOptions::default(),
        );
        let sum: f64 = r.per_op.iter().map(|t| t.ms).sum();
        assert!((sum - r.total_ms).abs() < 1e-9);
        assert!((r.gpu_ms + r.cpu_ms + r.transfer_ms - r.total_ms).abs() < 1e-9);
        assert!(r.conv_ms() > 0.0);
    }
}
