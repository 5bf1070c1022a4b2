//! Graph node and operator definitions.

use std::sync::Arc;
use unigpu_ops::vision::multibox::MultiboxConfig;
use unigpu_ops::vision::nms::NmsConfig;
use unigpu_ops::ConvWorkload;
use unigpu_tensor::{Shape, Tensor};

/// Activation fused into (or applied after) an operator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Activation {
    None,
    Relu,
    LeakyRelu(f32),
    Sigmoid,
}

/// The operator set: everything the five evaluation model families need.
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    /// Graph input placeholder.
    Input { shape: Shape },
    /// Baked-in parameter (weights, BN statistics, anchors). Shared: cloning
    /// a graph, or rewriting it in a pass, copies the pointer, never the
    /// weights, so every graph derived from one model holds the same tensors.
    Constant(Arc<Tensor>),
    /// 2-d convolution; inputs `(data, weight[, bias])`. `act` is the fused
    /// activation produced by the fusion pass (§3.2.3).
    Conv2d { w: ConvWorkload, bias: bool, act: Activation },
    /// Inference batch norm; inputs `(data, gamma, beta, mean, var)`.
    BatchNorm { eps: f32 },
    /// Standalone activation.
    Act(Activation),
    /// Elementwise sum (residual connections); inputs `(a, b)`.
    Add,
    /// Channel concat over `NCHW` inputs.
    Concat,
    MaxPool { k: usize, s: usize, p: usize },
    AvgPool { k: usize, s: usize, p: usize },
    GlobalAvgPool,
    /// Fully connected; inputs `(data, weight[, bias])`.
    Dense { units: usize, bias: bool },
    /// `NCHW → N×(CHW)`.
    Flatten,
    /// Row softmax over the last axis.
    Softmax,
    UpsampleNearest { scale: usize },
    /// SSD head plumbing: `NCHW → [N, H·W·C]` (transpose-to-NHWC + flatten).
    FlattenHead,
    /// Rank-2 concat along axis 1.
    ConcatFlat,
    /// `[1, total·cls] → [1, cls, total]` with per-anchor softmax.
    ClsProbs { classes: usize },
    /// SSD anchor generation from a feature map's spatial shape.
    MultiboxPrior { sizes: Vec<f32>, ratios: Vec<f32> },
    /// Rank-3 concat along axis 1 (anchor lists).
    ConcatAnchors,
    /// SSD decode + NMS; inputs `(cls_probs, loc_preds, anchors)`.
    MultiboxDetection { cfg: MultiboxConfig },
    /// YOLOv3 decode + NMS over the three scale outputs.
    YoloDetect {
        anchors: Vec<Vec<(f32, f32)>>,
        strides: Vec<usize>,
        classes: usize,
        conf: f32,
        nms: NmsConfig,
    },
    /// CPU↔GPU boundary marker inserted by the placement pass (§3.1.2).
    DeviceCopy,
}

impl OpKind {
    /// A `Constant` node owning `t`.
    pub fn constant(t: Tensor) -> OpKind {
        OpKind::Constant(Arc::new(t))
    }

    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            OpKind::Input { .. } => "input",
            OpKind::Constant(_) => "const",
            OpKind::Conv2d { .. } => "conv2d",
            OpKind::BatchNorm { .. } => "batch_norm",
            OpKind::Act(_) => "activation",
            OpKind::Add => "add",
            OpKind::Concat => "concat",
            OpKind::MaxPool { .. } => "max_pool",
            OpKind::AvgPool { .. } => "avg_pool",
            OpKind::GlobalAvgPool => "global_avg_pool",
            OpKind::Dense { .. } => "dense",
            OpKind::Flatten => "flatten",
            OpKind::Softmax => "softmax",
            OpKind::UpsampleNearest { .. } => "upsample",
            OpKind::FlattenHead => "flatten_head",
            OpKind::ConcatFlat => "concat_flat",
            OpKind::ClsProbs { .. } => "cls_probs",
            OpKind::MultiboxPrior { .. } => "multibox_prior",
            OpKind::ConcatAnchors => "concat_anchors",
            OpKind::MultiboxDetection { .. } => "multibox_detection",
            OpKind::YoloDetect { .. } => "yolo_detect",
            OpKind::DeviceCopy => "device_copy",
        }
    }

    /// Vision-specific control-flow operators — the §3.1.2 fallback
    /// candidates ("a list of known operators that are performant on GPUs";
    /// these are the ones *not* on it).
    pub fn is_vision_control(&self) -> bool {
        matches!(
            self,
            OpKind::MultiboxDetection { .. } | OpKind::YoloDetect { .. }
        )
    }

    /// Operators that carry no runtime work (metadata / parameters).
    pub fn is_free(&self) -> bool {
        matches!(self, OpKind::Input { .. } | OpKind::Constant(_))
    }
}

/// One graph node.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    pub op: OpKind,
    /// Producer node ids, in operator-argument order.
    pub inputs: Vec<usize>,
    /// Debug name (layer path, e.g. `"stage2.unit1.conv2"`).
    pub name: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vision_control_classification() {
        assert!(OpKind::MultiboxDetection { cfg: MultiboxConfig::default() }.is_vision_control());
        assert!(!OpKind::Add.is_vision_control());
        assert!(!OpKind::Concat.is_vision_control());
    }

    #[test]
    fn free_ops() {
        assert!(OpKind::Input { shape: Shape::from([1, 3, 4, 4]) }.is_free());
        assert!(OpKind::constant(Tensor::zeros([1])).is_free());
        assert!(!OpKind::Softmax.is_free());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(OpKind::GlobalAvgPool.name(), "global_avg_pool");
        assert_eq!(OpKind::DeviceCopy.name(), "device_copy");
    }
}
