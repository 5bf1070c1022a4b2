//! Graph node and operator definitions.

use std::fmt;
use std::sync::{Arc, OnceLock};
use unigpu_ops::conv::all_finite;
use unigpu_ops::nn::fold_batch_norm;
use unigpu_ops::vision::multibox::MultiboxConfig;
use unigpu_ops::vision::nms::NmsConfig;
use unigpu_ops::ConvWorkload;
use unigpu_tensor::{Shape, Tensor};

/// The value of a `Constant` node. Cloning copies a pointer, so every graph
/// derived from the one that introduced a constant shares it. A constant is
/// either held or derived: a batch-norm fold computes its weight and bias the
/// first time either is read, so passes, placement and pricing, which read
/// [`Const::shape`] only, never touch the weights. What a kernel would
/// otherwise re-derive from the value on every call ([`Const::all_finite`])
/// is likewise computed on first use and kept.
#[derive(Clone)]
pub struct Const(Arc<Inner>);

struct Inner {
    repr: Repr,
    /// `all_finite(value)`, once asked.
    finite: OnceLock<bool>,
}

enum Repr {
    Value(Tensor),
    /// The weight (`bias == false`) or the bias of `fold`.
    Folded { fold: Arc<BnFold>, bias: bool, shape: Shape },
}

/// `fold_batch_norm`'s arguments, and its result once first read.
struct BnFold {
    weight: Const,
    bias: Option<Const>,
    /// gamma, beta, mean, var
    bn: [Const; 4],
    eps: f32,
    out: OnceLock<(Tensor, Tensor)>,
}

impl Const {
    pub(crate) fn new(t: Tensor) -> Const {
        Const::from_repr(Repr::Value(t))
    }

    fn from_repr(repr: Repr) -> Const {
        Const(Arc::new(Inner { repr, finite: OnceLock::new() }))
    }

    /// The `(weight, bias)` of a convolution with an inference batch norm
    /// folded in. Both share one fold, which runs when either is first read.
    pub(crate) fn fold_batch_norm(
        weight: &Const,
        bias: Option<&Const>,
        bn: [&Const; 4],
        eps: f32,
    ) -> (Const, Const) {
        let oc = weight.shape().dim(0);
        let fold = Arc::new(BnFold {
            weight: weight.clone(),
            bias: bias.cloned(),
            bn: bn.map(Const::clone),
            eps,
            out: OnceLock::new(),
        });
        let output =
            |bias, shape| Const::from_repr(Repr::Folded { fold: Arc::clone(&fold), bias, shape });
        (output(false, weight.shape().clone()), output(true, Shape::from([oc])))
    }

    pub fn shape(&self) -> &Shape {
        match &self.0.repr {
            Repr::Value(t) => t.shape(),
            Repr::Folded { shape, .. } => shape,
        }
    }

    /// The tensor, computed on the first read of a derived constant.
    pub fn value(&self) -> &Tensor {
        match &self.0.repr {
            Repr::Value(t) => t,
            Repr::Folded { fold, bias, .. } => {
                let (w, b) = fold.out.get_or_init(|| {
                    let [gamma, beta, mean, var] = &fold.bn;
                    fold_batch_norm(
                        fold.weight.value(),
                        fold.bias.as_ref().map(Const::value),
                        gamma.value(),
                        beta.value(),
                        mean.value(),
                        var.value(),
                        fold.eps,
                    )
                });
                if *bias {
                    b
                } else {
                    w
                }
            }
        }
    }

    /// Whether no element of the value is infinite or NaN: a convolution
    /// with such weights cannot take the register tiles. Scanned on the first
    /// ask, which reads (and for a fold computes) the value.
    pub(crate) fn all_finite(&self) -> bool {
        *self.0.finite.get_or_init(|| all_finite(self.value().as_f32()))
    }

    /// True when `a` and `b` are clones of one constant.
    pub fn ptr_eq(a: &Const, b: &Const) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl PartialEq for Const {
    fn eq(&self, other: &Const) -> bool {
        Const::ptr_eq(self, other) || self.value() == other.value()
    }
}

impl fmt::Debug for Const {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Const({:?})", self.shape().dims())
    }
}

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
    /// a graph, or rewriting it in a pass, copies a pointer, never the
    /// weights, so every graph derived from one model holds the same
    /// [`Const`]s. Folded batch-norm weights are computed on first read.
    Constant(Const),
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
        OpKind::Constant(Const::new(t))
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

    fn fold_cell(c: &Const) -> &OnceLock<(Tensor, Tensor)> {
        match &c.0.repr {
            Repr::Folded { fold, .. } => &fold.out,
            Repr::Value(_) => panic!("not a folded constant"),
        }
    }

    #[test]
    fn finiteness_is_scanned_on_the_first_ask_and_kept() {
        let held = Const::new(Tensor::from_vec([3], vec![1.0, f32::INFINITY, 2.0]));
        let clone = held.clone();
        assert!(held.0.finite.get().is_none(), "nothing asked yet");
        assert!(!held.all_finite());
        assert_eq!(clone.0.finite.get(), Some(&false), "clones share the answer");

        // a folded weight is computed by the first ask, and is finite
        let (w, _) = Const::fold_batch_norm(
            &Const::new(Tensor::full([2, 1, 1, 1], 0.5)),
            None,
            [1.0, 0.0, 0.0, 1.0].map(|v| Const::new(Tensor::full([2], v))).each_ref(),
            1e-3,
        );
        assert!(fold_cell(&w).get().is_none());
        assert!(w.all_finite());
        assert!(fold_cell(&w).get().is_some(), "the ask read the fold");
    }

    #[test]
    fn a_folded_constant_computes_on_first_read_only() {
        use unigpu_tensor::init::random_uniform;
        let (weight, bias) = (random_uniform([4, 3, 3, 3], 1), random_uniform([4], 2));
        let bn: Vec<Tensor> = (3..7).map(|seed| random_uniform([4], seed)).collect();
        let bn_const: Vec<Const> = bn.iter().cloned().map(Const::new).collect();
        let (w, b) = Const::fold_batch_norm(
            &Const::new(weight.clone()),
            Some(&Const::new(bias.clone())),
            [&bn_const[0], &bn_const[1], &bn_const[2], &bn_const[3]],
            1e-3,
        );

        // metadata reads, clones and the Debug form leave the fold undone
        let w2 = w.clone();
        assert_eq!(w.shape().dims(), &[4, 3, 3, 3]);
        assert_eq!(b.shape().dims(), &[4]);
        assert_eq!(format!("{w:?} {b:?}"), "Const([4, 3, 3, 3]) Const([4])");
        assert!(Const::ptr_eq(&w, &w2) && !Const::ptr_eq(&w, &b));
        assert_eq!(w, w2, "clones compare equal by pointer");
        assert!(fold_cell(&w).get().is_none(), "nothing read the fold yet");

        // one read computes both outputs, with `fold_batch_norm`'s arithmetic
        let want = fold_batch_norm(&weight, Some(&bias), &bn[0], &bn[1], &bn[2], &bn[3], 1e-3);
        assert_eq!(b.value(), &want.1);
        assert!(fold_cell(&w).get().is_some(), "the weight shares the bias's fold");
        assert_eq!(w.value(), &want.0);
        assert!(std::ptr::eq(w.value(), w2.value()), "clones read one tensor");
        assert_eq!(w.value().shape(), w.shape());
    }
}
