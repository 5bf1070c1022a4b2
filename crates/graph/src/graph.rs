//! The computational graph: construction, validation, shape inference.

use crate::node::{Node, OpKind};
use unigpu_tensor::Shape;

/// Index of a node within its graph.
pub type NodeId = usize;

/// A directed acyclic computational graph.
///
/// Nodes are stored in topological order by construction: a node may only
/// reference already-added producers, so iteration order is execution order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Graph {
    pub nodes: Vec<Node>,
    /// Graph outputs (model results), in declaration order.
    pub outputs: Vec<NodeId>,
    /// Human-readable model name (for reports).
    pub name: String,
}

impl Graph {
    pub fn new(name: impl Into<String>) -> Self {
        Graph { nodes: Vec::new(), outputs: Vec::new(), name: name.into() }
    }

    /// Append a node; `inputs` must reference earlier nodes.
    ///
    /// # Panics
    /// Panics on a forward reference (which would create a cycle).
    pub fn add(&mut self, op: OpKind, inputs: Vec<NodeId>, name: impl Into<String>) -> NodeId {
        let id = self.nodes.len();
        for &i in &inputs {
            assert!(i < id, "node {id} references future node {i}");
        }
        self.nodes.push(Node { op, inputs, name: name.into() });
        id
    }

    /// Mark a node as a graph output.
    pub fn mark_output(&mut self, id: NodeId) {
        assert!(id < self.nodes.len());
        if !self.outputs.contains(&id) {
            self.outputs.push(id);
        }
    }

    /// Ids of `Input` nodes in order.
    pub(crate) fn input_ids(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n.op, OpKind::Input { .. }))
            .map(|(i, _)| i)
            .collect()
    }

    /// Number of non-free (runtime work) operators.
    pub fn op_count(&self) -> usize {
        self.nodes.iter().filter(|n| !n.op.is_free()).count()
    }

    /// Number of convolution nodes.
    pub fn conv_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.op, OpKind::Conv2d { .. }))
            .count()
    }

    /// Consumers of each node.
    pub(crate) fn consumers(&self) -> Vec<Vec<NodeId>> {
        let mut c = vec![Vec::new(); self.nodes.len()];
        for (id, n) in self.nodes.iter().enumerate() {
            for &i in &n.inputs {
                c[i].push(id);
            }
        }
        c
    }

    /// Infer the output shape of every node.
    ///
    /// # Panics
    /// Panics on rank/shape inconsistencies — shape inference doubles as
    /// graph validation.
    pub fn infer_shapes(&self) -> Vec<Shape> {
        let mut shapes = Vec::with_capacity(self.nodes.len());
        self.extend_shapes(&mut shapes);
        shapes
    }

    /// Infer the shapes of the nodes after the prefix `shapes` already
    /// holds, appending them: a builder that tracks its shapes infers only
    /// the nodes it added.
    ///
    /// # Panics
    /// Panics like [`Graph::infer_shapes`].
    pub fn extend_shapes(&self, shapes: &mut Vec<Shape>) {
        for (id, n) in self.nodes.iter().enumerate().skip(shapes.len()) {
            let ins: Vec<&Shape> = n.inputs.iter().map(|&i| &shapes[i]).collect();
            let out = infer_one(&n.op, &ins, &n.name, id);
            shapes.push(out);
        }
    }

    /// Total FLOPs of all convolution + dense layers (reporting).
    pub fn conv_flops(&self) -> f64 {
        let shapes = self.infer_shapes();
        self.nodes
            .iter()
            .map(|n| match &n.op {
                OpKind::Conv2d { w, .. } => w.flops(),
                OpKind::Dense { units, .. } => {
                    let in_feat = shapes[n.inputs[0]].dim(1);
                    2.0 * *units as f64 * in_feat as f64
                }
                _ => 0.0,
            })
            .sum()
    }
}

fn infer_one(op: &OpKind, ins: &[&Shape], name: &str, id: usize) -> Shape {
    let ctx = |msg: String| -> ! { panic!("shape inference failed at node {id} `{name}`: {msg}") };
    match op {
        OpKind::Input { shape } => shape.clone(),
        OpKind::Constant(c) => c.shape().clone(),
        OpKind::Conv2d { w, .. } => {
            let got = ins[0].dims();
            if got != w.input_shape() {
                ctx(format!("conv input {:?} != workload {:?}", got, w.input_shape()));
            }
            Shape::from(w.output_shape())
        }
        OpKind::BatchNorm { .. } | OpKind::Act(_) | OpKind::DeviceCopy => ins[0].clone(),
        OpKind::Add => {
            if ins[0] != ins[1] {
                ctx(format!("add shape mismatch {} vs {}", ins[0], ins[1]));
            }
            ins[0].clone()
        }
        OpKind::Concat => {
            let (n, _, h, w) = ins[0].nchw();
            let mut c = 0;
            for s in ins {
                let (sn, sc, sh, sw) = s.nchw();
                if (sn, sh, sw) != (n, h, w) {
                    ctx(format!("concat mismatch {s}"));
                }
                c += sc;
            }
            Shape::from([n, c, h, w])
        }
        OpKind::MaxPool { k, s, p } => {
            let (n, c, h, w) = ins[0].nchw();
            Shape::from([n, c, (h + 2 * p - k) / s + 1, (w + 2 * p - k) / s + 1])
        }
        OpKind::GlobalAvgPool => {
            let (n, c, _, _) = ins[0].nchw();
            Shape::from([n, c, 1, 1])
        }
        OpKind::Dense { units, .. } => {
            let d = ins[0].dims();
            if d.len() != 2 {
                ctx(format!("dense input must be rank-2, got {}", ins[0]));
            }
            Shape::from([d[0], *units])
        }
        OpKind::Flatten | OpKind::FlattenHead => {
            let (n, c, h, w) = ins[0].nchw();
            Shape::from([n, c * h * w])
        }
        OpKind::Softmax => ins[0].clone(),
        OpKind::UpsampleNearest { scale } => {
            let (n, c, h, w) = ins[0].nchw();
            Shape::from([n, c, h * scale, w * scale])
        }
        OpKind::ConcatFlat => {
            let n = ins[0].dim(0);
            let total: usize = ins.iter().map(|s| s.dim(1)).sum();
            Shape::from([n, total])
        }
        OpKind::ClsProbs { classes } => {
            let d = ins[0].dims();
            let per = classes + 1;
            if !d[1].is_multiple_of(per) {
                ctx(format!("cls vector {} not divisible by classes+1={per}", d[1]));
            }
            Shape::from([d[0], per, d[1] / per])
        }
        OpKind::MultiboxPrior { sizes, ratios } => {
            let (_, _, h, w) = ins[0].nchw();
            let per = sizes.len() + ratios.len() - 1;
            Shape::from([1, h * w * per, 4])
        }
        OpKind::ConcatAnchors => {
            let total: usize = ins.iter().map(|s| s.dim(1)).sum();
            Shape::from([1, total, 4])
        }
        OpKind::MultiboxDetection { .. } => {
            let anchors = ins[2].dim(1);
            Shape::from([ins[1].dim(0), anchors, 6])
        }
        OpKind::YoloDetect { anchors, classes, .. } => {
            // worst-case candidate count: every anchor-cell emits
            let mut total = 0;
            for (s, a) in ins.iter().zip(anchors) {
                let (_, c, h, w) = s.nchw();
                if c != a.len() * (5 + classes) {
                    ctx(format!("yolo feat channels {c} != {}", a.len() * (5 + classes)));
                }
                total += a.len() * h * w;
            }
            Shape::from([1, total.max(1), 6])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unigpu_ops::ConvWorkload;
    use unigpu_tensor::Tensor;

    fn simple_graph() -> Graph {
        let mut g = Graph::new("toy");
        let w = ConvWorkload::square(1, 3, 8, 8, 3, 1, 1);
        let x = g.add(OpKind::Input { shape: Shape::from(w.input_shape()) }, vec![], "x");
        let wt = g.add(
            OpKind::constant(Tensor::zeros(w.weight_shape())),
            vec![],
            "w",
        );
        let c = g.add(
            OpKind::Conv2d { w, bias: false, act: crate::node::Activation::None },
            vec![x, wt],
            "conv",
        );
        let r = g.add(OpKind::Act(crate::node::Activation::Relu), vec![c], "relu");
        g.mark_output(r);
        g
    }

    #[test]
    fn shapes_flow_through() {
        let g = simple_graph();
        let shapes = g.infer_shapes();
        assert_eq!(shapes[2].dims(), &[1, 8, 8, 8]);
        assert_eq!(shapes[3].dims(), &[1, 8, 8, 8]);
    }

    #[test]
    fn op_and_conv_counts() {
        let g = simple_graph();
        assert_eq!(g.op_count(), 2);
        assert_eq!(g.conv_count(), 1);
        assert_eq!(g.input_ids(), vec![0]);
    }

    #[test]
    #[should_panic(expected = "references future node")]
    fn forward_reference_panics() {
        let mut g = Graph::new("bad");
        g.add(OpKind::Add, vec![5, 6], "oops");
    }

    #[test]
    #[should_panic(expected = "shape inference failed")]
    fn add_shape_mismatch_caught() {
        let mut g = Graph::new("bad");
        let a = g.add(OpKind::Input { shape: Shape::from([1, 2, 3, 3]) }, vec![], "a");
        let b = g.add(OpKind::Input { shape: Shape::from([1, 4, 3, 3]) }, vec![], "b");
        g.add(OpKind::Add, vec![a, b], "sum");
        g.infer_shapes();
    }

    #[test]
    fn consumers_inverse_of_inputs() {
        let g = simple_graph();
        let c = g.consumers();
        assert_eq!(c[0], vec![2]); // input feeds conv
        assert_eq!(c[2], vec![3]); // conv feeds relu
        assert!(c[3].is_empty());
    }

    #[test]
    fn conv_flops_counts_conv_layers() {
        let g = simple_graph();
        let w = ConvWorkload::square(1, 3, 8, 8, 3, 1, 1);
        assert_eq!(g.conv_flops(), w.flops());
    }

    #[test]
    fn mark_output_dedups() {
        let mut g = simple_graph();
        g.mark_output(3);
        g.mark_output(3);
        assert_eq!(g.outputs, vec![3]);
    }
}
