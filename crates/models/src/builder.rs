//! Graph-building helper shared by all model definitions.

use unigpu_graph::{Activation, Graph, NodeId, OpKind};
use unigpu_ops::ConvWorkload;
use unigpu_tensor::{Initializer, Shape};

/// Stateful builder: wraps a [`Graph`], tracks node shapes incrementally and
/// hands out deterministic parameter seeds.
pub struct ModelBuilder {
    pub g: Graph,
    shapes: Vec<Shape>,
    seed: u64,
}

impl ModelBuilder {
    pub fn new(name: impl Into<String>, seed: u64) -> Self {
        ModelBuilder { g: Graph::new(name), shapes: Vec::new(), seed }
    }

    fn next_seed(&mut self) -> u64 {
        self.seed = self.seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.seed
    }

    fn push(&mut self, op: OpKind, inputs: Vec<NodeId>, name: String) -> NodeId {
        let id = self.g.add(op, inputs, name);
        // infer just the new node's shape from the tracked ones
        self.g.extend_shapes(&mut self.shapes);
        id
    }

    /// Shape of a built node.
    pub fn shape(&self, id: NodeId) -> &Shape {
        &self.shapes[id]
    }

    /// Declare a graph input.
    pub fn input(&mut self, shape: impl Into<Shape>, name: &str) -> NodeId {
        let shape = shape.into();
        self.push(OpKind::Input { shape }, vec![], name.into())
    }

    /// Xavier-initialized constant parameter.
    pub fn param(&mut self, shape: impl Into<Shape>, name: &str) -> NodeId {
        let seed = self.next_seed();
        let t = Initializer::Xavier.init(shape, seed);
        self.push(OpKind::constant(t), vec![], name.into())
    }

    /// Positive constant (BN variance etc.).
    pub fn param_positive(&mut self, len: usize, name: &str) -> NodeId {
        let seed = self.next_seed();
        let mut t = Initializer::Uniform { lo: 0.5, hi: 1.5 }.init([len], seed);
        t.map_inplace(|v| v.max(1e-3));
        self.push(OpKind::constant(t), vec![], name.into())
    }

    /// Raw convolution (no BN/act), inferring the workload from `x`. The
    /// arguments follow a framework's `Conv2D(channels, kernel, strides,
    /// padding, groups)`.
    #[allow(clippy::too_many_arguments)]
    pub fn conv(
        &mut self,
        x: NodeId,
        out_ch: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        groups: usize,
        name: &str,
    ) -> NodeId {
        let (n, c, h, width) = self.shape(x).nchw();
        let w = ConvWorkload {
            batch: n,
            in_channels: c,
            out_channels: out_ch,
            height: h,
            width,
            kernel_h: kernel,
            kernel_w: kernel,
            stride_h: stride,
            stride_w: stride,
            pad_h: pad,
            pad_w: pad,
            groups,
        };
        let wt = self.param(w.weight_shape(), &format!("{name}.weight"));
        self.push(
            OpKind::Conv2d { w, bias: false, act: Activation::None },
            vec![x, wt],
            name.into(),
        )
    }

    /// `conv → batch_norm → activation` — the standard CNN building block.
    /// The BN folds into the conv and the activation fuses during graph
    /// optimization; models are built un-fused so the passes are exercised.
    #[allow(clippy::too_many_arguments)]
    pub fn conv_bn_act(
        &mut self,
        x: NodeId,
        out_ch: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        groups: usize,
        act: Activation,
        name: &str,
    ) -> NodeId {
        let c = self.conv(x, out_ch, kernel, stride, pad, groups, name);
        let gamma = self.param([out_ch], &format!("{name}.bn.gamma"));
        let beta = self.param([out_ch], &format!("{name}.bn.beta"));
        let mean = self.param([out_ch], &format!("{name}.bn.mean"));
        let var = self.param_positive(out_ch, &format!("{name}.bn.var"));
        let bn = self.push(
            OpKind::BatchNorm { eps: 1e-5 },
            vec![c, gamma, beta, mean, var],
            format!("{name}.bn"),
        );
        if matches!(act, Activation::None) {
            bn
        } else {
            self.push(OpKind::Act(act), vec![bn], format!("{name}.act"))
        }
    }

    pub fn act(&mut self, x: NodeId, act: Activation, name: &str) -> NodeId {
        self.push(OpKind::Act(act), vec![x], name.into())
    }

    pub fn add(&mut self, a: NodeId, b: NodeId, name: &str) -> NodeId {
        self.push(OpKind::Add, vec![a, b], name.into())
    }

    pub fn concat(&mut self, parts: Vec<NodeId>, name: &str) -> NodeId {
        self.push(OpKind::Concat, parts, name.into())
    }

    pub fn max_pool(&mut self, x: NodeId, k: usize, s: usize, p: usize, name: &str) -> NodeId {
        self.push(OpKind::MaxPool { k, s, p }, vec![x], name.into())
    }

    pub fn global_avg_pool(&mut self, x: NodeId, name: &str) -> NodeId {
        self.push(OpKind::GlobalAvgPool, vec![x], name.into())
    }

    pub fn flatten(&mut self, x: NodeId, name: &str) -> NodeId {
        self.push(OpKind::Flatten, vec![x], name.into())
    }

    pub fn dense(&mut self, x: NodeId, units: usize, name: &str) -> NodeId {
        let in_feat = self.shape(x).dim(1);
        let w = self.param([units, in_feat], &format!("{name}.weight"));
        let b = self.param([units], &format!("{name}.bias"));
        self.push(OpKind::Dense { units, bias: true }, vec![x, w, b], name.into())
    }

    pub fn softmax(&mut self, x: NodeId, name: &str) -> NodeId {
        self.push(OpKind::Softmax, vec![x], name.into())
    }

    pub fn upsample(&mut self, x: NodeId, scale: usize, name: &str) -> NodeId {
        self.push(OpKind::UpsampleNearest { scale }, vec![x], name.into())
    }

    /// Generic op escape hatch (SSD/YOLO heads).
    pub fn op(&mut self, op: OpKind, inputs: Vec<NodeId>, name: &str) -> NodeId {
        self.push(op, inputs, name.into())
    }

    /// Finish: mark outputs and return the graph.
    pub fn finish(mut self, outputs: Vec<NodeId>) -> Graph {
        debug_assert_eq!(self.shapes, self.g.infer_shapes(), "{}: tracked shapes", self.g.name);
        for o in outputs {
            self.g.mark_output(o);
        }
        self.g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_bn_act_builds_expected_nodes() {
        let mut mb = ModelBuilder::new("t", 1);
        let x = mb.input([1, 3, 16, 16], "x");
        let y = mb.conv_bn_act(x, 8, 3, 2, 1, 1, Activation::Relu, "c1");
        assert_eq!(mb.shape(y).dims(), &[1, 8, 8, 8]);
        let g = mb.finish(vec![y]);
        assert_eq!(g.conv_count(), 1);
        assert!(g.nodes.iter().any(|n| matches!(n.op, OpKind::BatchNorm { .. })));
    }

    #[test]
    fn params_are_deterministic_per_seed() {
        let build = |seed| {
            let mut mb = ModelBuilder::new("t", seed);
            let x = mb.input([1, 3, 8, 8], "x");
            let y = mb.conv(x, 4, 3, 1, 1, 1, "c");
            mb.finish(vec![y])
        };
        assert_eq!(build(7), build(7));
        assert_ne!(build(7), build(8));
    }

    #[test]
    fn dense_tracks_input_features() {
        let mut mb = ModelBuilder::new("t", 1);
        let x = mb.input([1, 8, 2, 2], "x");
        let p = mb.global_avg_pool(x, "gap");
        let f = mb.flatten(p, "flat");
        let d = mb.dense(f, 10, "fc");
        assert_eq!(mb.shape(d).dims(), &[1, 10]);
    }
}
