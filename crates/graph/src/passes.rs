//! Graph-level optimization passes (§3.2.3) and heterogeneous device
//! placement (§3.1.2).

use crate::graph::{Graph, NodeId};
use crate::node::{Activation, OpKind};
use unigpu_ops::nn::fold_batch_norm;
use unigpu_tensor::Tensor;

/// Fold inference batch norms into their producing convolution's weights —
/// the "pre-computing, simplifying inference for batch-norm" optimization.
///
/// A `BatchNorm` is folded when its data producer is a `Conv2d` with a
/// constant weight, the conv feeds only the BN, and all BN parameters are
/// constants. The rewritten convolution gains a bias input.
pub fn fold_batch_norms(g: &Graph) -> Graph {
    let consumers = g.consumers();
    let is_const = |id: NodeId| matches!(g.nodes[id].op, OpKind::Constant(_));
    let const_of = |id: NodeId| -> &Tensor {
        match &g.nodes[id].op {
            OpKind::Constant(t) => t,
            _ => unreachable!(),
        }
    };

    // BN node id → conv node id to fold into.
    let mut folds: Vec<Option<NodeId>> = vec![None; g.nodes.len()];
    for (id, n) in g.nodes.iter().enumerate() {
        if let OpKind::BatchNorm { .. } = n.op {
            let conv = n.inputs[0];
            let bn_params_const = n.inputs[1..].iter().all(|&i| is_const(i));
            if let OpKind::Conv2d { bias, .. } = &g.nodes[conv].op {
                let weight_const = is_const(g.nodes[conv].inputs[1]);
                let bias_const = !bias || is_const(g.nodes[conv].inputs[2]);
                if bn_params_const && weight_const && bias_const && consumers[conv].len() == 1 {
                    folds[id] = Some(conv);
                }
            }
        }
    }

    let mut out = Graph::new(g.name.clone());
    // old id → new id
    let mut map: Vec<Option<NodeId>> = vec![None; g.nodes.len()];
    for (id, n) in g.nodes.iter().enumerate() {
        if let (OpKind::BatchNorm { eps }, Some(conv_id)) = (&n.op, folds[id]) {
            // Rebuild the conv with folded parameters in place of the BN.
            let conv = &g.nodes[conv_id];
            let OpKind::Conv2d { w, bias, act } = &conv.op else { unreachable!() };
            let weight = const_of(conv.inputs[1]);
            let bias_t = if *bias { Some(const_of(conv.inputs[2])) } else { None };
            let (gamma, beta, mean, var) = (
                const_of(n.inputs[1]),
                const_of(n.inputs[2]),
                const_of(n.inputs[3]),
                const_of(n.inputs[4]),
            );
            let (w2, b2) = fold_batch_norm(weight, bias_t, gamma, beta, mean, var, *eps);
            let data_new = map[conv.inputs[0]].expect("producer mapped");
            let w_new = out.add(OpKind::constant(w2), vec![], format!("{}.folded_w", conv.name));
            let b_new = out.add(OpKind::constant(b2), vec![], format!("{}.folded_b", conv.name));
            let new_id = out.add(
                OpKind::Conv2d { w: *w, bias: true, act: *act },
                vec![data_new, w_new, b_new],
                conv.name.clone(),
            );
            map[id] = Some(new_id);
            continue;
        }
        // Skip convs that were folded away (their BN consumer rebuilds them).
        if folds.iter().any(|f| *f == Some(id)) {
            continue;
        }
        let inputs: Vec<NodeId> = n.inputs.iter().map(|&i| map[i].expect("mapped")).collect();
        map[id] = Some(out.add(n.op.clone(), inputs, n.name.clone()));
    }
    for &o in &g.outputs {
        out.mark_output(map[o].expect("output mapped"));
    }
    out
}

/// Fuse standalone activations into a preceding convolution (operator
/// fusion, §3.2.3): `Conv2d → Act` becomes one kernel when the conv has a
/// single consumer and no activation yet.
pub fn fuse_ops(g: &Graph) -> Graph {
    let consumers = g.consumers();
    let mut fused_into: Vec<Option<NodeId>> = vec![None; g.nodes.len()]; // act id → conv id
    for (id, n) in g.nodes.iter().enumerate() {
        if let OpKind::Act(a) = &n.op {
            let p = n.inputs[0];
            if let OpKind::Conv2d { act: Activation::None, .. } = &g.nodes[p].op {
                if consumers[p].len() == 1 && *a != Activation::None {
                    fused_into[id] = Some(p);
                }
            }
        }
    }

    let mut out = Graph::new(g.name.clone());
    let mut map: Vec<Option<NodeId>> = vec![None; g.nodes.len()];
    for (id, n) in g.nodes.iter().enumerate() {
        if let (OpKind::Act(a), Some(conv_id)) = (&n.op, fused_into[id]) {
            let conv = &g.nodes[conv_id];
            let OpKind::Conv2d { w, bias, .. } = &conv.op else { unreachable!() };
            let inputs: Vec<NodeId> =
                conv.inputs.iter().map(|&i| map[i].expect("mapped")).collect();
            let new_id = out.add(
                OpKind::Conv2d { w: *w, bias: *bias, act: *a },
                inputs,
                conv.name.clone(),
            );
            map[id] = Some(new_id);
            continue;
        }
        if fused_into.iter().any(|f| *f == Some(id)) {
            continue;
        }
        let inputs: Vec<NodeId> = n.inputs.iter().map(|&i| map[i].expect("mapped")).collect();
        map[id] = Some(out.add(n.op.clone(), inputs, n.name.clone()));
    }
    for &o in &g.outputs {
        out.mark_output(map[o].expect("output mapped"));
    }
    out
}

/// Standard graph optimization pipeline: BN folding then fusion.
pub fn optimize(g: &Graph) -> Graph {
    fuse_ops(&fold_batch_norms(g))
}

/// Rewrite a graph to a new leading batch dimension: inputs get `batch` as
/// dim 0 and every convolution workload is re-keyed to the new batch size.
/// Weights and other constants are untouched (they are batch-independent),
/// and every shape-derived operator (pooling, dense, softmax, ...) follows
/// automatically through shape inference.
///
/// This is the serving engine's batched-latency primitive: estimate the
/// rebatched graph to price a coalesced batch of `batch` requests as one
/// launch sequence (launch overheads amortize; data-parallel work scales).
///
/// Detection graphs contain vision-control operators whose shape rules pin
/// batch 1 (`MultiboxPrior`, `YoloDetect`); callers should check
/// [`Graph::nodes`] for [`OpKind::is_vision_control`] and fall back to
/// linear scaling for those.
pub fn rebatch(g: &Graph, batch: usize) -> Graph {
    let batch = batch.max(1);
    let mut out = g.clone();
    for n in &mut out.nodes {
        match &mut n.op {
            OpKind::Input { shape } => {
                if shape.rank() >= 1 {
                    shape.0[0] = batch;
                }
            }
            OpKind::Conv2d { w, .. } => w.batch = batch,
            _ => {}
        }
    }
    out
}

/// Execution device of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Device {
    Gpu,
    Cpu,
}

/// Placement policies of §3.1.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Everything on the integrated GPU (our optimized vision ops make this
    /// possible).
    AllGpu,
    /// Two-pass heuristic: GPU for everything on the known-performant list;
    /// vision control-flow operators fall back to the CPU.
    FallbackVision,
    /// Everything on the CPU (baseline).
    AllCpu,
}

/// A placed graph: the rewritten graph (with `DeviceCopy` nodes at device
/// boundaries) and a device assignment per node.
#[derive(Debug, Clone)]
pub struct Placement {
    pub graph: Graph,
    pub device: Vec<Device>,
}

impl Placement {
    /// Count of inserted copy nodes.
    pub fn copy_count(&self) -> usize {
        self.graph
            .nodes
            .iter()
            .filter(|n| matches!(n.op, OpKind::DeviceCopy))
            .count()
    }
}

/// Two-pass device placement (§3.1.2): pass 1 tags every node by the
/// known-performant-on-GPU list; pass 2 inserts a `DeviceCopy` between any
/// directly connected nodes on different devices.
pub fn place(g: &Graph, policy: PlacementPolicy) -> Placement {
    // ---- pass 1: tag devices ----
    let mut dev: Vec<Device> = g
        .nodes
        .iter()
        .map(|n| match policy {
            PlacementPolicy::AllCpu => Device::Cpu,
            PlacementPolicy::AllGpu => Device::Gpu,
            PlacementPolicy::FallbackVision => {
                if n.op.is_vision_control() {
                    Device::Cpu
                } else {
                    Device::Gpu
                }
            }
        })
        .collect();
    // Free nodes (inputs/constants) adopt their first consumer's device so
    // parameters do not generate copies.
    let consumers = g.consumers();
    for (id, n) in g.nodes.iter().enumerate() {
        if n.op.is_free() {
            if let Some(&c) = consumers[id].first() {
                dev[id] = dev[c];
            }
        }
    }

    // ---- pass 2: insert copies at boundaries ----
    let mut out = Graph::new(g.name.clone());
    let mut out_dev: Vec<Device> = Vec::new();
    let mut map: Vec<NodeId> = Vec::with_capacity(g.nodes.len());
    for (id, n) in g.nodes.iter().enumerate() {
        let mut inputs = Vec::with_capacity(n.inputs.len());
        for &i in &n.inputs {
            let mapped = map[i];
            if dev[i] != dev[id] && !g.nodes[i].op.is_free() {
                let cp = out.add(
                    OpKind::DeviceCopy,
                    vec![mapped],
                    format!("copy.{}->{}", g.nodes[i].name, n.name),
                );
                out_dev.push(dev[id]); // the copy lands data on the consumer side
                inputs.push(cp);
            } else {
                inputs.push(mapped);
            }
        }
        map.push(out.add(n.op.clone(), inputs, n.name.clone()));
        out_dev.push(dev[id]);
    }
    for &o in &g.outputs {
        out.mark_output(map[o]);
    }
    Placement { graph: out, device: out_dev }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Executor;
    use std::sync::Arc;
    use unigpu_ops::vision::multibox::MultiboxConfig;
    use unigpu_ops::ConvWorkload;
    use unigpu_tensor::init::random_uniform;
    use unigpu_tensor::{allclose, Shape};

    fn conv_bn_relu_graph() -> Graph {
        let w = ConvWorkload::square(1, 3, 8, 6, 3, 1, 1);
        let mut g = Graph::new("cbr");
        let x = g.add(OpKind::Input { shape: Shape::from(w.input_shape()) }, vec![], "x");
        let wt = g.add(OpKind::constant(random_uniform(w.weight_shape(), 1)), vec![], "w");
        let c = g.add(
            OpKind::Conv2d { w, bias: false, act: Activation::None },
            vec![x, wt],
            "conv",
        );
        let gamma = g.add(OpKind::constant(random_uniform([8], 2)), vec![], "g");
        let beta = g.add(OpKind::constant(random_uniform([8], 3)), vec![], "b");
        let mean = g.add(OpKind::constant(random_uniform([8], 4)), vec![], "m");
        let var = {
            let mut v = random_uniform([8], 5);
            v.map_inplace(|x| x + 0.5);
            g.add(OpKind::constant(v), vec![], "v")
        };
        let bn = g.add(OpKind::BatchNorm { eps: 1e-5 }, vec![c, gamma, beta, mean, var], "bn");
        let r = g.add(OpKind::Act(Activation::Relu), vec![bn], "relu");
        g.mark_output(r);
        g
    }

    #[test]
    fn bn_folding_preserves_results() {
        let g = conv_bn_relu_graph();
        let folded = fold_batch_norms(&g);
        assert!(folded.nodes.iter().all(|n| !matches!(n.op, OpKind::BatchNorm { .. })));
        let x = random_uniform([1, 3, 6, 6], 9);
        let a = Executor.run(&g, &[x.clone()]);
        let b = Executor.run(&folded, &[x]);
        assert!(allclose(&b[0], &a[0], 1e-4, 1e-5));
    }

    #[test]
    fn fusion_absorbs_relu() {
        let g = fold_batch_norms(&conv_bn_relu_graph());
        let fused = fuse_ops(&g);
        assert!(fused.nodes.iter().all(|n| !matches!(n.op, OpKind::Act(_))));
        let has_fused_conv = fused
            .nodes
            .iter()
            .any(|n| matches!(n.op, OpKind::Conv2d { act: Activation::Relu, .. }));
        assert!(has_fused_conv);
        // fewer runtime ops than before
        assert!(fused.op_count() < conv_bn_relu_graph().op_count());
    }

    #[test]
    fn optimize_pipeline_preserves_results() {
        let g = conv_bn_relu_graph();
        let o = optimize(&g);
        let x = random_uniform([1, 3, 6, 6], 10);
        let a = Executor.run(&g, &[x.clone()]);
        let b = Executor.run(&o, &[x]);
        assert!(allclose(&b[0], &a[0], 1e-4, 1e-5));
        assert_eq!(o.op_count(), 1, "conv+bn+relu must fuse to a single kernel");
    }

    fn detection_tail_graph() -> Graph {
        // minimal: input -> conv(cls) / conv(loc) -> heads -> multibox det
        let mut g = Graph::new("det");
        let wc = ConvWorkload::square(1, 4, 8, 4, 3, 1, 1); // 2 anchors * (3+1) classes
        let wl = ConvWorkload::square(1, 4, 8, 4, 3, 1, 1); // 2 anchors * 4
        let x = g.add(OpKind::Input { shape: Shape::from(wc.input_shape()) }, vec![], "x");
        let k1 = g.add(OpKind::constant(random_uniform(wc.weight_shape(), 11)), vec![], "k1");
        let k2 = g.add(OpKind::constant(random_uniform(wl.weight_shape(), 12)), vec![], "k2");
        let cc = g.add(OpKind::Conv2d { w: wc, bias: false, act: Activation::None }, vec![x, k1], "cls");
        let lc = g.add(OpKind::Conv2d { w: wl, bias: false, act: Activation::None }, vec![x, k2], "loc");
        let cf = g.add(OpKind::FlattenHead, vec![cc], "cls_flat");
        let lf = g.add(OpKind::FlattenHead, vec![lc], "loc_flat");
        let cp = g.add(OpKind::ClsProbs { classes: 3 }, vec![cf], "cls_probs");
        let pr = g.add(
            OpKind::MultiboxPrior { sizes: vec![0.3], ratios: vec![1.0, 2.0] },
            vec![x],
            "priors",
        );
        let det = g.add(
            OpKind::MultiboxDetection { cfg: MultiboxConfig::default() },
            vec![cp, lf, pr],
            "det",
        );
        g.mark_output(det);
        g
    }

    #[test]
    fn fallback_places_vision_on_cpu_with_copies() {
        let g = detection_tail_graph();
        let p = place(&g, PlacementPolicy::FallbackVision);
        // detection node on CPU, convs on GPU
        let det_idx = p.graph.nodes.iter().position(|n| n.name == "det").unwrap();
        assert_eq!(p.device[det_idx], Device::Cpu);
        let conv_idx = p.graph.nodes.iter().position(|n| n.name == "cls").unwrap();
        assert_eq!(p.device[conv_idx], Device::Gpu);
        assert!(p.copy_count() >= 3, "3 GPU inputs feed the CPU detection node");
    }

    #[test]
    fn all_gpu_inserts_no_copies() {
        let g = detection_tail_graph();
        let p = place(&g, PlacementPolicy::AllGpu);
        assert_eq!(p.copy_count(), 0);
        assert!(p.device.iter().all(|&d| d == Device::Gpu));
    }

    #[test]
    fn placement_preserves_results() {
        let g = detection_tail_graph();
        let x = random_uniform([1, 4, 4, 4], 13);
        let base = Executor.run(&g, &[x.clone()]);
        for policy in [PlacementPolicy::AllGpu, PlacementPolicy::FallbackVision, PlacementPolicy::AllCpu] {
            let p = place(&g, policy);
            let got = Executor.run(&p.graph, &[x.clone()]);
            assert_eq!(got, base, "placement {policy:?} must not change results");
        }
    }

    #[test]
    fn constants_follow_consumers_without_copies() {
        let g = conv_bn_relu_graph();
        let p = place(&g, PlacementPolicy::FallbackVision);
        assert_eq!(p.copy_count(), 0, "weights must not generate copies");
    }

    #[test]
    fn rebatch_rewrites_inputs_and_conv_workloads_consistently() {
        let g = optimize(&conv_bn_relu_graph());
        let b = rebatch(&g, 4);
        // shape inference doubles as validation: every op follows the batch
        let shapes = b.infer_shapes();
        for (n, s) in b.nodes.iter().zip(&shapes) {
            match &n.op {
                OpKind::Input { .. } => assert_eq!(s.dim(0), 4),
                OpKind::Conv2d { w, .. } => {
                    assert_eq!(w.batch, 4);
                    assert_eq!(s.dim(0), 4);
                }
                OpKind::Constant(_) => {} // weights stay batch-independent
                _ => assert_eq!(s.dim(0), 4, "{} must carry the batch", n.name),
            }
        }
        // rebatch(1) is the identity
        assert_eq!(rebatch(&g, 1), g);
    }

    /// Each constant's tensor, by node name.
    fn constants(g: &Graph) -> Vec<(&str, &Arc<Tensor>)> {
        g.nodes
            .iter()
            .filter_map(|n| match &n.op {
                OpKind::Constant(t) => Some((n.name.as_str(), t)),
                _ => None,
            })
            .collect()
    }

    /// `conv_bn_relu_graph` plus a second convolution no pass rewrites.
    fn conv_bn_relu_conv_graph() -> Graph {
        let mut g = conv_bn_relu_graph();
        let relu = g.outputs[0];
        let w = ConvWorkload::square(1, 8, 4, 6, 1, 1, 0);
        let k = g.add(OpKind::constant(random_uniform(w.weight_shape(), 6)), vec![], "head.w");
        let head =
            g.add(OpKind::Conv2d { w, bias: false, act: Activation::None }, vec![relu, k], "head");
        g.outputs = vec![head];
        g
    }

    #[test]
    fn rewrites_share_every_surviving_constant_with_their_source() {
        let g = conv_bn_relu_conv_graph();
        let source = constants(&g);
        let derived = [
            ("clone", g.clone()),
            ("rebatch", rebatch(&g, 4)),
            ("place", place(&g, PlacementPolicy::FallbackVision).graph),
            ("place cpu", place(&g, PlacementPolicy::AllCpu).graph),
            ("fuse", fuse_ops(&g)),
        ];
        for (pass, out) in &derived {
            let got = constants(out);
            assert_eq!(got.len(), source.len(), "{pass} keeps every constant");
            for ((name, t), (src_name, src)) in got.iter().zip(&source) {
                assert_eq!(name, src_name);
                assert!(Arc::ptr_eq(t, src), "{pass} copied constant `{name}`");
            }
        }
    }

    #[test]
    fn bn_folding_allocates_only_the_folded_weight_and_bias() {
        let g = conv_bn_relu_conv_graph();
        let source = constants(&g);
        let folded = optimize(&g);
        let fresh: Vec<&str> = constants(&folded)
            .into_iter()
            .filter(|(_, t)| !source.iter().any(|(_, src)| Arc::ptr_eq(t, src)))
            .map(|(name, _)| name)
            .collect();
        assert_eq!(fresh, ["conv.folded_w", "conv.folded_b"]);
        assert!(
            constants(&folded).iter().any(|(name, _)| *name == "head.w"),
            "the unfolded convolution keeps its (shared) weight"
        );
    }

    #[test]
    fn batched_latency_is_sublinear_in_batch() {
        use crate::latency::{estimate_latency, FallbackSchedules, LatencyOptions};
        use unigpu_device::Platform;
        let g = optimize(&conv_bn_relu_graph());
        let plat = Platform::deeplens();
        let opts = LatencyOptions::default();
        let one =
            estimate_latency(&place(&g, PlacementPolicy::AllGpu), &plat, &FallbackSchedules, &opts);
        let eight = estimate_latency(
            &place(&rebatch(&g, 8), PlacementPolicy::AllGpu),
            &plat,
            &FallbackSchedules,
            &opts,
        );
        assert!(eight.total_ms > one.total_ms, "more work takes longer");
        assert!(
            eight.total_ms < 8.0 * one.total_ms,
            "launch overheads amortize: batch-8 {:.4} ms must beat 8 × {:.4} ms",
            eight.total_ms,
            one.total_ms
        );
    }
}
