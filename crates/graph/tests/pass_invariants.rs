//! Invariants of the graph passes over randomized conv/activation chains:
//! semantics preservation, node-count monotonicity, placement consistency.

use proptest::prelude::*;
use unigpu_graph::passes::{fold_batch_norms, fuse_ops, optimize, place, PlacementPolicy};
use unigpu_graph::{eliminate_dead_nodes, Activation, Executor, Graph, OpKind};
use unigpu_ops::ConvWorkload;
use unigpu_tensor::init::random_uniform;
use unigpu_tensor::{allclose, Shape};

/// Build a random conv/bn/act/pool chain from a compact recipe.
fn build_chain(recipe: &[(u8, bool, bool)], base_ch: usize) -> Graph {
    let mut g = Graph::new("chain");
    let size = 16usize;
    let mut shape = [1usize, 3, size, size];
    let mut x = g.add(OpKind::Input { shape: Shape::from(shape) }, vec![], "x");
    let mut seed = 1000u64;
    for (i, &(act_kind, with_bn, with_pool)) in recipe.iter().enumerate() {
        let out_ch = base_ch + (i % 3) * 2;
        let w = ConvWorkload {
            batch: 1,
            in_channels: shape[1],
            out_channels: out_ch,
            height: shape[2],
            width: shape[3],
            kernel_h: 3,
            kernel_w: 3,
            stride_h: 1,
            stride_w: 1,
            pad_h: 1,
            pad_w: 1,
            groups: 1,
        };
        seed += 1;
        let k = g.add(
            OpKind::constant(random_uniform(w.weight_shape(), seed)),
            vec![],
            format!("w{i}"),
        );
        x = g.add(
            OpKind::Conv2d { w, bias: false, act: Activation::None },
            vec![x, k],
            format!("conv{i}"),
        );
        shape = w.output_shape();
        if with_bn {
            let mut params = vec![];
            for p in 0..4 {
                seed += 1;
                let mut t = random_uniform([out_ch], seed);
                if p == 3 {
                    t.map_inplace(|v| v + 0.5);
                }
                params.push(g.add(OpKind::constant(t), vec![], format!("bn{i}.{p}")));
            }
            x = g.add(
                OpKind::BatchNorm { eps: 1e-5 },
                vec![x, params[0], params[1], params[2], params[3]],
                format!("bn{i}"),
            );
        }
        let act = match act_kind % 3 {
            0 => Activation::None,
            1 => Activation::Relu,
            _ => Activation::LeakyRelu(0.1),
        };
        if !matches!(act, Activation::None) {
            x = g.add(OpKind::Act(act), vec![x], format!("act{i}"));
        }
        if with_pool && shape[2] >= 4 {
            x = g.add(OpKind::MaxPool { k: 2, s: 2, p: 0 }, vec![x], format!("pool{i}"));
            shape[2] /= 2;
            shape[3] /= 2;
        }
    }
    g.mark_output(x);
    g
}

fn arb_recipe() -> impl Strategy<Value = Vec<(u8, bool, bool)>> {
    prop::collection::vec((0u8..3, any::<bool>(), any::<bool>()), 1..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn optimize_preserves_semantics(recipe in arb_recipe(), ch in 2usize..6) {
        let g = build_chain(&recipe, ch);
        let x = random_uniform([1, 3, 16, 16], 77);
        let base = Executor.run(&g, &[x.clone()]);
        let opt = optimize(&g);
        let got = Executor.run(&opt, &[x]);
        prop_assert!(allclose(&got[0], &base[0], 1e-3, 1e-4));
        // pass composition shrinks or preserves runtime ops
        prop_assert!(opt.op_count() <= g.op_count());
        // no BN survives folding when all its params are constants
        let no_bn = opt.nodes.iter().all(|n| !matches!(n.op, OpKind::BatchNorm { .. }));
        prop_assert!(no_bn);
    }

    #[test]
    fn passes_are_idempotent(recipe in arb_recipe(), ch in 2usize..5) {
        let g = build_chain(&recipe, ch);
        let once = optimize(&g);
        let twice = optimize(&once);
        prop_assert_eq!(once.op_count(), twice.op_count());
        let x = random_uniform([1, 3, 16, 16], 78);
        prop_assert_eq!(Executor.run(&once, &[x.clone()]), Executor.run(&twice, &[x]));
    }

    #[test]
    fn fold_then_fuse_equals_fuse_of_fold(recipe in arb_recipe(), ch in 2usize..5) {
        let g = build_chain(&recipe, ch);
        let a = fuse_ops(&fold_batch_norms(&g));
        let x = random_uniform([1, 3, 16, 16], 79);
        let base = Executor.run(&g, &[x.clone()]);
        prop_assert!(allclose(&Executor.run(&a, &[x])[0], &base[0], 1e-3, 1e-4));
    }

    #[test]
    fn dead_node_elimination_is_safe_after_passes(recipe in arb_recipe(), ch in 2usize..5) {
        let g = optimize(&build_chain(&recipe, ch));
        let clean = eliminate_dead_nodes(&g);
        prop_assert!(clean.nodes.len() <= g.nodes.len());
        let x = random_uniform([1, 3, 16, 16], 80);
        prop_assert_eq!(Executor.run(&g, &[x.clone()]), Executor.run(&clean, &[x]));
    }

    #[test]
    fn placement_never_changes_results(recipe in arb_recipe(), ch in 2usize..5) {
        let g = optimize(&build_chain(&recipe, ch));
        let x = random_uniform([1, 3, 16, 16], 81);
        let base = Executor.run(&g, &[x.clone()]);
        for policy in [PlacementPolicy::AllGpu, PlacementPolicy::FallbackVision, PlacementPolicy::AllCpu] {
            let p = place(&g, policy);
            prop_assert_eq!(Executor.run(&p.graph, &[x.clone()]), base.clone());
            prop_assert_eq!(p.device.len(), p.graph.nodes.len());
        }
    }
}
