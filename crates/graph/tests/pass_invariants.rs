//! Invariants of the graph passes over randomized conv/activation chains:
//! semantics preservation, node-count monotonicity, placement consistency.
//!
//! Every case draws from a SplitMix64 stream keyed by its case number, so a
//! failure names the case that replays it.

use unigpu_graph::passes::{fold_batch_norms, fuse_ops, optimize, place, PlacementPolicy};
use unigpu_graph::{Activation, Executor, Graph, OpKind};
use unigpu_ops::ConvWorkload;
use unigpu_telemetry::hash::SplitMix64;
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

const CASES: u64 = 24;

/// 1–4 layers of (activation kind, batch norm?, pool?).
fn arb_recipe(rng: &mut SplitMix64) -> Vec<(u8, bool, bool)> {
    (0..1 + rng.below(4))
        .map(|_| (rng.below(3) as u8, rng.chance(0.5), rng.chance(0.5)))
        .collect()
}

/// `check(case, chain)` for every case's random chain, its base channel
/// count drawn from `2..max_ch`.
fn for_each_chain(max_ch: usize, check: impl Fn(u64, Graph)) {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let recipe = arb_recipe(&mut rng);
        let ch = 2 + rng.below(max_ch - 2);
        check(case, build_chain(&recipe, ch));
    }
}

#[test]
fn optimize_preserves_semantics() {
    for_each_chain(6, |case, g| {
        let x = [random_uniform([1, 3, 16, 16], 77)];
        let base = Executor.run(&g, &x);
        let opt = optimize(&g);
        let got = Executor.run(&opt, &x);
        assert!(allclose(&got[0], &base[0], 1e-3, 1e-4), "case {case}");
        // pass composition shrinks or preserves runtime ops
        assert!(opt.op_count() <= g.op_count(), "case {case}");
        // no BN survives folding when all its params are constants
        let no_bn = opt.nodes.iter().all(|n| !matches!(n.op, OpKind::BatchNorm { .. }));
        assert!(no_bn, "case {case}");
    });
}

#[test]
fn passes_are_idempotent() {
    for_each_chain(5, |case, g| {
        let once = optimize(&g);
        let twice = optimize(&once);
        assert_eq!(once.op_count(), twice.op_count(), "case {case}");
        let x = [random_uniform([1, 3, 16, 16], 78)];
        assert_eq!(Executor.run(&once, &x), Executor.run(&twice, &x), "case {case}");
    });
}

#[test]
fn fold_then_fuse_equals_fuse_of_fold() {
    for_each_chain(5, |case, g| {
        let a = fuse_ops(&fold_batch_norms(&g));
        let x = [random_uniform([1, 3, 16, 16], 79)];
        let base = Executor.run(&g, &x);
        assert!(allclose(&Executor.run(&a, &x)[0], &base[0], 1e-3, 1e-4), "case {case}");
    });
}

#[test]
fn placement_never_changes_results() {
    for_each_chain(5, |case, g| {
        let g = optimize(&g);
        let x = [random_uniform([1, 3, 16, 16], 81)];
        let base = Executor.run(&g, &x);
        for policy in [PlacementPolicy::AllGpu, PlacementPolicy::FallbackVision, PlacementPolicy::AllCpu] {
            let p = place(&g, policy);
            assert_eq!(Executor.run(&p.graph, &x), base, "case {case}: {policy:?}");
            assert_eq!(p.device.len(), p.graph.nodes.len(), "case {case}: {policy:?}");
        }
    });
}
