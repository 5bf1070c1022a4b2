//! Bit-for-bit safety net under the functional path: FNV-1a over the output
//! bits of `Executor::run` on the graph no pass has touched and of
//! `CompiledModel::run` on the optimized, placed graph must equal
//! `tests/golden/functional.digest`, captured before `conv2d_ref`'s loop nest
//! and the executor's copies were rewritten. SqueezeNet covers dense 1×1/3×3
//! and the 7×7/2 stem, MobileNet covers depthwise and (compiled) folded BN,
//! ResNet50_v1 covers the padded 3/2/1 max-pool, residual `Add` and strided
//! 1×1 convs (its lines were captured before the conv weights were read in
//! place and max-pool was vectorized).
//!
//! An intended change of the bits is re-captured by pasting the `left` side
//! of the failed assertion over the golden.

use unigpu_device::Platform;
use unigpu_engine::Engine;
use unigpu_graph::{Executor, Graph};
use unigpu_telemetry::hash::{splitmix64, Fnv1a};
use unigpu_tensor::{Shape, Tensor};

const EDGE: usize = 64;
const SEED: u64 = 2019;

/// Uniform values in [-1, 1), one SplitMix64 draw per element.
fn seeded_input(shape: Shape) -> Tensor {
    let data = (0..shape.numel() as u64)
        .map(|i| ((splitmix64(SEED ^ i) >> 40) as f32 / (1u64 << 23) as f32) - 1.0)
        .collect();
    Tensor::from_vec(shape, data)
}

fn digest(outputs: &[Tensor]) -> u64 {
    let mut h = Fnv1a::new();
    for t in outputs {
        for &d in t.shape().dims() {
            h.mix_u64(d as u64);
        }
        for v in t.as_f32() {
            h.mix_u64(u64::from(v.to_bits()));
        }
    }
    h.finish()
}

fn digests(name: &str, model: &Graph) -> String {
    let compiled = Engine::builder()
        .platform(Platform::deeplens())
        .persist(false)
        .build()
        .compile(model);
    let input = [seeded_input(compiled.input_shape())];
    let reference = Executor.run(model, &input);
    let optimized = compiled.run(&input);
    assert!(
        reference.iter().chain(&optimized).all(|t| t.as_f32().iter().all(|v| v.is_finite())),
        "{name}: non-finite output"
    );
    format!(
        "{name}@{EDGE} reference {:016x}\n{name}@{EDGE} compiled {:016x}\n",
        digest(&reference),
        digest(&optimized)
    )
}

#[test]
fn functional_outputs_match_the_golden() {
    let actual = digests("SqueezeNet1.0", &unigpu_models::squeezenet(1, EDGE, 1000))
        + &digests("MobileNet1.0", &unigpu_models::mobilenet(1, EDGE, 1000))
        + &digests("ResNet50_v1", &unigpu_models::resnet50(1, EDGE, 1000));
    assert_eq!(actual, include_str!("golden/functional.digest"));
}
