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
//! `tests/golden/zoo.digest` does the same for the three detectors, captured
//! before the executor planned its memory: their heads run `Concat`,
//! `ConcatFlat`, `ConcatAnchors`, `UpsampleNearest` and the two vision
//! operators, which the classifiers never execute. Yolov3's output is one
//! constant row at seeded weights (no cell clears its confidence), so each
//! detector also digests the tensors entering its vision operator. Every
//! placement (all-GPU, the vision fallback with its `DeviceCopy` nodes,
//! all-CPU, and the degraded variant) must compute the same bits.
//!
//! An intended change of the bits is re-captured by pasting the `left` side
//! of the failed assertion over the golden.

use std::sync::atomic::{AtomicBool, Ordering};
use unigpu_device::{DeviceSpec, Platform};
use unigpu_engine::{CompiledModel, Engine};
use unigpu_graph::{place, Executor, Graph, PlacementPolicy};
use unigpu_telemetry::hash::{splitmix64, Fnv1a};
use unigpu_telemetry::SpanRecorder;
use unigpu_tensor::{Shape, Tensor};
use unigpu_tuner::{
    tune_graph, tune_graph_with, tune_one, DispatchError, Dispatcher, TuneJob, TuneOutcome,
    TuningBudget,
};

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

fn compile(model: &Graph) -> CompiledModel {
    Engine::builder()
        .platform(Platform::deeplens())
        .persist(false)
        .build()
        .compile(model)
}

fn digests(name: &str, model: &Graph) -> String {
    let compiled = compile(model);
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

/// The tuner spreads its jobs over the lane pool while another thread's
/// inference asks the pool for its kernels: whichever dispatch finds the
/// pool busy runs inline. Both finish, the database equals one tuned a job
/// at a time, and every run computes the golden bits.
#[test]
fn tuning_beside_inference_keeps_both_results() {
    struct TuneEach;
    impl Dispatcher for TuneEach {
        fn name(&self) -> String {
            "each".into()
        }
        fn dispatch(
            &self,
            jobs: &[TuneJob],
            spec: &DeviceSpec,
            budget: &TuningBudget,
        ) -> Result<Vec<TuneOutcome>, DispatchError> {
            Ok(jobs.iter().map(|j| tune_one(j, spec, budget)).collect())
        }
    }

    let tuned = unigpu_models::mobilenet(1, 224, 1000);
    let spec = Platform::deeplens().gpu;
    let budget = TuningBudget { trials_per_workload: 16, ..Default::default() };
    let oracle = tune_graph_with(&tuned, &spec, &budget, &TuneEach, None).unwrap();

    let model = unigpu_models::squeezenet(1, EDGE, 1000);
    let compiled = compile(&model);
    let input = [seeded_input(compiled.input_shape())];
    let golden = include_str!("golden/functional.digest")
        .lines()
        .find_map(|l| l.strip_prefix(&format!("SqueezeNet1.0@{EDGE} compiled ")))
        .expect("the golden has SqueezeNet's compiled line")
        .to_string();
    let tuning = AtomicBool::new(true);
    let (db, runs) = std::thread::scope(|s| {
        let tuner = s.spawn(|| {
            let db = tune_graph(&tuned, &spec, &budget);
            tuning.store(false, Ordering::Release);
            db
        });
        let mut runs = 0;
        while runs == 0 || tuning.load(Ordering::Acquire) {
            let bits = format!("{:016x}", digest(&compiled.run(&input)));
            assert_eq!(bits, golden, "run {runs} beside the tuner");
            runs += 1;
        }
        (tuner.join().expect("the tuner finishes"), runs)
    });
    assert_eq!(db.records(), oracle.records(), "after {runs} run(s) beside it");
}

/// `g` with the inputs of its vision operator marked as outputs too.
fn with_head_inputs(g: &Graph) -> Graph {
    let mut g = g.clone();
    let head = g
        .nodes
        .iter()
        .position(|n| n.op.is_vision_control())
        .expect("a detector");
    for i in g.nodes[head].inputs.clone() {
        g.mark_output(i);
    }
    g
}

/// `g` with its head's inputs marked as outputs, through the traced run.
fn traced_heads(g: &Graph, input: &[Tensor]) -> u64 {
    let g = with_head_inputs(g);
    let spans = SpanRecorder::new();
    let out = Executor.run_traced(&g, input, &spans);
    assert_eq!(spans.len(), g.nodes.len(), "one span per node");
    digest(&out)
}

/// The reference, compiled and head-input digests of a detector, checked
/// against its three lines of the golden.
fn assert_detector_matches_the_golden(name: &str, edge: usize, model: &Graph) {
    let compiled = compile(model);
    let input = [seeded_input(compiled.input_shape())];
    let reference = Executor.run(model, &input);
    let optimized = compiled.run(&input);
    let heads = traced_heads(&compiled.placement().graph, &input);
    // All-CPU placement, the degraded variant's, inserts no copy: its graph
    // is the all-GPU one, folds included, run in its own workspace. The
    // vision fallback copies.
    let degraded = compiled.degraded();
    assert_eq!(
        degraded.placement().graph,
        compiled.placement().graph,
        "{name}: degraded graph"
    );
    assert_eq!(
        digest(&degraded.run(&input)),
        digest(&optimized),
        "{name}: degraded bits"
    );
    let fallback = place(compiled.graph(), PlacementPolicy::FallbackVision);
    assert!(fallback.copy_count() > 0, "{name}: the fallback copies");
    assert_eq!(
        traced_heads(&fallback.graph, &input),
        heads,
        "{name}: FallbackVision bits"
    );

    let actual = format!(
        "{name}@{edge} reference {:016x}\n{name}@{edge} compiled {:016x}\n{name}@{edge} heads {heads:016x}\n",
        digest(&reference),
        digest(&optimized)
    );
    let golden = include_str!("golden/zoo.digest");
    let want: String = golden
        .lines()
        .filter(|l| l.starts_with(&format!("{name}@")))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(actual, want);
}

#[test]
fn ssd_mobilenet_matches_the_golden_on_every_placement() {
    assert_detector_matches_the_golden(
        "SSD_MobileNet1.0",
        EDGE,
        &unigpu_models::ssd_mobilenet(EDGE, 20),
    );
}

#[test]
fn ssd_resnet50_matches_the_golden_on_every_placement() {
    assert_detector_matches_the_golden(
        "SSD_ResNet50",
        EDGE,
        &unigpu_models::ssd_resnet50(EDGE, 20),
    );
}

#[test]
fn yolov3_matches_the_golden_on_every_placement() {
    assert_detector_matches_the_golden("Yolov3", 32, &unigpu_models::yolov3(32, 80));
}
