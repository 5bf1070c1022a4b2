//! Structural claims of the paper's evaluation, verified mechanically:
//! each test encodes a *shape* of a result (who wins, where the effect is
//! largest) rather than an absolute number.

use unigpu::baselines::{acl, baseline_for, cudnn_mxnet, openvino};
use unigpu::device::Platform;
use unigpu::graph::latency::FallbackSchedules;
use unigpu::graph::passes::optimize;
use unigpu::engine::EngineBuilder;
use unigpu::graph::{
    estimate_latency, place, Graph, LatencyOptions, LatencyReport, PlacementPolicy,
};
use unigpu::models::{mobilenet, squeezenet, ssd_mobilenet, yolov3};
use unigpu::tuner::{tune_graph, Database, TunedSchedules, TuningBudget};
use unigpu::Engine;

fn tune(g: &Graph, plat: &Platform) -> Database {
    let budget = TuningBudget { trials_per_workload: 48, ..Default::default() };
    tune_graph(g, &plat.gpu, &budget)
}

fn engine(plat: &Platform) -> EngineBuilder {
    Engine::builder().platform(plat.clone()).persist(false)
}

/// Our stack on fallback (untuned) schedules — Table 5's "Before".
fn ours_untuned(g: &Graph, plat: &Platform) -> LatencyReport {
    engine(plat).build().compile(g).estimate()
}

/// Our stack on schedules tuned for `g` on `plat` — the "Ours" columns.
fn ours_tuned(g: &Graph, plat: &Platform) -> LatencyReport {
    engine(plat).tuned_database(tune(g, plat)).build().compile(g).estimate()
}

/// §1/§4.2: "compared to the state-of-the-art solutions ... our solution
/// achieves similar, or even better (up to 1.62×) performance" — on Jetson
/// Nano we beat cuDNN on classification models.
#[test]
fn ours_beats_cudnn_on_nano_classification() {
    let plat = Platform::jetson_nano();
    for g in [mobilenet(1, 224, 1000), squeezenet(1, 224, 1000)] {
        let ours = ours_tuned(&g, &plat).total_ms;
        let base = cudnn_mxnet().latency(&g, &plat, false).unwrap().total_ms;
        assert!(
            base > ours,
            "{}: cuDNN {base:.1} should lose to ours {ours:.1}",
            g.name
        );
    }
}

/// Table 1's inversion: OpenVINO's mature Intel depthwise kernel beats our
/// stack on MobileNet (speedup 0.62×), because "our depth-wise convolution
/// has not been fully optimized for Intel Graphics" (§4.2).
#[test]
fn openvino_wins_mobilenet_on_deeplens() {
    let plat = Platform::deeplens();
    let g = mobilenet(1, 224, 1000);
    let ours = ours_tuned(&g, &plat).total_ms;
    let vino = openvino().latency(&g, &plat, false).unwrap().total_ms;
    assert!(
        vino < ours,
        "OpenVINO {vino:.1} must beat ours {ours:.1} on Intel depthwise"
    );
    // ...but the same MobileNet on Mali is OURS to win (Table 2: 1.21x).
    let plat2 = Platform::aisage();
    let ours2 = ours_tuned(&g, &plat2).total_ms;
    let aclb = acl().latency(&g, &plat2, false).unwrap().total_ms;
    assert!(aclb > ours2, "ACL {aclb:.1} should lose to ours {ours2:.1} on Mali");
}

/// Table 4's footnote: "aiSage benefits most from the vision-specific
/// operations ... Mali GPUs do not have shared memory, therefore load
/// balancing, data assessment and branch divergence matter more".
#[test]
fn mali_benefits_most_from_vision_ops() {
    let g = optimize(&yolov3(320, 80));
    let mut speedups = Vec::new();
    for plat in Platform::all() {
        let placed = place(&g, PlacementPolicy::AllGpu);
        let before = estimate_latency(
            &placed,
            &plat,
            &FallbackSchedules,
            &LatencyOptions { vision_optimized: false },
        );
        let after = estimate_latency(
            &placed,
            &plat,
            &FallbackSchedules,
            &LatencyOptions { vision_optimized: true },
        );
        speedups.push((plat.name.clone(), before.total_ms / after.total_ms));
    }
    let mali = speedups.iter().find(|(n, _)| n == "Acer aiSage").unwrap().1;
    for (name, s) in &speedups {
        assert!(
            mali >= *s,
            "Mali ({mali:.2}x) must benefit at least as much as {name} ({s:.2}x)"
        );
    }
}

/// Table 5's footnote: SqueezeNet improves the most under tuning because
/// "the network is fairly new so there is no manually written implementation
/// of it in good performance" — its tuning speedup must exceed ResNet50's on
/// every platform.
#[test]
fn squeezenet_gains_more_from_tuning_than_resnet() {
    use unigpu::models::resnet50;
    for plat in Platform::all() {
        let sq = squeezenet(1, 224, 1000);
        let rn = resnet50(1, 224, 1000);
        let sq_speedup = ours_untuned(&sq, &plat).total_ms / ours_tuned(&sq, &plat).total_ms;
        let rn_speedup = ours_untuned(&rn, &plat).total_ms / ours_tuned(&rn, &plat).total_ms;
        assert!(
            sq_speedup > rn_speedup,
            "{}: SqueezeNet ({sq_speedup:.2}x) should out-gain ResNet50 ({rn_speedup:.2}x)",
            plat.name
        );
    }
}

/// §1: the GPU delivers more FLOPs than the accompanying CPU on every
/// platform (5.16×/6.77×/2.48×), so conv-heavy graphs run faster on the GPU.
#[test]
fn gpu_outruns_cpu_on_every_platform() {
    // §1's FLOPs argument presumes decent schedules: tune first (with the
    // untuned fallback the GPU can genuinely lose — Table 5's whole point).
    let raw = mobilenet(1, 224, 1000);
    let g = optimize(&raw);
    for plat in Platform::all() {
        let provider = TunedSchedules::new(tune(&raw, &plat));
        let opts = LatencyOptions::default();
        let gpu = estimate_latency(&place(&g, PlacementPolicy::AllGpu), &plat, &provider, &opts);
        let cpu = estimate_latency(&place(&g, PlacementPolicy::AllCpu), &plat, &provider, &opts);
        assert!(
            cpu.total_ms > gpu.total_ms,
            "{}: CPU {:.1} must be slower than GPU {:.1}",
            plat.name,
            cpu.total_ms,
            gpu.total_ms
        );
    }
}

/// §4.1: wider model coverage — every model of the zoo runs on our stack on
/// every platform, while the Intel baseline covers only half the zoo.
#[test]
fn coverage_is_wider_than_baselines() {
    let zoo = unigpu::models::full_zoo();
    let mut ours_count = 0;
    let mut baseline_count = 0;
    for plat in Platform::all() {
        let b = baseline_for(&plat);
        let aisage = plat.name.contains("aiSage");
        for e in &zoo {
            let g = (e.build)(aisage);
            ours_count += 1;
            let ours = ours_untuned(&g, &plat);
            assert!(ours.total_ms > 0.0);
            if !e.is_detection {
                assert_eq!(ours.cpu_ms, 0.0, "classification runs fully on GPU");
            }
            if b.latency(&g, &plat, e.is_detection).is_some() {
                baseline_count += 1;
            }
        }
    }
    assert_eq!(ours_count, 18);
    assert_eq!(baseline_count, 15, "OpenVINO misses the 3 detection models");
}

/// SSD on aiSage uses 300² inputs (§4.2's memory-limit note) and is
/// correspondingly cheaper than the 512² variant on the other platforms.
#[test]
fn aisage_input_reduction_shrinks_ssd() {
    let g512 = ssd_mobilenet(512, 20);
    let g300 = ssd_mobilenet(300, 20);
    let plat = Platform::aisage();
    let t512 = ours_untuned(&g512, &plat).total_ms;
    let t300 = ours_untuned(&g300, &plat).total_ms;
    assert!(t300 < t512 * 0.6, "300² must be much cheaper: {t300:.1} vs {t512:.1}");
}
