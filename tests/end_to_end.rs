//! Integration tests spanning the whole stack: model construction → graph
//! optimization → placement → functional execution → tuning → latency.

use unigpu::baselines::{baseline_for, openvino};
use unigpu::device::Platform;
use unigpu::engine::EngineBuilder;
use unigpu::graph::latency::FallbackSchedules;
use unigpu::graph::passes::optimize;
use unigpu::graph::{
    estimate_latency, place, Executor, Graph, LatencyOptions, LatencyReport, PlacementPolicy,
};
use unigpu::models::{mobilenet, resnet50, ssd_mobilenet, squeezenet};
use unigpu::tensor::init::random_uniform;
use unigpu::tensor::allclose;
use unigpu::tuner::{tune_graph, TuningBudget};
use unigpu::Engine;

fn engine(plat: &Platform) -> EngineBuilder {
    Engine::builder().platform(plat.clone()).persist(false)
}

/// Our stack on fallback (untuned) schedules.
fn ours_untuned(g: &Graph, plat: &Platform) -> LatencyReport {
    engine(plat).build().compile(g).estimate()
}

#[test]
fn optimization_and_placement_preserve_model_outputs() {
    let g = mobilenet(1, 32, 10);
    let x = random_uniform([1, 3, 32, 32], 17);
    let base = Executor.run(&g, &[x.clone()]);

    let opt = optimize(&g);
    let opt_out = Executor.run(&opt, &[x.clone()]);
    assert!(
        allclose(&opt_out[0], &base[0], 1e-3, 1e-4),
        "BN folding + fusion must preserve outputs"
    );

    for policy in [PlacementPolicy::AllGpu, PlacementPolicy::FallbackVision, PlacementPolicy::AllCpu] {
        let placed = place(&opt, policy);
        let got = Executor.run(&placed.graph, &[x.clone()]);
        assert_eq!(got, opt_out, "{policy:?} changed results");
    }
}

#[test]
fn detection_pipeline_runs_and_respects_nms_contract() {
    let g = optimize(&ssd_mobilenet(64, 3));
    let x = random_uniform([1, 3, 64, 64], 23);
    let dets = &Executor.run(&g, &[x])[0];
    let v = dets.as_f32();
    let mut last = f32::INFINITY;
    let mut invalid_seen = false;
    for row in v.chunks(6) {
        if row[0] < 0.0 {
            invalid_seen = true;
            assert!(row.iter().all(|&x| x == -1.0));
        } else {
            assert!(!invalid_seen, "valid detections must be a prefix");
            assert!(row[1] <= last);
            last = row[1];
        }
    }
}

#[test]
fn tuning_improves_every_platform_and_is_deterministic() {
    let g = squeezenet(1, 224, 10);
    let budget = TuningBudget { trials_per_workload: 32, ..Default::default() };
    for plat in Platform::all() {
        let db = tune_graph(&g, &plat.gpu, &budget);
        let db2 = tune_graph(&g, &plat.gpu, &budget);
        assert_eq!(db.to_json_lines(), db2.to_json_lines(), "tuning must be deterministic");
        let before = ours_untuned(&g, &plat);
        let after = engine(&plat).tuned_database(db).build().compile(&g).estimate();
        assert!(
            after.total_ms < before.total_ms,
            "{}: {} !< {}",
            plat.name,
            after.total_ms,
            before.total_ms
        );
    }
}

#[test]
fn vision_optimization_speeds_up_detection_on_every_gpu() {
    let g = optimize(&ssd_mobilenet(300, 20));
    for plat in Platform::all() {
        let placed = place(&g, PlacementPolicy::AllGpu);
        let naive = estimate_latency(
            &placed,
            &plat,
            &FallbackSchedules,
            &LatencyOptions { vision_optimized: false },
        );
        let opt = estimate_latency(
            &placed,
            &plat,
            &FallbackSchedules,
            &LatencyOptions { vision_optimized: true },
        );
        assert!(
            naive.total_ms > opt.total_ms,
            "{}: vision opt should speed up detection ({} vs {})",
            plat.name,
            naive.total_ms,
            opt.total_ms
        );
        // the vision portion itself must improve by a wide margin
        assert!(
            naive.vision_ms() > 2.0 * opt.vision_ms(),
            "{}: vision ops {} vs {}",
            plat.name,
            naive.vision_ms(),
            opt.vision_ms()
        );
    }
}

#[test]
fn fallback_overhead_is_under_one_percent() {
    let g = optimize(&ssd_mobilenet(300, 20));
    let plat = Platform::deeplens();
    let opts = LatencyOptions::default();
    let gpu = estimate_latency(&place(&g, PlacementPolicy::AllGpu), &plat, &FallbackSchedules, &opts);
    let fb_placed = place(&g, PlacementPolicy::FallbackVision);
    let fb = estimate_latency(&fb_placed, &plat, &FallbackSchedules, &opts);
    let overhead = fb.total_ms / gpu.total_ms - 1.0;
    assert!(
        overhead.abs() < 0.01,
        "§3.1.2: fallback overhead must be <1%, got {:.3}%",
        overhead * 100.0
    );
    assert!(fb_placed.copy_count() > 0, "fallback must actually cross devices");
    assert!(fb.transfer_ms > 0.0);
}

#[test]
fn openvino_coverage_gap_reproduces() {
    // Table 1: "—" cells for detection models on OpenVINO.
    let b = openvino();
    let plat = Platform::deeplens();
    let det = ssd_mobilenet(128, 5);
    assert!(b.latency(&det, &plat, true).is_none());
    let cls = squeezenet(1, 64, 10);
    assert!(b.latency(&cls, &plat, false).is_some());
    // while our stack covers everything
    let ours = ours_untuned(&det, &plat);
    assert!(ours.total_ms.is_finite() && ours.total_ms > 0.0);
}

#[test]
fn recompiling_the_same_model_hits_the_artifact_cache() {
    let g = squeezenet(1, 64, 10);
    let engine = engine(&Platform::deeplens()).build();
    let first = engine.compile(&g);
    assert!(!first.from_cache());
    // same model, same engine → in-memory artifact cache hit, same estimate
    let second = engine.compile(&g);
    assert!(second.from_cache());
    assert_eq!(second.estimate().total_ms, first.estimate().total_ms);
}

#[test]
fn latency_reports_are_reproducible() {
    let g = resnet50(1, 224, 1000);
    let plat = Platform::jetson_nano();
    let a = ours_untuned(&g, &plat).total_ms;
    let b = ours_untuned(&g, &plat).total_ms;
    assert_eq!(a, b);
    let base = baseline_for(&plat).latency(&g, &plat, false).unwrap().total_ms;
    let base2 = baseline_for(&plat).latency(&g, &plat, false).unwrap().total_ms;
    assert_eq!(base, base2);
}
