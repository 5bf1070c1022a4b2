//! Bit-for-bit safety net under the compiled plan: what `estimate()` and
//! `trace()` report must equal the files under `tests/golden/`, captured
//! before the plan was priced once per compiled model.
//!
//! * `plan.digest` holds one line per zoo model at its table size × platform
//!   × placement policy, on fallback schedules: FNV-1a over `estimate()`'s
//!   four totals and every `per_op` entry's name, op, device and ms bits.
//! * `plan_trace.json` is the Chrome trace `unigpu profile` writes for
//!   SSD_MobileNet1.0 on DeepLens under the vision fallback: spans on all
//!   three lanes, `DeviceCopy` spans with their byte counts, and the metrics.
//!
//! On a mismatch the actual bytes are written under the system temp
//! directory (the failure message names it), so an intended change is
//! re-captured by copying them over the goldens.

use std::path::{Path, PathBuf};
use unigpu_device::Platform;
use unigpu_engine::{CompiledModel, Engine};
use unigpu_graph::latency::{LANE_CPU, LANE_GPU, LANE_TRANSFER};
use unigpu_graph::{Graph, LatencyReport, PlacementPolicy};
use unigpu_telemetry::hash::Fnv1a;
use unigpu_telemetry::{ChromeTrace, MetricsRegistry, SpanRecorder};

const POLICIES: [PlacementPolicy; 3] = [
    PlacementPolicy::AllGpu,
    PlacementPolicy::FallbackVision,
    PlacementPolicy::AllCpu,
];

fn compile(model: &Graph, platform: &Platform, policy: PlacementPolicy) -> CompiledModel {
    Engine::builder()
        .platform(platform.clone())
        .policy(policy)
        .persist(false)
        .build()
        .compile(model)
}

fn digest(r: &LatencyReport) -> u64 {
    let mut h = Fnv1a::new();
    for ms in [r.total_ms, r.gpu_ms, r.cpu_ms, r.transfer_ms] {
        h.mix_u64(ms.to_bits());
    }
    for t in &r.per_op {
        let device = format!("{:?}", t.device);
        for field in [t.name.as_str(), t.op, device.as_str()] {
            h.update(field.as_bytes());
            h.mix_u64(0);
        }
        h.mix_u64(t.ms.to_bits());
    }
    h.finish()
}

/// Compares `actual` with `tests/golden/<name>`, writing it out on a mismatch.
fn check(name: &str, actual: &[u8]) {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
    let expected = std::fs::read(&golden).unwrap_or_default();
    if expected != actual {
        let dir: PathBuf = std::env::temp_dir().join("unigpu-plan-golden-actual");
        std::fs::create_dir_all(&dir)
            .and_then(|_| std::fs::write(dir.join(name), actual))
            .expect("write the actual bytes");
        panic!("{name} differs from its golden; actual bytes under {}", dir.display());
    }
}

#[test]
fn every_zoo_estimate_matches_the_golden() {
    let mut lines = String::new();
    for entry in unigpu_models::full_zoo() {
        for platform in Platform::all() {
            // one model alive at a time: the detectors hold hundreds of MB
            let model = (entry.build)(platform.name == Platform::aisage().name);
            for policy in POLICIES {
                let compiled = compile(&model, &platform, policy);
                lines += &format!(
                    "{} {} {policy:?} {:016x}\n",
                    entry.name,
                    platform.name,
                    digest(compiled.estimate())
                );
            }
        }
    }
    check("plan.digest", lines.as_bytes());
}

#[test]
fn the_ssd_profile_trace_matches_the_golden() {
    let platform = Platform::deeplens();
    let model = unigpu_models::ssd_mobilenet(512, 20);
    let compiled = compile(&model, &platform, PlacementPolicy::FallbackVision);
    let spans = SpanRecorder::new();
    let metrics = MetricsRegistry::new();
    let total_ms = compiled.trace(&spans, &metrics).total_ms;

    let recorded = spans.spans();
    for lane in [LANE_GPU, LANE_CPU, LANE_TRANSFER] {
        assert!(recorded.iter().any(|s| s.lane == lane), "no span on lane {lane}");
    }
    for s in recorded.iter().filter(|s| s.lane == LANE_TRANSFER) {
        assert!(s.attrs.iter().any(|(k, _)| k == "bytes"), "{} has no byte count", s.name);
    }

    // what `unigpu profile` writes
    let mut trace = ChromeTrace::new();
    trace.name_lane(LANE_GPU, format!("GPU: {}", platform.gpu.name));
    trace.name_lane(LANE_CPU, format!("CPU: {}", platform.cpu.name));
    trace.name_lane(LANE_TRANSFER, "CPU\u{2194}GPU transfer");
    trace.add_spans(&recorded);
    trace.add_metrics(&metrics.snapshot(), total_ms * 1000.0);
    check("plan_trace.json", trace.to_json().as_bytes());
}
