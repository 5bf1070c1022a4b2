//! Shared by the engine's integration suites.
#![allow(dead_code)] // each suite uses its own subset

use std::time::Duration;
use unigpu_device::{DeviceFaultPlan, Platform};
use unigpu_engine::{CompiledModel, Engine, InferenceRequest, ServeConfig, ServeReport};
use unigpu_telemetry::hash::splitmix64;
use unigpu_telemetry::{MetricsRegistry, SpanRecorder};

/// Submit a pre-collected request set in arrival order and shut down.
pub fn serve(
    compiled: &CompiledModel,
    requests: Vec<InferenceRequest>,
    cfg: &ServeConfig,
    spans: &SpanRecorder,
    metrics: &MetricsRegistry,
) -> ServeReport {
    let mut server = compiled.server_with(cfg, spans, metrics);
    for r in requests {
        server.submit(r);
    }
    server.shutdown()
}

/// The model and serve configs the benchmark's `serve_steady` /
/// `serve_chaos` workloads pin, with arrival schedules drawn the same way
/// (SplitMix64 gap jitter in [0.5, 1.5)): MobileNet1.0 on DeepLens with
/// fallback schedules, 4 lanes, max_batch 8, 2 ms window.
pub struct Pinned {
    pub compiled: CompiledModel,
    /// Simulated single-sample latency, ms.
    pub sample_ms: f64,
}

const LANES: usize = 4;
const SEED: u64 = 2019;

impl Pinned {
    pub fn mobilenet() -> Self {
        let entry = unigpu_models::full_zoo()
            .into_iter()
            .find(|e| e.name == "MobileNet1.0")
            .expect("MobileNet1.0 is in the zoo");
        let compiled = Engine::builder()
            .platform(Platform::deeplens())
            .persist(false)
            .build()
            .compile(&(entry.build)(false));
        let sample_ms = compiled.estimate_batch_ms(1);
        Pinned { compiled, sample_ms }
    }

    fn capacity_rps(&self) -> f64 {
        LANES as f64 * 1000.0 / self.sample_ms
    }

    pub fn steady_cfg(&self) -> ServeConfig {
        ServeConfig::builder()
            .concurrency(LANES)
            .max_batch(8)
            .batch_window(Duration::from_millis(2))
            .trace_sample_every(0)
            .build()
            .expect("valid steady config")
    }

    pub fn chaos_cfg(&self) -> ServeConfig {
        ServeConfig::builder()
            .concurrency(LANES)
            .max_batch(8)
            .batch_window(Duration::from_millis(2))
            .queue_cap(32)
            .deadline_ms(12.0 * self.sample_ms)
            .faults(DeviceFaultPlan::parse(
                "kernel_fail_nth=7,throttle_after_ms=5000000:1.5,mem_pressure=6",
            ))
            .trace_sample_every(0)
            .build()
            .expect("valid chaos config")
    }

    fn requests(&self, gaps_ms: impl Iterator<Item = f64>) -> Vec<InferenceRequest> {
        let shape = self.compiled.input_shape();
        let mut t = 0.0;
        gaps_ms
            .enumerate()
            .map(|(id, gap)| {
                t += gap;
                InferenceRequest {
                    id,
                    shape: shape.clone(),
                    arrival_ms: t,
                    trace: None,
                }
            })
            .collect()
    }

    /// `n` arrivals at 0.7 × capacity.
    pub fn steady_requests(&self, n: usize) -> Vec<InferenceRequest> {
        let mean_gap = 1000.0 / (0.7 * self.capacity_rps());
        let mut jitter = Jitter::new(1);
        self.requests((0..n).map(|_| mean_gap * jitter.next()))
    }

    /// `n` arrivals alternating 400-request bursts at 2 × capacity with
    /// lulls at 0.3 × capacity.
    pub fn chaos_requests(&self, n: usize) -> Vec<InferenceRequest> {
        let c = self.capacity_rps();
        let mut jitter = Jitter::new(2);
        self.requests((0..n).map(|i| {
            let load = if (i / 400) % 2 == 0 { 2.0 } else { 0.3 };
            1000.0 / (load * c) * jitter.next()
        }))
    }
}

/// Uniform gap multipliers in [0.5, 1.5).
struct Jitter(u64);

impl Jitter {
    fn new(stream: u64) -> Self {
        Jitter(SEED ^ stream.wrapping_mul(0xa076_1d64_78bd_642f))
    }

    fn next(&mut self) -> f64 {
        let z = splitmix64(self.0);
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        0.5 + (z >> 11) as f64 / (1u64 << 53) as f64
    }
}
