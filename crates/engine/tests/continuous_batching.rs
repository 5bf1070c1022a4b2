//! Event-driven scheduler guarantees through the streaming `Server` API:
//! continuous batching (mid-flight arrivals join the next formation slot),
//! the pipelining win over the phase-sequential baseline, deterministic
//! replay across entry points, incremental poll/drain harvesting, the
//! chaos accounting invariant on the direct API, and 10k in-flight
//! requests on a single thread.

use std::time::Duration;
use unigpu_device::{DeviceFaultPlan, Platform};
use unigpu_engine::{
    serve_phase_sequential, uniform_requests, CompiledModel, InferenceRequest, Engine,
    ServeConfig,
};
use unigpu_graph::{Activation, Graph, OpKind};
use unigpu_ops::ConvWorkload;
use unigpu_telemetry::{MetricsRegistry, SpanRecorder};
use unigpu_tensor::{Shape, Tensor};

fn conv_model(name: &str) -> Graph {
    let mut g = Graph::new(name);
    let w0 = ConvWorkload::square(1, 3, 8, 16, 3, 1, 1);
    let x = g.add(
        OpKind::Input {
            shape: Shape::from(w0.input_shape()),
        },
        vec![],
        "data",
    );
    let wt0 = g.add(
        OpKind::constant(Tensor::zeros(w0.weight_shape())),
        vec![],
        "w0",
    );
    let c0 = g.add(
        OpKind::Conv2d {
            w: w0,
            bias: false,
            act: Activation::Relu,
        },
        vec![x, wt0],
        "conv0",
    );
    g.mark_output(c0);
    g
}

fn compile(name: &str) -> CompiledModel {
    Engine::builder()
        .platform(Platform::deeplens())
        .persist(false)
        .build()
        .compile(&conv_model(name))
}

fn req(compiled: &CompiledModel, id: usize, arrival_ms: f64) -> InferenceRequest {
    InferenceRequest {
        id,
        shape: compiled.input_shape(),
        arrival_ms,
        trace: None,
    }
}

/// A request submitted while a batch is on the device joins the *next*
/// formation slot, starting the instant the lane frees — visible through
/// the per-request trace spans' `slot` attribute and the
/// `engine.continuous_joins` counter.
#[test]
fn mid_flight_arrival_joins_the_next_formation_slot() {
    let compiled = compile("joins");
    let spans = SpanRecorder::new();
    let metrics = MetricsRegistry::new();
    let e1 = compiled.estimate_batch_ms(1);
    let cfg = ServeConfig::builder()
        .concurrency(1)
        .max_batch(4)
        .batch_window(Duration::ZERO) // launch the moment a lane frees
        .build()
        .expect("valid config");

    let mut server = compiled.server_with(&cfg, &spans, &metrics);
    // r0 launches alone (zero window, nothing else queued)...
    server.submit(req(&compiled, 0, 0.0));
    assert_eq!(server.inflight(), 1, "r0 is on the device");
    // ...and r1/r2 arrive while it is still executing
    server.submit(req(&compiled, 1, 0.3 * e1));
    server.submit(req(&compiled, 2, 0.5 * e1));
    assert_eq!(server.continuous_joins(), 2, "both arrivals were mid-flight");
    let report = server.shutdown();

    assert_eq!(report.results.len(), 3);
    assert_eq!(report.batches, 2, "r1 and r2 coalesced into one batch");
    assert_eq!(metrics.counter("engine.continuous_joins"), 2);

    let recorded = spans.spans();
    let slot = |name: &str| {
        let s = recorded
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("span {name} recorded"));
        let attr = |k: &str| {
            s.attrs
                .iter()
                .find(|(a, _)| a == k)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| panic!("span {name} carries attr {k}"))
        };
        (attr("slot"), attr("batch"), s.start_us)
    };
    let (slot0, batch0, _) = slot("req0");
    assert_eq!((slot0.as_str(), batch0.as_str()), ("0", "1"));
    for name in ["req1", "req2"] {
        let (slot_n, batch_n, start_us) = slot(name);
        assert_eq!(slot_n, "1", "{name} rode the next formation slot");
        assert_eq!(batch_n, "2", "{name} shared the two-request batch");
        assert!(
            (start_us - e1 * 1000.0).abs() < 1e-6,
            "{name} started the instant the lane freed: {start_us} vs {}",
            e1 * 1000.0
        );
    }
}

/// Under saturating load, overlapping formation/execution/readback must
/// strictly beat the phase-sequential baseline on both device idleness and
/// throughput — the PR's acceptance criterion, and the paper's core
/// keep-the-GPU-busy concern restated at the serving layer.
#[test]
fn pipelining_beats_the_phase_sequential_baseline() {
    let compiled = compile("pipelining");
    let n = 64;
    let e1 = compiled.estimate_batch_ms(1);
    let cfg = ServeConfig::builder()
        .concurrency(4)
        .max_batch(8)
        .batch_window(Duration::ZERO)
        .build()
        .expect("valid config");
    let arrivals = uniform_requests(&compiled, n, e1 / 4.0);

    let mut server = compiled.server_with(&cfg, &SpanRecorder::new(), &MetricsRegistry::new());
    for r in arrivals.clone() {
        server.submit(r);
    }
    let event_driven = server.shutdown();
    let baseline = serve_phase_sequential(
        &compiled,
        arrivals,
        &cfg,
        &SpanRecorder::new(),
        &MetricsRegistry::new(),
    );

    for (label, report) in [("event-driven", &event_driven), ("baseline", &baseline)] {
        assert_eq!(report.results.len(), n, "{label} completes everything");
        assert_eq!(report.lost(), 0, "{label} loses nothing");
    }
    assert!(
        event_driven.device_idle_fraction < baseline.device_idle_fraction,
        "pipelining strictly reduces device idleness: {} vs {}",
        event_driven.device_idle_fraction,
        baseline.device_idle_fraction
    );
    assert!(
        event_driven.throughput_rps() > baseline.throughput_rps(),
        "pipelining strictly raises throughput: {} vs {}",
        event_driven.throughput_rps(),
        baseline.throughput_rps()
    );
}

/// The same zero-noise workload produces byte-identical report digests on
/// every run — the property the ci.sh determinism gate checks end to end.
#[test]
fn zero_noise_runs_are_replayable() {
    let compiled = compile("determinism");
    let cfg = ServeConfig::builder()
        .concurrency(2)
        .max_batch(4)
        .batch_window(Duration::from_millis(2))
        .build()
        .expect("valid config");
    let run_streaming = || {
        let mut server =
            compiled.server_with(&cfg, &SpanRecorder::new(), &MetricsRegistry::new());
        for r in uniform_requests(&compiled, 16, 0.1) {
            server.submit(r);
        }
        server.shutdown().digest()
    };
    let a = run_streaming();
    let b = run_streaming();
    assert_eq!(a, b, "two streaming runs agree bit for bit");
}

/// `poll` hands out only what has retired since the last harvest; `drain`
/// runs the clock to quiescence without closing the queue.
#[test]
fn poll_and_drain_harvest_results_incrementally() {
    let compiled = compile("streaming");
    let cfg = ServeConfig::builder()
        .concurrency(1)
        .max_batch(2)
        .batch_window(Duration::from_millis(5))
        .build()
        .expect("valid config");
    let mut server = compiled.server_with(&cfg, &SpanRecorder::new(), &MetricsRegistry::new());
    server.submit(req(&compiled, 0, 0.0));
    server.submit(req(&compiled, 1, 0.0)); // fills the batch: launches now
    assert!(
        server.poll().is_empty(),
        "poll never advances the clock; the batch is still in flight"
    );
    let first = server.drain();
    assert_eq!(
        first.iter().map(|r| r.id).collect::<Vec<_>>(),
        vec![0, 1],
        "drain runs the readback and hands both results out"
    );
    assert!(server.poll().is_empty(), "nothing new since the drain");

    // the queue is still open after a drain
    server.submit(req(&compiled, 2, 1.0));
    let second = server.drain();
    assert_eq!(second.len(), 1, "the held window flushed on the sim clock");
    assert_eq!(second[0].id, 2);

    let report = server.shutdown();
    assert_eq!(report.offered, 3);
    assert_eq!(report.results.len(), 3, "the report re-lists every result");
    assert_eq!(report.lost(), 0);
}

/// The PR 5 chaos plan through the *direct* streaming API: deadlines,
/// retries, breaker, degraded re-placement, and panic isolation all run
/// inside the event loop, and the accounting invariant holds.
#[test]
fn direct_api_chaos_preserves_the_accounting_invariant() {
    let compiled = compile("direct-chaos");
    let metrics = MetricsRegistry::new();
    let n = 48;
    let cfg = ServeConfig::builder()
        .concurrency(2)
        .max_batch(4)
        .batch_window(Duration::from_millis(1))
        .faults(DeviceFaultPlan::parse(
            "kernel_fail_first=4,kernel_fail_nth=9,throttle_after_ms=2:1.5,worker_panic_nth=6",
        ))
        .breaker_threshold(3)
        .breaker_cooldown_ms(1.0)
        .build()
        .expect("valid config");
    let single = compiled.estimate_batch_ms(1);
    let mut server = compiled.server_with(&cfg, &SpanRecorder::new(), &metrics);
    for r in uniform_requests(&compiled, n, single / 2.0) {
        server.submit(r);
    }
    let report = server.shutdown();

    assert_eq!(report.offered, n);
    assert_eq!(report.lost(), 0, "chaos never loses a request");
    assert_eq!(report.results.len(), n, "all requests complete despite chaos");
    assert!(report.device_faults >= 4, "the fault plan actually fired");
    assert!(report.worker_panics >= 1, "the injected panic fired");
    assert!(report.degraded_batches >= 1, "CPU re-placement happened");
    assert_eq!(
        metrics.counter("engine.requests"),
        report.results.len() as u64
    );
}

/// 10k requests in flight through one single-threaded event loop — the
/// scale target thread-per-worker could not touch without 10k OS threads.
#[test]
fn ten_thousand_requests_on_one_thread() {
    let compiled = compile("scale");
    let n = 10_000;
    let cfg = ServeConfig::builder()
        .concurrency(4)
        .max_batch(16)
        .batch_window(Duration::from_millis(2))
        .trace_sample_every(0) // spans off: this test is about scale
        .build()
        .expect("valid config");
    let spans = SpanRecorder::new();
    let mut server = compiled.server_with(&cfg, &spans, &MetricsRegistry::new());
    for r in uniform_requests(&compiled, n, 0.0) {
        server.submit(r);
    }
    assert!(
        server.queue_depth() + server.inflight() * 16 > 0,
        "work is pending without any worker threads"
    );
    let report = server.shutdown();
    assert_eq!(report.results.len(), n);
    assert_eq!(report.lost(), 0);
    assert_eq!(report.batches, n / 16, "full batches all the way through");
    assert!(spans.spans().is_empty(), "sampling off records no spans");
}
