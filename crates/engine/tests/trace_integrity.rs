//! Trace-integrity and utilization accounting under chaos at 4x offered
//! load: every span of a sampled request carries that request's trace id,
//! the Chrome export parses as JSON, latency-histogram bucket counts sum to
//! the counted completions, and the device-idle-fraction metric agrees with
//! the value re-derived from the exported trace.

mod common;

use common::serve;
use std::collections::HashSet;
use std::time::Duration;
use unigpu_device::{DeviceFaultPlan, Platform};
use unigpu_engine::{
    uniform_requests, Engine, ServeConfig, ServeReport, LANE_WORKER_BASE,
};
use unigpu_graph::{Activation, Graph, OpKind};
use unigpu_ops::ConvWorkload;
use unigpu_telemetry::{ChromeTrace, MetricsRegistry, SpanRecorder, TraceContext};
use unigpu_tensor::{Shape, Tensor};

const WORKERS: usize = 2;
const REQUESTS: usize = 64;

fn conv_model(name: &str) -> Graph {
    let mut g = Graph::new(name);
    let w0 = ConvWorkload::square(1, 3, 8, 16, 3, 1, 1);
    let x = g.add(OpKind::Input { shape: Shape::from(w0.input_shape()) }, vec![], "data");
    let wt0 = g.add(OpKind::constant(Tensor::zeros(w0.weight_shape())), vec![], "w0");
    let c0 = g.add(
        OpKind::Conv2d { w: w0, bias: false, act: Activation::Relu },
        vec![x, wt0],
        "conv0",
    );
    g.mark_output(c0);
    g
}

/// One chaos serve at 4x the aggregate per-worker capacity: every 5th
/// kernel launch fails (transient), sustained load throttles the device,
/// every 9th batch panics its worker. Retries are effectively unbounded and
/// the breaker threshold is out of reach, so every injected kernel fault is
/// retried on-device and leaves a `retry` control span (which keeps the
/// exported trace a complete record of device-lane occupancy).
fn chaos_serve() -> (ServeReport, SpanRecorder, MetricsRegistry) {
    let compiled = Engine::builder()
        .platform(Platform::deeplens())
        .persist(false)
        .build()
        .compile(&conv_model("trace-integrity"));
    let spans = SpanRecorder::new();
    let metrics = MetricsRegistry::new();
    let cfg = ServeConfig {
        concurrency: WORKERS,
        max_batch: 4,
        batch_window: Duration::from_millis(1),
        faults: DeviceFaultPlan::parse(
            "kernel_fail_nth=5,throttle_after_ms=2:1.3,worker_panic_nth=9",
        ),
        max_retries: 1_000,
        breaker_threshold: 1_000_000,
        ..Default::default()
    };
    let single = compiled.estimate_batch_ms(1);
    // 4x offered load: requests arrive four times faster than the workers
    // collectively drain single-sample executions
    let interval = single / (WORKERS as f64 * 4.0);
    let report =
        serve(&compiled, uniform_requests(&compiled, REQUESTS, interval), &cfg, &spans, &metrics);
    (report, spans, metrics)
}

#[test]
fn every_span_of_a_sampled_request_shares_one_trace_id() {
    let (report, spans, _metrics) = chaos_serve();
    assert_eq!(report.results.len(), REQUESTS, "chaos must not lose requests");
    assert!(report.device_faults >= 1, "the fault plan actually fired");
    assert!(report.retries >= 1, "transient faults retried");

    let recorded = spans.spans();
    // Each completed request's span carries exactly the deterministic
    // trace derived from its id (trace_sample_every = 1 samples them all).
    let mut request_trace_ids = HashSet::new();
    for r in &report.results {
        let expected = TraceContext::from_seed(r.id as u64);
        let span = recorded
            .iter()
            .find(|s| s.category == "request" && s.name == format!("req{}", r.id))
            .unwrap_or_else(|| panic!("no span for request {}", r.id));
        let ctx = span.trace.expect("sampled request span carries its trace");
        assert_eq!(ctx.trace_id, expected.trace_id, "req{} trace id", r.id);
        assert_eq!(ctx.span_id, expected.span_id, "req{} span id", r.id);
        request_trace_ids.insert(ctx.trace_id);
    }
    // Control spans (retries) stitch into the trace of a request riding
    // the batch — never a trace id that belongs to no request.
    let mut retry_spans = 0;
    for s in recorded.iter().filter(|s| s.category == "retry") {
        retry_spans += 1;
        let ctx = s.trace.expect("retry spans stitch into a request trace");
        assert!(
            request_trace_ids.contains(&ctx.trace_id),
            "retry span {} carries unknown trace id {:016x}",
            s.name,
            ctx.trace_id
        );
    }
    assert!(retry_spans >= 1, "chaos produced at least one retry span");
}

#[test]
fn sampling_zero_disables_tracing_and_sampling_n_thins_it() {
    let compiled = Engine::builder()
        .platform(Platform::deeplens())
        .persist(false)
        .build()
        .compile(&conv_model("trace-sampling"));
    let serve_with = |every: usize| {
        let spans = SpanRecorder::new();
        let metrics = MetricsRegistry::new();
        let cfg = ServeConfig {
            concurrency: 1,
            max_batch: 4,
            trace_sample_every: every,
            ..Default::default()
        };
        serve(&compiled, uniform_requests(&compiled, 16, 0.0), &cfg, &spans, &metrics);
        spans.spans()
    };
    assert!(
        serve_with(0).iter().all(|s| s.trace.is_none()),
        "trace_sample_every = 0 leaves every span untraced"
    );
    let sampled = serve_with(4);
    let traced: Vec<_> =
        sampled.iter().filter(|s| s.category == "request" && s.trace.is_some()).collect();
    assert_eq!(traced.len(), 4, "ids 0,4,8,12 of 16 are sampled");
}

#[test]
fn chrome_export_parses_as_json_with_complete_events() {
    let (report, spans, metrics) = chaos_serve();
    let mut trace = ChromeTrace::new();
    trace.add_spans(&spans.spans());
    trace.add_metrics(&metrics.snapshot(), report.makespan_ms * 1000.0);
    let parsed: serde_json::Value =
        serde_json::from_str(&trace.to_json()).expect("chrome export is valid JSON");
    let events = parsed["traceEvents"].as_array().expect("traceEvents array");
    assert!(!events.is_empty());
    for e in events {
        let ph = e["ph"].as_str().expect("every event has a ph");
        // Complete ("X") events are self-balancing; the exporter never
        // emits unpaired B/E begin/end events.
        assert!(
            matches!(ph, "X" | "C" | "M"),
            "unexpected phase {ph} in {e}"
        );
        if ph == "X" {
            assert!(e["dur"].as_f64().expect("X events carry dur") >= 0.0);
            assert!(e["ts"].as_f64().expect("X events carry ts") >= 0.0);
        }
    }
    // sampled request ids are greppable in the export
    assert!(
        events.iter().any(|e| e["args"]["trace_id"].as_str().is_some()),
        "traced spans export their trace_id as an arg"
    );
}

#[test]
fn latency_histogram_bucket_counts_sum_to_completions() {
    let (report, _spans, metrics) = chaos_serve();
    let snap = metrics.snapshot();
    let (_, hist) = snap
        .raw_histograms
        .iter()
        .find(|(name, _)| name == "engine.latency_ms")
        .expect("latency histogram present");
    let bucket_sum: u64 = hist.buckets.iter().sum();
    assert_eq!(bucket_sum, hist.count, "buckets partition every observation");
    assert_eq!(
        hist.count,
        report.results.len() as u64,
        "one latency observation per completed request"
    );
    assert_eq!(metrics.counter("engine.requests"), report.results.len() as u64);
}

#[test]
fn device_idle_fraction_matches_the_trace_derived_value() {
    let (report, spans, _metrics) = chaos_serve();
    let mut trace = ChromeTrace::new();
    trace.add_spans(&spans.spans());
    let parsed: serde_json::Value =
        serde_json::from_str(&trace.to_json()).expect("chrome export is valid JSON");
    let events = parsed["traceEvents"].as_array().expect("traceEvents array");

    // Re-derive device busy time from the export alone. Request spans on
    // the worker lanes tile batch execution (every request of a batch
    // shares one interval — dedupe by (lane, ts, dur)); retry control
    // spans account for the lane time failed launches occupied.
    let mut batch_intervals: HashSet<(u64, u64, u64)> = HashSet::new();
    let mut fault_us = 0.0;
    for e in events {
        if e["ph"].as_str() != Some("X") {
            continue;
        }
        let (ts, dur) = (e["ts"].as_f64().unwrap(), e["dur"].as_f64().unwrap());
        match e["cat"].as_str() {
            Some("request") => {
                let tid = e["tid"].as_u64().expect("request spans ride worker lanes");
                assert!(tid >= u64::from(LANE_WORKER_BASE));
                batch_intervals.insert((tid, ts.to_bits(), dur.to_bits()));
            }
            Some("retry") => fault_us += dur,
            _ => {}
        }
    }
    let busy_us: f64 =
        batch_intervals.iter().map(|&(_, _, dur)| f64::from_bits(dur)).sum::<f64>() + fault_us;
    let capacity_us = WORKERS as f64 * report.makespan_ms * 1000.0;
    let derived_idle = 1.0 - busy_us / capacity_us;
    assert!(
        (derived_idle - report.device_idle_fraction).abs() < 0.01,
        "trace-derived idle {derived_idle:.4} vs metric {:.4}",
        report.device_idle_fraction
    );
    assert_eq!(report.lane_utilization.len(), WORKERS);
    for u in &report.lane_utilization {
        assert!((0.0..=1.0).contains(u));
    }
}
