//! Fault-tolerance guarantees through the public serving API: the chaos
//! accounting invariant (no request is ever lost or hung), circuit-breaker
//! trip/recovery, deadline rejection, load shedding, panic isolation, and
//! the bit-identical no-fault path.

mod common;

use common::serve;
use std::time::Duration;
use unigpu_device::{DeviceFaultPlan, Platform};
use unigpu_engine::{uniform_requests, CompiledModel, Engine, ServeConfig, ServeReport};
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

/// Every offered request must land in exactly one bucket, with ids unique
/// across buckets and the matching `engine.*` counters agreeing.
fn assert_accounted(report: &ServeReport, metrics: &MetricsRegistry, offered: usize) {
    assert_eq!(report.offered, offered);
    assert_eq!(
        report.results.len() + report.shed.len() + report.expired.len() + report.failed.len(),
        offered,
        "every request lands in exactly one bucket"
    );
    assert_eq!(report.lost(), 0, "zero lost requests");
    let mut ids: Vec<usize> = report
        .results
        .iter()
        .map(|r| r.id)
        .chain(report.shed.iter().map(|r| r.id))
        .chain(report.expired.iter().map(|r| r.id))
        .chain(report.failed.iter().map(|r| r.id))
        .collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), offered, "no request appears in two buckets");
    assert_eq!(
        metrics.counter("engine.shed"),
        report.shed.len() as u64,
        "shed requests carry a counted reason"
    );
    assert_eq!(
        metrics.counter("engine.deadline_expired"),
        report.expired.len() as u64,
        "expired requests carry a counted reason"
    );
    assert_eq!(
        metrics.counter("engine.requests"),
        report.results.len() as u64
    );
    assert_eq!(metrics.counter("engine.retries"), report.retries as u64);
    assert_eq!(
        metrics.counter("engine.worker_panics"),
        report.worker_panics as u64
    );
}

#[test]
fn chaos_plan_trips_and_recovers_the_breaker_without_losing_requests() {
    let compiled = compile("chaos");
    let spans = SpanRecorder::new();
    let metrics = MetricsRegistry::new();
    let n = 48;
    // launches 1..=4 fail (trips the K=3 breaker and fails the first
    // half-open probe), then the device heals apart from every 9th launch;
    // sustained load throttles 1.5x; every 6th batch panics its worker.
    let cfg = ServeConfig {
        concurrency: 2,
        max_batch: 4,
        batch_window: Duration::from_millis(1),
        faults: DeviceFaultPlan::parse(
            "kernel_fail_first=4,kernel_fail_nth=9,throttle_after_ms=2:1.5,worker_panic_nth=6",
        ),
        breaker_threshold: 3,
        breaker_cooldown_ms: 1.0,
        ..Default::default()
    };
    let single = compiled.estimate_batch_ms(1);
    let report = serve(
        &compiled,
        uniform_requests(&compiled, n, single / 2.0),
        &cfg,
        &spans,
        &metrics,
    );

    assert_accounted(&report, &metrics, n);
    // unbounded queue, no deadline: nothing shed or expired, nothing failed
    assert_eq!(
        report.results.len(),
        n,
        "all requests complete despite chaos"
    );
    assert!(report.device_faults >= 4, "the fault plan actually fired");
    assert!(report.retries >= 1, "transient faults retried");
    assert!(
        report.degraded_batches >= 1,
        "open breaker routed batches to the CPU variant"
    );
    assert!(
        report.results.iter().any(|r| r.degraded),
        "some requests completed on the degraded placement"
    );
    assert!(report.breaker_trips >= 1, "breaker observed tripping");
    assert!(
        report.breaker_recoveries >= 1,
        "breaker observed recovering after the device healed"
    );
    assert!(report.worker_panics >= 1, "the injected panic fired");
    assert_eq!(
        metrics.counter("engine.breaker_trips"),
        report.breaker_trips as u64
    );
    assert_eq!(
        metrics.counter("engine.breaker_recoveries"),
        report.breaker_recoveries as u64
    );
    // breaker transitions and retries are visible on the trace
    let recorded = spans.spans();
    assert!(recorded.iter().any(|s| s.category == "breaker"));
    assert!(recorded.iter().any(|s| s.category == "retry"));
}

#[test]
fn no_fault_plan_serves_bit_identically_to_the_plain_scheduler() {
    let compiled = compile("identical");
    let n = 8;
    // one worker, one full batch: the schedule is fully deterministic
    let cfg = ServeConfig {
        concurrency: 1,
        max_batch: n,
        batch_window: Duration::from_millis(200),
        ..Default::default()
    };
    let run = || {
        let spans = SpanRecorder::new();
        let metrics = MetricsRegistry::new();
        serve(&compiled, uniform_requests(&compiled, n, 0.0), &cfg, &spans, &metrics)
    };
    let a = run();
    let b = run();

    assert_eq!(a.results.len(), n);
    assert_eq!(a.batches, 1, "everything coalesced into one batch");
    let exec = compiled.estimate_batch_ms(n);
    for r in &a.results {
        assert_eq!(r.start_ms, 0.0, "batch starts at the simulated origin");
        assert_eq!(
            r.done_ms, exec,
            "no-fault pricing is exactly the batched estimate"
        );
        assert!(!r.degraded);
    }
    // no fault machinery engaged at all
    assert_eq!((a.shed.len(), a.expired.len(), a.failed.len()), (0, 0, 0));
    assert_eq!(a.device_faults + a.retries + a.degraded_batches, 0);
    assert_eq!(a.breaker_trips + a.breaker_recoveries + a.worker_panics, 0);
    // bit-identical across runs
    assert_eq!(a.makespan_ms, b.makespan_ms);
    for (x, y) in a.results.iter().zip(&b.results) {
        assert_eq!(
            (x.id, x.batch_size, x.worker, x.degraded),
            (y.id, y.batch_size, y.worker, y.degraded)
        );
        assert_eq!(x.arrival_ms, y.arrival_ms);
        assert_eq!(x.start_ms, y.start_ms);
        assert_eq!(x.done_ms, y.done_ms);
    }
}

#[test]
fn tight_deadlines_reject_with_a_counted_reason_never_silently() {
    let compiled = compile("deadline");
    let n = 12;
    let single = compiled.estimate_batch_ms(1);
    let serve_with_deadline = |deadline_ms: f64| {
        let spans = SpanRecorder::new();
        let metrics = MetricsRegistry::new();
        let cfg = ServeConfig {
            concurrency: 1,
            max_batch: 4,
            batch_window: Duration::from_millis(1),
            deadline_ms: Some(deadline_ms),
            ..Default::default()
        };
        let report = serve(&compiled, uniform_requests(&compiled, n, 0.0), &cfg, &spans, &metrics);
        assert_accounted(&report, &metrics, n);
        report
    };
    // a budget below even a single-sample execution: no request can make it
    let hopeless = serve_with_deadline(single * 0.5);
    assert_eq!(hopeless.results.len(), 0);
    assert_eq!(hopeless.expired.len(), n, "all rejections counted");
    assert_eq!(hopeless.batches, 0, "rejected requests never execute");
    // a generous budget: everything completes
    let relaxed = serve_with_deadline(1e9);
    assert_eq!(relaxed.results.len(), n);
    assert_eq!(relaxed.expired.len(), 0);
}

#[test]
fn bounded_queue_sheds_overload_but_never_loses_accepted_requests() {
    let compiled = compile("shed");
    let n = 32;
    let spans = SpanRecorder::new();
    let metrics = MetricsRegistry::new();
    // capacity 1 and a long batch window: the feeder outruns the single
    // worker by construction, so admission control must shed
    let cfg = ServeConfig {
        concurrency: 1,
        max_batch: 4,
        batch_window: Duration::from_millis(50),
        queue_cap: Some(1),
        ..Default::default()
    };
    let report = serve(&compiled, uniform_requests(&compiled, n, 0.0), &cfg, &spans, &metrics);
    assert_accounted(&report, &metrics, n);
    assert!(
        !report.shed.is_empty(),
        "a 1-deep queue under a burst of {n} must shed"
    );
    assert!(
        !report.results.is_empty(),
        "admitted requests still complete"
    );
}

#[test]
fn worker_panics_are_isolated_and_batches_retried() {
    let compiled = compile("panics");
    let n = 24;
    let spans = SpanRecorder::new();
    let metrics = MetricsRegistry::new();
    // every second batch attempt panics its worker; the worker restarts and
    // re-runs the batch with injection disabled
    let cfg = ServeConfig {
        concurrency: 2,
        max_batch: 4,
        batch_window: Duration::from_millis(1),
        faults: DeviceFaultPlan::parse("worker_panic_nth=2"),
        ..Default::default()
    };
    let single = compiled.estimate_batch_ms(1);
    let report = serve(
        &compiled,
        uniform_requests(&compiled, n, single / 2.0),
        &cfg,
        &spans,
        &metrics,
    );
    assert_accounted(&report, &metrics, n);
    assert_eq!(report.results.len(), n, "panics never lose requests");
    assert!(report.worker_panics >= 1, "the injected panic fired");
    assert!(report.failed.is_empty(), "retry-after-panic succeeded");
}

#[test]
fn out_of_memory_re_places_the_batch_on_the_cpu_without_retrying() {
    let compiled = compile("oom");
    let n = 8;
    let spans = SpanRecorder::new();
    let metrics = MetricsRegistry::new();
    // batches above 2 requests OOM; one worker coalesces all 8 into one
    // batch, which must go straight to the degraded CPU variant
    let cfg = ServeConfig {
        concurrency: 1,
        max_batch: n,
        batch_window: Duration::from_millis(200),
        faults: DeviceFaultPlan::parse("mem_pressure=2"),
        ..Default::default()
    };
    let report = serve(&compiled, uniform_requests(&compiled, n, 0.0), &cfg, &spans, &metrics);
    assert_accounted(&report, &metrics, n);
    assert_eq!(report.results.len(), n);
    assert_eq!(report.device_faults, 1, "one OOM fault");
    assert_eq!(
        report.retries, 0,
        "OOM is non-transient: no same-device retry"
    );
    assert_eq!(report.degraded_batches, 1);
    assert!(report.results.iter().all(|r| r.degraded));
    assert_eq!(metrics.counter("engine.degraded_batches"), 1);
}
