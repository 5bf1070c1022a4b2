//! Batch-scheduler guarantees through the public API: shape isolation,
//! window flushing, and the simulated-clock latency decomposition.

mod common;

use common::serve;
use std::time::Duration;
use unigpu_device::Platform;
use unigpu_engine::{
    uniform_requests, CompiledModel, Engine, Formation, InferenceRequest, RequestQueue,
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
    let w1 = ConvWorkload::square(1, 8, 8, 16, 3, 1, 1);
    let wt1 = g.add(
        OpKind::constant(Tensor::zeros(w1.weight_shape())),
        vec![],
        "w1",
    );
    let c1 = g.add(
        OpKind::Conv2d {
            w: w1,
            bias: false,
            act: Activation::Relu,
        },
        vec![c0, wt1],
        "conv1",
    );
    g.mark_output(c1);
    g
}

fn compile() -> CompiledModel {
    Engine::builder()
        .platform(Platform::deeplens())
        .persist(false)
        .build()
        .compile(&conv_model("served"))
}

fn req(id: usize, dims: &[usize], arrival_ms: f64) -> InferenceRequest {
    InferenceRequest {
        id,
        shape: Shape(dims.to_vec()),
        arrival_ms,
        trace: None,
    }
}

#[test]
fn mismatched_shapes_never_coalesce() {
    let mut q = RequestQueue::new();
    // two shape populations, interleaved
    for i in 0..10 {
        let dims: &[usize] = if i % 2 == 0 {
            &[1, 3, 16, 16]
        } else {
            &[1, 3, 32, 32]
        };
        q.offer(req(i, dims, i as f64));
    }
    q.close();
    let mut popped = Vec::new();
    while let Formation::Flush(batch) = q.form_batch(8, 0.0, 1.0) {
        let anchor = batch[0].shape.clone();
        assert!(
            batch.iter().all(|r| r.shape == anchor),
            "batch is shape-uniform"
        );
        popped.extend(batch.iter().map(|r| r.id));
    }
    assert_eq!(
        popped,
        (0..10).collect::<Vec<_>>(),
        "FIFO preserved across shapes"
    );
}

#[test]
fn batch_window_timeout_flushes_partial_batches() {
    let mut q = RequestQueue::new();
    for i in 0..3 {
        q.offer(req(i, &[1, 3, 16, 16], 0.0));
    }
    let window_ms = 50.0;
    // queue stays open: only the window can flush this underfull batch
    assert_eq!(
        q.form_batch(16, 0.0, window_ms),
        Formation::Hold { until_ms: window_ms },
        "waits out the window before flushing"
    );
    match q.form_batch(16, window_ms, window_ms) {
        Formation::Flush(batch) => assert_eq!(batch.len(), 3),
        other => panic!("expected the partial batch, got {other:?}"),
    }
    // late same-shape arrival forms its own batch
    q.offer(req(3, &[1, 3, 16, 16], 5.0));
    q.close();
    match q.form_batch(16, window_ms, window_ms) {
        Formation::Flush(batch) => assert_eq!(batch.len(), 1),
        other => panic!("expected the late arrival, got {other:?}"),
    }
    assert_eq!(
        q.form_batch(16, window_ms, window_ms),
        Formation::Empty { closed: true }
    );
}

#[test]
fn per_request_latency_decomposes_on_the_simulated_clock() {
    let compiled = compile();
    let spans = SpanRecorder::new();
    let metrics = MetricsRegistry::new();
    let n = 16;
    let cfg = ServeConfig {
        concurrency: 2,
        max_batch: 4,
        batch_window: Duration::from_millis(2),
        ..Default::default()
    };
    let report = serve(&compiled, uniform_requests(&compiled, n, 0.1), &cfg, &spans, &metrics);

    assert_eq!(report.results.len(), n);
    assert_eq!(
        report.results.iter().map(|r| r.id).collect::<Vec<_>>(),
        (0..n).collect::<Vec<_>>()
    );
    for r in &report.results {
        assert!(r.batch_size >= 1 && r.batch_size <= cfg.max_batch);
        assert!(r.worker < cfg.concurrency);
        assert!(
            r.queue_ms() >= 0.0,
            "a batch never starts before the request arrives"
        );
        assert!(r.exec_ms() > 0.0);
        let recomposed = r.queue_ms() + r.exec_ms();
        assert!(
            (r.latency_ms() - recomposed).abs() < 1e-9,
            "latency {} != queueing {} + execution {}",
            r.latency_ms(),
            r.queue_ms(),
            r.exec_ms()
        );
        assert!(r.done_ms <= report.makespan_ms + 1e-9);
    }

    // telemetry agrees with the report
    assert_eq!(metrics.counter("engine.requests"), n as u64);
    assert_eq!(metrics.counter("engine.batches"), report.batches as u64);
    let lat = metrics
        .histogram_summary("engine.latency_ms")
        .expect("latency histogram");
    assert_eq!(lat.count, n as u64);
    assert!(metrics.gauge("engine.throughput_rps").unwrap() > 0.0);
    assert_eq!(spans.len(), n, "one span per request");
    assert!(report.throughput_rps() > 0.0);
}

#[test]
fn batching_trades_latency_for_throughput() {
    let compiled = compile();
    let single = compiled.estimate_batch_ms(1);
    let serve_with = |max_batch: usize| {
        let cfg = ServeConfig {
            concurrency: 2,
            max_batch,
            batch_window: Duration::from_millis(1),
            ..Default::default()
        };
        let spans = SpanRecorder::new();
        let metrics = MetricsRegistry::new();
        // offered load near capacity so batches actually form
        serve(
            &compiled,
            uniform_requests(&compiled, 32, single / 4.0),
            &cfg,
            &spans,
            &metrics,
        )
    };
    let unbatched = serve_with(1);
    let batched = serve_with(8);
    assert!(unbatched.results.iter().all(|r| r.batch_size == 1));
    assert!(
        batched.mean_batch_size() > 1.0,
        "near-capacity load coalesces into real batches"
    );
    assert!(
        batched.makespan_ms < unbatched.makespan_ms,
        "launch amortization: batched serving finishes sooner ({:.2} ms vs {:.2} ms)",
        batched.makespan_ms,
        unbatched.makespan_ms
    );
}
