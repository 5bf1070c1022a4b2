//! Observability-layer guarantees through the public serving API: the
//! cost-model drift monitor flags miscalibration under throttle chaos and
//! fires the drift alert, stays quiet on a calibrated zero-noise run, the
//! flight recorder's dumps are byte-identical across two
//! zero-noise runs, and the chaos accounting invariant survives with the
//! whole observability stack switched on.

use std::path::PathBuf;
use std::time::Duration;
use unigpu_device::{DeviceFaultPlan, Platform};
use unigpu_engine::{uniform_requests, Engine, ServeConfig, ServeReport};
use unigpu_graph::{Activation, Graph, OpKind};
use unigpu_ops::ConvWorkload;
use unigpu_telemetry::{AlertRule, MetricsRegistry, SpanRecorder};
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

fn compile(name: &str) -> unigpu_engine::CompiledModel {
    Engine::builder()
        .platform(Platform::deeplens())
        .persist(false)
        .build()
        .compile(&conv_model(name))
}

/// A fresh per-test scratch directory (recreated empty every run).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("unigpu-drift-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn serve(
    compiled: &unigpu_engine::CompiledModel,
    cfg: &ServeConfig,
    n: usize,
    interval_ms: f64,
) -> (ServeReport, MetricsRegistry) {
    let spans = SpanRecorder::new();
    let metrics = MetricsRegistry::new();
    let mut server = compiled.server_with(cfg, &spans, &metrics);
    for r in uniform_requests(compiled, n, interval_ms) {
        let _ = server.submit(r);
    }
    (server.shutdown(), metrics)
}

#[test]
fn throttle_chaos_flags_miscalibration_and_fires_the_drift_alert() {
    let compiled = compile("drift-chaos");
    let dir = scratch("chaos");
    let n = 32;
    // a sustained 3× thermal throttle: every batch observes ~3× its
    // predicted cost, a +200% relative error — far past the 25% threshold
    let cfg = ServeConfig {
        concurrency: 2,
        max_batch: 2,
        batch_window: Duration::from_millis(1),
        faults: DeviceFaultPlan::parse("throttle_after_ms=1:3.0"),
        recorder_dump_dir: Some(dir.join("dumps")),
        alert_rules: AlertRule::parse_rules("drift:engine.drift.max_abs_rel_err>0.25")
            .expect("valid rule"),
        ..Default::default()
    };
    let single = compiled.estimate_batch_ms(1);
    let (report, metrics) = serve(&compiled, &cfg, n, single / 2.0);

    assert_eq!(report.results.len(), n, "throttling slows, never drops");
    assert!(
        report.drift.samples >= cfg.drift_min_samples,
        "enough batches retired to judge calibration ({} < {})",
        report.drift.samples,
        cfg.drift_min_samples
    );
    assert!(
        report.drift.mean_abs_rel_err > cfg.drift_threshold,
        "3× throttle must push mean |rel err| past the threshold (got {})",
        report.drift.mean_abs_rel_err
    );
    assert!(report.drift.miscalibrated, "model flagged as miscalibrated");
    assert_eq!(metrics.gauge("engine.drift.miscalibrated"), Some(1.0));

    // the drift alert fired on the end-of-run gauge sweep
    assert!(report.alerts_fired >= 1, "drift alert fired");
    assert!(report.fired_alerts.iter().any(|a| a == "drift"));
    assert_eq!(metrics.counter("engine.alert.fired"), report.alerts_fired);

    // every dump on disk is valid JSON carrying the event window
    assert!(!report.recorder_dumps.is_empty(), "chaos run left dumps");
    for path in &report.recorder_dumps {
        let doc: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(path).expect("dump readable"))
                .expect("dump is valid JSON");
        assert!(!doc["events"].as_array().unwrap().is_empty());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn zero_noise_zero_fault_run_stays_calibrated_with_no_alerts() {
    let compiled = compile("drift-clean");
    let n = 32;
    let cfg = ServeConfig {
        concurrency: 2,
        max_batch: 2,
        batch_window: Duration::from_millis(1),
        alert_rules: AlertRule::parse_rules("drift:engine.drift.max_abs_rel_err>0.25")
            .expect("valid rule"),
        ..Default::default()
    };
    let single = compiled.estimate_batch_ms(1);
    let (report, metrics) = serve(&compiled, &cfg, n, single / 2.0);

    assert_eq!(report.results.len(), n);
    assert!(report.drift.samples >= cfg.drift_min_samples);
    // the simulator's no-fault pricing IS the cost model, so drift is zero up
    // to the rounding of the tap's `(start + d) - start` observation
    assert!(report.drift.mean_abs_rel_err < 1e-12);
    assert!(report.drift.max_abs_rel_err < 1e-12);
    assert!(!report.drift.miscalibrated);
    assert_eq!(report.alerts_fired, 0, "no alert on a calibrated run");
    assert_eq!(report.alerts_resolved, 0);
    assert!(report.fired_alerts.is_empty());
    assert_eq!(metrics.counter("engine.alert.fired"), 0);
    assert!(report.recorder_dumps.is_empty(), "no dump dir, no dumps");
}

#[test]
fn recorder_dumps_are_byte_identical_across_zero_noise_runs() {
    let compiled = compile("drift-det");
    let n = 16;
    let run = |dir: &PathBuf| {
        let cfg = ServeConfig {
            concurrency: 2,
            max_batch: 2,
            batch_window: Duration::from_millis(1),
            recorder_dump_dir: Some(dir.clone()),
            ..Default::default()
        };
        let single = compiled.estimate_batch_ms(1);
        serve(&compiled, &cfg, n, single / 2.0).0
    };
    let dir_a = scratch("det-a");
    let dir_b = scratch("det-b");
    let a = run(&dir_a);
    let b = run(&dir_b);

    // a clean run leaves exactly the unconditional shutdown dump
    assert_eq!(a.recorder_dumps.len(), 1);
    assert_eq!(b.recorder_dumps.len(), 1);
    assert_eq!(
        a.recorder_dumps[0].file_name(),
        b.recorder_dumps[0].file_name(),
        "deterministic dump naming"
    );
    let bytes_a = std::fs::read(&a.recorder_dumps[0]).expect("dump A readable");
    let bytes_b = std::fs::read(&b.recorder_dumps[0]).expect("dump B readable");
    assert_eq!(bytes_a, bytes_b, "zero-noise dumps are byte-identical");
    let doc: serde_json::Value =
        serde_json::from_slice(&bytes_a).expect("shutdown dump is valid JSON");
    assert_eq!(doc["trigger"].as_str(), Some("shutdown"));
    assert!(!doc["events"].as_array().unwrap().is_empty());
    // the report digest (which folds in drift, alert, and dump-count
    // state) agrees too
    assert_eq!(a.digest(), b.digest());
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

#[test]
fn accounting_invariant_survives_with_the_observability_stack_on() {
    let compiled = compile("drift-accounting");
    let dir = scratch("accounting");
    let n = 48;
    let single = compiled.estimate_batch_ms(1);
    let cfg = ServeConfig {
        concurrency: 2,
        max_batch: 4,
        batch_window: Duration::from_millis(1),
        queue_cap: Some(6),
        deadline_ms: Some(6.0 * single),
        faults: DeviceFaultPlan::parse("kernel_fail_nth=5,throttle_after_ms=2:2.0"),
        breaker_threshold: 3,
        breaker_cooldown_ms: 1.0,
        recorder_dump_dir: Some(dir.join("dumps")),
        alert_rules: AlertRule::parse_rules(
            "drift:engine.drift.max_abs_rel_err>0.25,burn:engine.slo.burn_rate>1",
        )
        .expect("valid rules"),
        ..Default::default()
    };
    // 4× overload against a throttled, faulting device: sheds, expiries,
    // retries, and breaker traffic all in one run
    let (report, metrics) = serve(&compiled, &cfg, n, single / 8.0);

    assert_eq!(report.offered, n);
    assert_eq!(
        report.results.len() + report.shed.len() + report.expired.len() + report.failed.len(),
        n,
        "offered == completed + shed + expired + failed"
    );
    assert_eq!(report.lost(), 0, "zero lost requests");
    assert_eq!(
        metrics.counter("engine.recorder_dumps"),
        report.recorder_dumps.len() as u64
    );
    assert!(
        !report.recorder_dumps.is_empty(),
        "chaos run leaves at least the shutdown dump"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
