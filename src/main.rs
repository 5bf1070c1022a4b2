//! `unigpu` — command-line front end to the stack, in the spirit of the
//! paper's deployment story ("enabling model developers to optimize for
//! inference at the edge" via a service): list models, estimate latency,
//! serve batched requests, tune schedules, export kernels and graphs.
//!
//! ```text
//! unigpu models
//! unigpu estimate ResNet50_v1 --platform nano --tuned
//! unigpu serve ResNet50_v1 --platform nano --requests 64 --concurrency 4 --batch 8
//! unigpu serve ResNet50_v1 --metrics-addr 127.0.0.1:0 --port-file metrics.port --hold-ms 2000
//! unigpu report MobileNet1.0 --requests 256 --deadline-ms 40
//! unigpu drift ResNet50_v1 --faults throttle_after_ms=5:3.0 --drift-threshold 0.25
//! unigpu profile MobileNet1.0 --device intel --trace trace.json
//! unigpu tune SqueezeNet1.0 --platform aisage --trials 128 --out db.jsonl
//! unigpu tune SqueezeNet1.0 --resume
//! unigpu farm tracker --listen 127.0.0.1:9190
//! unigpu farm worker --tracker 127.0.0.1:9190 --device deeplens
//! unigpu tune SqueezeNet1.0 --farm 127.0.0.1:9190
//! unigpu fleet replica --device nano --port-file r0.port --cache-dir /tmp/r0
//! unigpu fleet router --replica 127.0.0.1:9201 --replica 127.0.0.1:9202 --requests 96
//! unigpu codegen --target cuda
//! unigpu dot MobileNet1.0 > mobilenet.dot
//! unigpu paper > PAPER_TABLES.json
//! ```

use std::path::PathBuf;
use std::time::Duration;
use unigpu::baselines::{baseline_for, paper};
use unigpu::device::{FaultPlan, Platform};
use unigpu::engine::{
    fingerprint, uniform_requests, ServeConfig, ServeReport, LANE_CONTROL, LANE_WORKER_BASE,
};
use unigpu::graph::latency::{LANE_CPU, LANE_GPU, LANE_TRANSFER};
use unigpu::graph::passes::optimize;
use unigpu::graph::{parameter_count, to_dot, Graph, PlacementPolicy};
use unigpu::ir::codegen::{generate, line_count, Target};
use unigpu::ir::{lower, LoopTag, Schedule};
use unigpu::models::full_zoo;
use unigpu::ops::conv::te::conv2d_compute;
use unigpu::ops::ConvWorkload;
use unigpu::farm::{run_worker, FarmClient, Tracker, TrackerConfig, WorkerConfig};
use unigpu::fleet::{
    run_replica, warm_remote_pool, RemoteReplica, ReplicaConfig, ReplicaLink, RoutePolicy, Router,
    RouterConfig,
};
use unigpu::telemetry::{
    tel_error, tel_warn, AlertRule, ChromeTrace, MetricsRegistry, MetricsServer, SpanRecorder,
    TraceContext,
};
use unigpu::tuner::{
    device_db_path, tune_graph_with, Database, Dispatcher, LocalDispatcher, TuningBudget,
};
use unigpu::Engine;

/// A user-facing CLI failure: printed through `tel_error!` and mapped to
/// exit code 2 by `main`, instead of each command exiting on its own.
#[derive(Debug)]
struct CliError(String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

fn platform_by_name(name: &str) -> Result<Platform, CliError> {
    Platform::by_name(name)
        .ok_or_else(|| CliError(format!("unknown platform `{name}` (use deeplens|aisage|nano)")))
}

fn model_by_name(name: &str, platform: &Platform) -> Result<Graph, CliError> {
    let aisage = platform.name.contains("aiSage");
    full_zoo()
        .into_iter()
        .find(|e| e.name == name)
        .map(|e| (e.build)(aisage))
        .ok_or_else(|| CliError(format!("unknown model `{name}`; run `unigpu models` for the list")))
}

/// The command's leading positional argument (the model), or `default`
/// when the command starts with a flag.
fn positional<'a>(args: &'a [String], default: &'a str) -> &'a str {
    args.first()
        .map(String::as_str)
        .filter(|a| !a.starts_with("--"))
        .unwrap_or(default)
}

/// Rejects the first `--flag` in `args` that none of the `known` lists names,
/// so that a script passing a retired or misspelt flag fails instead of
/// running without it. Each command lists the flags it and its helpers read.
fn known_flags(args: &[String], known: &[&[&str]]) -> Result<(), CliError> {
    match args
        .iter()
        .find(|a| a.starts_with("--") && !known.iter().any(|k| k.contains(&a.as_str())))
    {
        Some(a) => Err(CliError(format!("unknown flag {a}"))),
        None => Ok(()),
    }
}

/// What [`engine_for`] reads.
const ENGINE_FLAGS: &[&str] = &["--fallback", "--tuned", "--trials"];

/// What [`run_serve`] and [`finish_serve`] read, the engine's flags included.
const SERVE_FLAGS: &[&str] = &[
    "--platform",
    "--requests",
    "--concurrency",
    "--batch",
    "--window-ms",
    "--faults",
    "--metrics-addr",
    "--port-file",
    "--interval-ms",
    "--queue-cap",
    "--deadline-ms",
    "--slo-objective",
    "--slo-window-ms",
    "--trace-sample",
    "--drift-threshold",
    "--recorder-dump-dir",
    "--alert-rules",
    "--hold-ms",
    "--fallback",
    "--tuned",
    "--trials",
];

fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Every value of a repeatable flag (`--replica A --replica B`), in order.
/// A flag with no value after it is a [`CliError`], never a silent fall
/// back to the default.
fn opt_all<'a>(args: &'a [String], name: &str) -> Result<Vec<&'a str>, CliError> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| *a == name)
        .map(|(i, _)| match args.get(i + 1) {
            Some(v) if !v.starts_with("--") => Ok(v.as_str()),
            _ => Err(CliError(format!("missing value for {name}"))),
        })
        .collect()
}

/// The value of a flag, `None` when absent.
fn opt<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, CliError> {
    Ok(opt_all(args, name)?.first().copied())
}

/// The value of a numeric flag, `None` when absent. A value that does not
/// parse is a [`CliError`], never a silent fall back to the default.
fn opt_num<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, CliError> {
    opt(args, name)?
        .map(|s| s.parse().map_err(|_| CliError(format!("invalid value `{s}` for {name}"))))
        .transpose()
}

/// The run's fault plan, the one place the CLI reads one: the `--faults`
/// value when the command takes that flag and it is given, else
/// `UNIGPU_FAULTS`, else no faults. A plan that does not parse is a
/// [`CliError`] naming the bad item.
fn fault_plan(faults_flag: Option<&str>) -> Result<FaultPlan, CliError> {
    let (source, spec) = match faults_flag {
        Some(spec) => ("--faults", spec.to_string()),
        None => ("UNIGPU_FAULTS", std::env::var("UNIGPU_FAULTS").unwrap_or_default()),
    };
    let plan: FaultPlan = spec.parse().map_err(|e| CliError(format!("{source}: {e}")))?;
    if plan != FaultPlan::default() {
        tel_warn!("unigpu::cli", "fault injection active: {plan}");
    }
    Ok(plan)
}

fn cmd_models() -> Result<(), CliError> {
    println!("{:<18} {:>6} {:>6} {:>12} {:>10}", "Model", "ops", "convs", "params", "GFLOPs");
    for e in full_zoo() {
        let g = (e.build)(false);
        println!(
            "{:<18} {:>6} {:>6} {:>12} {:>10.2}",
            e.name,
            g.op_count(),
            g.conv_count(),
            parameter_count(&g),
            g.conv_flops() / 1e9
        );
    }
    Ok(())
}

/// Build an engine from the shared CLI flags (`--tuned`, `--trials`,
/// `--fallback` placement).
fn engine_for(args: &[String], platform: &Platform) -> Result<Engine, CliError> {
    let policy = if flag(args, "--fallback") {
        PlacementPolicy::FallbackVision
    } else {
        PlacementPolicy::AllGpu
    };
    let mut builder = Engine::builder().platform(platform.clone()).policy(policy);
    if flag(args, "--tuned") {
        let trials = opt_num(args, "--trials")?.unwrap_or(64);
        eprintln!("[tune] searching schedules ({trials} trials/workload)...");
        builder = builder.tuned(trials);
    }
    Ok(builder.build())
}

fn cmd_estimate(args: &[String]) -> Result<(), CliError> {
    known_flags(
        args,
        &[ENGINE_FLAGS, &["--platform", "--baseline", "--per-op"]],
    )?;
    let name = positional(args, "ResNet50_v1");
    let platform = platform_by_name(opt(args, "--platform")?.unwrap_or("deeplens"))?;
    let g = model_by_name(name, &platform)?;
    let compiled = engine_for(args, &platform)?.compile(&g);
    if compiled.from_cache() {
        eprintln!("[cache] artifact cache hit (compile skipped)");
    }
    let report = compiled.estimate();
    println!(
        "{name} on {}: {:.2} ms  (conv {:.2} ms, vision {:.2} ms, transfers {:.2} ms)",
        platform.name,
        report.total_ms,
        report.conv_ms(),
        report.vision_ms(),
        report.transfer_ms
    );
    if flag(args, "--baseline") {
        let b = baseline_for(&platform);
        match b.latency(&g, &platform, g.nodes.iter().any(|n| n.op.is_vision_control())) {
            Some(r) => println!("{} baseline: {:.2} ms", b.name, r.total_ms),
            None => println!("{} baseline: model not supported", b.name),
        }
    }
    if flag(args, "--per-op") {
        let mut ops = report.per_op.clone();
        ops.sort_by(|a, b| b.ms.total_cmp(&a.ms));
        for t in ops.iter().take(15) {
            println!("  {:<40} {:<18} {:>9.3} ms", t.name, t.op, t.ms);
        }
    }
    Ok(())
}

/// Everything one serve run produces — shared by `serve`, `report`, and
/// `drift`.
struct ServeRun {
    name: String,
    platform: Platform,
    concurrency: usize,
    compiled: unigpu::engine::CompiledModel,
    report: ServeReport,
    spans: SpanRecorder,
    metrics: MetricsRegistry,
    /// Live exposition endpoint (`--metrics-addr`), kept open until the
    /// command finishes (plus `--hold-ms`, so a scraper can read the
    /// drained snapshot).
    server: Option<MetricsServer>,
}

/// Parse the shared serve flags, compile through the artifact cache, spawn
/// the optional metrics endpoint, and drive the synthetic request stream
/// through the event-driven scheduler via the streaming `Server` handle.
fn run_serve(args: &[String]) -> Result<ServeRun, CliError> {
    let name = positional(args, "ResNet50_v1");
    let platform = platform_by_name(opt(args, "--platform")?.unwrap_or("deeplens"))?;
    let n: usize = opt_num(args, "--requests")?.unwrap_or(64);
    let concurrency: usize = opt_num(args, "--concurrency")?.unwrap_or(2);
    let batch: usize = opt_num(args, "--batch")?.unwrap_or(8);
    let window_ms: u64 = opt_num(args, "--window-ms")?.unwrap_or(2);
    let faults = fault_plan(opt(args, "--faults")?)?;
    let g = model_by_name(name, &platform)?;

    // The exposition endpoint goes up before compilation so a scraper can
    // connect for the whole lifetime of the run.
    let metrics = MetricsRegistry::new();
    let server = match opt(args, "--metrics-addr")? {
        Some(addr) => {
            let srv = MetricsServer::spawn(addr, metrics.clone())
                .map_err(|e| CliError(format!("failed to bind metrics endpoint {addr}: {e}")))?;
            println!(
                "metrics endpoint listening on {} (GET /metrics, /metrics.json)",
                srv.addr()
            );
            if let Some(path) = opt(args, "--port-file")? {
                std::fs::write(path, srv.addr().to_string())
                    .map_err(|e| CliError(format!("failed to write port file {path}: {e}")))?;
            }
            Some(srv)
        }
        None => None,
    };

    let engine = engine_for(args, &platform)?;
    let t0 = std::time::Instant::now();
    let compiled = engine.compile(&g);
    if compiled.from_cache() {
        println!(
            "artifact cache hit (compile skipped): {name} on {} [{}]",
            platform.name,
            if compiled.is_tuned() { "tuned" } else { "fallback" }
        );
    } else {
        println!(
            "compiled {name} on {} in {:.2} s (artifact cached for the next run)",
            platform.name,
            t0.elapsed().as_secs_f64()
        );
    }

    // offered load defaults to ~per-worker capacity so batching has work to do
    let interval = opt_num(args, "--interval-ms")?
        .unwrap_or_else(|| compiled.estimate_batch_ms(1) / concurrency.max(1) as f64);
    let mut builder = ServeConfig::builder()
        .concurrency(concurrency)
        .max_batch(batch)
        .batch_window(Duration::from_millis(window_ms))
        .faults(faults.device);
    if let Some(cap) = opt_num(args, "--queue-cap")? {
        builder = builder.queue_cap(cap);
    }
    if let Some(d) = opt_num(args, "--deadline-ms")? {
        builder = builder.deadline_ms(d);
    }
    if let Some(v) = opt_num(args, "--slo-objective")? {
        builder = builder.slo_objective(v);
    }
    if let Some(v) = opt_num(args, "--slo-window-ms")? {
        builder = builder.slo_window_ms(v);
    }
    if let Some(v) = opt_num(args, "--trace-sample")? {
        builder = builder.trace_sample_every(v);
    }
    if let Some(v) = opt_num(args, "--drift-threshold")? {
        builder = builder.drift_threshold(v);
    }
    if let Some(dir) = opt(args, "--recorder-dump-dir")? {
        builder = builder.recorder_dump_dir(dir);
    }
    if let Some(spec) = opt(args, "--alert-rules")? {
        let rules = AlertRule::parse_rules(spec)
            .map_err(|e| CliError(format!("invalid --alert-rules: {e}")))?;
        builder = builder.alert_rules(rules);
    }
    let cfg = builder.build().map_err(|e| CliError(format!("invalid serve config: {e}")))?;
    let spans = SpanRecorder::new();
    // stream the synthetic arrivals through the event-driven scheduler;
    // rejections (shed/closed) are accounted inside the server
    let mut scheduler = compiled.server_with(&cfg, &spans, &metrics);
    for r in uniform_requests(&compiled, n, interval) {
        let _ = scheduler.submit(r);
    }
    let report = scheduler.shutdown();
    Ok(ServeRun {
        name: name.to_string(),
        platform,
        concurrency,
        compiled,
        report,
        spans,
        metrics,
        server,
    })
}

/// Drift/alert/recorder lines shared by `serve` and `drift`.
fn print_drift_alerts(report: &ServeReport) {
    let drift = &report.drift;
    if drift.samples > 0 {
        println!(
            "drift: {} sample(s), mean |rel err| {:.1}%, max |rel err| {:.1}% \
             (threshold {:.0}%) — {}",
            drift.samples,
            drift.mean_abs_rel_err * 100.0,
            drift.max_abs_rel_err * 100.0,
            drift.threshold * 100.0,
            if drift.miscalibrated {
                "MISCALIBRATED, re-tune recommended"
            } else {
                "calibrated"
            }
        );
    }
    if report.alerts_fired > 0 || report.alerts_resolved > 0 {
        println!(
            "alerts: {} fired / {} resolved [{}]",
            report.alerts_fired,
            report.alerts_resolved,
            report.fired_alerts.join(", ")
        );
    }
    if !report.recorder_dumps.is_empty() {
        println!(
            "flight recorder: {} dump(s), last {}",
            report.recorder_dumps.len(),
            report.recorder_dumps.last().map(|p| p.display().to_string()).unwrap_or_default()
        );
    }
}

/// Headline SLO and utilization lines shared by `serve` and `report`.
fn print_slo_utilization(report: &ServeReport) {
    let slo = &report.slo;
    println!(
        "slo: objective {:.1}% — error rate {:.2}% (window {:.2}% over {:.0} ms), \
         burn rate {:.2}x, budget remaining {:.0}%",
        slo.objective * 100.0,
        slo.error_rate * 100.0,
        slo.window_error_rate * 100.0,
        slo.window_ms,
        slo.burn_rate,
        slo.budget_remaining * 100.0
    );
    let lanes: Vec<String> =
        report.lane_utilization.iter().map(|u| format!("{:.0}%", u * 100.0)).collect();
    println!(
        "utilization: device idle {:.1}%  lanes [{}]",
        report.device_idle_fraction * 100.0,
        lanes.join(" ")
    );
}

/// Hold the metrics endpoint open for `--hold-ms` after the final report so
/// an external scraper can read the drained snapshot, then shut it down.
fn finish_serve(args: &[String], server: Option<MetricsServer>) -> Result<(), CliError> {
    let hold_ms = opt_num::<u64>(args, "--hold-ms")?;
    if let Some(srv) = server {
        if let Some(ms) = hold_ms {
            std::thread::sleep(Duration::from_millis(ms));
        }
        srv.stop();
    }
    Ok(())
}

/// `unigpu serve <model> --requests N --concurrency K --batch B` — compile
/// through the artifact cache, then serve a synthetic request stream through
/// the batch scheduler and report throughput and latency percentiles from
/// the telemetry metrics. `--metrics-addr` exposes the registry over HTTP
/// while the run is live (`--hold-ms` keeps it up after the final report).
fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    known_flags(args, &[SERVE_FLAGS, &["--trace"]])?;
    let run = run_serve(args)?;
    let (report, concurrency, metrics, spans) =
        (&run.report, run.concurrency, &run.metrics, &run.spans);

    println!(
        "served {} requests on {} workers in {:.2} ms simulated ({} batches, mean size {:.1})",
        report.results.len(),
        concurrency,
        report.makespan_ms,
        report.batches,
        report.mean_batch_size()
    );
    // every offered request lands in exactly one bucket; `lost` must be 0
    println!(
        "accounting: {} offered = {} completed + {} shed + {} deadline-expired + {} failed ({} lost)",
        report.offered,
        report.results.len(),
        report.shed.len(),
        report.expired.len(),
        report.failed.len(),
        report.lost()
    );
    // deterministic replay check: two zero-noise runs of the same workload
    // must print the same digest (the ci.sh determinism gate compares them)
    println!("digest: {:016x}", report.digest());
    if report.device_faults > 0 || report.worker_panics > 0 || report.degraded_batches > 0 {
        println!(
            "faults: {} device fault(s), {} retry(ies), {} degraded batch(es), \
             breaker tripped {}x / recovered {}x, {} worker panic(s)",
            report.device_faults,
            report.retries,
            report.degraded_batches,
            report.breaker_trips,
            report.breaker_recoveries,
            report.worker_panics
        );
    }
    print_drift_alerts(report);
    // all requests may have been shed/expired, so the histograms are optional
    if let (Some(lat), Some(queue)) = (
        metrics.histogram_summary("engine.latency_ms"),
        metrics.histogram_summary("engine.queue_ms"),
    ) {
        println!(
            "throughput {:.1} req/s  latency p50 {:.2} ms / p99 {:.2} ms  queueing mean {:.2} ms",
            metrics.gauge("engine.throughput_rps").unwrap_or(0.0),
            lat.p50,
            lat.p99,
            queue.mean
        );
    }
    print_slo_utilization(report);

    if let Some(path) = opt(args, "--trace")? {
        let mut trace = ChromeTrace::new();
        trace.name_lane(LANE_CONTROL, "control (retries / breaker)");
        for w in 0..concurrency.max(1) {
            trace.name_lane(LANE_WORKER_BASE + w as u32, format!("worker {w}"));
        }
        trace.add_spans(&spans.spans());
        trace.add_metrics(&metrics.snapshot(), report.makespan_ms * 1000.0);
        let path = std::path::Path::new(path);
        trace
            .write(path)
            .map_err(|e| CliError(format!("failed to write trace {}: {e}", path.display())))?;
        println!("trace written to {} ({} events)", path.display(), trace.events().len());
    }
    finish_serve(args, run.server)
}

/// `unigpu report <model> [serve flags]` — run the same serve pipeline as
/// `unigpu serve` and print the full observability digest: accounting, SLO
/// burn rate, per-lane utilization, and every histogram/gauge/counter in
/// the registry — the terminal rendering of what `--metrics-addr` exposes.
fn cmd_report(args: &[String]) -> Result<(), CliError> {
    known_flags(args, &[SERVE_FLAGS])?;
    let run = run_serve(args)?;
    let report = &run.report;
    println!(
        "observability report: {} on {} — {} offered, {} worker(s), {:.2} ms simulated",
        run.name, run.platform.name, report.offered, run.concurrency, report.makespan_ms
    );
    println!(
        "accounting: {} completed, {} shed, {} deadline-expired, {} failed ({} lost)",
        report.results.len(),
        report.shed.len(),
        report.expired.len(),
        report.failed.len(),
        report.lost()
    );
    print_slo_utilization(report);
    print_drift_alerts(report);
    let snap = run.metrics.snapshot();
    if !snap.histograms.is_empty() {
        println!("histograms:");
        for (name, h) in &snap.histograms {
            println!(
                "  {:<26} count {:>6}  mean {:>9.3}  p50 {:>9.3}  p95 {:>9.3}  p99 {:>9.3}  max {:>9.3}",
                name, h.count, h.mean, h.p50, h.p95, h.p99, h.max
            );
        }
    }
    if !snap.gauges.is_empty() {
        println!("gauges:");
        for (name, v) in &snap.gauges {
            println!("  {name:<36} {v:>14.4}");
        }
    }
    if !snap.counters.is_empty() {
        println!("counters:");
        for (name, v) in &snap.counters {
            println!("  {name:<36} {v:>14}");
        }
    }
    finish_serve(args, run.server)
}

/// `unigpu drift <model> [--platform P] [--requests N] [--faults PLAN]
/// [--drift-threshold T]` — serve a short synthetic stream and report
/// cost-model calibration: the per-node predicted cost table, the
/// predicted-vs-observed drift digest, and the miscalibration verdict.
fn cmd_drift(args: &[String]) -> Result<(), CliError> {
    known_flags(args, &[SERVE_FLAGS])?;
    let run = run_serve(args)?;
    let report = &run.report;
    println!(
        "cost-model drift report: {} on {} — {} request(s), {} batch(es)",
        run.name,
        run.platform.name,
        report.offered,
        report.batches
    );
    let costs = run.compiled.predicted_costs();
    let total = costs.total_ms();
    if !costs.is_empty() {
        println!("predicted cost table ({} node(s), {total:.3} ms single-inference):", costs.len());
        let mut entries: Vec<_> = costs.entries().to_vec();
        entries.sort_by(|a, b| b.1.total_cmp(&a.1));
        for (name, ms) in entries.iter().take(12) {
            println!(
                "  {:<44} {:>9.3} ms  ({:>4.1}%)",
                name,
                ms,
                100.0 * ms / total.max(f64::MIN_POSITIVE)
            );
        }
    }
    let drift = &report.drift;
    if drift.samples == 0 {
        println!("no drift samples (no batches completed on the device path)");
        return finish_serve(args, run.server);
    }
    println!(
        "graph drift: {} sample(s)  mean rel err {:+.2}%  mean |rel err| {:.2}%  max |rel err| {:.2}%",
        drift.samples,
        drift.mean_rel_err * 100.0,
        drift.mean_abs_rel_err * 100.0,
        drift.max_abs_rel_err * 100.0
    );
    if let Some(worst) = &drift.worst_node {
        println!("worst node: {worst} (rel err {:+.2}%)", drift.worst_node_rel_err * 100.0);
    }
    if drift.miscalibrated {
        println!(
            "verdict: MISCALIBRATED — mean |rel err| {:.2}% >= threshold {:.0}%",
            drift.mean_abs_rel_err * 100.0,
            drift.threshold * 100.0
        );
    } else {
        println!(
            "verdict: calibrated — mean |rel err| {:.2}% < threshold {:.0}%",
            drift.mean_abs_rel_err * 100.0,
            drift.threshold * 100.0
        );
    }
    finish_serve(args, run.server)
}

/// `unigpu profile <model> --device <d> --trace out.json` — run the latency
/// estimator with telemetry enabled, export a Chrome trace (load it in
/// `chrome://tracing` or Perfetto), and print a hotspot summary.
fn cmd_profile(args: &[String]) -> Result<(), CliError> {
    known_flags(
        args,
        &[ENGINE_FLAGS, &["--device", "--platform", "--trace"]],
    )?;
    let name = positional(args, "MobileNet1.0");
    let device = opt(args, "--device")?
        .or(opt(args, "--platform")?)
        .unwrap_or("deeplens");
    let platform = platform_by_name(device)?;
    let g = model_by_name(name, &platform)?;
    let compiled = engine_for(args, &platform)?.compile(&g);

    let spans = SpanRecorder::new();
    let metrics = MetricsRegistry::new();
    let report = compiled.trace(&spans, &metrics);

    let mut trace = ChromeTrace::new();
    trace.name_lane(LANE_GPU, format!("GPU: {}", platform.gpu.name));
    trace.name_lane(LANE_CPU, format!("CPU: {}", platform.cpu.name));
    trace.name_lane(LANE_TRANSFER, "CPU\u{2194}GPU transfer");
    trace.add_spans(&spans.spans());
    trace.add_metrics(&metrics.snapshot(), report.total_ms * 1000.0);
    if let Some(path) = opt(args, "--trace")? {
        let path = std::path::Path::new(path);
        trace
            .write(path)
            .map_err(|e| CliError(format!("failed to write trace {}: {e}", path.display())))?;
        println!("trace written to {} ({} events)", path.display(), trace.events().len());
    }

    println!(
        "{name} on {}: {:.3} ms total  (gpu {:.3} ms, cpu {:.3} ms, transfers {:.3} ms; \
         {} nodes, {} spans)",
        platform.name,
        report.total_ms,
        report.gpu_ms,
        report.cpu_ms,
        report.transfer_ms,
        compiled.placement().graph.nodes.len(),
        spans.len()
    );
    // Hotspot summary aggregated by op kind: total ms descending with a
    // share column.
    let mut agg: Vec<(&str, f64, usize)> = Vec::new();
    for t in &report.per_op {
        match agg.iter_mut().find(|(op, _, _)| *op == t.op) {
            Some(e) => {
                e.1 += t.ms;
                e.2 += 1;
            }
            None => agg.push((t.op, t.ms, 1)),
        }
    }
    agg.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("hotspots:");
    for (op, ms, n) in agg.iter().take(12) {
        println!(
            "  {:<28} {:>10.3} ms  ({:>3} nodes, {:>4.1}%)",
            op,
            ms,
            n,
            100.0 * ms / report.total_ms.max(f64::MIN_POSITIVE)
        );
    }
    Ok(())
}

/// `unigpu tune <model> [--farm ADDR] [--resume]` — tensor-level schedule
/// search through a dispatcher: in-process over the host's lanes (default)
/// or a remote tuning farm. Both produce bit-identical databases at zero
/// measurement noise. `--resume` skips workloads already present in the
/// on-disk database under `UNIGPU_DB_DIR` and folds new results back into
/// it.
fn cmd_tune(args: &[String]) -> Result<(), CliError> {
    known_flags(
        args,
        &[&["--platform", "--trials", "--farm", "--out", "--resume"]],
    )?;
    let name = positional(args, "SqueezeNet1.0");
    let platform = platform_by_name(opt(args, "--platform")?.unwrap_or("deeplens"))?;
    let trials = opt_num(args, "--trials")?.unwrap_or(96);
    let g = model_by_name(name, &platform)?;
    let budget = TuningBudget { trials_per_workload: trials, ..Default::default() };

    let dispatcher: Box<dyn Dispatcher> = match opt(args, "--farm")? {
        // root the farm batch's trace in the graph fingerprint: the tracker's
        // per-lease spans stitch under it, and re-tuning the same graph
        // reproduces the same ids
        Some(addr) => Box::new(
            FarmClient::new(addr).with_trace(TraceContext::from_seed(fingerprint(&g))),
        ),
        None => Box::new(LocalDispatcher),
    };

    let resume_path = device_db_path(&platform.gpu.name);
    let prior = if flag(args, "--resume") {
        let (db, recovery) = Database::load_recovering(&resume_path);
        eprintln!(
            "[resume] {} prior record(s) from {}{}",
            db.len(),
            resume_path.display(),
            if recovery.skipped > 0 {
                format!(" ({} corrupt line(s) skipped)", recovery.skipped)
            } else {
                String::new()
            }
        );
        Some(db)
    } else {
        None
    };

    eprintln!("[tune] dispatching via {} ({trials} trials/workload)", dispatcher.name());
    let db = tune_graph_with(&g, &platform.gpu, &budget, dispatcher.as_ref(), prior.as_ref())
        .map_err(|e| CliError(format!("tuning dispatch failed: {e}")))?;
    println!("tuned {} workloads on {}", db.len(), platform.gpu.name);

    if flag(args, "--resume") {
        // Fold the run's results back into the on-disk cache (best per
        // workload wins) so the next --resume skips what was done here.
        let (mut on_disk, _) = Database::load_recovering(&resume_path);
        for rec in db.records() {
            on_disk.insert(rec);
        }
        if let Some(dir) = resume_path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| CliError(format!("failed to create {}: {e}", dir.display())))?;
        }
        on_disk
            .save(&resume_path)
            .map_err(|e| CliError(format!("failed to update {}: {e}", resume_path.display())))?;
        eprintln!("[resume] database updated: {}", resume_path.display());
    }

    if let Some(path) = opt(args, "--out")? {
        db.save(std::path::Path::new(path))
            .map_err(|e| CliError(format!("failed to write tuning db {path}: {e}")))?;
        println!("records written to {path}");
    } else {
        println!("{}", db.to_json_lines());
    }
    Ok(())
}

/// `unigpu farm tracker|worker` — run one half of the distributed tuning
/// farm. The tracker prints (and optionally writes to `--port-file`) its
/// bound address and serves until killed; a worker serves one simulated
/// device under the `UNIGPU_FAULTS` plan's `kill_after_leases` and wire
/// knobs.
fn cmd_farm(args: &[String]) -> Result<(), CliError> {
    match args.first().map(String::as_str) {
        Some("tracker") => {
            known_flags(
                args,
                &[&[
                    "--listen",
                    "--lease-ms",
                    "--retries",
                    "--trace",
                    "--port-file",
                ]],
            )?;
            let listen = opt(args, "--listen")?.unwrap_or("127.0.0.1:0");
            let mut cfg = TrackerConfig::default();
            if let Some(ms) = opt_num(args, "--lease-ms")? {
                cfg.lease = Duration::from_millis(ms);
            }
            if let Some(r) = opt_num(args, "--retries")? {
                cfg.max_retries = r;
            }
            cfg.trace_path = opt(args, "--trace")?.map(PathBuf::from);
            let handle = Tracker::spawn(listen, cfg)
                .map_err(|e| CliError(format!("failed to bind tracker on {listen}: {e}")))?;
            println!("tracker listening on {}", handle.addr());
            if let Some(path) = opt(args, "--port-file")? {
                std::fs::write(path, handle.addr().to_string())
                    .map_err(|e| CliError(format!("failed to write port file {path}: {e}")))?;
            }
            handle.join(); // serves until the process is killed
            Ok(())
        }
        Some("worker") => {
            known_flags(args, &[&["--tracker", "--device", "--name"]])?;
            let tracker = opt(args, "--tracker")?
                .ok_or_else(|| CliError("farm worker needs --tracker HOST:PORT".into()))?;
            let device = opt(args, "--device")?.unwrap_or("deeplens");
            let platform = platform_by_name(device)?;
            let cfg = WorkerConfig {
                name: opt(args, "--name")?.unwrap_or("worker").to_string(),
                faults: fault_plan(None)?,
                ..Default::default()
            };
            println!("worker `{}` serving {} via {tracker}", cfg.name, platform.gpu.name);
            match run_worker(tracker, platform.gpu.clone(), cfg) {
                Ok(exit) => {
                    println!("worker exited: {exit:?}");
                    Ok(())
                }
                Err(e) => Err(CliError(format!("worker transport failure: {e}"))),
            }
        }
        _ => Err(usage()),
    }
}

/// `unigpu fleet replica|router` — fleet-scale serving over TCP loopback.
/// A replica wraps one simulated device's server behind the framing
/// protocol and serves one router connection to completion; the router
/// shards a synthetic request stream across the pool with
/// power-of-two-choices weighted by predicted cost, warm-replicating
/// artifacts between same-device peers before traffic starts.
fn cmd_fleet(args: &[String]) -> Result<(), CliError> {
    match args.first().map(String::as_str) {
        Some("replica") => {
            let replica_flags = [
                "--device",
                "--name",
                "--listen",
                "--faults",
                "--port-file",
                "--concurrency",
                "--batch",
                "--window-ms",
                "--queue-cap",
                "--deadline-ms",
                "--cache-dir",
                "--max-resumes",
            ];
            known_flags(args, &[&replica_flags])?;
            let device = opt(args, "--device")?.unwrap_or("deeplens");
            let platform = platform_by_name(device)?;
            let name = opt(args, "--name")?.unwrap_or("replica").to_string();
            let listen = opt(args, "--listen")?.unwrap_or("127.0.0.1:0");
            // the plan's device knobs go to the server, its wire knobs to
            // every router connection, `die_on_submit` to the replica
            let faults = fault_plan(opt(args, "--faults")?)?;
            let listener = std::net::TcpListener::bind(listen)
                .map_err(|e| CliError(format!("failed to bind replica on {listen}: {e}")))?;
            let addr = listener
                .local_addr()
                .map_err(|e| CliError(format!("no local addr: {e}")))?;
            println!("replica `{name}` serving {} on {addr}", platform.gpu.name);
            if let Some(path) = opt(args, "--port-file")? {
                std::fs::write(path, addr.to_string())
                    .map_err(|e| CliError(format!("failed to write port file {path}: {e}")))?;
            }
            let concurrency = opt_num(args, "--concurrency")?.unwrap_or(1);
            let batch = opt_num(args, "--batch")?.unwrap_or(4);
            let mut builder = ServeConfig::builder()
                .concurrency(concurrency)
                .max_batch(batch)
                .faults(faults.device);
            if let Some(w) = opt_num(args, "--window-ms")? {
                builder = builder.batch_window(Duration::from_millis(w));
            }
            if let Some(cap) = opt_num(args, "--queue-cap")? {
                builder = builder.queue_cap(cap);
            }
            if let Some(d) = opt_num(args, "--deadline-ms")? {
                builder = builder.deadline_ms(d);
            }
            let serve = builder
                .build()
                .map_err(|e| CliError(format!("invalid serve config: {e}")))?;
            let cfg = ReplicaConfig {
                name: name.clone(),
                platform,
                serve,
                cache_dir: opt(args, "--cache-dir")?.map(PathBuf::from),
                die_on_submit: faults.die_on_submit,
                net_faults: faults.net,
                max_resumes: opt_num(args, "--max-resumes")?
                    .unwrap_or(64),
            };
            run_replica(&listener, &cfg)
                .map_err(|e| CliError(format!("replica `{name}` transport failure: {e}")))?;
            println!("replica `{name}` exited cleanly");
            Ok(())
        }
        Some("router") => {
            known_flags(
                args,
                &[&[
                    "--replica",
                    "--model",
                    "--requests",
                    "--policy",
                    "--seed",
                    "--interval-ms",
                ]],
            )?;
            let addrs = opt_all(args, "--replica")?;
            if addrs.is_empty() {
                return Err(CliError(
                    "fleet router needs at least one --replica HOST:PORT".into(),
                ));
            }
            let model = opt(args, "--model")?.unwrap_or("SqueezeNet1.0");
            let n: usize = opt_num(args, "--requests")?.unwrap_or(64);
            let policy = match opt(args, "--policy")? {
                Some("round-robin") => RoutePolicy::RoundRobin,
                Some("pow2") | None => RoutePolicy::PowerOfTwo,
                Some(p) => {
                    return Err(CliError(format!(
                        "unknown policy `{p}` (use pow2|round-robin)"
                    )))
                }
            };
            let mut cfg = RouterConfig {
                policy,
                ..RouterConfig::default()
            };
            if let Some(seed) = opt_num(args, "--seed")? {
                cfg.seed = seed;
            }
            let net_faults = fault_plan(None)?.net;
            let mut replicas = Vec::with_capacity(addrs.len());
            for a in &addrs {
                let r = RemoteReplica::connect_with(a, net_faults)
                    .map_err(|e| CliError(format!("failed to connect replica {a}: {e}")))?;
                println!("connected replica `{}` ({}) at {a}", r.name(), r.device());
                replicas.push(r);
            }
            let warm = warm_remote_pool(&mut replicas, model)
                .map_err(|e| CliError(format!("warm replication failed: {e}")))?;
            for (r, w) in replicas.iter().zip(&warm) {
                println!(
                    "loaded {model} on `{}`: {} ({:.2} ms predicted)",
                    r.name(),
                    if *w { "warm (replicated artifact)" } else { "cold compile" },
                    r.predicted_ms()
                );
            }
            // offer slightly faster than the fastest replica drains, so the
            // router's queue-depth weighting has contrast to work with
            let interval = opt_num(args, "--interval-ms")?
                .unwrap_or_else(|| {
                    replicas
                        .iter()
                        .map(|r| r.predicted_ms())
                        .fold(f64::INFINITY, f64::min)
                        * 0.5
                });
            let mut router = Router::new(
                cfg,
                replicas
                    .into_iter()
                    .map(|r| Box::new(r) as Box<dyn ReplicaLink>)
                    .collect(),
            );
            for id in 0..n {
                router.route(id, id as f64 * interval);
            }
            let report = router.finish();
            for r in &report.replicas {
                println!(
                    "replica `{}` [{}]: offered={} completed={} batches={} trips={}{}{}",
                    r.name,
                    r.device,
                    r.offered,
                    r.completed.len(),
                    r.batches,
                    r.breaker_trips,
                    if r.warm_start { " warm" } else { "" },
                    if r.dead { " DEAD" } else { "" },
                );
            }
            println!(
                "fleet accounting: offered={} completed={} shed={} expired={} failed={} \
                 rerouted={} deaths={} duplicates={} ({} lost)",
                report.offered,
                report.completed.len(),
                report.shed.len(),
                report.expired.len(),
                report.failed.len(),
                report.rerouted,
                report.replica_deaths,
                report.duplicate_completions(),
                report.lost()
            );
            if report.net.any() {
                println!(
                    "fleet net: reconnects={} resumes={} replays={} checksum_errors={} \
                     dup_frames_skipped={} conns_dropped={} corrupted={} truncated={} \
                     duplicated={}",
                    report.net.reconnects,
                    report.net.resumes,
                    report.net.replayed_frames,
                    report.net.checksum_errors,
                    report.net.dup_frames_skipped,
                    report.net.conns_dropped,
                    report.net.bytes_corrupted,
                    report.net.frames_truncated,
                    report.net.frames_duplicated,
                );
            }
            println!("fleet p99: {:.2} ms", report.p99_latency_ms());
            println!("fleet digest: {:016x}", report.digest());
            if report.lost() != 0 {
                return Err(CliError(format!(
                    "fleet lost {} requests — accounting invariant violated",
                    report.lost()
                )));
            }
            Ok(())
        }
        _ => Err(usage()),
    }
}

fn cmd_codegen(args: &[String]) -> Result<(), CliError> {
    known_flags(args, &[&["--target"]])?;
    let target = match opt(args, "--target")?.unwrap_or("opencl") {
        "cuda" => Target::Cuda,
        "opencl" => Target::OpenCl,
        t => return Err(CliError(format!("unknown target `{t}` (use opencl|cuda)"))),
    };
    let w = ConvWorkload::square(1, 64, 64, 56, 3, 1, 1);
    let c = conv2d_compute(&w);
    let mut s = Schedule::default_for(&c);
    s.split("oc", 8).unwrap();
    s.bind("oc.o", LoopTag::BlockIdx(0)).unwrap();
    s.bind("oc.i", LoopTag::ThreadIdx(0)).unwrap();
    s.split("ow", 8).unwrap();
    s.vectorize("ow.i").unwrap();
    s.unroll("kw").unwrap();
    let stmt = unigpu::ir::simplify_stmt(&lower(&c, &s));
    let src = generate("conv2d_nchw", &stmt, target);
    eprintln!("// {} lines from one unified-IR schedule", line_count(&src));
    println!("{src}");
    Ok(())
}

/// `unigpu paper` — regenerate the paper's evaluation (Tables 1–5, the
/// fallback experiment, Figures 1–3, the ablations) and print it as the
/// JSON committed at `PAPER_TABLES.json`.
fn cmd_paper() -> Result<(), CliError> {
    println!("{}", paper::tables().to_json());
    Ok(())
}

fn cmd_dot(args: &[String]) -> Result<(), CliError> {
    known_flags(args, &[])?;
    let name = positional(args, "MobileNet1.0");
    let platform = Platform::deeplens();
    let g = optimize(&model_by_name(name, &platform)?);
    println!("{}", to_dot(&g));
    Ok(())
}

/// The usage text as a [`CliError`], so an unknown command flows through
/// the same `tel_error!` + exit-code path as every other CLI failure.
fn usage() -> CliError {
    CliError(
        "usage: unigpu <command>\n\
         \n\
         commands:\n\
           models                         list the model zoo\n\
           estimate <model> [--platform deeplens|aisage|nano] [--tuned]\n\
                    [--trials N] [--baseline] [--per-op]\n\
           serve <model> [--platform P] [--requests N] [--concurrency K]\n\
                    [--batch B] [--window-ms W] [--interval-ms I] [--tuned]\n\
                    [--queue-cap N] [--deadline-ms D] [--faults PLAN]\n\
                    [--metrics-addr ADDR] [--port-file F] [--hold-ms M]\n\
                    [--slo-objective F] [--slo-window-ms W] [--trace-sample N]\n\
                    [--drift-threshold T] [--recorder-dump-dir DIR]\n\
                    [--alert-rules name:metric>value,...]\n\
                    [--trace out.json]\n\
           report <model> [same flags as serve]\n\
                    full observability digest: SLO, utilization, histograms\n\
           drift <model> [same flags as serve]\n\
                    cost-model calibration: predicted vs observed, verdict\n\
           profile <model> [--device deeplens|aisage|nano] [--trace out.json]\n\
                    [--tuned] [--trials N] [--fallback]\n\
           tune <model> [--platform P] [--trials N] [--out file.jsonl]\n\
                    [--farm HOST:PORT] [--resume]\n\
           farm tracker [--listen ADDR] [--lease-ms N] [--retries N]\n\
                    [--port-file F] [--trace out.json]\n\
           farm worker --tracker ADDR [--device deeplens|aisage|nano] [--name N]\n\
           fleet replica [--listen ADDR] [--device D] [--name N] [--port-file F]\n\
                    [--cache-dir DIR] [--concurrency K] [--batch B] [--window-ms W]\n\
                    [--queue-cap N] [--deadline-ms D] [--faults PLAN] [--max-resumes N]\n\
           fleet router --replica ADDR [--replica ADDR ...] [--model M]\n\
                    [--requests N] [--interval-ms I] [--policy pow2|round-robin]\n\
                    [--seed S]\n\
           codegen [--target opencl|cuda]\n\
           dot <model>                    emit Graphviz\n\
           paper                          the paper's tables and figures as JSON\n\
         \n\
         PLAN (--faults, else UNIGPU_FAULTS; the farm worker and fleet router read\n\
         only UNIGPU_FAULTS): comma-separated key=N[:M] items, e.g.\n\
           kernel_fail_nth=9,throttle_after_ms=2:1.5,drop_conn_nth=11,die_on_submit=12"
            .into(),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("models") => known_flags(&args[1..], &[]).and_then(|()| cmd_models()),
        Some("estimate") => cmd_estimate(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("report") => cmd_report(&args[1..]),
        Some("drift") => cmd_drift(&args[1..]),
        Some("profile") => cmd_profile(&args[1..]),
        Some("tune") => cmd_tune(&args[1..]),
        Some("farm") => cmd_farm(&args[1..]),
        Some("fleet") => cmd_fleet(&args[1..]),
        Some("codegen") => cmd_codegen(&args[1..]),
        Some("dot") => cmd_dot(&args[1..]),
        Some("paper") => known_flags(&args[1..], &[]).and_then(|()| cmd_paper()),
        _ => Err(usage()),
    };
    if let Err(e) = result {
        tel_error!("unigpu::cli", "{e}");
        std::process::exit(2);
    }
}
