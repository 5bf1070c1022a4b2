//! `serve_steady` and `serve_chaos`: one `Server` over MobileNet1.0 on
//! DeepLens with fallback schedules (no tuner RNG in the loop).
//!
//! Load is open loop on the simulated clock: the benchmark builds the whole
//! arrival schedule first, each `InferenceRequest::arrival_ms` is the
//! request's due time and the server counts latency from it, so the
//! generator cannot fall behind (`bench.generator_lag_ms` is 0 by
//! construction). On the host the submit loop is a closed tight loop on one
//! thread.

use super::{build_for, rate_ladder, speedup_vs_vendor, zoo_entry, SimCell};
use crate::gen::{bursty_arrivals, unit_arrivals, Rng};
use crate::harness::{mean_ns, Ctx, RepCost};
use crate::stats::percentile;
use crate::trace::Tracer;
use std::time::{Duration, Instant};
use unigpu::device::{
    CostModel, DeviceFaultPlan, DeviceFaultState, KernelProfile, MultiTimeline, Platform,
};
use unigpu::engine::{CompiledModel, Engine, InferenceRequest, ServeConfig, ServeReport};
use unigpu::graph::Graph;
use unigpu::telemetry::{ChromeTrace, FlightRecorder, MetricsRegistry, SpanRecorder};
use unigpu::tensor::Shape;

const MODEL: &str = "MobileNet1.0";
const LANES: usize = 4;
const MAX_BATCH: usize = 8;
const WINDOW: Duration = Duration::from_millis(2);

/// Requests of the one pass that yields the simulated-clock metrics
/// (>= 100k latency samples) and of each timed rep. Reps are short so that a
/// run holds many of them: the host metric is the fastest rep.
const SIM_REQUESTS: usize = 120_000;
const REP_REQUESTS: usize = 20_000;

/// Offered rate of the timed reps and of `sim_p50_ms` / `sim_p99_ms`, as a
/// share of capacity.
const REFERENCE_LOAD: f64 = 0.7;
/// Requests offered at each step of the rate ladder.
const LADDER_REQUESTS: usize = 40_000;
/// A ladder step passes when its p99 stays within this many single-sample
/// latencies, at most 1 % of requests fail, and the backlog does not grow.
const P99_LIMIT_SAMPLES: f64 = 4.0;

/// `serve_chaos`: queue bound, deadline in single-sample latencies, burst and
/// lull rates as shares of capacity, and the pinned device-fault plan.
const CHAOS_QUEUE_CAP: usize = 32;
const CHAOS_DEADLINE_SAMPLES: f64 = 12.0;
const CHAOS_BURST_LOAD: f64 = 2.0;
const CHAOS_LULL_LOAD: f64 = 0.3;
const CHAOS_FAULTS: &str = "kernel_fail_nth=7,throttle_after_ms=5000000:1.5,mem_pressure=6";

struct Setup {
    model: Graph,
    compiled: CompiledModel,
    shape: Shape,
    /// Simulated single-sample latency, ms.
    sample_ms: f64,
    /// Requests/s the lanes sustain without batching: `LANES` ÷ `sample_ms`.
    capacity_rps: f64,
}

impl Setup {
    /// The served model against its platform's vendor library. Priced after
    /// set-up: it is the benchmark's bookkeeping, not the system's start-up.
    fn speedup_vs_vendor(&self) -> f64 {
        let platform = Platform::deeplens();
        speedup_vs_vendor(&[SimCell::price(
            &self.compiled,
            &self.model,
            &zoo_entry(MODEL),
            &platform,
        )])
    }
}

fn setup(tracer: &Tracer) -> Setup {
    let platform = Platform::deeplens();
    let model = tracer.span("models.build", || build_for(&zoo_entry(MODEL), &platform));
    let engine = Engine::builder().platform(platform).persist(false).build();
    let compiled = tracer.span("engine.compile", || engine.compile(&model));
    let sample_ms = compiled.estimate_batch_ms(1);
    Setup {
        shape: compiled.input_shape(),
        sample_ms,
        capacity_rps: LANES as f64 * 1000.0 / sample_ms,
        model,
        compiled,
    }
}

fn requests(arrivals_ms: impl Iterator<Item = f64>, shape: &Shape) -> Vec<InferenceRequest> {
    arrivals_ms
        .enumerate()
        .map(|(id, arrival_ms)| InferenceRequest {
            id,
            shape: shape.clone(),
            arrival_ms,
            trace: None,
        })
        .collect()
}

/// Submissions per timed part of a serve rep: short enough that some rep
/// catches every part in a quiet moment of the machine.
const SUBMITS_PER_PART: usize = 2_000;

/// One pass of the section `serve_*` times: `Server::new`, every `submit`,
/// `shutdown`. The traced run also drains before shutting down, to time
/// `Server::drain` on its own.
fn serve_once(
    tracer: &Tracer,
    compiled: &CompiledModel,
    cfg: &ServeConfig,
    requests: Vec<InferenceRequest>,
) -> (ServeReport, RepCost) {
    let mut cost = RepCost {
        ops: requests.len() as u64,
        ..RepCost::default()
    };
    let mut server = cost.part(|| tracer.span("engine.server_new", || compiled.server(cfg)));
    let mut requests = requests.into_iter().peekable();
    while requests.peek().is_some() {
        cost.part(|| {
            for r in requests.by_ref().take(SUBMITS_PER_PART) {
                let id = r.id as u64;
                tracer.request_span("engine.submit", id, || server.submit(r));
            }
        });
    }
    let report = cost.part(|| {
        if tracer.enabled() {
            tracer.span("engine.drain", || server.drain());
        }
        tracer.span("engine.shutdown", || server.shutdown())
    });
    (report, cost)
}

fn latencies(report: &ServeReport) -> Vec<f64> {
    report.results.iter().map(|r| r.latency_ms()).collect()
}

fn not_served(report: &ServeReport) -> usize {
    report.shed.len() + report.expired.len() + report.failed.len()
}

/// Every report must account for every request exactly once.
fn check_accounting(ctx: &mut Ctx, report: &ServeReport, offered: usize, what: &str) {
    ctx.check(
        report.offered == offered,
        format!("{what}: offered {} of {offered}", report.offered),
    );
    ctx.check(
        report.lost() == 0,
        format!("{what}: {} requests lost", report.lost()),
    );
    let mut ids: Vec<usize> = report.results.iter().map(|r| r.id).collect();
    ids.dedup(); // sorted by id
    ctx.check(
        ids.len() == report.results.len(),
        format!("{what}: duplicate completions"),
    );
}

fn set_serving_layer_metrics(ctx: &mut Ctx, tracer: &Tracer, report: &ServeReport) {
    ctx.set(
        "engine.server_new_us",
        tracer.mean_ns("engine.server_new") / 1e3,
    );
    ctx.set("engine.submit_ns", tracer.mean_ns("engine.submit"));
    ctx.set(
        "engine.drain_ns_per_req",
        tracer.mean_ns("engine.drain") / REP_REQUESTS as f64,
    );
    ctx.set(
        "engine.shutdown_ms",
        tracer.mean_ns("engine.shutdown") / 1e6,
    );
    ctx.set("engine.mean_batch_size", report.mean_batch_size());
    ctx.set("engine.batches", report.batches as f64);
    ctx.set("engine.device_idle_fraction", report.device_idle_fraction);
    let queue_ms: Vec<f64> = report.results.iter().map(|r| r.queue_ms()).collect();
    ctx.set("engine.queue_ms_p50", percentile(&queue_ms, 0.5));
    ctx.set("engine.shed", report.shed.len() as f64);
    ctx.set("engine.expired", report.expired.len() as f64);
    ctx.set("engine.retries", report.retries as f64);
    ctx.set("engine.degraded_batches", report.degraded_batches as f64);
    ctx.set("engine.breaker_trips", report.breaker_trips as f64);
    ctx.set("bench.generator_lag_ms", 0.0);
}

pub fn steady(ctx: &mut Ctx, tracer: &Tracer) {
    let seed = ctx.seed;
    let (s, unit) = ctx.setup(|| {
        (
            setup(tracer),
            unit_arrivals(&mut Rng::new(seed, 1), SIM_REQUESTS),
        )
    });
    println!(
        "{MODEL} on DeepLens: single-sample {:.3} sim ms, capacity C = {:.4} rps over {LANES} lanes",
        s.sample_ms, s.capacity_rps
    );
    let cfg = ServeConfig::builder()
        .concurrency(LANES)
        .max_batch(MAX_BATCH)
        .batch_window(WINDOW)
        .trace_sample_every(0) // host-clock metrics are measured with tracing off
        .build()
        .expect("the pinned serve config is valid");
    let at_rate = |load: f64, n: usize| {
        let scale = 1000.0 / (load * s.capacity_rps);
        requests(unit[..n].iter().map(move |t| t * scale), &s.shape)
    };
    let off = Tracer::new(false);

    // Simulated clock, each pass once (it is deterministic): the fixed rate
    // ladder, then the reference rate.
    rate_ladder(
        ctx,
        s.capacity_rps,
        P99_LIMIT_SAMPLES * s.sample_ms,
        |ctx, load| {
            let (report, _) = serve_once(&off, &s.compiled, &cfg, at_rate(load, LADDER_REQUESTS));
            check_accounting(ctx, &report, LADDER_REQUESTS, "ladder");
            (
                latencies(&report),
                not_served(&report) as f64 / LADDER_REQUESTS as f64,
            )
        },
    );

    let (report, _) = serve_once(
        &off,
        &s.compiled,
        &cfg,
        at_rate(REFERENCE_LOAD, SIM_REQUESTS),
    );
    check_accounting(ctx, &report, SIM_REQUESTS, "reference rate");
    ctx.check(
        report.results.len() == SIM_REQUESTS,
        "steady load left requests unserved",
    );
    ctx.ops(SIM_REQUESTS as u64, report.failed.len() as u64);
    let lat = latencies(&report);
    ctx.set(
        "served_ratio",
        report.results.len() as f64 / SIM_REQUESTS as f64,
    );
    ctx.set("sim_p50_ms", percentile(&lat, 0.5));
    ctx.set("sim_p99_ms", percentile(&lat, 0.99));
    ctx.set("sim_speedup_vs_vendor", s.speedup_vs_vendor());

    // Host clock: short reps at the reference rate.
    let digests_equal = measure_reps(ctx, tracer, &s.compiled, &cfg, || {
        at_rate(REFERENCE_LOAD, REP_REQUESTS)
    });

    if ctx.traced {
        set_serving_layer_metrics(ctx, tracer, &report);
        ctx.set("models.build_ms", tracer.mean_ns("models.build") / 1e6);
        ctx.set(
            "engine.compile_cold_ms",
            tracer.mean_ns("engine.compile") / 1e6,
        );
        ctx.set("engine.digest_reps_equal", f64::from(digests_equal));
        // Continuous joins are a counter of the live server, not of the report.
        let mut server = s.compiled.server(&cfg);
        for r in at_rate(REFERENCE_LOAD, SIM_REQUESTS) {
            server.submit(r);
        }
        ctx.set("engine.continuous_joins", server.continuous_joins() as f64);
        drop(server);
        observability_cost(
            ctx,
            tracer,
            &s,
            &cfg,
            &at_rate(REFERENCE_LOAD, REP_REQUESTS),
        );
        device_probes(ctx, tracer);
        telemetry_probes(ctx, tracer);
    }
}

/// The timed reps of both serve workloads: `make_requests` builds one rep's
/// input outside the timed section; every rep must reproduce the first
/// rep's `ServeReport::digest`. Returns how many reps did.
fn measure_reps(
    ctx: &mut Ctx,
    tracer: &Tracer,
    compiled: &CompiledModel,
    cfg: &ServeConfig,
    make_requests: impl Fn() -> Vec<InferenceRequest>,
) -> u32 {
    let mut first: Option<u64> = None;
    let mut equal = 0u32;
    ctx.measure(tracer, |ctx, tracer| {
        let reqs = make_requests();
        let n = reqs.len();
        let (report, cost) = serve_once(tracer, compiled, cfg, reqs);
        let digest = report.digest();
        match first {
            Some(first) => {
                ctx.check(first == digest, "ServeReport::digest differs between reps");
                equal += u32::from(first == digest);
            }
            None => {
                check_accounting(ctx, &report, n, "timed rep");
                first = Some(digest);
            }
        }
        cost
    });
    equal
}

/// What the engine's own request tracing costs the serve loop: the same
/// section with 1-in-16 sampling and with every request traced, over the
/// untraced time (ROADMAP budgets 15 % for full tracing).
fn observability_cost(
    ctx: &mut Ctx,
    tracer: &Tracer,
    s: &Setup,
    base: &ServeConfig,
    reqs: &[InferenceRequest],
) {
    let off = Tracer::new(false);
    let time = |every: usize| {
        let cfg = ServeConfig {
            trace_sample_every: every,
            ..base.clone()
        };
        // Fastest of three, as for the end-to-end host metric.
        (0..3)
            .map(|_| serve_once(&off, &s.compiled, &cfg, reqs.to_vec()).1.secs())
            .fold(f64::INFINITY, f64::min)
    };
    let untraced = time(0);
    let (sampled, full) = tracer.span("engine.serve_traced", || (time(16), time(1)));
    ctx.set("engine.trace_sampled_ratio", sampled / untraced);
    ctx.set("engine.trace_full_ratio", full / untraced);
}

/// The device-layer calls the serve loop makes per batch.
fn device_probes(ctx: &mut Ctx, tracer: &Tracer) {
    tracer.span("device.probes", || {
        let model = CostModel::new(Platform::deeplens().gpu);
        let profile = KernelProfile::new("probe", 64 * 56 * 56)
            .workgroup(64)
            .flops(1152.0)
            .reads(256.0)
            .writes(4.0);
        let mut sink = 0.0;
        ctx.set(
            "device.kernel_time_ns",
            mean_ns(200_000, || {
                sink += model.kernel_time_ms(std::hint::black_box(&profile))
            }),
        );
        std::hint::black_box(sink);

        // `first_free_at` + `schedule`, as `Server::dispatch` pairs them.
        let mut timeline = MultiTimeline::new(LANES);
        let mut now = 0.0;
        ctx.set(
            "device.timeline_schedule_ns",
            mean_ns(100_000, || {
                if let Some(lane) = timeline.first_free_at(now) {
                    timeline.schedule(lane, String::from("batch"), now, 1.0);
                }
                now += 0.3;
            }),
        );

        let mut faults = DeviceFaultState::new(DeviceFaultPlan::parse(CHAOS_FAULTS));
        ctx.set(
            "device.fault_decide_ns",
            mean_ns(1_000_000, || {
                std::hint::black_box(faults.on_launch(1.0, 4));
            }),
        );
    });
}

/// The telemetry primitives the serve loop calls per request and per batch,
/// and the exporters a scrape or a `--trace` pays for.
fn telemetry_probes(ctx: &mut Ctx, tracer: &Tracer) {
    tracer.span("telemetry.probes", || {
        let spans = SpanRecorder::new();
        ctx.set(
            "telemetry.span_ns",
            mean_ns(100_000, || drop(spans.scope("probe", "bench", 0))),
        );
        let metrics = MetricsRegistry::new();
        ctx.set(
            "telemetry.counter_ns",
            mean_ns(1_000_000, || metrics.inc("engine.requests")),
        );
        let mut v = 0.0;
        ctx.set(
            "telemetry.histogram_ns",
            mean_ns(1_000_000, || {
                v += 0.37;
                metrics.observe("engine.latency_ms", v);
            }),
        );
        let mut recorder = FlightRecorder::new(256);
        let mut at = 0.0;
        ctx.set(
            "telemetry.recorder_push_ns",
            mean_ns(200_000, || {
                at += 1.0;
                recorder.record(at, "admit", &[("id", String::from("12345"))]);
            }),
        );
        for i in 0..200 {
            metrics.inc(&format!("fleet.routed.{i}"));
            metrics.set_gauge(&format!("fleet.queue_depth.{i}"), i as f64);
        }
        let snapshot = metrics.snapshot();
        ctx.set(
            "telemetry.prometheus_ms",
            mean_ns(20, || drop(unigpu::telemetry::to_prometheus(&snapshot))) / 1e6,
        );
        let mut chrome = ChromeTrace::new();
        chrome.add_spans(&spans.spans());
        let start = Instant::now();
        let json = chrome.to_json();
        ctx.set(
            "telemetry.chrome_export_ms",
            start.elapsed().as_secs_f64() * 1e3,
        );
        let start = Instant::now();
        let valid = unigpu::telemetry::json::validate(&json).is_ok();
        ctx.set(
            "telemetry.json_validate_mb_s",
            json.len() as f64 / 1e6 / start.elapsed().as_secs_f64(),
        );
        ctx.check(
            valid,
            "ChromeTrace::to_json failed telemetry::json::validate",
        );
    });
}

pub fn chaos(ctx: &mut Ctx, tracer: &Tracer) {
    let seed = ctx.seed;
    let (s, arrivals) = ctx.setup(|| {
        let s = setup(tracer);
        let arrivals = bursty_arrivals(
            &mut Rng::new(seed, 2),
            SIM_REQUESTS,
            CHAOS_BURST_LOAD * s.capacity_rps,
            CHAOS_LULL_LOAD * s.capacity_rps,
        );
        (s, arrivals)
    });
    let cfg = ServeConfig::builder()
        .concurrency(LANES)
        .max_batch(MAX_BATCH)
        .batch_window(WINDOW)
        .queue_cap(CHAOS_QUEUE_CAP)
        .deadline_ms(CHAOS_DEADLINE_SAMPLES * s.sample_ms)
        .faults(DeviceFaultPlan::parse(CHAOS_FAULTS))
        .trace_sample_every(0)
        .build()
        .expect("the pinned serve config is valid");
    println!(
        "{MODEL} on DeepLens: bursts at {CHAOS_BURST_LOAD} C / lulls at {CHAOS_LULL_LOAD} C (C = {:.4} rps), queue {CHAOS_QUEUE_CAP}, deadline {:.1} sim ms, faults {CHAOS_FAULTS}",
        s.capacity_rps,
        CHAOS_DEADLINE_SAMPLES * s.sample_ms
    );
    let burst = |n: usize| requests(arrivals[..n].iter().copied(), &s.shape);

    // Simulated clock: the whole schedule, once.
    let (report, _) = serve_once(&Tracer::new(false), &s.compiled, &cfg, burst(SIM_REQUESTS));
    check_accounting(ctx, &report, SIM_REQUESTS, "chaos");
    // The pinned plan must drive every fault path, or the workload no
    // longer measures what it says it does.
    for (path, count) in [
        ("shed", report.shed.len()),
        ("expired", report.expired.len()),
        ("retries", report.retries),
        ("degraded_batches", report.degraded_batches),
        ("breaker_trips", report.breaker_trips),
    ] {
        ctx.check(
            count > 0,
            format!("the pinned fault plan no longer exercises `{path}`"),
        );
    }
    // Shed and expired requests are the workload's measured outcome
    // (`served_ratio`); only requests the server itself gave up on count as
    // failed operations.
    ctx.ops(SIM_REQUESTS as u64, report.failed.len() as u64);
    println!(
        "offered {SIM_REQUESTS}: completed {} shed {} expired {} failed {} | device_faults {} retries {} degraded_batches {} breaker_trips {}",
        report.results.len(),
        report.shed.len(),
        report.expired.len(),
        report.failed.len(),
        report.device_faults,
        report.retries,
        report.degraded_batches,
        report.breaker_trips
    );
    let lat = latencies(&report);
    ctx.set(
        "served_ratio",
        report.results.len() as f64 / SIM_REQUESTS as f64,
    );
    ctx.set("sim_p50_ms", percentile(&lat, 0.5));
    ctx.set("sim_p99_ms", percentile(&lat, 0.99));
    // Simulated requests/s completed over the makespan.
    ctx.set("sim_goodput_rps", report.throughput_rps());
    ctx.set("sim_speedup_vs_vendor", s.speedup_vs_vendor());

    let digests_equal = measure_reps(ctx, tracer, &s.compiled, &cfg, || burst(REP_REQUESTS));

    if ctx.traced {
        set_serving_layer_metrics(ctx, tracer, &report);
        ctx.set("engine.digest_reps_equal", f64::from(digests_equal));
        // Flight-recorder dumps need a directory; count them on a short run
        // so the timed reps stay free of disk writes.
        let dumping = ServeConfig {
            recorder_dump_dir: Some(ctx.work_dir.join("dumps")),
            ..cfg.clone()
        };
        let (dumped, _) = tracer.span("engine.serve_dumping", || {
            serve_once(&Tracer::new(false), &s.compiled, &dumping, burst(5_000))
        });
        ctx.set("engine.recorder_dumps", dumped.recorder_dumps.len() as f64);
        device_probes(ctx, tracer);
    }
}
