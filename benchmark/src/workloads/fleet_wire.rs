//! `fleet_wire`: SqueezeNet1.0 behind a power-of-two-choices `Router` over
//! four `LocalReplica`s (2 × DeepLens, aiSage, Jetson Nano; 2 lanes, queue
//! bound 16), one of which dies mid-run, plus each request's `Infer` /
//! `InferAck` frame pair through `Framed` v2 over an in-memory stream.
//! Router, replica state machine, failover ledger and codec do the work;
//! `serve_steady` bypasses all four.
//!
//! One operation is one request: routed (`Router::route` … `finish`) and
//! its two frames encoded and decoded.

use super::{build_for, rate_ladder, speedup_vs_vendor, zoo_entry, SimCell};
use crate::gen::{unit_arrivals, Rng};
use crate::harness::{mean_ns, Ctx, RepCost};
use crate::stats::percentile;
use crate::trace::Tracer;
use std::io::Cursor;
use std::net::TcpListener;
use std::time::Instant;
use unigpu::device::Platform;
use unigpu::engine::{CompiledModel, Engine, ServeConfig};
use unigpu::farm::framing::{crc32, Framed};
use unigpu::farm::{ChaosStream, NetFaultPlan, SharedNetFaults};
use unigpu::fleet::{
    artifact_of, build_pool, run_replica, FleetFrame, FleetReport, LocalReplica, RemoteReplica,
    ReplicaConfig, ReplicaHealth, ReplicaLink, ReplicaSpec, Router, RouterConfig,
};
use unigpu::graph::Graph;

const MODEL: &str = "SqueezeNet1.0";
const LANES: usize = 2;
/// Replica queue bound. The two slow boards fill their queues in the first
/// seconds and the router, whose view of a replica is as old as its last
/// request there, then mostly avoids them; at 64 that start-up transient was
/// 1.25 % of a 50k-request run, which put p99 on the edge between the fast
/// and the slow boards' latencies (6.2-7.7 s across seeds). At 16 it is 0.4 %
/// and p99 is the fast boards' queueing tail (138-141 ms across seeds).
const QUEUE_CAP: usize = 16;
/// Index of the replica that dies, and the share of a run's requests after
/// which it does (it sees about a quarter of them, so this is ~40 % in).
const DOOMED: usize = 1;
const DIES_AFTER_SHARE: f64 = 0.1;

/// Requests of the pass that yields the simulated-clock metrics, of each
/// timed rep, and of the two stream lengths of `fleet.route_scaling_ratio`.
const SIM_REQUESTS: usize = 50_000;
const REP_REQUESTS: usize = 10_000;
const SHORT_REQUESTS: usize = 12_500;

/// Offered rate of the timed reps and latency metrics, as a share of the
/// capacity of the three survivors, and the requests of each ladder step.
const REFERENCE_LOAD: f64 = 0.7;
const LADDER_REQUESTS: usize = 20_000;
/// A ladder step passes when p99 stays within this many single-sample
/// latencies of the slowest replica (and the ladder's other two conditions hold).
const P99_LIMIT_SAMPLES: f64 = 10.0;

struct Setup {
    model: Graph,
    specs: Vec<ReplicaSpec>,
    /// Requests/s the replicas that survive sustain without batching.
    capacity_rps: f64,
    slowest_sample_ms: f64,
    /// The surviving replicas' boards with the model compiled for each.
    survivors: Vec<(Platform, CompiledModel)>,
}

fn specs(requests: usize) -> Vec<ReplicaSpec> {
    let serve = ServeConfig::builder()
        .concurrency(LANES)
        .queue_cap(QUEUE_CAP)
        .trace_sample_every(0)
        .build()
        .expect("the pinned serve config is valid");
    let spec = |name: &str, platform| ReplicaSpec::new(name, platform, serve.clone());
    let dies_on = (requests as f64 * DIES_AFTER_SHARE) as usize;
    vec![
        spec("r0", Platform::deeplens()),
        spec("r1", Platform::deeplens()).die_on_submit(dies_on),
        spec("r2", Platform::aisage()),
        spec("r3", Platform::jetson_nano()),
    ]
}

fn setup(tracer: &Tracer) -> Setup {
    let model = tracer.span("models.build", || {
        build_for(&zoo_entry(MODEL), &Platform::deeplens())
    });
    let specs = specs(REP_REQUESTS);
    let mut capacity_rps = 0.0;
    let mut slowest_sample_ms: f64 = 0.0;
    let mut survivors = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let compiled = Engine::builder()
            .platform(spec.platform.clone())
            .persist(false)
            .build()
            .compile(&model);
        let sample_ms = compiled.estimate_batch_ms(1);
        slowest_sample_ms = slowest_sample_ms.max(sample_ms);
        if i != DOOMED {
            capacity_rps += LANES as f64 * 1000.0 / sample_ms;
            survivors.push((spec.platform.clone(), compiled));
        }
    }
    Setup {
        model,
        specs,
        capacity_rps,
        slowest_sample_ms,
        survivors,
    }
}

fn pool(tracer: &Tracer, s: &Setup, requests: usize, dir: &std::path::Path) -> Vec<LocalReplica> {
    let mut specs = s.specs.clone();
    specs[DOOMED] = specs[DOOMED]
        .clone()
        .die_on_submit((requests as f64 * DIES_AFTER_SHARE) as usize);
    let _ = std::fs::remove_dir_all(dir);
    tracer.span("fleet.build_pool", || build_pool(&s.model, &specs, dir))
}

/// Requests per timed part of a routing pass (see `serve::SUBMITS_PER_PART`).
const ROUTES_PER_PART: usize = 1_000;

/// Routes `arrivals_ms` through a fresh router over `pool`.
fn route_all(
    tracer: &Tracer,
    pool: Vec<LocalReplica>,
    arrivals_ms: &[f64],
) -> (FleetReport, RepCost) {
    let links: Vec<Box<dyn ReplicaLink>> = pool
        .into_iter()
        .map(|r| Box::new(r) as Box<dyn ReplicaLink>)
        .collect();
    let mut cost = RepCost {
        ops: arrivals_ms.len() as u64,
        ..RepCost::default()
    };
    let mut router = cost.part(|| Router::new(RouterConfig::default(), links));
    for (chunk_index, chunk) in arrivals_ms.chunks(ROUTES_PER_PART).enumerate() {
        cost.part(|| {
            for (i, &at) in chunk.iter().enumerate() {
                let id = chunk_index * ROUTES_PER_PART + i;
                tracer.request_span("fleet.route", id as u64, || router.route(id, at));
            }
        });
    }
    let report = cost.part(|| tracer.span("fleet.finish", || router.finish()));
    (report, cost)
}

/// `n` `Infer` + `InferAck` pairs written through one `Framed` and read back
/// through it. Returns (encode, decode) seconds.
fn codec_pass(tracer: &Tracer, n: usize, arrivals_ms: &[f64], v2: bool) -> (f64, f64, usize) {
    let health = ReplicaHealth {
        queue_depth: 3,
        inflight: 2,
        breaker: 0.0,
        breaker_open_until_ms: None,
        burn_rate: 0.25,
    };
    let mut framed = Framed::new(Cursor::new(Vec::<u8>::with_capacity(n * 160)));
    if v2 {
        framed.upgrade();
    }
    let start = Instant::now();
    tracer.span("farm.encode", || {
        for (id, &arrival_ms) in arrivals_ms[..n].iter().enumerate() {
            framed
                .send(&FleetFrame::Infer { id, arrival_ms })
                .expect("in-memory send");
            framed
                .send(&FleetFrame::InferAck {
                    admitted: true,
                    health,
                })
                .expect("in-memory send");
        }
    });
    let encode = start.elapsed().as_secs_f64();
    let bytes = framed.get_ref().get_ref().len();
    framed.get_mut().set_position(0);
    let start = Instant::now();
    let intact = tracer.span("farm.decode", || {
        (0..n).all(|id| {
            let infer: FleetFrame = framed.recv().expect("in-memory recv");
            let ack: FleetFrame = framed.recv().expect("in-memory recv");
            matches!(infer, FleetFrame::Infer { id: got, .. } if got == id)
                && matches!(ack, FleetFrame::InferAck { admitted: true, .. })
        })
    });
    assert!(intact, "frames changed across the codec");
    (encode, start.elapsed().as_secs_f64(), bytes)
}

fn check_report(ctx: &mut Ctx, report: &FleetReport, offered: usize, what: &str) {
    ctx.check(
        report.offered == offered,
        format!("{what}: offered {} of {offered}", report.offered),
    );
    ctx.check(
        report.lost() == 0,
        format!("{what}: {} requests lost", report.lost()),
    );
    ctx.check(
        report.duplicate_completions() == 0,
        format!(
            "{what}: {} duplicate completions",
            report.duplicate_completions()
        ),
    );
    ctx.check(
        report.replica_deaths == 1,
        format!("{what}: {} replica deaths, pinned 1", report.replica_deaths),
    );
    ctx.check(
        report.rerouted > 0,
        format!("{what}: the death re-routed nothing"),
    );
}

fn not_served(r: &FleetReport) -> usize {
    r.shed.len() + r.expired.len() + r.failed.len()
}

pub fn run(ctx: &mut Ctx, tracer: &Tracer) {
    let seed = ctx.seed;
    let (s, unit) = ctx.setup(|| {
        (
            setup(tracer),
            unit_arrivals(&mut Rng::new(seed, 3), SIM_REQUESTS),
        )
    });
    println!(
        "{MODEL} on 2 x DeepLens + aiSage + Jetson Nano, r{DOOMED} dies: surviving capacity C = {:.3} rps, slowest single-sample {:.1} sim ms",
        s.capacity_rps, s.slowest_sample_ms
    );
    let at_rate = |load: f64, n: usize| -> Vec<f64> {
        let scale = 1000.0 / (load * s.capacity_rps);
        unit[..n].iter().map(|t| t * scale).collect()
    };
    let pool_dir = ctx.work_dir.join("pool");
    let off = Tracer::new(false);

    // Simulated clock, each pass once: the rate ladder, then the reference rate.
    rate_ladder(
        ctx,
        s.capacity_rps,
        P99_LIMIT_SAMPLES * s.slowest_sample_ms,
        |ctx, load| {
            let arrivals = at_rate(load, LADDER_REQUESTS);
            let (report, _) =
                route_all(&off, pool(&off, &s, LADDER_REQUESTS, &pool_dir), &arrivals);
            check_report(ctx, &report, LADDER_REQUESTS, "ladder");
            let latencies = report.completed.iter().map(|c| c.1).collect(); // sorted by id = arrival order
            (
                latencies,
                not_served(&report) as f64 / LADDER_REQUESTS as f64,
            )
        },
    );

    let (report, _) = route_all(
        &off,
        pool(&off, &s, SIM_REQUESTS, &pool_dir),
        &at_rate(REFERENCE_LOAD, SIM_REQUESTS),
    );
    check_report(ctx, &report, SIM_REQUESTS, "reference rate");
    ctx.ops(SIM_REQUESTS as u64, report.failed.len() as u64);
    println!(
        "offered {SIM_REQUESTS}: completed {} shed {} expired {} failed {} rerouted {} deaths {}",
        report.completed.len(),
        report.shed.len(),
        report.expired.len(),
        report.failed.len(),
        report.rerouted,
        report.replica_deaths
    );
    let lat: Vec<f64> = report.completed.iter().map(|c| c.1).collect();
    ctx.set(
        "served_ratio",
        report.completed.len() as f64 / SIM_REQUESTS as f64,
    );
    ctx.set("sim_p50_ms", percentile(&lat, 0.5));
    ctx.set("sim_p99_ms", percentile(&lat, 0.99));
    let entry = zoo_entry(MODEL);
    let cells: Vec<SimCell> = s
        .survivors
        .iter()
        .map(|(platform, compiled)| SimCell::price(compiled, &s.model, &entry, platform))
        .collect();
    ctx.set("sim_speedup_vs_vendor", speedup_vs_vendor(&cells));

    // Host clock: route + codec, short reps at the reference rate.
    let arrivals = at_rate(REFERENCE_LOAD, REP_REQUESTS);
    let mut first_digest = None;
    ctx.measure(tracer, |ctx, tracer| {
        let replicas = pool(tracer, &s, REP_REQUESTS, &pool_dir);
        let (report, mut cost) = route_all(tracer, replicas, &arrivals);
        let (encode, decode, _) = codec_pass(tracer, REP_REQUESTS, &arrivals, true);
        cost.parts.extend([encode, decode]);
        let digest = report.digest();
        match first_digest {
            Some(first) => ctx.check(first == digest, "FleetReport::digest differs between reps"),
            None => {
                check_report(ctx, &report, REP_REQUESTS, "timed rep");
                first_digest = Some(digest);
            }
        }
        cost
    });

    if ctx.traced {
        ctx.set("models.build_ms", tracer.mean_ns("models.build") / 1e6);
        ctx.set("fleet.route_ns", tracer.mean_ns("fleet.route"));
        ctx.set("fleet.finish_ms", tracer.mean_ns("fleet.finish") / 1e6);
        ctx.set("fleet.rerouted", report.rerouted as f64);
        let busiest = report
            .replicas
            .iter()
            .map(|r| r.completed.len())
            .max()
            .unwrap_or(0);
        ctx.set(
            "fleet.replica_share_max",
            busiest as f64 / report.completed.len().max(1) as f64,
        );
        ctx.set("bench.generator_lag_ms", 0.0);
        stream_length_probe(
            ctx,
            tracer,
            &s,
            &at_rate(REFERENCE_LOAD, SIM_REQUESTS),
            &pool_dir,
        );
        replica_probes(ctx, tracer, &s);
        farm_probes(ctx, tracer, &arrivals);
        remote_probe(ctx, tracer, &arrivals);
    }
    let _ = std::fs::remove_dir_all(&pool_dir);
}

/// Host cost per request at two stream lengths; ideal ratio 1.0.
fn stream_length_probe(
    ctx: &mut Ctx,
    tracer: &Tracer,
    s: &Setup,
    arrivals: &[f64],
    dir: &std::path::Path,
) {
    let off = Tracer::new(false);
    let per_request = |n: usize, runs: usize| {
        // Fastest run, as for the end-to-end host metric.
        (0..runs)
            .map(|_| {
                route_all(&off, pool(&off, s, n, dir), &arrivals[..n])
                    .1
                    .us_per_op()
                    * 1e3
            })
            .fold(f64::INFINITY, f64::min)
    };
    tracer.span("fleet.stream_length_probe", || {
        let short = per_request(SHORT_REQUESTS, 3);
        let long = per_request(SIM_REQUESTS, 1);
        ctx.set("fleet.route_ns_short", short);
        ctx.set("fleet.route_scaling_ratio", long / short);
    });
}

/// One replica on its own, and warm replication of its artifact to a peer.
fn replica_probes(ctx: &mut Ctx, tracer: &Tracer, s: &Setup) {
    let dir = ctx.work_dir.join("replica-probe");
    let platform = Platform::deeplens();
    let engine = |sub: &str| {
        Engine::builder()
            .platform(platform.clone())
            .cache_dir(dir.join(sub))
            .build()
    };
    let donor = engine("donor").compile(&s.model);
    let mut replica = LocalReplica::new("probe", &donor, &s.specs[0].serve);
    let n = 10_000;
    // Spaced at the replica's own capacity so its queue stays short.
    let gap_ms = donor.estimate_batch_ms(1) / LANES as f64;
    tracer.span("fleet.replica_submit", || {
        let mut id = 0usize;
        ctx.set(
            "fleet.replica_submit_ns",
            mean_ns(n, || {
                replica
                    .submit(id, id as f64 * gap_ms)
                    .expect("a live local replica answers");
                id += 1;
            }),
        );
    });

    let start = Instant::now();
    let warm = tracer.span("fleet.replication", || {
        unigpu::fleet::replication::store_in_dir(&dir.join("peer"), &artifact_of(&donor));
        engine("peer").compile(&s.model)
    });
    ctx.set("fleet.replication_ms", start.elapsed().as_secs_f64() * 1e3);
    ctx.check(
        warm.from_cache(),
        "a replicated artifact did not make the peer's compile warm",
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The codec on its own: v2 encode/decode per frame, CRC32 throughput, frame
/// size, the v1 dialect, and a no-op `ChaosStream` against the bare stream.
fn farm_probes(ctx: &mut Ctx, tracer: &Tracer, arrivals: &[f64]) {
    let n = arrivals.len();
    let frames = 2.0 * n as f64;
    let (encode, decode, bytes) = codec_pass(tracer, n, arrivals, true);
    ctx.set("farm.encode_ns", encode * 1e9 / frames);
    ctx.set("farm.decode_ns", decode * 1e9 / frames);
    ctx.set("farm.frame_bytes", bytes as f64 / frames);
    let (encode_v1, decode_v1, _) = codec_pass(tracer, n, arrivals, false);
    ctx.set("farm.v1_frames_per_s", frames / (encode_v1 + decode_v1));

    tracer.span("farm.probes", || {
        let block = vec![0xa5u8; 1 << 20];
        let ns = mean_ns(50, || {
            std::hint::black_box(crc32(std::hint::black_box(&block)));
        });
        ctx.set("farm.crc32_mb_s", block.len() as f64 / 1e6 / (ns / 1e9));

        // Sends only: the chaos layer acts at frame-flush granularity.
        let send_all = |stream: &mut dyn FnMut(&FleetFrame)| {
            let start = Instant::now();
            for (id, &arrival_ms) in arrivals.iter().enumerate() {
                stream(&FleetFrame::Infer { id, arrival_ms });
            }
            start.elapsed().as_secs_f64()
        };
        let mut bare = Framed::new(Cursor::new(Vec::<u8>::new()));
        bare.upgrade();
        let bare_s = send_all(&mut |f| bare.send(f).expect("in-memory send"));
        let quiet = SharedNetFaults::new(NetFaultPlan::parse(""));
        let mut wrapped = Framed::new(ChaosStream::new(Cursor::new(Vec::<u8>::new()), quiet));
        wrapped.upgrade();
        let wrapped_s = send_all(&mut |f| wrapped.send(f).expect("in-memory send"));
        ctx.set("farm.chaos_passthrough_ratio", wrapped_s / bare_s);
        let same = wrapped.get_ref().get_ref().get_ref() == bare.get_ref().get_ref();
        ctx.check(same, "an empty NetFaultPlan changed the bytes on the wire");
    });
}

/// Round trip of one `Infer` through a `RemoteReplica` over loopback TCP
/// against `run_replica` on a second thread (the only two-thread section).
fn remote_probe(ctx: &mut Ctx, tracer: &Tracer, arrivals: &[f64]) {
    let dir = ctx.work_dir.join("remote-probe");
    let listener = match TcpListener::bind("127.0.0.1:0") {
        Ok(l) => l,
        Err(e) => {
            println!("fleet.remote_rtt_us not measured: cannot bind loopback ({e})");
            return;
        }
    };
    let addr = listener
        .local_addr()
        .expect("a bound listener has an address")
        .to_string();
    let cfg = ReplicaConfig {
        name: "remote".into(),
        platform: Platform::deeplens(),
        serve: specs(REP_REQUESTS)[0].serve.clone(),
        cache_dir: Some(dir.clone()),
        die_on_submit: None,
        net_faults: NetFaultPlan::parse(""),
        max_resumes: 0,
    };
    let n = 2_000;
    let outcome = std::thread::scope(|scope| {
        let server = scope.spawn(|| run_replica(&listener, &cfg));
        let rtt = tracer.span("fleet.remote_session", || -> std::io::Result<f64> {
            let mut link = RemoteReplica::connect_with(&addr, NetFaultPlan::parse(""))?;
            link.load(MODEL)?;
            let start = Instant::now();
            for (id, &at) in arrivals[..n].iter().enumerate() {
                link.submit(id, at)?;
            }
            let rtt_us = start.elapsed().as_secs_f64() * 1e6 / n as f64;
            link.finish()?;
            Ok(rtt_us)
        });
        let served = server.join().expect("the replica thread does not panic");
        rtt.and_then(|rtt| served.map(|()| rtt))
    });
    match outcome {
        Ok(rtt_us) => ctx.set("fleet.remote_rtt_us", rtt_us),
        Err(e) => ctx.check(false, format!("remote replica session failed: {e}")),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
