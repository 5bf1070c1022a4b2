//! Byte-for-byte safety net under the fleet's wire path: the raw bytes of a
//! pinned router⇄replica exchange through `Framed`, `FleetReport::digest` of
//! an in-process and a TCP fleet run (quiet wire and under a
//! wire-fault plan), and everything a `Router::with_telemetry` run
//! with one replica death leaves in its span recorder and metrics registry
//! must equal the files under `tests/golden/`, captured before the codec got
//! typed frame writers and the router stopped formatting per request.
//!
//! On a mismatch the actual bytes are written under the system temp
//! directory (the failure message names the file), so an intended change is
//! re-captured by copying them over the goldens.

use std::io::Cursor;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::thread;

use unigpu_device::{NetFaultPlan, Platform, Vendor};
use unigpu_engine::{Engine, ServeConfig};
use unigpu_farm::Framed;
use unigpu_fleet::{
    build_pool, run_replica, FleetFrame, FleetReport, RemoteReplica, ReplicaConfig,
    ReplicaHealth, ReplicaLink, ReplicaReport, ReplicaSpec, RoutePolicy, Router, RouterConfig,
};
use unigpu_models::full_zoo;
use unigpu_telemetry::{MetricsRegistry, SpanRecorder};

const MODEL: &str = "SqueezeNet1.0";

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn actual_dir() -> PathBuf {
    std::env::temp_dir().join("unigpu-wire-golden-actual")
}

fn temp_root(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("unigpu-wire-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Comparisons of one test against `tests/golden/`; every mismatch is
/// collected (and its actual bytes written out) before the test fails.
#[derive(Default)]
struct Goldens {
    mismatched: Vec<String>,
}

impl Goldens {
    fn check(&mut self, name: &str, actual: &[u8]) {
        let expected = std::fs::read(golden_dir().join(name)).unwrap_or_default();
        if expected != actual {
            std::fs::create_dir_all(actual_dir())
                .and_then(|_| std::fs::write(actual_dir().join(name), actual))
                .expect("write the actual bytes");
            self.mismatched.push(name.to_string());
        }
    }

    fn finish(self) {
        assert!(
            self.mismatched.is_empty(),
            "{:?} differ from their goldens; actual bytes under {}",
            self.mismatched,
            actual_dir().display()
        );
    }
}

fn zoo_graph(arm: bool) -> unigpu_graph::Graph {
    let entry = full_zoo()
        .into_iter()
        .find(|e| e.name == MODEL)
        .expect("model in zoo");
    (entry.build)(arm)
}

fn serve_cfg() -> ServeConfig {
    ServeConfig::builder()
        .concurrency(1)
        .max_batch(4)
        .queue_cap(16)
        .deadline_ms(2000.0)
        .build()
        .expect("valid serve config")
}

/// The pinned conversation, in wire order. The codec upgrades to v2 after
/// the `HelloAck` (frame 1), as both peers do.
fn exchange() -> Vec<FleetFrame> {
    let mut frames = vec![
        FleetFrame::Hello { framing: Some(2), session: Some("unigpu-router-golden".into()) },
        FleetFrame::HelloAck {
            name: "r0".into(),
            device: "Intel HD Graphics 505".into(),
            framing: Some(2),
            resumed: false,
        },
        FleetFrame::Load { model: MODEL.into() },
        FleetFrame::LoadAck { warm: true, predicted_ms: 17.062_5 },
    ];
    let health = |queue_depth, inflight, breaker, until, burn_rate| ReplicaHealth {
        queue_depth,
        inflight,
        breaker,
        breaker_open_until_ms: until,
        burn_rate,
    };
    let pairs = [
        (0, 0.0, true, health(0, 0, 0.0, None, 0.0)),
        (41, 82.0, true, health(3, 2, 0.0, None, 0.25)),
        (42, 0.1 + 0.2, false, health(16, 1, 1.0, Some(250.0), 4.5)),
        (usize::MAX, 123_456.789, true, health(usize::MAX, 7, 2.0, Some(0.1 + 0.2), 1e-7)),
        (7, 5e-324, false, health(1, 0, 1.0, Some(1e300), 26.000_000_000_000_004)),
        (8, 999_999_999_999_999.9, true, health(2, 1, 0.0, None, 1.0 / 3.0)),
    ];
    for (id, arrival_ms, admitted, health) in pairs {
        frames.push(FleetFrame::Infer { id, arrival_ms });
        frames.push(FleetFrame::InferAck { admitted, health });
    }
    frames.push(FleetFrame::Finish);
    frames.push(FleetFrame::Report(Box::new(ReplicaReport {
        name: "r0".into(),
        device: "Intel HD Graphics 505".into(),
        offered: 6,
        completed: vec![(0, 17.0625), (41, 34.125), (8, 0.1 + 0.2)],
        shed: vec![42, 7],
        expired: vec![usize::MAX],
        failed: vec![],
        batches: 3,
        makespan_ms: 116.125,
        degraded_batches: 0,
        breaker_trips: 1,
        breaker_recoveries: 0,
        digest: 0xdead_beef_cafe_f00d,
        warm_start: true,
        dead: false,
    })));
    frames
}

#[test]
fn the_pinned_exchange_is_the_golden_bytes_and_reads_back() {
    let frames = exchange();
    let mut framed = Framed::new(Cursor::new(Vec::<u8>::new()));
    let mut hex = String::new();
    for (i, frame) in frames.iter().enumerate() {
        let from = framed.get_ref().get_ref().len();
        framed.send(frame).expect("in-memory send");
        for b in &framed.get_ref().get_ref()[from..] {
            hex.push_str(&format!("{b:02x}"));
        }
        hex.push('\n');
        if i == 1 {
            framed.upgrade();
        }
    }
    let mut goldens = Goldens::default();
    goldens.check("exchange.hex", hex.as_bytes());
    goldens.finish();

    // and a fresh receiver reads the same conversation back off those bytes
    let wire = framed.get_ref().get_ref().clone();
    let mut rx = Framed::new(Cursor::new(wire));
    for (i, frame) in frames.iter().enumerate() {
        assert_eq!(&rx.recv::<FleetFrame>().expect("in-memory recv"), frame, "frame {i}");
        if i == 1 {
            rx.upgrade();
        }
    }
    assert_eq!(rx.dup_frames_skipped(), 0);
}

/// Four `LocalReplica`s behind a pow2 router, `r1` killed on its 12th
/// submit, arrivals denser than the pool drains.
fn local_run(spans: SpanRecorder, metrics: MetricsRegistry) -> FleetReport {
    let specs = vec![
        ReplicaSpec::new("r0", Platform::deeplens(), serve_cfg()),
        ReplicaSpec::new("r1", Platform::deeplens(), serve_cfg()).die_on_submit(12),
        ReplicaSpec::new("r2", Platform::aisage(), serve_cfg()),
        ReplicaSpec::new("r3", Platform::jetson_nano(), serve_cfg()),
    ];
    let root = temp_root("local");
    let pool = build_pool(&zoo_graph(false), &specs, &root);
    let interval = pool.iter().map(|r| r.predicted_ms()).fold(f64::INFINITY, f64::min) * 0.3;
    let mut router = Router::with_telemetry(
        RouterConfig::default(),
        pool.into_iter().map(|r| Box::new(r) as Box<dyn ReplicaLink>).collect(),
        spans,
        metrics,
    );
    for id in 0..96 {
        router.route(id, id as f64 * interval);
    }
    let report = router.finish();
    let _ = std::fs::remove_dir_all(&root);
    report
}

#[test]
fn a_telemetry_run_with_one_death_leaves_the_golden_spans_and_metrics() {
    let spans = SpanRecorder::new();
    let metrics = MetricsRegistry::new();
    let report = local_run(spans.clone(), metrics.clone());
    assert_eq!(report.offered, 96);
    assert_eq!(report.lost(), 0);
    assert_eq!(report.replica_deaths, 1);
    assert!(report.rerouted > 0, "the killed backlog must re-route");
    assert!(!report.shed.is_empty(), "the run must exercise fleet and replica shedding");

    let mut goldens = Goldens::default();
    goldens.check("local.digest", format!("{:016x}\n", report.digest()).as_bytes());
    let mut text = String::new();
    for span in spans.spans() {
        text.push_str(&format!("{span:?}\n"));
    }
    goldens.check("local_spans.txt", text.as_bytes());
    let snap = metrics.snapshot();
    let mut text = String::new();
    for (name, v) in &snap.counters {
        text.push_str(&format!("counter {name} {v}\n"));
    }
    for (name, v) in &snap.gauges {
        text.push_str(&format!("gauge {name} {v:?}\n"));
    }
    assert!(snap.histograms.is_empty(), "the router observes no histogram");
    goldens.check("local_metrics.txt", text.as_bytes());
    goldens.finish();
}

/// Two replicas over loopback TCP, the second hard-killed on its 6th submit,
/// with `replica_net` injected on the replicas' side of the wire and
/// `router_net` on the router's (content-independent faults only there: the
/// router's frames carry the ephemeral port in their session token).
fn tcp_run(caches: &[PathBuf; 2], replica_net: NetFaultPlan, router_net: NetFaultPlan) -> FleetReport {
    let specs = [("intel", Platform::deeplens(), None), ("nano", Platform::jetson_nano(), Some(6))];
    let procs: Vec<(String, thread::JoinHandle<std::io::Result<()>>)> = specs
        .iter()
        .zip(caches)
        .map(|((name, platform, die), cache)| {
            let cfg = ReplicaConfig {
                name: (*name).into(),
                platform: platform.clone(),
                serve: serve_cfg(),
                cache_dir: Some(cache.clone()),
                die_on_submit: *die,
                net_faults: replica_net,
                max_resumes: 64,
            };
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
            let addr = listener.local_addr().expect("local addr").to_string();
            (addr, thread::spawn(move || run_replica(&listener, &cfg)))
        })
        .collect();
    let links: Vec<Box<dyn ReplicaLink>> = procs
        .iter()
        .map(|(addr, _)| {
            let mut link = RemoteReplica::connect_with(addr, router_net).expect("connect");
            let (warm, _) = link.load(MODEL).expect("load");
            assert!(warm, "primed caches must make every load a warm start");
            Box::new(link) as Box<dyn ReplicaLink>
        })
        .collect();
    // round-robin keeps the doomed nano in rotation, so its kill lands on
    // the same id in every run; burn shedding must not race it
    let cfg = RouterConfig {
        policy: RoutePolicy::RoundRobin,
        burn_shed_threshold: f64::INFINITY,
        ..RouterConfig::default()
    };
    let mut router = Router::new(cfg, links);
    for id in 0..40 {
        router.route(id, id as f64 * 2.0);
    }
    let report = router.finish();
    for (i, (_, handle)) in procs.into_iter().enumerate() {
        let exit = handle.join().expect("replica thread");
        assert_eq!(exit.is_err(), i == 1, "only the killed replica exits with an error");
    }
    report
}

#[test]
fn tcp_digests_quiet_and_under_net_faults_match_the_goldens() {
    let caches = [temp_root("tcp-0"), temp_root("tcp-1")];
    for (cache, platform) in caches.iter().zip([Platform::deeplens(), Platform::jetson_nano()]) {
        let graph = zoo_graph(platform.gpu.vendor == Vendor::Arm);
        let _ = Engine::builder().platform(platform).cache_dir(cache).build().compile(&graph);
    }
    let quiet = tcp_run(&caches, NetFaultPlan::default(), NetFaultPlan::default());
    let chaos = tcp_run(
        &caches,
        NetFaultPlan::parse("corrupt_byte_nth=9,truncate_frame_nth=13"),
        NetFaultPlan::parse("drop_conn_nth=11,dup_frame_nth=7"),
    );
    for report in [&quiet, &chaos] {
        assert_eq!(report.offered, 40);
        assert_eq!(report.lost(), 0);
        assert_eq!(report.duplicate_completions(), 0);
        assert_eq!(report.replica_deaths, 1);
    }
    assert!(!quiet.net.any());
    assert!(chaos.net.checksum_errors > 0 && chaos.net.reconnects > 0, "net: {:?}", chaos.net);

    let mut goldens = Goldens::default();
    goldens.check("tcp_quiet.digest", format!("{:016x}\n", quiet.digest()).as_bytes());
    goldens.check("tcp_net_faults.digest", format!("{:016x}\n", chaos.digest()).as_bytes());
    goldens.check("tcp_net_faults.net", format!("{:?}\n", chaos.net).as_bytes());
    goldens.finish();
    for cache in caches {
        let _ = std::fs::remove_dir_all(&cache);
    }
}
