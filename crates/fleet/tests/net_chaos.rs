//! Network chaos against the fleet's exactly-once guarantee.
//!
//! The wire between router and replicas drops connections, corrupts and
//! truncates frames, and duplicates others — composed with device faults
//! and a hard replica kill — and the accounting must still balance
//! (`offered == completed + shed + expired + failed`), no request id may
//! complete twice, and the outcome digest must be *identical* to a run
//! with a quiet wire: chaos may shake the transport, never the result.
//!
//! Fault placement is deliberate: the router side only drops and
//! duplicates (content-independent faults), the replica side only
//! corrupts and truncates (its frames carry no ephemeral addresses), so
//! two runs on different loopback ports stay bit-for-bit comparable.

use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::thread;

use unigpu_device::{DeviceFaultPlan, NetFaultPlan, Platform, Vendor};
use unigpu_engine::{Engine, ServeConfig};
use unigpu_farm::{Framed, FRAMING_VERSION};
use unigpu_fleet::proto::{read_frame, write_frame};
use unigpu_fleet::{
    run_replica, FleetFrame, FleetReport, RemoteReplica, ReplicaConfig,
    ReplicaLink, RoutePolicy, Router, RouterConfig,
};
use unigpu_models::full_zoo;

const MODEL: &str = "SqueezeNet1.0";

fn temp_root(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("unigpu-net-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Compile `MODEL` for `platform` into `cache_dir`, so every replica
/// `Load` in the test proper is a warm start — keeping `warm_start` (part
/// of the digest) identical across runs.
fn prime_cache(platform: &Platform, cache_dir: &PathBuf) {
    let entry = full_zoo()
        .into_iter()
        .find(|e| e.name == MODEL)
        .expect("model in zoo");
    let graph = (entry.build)(platform.gpu.vendor == Vendor::Arm);
    let _ = Engine::builder()
        .platform(platform.clone())
        .cache_dir(cache_dir)
        .build()
        .compile(&graph);
}

fn base_serve() -> ServeConfig {
    ServeConfig::builder()
        .concurrency(1)
        .max_batch(4)
        .queue_cap(16)
        .deadline_ms(2000.0)
        .breaker_threshold(3)
        .breaker_cooldown_ms(200.0)
        .build()
        .expect("valid serve config")
}

fn faulty_serve() -> ServeConfig {
    ServeConfig::builder()
        .concurrency(1)
        .max_batch(4)
        .queue_cap(16)
        .deadline_ms(2000.0)
        .breaker_threshold(3)
        .breaker_cooldown_ms(200.0)
        .faults(DeviceFaultPlan::parse("kernel_fail_first=4"))
        .build()
        .expect("valid serve config")
}

struct ReplicaProc {
    addr: String,
    handle: thread::JoinHandle<std::io::Result<()>>,
}

fn spawn_replica(cfg: ReplicaConfig) -> ReplicaProc {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let handle = thread::spawn(move || run_replica(&listener, &cfg));
    ReplicaProc { addr, handle }
}

/// One full fleet run over TCP: three heterogeneous replicas — one with
/// device faults tripping its breaker, one hard-killed on its 6th submit
/// — with `replica_net` injected on every replica's side of the wire and
/// `router_net` on every router link.
fn fleet_run(caches: &[PathBuf; 3], replica_net: NetFaultPlan, router_net: NetFaultPlan) -> FleetReport {
    let specs: [(&str, Platform, ServeConfig, Option<usize>); 3] = [
        ("intel", Platform::deeplens(), base_serve(), None),
        ("mali", Platform::aisage(), faulty_serve(), None),
        ("nano", Platform::jetson_nano(), base_serve(), Some(6)),
    ];
    let procs: Vec<ReplicaProc> = specs
        .iter()
        .enumerate()
        .map(|(i, (name, platform, serve, die))| {
            spawn_replica(ReplicaConfig {
                name: (*name).into(),
                platform: platform.clone(),
                serve: serve.clone(),
                cache_dir: Some(caches[i].clone()),
                die_on_submit: *die,
                net_faults: replica_net,
                max_resumes: 64,
            })
        })
        .collect();

    let mut links: Vec<RemoteReplica> = procs
        .iter()
        .map(|p| RemoteReplica::connect_with(&p.addr, router_net).expect("connect"))
        .collect();
    for link in &mut links {
        let (warm, _) = link.load(MODEL).expect("load");
        assert!(warm, "primed caches must make every load a warm start");
    }

    let mut router = Router::new(
        // round-robin keeps the doomed nano in rotation (pow2 would starve
        // the slowest device), so its 6th submit — the kill — lands early
        // and at the same id in every run; burn shedding stays disabled so
        // nothing races the deterministic death
        RouterConfig {
            policy: RoutePolicy::RoundRobin,
            burn_shed_threshold: f64::INFINITY,
            ..RouterConfig::default()
        },
        links
            .into_iter()
            .map(|r| Box::new(r) as Box<dyn ReplicaLink>)
            .collect(),
    );
    for id in 0..60 {
        router.route(id, id as f64);
    }
    let report = router.finish();

    for (i, p) in procs.into_iter().enumerate() {
        let exit = p.handle.join().expect("replica thread");
        if i == 2 {
            assert!(exit.is_err(), "the killed replica must exit with its injected death");
        } else {
            exit.expect("surviving replica exits cleanly");
        }
    }
    report
}

fn assert_balanced(report: &FleetReport, offered: usize) {
    assert_eq!(report.offered, offered);
    assert_eq!(report.lost(), 0, "fleet lost requests: {report:?}");
    assert_eq!(
        report.duplicate_completions(),
        0,
        "a request id completed twice: {:?}",
        report.completed
    );
    let mut ids: Vec<usize> = report
        .completed
        .iter()
        .map(|&(id, _)| id)
        .chain(report.shed.iter().copied())
        .chain(report.expired.iter().copied())
        .chain(report.failed.iter().copied())
        .collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..offered).collect::<Vec<_>>(), "each id exactly once");
}

#[test]
fn composed_wire_and_device_chaos_changes_nothing_but_the_transport_counters() {
    let caches = [temp_root("accept-0"), temp_root("accept-1"), temp_root("accept-2")];
    let platforms = [Platform::deeplens(), Platform::aisage(), Platform::jetson_nano()];
    for (cache, platform) in caches.iter().zip(&platforms) {
        prime_cache(platform, cache);
    }

    // content-independent faults on the router side, address-free frames
    // corrupted/truncated on the replica side (see module docs)
    let replica_net = NetFaultPlan::parse("corrupt_byte_nth=9,truncate_frame_nth=13");
    let router_net = NetFaultPlan::parse("drop_conn_nth=11,dup_frame_nth=7");

    let quiet = fleet_run(&caches, NetFaultPlan::default(), NetFaultPlan::default());
    let chaos_a = fleet_run(&caches, replica_net, router_net);
    let chaos_b = fleet_run(&caches, replica_net, router_net);

    for report in [&quiet, &chaos_a, &chaos_b] {
        assert_balanced(report, 60);
        assert_eq!(report.replica_deaths, 1, "exactly the injected kill");
        assert!(report.replicas[2].dead, "the nano stub is a corpse");
        assert!(report.rerouted > 0, "the killed backlog must re-route");
    }

    // the wire actually hurt, and the recovery machinery actually ran
    assert!(!quiet.net.any(), "a quiet wire leaves every net counter at zero");
    assert!(chaos_a.net.conns_dropped > 0, "net: {:?}", chaos_a.net);
    assert!(chaos_a.net.frames_duplicated > 0, "net: {:?}", chaos_a.net);
    assert!(chaos_a.net.checksum_errors > 0, "net: {:?}", chaos_a.net);
    assert!(chaos_a.net.reconnects > 0, "net: {:?}", chaos_a.net);
    assert!(chaos_a.net.resumes > 0, "net: {:?}", chaos_a.net);
    assert!(chaos_a.net.replayed_frames > 0, "net: {:?}", chaos_a.net);
    assert!(chaos_a.net.backoff_ms > 0, "net: {:?}", chaos_a.net);

    // the heart of the guarantee: wire chaos is invisible in outcomes —
    // the chaos digest equals the quiet digest, and two identical chaos
    // runs agree with each other
    assert_eq!(quiet.digest(), chaos_a.digest(), "chaos changed an outcome");
    assert_eq!(chaos_a.digest(), chaos_b.digest(), "chaos replay diverged");
    assert_eq!(quiet.decisions, chaos_a.decisions);
    assert_eq!(chaos_a.decisions, chaos_b.decisions);
    assert_eq!(chaos_a.net, chaos_b.net, "even the injected noise replays");

    for cache in caches {
        let _ = std::fs::remove_dir_all(&cache);
    }
}

#[test]
fn a_truncated_final_report_is_redelivered_on_resume() {
    let cache = temp_root("report-resend");
    prime_cache(&Platform::deeplens(), &cache);
    // replica outgoing frames: HelloAck(1) LoadAck(2) InferAck(3..=6)
    // Report(7) — the truncation lands exactly on the final report
    let proc = spawn_replica(ReplicaConfig {
        name: "r0".into(),
        platform: Platform::deeplens(),
        serve: base_serve(),
        cache_dir: Some(cache.clone()),
        die_on_submit: None,
        net_faults: NetFaultPlan::parse("truncate_frame_nth=7"),
        max_resumes: 4,
    });
    let mut link = RemoteReplica::connect_with(&proc.addr, NetFaultPlan::default()).unwrap();
    link.load(MODEL).expect("load");
    for id in 0..4 {
        let (admitted, _) = link.submit(id, id as f64).expect("submit");
        assert!(admitted);
    }
    let report = link.finish().expect("the report survives its truncation");
    assert_eq!(report.completed.len(), 4);
    let net = link.net_stats();
    assert!(net.reconnects >= 1, "net: {net:?}");
    assert!(net.resumes >= 1, "net: {net:?}");
    assert!(net.replayed_frames >= 1, "net: {net:?}");
    drop(link);
    proc.handle.join().expect("replica thread").expect("clean exit after redelivery");
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn a_replayed_infer_id_is_answered_from_the_dedup_window_across_connections() {
    let cache = temp_root("dedup-resume");
    prime_cache(&Platform::deeplens(), &cache);
    let proc = spawn_replica(ReplicaConfig {
        name: "r0".into(),
        platform: Platform::deeplens(),
        serve: base_serve(),
        cache_dir: Some(cache.clone()),
        die_on_submit: None,
        net_faults: NetFaultPlan::default(),
        max_resumes: 2,
    });

    // hand-rolled router: first connection establishes the session and
    // submits id 0...
    let token = Some("manual-session".to_string());
    let mut conn = Framed::new(TcpStream::connect(&proc.addr).unwrap());
    conn.send(&FleetFrame::Hello { framing: Some(FRAMING_VERSION), session: token.clone() })
        .unwrap();
    match conn.recv::<FleetFrame>().unwrap() {
        FleetFrame::HelloAck { framing, resumed, .. } => {
            assert_eq!(framing, Some(FRAMING_VERSION));
            assert!(!resumed, "a first hello cannot resume");
        }
        other => panic!("expected HelloAck, got {other:?}"),
    }
    conn.upgrade();
    conn.send(&FleetFrame::Load { model: MODEL.into() }).unwrap();
    assert!(matches!(conn.recv::<FleetFrame>().unwrap(), FleetFrame::LoadAck { .. }));
    conn.send(&FleetFrame::Infer { id: 0, arrival_ms: 0.0 }).unwrap();
    let first_admitted = match conn.recv::<FleetFrame>().unwrap() {
        FleetFrame::InferAck { admitted, .. } => admitted,
        other => panic!("expected InferAck, got {other:?}"),
    };
    assert!(first_admitted);
    // ...then the connection dies mid-work
    drop(conn);

    // the resumed connection replays id 0 — the replica must answer from
    // its dedup window, not double-submit
    let mut conn = Framed::new(TcpStream::connect(&proc.addr).unwrap());
    conn.send(&FleetFrame::Hello { framing: Some(FRAMING_VERSION), session: token }).unwrap();
    match conn.recv::<FleetFrame>().unwrap() {
        FleetFrame::HelloAck { framing, resumed, .. } => {
            assert_eq!(framing, Some(FRAMING_VERSION));
            assert!(resumed, "the session token must be recognised");
        }
        other => panic!("expected HelloAck, got {other:?}"),
    }
    conn.upgrade();
    conn.send(&FleetFrame::Infer { id: 0, arrival_ms: 0.0 }).unwrap();
    match conn.recv::<FleetFrame>().unwrap() {
        FleetFrame::InferAck { admitted, .. } => assert!(admitted, "cached ack replayed"),
        other => panic!("expected InferAck, got {other:?}"),
    }
    conn.send(&FleetFrame::Infer { id: 1, arrival_ms: 5.0 }).unwrap();
    assert!(matches!(conn.recv::<FleetFrame>().unwrap(), FleetFrame::InferAck { .. }));
    conn.send(&FleetFrame::Finish).unwrap();
    match conn.recv::<FleetFrame>().unwrap() {
        FleetFrame::Report(report) => {
            assert_eq!(report.offered, 2, "id 0 was offered three times but submitted once");
            let mut ids: Vec<usize> = report.completed.iter().map(|&(id, _)| id).collect();
            ids.sort_unstable();
            assert_eq!(ids, vec![0, 1], "each id completes exactly once");
        }
        other => panic!("expected Report, got {other:?}"),
    }
    drop(conn);
    proc.handle.join().expect("replica thread").expect("clean exit");
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn a_v1_peer_is_served_without_an_upgrade() {
    let cache = temp_root("v1-peer");
    prime_cache(&Platform::deeplens(), &cache);
    let proc = spawn_replica(ReplicaConfig {
        name: "r0".into(),
        platform: Platform::deeplens(),
        serve: base_serve(),
        cache_dir: Some(cache.clone()),
        die_on_submit: None,
        net_faults: NetFaultPlan::default(),
        max_resumes: 0,
    });

    // a legacy router: bare hello, plain length-prefixed frames throughout
    let mut conn = TcpStream::connect(&proc.addr).unwrap();
    write_frame(&mut conn, &FleetFrame::Hello { framing: None, session: None }).unwrap();
    match read_frame(&mut conn).unwrap() {
        FleetFrame::HelloAck { framing, resumed, .. } => {
            assert_eq!(framing, None, "a v1 peer must not be acked into v2");
            assert!(!resumed);
        }
        other => panic!("expected HelloAck, got {other:?}"),
    }
    write_frame(&mut conn, &FleetFrame::Load { model: MODEL.into() }).unwrap();
    assert!(matches!(read_frame(&mut conn).unwrap(), FleetFrame::LoadAck { .. }));
    write_frame(&mut conn, &FleetFrame::Infer { id: 0, arrival_ms: 0.0 }).unwrap();
    assert!(matches!(read_frame(&mut conn).unwrap(), FleetFrame::InferAck { .. }));
    write_frame(&mut conn, &FleetFrame::Finish).unwrap();
    match read_frame(&mut conn).unwrap() {
        FleetFrame::Report(report) => assert_eq!(report.completed.len(), 1),
        other => panic!("expected Report, got {other:?}"),
    }
    drop(conn);
    proc.handle.join().expect("replica thread").expect("clean exit");
    let _ = std::fs::remove_dir_all(&cache);
}
