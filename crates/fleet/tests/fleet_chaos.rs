//! Fleet chaos: replica kills, breaker trips, and burn-based shedding
//! against the fleet-wide accounting invariant.
//!
//! The fleet analog of the engine's fault-tolerance suite: a
//! heterogeneous pool (DeepLens + aiSage + Jetson Nano) takes an
//! overload-ish request stream while one replica's device faults trip its
//! circuit breaker and another replica is hard-killed mid-traffic. The
//! invariant under all of it: `offered == completed + shed + expired +
//! failed` fleet-wide, every id in exactly one bucket, and two identical
//! zero-noise runs replay bit for bit.

use std::net::TcpListener;
use std::path::PathBuf;
use std::thread;

use unigpu_device::{DeviceFaultPlan, NetFaultPlan, Platform};
use unigpu_engine::ServeConfig;
use unigpu_fleet::{
    build_pool, warm_remote_pool, FleetReport, ReplicaConfig, ReplicaLink, ReplicaSpec,
    RemoteReplica, RoutePolicy, Router, RouterConfig,
};
use unigpu_models::full_zoo;

fn zoo_graph(name: &str) -> unigpu_graph::Graph {
    let entry = full_zoo()
        .into_iter()
        .find(|e| e.name == name)
        .expect("model in zoo");
    (entry.build)(false)
}

fn temp_root(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("unigpu-fleet-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// One zero-noise chaos run: aiSage's device fails its first launches
/// (tripping the breaker), the Nano replica is hard-killed on its 20th
/// submit, and arrivals outpace the pool.
fn chaos_run(tag: &str) -> FleetReport {
    let model = zoo_graph("SqueezeNet1.0");
    let base = ServeConfig::builder()
        .concurrency(1)
        .max_batch(4)
        .queue_cap(16)
        .deadline_ms(2000.0)
        .breaker_threshold(3)
        .breaker_cooldown_ms(200.0)
        .build()
        .expect("valid serve config");
    let faulty = ServeConfig::builder()
        .concurrency(1)
        .max_batch(4)
        .queue_cap(16)
        .deadline_ms(2000.0)
        .breaker_threshold(3)
        .breaker_cooldown_ms(200.0)
        .faults(DeviceFaultPlan::parse("kernel_fail_first=4"))
        .build()
        .expect("valid serve config");
    let specs = vec![
        ReplicaSpec::new("intel", Platform::deeplens(), base.clone()),
        ReplicaSpec::new("mali", Platform::aisage(), faulty),
        ReplicaSpec::new("nano", Platform::jetson_nano(), base).die_on_submit(24),
    ];
    let root = temp_root(tag);
    let pool = build_pool(&model, &specs, &root);
    let min_pred = pool
        .iter()
        .map(|r| r.predicted_ms())
        .fold(f64::INFINITY, f64::min);
    let interval = min_pred * 0.2; // far denser than the pool can drain
    let mut router = Router::new(
        // burn shedding stays unit-tested; the chaos plan disables it so
        // the deterministic kill always lands on its 24th submit
        RouterConfig {
            burn_shed_threshold: f64::INFINITY,
            ..RouterConfig::default()
        },
        pool.into_iter()
            .map(|r| Box::new(r) as Box<dyn ReplicaLink>)
            .collect(),
    );
    for id in 0..160 {
        router.route(id, id as f64 * interval);
    }
    let report = router.finish();
    let _ = std::fs::remove_dir_all(&root);
    report
}

#[test]
fn chaos_loses_nothing_and_replays_bit_for_bit() {
    let report = chaos_run("a");

    // the invariant: every offered request in exactly one bucket
    assert_eq!(report.offered, 160);
    assert_eq!(report.lost(), 0, "fleet lost requests: {report:?}");
    let mut ids: Vec<usize> = report
        .completed
        .iter()
        .map(|&(id, _)| id)
        .chain(report.shed.iter().copied())
        .chain(report.expired.iter().copied())
        .chain(report.failed.iter().copied())
        .collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..160).collect::<Vec<_>>(), "each id exactly once");

    // the Nano kill was observed and its backlog failed over
    assert_eq!(report.replica_deaths, 1);
    assert!(report.replicas[2].dead, "nano report is a recovered corpse");
    assert!(report.rerouted > 0, "the killed backlog must re-route");

    // the faulted aiSage replica tripped its breaker...
    assert!(
        report.replicas[1].breaker_trips >= 1,
        "kernel_fail_first must trip the breaker: {:?}",
        report.replicas[1]
    );
    // ...and while the router saw it open, it admitted nothing before the
    // half-open probe instant
    for d in &report.decisions {
        if d.replica == 1 && d.breaker == 1.0 {
            let until = d
                .breaker_open_until_ms
                .expect("an open breaker always advertises its probe instant");
            assert!(
                d.arrival_ms >= until,
                "id {} admitted to an open replica at {} (< {})",
                d.id,
                d.arrival_ms,
                until
            );
        }
    }

    // zero-noise determinism: an identical run replays bit for bit
    let replay = chaos_run("b");
    assert_eq!(report.digest(), replay.digest());
    assert_eq!(report.decisions, replay.decisions);
}

/// The acceptance bet of the router design: on a skewed device pool,
/// power-of-two-choices weighted by predicted cost beats round-robin on
/// p99 latency, because round-robin keeps feeding the slowest device a
/// full third of the traffic.
#[test]
fn pow2_beats_round_robin_p99_on_a_skewed_pool() {
    let model = zoo_graph("SqueezeNet1.0");
    let serve = ServeConfig::builder()
        .concurrency(1)
        .max_batch(1)
        .build()
        .expect("valid serve config");

    let run = |policy: RoutePolicy, tag: &str| -> FleetReport {
        let specs = vec![
            ReplicaSpec::new("intel", Platform::deeplens(), serve.clone()),
            ReplicaSpec::new("mali", Platform::aisage(), serve.clone()),
            ReplicaSpec::new("nano", Platform::jetson_nano(), serve.clone()),
        ];
        let root = temp_root(tag);
        let pool = build_pool(&model, &specs, &root);
        // offer at 90% of aggregate capacity: sustainable if and only if
        // load lands in proportion to device speed
        let rate: f64 = pool.iter().map(|r| 1.0 / r.predicted_ms()).sum();
        let interval = 1.0 / (0.9 * rate);
        let mut router = Router::new(
            RouterConfig { policy, ..RouterConfig::default() },
            pool.into_iter()
                .map(|r| Box::new(r) as Box<dyn ReplicaLink>)
                .collect(),
        );
        for id in 0..300 {
            router.route(id, id as f64 * interval);
        }
        let report = router.finish();
        let _ = std::fs::remove_dir_all(&root);
        report
    };

    let pow2 = run(RoutePolicy::PowerOfTwo, "pow2");
    let rr = run(RoutePolicy::RoundRobin, "rr");
    assert_eq!(pow2.lost(), 0);
    assert_eq!(rr.lost(), 0);
    assert_eq!(pow2.completed.len(), 300);
    assert_eq!(rr.completed.len(), 300);
    assert!(
        pow2.p99_latency_ms() < rr.p99_latency_ms(),
        "pow2 p99 {} must beat round-robin p99 {}",
        pow2.p99_latency_ms(),
        rr.p99_latency_ms()
    );
}

/// The full TCP path: two replica processes (threads here) behind the
/// framing protocol, warm replication over `FetchArtifact`/`PushArtifact`
/// frames, traffic, clean shutdown — no request lost.
#[test]
fn tcp_loopback_fleet_serves_and_replicates_warm() {
    let serve = ServeConfig::builder()
        .concurrency(1)
        .max_batch(2)
        .build()
        .expect("valid serve config");
    let mut addrs = Vec::new();
    let mut handles = Vec::new();
    let mut roots = Vec::new();
    for i in 0..2 {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        addrs.push(listener.local_addr().expect("local addr").to_string());
        let root = temp_root(&format!("tcp-r{i}"));
        roots.push(root.clone());
        let cfg = ReplicaConfig {
            name: format!("r{i}"),
            platform: Platform::deeplens(),
            serve: serve.clone(),
            cache_dir: Some(root),
            die_on_submit: None,
            net_faults: Default::default(),
            max_resumes: 0,
        };
        handles.push(thread::spawn(move || {
            unigpu_fleet::run_replica(&listener, &cfg)
        }));
    }

    let mut replicas: Vec<RemoteReplica> = addrs
        .iter()
        .map(|a| RemoteReplica::connect_with(a, NetFaultPlan::default()).expect("connect"))
        .collect();
    assert_eq!(replicas[0].device(), "Intel HD Graphics 505");
    let warm = warm_remote_pool(&mut replicas, "SqueezeNet1.0").expect("warm pool");
    assert_eq!(warm, vec![false, true], "peer must ride the pushed artifact");

    let mut router = Router::new(
        RouterConfig::default(),
        replicas
            .into_iter()
            .map(|r| Box::new(r) as Box<dyn ReplicaLink>)
            .collect(),
    );
    for id in 0..24 {
        assert!(router.route(id, id as f64 * 2.0));
    }
    let report = router.finish();
    assert_eq!(report.lost(), 0);
    assert_eq!(report.completed.len(), 24);
    assert_eq!(report.offered, 24);
    assert!(report.replicas[1].warm_start);

    for h in handles {
        h.join().expect("replica thread").expect("replica exits cleanly");
    }
    for root in roots {
        let _ = std::fs::remove_dir_all(&root);
    }
}
