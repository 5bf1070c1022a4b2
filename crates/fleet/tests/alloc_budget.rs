//! Allocation budget of the fleet's wire path, beside the engine's: once
//! warm, `Router::route` over four `LocalReplica`s makes at most
//! [`ROUTE_BUDGET`] heap allocations per request, and a `Framed` sending and
//! receiving `Infer`/`InferAck` makes none at all. Measured when written:
//! 1.12 per routed request — 1 is the `Shape` that `LocalReplica::submit`
//! clones into each `InferenceRequest`, which owns one; the rest is amortized
//! `Vec` growth (decision log, failover ledger, trace events, the servers'
//! own result lists).
//!
//! The count comes from a process-wide counting allocator, so this file
//! holds exactly one `#[test]`: a sibling test thread would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Cursor;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use unigpu_device::Platform;
use unigpu_engine::ServeConfig;
use unigpu_farm::Framed;
use unigpu_fleet::{
    build_pool, FleetFrame, ReplicaHealth, ReplicaLink, ReplicaSpec, Router, RouterConfig,
};
use unigpu_models::full_zoo;

/// Allocations per routed request, averaged over [`MEASURED`] routes.
const ROUTE_BUDGET: f64 = 2.0;
const WARM_UP: usize = 2_000;
const MEASURED: usize = 10_000;
const LANES: usize = 2;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's own layout and
// pointer, unchanged; the counter never influences what is allocated.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// SqueezeNet1.0 behind a pow2 router over 2 × DeepLens, aiSage and Jetson
/// Nano at 0.7 of their capacity (the benchmark's `fleet_wire` pool, nobody
/// dying): allocations per request over the routes after the warm-up.
fn routed_allocations_per_request() -> f64 {
    let entry = full_zoo().into_iter().find(|e| e.name == "SqueezeNet1.0").expect("model in zoo");
    let serve = ServeConfig::builder()
        .concurrency(LANES)
        .queue_cap(16)
        .trace_sample_every(0)
        .build()
        .expect("valid serve config");
    let specs: Vec<ReplicaSpec> = [
        Platform::deeplens(),
        Platform::deeplens(),
        Platform::aisage(),
        Platform::jetson_nano(),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, platform)| ReplicaSpec::new(format!("r{i}"), platform, serve.clone()))
    .collect();
    let root = std::env::temp_dir().join(format!("unigpu-fleet-alloc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let pool = build_pool(&(entry.build)(false), &specs, &root);
    let capacity_rps: f64 = pool.iter().map(|r| LANES as f64 * 1000.0 / r.predicted_ms()).sum();
    let gap_ms = 1000.0 / (0.7 * capacity_rps);
    let mut router = Router::new(
        RouterConfig::default(),
        pool.into_iter().map(|r| Box::new(r) as Box<dyn ReplicaLink>).collect(),
    );
    for id in 0..WARM_UP {
        router.route(id, id as f64 * gap_ms);
    }
    let before = ALLOCS.load(Relaxed);
    for id in WARM_UP..WARM_UP + MEASURED {
        router.route(id, id as f64 * gap_ms);
    }
    let allocs = ALLOCS.load(Relaxed) - before;
    let report = router.finish();
    let _ = std::fs::remove_dir_all(&root);
    assert_eq!(report.offered, WARM_UP + MEASURED);
    assert_eq!(report.lost(), 0);
    assert_eq!(report.completed.len(), WARM_UP + MEASURED, "0.7 of capacity is all served");
    allocs as f64 / MEASURED as f64
}

/// Allocations of [`MEASURED`] `Infer` + `InferAck` pairs sent through one
/// warm `Framed` v2 and received back through it. The stream is a buffer
/// sized beforehand: only the codec's own allocations are counted.
fn framed_allocations() -> u64 {
    let health = |id: usize| ReplicaHealth {
        queue_depth: id % 17,
        inflight: id % 3,
        breaker: (id % 3) as f64,
        breaker_open_until_ms: (id % 3 == 1).then_some(id as f64 + 0.25),
        burn_rate: id as f64 / 7.0,
    };
    let pair = |id: usize| {
        let arrival_ms = id as f64 * (0.1 + 0.2);
        (
            FleetFrame::Infer { id, arrival_ms },
            FleetFrame::InferAck { admitted: id % 5 != 0, health: health(id) },
        )
    };
    let mut framed = Framed::new(Cursor::new(Vec::<u8>::with_capacity((MEASURED + 2) * 400)));
    framed.upgrade();
    // warm both buffers with frames as long as the typed writer makes them
    let long = -1.234_567_890_123_456_7e-300;
    let infer = FleetFrame::Infer { id: usize::MAX, arrival_ms: long };
    let ack = FleetFrame::InferAck {
        admitted: false,
        health: ReplicaHealth {
            queue_depth: usize::MAX,
            inflight: usize::MAX,
            breaker: long,
            breaker_open_until_ms: Some(long),
            burn_rate: long,
        },
    };
    framed.send(&infer).expect("in-memory send");
    framed.send(&ack).expect("in-memory send");
    framed.get_mut().set_position(0);
    assert_eq!(framed.recv::<FleetFrame>().expect("in-memory recv"), infer);
    assert_eq!(framed.recv::<FleetFrame>().expect("in-memory recv"), ack);

    let before = ALLOCS.load(Relaxed);
    let start = framed.get_ref().position();
    for id in 1..=MEASURED {
        let (infer, ack) = pair(id);
        framed.send(&infer).expect("in-memory send");
        framed.send(&ack).expect("in-memory send");
    }
    framed.get_mut().set_position(start);
    let mut intact = true;
    for id in 1..=MEASURED {
        let (infer, ack) = pair(id);
        intact &= framed.recv::<FleetFrame>().expect("in-memory recv") == infer;
        intact &= framed.recv::<FleetFrame>().expect("in-memory recv") == ack;
    }
    let allocs = ALLOCS.load(Relaxed) - before;
    assert!(intact, "frames changed across the codec");
    allocs
}

#[test]
fn warm_routes_and_hot_frames_stay_within_the_allocation_budget() {
    let per_request = routed_allocations_per_request();
    assert!(
        per_request <= ROUTE_BUDGET,
        "routing: {per_request:.3} allocations/request, budget {ROUTE_BUDGET}"
    );

    let framed = framed_allocations();
    assert_eq!(framed, 0, "a warm Framed allocated sending and receiving Infer/InferAck");
}
