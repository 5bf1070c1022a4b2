//! Invariants of the compiled plan, on every zoo model at its table size ×
//! platform × placement policy:
//!
//! * the steps' ms, summed in node order, are `estimate().total_ms` bit for
//!   bit, and each step lands in exactly one of the GPU, CPU and transfer
//!   totals, which its own subset sums to bit for bit;
//! * the steps carry the placement's devices and the shapes a fresh
//!   `infer_shapes()` finds;
//! * a cold compile (priced while building its artifact) and a warm one
//!   (priced on first use from the cached records) price the same bits, on
//!   fallback schedules and tuned ones.

use unigpu_device::Platform;
use unigpu_engine::{CompiledModel, Engine};
use unigpu_graph::{Device, Graph, OpKind, PlacementPolicy};

const POLICIES: [PlacementPolicy; 3] = [
    PlacementPolicy::AllGpu,
    PlacementPolicy::FallbackVision,
    PlacementPolicy::AllCpu,
];

/// Every priced bit of a compiled model's plan.
fn priced_bits(m: &CompiledModel) -> Vec<u64> {
    let r = m.estimate();
    let totals = [r.total_ms, r.gpu_ms, r.cpu_ms, r.transfer_ms];
    let steps = m.plan().steps().map(|(_, ms, _)| ms);
    totals.into_iter().chain(steps).map(f64::to_bits).collect()
}

fn check_plan(what: &str, m: &CompiledModel) {
    let graph = &m.placement().graph;
    let r = m.estimate();
    let (mut total, mut gpu, mut cpu, mut transfer) = (0.0, 0.0, 0.0, 0.0);
    let mut shapes = Vec::new();
    for (id, (device, ms, shape)) in m.plan().steps().enumerate() {
        assert_eq!(device, m.placement().device[id], "{what}: node {id}'s device");
        total += ms;
        match (&graph.nodes[id].op, device) {
            (OpKind::DeviceCopy, _) => transfer += ms,
            (_, Device::Gpu) => gpu += ms,
            (_, Device::Cpu) => cpu += ms,
        }
        shapes.push(shape.clone());
    }
    assert_eq!(total.to_bits(), r.total_ms.to_bits(), "{what}: steps sum to the total");
    assert_eq!(gpu.to_bits(), r.gpu_ms.to_bits(), "{what}: GPU steps");
    assert_eq!(cpu.to_bits(), r.cpu_ms.to_bits(), "{what}: CPU steps");
    assert_eq!(transfer.to_bits(), r.transfer_ms.to_bits(), "{what}: transfer steps");
    let parts = r.gpu_ms + r.cpu_ms + r.transfer_ms;
    assert!((parts - r.total_ms).abs() <= 1e-9 * r.total_ms, "{what}: partition");
    assert_eq!(shapes, graph.infer_shapes(), "{what}: the plan's shapes");
}

fn cold_and_warm(model: &Graph, platform: &Platform, policy: PlacementPolicy, tuned: bool) {
    let mut builder = Engine::builder()
        .platform(platform.clone())
        .policy(policy)
        .persist(false);
    if tuned {
        builder = builder.tuned(4);
    }
    let engine = builder.build();
    let what = format!("{} on {} {policy:?} tuned={tuned}", model.name, platform.name);
    let cold = engine.compile(model);
    let warm = engine.compile(model);
    assert!(!cold.from_cache() && warm.from_cache(), "{what}: cold then warm");
    check_plan(&what, &cold);
    assert_eq!(priced_bits(&warm), priced_bits(&cold), "{what}: warm prices like cold");
    assert_eq!(cold.estimate_batch_ms(1).to_bits(), cold.estimate().total_ms.to_bits());
}

#[test]
fn every_zoo_plan_sums_to_its_report_and_prices_alike_cold_and_warm() {
    for entry in unigpu_models::full_zoo() {
        for platform in Platform::all() {
            // one model alive at a time: the detectors hold hundreds of MB
            let model = (entry.build)(platform.name == Platform::aisage().name);
            for policy in POLICIES {
                for tuned in [false, true] {
                    cold_and_warm(&model, &platform, policy, tuned);
                }
            }
        }
    }
}
