//! Edge cases of the compile-time cost table through the public `Engine`
//! API: an empty model, the all-CPU degraded variant, and compiles pinned
//! to a tuning database that knows nothing (fallback-schedule pricing).
//!
//! The drift monitor and the fleet router both key on
//! `CompiledModel::predicted_costs()`; these tests pin the contract at its
//! boundaries so neither consumer has to defend against them.

use unigpu_device::Platform;
use unigpu_engine::Engine;
use unigpu_graph::{Activation, Graph, OpKind};
use unigpu_ops::ConvWorkload;
use unigpu_tensor::{Shape, Tensor};
use unigpu_tuner::Database;

fn conv_model(name: &str) -> Graph {
    let mut g = Graph::new(name);
    let w = ConvWorkload::square(1, 3, 8, 16, 3, 1, 1);
    let x = g.add(
        OpKind::Input {
            shape: Shape::from(w.input_shape()),
        },
        vec![],
        "data",
    );
    let wt = g.add(
        OpKind::constant(Tensor::zeros(w.weight_shape())),
        vec![],
        "w0",
    );
    let c = g.add(
        OpKind::Conv2d {
            w,
            bias: false,
            act: Activation::Relu,
        },
        vec![x, wt],
        "conv0",
    );
    g.mark_output(c);
    g
}

fn memory_engine() -> Engine {
    Engine::builder()
        .platform(Platform::deeplens())
        .persist(false)
        .build()
}

#[test]
fn empty_graph_compiles_to_an_empty_cost_table() {
    let compiled = memory_engine().compile(&Graph::new("empty"));
    let table = compiled.predicted_costs();
    assert!(table.is_empty());
    assert_eq!(table.len(), 0);
    assert_eq!(table.total_ms(), 0.0);
    assert_eq!(table.predicted_ms("conv0"), None);
    assert!(compiled.cost_table().is_empty());
    assert_eq!(compiled.estimate().total_ms, 0.0);
    // batching nothing still costs nothing
    assert_eq!(compiled.estimate_batch_ms(4), 0.0);
}

#[test]
fn degraded_variant_keeps_the_compile_time_cost_table() {
    let compiled = memory_engine().compile(&conv_model("degrade"));
    let degraded = compiled.degraded();
    // the degraded model re-places nodes but does NOT re-predict: drift
    // comparisons against the original compile stay meaningful even after
    // a fallback to the CPU
    assert_eq!(degraded.cost_table(), compiled.cost_table());
    assert_eq!(
        degraded.predicted_costs().entries(),
        compiled.predicted_costs().entries()
    );
    // while the live estimate prices the new (all-CPU) placement
    assert_ne!(
        degraded.estimate().total_ms,
        compiled.estimate().total_ms,
        "CPU pricing must differ from the GPU placement"
    );
}

#[test]
fn pinned_empty_database_still_prices_every_node() {
    // an engine pinned to a database that has never tuned anything must
    // fall back to default schedules, not to zero or missing costs
    let engine = Engine::builder()
        .platform(Platform::deeplens())
        .persist(false)
        .tuned_database(Database::new())
        .build();
    let compiled = engine.compile(&conv_model("pinned"));
    let table = compiled.predicted_costs();
    assert!(!table.is_empty());
    let conv = table
        .predicted_ms("conv0")
        .expect("the conv node is priced even with no tuning record");
    assert!(conv > 0.0, "fallback-schedule cost must be positive: {conv}");
    assert!(table.total_ms() > 0.0);
    // misses stay misses: a node that never existed is None, not 0.0
    assert_eq!(table.predicted_ms("conv99"), None);
    // and the pinned-empty compile prices exactly like the fallback
    // engine: both resolve to default schedules
    let fallback = memory_engine().compile(&conv_model("pinned"));
    assert_eq!(table.entries(), fallback.predicted_costs().entries());
}
