//! Artifact-cache behavior through the public `Engine` API: hit/miss and
//! eviction accounting, corrupt-artifact recovery, and cross-process
//! persistence (simulated with independent engines over one directory).

use std::path::PathBuf;
use unigpu_device::Platform;
use unigpu_engine::{Engine, TuningState};
use unigpu_graph::{Activation, Graph, OpKind};
use unigpu_ops::ConvWorkload;
use unigpu_tensor::{Shape, Tensor};

fn conv_model(name: &str, channels: usize) -> Graph {
    let mut g = Graph::new(name);
    let w = ConvWorkload::square(1, 3, channels, 16, 3, 1, 1);
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

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("unigpu_engine_it_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

#[test]
fn hit_miss_and_eviction_ordering() {
    let engine = Engine::builder()
        .platform(Platform::deeplens())
        .persist(false)
        .cache_capacity(2)
        .build();
    let a = conv_model("a", 4);
    let b = conv_model("b", 8);
    let c = conv_model("c", 16);

    assert!(!engine.compile(&a).from_cache()); // miss
    assert!(!engine.compile(&b).from_cache()); // miss
    assert!(engine.compile(&a).from_cache()); // hit, bumps `a` over `b`
    assert!(!engine.compile(&c).from_cache()); // miss, evicts `b` (LRU)
    assert!(!engine.compile(&b).from_cache()); // `b` was evicted: miss again
    assert!(engine.compile(&c).from_cache()); // `c` survived

    let stats = engine.cache_stats();
    assert_eq!(stats.hits, 2);
    assert_eq!(stats.misses, 4);
    assert!(stats.evictions >= 1);
    assert_eq!(stats.disk_hits, 0, "memory-only engine never touches disk");
}

#[test]
fn cross_process_persistence_round_trip() {
    let dir = temp_dir("persist");
    let model = conv_model("persisted", 8);

    let first = Engine::builder()
        .platform(Platform::deeplens())
        .cache_dir(&dir)
        .build()
        .compile(&model);
    assert!(!first.from_cache());

    // the artifact landed as a JSONL file whose first line is the metadata
    let files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    assert_eq!(files.len(), 1);
    let text = std::fs::read_to_string(&files[0]).unwrap();
    let meta: serde_json::Value = serde_json::from_str(text.lines().next().unwrap()).unwrap();
    assert_eq!(meta["kind"].as_str(), Some("unigpu-artifact"));
    assert_eq!(meta["model"].as_str(), Some("persisted"));

    // a fresh engine (≈ a new process) over the same directory compiles
    // from disk, skipping the pipeline
    let engine2 = Engine::builder()
        .platform(Platform::deeplens())
        .cache_dir(&dir)
        .build();
    let second = engine2.compile(&model);
    assert!(
        second.from_cache(),
        "disk artifact served the second compile"
    );
    assert_eq!(engine2.cache_stats().disk_hits, 1);
    assert_eq!(
        first.estimate().total_ms,
        second.estimate().total_ms,
        "cached compile estimates identically"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_artifact_recompiles_instead_of_crashing() {
    let dir = temp_dir("corrupt");
    let model = conv_model("fragile", 8);
    let mk = || {
        Engine::builder()
            .platform(Platform::deeplens())
            .cache_dir(&dir)
            .build()
    };

    let baseline = mk().compile(&model);
    let file = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .next()
        .unwrap();
    std::fs::write(&file, "{ truncated garbage").unwrap();

    // fresh engine: the corrupt file is dropped and the model recompiles
    let engine = mk();
    let recompiled = engine.compile(&model);
    assert!(!recompiled.from_cache(), "corrupt artifact must not serve");
    assert_eq!(engine.cache_stats().corrupt, 1);
    assert_eq!(recompiled.estimate().total_ms, baseline.estimate().total_ms);

    // the recompile re-persisted a good artifact
    let healed = mk().compile(&model);
    assert!(healed.from_cache());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tuning_state_partitions_the_key_space() {
    let dir = temp_dir("tuning_key");
    let model = conv_model("keyed", 4);
    let fallback = Engine::builder()
        .platform(Platform::deeplens())
        .cache_dir(&dir)
        .build();
    let tuned = Engine::builder()
        .platform(Platform::deeplens())
        .cache_dir(&dir)
        .tuned(8)
        .build();

    let f = fallback.compile(&model);
    let t = tuned.compile(&model);
    assert_eq!(f.key().tuning, TuningState::Fallback);
    assert_eq!(t.key().tuning, TuningState::Tuned { trials: 8 });
    assert!(t.is_tuned());
    assert!(!f.is_tuned());
    // each engine hits only its own key
    assert!(fallback.compile(&model).from_cache());
    assert!(tuned.compile(&model).from_cache());
    std::fs::remove_dir_all(&dir).ok();
}
