//! `compile_zoo`: the bench zoo on the three platforms with fallback
//! schedules — cold `Engine::compile` into an empty cache directory, warm
//! compile by a fresh `Engine` on the populated directory, and the batch-8
//! estimate. Models, graph passes, placement, estimator and artifact cache
//! do the work; the server and the tuner do none.
//!
//! One operation is one model × platform pair: compiled cold, compiled
//! warm, priced at batch 8.

use super::{build_for, speedup_vs_vendor, zoo_entry, SimCell};
use crate::harness::{mean_ns, Ctx, RepCost};
use crate::stats::{geo_mean, median, percentile};
use crate::trace::Tracer;
use std::path::Path;
use unigpu::device::Platform;
use unigpu::engine::{fingerprint, Artifact, ArtifactCache, Engine};
use unigpu::fleet::artifact_of;
use unigpu::graph::latency::FallbackSchedules;
use unigpu::graph::{
    estimate_latency, fold_batch_norms, fuse_ops, place, rebatch, Graph, LatencyOptions,
    PlacementPolicy,
};
use unigpu::models::ModelEntry;

/// The bench zoo. ResNet50_v1, SSD_ResNet50 and Yolov3 are left out: one
/// compile of a 100 MB model holds ~880 MB of weight copies, and in this
/// sandbox a process that touches more than ~0.8 GB of fresh memory pays
/// 0.15–0.3 ms per further page (README, "Sandbox findings").
pub const BENCH_ZOO: [&str; 3] = ["MobileNet1.0", "SqueezeNet1.0", "SSD_MobileNet1.0"];

pub struct Pair {
    pub entry: ModelEntry,
    pub platform: Platform,
    /// Index into the model list: platforms that evaluate the same graph
    /// share one copy of it.
    pub model: usize,
}

/// Every model of `zoo` on every platform, as the paper evaluates it there
/// (aiSage shrinks detection inputs, so it gets graphs of its own for those).
pub fn build_pairs(tracer: &Tracer, zoo: &[&str]) -> (Vec<Graph>, Vec<Pair>) {
    let mut models = Vec::new();
    let mut built: Vec<(&str, bool, usize)> = Vec::new();
    let mut pairs = Vec::new();
    for &name in zoo {
        for platform in Platform::all() {
            let entry = zoo_entry(name);
            let shrunk = entry.is_detection && platform.name.contains("aiSage");
            let model = match built.iter().find(|b| b.0 == name && b.1 == shrunk) {
                Some(b) => b.2,
                None => {
                    models.push(tracer.span("models.build", || build_for(&entry, &platform)));
                    built.push((name, shrunk, models.len() - 1));
                    models.len() - 1
                }
            };
            pairs.push(Pair {
                entry,
                platform,
                model,
            });
        }
    }
    (models, pairs)
}

fn engine_on(platform: &Platform, dir: &Path) -> Engine {
    Engine::builder()
        .platform(platform.clone())
        .cache_dir(dir)
        .build()
}

pub fn run(ctx: &mut Ctx, tracer: &Tracer) {
    let (models, pairs) = ctx.setup(|| build_pairs(tracer, &BENCH_ZOO));
    let cache_root = ctx.work_dir.join("artifacts");

    let mut cells: Vec<SimCell> = Vec::new();
    let mut rep_index = 0usize;
    ctx.measure(tracer, |ctx, tracer| {
        rep_index += 1;
        let first = cells.is_empty();
        let mut cost = RepCost {
            ops: pairs.len() as u64,
            ..RepCost::default()
        };
        for (i, pair) in pairs.iter().enumerate() {
            let model = &models[pair.model];
            let what = format!("{} on {}", pair.entry.name, pair.platform.name);
            // A directory no compile has seen, so "cold" stays cold.
            let dir = cache_root.join(format!("rep{rep_index}-pair{i}"));

            // Each compiled model is checked, priced and dropped outside the
            // timed sections before the next one is built: holding several
            // at once would take the process past the sandbox's fast-memory
            // threshold (README, "Sandbox findings").
            let cold = cost.part(|| {
                let c = tracer.span("engine.compile_cold", || {
                    engine_on(&pair.platform, &dir).compile(model)
                });
                tracer.span("engine.estimate_batch_cold", || c.estimate_batch_ms(8));
                c
            });
            ctx.check(
                !cold.from_cache(),
                format!("{what}: cold compile hit a cache"),
            );
            let cold_ms = cold.estimate().total_ms;
            if first {
                cells.push(SimCell::price(&cold, model, &pair.entry, &pair.platform));
            }
            drop(cold);

            let warm = cost.part(|| {
                tracer.span("engine.compile_warm", || {
                    engine_on(&pair.platform, &dir).compile(model)
                })
            });
            ctx.check(
                warm.from_cache(),
                format!("{what}: warm compile missed the disk artifact"),
            );
            ctx.check(
                warm.estimate().total_ms.to_bits() == cold_ms.to_bits(),
                format!("{what}: warm estimate differs from cold"),
            );
        }
        let _ = std::fs::remove_dir_all(&cache_root);
        cost
    });

    println!("model x platform: ours (fallback schedules) | vendor | batch-8 rps, simulated");
    for (pair, cell) in pairs.iter().zip(&cells) {
        println!(
            "  {:<18} {:<20} {:>10.3} ms | {} | {:.3} rps",
            pair.entry.name,
            pair.platform.name,
            cell.ours_ms,
            cell.vendor_ms
                .map_or_else(|| "      —     ".into(), |v| format!("{v:>9.3} ms")),
            cell.batch8_rps
        );
    }
    let ours: Vec<f64> = cells.iter().map(|c| c.ours_ms).collect();
    let batch8: Vec<f64> = cells.iter().map(|c| c.batch8_rps).collect();
    ctx.ops(pairs.len() as u64, 0);
    ctx.set(
        "served_ratio",
        (ctx.attempted() - ctx.failed()) as f64 / ctx.attempted() as f64,
    );
    ctx.set("sim_p50_ms", median(&ours));
    ctx.set("sim_p99_ms", percentile(&ours, 0.99));
    ctx.set("sim_goodput_rps", geo_mean(&batch8));
    ctx.set("sim_speedup_vs_vendor", speedup_vs_vendor(&cells));

    if ctx.traced {
        ctx.set("models.build_ms", tracer.mean_ns("models.build") / 1e6);
        ctx.set(
            "engine.compile_cold_ms",
            tracer.mean_ns("engine.compile_cold") / 1e6,
        );
        ctx.set(
            "engine.compile_warm_ms",
            tracer.mean_ns("engine.compile_warm") / 1e6,
        );
        ctx.set(
            "engine.estimate_batch_cold_ms",
            tracer.mean_ns("engine.estimate_batch_cold") / 1e6,
        );
        pipeline_probes(ctx, tracer, &models, &pairs);
        artifact_probes(ctx, tracer, &models, &pairs[0]);
    }
}

/// The passes `Engine::compile` runs, one by one, over every pair; each
/// metric is the mean per pair.
fn pipeline_probes(ctx: &mut Ctx, tracer: &Tracer, models: &[Graph], pairs: &[Pair]) {
    let mut optimized_nodes = 0usize;
    for pair in pairs {
        let model = &models[pair.model];
        let folded = tracer.span("graph.fold_bn", || fold_batch_norms(model));
        let fused = tracer.span("graph.fuse", || fuse_ops(&folded));
        optimized_nodes += fused.nodes.len();
        let placed = tracer.span("graph.place", || place(&fused, PlacementPolicy::AllGpu));
        tracer.span("graph.estimate", || {
            estimate_latency(
                &placed,
                &pair.platform,
                &FallbackSchedules,
                &LatencyOptions::default(),
            )
        });
        if !pair.entry.is_detection {
            tracer.span("graph.rebatch", || rebatch(&fused, 8));
        }
        tracer.span("baselines.vendor", || {
            unigpu::baselines::baseline_for(&pair.platform).latency(
                model,
                &pair.platform,
                pair.entry.is_detection,
            )
        });
    }
    ctx.set("graph.fold_bn_ms", tracer.mean_ns("graph.fold_bn") / 1e6);
    ctx.set("graph.fuse_ms", tracer.mean_ns("graph.fuse") / 1e6);
    ctx.set("graph.place_ms", tracer.mean_ns("graph.place") / 1e6);
    ctx.set("graph.estimate_ms", tracer.mean_ns("graph.estimate") / 1e6);
    ctx.set("graph.rebatch_ms", tracer.mean_ns("graph.rebatch") / 1e6);
    ctx.set("graph.optimized_nodes", optimized_nodes as f64);
    ctx.set(
        "baselines.vendor_ms",
        tracer.mean_ns("baselines.vendor") / 1e6,
    );

    // The copy `optimize`, `place` and `rebatch` each start from, on the
    // largest model of the zoo (100 MB of weights).
    let resnet = tracer.span("models.build_resnet50", || {
        (zoo_entry("ResNet50_v1").build)(false)
    });
    tracer.span("tensor.graph_clone", || drop(resnet.clone()));
    ctx.set(
        "tensor.graph_clone_ms",
        tracer.mean_ns("tensor.graph_clone") / 1e6,
    );
}

/// The artifact path of one pair: fingerprint, save, load, in-memory hit.
fn artifact_probes(ctx: &mut Ctx, tracer: &Tracer, models: &[Graph], pair: &Pair) {
    let model = &models[pair.model];
    let dir = ctx.work_dir.join("artifact-probe");
    let compiled = engine_on(&pair.platform, &dir).compile(model);
    let artifact: Artifact = artifact_of(&compiled);
    let path = dir.join("probe.jsonl");
    tracer.span("engine.fingerprint", || fingerprint(model));
    tracer.span("engine.artifact_save", || {
        artifact
            .save(&path)
            .expect("artifact saves into the work dir")
    });
    let loaded = tracer.span("engine.artifact_load", || {
        Artifact::load(&path).expect("saved artifact loads")
    });
    ctx.check(
        loaded.to_jsonl() == artifact.to_jsonl(),
        "artifact changed across save/load",
    );
    ctx.set(
        "engine.fingerprint_ms",
        tracer.mean_ns("engine.fingerprint") / 1e6,
    );
    ctx.set(
        "engine.artifact_save_ms",
        tracer.mean_ns("engine.artifact_save") / 1e6,
    );
    ctx.set(
        "engine.artifact_load_ms",
        tracer.mean_ns("engine.artifact_load") / 1e6,
    );

    let mut cache = ArtifactCache::new(8);
    let key = artifact.key();
    cache.put(key.clone(), artifact);
    tracer.span("engine.cache_hits", || {
        ctx.set(
            "engine.cache_hit_ns",
            mean_ns(10_000, || drop(std::hint::black_box(cache.get(&key)))),
        );
    });
    let _ = std::fs::remove_dir_all(&dir);
}
