//! `tune_zoo`: `tune_graph` through the serial dispatcher at the default
//! `TuningBudget` (128 trials per workload, seed 2019, noise 0) on the three
//! GPUs, then the tuned schedules priced against fallback schedules and the
//! vendor baseline. Tuner, device cost model and conv profiles do the work;
//! `compile_zoo` bypasses all three with fallback schedules.
//!
//! One operation is one measured trial.

use super::compile_zoo::{build_pairs, Pair};
use super::{speedup_vs_vendor, SimCell};
use crate::harness::{mean_ns, Ctx, RepCost};
use crate::stats::{geo_mean, median, percentile};
use crate::trace::Tracer;
use std::collections::HashSet;
use std::time::Instant;
use unigpu::device::{CostModel, DeviceSpec};
use unigpu::engine::Engine;
use unigpu::graph::Graph;
use unigpu::ir::{extract_features, lower, Schedule};
use unigpu::ops::conv::{conv_profile, te::conv2d_compute, ConfigSpace, ConvConfig};
use unigpu::ops::ConvWorkload;
use unigpu::tuner::features::conv_features;
use unigpu::tuner::gbt::Gbt;
use unigpu::tuner::graph_tuner::{optimize_chain, ChainLayer, LayerCandidate};
use unigpu::tuner::pipeline::conv_workloads;
use unigpu::tuner::{
    tune_graph, Database, Measurer, ModelBasedTuner, RandomTuner, SaTuner, SimMeasurer, Tuner,
    TuningBudget,
};

/// The classification models of the bench zoo: every vendor library runs
/// them, so every pair enters `sim_speedup_vs_vendor`. ResNet50_v1 is left
/// out for the reason given in `compile_zoo`; the detector because its 37
/// workloads would leave too few reps in a run.
const TUNE_ZOO: [&str; 2] = ["MobileNet1.0", "SqueezeNet1.0"];

/// The probe workload of the per-layer tuner metrics: ResNet's 64→64 3×3 at 56².
fn probe_workload() -> ConvWorkload {
    ConvWorkload::square(1, 64, 64, 56, 3, 1, 1)
}

fn distinct_workloads(g: &Graph) -> usize {
    conv_workloads(g)
        .iter()
        .map(|w| w.key())
        .collect::<HashSet<_>>()
        .len()
}

fn engine_with(pair: &Pair, db: Option<&Database>) -> Engine {
    let b = Engine::builder()
        .platform(pair.platform.clone())
        .persist(false);
    match db {
        Some(db) => b.tuned_database(db.clone()).build(),
        None => b.build(),
    }
}

pub fn run(ctx: &mut Ctx, tracer: &Tracer) {
    let (models, pairs) = ctx.setup(|| build_pairs(tracer, &TUNE_ZOO));
    let budget = TuningBudget::default();
    let trials: usize = pairs
        .iter()
        .map(|p| distinct_workloads(&models[p.model]) * budget.trials_per_workload)
        .sum();

    let mut databases: Vec<Database> = Vec::new();
    ctx.measure(tracer, |ctx, tracer| {
        let mut cost = RepCost {
            ops: trials as u64,
            ..RepCost::default()
        };
        let dbs: Vec<Database> = pairs
            .iter()
            .map(|pair| {
                cost.part(|| {
                    tracer.span("tuner.tune_graph", || {
                        tune_graph(&models[pair.model], &pair.platform.gpu, &budget)
                    })
                })
            })
            .collect();
        if databases.is_empty() {
            databases = dbs;
        } else {
            // Same budget seed, zero noise: every rep must find the same schedules.
            let same = dbs
                .iter()
                .zip(&databases)
                .all(|(a, b)| a.to_json_lines() == b.to_json_lines());
            ctx.check(same, "tune_graph found different schedules on a later rep");
        }
        cost
    });

    println!("model x GPU: tuned | fallback | vendor, simulated ms");
    let mut cells = Vec::new();
    for (pair, db) in pairs.iter().zip(&databases) {
        let model = &models[pair.model];
        ctx.check(
            db.len() == distinct_workloads(model),
            "tuning database misses a workload",
        );
        let tuned = engine_with(pair, Some(db)).compile(model);
        let fallback_ms = engine_with(pair, None).compile(model).estimate().total_ms;
        let cell = SimCell::price(&tuned, model, &pair.entry, &pair.platform);
        println!(
            "  {:<14} {:<20} {:>9.3} | {:>9.3} | {:>9.3}",
            pair.entry.name,
            pair.platform.gpu.name,
            cell.ours_ms,
            fallback_ms,
            cell.vendor_ms.unwrap_or(f64::NAN)
        );
        ctx.check(
            cell.ours_ms <= fallback_ms,
            "tuned schedules price worse than fallback schedules",
        );
        cells.push(cell);
    }
    let ours: Vec<f64> = cells.iter().map(|c| c.ours_ms).collect();
    let batch8: Vec<f64> = cells.iter().map(|c| c.batch8_rps).collect();
    ctx.ops(trials as u64, 0);
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
            "tuner.distinct_workloads",
            (trials / budget.trials_per_workload) as f64,
        );
        for pair in &pairs {
            tracer.span("baselines.vendor", || {
                unigpu::baselines::baseline_for(&pair.platform).latency(
                    &models[pair.model],
                    &pair.platform,
                    false,
                )
            });
        }
        ctx.set(
            "baselines.vendor_ms",
            tracer.mean_ns("baselines.vendor") / 1e6,
        );
        let spec = pairs[0].platform.gpu.clone();
        tuner_probes(ctx, tracer, &spec, &budget);
        let start = Instant::now();
        let text = tracer.span("tuner.db_roundtrip", || {
            let text = databases[0].to_json_lines();
            let back = Database::from_json_lines(&text).expect("a database's own JSONL parses");
            (text, back.to_json_lines())
        });
        ctx.set("tuner.db_roundtrip_ms", start.elapsed().as_secs_f64() * 1e3);
        ctx.check(
            text.0 == text.1,
            "tuning database changed across a JSONL round trip",
        );
        ir_probes(ctx, tracer);
    }
}

/// The three search strategies, the cost model under them and the graph
/// tuner, each on the probe workload at the budget's trial count.
fn tuner_probes(ctx: &mut Ctx, tracer: &Tracer, spec: &DeviceSpec, budget: &TuningBudget) {
    let w = probe_workload();
    let space = ConfigSpace::build(&w, spec);
    let n = budget.trials_per_workload;
    let mut strategies: [(&'static str, &'static str, Box<dyn Tuner>); 3] = [
        (
            "tuner.random",
            "tuner.random_trials_per_s",
            Box::new(RandomTuner::new(budget.seed)),
        ),
        (
            "tuner.sa",
            "tuner.sa_trials_per_s",
            Box::new(SaTuner::new(budget.seed)),
        ),
        (
            "tuner.model_based",
            "tuner.model_trials_per_s",
            Box::new(ModelBasedTuner::new(budget.seed)),
        ),
    ];
    let mut history = Vec::new();
    for (span, metric, tuner) in &mut strategies {
        let mut measurer = SimMeasurer::new(spec.clone(), 0.0, budget.seed);
        let start = Instant::now();
        let result = tracer.span(span, || tuner.tune(&w, &space, &mut measurer, n));
        ctx.set(metric, result.trials as f64 / start.elapsed().as_secs_f64());
        history = result.history;
    }
    // Trials the model-based search needed to come within 5 % of its final best.
    let best = history.iter().map(|h| h.1).fold(f64::INFINITY, f64::min);
    let within = history
        .iter()
        .position(|h| h.1 <= best * 1.05)
        .map_or(n, |i| i + 1);
    ctx.set("tuner.trials_to_5pct", within as f64);

    tracer.span("tuner.model_probes", || {
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|i| conv_features(&w, &space.get(i * 7 % space.len()), spec).to_vec())
            .collect();
        let mut measurer = SimMeasurer::new(spec.clone(), 0.0, budget.seed);
        let configs: Vec<ConvConfig> = (0..n).map(|i| space.get(i * 7 % space.len())).collect();
        let mut k = 0;
        let mut ys = vec![0.0; n];
        ctx.set(
            "tuner.measure_ns",
            mean_ns(n * 50, || {
                ys[k % n] = measurer.measure(&w, &configs[k % n]);
                k += 1;
            }),
        );
        let start = Instant::now();
        let model = Gbt::fit(&xs, &ys, 40, 3, 0.25); // the ensemble `ModelBasedTuner` refits
        ctx.set("tuner.gbt_fit_ms", start.elapsed().as_secs_f64() * 1e3);
        let mut sink = 0.0;
        ctx.set(
            "tuner.gbt_predict_ns",
            mean_ns(n * 50, || {
                sink += model.predict(&xs[k % n]);
                k += 1;
            }),
        );
        std::hint::black_box(sink);

        let cost = CostModel::new(spec.clone());
        let profile = conv_profile(&w, &configs[0], spec);
        ctx.set(
            "device.kernel_time_ns",
            mean_ns(200_000, || {
                sink += cost.kernel_time_ms(std::hint::black_box(&profile));
            }),
        );
        std::hint::black_box(sink);
    });

    // The layout DP over a 50-layer chain with four candidates per layer.
    let layers: Vec<ChainLayer> = (0..50)
        .map(|_| ChainLayer {
            workload: w,
            candidates: (0..4)
                .map(|c| {
                    let config = space.get(c * 11 % space.len());
                    LayerCandidate {
                        config,
                        kernel_ms: CostModel::new(spec.clone())
                            .kernel_time_ms(&conv_profile(&w, &config, spec)),
                    }
                })
                .collect(),
        })
        .collect();
    tracer.span("tuner.graph_tuner", || optimize_chain(&layers, spec));
    ctx.set(
        "tuner.graph_tuner_ms",
        tracer.mean_ns("tuner.graph_tuner") / 1e6,
    );
}

/// The unified IR on the probe workload: lowering a GPU-bound schedule and
/// extracting its feature vector.
fn ir_probes(ctx: &mut Ctx, tracer: &Tracer) {
    let compute = conv2d_compute(&probe_workload());
    let mut schedule = Schedule::default_for(&compute);
    schedule.split_bind("oc", 8, 0).expect("oc splits by 8");
    tracer.span("ir.probes", || {
        ctx.set(
            "ir.lower_us",
            mean_ns(200, || {
                drop(std::hint::black_box(lower(&compute, &schedule)))
            }) / 1e3,
        );
        ctx.set(
            "ir.features_us",
            mean_ns(200, || {
                std::hint::black_box(extract_features(&compute, &schedule));
            }) / 1e3,
        );
    });
}
