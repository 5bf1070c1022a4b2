//! The paper's evaluation as data: its reported cells (Tables 1–5, the
//! §3.1.2 fallback pair), and [`tables`], which regenerates every table,
//! figure and ablation on the simulated devices.
//!
//! The layout follows TVM's and Liu et al.'s evaluations: the end-to-end
//! tables first, then the per-optimization ablations under them. Every cell
//! is simulated time, so the output is deterministic and `unigpu paper`
//! prints it byte for byte the same on every run (`PAPER_TABLES.json`).

use serde::Serialize;
use std::time::Duration;
use unigpu_device::{CostModel, DeviceSpec, KernelProfile, Platform, Vendor};
use unigpu_engine::{serve_phase_sequential, uniform_requests, Engine, ServeConfig, ServeReport};
use unigpu_graph::latency::FallbackSchedules;
use unigpu_graph::passes::optimize;
use unigpu_graph::{
    estimate_latency, op_histogram, place, Graph, LatencyOptions, PlacementPolicy, ScheduleProvider,
};
use unigpu_ir::codegen::{generate, line_count, Target};
use unigpu_ir::{lower, simplify_stmt, Schedule};
use unigpu_models::{full_zoo, mobilenet, resnet50, squeezenet};
use unigpu_ops::conv::te::conv2d_compute;
use unigpu_ops::conv::{conv_profile, ConfigSpace, ConvConfig};
use unigpu_ops::vision::scan::{naive_scan_profile, scan_profiles};
use unigpu_ops::vision::sort::{naive_sort_profile, segmented_sort_profiles, SORT_BLOCK};
use unigpu_ops::ConvWorkload;
use unigpu_telemetry::{MetricsRegistry, SpanRecorder};
use unigpu_tuner::graph_tuner::{greedy_chain, optimize_chain, ChainLayer, LayerCandidate};
use unigpu_tuner::{
    tune_graph, GaTuner, ModelBasedTuner, RandomTuner, SaTuner, SimMeasurer, TunedSchedules, Tuner,
    TuningBudget,
};

/// (model, ours_ms, baseline_ms) as the paper prints it; `None` is "—"
/// (the baseline does not support the model).
type ReportedRow = (&'static str, f64, Option<f64>);

/// Table 1: AWS DeepLens, ours vs OpenVINO.
const TABLE1: [ReportedRow; 6] = [
    ("ResNet50_v1", 186.15, Some(203.60)),
    ("MobileNet1.0", 85.58, Some(53.48)),
    ("SqueezeNet1.0", 52.10, Some(42.01)),
    ("SSD_MobileNet1.0", 398.48, None),
    ("SSD_ResNet50", 1006.01, None),
    ("Yolov3", 1004.13, None),
];

/// Table 2: Acer aiSage, ours vs ACL.
const TABLE2: [ReportedRow; 6] = [
    ("ResNet50_v1", 345.60, Some(358.17)),
    ("MobileNet1.0", 78.83, Some(95.00)),
    ("SqueezeNet1.0", 66.61, Some(77.10)),
    ("SSD_MobileNet1.0", 243.16, Some(216.87)),
    ("SSD_ResNet50", 777.26, Some(737.90)),
    ("Yolov3", 1097.47, Some(1042.90)),
];

/// Table 3: Nvidia Jetson Nano, ours vs cuDNN (MXNet).
const TABLE3: [ReportedRow; 6] = [
    ("ResNet50_v1", 113.81, Some(117.22)),
    ("MobileNet1.0", 20.63, Some(30.71)),
    ("SqueezeNet1.0", 26.58, Some(42.98)),
    ("SSD_MobileNet1.0", 135.5, Some(197.3)),
    ("SSD_ResNet50", 371.32, Some(478.33)),
    ("Yolov3", 553.79, Some(802.41)),
];

/// Table 4: vision-specific operator optimization (device, model, before, after).
const TABLE4: [(&str, &str, f64, f64); 9] = [
    ("AWS DeepLens", "SSD_MobileNet1.0", 966.20, 398.48),
    ("AWS DeepLens", "SSD_ResNet50", 1491.30, 1006.01),
    ("AWS DeepLens", "Yolov3", 2610.13, 1004.13),
    ("Acer aiSage", "SSD_MobileNet1.0", 1098.11, 243.16),
    ("Acer aiSage", "SSD_ResNet50", 1631.30, 777.26),
    ("Acer aiSage", "Yolov3", 6429.69, 1097.47),
    ("Nvidia Jetson Nano", "SSD_MobileNet1.0", 264.0, 135.5),
    ("Nvidia Jetson Nano", "SSD_ResNet50", 490.4, 371.32),
    ("Nvidia Jetson Nano", "Yolov3", 1350.0, 553.79),
];

/// Table 5: convolution auto-tuning (device, model, before, after).
const TABLE5: [(&str, &str, f64, f64); 9] = [
    ("AWS DeepLens", "ResNet50_v1", 260.0, 186.15),
    ("AWS DeepLens", "MobileNet1.0", 558.15, 85.58),
    ("AWS DeepLens", "SqueezeNet1.0", 64.0, 52.1),
    ("Acer aiSage", "ResNet50_v1", 727.29, 345.6),
    ("Acer aiSage", "MobileNet1.0", 655.18, 78.83),
    ("Acer aiSage", "SqueezeNet1.0", 1362.2, 106.61),
    ("Nvidia Jetson Nano", "ResNet50_v1", 1088.55, 113.81),
    ("Nvidia Jetson Nano", "MobileNet1.0", 155.14, 20.63),
    ("Nvidia Jetson Nano", "SqueezeNet1.0", 1045.0, 26.58),
];

/// §3.1.2 fallback experiment: SSD(ResNet) on DeepLens.
const FALLBACK_ALL_GPU_MS: f64 = 1010.23;
const FALLBACK_NMS_CPU_MS: f64 = 1015.14;

/// The budget every tuned cell is searched with: 96 trials per workload,
/// noiseless measurement, one fixed seed.
const BUDGET: TuningBudget = TuningBudget {
    trials_per_workload: 96,
    noise: 0.0,
    seed: 2019,
    graph_candidates: 4,
};

/// Everything [`tables`] regenerates, in `PAPER_TABLES.json`'s key order.
#[derive(Serialize)]
pub struct PaperTables {
    pub tuning: TuningBudget,
    pub table1: OverallTable,
    pub table2: OverallTable,
    pub table3: OverallTable,
    pub table4: Vec<BeforeAfter>,
    pub table5: Vec<BeforeAfter>,
    pub fallback: Fallback,
    pub figure1: Figure1,
    pub figure2: Vec<SeriesPoint>,
    pub figure3: Vec<SeriesPoint>,
    pub ablation: Ablation,
    pub pipelining: Pipelining,
}

impl PaperTables {
    /// The tables as pretty-printed JSON, exactly as `unigpu paper` prints
    /// them.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("paper tables serialize")
    }
}

/// Tables 1–3: one platform, ours vs its vendor library.
#[derive(Serialize)]
pub struct OverallTable {
    pub platform: String,
    pub vendor: String,
    pub rows: Vec<OverallRow>,
}

#[derive(Serialize)]
pub struct OverallRow {
    pub model: String,
    pub ours_tuned_ms: f64,
    pub ours_untuned_ms: f64,
    /// `None`: the vendor library does not run this model.
    pub vendor_ms: Option<f64>,
    pub paper_ours_ms: f64,
    pub paper_vendor_ms: Option<f64>,
}

/// A Table 4 or Table 5 row: one optimization off ("before") and on.
#[derive(Serialize)]
pub struct BeforeAfter {
    pub platform: String,
    pub model: String,
    pub before_ms: f64,
    pub after_ms: f64,
    pub paper_before_ms: f64,
    pub paper_after_ms: f64,
}

/// §3.1.2: SSD_ResNet50 on DeepLens, all on the GPU vs NMS on the CPU.
#[derive(Serialize)]
pub struct Fallback {
    pub platform: String,
    pub model: String,
    pub all_gpu_ms: f64,
    pub nms_cpu_ms: f64,
    pub copies: usize,
    pub transfer_ms: f64,
    pub paper_all_gpu_ms: f64,
    pub paper_nms_cpu_ms: f64,
}

/// Figure 1's pipeline in numbers: one model through the graph passes, one
/// conv schedule through the unified IR into both backends.
#[derive(Serialize)]
pub struct Figure1 {
    pub model: String,
    pub ops: usize,
    pub optimized_ops: usize,
    pub optimized_convs: usize,
    pub optimized_batch_norms: usize,
    pub conv: String,
    pub ir_nodes: usize,
    pub cuda_lines: usize,
    pub opencl_lines: usize,
}

/// One point of Figure 2 (segmented sort) or Figure 3 (three-stage scan):
/// the naive GPU realization vs the §3.1 one, simulated ms.
#[derive(Serialize)]
pub struct SeriesPoint {
    pub device: String,
    pub n: usize,
    pub naive_ms: f64,
    pub optimized_ms: f64,
}

/// The stack's own design choices, beyond the paper's tables.
#[derive(Serialize)]
pub struct Ablation {
    /// ResNet50 on fallback schedules, BN folding + fusion off and on.
    pub graph_opt: Vec<GraphOptRow>,
    pub subgroups: Subgroups,
    pub graph_tuner: GraphTunerRow,
    /// Search strategies at an equal 96-trial budget under 3 % noise.
    pub search: Vec<SearchRow>,
}

#[derive(Serialize)]
pub struct GraphOptRow {
    pub platform: String,
    pub unfused_ms: f64,
    pub fused_ms: f64,
}

/// §3.2.1: Intel subgroup weight broadcast on a weight-bound conv.
#[derive(Serialize)]
pub struct Subgroups {
    pub conv: String,
    pub with_ms: f64,
    pub without_ms: f64,
}

/// The GraphTuner's layout DP vs greedy per-layer choice on a 5-conv chain.
#[derive(Serialize)]
pub struct GraphTunerRow {
    pub greedy_ms: f64,
    pub greedy_transforms: usize,
    pub dp_ms: f64,
    pub dp_transforms: usize,
}

#[derive(Serialize)]
pub struct SearchRow {
    pub tuner: String,
    pub best_ms: f64,
}

/// The same saturating arrivals through the event-driven server and the
/// phase-sequential reference (static chunks, no overlap).
#[derive(Serialize)]
pub struct Pipelining {
    pub model: String,
    pub platform: String,
    pub requests: usize,
    pub workers: usize,
    pub max_batch: usize,
    pub event_driven: ServeRow,
    pub phase_sequential: ServeRow,
}

#[derive(Serialize)]
pub struct ServeRow {
    pub throughput_rps: f64,
    pub p99_ms: f64,
    pub device_idle_fraction: f64,
    pub batches: usize,
    pub makespan_ms: f64,
}

/// One zoo model on one platform, priced every way the tables read it.
struct Cell {
    tuned_ms: f64,
    untuned_ms: f64,
    /// Tuned schedules with the naive vision operators (Table 4 "before").
    naive_vision_ms: f64,
    vendor_ms: Option<f64>,
}

/// Regenerate the paper's evaluation. Tunes in memory at one fixed budget
/// and reads no environment and no on-disk database, so the result depends
/// on the code alone.
pub fn tables() -> PaperTables {
    let platforms = Platform::all();
    let zoo = full_zoo();
    let mut cells: Vec<Vec<Cell>> = platforms.iter().map(|_| Vec::new()).collect();
    let mut fallback = None;
    for entry in &zoo {
        // each input size once: aiSage shrinks the detection inputs (§4.2)
        let base = (entry.build)(false);
        let small = entry.is_detection.then(|| (entry.build)(true));
        for (p, platform) in platforms.iter().enumerate() {
            let aisage = platform.gpu.vendor == Vendor::Arm;
            let g = small.as_ref().filter(|_| aisage).unwrap_or(&base);
            let opt = optimize(g);
            let placed = place(&opt, PlacementPolicy::AllGpu);
            let tuned = TunedSchedules::new(tune_graph(&opt, &platform.gpu, &BUDGET));
            let ms = |provider: &dyn ScheduleProvider, vision_optimized: bool| {
                estimate_latency(
                    &placed,
                    platform,
                    provider,
                    &LatencyOptions { vision_optimized },
                )
                .total_ms
            };
            let tuned_ms = ms(&tuned, true);
            cells[p].push(Cell {
                tuned_ms,
                untuned_ms: ms(&FallbackSchedules, true),
                naive_vision_ms: ms(&tuned, false),
                vendor_ms: crate::baseline_for(platform)
                    .latency(g, platform, entry.is_detection)
                    .map(|r| r.total_ms),
            });
            if entry.name == "SSD_ResNet50" && platform.name == Platform::deeplens().name {
                let fb = place(&opt, PlacementPolicy::FallbackVision);
                let r = estimate_latency(&fb, platform, &tuned, &LatencyOptions::default());
                fallback = Some(Fallback {
                    platform: platform.name.clone(),
                    model: entry.name.into(),
                    all_gpu_ms: tuned_ms,
                    nms_cpu_ms: r.total_ms,
                    copies: fb.copy_count(),
                    transfer_ms: r.transfer_ms,
                    paper_all_gpu_ms: FALLBACK_ALL_GPU_MS,
                    paper_nms_cpu_ms: FALLBACK_NMS_CPU_MS,
                });
            }
        }
    }

    let overall = |p: usize, reported: &[ReportedRow; 6]| OverallTable {
        platform: platforms[p].name.clone(),
        vendor: crate::baseline_for(&platforms[p]).name.into(),
        rows: zoo
            .iter()
            .zip(&cells[p])
            .zip(reported)
            .map(|((entry, c), &(model, paper_ours_ms, paper_vendor_ms))| {
                assert_eq!(entry.name, model, "zoo order must match the paper's tables");
                OverallRow {
                    model: model.into(),
                    ours_tuned_ms: c.tuned_ms,
                    ours_untuned_ms: c.untuned_ms,
                    vendor_ms: c.vendor_ms,
                    paper_ours_ms,
                    paper_vendor_ms,
                }
            })
            .collect(),
    };
    // Table 4 compares vision operators on the detection models, Table 5
    // tuning on the classification models, each on every platform
    let before_after = |reported: &[(&str, &str, f64, f64); 9], before: fn(&Cell) -> f64| {
        reported
            .iter()
            .map(|&(platform, model, paper_before_ms, paper_after_ms)| {
                let p = platforms
                    .iter()
                    .position(|q| q.name == platform)
                    .expect("paper platform");
                let m = zoo
                    .iter()
                    .position(|e| e.name == model)
                    .expect("paper model");
                BeforeAfter {
                    platform: platform.into(),
                    model: model.into(),
                    before_ms: before(&cells[p][m]),
                    after_ms: cells[p][m].tuned_ms,
                    paper_before_ms,
                    paper_after_ms,
                }
            })
            .collect()
    };

    PaperTables {
        tuning: BUDGET,
        table1: overall(0, &TABLE1),
        table2: overall(1, &TABLE2),
        table3: overall(2, &TABLE3),
        table4: before_after(&TABLE4, |c| c.naive_vision_ms),
        table5: before_after(&TABLE5, |c| c.untuned_ms),
        fallback: fallback.expect("the zoo has SSD_ResNet50 and the platforms DeepLens"),
        figure1: figure1(),
        figure2: series(&[1000, 6132, 24564], |n, spec| {
            // SSD-like: 21 classes, one dominating segment
            let mut lens = vec![n / 40; 20];
            lens.push(n - lens.iter().sum::<usize>());
            (
                vec![naive_sort_profile(&lens)],
                segmented_sort_profiles(n, SORT_BLOCK, spec),
            )
        }),
        figure3: series(&[1 << 12, 1 << 16, 1 << 20], |n, spec| {
            (
                vec![naive_scan_profile(n)],
                scan_profiles(n, spec.max_concurrency(), spec),
            )
        }),
        ablation: Ablation {
            graph_opt: graph_opt(&platforms),
            subgroups: subgroups(),
            graph_tuner: graph_tuner(),
            search: search(),
        },
        pipelining: pipelining(),
    }
}

/// SqueezeNet through the graph passes; a 64→128 3×3 conv scheduled once
/// and generated for both backends.
fn figure1() -> Figure1 {
    let model = squeezenet(1, 224, 1000);
    let opt = optimize(&model);
    let hist = op_histogram(&opt);
    let w = ConvWorkload::square(1, 64, 128, 56, 3, 1, 1);
    let c = conv2d_compute(&w);
    let mut s = Schedule::default_for(&c);
    s.split_bind("oc", 8, 0).expect("oc splits");
    s.split("ow", 8).expect("ow splits");
    s.vectorize("ow.i").expect("ow.i vectorizes");
    s.unroll("kw").expect("kw unrolls");
    let stmt = simplify_stmt(&lower(&c, &s));
    Figure1 {
        model: model.name.clone(),
        ops: model.op_count(),
        optimized_ops: opt.op_count(),
        optimized_convs: hist.get("conv2d").copied().unwrap_or(0),
        optimized_batch_norms: hist.get("batch_norm").copied().unwrap_or(0),
        conv: w.key(),
        ir_nodes: stmt.node_count(),
        cuda_lines: line_count(&generate("conv2d", &stmt, Target::Cuda)),
        opencl_lines: line_count(&generate("conv2d", &stmt, Target::OpenCl)),
    }
}

/// Naive vs optimized kernel sequences per GPU and size, simulated ms.
fn series(
    sizes: &[usize],
    profiles: impl Fn(usize, &DeviceSpec) -> (Vec<KernelProfile>, Vec<KernelProfile>),
) -> Vec<SeriesPoint> {
    let mut points = Vec::new();
    for platform in Platform::all() {
        let m = CostModel::new(platform.gpu.clone());
        let ms = |ps: &[KernelProfile]| ps.iter().map(|p| m.kernel_time_ms(p)).sum();
        for &n in sizes {
            let (naive, optimized) = profiles(n, &platform.gpu);
            points.push(SeriesPoint {
                device: platform.gpu.name.clone(),
                n,
                naive_ms: ms(&naive),
                optimized_ms: ms(&optimized),
            });
        }
    }
    points
}

fn graph_opt(platforms: &[Platform]) -> Vec<GraphOptRow> {
    let g = resnet50(1, 224, 1000);
    let o = optimize(&g);
    let ms = |g: &Graph, p: &Platform| {
        let placed = place(g, PlacementPolicy::AllGpu);
        estimate_latency(&placed, p, &FallbackSchedules, &LatencyOptions::default()).total_ms
    };
    let row = |p: &Platform| GraphOptRow {
        platform: p.name.clone(),
        unfused_ms: ms(&g, p),
        fused_ms: ms(&o, p),
    };
    platforms.iter().map(row).collect()
}

fn subgroups() -> Subgroups {
    let spec = DeviceSpec::intel_hd505();
    let m = CostModel::new(spec.clone());
    // a bandwidth-hungry projection: weight traffic dominates, which is
    // what subgroup block reads amortize
    let w = ConvWorkload::square(1, 512, 512, 14, 1, 1, 0);
    let mut cfg = ConvConfig {
        tile_oc: 2,
        tile_oh: 1,
        tile_ow: 2,
        vector_width: 8,
        unroll: 2,
        workgroup: (16, 4),
        use_subgroup: true,
        use_slm: false,
    };
    let with_ms = m.kernel_time_ms(&conv_profile(&w, &cfg, &spec));
    cfg.use_subgroup = false;
    let without_ms = m.kernel_time_ms(&conv_profile(&w, &cfg, &spec));
    Subgroups {
        conv: w.key(),
        with_ms,
        without_ms,
    }
}

fn graph_tuner() -> GraphTunerRow {
    let spec = DeviceSpec::mali_t860();
    let m = SimMeasurer::new(spec.clone(), 0.0, 7);
    let wls = [
        ConvWorkload::square(1, 64, 64, 56, 3, 1, 1),
        ConvWorkload::square(1, 64, 128, 56, 1, 1, 0),
        ConvWorkload::square(1, 128, 128, 28, 3, 1, 1),
        ConvWorkload::square(1, 128, 256, 28, 1, 1, 0),
        ConvWorkload::square(1, 256, 256, 14, 3, 1, 1),
    ];
    let layers: Vec<ChainLayer> = wls
        .iter()
        .map(|w| {
            let space = ConfigSpace::build(w, &spec);
            // the best sampled config per output layout (tile_oc), so the DP
            // has real layout alternatives to weigh
            let candidates = [1usize, 2, 4, 8, 16]
                .iter()
                .filter_map(|&oc| {
                    (0..space.len())
                        .step_by(7)
                        .map(|i| space.get(i))
                        .filter(|c| c.tile_oc == oc)
                        .map(|config| LayerCandidate {
                            config,
                            kernel_ms: m.true_cost(w, &config),
                        })
                        .min_by(|a, b| a.kernel_ms.total_cmp(&b.kernel_ms))
                })
                .collect();
            ChainLayer {
                workload: *w,
                candidates,
            }
        })
        .collect();
    let dp = optimize_chain(&layers, &spec);
    let greedy = greedy_chain(&layers, &spec);
    GraphTunerRow {
        greedy_ms: greedy.total_ms,
        greedy_transforms: greedy.transforms,
        dp_ms: dp.total_ms,
        dp_transforms: dp.transforms,
    }
}

fn search() -> Vec<SearchRow> {
    let w = ConvWorkload::square(1, 128, 128, 28, 3, 1, 1);
    let spec = DeviceSpec::intel_hd505();
    let space = ConfigSpace::build(&w, &spec);
    let tuners: [(&str, Box<dyn Tuner>); 4] = [
        ("random", Box::new(RandomTuner::new(3))),
        ("simulated annealing", Box::new(SaTuner::new(3))),
        ("genetic", Box::new(GaTuner::new(3))),
        ("model-based (GBT)", Box::new(ModelBasedTuner::new(3))),
    ];
    tuners
        .into_iter()
        .map(|(name, mut t)| {
            let mut m = SimMeasurer::new(spec.clone(), 0.03, 17);
            let r = t.tune(&w, &space, &mut m, 96);
            SearchRow {
                tuner: name.into(),
                best_ms: m.true_cost(&w, &r.best_config),
            }
        })
        .collect()
}

/// MobileNet1.0 on DeepLens at batch 8 with a zero flush window and
/// arrivals at aggregate capacity: the event-driven core launches whatever
/// is queued the moment a lane frees, which is the pipelining the
/// phase-sequential reference lacks.
fn pipelining() -> Pipelining {
    const REQUESTS: usize = 64;
    const WORKERS: usize = 4;
    const MAX_BATCH: usize = 8;
    let platform = Platform::deeplens();
    let compiled = Engine::builder()
        .platform(platform.clone())
        .persist(false)
        .build()
        .compile(&mobilenet(1, 224, 1000));
    let cfg = ServeConfig::builder()
        .concurrency(WORKERS)
        .max_batch(MAX_BATCH)
        .batch_window(Duration::ZERO)
        .build()
        .expect("valid pipelining config");
    let interval_ms = compiled.estimate_batch_ms(1) / WORKERS as f64;
    let arrivals = uniform_requests(&compiled, REQUESTS, interval_ms);
    let row = |report: ServeReport, metrics: &MetricsRegistry| ServeRow {
        throughput_rps: report.throughput_rps(),
        p99_ms: metrics
            .histogram_summary("engine.latency_ms")
            .expect("latency histogram")
            .p99,
        device_idle_fraction: report.device_idle_fraction,
        batches: report.batches,
        makespan_ms: report.makespan_ms,
    };
    let ev_metrics = MetricsRegistry::new();
    let mut server = compiled.server_with(&cfg, &SpanRecorder::new(), &ev_metrics);
    for r in arrivals.iter().cloned() {
        let _ = server.submit(r);
    }
    let event_driven = row(server.shutdown(), &ev_metrics);
    let ps_metrics = MetricsRegistry::new();
    let phase_sequential = row(
        serve_phase_sequential(&compiled, arrivals, &cfg, &SpanRecorder::new(), &ps_metrics),
        &ps_metrics,
    );
    Pipelining {
        model: compiled.model().into(),
        platform: platform.name,
        requests: REQUESTS,
        workers: WORKERS,
        max_batch: MAX_BATCH,
        event_driven,
        phase_sequential,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedups_match_abstract() {
        // Abstract: "up to 1.62x" vs vendor libraries — Table 3 SqueezeNet.
        let max = TABLE3
            .iter()
            .filter_map(|(_, ours, base)| base.map(|b| b / ours))
            .fold(0.0f64, f64::max);
        assert!((max - 1.62).abs() < 0.01, "max speedup {max}");
    }

    #[test]
    fn table4_max_speedup_is_5_86() {
        let max = TABLE4
            .iter()
            .map(|(_, _, before, after)| before / after)
            .fold(0.0f64, f64::max);
        assert!((max - 5.86).abs() < 0.01, "{max}");
    }

    #[test]
    fn table5_max_speedup_is_39_3() {
        let max = TABLE5
            .iter()
            .map(|(_, _, before, after)| before / after)
            .fold(0.0f64, f64::max);
        assert!((max - 39.3).abs() < 0.05, "{max}");
    }

    #[test]
    fn fallback_overhead_below_half_percent() {
        let overhead = FALLBACK_NMS_CPU_MS / FALLBACK_ALL_GPU_MS - 1.0;
        assert!(overhead < 0.005);
    }
}
