//! Shared harness plumbing: tuning-database caching and table printing.

use std::path::PathBuf;
use unigpu_device::Platform;
use unigpu_engine::Engine;
use unigpu_graph::passes::optimize;
use unigpu_graph::{estimate_latency, place, Graph, LatencyOptions, LatencyReport, PlacementPolicy};
use unigpu_models::full_zoo;
use unigpu_telemetry::{tel_info, tel_warn};
use unigpu_tuner::{Database, TunedSchedules, TuningBudget};

/// Where tuning databases are cached between harness runs (§3.2.3's
/// "database to store the results for every convolution workload on each
/// hardware platform"). Delegates to the tuner's canonical `UNIGPU_DB_DIR`
/// helper — the same directory `unigpu tune --resume` consults — and
/// ensures it exists.
pub fn db_dir() -> PathBuf {
    let p = unigpu_tuner::db_dir();
    std::fs::create_dir_all(&p).ok();
    p
}

fn db_path(platform: &Platform) -> PathBuf {
    let _ensure_exists = db_dir();
    unigpu_tuner::device_db_path(&platform.gpu.name)
}

/// Load (or produce and cache) the tuned schedules for a platform, covering
/// every convolution workload in the full model zoo.
pub fn tuned_provider_for(platform: &Platform, budget: &TuningBudget) -> TunedSchedules {
    let path = db_path(platform);
    let aisage = platform.gpu.vendor == unigpu_device::Vendor::Arm;
    let needed: Vec<Graph> = full_zoo().iter().map(|e| (e.build)(aisage)).collect();

    let (mut db, recovery) = Database::load_recovering(&path);
    if recovery.skipped > 0 {
        tel_warn!(
            "bench::harness",
            "tuning database {} is partially corrupt: {} record(s) recovered, {} line(s) \
             skipped (first error: {})",
            path.display(),
            recovery.recovered,
            recovery.skipped,
            recovery.first_error.as_deref().unwrap_or("unknown")
        );
    }
    let missing: Vec<&Graph> = needed
        .iter()
        .filter(|g| {
            unigpu_tuner::pipeline::conv_workloads(g)
                .iter()
                .any(|w| db.lookup(&platform.gpu.name, w).is_none())
        })
        .collect();
    if !missing.is_empty() {
        tel_info!(
            "bench::harness",
            "{}: searching schedules for {} model(s) (budget {} trials/workload)...",
            platform.name,
            missing.len(),
            budget.trials_per_workload
        );
        // compile through the engine so each model's search lands in the
        // artifact cache too (a later `unigpu serve --tuned` hits it)
        let engine = Engine::builder()
            .platform(platform.clone())
            .budget(*budget)
            .tuned(budget.trials_per_workload)
            .cache_dir(db_dir().join("artifacts"))
            .build();
        for g in missing {
            let compiled = engine.compile(g);
            for rec in compiled.schedule_records() {
                db.insert(rec.clone());
            }
        }
        db.save(&path).ok();
    }
    TunedSchedules::new(db)
}

/// End-to-end latency of a model under our full tuned pipeline: graph
/// optimization, all-GPU placement, optimized vision ops.
pub fn ours_tuned_latency(
    model: &Graph,
    platform: &Platform,
    provider: &TunedSchedules,
) -> LatencyReport {
    let placed = place(&optimize(model), PlacementPolicy::AllGpu);
    estimate_latency(&placed, platform, provider, &LatencyOptions { vision_optimized: true })
}

/// One row of an overall-performance table.
#[derive(Debug, Clone)]
pub struct Row {
    pub model: String,
    pub ours_ms: f64,
    pub baseline_ms: Option<f64>,
    pub paper_ours_ms: f64,
    pub paper_baseline_ms: Option<f64>,
}

impl Row {
    pub fn speedup(&self) -> Option<f64> {
        self.baseline_ms.map(|b| b / self.ours_ms)
    }

    pub fn paper_speedup(&self) -> Option<f64> {
        self.paper_baseline_ms.map(|b| b / self.paper_ours_ms)
    }
}

fn fmt_opt(v: Option<f64>, width: usize, prec: usize) -> String {
    match v {
        Some(x) => format!("{x:>width$.prec$}"),
        None => format!("{:>width$}", "—"),
    }
}

/// Print an overall table with measured and paper columns side by side.
pub fn print_table(title: &str, baseline_name: &str, rows: &[Row]) {
    println!("\n=== {title} ===");
    println!(
        "{:<18} {:>10} {:>10} {:>8} | {:>10} {:>10} {:>8}",
        "Model",
        "Ours(ms)",
        format!("{baseline_name}(ms)"),
        "Speedup",
        "paper:Ours",
        "paper:Base",
        "paper:Sp"
    );
    for r in rows {
        println!(
            "{:<18} {:>10.2} {} {} | {:>10.2} {} {}",
            r.model,
            r.ours_ms,
            fmt_opt(r.baseline_ms, 10, 2),
            fmt_opt(r.speedup(), 8, 2),
            r.paper_ours_ms,
            fmt_opt(r.paper_baseline_ms, 10, 2),
            fmt_opt(r.paper_speedup(), 8, 2),
        );
    }
}

/// Print a before/after ablation table (Tables 4 & 5 shape).
pub fn print_ablation(
    title: &str,
    rows: &[(String, String, f64, f64, f64, f64)], // device, model, before, after, paper_before, paper_after
) {
    println!("\n=== {title} ===");
    println!(
        "{:<20} {:<18} {:>10} {:>10} {:>8} | {:>10} {:>10} {:>8}",
        "Device", "Model", "Before", "After", "Speedup", "p:Before", "p:After", "p:Sp"
    );
    for (dev, model, before, after, pb, pa) in rows {
        println!(
            "{:<20} {:<18} {:>10.2} {:>10.2} {:>8.2} | {:>10.2} {:>10.2} {:>8.2}",
            dev,
            model,
            before,
            after,
            before / after,
            pb,
            pa,
            pb / pa
        );
    }
}

/// Compute the Ours-vs-baseline rows for one platform (Tables 1–3).
pub fn overall_table(platform: &Platform, paper: &[crate::paper::OverallRow]) -> Vec<Row> {
    let budget = harness_budget();
    let provider = tuned_provider_for(platform, &budget);
    let baseline = unigpu_baselines::baseline_for(platform);
    let aisage = platform.gpu.vendor == unigpu_device::Vendor::Arm;
    full_zoo()
        .iter()
        .zip(paper)
        .map(|(entry, &(pname, pours, pbase))| {
            assert_eq!(entry.name, pname, "zoo order must match paper tables");
            let g = (entry.build)(aisage);
            let ours = ours_tuned_latency(&g, platform, &provider);
            let base = baseline
                .latency(&g, platform, entry.is_detection)
                .map(|r| r.total_ms);
            Row {
                model: entry.name.to_string(),
                ours_ms: ours.total_ms,
                baseline_ms: base,
                paper_ours_ms: pours,
                paper_baseline_ms: pbase,
            }
        })
        .collect()
}

/// Write a machine-readable benchmark artifact as `BENCH_<name>.json` in
/// the working directory (or under `UNIGPU_BENCH_DIR`), and return the
/// path. These files are the perf trajectory: each run overwrites its own
/// artifact, so diffing two checkouts diffs the numbers.
pub fn write_bench_json(name: &str, value: &serde_json::Value) -> PathBuf {
    let dir = std::env::var("UNIGPU_BENCH_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("."));
    std::fs::create_dir_all(&dir).ok();
    let path = dir.join(format!("BENCH_{name}.json"));
    let body = serde_json::to_string_pretty(value).expect("bench JSON serializes");
    std::fs::write(&path, body)
        .unwrap_or_else(|e| panic!("failed to write {}: {e}", path.display()));
    path
}

/// Default tuning budget for harness binaries (overridable via env).
pub fn harness_budget() -> TuningBudget {
    let trials = std::env::var("UNIGPU_TRIALS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(96);
    TuningBudget { trials_per_workload: trials, noise: 0.0, seed: 2019, graph_candidates: 4 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_speedup_math() {
        let r = Row {
            model: "m".into(),
            ours_ms: 50.0,
            baseline_ms: Some(100.0),
            paper_ours_ms: 10.0,
            paper_baseline_ms: None,
        };
        assert_eq!(r.speedup(), Some(2.0));
        assert_eq!(r.paper_speedup(), None);
    }

    #[test]
    fn db_path_is_per_device() {
        assert_ne!(db_path(&Platform::deeplens()), db_path(&Platform::aisage()));
    }
}
