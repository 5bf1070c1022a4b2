//! The six workloads. Each exposes `run(ctx, tracer)` (serve has two):
//! set-up through [`Ctx::setup`], the timed section through
//! [`Ctx::measure`], output checks through [`Ctx::check`], and — in the
//! traced run — the per-layer probes of the layers it exercises.
//!
//! [`Ctx::setup`]: crate::harness::Ctx::setup
//! [`Ctx::measure`]: crate::harness::Ctx::measure
//! [`Ctx::check`]: crate::harness::Ctx::check

pub mod compile_zoo;
pub mod exec_functional;
pub mod fleet_wire;
pub mod serve;
pub mod tune_zoo;

use crate::harness::Ctx;
use crate::stats::{self, median, percentile};
use unigpu::baselines::baseline_for;
use unigpu::device::Platform;
use unigpu::engine::CompiledModel;
use unigpu::graph::Graph;
use unigpu::models::{full_zoo, ModelEntry};

/// The zoo entry named `name`.
pub fn zoo_entry(name: &str) -> ModelEntry {
    full_zoo()
        .into_iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("`{name}` is not in the model zoo"))
}

/// The model as the paper evaluates it on `platform` (aiSage shrinks
/// detection inputs, §4.2).
pub fn build_for(entry: &ModelEntry, platform: &Platform) -> Graph {
    (entry.build)(platform.name.contains("aiSage"))
}

/// One model × platform cell of the simulated-clock tables.
pub struct SimCell {
    /// Simulated single-sample latency, ms.
    pub ours_ms: f64,
    /// Simulated throughput of one lane running batches of 8, requests/s.
    pub batch8_rps: f64,
    /// The platform's vendor library on the same model, ms; `None` where the
    /// library does not run the model (the "—" cells of Table 1).
    pub vendor_ms: Option<f64>,
}

impl SimCell {
    pub fn price(
        compiled: &CompiledModel,
        model: &Graph,
        entry: &ModelEntry,
        platform: &Platform,
    ) -> SimCell {
        SimCell {
            ours_ms: compiled.estimate().total_ms,
            batch8_rps: 8000.0 / compiled.estimate_batch_ms(8),
            vendor_ms: baseline_for(platform)
                .latency(model, platform, entry.is_detection)
                .map(|r| r.total_ms),
        }
    }
}

/// Geo-mean over the cells the vendor supports of vendor ms ÷ ours — the
/// headline ratio of the paper's Tables 1–3.
pub fn speedup_vs_vendor(cells: &[SimCell]) -> f64 {
    let ratios: Vec<f64> = cells
        .iter()
        .filter_map(|c| c.vendor_ms.map(|v| v / c.ours_ms))
        .collect();
    stats::geo_mean(&ratios)
}

/// The fixed rate ladder behind `sim_goodput_rps`, as shares of capacity.
pub const LADDER: [f64; 5] = [0.5, 0.7, 0.85, 1.0, 1.2];

/// True when requests near the end of a run wait much longer than those in
/// its first half: the queue was still growing when arrivals stopped.
/// `latencies_ms` is in arrival order.
fn backlog_grows(latencies_ms: &[f64]) -> bool {
    let n = latencies_ms.len();
    n < 100 || median(&latencies_ms[n - n / 10..]) > 2.0 * median(&latencies_ms[..n / 2])
}

/// Offers each ladder step through `offer(ctx, load)`, `load` being the share
/// of `capacity_rps` to offer, which
/// returns the completed requests' latencies in arrival order and the share
/// of requests not served. `sim_goodput_rps` becomes the highest rate whose
/// p99 stays within `limit_ms` with at most 1 % not served and no growing
/// backlog; each pass runs once, the simulated clock being deterministic.
pub fn rate_ladder(
    ctx: &mut Ctx,
    capacity_rps: f64,
    limit_ms: f64,
    mut offer: impl FnMut(&mut Ctx, f64) -> (Vec<f64>, f64),
) {
    let mut goodput = None;
    for load in LADDER {
        let rate_rps = load * capacity_rps;
        let (latencies_ms, failed) = offer(ctx, load);
        let p99 = percentile(&latencies_ms, 0.99);
        let grows = backlog_grows(&latencies_ms);
        let pass = p99 <= limit_ms && failed <= 0.01 && !grows;
        println!(
            "ladder {load:.2} C = {rate_rps:.4} rps: p50 {:.3} p99 {p99:.3} sim ms (limit {limit_ms:.3}), failed {failed:.4}, backlog {}, {}",
            percentile(&latencies_ms, 0.5),
            if grows { "grows" } else { "steady" },
            if pass { "pass" } else { "miss" }
        );
        if pass {
            goodput = Some(rate_rps);
        }
    }
    ctx.check(goodput.is_some(), "no ladder step met the latency limit");
    ctx.set(
        "sim_goodput_rps",
        goodput.unwrap_or(LADDER[0] * capacity_rps),
    );
}
