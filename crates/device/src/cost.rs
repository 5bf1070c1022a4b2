//! Analytic roofline-with-penalties cost model.
//!
//! `time = launches·launch_overhead
//!        + barriers·waves·barrier_overhead
//!        + max(compute_time, memory_time)`
//!
//! where
//!
//! * `compute_time = flops / (peak · eff)` with
//!   `eff = base_issue · simd_util · divergence · ilp · load_imbalance⁻¹ ·
//!   occupancy`;
//! * `memory_time = dram_bytes / (bw · coalescing)`, with SLM traffic spilled
//!   into `dram_bytes` on devices without shared local memory (Mali §4.3).
//!
//! Every schedule knob in the conv template (§3.2.2) and every algorithmic
//! choice in the vision operators (§3.1.1) maps to one of these factors, so
//! the tuner's search landscape is structured like the real device's.

use crate::{DeviceKind, DeviceSpec, KernelProfile, TransferProfile};

/// Fraction of theoretical peak reachable by perfectly scheduled code.
/// Real kernels never hit 100 % of datasheet FLOPs; these ceilings are the
/// per-architecture calibration points (see EXPERIMENTS.md).
fn base_issue_efficiency(spec: &DeviceSpec) -> f64 {
    match spec.kind {
        DeviceKind::Gpu => 0.60,
        // Edge CPUs juggle OS daemons and thermal throttling (§1: "the
        // execution time on CPUs is less stable"); their sustained fraction
        // of peak is lower.
        DeviceKind::Cpu => 0.50,
    }
}

/// The cost model for one device.
#[derive(Debug, Clone)]
pub struct CostModel {
    spec: DeviceSpec,
}

impl CostModel {
    pub fn new(spec: DeviceSpec) -> Self {
        CostModel { spec }
    }

    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Occupancy factor in `(0, 1]`: how well the grid fills the machine,
    /// including tail-wave quantization.
    ///
    /// `work_items / conc` when under-subscribed; otherwise the efficiency
    /// loss of the final partial wave (`ceil(n/conc)·conc / n`)⁻¹.
    pub fn occupancy(&self, work_items: usize, workgroup_size: usize) -> f64 {
        let conc = self.spec.max_concurrency();
        if work_items == 0 {
            return 1e-3;
        }
        // Work-groups cannot be split across compute units: round work up to
        // whole groups first.
        let groups = work_items.div_ceil(workgroup_size.max(1));
        let rounded = groups * workgroup_size.max(1);
        if rounded < conc {
            (rounded as f64 / conc as f64).max(1e-3)
        } else {
            let waves = rounded.div_ceil(conc);
            rounded as f64 / (waves * conc) as f64
        }
    }

    /// Modelled wall-clock of one [`KernelProfile`], in milliseconds.
    pub fn kernel_time_ms(&self, p: &KernelProfile) -> f64 {
        let spec = &self.spec;
        let launches = p.launches as f64;

        // ---- compute roof ----
        let occ = self.occupancy(p.work_items, p.workgroup_size);
        // Divergence hurts more on architectures that serialize divergent
        // lanes (Mali Midgard, §4.3) — modelled as an exponent on the
        // kernel's divergence factor.
        let divergence = p.divergence_factor.powf(spec.divergence_sensitivity);
        let eff = base_issue_efficiency(spec)
            * p.simd_utilization
            * divergence
            * p.ilp_factor
            * occ
            / p.load_imbalance;
        let flops = p.total_flops();
        let compute_ms = if flops > 0.0 {
            flops / (spec.peak_gflops * 1e9 * eff.max(1e-6)) * 1e3
        } else {
            0.0
        };

        // ---- memory roof ----
        let mut dram_bytes = p.total_bytes();
        if p.slm_bytes_per_item > 0.0 && !spec.has_slm {
            // No shared local memory: `local` arrays live in main memory.
            dram_bytes += p.slm_bytes_per_item * p.work_items as f64 * launches;
        }
        // Memory time also suffers load imbalance: a straggler group streams
        // its extra bytes alone after the others drain.
        let mem_ms = if dram_bytes > 0.0 {
            dram_bytes / (spec.mem_bw_gbps * 1e9 * p.coalescing) * 1e3 * p.load_imbalance
        } else {
            0.0
        };

        // ---- fixed overheads ----
        let conc = spec.max_concurrency();
        let waves = (p.work_items * p.launches).div_ceil(conc.max(1)).max(1);
        let overhead_ms = launches * spec.launch_overhead_us * 1e-3
            + p.barriers as f64 * waves as f64 * spec.barrier_overhead_us * 1e-3;

        (overhead_ms + compute_ms.max(mem_ms)) * spec.calibration
    }

    /// CPU↔GPU boundary crossing (§3.1.2). Integrated GPUs share DRAM with
    /// the CPU, so this is a map/unmap handshake plus a remap-bandwidth copy.
    pub fn transfer_time_ms(&self, t: &TransferProfile) -> f64 {
        (self.spec.transfer_overhead_us * 1e-3
            + t.bytes as f64 / (self.spec.transfer_bw_gbps * 1e9) * 1e3)
            * self.spec.calibration
    }
}

/// A frozen per-node prediction table: what the cost model claimed each
/// node of a compiled graph would cost at compile time.
///
/// The serving layer's drift monitor compares these predictions against
/// observed simulated latency; [`CostTable::predicted_ms`] is the per-node
/// accessor that comparison keys on. Entries keep their compile-time order
/// (the graph's execution order), and lookups scan — tables are tens of
/// nodes, queried per retired batch, so a map would buy nothing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CostTable {
    entries: Vec<(String, f64)>,
}

impl CostTable {
    pub fn new(entries: Vec<(String, f64)>) -> Self {
        CostTable { entries }
    }

    /// Predicted latency of one node, ms. `None` when the node is not in
    /// the table (e.g. fused away at compile time).
    pub fn predicted_ms(&self, node: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _)| n == node)
            .map(|&(_, ms)| ms)
    }

    /// Sum of every per-node prediction, ms.
    pub fn total_ms(&self) -> f64 {
        self.entries.iter().map(|&(_, ms)| ms).sum()
    }

    /// The `(node, predicted ms)` entries in compile-time order.
    pub fn entries(&self) -> &[(String, f64)] {
        &self.entries
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Platform;

    fn dense_profile(items: usize) -> KernelProfile {
        KernelProfile::new("gemm", items)
            .workgroup(128)
            .flops(512.0)
            .reads(16.0)
            .writes(4.0)
    }

    #[test]
    fn occupancy_undersubscribed_scales_linearly() {
        let m = CostModel::new(DeviceSpec::intel_hd505());
        let conc = m.spec().max_concurrency();
        let half = m.occupancy(conc / 2, 1);
        assert!((half - 0.5).abs() < 0.05, "half-filled machine ~0.5, got {half}");
        assert!(m.occupancy(conc * 8, 64) > 0.9);
    }

    #[test]
    fn occupancy_tail_wave_quantization() {
        let m = CostModel::new(DeviceSpec::mali_t860());
        let conc = m.spec().max_concurrency();
        // 1.5 waves: efficiency ~ 1.5/2
        let occ = m.occupancy(conc + conc / 2, 1);
        assert!((occ - 0.75).abs() < 0.05, "got {occ}");
    }

    #[test]
    fn more_work_takes_longer() {
        let m = CostModel::new(DeviceSpec::maxwell_nano());
        let t1 = m.kernel_time_ms(&dense_profile(1 << 14));
        let t2 = m.kernel_time_ms(&dense_profile(1 << 16));
        assert!(t2 > t1 * 2.0, "t1={t1} t2={t2}");
    }

    #[test]
    fn divergence_slows_kernels() {
        let m = CostModel::new(DeviceSpec::intel_hd505());
        let good = dense_profile(1 << 16);
        let bad = dense_profile(1 << 16).divergence(0.25);
        assert!(m.kernel_time_ms(&bad) > 2.0 * m.kernel_time_ms(&good));
    }

    #[test]
    fn load_imbalance_slows_kernels() {
        let m = CostModel::new(DeviceSpec::mali_t860());
        let good = dense_profile(1 << 16);
        let bad = dense_profile(1 << 16).imbalance(4.0);
        assert!(m.kernel_time_ms(&bad) > 3.0 * m.kernel_time_ms(&good));
    }

    #[test]
    fn slm_is_free_with_hardware_and_costly_without() {
        let with = CostModel::new(DeviceSpec::maxwell_nano());
        let without = CostModel::new(DeviceSpec::mali_t860());
        let p = KernelProfile::new("k", 1 << 16)
            .flops(32.0)
            .reads(4.0)
            .writes(4.0)
            .slm(64.0);
        let q = p.clone().slm(0.0);
        // On Maxwell the SLM traffic is on-chip: same time either way.
        assert!((with.kernel_time_ms(&p) - with.kernel_time_ms(&q)).abs() < 1e-9);
        // On Mali the SLM traffic spills to DRAM: strictly slower.
        assert!(without.kernel_time_ms(&p) > without.kernel_time_ms(&q));
    }

    #[test]
    fn memory_bound_kernels_hit_bandwidth_roof() {
        let m = CostModel::new(DeviceSpec::maxwell_nano());
        // Pure streaming: 1 flop, 64 bytes per item.
        let p = KernelProfile::new("copy", 1 << 20).flops(1.0).reads(32.0).writes(32.0);
        let ms = m.kernel_time_ms(&p);
        let bytes = p.total_bytes();
        let achieved_gbps = bytes / (ms * 1e-3) / 1e9;
        assert!(achieved_gbps <= m.spec().mem_bw_gbps * 1.01);
        assert!(achieved_gbps > m.spec().mem_bw_gbps * 0.5);
    }

    #[test]
    fn launch_overhead_dominates_tiny_kernels() {
        let m = CostModel::new(DeviceSpec::mali_t860());
        let tiny = KernelProfile::new("tiny", 8).flops(1.0);
        let ms = m.kernel_time_ms(&tiny);
        assert!(ms >= m.spec().launch_overhead_us * 1e-3);
        // 100 launches cost ~100x the overhead.
        let many = tiny.clone().repeated(100);
        assert!(m.kernel_time_ms(&many) > 99.0 * m.spec().launch_overhead_us * 1e-3);
    }

    #[test]
    fn effective_gflops_bounded_by_peak() {
        for p in Platform::all() {
            let m = CostModel::new(p.gpu.clone());
            let prof = dense_profile(1 << 18).reads(4.0);
            let gflops = prof.total_flops() / (m.kernel_time_ms(&prof) * 1e-3) / 1e9;
            assert!(gflops <= m.spec().peak_gflops);
        }
    }

    #[test]
    fn transfer_has_fixed_plus_linear_cost() {
        let m = CostModel::new(DeviceSpec::intel_hd505());
        let small = m.transfer_time_ms(&TransferProfile { bytes: 16 });
        let big = m.transfer_time_ms(&TransferProfile { bytes: 64 << 20 });
        assert!(small >= 0.03 - 1e-9); // >= map overhead
        assert!(big > small * 10.0);
    }

    #[test]
    fn zero_work_costs_only_overhead() {
        let m = CostModel::new(DeviceSpec::intel_hd505());
        let p = KernelProfile::new("noop", 0).flops(0.0).writes(0.0);
        let ms = m.kernel_time_ms(&p);
        let expect = m.spec().launch_overhead_us * 1e-3 * m.spec().calibration;
        assert!((ms - expect).abs() < 1e-9);
    }

    #[test]
    fn cost_table_lookups_and_total() {
        let t = CostTable::new(vec![
            ("conv0".to_string(), 1.5),
            ("relu0".to_string(), 0.25),
            ("conv1".to_string(), 2.25),
        ]);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.predicted_ms("conv1"), Some(2.25));
        assert_eq!(t.predicted_ms("missing"), None);
        assert!((t.total_ms() - 4.0).abs() < 1e-12);
        assert_eq!(t.entries()[0].0, "conv0");
        assert_eq!(CostTable::default().total_ms(), 0.0);
        assert!(CostTable::default().is_empty());
    }

    #[test]
    fn cost_table_edge_cases() {
        // an explicitly empty table behaves exactly like the default
        let empty = CostTable::new(vec![]);
        assert!(empty.is_empty());
        assert_eq!(empty.len(), 0);
        assert_eq!(empty.total_ms(), 0.0);
        assert_eq!(empty.predicted_ms("conv0"), None);
        assert_eq!(empty.entries(), &[]);
        assert_eq!(empty, CostTable::default());

        // duplicate node names: lookup scans in order, first entry wins,
        // but total still counts every entry
        let dup = CostTable::new(vec![
            ("conv0".to_string(), 1.0),
            ("conv0".to_string(), 9.0),
        ]);
        assert_eq!(dup.predicted_ms("conv0"), Some(1.0));
        assert!((dup.total_ms() - 10.0).abs() < 1e-12);

        // zero-cost entries are present (Some(0.0)), distinct from missing
        let zero = CostTable::new(vec![("fused0".to_string(), 0.0)]);
        assert_eq!(zero.predicted_ms("fused0"), Some(0.0));
        assert_eq!(zero.predicted_ms("fused1"), None);
        assert!(!zero.is_empty());
    }
}
