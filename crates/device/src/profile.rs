//! Kernel launch profiles — the interface between operator schedules and the
//! device cost model.
//!
//! An operator implementation (in `unigpu-ops`) knows its algorithm: how many
//! work-items it launches, how much arithmetic and global-memory traffic each
//! performs after on-chip reuse, how well the SIMD lanes are filled, and how
//! divergent/imbalanced the control flow is. It encodes all of that in a
//! [`KernelProfile`]; [`crate::CostModel`] turns the profile into simulated
//! milliseconds for a concrete [`crate::DeviceSpec`].

use serde::{Deserialize, Serialize};

/// Analytic description of one kernel launch (or a homogeneous series of
/// launches, see [`KernelProfile::launches`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelProfile {
    /// Human tag for reports, e.g. `"conv2d_nchw"` or `"segmented_sort/merge"`.
    pub name: String,
    /// Total work-items in the global grid.
    pub work_items: usize,
    /// Work-items per work-group (OpenCL local size / CUDA block size).
    pub workgroup_size: usize,
    /// Useful floating-point operations per work-item.
    pub flops_per_item: f64,
    /// Global-memory bytes read per work-item *after* register/SLM reuse.
    pub bytes_read_per_item: f64,
    /// Global-memory bytes written per work-item.
    pub bytes_written_per_item: f64,
    /// Fraction of SIMD lanes doing useful work, in `(0, 1]`.
    pub simd_utilization: f64,
    /// Branch-divergence efficiency in `(0, 1]`; 1.0 = lockstep-friendly.
    pub divergence_factor: f64,
    /// Max-over-mean work ratio across work-items, `>= 1.0`.
    pub load_imbalance: f64,
    /// Fraction of peak DRAM bandwidth achieved by the access pattern
    /// (coalescing quality), in `(0, 1]`.
    pub coalescing: f64,
    /// Instruction-stream efficiency from unrolling/ILP, in `(0, 1]`.
    pub ilp_factor: f64,
    /// Bytes of shared-local-memory traffic per work-item. Free on devices
    /// with SLM; spilled to DRAM on Mali (which has none).
    pub slm_bytes_per_item: f64,
    /// Work-group barriers executed per work-group.
    pub barriers: usize,
    /// Number of identical kernel launches this profile stands for.
    pub launches: usize,
}

impl KernelProfile {
    /// A well-behaved dense-compute profile with all penalty factors neutral;
    /// builder methods below specialize it.
    pub fn new(name: impl Into<String>, work_items: usize) -> Self {
        KernelProfile {
            name: name.into(),
            work_items,
            workgroup_size: 64,
            flops_per_item: 0.0,
            bytes_read_per_item: 0.0,
            bytes_written_per_item: 4.0,
            simd_utilization: 1.0,
            divergence_factor: 1.0,
            load_imbalance: 1.0,
            coalescing: 1.0,
            ilp_factor: 1.0,
            slm_bytes_per_item: 0.0,
            barriers: 0,
            launches: 1,
        }
    }

    pub fn workgroup(mut self, size: usize) -> Self {
        self.workgroup_size = size.max(1);
        self
    }

    pub fn flops(mut self, per_item: f64) -> Self {
        self.flops_per_item = per_item;
        self
    }

    pub fn reads(mut self, bytes: f64) -> Self {
        self.bytes_read_per_item = bytes;
        self
    }

    pub fn writes(mut self, bytes: f64) -> Self {
        self.bytes_written_per_item = bytes;
        self
    }

    pub fn simd(mut self, utilization: f64) -> Self {
        self.simd_utilization = utilization.clamp(1e-3, 1.0);
        self
    }

    pub fn divergence(mut self, factor: f64) -> Self {
        self.divergence_factor = factor.clamp(1e-3, 1.0);
        self
    }

    pub fn imbalance(mut self, ratio: f64) -> Self {
        self.load_imbalance = ratio.max(1.0);
        self
    }

    pub fn coalesce(mut self, frac: f64) -> Self {
        self.coalescing = frac.clamp(1e-3, 1.0);
        self
    }

    pub fn ilp(mut self, factor: f64) -> Self {
        self.ilp_factor = factor.clamp(1e-3, 1.0);
        self
    }

    pub fn slm(mut self, bytes: f64) -> Self {
        self.slm_bytes_per_item = bytes;
        self
    }

    pub fn with_barriers(mut self, n: usize) -> Self {
        self.barriers = n;
        self
    }

    pub fn repeated(mut self, launches: usize) -> Self {
        self.launches = launches.max(1);
        self
    }

    /// Total useful FLOPs across the whole launch series.
    pub fn total_flops(&self) -> f64 {
        self.flops_per_item * self.work_items as f64 * self.launches as f64
    }

    /// Total DRAM bytes across the whole launch series (reads + writes).
    pub fn total_bytes(&self) -> f64 {
        (self.bytes_read_per_item + self.bytes_written_per_item)
            * self.work_items as f64
            * self.launches as f64
    }
}

/// Profile of a CPU↔GPU data movement (fallback boundary crossing, §3.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransferProfile {
    /// Payload size in bytes.
    pub bytes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_fields() {
        let p = KernelProfile::new("k", 1024)
            .workgroup(128)
            .flops(10.0)
            .reads(8.0)
            .writes(4.0)
            .simd(0.5)
            .divergence(0.8)
            .imbalance(2.0)
            .coalesce(0.9)
            .ilp(0.7)
            .slm(16.0)
            .with_barriers(3)
            .repeated(4);
        assert_eq!(p.workgroup_size, 128);
        assert_eq!(p.total_flops(), 10.0 * 1024.0 * 4.0);
        assert_eq!(p.total_bytes(), 12.0 * 1024.0 * 4.0);
        assert_eq!(p.barriers, 3);
    }

    #[test]
    fn clamping_keeps_factors_sane() {
        let p = KernelProfile::new("k", 1).simd(7.0).divergence(0.0).imbalance(0.2);
        assert_eq!(p.simd_utilization, 1.0);
        assert!(p.divergence_factor > 0.0);
        assert_eq!(p.load_imbalance, 1.0);
    }

    #[test]
    fn arithmetic_intensity() {
        let p = KernelProfile::new("k", 10).flops(100.0).reads(10.0).writes(0.0);
        assert!((p.total_flops() / p.total_bytes() - 10.0).abs() < 1e-12);
    }
}
