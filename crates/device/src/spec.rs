//! Device and platform descriptions.
//!
//! Parameters are calibrated to the three evaluation platforms of the paper
//! (§4.1). Where a physical datum is public (EU/core counts, SIMD widths,
//! memory technology) we use it; the peak-FLOPs ratios between each GPU and
//! its accompanying CPU are pinned to the paper's reported 5.16× / 6.77× /
//! 2.48× so that the fallback trade-off study (§3.1.2) reproduces.

use serde::{Deserialize, Serialize};

/// Chip vendor — drives which schedule templates and vendor baselines apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Vendor {
    Intel,
    Arm,
    Nvidia,
    /// Host CPU of any SoC (fallback target).
    Generic,
}

/// Whether a device is the integrated GPU or the accompanying CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeviceKind {
    Gpu,
    Cpu,
}

/// Programming interface the codegen emits for this device (§2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Api {
    /// Khronos OpenCL — Intel Graphics & ARM Mali.
    OpenCl,
    /// Nvidia CUDA.
    Cuda,
    /// Plain host code (CPU fallback).
    Native,
}

/// Microarchitectural description of one compute device.
///
/// The fields are exactly the quantities the paper's optimization heuristics
/// reason about: compute-unit and SIMD organisation (load balancing,
/// vectorization), the memory system (roofline), Intel's subgroup/GRF
/// extension (§3.2.1), Mali's missing shared local memory (§4.3), and
/// launch/synchronization overheads (vision operators, §3.1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// Marketing name, e.g. `"Intel HD Graphics 505"`.
    pub name: String,
    pub vendor: Vendor,
    pub kind: DeviceKind,
    pub api: Api,
    /// EUs (Intel) / shader cores (Mali) / SMs (Nvidia) / cores (CPU).
    pub compute_units: usize,
    /// Native SIMD lane count per hardware thread (warp width on Nvidia).
    pub simd_width: usize,
    /// Hardware threads resident per compute unit.
    pub threads_per_cu: usize,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Theoretical peak single-precision throughput.
    pub peak_gflops: f64,
    /// Sustained DRAM bandwidth in GB/s (shared with the CPU on an SoC).
    pub mem_bw_gbps: f64,
    /// Intel-extended OpenCL subgroups (register-file data sharing).
    pub has_subgroups: bool,
    /// Dedicated shared local memory. Mali Midgard has none: "Mali GPUs do
    /// not have shared memory in their hardware architecture" (§4.3).
    pub has_slm: bool,
    /// SLM capacity per work-group in KiB (0 when `has_slm` is false).
    pub slm_kb: usize,
    /// General-purpose register file per hardware thread, KiB (Intel: 4 KiB).
    pub grf_kb_per_thread: usize,
    /// Fixed cost to launch one kernel, µs (driver + dispatch).
    pub launch_overhead_us: f64,
    /// Cost of one work-group barrier, µs.
    pub barrier_overhead_us: f64,
    /// Fixed cost to map/unmap a buffer across the CPU↔GPU boundary, µs.
    /// Integrated GPUs share DRAM, so only a mapping handshake is paid.
    pub transfer_overhead_us: f64,
    /// Effective CPU↔GPU copy bandwidth, GB/s (shared-memory remap).
    pub transfer_bw_gbps: f64,
    /// Exponent applied to a kernel's divergence factor: how badly this
    /// architecture handles branch divergence. Nvidia's independent warp
    /// scheduler tolerates it (1.0); Mali Midgard serializes divergent
    /// quads ("branch divergence matter[s] more", §4.3) — 2.0.
    pub divergence_sensitivity: f64,
    /// Calibration scale applied to all modelled kernel times so that
    /// end-to-end latencies land in the paper's measured range. Documented in
    /// EXPERIMENTS.md; identical for tuned/untuned/baseline paths, so every
    /// *ratio* the evaluation reports is unaffected by it.
    pub calibration: f64,
}

impl DeviceSpec {
    /// Intel HD Graphics 505 (Apollo Lake Gen9) — AWS DeepLens GPU.
    ///
    /// 18 EUs, each with two SIMD-4 FPU pipes (FMA); the OpenCL runtime
    /// exposes SIMD-8/16 subgroups backed by the 4 KiB GRF per hardware
    /// thread.
    pub fn intel_hd505() -> Self {
        DeviceSpec {
            name: "Intel HD Graphics 505".into(),
            vendor: Vendor::Intel,
            kind: DeviceKind::Gpu,
            api: Api::OpenCl,
            compute_units: 18,
            simd_width: 8,
            threads_per_cu: 7,
            clock_ghz: 0.70,
            peak_gflops: 104.0,
            mem_bw_gbps: 14.9,
            has_subgroups: true,
            has_slm: true,
            slm_kb: 64,
            grf_kb_per_thread: 4,
            launch_overhead_us: 45.0,
            barrier_overhead_us: 1.2,
            transfer_overhead_us: 30.0,
            transfer_bw_gbps: 8.0,
            divergence_sensitivity: 1.1,
            calibration: 1.22,
        }
    }

    /// Intel Atom x5-E3930 (2 cores, 1.3 GHz) — AWS DeepLens CPU.
    ///
    /// Peak pinned to HD 505 / 5.16 (paper §1).
    pub fn atom_x5_e3930() -> Self {
        DeviceSpec {
            name: "Intel Atom x5-E3930".into(),
            vendor: Vendor::Generic,
            kind: DeviceKind::Cpu,
            api: Api::Native,
            compute_units: 2,
            simd_width: 8,
            threads_per_cu: 1,
            clock_ghz: 1.3,
            peak_gflops: 104.0 / 5.16,
            mem_bw_gbps: 14.9,
            has_subgroups: false,
            has_slm: false,
            slm_kb: 0,
            grf_kb_per_thread: 0,
            launch_overhead_us: 0.5,
            barrier_overhead_us: 0.3,
            transfer_overhead_us: 0.0,
            transfer_bw_gbps: 14.9,
            divergence_sensitivity: 1.0,
            calibration: 1.0,
        }
    }

    /// ARM Mali T-860 MP4 (Midgard 4th gen) — Acer aiSage GPU (RK3399 SoC).
    ///
    /// 4 shader cores × 2 arithmetic pipes × SIMD-4 FMA. No shared local
    /// memory: OpenCL `local` buffers are emulated in main memory, which is
    /// why schedules that lean on SLM are penalized on this device.
    pub fn mali_t860() -> Self {
        DeviceSpec {
            name: "ARM Mali-T860 MP4".into(),
            vendor: Vendor::Arm,
            kind: DeviceKind::Gpu,
            api: Api::OpenCl,
            compute_units: 4,
            simd_width: 4,
            threads_per_cu: 64,
            clock_ghz: 0.65,
            peak_gflops: 41.6,
            mem_bw_gbps: 12.8,
            has_subgroups: false,
            has_slm: false,
            slm_kb: 0,
            grf_kb_per_thread: 1,
            launch_overhead_us: 60.0,
            barrier_overhead_us: 2.5,
            transfer_overhead_us: 25.0,
            transfer_bw_gbps: 6.0,
            divergence_sensitivity: 2.0,
            calibration: 1.0,
        }
    }

    /// RK3399 CPU cluster (2×A72 + 4×A53) — Acer aiSage CPU.
    ///
    /// Peak pinned to Mali T-860 / 6.77 (paper §1).
    pub fn rk3399_cpu() -> Self {
        DeviceSpec {
            name: "Rockchip RK3399 CPU".into(),
            vendor: Vendor::Generic,
            kind: DeviceKind::Cpu,
            api: Api::Native,
            compute_units: 2,
            simd_width: 4,
            threads_per_cu: 1,
            clock_ghz: 1.8,
            peak_gflops: 41.6 / 6.77,
            mem_bw_gbps: 12.8,
            has_subgroups: false,
            has_slm: false,
            slm_kb: 0,
            grf_kb_per_thread: 0,
            launch_overhead_us: 0.5,
            barrier_overhead_us: 0.3,
            transfer_overhead_us: 0.0,
            transfer_bw_gbps: 12.8,
            divergence_sensitivity: 1.0,
            calibration: 1.0,
        }
    }

    /// Nvidia Maxwell integrated GPU (128 CUDA cores) — Jetson Nano.
    pub fn maxwell_nano() -> Self {
        DeviceSpec {
            name: "Nvidia Maxwell (Jetson Nano)".into(),
            vendor: Vendor::Nvidia,
            kind: DeviceKind::Gpu,
            api: Api::Cuda,
            compute_units: 1, // one SM with 128 CUDA cores
            simd_width: 32,   // warp width
            threads_per_cu: 64, // resident warps
            clock_ghz: 0.9216,
            peak_gflops: 236.0,
            mem_bw_gbps: 25.6,
            has_subgroups: false, // warp shuffles exist; modelled via SLM path
            has_slm: true,
            slm_kb: 64,
            grf_kb_per_thread: 2,
            launch_overhead_us: 12.0,
            barrier_overhead_us: 0.6,
            transfer_overhead_us: 15.0,
            transfer_bw_gbps: 12.0,
            divergence_sensitivity: 1.0,
            calibration: 1.60,
        }
    }

    /// Quad Cortex-A57 — Jetson Nano CPU. Peak pinned to Maxwell / 2.48.
    pub fn cortex_a57_quad() -> Self {
        DeviceSpec {
            name: "ARM Cortex-A57 x4".into(),
            vendor: Vendor::Generic,
            kind: DeviceKind::Cpu,
            api: Api::Native,
            compute_units: 4,
            simd_width: 4,
            threads_per_cu: 1,
            clock_ghz: 1.43,
            peak_gflops: 236.0 / 2.48,
            mem_bw_gbps: 25.6,
            has_subgroups: false,
            has_slm: false,
            slm_kb: 0,
            grf_kb_per_thread: 0,
            launch_overhead_us: 0.5,
            barrier_overhead_us: 0.3,
            transfer_overhead_us: 0.0,
            transfer_bw_gbps: 25.6,
            divergence_sensitivity: 1.0,
            calibration: 1.0,
        }
    }

    /// Max concurrently resident work-items.
    pub fn max_concurrency(&self) -> usize {
        self.compute_units * self.threads_per_cu * self.simd_width
    }
}

impl std::fmt::Display for DeviceSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({:?}/{:?}, {} CU x SIMD-{}, {:.1} GFLOPS, {:.1} GB/s)",
            self.name,
            self.vendor,
            self.api,
            self.compute_units,
            self.simd_width,
            self.peak_gflops,
            self.mem_bw_gbps
        )
    }
}

/// One evaluation platform: an SoC pairing an integrated GPU with its CPU.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Platform {
    pub name: String,
    pub gpu: DeviceSpec,
    pub cpu: DeviceSpec,
}

impl Platform {
    /// AWS DeepLens: Intel Atom x5-E3930 SoC with HD Graphics 505.
    pub fn deeplens() -> Self {
        Platform {
            name: "AWS DeepLens".into(),
            gpu: DeviceSpec::intel_hd505(),
            cpu: DeviceSpec::atom_x5_e3930(),
        }
    }

    /// Acer aiSage: Rockchip RK3399 with Mali T-860 MP4.
    pub fn aisage() -> Self {
        Platform {
            name: "Acer aiSage".into(),
            gpu: DeviceSpec::mali_t860(),
            cpu: DeviceSpec::rk3399_cpu(),
        }
    }

    /// Nvidia Jetson Nano: quad A57 with 128-core Maxwell GPU.
    pub fn jetson_nano() -> Self {
        Platform {
            name: "Nvidia Jetson Nano".into(),
            gpu: DeviceSpec::maxwell_nano(),
            cpu: DeviceSpec::cortex_a57_quad(),
        }
    }

    /// All three paper platforms, in Table 1→3 order.
    pub fn all() -> Vec<Platform> {
        vec![Platform::deeplens(), Platform::aisage(), Platform::jetson_nano()]
    }

    /// Look up a platform by CLI name or vendor alias
    /// (`deeplens|intel`, `aisage|mali`, `nano|nvidia`).
    pub fn by_name(name: &str) -> Option<Platform> {
        match name {
            "deeplens" | "intel" => Some(Platform::deeplens()),
            "aisage" | "mali" => Some(Platform::aisage()),
            "nano" | "nvidia" => Some(Platform::jetson_nano()),
            _ => None,
        }
    }

    /// Theoretical GPU:CPU peak ratio (paper §1: 5.16×, 6.77×, 2.48×).
    pub fn gpu_cpu_ratio(&self) -> f64 {
        self.gpu.peak_gflops / self.cpu.peak_gflops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_gpu_cpu_ratios_hold() {
        let eps = 1e-9;
        assert!((Platform::deeplens().gpu_cpu_ratio() - 5.16).abs() < eps);
        assert!((Platform::aisage().gpu_cpu_ratio() - 6.77).abs() < eps);
        assert!((Platform::jetson_nano().gpu_cpu_ratio() - 2.48).abs() < eps);
    }

    #[test]
    fn mali_has_no_slm_and_no_subgroups() {
        let mali = DeviceSpec::mali_t860();
        assert!(!mali.has_slm);
        assert!(!mali.has_subgroups);
        assert_eq!(mali.api, Api::OpenCl);
    }

    #[test]
    fn intel_has_subgroups() {
        let hd = DeviceSpec::intel_hd505();
        assert!(hd.has_subgroups);
        assert_eq!(hd.grf_kb_per_thread, 4);
    }

    #[test]
    fn nvidia_uses_cuda() {
        assert_eq!(DeviceSpec::maxwell_nano().api, Api::Cuda);
        assert_eq!(DeviceSpec::maxwell_nano().simd_width, 32);
    }

    #[test]
    fn concurrency_is_product() {
        let hd = DeviceSpec::intel_hd505();
        assert_eq!(hd.max_concurrency(), 18 * 7 * 8);
    }

    #[test]
    fn platforms_enumerate_in_table_order() {
        let names: Vec<_> = Platform::all().into_iter().map(|p| p.name).collect();
        assert_eq!(names, ["AWS DeepLens", "Acer aiSage", "Nvidia Jetson Nano"]);
    }

    #[test]
    fn display_is_informative() {
        let s = format!("{}", DeviceSpec::intel_hd505());
        assert!(s.contains("Intel HD Graphics 505"));
        assert!(s.contains("SIMD-8"));
    }

    #[test]
    fn cpus_are_cpu_kind() {
        assert_eq!(DeviceSpec::atom_x5_e3930().kind, DeviceKind::Cpu);
        assert_eq!(DeviceSpec::intel_hd505().kind, DeviceKind::Gpu);
    }
}
