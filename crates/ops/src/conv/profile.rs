//! The schedule-config → cost-model bridge for convolutions.
//!
//! This module encodes the optimization insights of §3.2.1/§3.2.2 as an
//! analytic mapping from a [`ConvConfig`] to a [`KernelProfile`]:
//!
//! * register tiles raise arithmetic intensity (input/weight reuse) until
//!   they exceed the register file, at which point spills re-inflate memory
//!   traffic — on Intel the GRF "is playing a much more critical role than
//!   others" (§3.2.1);
//! * Intel subgroups broadcast weights through the hardware thread's shared
//!   register file (`intel_subgroup_block_read`), multiplying weight reuse;
//! * staging input tiles in shared local memory helps — except on Mali,
//!   where SLM does not exist and the cost model spills it to DRAM;
//! * each vendor rewards a different vectorization style (warp-width
//!   work-groups on Nvidia, explicit `float4` on Mali, SIMD-8/16 subgroups
//!   on Intel);
//! * unrolling buys instruction-level parallelism with an icache cliff;
//! * imperfect tiles cost guard-branch divergence.

use super::config::ConvConfig;
use crate::workload::ConvWorkload;
use unigpu_device::{DeviceSpec, KernelProfile, Vendor};

/// Baseline input reuse from caches even without explicit staging (rows of
/// the input tile overlap between adjacent work-items).
const BASE_INPUT_REUSE: f64 = 2.0;
/// Cap on intra-work-group weight-sharing reuse.
const MAX_WG_WEIGHT_REUSE: f64 = 32.0;
/// Extra input reuse bought by SLM staging.
const SLM_INPUT_REUSE: f64 = 4.0;
/// Scalar (non-vector) access wastes most of each DRAM burst.
const SCALAR_COALESCING: f64 = 0.35;
/// Wide vector access achieves most of peak bandwidth.
const VECTOR_COALESCING: f64 = 0.92;

/// Registers (in f32) available to one work-item's accumulator tile.
fn register_capacity(spec: &DeviceSpec) -> f64 {
    let per_thread = (spec.grf_kb_per_thread.max(1) * 1024 / 4) as f64;
    match spec.vendor {
        // Intel: a hardware thread's 4 KiB GRF is shared by the SIMD lanes
        // (work-items) of its subgroup.
        Vendor::Intel => per_thread / spec.simd_width as f64,
        _ => per_thread,
    }
}

/// Vendor-specific SIMD-lane utilization of a configuration (§2.1, §3.2.1).
fn simd_utilization(cfg: &ConvConfig, spec: &DeviceSpec) -> f64 {
    let wg = cfg.workgroup_size();
    let vw = cfg.vector_width.max(1);
    match spec.vendor {
        Vendor::Nvidia => {
            // Warps are 32 wide; partial warps idle lanes. Explicit vectors
            // beyond float4 only add register pressure.
            let warp = spec.simd_width;
            let full = (wg / warp) * warp;
            let warp_util = if wg >= warp { full as f64 / wg as f64 } else { wg as f64 / warp as f64 };
            let vw_penalty = if vw > 4 { 0.9 } else { 1.0 };
            warp_util * vw_penalty
        }
        Vendor::Intel => {
            // The compiler packs work-items into SIMD-8/16 instructions when
            // the kernel vector width matches the FPU layout (§3.2.1).
            let lanes = spec.simd_width;
            if vw >= lanes {
                if vw.is_multiple_of(lanes) {
                    1.0
                } else {
                    0.7
                }
            } else {
                0.45 + 0.55 * vw as f64 / lanes as f64
            }
        }
        Vendor::Arm => {
            // Mali executes explicit vec4 arithmetic; scalar code wastes the
            // SIMD ALU.
            let lanes = spec.simd_width as f64; // 4
            let base = (vw as f64).min(lanes) / lanes;
            if vw > spec.simd_width {
                base * 0.85 // split into multiple ops, mild overhead
            } else {
                base
            }
        }
        Vendor::Generic => (vw as f64).min(spec.simd_width as f64) / spec.simd_width as f64,
    }
}

/// Instruction-level-parallelism factor from reduction unrolling.
fn ilp_factor(cfg: &ConvConfig) -> f64 {
    let u = cfg.unroll.max(1) as f64;
    let gain = 0.62 + 0.38 * (u.min(8.0) / 8.0);
    if cfg.unroll > 16 {
        gain * 0.85 // icache pressure from over-unrolling
    } else {
        gain
    }
}

/// Build the cost-model profile for one convolution launch.
pub fn conv_profile(w: &ConvWorkload, cfg: &ConvConfig, spec: &DeviceSpec) -> KernelProfile {
    let icg = w.in_ch_per_group() as f64;
    let tile = cfg.tile_size() as f64;
    let items = cfg.work_items(w);
    let red = icg * (w.kernel_h * w.kernel_w) as f64;
    let flops_item = 2.0 * red * tile;

    // ---- register pressure / spills ----
    let regs_needed = tile + cfg.tile_ow as f64 + cfg.tile_oc as f64 + 2.0 * cfg.vector_width as f64 + 8.0;
    let spill = (regs_needed / register_capacity(spec)).max(1.0);

    // ---- global traffic per item after reuse ----
    let in_rows = (cfg.tile_oh * w.stride_h + w.kernel_h).saturating_sub(w.stride_h) as f64;
    let in_cols = (cfg.tile_ow * w.stride_w + w.kernel_w).saturating_sub(w.stride_w) as f64;
    let in_bytes = icg * in_rows * in_cols * 4.0;
    let wgt_bytes = cfg.tile_oc as f64 * red * 4.0;

    let mut weight_reuse = (cfg.workgroup_size() as f64).min(MAX_WG_WEIGHT_REUSE);
    let mut input_reuse = BASE_INPUT_REUSE;
    let mut slm_bytes = 0.0;
    if cfg.use_subgroup && spec.has_subgroups {
        weight_reuse *= spec.simd_width as f64;
    }
    let mut barriers = 0;
    if cfg.use_slm {
        input_reuse *= SLM_INPUT_REUSE;
        slm_bytes = in_bytes; // charged to DRAM on SLM-less devices (Mali)
        barriers = 2; // fill + drain synchronization around the staged tile
    }
    let mut bytes_read = (in_bytes / input_reuse + wgt_bytes / weight_reuse) * spill;
    let bytes_written = tile * 4.0 * spill;

    // Depthwise layout gap: a depthwise kernel without the right data-
    // movement idiom for its device pays strided per-channel-plane walks
    // that re-fetch the halo on every tap. On Intel the idiom is subgroup
    // block reads over a blocked layout — clDNN's mature kernel has it, our
    // template does not ("optimizing depth-wise convolutions on Intel
    // Graphics ... remains our future work", §4.2). On Mali it is explicit
    // vec4 staging, which tuned schedules reach and naive ones do not.
    let dw_gap_refetch = if !w.is_depthwise() {
        0.0
    } else {
        match spec.vendor {
            // clDNN's kernel uses subgroup block reads; ours cannot.
            Vendor::Intel if !(cfg.use_subgroup && spec.has_subgroups) => 12.0,
            // On Mali only explicit vec4 staging avoids the refetch storm.
            Vendor::Arm if cfg.vector_width < 4 => 6.0,
            _ => 0.0,
        }
    };
    let dw_layout_gap = dw_gap_refetch > 0.0;
    if dw_layout_gap {
        // The strided per-channel-plane walks defeat the cache entirely:
        // traffic is the raw halo footprint times the refetch factor, with
        // no register/SLM reuse credit.
        bytes_read = (in_bytes * dw_gap_refetch + wgt_bytes) * spill;
    }

    // ---- penalty factors ----
    let guards = [
        !w.out_channels.is_multiple_of(cfg.tile_oc),
        !w.out_h().is_multiple_of(cfg.tile_oh),
        !w.out_w().is_multiple_of(cfg.tile_ow),
    ]
    .iter()
    .filter(|&&g| g)
    .count();
    let divergence = 1.0 - 0.06 * guards as f64;

    let vw = cfg.vector_width.max(1) as f64;
    let mut coalescing = match spec.vendor {
        // Warps coalesce per-thread scalar accesses across the 32 lanes:
        // what matters is full warps, not explicit vector width.
        Vendor::Nvidia => {
            if cfg.workgroup_size().is_multiple_of(spec.simd_width) {
                VECTOR_COALESCING
            } else {
                0.55
            }
        }
        // Mali's tiled memory system is brutally sensitive to scalar loads:
        // un-vectorized kernels waste most of every burst.
        Vendor::Arm => {
            let scalar = 0.10;
            if cfg.vector_width >= 4 {
                VECTOR_COALESCING
            } else {
                scalar + (VECTOR_COALESCING - scalar) * (vw - 1.0) / 3.0
            }
        }
        // Intel/CPU: wide explicit loads fill the DRAM bursts.
        _ => {
            if cfg.vector_width >= 4 {
                VECTOR_COALESCING
            } else {
                SCALAR_COALESCING + (VECTOR_COALESCING - SCALAR_COALESCING) * (vw - 1.0) / 3.0
            }
        }
    };

    if dw_layout_gap && spec.vendor == Vendor::Intel {
        coalescing *= 0.3;
    }

    KernelProfile::new(format!("conv2d[{}]", w.key()), items)
        .workgroup(cfg.workgroup_size())
        .flops(flops_item)
        .reads(bytes_read)
        .writes(bytes_written)
        .simd(simd_utilization(cfg, spec))
        .divergence(divergence)
        .coalesce(coalescing)
        .ilp(ilp_factor(cfg))
        .slm(slm_bytes)
        .with_barriers(barriers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use unigpu_device::CostModel;

    fn wl() -> ConvWorkload {
        ConvWorkload::square(1, 128, 128, 28, 3, 1, 1)
    }

    fn tuned_intel() -> ConvConfig {
        ConvConfig {
            tile_oc: 8,
            tile_oh: 2,
            tile_ow: 4,
            vector_width: 8,
            unroll: 4,
            workgroup: (16, 4),
            use_subgroup: true,
            use_slm: false,
        }
    }

    #[test]
    fn tuned_beats_naive_on_every_gpu() {
        let w = wl();
        for spec in [
            DeviceSpec::intel_hd505(),
            DeviceSpec::mali_t860(),
            DeviceSpec::maxwell_nano(),
        ] {
            let m = CostModel::new(spec.clone());
            let naive = ConvConfig {
                tile_oc: 1,
                tile_oh: 1,
                tile_ow: 1,
                vector_width: 1,
                unroll: 1,
                workgroup: (8, 4),
                use_subgroup: false,
                use_slm: false,
            };
            let mut tuned = tuned_intel();
            tuned.use_subgroup = spec.has_subgroups;
            if spec.vendor == Vendor::Nvidia {
                tuned.workgroup = (32, 4);
                tuned.vector_width = 1;
            }
            let tn = m.kernel_time_ms(&conv_profile(&w, &naive, &spec));
            let tt = m.kernel_time_ms(&conv_profile(&w, &tuned, &spec));
            assert!(
                tn > 2.0 * tt,
                "{}: naive {tn:.3} ms should be >2x tuned {tt:.3} ms",
                spec.name
            );
        }
    }

    #[test]
    fn subgroup_helps_on_intel_only() {
        let w = wl();
        let mut cfg = tuned_intel();
        let intel = DeviceSpec::intel_hd505();
        let m = CostModel::new(intel.clone());
        cfg.use_subgroup = true;
        let with = m.kernel_time_ms(&conv_profile(&w, &cfg, &intel));
        cfg.use_subgroup = false;
        let without = m.kernel_time_ms(&conv_profile(&w, &cfg, &intel));
        assert!(with <= without);

        // On Mali the flag changes nothing (hardware lacks subgroups).
        let mali = DeviceSpec::mali_t860();
        let mm = CostModel::new(mali.clone());
        cfg.use_subgroup = true;
        let a = mm.kernel_time_ms(&conv_profile(&w, &cfg, &mali));
        cfg.use_subgroup = false;
        let b = mm.kernel_time_ms(&conv_profile(&w, &cfg, &mali));
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn slm_staging_hurts_on_mali() {
        let w = wl();
        let mut cfg = ConvConfig { use_slm: true, ..tuned_intel() };
        cfg.use_subgroup = false;
        let mali = DeviceSpec::mali_t860();
        let m = CostModel::new(mali.clone());
        let with = m.kernel_time_ms(&conv_profile(&w, &cfg, &mali));
        cfg.use_slm = false;
        let without = m.kernel_time_ms(&conv_profile(&w, &cfg, &mali));
        assert!(
            with > without,
            "SLM staging must be counterproductive on SLM-less Mali: {with} vs {without}"
        );
    }

    #[test]
    fn oversized_tiles_spill() {
        let w = wl();
        let spec = DeviceSpec::intel_hd505();
        let m = CostModel::new(spec.clone());
        let modest = ConvConfig { tile_oc: 4, tile_oh: 2, tile_ow: 4, ..tuned_intel() };
        let huge = ConvConfig { tile_oc: 16, tile_oh: 4, tile_ow: 8, ..tuned_intel() };
        let tm = m.kernel_time_ms(&conv_profile(&w, &modest, &spec));
        let th = m.kernel_time_ms(&conv_profile(&w, &huge, &spec));
        assert!(th > tm, "512-register tile must spill: {th} vs {tm}");
    }

    #[test]
    fn warp_misalignment_hurts_on_nvidia() {
        let w = wl();
        let spec = DeviceSpec::maxwell_nano();
        let m = CostModel::new(spec.clone());
        let aligned = ConvConfig { workgroup: (32, 4), vector_width: 1, ..tuned_intel() };
        let ragged = ConvConfig { workgroup: (8, 4), vector_width: 1, ..tuned_intel() };
        let ta = m.kernel_time_ms(&conv_profile(&w, &aligned, &spec));
        let tr = m.kernel_time_ms(&conv_profile(&w, &ragged, &spec));
        assert!(tr > ta, "32-item group should beat ragged one: {tr} vs {ta}");
    }

    #[test]
    fn vec4_matters_on_mali() {
        let w = wl();
        let spec = DeviceSpec::mali_t860();
        let m = CostModel::new(spec.clone());
        let scalar = ConvConfig { vector_width: 1, use_subgroup: false, ..tuned_intel() };
        let vec4 = ConvConfig { vector_width: 4, use_subgroup: false, ..tuned_intel() };
        let ts = m.kernel_time_ms(&conv_profile(&w, &scalar, &spec));
        let tv = m.kernel_time_ms(&conv_profile(&w, &vec4, &spec));
        assert!(ts > 1.5 * tv, "scalar code should badly underuse Mali SIMD: {ts} vs {tv}");
    }

    #[test]
    fn depthwise_is_memory_bound() {
        let dw = ConvWorkload::depthwise(1, 256, 28, 3, 1, 1);
        let cfg = ConvConfig::fallback_for(&dw, &DeviceSpec::maxwell_nano());
        let p = conv_profile(&dw, &cfg, &DeviceSpec::maxwell_nano());
        let intensity = p.total_flops() / p.total_bytes();
        assert!(intensity < 5.0, "AI = {intensity}");
    }

    #[test]
    fn fallback_quality_ordering() {
        // HandTuned fallback should out-run the Naive fallback on the same
        // classic workload.
        let w = wl();
        let spec = DeviceSpec::maxwell_nano();
        let m = CostModel::new(spec.clone());
        let hand = ConvConfig::fallback_for(&w, &spec);
        let naive = ConvConfig {
            tile_oc: 1,
            tile_oh: 1,
            tile_ow: 1,
            vector_width: 1,
            unroll: 1,
            workgroup: (4, 2),
            use_subgroup: false,
            use_slm: false,
        };
        let th = m.kernel_time_ms(&conv_profile(&w, &hand, &spec));
        let tn = m.kernel_time_ms(&conv_profile(&w, &naive, &spec));
        assert!(tn > th);
    }
}
