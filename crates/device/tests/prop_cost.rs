//! Property tests on the cost model: monotonicity and sanity bounds that any
//! believable performance model must satisfy, over arbitrary profiles.
//!
//! Every case draws from a SplitMix64 stream keyed by its case number, so a
//! failure names the case that replays it.

use unigpu_device::{CostModel, DeviceSpec, KernelProfile, TransferProfile};
use unigpu_telemetry::hash::SplitMix64;

const CASES: u64 = 128;

/// Uniform in `lo..hi`.
fn int(rng: &mut SplitMix64, lo: usize, hi: usize) -> usize {
    lo + rng.below(hi - lo)
}

fn arb_profile(rng: &mut SplitMix64) -> KernelProfile {
    KernelProfile::new("prop", int(rng, 1, 1 << 20)) // work items
        .workgroup(int(rng, 1, 512))
        .flops(rng.f64_in(0.0, 4096.0))
        .reads(rng.f64_in(0.0, 512.0))
        .writes(rng.f64_in(0.0, 64.0))
        .simd(rng.f64_in(0.05, 1.0))
        .divergence(rng.f64_in(0.05, 1.0))
        .imbalance(rng.f64_in(1.0, 8.0))
        .coalesce(rng.f64_in(0.05, 1.0))
}

/// `check(case, profile)` for every case's random profile.
fn for_each_profile(check: impl Fn(u64, &KernelProfile)) {
    for case in 0..CASES {
        check(case, &arb_profile(&mut SplitMix64::new(case)));
    }
}

fn all_specs() -> Vec<DeviceSpec> {
    vec![
        DeviceSpec::intel_hd505(),
        DeviceSpec::mali_t860(),
        DeviceSpec::maxwell_nano(),
        DeviceSpec::atom_x5_e3930(),
        DeviceSpec::rk3399_cpu(),
        DeviceSpec::cortex_a57_quad(),
    ]
}

#[test]
fn time_is_positive_and_finite() {
    for_each_profile(|case, p| {
        for spec in all_specs() {
            let t = CostModel::new(spec).kernel_time_ms(p);
            assert!(t.is_finite() && t > 0.0, "case {case}: t = {t}");
        }
    });
}

#[test]
fn doubling_flops_never_speeds_up() {
    for_each_profile(|case, p| {
        for spec in all_specs() {
            let m = CostModel::new(spec);
            let mut q = p.clone();
            q.flops_per_item *= 2.0;
            assert!(m.kernel_time_ms(&q) >= m.kernel_time_ms(p) - 1e-12, "case {case}");
        }
    });
}

#[test]
fn doubling_bytes_never_speeds_up() {
    for_each_profile(|case, p| {
        for spec in all_specs() {
            let m = CostModel::new(spec);
            let mut q = p.clone();
            q.bytes_read_per_item *= 2.0;
            q.bytes_written_per_item *= 2.0;
            assert!(m.kernel_time_ms(&q) >= m.kernel_time_ms(p) - 1e-12, "case {case}");
        }
    });
}

#[test]
fn worse_divergence_never_speeds_up() {
    for_each_profile(|case, p| {
        for spec in all_specs() {
            let m = CostModel::new(spec);
            let mut q = p.clone();
            q.divergence_factor = (p.divergence_factor * 0.5).max(1e-3);
            assert!(m.kernel_time_ms(&q) >= m.kernel_time_ms(p) - 1e-12, "case {case}");
        }
    });
}

#[test]
fn effective_flops_never_exceed_peak() {
    for_each_profile(|case, p| {
        for spec in all_specs() {
            let peak = spec.peak_gflops;
            let m = CostModel::new(spec);
            let gflops = p.total_flops() / (m.kernel_time_ms(p) * 1e-3) / 1e9;
            assert!(gflops <= peak * 1.0 + 1e-9, "case {case}");
        }
    });
}

#[test]
fn achieved_bandwidth_never_exceeds_bus() {
    for_each_profile(|case, p| {
        for spec in all_specs() {
            let bw = spec.mem_bw_gbps;
            let m = CostModel::new(spec);
            let t = m.kernel_time_ms(p);
            let gbps = p.total_bytes() / (t * 1e-3) / 1e9;
            assert!(gbps <= bw * 1.01, "case {case}: {gbps} > {bw}");
        }
    });
}

#[test]
fn occupancy_in_unit_interval() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let (n, wg) = (int(&mut rng, 0, 1 << 22), int(&mut rng, 1, 1024));
        for spec in all_specs() {
            let m = CostModel::new(spec);
            let o = m.occupancy(n, wg);
            assert!((0.0..=1.0).contains(&o) || o <= 1.0 + 1e-12, "case {case}: {o}");
            assert!(o > 0.0, "case {case}: {o}");
        }
    }
}

#[test]
fn transfer_cost_is_monotone_in_size() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let (a, b) = (int(&mut rng, 0, 1 << 26), int(&mut rng, 0, 1 << 26));
        let (small, big) = if a <= b { (a, b) } else { (b, a) };
        for spec in all_specs() {
            let m = CostModel::new(spec);
            let ts = m.transfer_time_ms(&TransferProfile { bytes: small });
            let tb = m.transfer_time_ms(&TransferProfile { bytes: big });
            assert!(tb >= ts - 1e-12, "case {case}");
        }
    }
}

#[test]
fn more_launches_scale_linearly() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let p = arb_profile(&mut rng);
        let k = int(&mut rng, 2, 8);
        for spec in all_specs() {
            let m = CostModel::new(spec);
            let one = m.kernel_time_ms(&p);
            let many = m.kernel_time_ms(&p.clone().repeated(k));
            // k launches of the same kernel take ~k times as long (exactly,
            // in this model: overhead and work both scale by k)
            assert!((many - one * k as f64).abs() < one * k as f64 * 0.5 + 1e-9, "case {case}");
        }
    }
}
