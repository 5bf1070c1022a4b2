//! Cost-model profiles for the non-convolution dense operators.
//!
//! These operators are bandwidth-bound streaming kernels; their profiles are
//! correspondingly simple. What matters for the end-to-end numbers is that
//! (a) they are cheap relative to convolution and (b) each still pays one
//! kernel-launch overhead, which is why operator *fusion* (§3.2.3) buys real
//! latency on devices with expensive launches (Mali: 60 µs per launch).

use unigpu_device::KernelProfile;

/// Streaming elementwise kernel over `numel` f32 values (`flops_per_elem`
/// useful ops each, e.g. 1 for ReLU/add, ~4 for sigmoid/BN).
pub fn eltwise_profile(name: &str, numel: usize, flops_per_elem: f64) -> KernelProfile {
    KernelProfile::new(format!("eltwise[{name}]"), numel)
        .workgroup(64)
        .flops(flops_per_elem)
        .reads(4.0)
        .writes(4.0)
        .coalesce(0.9)
}

/// Window-reduction kernel (pooling): each output reads `window` inputs.
pub fn pool_profile(name: &str, out_numel: usize, window: usize) -> KernelProfile {
    KernelProfile::new(format!("pool[{name}]"), out_numel)
        .workgroup(64)
        .flops(window as f64)
        .reads(4.0 * window as f64 / 2.0) // halved: windows overlap in cache
        .writes(4.0)
        .coalesce(0.8)
}

/// Full reduction (global pooling, softmax denominator): `in_per_out` inputs
/// per output with a log-depth combine tree.
pub fn reduction_profile(name: &str, out_numel: usize, in_per_out: usize) -> KernelProfile {
    KernelProfile::new(format!("reduce[{name}]"), out_numel.max(1))
        .workgroup(64)
        .flops(in_per_out as f64)
        .reads(4.0 * in_per_out as f64)
        .writes(4.0)
        .coalesce(0.85)
        .with_barriers((in_per_out as f64).log2().ceil() as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use unigpu_device::{CostModel, DeviceSpec};

    #[test]
    fn eltwise_is_bandwidth_bound() {
        let p = eltwise_profile("relu", 1 << 20, 1.0);
        assert!(p.total_flops() / p.total_bytes() < 1.0);
    }

    #[test]
    fn pooling_cheaper_than_equivalent_conv_flops() {
        let m = CostModel::new(DeviceSpec::maxwell_nano());
        let pool = m.kernel_time_ms(&pool_profile("max3x3", 64 * 56 * 56, 9));
        assert!(pool < 5.0, "pooling should be sub-5ms: {pool}");
    }

    #[test]
    fn reduction_pays_barriers() {
        let m = CostModel::new(DeviceSpec::mali_t860());
        let r = m.kernel_time_ms(&reduction_profile("gap", 2048, 49));
        let e = m.kernel_time_ms(&eltwise_profile("copy", 2048, 1.0));
        assert!(r > e);
    }
}
