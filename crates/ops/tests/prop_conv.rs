//! Property tests: the "schedules never change results" invariant — any
//! configuration drawn from the template's search space produces bit-identical
//! output to the direct reference convolution.

mod common;

use common::Rng;
use unigpu_device::DeviceSpec;
use unigpu_ops::conv::{conv2d_ref, conv2d_spatial_pack, ConfigSpace, ConvConfig};
use unigpu_ops::ConvWorkload;
use unigpu_tensor::init::random_uniform;

const CASES: u64 = 48;

fn arb_workload(rng: &mut Rng) -> ConvWorkload {
    loop {
        let (n, c, oc) = (rng.int(1, 3), rng.int(1, 9), rng.int(1, 13));
        let (size, k) = (rng.int(4, 14), rng.pick(&[1, 3, 5]));
        let (stride, pad) = (rng.int(1, 3), rng.int(0, 3));
        // output must be non-empty
        if size + 2 * pad >= k {
            return ConvWorkload::square(n, c, oc, size, k, stride, pad);
        }
    }
}

fn arb_spec(rng: &mut Rng) -> DeviceSpec {
    match rng.int(0, 3) {
        0 => DeviceSpec::intel_hd505(),
        1 => DeviceSpec::mali_t860(),
        _ => DeviceSpec::maxwell_nano(),
    }
}

fn arb_config(rng: &mut Rng, w: &ConvWorkload, spec: &DeviceSpec) -> ConvConfig {
    let space = ConfigSpace::build(w, spec);
    space.get(rng.int(0, space.len()))
}

#[test]
fn any_config_matches_reference() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let w = arb_workload(&mut rng);
        let spec = arb_spec(&mut rng);
        let cfg = arb_config(&mut rng, &w, &spec);
        let data = random_uniform(w.input_shape(), 97);
        let wt = random_uniform(w.weight_shape(), 98);
        let r = conv2d_ref(&data, &wt, &w);
        let s = conv2d_spatial_pack(&data, &wt, &w, &cfg);
        assert_eq!(r, s, "case {case}: config {cfg:?} diverged on {w}");
    }
}

#[test]
fn depthwise_any_config_matches_reference() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let w = ConvWorkload::depthwise(1, rng.int(1, 9), rng.int(4, 12), 3, 1, 1);
        let cfg = arb_config(&mut rng, &w, &DeviceSpec::maxwell_nano());
        let data = random_uniform(w.input_shape(), 99);
        let wt = random_uniform(w.weight_shape(), 100);
        assert_eq!(
            conv2d_ref(&data, &wt, &w),
            conv2d_spatial_pack(&data, &wt, &w, &cfg),
            "case {case}: config {cfg:?} diverged on {w}"
        );
    }
}

#[test]
fn fallback_config_is_always_valid() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let w = arb_workload(&mut rng);
        let cfg = ConvConfig::fallback_for(&w, &arb_spec(&mut rng));
        assert!(cfg.tile_size() >= 1, "case {case}");
        let data = random_uniform(w.input_shape(), 101);
        let wt = random_uniform(w.weight_shape(), 102);
        assert_eq!(
            conv2d_ref(&data, &wt, &w),
            conv2d_spatial_pack(&data, &wt, &w, &cfg),
            "case {case}: fallback {cfg:?} diverged on {w}"
        );
    }
}
