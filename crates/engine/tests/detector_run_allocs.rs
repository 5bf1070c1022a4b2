//! Allocations of one warm detector inference: a second `CompiledModel::run`
//! of SSD_MobileNet1.0 at 128² and of Yolov3 at 96² makes exactly
//! [`WARM_SSD_ALLOCS`] and [`WARM_YOLO_ALLOCS`] heap allocations. Every
//! operator, the priors, the upsamples and both detectors included, writes
//! the workspace the first run made, so what is left is the returned `Vec`
//! and its one tensor's shape and data, plus the buffers `box_nms_into`
//! gathers, sorts and suppresses in: SSD's 8 are three gathers (scores, ids,
//! segment offsets), the sort's keys, merge buffer and ranks, and the
//! suppression's order and flags. At these seeded weights no Yolov3 cell
//! clears its confidence, so its suppression gathers nothing and allocates
//! only the segment offsets.
//!
//! The count comes from a process-wide counting allocator, so this file
//! holds exactly one `#[test]`: a sibling test thread would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use unigpu_device::Platform;
use unigpu_engine::Engine;
use unigpu_graph::Graph;
use unigpu_tensor::Tensor;

const WARM_SSD_ALLOCS: u64 = 11;
const WARM_YOLO_ALLOCS: u64 = 4;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's own layout and
// pointer, unchanged; the counter never influences what is allocated.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The allocations of `model`'s second run, after checking that it computes
/// the first run's outputs.
fn warm_run_allocs(model: &Graph) -> u64 {
    let compiled = Engine::builder()
        .platform(Platform::deeplens())
        .persist(false)
        .build()
        .compile(model);
    let input = [Tensor::full(compiled.input_shape(), 0.5)];
    let first = compiled.run(&input);

    let before = ALLOCS.load(Relaxed);
    let warm = compiled.run(&input);
    let allocs = ALLOCS.load(Relaxed) - before;
    assert_eq!(warm, first, "a warm run computes the first run's outputs");
    allocs
}

#[test]
fn warm_detector_runs_make_a_fixed_number_of_allocations() {
    let ssd = warm_run_allocs(&unigpu_models::ssd_mobilenet(128, 20));
    let yolo = warm_run_allocs(&unigpu_models::yolov3(96, 80));
    assert_eq!(
        (ssd, yolo),
        (WARM_SSD_ALLOCS, WARM_YOLO_ALLOCS),
        "allocations in one warm SSD_MobileNet1.0@128 and Yolov3@96 run"
    );
}
