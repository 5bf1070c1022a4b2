//! Allocations of one warm inference: a second `CompiledModel::run` of
//! SqueezeNet1.0 at 128² (the benchmark's `exec_functional` model) makes
//! exactly [`WARM_RUN_ALLOCS`] heap allocations: the returned `Vec` and its
//! one tensor's shape and data. The first run plans the graph's memory and
//! makes the workspace the model keeps; every later run computes in that
//! workspace, the fire modules' expand convolutions write straight into their
//! concat's slot, and the padded input copies of the convolutions that stride
//! or pad go to the workspace's scratch.
//!
//! The count comes from a process-wide counting allocator, so this file
//! holds exactly one `#[test]`: a sibling test thread would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use unigpu_device::Platform;
use unigpu_engine::Engine;
use unigpu_tensor::Tensor;

const WARM_RUN_ALLOCS: u64 = 3;

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

#[test]
fn a_warm_squeezenet_run_makes_a_fixed_number_of_allocations() {
    let model = unigpu_models::squeezenet(1, 128, 1000);
    let compiled = Engine::builder()
        .platform(Platform::deeplens())
        .persist(false)
        .build()
        .compile(&model);
    let input = [Tensor::full(compiled.input_shape(), 0.5)];
    let first = compiled.run(&input);

    let before = ALLOCS.load(Relaxed);
    let warm = compiled.run(&input);
    let allocs = ALLOCS.load(Relaxed) - before;
    assert_eq!(warm, first, "a warm run computes the first run's outputs");
    assert_eq!(allocs, WARM_RUN_ALLOCS, "allocations in one warm run");
}
