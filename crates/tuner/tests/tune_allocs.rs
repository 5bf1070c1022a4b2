//! Allocations of one warm search: a second `tune_one` of a 64→64 3×3 conv
//! at 56² on the HD 505 with the default budget (128 trials, a surrogate
//! refit every 16) makes exactly [`WARM_TUNE_ALLOCS`] heap allocations. Each
//! refit allocates its residuals, its workspace's buffers and the ensemble's
//! node arena and roots, once per fit and not once per tree. Most of the
//! count is the simulated measurements: `conv_profile` formats its kernel's
//! name from the workload key on every call, four allocations a trial.
//!
//! The count comes from a process-wide counting allocator, so this file
//! holds exactly one `#[test]`: a sibling test thread would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use unigpu_device::DeviceSpec;
use unigpu_ops::ConvWorkload;
use unigpu_tuner::{tune_one, TuneJob, TuningBudget};

const WARM_TUNE_ALLOCS: u64 = 623;

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
fn a_warm_tune_one_makes_a_fixed_number_of_allocations() {
    let job = TuneJob { index: 0, workload: ConvWorkload::square(1, 64, 64, 56, 3, 1, 1) };
    let spec = DeviceSpec::intel_hd505();
    let budget = TuningBudget::default();
    let first = tune_one(&job, &spec, &budget);

    let before = ALLOCS.load(Relaxed);
    let warm = tune_one(&job, &spec, &budget);
    let allocs = ALLOCS.load(Relaxed) - before;
    assert_eq!(warm.record.config, first.record.config, "a warm search finds the first one's schedule");
    assert_eq!(warm.record.trials, budget.trials_per_workload);
    assert_eq!(allocs, WARM_TUNE_ALLOCS, "allocations in one warm tune_one");
}
