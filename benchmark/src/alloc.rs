//! Counting global allocator: exact allocation counts and peak live bytes for the benchmark process. Always on; the counters are relaxed
//! atomics (statistics that publish no other data), so the cost is a few
//! uncontended atomic adds per allocation, the same in every run.
//!
//! Memory is reported from here and not from VmHWM because resident-set
//! numbers in the sandbox include page-fault timing artefacts (README,
//! "Sandbox findings"); these counts repeat exactly.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

pub struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(size: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    let live = LIVE.fetch_add(size, Relaxed) + size;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's own layout and
// pointer, unchanged; the counters never influence what is allocated.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Relaxed);
        grew(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// Counter values at one instant; subtract two to get a section's cost.
#[derive(Debug, Clone, Copy)]
pub struct Snapshot {
    pub allocs: u64,
}

pub fn snapshot() -> Snapshot {
    Snapshot {
        allocs: ALLOCS.load(Relaxed),
    }
}

impl Snapshot {
    /// Allocations made since `earlier`.
    pub fn allocs_since(&self, earlier: &Snapshot) -> u64 {
        self.allocs - earlier.allocs
    }
}

/// Highest live heap size the process has reached, MB (10^6 bytes).
pub fn peak_mb() -> f64 {
    PEAK.load(Relaxed) as f64 / 1e6
}
