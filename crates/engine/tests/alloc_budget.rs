//! Allocation budget of the serve hot path: once warm, `Server::submit`
//! (which also runs every readback, formation and launch that falls due)
//! makes at most [`BUDGET`] heap allocations per request — on the
//! benchmark's pinned steady config, and per accepted request on its chaos
//! config. Measured when written: 0.001 and 1.1; what remains is listed in
//! DESIGN.md, "Host hot path".
//!
//! The count comes from a process-wide counting allocator, so this file
//! holds exactly one `#[test]`: a sibling test thread would be counted too.

mod common;

use common::Pinned;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use unigpu_engine::{Admission, InferenceRequest, ServeConfig, ServeReport};

/// Allocations per request, averaged over [`MEASURED`] submits.
const BUDGET: f64 = 4.0;
const WARM_UP: usize = 1_000;
const MEASURED: usize = 10_000;

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

/// Warm a fresh server with the first [`WARM_UP`] requests, then return
/// allocations per accepted request over the next [`MEASURED`] submits, and
/// the run's report. The requests are built beforehand: only the server's
/// own allocations are counted.
fn measure(p: &Pinned, cfg: &ServeConfig, requests: Vec<InferenceRequest>) -> (f64, ServeReport) {
    assert_eq!(requests.len(), WARM_UP + MEASURED);
    let mut server = p.compiled.server(cfg);
    let mut requests = requests.into_iter();
    for r in requests.by_ref().take(WARM_UP) {
        server.submit(r);
    }
    let before = ALLOCS.load(Relaxed);
    let mut accepted = 0;
    for r in requests {
        accepted += usize::from(matches!(server.submit(r), Admission::Accepted));
    }
    let allocs = ALLOCS.load(Relaxed) - before;
    let report = server.shutdown();
    assert_eq!(report.offered, WARM_UP + MEASURED);
    assert_eq!(report.lost(), 0);
    (allocs as f64 / accepted as f64, report)
}

#[test]
fn warm_submits_stay_within_the_allocation_budget() {
    let p = Pinned::mobilenet();

    let (per_request, report) =
        measure(&p, &p.steady_cfg(), p.steady_requests(WARM_UP + MEASURED));
    assert_eq!(report.results.len(), WARM_UP + MEASURED, "steady load is all served");
    assert!(
        per_request <= BUDGET,
        "steady: {per_request:.3} allocations/request, budget {BUDGET}"
    );

    let (per_accepted, report) =
        measure(&p, &p.chaos_cfg(), p.chaos_requests(WARM_UP + MEASURED));
    assert!(
        report.retries > 100 && report.degraded_batches > 100 && report.breaker_trips > 100,
        "the chaos run takes the retry, degrade and breaker paths: {} / {} / {}",
        report.retries,
        report.degraded_batches,
        report.breaker_trips
    );
    assert!(
        per_accepted <= BUDGET,
        "chaos: {per_accepted:.3} allocations/accepted request, budget {BUDGET}"
    );
}
