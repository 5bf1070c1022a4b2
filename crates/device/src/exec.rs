//! Functional execution of simulated GPU kernels on the host.
//!
//! The execution model mirrors OpenCL/CUDA (§2.1): a kernel is dispatched as a
//! *grid* of *work-groups*; each work-group contains `group_size` *work-items*
//! and may synchronize internally with barriers. The simulator maps:
//!
//! * work-groups → chunks, run in group order on the calling thread. Each
//!   group owns a disjoint chunk of every output buffer, which is how
//!   well-formed GPU kernels are written, so no group order changes a result;
//! * work-items inside a group → a sequential loop per *phase* inside the
//!   kernel, where a phase boundary is a `barrier(CLK_LOCAL_MEM_FENCE)`.
//!   Running every item's phase `k` before any item's phase `k+1` is exactly
//!   the guarantee a barrier provides, so algorithms validated here are valid
//!   under lockstep SIMT too.
//!
//! Timing is *not* measured here — [`crate::CostModel`] owns latency. This
//! module owns functional correctness.

/// Dispatch a kernel where work-group `g` exclusively owns
/// `out[g*chunk .. (g+1)*chunk]` (the final chunk may be short).
///
/// This is the canonical disjoint-output GPU pattern; Rust's borrow rules and
/// `chunks_mut` make the disjointness machine-checked.
pub fn dispatch_chunks<T, F>(out: &mut [T], chunk: usize, kernel: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk > 0, "chunk must be positive");
    out.chunks_mut(chunk)
        .enumerate()
        .for_each(|(g, slice)| kernel(g, slice));
}

/// Dispatch `groups` independent work-groups that produce one value each
/// (e.g. per-block reductions); results are returned in group order.
pub fn dispatch_map<T, F>(groups: usize, kernel: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync + Send,
{
    (0..groups).map(kernel).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn dispatch_chunks_writes_disjoint_regions() {
        let mut out = vec![0usize; 1000];
        dispatch_chunks(&mut out, 64, |g, slice| {
            for (i, v) in slice.iter_mut().enumerate() {
                *v = g * 1_000_000 + i;
            }
        });
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, (i / 64) * 1_000_000 + i % 64);
        }
    }

    #[test]
    fn dispatch_chunks_last_chunk_short() {
        let mut out = vec![0u32; 10];
        dispatch_chunks(&mut out, 4, |g, slice| {
            assert!(slice.len() == 4 || (g == 2 && slice.len() == 2));
            slice.fill(g as u32);
        });
        assert_eq!(out, [0, 0, 0, 0, 1, 1, 1, 1, 2, 2]);
    }

    #[test]
    fn dispatch_map_preserves_order() {
        let v = dispatch_map(100, |g| g * g);
        assert_eq!(v[7], 49);
        assert_eq!(v.len(), 100);
    }

    #[test]
    fn every_group_runs_exactly_once() {
        let count = AtomicUsize::new(0);
        let mut out = vec![0u8; 4096];
        dispatch_chunks(&mut out, 16, |_, _| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 256);
    }
}
