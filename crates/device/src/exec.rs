//! Functional execution of simulated GPU kernels on the host.
//!
//! The execution model mirrors OpenCL/CUDA (§2.1): a kernel is dispatched as a
//! *grid* of *work-groups*; each work-group contains `group_size` *work-items*
//! and may synchronize internally with barriers. The simulator maps:
//!
//! * work-groups → chunks, spread over *lanes*: one contiguous run of whole
//!   groups per lane, the calling thread being lane 0 and the workers of one
//!   process-wide pool the others, as a GPU spreads a grid over its compute
//!   units. Each group owns a disjoint chunk of every output buffer, which is
//!   how well-formed GPU kernels are written, so neither the group order nor
//!   the lane a group runs on changes a result: the partition only decides
//!   which thread computes a chunk, never what it computes;
//! * work-items inside a group → a sequential loop per *phase* inside the
//!   kernel, where a phase boundary is a `barrier(CLK_LOCAL_MEM_FENCE)`.
//!   Running every item's phase `k` before any item's phase `k+1` is exactly
//!   the guarantee a barrier provides, so algorithms validated here are valid
//!   under lockstep SIMT too.
//!
//! The pool starts on the first dispatch that asks for it, with one worker
//! per hardware thread beyond the caller's (none on a one-thread host), each
//! parked on a `Condvar` between dispatches. A dispatch allocates nothing: its
//! lane parts live in fixed stack arrays. A dispatch runs all its lanes on the
//! calling thread, in lane order, when it is tiny (see [`POOLED_MIN_WORK`]) or
//! when the pool is busy — with another caller's dispatch, or with the one
//! this dispatch is nested in. A lane's panic is re-raised on the caller with
//! its own payload once every lane has finished.
//!
//! Timing is *not* measured here — [`crate::CostModel`] owns latency. This
//! module owns functional correctness.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError, TryLockError};
use std::thread;

/// Most lanes a dispatch spreads over: the lane parts live in stack arrays
/// this long.
const MAX_LANES: usize = 64;

/// Smallest dispatch the pool takes, counted as its output elements times
/// the inputs each one reduces (the `reduce` of [`dispatch_lanes`]; 1 for
/// [`dispatch_chunks`]). Waking the workers and waiting for the last one is a
/// round trip through the `Condvar`s: 8–10 µs at the median on a 2-vCPU AMD
/// EPYC VM (a scratch probe of 2000 round trips, the worker idle 50 µs before
/// each). Two lanes save the caller at most half a kernel's time, so a
/// dispatch gains only if it takes more than 2 × 9.5 = 19 µs on one thread.
/// The kernels that dispatch spend from about 0.15 ns a unit (the scan's
/// passes) to about 1 ns (the sort's merge rounds), which puts that point
/// between 19 K and 127 K units. Below this line the 8 732-element scan and
/// `box_nms`'s 8 960-key sort run on the calling thread; above it every
/// convolution, max-pool, ROIAlign and sort round of `exec_functional` pools
/// (the smallest, the last max-pool of the traced run's 96² input, is 74 K).
const POOLED_MIN_WORK: usize = 64 * 1024;

/// The function every lane of one dispatch runs, given its lane index.
type Job<'a> = &'a (dyn Fn(usize) + Sync + 'a);

/// One lane's part of a dispatch, which the lane takes once: its first
/// group, its run of the output and its block of the scratch.
type Part<'a, T, S> = Mutex<Option<(usize, &'a mut [T], &'a mut [S])>>;

/// What the dispatching caller and the workers share.
struct State {
    /// Bumped by every pooled dispatch; a worker runs each epoch once.
    epoch: u64,
    /// The current dispatch's job, `None` between dispatches.
    job: Option<Job<'static>>,
    /// Lanes of the current dispatch, the caller's included.
    lanes: usize,
    /// Workers of the current dispatch that have not finished their lane.
    pending: usize,
    /// The lowest panicking worker lane's payload.
    panic: Option<(usize, Box<dyn Any + Send>)>,
}

struct Pool {
    /// Held by a pooled dispatch from start to end: a dispatch that finds it
    /// taken runs inline.
    busy: Mutex<()>,
    state: Mutex<State>,
    /// Workers wait here for a new epoch.
    start: Condvar,
    /// The caller waits here for `pending == 0`.
    done: Condvar,
}

static POOL: Pool = Pool {
    busy: Mutex::new(()),
    state: Mutex::new(State {
        epoch: 0,
        job: None,
        lanes: 0,
        pending: 0,
        panic: None,
    }),
    start: Condvar::new(),
    done: Condvar::new(),
};

/// Lanes the pool has: the hardware threads (at most [`MAX_LANES`]), or
/// fewer if a worker could not be spawned.
static LANES: OnceLock<usize> = OnceLock::new();

/// Locks `m`; a lane's panic is caught before it can poison a pool lock, so
/// a poisoned one still holds consistent data.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Lanes a dispatch spreads over: this host's hardware threads, the caller
/// included, capped at 64; 1 on a one-thread host, which gets no pool. The
/// first call starts the pool's workers. They are never joined: they live as
/// long as the process, and a lane's panic is caught in its worker and
/// re-raised on the dispatching caller, so the dropped handles hide nothing.
pub fn lanes() -> usize {
    *LANES.get_or_init(|| {
        let threads = thread::available_parallelism().map_or(1, |n| n.get());
        // Worker `l` runs lane `l`; one that cannot be spawned ends the pool there.
        let workers = (1..threads.min(MAX_LANES))
            .take_while(|&lane| {
                thread::Builder::new()
                    .name(format!("unigpu-lane-{lane}"))
                    .spawn(move || work(lane))
                    .is_ok()
            })
            .count();
        1 + workers
    })
}

/// A worker's loop: run lane `lane` of every epoch that has that many lanes.
fn work(lane: usize) {
    let mut seen = 0;
    let mut state = lock(&POOL.state);
    loop {
        while state.epoch == seen {
            state = POOL
                .start
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        seen = state.epoch;
        if lane >= state.lanes {
            continue;
        }
        let job = state.job.expect("a dispatch posts its job with its epoch");
        drop(state);
        let result = panic::catch_unwind(AssertUnwindSafe(|| job(lane)));
        state = lock(&POOL.state);
        if let Err(payload) = result {
            if state.panic.as_ref().is_none_or(|&(first, _)| lane < first) {
                state.panic = Some((lane, payload));
            }
        }
        state.pending -= 1;
        if state.pending == 0 {
            POOL.done.notify_one();
        }
    }
}

/// Runs `job(l)` for every lane `l` in `0..lanes` (`2..=lanes()` of them):
/// the caller runs lane 0 and the pool's workers the rest, or, when the pool
/// is busy, the caller runs them all in lane order. Returns once every lane
/// has finished; if any panicked, re-raises the caller's own panic, else the
/// lowest worker lane's.
fn run_lanes(lanes: usize, job: Job<'_>) {
    debug_assert!(
        (2..=self::lanes()).contains(&lanes),
        "{lanes} lanes asked of the pool"
    );
    let busy = match POOL.busy.try_lock() {
        Ok(guard) => Some(guard),
        Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    };
    let Some(busy) = busy else {
        (0..lanes).for_each(job);
        return;
    };
    // SAFETY: this erases the borrow's lifetime so that the workers can hold
    // `job`. A worker calls it only for this epoch, between taking it from
    // `state` and decrementing `pending`, both under `state`'s lock. Below,
    // the caller runs its own lane under `catch_unwind`, so it always
    // reaches the wait for `pending == 0`, and it clears `job` before it
    // returns or re-raises a panic: no worker touches `job` after this
    // function ends, so the borrow outlives every use.
    let erased = unsafe { std::mem::transmute::<Job<'_>, Job<'static>>(job) };
    {
        let mut state = lock(&POOL.state);
        state.epoch += 1;
        state.job = Some(erased);
        state.lanes = lanes;
        state.pending = lanes - 1;
    }
    POOL.start.notify_all();
    let own = panic::catch_unwind(AssertUnwindSafe(|| job(0)));
    let mut state = lock(&POOL.state);
    while state.pending > 0 {
        state = POOL
            .done
            .wait(state)
            .unwrap_or_else(PoisonError::into_inner);
    }
    state.job = None;
    let theirs = state.panic.take();
    drop(state);
    drop(busy);
    if let Err(payload) = own {
        panic::resume_unwind(payload);
    }
    if let Some((_, payload)) = theirs {
        panic::resume_unwind(payload);
    }
}

/// Dispatch a kernel where work-group `g` exclusively owns
/// `out[g*chunk .. (g+1)*chunk]` (the final chunk may be short).
///
/// This is the canonical disjoint-output GPU pattern; Rust's borrow rules and
/// `chunks_mut` make the disjointness machine-checked. Each lane runs its
/// groups in order.
pub fn dispatch_chunks<T, F>(out: &mut [T], chunk: usize, kernel: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    dispatch_lanes(out, chunk, 1, &mut [], |first, run, _: &mut [u8]| {
        for (g, slice) in run.chunks_mut(chunk).enumerate() {
            kernel(first + g, slice);
        }
    });
}

/// [`dispatch_chunks`] for a kernel that takes a lane's groups together:
/// each lane gets one contiguous run of whole groups, as `kernel(first, run,
/// block)` with `first` the run's first group and `run` starting at
/// `out[first * chunk]`, plus its own block of `scratch`. The scratch is cut
/// into [`lanes()`] equal blocks, and lane `l` gets block `l`. `reduce` is
/// how many inputs each output element sums (a convolution's `ic · kh · kw`),
/// which sizes the dispatch against [`POOLED_MIN_WORK`].
///
/// # Panics
/// Panics if `chunk` is zero; re-raises a lane's panic.
pub fn dispatch_lanes<T, S, F>(
    out: &mut [T],
    chunk: usize,
    reduce: usize,
    scratch: &mut [S],
    kernel: F,
) where
    T: Send,
    S: Send,
    F: Fn(usize, &mut [T], &mut [S]) + Sync,
{
    assert!(chunk > 0, "chunk must be positive");
    let groups = out.len().div_ceil(chunk);
    let block = if scratch.is_empty() {
        0
    } else {
        scratch.len() / lanes()
    };
    let lanes = if groups < 2 || out.len().saturating_mul(reduce) < POOLED_MIN_WORK {
        1
    } else {
        lanes().min(groups)
    };
    if lanes == 1 {
        return kernel(0, out, &mut scratch[..block]);
    }
    let mut parts: [Part<'_, T, S>; MAX_LANES] = std::array::from_fn(|_| Mutex::new(None));
    let (mut rest, mut rest_scratch) = (out, scratch);
    for (lane, part) in parts[..lanes].iter_mut().enumerate() {
        let (first, end) = (lane * groups / lanes, (lane + 1) * groups / lanes);
        let len = ((end - first) * chunk).min(rest.len());
        let (run, tail) = std::mem::take(&mut rest).split_at_mut(len);
        let (own, tail_scratch) = std::mem::take(&mut rest_scratch).split_at_mut(block);
        *part.get_mut().unwrap_or_else(PoisonError::into_inner) = Some((first, run, own));
        (rest, rest_scratch) = (tail, tail_scratch);
    }
    run_lanes(lanes, &|lane| {
        let (first, run, own) = lock(&parts[lane])
            .take()
            .expect("each lane takes its part once");
        kernel(first, run, own);
    });
}

/// Dispatch `groups` independent work-groups that produce one value each
/// (e.g. per-block reductions); results are returned in group order.
///
/// Runs on the calling thread: its one caller, the scan, reads one value per
/// group, far less work than waking the pool costs, and the results go into
/// the `Vec` this returns, which a lane split would have to share.
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
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::thread::ThreadId;

    /// Serializes the tests that dispatch to the pool, so that one which
    /// counts the threads a dispatch ran on never finds the pool busy.
    static SERIAL: Mutex<()> = Mutex::new(());

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

    #[test]
    fn every_group_runs_once_on_its_own_chunk_at_any_group_count() {
        let _serial = lock(&SERIAL);
        let lanes = lanes();
        for groups in [0, 1, lanes.saturating_sub(1), lanes + 1, 1000] {
            // Chunks long enough that every count but 0 and 1 is pooled.
            let chunk = POOLED_MIN_WORK.div_ceil(groups.max(1)) + 3;
            let len = (groups * chunk).saturating_sub(2);
            let runs = AtomicUsize::new(0);
            let mut out = vec![usize::MAX; len];
            dispatch_chunks(&mut out, chunk, |g, slice| {
                runs.fetch_add(1, Ordering::Relaxed);
                assert!(
                    slice.iter().all(|&v| v == usize::MAX),
                    "group {g} saw a written chunk"
                );
                slice.fill(g);
            });
            assert_eq!(runs.load(Ordering::Relaxed), groups, "{groups} groups");
            for (i, &v) in out.iter().enumerate() {
                assert_eq!(v, i / chunk, "{groups} groups, element {i}");
            }
        }
    }

    #[test]
    fn lanes_get_contiguous_runs_of_whole_groups_and_their_own_scratch() {
        let _serial = lock(&SERIAL);
        let lanes = lanes();
        let (groups, chunk) = (1000, POOLED_MIN_WORK / 100);
        let mut out = vec![0usize; groups * chunk - 1];
        let mut scratch = vec![usize::MAX; 3 * lanes];
        let firsts = Mutex::new(Vec::new());
        dispatch_lanes(&mut out, chunk, 1, &mut scratch, |first, run, block| {
            assert_eq!(block.len(), 3);
            block.fill(first);
            lock(&firsts).push((first, run.len().div_ceil(chunk)));
            run.fill(first);
        });
        let mut firsts = firsts.into_inner().unwrap();
        firsts.sort();
        assert_eq!(firsts.len(), lanes);
        let mut next = 0;
        for &(first, count) in &firsts {
            assert_eq!(first, next, "runs are contiguous");
            next += count;
        }
        assert_eq!(next, groups);
        // Lane `l`'s block holds its run's first group.
        for (block, &(first, _)) in scratch.chunks(3).zip(&firsts) {
            assert!(block.iter().all(|&v| v == first));
        }
    }

    /// The threads the lanes of one dispatch of `len` elements ran on, in
    /// lane order; by default one big enough to pool.
    fn lane_threads_of(len: usize, chunk: usize, reduce: usize) -> Vec<ThreadId> {
        let threads = Mutex::new(Vec::new());
        let mut out = vec![0u8; len];
        dispatch_lanes(
            &mut out,
            chunk,
            reduce,
            &mut [],
            |first, _, _: &mut [u8]| {
                lock(&threads).push((first, thread::current().id()));
            },
        );
        let mut threads = threads.into_inner().unwrap();
        threads.sort_by_key(|&(first, _)| first);
        threads.into_iter().map(|(_, id)| id).collect()
    }

    fn lane_threads() -> Vec<ThreadId> {
        lane_threads_of(lanes() * POOLED_MIN_WORK, POOLED_MIN_WORK, 1)
    }

    fn distinct(threads: &[ThreadId]) -> usize {
        threads.iter().collect::<HashSet<_>>().len()
    }

    #[test]
    fn a_pooled_dispatch_runs_one_lane_per_thread_with_the_caller_first() {
        let _serial = lock(&SERIAL);
        let threads = lane_threads();
        assert_eq!(threads[0], thread::current().id());
        assert_eq!(distinct(&threads), lanes(), "every lane on its own thread");
    }

    #[test]
    fn a_lane_panic_surfaces_with_its_message_and_the_pool_recovers() {
        let _serial = lock(&SERIAL);
        let lanes = lanes();
        for bad in 0..lanes {
            let caught = panic::catch_unwind(|| {
                let mut out = vec![0u8; lanes * POOLED_MIN_WORK];
                dispatch_chunks(&mut out, POOLED_MIN_WORK, |g, _| {
                    if g == bad {
                        panic!("group {g} failed");
                    }
                });
            });
            let payload = caught.expect_err("the lane's panic reaches the caller");
            let message = payload.downcast_ref::<String>().map(String::as_str);
            assert_eq!(message, Some(format!("group {bad} failed").as_str()));
            assert_eq!(
                distinct(&lane_threads()),
                lanes,
                "the next dispatch runs on every lane"
            );
        }
    }

    #[test]
    fn the_callers_own_panic_wins_over_a_workers() {
        let _serial = lock(&SERIAL);
        let caught = panic::catch_unwind(|| {
            let mut out = vec![0u8; 4 * POOLED_MIN_WORK];
            dispatch_chunks(&mut out, POOLED_MIN_WORK, |g, _| panic!("group {g} failed"));
        });
        let payload = caught.expect_err("every lane panicked");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("group 0 failed")
        );
    }

    #[test]
    fn a_dispatch_nested_in_a_lane_runs_inline() {
        let _serial = lock(&SERIAL);
        let outer_groups = 2 * lanes();
        let mut out = vec![0usize; outer_groups * POOLED_MIN_WORK];
        dispatch_chunks(&mut out, POOLED_MIN_WORK, |g, slice| {
            let here = thread::current().id();
            dispatch_chunks(slice, 64, |inner, part| {
                assert_eq!(
                    thread::current().id(),
                    here,
                    "nested groups stay on their lane"
                );
                part.fill(g * 10_000 + inner);
            });
        });
        for (i, &v) in out.iter().enumerate() {
            let (g, inner) = (i / POOLED_MIN_WORK, i % POOLED_MIN_WORK / 64);
            assert_eq!(v, g * 10_000 + inner);
        }
    }

    #[test]
    fn concurrent_callers_get_the_inline_bits() {
        let _serial = lock(&SERIAL);
        let (len, chunk) = (3 * POOLED_MIN_WORK + 17, 1000);
        let kernel = |g: usize, slice: &mut [f32]| {
            let mut acc = g as f32 * 0.37;
            for v in slice.iter_mut() {
                acc = acc * 1.0001 + 0.5;
                *v = acc;
            }
        };
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let inline = {
            let _busy = lock(&POOL.busy);
            let mut out = vec![0.0f32; len];
            dispatch_chunks(&mut out, chunk, kernel);
            bits(&out)
        };
        // Caller `a` holds the pool in its group 0 until caller `b` has run
        // its whole dispatch, which therefore finds the pool busy.
        let (entered, finished) = (Barrier::new(2), Barrier::new(2));
        let (a, b) = thread::scope(|s| {
            let a = s.spawn(|| {
                let mut out = vec![0.0f32; len];
                dispatch_chunks(&mut out, chunk, |g, slice| {
                    if g == 0 {
                        entered.wait();
                        finished.wait();
                    }
                    kernel(g, slice);
                });
                out
            });
            let b = s.spawn(|| {
                let mut out = vec![0.0f32; len];
                entered.wait();
                dispatch_chunks(&mut out, chunk, kernel);
                finished.wait();
                out
            });
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(bits(&a), inline);
        assert_eq!(bits(&b), inline);
    }

    #[test]
    fn a_tiny_dispatch_stays_on_the_caller() {
        let _serial = lock(&SERIAL);
        let here = thread::current().id();
        let mut out = vec![0u32; POOLED_MIN_WORK - 1];
        dispatch_chunks(&mut out, 7, |_, _| assert_eq!(thread::current().id(), here));
        // A reduction is sized by its work, not its output.
        let (len, reduce) = (64, POOLED_MIN_WORK / 64);
        assert_eq!(distinct(&lane_threads_of(len, 1, reduce - 1)), 1);
        assert_eq!(distinct(&lane_threads_of(len, 1, reduce)), lanes().min(len));
    }
}
