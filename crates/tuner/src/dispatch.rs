//! Workload dispatch: how `tune_graph` fans tensor-level search out.
//!
//! The paper concedes that schedule search "took up to tens of hours ... for
//! one device" (§3.2.3); AutoTVM answers this in production with an RPC
//! tracker and a farm of measurement workers. This module is the seam that
//! makes the search distributable without changing its results: one
//! *distinct* convolution workload becomes one [`TuneJob`], a [`Dispatcher`]
//! turns jobs into [`TuneOutcome`]s, and every dispatcher derives its
//! per-job seeds from the job's position in the distinct-workload list — so
//! the serial loop, the local thread pool, and a remote farm all produce
//! bit-identical databases when measurement noise is zero.
//!
//! Implementations:
//! * [`SerialDispatcher`] — the original in-process loop;
//! * [`ThreadPoolDispatcher`] — local scoped threads (`unigpu tune --jobs N`);
//! * `FarmClient` (in `unigpu-farm`) — the remote tracker/worker service.

use crate::measure::SimMeasurer;
use crate::records::TuneRecord;
use crate::tuners::{ModelBasedTuner, Tuner};
use crate::TuningBudget;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use unigpu_device::DeviceSpec;
use unigpu_ops::conv::{ConfigSpace, ConvConfig};
use unigpu_ops::ConvWorkload;
use unigpu_telemetry::tel_debug;

/// One unit of tensor-level search: a distinct convolution workload.
///
/// `index` is the workload's position in the graph's distinct-workload list;
/// measurement and tuner seeds derive from it (`budget.seed ^ index` and
/// `budget.seed + index`), which is what lets any dispatcher — local or
/// remote — reproduce the serial path exactly.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TuneJob {
    pub index: usize,
    pub workload: ConvWorkload,
}

/// One schedule candidate shipped back for the graph-level layout DP.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Candidate {
    pub config: ConvConfig,
    /// Noise-free kernel cost on the target device, ms.
    pub kernel_ms: f64,
}

/// Result of tuning one workload: the best record plus the top-k candidates
/// the graph tuner re-selects among.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuneOutcome {
    pub index: usize,
    pub record: TuneRecord,
    /// Best-first candidates for the graph tuner.
    pub candidates: Vec<Candidate>,
}

/// Why a dispatch failed. Local dispatchers are infallible; the farm client
/// surfaces transport and job-retry-exhaustion failures here so callers can
/// fall back to in-process search.
#[derive(Debug)]
pub enum DispatchError {
    /// Transport-level failure talking to a remote dispatcher.
    Io(std::io::Error),
    /// The remote side replied with something outside the protocol.
    Protocol(String),
    /// Jobs exhausted their retry budget on the remote side.
    JobsFailed {
        failed: usize,
        first_error: String,
    },
}

impl std::fmt::Display for DispatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DispatchError::Io(e) => write!(f, "dispatch transport error: {e}"),
            DispatchError::Protocol(m) => write!(f, "dispatch protocol error: {m}"),
            DispatchError::JobsFailed { failed, first_error } => {
                write!(f, "{failed} job(s) exhausted their retry budget (first: {first_error})")
            }
        }
    }
}

impl std::error::Error for DispatchError {}

impl From<std::io::Error> for DispatchError {
    fn from(e: std::io::Error) -> Self {
        DispatchError::Io(e)
    }
}

/// A strategy for turning tune jobs into outcomes.
pub trait Dispatcher: Send + Sync {
    /// Human-readable label for logs (`serial`, `threads(4)`, `farm(addr)`).
    fn name(&self) -> String;

    /// Tune every job for `spec`. Outcomes may arrive in any order; the
    /// pipeline re-keys them by workload.
    fn dispatch(
        &self,
        jobs: &[TuneJob],
        spec: &DeviceSpec,
        budget: &TuningBudget,
    ) -> Result<Vec<TuneOutcome>, DispatchError>;
}

/// Measured-vs-predicted cost of one tuned workload. Unused: it stays only
/// because the farm's `Result` frame keeps an optional field of this type
/// until ROADMAP item 15 drops it from the benchmark's wire round-trip test.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeasuredDrift {
    pub workload: String,
    pub device: String,
    /// Noise-free cost-model prediction for the best config, ms.
    pub predicted_ms: f64,
    /// Measured (noise-bearing) best cost the tuner observed, ms.
    pub measured_ms: f64,
}

/// Tune a single job exactly as the serial pipeline always has: build the
/// config space, run the model-based tuner with index-derived seeds, and
/// pick the top-k candidates by true cost.
pub fn tune_one(job: &TuneJob, spec: &DeviceSpec, budget: &TuningBudget) -> TuneOutcome {
    let w = &job.workload;
    let i = job.index;
    let space = ConfigSpace::build(w, spec);
    let mut measurer = SimMeasurer::new(spec.clone(), budget.noise, budget.seed ^ (i as u64));
    let mut tuner = ModelBasedTuner::new(budget.seed.wrapping_add(i as u64));
    let result = tuner.tune(w, &space, &mut measurer, budget.trials_per_workload);
    tel_debug!(
        "tuner::dispatch",
        "workload {} on {}: best {:.4} ms after {} trials",
        w.key(),
        spec.name,
        result.best_cost_ms,
        result.trials
    );

    // top-k distinct configs by true (noise-free) cost
    let mut hist = result.history;
    hist.sort_by(|a, b| a.1.total_cmp(&b.1));
    hist.dedup_by_key(|h| h.0);
    let candidates: Vec<Candidate> = hist
        .iter()
        .take(budget.graph_candidates.max(1))
        .map(|&(idx, _)| {
            let config = space.get(idx);
            Candidate { config, kernel_ms: measurer.true_cost(w, &config) }
        })
        .collect();

    TuneOutcome {
        index: i,
        record: TuneRecord {
            device: spec.name.clone(),
            workload: w.key(),
            config: result.best_config,
            cost_ms: measurer.true_cost(w, &result.best_config),
            trials: result.trials,
        },
        candidates,
    }
}

/// The original in-process serial loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialDispatcher;

impl Dispatcher for SerialDispatcher {
    fn name(&self) -> String {
        "serial".into()
    }

    fn dispatch(
        &self,
        jobs: &[TuneJob],
        spec: &DeviceSpec,
        budget: &TuningBudget,
    ) -> Result<Vec<TuneOutcome>, DispatchError> {
        Ok(jobs.iter().map(|j| tune_one(j, spec, budget)).collect())
    }
}

/// Local thread-pool loopback (`unigpu tune --jobs N`): distinct workloads
/// tune concurrently on N scoped threads, each taking the next job index from
/// a shared counter. Deterministic because every job is self-seeded; results
/// come back in job order.
#[derive(Debug, Clone, Copy)]
pub struct ThreadPoolDispatcher {
    threads: usize,
}

impl ThreadPoolDispatcher {
    pub fn new(threads: usize) -> Self {
        ThreadPoolDispatcher { threads: threads.max(1) }
    }

    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl Dispatcher for ThreadPoolDispatcher {
    fn name(&self) -> String {
        format!("threads({})", self.threads)
    }

    fn dispatch(
        &self,
        jobs: &[TuneJob],
        spec: &DeviceSpec,
        budget: &TuningBudget,
    ) -> Result<Vec<TuneOutcome>, DispatchError> {
        let next = AtomicUsize::new(0);
        let mut done: Vec<(usize, TuneOutcome)> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..self.threads.min(jobs.len()))
                .map(|_| {
                    s.spawn(|| {
                        let mut mine = Vec::new();
                        loop {
                            // Relaxed: the counter only hands out indices;
                            // outcomes come back through `join`.
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(job) = jobs.get(i) else { return mine };
                            mine.push((i, tune_one(job, spec, budget)));
                        }
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
                .collect()
        });
        done.sort_by_key(|&(i, _)| i);
        Ok(done.into_iter().map(|(_, outcome)| outcome).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jobs() -> Vec<TuneJob> {
        [
            ConvWorkload::square(1, 64, 64, 28, 3, 1, 1),
            ConvWorkload::square(1, 64, 128, 28, 1, 1, 0),
            ConvWorkload::square(1, 128, 128, 14, 3, 1, 1),
        ]
        .iter()
        .enumerate()
        .map(|(index, &workload)| TuneJob { index, workload })
        .collect()
    }

    #[test]
    fn thread_pool_matches_serial_bit_for_bit() {
        let spec = DeviceSpec::intel_hd505();
        let budget = TuningBudget { trials_per_workload: 32, ..Default::default() };
        let jobs = jobs();
        let serial = SerialDispatcher.dispatch(&jobs, &spec, &budget).unwrap();
        // fewer threads than jobs, as many, and more; outcomes in job order
        for threads in [2, 3, 4] {
            let pooled = ThreadPoolDispatcher::new(threads).dispatch(&jobs, &spec, &budget).unwrap();
            assert_eq!(serial.len(), pooled.len());
            for (s, p) in serial.iter().zip(&pooled) {
                assert_eq!(s.index, p.index, "{threads} threads");
                assert_eq!(s.record, p.record, "records must be bit-identical at noise 0");
                assert_eq!(s.candidates, p.candidates);
            }
        }
    }

    #[test]
    fn thread_pool_with_no_jobs_returns_no_outcomes() {
        let spec = DeviceSpec::intel_hd505();
        let out = ThreadPoolDispatcher::new(4).dispatch(&[], &spec, &TuningBudget::default()).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn outcome_round_trips_through_json() {
        let spec = DeviceSpec::mali_t860();
        let budget = TuningBudget { trials_per_workload: 16, ..Default::default() };
        let out = tune_one(&jobs()[0], &spec, &budget);
        let text = serde_json::to_string(&out).unwrap();
        let back: TuneOutcome = serde_json::from_str(&text).unwrap();
        assert_eq!(out, back, "f64 costs survive the wire exactly");
    }

    #[test]
    fn seeds_derive_from_index_not_dispatch_order() {
        let spec = DeviceSpec::intel_hd505();
        let budget = TuningBudget { trials_per_workload: 24, ..Default::default() };
        let jobs = jobs();
        let forward = SerialDispatcher.dispatch(&jobs, &spec, &budget).unwrap();
        let mut reversed: Vec<TuneJob> = jobs.clone();
        reversed.reverse();
        let mut backward = SerialDispatcher.dispatch(&reversed, &spec, &budget).unwrap();
        backward.sort_by_key(|o| o.index);
        for (f, b) in forward.iter().zip(&backward) {
            assert_eq!(f.record, b.record);
        }
    }
}
