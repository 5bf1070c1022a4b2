//! Workload dispatch: how `tune_graph` fans tensor-level search out.
//!
//! The paper concedes that schedule search "took up to tens of hours ... for
//! one device" (§3.2.3); AutoTVM answers this by searching independent
//! workloads in parallel, on local cores and on an RPC farm of measurement
//! workers. This module is the seam that spreads the search without changing
//! its results: one *distinct* convolution workload becomes one [`TuneJob`],
//! a [`Dispatcher`] turns jobs into [`TuneOutcome`]s, and every job derives
//! its seeds from its position in the distinct-workload list — so the host's
//! lanes, however many there are, and a remote farm produce bit-identical
//! databases when measurement noise is zero.
//!
//! Implementations:
//! * [`LocalDispatcher`] — the jobs spread over the host's lanes
//!   (`unigpu_device::dispatch_lanes`); what `tune_graph` and `unigpu tune`
//!   use;
//! * `FarmClient` (in `unigpu-farm`) — the remote tracker/worker service
//!   (`unigpu tune --farm`).

use crate::measure::SimMeasurer;
use crate::records::TuneRecord;
use crate::tuners::{ModelBasedTuner, Tuner};
use crate::TuningBudget;
use serde::{Deserialize, Serialize};
use unigpu_device::{dispatch_lanes, lanes, DeviceSpec};
use unigpu_ops::conv::{ConfigSpace, ConvConfig};
use unigpu_ops::ConvWorkload;
use unigpu_telemetry::tel_debug;

/// One unit of tensor-level search: a distinct convolution workload.
///
/// `index` is the workload's position in the graph's distinct-workload list;
/// measurement and tuner seeds derive from it (`budget.seed ^ index` and
/// `budget.seed + index`), which is what lets any dispatcher — local or
/// remote, on any number of lanes — reproduce the one-job-at-a-time loop
/// exactly.
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
    /// Human-readable label for logs (`local(2 lanes)`, `farm(addr)`).
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

/// Tune a single job: build the config space, run the model-based tuner
/// with index-derived seeds, and pick the top-k candidates by true cost.
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

/// The jobs spread over the host's lanes: [`tune_one`] once per job, one
/// work-group per job through [`dispatch_lanes`], so every lane tunes one
/// contiguous run of jobs and the caller is lane 0. Outcomes come back in
/// job order, and a job's panic is re-raised on the caller with its own
/// payload. The jobs run one after another on the caller on a one-lane
/// host, when the pool is busy with another dispatch, or when this dispatch
/// is itself called from a lane. Every job seeds itself from its index, so
/// the lane it runs on never changes its outcome.
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalDispatcher;

impl Dispatcher for LocalDispatcher {
    fn name(&self) -> String {
        format!("local({} lanes)", lanes())
    }

    fn dispatch(
        &self,
        jobs: &[TuneJob],
        spec: &DeviceSpec,
        budget: &TuningBudget,
    ) -> Result<Vec<TuneOutcome>, DispatchError> {
        let mut outcomes: Vec<Option<TuneOutcome>> = jobs.iter().map(|_| None).collect();
        // The lane pool takes a dispatch whose `out.len() × reduce` clears
        // its `POOLED_MIN_WORK`, sized for kernels at 0.15–1 ns a unit so
        // that waking the workers (19 µs to break even) pays. A job is a
        // whole model-based search, milliseconds of GBT fits and
        // measurements (about 1.2 ms at 128 trials on one lane), so it counts
        // as unbounded work: any two jobs pool.
        dispatch_lanes(&mut outcomes, 1, usize::MAX, &mut [], |first, run, _: &mut [u8]| {
            for (outcome, job) in run.iter_mut().zip(&jobs[first..]) {
                *outcome = Some(tune_one(job, spec, budget));
            }
        });
        Ok(outcomes.into_iter().map(|o| o.expect("every job ran")).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{self, AssertUnwindSafe};

    /// `count` jobs cycling over three workloads; each job's index seeds it.
    fn jobs_of(count: usize) -> Vec<TuneJob> {
        let workloads = [
            ConvWorkload::square(1, 64, 64, 28, 3, 1, 1),
            ConvWorkload::square(1, 64, 128, 28, 1, 1, 0),
            ConvWorkload::square(1, 128, 128, 14, 3, 1, 1),
        ];
        (0..count)
            .map(|index| TuneJob { index, workload: workloads[index % workloads.len()] })
            .collect()
    }

    /// The oracle: every job tuned on the caller, in job order.
    fn tune_each(jobs: &[TuneJob], spec: &DeviceSpec, budget: &TuningBudget) -> Vec<TuneOutcome> {
        jobs.iter().map(|j| tune_one(j, spec, budget)).collect()
    }

    /// `LocalDispatcher` on the lane pool against the serial `tune_one` loop.
    #[test]
    fn thread_pool_matches_serial_bit_for_bit() {
        let spec = DeviceSpec::intel_hd505();
        let budget = TuningBudget { trials_per_workload: 16, ..Default::default() };
        let lanes = lanes();
        // one job, fewer than the lanes, one more, and several runs per lane
        for count in [1, lanes - 1, lanes + 1, 3 * lanes + 1] {
            let jobs = jobs_of(count);
            let local = LocalDispatcher.dispatch(&jobs, &spec, &budget).unwrap();
            assert_eq!(local, tune_each(&jobs, &spec, &budget), "{count} jobs, {lanes} lanes");
        }
    }

    #[test]
    fn thread_pool_with_no_jobs_returns_no_outcomes() {
        let spec = DeviceSpec::intel_hd505();
        let budget = TuningBudget { trials_per_workload: 16, ..Default::default() };
        let local = LocalDispatcher.dispatch(&[], &spec, &budget).unwrap();
        assert!(local.is_empty(), "{} outcomes for no job", local.len());
    }

    #[test]
    fn a_jobs_panic_surfaces_with_its_own_message() {
        let spec = DeviceSpec::intel_hd505();
        let budget = TuningBudget { trials_per_workload: 8, ..Default::default() };
        // The last job runs on the last lane, a worker's on a multi-lane
        // host; its zero stride divides by zero when it sizes its output.
        let mut jobs = jobs_of(3 * lanes() + 1);
        jobs.last_mut().unwrap().workload.stride_h = 0;
        let message = |payload: Box<dyn std::any::Any + Send>| {
            payload
                .downcast_ref::<&str>()
                .map(|m| m.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
        };
        let alone = panic::catch_unwind(AssertUnwindSafe(|| {
            tune_one(jobs.last().unwrap(), &spec, &budget)
        }))
        .expect_err("a zero stride panics");
        let dispatched =
            panic::catch_unwind(AssertUnwindSafe(|| LocalDispatcher.dispatch(&jobs, &spec, &budget)))
                .expect_err("the job's panic reaches the caller");
        let expected = message(alone);
        assert!(expected.is_some(), "the job panics with a message");
        assert_eq!(message(dispatched), expected);
    }

    #[test]
    fn outcome_round_trips_through_json() {
        let spec = DeviceSpec::mali_t860();
        let budget = TuningBudget { trials_per_workload: 16, ..Default::default() };
        let out = tune_one(&jobs_of(1)[0], &spec, &budget);
        let text = serde_json::to_string(&out).unwrap();
        let back: TuneOutcome = serde_json::from_str(&text).unwrap();
        assert_eq!(out, back, "f64 costs survive the wire exactly");
    }

    #[test]
    fn seeds_derive_from_index_not_dispatch_order() {
        let spec = DeviceSpec::intel_hd505();
        let budget = TuningBudget { trials_per_workload: 24, ..Default::default() };
        let jobs = jobs_of(3);
        let forward = LocalDispatcher.dispatch(&jobs, &spec, &budget).unwrap();
        let mut reversed: Vec<TuneJob> = jobs.clone();
        reversed.reverse();
        let mut backward = LocalDispatcher.dispatch(&reversed, &spec, &budget).unwrap();
        backward.sort_by_key(|o| o.index);
        for (f, b) in forward.iter().zip(&backward) {
            assert_eq!(f.record, b.record);
        }
    }
}
