//! Serving data plane: requests, admission control, batch formation, and
//! the per-run report. The scheduler itself lives in [`crate::server`] — an
//! event-driven simulated-clock core ([`crate::server::Server`]) that
//! overlaps batch *formation*, device *execution*, and *readback/accounting*
//! so multiple batches are in flight per device.
//!
//! Everything here is priced on the simulated clock. A batch becomes ready
//! at the latest arrival among its requests, starts at `max(ready, lane
//! free)`, and runs for the compiled batched estimate
//! ([`CompiledModel::estimate_batch_ms`]). Per-request latency therefore
//! decomposes exactly as queueing delay (`start − arrival`) plus execution
//! (`done − start`), and throughput falls out of the timeline makespan.
//!
//! ## Fault tolerance
//!
//! The serving path assumes the device *misbehaves* (see
//! [`DeviceFaultPlan`], read from `UNIGPU_FAULTS` by the CLI):
//!
//! * **Admission control** — [`RequestQueue`] can be bounded
//!   ([`ServeConfig::queue_cap`]); offers beyond capacity are shed with an
//!   `engine.shed` count, never silently dropped. A closed queue drains
//!   what it holds and rejects new offers (drain-then-reject).
//! * **Deadlines** — [`ServeConfig::deadline_ms`] gives every request a
//!   completion budget from its arrival; requests whose batch would finish
//!   past the budget are rejected at batch formation and counted under
//!   `engine.deadline_expired`.
//! * **Retry + re-placement** — a transient kernel fault retries the launch
//!   (up to [`ServeConfig::max_retries`], `engine.retries`); exhausted
//!   retries or a non-transient fault (OOM) re-place the batch on the
//!   all-CPU degraded variant ([`CompiledModel::degraded`],
//!   `engine.degraded_batches`).
//! * **Circuit breaker** — K consecutive device faults trip a per-device
//!   breaker (`engine.breaker_state` gauge: 0 closed / 1 open / 2
//!   half-open); while open, batches route straight to the CPU variant.
//!   After [`ServeConfig::breaker_cooldown_ms`] of simulated time it
//!   half-opens, probes the device, and closes on success.
//! * **Panic isolation** — each batch executes under `catch_unwind`; a
//!   panicking launch is retried with panic injection disabled, then falls
//!   back to CPU accounting, so a single bad request can never wedge the
//!   scheduler.
//!
//! With an empty fault plan and default config the scheduler is
//! deterministic down to the bit: two runs of the same workload produce
//! identical reports ([`ServeReport::digest`]).

use crate::compiled::CompiledModel;
use std::collections::VecDeque;
use std::fmt;
use std::path::PathBuf;
use std::time::Duration;
use unigpu_device::{DeviceFaultPlan, MultiTimeline};
use unigpu_telemetry::hash::Fnv1a;
use unigpu_telemetry::{AlertRule, DriftSummary, SloSummary, TraceContext};
use unigpu_tensor::Shape;

/// First Chrome-trace lane used by serving workers (lanes 0–2 belong to the
/// estimator's GPU/CPU/transfer lanes).
pub const LANE_WORKER_BASE: u32 = 8;

/// Chrome-trace lane for control-plane events: retries, breaker
/// transitions, fault reports.
pub const LANE_CONTROL: u32 = 7;

/// Fraction of the nominal batch time a *failed* launch occupies the lane
/// before the driver reports the error (kernels fail fast, not free).
pub(crate) const FAULT_LATENCY_FRACTION: f64 = 0.25;

/// One inference request.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceRequest {
    pub id: usize,
    /// Input shape; only same-shape requests coalesce into a batch.
    pub shape: Shape,
    /// Arrival time on the simulated clock, ms.
    pub arrival_ms: f64,
    /// Trace context carried from an upstream caller. `None` lets the
    /// engine derive a deterministic one from the request id
    /// ([`TraceContext::from_seed`]), so tracing needs no caller changes.
    pub trace: Option<TraceContext>,
}

/// Batching, concurrency, and fault-tolerance knobs.
///
/// Construct with [`ServeConfig::builder`] for validation at the edge, or
/// by struct literal (the fields stay public; the scheduler defensively
/// clamps the few that would otherwise divide by zero).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Device lanes (simulated streams) batches are launched onto.
    pub concurrency: usize,
    /// Maximum requests coalesced into one batch.
    pub max_batch: usize,
    /// Simulated time an underfull batch is held open for more same-shape
    /// arrivals before flushing. Lives entirely on the simulated clock
    /// ([`RequestQueue::form_batch`]), so formation is deterministic.
    pub batch_window: Duration,
    /// Admission-control bound on the request queue; offers beyond it are
    /// shed. `None` = unbounded (the pre-fault-tolerance behavior).
    pub queue_cap: Option<usize>,
    /// Per-request completion budget from arrival, simulated ms. Requests
    /// whose batch would finish past the budget are rejected at batch
    /// formation. `None` = no deadlines.
    pub deadline_ms: Option<f64>,
    /// Deterministic device-fault plan (the CLI wires `UNIGPU_FAULTS`
    /// here). A no-op plan leaves serving bit-identical to fault-free.
    pub faults: DeviceFaultPlan,
    /// Transient-fault retries per batch before degrading to the CPU.
    pub max_retries: usize,
    /// Consecutive device faults that trip the circuit breaker (0 disables
    /// the breaker).
    pub breaker_threshold: usize,
    /// Simulated ms an open breaker waits before half-opening a probe.
    pub breaker_cooldown_ms: f64,
    /// SLO success objective over offered requests (completed within
    /// deadline = good; shed/expired/failed = bad), e.g. `0.99`.
    pub slo_objective: f64,
    /// Trailing simulated-ms window for the SLO burn rate.
    pub slo_window_ms: f64,
    /// Trace every Nth request (by id): `1` traces everything (default),
    /// `0` disables tracing. Sampling bounds span-arg overhead at high
    /// offered load without losing the deterministic id derivation.
    pub trace_sample_every: usize,
    /// Mean |relative error| between predicted and observed latency at or
    /// above which the model is flagged miscalibrated (`engine.drift.*`).
    pub drift_threshold: f64,
    /// Graph-level drift samples required before the miscalibration
    /// verdict is trusted.
    pub drift_min_samples: u64,
    /// Events the always-on flight recorder retains.
    pub recorder_capacity: usize,
    /// Directory triggered flight-recorder dumps are written to. `None`
    /// (the default) keeps the recorder in-memory only — no disk I/O on
    /// the serving path.
    pub recorder_dump_dir: Option<PathBuf>,
    /// Declarative alert rules evaluated on the simulated clock at each
    /// batch retirement (see [`AlertRule::parse_rules`]). Empty = no
    /// alerting overhead.
    pub alert_rules: Vec<AlertRule>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            concurrency: 2,
            max_batch: 8,
            batch_window: Duration::from_millis(2),
            queue_cap: None,
            deadline_ms: None,
            faults: DeviceFaultPlan::default(),
            max_retries: 2,
            breaker_threshold: 3,
            breaker_cooldown_ms: 50.0,
            slo_objective: 0.99,
            slo_window_ms: 250.0,
            trace_sample_every: 1,
            drift_threshold: 0.25,
            drift_min_samples: 8,
            recorder_capacity: 256,
            recorder_dump_dir: None,
            alert_rules: Vec::new(),
        }
    }
}

impl ServeConfig {
    /// A validating builder seeded with the defaults. Rejects nonsense
    /// (zero concurrency, zero queue capacity, non-positive deadlines) at
    /// construction instead of clamping deep inside the scheduler.
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder {
            cfg: ServeConfig::default(),
        }
    }

    /// The trace context for request `id` under this config's sampling:
    /// the context the request carried if any, else a deterministic root
    /// derived from the id; `None` when the id is not sampled.
    pub(crate) fn request_trace(
        &self,
        id: usize,
        carried: Option<TraceContext>,
    ) -> Option<TraceContext> {
        if self.trace_sample_every == 0 || !id.is_multiple_of(self.trace_sample_every) {
            return None;
        }
        Some(carried.unwrap_or_else(|| TraceContext::from_seed(id as u64)))
    }
}

/// A [`ServeConfig`] knob rejected by [`ServeConfigBuilder::build`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// `concurrency` must be at least one device lane.
    ZeroConcurrency,
    /// `max_batch` must admit at least one request per batch.
    ZeroMaxBatch,
    /// A bounded queue must admit at least one request.
    ZeroQueueCap,
    /// Deadlines must be positive and finite (the carried value is the
    /// rejected one).
    InvalidDeadline(f64),
    /// The SLO objective is a success fraction in `(0, 1]`.
    InvalidSloObjective(f64),
    /// The SLO window must be positive and finite.
    InvalidSloWindow(f64),
    /// The breaker cooldown must be non-negative and finite.
    InvalidBreakerCooldown(f64),
    /// The drift threshold must be positive and finite.
    InvalidDriftThreshold(f64),
    /// The flight recorder must retain at least one event.
    ZeroRecorderCapacity,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroConcurrency => write!(f, "concurrency must be >= 1"),
            ConfigError::ZeroMaxBatch => write!(f, "max_batch must be >= 1"),
            ConfigError::ZeroQueueCap => write!(f, "queue_cap must be >= 1 (omit it for unbounded)"),
            ConfigError::InvalidDeadline(d) => {
                write!(f, "deadline_ms must be positive and finite, got {d}")
            }
            ConfigError::InvalidSloObjective(o) => {
                write!(f, "slo_objective must be a fraction in (0, 1], got {o}")
            }
            ConfigError::InvalidSloWindow(w) => {
                write!(f, "slo_window_ms must be positive and finite, got {w}")
            }
            ConfigError::InvalidBreakerCooldown(c) => {
                write!(f, "breaker_cooldown_ms must be non-negative and finite, got {c}")
            }
            ConfigError::InvalidDriftThreshold(t) => {
                write!(f, "drift_threshold must be positive and finite, got {t}")
            }
            ConfigError::ZeroRecorderCapacity => {
                write!(f, "recorder_capacity must be >= 1")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Builder for [`ServeConfig`] — see [`ServeConfig::builder`].
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    cfg: ServeConfig,
}

impl ServeConfigBuilder {
    pub fn concurrency(mut self, lanes: usize) -> Self {
        self.cfg.concurrency = lanes;
        self
    }

    pub fn max_batch(mut self, max: usize) -> Self {
        self.cfg.max_batch = max;
        self
    }

    pub fn batch_window(mut self, window: Duration) -> Self {
        self.cfg.batch_window = window;
        self
    }

    pub fn queue_cap(mut self, cap: usize) -> Self {
        self.cfg.queue_cap = Some(cap);
        self
    }

    pub fn deadline_ms(mut self, budget: f64) -> Self {
        self.cfg.deadline_ms = Some(budget);
        self
    }

    pub fn faults(mut self, plan: DeviceFaultPlan) -> Self {
        self.cfg.faults = plan;
        self
    }

    pub fn max_retries(mut self, retries: usize) -> Self {
        self.cfg.max_retries = retries;
        self
    }

    pub fn breaker_threshold(mut self, faults: usize) -> Self {
        self.cfg.breaker_threshold = faults;
        self
    }

    pub fn breaker_cooldown_ms(mut self, cooldown: f64) -> Self {
        self.cfg.breaker_cooldown_ms = cooldown;
        self
    }

    pub fn slo_objective(mut self, objective: f64) -> Self {
        self.cfg.slo_objective = objective;
        self
    }

    pub fn slo_window_ms(mut self, window: f64) -> Self {
        self.cfg.slo_window_ms = window;
        self
    }

    pub fn trace_sample_every(mut self, every: usize) -> Self {
        self.cfg.trace_sample_every = every;
        self
    }

    pub fn drift_threshold(mut self, threshold: f64) -> Self {
        self.cfg.drift_threshold = threshold;
        self
    }

    pub fn drift_min_samples(mut self, samples: u64) -> Self {
        self.cfg.drift_min_samples = samples;
        self
    }

    pub fn recorder_capacity(mut self, events: usize) -> Self {
        self.cfg.recorder_capacity = events;
        self
    }

    pub fn recorder_dump_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cfg.recorder_dump_dir = Some(dir.into());
        self
    }

    pub fn alert_rules(mut self, rules: Vec<AlertRule>) -> Self {
        self.cfg.alert_rules = rules;
        self
    }

    /// Validate and produce the config.
    pub fn build(self) -> Result<ServeConfig, ConfigError> {
        let cfg = self.cfg;
        if cfg.concurrency == 0 {
            return Err(ConfigError::ZeroConcurrency);
        }
        if cfg.max_batch == 0 {
            return Err(ConfigError::ZeroMaxBatch);
        }
        if cfg.queue_cap == Some(0) {
            return Err(ConfigError::ZeroQueueCap);
        }
        if let Some(d) = cfg.deadline_ms {
            if !d.is_finite() || d <= 0.0 {
                return Err(ConfigError::InvalidDeadline(d));
            }
        }
        if !cfg.slo_objective.is_finite() || cfg.slo_objective <= 0.0 || cfg.slo_objective > 1.0 {
            return Err(ConfigError::InvalidSloObjective(cfg.slo_objective));
        }
        if !cfg.slo_window_ms.is_finite() || cfg.slo_window_ms <= 0.0 {
            return Err(ConfigError::InvalidSloWindow(cfg.slo_window_ms));
        }
        if !cfg.breaker_cooldown_ms.is_finite() || cfg.breaker_cooldown_ms < 0.0 {
            return Err(ConfigError::InvalidBreakerCooldown(cfg.breaker_cooldown_ms));
        }
        if !cfg.drift_threshold.is_finite() || cfg.drift_threshold <= 0.0 {
            return Err(ConfigError::InvalidDriftThreshold(cfg.drift_threshold));
        }
        if cfg.recorder_capacity == 0 {
            return Err(ConfigError::ZeroRecorderCapacity);
        }
        Ok(cfg)
    }
}

/// Outcome of offering a request to a [`RequestQueue`].
#[derive(Debug, PartialEq)]
pub enum Admission {
    Accepted,
    /// The queue is at capacity — the request is shed back to the caller.
    Shed(InferenceRequest),
    /// The queue is closed — draining what it holds, accepting nothing new.
    Closed(InferenceRequest),
}

/// Outcome of one simulated-clock batch-formation decision
/// ([`RequestQueue::form_batch`]).
#[derive(Debug, PartialEq)]
pub enum Formation {
    /// A batch is ready: the contiguous same-shape run at the queue front.
    Flush(Vec<InferenceRequest>),
    /// An underfull same-shape run is held open for more arrivals; re-form
    /// at `until_ms` (simulated clock) unless something flushes it sooner.
    Hold { until_ms: f64 },
    /// Nothing queued right now. `closed` reports whether the queue has
    /// finished its drain-then-reject shutdown.
    Empty { closed: bool },
}

/// FIFO of admitted requests with shape-aware batch extraction and optional
/// bounded admission. Owned by one [`Server`], whose event loop is its only
/// mutator.
///
/// [`Server`]: crate::server::Server
#[derive(Debug)]
pub struct RequestQueue {
    cap: usize,
    queue: VecDeque<InferenceRequest>,
    closed: bool,
    /// Simulated time the current underfull front run was first seen by
    /// [`RequestQueue::form_batch`]; cleared on flush/empty.
    window_open_ms: Option<f64>,
    /// An emptied batch handed back by [`RequestQueue::recycle`]: the next
    /// flush fills it instead of allocating.
    spare: Vec<InferenceRequest>,
}

impl Default for RequestQueue {
    fn default() -> Self {
        RequestQueue::bounded(usize::MAX)
    }
}

impl RequestQueue {
    /// An unbounded queue.
    pub fn new() -> Self {
        RequestQueue::default()
    }

    /// A queue admitting at most `cap` queued requests at a time.
    pub fn bounded(cap: usize) -> Self {
        RequestQueue {
            cap: cap.max(1),
            queue: VecDeque::new(),
            closed: false,
            window_open_ms: None,
            spare: Vec::new(),
        }
    }

    /// Queue capacity (`usize::MAX` when unbounded).
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Offer a request through admission control: rejected (with the
    /// request handed back) when the queue is closed or at capacity.
    pub fn offer(&mut self, req: InferenceRequest) -> Admission {
        if self.closed {
            return Admission::Closed(req);
        }
        if self.queue.len() >= self.cap {
            return Admission::Shed(req);
        }
        self.queue.push_back(req);
        Admission::Accepted
    }

    /// Mark the queue closed: new offers are rejected immediately, while
    /// formation flushes what the queue holds and then reports
    /// `Empty { closed: true }` once it drains (drain-then-reject — close
    /// never loses queued requests).
    pub fn close(&mut self) {
        self.closed = true;
    }

    /// Remove and return every queued request without forming a batch —
    /// the hard-kill path ([`Server::kill`]): a dying replica hands its
    /// backlog back to the caller (a fleet router re-routes it to healthy
    /// peers) instead of silently losing it. The held-window state resets;
    /// the queue itself stays usable, though kill paths close it next.
    ///
    /// [`Server::kill`]: crate::server::Server::kill
    pub fn evict(&mut self) -> Vec<InferenceRequest> {
        self.window_open_ms = None;
        self.queue.drain(..).collect()
    }

    /// Hand a finished batch's buffer back for the next flush to reuse.
    pub fn recycle(&mut self, mut batch: Vec<InferenceRequest>) {
        batch.clear();
        self.spare = batch;
    }

    pub fn len(&self) -> usize {
        self.queue.len()
    }

    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// One simulated-clock batch-formation decision at `now_ms`: up to
    /// `max` requests sharing the shape of the queue's front request.
    /// Mismatched shapes never coalesce — a batch is only the *contiguous*
    /// same-shape run at the front, so cross-shape FIFO order is preserved.
    ///
    /// An underfull run is *held* (requests stay queued, still counted
    /// against [`RequestQueue::capacity`]) until `window_ms` of simulated
    /// time passes from when the run was first seen, but flushes
    /// immediately when it fills, when a mismatched request is already
    /// waiting behind it (holding on would only delay that request), or
    /// when the queue closes. The flush window lives entirely on the
    /// caller's clock, so formation is deterministic and replayable.
    pub fn form_batch(&mut self, max: usize, now_ms: f64, window_ms: f64) -> Formation {
        let max = max.max(1);
        if self.queue.is_empty() {
            self.window_open_ms = None;
            return Formation::Empty { closed: self.closed };
        }
        let opened = *self.window_open_ms.get_or_insert(now_ms);
        let anchor = &self.queue.front().expect("non-empty queue").shape;
        let run = self
            .queue
            .iter()
            .take(max)
            .take_while(|r| r.shape == *anchor)
            .count();
        // `run < len` can only mean a mismatched shape is waiting behind
        // the run (the scan is capped at `max`, but `run == max` flushes
        // anyway).
        if run == max || self.closed || run < self.queue.len() || now_ms >= opened + window_ms {
            self.window_open_ms = None;
            let mut batch = std::mem::take(&mut self.spare);
            batch.extend(self.queue.drain(..run));
            return Formation::Flush(batch);
        }
        Formation::Hold {
            until_ms: opened + window_ms,
        }
    }
}

/// Outcome of one request on the simulated clock.
#[derive(Debug, Clone)]
pub struct RequestResult {
    pub id: usize,
    pub arrival_ms: f64,
    /// When the batch containing this request started executing.
    pub start_ms: f64,
    pub done_ms: f64,
    /// Size of the batch it rode in.
    pub batch_size: usize,
    /// Device lane (simulated stream) that executed it.
    pub worker: usize,
    /// True when device faults re-placed this batch on the all-CPU
    /// degraded variant instead of the compiled placement.
    pub degraded: bool,
}

impl RequestResult {
    /// Time spent queued before execution started.
    pub fn queue_ms(&self) -> f64 {
        self.start_ms - self.arrival_ms
    }

    /// Execution time of the batch.
    pub fn exec_ms(&self) -> f64 {
        self.done_ms - self.start_ms
    }

    /// End-to-end latency: queueing + execution.
    pub fn latency_ms(&self) -> f64 {
        self.done_ms - self.arrival_ms
    }
}

/// Aggregate outcome of a serve run. Every offered request lands in
/// exactly one bucket: `results` (completed), `shed` (admission control),
/// `expired` (deadline), or `failed` (repeated worker panics — the
/// last-resort bucket, empty unless pricing itself is broken).
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Per-request results, sorted by request id.
    pub results: Vec<RequestResult>,
    /// Batches executed.
    pub batches: usize,
    /// Simulated time at which the last batch finished, ms.
    pub makespan_ms: f64,
    /// The per-lane device timeline (for trace export / utilization).
    pub timeline: MultiTimeline,
    /// Requests offered to the scheduler (all buckets sum to this).
    pub offered: usize,
    /// Requests rejected by admission control (queue at capacity).
    pub shed: Vec<InferenceRequest>,
    /// Requests rejected because their deadline could not be met.
    pub expired: Vec<InferenceRequest>,
    /// Requests abandoned after repeated worker panics.
    pub failed: Vec<InferenceRequest>,
    /// Device faults observed (kernel failures, OOM).
    pub device_faults: usize,
    /// Same-device retries after transient faults.
    pub retries: usize,
    /// Batches re-placed on the all-CPU degraded variant.
    pub degraded_batches: usize,
    /// Circuit-breaker trips (closed/half-open → open).
    pub breaker_trips: usize,
    /// Circuit-breaker recoveries (half-open → closed).
    pub breaker_recoveries: usize,
    /// Worker panics caught and isolated.
    pub worker_panics: usize,
    /// Fraction of total device capacity (`lanes × makespan`) spent
    /// idle — the paper's core utilization concern, measured on the
    /// simulated timeline.
    pub device_idle_fraction: f64,
    /// Per-lane busy fraction over the makespan.
    pub lane_utilization: Vec<f64>,
    /// SLO digest at the makespan: completed = good, shed/expired/failed =
    /// bad, burn rate over [`ServeConfig::slo_window_ms`].
    pub slo: SloSummary,
    /// Cost-model drift digest: predicted vs observed latency over the
    /// run, with the miscalibration verdict judged against
    /// [`ServeConfig::drift_threshold`].
    pub drift: DriftSummary,
    /// Alert fire edges over the run (`engine.alert.fired`).
    pub alerts_fired: u64,
    /// Alert resolve edges over the run.
    pub alerts_resolved: u64,
    /// Names of alert rules that fired at least once, in rule order.
    pub fired_alerts: Vec<String>,
    /// Flight-recorder dump files written during the run (empty unless
    /// [`ServeConfig::recorder_dump_dir`] is set and a trigger fired).
    pub recorder_dumps: Vec<PathBuf>,
}

impl ServeReport {
    pub fn throughput_rps(&self) -> f64 {
        if self.makespan_ms <= 0.0 {
            0.0
        } else {
            self.results.len() as f64 / (self.makespan_ms / 1000.0)
        }
    }

    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.results.len() as f64 / self.batches as f64
        }
    }

    /// Requests in no bucket at all — the chaos invariant is that this is
    /// always zero.
    pub fn lost(&self) -> usize {
        self.offered.saturating_sub(
            self.results.len() + self.shed.len() + self.expired.len() + self.failed.len(),
        )
    }

    /// FNV-1a digest over every externally observable field. Two zero-noise
    /// runs of the same workload must agree bit for bit — the CI
    /// determinism gate compares this across back-to-back serves.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.mix_u64(self.offered as u64);
        h.mix_u64(self.batches as u64);
        h.mix_u64(self.makespan_ms.to_bits());
        for r in &self.results {
            h.mix_u64(r.id as u64);
            h.mix_u64(r.arrival_ms.to_bits());
            h.mix_u64(r.start_ms.to_bits());
            h.mix_u64(r.done_ms.to_bits());
            h.mix_u64(r.batch_size as u64);
            h.mix_u64(r.worker as u64);
            h.mix_u64(u64::from(r.degraded));
        }
        for bucket in [&self.shed, &self.expired, &self.failed] {
            h.mix_u64(bucket.len() as u64);
            for r in bucket {
                h.mix_u64(r.id as u64);
                h.mix_u64(r.arrival_ms.to_bits());
            }
        }
        for v in [
            self.device_faults,
            self.retries,
            self.degraded_batches,
            self.breaker_trips,
            self.breaker_recoveries,
            self.worker_panics,
        ] {
            h.mix_u64(v as u64);
        }
        h.mix_u64(self.device_idle_fraction.to_bits());
        for u in &self.lane_utilization {
            h.mix_u64(u.to_bits());
        }
        h.mix_u64(self.slo.good);
        h.mix_u64(self.slo.bad);
        h.mix_u64(self.drift.samples);
        h.mix_u64(self.drift.mean_abs_rel_err.to_bits());
        h.mix_u64(self.drift.max_abs_rel_err.to_bits());
        h.mix_u64(u64::from(self.drift.miscalibrated));
        h.mix_u64(self.alerts_fired);
        h.mix_u64(self.alerts_resolved);
        for name in &self.fired_alerts {
            h.update(name.as_bytes());
        }
        // Dump *count* is deterministic; the paths embed the caller's dump
        // directory, so they stay out of the digest.
        h.mix_u64(self.recorder_dumps.len() as u64);
        h.finish()
    }
}

/// `n` same-shape requests for a compiled model, evenly spaced
/// `interval_ms` apart on the simulated clock (ids `0..n`).
pub fn uniform_requests(
    compiled: &CompiledModel,
    n: usize,
    interval_ms: f64,
) -> Vec<InferenceRequest> {
    let shape = compiled.input_shape();
    (0..n)
        .map(|i| InferenceRequest {
            id: i,
            shape: shape.clone(),
            arrival_ms: i as f64 * interval_ms,
            trace: None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: usize, dims: &[usize], arrival_ms: f64) -> InferenceRequest {
        InferenceRequest {
            id,
            shape: Shape(dims.to_vec()),
            arrival_ms,
            trace: None,
        }
    }

    #[test]
    fn form_batch_takes_contiguous_same_shape_run() {
        let mut q = RequestQueue::new();
        for i in 0..4 {
            q.offer(req(i, &[1, 3, 8, 8], 0.0));
        }
        q.offer(req(4, &[1, 3, 16, 16], 0.0));
        // flushes immediately despite the long window: a mismatched shape
        // is already waiting behind the run
        match q.form_batch(8, 0.0, 5000.0) {
            Formation::Flush(batch) => assert_eq!(
                batch.iter().map(|r| r.id).collect::<Vec<_>>(),
                vec![0, 1, 2, 3]
            ),
            other => panic!("expected flush, got {other:?}"),
        }
        q.close();
        match q.form_batch(8, 0.0, 5000.0) {
            Formation::Flush(tail) => {
                assert_eq!(tail.len(), 1);
                assert_eq!(tail[0].id, 4);
            }
            other => panic!("expected closed flush, got {other:?}"),
        }
        assert_eq!(q.form_batch(8, 0.0, 1.0), Formation::Empty { closed: true });
    }

    #[test]
    fn form_batch_mismatched_shapes_never_coalesce() {
        let mut q = RequestQueue::new();
        for i in 0..6 {
            let dims: &[usize] = if i % 2 == 0 {
                &[1, 3, 8, 8]
            } else {
                &[1, 3, 16, 16]
            };
            q.offer(req(i, dims, 0.0));
        }
        q.close();
        let mut order = Vec::new();
        while let Formation::Flush(batch) = q.form_batch(8, 0.0, 1.0) {
            assert!(
                batch.iter().all(|r| r.shape == batch[0].shape),
                "every batch is shape-uniform"
            );
            assert_eq!(batch.len(), 1, "alternating shapes force singleton batches");
            order.extend(batch.iter().map(|r| r.id));
        }
        assert_eq!(
            order,
            vec![0, 1, 2, 3, 4, 5],
            "FIFO order preserved across shapes"
        );
    }

    #[test]
    fn form_batch_full_batch_flushes_without_waiting_for_the_window() {
        let mut q = RequestQueue::new();
        for i in 0..8 {
            q.offer(req(i, &[1, 3, 8, 8], 0.0));
        }
        match q.form_batch(4, 0.0, 5000.0) {
            Formation::Flush(batch) => assert_eq!(batch.len(), 4),
            other => panic!("no window stall on a full batch, got {other:?}"),
        }
        assert_eq!(q.len(), 4);
    }

    #[test]
    fn form_batch_holds_partial_run_until_the_simulated_window() {
        let mut q = RequestQueue::new();
        for i in 0..3 {
            q.offer(req(i, &[1, 3, 8, 8], 0.0));
        }
        // the window opens the first time formation sees the run
        assert_eq!(
            q.form_batch(8, 10.0, 40.0),
            Formation::Hold { until_ms: 50.0 }
        );
        assert_eq!(q.len(), 3, "held requests stay queued");
        // still short of the window: the open time is remembered, not reset
        assert_eq!(
            q.form_batch(8, 30.0, 40.0),
            Formation::Hold { until_ms: 50.0 }
        );
        // a fourth same-shape arrival joins the held run
        q.offer(req(3, &[1, 3, 8, 8], 0.0));
        match q.form_batch(8, 50.0, 40.0) {
            Formation::Flush(batch) => assert_eq!(batch.len(), 4, "window elapsed, run flushed"),
            other => panic!("expected flush at the window, got {other:?}"),
        }
        assert_eq!(q.form_batch(8, 50.0, 40.0), Formation::Empty { closed: false });
    }

    #[test]
    fn form_batch_window_reopens_per_run() {
        let mut q = RequestQueue::new();
        q.offer(req(0, &[1, 3, 8, 8], 0.0));
        assert_eq!(
            q.form_batch(4, 0.0, 10.0),
            Formation::Hold { until_ms: 10.0 }
        );
        match q.form_batch(4, 10.0, 10.0) {
            Formation::Flush(batch) => assert_eq!(batch.len(), 1),
            other => panic!("expected flush, got {other:?}"),
        }
        // the next run opens a fresh window anchored at its own first look
        q.offer(req(1, &[1, 3, 8, 8], 0.0));
        assert_eq!(
            q.form_batch(4, 25.0, 10.0),
            Formation::Hold { until_ms: 35.0 }
        );
    }

    #[test]
    fn bounded_queue_sheds_at_capacity() {
        let mut q = RequestQueue::bounded(2);
        assert_eq!(q.capacity(), 2);
        assert_eq!(q.offer(req(0, &[1, 3, 8, 8], 0.0)), Admission::Accepted);
        assert_eq!(q.offer(req(1, &[1, 3, 8, 8], 0.0)), Admission::Accepted);
        match q.offer(req(2, &[1, 3, 8, 8], 0.0)) {
            Admission::Shed(r) => assert_eq!(r.id, 2, "the shed request comes back"),
            other => panic!("expected shed, got {other:?}"),
        }
        // draining frees capacity again
        match q.form_batch(8, 0.0, 0.0) {
            Formation::Flush(batch) => assert_eq!(batch.len(), 2),
            other => panic!("expected flush, got {other:?}"),
        }
        assert_eq!(q.offer(req(3, &[1, 3, 8, 8], 0.0)), Admission::Accepted);
    }

    #[test]
    fn close_drains_queued_requests_then_rejects_new_offers() {
        let mut q = RequestQueue::new();
        for i in 0..5 {
            assert_eq!(q.offer(req(i, &[1, 3, 8, 8], 0.0)), Admission::Accepted);
        }
        q.close();
        // new offers are rejected immediately...
        match q.offer(req(9, &[1, 3, 8, 8], 0.0)) {
            Admission::Closed(r) => assert_eq!(r.id, 9),
            other => panic!("expected closed, got {other:?}"),
        }
        // ...but everything already queued still drains, in order
        let mut drained = Vec::new();
        while let Formation::Flush(batch) = q.form_batch(2, 0.0, 1.0) {
            drained.extend(batch.iter().map(|r| r.id));
        }
        assert_eq!(
            drained,
            vec![0, 1, 2, 3, 4],
            "no queued request lost on close"
        );
    }

    #[test]
    fn evict_hands_back_every_queued_request() {
        let mut q = RequestQueue::bounded(8);
        for i in 0..5 {
            assert_eq!(q.offer(req(i, &[1, 3, 8, 8], 0.0)), Admission::Accepted);
        }
        // open a held window so evict also exercises the window reset
        assert!(matches!(q.form_batch(8, 0.0, 100.0), Formation::Hold { .. }));
        let evicted = q.evict();
        assert_eq!(
            evicted.iter().map(|r| r.id).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4],
            "eviction preserves FIFO order"
        );
        assert!(q.is_empty());
        assert_eq!(
            q.form_batch(8, 0.0, 100.0),
            Formation::Empty { closed: false },
            "window state reset with the backlog"
        );
        // the queue stays usable after eviction
        assert_eq!(q.offer(req(9, &[1, 3, 8, 8], 0.0)), Admission::Accepted);
    }

    #[test]
    fn builder_accepts_defaults_and_sets_fields() {
        let cfg = ServeConfig::builder()
            .concurrency(4)
            .max_batch(16)
            .batch_window(Duration::from_millis(1))
            .queue_cap(32)
            .deadline_ms(125.0)
            .max_retries(5)
            .breaker_threshold(7)
            .breaker_cooldown_ms(9.0)
            .slo_objective(0.999)
            .slo_window_ms(100.0)
            .trace_sample_every(2)
            .drift_threshold(0.5)
            .drift_min_samples(3)
            .recorder_capacity(64)
            .recorder_dump_dir("target/dumps")
            .alert_rules(vec![AlertRule::parse("burn:engine.slo.burn_rate>2").unwrap()])
            .build()
            .expect("valid config");
        assert_eq!(cfg.concurrency, 4);
        assert_eq!(cfg.max_batch, 16);
        assert_eq!(cfg.queue_cap, Some(32));
        assert_eq!(cfg.deadline_ms, Some(125.0));
        assert_eq!(cfg.max_retries, 5);
        assert_eq!(cfg.breaker_threshold, 7);
        assert_eq!(cfg.trace_sample_every, 2);
        assert_eq!(cfg.drift_threshold, 0.5);
        assert_eq!(cfg.drift_min_samples, 3);
        assert_eq!(cfg.recorder_capacity, 64);
        assert_eq!(cfg.recorder_dump_dir, Some(PathBuf::from("target/dumps")));
        assert_eq!(cfg.alert_rules.len(), 1);
        assert!(ServeConfig::builder().build().is_ok(), "defaults validate");
    }

    #[test]
    fn builder_rejects_nonsense() {
        let err = |b: ServeConfigBuilder| b.build().expect_err("invalid config must not build");
        assert_eq!(
            err(ServeConfig::builder().concurrency(0)),
            ConfigError::ZeroConcurrency
        );
        assert_eq!(
            err(ServeConfig::builder().max_batch(0)),
            ConfigError::ZeroMaxBatch
        );
        assert_eq!(
            err(ServeConfig::builder().queue_cap(0)),
            ConfigError::ZeroQueueCap
        );
        assert_eq!(
            err(ServeConfig::builder().deadline_ms(-1.0)),
            ConfigError::InvalidDeadline(-1.0)
        );
        assert!(matches!(
            err(ServeConfig::builder().deadline_ms(f64::NAN)),
            ConfigError::InvalidDeadline(_)
        ));
        assert_eq!(
            err(ServeConfig::builder().slo_objective(1.5)),
            ConfigError::InvalidSloObjective(1.5)
        );
        assert_eq!(
            err(ServeConfig::builder().slo_window_ms(0.0)),
            ConfigError::InvalidSloWindow(0.0)
        );
        assert_eq!(
            err(ServeConfig::builder().breaker_cooldown_ms(-2.0)),
            ConfigError::InvalidBreakerCooldown(-2.0)
        );
        assert_eq!(
            err(ServeConfig::builder().drift_threshold(0.0)),
            ConfigError::InvalidDriftThreshold(0.0)
        );
        assert!(matches!(
            err(ServeConfig::builder().drift_threshold(f64::NAN)),
            ConfigError::InvalidDriftThreshold(_)
        ));
        assert_eq!(
            err(ServeConfig::builder().recorder_capacity(0)),
            ConfigError::ZeroRecorderCapacity
        );
        // errors render as actionable prose
        assert!(ConfigError::ZeroQueueCap.to_string().contains("queue_cap"));
    }
}
