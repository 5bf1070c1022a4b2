//! Event-driven serving scheduler on the simulated clock.
//!
//! [`Server`] is a discrete-event core: batch *formation*
//! ([`RequestQueue::form_batch`]), device *execution* (launches onto
//! [`MultiTimeline`] lanes), and *readback/accounting* are overlapping
//! stages driven by one priority queue of simulated-time events. Multiple
//! batches are in flight per device, and a lane never idles while
//! compatible requests are queued — the moment a readback frees a lane,
//! formation runs again at that exact simulated instant.
//!
//! **Continuous batching:** [`Server::submit`] drives the clock. A request
//! arriving while batches are in flight joins the *next* formation slot
//! (`engine.continuous_joins`) instead of waiting for a full drain; the
//! flush window lives entirely on the simulated clock, so formation
//! decisions are deterministic and replayable ([`ServeReport::digest`]).
//! Arrivals timestamped in the past join the current simulated instant —
//! the clock never runs backwards.
//!
//! Because the core is a single-threaded event loop, 10k+ in-flight
//! requests cost 10k queue slots, not 10k OS threads. All of the
//! fault-tolerance machinery — deadlines, shedding, transient-fault retry,
//! CPU-degraded re-placement, the circuit breaker, panic isolation, trace
//! contexts, and SLO accounting — runs unchanged inside the event handlers
//! (see [`crate::serve`] for the knob-by-knob description).
//!
//! [`serve_phase_sequential`] is the pipelining-ablation baseline: static
//! same-shape chunks, each waiting for its *last* arrival before launch,
//! with no partial flushes.

use crate::breaker::{Breaker, Edge};
use crate::compiled::CompiledModel;
use crate::serve::{
    Admission, Formation, InferenceRequest, RequestQueue, RequestResult, ServeConfig, ServeReport,
    FAULT_LATENCY_FRACTION, LANE_CONTROL, LANE_WORKER_BASE,
};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use unigpu_device::{DeviceFaultState, LaunchOutcome, MultiTimeline, StreamLabel};
use unigpu_telemetry::AttrValue::{Static, Text, F64, U64};
use unigpu_telemetry::{
    tel_warn, AlertEngine, CounterSlot, DriftConfig, DriftMonitor, FlightRecorder, GaugeSlot,
    HistogramSlot, MetricsRegistry, SloConfig, SloTracker, SpanRecord, SpanRecorder, TraceContext,
};

/// Deadline expiries within [`DEADLINE_BURST_WINDOW_MS`] that trip a
/// flight-recorder dump.
const DEADLINE_BURST_COUNT: usize = 4;
/// Sliding simulated-time window for the deadline-burst trigger, ms.
const DEADLINE_BURST_WINDOW_MS: f64 = 50.0;
/// SLO burn rate above which the (once-per-run) burn dump triggers.
const BURN_DUMP_THRESHOLD: f64 = 2.0;

/// What readback needs of a request that rode a launched batch.
#[derive(Debug, Clone, Copy)]
struct Rider {
    id: usize,
    arrival_ms: f64,
    trace: Option<TraceContext>,
}

/// A batch whose execution interval is already priced on the timeline,
/// waiting for its readback event to be accounted.
#[derive(Debug)]
struct Retire {
    lane: usize,
    /// Batch index (the formation slot) — `batch{idx}` on the timeline.
    idx: usize,
    start_ms: f64,
    done_ms: f64,
    degraded: bool,
    /// Drawn from and returned to [`Server::rider_pool`].
    kept: Vec<Rider>,
}

/// What launching a batch of one size on one device variant costs.
#[derive(Debug)]
struct LaunchPlan {
    base_ms: f64,
    /// Per cost-table row, the node's predicted share of `base_ms` — what
    /// the drift tap compares against. Empty for the CPU variant (its
    /// batches say nothing about the GPU cost table) and when there is no
    /// positive prediction to apportion.
    node_ms: Vec<f64>,
}

/// The launch plan for a batch of `len` on the compiled placement or its
/// CPU-degraded variant, derived on first use into `plans` (indexed
/// `2 * len + degraded`).
fn launch_plan<'p>(
    plans: &'p mut Vec<Option<LaunchPlan>>,
    compiled: &CompiledModel,
    len: usize,
    degraded: bool,
) -> &'p LaunchPlan {
    let at = 2 * len + usize::from(degraded);
    if plans.len() <= at {
        plans.resize_with(at + 1, || None);
    }
    plans[at].get_or_insert_with(|| {
        if degraded {
            let base_ms = compiled.degraded().estimate_batch_ms(len);
            return LaunchPlan { base_ms, node_ms: Vec::new() };
        }
        let base_ms = compiled.estimate_batch_ms(len);
        let table = compiled.cost_table();
        let total: f64 = table.iter().map(|(_, ms)| ms).sum();
        let mut node_ms = Vec::new();
        if base_ms > 0.0 && total > 0.0 {
            let scale = base_ms / total;
            node_ms = table.iter().map(|(_, ms)| ms * scale).collect();
        }
        LaunchPlan { base_ms, node_ms }
    })
}

/// The metrics the server moves per request, per batch or per device
/// fault, resolved to registry slots at construction. (The panic ladder,
/// dumps and end-of-run gauges are rare enough to go by name.)
struct MetricSlots {
    continuous_joins: CounterSlot,
    shed: CounterSlot,
    deadline_expired: CounterSlot,
    device_faults: CounterSlot,
    retries: CounterSlot,
    degraded_batches: CounterSlot,
    batches: CounterSlot,
    requests: CounterSlot,
    queue_depth: GaugeSlot,
    inflight: GaugeSlot,
    batch_size: HistogramSlot,
    exec_ms: HistogramSlot,
    queue_ms: HistogramSlot,
    latency_ms: HistogramSlot,
}

impl MetricSlots {
    fn resolve(m: &MetricsRegistry) -> Self {
        MetricSlots {
            continuous_joins: m.counter_slot("engine.continuous_joins"),
            shed: m.counter_slot("engine.shed"),
            deadline_expired: m.counter_slot("engine.deadline_expired"),
            device_faults: m.counter_slot("engine.device_faults"),
            retries: m.counter_slot("engine.retries"),
            degraded_batches: m.counter_slot("engine.degraded_batches"),
            batches: m.counter_slot("engine.batches"),
            requests: m.counter_slot("engine.requests"),
            queue_depth: m.gauge_slot("engine.queue_depth"),
            inflight: m.gauge_slot("engine.inflight"),
            batch_size: m.histogram_slot("engine.batch_size"),
            exec_ms: m.histogram_slot("engine.exec_ms"),
            queue_ms: m.histogram_slot("engine.queue_ms"),
            latency_ms: m.histogram_slot("engine.latency_ms"),
        }
    }
}

fn device_name(degraded: bool) -> &'static str {
    if degraded { "cpu" } else { "gpu" }
}

#[derive(Debug)]
enum EventKind {
    /// A launched batch finishes: account it and free its lane.
    Readback(Retire),
    /// A held formation window elapses: re-run formation.
    Flush,
}

/// One simulated-time event. Ordered by `(at_ms, seq)` so same-instant
/// events retire in creation order — fully deterministic.
#[derive(Debug)]
struct Event {
    at_ms: f64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at_ms.to_bits() == other.at_ms.to_bits() && self.seq == other.seq
    }
}

impl Eq for Event {}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at_ms
            .total_cmp(&other.at_ms)
            .then(self.seq.cmp(&other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Clone, Copy)]
enum ExecMode {
    /// Normal path: device attempts with retry/breaker, CPU on exhaustion.
    Device { inject_panics: bool },
    /// Last-resort path after repeated panics: price on the CPU variant
    /// without touching the device or the panic-injection counters.
    ForceDegraded,
}

/// Streaming serve handle — the event-driven scheduler plus its telemetry.
///
/// Obtain one from [`CompiledModel::server`] (fresh telemetry) or
/// [`CompiledModel::server_with`] (caller-shared recorder/registry, e.g.
/// for a live metrics endpoint). Feed it with [`Server::submit`], harvest
/// completions incrementally with [`Server::poll`] or force the backlog
/// through with [`Server::drain`], and finish with [`Server::shutdown`] for
/// the full [`ServeReport`].
///
/// The handle owns the simulated clock: time advances on `submit` (to the
/// request's arrival), on `drain`, and on `shutdown`. Everything in
/// between — formation windows, launches, readbacks, breaker cooldowns —
/// happens at exact simulated instants through one event queue, so a run
/// is deterministic end to end.
pub struct Server {
    compiled: CompiledModel,
    cfg: ServeConfig,
    spans: SpanRecorder,
    metrics: MetricsRegistry,
    slots: MetricSlots,
    queue: RequestQueue,
    timeline: MultiTimeline,
    clock_ms: f64,
    events: BinaryHeap<Reverse<Event>>,
    seq: u64,
    /// Deadline of the currently armed `Flush` event, if any — dedups
    /// re-arming while a held window is already ticking.
    flush_armed_at: Option<f64>,
    window_ms: f64,
    completed: Vec<RequestResult>,
    /// How much of `completed` earlier `poll`/`drain` calls handed out.
    harvested: usize,
    shed: Vec<InferenceRequest>,
    expired: Vec<InferenceRequest>,
    failed: Vec<InferenceRequest>,
    offered: usize,
    batches: usize,
    inflight: usize,
    continuous_joins: usize,
    faults: DeviceFaultState,
    breaker: Breaker,
    plans: Vec<Option<LaunchPlan>>,
    /// Idle `Retire::kept` buffers (at most one per lane in flight).
    rider_pool: Vec<Vec<Rider>>,
    device_faults: usize,
    retries: usize,
    degraded_batches: usize,
    worker_panics: usize,
    slo: SloTracker,
    /// Always-on bounded ring of recent scheduler events (simulated clock).
    recorder: FlightRecorder,
    /// Predicted-vs-observed latency accounting against the cost table.
    drift: DriftMonitor,
    /// `drift`'s slot for each cost-table row, in table order.
    node_slots: Vec<usize>,
    /// Declarative threshold alerting over the metrics registry.
    alerts: AlertEngine,
    /// Flight-recorder dump files written so far this run.
    dumps: Vec<PathBuf>,
    /// Simulated times of recent deadline expiries (burst trigger window).
    recent_expiries: VecDeque<f64>,
    /// The SLO burn-rate dump fires at most once per run.
    burn_dumped: bool,
}

impl Server {
    /// A server with its own fresh [`SpanRecorder`] and
    /// [`MetricsRegistry`] (see [`Server::spans`] / [`Server::metrics`]).
    pub fn new(compiled: CompiledModel, cfg: ServeConfig) -> Self {
        Server::with_telemetry(compiled, cfg, SpanRecorder::new(), MetricsRegistry::new())
    }

    /// A server recording into caller-owned telemetry (both types are
    /// cheaply clonable `Arc` handles — share them with an exposition
    /// endpoint to watch the run live).
    pub fn with_telemetry(
        compiled: CompiledModel,
        cfg: ServeConfig,
        spans: SpanRecorder,
        metrics: MetricsRegistry,
    ) -> Self {
        let queue = match cfg.queue_cap {
            Some(cap) => RequestQueue::bounded(cap),
            None => RequestQueue::new(),
        };
        let slo = SloTracker::new(SloConfig {
            objective: cfg.slo_objective,
            window_ms: cfg.slo_window_ms,
        });
        let window_ms = cfg.batch_window.as_secs_f64() * 1000.0;
        let recorder = FlightRecorder::new(cfg.recorder_capacity);
        let mut drift = DriftMonitor::new(DriftConfig {
            threshold: cfg.drift_threshold,
            min_samples: cfg.drift_min_samples,
        });
        let node_slots = compiled
            .cost_table()
            .iter()
            .map(|(name, _)| drift.node_slot(name))
            .collect();
        let alerts = AlertEngine::new(cfg.alert_rules.clone());
        Server {
            timeline: MultiTimeline::new(cfg.concurrency.max(1)),
            faults: DeviceFaultState::new(cfg.faults),
            breaker: Breaker::new(cfg.breaker_threshold, cfg.breaker_cooldown_ms),
            queue,
            slo,
            window_ms,
            plans: Vec::new(),
            rider_pool: Vec::new(),
            compiled,
            cfg,
            spans,
            slots: MetricSlots::resolve(&metrics),
            metrics,
            clock_ms: 0.0,
            events: BinaryHeap::new(),
            seq: 0,
            flush_armed_at: None,
            completed: Vec::new(),
            harvested: 0,
            shed: Vec::new(),
            expired: Vec::new(),
            failed: Vec::new(),
            offered: 0,
            batches: 0,
            inflight: 0,
            continuous_joins: 0,
            device_faults: 0,
            retries: 0,
            degraded_batches: 0,
            worker_panics: 0,
            recorder,
            drift,
            node_slots,
            alerts,
            dumps: Vec::new(),
            recent_expiries: VecDeque::new(),
            burn_dumped: false,
        }
    }

    /// Current simulated time, ms.
    pub fn now_ms(&self) -> f64 {
        self.clock_ms
    }

    /// Batches launched but not yet retired by their readback event.
    pub fn inflight(&self) -> usize {
        self.inflight
    }

    /// Requests admitted but not yet formed into a batch.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Requests offered so far (accepted or not).
    pub fn offered(&self) -> usize {
        self.offered
    }

    /// Requests admitted mid-flight that joined a later formation slot —
    /// the continuous-batching count (also `engine.continuous_joins`).
    pub fn continuous_joins(&self) -> usize {
        self.continuous_joins
    }

    /// Circuit-breaker state as the `engine.breaker_state` gauge encodes
    /// it: 0 closed, 1 open, 2 half-open. A fleet router reads this on
    /// every admission ack so tripped replicas shed to healthy peers.
    pub fn breaker_gauge(&self) -> f64 {
        self.breaker.gauge()
    }

    /// Simulated instant an open breaker becomes eligible to half-open;
    /// `None` unless the breaker is open. A starved replica's clock only
    /// advances when work arrives, so a router uses this to decide when a
    /// request may *probe* an open replica instead of waiting forever.
    pub fn breaker_open_until_ms(&self) -> Option<f64> {
        self.breaker.open_until_ms()
    }

    /// SLO burn rate at the current simulated instant (non-mutating; the
    /// same quantity `engine.slo.burn_rate` publishes at retirement).
    pub fn slo_burn_rate(&self) -> f64 {
        self.slo.summary(self.clock_ms).burn_rate
    }

    /// Hard-kill this server: requests still queued (admitted but not yet
    /// formed into a batch) are evicted and handed back for re-routing —
    /// they leave this server's accounting entirely — while batches
    /// already in flight run to their readback and are reported normally.
    /// The fleet chaos invariant rests on this split: a killed replica's
    /// report still satisfies `lost() == 0`, and the evicted backlog is
    /// the router's to place elsewhere.
    pub fn kill(mut self) -> (Vec<InferenceRequest>, ServeReport) {
        let evicted = self.queue.evict();
        self.offered -= evicted.len();
        self.queue.close();
        self.run_to_quiescence();
        (evicted, self.finalize())
    }

    /// The span recorder this server writes to.
    pub fn spans(&self) -> &SpanRecorder {
        &self.spans
    }

    /// The metrics registry this server writes to.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Offer one request. Advances the simulated clock to the request's
    /// arrival (processing every event due before it — readbacks free
    /// lanes, held windows flush), then runs admission control and
    /// formation. `Accepted` means admitted, not completed: harvest
    /// completions with [`Server::poll`]/[`Server::drain`]/
    /// [`Server::shutdown`]. Rejections are accounted (`engine.shed`, SLO
    /// bad) and also handed back to the caller.
    ///
    /// Arrivals are expected in non-decreasing order; an out-of-order
    /// arrival is not an error — it simply joins the current instant.
    pub fn submit(&mut self, req: InferenceRequest) -> Admission {
        self.offered += 1;
        let target = self.clock_ms.max(req.arrival_ms);
        self.advance_to(target);
        let mid_flight = self.inflight > 0;
        let id = req.id;
        let admission = self.queue.offer(req);
        let id_attr = ("id", U64(id as u64));
        let (rejected, closed) = match &admission {
            Admission::Accepted => {
                {
                    let mut m = self.metrics.lock();
                    if mid_flight {
                        // continuous batching: this request joins the next
                        // formation slot while earlier batches are still
                        // on the device
                        self.continuous_joins += 1;
                        m.inc(self.slots.continuous_joins);
                    }
                    m.set_gauge(self.slots.queue_depth, self.queue.len() as f64);
                }
                self.recorder.event(self.clock_ms, "admit", [id_attr]);
                self.dispatch();
                return admission;
            }
            Admission::Shed(r) => (r, false),
            Admission::Closed(r) => (r, true),
        };
        self.metrics.lock().inc(self.slots.shed);
        self.slo.bad(rejected.arrival_ms);
        if closed {
            self.recorder
                .event(self.clock_ms, "shed", [id_attr, ("closed", Static("1"))]);
        } else {
            self.recorder.event(self.clock_ms, "shed", [id_attr]);
        }
        self.shed.push(rejected.clone());
        admission
    }

    /// Hand out results completed since the last harvest. Never advances
    /// the simulated clock.
    pub fn poll(&mut self) -> Vec<RequestResult> {
        let out = self.completed[self.harvested..].to_vec();
        self.harvested = self.completed.len();
        out
    }

    /// Run the simulated clock forward until every admitted request has
    /// retired (held windows flush, in-flight batches read back), then
    /// hand out the newly completed results. The queue stays open for
    /// further submissions.
    pub fn drain(&mut self) -> Vec<RequestResult> {
        self.run_to_quiescence();
        self.poll()
    }

    /// Close the queue (drain-then-reject), run every remaining event, and
    /// produce the final report, publishing the end-of-run gauges and SLO
    /// summary.
    pub fn shutdown(mut self) -> ServeReport {
        self.queue.close();
        self.run_to_quiescence();
        self.finalize()
    }

    /// Process every due event up to `limit`, then move the clock there
    /// and re-run formation at the new instant.
    fn advance_to(&mut self, limit_ms: f64) {
        loop {
            match self.events.peek() {
                Some(Reverse(ev)) if ev.at_ms <= limit_ms => {
                    let Reverse(ev) = self.events.pop().expect("peeked event");
                    self.clock_ms = self.clock_ms.max(ev.at_ms);
                    self.handle(ev);
                }
                _ => break,
            }
        }
        self.clock_ms = self.clock_ms.max(limit_ms);
        self.dispatch();
    }

    /// Drain the event queue completely; the heap only ever shrinks once
    /// no new work can be launched, so this terminates at quiescence.
    fn run_to_quiescence(&mut self) {
        self.dispatch();
        while let Some(Reverse(ev)) = self.events.pop() {
            self.clock_ms = self.clock_ms.max(ev.at_ms);
            self.handle(ev);
        }
    }

    fn handle(&mut self, ev: Event) {
        match ev.kind {
            EventKind::Readback(retire) => {
                self.retire(retire);
                self.dispatch();
            }
            EventKind::Flush => {
                if self.flush_armed_at == Some(ev.at_ms) {
                    self.flush_armed_at = None;
                }
                self.dispatch();
            }
        }
    }

    fn push_event(&mut self, at_ms: f64, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.events.push(Reverse(Event { at_ms, seq, kind }));
    }

    /// Launch work while a lane is free at the current instant and
    /// formation yields a batch. An underfull run arms a `Flush` event at
    /// its window deadline instead of blocking.
    fn dispatch(&mut self) {
        while let Some(lane) = self.timeline.first_free_at(self.clock_ms) {
            match self
                .queue
                .form_batch(self.cfg.max_batch, self.clock_ms, self.window_ms)
            {
                Formation::Flush(mut batch) => {
                    self.metrics
                        .lock()
                        .set_gauge(self.slots.queue_depth, self.queue.len() as f64);
                    self.execute(lane, &mut batch);
                    self.queue.recycle(batch);
                }
                Formation::Hold { until_ms } => {
                    if self.flush_armed_at != Some(until_ms) {
                        self.flush_armed_at = Some(until_ms);
                        self.push_event(until_ms, EventKind::Flush);
                    }
                    break;
                }
                Formation::Empty { .. } => break,
            }
        }
    }

    /// Execute one formed batch on `lane` under the panic-isolation
    /// ladder: device with injected panics → device without → forced CPU
    /// accounting → the counted `failed` bucket.
    fn execute(&mut self, lane: usize, batch: &mut Vec<InferenceRequest>) {
        for (attempt, mode) in [
            ExecMode::Device {
                inject_panics: true,
            },
            ExecMode::Device {
                inject_panics: false,
            },
            ExecMode::ForceDegraded,
        ]
        .into_iter()
        .enumerate()
        {
            let outcome = catch_unwind(AssertUnwindSafe(|| self.try_batch(lane, batch, mode)));
            match outcome {
                Ok(Some(retire)) => {
                    self.inflight += 1;
                    self.metrics
                        .lock()
                        .set_gauge(self.slots.inflight, self.inflight as f64);
                    self.push_event(retire.done_ms, EventKind::Readback(retire));
                    return;
                }
                // every request expired at formation: nothing launched
                Ok(None) => return,
                Err(_) => {
                    self.worker_panics += 1;
                    self.metrics.inc("engine.worker_panics");
                    self.recorder.event(
                        self.clock_ms,
                        "panic",
                        [
                            ("lane", U64(lane as u64)),
                            ("n", U64(batch.len() as u64)),
                            ("attempt", U64(attempt as u64 + 1)),
                        ],
                    );
                    self.dump_recorder("panic");
                    tel_warn!(
                        "engine::serve",
                        "lane {lane} panicked on a batch of {} (attempt {}); restarting",
                        batch.len(),
                        attempt + 1
                    );
                }
            }
        }
        // even degraded accounting panicked: bucket the requests as
        // failed so they are counted, never silently dropped
        self.metrics.add("engine.failed", batch.len() as u64);
        self.recorder
            .event(self.clock_ms, "failed", [("n", U64(batch.len() as u64))]);
        for r in batch.iter() {
            self.slo.bad(r.arrival_ms);
        }
        self.failed.append(batch);
    }

    /// Price one batch onto the timeline (deadline filter, breaker, fault
    /// ladder) and return its pending readback; `None` when every request
    /// expired. Runs under `catch_unwind` — injected panics fire before
    /// any state besides the fault counters moves.
    fn try_batch(
        &mut self,
        lane: usize,
        batch: &[InferenceRequest],
        mode: ExecMode,
    ) -> Option<Retire> {
        if let ExecMode::Device {
            inject_panics: true,
        } = mode
        {
            if self.faults.worker_panic_now() {
                panic!("injected worker panic (UNIGPU_FAULTS worker_panic_nth)");
            }
        }

        // Deadline admission at batch formation: requests whose completion
        // budget the batch would already blow are rejected, counted, and
        // never executed. The projection uses the full batch; survivors
        // ride a batch that is no larger, so it finishes no later than
        // projected.
        let mut kept = self.rider_pool.pop().unwrap_or_default();
        kept.clear();
        let deadline = self.cfg.deadline_ms.map(|budget| {
            let free = self.timeline.free_at(lane);
            let ready = batch.iter().map(|r| r.arrival_ms).fold(0.0, f64::max);
            let base = self.base_ms(batch.len(), false);
            let factor = self.faults.throttle_factor_now();
            (budget, free.max(ready) + base * factor)
        });
        let projected_done = deadline.map_or(0.0, |(_, done)| done);
        let mut late = 0u64;
        for r in batch {
            if deadline.is_none_or(|(budget, done)| r.arrival_ms + budget >= done) {
                kept.push(Rider {
                    id: r.id,
                    arrival_ms: r.arrival_ms,
                    trace: r.trace,
                });
                continue;
            }
            late += 1;
            self.slo.bad(r.arrival_ms);
            self.recorder.event(
                self.clock_ms,
                "deadline_expired",
                [
                    ("id", U64(r.id as u64)),
                    ("projected_done", F64(projected_done, 3)),
                ],
            );
            self.recent_expiries.push_back(self.clock_ms);
            self.expired.push(r.clone());
        }
        if late > 0 {
            self.metrics.lock().add(self.slots.deadline_expired, late);
            while self
                .recent_expiries
                .front()
                .is_some_and(|t| *t < self.clock_ms - DEADLINE_BURST_WINDOW_MS)
            {
                self.recent_expiries.pop_front();
            }
            if self.recent_expiries.len() >= DEADLINE_BURST_COUNT {
                self.recent_expiries.clear();
                self.dump_recorder("deadline_burst");
            }
        }
        if kept.is_empty() {
            self.rider_pool.push(kept);
            return None;
        }

        let len = kept.len();
        let ready_ms = kept.iter().map(|r| r.arrival_ms).fold(0.0, f64::max);
        let base_ms = self.base_ms(len, false);
        let idx = self.batches;
        self.batches += 1;
        // batch-level control spans (retries) stitch into the trace of the
        // first sampled request riding the batch
        let batch_trace = kept
            .iter()
            .find_map(|r| self.cfg.request_trace(r.id, r.trace));

        let (start, done, degraded) = match mode {
            ExecMode::ForceDegraded => self.run_degraded(lane, idx, len, ready_ms),
            ExecMode::Device { .. } => {
                let mut attempts = 0usize;
                loop {
                    let now = self.timeline.free_at(lane).max(ready_ms);
                    let (allowed, edge) = self.breaker.allows_device(now);
                    if let Some(edge) = edge {
                        self.breaker_edge(edge, now);
                    }
                    if !allowed {
                        break self.run_degraded(lane, idx, len, ready_ms);
                    }
                    match self.faults.on_launch(base_ms, len) {
                        LaunchOutcome::Ok { duration_ms } => {
                            let start = self.timeline.schedule(
                                lane,
                                StreamLabel::Batch { index: idx, len, on_cpu: false },
                                ready_ms,
                                duration_ms,
                            );
                            if let Some(edge) = self.breaker.on_success() {
                                self.breaker_edge(edge, start + duration_ms);
                            }
                            break (start, start + duration_ms, false);
                        }
                        LaunchOutcome::Fault(f) => {
                            self.device_faults += 1;
                            self.metrics.lock().inc(self.slots.device_faults);
                            self.recorder.event(
                                now,
                                "fault",
                                [("slot", U64(idx as u64)), ("fault", Static(f.as_str()))],
                            );
                            // the failed launch occupies the lane until the
                            // driver reports the error
                            let cost = base_ms * FAULT_LATENCY_FRACTION;
                            let at = self.timeline.schedule(
                                lane,
                                StreamLabel::Fault { index: idx, fault: f },
                                ready_ms,
                                cost,
                            );
                            let (open, edge) = self.breaker.on_fault(at + cost);
                            if let Some(edge) = edge {
                                self.breaker_edge(edge, at + cost);
                            }
                            attempts += 1;
                            if open || !f.is_transient() || attempts > self.cfg.max_retries {
                                break self.run_degraded(lane, idx, len, ready_ms);
                            }
                            self.retries += 1;
                            self.metrics.lock().inc(self.slots.retries);
                            self.recorder.event(
                                at + cost,
                                "retry",
                                [("slot", U64(idx as u64)), ("attempt", U64(attempts as u64))],
                            );
                            self.spans.record(SpanRecord {
                                name: format!("retry batch{idx}"),
                                category: "retry".into(),
                                start_us: at * 1000.0,
                                dur_us: cost * 1000.0,
                                lane: LANE_CONTROL,
                                attrs: vec![
                                    ("fault".into(), f.to_string()),
                                    ("attempt".into(), attempts.to_string()),
                                ],
                                trace: batch_trace.map(|t| t.child(attempts as u64)),
                            });
                        }
                    }
                }
            }
        };

        self.recorder.event(
            start,
            "launch",
            [
                ("slot", U64(idx as u64)),
                ("lane", U64(lane as u64)),
                ("n", U64(len as u64)),
                ("done", F64(done, 3)),
                ("device", Static(device_name(degraded))),
            ],
        );

        Some(Retire {
            lane,
            idx,
            start_ms: start,
            done_ms: done,
            degraded,
            kept,
        })
    }

    /// Readback/accounting stage: the batch's execution interval is
    /// settled, so emit the per-request metrics, spans, SLO events, and
    /// results, and free the lane for the next dispatch.
    fn retire(&mut self, retire: Retire) {
        self.inflight -= 1;
        let Retire {
            lane,
            idx,
            start_ms: start,
            done_ms: done,
            degraded,
            kept,
        } = retire;
        let len = kept.len();
        // one registry lock for the whole batch; released before anything
        // below reads the registry (SLO publish, alert rules)
        let mut m = self.metrics.lock();
        m.set_gauge(self.slots.inflight, self.inflight as f64);
        m.inc(self.slots.batches);
        m.observe(self.slots.batch_size, len as f64);
        m.observe(self.slots.exec_ms, done - start);
        for r in &kept {
            m.inc(self.slots.requests);
            m.observe(self.slots.queue_ms, start - r.arrival_ms);
            m.observe(self.slots.latency_ms, done - r.arrival_ms);
            self.slo.good(done);
            if let Some(trace) = self.cfg.request_trace(r.id, r.trace) {
                self.spans.record(SpanRecord {
                    name: format!("req{}", r.id),
                    category: "request".into(),
                    start_us: start * 1000.0,
                    dur_us: (done - start) * 1000.0,
                    lane: LANE_WORKER_BASE + lane as u32,
                    attrs: vec![
                        ("batch".into(), len.to_string()),
                        ("worker".into(), lane.to_string()),
                        ("queue_ms".into(), format!("{:.3}", start - r.arrival_ms)),
                        ("device".into(), device_name(degraded).into()),
                        ("slot".into(), idx.to_string()),
                    ],
                    trace: Some(trace),
                });
            }
            self.completed.push(RequestResult {
                id: r.id,
                arrival_ms: r.arrival_ms,
                start_ms: start,
                done_ms: done,
                batch_size: len,
                worker: lane,
                degraded,
            });
        }
        drop(m);
        self.rider_pool.push(kept);
        self.recorder.event(
            done,
            "retire",
            [
                ("slot", U64(idx as u64)),
                ("lane", U64(lane as u64)),
                ("n", U64(len as u64)),
                ("device", Static(device_name(degraded))),
            ],
        );
        // Drift tap: the cost table predicted this batch's latency; the
        // timeline interval (throttle, fault retries folded in) is the
        // observation. Batches priced on the CPU-degraded variant say
        // nothing about the GPU cost table and are excluded.
        if !degraded {
            let plan = launch_plan(&mut self.plans, &self.compiled, len, false);
            let predicted = plan.base_ms;
            let observed = done - start;
            self.drift.record_graph(predicted, observed);
            // The simulator observes batch-level latency only, so each
            // node's observation is apportioned by its predicted share:
            // every node inherits the batch's relative error.
            let factor = observed / predicted;
            for (&slot, &node_predicted) in self.node_slots.iter().zip(&plan.node_ms) {
                self.drift
                    .record_slot(slot, node_predicted, node_predicted * factor);
            }
        }
        // Alert rules run on the freshly updated registry; publish the SLO
        // gauges first so burn-rate rules see the value at this instant.
        // Skipped entirely when nobody is watching (no rules, no dump dir).
        if !self.alerts.is_empty() || self.cfg.recorder_dump_dir.is_some() {
            self.slo.publish(&self.metrics, "engine.slo", done);
            if !self.burn_dumped
                && self
                    .metrics
                    .gauge("engine.slo.burn_rate")
                    .is_some_and(|b| b > BURN_DUMP_THRESHOLD)
            {
                self.burn_dumped = true;
                self.recorder.event(done, "slo_burn", []);
                self.dump_recorder("slo_burn");
            }
            self.evaluate_alerts(done);
        }
    }

    /// Run the alert rules at `now_ms`, recording fire/resolve edges in
    /// the flight recorder and dumping it on every fire edge.
    fn evaluate_alerts(&mut self, now_ms: f64) {
        if self.alerts.is_empty() {
            return;
        }
        for t in self.alerts.evaluate(&self.metrics, now_ms) {
            self.recorder.event(
                now_ms,
                if t.firing { "alert_fire" } else { "alert_resolve" },
                [("rule", Text(t.rule.clone())), ("value", F64(t.value, 6))],
            );
            if t.firing {
                let trigger = format!("alert_{}", t.rule);
                self.dump_recorder(&trigger);
            }
        }
    }

    /// Dump the flight recorder into the configured directory; a no-op
    /// unless [`ServeConfig::recorder_dump_dir`] is set. Dump failures are
    /// warnings — observability must never take the data path down.
    fn dump_recorder(&mut self, trigger: &str) {
        let Some(dir) = self.cfg.recorder_dump_dir.clone() else {
            return;
        };
        match self.recorder.dump(&dir, trigger) {
            Ok(path) => {
                self.metrics.inc("engine.recorder_dumps");
                self.dumps.push(path);
            }
            Err(e) => {
                tel_warn!(
                    "engine::serve",
                    "flight-recorder dump ({trigger}) failed: {e}"
                );
            }
        }
    }

    /// Price the batch on the all-CPU degraded variant (graceful
    /// degradation).
    fn run_degraded(&mut self, lane: usize, idx: usize, len: usize, ready_ms: f64) -> (f64, f64, bool) {
        let ms = self.base_ms(len, true);
        let start = self
            .timeline
            .schedule(lane, StreamLabel::Batch { index: idx, len, on_cpu: true }, ready_ms, ms);
        self.degraded_batches += 1;
        self.metrics.lock().inc(self.slots.degraded_batches);
        (start, start + ms, true)
    }

    /// What a batch of `len` costs on the compiled placement or the
    /// CPU-degraded variant, from the launch plans.
    pub(crate) fn base_ms(&mut self, len: usize, degraded: bool) -> f64 {
        launch_plan(&mut self.plans, &self.compiled, len, degraded).base_ms
    }

    /// Publish one breaker transition, in a fixed order the recorder dumps
    /// depend on: counter, gauge, recorder event, control span, and (on a
    /// trip) the `breaker_trip` dump.
    fn breaker_edge(&mut self, edge: Edge, at_ms: f64) {
        let (to, counter, detail) = match edge {
            Edge::HalfOpened => (
                "half_open",
                None,
                format!("cooldown elapsed at {at_ms:.3} ms; probing device"),
            ),
            Edge::Closed => (
                "closed",
                Some("engine.breaker_recoveries"),
                "probe succeeded; device recovered".into(),
            ),
            Edge::Opened { consecutive_faults } => (
                "open",
                Some("engine.breaker_trips"),
                format!(
                    "{consecutive_faults} consecutive fault(s); cooling down {:.1} ms",
                    self.cfg.breaker_cooldown_ms
                ),
            ),
        };
        if let Some(counter) = counter {
            self.metrics.inc(counter);
        }
        self.metrics
            .set_gauge("engine.breaker_state", self.breaker.gauge());
        self.recorder.event(
            at_ms,
            "breaker",
            [("to", Static(to)), ("detail", Text(detail.clone()))],
        );
        self.spans.record(SpanRecord {
            name: format!("breaker→{to}"),
            category: "breaker".into(),
            start_us: at_ms * 1000.0,
            dur_us: 0.0,
            lane: LANE_CONTROL,
            attrs: vec![("detail".into(), detail)],
            trace: None,
        });
        if matches!(edge, Edge::Opened { .. }) {
            self.dump_recorder("breaker_trip");
        }
    }

    /// Build the final report and publish the end-of-run gauges.
    fn finalize(mut self) -> ServeReport {
        self.completed.sort_by_key(|r| r.id);
        self.expired.sort_by_key(|r| r.id);
        self.metrics.set_gauge("engine.queue_depth", 0.0);
        let makespan_ms = self.timeline.makespan_ms();
        let device_idle_fraction = self.timeline.idle_fraction();
        let lane_utilization = self.timeline.utilizations();
        let slo_summary = self.slo.publish(&self.metrics, "engine.slo", makespan_ms);
        self.metrics.set_gauge("engine.makespan_ms", makespan_ms);
        // same formula as ServeReport::throughput_rps, computed before the
        // result vector moves into the report
        let throughput_rps = if makespan_ms <= 0.0 {
            0.0
        } else {
            self.completed.len() as f64 / (makespan_ms / 1000.0)
        };
        self.metrics.set_gauge("engine.throughput_rps", throughput_rps);
        self.metrics
            .set_gauge("engine.breaker_state", self.breaker.gauge());
        self.metrics
            .set_gauge("engine.device_idle_fraction", device_idle_fraction);
        for (lane, u) in lane_utilization.iter().enumerate() {
            self.metrics
                .set_gauge(&format!("engine.lane_utilization.{lane}"), *u);
        }
        self.drift.publish(&self.metrics, "engine.drift");
        let drift_summary = self.drift.summary();
        // final alert sweep over the end-of-run gauges, then the
        // unconditional shutdown dump: every configured run leaves at
        // least one dump, so determinism can be checked even on clean runs
        self.evaluate_alerts(makespan_ms);
        self.recorder.event(
            makespan_ms,
            "shutdown",
            [
                ("offered", U64(self.offered as u64)),
                ("completed", U64(self.completed.len() as u64)),
                ("batches", U64(self.batches as u64)),
            ],
        );
        self.dump_recorder("shutdown");
        ServeReport {
            results: self.completed,
            batches: self.batches,
            makespan_ms,
            timeline: self.timeline,
            offered: self.offered,
            shed: self.shed,
            expired: self.expired,
            failed: self.failed,
            device_faults: self.device_faults,
            retries: self.retries,
            degraded_batches: self.degraded_batches,
            breaker_trips: self.breaker.trips,
            breaker_recoveries: self.breaker.recoveries,
            worker_panics: self.worker_panics,
            device_idle_fraction,
            lane_utilization,
            slo: slo_summary,
            drift: drift_summary,
            alerts_fired: self.alerts.fired_total(),
            alerts_resolved: self.alerts.resolved_total(),
            fired_alerts: self
                .alerts
                .fired_rules()
                .into_iter()
                .map(str::to_string)
                .collect(),
            recorder_dumps: self.dumps,
        }
    }
}

impl CompiledModel {
    /// A streaming [`Server`] for this model with fresh telemetry.
    pub fn server(&self, cfg: &ServeConfig) -> Server {
        Server::new(self.clone(), cfg.clone())
    }

    /// A streaming [`Server`] recording into caller-owned telemetry.
    pub fn server_with(
        &self,
        cfg: &ServeConfig,
        spans: &SpanRecorder,
        metrics: &MetricsRegistry,
    ) -> Server {
        Server::with_telemetry(self.clone(), cfg.clone(), spans.clone(), metrics.clone())
    }
}

/// The pipelining-ablation baseline: a deterministic phase-sequential
/// scheduler with no overlap between formation, execution and accounting.
///
/// Requests are statically partitioned, in arrival order, into contiguous
/// same-shape chunks of at most `cfg.max_batch`; each chunk goes to the
/// least-loaded lane and waits for its *last* member's arrival before
/// launching — exactly the phase-sequential form/execute/account cycle,
/// with none of the event-driven core's partial flushes or free-lane
/// work stealing. Admission control is bypassed (the static partition never
/// queues), so run it without a queue cap. Deadlines, faults, the breaker,
/// and panic isolation all apply unchanged, making reports directly
/// comparable with [`Server::shutdown`]'s.
pub fn serve_phase_sequential(
    compiled: &CompiledModel,
    mut requests: Vec<InferenceRequest>,
    cfg: &ServeConfig,
    spans: &SpanRecorder,
    metrics: &MetricsRegistry,
) -> ServeReport {
    requests.sort_by(|a, b| a.arrival_ms.total_cmp(&b.arrival_ms));
    let mut server =
        Server::with_telemetry(compiled.clone(), cfg.clone(), spans.clone(), metrics.clone());
    server.offered = requests.len();
    let max = cfg.max_batch.max(1);
    let mut chunk: Vec<InferenceRequest> = Vec::new();
    for r in requests {
        let boundary = chunk.len() == max || chunk.first().is_some_and(|f| f.shape != r.shape);
        if boundary {
            let lane = server.timeline.least_loaded();
            server.execute(lane, &mut chunk);
            chunk.clear();
        }
        chunk.push(r);
    }
    if !chunk.is_empty() {
        let lane = server.timeline.least_loaded();
        server.execute(lane, &mut chunk);
    }
    server.run_to_quiescence();
    server.finalize()
}
