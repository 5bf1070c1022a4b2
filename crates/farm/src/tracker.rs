//! The farm tracker: the coordination point of distributed tuning.
//!
//! Mirrors AutoTVM's RPC tracker. Clients submit batches of [`TuneJob`]s
//! for one device; workers register, request work, and stream results back.
//! Each granted job is a *lease* with a deadline: heartbeats extend it, and
//! a reaper thread re-queues leases whose worker died or went silent, up to
//! a bounded retry budget per job.
//!
//! Lease state machine (per job):
//!
//! ```text
//!   queued --grant--> leased --result--> done
//!     ^                 |
//!     |  expiry / worker death, retries left
//!     +-----------------+
//!                       |  expiry / worker death, retries exhausted
//!                       +--> failed
//! ```
//!
//! Duplicate results (a retransmission, or a re-queued copy finishing after
//! the original) are acknowledged and dropped: the first outcome per job
//! index wins, which keeps the protocol idempotent.

use crate::framing::{FrameError, Framed, FRAMING_VERSION};
use crate::proto::Frame;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use unigpu_telemetry::{
    tel_debug, tel_info, tel_warn, ChromeTrace, MetricsRegistry, SpanRecord, SpanRecorder,
    TraceContext,
};
use unigpu_tuner::{TuneJob, TuneOutcome, TuningBudget};

/// Chrome-trace lane of the first farm worker; worker `i` draws on lane
/// `LANE_FARM_WORKER_BASE + i`, well clear of the engine's executor lanes.
pub const LANE_FARM_WORKER_BASE: u32 = 64;

/// Tracker tuning knobs.
#[derive(Debug, Clone)]
pub struct TrackerConfig {
    /// How long a lease stays valid without a heartbeat.
    pub lease: Duration,
    /// Re-queue budget per job: a job may be re-leased this many times after
    /// its first grant before it is failed.
    pub max_retries: usize,
    /// Reaper scan interval.
    pub reap_every: Duration,
    /// If set, a Chrome trace (one lane per worker) is rewritten here every
    /// couple of seconds.
    pub trace_path: Option<PathBuf>,
}

impl Default for TrackerConfig {
    fn default() -> Self {
        TrackerConfig {
            lease: Duration::from_secs(10),
            max_retries: 2,
            reap_every: Duration::from_millis(50),
            trace_path: None,
        }
    }
}

struct QueuedJob {
    batch_id: u64,
    job: TuneJob,
    /// How many times this job has already been re-queued.
    retries: usize,
}

struct LeaseInfo {
    batch_id: u64,
    job: TuneJob,
    worker_id: u64,
    deadline: Instant,
    retries: usize,
    granted_us: f64,
    /// Child of the submitting batch's trace, derived per job index at
    /// grant time — lease spans stitch into the submitter's trace.
    trace: Option<TraceContext>,
}

struct BatchInfo {
    device: String,
    budget: TuningBudget,
    total: usize,
    /// First outcome per job index wins; later copies are duplicates.
    outcomes: HashMap<usize, TuneOutcome>,
    failures: Vec<String>,
    /// Trace context the submitting client sent (parsed from the wire
    /// form; a malformed value degrades to `None`, never an error).
    trace: Option<TraceContext>,
}

struct WorkerInfo {
    name: String,
    device: String,
    lane: u32,
}

#[derive(Default)]
struct State {
    next_worker: u64,
    next_lease: u64,
    next_batch: u64,
    connected: usize,
    /// Pending jobs per device name.
    queues: HashMap<String, VecDeque<QueuedJob>>,
    leases: HashMap<u64, LeaseInfo>,
    batches: HashMap<u64, BatchInfo>,
    /// Append-only worker registry (disconnects keep the entry so trace
    /// lanes stay named).
    workers: HashMap<u64, WorkerInfo>,
}

struct Shared {
    cfg: TrackerConfig,
    metrics: MetricsRegistry,
    spans: SpanRecorder,
    state: Mutex<State>,
    stop: AtomicBool,
}

/// The tracker service. [`Tracker::spawn`] binds a listener and returns a
/// handle; all work happens on background threads.
pub struct Tracker;

impl Tracker {
    pub fn spawn(addr: impl ToSocketAddrs, cfg: TrackerConfig) -> io::Result<TrackerHandle> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            cfg,
            metrics: MetricsRegistry::new(),
            spans: SpanRecorder::new(),
            state: Mutex::new(State::default()),
            stop: AtomicBool::new(false),
        });

        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::spawn(move || accept_loop(&accept_shared, listener));

        let reap_shared = Arc::clone(&shared);
        let reaper = std::thread::spawn(move || reaper_loop(&reap_shared));

        tel_info!("farm::tracker", "listening on {local}");
        Ok(TrackerHandle { addr: local, shared, accept: Some(accept), reaper: Some(reaper) })
    }
}

/// Owner handle for a running tracker.
pub struct TrackerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    reaper: Option<JoinHandle<()>>,
}

impl TrackerHandle {
    /// The bound address (resolves port 0 to the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live view of the tracker's `farm.*` metrics.
    pub fn metrics(&self) -> MetricsRegistry {
        self.shared.metrics.clone()
    }

    /// Live view of the per-lease spans (one Chrome-trace lane per worker).
    pub fn spans(&self) -> SpanRecorder {
        self.shared.spans.clone()
    }

    /// Block until the tracker is externally terminated (CLI foreground
    /// mode: the accept loop only exits on [`TrackerHandle::stop`]).
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.reaper.take() {
            let _ = h.join();
        }
    }

    /// Stop accepting and reaping, then join both loops. Connections already
    /// open are left to die with their peers.
    pub fn stop(mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.reaper.take() {
            let _ = h.join();
        }
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    while !shared.stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_nodelay(true);
                let conn_shared = Arc::clone(shared);
                std::thread::spawn(move || handle_conn(&conn_shared, stream));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => {
                tel_warn!("farm::tracker", "accept failed: {e}");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

fn reaper_loop(shared: &Arc<Shared>) {
    let mut last_trace = Instant::now();
    while !shared.stop.load(Ordering::Relaxed) {
        std::thread::sleep(shared.cfg.reap_every);
        reap_expired(shared);
        if let Some(path) = shared.cfg.trace_path.clone() {
            if last_trace.elapsed() >= Duration::from_secs(2) {
                last_trace = Instant::now();
                if let Err(e) = write_trace(shared, &path) {
                    tel_warn!("farm::tracker", "trace export to {} failed: {e}", path.display());
                }
            }
        }
    }
}

fn reap_expired(shared: &Shared) {
    let now = Instant::now();
    let mut guard = shared.state.lock().expect("tracker state poisoned");
    let st = &mut *guard;
    let expired: Vec<u64> =
        st.leases.iter().filter(|(_, l)| l.deadline <= now).map(|(&id, _)| id).collect();
    for id in expired {
        shared.metrics.inc("farm.leases_expired");
        shared.release_lease(st, id, "lease expired");
    }
}

fn write_trace(shared: &Shared, path: &Path) -> io::Result<()> {
    let mut trace = ChromeTrace::new();
    trace.name_lane(0, "tracker");
    {
        let st = shared.state.lock().expect("tracker state poisoned");
        for (id, w) in &st.workers {
            trace.name_lane(w.lane, format!("farm worker {id} ({})", w.name));
        }
    }
    trace.add_spans(&shared.spans.spans());
    trace.add_metrics(&shared.metrics.snapshot(), shared.spans.now_us());
    trace.write(path)
}

/// One connection, one thread: read a frame, answer it, repeat. Workers and
/// clients share this loop — frame types distinguish them. Any read error
/// ends the connection; if a worker had registered on it, its outstanding
/// leases are released.
fn handle_conn(shared: &Arc<Shared>, stream: TcpStream) {
    let peer = stream.peer_addr().map(|a| a.to_string()).unwrap_or_else(|_| "?".into());
    let mut conn_worker: Option<u64> = None;
    let mut framed = Framed::new(stream);
    loop {
        let frame = match framed.recv::<Frame>() {
            Ok(f) => f,
            Err(FrameError::Io(e)) if e.kind() != io::ErrorKind::InvalidData => {
                tel_debug!("farm::tracker", "connection from {peer} closed: {e}");
                break;
            }
            Err(e) => {
                if matches!(e, FrameError::ChecksumMismatch { .. }) {
                    shared.metrics.inc("farm.checksum_errors");
                }
                shared.metrics.inc("farm.protocol_errors");
                tel_warn!("farm::tracker", "protocol error from {peer}: {e}");
                let _ = framed.send(&Frame::Error { message: e.to_string() });
                break;
            }
        };
        let reply = shared.handle_frame(frame, &mut conn_worker);
        let upgrade = matches!(reply, Frame::RegisterAck { framing: Some(v), .. } if v >= 2);
        if framed.send(&reply).is_err() {
            break;
        }
        if upgrade && !framed.is_v2() {
            // Both peers switch codecs right after the ack exchange.
            framed.upgrade();
        }
    }
    if let Some(worker_id) = conn_worker {
        shared.on_worker_disconnect(worker_id);
    }
}

impl Shared {
    fn handle_frame(&self, frame: Frame, conn_worker: &mut Option<u64>) -> Frame {
        match frame {
            Frame::Register { name, device, framing, resume } => {
                self.on_register(name, device, framing, resume, conn_worker)
            }
            Frame::RequestJob { worker_id } => self.on_request_job(worker_id),
            Frame::Heartbeat { worker_id, lease_id } => self.on_heartbeat(worker_id, lease_id),
            Frame::Result { worker_id, lease_id, batch_id, outcome, .. } => {
                self.on_result(worker_id, lease_id, batch_id, *outcome)
            }
            Frame::Submit { device, budget, jobs, trace } => {
                self.on_submit(device, budget, jobs, trace)
            }
            Frame::Poll { batch_id } => self.on_poll(batch_id),
            other => {
                self.metrics.inc("farm.protocol_errors");
                Frame::Error { message: format!("unexpected frame: {other:?}") }
            }
        }
    }

    fn on_register(
        &self,
        name: String,
        device: String,
        framing: Option<u8>,
        resume: Option<u64>,
        conn_worker: &mut Option<u64>,
    ) -> Frame {
        let mut st = self.state.lock().expect("tracker state poisoned");
        // Resume only re-attaches an identity the tracker still remembers;
        // an unknown token degrades to a fresh registration.
        let resumed_id = resume.filter(|id| st.workers.contains_key(id));
        let resumed = resumed_id.is_some();
        let worker_id = match resumed_id {
            Some(id) => id,
            None => {
                let id = st.next_worker;
                st.next_worker += 1;
                id
            }
        };
        let lane = LANE_FARM_WORKER_BASE + worker_id as u32;
        st.workers.insert(worker_id, WorkerInfo { name: name.clone(), device: device.clone(), lane });
        st.connected += 1;
        if resumed {
            self.metrics.inc("farm.worker_resumes");
        } else {
            self.metrics.inc("farm.workers_registered");
        }
        self.metrics.set_gauge("farm.workers_connected", st.connected as f64);
        *conn_worker = Some(worker_id);
        tel_info!(
            "farm::tracker",
            "worker {worker_id} ({name}) {} for {device}",
            if resumed { "resumed" } else { "registered" }
        );
        Frame::RegisterAck {
            worker_id,
            lease_ms: self.cfg.lease.as_millis() as u64,
            framing: framing.filter(|&v| v >= FRAMING_VERSION).map(|_| FRAMING_VERSION),
            resumed,
        }
    }

    fn on_request_job(&self, worker_id: u64) -> Frame {
        let mut guard = self.state.lock().expect("tracker state poisoned");
        let st = &mut *guard;
        let Some(device) = st.workers.get(&worker_id).map(|w| w.device.clone()) else {
            return Frame::Error { message: format!("unknown worker {worker_id}") };
        };
        loop {
            let Some(queued) = st.queues.get_mut(&device).and_then(|q| q.pop_front()) else {
                return Frame::NoWork;
            };
            // Stale entries: the batch was already collected, or a late
            // result beat this re-queued copy. Skip them.
            let Some(batch) = st.batches.get(&queued.batch_id) else { continue };
            if batch.outcomes.contains_key(&queued.job.index) {
                continue;
            }
            let budget = batch.budget;
            let lease_trace = batch.trace.map(|t| t.child(queued.job.index as u64));
            let lease_id = st.next_lease;
            st.next_lease += 1;
            let deadline = Instant::now() + self.cfg.lease;
            st.leases.insert(
                lease_id,
                LeaseInfo {
                    batch_id: queued.batch_id,
                    job: queued.job,
                    worker_id,
                    deadline,
                    retries: queued.retries,
                    granted_us: self.spans.now_us(),
                    trace: lease_trace,
                },
            );
            self.metrics.inc("farm.leases_granted");
            tel_debug!(
                "farm::tracker",
                "lease {lease_id}: job {} ({}) -> worker {worker_id}",
                queued.job.index,
                queued.job.workload.key()
            );
            return Frame::Lease {
                lease_id,
                batch_id: queued.batch_id,
                budget,
                job: queued.job,
                trace: lease_trace.map(|t| t.encode()),
            };
        }
    }

    fn on_heartbeat(&self, worker_id: u64, lease_id: u64) -> Frame {
        let mut st = self.state.lock().expect("tracker state poisoned");
        let known = match st.leases.get_mut(&lease_id) {
            Some(l) if l.worker_id == worker_id => {
                l.deadline = Instant::now() + self.cfg.lease;
                true
            }
            _ => false,
        };
        self.metrics.inc("farm.heartbeats");
        Frame::HeartbeatAck { known }
    }

    fn on_result(
        &self,
        worker_id: u64,
        lease_id: u64,
        batch_id: u64,
        outcome: TuneOutcome,
    ) -> Frame {
        let mut guard = self.state.lock().expect("tracker state poisoned");
        let st = &mut *guard;
        let lease = st.leases.remove(&lease_id);
        let lane = st.workers.get(&worker_id).map(|w| w.lane).unwrap_or(LANE_FARM_WORKER_BASE);
        let index = outcome.index;
        let key = outcome.record.workload.clone();
        let duplicate = match st.batches.get_mut(&batch_id) {
            // Batch already collected and forgotten: a very late duplicate.
            None => true,
            Some(batch) => match batch.outcomes.entry(index) {
                Entry::Occupied(_) => true,
                Entry::Vacant(slot) => {
                    slot.insert(outcome);
                    if lease.is_none() {
                        // A late result (its lease expired) raced its own
                        // re-queued copy: drop the copy so it isn't re-tuned.
                        self.metrics.inc("farm.late_results");
                        let device = batch.device.clone();
                        if let Some(q) = st.queues.get_mut(&device) {
                            q.retain(|j| !(j.batch_id == batch_id && j.job.index == index));
                        }
                    }
                    false
                }
            },
        };
        if duplicate {
            self.metrics.inc("farm.duplicate_results");
            tel_debug!(
                "farm::tracker",
                "duplicate result for job {index} ({key}) from worker {worker_id}"
            );
        } else {
            self.metrics.inc("farm.results");
        }
        if let Some(lease) = lease {
            let now = self.spans.now_us();
            let dur_us = (now - lease.granted_us).max(0.0);
            self.metrics.observe("farm.lease_ms", dur_us / 1000.0);
            self.spans.record(SpanRecord {
                name: key,
                category: "farm.lease".into(),
                start_us: lease.granted_us,
                dur_us,
                lane,
                attrs: vec![
                    ("batch".into(), batch_id.to_string()),
                    ("status".into(), if duplicate { "duplicate".into() } else { "ok".into() }),
                    ("retries".into(), lease.retries.to_string()),
                ],
                trace: lease.trace,
            });
        }
        Frame::ResultAck { duplicate }
    }

    fn on_submit(
        &self,
        device: String,
        budget: TuningBudget,
        jobs: Vec<TuneJob>,
        trace: Option<String>,
    ) -> Frame {
        let mut st = self.state.lock().expect("tracker state poisoned");
        let batch_id = st.next_batch;
        st.next_batch += 1;
        let total = jobs.len();
        st.batches.insert(
            batch_id,
            BatchInfo {
                device: device.clone(),
                budget,
                total,
                outcomes: HashMap::new(),
                failures: Vec::new(),
                trace: trace.as_deref().and_then(TraceContext::parse),
            },
        );
        let q = st.queues.entry(device.clone()).or_default();
        for job in jobs {
            q.push_back(QueuedJob { batch_id, job, retries: 0 });
        }
        self.metrics.add("farm.jobs_submitted", total as u64);
        tel_info!("farm::tracker", "batch {batch_id}: {total} job(s) queued for {device}");
        Frame::SubmitAck { batch_id }
    }

    fn on_poll(&self, batch_id: u64) -> Frame {
        let mut st = self.state.lock().expect("tracker state poisoned");
        let Some((total, done, failed)) =
            st.batches.get(&batch_id).map(|b| (b.total, b.outcomes.len(), b.failures.len()))
        else {
            return Frame::Error { message: format!("unknown batch {batch_id}") };
        };
        if done + failed < total {
            return Frame::Status {
                batch_id,
                total,
                done,
                failed,
                outcomes: Vec::new(),
                failures: Vec::new(),
            };
        }
        // Complete: hand the outcomes over and forget the batch.
        let batch = st.batches.remove(&batch_id).expect("batch present");
        let mut outcomes: Vec<TuneOutcome> = batch.outcomes.into_values().collect();
        outcomes.sort_by_key(|o| o.index);
        tel_info!(
            "farm::tracker",
            "batch {batch_id}: complete ({done} done, {failed} failed of {total})"
        );
        Frame::Status { batch_id, total, done, failed, outcomes, failures: batch.failures }
    }

    fn on_worker_disconnect(&self, worker_id: u64) {
        let mut guard = self.state.lock().expect("tracker state poisoned");
        let st = &mut *guard;
        let held: Vec<u64> = st
            .leases
            .iter()
            .filter(|(_, l)| l.worker_id == worker_id)
            .map(|(&id, _)| id)
            .collect();
        if !held.is_empty() {
            tel_warn!(
                "farm::tracker",
                "worker {worker_id} disconnected holding {} lease(s)",
                held.len()
            );
        }
        for id in held {
            self.release_lease(st, id, "worker disconnected");
        }
        st.connected = st.connected.saturating_sub(1);
        self.metrics.set_gauge("farm.workers_connected", st.connected as f64);
    }

    /// Tear down a lease whose worker died or went silent: re-queue the job
    /// if it has retries left, fail it otherwise. No-op if the job's result
    /// already arrived through another path.
    fn release_lease(&self, st: &mut State, lease_id: u64, reason: &str) {
        let Some(lease) = st.leases.remove(&lease_id) else { return };
        let key = lease.job.workload.key();
        let lane = st.workers.get(&lease.worker_id).map(|w| w.lane).unwrap_or(LANE_FARM_WORKER_BASE);
        let now = self.spans.now_us();
        self.spans.record(SpanRecord {
            name: key.clone(),
            category: "farm.lease".into(),
            start_us: lease.granted_us,
            dur_us: (now - lease.granted_us).max(0.0),
            lane,
            attrs: vec![
                ("batch".into(), lease.batch_id.to_string()),
                ("status".into(), reason.to_string()),
                ("retries".into(), lease.retries.to_string()),
            ],
            trace: lease.trace,
        });
        let Some(batch) = st.batches.get_mut(&lease.batch_id) else { return };
        if batch.outcomes.contains_key(&lease.job.index) {
            return;
        }
        if lease.retries < self.cfg.max_retries {
            self.metrics.inc("farm.requeues");
            tel_info!(
                "farm::tracker",
                "lease {lease_id} ({key}): {reason}; re-queueing (attempt {} of {})",
                lease.retries + 2,
                self.cfg.max_retries + 1
            );
            let device = batch.device.clone();
            st.queues.entry(device).or_default().push_back(QueuedJob {
                batch_id: lease.batch_id,
                job: lease.job,
                retries: lease.retries + 1,
            });
        } else {
            self.metrics.inc("farm.jobs_failed");
            tel_warn!(
                "farm::tracker",
                "lease {lease_id} ({key}): {reason}; retry budget exhausted, failing job {}",
                lease.job.index
            );
            batch
                .failures
                .push(format!("job {} ({key}): {reason} with retry budget exhausted", lease.job.index));
        }
    }
}
