//! The device-aware fleet router.
//!
//! Shards a request stream across a heterogeneous replica pool with
//! power-of-two-choices weighted by predicted cost: two candidate
//! replicas are drawn per request (deterministically, by hashing the
//! request id), and the one with the lower `(queue_depth + inflight + 1)
//! × predicted_ms` wins. The predicted term comes from each replica's
//! compile-time cost model, so a Jetson Nano naturally absorbs more load
//! than a Mali — the paper's cost model, promoted from a compiler
//! heuristic to a load balancer.
//!
//! Health signals fold into routing, not just placement: a replica whose
//! circuit breaker is open receives *zero* new admissions until its
//! half-open probe instant, and a replica burning its SLO error budget
//! past a threshold sheds to healthy peers. A dead replica's backlog
//! fails over: whatever the corpse hands back (an in-process kill
//! recovers the evicted queue and the final report) is re-routed, and
//! whatever it cannot hand back (a remote crash) is re-routed wholesale
//! from the router's own assignment ledger — at-least-once, never lost.
//!
//! The wire is a failure domain too: [`RemoteReplica`] runs every
//! request/response through a reconnect-with-resume loop (session token
//! in `Hello`, deterministic backoff, frame replay), and the replica's
//! dedup window makes replays idempotent — at-least-once retransmission
//! composing into exactly-once effects. Transport counters fold into
//! [`FleetReport::net`] and the `net.*` metrics;
//! [`FleetReport::duplicate_completions`] is the exactly-once check.
//!
//! Everything is counter-based and clock-free, so a zero-noise fleet run
//! is bit-for-bit reproducible: [`FleetReport::digest`] is the replay
//! check.

use std::io::{self, ErrorKind};
use std::net::TcpStream;

use unigpu_farm::backoff::Backoff;
use unigpu_farm::framing::{FrameError, Framed, FRAMING_VERSION};
use unigpu_device::NetFaultPlan;
use unigpu_farm::netchaos::{ChaosStream, NetStats, SharedNetFaults};
use unigpu_telemetry::hash::{splitmix64, Fnv1a};
use unigpu_telemetry::{CounterSlot, GaugeSlot, MetricsRegistry, SpanRecord, SpanRecorder};

use crate::proto::{FleetFrame, ReplicaHealth, ReplicaReport};
use crate::replica::ReplicaLink;
use crate::{LANE_FLEET_CONTROL, LANE_FLEET_REPLICA_BASE};

/// How the router picks a replica for each request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutePolicy {
    /// Rotate over healthy replicas, blind to queue state and device
    /// speed. The baseline the fleet bench compares against.
    RoundRobin,
    /// Power-of-two-choices weighted by predicted cost (the default).
    PowerOfTwo,
}

/// Router knobs.
#[derive(Debug, Clone, Copy)]
pub struct RouterConfig {
    pub policy: RoutePolicy,
    /// Seed mixed into the per-request candidate hash; two runs with the
    /// same seed and request stream route identically.
    pub seed: u64,
    /// SLO burn rate at or above which a replica is treated as unhealthy
    /// and sheds to peers. `f64::INFINITY` disables burn-based shedding.
    pub burn_shed_threshold: f64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            policy: RoutePolicy::PowerOfTwo,
            seed: 0x5e_ed0f_1ee7,
            burn_shed_threshold: 25.0,
        }
    }
}

/// One routing decision, logged for auditability: tests assert from this
/// that an open breaker received zero admissions before its probe
/// instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteDecision {
    pub id: usize,
    /// Index of the chosen replica.
    pub replica: usize,
    pub arrival_ms: f64,
    /// The chosen replica's breaker gauge as the router saw it.
    pub breaker: f64,
    /// The chosen replica's open-until instant as the router saw it; a
    /// decision with `breaker == 1.0` is legal only when
    /// `arrival_ms >= breaker_open_until_ms` (the half-open probe).
    pub breaker_open_until_ms: Option<f64>,
    /// True when this submission re-routed an orphaned request after a
    /// replica death.
    pub rerouted: bool,
}

/// Fleet-wide accounting. Every request offered to [`Router::route`]
/// lands in exactly one bucket; [`FleetReport::lost`] is the invariant
/// check and must be zero across any kill/throttle plan.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Requests offered to the fleet (each counted once, however many
    /// replicas it was retried on).
    pub offered: usize,
    /// `(request id, end-to-end latency ms)`, sorted by id.
    pub completed: Vec<(usize, f64)>,
    /// Ids no healthy replica would admit (fleet-level admission control).
    pub shed: Vec<usize>,
    /// Ids that expired against their deadline on some replica.
    pub expired: Vec<usize>,
    /// Ids that exhausted a replica's panic ladder.
    pub failed: Vec<usize>,
    /// Failover re-submissions performed after replica deaths.
    pub rerouted: usize,
    pub replica_deaths: usize,
    /// Per-replica summaries, in pool order. A crashed remote replica
    /// that could not deliver a report appears as a zeroed stub with
    /// `dead == true`.
    pub replicas: Vec<ReplicaReport>,
    /// The full decision log, in offer order.
    pub decisions: Vec<RouteDecision>,
    /// Transport counters merged across every replica link. Deliberately
    /// *not* folded into [`FleetReport::digest`]: the digest certifies
    /// outcomes, and a fault plan must be able to shake the wire without
    /// changing what the fleet computed.
    pub net: NetStats,
}

impl FleetReport {
    /// Requests unaccounted for — must always be zero.
    pub fn lost(&self) -> usize {
        self.offered.saturating_sub(
            self.completed.len() + self.shed.len() + self.expired.len() + self.failed.len(),
        )
    }

    /// Completed ids that appear more than once — the exactly-once
    /// check. Must be zero under any composition of fault plans: the
    /// dedup window turns every replayed request into a cached ack, so
    /// a duplicate completion means a replica did work twice.
    pub fn duplicate_completions(&self) -> usize {
        let mut ids: Vec<usize> = self.completed.iter().map(|&(id, _)| id).collect();
        ids.sort_unstable();
        ids.windows(2).filter(|w| w[0] == w[1]).count()
    }

    /// p99 end-to-end latency over completed requests, ms.
    pub fn p99_latency_ms(&self) -> f64 {
        if self.completed.is_empty() {
            return 0.0;
        }
        let mut lat: Vec<f64> = self.completed.iter().map(|&(_, ms)| ms).collect();
        lat.sort_by(f64::total_cmp);
        let idx = ((lat.len() as f64) * 0.99).ceil() as usize;
        lat[idx.clamp(1, lat.len()) - 1]
    }

    /// FNV-1a over every externally observable outcome. Two zero-noise
    /// runs of the same request stream against the same pool must agree
    /// bit for bit.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.mix_u64(self.offered as u64);
        h.mix_u64(self.rerouted as u64);
        h.mix_u64(self.replica_deaths as u64);
        for &(id, ms) in &self.completed {
            h.mix_u64(id as u64);
            h.mix_u64(ms.to_bits());
        }
        for bucket in [&self.shed, &self.expired, &self.failed] {
            h.mix_u64(bucket.len() as u64);
            for &id in bucket {
                h.mix_u64(id as u64);
            }
        }
        for r in &self.replicas {
            h.update(r.name.as_bytes());
            h.update(r.device.as_bytes());
            h.mix_u64(r.offered as u64);
            h.mix_u64(r.batches as u64);
            h.mix_u64(r.makespan_ms.to_bits());
            h.mix_u64(r.degraded_batches as u64);
            h.mix_u64(r.breaker_trips as u64);
            h.mix_u64(r.breaker_recoveries as u64);
            h.mix_u64(r.digest);
            h.mix_u64(u64::from(r.warm_start));
            h.mix_u64(u64::from(r.dead));
        }
        h.finish()
    }
}

struct Slot {
    link: Box<dyn ReplicaLink>,
    name: String,
    device: String,
    predicted_ms: f64,
    /// Latest health snapshot, as stale as the last ack from this
    /// replica.
    health: ReplicaHealth,
    dead: bool,
    finished: bool,
    /// Admitted-but-unconfirmed requests: the failover ledger.
    assigned: Vec<(usize, f64)>,
    report: Option<ReplicaReport>,
    metrics: SlotMetrics,
}

/// One replica's `fleet.<metric>.<index>` cells, named once at construction.
struct SlotMetrics {
    routed: CounterSlot,
    replica_shed: CounterSlot,
    up: GaugeSlot,
    queue_depth: GaugeSlot,
    inflight: GaugeSlot,
    breaker_state: GaugeSlot,
    burn_rate: GaugeSlot,
}

/// The fleet-wide counters `route` touches.
struct FleetMetrics {
    offered: CounterSlot,
    shed: CounterSlot,
    rerouted: CounterSlot,
    replica_deaths: CounterSlot,
}

/// What the router traces, kept as values: a span is formatted from its
/// event when the recorder is read ([`Router::spans`]) or at
/// [`Router::finish`], never while routing.
enum FleetEvent {
    Routed { id: usize, replica: usize, arrival_ms: f64, rerouted: bool },
    Died { replica: usize, arrival_ms: f64, error: String, failover: usize, report_recovered: bool },
}

/// The fleet router. Owns the replica handles; consume with
/// [`Router::finish`] to collect the fleet report.
pub struct Router {
    slots: Vec<Slot>,
    cfg: RouterConfig,
    metrics: MetricsRegistry,
    fleet_metrics: FleetMetrics,
    /// The recorder [`Router::with_telemetry`] was handed; a router built
    /// with [`Router::new`] has nobody to read spans and traces none.
    spans: Option<SpanRecorder>,
    /// Events not yet formatted into `spans`, in order.
    events: Vec<FleetEvent>,
    rr_next: usize,
    offered: usize,
    fleet_shed: Vec<usize>,
    rerouted: usize,
    deaths: usize,
    decisions: Vec<RouteDecision>,
}

impl Router {
    pub fn new(cfg: RouterConfig, replicas: Vec<Box<dyn ReplicaLink>>) -> Router {
        Router::build(cfg, replicas, None, MetricsRegistry::new())
    }

    /// A router recording into caller-owned telemetry. Metrics land as they
    /// happen; route and death spans reach `spans` when [`Router::spans`] is
    /// called and at [`Router::finish`]. [`Router::new`] records metrics
    /// only.
    pub fn with_telemetry(
        cfg: RouterConfig,
        replicas: Vec<Box<dyn ReplicaLink>>,
        spans: SpanRecorder,
        metrics: MetricsRegistry,
    ) -> Router {
        Router::build(cfg, replicas, Some(spans), metrics)
    }

    fn build(
        cfg: RouterConfig,
        replicas: Vec<Box<dyn ReplicaLink>>,
        spans: Option<SpanRecorder>,
        metrics: MetricsRegistry,
    ) -> Router {
        let slots = replicas
            .into_iter()
            .enumerate()
            .map(|(i, link)| Slot {
                name: link.name().to_string(),
                device: link.device().to_string(),
                predicted_ms: link.predicted_ms().max(f64::MIN_POSITIVE),
                health: ReplicaHealth::default(),
                dead: false,
                finished: false,
                assigned: Vec::new(),
                report: None,
                metrics: SlotMetrics {
                    routed: metrics.counter_slot(&format!("fleet.routed.{i}")),
                    replica_shed: metrics.counter_slot(&format!("fleet.replica_shed.{i}")),
                    up: metrics.gauge_slot(&format!("fleet.up.{i}")),
                    queue_depth: metrics.gauge_slot(&format!("fleet.queue_depth.{i}")),
                    inflight: metrics.gauge_slot(&format!("fleet.inflight.{i}")),
                    breaker_state: metrics.gauge_slot(&format!("fleet.breaker_state.{i}")),
                    burn_rate: metrics.gauge_slot(&format!("fleet.burn_rate.{i}")),
                },
                link,
            })
            .collect();
        Router {
            slots,
            cfg,
            fleet_metrics: FleetMetrics {
                offered: metrics.counter_slot("fleet.offered"),
                shed: metrics.counter_slot("fleet.shed"),
                rerouted: metrics.counter_slot("fleet.rerouted"),
                replica_deaths: metrics.counter_slot("fleet.replica_deaths"),
            },
            metrics,
            spans,
            events: Vec::new(),
            rr_next: 0,
            offered: 0,
            fleet_shed: Vec::new(),
            rerouted: 0,
            deaths: 0,
            decisions: Vec::new(),
        }
    }

    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The span recorder of [`Router::with_telemetry`], brought up to date
    /// with everything routed so far.
    pub fn spans(&mut self) -> Option<&SpanRecorder> {
        self.flush_events();
        self.spans.as_ref()
    }

    /// Note `event` for the recorder, if there is one.
    fn trace(&mut self, event: FleetEvent) {
        if self.spans.is_some() {
            self.events.push(event);
        }
    }

    /// Format the pending events into the recorder, in the order they
    /// happened.
    fn flush_events(&mut self) {
        let Some(spans) = &self.spans else { return };
        for event in self.events.drain(..) {
            spans.record(match event {
                FleetEvent::Routed { id, replica, arrival_ms, rerouted } => SpanRecord {
                    name: format!("req {id}"),
                    category: "fleet.route".into(),
                    start_us: arrival_ms * 1000.0,
                    dur_us: 0.0,
                    lane: LANE_FLEET_REPLICA_BASE + replica as u32,
                    attrs: vec![
                        ("replica".into(), self.slots[replica].name.clone()),
                        ("rerouted".into(), rerouted.to_string()),
                    ],
                    trace: None,
                },
                FleetEvent::Died { replica, arrival_ms, error, failover, report_recovered } => {
                    SpanRecord {
                        name: format!("replica {} died", self.slots[replica].name),
                        category: "fleet.death".into(),
                        start_us: arrival_ms * 1000.0,
                        dur_us: 0.0,
                        lane: LANE_FLEET_CONTROL,
                        attrs: vec![
                            ("error".into(), error),
                            ("failover".into(), failover.to_string()),
                            ("report_recovered".into(), report_recovered.to_string()),
                        ],
                        trace: None,
                    }
                }
            });
        }
    }

    /// A replica takes traffic when it is alive, not finished, not
    /// burning its error budget, and its breaker is not open — except
    /// that an open breaker past its cooldown instant takes exactly the
    /// probe traffic the half-open phase is for.
    fn healthy(&self, i: usize, arrival_ms: f64) -> bool {
        let s = &self.slots[i];
        if s.dead || s.finished {
            return false;
        }
        if s.health.burn_rate >= self.cfg.burn_shed_threshold {
            return false;
        }
        if s.health.breaker == 1.0 {
            return match s.health.breaker_open_until_ms {
                Some(until_ms) => arrival_ms >= until_ms,
                None => false,
            };
        }
        true
    }

    /// Cost-aware load score: expected work queued ahead of a new
    /// arrival, in predicted device-ms. The `+ 1` prices the arrival
    /// itself, so an idle slow device still costs more than an idle fast
    /// one.
    fn score(&self, i: usize) -> f64 {
        let s = &self.slots[i];
        (s.health.queue_depth + s.health.inflight + 1) as f64 * s.predicted_ms
    }

    fn pick(&mut self, id: usize, arrival_ms: f64, excluded: &[usize]) -> Option<usize> {
        // candidates are counted, then drawn by rank: no list is built
        let candidates = || {
            (0..self.slots.len())
                .filter(|i| !excluded.contains(i) && self.healthy(*i, arrival_ms))
        };
        let n = candidates().count();
        if n == 0 {
            return None;
        }
        let nth = |k: usize| candidates().nth(k).expect("k < the candidate count");
        match self.cfg.policy {
            RoutePolicy::RoundRobin => {
                let i = nth(self.rr_next % n);
                self.rr_next = self.rr_next.wrapping_add(1);
                Some(i)
            }
            RoutePolicy::PowerOfTwo => {
                let h = splitmix64(self.cfg.seed ^ (id as u64));
                let a = nth((h as usize) % n);
                let b = nth(((h >> 32) as usize) % n);
                // strict less-than: ties go to the first draw, keeping the
                // choice independent of evaluation order
                Some(if self.score(b) < self.score(a) { b } else { a })
            }
        }
    }

    /// Offer one request to the fleet. Returns `true` when some replica
    /// admitted it; `false` means it landed in the fleet shed bucket.
    /// Arrivals must be non-decreasing (one simulated clock for the whole
    /// fleet).
    pub fn route(&mut self, id: usize, arrival_ms: f64) -> bool {
        self.offered += 1;
        self.metrics.lock().inc(self.fleet_metrics.offered);
        self.route_inner(id, arrival_ms, false)
    }

    fn route_inner(&mut self, id: usize, arrival_ms: f64, rerouted: bool) -> bool {
        let mut tried: Vec<usize> = Vec::new();
        loop {
            let Some(i) = self.pick(id, arrival_ms, &tried) else {
                self.metrics.lock().inc(self.fleet_metrics.shed);
                self.fleet_shed.push(id);
                return false;
            };
            self.decisions.push(RouteDecision {
                id,
                replica: i,
                arrival_ms,
                breaker: self.slots[i].health.breaker,
                breaker_open_until_ms: self.slots[i].health.breaker_open_until_ms,
                rerouted,
            });
            let slot = &mut self.slots[i];
            match slot.link.submit(id, arrival_ms) {
                Ok((admitted, health)) => {
                    slot.health = health;
                    let mut metrics = self.metrics.lock();
                    metrics.set_gauge(slot.metrics.queue_depth, health.queue_depth as f64);
                    metrics.set_gauge(slot.metrics.inflight, health.inflight as f64);
                    metrics.set_gauge(slot.metrics.breaker_state, health.breaker);
                    metrics.set_gauge(slot.metrics.burn_rate, health.burn_rate);
                    if admitted {
                        metrics.inc(slot.metrics.routed);
                        slot.assigned.push((id, arrival_ms));
                        drop(metrics);
                        self.trace(FleetEvent::Routed { id, replica: i, arrival_ms, rerouted });
                        return true;
                    }
                    // replica-side shed: not terminal — try the next-best
                    // candidate
                    metrics.inc(slot.metrics.replica_shed);
                    tried.push(i);
                }
                Err(err) => {
                    self.on_death(i, arrival_ms, &err);
                    tried.push(i);
                }
            }
        }
    }

    /// Handle a replica death discovered at `arrival_ms`: recover what
    /// the corpse hands back, then fail its backlog over to the
    /// survivors. With a recovered report only the evicted queue
    /// re-routes (everything else is accounted by the report); without
    /// one, every assigned-but-unconfirmed request re-routes —
    /// at-least-once delivery instead of a loss.
    fn on_death(&mut self, i: usize, arrival_ms: f64, err: &io::Error) {
        if self.slots[i].dead {
            return;
        }
        self.slots[i].dead = true;
        self.deaths += 1;
        {
            let mut metrics = self.metrics.lock();
            metrics.inc(self.fleet_metrics.replica_deaths);
            metrics.set_gauge(self.slots[i].metrics.up, 0.0);
        }
        let (orphans, report) = self.slots[i].link.orphans();
        let assigned = std::mem::take(&mut self.slots[i].assigned);
        let recovered_report = report.is_some();
        self.slots[i].report = report;
        let backlog = match orphans {
            Some(evicted) if recovered_report => evicted,
            _ => assigned,
        };
        self.trace(FleetEvent::Died {
            replica: i,
            arrival_ms,
            error: err.to_string(),
            failover: backlog.len(),
            report_recovered: recovered_report,
        });
        for (id, orig_arrival) in backlog {
            self.rerouted += 1;
            self.metrics.lock().inc(self.fleet_metrics.rerouted);
            // failover preserves the fleet clock: re-offers happen *now*,
            // not back at the original arrival instant
            self.route_inner(id, orig_arrival.max(arrival_ms), true);
        }
    }

    /// Drain every replica and fold the fleet report. Replicas finish in
    /// pool order; one that dies *during* shutdown fails its backlog over
    /// to replicas not yet drained (or, if none remain, the fleet shed
    /// bucket — accounted either way).
    pub fn finish(mut self) -> FleetReport {
        for i in 0..self.slots.len() {
            if self.slots[i].dead {
                // the death path may already have recovered its report
                continue;
            }
            match self.slots[i].link.finish() {
                Ok(report) => {
                    self.slots[i].finished = true;
                    self.slots[i].assigned.clear();
                    self.slots[i].report = Some(report);
                }
                Err(err) => {
                    let last_arrival = self.slots[i]
                        .assigned
                        .last()
                        .map(|&(_, ms)| ms)
                        .unwrap_or(0.0);
                    self.on_death(i, last_arrival, &err);
                }
            }
        }

        self.flush_events();

        let mut completed: Vec<(usize, f64)> = Vec::new();
        let mut expired: Vec<usize> = Vec::new();
        let mut failed: Vec<usize> = Vec::new();
        let mut replicas: Vec<ReplicaReport> = Vec::new();
        for slot in &mut self.slots {
            match slot.report.take() {
                Some(report) => {
                    completed.extend(report.completed.iter().copied());
                    expired.extend(report.expired.iter().copied());
                    failed.extend(report.failed.iter().copied());
                    replicas.push(report);
                }
                // a crashed remote replica delivered nothing; remember it
                // as a zeroed stub so pool order stays meaningful
                None => replicas.push(ReplicaReport {
                    name: slot.name.clone(),
                    device: slot.device.clone(),
                    offered: 0,
                    completed: vec![],
                    shed: vec![],
                    expired: vec![],
                    failed: vec![],
                    batches: 0,
                    makespan_ms: 0.0,
                    degraded_batches: 0,
                    breaker_trips: 0,
                    breaker_recoveries: 0,
                    digest: 0,
                    warm_start: slot.link.warm_start(),
                    dead: true,
                }),
            }
        }
        completed.sort_by_key(|a| a.0);
        expired.sort_unstable();
        failed.sort_unstable();
        let mut shed = self.fleet_shed;
        shed.sort_unstable();

        self.metrics.add("fleet.completed", completed.len() as u64);
        self.metrics.add("fleet.expired", expired.len() as u64);
        self.metrics.add("fleet.failed", failed.len() as u64);

        let mut net = NetStats::default();
        for slot in &self.slots {
            net.merge(&slot.link.net_stats());
        }
        if net.any() {
            self.metrics.add("net.reconnects", net.reconnects);
            self.metrics.add("net.resumes", net.resumes);
            self.metrics.add("net.replayed_frames", net.replayed_frames);
            self.metrics.add("net.checksum_errors", net.checksum_errors);
            self.metrics.add("net.dup_frames_skipped", net.dup_frames_skipped);
            self.metrics.add("net.backoff_ms", net.backoff_ms);
            self.metrics.add("net.conns_dropped", net.conns_dropped);
            self.metrics.add("net.bytes_corrupted", net.bytes_corrupted);
            self.metrics.add("net.frames_truncated", net.frames_truncated);
            self.metrics.add("net.frames_duplicated", net.frames_duplicated);
            self.metrics.add("net.frames_delayed", net.frames_delayed);
        }

        FleetReport {
            offered: self.offered,
            completed,
            shed,
            expired,
            failed,
            rerouted: self.rerouted,
            replica_deaths: self.deaths,
            replicas,
            decisions: self.decisions,
            net,
        }
    }
}

/// Router-side handle to a replica across TCP, hardened for lossy wires.
///
/// Every request/response pair runs through [`RemoteReplica::exchange`]:
/// a transport failure — a dropped connection, a truncated frame, a CRC
/// mismatch — triggers reconnect-with-resume. The handle re-dials,
/// presents its session token in `Hello`, and replays the in-flight
/// frame; the replica's dedup window makes the replay idempotent, so
/// at-least-once retransmission composes into exactly-once effects.
/// Only a *fatal* `Error` frame (an injected death, a wedged server), a
/// lost session, or an exhausted reconnect budget surfaces as `Err` —
/// which the router treats as a death; nothing is recoverable from a
/// remote corpse, so [`ReplicaLink::orphans`] returns `(None, None)`
/// and the router fails the whole assignment ledger over.
pub struct RemoteReplica {
    addr: String,
    conn: Option<Framed<ChaosStream<TcpStream>>>,
    /// Stable session token presented in every `Hello`; the replica
    /// replays cached acks for a token it recognises.
    session: String,
    name: String,
    device: String,
    predicted_ms: f64,
    warm: bool,
    faults: SharedNetFaults,
    backoff: Backoff,
    stats: NetStats,
}

fn unexpected(frame: &FleetFrame) -> io::Error {
    io::Error::new(
        ErrorKind::InvalidData,
        format!("unexpected frame from replica: {frame:?}"),
    )
}

/// Reconnect budget per outage: attempts backing off 10 → 160 ms on the
/// accounting clock. The delays are *accounted*, never slept —
/// determinism over realism.
const RECONNECT_BASE_MS: u64 = 10;
const RECONNECT_MAX_MS: u64 = 160;
const RECONNECT_ATTEMPTS: u32 = 6;

impl RemoteReplica {
    /// Connect and handshake, injecting `plan` on this link's outgoing
    /// frames (the replica injects its own side via its config).
    pub fn connect_with(addr: &str, plan: NetFaultPlan) -> io::Result<RemoteReplica> {
        let mut link = RemoteReplica {
            addr: addr.to_string(),
            conn: None,
            session: format!("unigpu-router-{addr}"),
            name: String::new(),
            device: String::new(),
            predicted_ms: 0.0,
            warm: false,
            faults: SharedNetFaults::new(plan),
            backoff: Backoff::new(RECONNECT_BASE_MS, RECONNECT_MAX_MS, RECONNECT_ATTEMPTS),
            stats: NetStats::default(),
        };
        link.dial(false)?;
        Ok(link)
    }

    /// Retire the live connection, folding its receive-side dedup count
    /// into the link's stats.
    fn drop_conn(&mut self) {
        if let Some(conn) = self.conn.take() {
            self.stats.dup_frames_skipped += conn.dup_frames_skipped();
        }
    }

    /// One connection attempt. Drops the old connection *first* (its
    /// codec state must not leak into the fresh one), then handshakes at
    /// v1 and upgrades if the replica acks v2. On `resume`, a replica
    /// that does not recognise the session token has lost its state:
    /// that is `InvalidData`, which [`RemoteReplica::reconnect`] treats
    /// as terminal rather than retrying into a void. Handshake wire
    /// damage, by contrast, maps to `ConnectionReset` so the retry loop
    /// keeps going.
    fn dial(&mut self, resume: bool) -> io::Result<()> {
        fn wire_err(e: FrameError) -> io::Error {
            match e {
                FrameError::Io(e) => e,
                other => io::Error::new(ErrorKind::ConnectionReset, other.to_string()),
            }
        }
        self.drop_conn();
        let stream = TcpStream::connect(&self.addr)?;
        let _ = stream.set_nodelay(true);
        let mut framed = Framed::new(ChaosStream::new(stream, self.faults.clone()));
        framed
            .send(&FleetFrame::Hello {
                framing: Some(FRAMING_VERSION),
                session: Some(self.session.clone()),
            })
            .map_err(wire_err)?;
        match framed.recv::<FleetFrame>().map_err(wire_err)? {
            FleetFrame::HelloAck {
                name,
                device,
                framing,
                resumed,
            } => {
                if resume && !resumed {
                    return Err(io::Error::new(
                        ErrorKind::InvalidData,
                        format!("replica {name} no longer knows session {}", self.session),
                    ));
                }
                if framing == Some(FRAMING_VERSION) {
                    framed.upgrade();
                }
                self.name = name;
                self.device = device;
                if resume {
                    self.stats.resumes += 1;
                }
                self.conn = Some(framed);
                Ok(())
            }
            // a replica that got our Hello corrupted answers a non-fatal
            // Error and waits for a fresh connection — retryable
            FleetFrame::Error { message, fatal } => Err(io::Error::new(
                if fatal {
                    ErrorKind::InvalidData
                } else {
                    ErrorKind::ConnectionReset
                },
                message,
            )),
            other => Err(unexpected(&other)),
        }
    }

    /// Burn backoff budget re-dialing with resume until a connection
    /// sticks. `InvalidData` — a lost session or protocol insanity — is
    /// terminal; anything else retries until the budget runs out.
    fn reconnect(&mut self) -> io::Result<()> {
        loop {
            let Some(delay_ms) = self.backoff.next_delay_ms() else {
                return Err(io::Error::new(
                    ErrorKind::ConnectionAborted,
                    format!("replica {}: reconnect budget exhausted", self.name),
                ));
            };
            self.stats.backoff_ms += delay_ms;
            self.stats.reconnects += 1;
            match self.dial(true) {
                Ok(()) => {
                    self.backoff.reset();
                    return Ok(());
                }
                Err(e) if e.kind() == ErrorKind::InvalidData => return Err(e),
                Err(_) => continue,
            }
        }
    }

    /// One request/response over the hardened link: send, await, and on
    /// any recoverable transport failure reconnect-with-resume and
    /// replay the same frame. A `fatal` Error frame or an unexpected
    /// reply is the replica telling us it is beyond saving — surface
    /// `Err` and let the router run its death path.
    fn exchange(&mut self, frame: &FleetFrame) -> io::Result<FleetFrame> {
        loop {
            if self.conn.is_none() {
                self.reconnect()?;
                self.stats.replayed_frames += 1;
            }
            let conn = self.conn.as_mut().expect("just reconnected");
            let round = conn.send(frame).and_then(|()| conn.recv::<FleetFrame>());
            match round {
                Ok(FleetFrame::Error { message, fatal }) => {
                    if fatal {
                        return Err(io::Error::new(ErrorKind::BrokenPipe, message));
                    }
                    // the replica rejected a damaged frame and is waiting
                    // for a fresh connection: resume and replay
                    self.drop_conn();
                }
                Ok(reply) => return Ok(reply),
                Err(e) => match e {
                    FrameError::ChecksumMismatch { .. } => {
                        self.stats.checksum_errors += 1;
                        self.drop_conn();
                    }
                    FrameError::Io(_) | FrameError::SequenceGap { .. } => self.drop_conn(),
                    // Malformed / TooLarge replies are not wire noise on
                    // an upgraded connection; retrying cannot fix a
                    // confused peer
                    other => return Err(io::Error::from(other)),
                },
            }
        }
    }

    /// Load a zoo model on the replica. Returns `(warm, predicted_ms)`;
    /// both are also retained on the handle for routing.
    pub fn load(&mut self, model: &str) -> io::Result<(bool, f64)> {
        match self.exchange(&FleetFrame::Load {
            model: model.into(),
        })? {
            FleetFrame::LoadAck { warm, predicted_ms } => {
                self.warm = warm;
                self.predicted_ms = predicted_ms;
                Ok((warm, predicted_ms))
            }
            other => Err(unexpected(&other)),
        }
    }

    /// Fetch the loaded model's artifact in JSONL wire form.
    pub fn fetch_artifact(&mut self) -> io::Result<String> {
        match self.exchange(&FleetFrame::FetchArtifact)? {
            FleetFrame::ArtifactBlob { jsonl } => Ok(jsonl),
            other => Err(unexpected(&other)),
        }
    }

    /// Seed the replica's artifact cache ahead of its `load`.
    pub fn push_artifact(&mut self, jsonl: &str) -> io::Result<bool> {
        match self.exchange(&FleetFrame::PushArtifact {
            jsonl: jsonl.into(),
        })? {
            FleetFrame::PushAck { stored } => Ok(stored),
            other => Err(unexpected(&other)),
        }
    }
}

impl ReplicaLink for RemoteReplica {
    fn name(&self) -> &str {
        &self.name
    }

    fn device(&self) -> &str {
        &self.device
    }

    fn predicted_ms(&self) -> f64 {
        self.predicted_ms
    }

    fn warm_start(&self) -> bool {
        self.warm
    }

    fn submit(&mut self, id: usize, arrival_ms: f64) -> io::Result<(bool, ReplicaHealth)> {
        match self.exchange(&FleetFrame::Infer { id, arrival_ms })? {
            FleetFrame::InferAck { admitted, health } => Ok((admitted, health)),
            other => Err(unexpected(&other)),
        }
    }

    fn orphans(&mut self) -> (Option<Vec<(usize, f64)>>, Option<ReplicaReport>) {
        (None, None)
    }

    fn finish(&mut self) -> io::Result<ReplicaReport> {
        match self.exchange(&FleetFrame::Finish)? {
            FleetFrame::Report(report) => Ok(*report),
            other => Err(unexpected(&other)),
        }
    }

    fn net_stats(&self) -> NetStats {
        let mut stats = self.stats;
        // injected-fault counters live in the shared plan state; the
        // live connection's dedup count has not been harvested yet
        stats.merge(&self.faults.stats());
        if let Some(conn) = &self.conn {
            stats.dup_frames_skipped += conn.dup_frames_skipped();
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scriptable fake replica: admits everything until `die_at`,
    /// reporting a fixed health snapshot.
    struct FakeReplica {
        name: String,
        predicted_ms: f64,
        health: ReplicaHealth,
        admitted: Vec<(usize, f64)>,
        shed_all: bool,
        die_on_submit: Option<usize>,
        die_on_finish: bool,
        submits: usize,
        dead: bool,
    }

    impl FakeReplica {
        fn new(name: &str, predicted_ms: f64) -> Self {
            FakeReplica {
                name: name.into(),
                predicted_ms,
                health: ReplicaHealth::default(),
                admitted: Vec::new(),
                shed_all: false,
                die_on_submit: None,
                die_on_finish: false,
                submits: 0,
                dead: false,
            }
        }
    }

    impl ReplicaLink for FakeReplica {
        fn name(&self) -> &str {
            &self.name
        }
        fn device(&self) -> &str {
            "fake"
        }
        fn predicted_ms(&self) -> f64 {
            self.predicted_ms
        }
        fn warm_start(&self) -> bool {
            false
        }
        fn submit(&mut self, id: usize, arrival_ms: f64) -> io::Result<(bool, ReplicaHealth)> {
            if self.dead {
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "dead"));
            }
            self.submits += 1;
            if self.die_on_submit.is_some_and(|nth| self.submits >= nth) {
                self.dead = true;
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "died"));
            }
            if self.shed_all {
                return Ok((false, self.health));
            }
            self.admitted.push((id, arrival_ms));
            Ok((true, self.health))
        }
        fn orphans(&mut self) -> (Option<Vec<(usize, f64)>>, Option<ReplicaReport>) {
            // behaves like a remote crash: nothing recoverable
            (None, None)
        }
        fn finish(&mut self) -> io::Result<ReplicaReport> {
            if self.dead {
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "dead"));
            }
            if self.die_on_finish {
                self.dead = true;
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "died during drain"));
            }
            Ok(ReplicaReport {
                name: self.name.clone(),
                device: "fake".into(),
                offered: self.admitted.len(),
                completed: self
                    .admitted
                    .iter()
                    .map(|&(id, _)| (id, self.predicted_ms))
                    .collect(),
                shed: vec![],
                expired: vec![],
                failed: vec![],
                batches: self.admitted.len(),
                makespan_ms: 0.0,
                degraded_batches: 0,
                breaker_trips: 0,
                breaker_recoveries: 0,
                digest: 7,
                warm_start: false,
                dead: false,
            })
        }
    }

    fn pool(replicas: Vec<FakeReplica>) -> Vec<Box<dyn ReplicaLink>> {
        replicas
            .into_iter()
            .map(|r| Box::new(r) as Box<dyn ReplicaLink>)
            .collect()
    }

    /// Checks that `replica` took no traffic before `probe_ms` beyond its
    /// discovery admission, and returns how many of those there were (0 or
    /// 1). The router learns a replica's health from its first ack, so one
    /// admission made while it still saw a closed breaker is legal.
    fn discovery_admissions(report: &FleetReport, replica: usize, probe_ms: f64) -> usize {
        let early: Vec<&RouteDecision> = report
            .decisions
            .iter()
            .filter(|d| d.replica == replica && d.arrival_ms < probe_ms)
            .collect();
        assert!(
            early.len() <= 1,
            "replica {replica} kept taking traffic after its first ack: {early:?}"
        );
        for d in &early {
            assert_eq!(
                d.breaker, 0.0,
                "open replica admitted id {} at {} after the router saw its breaker",
                d.id, d.arrival_ms
            );
        }
        early.len()
    }

    #[test]
    fn pow2_prefers_the_lighter_faster_replica() {
        // one fast idle replica vs one slow replica with a deep queue:
        // every two-candidate draw that sees both must pick the fast one
        let fast = FakeReplica::new("fast", 1.0);
        let mut slow = FakeReplica::new("slow", 10.0);
        slow.health.queue_depth = 8;
        let mut router = Router::new(RouterConfig::default(), pool(vec![fast, slow]));
        for id in 0..64 {
            assert!(router.route(id, id as f64));
        }
        let report = router.finish();
        assert_eq!(report.lost(), 0);
        let fast_share = report.replicas[0].offered;
        let slow_share = report.replicas[1].offered;
        assert!(
            fast_share > slow_share,
            "fast {fast_share} vs slow {slow_share}"
        );
    }

    #[test]
    fn round_robin_ignores_load() {
        let fast = FakeReplica::new("fast", 1.0);
        let mut slow = FakeReplica::new("slow", 50.0);
        slow.health.queue_depth = 100;
        let cfg = RouterConfig {
            policy: RoutePolicy::RoundRobin,
            ..RouterConfig::default()
        };
        let mut router = Router::new(cfg, pool(vec![fast, slow]));
        for id in 0..10 {
            router.route(id, id as f64);
        }
        let report = router.finish();
        assert_eq!(report.replicas[0].offered, 5);
        assert_eq!(report.replicas[1].offered, 5);
    }

    #[test]
    fn open_breaker_gets_zero_admissions_until_its_probe_instant() {
        let mut tripped = FakeReplica::new("tripped", 1.0);
        tripped.health.breaker = 1.0;
        tripped.health.breaker_open_until_ms = Some(100.0);
        let healthy = FakeReplica::new("healthy", 5.0);
        let mut router = Router::new(RouterConfig::default(), pool(vec![tripped, healthy]));
        for id in 0..20 {
            assert!(router.route(id, id as f64 * 4.0)); // arrivals 0..76
        }
        // arrivals past 100 may probe the tripped replica again
        assert!(router.route(20, 120.0));
        let report = router.finish();
        assert_eq!(report.lost(), 0);
        let discovery = discovery_admissions(&report, 0, 100.0);
        // before the probe instant, everything else went to the healthy peer
        assert!(report.replicas[1].offered >= 20 - discovery);
    }

    #[test]
    fn burning_replica_sheds_to_peers() {
        let mut burning = FakeReplica::new("burning", 1.0);
        burning.health.burn_rate = 100.0;
        let calm = FakeReplica::new("calm", 5.0);
        let mut router = Router::new(RouterConfig::default(), pool(vec![burning, calm]));
        for id in 0..12 {
            assert!(router.route(id, id as f64));
        }
        let report = router.finish();
        // the burn rate is learned from the first ack: at most that one
        // admission reaches the burning replica
        let burned = report.replicas[0].offered;
        assert!(burned <= 1, "burning replica kept taking traffic: {burned}");
        assert_eq!(report.replicas[1].offered, 12 - burned);
    }

    #[test]
    fn remote_death_fails_the_backlog_over_without_loss() {
        let mut doomed = FakeReplica::new("doomed", 1.0);
        doomed.die_on_submit = Some(5);
        let survivor = FakeReplica::new("survivor", 1.0);
        let mut router = Router::new(RouterConfig::default(), pool(vec![doomed, survivor]));
        for id in 0..30 {
            assert!(router.route(id, id as f64));
        }
        let report = router.finish();
        assert_eq!(report.replica_deaths, 1);
        assert!(report.rerouted > 0, "the doomed backlog must re-route");
        assert_eq!(report.lost(), 0);
        assert_eq!(report.completed.len(), 30);
        assert!(report.replicas[0].dead);
        // every id completed exactly once
        let ids: Vec<usize> = report.completed.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, (0..30).collect::<Vec<_>>());
    }

    #[test]
    fn a_fully_unhealthy_fleet_sheds_instead_of_losing() {
        let mut a = FakeReplica::new("a", 1.0);
        a.shed_all = true;
        let mut b = FakeReplica::new("b", 1.0);
        b.shed_all = true;
        let mut router = Router::new(RouterConfig::default(), pool(vec![a, b]));
        for id in 0..5 {
            assert!(!router.route(id, id as f64));
        }
        let report = router.finish();
        assert_eq!(report.shed, vec![0, 1, 2, 3, 4]);
        assert_eq!(report.lost(), 0);
    }

    #[test]
    fn identical_runs_route_and_digest_identically() {
        let run = || {
            let mut doomed = FakeReplica::new("doomed", 2.0);
            doomed.die_on_submit = Some(7);
            let steady = FakeReplica::new("steady", 1.0);
            let slow = FakeReplica::new("slow", 8.0);
            let mut router =
                Router::new(RouterConfig::default(), pool(vec![doomed, steady, slow]));
            for id in 0..50 {
                router.route(id, id as f64 * 0.5);
            }
            router.finish()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.decisions, b.decisions);
        assert_eq!(a.lost(), 0);
    }

    #[test]
    fn spans_reach_the_recorder_on_read_and_at_finish_in_routing_order() {
        let handle = SpanRecorder::new();
        let mut doomed = FakeReplica::new("doomed", 1.0);
        doomed.die_on_submit = Some(2);
        let mut router = Router::with_telemetry(
            RouterConfig::default(),
            pool(vec![FakeReplica::new("steady", 1.0), doomed]),
            handle.clone(),
            MetricsRegistry::new(),
        );
        for id in 0..8 {
            assert!(router.route(id, id as f64));
        }
        assert!(handle.is_empty(), "nothing is formatted while routing");
        let read = router.spans().expect("the recorder handed in").len();
        assert!(read >= 8, "a read formats everything routed so far");
        assert_eq!(handle.len(), read, "into the recorder the caller holds");
        for id in 8..12 {
            assert!(router.route(id, id as f64));
        }
        let report = router.finish();
        assert_eq!(report.replica_deaths, 1);
        let spans = handle.spans();
        let routed: Vec<&str> = spans
            .iter()
            .filter(|s| s.category == "fleet.route" && s.attrs[1].1 == "false")
            .map(|s| s.name.as_str())
            .collect();
        let want: Vec<String> = (0..12).map(|id| format!("req {id}")).collect();
        assert_eq!(routed, want, "one span per admission, in offer order");
        let deaths = spans.iter().filter(|s| s.category == "fleet.death").count();
        assert_eq!(deaths, 1);
        assert_eq!(spans.len(), 12 + report.rerouted + deaths);

        let mut untraced = Router::new(RouterConfig::default(), pool(vec![FakeReplica::new("a", 1.0)]));
        untraced.route(0, 0.0);
        assert!(untraced.spans().is_none(), "nobody holds a recorder: nothing is traced");
    }

    #[test]
    fn round_robin_skips_dead_replicas() {
        let mut doomed = FakeReplica::new("doomed", 1.0);
        doomed.die_on_submit = Some(3);
        let survivor = FakeReplica::new("survivor", 1.0);
        let cfg = RouterConfig {
            policy: RoutePolicy::RoundRobin,
            ..RouterConfig::default()
        };
        let mut router = Router::new(cfg, pool(vec![doomed, survivor]));
        for id in 0..20 {
            assert!(router.route(id, id as f64));
        }
        let report = router.finish();
        assert_eq!(report.replica_deaths, 1);
        assert_eq!(report.lost(), 0);
        assert_eq!(report.duplicate_completions(), 0);
        assert!(report.replicas[0].dead);
        // after the dying submit, the rotation must never land on the
        // corpse again
        let death_idx = report
            .decisions
            .iter()
            .rposition(|d| d.replica == 0)
            .expect("replica 0 took traffic before dying");
        assert!(
            report.decisions[death_idx + 1..].iter().all(|d| d.replica != 0),
            "round-robin kept offering to a dead replica"
        );
        let ids: Vec<usize> = report.completed.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn round_robin_gives_an_open_breaker_zero_admissions_before_its_probe() {
        let mut tripped = FakeReplica::new("tripped", 1.0);
        tripped.health.breaker = 1.0;
        tripped.health.breaker_open_until_ms = Some(100.0);
        let healthy = FakeReplica::new("healthy", 1.0);
        let cfg = RouterConfig {
            policy: RoutePolicy::RoundRobin,
            ..RouterConfig::default()
        };
        let mut router = Router::new(cfg, pool(vec![tripped, healthy]));
        for id in 0..10 {
            assert!(router.route(id, id as f64)); // arrivals 0..9, all pre-probe
        }
        assert!(router.route(10, 150.0)); // past the probe instant
        let report = router.finish();
        assert_eq!(report.lost(), 0);
        let discovery = discovery_admissions(&report, 0, 100.0);
        // everything else pre-probe went to the healthy peer
        let pre_probe_to_healthy = report
            .decisions
            .iter()
            .filter(|d| d.replica == 1 && d.arrival_ms < 100.0)
            .count();
        assert_eq!(pre_probe_to_healthy, 10 - discovery);
    }

    #[test]
    fn a_death_during_shutdown_fails_over_to_undrained_replicas_only() {
        // pool order [steady, doomed]: steady drains first and is already
        // finished when doomed dies on its own finish, so doomed's
        // backlog has nowhere to go but the shed bucket — accounted, not
        // lost, and never offered to a finished replica.
        let steady = FakeReplica::new("steady", 1.0);
        let mut doomed = FakeReplica::new("doomed", 1.0);
        doomed.die_on_finish = true;
        let mut router = Router::new(RouterConfig::default(), pool(vec![steady, doomed]));
        for id in 0..16 {
            assert!(router.route(id, id as f64));
        }
        let report = router.finish();
        assert_eq!(report.replica_deaths, 1);
        assert_eq!(report.lost(), 0);
        assert!(report.replicas[1].dead);
        assert!(!report.shed.is_empty(), "the doomed backlog must be shed");
        assert_eq!(report.completed.len() + report.shed.len(), 16);
        assert_eq!(report.completed.len(), report.replicas[0].completed.len());
        for d in report.decisions.iter().filter(|d| d.rerouted) {
            assert_ne!(d.replica, 0, "failover targeted a finished replica");
        }
    }
}
