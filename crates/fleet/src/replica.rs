//! One fleet replica: a [`Server`] wrapping a [`CompiledModel`] for a
//! single simulated device, reachable either in-process
//! ([`LocalReplica`]) or over TCP ([`run_replica`], with
//! [`RemoteReplica`](crate::router::RemoteReplica) as the router-side
//! handle).
//!
//! A replica is deliberately dumb: it admits or sheds what it is offered,
//! answers every admission with a health snapshot (queue depth, inflight,
//! breaker phase, SLO burn), and reports its final accounting on
//! `Finish`. All placement intelligence lives in the router — replicas
//! never talk to each other, which is what makes a replica kill a local
//! event the router can reason about.

use std::collections::{HashMap, VecDeque};
use std::io::{self, ErrorKind, Read, Write};
use std::net::TcpListener;
use std::path::PathBuf;

use unigpu_device::{NetFaultPlan, Platform, Vendor};
use unigpu_engine::{
    Admission, CompiledModel, Engine, InferenceRequest, ServeConfig, ServeReport, Server,
};
use unigpu_farm::framing::{FrameError, Framed, FRAMING_VERSION};
use unigpu_farm::netchaos::{ChaosStream, NetStats, SharedNetFaults};
use unigpu_models::full_zoo;
use unigpu_tensor::Shape;
use unigpu_telemetry::{tel_info, tel_warn};

use crate::proto::{FleetFrame, ReplicaHealth, ReplicaReport};
use crate::replication;

/// How many `Infer` acks a replica remembers for duplicate suppression.
/// Far deeper than any reconnect can replay (the router replays at most
/// the frames of one in-flight exchange), bounded so a long-lived replica
/// cannot grow without limit.
const DEDUP_WINDOW: usize = 1024;

/// Router-side handle to one replica, local or remote. The router owns a
/// boxed set of these and never cares which transport backs them.
pub trait ReplicaLink {
    fn name(&self) -> &str;
    /// Device name (`DeviceSpec::name`); the warm-replication key.
    fn device(&self) -> &str;
    /// Predicted single-sample latency on this replica's device, ms — the
    /// static weight in the router's cost-aware score.
    fn predicted_ms(&self) -> f64;
    /// True when this replica served from a replicated artifact instead
    /// of compiling.
    fn warm_start(&self) -> bool;
    /// Offer one request. `Ok((admitted, health))` covers replica-side
    /// shedding (`admitted == false`); `Err` means the replica is dead
    /// and will never answer again.
    fn submit(&mut self, id: usize, arrival_ms: f64) -> io::Result<(bool, ReplicaHealth)>;
    /// What a dead replica can hand back: the requests that were queued
    /// but unformed when it died, and its recovered final report. A
    /// remote crash returns `(None, None)` — nothing is recoverable, so
    /// the router re-routes everything unconfirmed.
    fn orphans(&mut self) -> (Option<Vec<(usize, f64)>>, Option<ReplicaReport>);
    /// Drain, shut down, and collect the final report.
    fn finish(&mut self) -> io::Result<ReplicaReport>;
    /// Transport-level counters for this link. In-process replicas have
    /// no wire, so the default is all zeros.
    fn net_stats(&self) -> NetStats {
        NetStats::default()
    }
}

/// Fold a finished [`ServeReport`] into the wire-sized summary.
pub(crate) fn summarize(
    name: &str,
    device: &str,
    warm: bool,
    dead: bool,
    report: &ServeReport,
) -> ReplicaReport {
    ReplicaReport {
        name: name.to_string(),
        device: device.to_string(),
        offered: report.offered,
        completed: report
            .results
            .iter()
            .map(|r| (r.id, r.latency_ms()))
            .collect(),
        shed: report.shed.iter().map(|r| r.id).collect(),
        expired: report.expired.iter().map(|r| r.id).collect(),
        failed: report.failed.iter().map(|r| r.id).collect(),
        batches: report.batches,
        makespan_ms: report.makespan_ms,
        degraded_batches: report.degraded_batches,
        breaker_trips: report.breaker_trips,
        breaker_recoveries: report.breaker_recoveries,
        digest: report.digest(),
        warm_start: warm,
        dead,
    }
}

/// An in-process replica: the building block of [`build_pool`] and the
/// state behind one [`run_replica`] connection.
///
/// [`build_pool`]: crate::pool::build_pool
pub struct LocalReplica {
    name: String,
    device: String,
    predicted_ms: f64,
    shape: Shape,
    warm: bool,
    compiled: CompiledModel,
    server: Option<Server>,
    /// Deterministic chaos: hard-kill on the Nth submit (1-based).
    die_on_submit: Option<usize>,
    submits: usize,
    orphaned: Option<Vec<(usize, f64)>>,
    recovered: Option<ReplicaReport>,
}

impl LocalReplica {
    pub fn new(name: impl Into<String>, compiled: &CompiledModel, cfg: &ServeConfig) -> Self {
        LocalReplica {
            name: name.into(),
            device: compiled.key().device.clone(),
            predicted_ms: compiled.estimate_batch_ms(1),
            shape: compiled.input_shape(),
            warm: compiled.from_cache(),
            compiled: compiled.clone(),
            server: Some(compiled.server(cfg)),
            die_on_submit: None,
            submits: 0,
            orphaned: None,
            recovered: None,
        }
    }

    /// Arm the deterministic kill switch: the `nth` submit (1-based)
    /// finds the replica dead. The kill is a hard one — [`Server::kill`]
    /// evicts the queue — but in-process the evicted backlog and the
    /// final report are recoverable, modeling a supervised crash.
    pub fn die_on_submit(mut self, nth: usize) -> Self {
        self.die_on_submit = Some(nth.max(1));
        self
    }

    /// The compiled model this replica serves (the replication donor).
    pub fn compiled(&self) -> &CompiledModel {
        &self.compiled
    }

    fn down() -> io::Error {
        io::Error::new(ErrorKind::BrokenPipe, "replica is down")
    }
}

impl ReplicaLink for LocalReplica {
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
        if self.server.is_none() {
            return Err(Self::down());
        }
        self.submits += 1;
        if self.die_on_submit.is_some_and(|nth| self.submits >= nth) {
            let server = self.server.take().expect("server checked above");
            let (evicted, report) = server.kill();
            self.orphaned = Some(evicted.iter().map(|r| (r.id, r.arrival_ms)).collect());
            self.recovered = Some(summarize(&self.name, &self.device, self.warm, true, &report));
            return Err(io::Error::new(ErrorKind::BrokenPipe, "injected replica death"));
        }
        let server = self.server.as_mut().expect("server checked above");
        let admitted = matches!(
            server.submit(InferenceRequest {
                id,
                shape: self.shape.clone(),
                arrival_ms,
                trace: None,
            }),
            Admission::Accepted
        );
        Ok((
            admitted,
            ReplicaHealth {
                queue_depth: server.queue_depth(),
                inflight: server.inflight(),
                breaker: server.breaker_gauge(),
                breaker_open_until_ms: server.breaker_open_until_ms(),
                burn_rate: server.slo_burn_rate(),
            },
        ))
    }

    fn orphans(&mut self) -> (Option<Vec<(usize, f64)>>, Option<ReplicaReport>) {
        (self.orphaned.take(), self.recovered.take())
    }

    fn finish(&mut self) -> io::Result<ReplicaReport> {
        if let Some(report) = self.recovered.take() {
            return Ok(report);
        }
        let server = self.server.take().ok_or_else(Self::down)?;
        let report = server.shutdown();
        Ok(summarize(&self.name, &self.device, self.warm, false, &report))
    }
}

/// Everything one replica process needs to serve.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    pub name: String,
    /// The platform this replica simulates ([`Platform::by_name`]).
    pub platform: Platform,
    pub serve: ServeConfig,
    /// Artifact-cache directory (the warm-replication landing zone).
    /// `None` uses the engine default (`$UNIGPU_DB_DIR/artifacts`) —
    /// fleet processes on one host should each get their own.
    pub cache_dir: Option<PathBuf>,
    /// Deterministic chaos for process-level replicas: hard-kill on the
    /// Nth submit (1-based), exactly like [`LocalReplica::die_on_submit`].
    /// The CI fleet gate uses this so the mid-traffic kill lands on the
    /// same request every run.
    pub die_on_submit: Option<usize>,
    /// Deterministic wire-fault injection on this replica's side of every
    /// router connection.
    pub net_faults: NetFaultPlan,
    /// How many reconnects (session resumes) the replica accepts after
    /// its first connection before giving up on the router.
    pub max_resumes: usize,
}

/// Serve one router *session* on `listener`, then return. The replica
/// protocol is single-tenant by design: one router drives one replica —
/// but a session may span several TCP connections: when a connection
/// drops mid-work the replica keeps its state (loaded model, dedup
/// window, cached final report) and waits for the router to re-dial with
/// its session token, up to `max_resumes` times. The process exits when
/// the final report is delivered (or the router hangs up with nothing
/// outstanding).
pub fn run_replica(listener: &TcpListener, cfg: &ReplicaConfig) -> io::Result<()> {
    let net = SharedNetFaults::new(cfg.net_faults);
    let mut session = ReplicaSession::default();
    let mut conns = 0usize;
    loop {
        let (stream, _peer) = listener.accept()?;
        let _ = stream.set_nodelay(true);
        conns += 1;
        let mut framed = Framed::new(ChaosStream::new(stream, net.clone()));
        match serve_session(&mut framed, cfg, &mut session)? {
            SessionEnd::Exit => return Ok(()),
            SessionEnd::Dropped => {
                // resumes used so far = conns - 1; the next accept spends
                // one more, so stop when the budget is already gone
                if conns > cfg.max_resumes {
                    return Err(io::Error::new(
                        ErrorKind::ConnectionAborted,
                        format!("resume budget exhausted after {conns} connection(s)"),
                    ));
                }
                tel_info!(
                    "fleet::replica",
                    "{}: connection dropped mid-session; awaiting resume ({} of {} used)",
                    cfg.name,
                    conns - 1,
                    cfg.max_resumes
                );
            }
        }
    }
}

fn load_model(cfg: &ReplicaConfig, model: &str) -> Result<LocalReplica, String> {
    let entry = full_zoo()
        .into_iter()
        .find(|e| e.name == model)
        .ok_or_else(|| format!("unknown model '{model}'"))?;
    let graph = (entry.build)(cfg.platform.gpu.vendor == Vendor::Arm);
    let mut builder = Engine::builder().platform(cfg.platform.clone());
    if let Some(dir) = &cfg.cache_dir {
        builder = builder.cache_dir(dir);
    }
    let compiled = builder.build().compile(&graph);
    let mut replica = LocalReplica::new(cfg.name.clone(), &compiled, &cfg.serve);
    if let Some(nth) = cfg.die_on_submit {
        replica = replica.die_on_submit(nth);
    }
    Ok(replica)
}

/// How one connection of a replica session ended.
enum SessionEnd {
    /// The session is complete (final report delivered, or the router
    /// hung up with nothing outstanding): the replica process is done.
    Exit,
    /// The connection died mid-session: keep state and await a resume.
    Dropped,
}

/// Replica-side state that outlives one TCP connection: the loaded
/// server, the session token, the bounded `Infer`-ack dedup window, and
/// the cached final reply. This is what makes the protocol effectively
/// exactly-once — a router replaying frames after a reconnect gets the
/// cached answers instead of double-submitting work.
#[derive(Default)]
struct ReplicaSession {
    replica: Option<LocalReplica>,
    token: Option<String>,
    /// Cached `(admitted, health)` per request id, insertion-ordered for
    /// bounded eviction.
    acks: HashMap<usize, (bool, ReplicaHealth)>,
    ack_order: VecDeque<usize>,
    dedup_hits: u64,
    /// The `Finish` reply, computed once and re-sent verbatim for every
    /// duplicate `Finish` (a report lost to the wire is re-deliverable).
    final_reply: Option<FleetFrame>,
    /// True once the final reply left this side intact at least once.
    final_sent: bool,
}

impl ReplicaSession {
    fn cache_ack(&mut self, id: usize, admitted: bool, health: ReplicaHealth) {
        if self.acks.insert(id, (admitted, health)).is_none() {
            self.ack_order.push_back(id);
            if self.ack_order.len() > DEDUP_WINDOW {
                if let Some(old) = self.ack_order.pop_front() {
                    self.acks.remove(&old);
                }
            }
        }
    }
}

/// Serve one connection of a (possibly multi-connection) session: the
/// replica side of the fleet protocol, a strict request/response loop.
/// Protocol errors answer [`FleetFrame::Error`] and surface the underlying
/// error to the caller.
fn serve_session<S: Read + Write>(
    framed: &mut Framed<S>,
    cfg: &ReplicaConfig,
    sess: &mut ReplicaSession,
) -> io::Result<SessionEnd> {
    loop {
        let frame = match framed.recv::<FleetFrame>() {
            Ok(f) => f,
            Err(FrameError::Io(e)) => {
                // A hangup after the final report (or before any work) is
                // the clean end of the session; mid-work it is a drop the
                // router will resume from.
                let never_started = sess.replica.is_none() && sess.final_reply.is_none();
                return if sess.final_sent || never_started {
                    Ok(SessionEnd::Exit)
                } else {
                    tel_warn!("fleet::replica", "{}: connection lost mid-work: {e}", cfg.name);
                    Ok(SessionEnd::Dropped)
                };
            }
            Err(
                e @ (FrameError::ChecksumMismatch { .. }
                | FrameError::SequenceGap { .. }
                | FrameError::Malformed(_)),
            ) => {
                // Wire damage, not router insanity — a corrupted v1
                // handshake frame parses as garbage rather than failing
                // its (nonexistent) checksum: tell the router (best
                // effort) and let it reconnect-and-resume.
                tel_warn!("fleet::replica", "{}: {e}; dropping connection for resume", cfg.name);
                let _ = framed.send(&FleetFrame::Error { message: e.to_string(), fatal: false });
                return Ok(SessionEnd::Dropped);
            }
            Err(e) => {
                let _ = framed.send(&FleetFrame::Error { message: e.to_string(), fatal: true });
                return Err(io::Error::from(e));
            }
        };
        match frame {
            FleetFrame::Hello { framing, session } => {
                let resumed = sess.token.is_some() && sess.token == session;
                if sess.token.is_none() {
                    sess.token = session;
                }
                let accept =
                    framing.filter(|&v| v >= FRAMING_VERSION).map(|_| FRAMING_VERSION);
                let ack = FleetFrame::HelloAck {
                    name: cfg.name.clone(),
                    device: cfg.platform.gpu.name.clone(),
                    framing: accept,
                    resumed,
                };
                if framed.send(&ack).is_err() {
                    return Ok(SessionEnd::Dropped);
                }
                if accept.is_some() {
                    // Both peers switch codecs right after the ack.
                    framed.upgrade();
                }
                if resumed {
                    tel_info!("fleet::replica", "{}: session resumed by router", cfg.name);
                }
            }
            FleetFrame::PushArtifact { jsonl } => {
                let dir = cfg
                    .cache_dir
                    .clone()
                    .unwrap_or_else(unigpu_engine::default_artifact_dir);
                let stored = replication::store_jsonl_in_dir(&dir, &jsonl);
                if framed.send(&FleetFrame::PushAck { stored }).is_err() {
                    return Ok(SessionEnd::Dropped);
                }
            }
            FleetFrame::Load { model } => {
                let reply = if let Some(r) = &sess.replica {
                    // A duplicate Load after a resume: the model is already
                    // up; answer from the live server instead of rebuilding.
                    FleetFrame::LoadAck { warm: r.warm_start(), predicted_ms: r.predicted_ms() }
                } else {
                    match load_model(cfg, &model) {
                        Ok(loaded) => {
                            let ack = FleetFrame::LoadAck {
                                warm: loaded.warm_start(),
                                predicted_ms: loaded.predicted_ms(),
                            };
                            sess.replica = Some(loaded);
                            ack
                        }
                        Err(message) => FleetFrame::Error { message, fatal: true },
                    }
                };
                if framed.send(&reply).is_err() {
                    return Ok(SessionEnd::Dropped);
                }
            }
            FleetFrame::FetchArtifact => {
                let reply = match &sess.replica {
                    Some(r) => {
                        let jsonl = r.compiled().artifact().to_jsonl();
                        FleetFrame::ArtifactBlob { jsonl }
                    }
                    None => {
                        FleetFrame::Error { message: "no model loaded".into(), fatal: true }
                    }
                };
                if framed.send(&reply).is_err() {
                    return Ok(SessionEnd::Dropped);
                }
            }
            FleetFrame::Infer { id, arrival_ms } => {
                // Idempotency: a request id seen before is answered from
                // the dedup window without touching the server, so a
                // router replay cannot double-submit work.
                if let Some(&(admitted, health)) = sess.acks.get(&id) {
                    sess.dedup_hits += 1;
                    if framed.send(&FleetFrame::InferAck { admitted, health }).is_err() {
                        return Ok(SessionEnd::Dropped);
                    }
                    continue;
                }
                match sess.replica.as_mut() {
                    Some(r) => match r.submit(id, arrival_ms) {
                        Ok((admitted, health)) => {
                            sess.cache_ack(id, admitted, health);
                            if framed.send(&FleetFrame::InferAck { admitted, health }).is_err()
                            {
                                return Ok(SessionEnd::Dropped);
                            }
                        }
                        Err(e) => {
                            // Injected death or a wedged server: fatal by
                            // definition — the router must not resume.
                            let _ = framed.send(&FleetFrame::Error {
                                message: e.to_string(),
                                fatal: true,
                            });
                            return Err(e);
                        }
                    },
                    None => {
                        let reply =
                            FleetFrame::Error { message: "no model loaded".into(), fatal: true };
                        if framed.send(&reply).is_err() {
                            return Ok(SessionEnd::Dropped);
                        }
                    }
                }
            }
            FleetFrame::Finish => {
                if sess.final_reply.is_none() {
                    let reply = match sess.replica.take() {
                        Some(mut r) => match r.finish() {
                            Ok(report) => FleetFrame::Report(Box::new(report)),
                            Err(e) => {
                                FleetFrame::Error { message: e.to_string(), fatal: true }
                            }
                        },
                        None => {
                            FleetFrame::Error { message: "no model loaded".into(), fatal: true }
                        }
                    };
                    sess.final_reply = Some(reply);
                }
                if sess.dedup_hits > 0 {
                    tel_info!(
                        "fleet::replica",
                        "{}: suppressed {} duplicate infer(s) this session",
                        cfg.name,
                        sess.dedup_hits
                    );
                }
                let reply = sess.final_reply.clone().expect("just cached");
                match framed.send(&reply) {
                    Ok(()) => {
                        // Delivered from this side; the router closing the
                        // connection is now a clean exit. A corrupted
                        // report instead comes back as a resumed Finish,
                        // answered from the cache above.
                        sess.final_sent = true;
                    }
                    Err(_) => return Ok(SessionEnd::Dropped),
                }
            }
            // a replica only ever *answers*; receiving a reply frame means
            // the peer is confused — say so and hang up
            other => {
                let message = format!("unexpected frame from router: {other:?}");
                let _ =
                    framed.send(&FleetFrame::Error { message: message.clone(), fatal: true });
                return Err(io::Error::new(ErrorKind::InvalidData, message));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{read_frame, write_frame};
    use std::io::Cursor;
    use std::time::Duration;

    fn compiled_deeplens() -> CompiledModel {
        let entry = full_zoo()
            .into_iter()
            .find(|e| e.name == "MobileNet1.0")
            .expect("zoo has MobileNet1.0");
        let graph = (entry.build)(false);
        Engine::builder()
            .platform(Platform::deeplens())
            .persist(false)
            .build()
            .compile(&graph)
    }

    fn serve_cfg() -> ServeConfig {
        ServeConfig::builder()
            .concurrency(1)
            .max_batch(2)
            .build()
            .expect("valid serve config")
    }

    #[test]
    fn local_replica_admits_and_reports() {
        let compiled = compiled_deeplens();
        let mut r = LocalReplica::new("r0", &compiled, &serve_cfg());
        assert_eq!(r.device(), "Intel HD Graphics 505");
        assert!(r.predicted_ms() > 0.0);
        for id in 0..4 {
            let (admitted, health) = r.submit(id, id as f64 * 2.0).unwrap();
            assert!(admitted);
            assert_eq!(health.breaker, 0.0);
        }
        let report = r.finish().unwrap();
        assert_eq!(report.offered, 4);
        assert_eq!(report.completed.len(), 4);
        assert!(!report.dead);
        // a finished replica is dead to further traffic
        assert!(r.submit(99, 1000.0).is_err());
    }

    #[test]
    fn killed_replica_hands_back_its_backlog_and_report() {
        let compiled = compiled_deeplens();
        // concurrency 1 + a long batch window keep the queue populated
        let cfg = ServeConfig::builder()
            .concurrency(1)
            .max_batch(4)
            .batch_window(Duration::from_millis(50))
            .build()
            .expect("valid serve config");
        let mut r = LocalReplica::new("r0", &compiled, &cfg).die_on_submit(4);
        for id in 0..3 {
            assert!(r.submit(id, 0.1).unwrap().0);
        }
        let err = r.submit(3, 0.2).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::BrokenPipe);
        let (orphans, report) = r.orphans();
        let orphans = orphans.expect("in-process kill recovers the backlog");
        let report = report.expect("in-process kill recovers the report");
        assert!(report.dead);
        // every admitted id is either in the recovered report or orphaned
        let mut seen: Vec<usize> = report
            .completed
            .iter()
            .map(|&(id, _)| id)
            .chain(report.expired.iter().copied())
            .chain(report.failed.iter().copied())
            .chain(orphans.iter().map(|&(id, _)| id))
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2]);
        assert_eq!(report.offered + orphans.len(), 3);
    }

    /// A replica config whose artifacts go to a fresh temp dir.
    fn script_cfg(tag: &str) -> ReplicaConfig {
        let cache_dir =
            std::env::temp_dir().join(format!("unigpu-fleet-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cache_dir);
        ReplicaConfig {
            name: "r0".into(),
            platform: Platform::deeplens(),
            serve: serve_cfg(),
            cache_dir: Some(cache_dir),
            die_on_submit: None,
            net_faults: NetFaultPlan::default(),
            max_resumes: 0,
        }
    }

    /// Serve one session connection whose router side is the scripted
    /// `inbox`; returns the replies.
    fn serve_script(inbox: Vec<u8>, cfg: &ReplicaConfig) -> Cursor<Vec<u8>> {
        struct Duplex {
            rx: Cursor<Vec<u8>>,
            tx: Vec<u8>,
        }
        impl Read for Duplex {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.rx.read(buf)
            }
        }
        impl Write for Duplex {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.tx.write(buf)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let mut framed = Framed::new(Duplex { rx: Cursor::new(inbox), tx: Vec::new() });
        serve_session(&mut framed, cfg, &mut ReplicaSession::default()).unwrap();
        if let Some(dir) = &cfg.cache_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        Cursor::new(std::mem::take(&mut framed.get_mut().tx))
    }

    #[test]
    fn serve_session_speaks_the_protocol_end_to_end() {
        let cfg = script_cfg("serve-session");
        // script the router side of the conversation into a buffer — a v1
        // router: no framing negotiation, no session token
        let mut inbox = Vec::new();
        write_frame(&mut inbox, &FleetFrame::Hello { framing: None, session: None }).unwrap();
        write_frame(&mut inbox, &FleetFrame::Load { model: "MobileNet1.0".into() }).unwrap();
        write_frame(&mut inbox, &FleetFrame::Infer { id: 0, arrival_ms: 0.0 }).unwrap();
        write_frame(&mut inbox, &FleetFrame::Infer { id: 1, arrival_ms: 1.0 }).unwrap();
        write_frame(&mut inbox, &FleetFrame::Finish).unwrap();

        let mut replies = serve_script(inbox, &cfg);
        match read_frame(&mut replies).unwrap() {
            FleetFrame::HelloAck { name, device, framing, resumed } => {
                assert_eq!(name, "r0");
                assert_eq!(device, "Intel HD Graphics 505");
                assert_eq!(framing, None, "a v1 hello must not negotiate v2");
                assert!(!resumed);
            }
            other => panic!("expected HelloAck, got {other:?}"),
        }
        match read_frame(&mut replies).unwrap() {
            FleetFrame::LoadAck { predicted_ms, .. } => assert!(predicted_ms > 0.0),
            other => panic!("expected LoadAck, got {other:?}"),
        }
        for _ in 0..2 {
            match read_frame(&mut replies).unwrap() {
                FleetFrame::InferAck { admitted, .. } => assert!(admitted),
                other => panic!("expected InferAck, got {other:?}"),
            }
        }
        match read_frame(&mut replies).unwrap() {
            FleetFrame::Report(report) => {
                assert_eq!(report.offered, 2);
                assert_eq!(report.completed.len(), 2);
            }
            other => panic!("expected Report, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_infer_ids_are_answered_from_the_dedup_window() {
        let cfg = script_cfg("dedup-window");
        // id 0 is offered three times (a router replay after lost acks);
        // the replica must submit it once and answer the rest from cache
        let mut inbox = Vec::new();
        write_frame(&mut inbox, &FleetFrame::Hello { framing: None, session: None }).unwrap();
        write_frame(&mut inbox, &FleetFrame::Load { model: "MobileNet1.0".into() }).unwrap();
        for _ in 0..3 {
            write_frame(&mut inbox, &FleetFrame::Infer { id: 0, arrival_ms: 0.0 }).unwrap();
        }
        write_frame(&mut inbox, &FleetFrame::Infer { id: 1, arrival_ms: 1.0 }).unwrap();
        write_frame(&mut inbox, &FleetFrame::Finish).unwrap();

        let mut replies = serve_script(inbox, &cfg);
        let _hello = read_frame(&mut replies).unwrap();
        let _load = read_frame(&mut replies).unwrap();
        for _ in 0..4 {
            match read_frame(&mut replies).unwrap() {
                FleetFrame::InferAck { admitted, .. } => assert!(admitted),
                other => panic!("expected InferAck, got {other:?}"),
            }
        }
        match read_frame(&mut replies).unwrap() {
            FleetFrame::Report(report) => {
                assert_eq!(report.offered, 2, "duplicates must not reach the server");
                assert_eq!(report.completed.len(), 2);
                let ids: Vec<usize> = report.completed.iter().map(|&(id, _)| id).collect();
                assert_eq!(ids, vec![0, 1], "each id completes exactly once");
            }
            other => panic!("expected Report, got {other:?}"),
        }
    }
}
