//! A farm worker: owns one simulated device and runs leased tuning jobs.
//!
//! The loop is deliberately simple — request a job, tune it with
//! [`tune_one`] (the job body the local dispatcher runs too, so results are
//! bit-identical), send the result, repeat. While a job is tuning, a scoped
//! heartbeat thread keeps the lease alive; heartbeat failures are tolerated
//! because the tracker's re-queue path covers a lapsed lease anyway.
//!
//! Transport failures trigger a bounded reconnect on the shared
//! deterministic [`Backoff`] schedule. A reconnect *resumes*: the worker
//! offers its previous id in `Register { resume }`, re-attaches if the
//! tracker still knows it, and replays an unacked `Result` frame so a
//! connection dropped mid-ack cannot lose finished work (the tracker's
//! duplicate-result dedup absorbs the replay if the ack merely got lost).
//! Fault injection (the lease count in the worker's session state, wire
//! faults in [`SharedNetFaults`]) lives worker-side and survives
//! reconnects, so neither a `kill_after_leases` budget nor a
//! `drop_conn_nth` counter can be reset by a dropped frame.

use crate::backoff::Backoff;
use crate::framing::{Framed, FRAMING_VERSION};
use crate::netchaos::{ChaosStream, SharedNetFaults};
use crate::proto::Frame;
use std::io;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;
use unigpu_device::{DeviceSpec, FaultPlan};
use unigpu_telemetry::{tel_debug, tel_info, tel_warn};
use unigpu_tuner::{tune_one, TuneJob, TuneOutcome, TuningBudget};

/// How often the heartbeat thread checks whether tuning has finished.
const HEARTBEAT_TICK: Duration = Duration::from_millis(20);

/// Worker behaviour knobs.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Display name reported to the tracker.
    pub name: String,
    /// Idle poll interval when the tracker has no work.
    pub poll: Duration,
    /// Exit cleanly after this many consecutive empty polls (`None` = serve
    /// forever; tests and the CI smoke test set a bound).
    pub max_idle_polls: Option<usize>,
    /// Reconnect attempts after transport failures before giving up (a
    /// lifetime budget, spent on the deterministic [`Backoff`] schedule).
    pub reconnects: usize,
    /// Deterministic fault injection: the worker reads `kill_after_leases`
    /// and the wire knobs.
    pub faults: FaultPlan,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            name: "worker".into(),
            poll: Duration::from_millis(25),
            max_idle_polls: None,
            reconnects: 5,
            faults: FaultPlan::default(),
        }
    }
}

/// Why a worker's loop ended without a transport error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerExit {
    /// Hit `max_idle_polls` consecutive empty polls.
    Idle,
    /// Fault injection spent its `kill_after_leases` budget mid-lease.
    Killed,
}

type Conn = Framed<ChaosStream<TcpStream>>;

/// One request/response exchange. The caller holds the connection lock
/// for the whole exchange, so replies cannot interleave between the main
/// loop and the heartbeat thread.
fn rpc(conn: &mut Conn, frame: &Frame) -> io::Result<Frame> {
    conn.send(frame).map_err(io::Error::from)?;
    conn.recv().map_err(io::Error::from)
}

fn lock(conn: &Mutex<Conn>) -> MutexGuard<'_, Conn> {
    conn.lock().expect("worker connection poisoned")
}

/// Cross-session worker state: identity to resume, a finished result whose
/// ack never arrived (replayed on the next connection), and the leases
/// granted so far.
#[derive(Default)]
struct SessionState {
    resume: Option<u64>,
    pending: Option<Frame>,
    leases: u64,
}

impl SessionState {
    /// Count a granted lease; `true` means the `kill_after_leases` budget
    /// is spent and the worker must die now, mid-lease.
    fn lease_started(&mut self, faults: &FaultPlan) -> bool {
        self.leases += 1;
        faults.kill_after_leases.is_some_and(|k| self.leases >= k)
    }
}

/// Serve `tracker` with one simulated device until told to die (fault
/// injection), idled out (`max_idle_polls`), or out of reconnect attempts.
pub fn run_worker(tracker: &str, spec: DeviceSpec, cfg: WorkerConfig) -> io::Result<WorkerExit> {
    let net = SharedNetFaults::new(cfg.faults.net);
    let poll_ms = (cfg.poll.as_millis() as u64).max(1);
    let mut backoff = Backoff::new(poll_ms, poll_ms * 8, cfg.reconnects as u32);
    let mut state = SessionState::default();
    loop {
        match run_session(tracker, &spec, &cfg, &net, &mut state) {
            Ok(exit) => return Ok(exit),
            Err(e) => match backoff.next_delay_ms() {
                None => {
                    tel_warn!(
                        "farm::worker",
                        "{}: giving up after {} reconnect attempt(s): {e}",
                        cfg.name,
                        cfg.reconnects
                    );
                    return Err(e);
                }
                Some(delay_ms) => {
                    tel_info!(
                        "farm::worker",
                        "{}: transport error ({e}); reconnecting to {tracker} in {delay_ms}ms ({} attempt(s) left)",
                        cfg.name,
                        backoff.attempts() - backoff.used()
                    );
                    std::thread::sleep(Duration::from_millis(delay_ms));
                }
            },
        }
    }
}

/// One connection's lifetime: register (resuming a previous identity when
/// possible), replay any unacked result, serve.
fn run_session(
    tracker: &str,
    spec: &DeviceSpec,
    cfg: &WorkerConfig,
    net: &SharedNetFaults,
    state: &mut SessionState,
) -> io::Result<WorkerExit> {
    let stream = TcpStream::connect(tracker)?;
    let _ = stream.set_nodelay(true);
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let mut conn0 = Framed::new(ChaosStream::new(stream, net.clone()));
    let register = Frame::Register {
        name: cfg.name.clone(),
        device: spec.name.clone(),
        framing: Some(FRAMING_VERSION),
        resume: state.resume,
    };
    let (worker_id, lease_ms) = match rpc(&mut conn0, &register)? {
        Frame::RegisterAck { worker_id, lease_ms, framing, resumed } => {
            if framing == Some(FRAMING_VERSION) {
                conn0.upgrade();
            }
            if resumed {
                tel_info!(
                    "farm::worker",
                    "{}: resumed as worker {worker_id} after reconnect",
                    cfg.name
                );
            }
            (worker_id, lease_ms)
        }
        other => return Err(protocol_error(&other)),
    };
    state.resume = Some(worker_id);
    tel_info!(
        "farm::worker",
        "{}: registered as worker {worker_id} for {} at {tracker} (framing v{})",
        cfg.name,
        spec.name,
        if conn0.is_v2() { 2 } else { 1 }
    );
    let conn = Mutex::new(conn0);
    replay_pending(&conn, cfg, state)?;
    session_loop(&conn, worker_id, lease_ms, spec, cfg, state)
}

/// Re-send a result whose ack was lost to a dropped connection. The
/// tracker's outcome dedup makes this idempotent: if the original frame
/// did land, the replay is acked `duplicate: true` and costs nothing.
fn replay_pending(conn: &Mutex<Conn>, cfg: &WorkerConfig, state: &mut SessionState) -> io::Result<()> {
    let Some(frame) = state.pending.clone() else { return Ok(()) };
    tel_info!("farm::worker", "{}: replaying unacked result after reconnect", cfg.name);
    match rpc(&mut lock(conn), &frame)? {
        Frame::ResultAck { duplicate } => {
            if duplicate {
                tel_debug!(
                    "farm::worker",
                    "{}: replayed result was already recorded",
                    cfg.name
                );
            }
            state.pending = None;
            Ok(())
        }
        other => Err(protocol_error(&other)),
    }
}

fn session_loop(
    conn: &Mutex<Conn>,
    worker_id: u64,
    lease_ms: u64,
    spec: &DeviceSpec,
    cfg: &WorkerConfig,
    state: &mut SessionState,
) -> io::Result<WorkerExit> {
    let mut idle = 0usize;
    loop {
        let reply = rpc(&mut lock(conn), &Frame::RequestJob { worker_id })?;
        match reply {
            Frame::Lease { lease_id, batch_id, budget, job, .. } => {
                idle = 0;
                if state.lease_started(&cfg.faults) {
                    tel_warn!(
                        "farm::worker",
                        "{}: fault injection: dying mid-lease {lease_id}",
                        cfg.name
                    );
                    return Ok(WorkerExit::Killed);
                }
                tel_debug!(
                    "farm::worker",
                    "{}: lease {lease_id}: tuning job {} ({})",
                    cfg.name,
                    job.index,
                    job.workload.key()
                );
                let outcome = tune_leased(conn, worker_id, lease_id, &job, spec, &budget, lease_ms);
                let result = Frame::Result {
                    worker_id,
                    lease_id,
                    batch_id,
                    outcome: Box::new(outcome),
                    drift: None,
                };
                match rpc(&mut lock(conn), &result) {
                    Ok(Frame::ResultAck { duplicate }) => {
                        if duplicate {
                            tel_debug!(
                                "farm::worker",
                                "{}: lease {lease_id}: result was a duplicate",
                                cfg.name
                            );
                        }
                    }
                    Ok(other) => return Err(protocol_error(&other)),
                    Err(e) => {
                        // The tuned outcome is real work: stash the frame so
                        // the next session replays it instead of losing it.
                        state.pending = Some(result);
                        return Err(e);
                    }
                }
            }
            Frame::NoWork => {
                idle += 1;
                if let Some(max) = cfg.max_idle_polls {
                    if idle >= max {
                        tel_info!("farm::worker", "{}: idle for {idle} poll(s), exiting", cfg.name);
                        return Ok(WorkerExit::Idle);
                    }
                }
                std::thread::sleep(cfg.poll);
            }
            Frame::Error { message } => {
                return Err(io::Error::new(io::ErrorKind::InvalidData, message));
            }
            other => return Err(protocol_error(&other)),
        }
    }
}

/// Run [`tune_one`] while a scoped sibling thread heartbeats the lease at a
/// third of its duration. Heartbeat send errors are swallowed: the worst
/// case is a lease expiry, which the tracker's re-queue path already
/// covers.
fn tune_leased(
    conn: &Mutex<Conn>,
    worker_id: u64,
    lease_id: u64,
    job: &TuneJob,
    spec: &DeviceSpec,
    budget: &TuningBudget,
    lease_ms: u64,
) -> TuneOutcome {
    let stop = AtomicBool::new(false);
    let interval = Duration::from_millis((lease_ms / 3).max(20));
    std::thread::scope(|s| {
        s.spawn(|| loop {
            let mut waited = Duration::ZERO;
            while waited < interval {
                if stop.load(Ordering::Relaxed) {
                    return;
                }
                std::thread::sleep(HEARTBEAT_TICK);
                waited += HEARTBEAT_TICK;
            }
            let _ = rpc(&mut lock(conn), &Frame::Heartbeat { worker_id, lease_id });
        });
        let out = tune_one(job, spec, budget);
        stop.store(true, Ordering::Relaxed);
        out
    })
}

fn protocol_error(frame: &Frame) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("unexpected reply: {frame:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_budget_fires_once_reached() {
        let faults: FaultPlan = "kill_after_leases=2".parse().unwrap();
        let mut s = SessionState::default();
        assert!(!s.lease_started(&faults));
        assert!(s.lease_started(&faults));
        assert!(s.lease_started(&faults), "stays dead past the threshold");
        assert!(!SessionState::default().lease_started(&FaultPlan::default()));
    }
}
