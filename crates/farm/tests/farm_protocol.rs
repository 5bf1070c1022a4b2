//! Farm protocol and fault-tolerance tests: loopback parity with a plain
//! `tune_one` loop, malformed-frame rejection, lease re-queue on worker death,
//! and duplicate-result idempotency.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;
use unigpu_device::{DeviceSpec, FaultPlan};
use unigpu_farm::{
    read_frame, run_worker, write_frame, FarmClient, Frame, Tracker, TrackerConfig, TrackerHandle,
    WorkerConfig, WorkerExit,
};
use unigpu_ops::ConvWorkload;
use unigpu_tuner::{tune_one, DispatchError, Dispatcher, TuneJob, TuneOutcome, TuningBudget};

fn spec() -> DeviceSpec {
    DeviceSpec::intel_hd505()
}

fn budget() -> TuningBudget {
    TuningBudget { trials_per_workload: 8, ..Default::default() }
}

fn test_jobs() -> Vec<TuneJob> {
    [
        ConvWorkload::square(1, 32, 32, 14, 3, 1, 1),
        ConvWorkload::square(1, 32, 64, 14, 1, 1, 0),
    ]
    .iter()
    .enumerate()
    .map(|(index, &workload)| TuneJob { index, workload })
    .collect()
}

/// The oracle: every job tuned in-process, one after another.
fn tune_each(jobs: &[TuneJob]) -> Vec<TuneOutcome> {
    jobs.iter().map(|j| tune_one(j, &spec(), &budget())).collect()
}

fn spawn_tracker(cfg: TrackerConfig) -> TrackerHandle {
    Tracker::spawn("127.0.0.1:0", cfg).expect("tracker binds an ephemeral port")
}

fn spawn_worker(
    addr: String,
    name: &str,
    faults: FaultPlan,
) -> std::thread::JoinHandle<std::io::Result<WorkerExit>> {
    let cfg = WorkerConfig {
        name: name.into(),
        poll: Duration::from_millis(5),
        max_idle_polls: Some(2000),
        reconnects: 0,
        faults,
    };
    std::thread::spawn(move || run_worker(&addr, spec(), cfg))
}

#[test]
fn farm_loopback_matches_serial_dispatch() {
    let handle = spawn_tracker(TrackerConfig::default());
    let addr = handle.addr().to_string();
    let _w1 = spawn_worker(addr.clone(), "w1", FaultPlan::default());
    let _w2 = spawn_worker(addr.clone(), "w2", FaultPlan::default());

    let jobs = test_jobs();
    let client = FarmClient::new(addr);
    let farm = client.dispatch(&jobs, &spec(), &budget()).expect("farm dispatch succeeds");
    let serial = tune_each(&jobs);

    assert_eq!(farm.len(), serial.len());
    for (f, s) in farm.iter().zip(&serial) {
        assert_eq!(f.index, s.index);
        assert_eq!(f.record, s.record, "farm results must be bit-identical at zero noise");
        assert_eq!(f.candidates, s.candidates);
    }
    let m = handle.metrics();
    assert_eq!(m.counter("farm.results"), jobs.len() as u64);
    assert_eq!(m.counter("farm.jobs_failed"), 0);
    assert!(!handle.spans().is_empty(), "each lease records a span");
    handle.stop();
}

#[test]
fn lease_spans_stitch_into_the_submitters_trace() {
    use unigpu_telemetry::TraceContext;
    let handle = spawn_tracker(TrackerConfig::default());
    let addr = handle.addr().to_string();
    let _w = spawn_worker(addr.clone(), "traced", FaultPlan::default());

    let jobs = test_jobs();
    let root = TraceContext::from_seed(0xfeed);
    let client = FarmClient::new(addr).with_trace(root);
    client.dispatch(&jobs, &spec(), &budget()).expect("traced dispatch succeeds");

    let spans = handle.spans().spans();
    let lease_spans: Vec<_> = spans.iter().filter(|s| s.category == "farm.lease").collect();
    assert_eq!(lease_spans.len(), jobs.len(), "one lease span per job");
    for s in &lease_spans {
        let ctx = s.trace.expect("lease span carries the trace");
        assert_eq!(
            ctx.trace_id, root.trace_id,
            "remote lease spans share the submitting compile's trace id"
        );
        assert_ne!(ctx.span_id, root.span_id, "each lease is its own hop");
    }
    // span ids are the deterministic per-job children of the root
    let expected: std::collections::HashSet<u64> =
        (0..jobs.len()).map(|i| root.child(i as u64).span_id).collect();
    let got: std::collections::HashSet<u64> =
        lease_spans.iter().map(|s| s.trace.unwrap().span_id).collect();
    assert_eq!(got, expected);
    handle.stop();
}

#[test]
fn malformed_frames_do_not_kill_the_tracker() {
    let handle = spawn_tracker(TrackerConfig::default());
    let addr = handle.addr();

    // Garbage JSON behind a valid length prefix: answered with an Error
    // frame, connection dropped, tracker alive.
    let mut garbage = TcpStream::connect(addr).unwrap();
    let body = b"{ not json";
    garbage.write_all(&(body.len() as u32).to_be_bytes()).unwrap();
    garbage.write_all(body).unwrap();
    match read_frame(&mut garbage) {
        Ok(Frame::Error { .. }) => {}
        other => panic!("expected an Error frame for garbage JSON, got {other:?}"),
    }

    // Oversized length prefix: rejected before allocating.
    let mut oversized = TcpStream::connect(addr).unwrap();
    oversized.write_all(&u32::MAX.to_be_bytes()).unwrap();
    match read_frame(&mut oversized) {
        Ok(Frame::Error { .. }) => {}
        other => panic!("expected an Error frame for an oversized prefix, got {other:?}"),
    }

    // Truncated frame: the length prefix promises more bytes than ever
    // arrive. Closing the socket must read as a dead peer, nothing worse.
    let mut truncated = TcpStream::connect(addr).unwrap();
    truncated.write_all(&1024u32.to_be_bytes()).unwrap();
    truncated.write_all(b"short").unwrap();
    drop(truncated);

    // The tracker still serves a healthy client afterwards.
    let mut probe = TcpStream::connect(addr).unwrap();
    write_frame(
        &mut probe,
        &Frame::Register {
            name: "probe".into(),
            device: spec().name.clone(),
            framing: None,
            resume: None,
        },
    )
    .unwrap();
    match read_frame(&mut probe).unwrap() {
        Frame::RegisterAck { .. } => {}
        other => panic!("tracker no longer registers workers: {other:?}"),
    }
    assert!(handle.metrics().counter("farm.protocol_errors") >= 2);
    handle.stop();
}

#[test]
fn killed_worker_lease_is_requeued_and_finished_by_a_healthy_worker() {
    let cfg = TrackerConfig {
        lease: Duration::from_millis(500),
        reap_every: Duration::from_millis(10),
        ..Default::default()
    };
    let handle = spawn_tracker(cfg);
    let addr = handle.addr().to_string();
    // The doomed worker dies the moment its first lease is granted, holding
    // the job; its disconnect must re-queue the lease exactly once. It is
    // the only worker until it dies, so it deterministically leases job 0.
    let doomed = spawn_worker(
        addr.clone(),
        "doomed",
        "kill_after_leases=1".parse().unwrap(),
    );

    let jobs = test_jobs();
    let client_thread = {
        let addr = addr.clone();
        let jobs = jobs.clone();
        std::thread::spawn(move || {
            FarmClient::new(addr).dispatch(&jobs, &spec(), &budget())
        })
    };
    assert_eq!(doomed.join().unwrap().unwrap(), WorkerExit::Killed);

    // Only now does a healthy worker join and drain the batch.
    let _healthy = spawn_worker(addr, "healthy", FaultPlan::default());
    let farm =
        client_thread.join().unwrap().expect("batch survives the killed worker");
    let serial = tune_each(&jobs);
    for (f, s) in farm.iter().zip(&serial) {
        assert_eq!(f.record, s.record, "re-queued jobs still reproduce the serial result");
    }
    let m = handle.metrics();
    assert_eq!(m.counter("farm.requeues"), 1, "exactly one re-queue for the one dropped lease");
    assert_eq!(m.counter("farm.jobs_failed"), 0);
    handle.stop();
}

#[test]
fn exhausted_retry_budget_fails_the_job() {
    let cfg = TrackerConfig {
        max_retries: 0,
        lease: Duration::from_millis(500),
        reap_every: Duration::from_millis(10),
        ..Default::default()
    };
    let handle = spawn_tracker(cfg);
    let addr = handle.addr().to_string();
    // The only worker dies on its first lease and never comes back; with a
    // zero retry budget the job must fail rather than hang the batch.
    let _doomed = spawn_worker(
        addr.clone(),
        "doomed",
        "kill_after_leases=1".parse().unwrap(),
    );

    let jobs = vec![test_jobs()[0]];
    let client = FarmClient::new(addr);
    let err = client.dispatch(&jobs, &spec(), &budget()).expect_err("the job must fail");
    match err {
        DispatchError::JobsFailed { failed, first_error } => {
            assert_eq!(failed, 1);
            assert!(first_error.contains("retry budget exhausted"), "got: {first_error}");
        }
        other => panic!("expected JobsFailed, got: {other}"),
    }
    assert_eq!(handle.metrics().counter("farm.jobs_failed"), 1);
    handle.stop();
}

#[test]
fn duplicate_result_frames_are_idempotent() {
    let handle = spawn_tracker(TrackerConfig::default());
    let addr = handle.addr();

    // Hand-rolled client and worker speaking raw frames.
    let mut client = TcpStream::connect(addr).unwrap();
    let jobs = vec![test_jobs()[0]];
    write_frame(
        &mut client,
        &Frame::Submit {
            device: spec().name.clone(),
            budget: budget(),
            jobs: jobs.clone(),
            trace: None,
        },
    )
    .unwrap();
    let batch_id = match read_frame(&mut client).unwrap() {
        Frame::SubmitAck { batch_id } => batch_id,
        other => panic!("expected SubmitAck, got {other:?}"),
    };

    let mut worker = TcpStream::connect(addr).unwrap();
    write_frame(
        &mut worker,
        &Frame::Register {
            name: "raw".into(),
            device: spec().name.clone(),
            framing: None,
            resume: None,
        },
    )
    .unwrap();
    let worker_id = match read_frame(&mut worker).unwrap() {
        Frame::RegisterAck { worker_id, .. } => worker_id,
        other => panic!("expected RegisterAck, got {other:?}"),
    };
    write_frame(&mut worker, &Frame::RequestJob { worker_id }).unwrap();
    let (lease_id, job) = match read_frame(&mut worker).unwrap() {
        Frame::Lease { lease_id, job, .. } => (lease_id, job),
        other => panic!("expected Lease, got {other:?}"),
    };

    let outcome = tune_one(&job, &spec(), &budget());
    let result =
        Frame::Result { worker_id, lease_id, batch_id, outcome: Box::new(outcome), drift: None };
    // First result: accepted.
    write_frame(&mut worker, &result).unwrap();
    match read_frame(&mut worker).unwrap() {
        Frame::ResultAck { duplicate } => assert!(!duplicate),
        other => panic!("expected ResultAck, got {other:?}"),
    }
    // Identical retransmission: acknowledged as a duplicate, not recounted.
    write_frame(&mut worker, &result).unwrap();
    match read_frame(&mut worker).unwrap() {
        Frame::ResultAck { duplicate } => assert!(duplicate, "retransmission must read as duplicate"),
        other => panic!("expected ResultAck, got {other:?}"),
    }
    let m = handle.metrics();
    assert_eq!(m.counter("farm.results"), 1);
    assert_eq!(m.counter("farm.duplicate_results"), 1);

    // The batch still completes with exactly one outcome.
    write_frame(&mut client, &Frame::Poll { batch_id }).unwrap();
    match read_frame(&mut client).unwrap() {
        Frame::Status { done, failed, outcomes, .. } => {
            assert_eq!(done, 1);
            assert_eq!(failed, 0);
            assert_eq!(outcomes.len(), 1);
            assert_eq!(outcomes[0].index, 0);
        }
        other => panic!("expected Status, got {other:?}"),
    }
    handle.stop();
}
