//! Wire protocol: length-prefixed JSON frames over TCP.
//!
//! Every message is one [`framing`] frame — a 4-byte big-endian length
//! followed by one JSON-encoded [`Frame`]. JSON keeps the frames greppable
//! in packet dumps and reuses the serde derives the tuning records already
//! carry; the shared codec owns the length prefix, the 16 MiB cap, and the
//! protocol-error taxonomy. A frame that fails to parse is a protocol
//! error: the connection is dropped, the tracker survives.
//!
//! [`framing`]: crate::framing

use crate::framing;
use serde::{Deserialize, Serialize};
use std::io::{self, Read, Write};
use unigpu_tuner::{MeasuredDrift, TuneJob, TuneOutcome, TuningBudget};

pub use crate::framing::MAX_FRAME_BYTES;

/// Every message of the farm protocol.
///
/// Worker → tracker: `Register`, `RequestJob`, `Heartbeat`, `Result`.
/// Client → tracker: `Submit`, `Poll`.
/// Tracker → either: the matching `*Ack`, `Lease`, `NoWork`, `Status`,
/// `Error`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum Frame {
    /// A worker joins, naming itself and the device it simulates.
    Register {
        name: String,
        device: String,
        /// Highest framing version the worker speaks
        /// ([`framing::FRAMING_VERSION`]). Absent / `None` means v1-only:
        /// old peers interoperate untouched.
        #[serde(default, skip_serializing_if = "Option::is_none")]
        framing: Option<u8>,
        /// A previous `worker_id` to resume after a dropped connection, so
        /// the tracker re-attaches identity instead of minting a new one.
        #[serde(default, skip_serializing_if = "Option::is_none")]
        resume: Option<u64>,
    },
    /// Registration reply: the worker's id and the lease duration it must
    /// heartbeat within.
    RegisterAck {
        worker_id: u64,
        lease_ms: u64,
        /// Framing version the tracker accepted; both sides upgrade their
        /// codec right after this frame when it is `Some(2)`.
        #[serde(default, skip_serializing_if = "Option::is_none")]
        framing: Option<u8>,
        /// True when `resume` named a worker the tracker still knows.
        #[serde(default, skip_serializing_if = "std::ops::Not::not")]
        resumed: bool,
    },
    /// A registered worker asks for work.
    RequestJob { worker_id: u64 },
    /// One job leased to one worker, with the batch's budget attached so the
    /// worker needs no side channel.
    Lease {
        lease_id: u64,
        batch_id: u64,
        budget: TuningBudget,
        job: TuneJob,
        /// Per-lease trace context in [`TraceContext::encode`] wire form
        /// (a child of the submitting batch's trace). Optional so old
        /// peers interoperate; malformed values are ignored, never fatal.
        ///
        /// [`TraceContext::encode`]: unigpu_telemetry::TraceContext::encode
        #[serde(default, skip_serializing_if = "Option::is_none")]
        trace: Option<String>,
    },
    /// Nothing queued for this worker's device right now.
    NoWork,
    /// Keep a lease alive while its job is still tuning.
    Heartbeat { worker_id: u64, lease_id: u64 },
    /// `known == false` means the lease already expired or was never granted
    /// — the worker's result will be treated as late.
    HeartbeatAck { known: bool },
    /// A finished job. Boxed: the outcome dwarfs every other variant.
    Result {
        worker_id: u64,
        lease_id: u64,
        batch_id: u64,
        outcome: Box<TuneOutcome>,
        /// Unused: workers send `None` and the tracker ignores it. The
        /// field stays only until ROADMAP item 15 drops it from the
        /// benchmark's wire round-trip test.
        #[serde(default, skip_serializing_if = "Option::is_none")]
        drift: Option<MeasuredDrift>,
    },
    /// Result reply; `duplicate` when this job's outcome was already
    /// recorded (retransmission or a re-queued copy finishing twice).
    ResultAck { duplicate: bool },
    /// A client submits a batch of jobs for one device.
    Submit {
        device: String,
        budget: TuningBudget,
        jobs: Vec<TuneJob>,
        /// Trace context of the originating compile/tune, in
        /// [`TraceContext::encode`] wire form. The tracker derives one
        /// child context per leased job from it, so remote lease spans
        /// stitch into the submitter's trace.
        ///
        /// [`TraceContext::encode`]: unigpu_telemetry::TraceContext::encode
        #[serde(default, skip_serializing_if = "Option::is_none")]
        trace: Option<String>,
    },
    SubmitAck { batch_id: u64 },
    /// A client asks how its batch is doing.
    Poll { batch_id: u64 },
    /// Batch progress. `outcomes` is only populated on the completing poll
    /// (when `done + failed == total`), after which the batch is forgotten.
    Status {
        batch_id: u64,
        total: usize,
        done: usize,
        failed: usize,
        outcomes: Vec<TuneOutcome>,
        failures: Vec<String>,
    },
    /// Protocol-level failure; the sender closes the connection after this.
    Error { message: String },
}

/// Farm frames are per tuning job, not per request: serde encodes them all.
impl framing::WireFrame for Frame {}

/// Serialize `frame` as one length-prefixed JSON message.
pub fn write_frame(w: &mut dyn Write, frame: &Frame) -> io::Result<()> {
    framing::write_frame(w, frame)
}

/// Read one frame. A clean peer close surfaces as `UnexpectedEof`; an
/// oversized length prefix or unparseable body surfaces as `InvalidData`
/// (the caller should answer with [`Frame::Error`] and drop the connection).
pub fn read_frame(r: &mut dyn Read) -> io::Result<Frame> {
    framing::read_frame(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip() {
        let frames = vec![
            Frame::Register {
                name: "w0".into(),
                device: "Intel HD Graphics 505".into(),
                framing: Some(2),
                resume: None,
            },
            Frame::RegisterAck { worker_id: 7, lease_ms: 10_000, framing: Some(2), resumed: true },
            Frame::RequestJob { worker_id: 7 },
            Frame::NoWork,
            Frame::Heartbeat { worker_id: 7, lease_id: 3 },
            Frame::HeartbeatAck { known: true },
            Frame::ResultAck { duplicate: false },
            Frame::SubmitAck { batch_id: 1 },
            Frame::Poll { batch_id: 1 },
            Frame::Error { message: "nope".into() },
        ];
        let mut buf = Vec::new();
        for f in &frames {
            write_frame(&mut buf, f).unwrap();
        }
        let mut cur = Cursor::new(buf);
        for f in &frames {
            assert_eq!(&read_frame(&mut cur).unwrap(), f);
        }
    }

    #[test]
    fn old_register_frames_without_framing_fields_still_parse() {
        // an old worker's Register has no "framing"/"resume" keys, and an
        // old tracker's RegisterAck has no "framing"/"resumed" keys
        let body = br#"{"type":"register","name":"w0","device":"cpu"}"#;
        let mut buf = (body.len() as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(body);
        match read_frame(&mut Cursor::new(buf)) {
            Ok(Frame::Register { framing, resume, name, .. }) => {
                assert_eq!(framing, None);
                assert_eq!(resume, None);
                assert_eq!(name, "w0");
            }
            other => panic!("expected Register, got {other:?}"),
        }
        let body = br#"{"type":"register_ack","worker_id":3,"lease_ms":1000}"#;
        let mut buf = (body.len() as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(body);
        match read_frame(&mut Cursor::new(buf)) {
            Ok(Frame::RegisterAck { framing, resumed, worker_id, .. }) => {
                assert_eq!(framing, None);
                assert!(!resumed);
                assert_eq!(worker_id, 3);
            }
            other => panic!("expected RegisterAck, got {other:?}"),
        }
        // and the v1-shaped serialization omits the new keys entirely
        let bare = Frame::RegisterAck { worker_id: 3, lease_ms: 1000, framing: None, resumed: false };
        let body = serde_json::to_string(&bare).unwrap();
        assert!(!body.contains("framing") && !body.contains("resumed"), "got {body}");
    }

    #[test]
    fn frames_without_a_trace_field_still_parse() {
        // an old peer's Submit/Lease has no "trace" key; serde(default)
        // must fill None instead of rejecting the frame
        let body = br#"{"type":"submit","device":"cpu","budget":{"trials_per_workload":1,"noise":0.0,"seed":1,"graph_candidates":1},"jobs":[]}"#;
        let mut buf = (body.len() as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(body);
        match read_frame(&mut Cursor::new(buf)) {
            Ok(Frame::Submit { trace, device, .. }) => {
                assert_eq!(trace, None);
                assert_eq!(device, "cpu");
            }
            other => panic!("expected Submit, got {other:?}"),
        }
    }

    #[test]
    fn trace_field_round_trips_and_is_omitted_when_none() {
        let ctx = unigpu_telemetry::TraceContext::from_seed(11);
        let f = Frame::Submit {
            device: "gpu".into(),
            budget: TuningBudget::default(),
            jobs: vec![],
            trace: Some(ctx.encode()),
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &f).unwrap();
        assert_eq!(read_frame(&mut Cursor::new(&buf[..])).unwrap(), f);
        assert!(String::from_utf8_lossy(&buf).contains(&ctx.encode()));

        let bare = Frame::Submit {
            device: "gpu".into(),
            budget: TuningBudget::default(),
            jobs: vec![],
            trace: None,
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &bare).unwrap();
        assert!(
            !String::from_utf8_lossy(&buf).contains("trace"),
            "None must not serialize a key old peers would reject"
        );
    }

    #[test]
    fn result_frame_without_a_drift_field_still_parses() {
        // an old worker's Result has no "drift" key; serde(default) must
        // fill None instead of rejecting the frame
        let outcome = unigpu_tuner::tune_one(
            &TuneJob {
                index: 0,
                workload: unigpu_ops::ConvWorkload::square(1, 8, 8, 8, 3, 1, 1),
            },
            &unigpu_device::DeviceSpec::intel_hd505(),
            &TuningBudget { trials_per_workload: 1, ..Default::default() },
        );
        let with = Frame::Result {
            worker_id: 1,
            lease_id: 2,
            batch_id: 3,
            outcome: Box::new(outcome),
            drift: None,
        };
        let body = serde_json::to_vec(&with).unwrap();
        assert!(
            !String::from_utf8_lossy(&body).contains("drift"),
            "None must not serialize a key old peers would reject"
        );
        let mut buf = (body.len() as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(&body);
        match read_frame(&mut Cursor::new(buf)) {
            Ok(Frame::Result { drift, .. }) => assert_eq!(drift, None),
            other => panic!("expected Result, got {other:?}"),
        }
    }

    #[test]
    fn truncated_body_is_an_eof_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::NoWork).unwrap();
        buf.truncate(buf.len() - 2);
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_length_prefix_is_invalid_data() {
        let buf = u32::MAX.to_be_bytes().to_vec();
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn malformed_json_is_invalid_data() {
        let body = b"{ not json";
        let mut buf = (body.len() as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(body);
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }
}
