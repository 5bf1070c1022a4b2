//! The serde / serde_json shims against the real wire and artifact types of
//! the unigpu crates: every `FleetFrame` and farm `Frame` variant, and
//! `TuneRecord`, `ArtifactMeta`, `TuneOutcome`, must survive
//! encode → decode → encode unchanged, through plain JSON and through the
//! `Framed` v1 and v2 codecs the benchmark measures.

use serde::{de::DeserializeOwned, Serialize};
use std::fmt::Debug;
use std::io::Cursor;
use unigpu::engine::{ArtifactMeta, TuningState, ARTIFACT_KIND, ARTIFACT_VERSION};
use unigpu::farm::framing::Framed;
use unigpu::farm::Frame;
use unigpu::fleet::{FleetFrame, ReplicaHealth, ReplicaReport};
use unigpu::ops::conv::ConvConfig;
use unigpu::ops::ConvWorkload;
use unigpu::tuner::{Candidate, MeasuredDrift, TuneJob, TuneOutcome, TuneRecord, TuningBudget};

/// JSON text is the identity being checked: some of these types do not
/// implement `PartialEq`, all of them serialize.
fn roundtrip<T: Serialize + DeserializeOwned + Debug>(value: &T) -> String {
    let text = serde_json::to_string(value).expect("serializes");
    let back: T = serde_json::from_str(&text)
        .unwrap_or_else(|e| panic!("{value:?} does not parse back: {e}\n{text}"));
    assert_eq!(
        serde_json::to_string(&back).unwrap(),
        text,
        "{value:?} changed across a round trip"
    );
    let pretty = serde_json::to_string_pretty(value).unwrap();
    let from_pretty: T = serde_json::from_str(&pretty).expect("pretty form parses");
    assert_eq!(serde_json::to_string(&from_pretty).unwrap(), text);
    text
}

fn record() -> TuneRecord {
    TuneRecord {
        device: "Intel HD Graphics 505".into(),
        workload: ConvWorkload::square(1, 64, 64, 56, 3, 1, 1).key(),
        config: ConvConfig::default_schedule(),
        cost_ms: 0.1 + 0.2, // 0.30000000000000004: needs every digit
        trials: 128,
    }
}

fn outcome() -> TuneOutcome {
    TuneOutcome {
        index: 7,
        record: record(),
        candidates: vec![
            Candidate {
                config: ConvConfig::default_schedule(),
                kernel_ms: 1.0 / 3.0,
            },
            Candidate {
                config: ConvConfig::default_schedule(),
                kernel_ms: 5e-324,
            },
        ],
    }
}

fn job() -> TuneJob {
    TuneJob {
        index: 3,
        workload: ConvWorkload::depthwise(1, 32, 112, 3, 1, 1),
    }
}

#[test]
fn tuning_records_and_outcomes() {
    let text = roundtrip(&record());
    assert!(text.contains("\"cost_ms\":0.30000000000000004"), "{text}");
    assert!(
        text.contains("\"workgroup\":["),
        "a tuple field is an array: {text}"
    );
    let back: TuneRecord = serde_json::from_str(&text).unwrap();
    assert_eq!(back, record());
    assert_eq!(back.cost_ms.to_bits(), (0.1f64 + 0.2).to_bits());

    let text = roundtrip(&outcome());
    let back: TuneOutcome = serde_json::from_str(&text).unwrap();
    assert_eq!(back, outcome());
    assert_eq!(back.candidates[1].kernel_ms.to_bits(), 5e-324f64.to_bits());
    roundtrip(&job());
    roundtrip(&TuningBudget::default());
}

#[test]
fn artifact_meta_keeps_its_64_bit_fingerprint() {
    for tuning in [
        TuningState::Fallback,
        TuningState::Tuned { trials: 128 },
        TuningState::Pinned {
            digest: u64::MAX - 1,
        },
    ] {
        let meta = ArtifactMeta {
            kind: ARTIFACT_KIND.into(),
            version: ARTIFACT_VERSION,
            model: "SqueezeNet1.0".into(),
            fingerprint: 0xfeed_face_dead_beef, // > 2^53: an f64 would round it
            device: "ARM Mali-T860 MP4".into(),
            tuning: tuning.clone(),
            nodes: 66,
            total_ms: 69.85083824308444,
            cost_table: vec![
                ("conv1".into(), 1.25),
                ("fire2/squeeze1x1 \"q\"".into(), 1e-7),
            ],
        };
        let text = roundtrip(&meta);
        let back: ArtifactMeta = serde_json::from_str(&text).unwrap();
        assert_eq!(back.fingerprint, 0xfeed_face_dead_beef);
        assert_eq!(back.tuning, tuning);
        assert_eq!(back.total_ms.to_bits(), meta.total_ms.to_bits());
        assert_eq!(back.cost_table, meta.cost_table);
    }
    assert_eq!(
        serde_json::to_string(&TuningState::Fallback).unwrap(),
        "\"Fallback\""
    );
    assert_eq!(
        serde_json::to_string(&TuningState::Tuned { trials: 8 }).unwrap(),
        r#"{"Tuned":{"trials":8}}"#
    );
}

fn health() -> ReplicaHealth {
    ReplicaHealth {
        queue_depth: 3,
        inflight: 2,
        breaker: 1.0,
        breaker_open_until_ms: Some(812.5),
        burn_rate: 0.25,
    }
}

fn fleet_frames() -> Vec<FleetFrame> {
    let report = ReplicaReport {
        name: "r1".into(),
        device: "Intel HD Graphics 505".into(),
        offered: 4,
        completed: vec![(0, 69.85), (2, 71.5)],
        shed: vec![1],
        expired: vec![3],
        failed: vec![],
        batches: 2,
        makespan_ms: 141.35,
        degraded_batches: 0,
        breaker_trips: 1,
        breaker_recoveries: 1,
        digest: 0xcbf2_9ce4_8422_2325,
        warm_start: true,
        dead: false,
    };
    vec![
        FleetFrame::Hello {
            framing: None,
            session: None,
        },
        FleetFrame::Hello {
            framing: Some(2),
            session: Some("unigpu-router-127.0.0.1:4100".into()),
        },
        FleetFrame::HelloAck {
            name: "r0".into(),
            device: "gpu".into(),
            framing: Some(2),
            resumed: true,
        },
        FleetFrame::HelloAck {
            name: "r0".into(),
            device: "gpu".into(),
            framing: None,
            resumed: false,
        },
        FleetFrame::Load {
            model: "SqueezeNet1.0".into(),
        },
        FleetFrame::LoadAck {
            warm: true,
            predicted_ms: 69.85083824308444,
        },
        FleetFrame::FetchArtifact,
        FleetFrame::ArtifactBlob {
            jsonl: "{\"kind\":\"x\"}\n{\"a\":1}\n".into(),
        },
        FleetFrame::PushArtifact {
            jsonl: "line one\nline \"two\"\n".into(),
        },
        FleetFrame::PushAck { stored: false },
        FleetFrame::Infer {
            id: 41,
            arrival_ms: 82.0,
        },
        FleetFrame::InferAck {
            admitted: true,
            health: health(),
        },
        FleetFrame::InferAck {
            admitted: false,
            health: ReplicaHealth::default(),
        },
        FleetFrame::Finish,
        FleetFrame::Report(Box::new(report)),
        FleetFrame::Error {
            message: "checksum mismatch".into(),
            fatal: false,
        },
        FleetFrame::Error {
            message: "injected death".into(),
            fatal: true,
        },
    ]
}

fn farm_frames() -> Vec<Frame> {
    let drift = MeasuredDrift {
        workload: "w".into(),
        device: "d".into(),
        predicted_ms: 1.0,
        measured_ms: 1.04,
    };
    vec![
        Frame::Register {
            name: "w0".into(),
            device: "gpu".into(),
            framing: Some(2),
            resume: Some(9),
        },
        Frame::Register {
            name: "w0".into(),
            device: "gpu".into(),
            framing: None,
            resume: None,
        },
        Frame::RegisterAck {
            worker_id: 1,
            lease_ms: 500,
            framing: Some(2),
            resumed: true,
        },
        Frame::RequestJob { worker_id: 1 },
        Frame::Lease {
            lease_id: 2,
            batch_id: 3,
            budget: TuningBudget::default(),
            job: job(),
            trace: Some("00ab".into()),
        },
        Frame::NoWork,
        Frame::Heartbeat {
            worker_id: 1,
            lease_id: 2,
        },
        Frame::HeartbeatAck { known: true },
        Frame::Result {
            worker_id: 1,
            lease_id: 2,
            batch_id: 3,
            outcome: Box::new(outcome()),
            drift: Some(drift),
        },
        Frame::Result {
            worker_id: 1,
            lease_id: 2,
            batch_id: 3,
            outcome: Box::new(outcome()),
            drift: None,
        },
        Frame::ResultAck { duplicate: false },
        Frame::Submit {
            device: "gpu".into(),
            budget: TuningBudget::default(),
            jobs: vec![job(), job()],
            trace: None,
        },
        Frame::SubmitAck { batch_id: 3 },
        Frame::Poll { batch_id: 3 },
        Frame::Status {
            batch_id: 3,
            total: 2,
            done: 1,
            failed: 1,
            outcomes: vec![outcome()],
            failures: vec!["lease expired".into()],
        },
        Frame::Error {
            message: "bad frame".into(),
        },
    ]
}

#[test]
fn every_frame_variant_round_trips_as_json() {
    for frame in fleet_frames() {
        let text = roundtrip(&frame);
        assert_eq!(serde_json::from_str::<FleetFrame>(&text).unwrap(), frame);
    }
    for frame in farm_frames() {
        let text = roundtrip(&frame);
        assert_eq!(serde_json::from_str::<Frame>(&text).unwrap(), frame);
    }
    // The byte-level promises the crates' own tests pin, which a build
    // against the registry crates keeps and the shims must too.
    assert_eq!(
        serde_json::to_string(&FleetFrame::Hello {
            framing: None,
            session: None
        })
        .unwrap(),
        r#"{"type":"hello"}"#
    );
    assert_eq!(
        serde_json::to_string(&Frame::NoWork).unwrap(),
        r#"{"type":"no_work"}"#
    );
    let err = serde_json::to_string(&FleetFrame::Error {
        message: "m".into(),
        fatal: false,
    })
    .unwrap();
    assert!(!err.contains("fatal"), "{err}");
    // An old peer's frame without the newer optional keys still parses.
    let old: Frame =
        serde_json::from_str(r#"{"type":"register","name":"w","device":"d"}"#).unwrap();
    assert_eq!(
        old,
        Frame::Register {
            name: "w".into(),
            device: "d".into(),
            framing: None,
            resume: None
        }
    );
}

#[test]
fn every_frame_variant_survives_both_framing_dialects() {
    for v2 in [false, true] {
        let mut framed = Framed::new(Cursor::new(Vec::<u8>::new()));
        if v2 {
            framed.upgrade();
        }
        for frame in fleet_frames() {
            framed.send(&frame).expect("send");
        }
        for frame in farm_frames() {
            framed.send(&frame).expect("send");
        }
        framed.get_mut().set_position(0);
        for frame in fleet_frames() {
            assert_eq!(
                framed.recv::<FleetFrame>().expect("recv"),
                frame,
                "v2 = {v2}"
            );
        }
        for frame in farm_frames() {
            assert_eq!(framed.recv::<Frame>().expect("recv"), frame, "v2 = {v2}");
        }
    }
}

#[test]
fn a_flipped_byte_is_caught_by_the_v2_checksum_not_the_json_layer() {
    let mut framed = Framed::new(Cursor::new(Vec::<u8>::new()));
    framed.upgrade();
    framed
        .send(&FleetFrame::Infer {
            id: 1,
            arrival_ms: 2.0,
        })
        .unwrap();
    let mid = framed.get_ref().get_ref().len() / 2;
    framed.get_mut().get_mut()[mid] ^= 0x01;
    framed.get_mut().set_position(0);
    let err = framed.recv::<FleetFrame>().unwrap_err();
    assert!(err.to_string().to_lowercase().contains("checksum"), "{err}");
}
