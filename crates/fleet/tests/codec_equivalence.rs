//! The typed `Infer`/`InferAck` writer and scanner against serde, which
//! stays the definition of the wire format: what the writer emits serde
//! reads back as the same frame, what serde emits the scanner reads back as
//! the same frame (`f64`s compared by bits), and over the values a run
//! produces the two encoders agree byte for byte. Anything off the canonical
//! layout — reordered or unknown keys, whitespace, truncation, NaN and
//! infinities — falls through to serde and keeps its `FrameError`.
//!
//! Cases draw from a SplitMix64 stream keyed by their case number, so a
//! failure names the case that replays it.

use std::io::Cursor;

use unigpu_farm::framing::FrameError;
use unigpu_farm::{Framed, WireFrame};
use unigpu_fleet::{FleetFrame, ReplicaHealth};
use unigpu_telemetry::hash::splitmix64;

struct Rng(u64);

impl Rng {
    fn new(case: u64) -> Self {
        Rng(case.wrapping_mul(0xa076_1d64_78bd_642f))
    }

    fn next_u64(&mut self) -> u64 {
        let z = splitmix64(self.0);
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z
    }

    fn usize(&mut self) -> usize {
        // every magnitude, `usize::MAX` included
        (self.next_u64() >> (self.next_u64() % 64)) as usize
    }

    /// Zero or a value in `[1e-4, 1e15)`: where Rust's shortest round-trip
    /// form and `serde_json`'s agree on decimal notation.
    fn everyday_f64(&mut self) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        match self.next_u64() % 8 {
            0 => 0.0,
            1 => (self.next_u64() % 1000) as f64,
            _ => (1.0 + 9.0 * unit) * 10f64.powi((self.next_u64() % 18) as i32 - 4),
        }
    }

    /// Any finite bit pattern: negatives, subnormals, 1e-300, 1e300.
    fn finite_f64(&mut self) -> f64 {
        loop {
            let f = f64::from_bits(self.next_u64());
            if f.is_finite() {
                return f;
            }
        }
    }

    fn frame(&mut self, float: fn(&mut Rng) -> f64) -> FleetFrame {
        if self.next_u64() % 2 == 0 {
            return FleetFrame::Infer { id: self.usize(), arrival_ms: float(self) };
        }
        FleetFrame::InferAck {
            admitted: self.next_u64() % 2 == 0,
            health: ReplicaHealth {
                queue_depth: self.usize(),
                inflight: self.usize(),
                breaker: float(self),
                breaker_open_until_ms: (self.next_u64() % 2 == 0).then(|| float(self)),
                burn_rate: float(self),
            },
        }
    }
}

/// A frame with every `f64` as its bits, so `-0.0 != 0.0` and equality is
/// exact.
fn bits(frame: &FleetFrame) -> (usize, bool, [u64; 5]) {
    match frame {
        FleetFrame::Infer { id, arrival_ms } => (*id, false, [arrival_ms.to_bits(), 0, 0, 0, 0]),
        FleetFrame::InferAck { admitted, health: h } => (
            h.queue_depth,
            *admitted,
            [
                h.inflight as u64,
                h.breaker.to_bits(),
                h.breaker_open_until_ms.map_or(1, f64::to_bits),
                u64::from(h.breaker_open_until_ms.is_some()),
                h.burn_rate.to_bits(),
            ],
        ),
        other => panic!("not a hot frame: {other:?}"),
    }
}

fn typed_bytes(frame: &FleetFrame) -> Vec<u8> {
    let mut out = Vec::new();
    assert!(frame.write_body(&mut out), "{frame:?} has a typed writer");
    out
}

#[test]
fn typed_and_serde_codecs_read_each_others_frames() {
    for case in 0..4_000u64 {
        let mut rng = Rng::new(case);
        let everyday = case % 2 == 0;
        let frame = rng.frame(if everyday { Rng::everyday_f64 } else { Rng::finite_f64 });
        let typed = typed_bytes(&frame);
        let serde = serde_json::to_vec(&frame).expect("serializes");
        if everyday {
            assert_eq!(
                String::from_utf8_lossy(&typed),
                String::from_utf8_lossy(&serde),
                "case {case}: the encoders disagree on {frame:?}"
            );
        }
        let via_serde: FleetFrame = serde_json::from_slice(&typed)
            .unwrap_or_else(|e| panic!("case {case}: serde rejects the typed bytes: {e}"));
        assert_eq!(bits(&via_serde), bits(&frame), "case {case}: typed bytes through serde");
        let via_scan = FleetFrame::scan_body(&serde)
            .unwrap_or_else(|| panic!("case {case}: the scanner gave up on serde's bytes"));
        assert_eq!(bits(&via_scan), bits(&frame), "case {case}: serde bytes through the scanner");
        assert_eq!(
            bits(&FleetFrame::scan_body(&typed).expect("the scanner reads its own writer")),
            bits(&frame),
            "case {case}: typed bytes through the scanner"
        );
    }
}

/// One v1 frame carrying `body`, received as a `FleetFrame`.
fn recv_body(body: &[u8]) -> Result<FleetFrame, FrameError> {
    let mut wire = (body.len() as u32).to_be_bytes().to_vec();
    wire.extend_from_slice(body);
    Framed::new(Cursor::new(wire)).recv::<FleetFrame>()
}

#[test]
fn anything_off_the_canonical_layout_falls_back_to_serde() {
    let infer = FleetFrame::Infer { id: 41, arrival_ms: 82.5 };
    let ack = FleetFrame::InferAck {
        admitted: true,
        health: ReplicaHealth {
            queue_depth: 3,
            inflight: 2,
            breaker: 1.0,
            breaker_open_until_ms: Some(250.0),
            burn_rate: 4.5,
        },
    };
    // valid JSON the scanner must not claim, and serde must still decode
    for (body, want) in [
        (r#"{"id":41,"type":"infer","arrival_ms":82.5}"#, &infer),
        (r#"{"type":"infer","arrival_ms":82.5,"id":41}"#, &infer),
        (r#"{"type":"infer", "id":41,"arrival_ms":82.5}"#, &infer),
        (r#"{"type":"infer","id":41,"arrival_ms":82.5 }"#, &infer),
        (r#"{"type":"infer","id":41,"arrival_ms":82.5,"priority":1}"#, &infer),
        (r#"{"type":"infer","id":41,"arrival_ms":8.25E1}"#, &infer),
        (
            r#"{"type":"infer_ack","admitted":true,"health":{"inflight":2,"queue_depth":3,"breaker":1.0,"breaker_open_until_ms":250.0,"burn_rate":4.5}}"#,
            &ack,
        ),
        (
            r#"{"type":"infer_ack","admitted":true,"health":{"queue_depth":3,"inflight":2,"breaker":1.0,"burn_rate":4.5,"breaker_open_until_ms":250.0}}"#,
            &ack,
        ),
        (
            r#"{"type":"infer_ack","health":{"queue_depth":3,"inflight":2,"breaker":1.0,"breaker_open_until_ms":250.0,"burn_rate":4.5},"admitted":true}"#,
            &ack,
        ),
    ] {
        let canonical = body.contains("8.25E1"); // layout intact, only the number's spelling differs
        assert_eq!(FleetFrame::scan_body(body.as_bytes()).is_some(), canonical, "{body}");
        assert_eq!(&recv_body(body.as_bytes()).unwrap_or_else(|e| panic!("{body}: {e}")), want);
    }

    // not frames at all: the scanner passes, serde names the error
    let typed = typed_bytes(&ack);
    let mut damaged: Vec<Vec<u8>> = (0..typed.len()).map(|cut| typed[..cut].to_vec()).collect();
    for body in [
        r#"{"type":"infer","id":041,"arrival_ms":82.5}"#,
        r#"{"type":"infer","id":-1,"arrival_ms":82.5}"#,
        r#"{"type":"infer","id":41,"arrival_ms":.5}"#,
        r#"{"type":"infer","id":41,"arrival_ms":5.}"#,
        r#"{"type":"infer","id":41,"arrival_ms":+5.0}"#,
        r#"{"type":"infer","id":41,"arrival_ms":inf}"#,
        r#"{"type":"infer","id":41,"arrival_ms":NaN}"#,
        r#"{"type":"infer","id":41,"arrival_ms":null}"#,
        r#"{"type":"infer","id":99999999999999999999999,"arrival_ms":1.0}"#,
        r#"{"type":"infer","id":41,"arrival_ms":82.5}}"#,
        r#"{"type":"infer_ack","admitted":yes,"health":{"queue_depth":3,"inflight":2,"breaker":1.0,"burn_rate":4.5}}"#,
    ] {
        damaged.push(body.as_bytes().to_vec());
    }
    for body in &damaged {
        let text = String::from_utf8_lossy(body);
        assert!(FleetFrame::scan_body(body).is_none(), "the scanner claimed `{text}`");
        let err = recv_body(body).expect_err("damaged frames do not decode");
        assert!(matches!(err, FrameError::Malformed(_)), "`{text}`: {err}");
    }
}

#[test]
fn non_finite_floats_take_the_serde_path_both_ways() {
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let healthy = ReplicaHealth::default();
        for frame in [
            FleetFrame::Infer { id: 1, arrival_ms: bad },
            FleetFrame::InferAck { admitted: true, health: ReplicaHealth { breaker: bad, ..healthy } },
            FleetFrame::InferAck {
                admitted: true,
                health: ReplicaHealth { breaker_open_until_ms: Some(bad), ..healthy },
            },
            FleetFrame::InferAck { admitted: true, health: ReplicaHealth { burn_rate: bad, ..healthy } },
        ] {
            let mut out = b"kept".to_vec();
            assert!(!frame.write_body(&mut out), "{frame:?} must be left to serde");
            assert_eq!(out, b"kept", "a declined frame must append nothing");

            // on the wire it is what serde makes of it (`null`), CRC and all
            let mut framed = Framed::new(Cursor::new(Vec::new()));
            framed.upgrade();
            framed.send(&frame).expect("serde encodes non-finite floats as null");
            let body = serde_json::to_vec(&frame).expect("serializes");
            assert!(String::from_utf8_lossy(&body).contains("null"));
            assert_eq!(&framed.get_ref().get_ref()[12..12 + body.len()], &body[..]);
            framed.get_mut().set_position(0);
            match framed.recv::<FleetFrame>() {
                // an absent-able field reads `null` back as `None`
                Ok(FleetFrame::InferAck { health, .. }) => {
                    assert_eq!(health.breaker_open_until_ms, None)
                }
                Ok(other) => panic!("`null` decoded as {other:?}"),
                Err(err) => assert!(matches!(err, FrameError::Malformed(_)), "{err}"),
            }
        }
    }
}
