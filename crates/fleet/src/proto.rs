//! Fleet wire protocol: length-prefixed JSON frames over TCP.
//!
//! Every message is one [`framing`] frame — the same 4-byte big-endian
//! length + JSON codec the tuning farm speaks, reused verbatim so the
//! length prefix, the 16 MiB cap, and the protocol-error taxonomy live in
//! exactly one place. The conversation is strictly router-driven
//! request/response: the router sends one frame, the replica answers with
//! one frame, in order. No frame is ever unsolicited, which keeps the
//! exchange deterministic and trivially replayable.
//!
//! [`framing`]: unigpu_farm::framing

use serde::{Deserialize, Serialize};
use std::io::{self, Read, Write};
use unigpu_farm::framing::{self, WireFrame};

pub use unigpu_farm::framing::MAX_FRAME_BYTES;

/// Health snapshot a replica attaches to every admission ack. The router
/// keeps the latest snapshot per replica and routes on it; the view is
/// only as stale as the last request sent there, which is exactly the
/// information a power-of-two-choices router needs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReplicaHealth {
    /// Requests admitted but not yet formed into a batch.
    pub queue_depth: usize,
    /// Batches currently executing on device lanes.
    pub inflight: usize,
    /// Circuit-breaker gauge: `0` closed, `1` open, `2` half-open.
    pub breaker: f64,
    /// When the breaker is open, the simulated-clock instant it half-opens.
    /// The router uses this to withhold traffic until a probe is due.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub breaker_open_until_ms: Option<f64>,
    /// SLO error-budget burn rate over the replica's trailing window.
    pub burn_rate: f64,
}

impl Default for ReplicaHealth {
    fn default() -> Self {
        ReplicaHealth {
            queue_depth: 0,
            inflight: 0,
            breaker: 0.0,
            breaker_open_until_ms: None,
            burn_rate: 0.0,
        }
    }
}

/// One replica's final accounting, summarized from its [`ServeReport`]
/// so it fits a frame without dragging every per-request record across
/// the wire.
///
/// [`ServeReport`]: unigpu_engine::ServeReport
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicaReport {
    pub name: String,
    /// Device name (e.g. `"Intel HD Graphics 505"`), the warm-replication
    /// compatibility key.
    pub device: String,
    /// Requests this replica was offered (admitted or locally shed).
    pub offered: usize,
    /// `(request id, end-to-end latency ms)` per completed request,
    /// sorted by id.
    pub completed: Vec<(usize, f64)>,
    /// Ids shed by this replica's admission control. Non-terminal at
    /// fleet level: the router re-offers them elsewhere.
    pub shed: Vec<usize>,
    /// Ids expired against their deadline on this replica (terminal).
    pub expired: Vec<usize>,
    /// Ids that exhausted the panic ladder on this replica (terminal).
    pub failed: Vec<usize>,
    pub batches: usize,
    pub makespan_ms: f64,
    pub degraded_batches: usize,
    pub breaker_trips: usize,
    pub breaker_recoveries: usize,
    /// The underlying [`ServeReport::digest`], folding per-request
    /// outcomes into the fleet digest without shipping them all.
    ///
    /// [`ServeReport::digest`]: unigpu_engine::ServeReport::digest
    pub digest: u64,
    /// True when this replica skipped compilation because a peer's
    /// artifact was already in its cache (warm replication).
    pub warm_start: bool,
    /// True when this report was recovered from a killed replica.
    pub dead: bool,
}

/// Every message of the fleet protocol.
///
/// Router → replica: `Hello`, `Load`, `FetchArtifact`, `PushArtifact`,
/// `Infer`, `Finish`. Replica → router: the matching `*Ack`,
/// `ArtifactBlob`, `Report`, `Error`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum FleetFrame {
    /// The router introduces itself and asks who is listening. The new
    /// fields ride in an old-shape frame: with both unset, the JSON is
    /// byte-identical to the historical unit variant (`{"type":"hello"}`),
    /// and old replicas ignore unknown keys when they are present.
    Hello {
        /// Highest framing version the router speaks
        /// ([`framing::FRAMING_VERSION`]). Absent means v1-only.
        #[serde(default, skip_serializing_if = "Option::is_none")]
        framing: Option<u8>,
        /// Session token from a previous connection to resume: the replica
        /// keeps serving the same session (dedup window, cached report)
        /// instead of treating the reconnect as a new router.
        #[serde(default, skip_serializing_if = "Option::is_none")]
        session: Option<String>,
    },
    /// Handshake reply: the replica's name and simulated device.
    HelloAck {
        name: String,
        device: String,
        /// Framing version the replica accepted; both sides upgrade their
        /// codec right after this frame when it is `Some(2)`.
        #[serde(default, skip_serializing_if = "Option::is_none")]
        framing: Option<u8>,
        /// True when `session` named a session this replica still holds.
        #[serde(default, skip_serializing_if = "std::ops::Not::not")]
        resumed: bool,
    },
    /// Compile (or cache-load) a zoo model and stand up the serve loop.
    Load { model: String },
    /// Load reply. `warm` is [`CompiledModel::from_cache`]; `predicted_ms`
    /// is the single-sample batch estimate the router weighs routing by.
    ///
    /// [`CompiledModel::from_cache`]: unigpu_engine::CompiledModel::from_cache
    LoadAck { warm: bool, predicted_ms: f64 },
    /// Ask for the loaded model's artifact in JSONL wire form, so the
    /// router can replicate it to same-device peers.
    FetchArtifact,
    /// The artifact, as [`Artifact::to_jsonl`] emits it.
    ///
    /// [`Artifact::to_jsonl`]: unigpu_engine::Artifact::to_jsonl
    ArtifactBlob { jsonl: String },
    /// Seed this replica's artifact cache before its `Load`, so a cold
    /// peer skips recompilation.
    PushArtifact { jsonl: String },
    /// Push reply; `stored == false` names a parse/IO refusal in `Infer`
    /// position would have been an `Error` frame.
    PushAck { stored: bool },
    /// Offer one request at a simulated-clock arrival instant.
    Infer { id: usize, arrival_ms: f64 },
    /// Admission verdict plus the health snapshot routing feeds on.
    InferAck { admitted: bool, health: ReplicaHealth },
    /// Drain, shut down, and report.
    Finish,
    /// The replica's final accounting. Boxed: it dwarfs every other
    /// variant.
    Report(Box<ReplicaReport>),
    /// Protocol-level failure; the sender closes the connection after
    /// this. `fatal` distinguishes unrecoverable conditions (an injected
    /// death, protocol insanity) from transient ones (a checksum mismatch)
    /// the router should answer with reconnect-and-resume.
    Error {
        message: String,
        #[serde(default, skip_serializing_if = "std::ops::Not::not")]
        fatal: bool,
    },
}

/// `Infer` and `InferAck` cross the wire once per request, so they are
/// written and scanned field by field; every other frame is per session and
/// goes through serde. Both halves are pinned to serde's bytes by
/// `tests/codec_equivalence.rs` and `tests/golden/exchange.hex`.
impl WireFrame for FleetFrame {
    fn write_body(&self, out: &mut Vec<u8>) -> bool {
        // JSON has no NaN or infinity (serde writes `null`): leave those to it.
        match self {
            FleetFrame::Infer { id, arrival_ms } if arrival_ms.is_finite() => {
                out.extend_from_slice(br#"{"type":"infer","id":"#);
                push_uint(out, *id);
                out.extend_from_slice(br#","arrival_ms":"#);
                push_f64(out, *arrival_ms);
                out.push(b'}');
                true
            }
            FleetFrame::InferAck { admitted, health: h }
                if h.breaker.is_finite()
                    && h.burn_rate.is_finite()
                    && h.breaker_open_until_ms.map_or(true, f64::is_finite) =>
            {
                out.extend_from_slice(br#"{"type":"infer_ack","admitted":"#);
                out.extend_from_slice(if *admitted { b"true" } else { b"false" });
                out.extend_from_slice(br#","health":{"queue_depth":"#);
                push_uint(out, h.queue_depth);
                out.extend_from_slice(br#","inflight":"#);
                push_uint(out, h.inflight);
                out.extend_from_slice(br#","breaker":"#);
                push_f64(out, h.breaker);
                if let Some(until_ms) = h.breaker_open_until_ms {
                    out.extend_from_slice(br#","breaker_open_until_ms":"#);
                    push_f64(out, until_ms);
                }
                out.extend_from_slice(br#","burn_rate":"#);
                push_f64(out, h.burn_rate);
                out.extend_from_slice(b"}}");
                true
            }
            _ => false,
        }
    }

    fn scan_body(body: &[u8]) -> Option<FleetFrame> {
        let mut s = Scan(body);
        s.lit(br#"{"type":"infer"#)?;
        let frame = if s.lit(br#"","id":"#).is_some() {
            let id = s.uint()?;
            s.lit(br#","arrival_ms":"#)?;
            let arrival_ms = s.float()?;
            FleetFrame::Infer { id, arrival_ms }
        } else {
            s.lit(br#"_ack","admitted":"#)?;
            let admitted = s.boolean()?;
            s.lit(br#","health":{"queue_depth":"#)?;
            let queue_depth = s.uint()?;
            s.lit(br#","inflight":"#)?;
            let inflight = s.uint()?;
            s.lit(br#","breaker":"#)?;
            let breaker = s.float()?;
            let breaker_open_until_ms = match s.lit(br#","breaker_open_until_ms":"#) {
                Some(()) => Some(s.float()?),
                None => None,
            };
            s.lit(br#","burn_rate":"#)?;
            let burn_rate = s.float()?;
            s.lit(b"}")?;
            let health =
                ReplicaHealth { queue_depth, inflight, breaker, breaker_open_until_ms, burn_rate };
            FleetFrame::InferAck { admitted, health }
        };
        s.lit(b"}")?;
        s.0.is_empty().then_some(frame)
    }
}

fn push_uint(out: &mut Vec<u8>, n: usize) {
    write!(out, "{n}").expect("writing to a Vec cannot fail");
}

/// A finite `f64` in Rust's shortest round-trip form (`82.0`, `2.5e-7`): the
/// digits `serde_json` prints, formatted straight into `out`.
fn push_f64(out: &mut Vec<u8>, f: f64) {
    write!(out, "{f:?}").expect("writing to a Vec cannot fail");
}

/// A cursor over a frame body in canonical layout. Every method consumes
/// what it matched, or returns `None` and the scan is abandoned.
struct Scan<'a>(&'a [u8]);

impl<'a> Scan<'a> {
    fn lit(&mut self, lit: &[u8]) -> Option<()> {
        self.0 = self.0.strip_prefix(lit)?;
        Some(())
    }

    /// The scalar up to the next `,` or `}`, as text.
    fn token(&mut self) -> Option<&'a str> {
        let end = self.0.iter().position(|b| matches!(b, b',' | b'}'))?;
        let (token, rest) = self.0.split_at(end);
        self.0 = rest;
        std::str::from_utf8(token).ok()
    }

    fn boolean(&mut self) -> Option<bool> {
        match self.token()? {
            "true" => Some(true),
            "false" => Some(false),
            _ => None,
        }
    }

    fn uint(&mut self) -> Option<usize> {
        let token = self.token()?;
        let canonical = token.bytes().all(|b| b.is_ascii_digit())
            && (token.len() == 1 || !token.starts_with('0'));
        if canonical { token.parse().ok() } else { None }
    }

    /// A finite JSON number: `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
    /// `str::parse` alone would also take `inf`, `+1`, `.5` and `1.`.
    fn float(&mut self) -> Option<f64> {
        let token = self.token()?;
        let digits = |s: &str| s.bytes().take_while(u8::is_ascii_digit).count();
        let mut rest = token.strip_prefix('-').unwrap_or(token);
        let int = digits(rest);
        if int == 0 || (int > 1 && rest.starts_with('0')) {
            return None;
        }
        rest = &rest[int..];
        if let Some(frac) = rest.strip_prefix('.') {
            let n = digits(frac);
            if n == 0 {
                return None;
            }
            rest = &frac[n..];
        }
        if let Some(exp) = rest.strip_prefix(['e', 'E']) {
            let exp = exp.strip_prefix(['+', '-']).unwrap_or(exp);
            let n = digits(exp);
            if n == 0 {
                return None;
            }
            rest = &exp[n..];
        }
        if !rest.is_empty() {
            return None;
        }
        token.parse().ok().filter(|f: &f64| f.is_finite())
    }
}

/// Serialize `frame` as one length-prefixed JSON message.
pub fn write_frame(w: &mut dyn Write, frame: &FleetFrame) -> io::Result<()> {
    framing::write_frame(w, frame)
}

/// Read one frame. A clean peer close surfaces as `UnexpectedEof`; an
/// oversized length prefix or unparseable body surfaces as `InvalidData`
/// (the caller should answer [`FleetFrame::Error`] and drop the
/// connection).
pub fn read_frame(r: &mut dyn Read) -> io::Result<FleetFrame> {
    framing::read_frame(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn fleet_frames_round_trip() {
        let frames = vec![
            FleetFrame::Hello { framing: Some(2), session: Some("router-0".into()) },
            FleetFrame::HelloAck {
                name: "r0".into(),
                device: "Intel HD Graphics 505".into(),
                framing: Some(2),
                resumed: true,
            },
            FleetFrame::Load { model: "ResNet-18".into() },
            FleetFrame::LoadAck { warm: true, predicted_ms: 3.25 },
            FleetFrame::FetchArtifact,
            FleetFrame::ArtifactBlob { jsonl: "{}\n".into() },
            FleetFrame::PushArtifact { jsonl: "{}\n".into() },
            FleetFrame::PushAck { stored: true },
            FleetFrame::Infer { id: 41, arrival_ms: 82.0 },
            FleetFrame::InferAck {
                admitted: true,
                health: ReplicaHealth {
                    queue_depth: 3,
                    inflight: 2,
                    breaker: 1.0,
                    breaker_open_until_ms: Some(250.0),
                    burn_rate: 4.5,
                },
            },
            FleetFrame::Finish,
            FleetFrame::Report(Box::new(ReplicaReport {
                name: "r0".into(),
                device: "Mali-T860".into(),
                offered: 10,
                completed: vec![(0, 5.0), (2, 7.5)],
                shed: vec![3],
                expired: vec![4],
                failed: vec![],
                batches: 6,
                makespan_ms: 44.0,
                degraded_batches: 1,
                breaker_trips: 1,
                breaker_recoveries: 1,
                digest: 0xdead_beef,
                warm_start: false,
                dead: true,
            })),
            FleetFrame::Error { message: "nope".into(), fatal: true },
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
    fn closed_breaker_ack_omits_the_open_until_key() {
        // None must not serialize a key old peers would reject
        let f = FleetFrame::InferAck {
            admitted: true,
            health: ReplicaHealth::default(),
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &f).unwrap();
        assert!(!String::from_utf8_lossy(&buf).contains("breaker_open_until_ms"));
        assert_eq!(read_frame(&mut Cursor::new(buf)).unwrap(), f);
    }

    #[test]
    fn bare_hello_serializes_exactly_like_the_old_unit_variant() {
        // A v1-only router's Hello and this build's field-less Hello must
        // be the same bytes, or old digest-pinned handshakes would change.
        let bare = FleetFrame::Hello { framing: None, session: None };
        assert_eq!(serde_json::to_string(&bare).unwrap(), r#"{"type":"hello"}"#);
        let ack = FleetFrame::HelloAck {
            name: "r0".into(),
            device: "cpu".into(),
            framing: None,
            resumed: false,
        };
        let body = serde_json::to_string(&ack).unwrap();
        assert!(!body.contains("framing") && !body.contains("resumed"), "got {body}");
        let err = FleetFrame::Error { message: "m".into(), fatal: false };
        assert!(!serde_json::to_string(&err).unwrap().contains("fatal"));
    }

    #[test]
    fn old_peer_frames_without_the_new_keys_still_parse() {
        for (raw, check) in [
            (
                r#"{"type":"hello"}"#,
                FleetFrame::Hello { framing: None, session: None },
            ),
            (
                r#"{"type":"hello_ack","name":"r1","device":"gpu"}"#,
                FleetFrame::HelloAck {
                    name: "r1".into(),
                    device: "gpu".into(),
                    framing: None,
                    resumed: false,
                },
            ),
            (
                r#"{"type":"error","message":"boom"}"#,
                FleetFrame::Error { message: "boom".into(), fatal: false },
            ),
        ] {
            let body = raw.as_bytes();
            let mut buf = (body.len() as u32).to_be_bytes().to_vec();
            buf.extend_from_slice(body);
            assert_eq!(read_frame(&mut Cursor::new(buf)).unwrap(), check, "for {raw}");
        }
    }

    #[test]
    fn new_hello_parses_in_an_old_peer_frame_shape() {
        // The historical FleetFrame declared Hello as a unit variant.
        // serde's internally-tagged unit variants ignore extra keys, so an
        // old replica must still parse a v2 router's Hello.
        #[derive(Debug, PartialEq, serde::Deserialize)]
        #[serde(tag = "type", rename_all = "snake_case")]
        enum OldFrame {
            Hello,
            Error { message: String },
        }
        let new_hello = serde_json::to_string(&FleetFrame::Hello {
            framing: Some(2),
            session: Some("router-0".into()),
        })
        .unwrap();
        assert_eq!(serde_json::from_str::<OldFrame>(&new_hello).unwrap(), OldFrame::Hello);
        // and an old struct variant ignores the new fatal flag
        let new_err = serde_json::to_string(&FleetFrame::Error {
            message: "boom".into(),
            fatal: true,
        })
        .unwrap();
        assert_eq!(
            serde_json::from_str::<OldFrame>(&new_err).unwrap(),
            OldFrame::Error { message: "boom".into() }
        );
    }

    #[test]
    fn truncated_and_malformed_frames_keep_the_shared_error_taxonomy() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &FleetFrame::Hello { framing: None, session: None }).unwrap();
        buf.truncate(buf.len() - 1);
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

        let body = b"{ not json";
        let mut buf = (body.len() as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(body);
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
