//! Deterministic *wire-level* fault injection: the network itself as a
//! failure domain.
//!
//! A [`ChaosStream`] wrapped around any `Read + Write` transport applies the
//! wire knobs of the fault plan ([`NetFaultPlan`], grammar in
//! `unigpu_device::fault`) to its outgoing frames:
//!
//! * `drop_conn_nth=K` — every Kth outgoing frame kills the connection
//!   before a byte hits the wire (the peer sees EOF);
//! * `corrupt_byte_nth=K` — every Kth outgoing frame has one body byte
//!   flipped (a v2 peer answers `ChecksumMismatch`, a v1 peer a JSON parse
//!   error);
//! * `truncate_frame_nth=K` — every Kth outgoing frame is cut in half
//!   mid-write and the connection dies (the peer sees a short body + EOF);
//! * `dup_frame_nth=K` — every Kth outgoing frame is written twice
//!   (a v2 peer drops the replay by sequence number);
//! * `delay_frame_nth=K:MS` — every Kth outgoing frame is held MS
//!   milliseconds before sending.
//!
//! Everything is counter-based — no RNG, no wall-clock reads — so a faulty
//! run is exactly reproducible, and an empty plan is bit-identical to no
//! wrapper at all. Frame boundaries are inferred from `flush`: every codec
//! in this workspace writes one frame then flushes, so the chaos layer
//! buffers between flushes and injects per frame, not per syscall.

use std::io::{self, Read, Write};
use std::sync::{Arc, Mutex};
use unigpu_device::NetFaultPlan;

/// What the counters decided to do with one outgoing frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrameFault {
    None,
    DropConn,
    Truncate,
    Corrupt,
    Dup,
    Delay(u64),
}

/// Transport-level counters: what the chaos layer injected, and what the
/// recovery machinery above it (reconnect/resume/dedup) had to do about
/// it. Folded fleet-wide into the router's `net.*` metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections re-dialed after a transport failure.
    pub reconnects: u64,
    /// Reconnects that resumed an existing session (token accepted).
    pub resumes: u64,
    /// Request frames retransmitted after a reconnect.
    pub replayed_frames: u64,
    /// Frames rejected by the v2 CRC trailer (ours or the peer's).
    pub checksum_errors: u64,
    /// Duplicate frames silently skipped by sequence number.
    pub dup_frames_skipped: u64,
    /// Simulated-clock milliseconds spent in reconnect backoff.
    pub backoff_ms: u64,
    /// Injected: connections dropped by `drop_conn_nth`.
    pub conns_dropped: u64,
    /// Injected: bytes flipped by `corrupt_byte_nth`.
    pub bytes_corrupted: u64,
    /// Injected: frames cut short by `truncate_frame_nth`.
    pub frames_truncated: u64,
    /// Injected: frames doubled by `dup_frame_nth`.
    pub frames_duplicated: u64,
    /// Injected: frames held back by `delay_frame_nth`.
    pub frames_delayed: u64,
}

impl NetStats {
    pub fn merge(&mut self, other: &NetStats) {
        self.reconnects += other.reconnects;
        self.resumes += other.resumes;
        self.replayed_frames += other.replayed_frames;
        self.checksum_errors += other.checksum_errors;
        self.dup_frames_skipped += other.dup_frames_skipped;
        self.backoff_ms += other.backoff_ms;
        self.conns_dropped += other.conns_dropped;
        self.bytes_corrupted += other.bytes_corrupted;
        self.frames_truncated += other.frames_truncated;
        self.frames_duplicated += other.frames_duplicated;
        self.frames_delayed += other.frames_delayed;
    }

    /// True when any injection or recovery counter moved.
    pub fn any(&self) -> bool {
        *self != NetStats::default()
    }
}

struct NetFaultState {
    plan: NetFaultPlan,
    frames: u64,
    stats: NetStats,
}

impl NetFaultState {
    /// Advance the frame counter and decide this frame's fate. Precedence
    /// when several counters land on the same frame:
    /// drop > truncate > corrupt > dup > delay.
    fn on_frame(&mut self) -> FrameFault {
        self.frames += 1;
        let nth = |k: Option<u64>| k.is_some_and(|k| self.frames.is_multiple_of(k));
        if nth(self.plan.drop_conn_nth) {
            self.stats.conns_dropped += 1;
            return FrameFault::DropConn;
        }
        if nth(self.plan.truncate_frame_nth) {
            self.stats.frames_truncated += 1;
            return FrameFault::Truncate;
        }
        if nth(self.plan.corrupt_byte_nth) {
            self.stats.bytes_corrupted += 1;
            return FrameFault::Corrupt;
        }
        if nth(self.plan.dup_frame_nth) {
            self.stats.frames_duplicated += 1;
            return FrameFault::Dup;
        }
        if let Some((k, ms)) = self.plan.delay_frame_nth {
            if self.frames.is_multiple_of(k) {
                self.stats.frames_delayed += 1;
                return FrameFault::Delay(ms);
            }
        }
        FrameFault::None
    }
}

/// One fault-plan instance shared across every connection of a link (the
/// counters must survive reconnects, or `drop_conn_nth` would re-fire on
/// the same frame of every fresh connection forever).
#[derive(Clone)]
pub struct SharedNetFaults(Arc<Mutex<NetFaultState>>);

impl SharedNetFaults {
    pub fn new(plan: NetFaultPlan) -> SharedNetFaults {
        SharedNetFaults(Arc::new(Mutex::new(NetFaultState {
            plan,
            frames: 0,
            stats: NetStats::default(),
        })))
    }

    pub fn plan(&self) -> NetFaultPlan {
        self.0.lock().expect("net fault state poisoned").plan
    }

    /// Injection counters so far (the `conns_dropped`/`bytes_corrupted`/…
    /// half of [`NetStats`]).
    pub fn stats(&self) -> NetStats {
        self.0.lock().expect("net fault state poisoned").stats
    }

    fn on_frame(&self) -> FrameFault {
        self.0.lock().expect("net fault state poisoned").on_frame()
    }
}

impl std::fmt::Debug for SharedNetFaults {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("SharedNetFaults").field(&self.plan()).finish()
    }
}

fn conn_killed(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::ConnectionReset, format!("netchaos: {what}"))
}

/// A `Read + Write` wrapper that injects the shared plan's faults on the
/// outgoing frame stream. With an empty plan every call passes straight
/// through — bit-identical to the bare transport.
///
/// Writes are buffered until `flush`, which this workspace's codecs call
/// exactly once per frame; the buffered frame is then dropped, truncated,
/// corrupted, duplicated, delayed, or written verbatim. Once a fault kills
/// the connection, every later call fails with `ConnectionReset` until the
/// stream is dropped and the link re-dials.
pub struct ChaosStream<S> {
    inner: S,
    faults: SharedNetFaults,
    noop: bool,
    buf: Vec<u8>,
    dead: bool,
}

impl<S: Read + Write> ChaosStream<S> {
    pub fn new(inner: S, faults: SharedNetFaults) -> ChaosStream<S> {
        let noop = faults.plan() == NetFaultPlan::default();
        ChaosStream { inner, faults, noop, buf: Vec::new(), dead: false }
    }

    pub fn get_ref(&self) -> &S {
        &self.inner
    }

    pub fn faults(&self) -> &SharedNetFaults {
        &self.faults
    }
}

impl<S: Read + Write> Read for ChaosStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.dead {
            return Err(conn_killed("connection already dropped"));
        }
        self.inner.read(buf)
    }
}

impl<S: Read + Write> Write for ChaosStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.dead {
            return Err(conn_killed("connection already dropped"));
        }
        if self.noop {
            return self.inner.write(buf);
        }
        self.buf.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.dead {
            return Err(conn_killed("connection already dropped"));
        }
        if self.noop {
            return self.inner.flush();
        }
        if self.buf.is_empty() {
            return self.inner.flush();
        }
        let mut frame = std::mem::take(&mut self.buf);
        match self.faults.on_frame() {
            FrameFault::DropConn => {
                self.dead = true;
                return Err(conn_killed("injected connection drop"));
            }
            FrameFault::Truncate => {
                let half = frame.len() / 2;
                self.inner.write_all(&frame[..half])?;
                let _ = self.inner.flush();
                self.dead = true;
                return Err(conn_killed("injected mid-frame truncation"));
            }
            FrameFault::Corrupt => {
                // Flip a byte past the length prefix so the peer reads a
                // complete frame and detects the damage, instead of
                // desyncing on a garbled length.
                let idx = (frame.len() / 2).clamp(4.min(frame.len() - 1), frame.len() - 1);
                frame[idx] ^= 0x55;
            }
            FrameFault::Dup => {
                self.inner.write_all(&frame)?;
            }
            FrameFault::Delay(ms) => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
            }
            FrameFault::None => {}
        }
        self.inner.write_all(&frame)?;
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One "frame" through a chaos stream: write then flush, like the codec.
    fn send(cs: &mut ChaosStream<std::io::Cursor<Vec<u8>>>, bytes: &[u8]) -> io::Result<()> {
        cs.write_all(bytes)?;
        cs.flush()
    }

    #[test]
    fn empty_plan_passes_bytes_through_untouched() {
        let mut cs = ChaosStream::new(
            std::io::Cursor::new(Vec::new()),
            SharedNetFaults::new(NetFaultPlan::default()),
        );
        send(&mut cs, b"hello frame one").unwrap();
        send(&mut cs, b"hello frame two").unwrap();
        assert_eq!(cs.get_ref().get_ref().as_slice(), b"hello frame onehello frame two");
        assert!(!cs.faults().stats().any());
    }

    #[test]
    fn drop_conn_kills_the_nth_frame_and_everything_after() {
        let faults = SharedNetFaults::new(NetFaultPlan::parse("drop_conn_nth=2"));
        let mut cs = ChaosStream::new(std::io::Cursor::new(Vec::new()), faults.clone());
        send(&mut cs, b"frame-1-ok").unwrap();
        let err = send(&mut cs, b"frame-2-dropped").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        // the stream is dead: no write, no read, until re-dialed
        let err = send(&mut cs, b"frame-3").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        assert_eq!(cs.get_ref().get_ref().as_slice(), b"frame-1-ok");
        assert_eq!(faults.stats().conns_dropped, 1);
        // counters live in the shared state: a fresh stream continues them,
        // so frame 4 (2nd of the new conn) is the next casualty
        let mut cs2 = ChaosStream::new(std::io::Cursor::new(Vec::new()), faults.clone());
        send(&mut cs2, b"frame-3-ok").unwrap();
        assert!(send(&mut cs2, b"frame-4-dropped").is_err());
        assert_eq!(faults.stats().conns_dropped, 2);
    }

    #[test]
    fn corrupt_flips_exactly_one_byte_in_the_nth_frame() {
        let faults = SharedNetFaults::new(NetFaultPlan::parse("corrupt_byte_nth=2"));
        let mut cs = ChaosStream::new(std::io::Cursor::new(Vec::new()), faults.clone());
        let frame = b"0123456789abcdef";
        send(&mut cs, frame).unwrap();
        send(&mut cs, frame).unwrap();
        let wire = cs.get_ref().get_ref();
        assert_eq!(&wire[..frame.len()], frame, "frame 1 untouched");
        let diffs: Vec<usize> = (0..frame.len())
            .filter(|&i| wire[frame.len() + i] != frame[i])
            .collect();
        assert_eq!(diffs.len(), 1, "exactly one corrupted byte");
        assert!(diffs[0] >= 4, "length prefix stays intact");
        assert_eq!(faults.stats().bytes_corrupted, 1);
    }

    #[test]
    fn truncate_writes_half_then_dies() {
        let faults = SharedNetFaults::new(NetFaultPlan::parse("truncate_frame_nth=1"));
        let mut cs = ChaosStream::new(std::io::Cursor::new(Vec::new()), faults.clone());
        let err = send(&mut cs, b"0123456789").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        assert_eq!(cs.get_ref().get_ref().as_slice(), b"01234");
        assert_eq!(faults.stats().frames_truncated, 1);
    }

    #[test]
    fn dup_writes_the_nth_frame_twice() {
        let faults = SharedNetFaults::new(NetFaultPlan::parse("dup_frame_nth=2"));
        let mut cs = ChaosStream::new(std::io::Cursor::new(Vec::new()), faults.clone());
        send(&mut cs, b"aa").unwrap();
        send(&mut cs, b"bb").unwrap();
        send(&mut cs, b"cc").unwrap();
        assert_eq!(cs.get_ref().get_ref().as_slice(), b"aabbbbcc");
        assert_eq!(faults.stats().frames_duplicated, 1);
    }

    #[test]
    fn fault_precedence_is_deterministic() {
        // every counter lands on frame 6: drop wins
        let faults = SharedNetFaults::new(NetFaultPlan::parse(
            "drop_conn_nth=6,truncate_frame_nth=3,corrupt_byte_nth=2,dup_frame_nth=6",
        ));
        let mut cs = ChaosStream::new(std::io::Cursor::new(Vec::new()), faults.clone());
        let mut outcomes = Vec::new();
        for i in 0..6u8 {
            outcomes.push(send(&mut cs, &[b'f', b'0' + i, b'x', b'y', b'z', b'w']).is_ok());
            if !outcomes.last().unwrap() {
                break;
            }
        }
        // frame 1 ok, frame 2 corrupt (still ok), frame 3 truncates+dies
        assert_eq!(outcomes, vec![true, true, false]);
        let s = faults.stats();
        assert_eq!((s.bytes_corrupted, s.frames_truncated, s.conns_dropped), (1, 1, 0));
    }
}
