//! Shared length-prefixed JSON frame codec.
//!
//! Every control-plane message in this workspace — the farm's tuning
//! protocol and the fleet's serving protocol — is a 4-byte big-endian
//! length followed by one JSON-encoded body. This module is the single
//! place where that framing, the 16 MiB body cap, and the protocol-error
//! taxonomy live; protocols supply their own frame enum via serde.
//!
//! Two wire formats coexist:
//!
//! * **v1** (the free functions [`write_frame`]/[`read_frame`]):
//!   `len:u32be | body` — what every peer speaks at connect time.
//! * **v2** ([`Framed`] after [`Framed::upgrade`]):
//!   `len:u32be | seq:u64be | body | crc32(seq‖body):u32be` — negotiated
//!   in each protocol's hello exchange. The CRC turns wire corruption
//!   into a typed [`FrameError::ChecksumMismatch`] instead of a JSON
//!   parse failure; the monotonic sequence number lets a receiver drop
//!   duplicated frames silently and flag gaps.
//!
//! A [`Framed`] builds each outgoing frame — header, body, trailer — in one
//! buffer it reuses and writes with a single `write_all`, and reads each
//! incoming frame into another; a protocol can hand-write the bodies of its
//! per-request frames into that buffer ([`WireFrame`]) as long as the bytes
//! stay serde's.
//!
//! Error contract (shared by every protocol built on this codec):
//! - a clean peer close or truncated body surfaces as `UnexpectedEof`;
//! - an oversized length prefix, unparseable body, bad checksum, or
//!   sequence gap surfaces as `InvalidData` once converted to
//!   `io::Error` — the caller should answer with its protocol's error
//!   frame and drop the connection.

use serde::de::DeserializeOwned;
use serde::Serialize;
use std::io::{self, Read, Write};

/// Upper bound on one frame body. Generous — a farm `Submit` for every conv
/// in a large CNN or a fleet artifact push is a few hundred KiB — but small
/// enough that a corrupt length prefix cannot drive a multi-GiB allocation.
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// The framing format this build can speak; advertised in hello frames.
pub const FRAMING_VERSION: u8 = 2;

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected, poly 0xEDB88320), eight bytes per step —
// tables built at compile time so the codec stays dependency-free.
// ---------------------------------------------------------------------------

/// Slice-by-8 tables: `T[0]` is the classic byte table, and `T[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes, so eight input bytes fold into
/// the state with eight independent lookups instead of a serial chain.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1usize;
    while k < 8 {
        let mut i = 0usize;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC32 of one buffer (IEEE polynomial; `crc32(b"123456789") == 0xCBF43926`).
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

// ---------------------------------------------------------------------------
// Typed errors
// ---------------------------------------------------------------------------

/// Everything that can go wrong reading or writing one frame.
#[derive(Debug)]
pub enum FrameError {
    /// Transport failure (including `UnexpectedEof` on clean close).
    Io(io::Error),
    /// Body or length prefix exceeds [`MAX_FRAME_BYTES`].
    TooLarge(usize),
    /// Body is not valid JSON for the expected frame type.
    Malformed(String),
    /// The v2 CRC trailer does not match the received bytes.
    ChecksumMismatch { wire: u32, computed: u32 },
    /// The sender skipped ahead: frames were lost between the peers.
    SequenceGap { expected: u64, got: u64 },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
            FrameError::TooLarge(n) => {
                write!(f, "frame of {n} bytes exceeds MAX_FRAME_BYTES ({MAX_FRAME_BYTES})")
            }
            FrameError::Malformed(m) => write!(f, "malformed frame: {m}"),
            FrameError::ChecksumMismatch { wire, computed } => write!(
                f,
                "frame checksum mismatch: wire says {wire:08x}, bytes hash to {computed:08x}"
            ),
            FrameError::SequenceGap { expected, got } => {
                write!(f, "frame sequence gap: expected seq {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> FrameError {
        FrameError::Io(e)
    }
}

impl From<FrameError> for io::Error {
    fn from(e: FrameError) -> io::Error {
        match e {
            FrameError::Io(e) => e,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

// ---------------------------------------------------------------------------
// Body reader — never trusts the length prefix with an allocation
// ---------------------------------------------------------------------------

/// A buffer a frame passed through keeps at most this much capacity, and a
/// length prefix is trusted with at most this much up front.
const KEEP_BYTES: usize = 64 * 1024;

/// Read exactly `len` bytes via `Read::take` into `buf` (emptied first),
/// growing it as data arrives, so a corrupt-but-under-cap prefix on a short
/// connection costs a short read, not a 16 MiB up-front allocation.
fn read_exactly<R: Read + ?Sized>(r: &mut R, len: usize, buf: &mut Vec<u8>) -> io::Result<()> {
    buf.clear();
    buf.reserve(len.min(KEEP_BYTES));
    let got = (&mut *r).take(len as u64).read_to_end(buf)?;
    if got < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("frame truncated: got {got} of {len} bytes"),
        ));
    }
    Ok(())
}

/// Give back what one large frame (an artifact blob, a final report) grew a
/// connection's reused buffer to, so it is not pinned for the connection's
/// life.
fn release_large(buf: &mut Vec<u8>) {
    if buf.capacity() > KEEP_BYTES {
        *buf = Vec::new();
    }
}

// ---------------------------------------------------------------------------
// v1 free functions (the connect-time dialect everyone speaks)
// ---------------------------------------------------------------------------

/// Serialize `frame` as one length-prefixed JSON message.
pub fn write_frame<F: Serialize>(w: &mut dyn Write, frame: &F) -> io::Result<()> {
    let body = serde_json::to_vec(frame).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    if body.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame body of {} bytes exceeds MAX_FRAME_BYTES", body.len()),
        ));
    }
    w.write_all(&(body.len() as u32).to_be_bytes())?;
    w.write_all(&body)?;
    w.flush()
}

/// Read one frame of any serde-decodable type.
pub fn read_frame<F: DeserializeOwned>(r: &mut dyn Read) -> io::Result<F> {
    let mut prefix = [0u8; 4];
    r.read_exact(&mut prefix)?;
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length prefix of {len} bytes exceeds MAX_FRAME_BYTES"),
        ));
    }
    let mut body = Vec::new();
    read_exactly(r, len, &mut body)?;
    serde_json::from_slice(&body)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("malformed frame: {e}")))
}

// ---------------------------------------------------------------------------
// Framed — stateful codec that can upgrade from v1 to v2 mid-connection
// ---------------------------------------------------------------------------

/// A message type [`Framed`] carries. Serde is the encoding; a protocol may
/// also hand-write the frames it sends per request, as long as the bytes
/// stay what serde would have written.
pub trait WireFrame: Serialize + DeserializeOwned {
    /// Append this frame's JSON body to `out` and return `true`, or append
    /// nothing and return `false` to have serde encode it.
    fn write_body(&self, _out: &mut Vec<u8>) -> bool {
        false
    }

    /// Decode a body laid out exactly as [`WireFrame::write_body`] writes
    /// it; `None` sends anything else — other variants, reordered or unknown
    /// keys, whitespace, damage — through serde, which owns the errors.
    fn scan_body(_body: &[u8]) -> Option<Self> {
        None
    }
}

/// A stateful frame codec over one connection. Starts in v1 (plain
/// length-prefixed) mode; after both peers agree in their hello exchange,
/// [`upgrade`](Framed::upgrade) switches to v2 with fresh sequence
/// counters on both sides.
pub struct Framed<S> {
    stream: S,
    v2: bool,
    next_send_seq: u64,
    next_recv_seq: u64,
    dup_skipped: u64,
    /// The outgoing frame, header to trailer, built in place and written
    /// with one `write_all`; reused from frame to frame.
    tx: Vec<u8>,
    /// The incoming frame past its length prefix; reused likewise.
    rx: Vec<u8>,
}

/// v2 bytes between the length prefix and the body (the sequence number),
/// and after the body (the CRC).
const SEQ_BYTES: usize = 8;
const CRC_BYTES: usize = 4;

impl<S: Read + Write> Framed<S> {
    /// Wrap a transport in v1 mode.
    pub fn new(stream: S) -> Framed<S> {
        Framed {
            stream,
            v2: false,
            next_send_seq: 0,
            next_recv_seq: 0,
            dup_skipped: 0,
            tx: Vec::new(),
            rx: Vec::new(),
        }
    }

    /// Switch this side to the v2 format, resetting both sequence spaces.
    /// Call at the same protocol point on both peers (after the hello
    /// exchange that negotiated it).
    pub fn upgrade(&mut self) {
        self.v2 = true;
        self.next_send_seq = 0;
        self.next_recv_seq = 0;
    }

    pub fn is_v2(&self) -> bool {
        self.v2
    }

    /// Duplicate frames this receiver has silently discarded by sequence
    /// number (e.g. a `dup_frame_nth` injection or a replay overlap).
    pub fn dup_frames_skipped(&self) -> u64 {
        self.dup_skipped
    }

    pub fn get_ref(&self) -> &S {
        &self.stream
    }

    pub fn get_mut(&mut self) -> &mut S {
        &mut self.stream
    }

    /// Serialize and send one frame (exactly one `flush` per frame — the
    /// boundary the chaos layer keys on).
    pub fn send<F: WireFrame>(&mut self, frame: &F) -> Result<(), FrameError> {
        let sent = self.send_inner(frame);
        release_large(&mut self.tx);
        sent
    }

    fn send_inner<F: WireFrame>(&mut self, frame: &F) -> Result<(), FrameError> {
        let head = if self.v2 { 4 + SEQ_BYTES } else { 4 };
        self.tx.clear();
        self.tx.resize(head, 0);
        if !frame.write_body(&mut self.tx) {
            let body =
                serde_json::to_vec(frame).map_err(|e| FrameError::Malformed(e.to_string()))?;
            self.tx.extend_from_slice(&body);
        }
        let len = self.tx.len() - head;
        if len > MAX_FRAME_BYTES {
            return Err(FrameError::TooLarge(len));
        }
        self.tx[..4].copy_from_slice(&(len as u32).to_be_bytes());
        if self.v2 {
            self.tx[4..head].copy_from_slice(&self.next_send_seq.to_be_bytes());
            self.next_send_seq += 1;
            let crc = crc32(&self.tx[4..]);
            self.tx.extend_from_slice(&crc.to_be_bytes());
        }
        self.stream.write_all(&self.tx)?;
        self.stream.flush()?;
        Ok(())
    }

    /// Receive the next frame, silently skipping v2 duplicates (sequence
    /// numbers already seen) and verifying the CRC trailer.
    pub fn recv<F: WireFrame>(&mut self) -> Result<F, FrameError> {
        let received = self.recv_inner();
        release_large(&mut self.rx);
        received
    }

    fn recv_inner<F: WireFrame>(&mut self) -> Result<F, FrameError> {
        let body = loop {
            let mut prefix = [0u8; 4];
            self.stream.read_exact(&mut prefix)?;
            let len = u32::from_be_bytes(prefix) as usize;
            if len > MAX_FRAME_BYTES {
                return Err(FrameError::TooLarge(len));
            }
            if !self.v2 {
                read_exactly(&mut self.stream, len, &mut self.rx)?;
                break &self.rx[..];
            }
            read_exactly(&mut self.stream, SEQ_BYTES + len + CRC_BYTES, &mut self.rx)?;
            let (checked, trailer) = self.rx.split_at(SEQ_BYTES + len);
            let wire = u32::from_be_bytes(trailer.try_into().expect("a 4-byte trailer"));
            let computed = crc32(checked);
            if wire != computed {
                return Err(FrameError::ChecksumMismatch { wire, computed });
            }
            let (seq, body) = checked.split_at(SEQ_BYTES);
            let seq = u64::from_be_bytes(seq.try_into().expect("an 8-byte sequence number"));
            if seq < self.next_recv_seq {
                self.dup_skipped += 1;
                continue;
            }
            if seq > self.next_recv_seq {
                return Err(FrameError::SequenceGap { expected: self.next_recv_seq, got: seq });
            }
            self.next_recv_seq += 1;
            break body;
        };
        match F::scan_body(body) {
            Some(frame) => Ok(frame),
            None => serde_json::from_slice(body).map_err(|e| FrameError::Malformed(e.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;
    use std::io::Cursor;

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    #[serde(tag = "type", rename_all = "snake_case")]
    enum Probe {
        Ping { n: u64 },
        Blob { data: String },
    }

    impl WireFrame for Probe {}

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn slice_by_8_equals_the_bytewise_loop_at_every_length_and_alignment() {
        fn bytewise(data: &[u8]) -> u32 {
            !data.iter().fold(0xFFFF_FFFFu32, |crc, &b| {
                CRC32_TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8)
            })
        }
        let block: Vec<u8> = (0..80u32).map(|i| (i.wrapping_mul(0x9E37_79B1) >> 24) as u8).collect();
        for offset in 0..8 {
            for len in 0..=64 {
                let data = &block[offset..offset + len];
                assert_eq!(crc32(data), bytewise(data), "offset {offset}, len {len}");
            }
        }
    }

    #[test]
    fn generic_frames_round_trip() {
        let frames = vec![Probe::Ping { n: 7 }, Probe::Blob { data: "x".repeat(1000) }];
        let mut buf = Vec::new();
        for f in &frames {
            write_frame(&mut buf, f).unwrap();
        }
        let mut cur = Cursor::new(buf);
        for f in &frames {
            assert_eq!(&read_frame::<Probe>(&mut cur).unwrap(), f);
        }
    }

    #[test]
    fn oversized_write_is_rejected_before_hitting_the_wire() {
        let mut buf = Vec::new();
        let huge = Probe::Blob { data: "y".repeat(MAX_FRAME_BYTES + 1) };
        let err = write_frame(&mut buf, &huge).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(buf.is_empty(), "nothing may be written for an oversized frame");
    }

    #[test]
    fn oversized_length_prefix_is_invalid_data_without_allocating() {
        let buf = u32::MAX.to_be_bytes().to_vec();
        let err = read_frame::<Probe>(&mut Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn lying_length_prefix_costs_a_short_read_not_an_allocation() {
        // prefix claims 1 MiB but only 3 bytes follow: must surface as
        // UnexpectedEof without ever allocating the full claimed size
        let mut buf = (1_048_576u32).to_be_bytes().to_vec();
        buf.extend_from_slice(b"abc");
        let err = read_frame::<Probe>(&mut Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn a_lying_v2_length_prefix_costs_a_short_read_not_an_allocation() {
        let mut wire = (1_048_576u32).to_be_bytes().to_vec();
        wire.extend_from_slice(b"abc");
        let mut rx = Framed::new(Cursor::new(wire));
        rx.upgrade();
        let err = rx.recv::<Probe>().unwrap_err();
        assert!(
            matches!(&err, FrameError::Io(e) if e.kind() == io::ErrorKind::UnexpectedEof),
            "got {err}"
        );
        assert!(rx.rx.capacity() <= KEEP_BYTES, "the prefix was trusted with {}", rx.rx.capacity());
    }

    #[test]
    fn one_large_frame_does_not_pin_its_buffers_for_the_connections_life() {
        let mut framed = Framed::new(Cursor::new(Vec::new()));
        framed.upgrade();
        framed.send(&Probe::Blob { data: "x".repeat(4 * KEEP_BYTES) }).unwrap();
        framed.send(&Probe::Ping { n: 1 }).unwrap();
        assert!(framed.tx.capacity() <= KEEP_BYTES, "tx keeps {}", framed.tx.capacity());
        framed.get_mut().set_position(0);
        assert!(matches!(framed.recv::<Probe>().unwrap(), Probe::Blob { .. }));
        assert!(framed.rx.capacity() <= KEEP_BYTES, "rx keeps {}", framed.rx.capacity());
        assert_eq!(framed.recv::<Probe>().unwrap(), Probe::Ping { n: 1 });
        // small frames keep reusing what they grew
        let (tx, rx) = (framed.tx.capacity(), framed.rx.capacity());
        assert!(tx > 0 && rx > 0);
        let end = framed.get_ref().position();
        framed.send(&Probe::Ping { n: 2 }).unwrap();
        framed.get_mut().set_position(end);
        assert_eq!(framed.recv::<Probe>().unwrap(), Probe::Ping { n: 2 });
        assert_eq!((framed.tx.capacity(), framed.rx.capacity()), (tx, rx));
    }

    #[test]
    fn truncated_body_is_an_eof_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Probe::Ping { n: 1 }).unwrap();
        buf.truncate(buf.len() - 2);
        let err = read_frame::<Probe>(&mut Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn malformed_json_is_invalid_data() {
        let body = b"{ not json";
        let mut buf = (body.len() as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(body);
        let err = read_frame::<Probe>(&mut Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// Run `frames` against a fresh in-memory sender, return the wire bytes.
    fn pipe(v2: bool, frames: impl FnOnce(&mut Framed<Cursor<Vec<u8>>>)) -> Vec<u8> {
        let mut tx = Framed::new(Cursor::new(Vec::new()));
        if v2 {
            tx.upgrade();
        }
        frames(&mut tx);
        tx.get_ref().get_ref().clone()
    }

    #[test]
    fn v2_frames_round_trip_with_sequence_and_crc() {
        let wire = pipe(true, |tx| {
            tx.send(&Probe::Ping { n: 1 }).unwrap();
            tx.send(&Probe::Blob { data: "abc".into() }).unwrap();
        });
        let mut rx = Framed::new(Cursor::new(wire));
        rx.upgrade();
        assert_eq!(rx.recv::<Probe>().unwrap(), Probe::Ping { n: 1 });
        assert_eq!(rx.recv::<Probe>().unwrap(), Probe::Blob { data: "abc".into() });
        assert_eq!(rx.dup_frames_skipped(), 0);
    }

    #[test]
    fn v2_receiver_skips_duplicated_frames_by_sequence() {
        let frame0 = pipe(true, |tx| tx.send(&Probe::Ping { n: 1 }).unwrap());
        let frame1 = pipe(true, |tx| {
            tx.next_send_seq = 1;
            tx.send(&Probe::Ping { n: 2 }).unwrap();
        });
        // frame 0 twice on the wire (dup injection), then frame 1
        let mut wire = frame0.clone();
        wire.extend_from_slice(&frame0);
        wire.extend_from_slice(&frame1);
        let mut rx = Framed::new(Cursor::new(wire));
        rx.upgrade();
        assert_eq!(rx.recv::<Probe>().unwrap(), Probe::Ping { n: 1 });
        assert_eq!(rx.recv::<Probe>().unwrap(), Probe::Ping { n: 2 });
        assert_eq!(rx.dup_frames_skipped(), 1);
    }

    #[test]
    fn v2_detects_a_flipped_body_byte_as_checksum_mismatch() {
        let mut wire = pipe(true, |tx| {
            tx.send(&Probe::Blob { data: "payload".into() }).unwrap();
        });
        let mid = wire.len() / 2;
        wire[mid] ^= 0x55;
        let mut rx = Framed::new(Cursor::new(wire));
        rx.upgrade();
        let err = rx.recv::<Probe>().unwrap_err();
        assert!(matches!(err, FrameError::ChecksumMismatch { .. }), "got {err}");
        let io_err: io::Error = err.into();
        assert_eq!(io_err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn v2_detects_a_sequence_gap() {
        let wire = pipe(true, |tx| {
            tx.next_send_seq = 3; // frames 0..3 went missing
            tx.send(&Probe::Ping { n: 9 }).unwrap();
        });
        let mut rx = Framed::new(Cursor::new(wire));
        rx.upgrade();
        let err = rx.recv::<Probe>().unwrap_err();
        assert!(matches!(err, FrameError::SequenceGap { expected: 0, got: 3 }), "got {err}");
    }

    #[test]
    fn v1_mode_of_framed_matches_the_free_functions_byte_for_byte() {
        let frame = Probe::Blob { data: "interop".into() };
        let mut via_free = Vec::new();
        write_frame(&mut via_free, &frame).unwrap();
        let via_framed = pipe(false, |tx| tx.send(&frame).unwrap());
        assert_eq!(via_free, via_framed);
    }
}
