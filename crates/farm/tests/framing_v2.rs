//! Framing edge cases and v1↔v2 interop: segmented reads, the exact
//! MAX_FRAME_BYTES boundary from both sides, and mixed-version peers over
//! the live farm protocol.

use std::io::{self, Cursor, Read, Write};
use std::net::TcpStream;

use serde::{Deserialize, Serialize};
use unigpu_farm::framing::FrameError;
use unigpu_farm::{
    read_frame, write_frame, Frame, Framed, Tracker, TrackerConfig, WireFrame, FRAMING_VERSION,
    MAX_FRAME_BYTES,
};

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Blob {
    data: String,
}

impl WireFrame for Blob {}

/// A blob whose serialized JSON body is exactly `body_len` bytes.
fn blob_of_body_len(body_len: usize) -> Blob {
    let overhead = serde_json::to_vec(&Blob { data: String::new() })
        .expect("empty blob serializes")
        .len();
    Blob { data: "z".repeat(body_len - overhead) }
}

/// A transport that hands back at most one byte per `read` call — the
/// worst-case TCP segmentation a frame reader must survive.
struct OneByteAtATime<S>(S);

impl<S: Read> Read for OneByteAtATime<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        self.0.read(&mut buf[..1])
    }
}

impl<S: Write> Write for OneByteAtATime<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.write(buf)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

#[test]
fn both_formats_survive_a_byte_at_a_time_reader() {
    let frames = vec![
        Blob { data: "first".into() },
        Blob { data: "x".repeat(70_000) }, // bigger than any buffer a reader might use
        Blob { data: String::new() },
    ];
    for v2 in [false, true] {
        let mut tx = Framed::new(Cursor::new(Vec::new()));
        if v2 {
            tx.upgrade();
        }
        for f in &frames {
            tx.send(f).expect("send succeeds");
        }
        let wire = tx.get_ref().get_ref().clone();
        let mut rx = Framed::new(OneByteAtATime(Cursor::new(wire)));
        if v2 {
            rx.upgrade();
        }
        for f in &frames {
            assert_eq!(&rx.recv::<Blob>().expect("recv succeeds"), f, "v2={v2}");
        }
    }
}

#[test]
fn a_body_of_exactly_max_frame_bytes_round_trips() {
    let blob = blob_of_body_len(MAX_FRAME_BYTES);
    for v2 in [false, true] {
        let mut tx = Framed::new(Cursor::new(Vec::new()));
        if v2 {
            tx.upgrade();
        }
        tx.send(&blob).expect("a frame at the cap is legal");
        let wire = tx.get_ref().get_ref().clone();
        let mut rx = Framed::new(Cursor::new(wire));
        if v2 {
            rx.upgrade();
        }
        assert_eq!(rx.recv::<Blob>().expect("recv at the cap"), blob, "v2={v2}");
    }
}

#[test]
fn one_byte_over_the_cap_is_rejected_on_the_write_side() {
    let blob = blob_of_body_len(MAX_FRAME_BYTES + 1);
    for v2 in [false, true] {
        let mut tx = Framed::new(Cursor::new(Vec::new()));
        if v2 {
            tx.upgrade();
        }
        match tx.send(&blob) {
            Err(FrameError::TooLarge(n)) => assert_eq!(n, MAX_FRAME_BYTES + 1),
            other => panic!("expected TooLarge, got {other:?} (v2={v2})"),
        }
        assert!(
            tx.get_ref().get_ref().is_empty(),
            "an oversized frame must not touch the wire (v2={v2})"
        );
    }
}

#[test]
fn one_byte_over_the_cap_is_rejected_on_the_read_side() {
    let prefix = ((MAX_FRAME_BYTES + 1) as u32).to_be_bytes().to_vec();
    for v2 in [false, true] {
        let mut rx = Framed::new(Cursor::new(prefix.clone()));
        if v2 {
            rx.upgrade();
        }
        match rx.recv::<Blob>() {
            Err(FrameError::TooLarge(n)) => assert_eq!(n, MAX_FRAME_BYTES + 1),
            other => panic!("expected TooLarge, got {other:?} (v2={v2})"),
        }
    }
}

#[test]
fn v1_and_v2_peers_interoperate_over_the_farm_protocol() {
    let handle = Tracker::spawn("127.0.0.1:0", TrackerConfig::default())
        .expect("tracker binds an ephemeral port");
    let addr = handle.addr().to_string();

    // A legacy peer registers without advertising a framing version; the
    // tracker must keep the whole connection in v1.
    let mut old = TcpStream::connect(&addr).unwrap();
    write_frame(
        &mut old,
        &Frame::Register {
            name: "old".into(),
            device: "legacy-dev".into(),
            framing: None,
            resume: None,
        },
    )
    .unwrap();
    let old_worker_id = match read_frame(&mut old).unwrap() {
        Frame::RegisterAck { worker_id, framing, .. } => {
            assert_eq!(framing, None, "a v1 peer must not be acked into v2");
            worker_id
        }
        other => panic!("expected RegisterAck, got {other:?}"),
    };
    // the connection still speaks plain v1 after the ack
    write_frame(&mut old, &Frame::RequestJob { worker_id: old_worker_id }).unwrap();
    match read_frame(&mut old).unwrap() {
        Frame::NoWork => {}
        other => panic!("v1 conn broken after ack: {other:?}"),
    }

    // A current peer negotiates v2 in the same hello exchange and both
    // sides switch immediately after the ack.
    let mut new = Framed::new(TcpStream::connect(&addr).unwrap());
    new.send(&Frame::Register {
        name: "new".into(),
        device: "modern-dev".into(),
        framing: Some(FRAMING_VERSION),
        resume: None,
    })
    .unwrap();
    let new_worker_id = match new.recv::<Frame>().unwrap() {
        Frame::RegisterAck { worker_id, framing, .. } => {
            assert_eq!(framing, Some(FRAMING_VERSION));
            worker_id
        }
        other => panic!("expected RegisterAck, got {other:?}"),
    };
    new.upgrade();
    new.send(&Frame::RequestJob { worker_id: new_worker_id }).unwrap();
    match new.recv::<Frame>().unwrap() {
        Frame::NoWork => {}
        other => panic!("v2 conn broken after upgrade: {other:?}"),
    }

    // both dialects served by the same tracker, interleaved
    write_frame(&mut old, &Frame::RequestJob { worker_id: old_worker_id }).unwrap();
    assert!(matches!(read_frame(&mut old).unwrap(), Frame::NoWork));
    handle.stop();
}
