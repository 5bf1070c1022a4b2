//! Flight recorder: a bounded ring of recent serve events, dumped as
//! validated JSON when something goes wrong.
//!
//! The serving scheduler appends every interesting event — admission,
//! batch formation, launch, fault, retry, breaker transition, retirement —
//! to a fixed-capacity ring on the *simulated* clock. The ring is cheap
//! enough to keep always-on; when an anomaly trips a trigger (breaker
//! trip, deadline-expiry burst, SLO burn, panic, a firing alert), the
//! preceding window is dumped to disk so the anomaly ships with its own
//! context instead of a bare counter.
//!
//! Dumps are a pure function of recorder state: event times come from the
//! simulated clock, sequence numbers from an internal counter, filenames
//! from a per-recorder dump counter. Two zero-noise runs of the same
//! workload therefore produce byte-identical dump files — pinned by the
//! CI determinism gate.

use crate::json;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Attributes one event can carry (`launch` carries the most).
pub const MAX_ATTRS: usize = 5;

/// One attribute value. Recording stores the number; the text a dump shows
/// is produced only when the dump is rendered.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    U64(u64),
    /// A float rendered with this many decimals (`{:.3}` for simulated ms).
    F64(f64, u8),
    Static(&'static str),
    /// Owned text, for the rare free-form strings (breaker detail, alert
    /// rule names) and the string-attr [`FlightRecorder::record`] path.
    Text(String),
}

/// One recorded event on the simulated clock.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightEvent {
    /// Simulated time of the event, ms.
    pub at_ms: f64,
    /// Monotonic sequence number (never reset, survives ring eviction).
    pub seq: u64,
    /// Event kind, e.g. `admit`, `launch`, `breaker`, `panic`.
    pub kind: &'static str,
    attrs: [Option<(&'static str, AttrValue)>; MAX_ATTRS],
}

impl FlightEvent {
    /// Key/value detail, in recording order.
    pub fn attrs(&self) -> impl Iterator<Item = &(&'static str, AttrValue)> {
        self.attrs.iter().flatten()
    }
}

/// Bounded ring buffer of [`FlightEvent`]s with triggered JSON dumps.
#[derive(Debug)]
pub struct FlightRecorder {
    cap: usize,
    ring: VecDeque<FlightEvent>,
    next_seq: u64,
    /// Events evicted by the capacity bound since the start of the run.
    dropped: u64,
    /// Dumps taken so far — numbers the dump files.
    dumps: usize,
}

impl FlightRecorder {
    /// A recorder holding the most recent `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(1);
        FlightRecorder {
            cap,
            ring: VecDeque::with_capacity(cap.min(1024)),
            next_seq: 0,
            dropped: 0,
            dumps: 0,
        }
    }

    pub fn capacity(&self) -> usize {
        self.cap
    }

    pub fn len(&self) -> usize {
        self.ring.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Events evicted by the capacity bound so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Dumps taken so far.
    pub fn dumps(&self) -> usize {
        self.dumps
    }

    /// Append one event at simulated time `at_ms`, evicting the oldest
    /// event once the ring is full. Allocates nothing unless a value is
    /// [`AttrValue::Text`].
    pub fn event(
        &mut self,
        at_ms: f64,
        kind: &'static str,
        attrs: impl IntoIterator<Item = (&'static str, AttrValue)>,
    ) {
        if self.ring.len() == self.cap {
            self.ring.pop_front();
            self.dropped += 1;
        }
        let mut ev = FlightEvent {
            at_ms,
            seq: self.next_seq,
            kind,
            attrs: Default::default(),
        };
        let mut slots = ev.attrs.iter_mut();
        for attr in attrs {
            *slots
                .next()
                .expect("a flight event carries at most MAX_ATTRS attributes") = Some(attr);
        }
        self.ring.push_back(ev);
        self.next_seq += 1;
    }

    /// [`FlightRecorder::event`] for callers holding their values as text.
    pub fn record(&mut self, at_ms: f64, kind: &'static str, attrs: &[(&'static str, String)]) {
        let attrs = attrs.iter().map(|(k, v)| (*k, AttrValue::Text(v.clone())));
        self.event(at_ms, kind, attrs);
    }

    /// The retained window, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &FlightEvent> {
        self.ring.iter()
    }

    /// Render the retained window as one JSON document (with a trailing
    /// newline). `dump_index` is the number baked into the document so a
    /// rendered-but-not-written dump matches what [`FlightRecorder::dump`]
    /// would produce.
    pub fn to_json(&self, trigger: &str, dump_index: usize) -> String {
        let mut out = String::new();
        out.push('{');
        json::write_key(&mut out, "trigger");
        json::write_str(&mut out, trigger);
        out.push(',');
        json::write_key(&mut out, "dump");
        out.push_str(&dump_index.to_string());
        out.push(',');
        json::write_key(&mut out, "dropped");
        out.push_str(&self.dropped.to_string());
        out.push(',');
        json::write_key(&mut out, "events");
        out.push('[');
        for (i, ev) in self.ring.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            json::write_key(&mut out, "at_ms");
            json::write_f64(&mut out, ev.at_ms);
            out.push(',');
            json::write_key(&mut out, "seq");
            out.push_str(&ev.seq.to_string());
            out.push(',');
            json::write_key(&mut out, "kind");
            json::write_str(&mut out, ev.kind);
            out.push(',');
            json::write_key(&mut out, "attrs");
            out.push('{');
            for (j, (k, v)) in ev.attrs().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                json::write_key(&mut out, k);
                match v {
                    // digits, sign, '.', "NaN"/"inf": nothing to escape
                    AttrValue::U64(n) => write!(out, "\"{n}\"").expect("write to a String"),
                    AttrValue::F64(x, decimals) => {
                        let decimals = usize::from(*decimals);
                        write!(out, "\"{x:.decimals$}\"").expect("write to a String")
                    }
                    AttrValue::Static(s) => json::write_str(&mut out, s),
                    AttrValue::Text(s) => json::write_str(&mut out, s),
                }
            }
            out.push('}');
            out.push('}');
        }
        out.push(']');
        out.push('}');
        out.push('\n');
        out
    }

    /// Dump the retained window to `dir/dump-NNNNNN-<trigger>.json`,
    /// creating `dir` as needed, and return the file path. The document is
    /// validated before it is written — a dump that fails its own
    /// validation is a bug, surfaced as `InvalidData` instead of a corrupt
    /// file on disk.
    pub fn dump(&mut self, dir: &Path, trigger: &str) -> std::io::Result<PathBuf> {
        let body = self.to_json(trigger, self.dumps);
        if let Err(e) = json::validate(&body) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("flight-recorder dump failed self-validation: {e}"),
            ));
        }
        std::fs::create_dir_all(dir)?;
        let slug: String = trigger
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        let path = dir.join(format!("dump-{:06}-{}.json", self.dumps, slug));
        let mut f = std::fs::File::create(&path)?;
        f.write_all(body.as_bytes())?;
        self.dumps += 1;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "unigpu-recorder-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn ring_is_bounded_and_keeps_the_most_recent_window() {
        let mut r = FlightRecorder::new(3);
        for i in 0..5 {
            r.record(i as f64, "tick", &[("i", i.to_string())]);
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let seqs: Vec<u64> = r.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4], "oldest evicted, seq survives");
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut r = FlightRecorder::new(0);
        assert_eq!(r.capacity(), 1);
        r.record(0.0, "a", &[]);
        r.record(1.0, "b", &[]);
        assert_eq!(r.len(), 1);
        assert_eq!(r.events().next().unwrap().kind, "b");
    }

    #[test]
    fn dump_writes_validated_json_and_numbers_files() {
        let dir = temp_dir("dump");
        let mut r = FlightRecorder::new(8);
        r.record(1.5, "admit", &[("id", "0".into())]);
        r.record(2.0, "launch", &[("slot", "0".into()), ("n", "1".into())]);
        let p0 = r.dump(&dir, "breaker_trip").expect("dump 0");
        let p1 = r.dump(&dir, "alert:p99").expect("dump 1");
        assert!(p0
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .starts_with("dump-000000-breaker_trip"));
        assert!(
            p1.file_name()
                .unwrap()
                .to_str()
                .unwrap()
                .starts_with("dump-000001-alert_p99"),
            "trigger is slugged into the filename"
        );
        for p in [&p0, &p1] {
            let text = std::fs::read_to_string(p).expect("read dump");
            json::validate(text.trim_end()).expect("valid JSON on disk");
            assert!(text.ends_with('\n'));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dumps_are_a_pure_function_of_state() {
        let mut a = FlightRecorder::new(4);
        let mut b = FlightRecorder::new(4);
        for r in [&mut a, &mut b] {
            for i in 0..6 {
                r.record(i as f64 * 0.5, "ev", &[("i", i.to_string())]);
            }
        }
        assert_eq!(
            a.to_json("t", 0),
            b.to_json("t", 0),
            "identical event streams render byte-identically"
        );
    }

    #[test]
    fn typed_events_render_exactly_like_their_string_form() {
        let (done, value, lane) = (829.8984375_f64, 0.123456789_f64, 3_usize);
        let mut text = FlightRecorder::new(4);
        let mut typed = FlightRecorder::new(4);
        text.record(
            1.5,
            "launch",
            &[
                ("lane", lane.to_string()),
                ("done", format!("{done:.3}")),
                ("value", format!("{value:.6}")),
                ("device", "gpu".into()),
                ("detail", "3 fault(s); \"cooling\" down".into()),
            ],
        );
        typed.event(
            1.5,
            "launch",
            [
                ("lane", AttrValue::U64(lane as u64)),
                ("done", AttrValue::F64(done, 3)),
                ("value", AttrValue::F64(value, 6)),
                ("device", AttrValue::Static("gpu")),
                (
                    "detail",
                    AttrValue::Text("3 fault(s); \"cooling\" down".into()),
                ),
            ],
        );
        text.record(2.0, "slo_burn", &[]);
        typed.event(2.0, "slo_burn", []);
        assert_eq!(text.to_json("t", 0), typed.to_json("t", 0));
        assert!(typed.to_json("t", 0).contains("\"done\":\"829.898\""));
        assert_eq!(typed.events().next().unwrap().attrs().count(), MAX_ATTRS);
    }

    #[test]
    fn hostile_attr_strings_stay_valid_json() {
        let mut r = FlightRecorder::new(2);
        r.record(
            0.0,
            "weird\"kind\n",
            &[("k\\ey", "v\u{1}alue".into()), ("", "".into())],
        );
        let body = r.to_json("tr\"igger", 7);
        json::validate(body.trim_end()).expect("escaping holds under hostile input");
        assert!(body.contains("\"dump\":7"));
    }
}
