//! The benchmark's own span tracer.
//!
//! Every call from a workload into a layer's public function goes through
//! [`Tracer::span`]. With tracing off (`--trace 0`, where the host-clock
//! end-to-end metrics are measured) that is one branch; with it on each call
//! records name, start, end and parent in memory. At exit the spans become
//! the per-layer metrics and a Chrome-trace file. Spans *inside* the crates
//! are a later change (README, "Traced run").
//!
//! A span's layer is the part of its name before the first `.`
//! (`engine.submit` belongs to `engine`); a layer's self time is the time of
//! its spans minus the time of their child spans.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Request id, on spans that serve one request.
    pub request: Option<u64>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct State {
    spans: Vec<Span>,
    /// Indices of the spans currently open, innermost last.
    open: Vec<usize>,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    state: RefCell<State>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            state: RefCell::new(State {
                spans: Vec::new(),
                open: Vec::new(),
            }),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f`, recorded as a span named `name` when tracing is on.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span_inner(name, None, f)
    }

    /// [`Tracer::span`] for a call that serves request `id`.
    pub fn request_span<R>(&self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        self.span_inner(name, Some(id), f)
    }

    fn span_inner<R>(&self, name: &'static str, request: Option<u64>, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let index = {
            let mut st = self.state.borrow_mut();
            let index = st.spans.len();
            let parent = st.open.last().copied();
            let start_ns = self.epoch.elapsed().as_nanos() as u64;
            st.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                request,
            });
            st.open.push(index);
            index
        };
        let out = f();
        let mut st = self.state.borrow_mut();
        st.spans[index].end_ns = self.epoch.elapsed().as_nanos() as u64;
        st.open.pop();
        out
    }

    pub fn len(&self) -> usize {
        self.state.borrow().spans.len()
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.state
            .borrow()
            .spans
            .iter()
            .filter(|s| s.name == name)
            .count()
    }

    /// Total time of the spans named `name`, ns.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.state
            .borrow()
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .sum()
    }

    /// Mean time of the spans named `name`, ns; 0 when there are none.
    pub fn mean_ns(&self, name: &str) -> f64 {
        match self.count(name) {
            0 => 0.0,
            n => self.total_ns(name) / n as f64,
        }
    }

    /// Self time per layer, ms: each span's time minus its children's,
    /// summed over the layer's spans.
    pub fn layer_self_ms(&self) -> BTreeMap<&'static str, f64> {
        let st = self.state.borrow();
        let mut child_ns = vec![0u64; st.spans.len()];
        for s in &st.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut by_layer = BTreeMap::new();
        for (s, children) in st.spans.iter().zip(&child_ns) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *by_layer.entry(layer).or_insert(0.0) +=
                s.dur_ns().saturating_sub(*children) as f64 / 1e6;
        }
        by_layer
    }

    /// The spans as Chrome trace-event JSON (`chrome://tracing`, Perfetto):
    /// one complete event per span, lane per layer, parent and request id in
    /// `args`.
    pub fn to_chrome_json(&self, workload: &str) -> String {
        let st = self.state.borrow();
        let mut lanes: Vec<&str> = Vec::new();
        let mut out = String::with_capacity(st.spans.len() * 120 + 64);
        out.push_str("{\"traceEvents\":[");
        for (i, s) in st.spans.iter().enumerate() {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let lane = match lanes.iter().position(|l| *l == layer) {
                Some(lane) => lane,
                None => {
                    lanes.push(layer);
                    lanes.len() - 1
                }
            };
            if i > 0 {
                out.push(',');
            }
            // Span names are identifiers from this crate: no escaping needed.
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{layer}\",\"ph\":\"X\",\"pid\":1,\"tid\":{lane},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"workload\":\"{workload}\"",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            if let Some(r) = s.request {
                let _ = write!(out, ",\"request\":{r}");
            }
            out.push_str("}}");
        }
        for (lane, layer) in lanes.iter().enumerate() {
            let _ = write!(
                out,
                ",{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{lane},\"args\":{{\"name\":\"{layer}\"}}}}"
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < us as u128 {}
    }

    #[test]
    fn disabled_tracer_records_nothing_and_returns_the_value() {
        let t = Tracer::new(false);
        assert_eq!(t.span("engine.compile", || 42), 42);
        assert_eq!(t.len(), 0);
        assert_eq!(t.mean_ns("engine.compile"), 0.0);
    }

    #[test]
    fn nesting_sets_parents_and_self_time_excludes_children() {
        let t = Tracer::new(true);
        t.span("engine.compile", || {
            spin(300);
            t.span("graph.fuse", || spin(500));
            t.request_span("graph.place", 9, || spin(200));
        });
        assert_eq!(t.len(), 3);
        assert_eq!(t.count("graph.fuse"), 1);
        let st = t.state.borrow();
        assert_eq!(st.spans[0].parent, None);
        assert_eq!(st.spans[1].parent, Some(0));
        assert_eq!(st.spans[2].parent, Some(0));
        assert_eq!(st.spans[2].request, Some(9));
        drop(st);
        let layers = t.layer_self_ms();
        let engine = layers["engine"];
        let graph = layers["graph"];
        assert!((0.3..0.6).contains(&engine), "engine self {engine} ms");
        assert!(graph >= 0.7, "graph self {graph} ms");
        let total = t.total_ns("engine.compile") / 1e6;
        assert!(
            (engine + graph - total).abs() < 0.05,
            "self times sum to the root span"
        );
    }

    #[test]
    fn chrome_export_is_valid_json_with_one_event_per_span() {
        let t = Tracer::new(true);
        t.span("fleet.route", || t.request_span("engine.submit", 3, || ()));
        let json = t.to_chrome_json("fleet_wire");
        let doc: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        let events = doc["traceEvents"].as_array().unwrap();
        assert_eq!(
            events
                .iter()
                .filter(|e| e["ph"].as_str() == Some("X"))
                .count(),
            2
        );
        assert_eq!(events[1]["args"]["parent"].as_u64(), Some(0));
        assert_eq!(events[1]["args"]["request"].as_u64(), Some(3));
        assert_eq!(events[1]["args"]["workload"].as_str(), Some("fleet_wire"));
    }
}
