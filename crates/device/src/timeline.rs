//! Execution timeline: the simulated device's streams, one lane per serving
//! worker, with every launched batch placed on the simulated clock.

use crate::DeviceFault;

/// What a [`StreamEvent`] is called. The serving scheduler schedules one
/// event per launch, so its two labels are stored as their parts (no text is
/// built until the trace is exported) and an event stays a few words long.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamLabel {
    Text(String),
    /// A launched batch: `batch{index}[{len}]`, with `@cpu` appended when it
    /// ran on the CPU-degraded variant.
    Batch { index: usize, len: usize, on_cpu: bool },
    /// A failed launch occupying its lane: `fault{index}[{fault}]`.
    Fault { index: usize, fault: DeviceFault },
}

impl std::fmt::Display for StreamLabel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamLabel::Text(s) => f.write_str(s),
            StreamLabel::Batch { index, len, on_cpu } => {
                write!(f, "batch{index}[{len}]{}", if *on_cpu { "@cpu" } else { "" })
            }
            StreamLabel::Fault { index, fault } => write!(f, "fault{index}[{fault}]"),
        }
    }
}

impl From<String> for StreamLabel {
    fn from(s: String) -> Self {
        StreamLabel::Text(s)
    }
}

impl From<&str> for StreamLabel {
    fn from(s: &str) -> Self {
        StreamLabel::Text(s.to_string())
    }
}

/// One event scheduled on a stream of a [`MultiTimeline`].
#[derive(Debug, Clone)]
pub struct StreamEvent {
    pub name: StreamLabel,
    pub stream: usize,
    pub start_ms: f64,
    pub duration_ms: f64,
}

/// A set of independent execution streams over one simulated device — the
/// multi-queue view a serving engine sees (one lane per worker/stream).
///
/// Events are priced by the caller (e.g. a whole-graph latency estimate)
/// and placed with explicit readiness constraints: an event starts no
/// earlier than both its `ready_ms` (request arrival / dependency) and the
/// stream's previous completion.
#[derive(Debug, Clone)]
pub struct MultiTimeline {
    free_at: Vec<f64>,
    events: Vec<StreamEvent>,
}

impl MultiTimeline {
    /// A timeline with `streams` independent lanes, all idle at t = 0.
    pub fn new(streams: usize) -> Self {
        MultiTimeline { free_at: vec![0.0; streams.max(1)], events: Vec::new() }
    }

    pub fn streams(&self) -> usize {
        self.free_at.len()
    }

    /// Simulated time at which `stream` finishes its queued work.
    pub fn free_at(&self, stream: usize) -> f64 {
        self.free_at[stream]
    }

    /// The stream that frees up earliest (ties break to the lowest index).
    pub fn least_loaded(&self) -> usize {
        self.free_at
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// The lowest-index stream already free at `now_ms`, or `None` when
    /// every stream is still busy — the event-driven scheduler's "is a
    /// lane free right now" probe (vs. [`MultiTimeline::least_loaded`],
    /// which always answers with the earliest-freeing lane).
    pub fn first_free_at(&self, now_ms: f64) -> Option<usize> {
        self.free_at.iter().position(|&f| f <= now_ms)
    }

    /// Schedule an event on `stream`: it starts at
    /// `max(ready_ms, free_at(stream))` and occupies the stream for
    /// `duration_ms`. Returns the start time.
    pub fn schedule(
        &mut self,
        stream: usize,
        name: impl Into<StreamLabel>,
        ready_ms: f64,
        duration_ms: f64,
    ) -> f64 {
        let start = self.free_at[stream].max(ready_ms);
        self.free_at[stream] = start + duration_ms;
        self.events.push(StreamEvent {
            name: name.into(),
            stream,
            start_ms: start,
            duration_ms,
        });
        start
    }

    /// Completion time of the last-finishing stream.
    pub fn makespan_ms(&self) -> f64 {
        self.free_at.iter().copied().fold(0.0, f64::max)
    }

    /// Fraction of the makespan `stream` spent busy (0 when nothing ran).
    pub fn utilization(&self, stream: usize) -> f64 {
        let total = self.makespan_ms();
        if total <= 0.0 {
            return 0.0;
        }
        self.busy_ms(stream) / total
    }

    /// Total simulated time `stream` spent executing events.
    pub fn busy_ms(&self, stream: usize) -> f64 {
        self.events
            .iter()
            .filter(|e| e.stream == stream)
            .map(|e| e.duration_ms)
            .sum()
    }

    /// Per-stream utilization over the makespan, one entry per lane.
    pub fn utilizations(&self) -> Vec<f64> {
        (0..self.streams()).map(|s| self.utilization(s)).collect()
    }

    /// Fraction of total device capacity (`streams × makespan`) spent idle:
    /// `1 − Σ busy / (streams · makespan)`. Zero when nothing ran — an empty
    /// device has no observed capacity to be idle over.
    pub fn idle_fraction(&self) -> f64 {
        let total = self.makespan_ms();
        if total <= 0.0 {
            return 0.0;
        }
        let busy: f64 = self.events.iter().map(|e| e.duration_ms).sum();
        (1.0 - busy / (self.streams() as f64 * total)).clamp(0.0, 1.0)
    }

    /// Scheduled events in scheduling order.
    pub fn events(&self) -> &[StreamEvent] {
        &self.events
    }

    /// Export every stream as its own Chrome-trace lane (`tid = base_lane +
    /// stream`), named `stream N`.
    pub fn add_to_trace(&self, trace: &mut unigpu_telemetry::ChromeTrace, base_lane: u32) {
        for s in 0..self.streams() {
            trace.name_lane(base_lane + s as u32, format!("stream {s}"));
        }
        for e in &self.events {
            trace.duration(
                e.name.to_string(),
                "stream",
                e.start_ms * 1000.0,
                e.duration_ms * 1000.0,
                base_lane + e.stream as u32,
                vec![],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multi_timeline_respects_readiness_and_stream_order() {
        let mut mt = MultiTimeline::new(2);
        // stream 0: two back-to-back events; the second queues behind the first
        assert_eq!(mt.schedule(0, "a", 0.0, 5.0), 0.0);
        assert_eq!(mt.schedule(0, "b", 2.0, 3.0), 5.0, "waits for stream, not readiness");
        // stream 1 is independent, but readiness still gates the start
        assert_eq!(mt.schedule(1, "c", 4.0, 1.0), 4.0);
        assert_eq!(mt.free_at(0), 8.0);
        assert_eq!(mt.free_at(1), 5.0);
        assert_eq!(mt.makespan_ms(), 8.0);
        assert_eq!(mt.least_loaded(), 1);
        assert_eq!(mt.events().len(), 3);
    }

    #[test]
    fn multi_timeline_utilization_and_trace_lanes() {
        let mut mt = MultiTimeline::new(2);
        mt.schedule(0, "x", 0.0, 4.0);
        mt.schedule(1, "y", 0.0, 2.0);
        assert!((mt.utilization(0) - 1.0).abs() < 1e-12);
        assert!((mt.utilization(1) - 0.5).abs() < 1e-12);
        let mut trace = unigpu_telemetry::ChromeTrace::new();
        mt.add_to_trace(&mut trace, 10);
        assert_eq!(trace.events().len(), 2);
        let json = trace.to_json();
        assert!(json.contains("\"tid\":10") && json.contains("\"tid\":11"), "{json}");
        assert!(json.contains("stream 0"));
    }

    #[test]
    fn typed_labels_render_like_their_text_form() {
        let mut mt = MultiTimeline::new(1);
        mt.schedule(0, format!("batch{}[{}]@cpu", 12, 4), 0.0, 1.0);
        mt.schedule(0, StreamLabel::Batch { index: 12, len: 4, on_cpu: true }, 0.0, 1.0);
        mt.schedule(0, StreamLabel::Batch { index: 13, len: 8, on_cpu: false }, 0.0, 1.0);
        mt.schedule(0, StreamLabel::Fault { index: 3, fault: DeviceFault::OutOfMemory }, 0.0, 1.0);
        let names: Vec<String> = mt.events().iter().map(|e| e.name.to_string()).collect();
        assert_eq!(names, ["batch12[4]@cpu", "batch12[4]@cpu", "batch13[8]", "fault3[oom]"]);
        assert!(std::mem::size_of::<StreamEvent>() <= 56, "one launch, seven words");
    }

    #[test]
    fn first_free_at_probes_the_current_instant() {
        let mut mt = MultiTimeline::new(2);
        assert_eq!(mt.first_free_at(0.0), Some(0), "all lanes idle: lowest index wins");
        mt.schedule(0, "a", 0.0, 5.0);
        assert_eq!(mt.first_free_at(0.0), Some(1), "lane 0 busy until 5.0");
        mt.schedule(1, "b", 0.0, 3.0);
        assert_eq!(mt.first_free_at(0.0), None, "both lanes busy");
        assert_eq!(mt.first_free_at(3.0), Some(1), "lane 1 frees first");
        assert_eq!(mt.first_free_at(5.0), Some(0), "ties break to the lowest index");
    }

    #[test]
    fn multi_timeline_zero_streams_clamps_to_one() {
        let mt = MultiTimeline::new(0);
        assert_eq!(mt.streams(), 1);
        assert_eq!(mt.least_loaded(), 0);
        assert_eq!(mt.utilization(0), 0.0);
        assert_eq!(mt.idle_fraction(), 0.0, "no capacity observed, no idleness");
    }

    #[test]
    fn idle_fraction_complements_mean_utilization() {
        let mut mt = MultiTimeline::new(2);
        mt.schedule(0, "x", 0.0, 4.0); // lane 0 busy 4/4
        mt.schedule(1, "y", 0.0, 2.0); // lane 1 busy 2/4
        assert_eq!(mt.busy_ms(0), 4.0);
        assert_eq!(mt.busy_ms(1), 2.0);
        let utils = mt.utilizations();
        assert_eq!(utils.len(), 2);
        let mean = utils.iter().sum::<f64>() / utils.len() as f64;
        assert!((mt.idle_fraction() - (1.0 - mean)).abs() < 1e-12);
        assert!((mt.idle_fraction() - 0.25).abs() < 1e-12);
    }
}
