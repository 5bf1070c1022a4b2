//! Execution timeline: a kernel-launch trace recorder for the simulated
//! device, mirroring the profiling view a real driver (VTune / Streamline /
//! nvprof) would give — per-kernel timing, launch counts, and a breakdown
//! report the examples and CLI print.

use crate::{CostModel, DeviceFault, KernelProfile};

/// One recorded launch.
#[derive(Debug, Clone)]
pub struct TraceEntry {
    pub name: String,
    pub start_ms: f64,
    pub duration_ms: f64,
    pub work_items: usize,
    pub launches: usize,
}

/// An append-only trace of kernel launches against one device, with the
/// simulated clock advanced per launch.
#[derive(Debug)]
pub struct Timeline {
    model: CostModel,
    clock_ms: f64,
    entries: Vec<TraceEntry>,
}

impl Timeline {
    pub fn new(model: CostModel) -> Self {
        Timeline { model, clock_ms: 0.0, entries: Vec::new() }
    }

    /// Record a launch: prices the profile, advances the clock, returns the
    /// launch duration.
    pub fn launch(&mut self, p: &KernelProfile) -> f64 {
        let d = self.model.kernel_time_ms(p);
        self.entries.push(TraceEntry {
            name: p.name.clone(),
            start_ms: self.clock_ms,
            duration_ms: d,
            work_items: p.work_items,
            launches: p.launches,
        });
        self.clock_ms += d;
        d
    }

    /// Total simulated time elapsed.
    pub fn elapsed_ms(&self) -> f64 {
        self.clock_ms
    }

    /// Number of recorded launches.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Recorded entries, in launch order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// The `k` most expensive launches, sorted by descending duration.
    pub fn hotspots(&self, k: usize) -> Vec<&TraceEntry> {
        let mut v: Vec<&TraceEntry> = self.entries.iter().collect();
        v.sort_by(|a, b| b.duration_ms.total_cmp(&a.duration_ms));
        v.truncate(k);
        v
    }

    /// Aggregate time per kernel-name prefix (text before `[`), as a sorted
    /// `(prefix, total_ms, count)` list — the profiler's summary view.
    pub fn summary(&self) -> Vec<(String, f64, usize)> {
        use std::collections::HashMap;
        let mut agg: HashMap<String, (f64, usize)> = HashMap::new();
        for e in &self.entries {
            let key = e.name.split('[').next().unwrap_or(&e.name).to_string();
            let slot = agg.entry(key).or_insert((0.0, 0));
            slot.0 += e.duration_ms;
            slot.1 += 1;
        }
        let mut v: Vec<(String, f64, usize)> =
            agg.into_iter().map(|(k, (t, c))| (k, t, c)).collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1));
        v
    }

    /// Export every recorded launch into a Chrome trace as duration events
    /// on `lane`, converting the simulated millisecond clock to trace
    /// microseconds. The lane is named after the device.
    pub fn add_to_trace(&self, trace: &mut unigpu_telemetry::ChromeTrace, lane: u32) {
        use unigpu_telemetry::ArgValue;
        trace.name_lane(lane, self.model.spec().name.clone());
        for e in &self.entries {
            trace.duration(
                e.name.clone(),
                "kernel",
                e.start_ms * 1000.0,
                e.duration_ms * 1000.0,
                lane,
                vec![
                    ("work_items".to_string(), ArgValue::Num(e.work_items as f64)),
                    ("launches".to_string(), ArgValue::Num(e.launches as f64)),
                ],
            );
        }
    }

    /// Render a compact text report.
    pub fn report(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "timeline: {} launches, {:.3} ms total on {}",
            self.len(),
            self.elapsed_ms(),
            self.model.spec().name
        );
        for (name, ms, count) in self.summary() {
            let _ = writeln!(
                s,
                "  {:<28} {:>10.3} ms  ({:>3} launches, {:>4.1}%)",
                name,
                ms,
                count,
                ms / self.elapsed_ms().max(1e-12) * 100.0
            );
        }
        s
    }
}

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
/// Unlike [`Timeline`], events are priced by the caller (e.g. a whole-graph
/// latency estimate) and placed with explicit readiness constraints: an
/// event starts no earlier than both its `ready_ms` (request arrival /
/// dependency) and the stream's previous completion.
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
    use crate::DeviceSpec;

    fn profile(name: &str, items: usize) -> KernelProfile {
        KernelProfile::new(name, items).flops(64.0).reads(8.0).writes(4.0)
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut t = Timeline::new(CostModel::new(DeviceSpec::intel_hd505()));
        let d1 = t.launch(&profile("conv2d[a]", 1 << 14));
        let d2 = t.launch(&profile("relu[a]", 1 << 14));
        assert!(d1 > 0.0 && d2 > 0.0);
        assert_eq!(t.len(), 2);
        assert!((t.elapsed_ms() - (d1 + d2)).abs() < 1e-12);
        assert_eq!(t.entries()[1].start_ms, d1);
    }

    #[test]
    fn hotspots_are_sorted_desc() {
        let mut t = Timeline::new(CostModel::new(DeviceSpec::mali_t860()));
        t.launch(&profile("small", 128));
        t.launch(&profile("big", 1 << 18));
        t.launch(&profile("medium", 1 << 12));
        let h = t.hotspots(2);
        assert_eq!(h[0].name, "big");
        assert_eq!(h.len(), 2);
        assert!(h[0].duration_ms >= h[1].duration_ms);
    }

    #[test]
    fn summary_groups_by_prefix() {
        let mut t = Timeline::new(CostModel::new(DeviceSpec::maxwell_nano()));
        t.launch(&profile("conv2d[layer1]", 1 << 12));
        t.launch(&profile("conv2d[layer2]", 1 << 12));
        t.launch(&profile("pool[p1]", 1 << 10));
        let s = t.summary();
        assert_eq!(s[0].0, "conv2d");
        assert_eq!(s[0].2, 2);
        let report = t.report();
        assert!(report.contains("conv2d"));
        assert!(report.contains("2 launches"), "conv2d line aggregates both launches");
    }

    #[test]
    fn hotspots_tolerate_nan_durations() {
        // A NaN cost (e.g. a degenerate profile) must not panic the sort.
        let mut t = Timeline::new(CostModel::new(DeviceSpec::intel_hd505()));
        t.launch(&profile("ok", 1 << 10));
        t.entries.push(TraceEntry {
            name: "nan[x]".into(),
            start_ms: t.clock_ms,
            duration_ms: f64::NAN,
            work_items: 1,
            launches: 1,
        });
        assert_eq!(t.hotspots(2).len(), 2);
        assert!(!t.summary().is_empty());
    }

    #[test]
    fn trace_export_matches_entries() {
        let mut t = Timeline::new(CostModel::new(DeviceSpec::mali_t860()));
        t.launch(&profile("conv2d[a]", 1 << 12));
        t.launch(&profile("pool[b]", 1 << 10));
        let mut trace = unigpu_telemetry::ChromeTrace::new();
        t.add_to_trace(&mut trace, 7);
        assert_eq!(trace.events().len(), 2);
        let json = trace.to_json();
        assert!(json.contains("\"tid\":7"));
        assert!(json.contains("conv2d[a]"));
        assert!(json.contains("Mali"), "lane named after the device: {json}");
    }

    #[test]
    fn empty_timeline() {
        let t = Timeline::new(CostModel::new(DeviceSpec::intel_hd505()));
        assert!(t.is_empty());
        assert_eq!(t.elapsed_ms(), 0.0);
        assert!(t.hotspots(3).is_empty());
    }

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
