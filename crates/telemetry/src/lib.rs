//! # unigpu-telemetry
//!
//! The observability layer of the stack: every other crate funnels its
//! profiling and progress signal through here, mirroring what TVM's
//! debug/profiling runtime and AutoTVM's tuning logs provide for the paper's
//! workflow (§3.2.3's hours-long search loops are unobservable without it).
//!
//! * [`span`] — scoped **spans** with key/value attributes and a thread-safe
//!   [`span::SpanRecorder`]. Spans carry explicit microsecond timestamps so
//!   both wall-clock execution (the functional [`Executor`]) and the
//!   simulated clock (the latency estimator, the device [`MultiTimeline`]) can
//!   feed the same recorder.
//! * [`metrics`] — a **metrics registry**: monotonic counters, gauges, and
//!   histograms with fixed log-scale buckets (log₂, covering nanoseconds to
//!   minutes when values are in milliseconds).
//! * [`log`] — a leveled **event logger** with an `UNIGPU_LOG` environment
//!   filter (`error|warn|info|debug|trace`, plus `target=level` overrides)
//!   and pluggable sinks: a pretty stderr sink and a JSONL file sink.
//! * [`chrome`] — a **Chrome trace-event JSON exporter** (`ph: "X"` duration
//!   and `ph: "C"` counter events in catapult format) loadable in
//!   `chrome://tracing` or <https://ui.perfetto.dev>.
//! * [`trace`] — deterministic **request-scoped trace contexts**
//!   (SplitMix64-derived ids, no RNG/clock) that spans carry across threads
//!   and the farm's TCP frames, stitching one request's queue/batch/retry/
//!   lease story back together in the Chrome export.
//! * [`slo`] — **SLO accounting** on caller-supplied (simulated or wall)
//!   clocks: windowed error rates, burn rate against the error budget,
//!   published as `*.slo.*` gauges.
//! * [`export`] — **metrics exposition**: Prometheus text format, a JSON
//!   variant, and a std-only TCP scrape endpoint ([`export::MetricsServer`]).
//! * [`drift`] — **cost-model drift monitoring**: mergeable Welford +
//!   log₂-bucket stats of predicted-vs-observed latency error and a
//!   miscalibration verdict.
//! * [`recorder`] — a **flight recorder**: an always-on bounded ring of
//!   recent serve events on the simulated clock, dumped as validated JSON
//!   when an anomaly trips a trigger.
//! * [`alert`] — a **deterministic alerting engine**: declarative
//!   `name:metric>value` threshold rules evaluated on the simulated clock
//!   against the registry, with fire/resolve hysteresis.
//! * [`hash`] — the workspace's one **FNV-1a** and one **SplitMix64**, behind
//!   every fingerprint, trace id and report digest, and its one seeded
//!   generator ([`hash::SplitMix64`]) behind random weights and tuner search.
//! * [`lock`] — **poison-recovering lock acquisition**, shared by every
//!   layer so one panicking thread can never wedge observability.
//!
//! This crate is intentionally dependency-free (std only) so it can sit
//! below `unigpu-device` in the workspace graph.
//!
//! [`Executor`]: https://docs.rs/unigpu-graph
//! [`MultiTimeline`]: https://docs.rs/unigpu-device

pub mod alert;
pub mod chrome;
pub mod drift;
pub mod export;
pub mod hash;
pub mod json;
pub mod lock;
pub mod log;
pub mod metrics;
pub mod recorder;
pub mod slo;
pub mod span;
pub mod trace;

pub use alert::{AlertEngine, AlertRule, AlertTransition, Cmp};
pub use chrome::{ArgValue, ChromeTrace, TraceEvent};
pub use drift::{DriftConfig, DriftMonitor, DriftStat, DriftSummary};
pub use export::{to_json, to_prometheus, MetricsServer};
pub use log::{JsonlSink, Level, LogRecord, LogSink, Logger, StderrSink};
pub use metrics::{
    CounterSlot, GaugeSlot, Histogram, HistogramSlot, HistogramSummary, MetricsGuard,
    MetricsRegistry, MetricsSnapshot,
};
pub use recorder::{AttrValue, FlightEvent, FlightRecorder};
pub use slo::{SloConfig, SloSummary, SloTracker};
pub use span::{SpanGuard, SpanRecord, SpanRecorder};
pub use trace::TraceContext;
