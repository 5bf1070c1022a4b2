//! Metrics registry: counters, gauges, and log-scale histograms.
//!
//! All handles are cheap clones of one shared registry, so the executor,
//! the tuner, and the CLI can update the same counters without plumbing
//! mutable references through every layer.

use crate::lock;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Number of log₂ buckets. With `BUCKET_LO = 1e-6`, bucket `i` covers
/// `[1e-6 · 2^i, 1e-6 · 2^(i+1))`, spanning ~1e-6 to ~2.8e8 — in
/// milliseconds that is one nanosecond to several minutes.
pub const BUCKETS: usize = 48;

/// Lower bound of bucket 0.
pub const BUCKET_LO: f64 = 1e-6;

/// Fixed log-scale histogram (log₂ buckets).
#[derive(Debug, Clone)]
pub struct Histogram {
    pub buckets: Vec<u64>,
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

/// Bucket index for a value (values ≤ `BUCKET_LO` land in bucket 0).
fn bucket_index(v: f64) -> usize {
    if v.is_nan() || v <= BUCKET_LO {
        return 0;
    }
    let idx = (v / BUCKET_LO).log2().floor();
    (idx as usize).min(BUCKETS - 1)
}

/// `[lo, hi)` bounds of bucket `i`.
pub fn bucket_bounds(i: usize) -> (f64, f64) {
    let lo = BUCKET_LO * (2f64).powi(i as i32);
    (lo, lo * 2.0)
}

impl Histogram {
    pub fn observe(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Approximate quantile from the bucket counts (geometric midpoint of
    /// the containing bucket; exact min/max at the extremes).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, hi) = bucket_bounds(i);
                return (lo * hi).sqrt().clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Fold another histogram into this one. Snapshots taken from
    /// different registries (per-worker, per-replica, per-process) merge
    /// exactly: bucket counts and sums add, extremes combine — the merged
    /// histogram is identical to one that observed both streams.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, &o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            mean: self.mean(),
            min: if self.count == 0 { 0.0 } else { self.min },
            max: if self.count == 0 { 0.0 } else { self.max },
            p50: self.quantile(0.5),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }
}

/// Point-in-time digest of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    pub count: u64,
    pub sum: f64,
    pub mean: f64,
    pub min: f64,
    pub max: f64,
    pub p50: f64,
    pub p95: f64,
    pub p99: f64,
}

/// The named cells of one metric kind. A name resolves to its slot once
/// ([`Table::slot`]); a cell stays `None`, and out of every read, until the
/// first write — so resolving slots up front changes no snapshot.
#[derive(Debug, Clone, Default)]
pub(crate) struct Table<T> {
    /// Name → index into `cells`; sorted, which orders snapshots.
    index: BTreeMap<String, usize>,
    cells: Vec<Option<T>>,
}

impl<T: Default> Table<T> {
    /// Looks the name up before allocating a key for it.
    pub(crate) fn slot(&mut self, name: &str) -> usize {
        if let Some(&slot) = self.index.get(name) {
            return slot;
        }
        let slot = self.cells.len();
        self.cells.push(None);
        self.index.insert(name.to_string(), slot);
        slot
    }

    /// The cell behind `slot`, created on this first write if need be.
    pub(crate) fn cell(&mut self, slot: usize) -> &mut T {
        self.cells[slot].get_or_insert_with(T::default)
    }

    fn get(&self, name: &str) -> Option<&T> {
        self.cells[*self.index.get(name)?].as_ref()
    }

    /// Written cells, sorted by name.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&String, &T)> {
        self.index
            .iter()
            .filter_map(|(name, &slot)| Some((name, self.cells[slot].as_ref()?)))
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: Table<u64>,
    gauges: Table<f64>,
    histograms: Table<Histogram>,
}

/// Thread-safe registry of named counters, gauges, and histograms.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<RegistryInner>>,
}

/// A counter resolved by [`MetricsRegistry::counter_slot`]. Slots index the
/// registry that issued them (and its clones) — nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterSlot(usize);

/// A gauge resolved by [`MetricsRegistry::gauge_slot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeSlot(usize);

/// A histogram resolved by [`MetricsRegistry::histogram_slot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSlot(usize);

/// The registry, locked once for a run of slot updates
/// ([`MetricsRegistry::lock`]). Drop it before anything else reads the
/// registry.
pub struct MetricsGuard<'a>(MutexGuard<'a, RegistryInner>);

impl MetricsGuard<'_> {
    pub fn add(&mut self, slot: CounterSlot, delta: u64) {
        *self.0.counters.cell(slot.0) += delta;
    }

    pub fn inc(&mut self, slot: CounterSlot) {
        self.add(slot, 1);
    }

    pub fn set_gauge(&mut self, slot: GaugeSlot, v: f64) {
        *self.0.gauges.cell(slot.0) = v;
    }

    pub fn observe(&mut self, slot: HistogramSlot, v: f64) {
        self.0.histograms.cell(slot.0).observe(v);
    }
}

/// Point-in-time snapshot of every metric (sorted by name — `BTreeMap`).
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, f64)>,
    pub histograms: Vec<(String, HistogramSummary)>,
    /// Full bucket data per histogram (same names and order as
    /// `histograms`) — what the exposition endpoint and snapshot merging
    /// consume; the summaries above are the quick-read digest.
    pub raw_histograms: Vec<(String, Histogram)>,
}

impl MetricsSnapshot {
    /// Merge `other` into this snapshot: counters and histogram buckets
    /// add; on a gauge collision `other` (the newer reading) wins.
    /// Histogram summaries are recomputed from the merged buckets, so
    /// merged percentiles are exactly what one combined registry would
    /// report.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        let mut counters: BTreeMap<String, u64> = self.counters.drain(..).collect();
        for (k, v) in &other.counters {
            *counters.entry(k.clone()).or_insert(0) += v;
        }
        self.counters = counters.into_iter().collect();

        let mut gauges: BTreeMap<String, f64> = self.gauges.drain(..).collect();
        for (k, v) in &other.gauges {
            gauges.insert(k.clone(), *v);
        }
        self.gauges = gauges.into_iter().collect();

        let mut hists: BTreeMap<String, Histogram> = self.raw_histograms.drain(..).collect();
        for (k, h) in &other.raw_histograms {
            match hists.get_mut(k) {
                Some(mine) => mine.merge(h),
                None => {
                    hists.insert(k.clone(), h.clone());
                }
            }
        }
        self.raw_histograms = hists.into_iter().collect();
        self.histograms = self
            .raw_histograms
            .iter()
            .map(|(k, h)| (k.clone(), h.summary()))
            .collect();
    }
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Lock the registry for a run of slot updates.
    pub fn lock(&self) -> MetricsGuard<'_> {
        MetricsGuard(lock::recover(&self.inner))
    }

    /// Resolve a counter name once; update it through [`MetricsGuard`].
    /// Resolving alone does not make the counter appear in snapshots.
    pub fn counter_slot(&self, name: &str) -> CounterSlot {
        CounterSlot(self.lock().0.counters.slot(name))
    }

    pub fn gauge_slot(&self, name: &str) -> GaugeSlot {
        GaugeSlot(self.lock().0.gauges.slot(name))
    }

    pub fn histogram_slot(&self, name: &str) -> HistogramSlot {
        HistogramSlot(self.lock().0.histograms.slot(name))
    }

    /// Add `delta` to a monotonic counter.
    pub fn add(&self, name: &str, delta: u64) {
        let mut guard = self.lock();
        let slot = CounterSlot(guard.0.counters.slot(name));
        guard.add(slot, delta);
    }

    /// Increment a counter by one.
    pub fn inc(&self, name: &str) {
        self.add(name, 1);
    }

    pub fn counter(&self, name: &str) -> u64 {
        let inner = lock::recover(&self.inner);
        inner.counters.get(name).copied().unwrap_or(0)
    }

    /// Set a gauge to an instantaneous value.
    pub fn set_gauge(&self, name: &str, v: f64) {
        let mut guard = self.lock();
        let slot = GaugeSlot(guard.0.gauges.slot(name));
        guard.set_gauge(slot, v);
    }

    pub fn gauge(&self, name: &str) -> Option<f64> {
        let inner = lock::recover(&self.inner);
        inner.gauges.get(name).copied()
    }

    /// Record one observation into a log-scale histogram.
    pub fn observe(&self, name: &str, v: f64) {
        let mut guard = self.lock();
        let slot = HistogramSlot(guard.0.histograms.slot(name));
        guard.observe(slot, v);
    }

    pub fn histogram_summary(&self, name: &str) -> Option<HistogramSummary> {
        let inner = lock::recover(&self.inner);
        inner.histograms.get(name).map(|h| h.summary())
    }

    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = lock::recover(&self.inner);
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, &v)| (k.clone(), v))
                .collect(),
            gauges: inner.gauges.iter().map(|(k, &v)| (k.clone(), v)).collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.summary()))
                .collect(),
            raw_histograms: inner
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.clone()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_across_clones() {
        let m = MetricsRegistry::new();
        let m2 = m.clone();
        m.inc("a");
        m2.add("a", 4);
        assert_eq!(m.counter("a"), 5);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn gauges_overwrite() {
        let m = MetricsRegistry::new();
        m.set_gauge("g", 1.0);
        m.set_gauge("g", 2.5);
        assert_eq!(m.gauge("g"), Some(2.5));
        assert_eq!(m.gauge("missing"), None);
    }

    #[test]
    fn bucket_bounds_are_log2() {
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-3.0), 0);
        assert_eq!(bucket_index(BUCKET_LO), 0);
        assert_eq!(bucket_index(BUCKET_LO * 2.5), 1);
        assert_eq!(bucket_index(f64::MAX), BUCKETS - 1);
        let (lo, hi) = bucket_bounds(3);
        assert_eq!(lo, BUCKET_LO * 8.0);
        assert_eq!(hi, BUCKET_LO * 16.0);
    }

    #[test]
    fn histogram_summary_tracks_extremes() {
        let m = MetricsRegistry::new();
        for v in [1.0, 2.0, 4.0, 8.0] {
            m.observe("ms", v);
        }
        let s = m.histogram_summary("ms").unwrap();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 15.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 8.0);
        assert!(s.p50 >= 1.0 && s.p50 <= 8.0);
        assert!(s.p95 >= s.p50);
        assert!(s.p99 >= s.p95);
    }

    #[test]
    fn quantiles_of_uniform_observations() {
        let mut h = Histogram::default();
        for i in 1..=1000 {
            h.observe(i as f64 * 0.01); // 0.01 .. 10.0
        }
        let p50 = h.quantile(0.5);
        // log-bucket approximation: within one bucket (2x) of the truth
        assert!(p50 > 2.0 && p50 < 10.0, "p50 {p50}");
        assert!(h.quantile(1.0) <= h.max);
        assert_eq!(Histogram::default().quantile(0.5), 0.0);
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let m = MetricsRegistry::new();
        m.inc("z");
        m.inc("a");
        m.set_gauge("g", 1.0);
        m.observe("h", 3.0);
        let s = m.snapshot();
        assert_eq!(s.counters, vec![("a".into(), 1), ("z".into(), 1)]);
        assert_eq!(s.gauges.len(), 1);
        assert_eq!(s.histograms.len(), 1);
        assert_eq!(s.histograms[0].1.count, 1);
    }

    #[test]
    fn slots_and_names_write_the_same_registry() {
        let by_name = MetricsRegistry::new();
        let by_slot = MetricsRegistry::new();
        // resolved up front, some never written: they must stay invisible
        let c = by_slot.counter_slot("c");
        let g = by_slot.gauge_slot("g");
        let h = by_slot.histogram_slot("h");
        by_slot.counter_slot("never");
        by_slot.gauge_slot("never");
        by_slot.histogram_slot("never");
        assert!(by_slot.snapshot().counters.is_empty());
        assert_eq!(by_slot.gauge("g"), None);
        assert!(by_slot.histogram_summary("h").is_none());

        by_name.add("c", 0); // a zero delta still creates the counter
        by_name.inc("c");
        by_name.set_gauge("g", 2.5);
        by_name.observe("h", 3.0);
        {
            let mut m = by_slot.lock();
            m.add(c, 0);
            m.inc(c);
            m.set_gauge(g, 2.5);
            m.observe(h, 3.0);
        }
        // either path may continue what the other started
        by_name.inc("a");
        by_slot.inc("a");
        by_slot.inc("c");
        let c_again = by_name.counter_slot("c");
        by_name.lock().inc(c_again);

        let (a, b) = (by_name.snapshot(), by_slot.snapshot());
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.counters, vec![("a".into(), 1), ("c".into(), 2)]);
        assert_eq!(a.gauges, b.gauges);
        assert_eq!(a.histograms, b.histograms);
        assert_eq!(b.raw_histograms.len(), 1);
    }

    #[test]
    fn non_finite_observations_ignored() {
        let mut h = Histogram::default();
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        assert_eq!(h.count, 0);
    }

    #[test]
    fn merged_histogram_equals_combined_stream() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let mut combined = Histogram::default();
        for v in [0.5, 1.0, 2.0] {
            a.observe(v);
            combined.observe(v);
        }
        for v in [4.0, 8.0, 16.0, 32.0] {
            b.observe(v);
            combined.observe(v);
        }
        a.merge(&b);
        assert_eq!(a.buckets, combined.buckets);
        assert_eq!(a.count, combined.count);
        assert_eq!(a.summary(), combined.summary());
    }

    #[test]
    fn snapshot_merge_adds_counters_and_rebuilds_summaries() {
        let m1 = MetricsRegistry::new();
        let m2 = MetricsRegistry::new();
        m1.add("reqs", 3);
        m2.add("reqs", 4);
        m2.add("only2", 1);
        m1.set_gauge("g", 1.0);
        m2.set_gauge("g", 2.0);
        m1.observe("lat", 1.0);
        m2.observe("lat", 64.0);
        let mut s = m1.snapshot();
        s.merge(&m2.snapshot());
        assert!(s.counters.contains(&("reqs".into(), 7)));
        assert!(s.counters.contains(&("only2".into(), 1)));
        assert!(s.gauges.contains(&("g".into(), 2.0)), "newer gauge wins");
        let (_, lat) = s.histograms.iter().find(|(k, _)| k == "lat").unwrap();
        assert_eq!(lat.count, 2);
        assert_eq!(lat.sum, 65.0);
        assert_eq!(lat.min, 1.0);
        assert_eq!(lat.max, 64.0);
    }

    #[test]
    fn snapshot_carries_raw_buckets() {
        let m = MetricsRegistry::new();
        m.observe("h", 3.0);
        m.observe("h", 3.0);
        let s = m.snapshot();
        let (_, raw) = s.raw_histograms.iter().find(|(k, _)| k == "h").unwrap();
        assert_eq!(raw.count, 2);
        assert_eq!(raw.buckets.iter().sum::<u64>(), 2);
    }

    #[test]
    fn registry_survives_a_poisoned_lock() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let m = MetricsRegistry::new();
        m.inc("before");
        let m2 = m.clone();
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _guard = lock::recover(&m2.inner);
            panic!("holder dies inside the registry lock");
        }));
        // a panicking metric writer must never wedge metric reads
        assert_eq!(m.counter("before"), 1);
        m.inc("after");
        m.observe("h", 1.0);
        assert_eq!(m.counter("after"), 1);
        assert_eq!(m.snapshot().histograms.len(), 1);
    }
}
