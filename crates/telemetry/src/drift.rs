//! Cost-model drift monitoring: predicted vs observed latency.
//!
//! The whole stack schedules work because the compile-time cost table
//! *predicts* it is fastest; nothing upstream of this module checks that
//! prediction against what the (simulated) device actually delivers at
//! serve time. [`DriftMonitor`] accumulates the relative error between
//! predicted and observed latency — per node and per graph — as mergeable
//! Welford statistics, so per-worker monitors merge exactly like metric
//! snapshots do.
//!
//! When the mean |relative error| crosses a configured threshold with
//! enough samples behind it, the model is *miscalibrated*: the serving
//! layer publishes the verdict in its `engine.drift.*` gauges, which alert
//! rules read, and in `ServeReport::drift`, which `unigpu drift` prints.

use crate::metrics::{MetricsRegistry, Table};
use std::collections::BTreeMap;

/// Relative error of an observation against its prediction:
/// `(observed − predicted) / predicted`. Non-finite inputs or a
/// non-positive prediction yield `0.0` (no signal rather than a poisoned
/// accumulator).
fn rel_err(predicted_ms: f64, observed_ms: f64) -> f64 {
    if !predicted_ms.is_finite() || !observed_ms.is_finite() || predicted_ms <= 0.0 {
        return 0.0;
    }
    (observed_ms - predicted_ms) / predicted_ms
}

/// Mergeable Welford accumulator over relative-error samples.
#[derive(Debug, Clone, Default)]
pub struct DriftStat {
    count: u64,
    mean: f64,
    sum_abs: f64,
    max_abs: f64,
}

impl DriftStat {
    /// Fold in one relative-error sample.
    pub fn observe(&mut self, rel_err: f64) {
        if !rel_err.is_finite() {
            return;
        }
        self.count += 1;
        let delta = rel_err - self.mean;
        self.mean += delta / self.count as f64;
        self.sum_abs += rel_err.abs();
        self.max_abs = self.max_abs.max(rel_err.abs());
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Signed mean relative error (negative = faster than predicted).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Mean |relative error| — the miscalibration criterion.
    pub fn mean_abs(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_abs / self.count as f64
        }
    }

    pub fn max_abs(&self) -> f64 {
        self.max_abs
    }

    /// Fold another accumulator into this one (Chan et al. parallel
    /// Welford merge). Merging per-worker stats yields exactly the stat a
    /// single accumulator observing both streams would hold, up to float
    /// association.
    pub fn merge(&mut self, other: &DriftStat) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.count += other.count;
        self.sum_abs += other.sum_abs;
        self.max_abs = self.max_abs.max(other.max_abs);
    }
}

/// Miscalibration criterion knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// Mean |relative error| at or above this marks the model
    /// miscalibrated.
    pub threshold: f64,
    /// Minimum graph-level samples before the verdict is trusted.
    pub min_samples: u64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            threshold: 0.25,
            min_samples: 8,
        }
    }
}

/// Point-in-time digest of a [`DriftMonitor`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DriftSummary {
    /// Graph-level samples folded in.
    pub samples: u64,
    /// Signed graph-level mean relative error.
    pub mean_rel_err: f64,
    /// Mean |relative error| (the miscalibration criterion).
    pub mean_abs_rel_err: f64,
    pub max_abs_rel_err: f64,
    /// The threshold the verdict was judged against.
    pub threshold: f64,
    pub miscalibrated: bool,
    /// Node with the worst mean |relative error|, when any node was seen.
    pub worst_node: Option<String>,
    pub worst_node_rel_err: f64,
}

/// Per-node and per-graph drift accumulator.
#[derive(Debug, Clone, Default)]
pub struct DriftMonitor {
    cfg: DriftConfig,
    graph: DriftStat,
    /// One accumulator per node; a node that was resolved to its slot but
    /// never recorded is not reported.
    nodes: Table<DriftStat>,
}

impl DriftMonitor {
    pub fn new(cfg: DriftConfig) -> Self {
        DriftMonitor {
            cfg,
            ..DriftMonitor::default()
        }
    }

    pub fn config(&self) -> DriftConfig {
        self.cfg
    }

    /// Record one graph-level (predicted, observed) latency pair.
    pub fn record_graph(&mut self, predicted_ms: f64, observed_ms: f64) {
        self.graph.observe(rel_err(predicted_ms, observed_ms));
    }

    /// Resolve `node` to its accumulator slot, once, so that the per-batch
    /// tap ([`DriftMonitor::record_slot`]) neither hashes nor allocates.
    /// The same name always resolves to the same slot.
    pub fn node_slot(&mut self, node: &str) -> usize {
        self.nodes.slot(node)
    }

    /// Record one per-node (predicted, observed) latency pair into a slot
    /// obtained from [`DriftMonitor::node_slot`] on this monitor.
    pub fn record_slot(&mut self, slot: usize, predicted_ms: f64, observed_ms: f64) {
        self.nodes
            .cell(slot)
            .observe(rel_err(predicted_ms, observed_ms));
    }

    pub fn graph(&self) -> &DriftStat {
        &self.graph
    }

    /// Every node recorded so far, by name.
    pub fn nodes(&self) -> BTreeMap<&str, &DriftStat> {
        self.nodes.iter().map(|(n, s)| (n.as_str(), s)).collect()
    }

    /// Fold another monitor (e.g. a per-worker or per-replica one) in.
    pub fn merge(&mut self, other: &DriftMonitor) {
        self.graph.merge(&other.graph);
        for (name, stat) in other.nodes.iter() {
            let slot = self.nodes.slot(name);
            self.nodes.cell(slot).merge(stat);
        }
    }

    /// Does the graph-level drift cross the configured threshold with
    /// enough samples to trust the verdict?
    pub fn miscalibrated(&self) -> bool {
        self.graph.count() >= self.cfg.min_samples && self.graph.mean_abs() >= self.cfg.threshold
    }

    /// The node with the worst mean |relative error|, ties broken by name
    /// (the map iterates sorted) so the answer is deterministic.
    pub fn worst_node(&self) -> Option<(&str, &DriftStat)> {
        self.nodes()
            .into_iter()
            .filter(|(_, s)| s.count() > 0)
            .max_by(|(an, a), (bn, b)| a.mean_abs().total_cmp(&b.mean_abs()).then(bn.cmp(an)))
    }

    pub fn summary(&self) -> DriftSummary {
        let worst = self.worst_node();
        DriftSummary {
            samples: self.graph.count(),
            mean_rel_err: self.graph.mean(),
            mean_abs_rel_err: self.graph.mean_abs(),
            max_abs_rel_err: self.graph.max_abs(),
            threshold: self.cfg.threshold,
            miscalibrated: self.miscalibrated(),
            worst_node: worst.map(|(n, _)| n.to_string()),
            worst_node_rel_err: worst.map(|(_, s)| s.mean_abs()).unwrap_or(0.0),
        }
    }

    /// Publish the graph-level digest as `{prefix}.*` gauges.
    pub fn publish(&self, metrics: &MetricsRegistry, prefix: &str) {
        let s = self.summary();
        metrics.set_gauge(&format!("{prefix}.samples"), s.samples as f64);
        metrics.set_gauge(&format!("{prefix}.mean_rel_err"), s.mean_rel_err);
        metrics.set_gauge(&format!("{prefix}.mean_abs_rel_err"), s.mean_abs_rel_err);
        metrics.set_gauge(&format!("{prefix}.max_abs_rel_err"), s.max_abs_rel_err);
        metrics.set_gauge(&format!("{prefix}.threshold"), s.threshold);
        metrics.set_gauge(
            &format!("{prefix}.miscalibrated"),
            if s.miscalibrated { 1.0 } else { 0.0 },
        );
        metrics.set_gauge(&format!("{prefix}.nodes"), self.nodes().len() as f64);
        metrics.set_gauge(
            &format!("{prefix}.worst_node_rel_err"),
            s.worst_node_rel_err,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_err_is_guarded() {
        assert_eq!(rel_err(10.0, 15.0), 0.5);
        assert_eq!(rel_err(10.0, 5.0), -0.5);
        assert_eq!(rel_err(0.0, 5.0), 0.0);
        assert_eq!(rel_err(-1.0, 5.0), 0.0);
        assert_eq!(rel_err(f64::NAN, 5.0), 0.0);
        assert_eq!(rel_err(1.0, f64::INFINITY), 0.0);
    }

    #[test]
    fn welford_matches_naive_moments() {
        let samples = [0.1, -0.2, 0.3, 0.05, -0.4, 0.25];
        let mut s = DriftStat::default();
        for v in samples {
            s.observe(v);
        }
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.mean_abs() - samples.iter().map(|v| v.abs()).sum::<f64>() / n).abs() < 1e-12);
        assert_eq!(s.max_abs(), 0.4);
    }

    #[test]
    fn merge_equals_combined_stream() {
        let xs = [0.1, 0.2, -0.3];
        let ys = [0.4, -0.5, 0.6, 0.05];
        let mut a = DriftStat::default();
        let mut b = DriftStat::default();
        let mut both = DriftStat::default();
        for v in xs {
            a.observe(v);
            both.observe(v);
        }
        for v in ys {
            b.observe(v);
            both.observe(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert!((a.mean() - both.mean()).abs() < 1e-12);
        assert!((a.mean_abs() - both.mean_abs()).abs() < 1e-12);
        assert_eq!(a.max_abs(), both.max_abs());

        // merging into an empty accumulator is a copy
        let mut empty = DriftStat::default();
        empty.merge(&both);
        assert_eq!(empty.count(), both.count());
        // merging an empty one is a no-op
        both.merge(&DriftStat::default());
        assert_eq!(both.count(), xs.len() as u64 + ys.len() as u64);
    }

    #[test]
    fn miscalibration_needs_threshold_and_samples() {
        let cfg = DriftConfig {
            threshold: 0.25,
            min_samples: 4,
        };
        let mut m = DriftMonitor::new(cfg);
        // large drift but too few samples
        for _ in 0..3 {
            m.record_graph(10.0, 20.0);
        }
        assert!(!m.miscalibrated());
        m.record_graph(10.0, 20.0);
        assert!(m.miscalibrated(), "1.0 mean |rel err| over 4 samples");

        // a calibrated model stays calibrated no matter how many samples
        let mut ok = DriftMonitor::new(cfg);
        for _ in 0..100 {
            ok.record_graph(10.0, 10.5);
        }
        assert!(!ok.miscalibrated());
        assert!((ok.graph().mean() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn worst_node_and_summary_are_deterministic() {
        let mut m = DriftMonitor::new(DriftConfig::default());
        for (node, observed) in [("conv0", 11.0), ("conv1", 18.0), ("relu0", 10.0)] {
            let slot = m.node_slot(node);
            m.record_slot(slot, 10.0, observed);
        }
        m.record_graph(30.0, 39.0);
        let (name, stat) = m.worst_node().expect("nodes recorded");
        assert_eq!(name, "conv1");
        assert!((stat.mean_abs() - 0.8).abs() < 1e-12);
        let s = m.summary();
        assert_eq!(s.worst_node.as_deref(), Some("conv1"));
        assert_eq!(s.samples, 1);
        assert!(!s.miscalibrated, "one sample is below min_samples");
    }

    #[test]
    fn monitor_merge_folds_nodes() {
        let mut a = DriftMonitor::new(DriftConfig::default());
        let mut b = DriftMonitor::new(DriftConfig::default());
        let (an, bn, only_b) = (a.node_slot("n"), b.node_slot("n"), b.node_slot("only_b"));
        a.record_slot(an, 10.0, 12.0);
        b.record_slot(bn, 10.0, 14.0);
        b.record_slot(only_b, 10.0, 10.0);
        a.merge(&b);
        assert_eq!(a.nodes()["n"].count(), 2);
        assert!((a.nodes()["n"].mean() - 0.3).abs() < 1e-12);
        assert_eq!(a.nodes()["only_b"].count(), 1);
    }

    #[test]
    fn slots_are_stable_and_unobserved_ones_stay_invisible() {
        let mut m = DriftMonitor::new(DriftConfig::default());
        let conv = m.node_slot("conv");
        let relu = m.node_slot("relu");
        assert_eq!(m.node_slot("conv"), conv, "one name, one slot");
        assert_ne!(conv, relu);
        assert!(
            m.nodes().is_empty(),
            "resolved, never recorded: not a node yet"
        );
        assert!(m.worst_node().is_none());
        // two table rows sharing a name fold into one accumulator, in order
        m.record_slot(conv, 10.0, 12.0);
        m.record_slot(conv, 10.0, 14.0);
        assert_eq!(m.nodes().len(), 1);
        assert_eq!(m.nodes()["conv"].count(), 2);
        assert!((m.nodes()["conv"].mean() - 0.3).abs() < 1e-12);
        let registry = MetricsRegistry::new();
        m.publish(&registry, "d");
        assert_eq!(registry.gauge("d.nodes"), Some(1.0));
    }

    #[test]
    fn publish_sets_gauges() {
        let m = MetricsRegistry::new();
        let mut d = DriftMonitor::new(DriftConfig {
            threshold: 0.1,
            min_samples: 1,
        });
        d.record_graph(10.0, 15.0);
        d.publish(&m, "engine.drift");
        assert_eq!(m.gauge("engine.drift.samples"), Some(1.0));
        assert_eq!(m.gauge("engine.drift.mean_abs_rel_err"), Some(0.5));
        assert_eq!(m.gauge("engine.drift.miscalibrated"), Some(1.0));
        assert_eq!(m.gauge("engine.drift.threshold"), Some(0.1));
    }
}
