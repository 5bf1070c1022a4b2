//! SLO accounting: windowed error rates and burn rate on the simulated
//! clock.
//!
//! An SLO is an objective like "99% of offered requests complete within
//! their deadline". This module tracks the good/bad event stream (completed
//! vs. deadline-missed/shed) with **caller-supplied timestamps**, so the
//! serving engine can account on its simulated clock and a wall-clock
//! caller can pass real time — same math either way, fully deterministic.
//!
//! The headline number is the **burn rate**: the windowed error rate
//! divided by the error budget (`1 − objective`). Burn rate 1.0 means the
//! budget is being spent exactly as fast as the SLO allows; 10× means the
//! budget for a month evaporates in three days. This is the standard
//! multi-window alerting quantity from the SRE literature, computed here
//! over one trailing window of simulated time.

use crate::metrics::MetricsRegistry;

/// SLO definition: target success fraction and the trailing window the burn
/// rate is computed over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloConfig {
    /// Target success fraction, e.g. `0.99` for a 99% objective.
    pub objective: f64,
    /// Trailing window for the burn rate, in the caller's clock units (the
    /// engine passes simulated milliseconds).
    pub window_ms: f64,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            objective: 0.99,
            window_ms: 250.0,
        }
    }
}

/// The timestamps of one outcome, kept sorted so a window is counted by two
/// binary searches instead of a scan of the whole history.
#[derive(Debug, Default)]
struct Outcomes {
    /// Every observation, including NaN-stamped ones (in no window).
    total: u64,
    sorted_ms: Vec<f64>,
}

impl Outcomes {
    fn push(&mut self, t_ms: f64) {
        self.total += 1;
        if t_ms.is_nan() {
            return;
        }
        // arrivals are nearly in time order: the place is at or near the end
        let at = self
            .sorted_ms
            .iter()
            .rposition(|&t| t <= t_ms)
            .map_or(0, |i| i + 1);
        self.sorted_ms.insert(at, t_ms);
    }

    /// Observations with `start_ms < t <= end_ms`.
    fn in_window(&self, start_ms: f64, end_ms: f64) -> u64 {
        if start_ms.is_nan() {
            return 0; // nothing is "after NaN"
        }
        let upto = |limit: f64| self.sorted_ms.partition_point(|&t| t <= limit);
        upto(end_ms).saturating_sub(upto(start_ms)) as u64
    }
}

/// Good/bad event recorder with windowed burn-rate summaries. Owned by one
/// scheduler; events may carry timestamps in any order.
#[derive(Debug)]
pub struct SloTracker {
    cfg: SloConfig,
    good: Outcomes,
    bad: Outcomes,
}

impl SloTracker {
    pub fn new(cfg: SloConfig) -> Self {
        SloTracker {
            cfg,
            good: Outcomes::default(),
            bad: Outcomes::default(),
        }
    }

    pub fn config(&self) -> SloConfig {
        self.cfg
    }

    /// Record a success (e.g. a request completed within deadline) at
    /// `t_ms` on the caller's clock.
    pub fn good(&mut self, t_ms: f64) {
        self.good.push(t_ms);
    }

    /// Record a failure (deadline miss, shed, abandoned) at `t_ms`.
    pub fn bad(&mut self, t_ms: f64) {
        self.bad.push(t_ms);
    }

    /// Summarize at `now_ms`: overall and trailing-window error rates, burn
    /// rate, and the fraction of error budget left. Costs two binary
    /// searches per outcome, however long the history.
    pub fn summary(&self, now_ms: f64) -> SloSummary {
        let (good, bad) = (self.good.total, self.bad.total);
        let window_start = now_ms - self.cfg.window_ms;
        let window_good = self.good.in_window(window_start, now_ms);
        let window_bad = self.bad.in_window(window_start, now_ms);
        let rate = |b: u64, g: u64| {
            let total = b + g;
            if total == 0 {
                0.0
            } else {
                b as f64 / total as f64
            }
        };
        let error_rate = rate(bad, good);
        let window_error_rate = rate(window_bad, window_good);
        // the error budget; clamped so a 100% objective yields a huge but
        // finite burn rate instead of NaN/inf poisoning downstream math
        let budget = (1.0 - self.cfg.objective).max(1e-9);
        SloSummary {
            objective: self.cfg.objective,
            window_ms: self.cfg.window_ms,
            good,
            bad,
            error_rate,
            window_error_rate,
            burn_rate: window_error_rate / budget,
            budget_remaining: 1.0 - error_rate / budget,
        }
    }

    /// Publish a summary as `{prefix}.*` gauges (e.g. `engine.slo.*`).
    pub fn publish(&self, metrics: &MetricsRegistry, prefix: &str, now_ms: f64) -> SloSummary {
        let s = self.summary(now_ms);
        metrics.set_gauge(&format!("{prefix}.objective"), s.objective);
        metrics.set_gauge(&format!("{prefix}.good"), s.good as f64);
        metrics.set_gauge(&format!("{prefix}.bad"), s.bad as f64);
        metrics.set_gauge(&format!("{prefix}.error_rate"), s.error_rate);
        metrics.set_gauge(&format!("{prefix}.window_error_rate"), s.window_error_rate);
        metrics.set_gauge(&format!("{prefix}.burn_rate"), s.burn_rate);
        metrics.set_gauge(&format!("{prefix}.budget_remaining"), s.budget_remaining);
        s
    }
}

/// Point-in-time SLO digest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSummary {
    pub objective: f64,
    pub window_ms: f64,
    /// Successes observed (all time).
    pub good: u64,
    /// Failures observed (all time).
    pub bad: u64,
    /// All-time failure fraction.
    pub error_rate: f64,
    /// Failure fraction inside the trailing window.
    pub window_error_rate: f64,
    /// Windowed error rate over the error budget (`1 − objective`); 1.0
    /// spends the budget exactly at the allowed pace.
    pub burn_rate: f64,
    /// Fraction of the all-time error budget left (negative = blown).
    pub budget_remaining: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tracker_is_all_zeroes() {
        let t = SloTracker::new(SloConfig::default());
        let s = t.summary(1000.0);
        assert_eq!(s.good + s.bad, 0);
        assert_eq!(s.error_rate, 0.0);
        assert_eq!(s.burn_rate, 0.0);
        assert_eq!(s.budget_remaining, 1.0);
    }

    #[test]
    fn burn_rate_is_windowed_error_over_budget() {
        let mut t = SloTracker::new(SloConfig {
            objective: 0.9,
            window_ms: 100.0,
        });
        // old history: 10 good at t=0 (outside the window at now=500)
        for _ in 0..10 {
            t.good(0.0);
        }
        // recent window: 8 good, 2 bad
        for i in 0..8 {
            t.good(450.0 + i as f64);
        }
        t.bad(460.0);
        t.bad(470.0);
        let s = t.summary(500.0);
        assert_eq!(s.good, 18);
        assert_eq!(s.bad, 2);
        assert!((s.window_error_rate - 0.2).abs() < 1e-12);
        // budget = 0.1, windowed error = 0.2 → burning 2x the allowed pace
        assert!((s.burn_rate - 2.0).abs() < 1e-9);
        // all-time error rate 2/20 = 0.1 → exactly at budget, none left
        assert!(s.budget_remaining.abs() < 1e-9);
    }

    #[test]
    fn out_of_order_events_are_window_filtered_correctly() {
        let mut t = SloTracker::new(SloConfig {
            objective: 0.99,
            window_ms: 50.0,
        });
        t.bad(90.0);
        t.good(10.0); // outside the window at now=100
        t.good(95.0);
        let s = t.summary(100.0);
        assert!((s.window_error_rate - 0.5).abs() < 1e-12);
        assert!((s.error_rate - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn summaries_match_a_full_scan_for_any_insertion_order() {
        let cfg = SloConfig {
            objective: 0.95,
            window_ms: 40.0,
        };
        let mut t = SloTracker::new(cfg);
        let mut events: Vec<(f64, bool)> = Vec::new();
        // a drifting clock with frequent steps back, ties, and a NaN stamp
        let mut z = 7u64;
        let mut clock = 0.0;
        for i in 0..500 {
            z = crate::hash::splitmix64(z);
            clock += (z % 7) as f64;
            let t_ms = match i % 9 {
                0 => clock - (z % 60) as f64,
                1 => f64::NAN,
                _ => clock,
            };
            let good = z % 5 != 0;
            events.push((t_ms, good));
            if good {
                t.good(t_ms);
            } else {
                t.bad(t_ms);
            }
        }
        for now in [
            -5.0,
            0.0,
            40.0,
            333.0,
            clock / 2.0,
            clock,
            clock + 1e6,
            f64::NAN,
        ] {
            let count = |want_good: bool, windowed: bool| {
                events
                    .iter()
                    .filter(|(t_ms, good)| {
                        *good == want_good
                            && (!windowed || (*t_ms > now - cfg.window_ms && *t_ms <= now))
                    })
                    .count() as f64
            };
            let s = t.summary(now);
            assert_eq!(
                (s.good as f64, s.bad as f64),
                (count(true, false), count(false, false))
            );
            let in_window = count(true, true) + count(false, true);
            let expected = if in_window == 0.0 {
                0.0
            } else {
                count(false, true) / in_window
            };
            assert_eq!(s.window_error_rate, expected, "now = {now}");
        }
    }

    #[test]
    fn publish_sets_prefixed_gauges() {
        let mut t = SloTracker::new(SloConfig::default());
        t.good(1.0);
        t.bad(2.0);
        let m = MetricsRegistry::new();
        let s = t.publish(&m, "engine.slo", 10.0);
        assert_eq!(m.gauge("engine.slo.objective"), Some(0.99));
        assert_eq!(m.gauge("engine.slo.bad"), Some(1.0));
        assert_eq!(m.gauge("engine.slo.burn_rate"), Some(s.burn_rate));
        assert_eq!(
            m.gauge("engine.slo.budget_remaining"),
            Some(s.budget_remaining)
        );
    }

    #[test]
    fn perfect_objective_stays_finite() {
        let mut t = SloTracker::new(SloConfig {
            objective: 1.0,
            window_ms: 10.0,
        });
        t.bad(5.0);
        let s = t.summary(10.0);
        assert!(s.burn_rate.is_finite());
        assert!(s.budget_remaining.is_finite());
    }
}
