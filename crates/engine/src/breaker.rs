//! Per-device circuit breaker as a pure state machine on the simulated
//! clock: K consecutive faults open it (batches route to the CPU variant), a
//! cooldown half-opens it, and a successful probe closes it again. Every
//! method that can change phase returns the [`Edge`] it took; publishing the
//! edge (metrics, recorder, spans) is the caller's job.

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    Closed,
    Open { until_ms: f64 },
    HalfOpen,
}

/// One phase transition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Edge {
    /// Closed or half-open → open, after this many consecutive faults.
    Opened { consecutive_faults: usize },
    /// Open → half-open: the cooldown elapsed, the next launch probes.
    HalfOpened,
    /// Half-open → closed: the probe succeeded.
    Closed,
}

#[derive(Debug)]
pub(crate) struct Breaker {
    /// Consecutive faults that trip the breaker; 0 disables it.
    threshold: usize,
    cooldown_ms: f64,
    phase: Phase,
    consecutive_faults: usize,
    pub(crate) trips: usize,
    pub(crate) recoveries: usize,
}

impl Breaker {
    pub(crate) fn new(threshold: usize, cooldown_ms: f64) -> Self {
        Breaker {
            threshold,
            cooldown_ms,
            phase: Phase::Closed,
            consecutive_faults: 0,
            trips: 0,
            recoveries: 0,
        }
    }

    /// The `engine.breaker_state` encoding: 0 closed, 1 open, 2 half-open.
    pub(crate) fn gauge(&self) -> f64 {
        match self.phase {
            Phase::Closed => 0.0,
            Phase::Open { .. } => 1.0,
            Phase::HalfOpen => 2.0,
        }
    }

    /// Instant an open breaker becomes eligible to half-open.
    pub(crate) fn open_until_ms(&self) -> Option<f64> {
        match self.phase {
            Phase::Open { until_ms } => Some(until_ms),
            _ => None,
        }
    }

    /// May a batch try the device at `now_ms`? Half-opens an open breaker
    /// whose cooldown has elapsed.
    pub(crate) fn allows_device(&mut self, now_ms: f64) -> (bool, Option<Edge>) {
        match self.phase {
            Phase::Closed | Phase::HalfOpen => (true, None),
            Phase::Open { until_ms } if now_ms >= until_ms => {
                self.phase = Phase::HalfOpen;
                (true, Some(Edge::HalfOpened))
            }
            Phase::Open { .. } => (false, None),
        }
    }

    pub(crate) fn on_success(&mut self) -> Option<Edge> {
        self.consecutive_faults = 0;
        if self.phase != Phase::HalfOpen {
            return None;
        }
        self.phase = Phase::Closed;
        self.recoveries += 1;
        Some(Edge::Closed)
    }

    /// Record a device fault reported at `at_ms`; the flag says whether the
    /// breaker is (now) open.
    pub(crate) fn on_fault(&mut self, at_ms: f64) -> (bool, Option<Edge>) {
        self.consecutive_faults += 1;
        let trip = match self.phase {
            Phase::HalfOpen => true, // failed probe: straight back open
            Phase::Closed => self.threshold > 0 && self.consecutive_faults >= self.threshold,
            Phase::Open { .. } => return (true, None),
        };
        if !trip {
            return (false, None);
        }
        self.phase = Phase::Open {
            until_ms: at_ms + self.cooldown_ms,
        };
        self.trips += 1;
        let edge = Edge::Opened {
            consecutive_faults: self.consecutive_faults,
        };
        (true, Some(edge))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opened(consecutive_faults: usize) -> Option<Edge> {
        Some(Edge::Opened { consecutive_faults })
    }

    #[test]
    fn trips_at_exactly_k_consecutive_faults() {
        let mut b = Breaker::new(3, 50.0);
        assert_eq!(b.on_fault(1.0), (false, None));
        assert_eq!(b.on_fault(2.0), (false, None));
        assert_eq!(b.gauge(), 0.0);
        assert_eq!(b.on_fault(3.0), (true, opened(3)));
        assert_eq!((b.gauge(), b.trips, b.open_until_ms()), (1.0, 1, Some(53.0)));
        // further faults while open report open without a second trip
        assert_eq!(b.on_fault(4.0), (true, None));
        assert_eq!((b.trips, b.open_until_ms()), (1, Some(53.0)));
    }

    #[test]
    fn threshold_zero_never_trips() {
        let mut b = Breaker::new(0, 50.0);
        for i in 0..100 {
            assert_eq!(b.on_fault(f64::from(i)), (false, None));
        }
        assert_eq!((b.gauge(), b.trips), (0.0, 0));
        assert_eq!(b.allows_device(0.0), (true, None));
    }

    #[test]
    fn a_success_resets_the_consecutive_count() {
        let mut b = Breaker::new(2, 50.0);
        assert_eq!(b.on_fault(1.0), (false, None));
        assert_eq!(b.on_success(), None, "no edge: the breaker never left closed");
        assert_eq!(b.on_fault(2.0), (false, None), "count restarted from zero");
        assert_eq!(b.on_fault(3.0), (true, opened(2)));
    }

    #[test]
    fn open_blocks_until_the_cooldown_instant_then_half_opens() {
        let mut b = Breaker::new(1, 50.0);
        assert_eq!(b.on_fault(10.0), (true, opened(1)));
        assert_eq!(b.allows_device(10.0), (false, None));
        assert_eq!(b.allows_device(59.999), (false, None));
        assert_eq!(b.open_until_ms(), Some(60.0));
        assert_eq!(b.allows_device(60.0), (true, Some(Edge::HalfOpened)));
        assert_eq!((b.gauge(), b.open_until_ms()), (2.0, None));
        assert_eq!(b.allows_device(60.0), (true, None), "already probing: no second edge");
    }

    #[test]
    fn failed_probe_reopens_with_a_fresh_cooldown_and_counts_a_trip() {
        let mut b = Breaker::new(3, 50.0);
        for t in [1.0, 2.0, 3.0] {
            b.on_fault(t);
        }
        assert_eq!(b.allows_device(53.0), (true, Some(Edge::HalfOpened)));
        // one fault is enough in half-open, whatever the threshold
        assert_eq!(b.on_fault(54.0), (true, opened(4)));
        assert_eq!((b.gauge(), b.trips, b.recoveries), (1.0, 2, 0));
        assert_eq!(b.open_until_ms(), Some(104.0));
    }

    #[test]
    fn successful_probe_closes_and_counts_a_recovery() {
        let mut b = Breaker::new(1, 50.0);
        b.on_fault(0.0);
        assert_eq!(b.allows_device(50.0), (true, Some(Edge::HalfOpened)));
        assert_eq!(b.on_success(), Some(Edge::Closed));
        assert_eq!((b.gauge(), b.trips, b.recoveries), (0.0, 1, 1));
        // closed again with a clean count: the threshold applies afresh
        assert_eq!(b.on_fault(60.0), (true, opened(1)));
    }
}
