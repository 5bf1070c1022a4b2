//! Deterministic fault injection for farm testing.
//!
//! `UNIGPU_FARM_FAULTS` is a comma-separated `key=value` list applied on the
//! *worker* side. Its one knob, `kill_after_leases=K`, exits the worker
//! process loop the moment its Kth lease is granted, i.e. the worker dies
//! mid-lease holding work. Wire faults (dropped, delayed or corrupted
//! frames) are `UNIGPU_NET_FAULTS`'s job; see [`crate::netchaos`].
//!
//! Everything is counter-based — no RNG — so a faulty run is exactly
//! reproducible.

/// Parsed fault-injection knobs. Default is no faults.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Die when the Kth lease is granted, before returning its result.
    pub kill_after_leases: Option<u64>,
}

impl FaultPlan {
    /// Parse a `UNIGPU_FARM_FAULTS` spec. Unknown keys and unparseable
    /// values are ignored — fault injection must never break a real run.
    pub fn parse(spec: &str) -> FaultPlan {
        let mut plan = FaultPlan::default();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let mut kv = part.splitn(2, '=');
            let key = kv.next().unwrap_or("");
            let value: Option<u64> = kv.next().and_then(|v| v.trim().parse().ok());
            match (key, value) {
                ("kill_after_leases", Some(v)) if v > 0 => plan.kill_after_leases = Some(v),
                _ => {}
            }
        }
        plan
    }

    /// Read the plan from `UNIGPU_FARM_FAULTS` (empty plan when unset).
    pub fn from_env() -> FaultPlan {
        match std::env::var("UNIGPU_FARM_FAULTS") {
            Ok(s) => FaultPlan::parse(&s),
            Err(_) => FaultPlan::default(),
        }
    }

    pub fn is_noop(&self) -> bool {
        *self == FaultPlan::default()
    }
}

/// Per-worker fault counters. `Copy` so a worker can carry its counters
/// across reconnects (a kill budget must not reset with the session).
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultState {
    plan: FaultPlan,
    leases_started: u64,
}

impl FaultState {
    pub fn new(plan: FaultPlan) -> Self {
        FaultState { plan, leases_started: 0 }
    }

    /// Advance the lease counter; `true` means the kill budget is spent and
    /// the worker must die now, mid-lease.
    pub fn lease_started(&mut self) -> bool {
        self.leases_started += 1;
        matches!(self.plan.kill_after_leases, Some(k) if self.leases_started >= k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_spec() {
        let p = FaultPlan::parse(" kill_after_leases=2 ,");
        assert_eq!(p.kill_after_leases, Some(2));
        assert!(!p.is_noop());
    }

    #[test]
    fn junk_is_ignored() {
        let p = FaultPlan::parse(
            "bogus=1,kill_after_leases=zero,kill_after_leases=0,,=,kill_after_leases",
        );
        assert!(p.is_noop());
    }

    #[test]
    fn kill_budget_fires_once_reached() {
        let mut s = FaultState::new(FaultPlan::parse("kill_after_leases=2"));
        assert!(!s.lease_started());
        assert!(s.lease_started());
        assert!(s.lease_started(), "stays dead past the threshold");
    }
}
