//! Deterministic device-fault injection for serving chaos tests.
//!
//! `UNIGPU_FAULTS` is a comma-separated `key=value` list describing how the
//! simulated device misbehaves under load, mirroring the counter-based
//! `UNIGPU_FARM_FAULTS` design in `unigpu-farm`:
//!
//! * `kernel_fail_nth=N` — every Nth kernel launch transiently fails
//!   (driver reports an error after the launch occupied the lane);
//! * `kernel_fail_first=N` — the first N launches all fail, then the
//!   device is healthy (a recovery window for circuit-breaker tests);
//! * `throttle_after_ms=M[:F]` — thermal throttling: once the device has
//!   accumulated M ms of simulated busy time, every subsequent launch runs
//!   F× slower (default factor 2.0);
//! * `mem_pressure=B` — memory pressure: launches with batch size > B fail
//!   deterministically with an out-of-memory fault (non-transient — the
//!   caller must re-place the work, not retry it);
//! * `worker_panic_nth=N` — every Nth *batch* panics the worker thread
//!   processing it (an engine-level fault: the serving layer consults this
//!   to exercise its panic isolation).
//!
//! Everything is counter-based — no RNG — so a single-worker faulty run is
//! exactly reproducible, and an empty plan leaves every launch untouched
//! (`base × 1.0`, bit-identical to a fault-free build).

/// Parsed `UNIGPU_FAULTS` knobs. Default is no faults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceFaultPlan {
    /// Every Nth launch fails transiently (1-based; `None` = never).
    pub kernel_fail_nth: Option<u64>,
    /// The first N launches all fail, then the device heals.
    pub kernel_fail_first: Option<u64>,
    /// Busy-time threshold (ms) after which throttling engages.
    pub throttle_after_ms: Option<f64>,
    /// Slowdown factor once throttled (only meaningful with
    /// `throttle_after_ms`; default 2.0).
    pub throttle_factor: f64,
    /// Launches with batch size above this fail with an OOM fault.
    pub mem_pressure_batch: Option<usize>,
    /// Every Nth batch panics the worker processing it.
    pub worker_panic_nth: Option<u64>,
}

impl Default for DeviceFaultPlan {
    fn default() -> Self {
        DeviceFaultPlan {
            kernel_fail_nth: None,
            kernel_fail_first: None,
            throttle_after_ms: None,
            throttle_factor: 2.0,
            mem_pressure_batch: None,
            worker_panic_nth: None,
        }
    }
}

impl DeviceFaultPlan {
    /// Parse a `UNIGPU_FAULTS` spec. Unknown keys and unparseable values
    /// are ignored — fault injection must never break a real run.
    pub fn parse(spec: &str) -> DeviceFaultPlan {
        let mut plan = DeviceFaultPlan::default();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let mut kv = part.splitn(2, '=');
            let key = kv.next().unwrap_or("");
            let value = kv.next().map(str::trim);
            match key {
                "kernel_fail_nth" => {
                    if let Some(v) = value.and_then(|v| v.parse().ok()) {
                        if v > 0 {
                            plan.kernel_fail_nth = Some(v);
                        }
                    }
                }
                "kernel_fail_first" => {
                    if let Some(v) = value.and_then(|v| v.parse().ok()) {
                        if v > 0 {
                            plan.kernel_fail_first = Some(v);
                        }
                    }
                }
                "throttle_after_ms" => {
                    // value is `M` or `M:F` (threshold ms, slowdown factor)
                    let mut mf = value.unwrap_or("").splitn(2, ':');
                    let ms: Option<f64> = mf.next().and_then(|v| v.parse().ok());
                    if let Some(ms) = ms.filter(|m| m.is_finite() && *m >= 0.0) {
                        plan.throttle_after_ms = Some(ms);
                        if let Some(f) = mf.next().and_then(|v| v.parse::<f64>().ok()) {
                            if f.is_finite() && f >= 1.0 {
                                plan.throttle_factor = f;
                            }
                        }
                    }
                }
                "mem_pressure" => {
                    if let Some(v) = value.and_then(|v| v.parse().ok()) {
                        plan.mem_pressure_batch = Some(v);
                    }
                }
                "worker_panic_nth" => {
                    if let Some(v) = value.and_then(|v| v.parse().ok()) {
                        if v > 0 {
                            plan.worker_panic_nth = Some(v);
                        }
                    }
                }
                _ => {}
            }
        }
        plan
    }

    /// Read the plan from `UNIGPU_FAULTS` (empty plan when unset).
    pub fn from_env() -> DeviceFaultPlan {
        match std::env::var("UNIGPU_FAULTS") {
            Ok(s) => DeviceFaultPlan::parse(&s),
            Err(_) => DeviceFaultPlan::default(),
        }
    }

    pub fn is_noop(&self) -> bool {
        *self == DeviceFaultPlan::default()
    }
}

/// How a kernel launch misbehaved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceFault {
    /// Transient launch failure — retrying on the same device may succeed.
    KernelFail,
    /// The launch does not fit device memory — retrying is pointless; the
    /// work must be re-placed (smaller batch or another device).
    OutOfMemory,
}

impl DeviceFault {
    /// Whether retrying the same launch on the same device can succeed.
    pub fn is_transient(&self) -> bool {
        matches!(self, DeviceFault::KernelFail)
    }

    /// The name traces and flight-recorder dumps show.
    pub fn as_str(&self) -> &'static str {
        match self {
            DeviceFault::KernelFail => "kernel_fail",
            DeviceFault::OutOfMemory => "oom",
        }
    }
}

impl std::fmt::Display for DeviceFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Outcome of one kernel launch under the fault plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LaunchOutcome {
    /// The launch runs for this many ms (base duration × throttle factor).
    Ok {
        duration_ms: f64,
    },
    Fault(DeviceFault),
}

/// Per-device fault counters, advanced on every launch. Share one state per
/// simulated device (behind a lock) so sustained load from any worker heats
/// the same silicon.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeviceFaultState {
    plan: DeviceFaultPlan,
    launches: u64,
    busy_ms: f64,
    batches: u64,
}

impl DeviceFaultState {
    pub fn new(plan: DeviceFaultPlan) -> Self {
        DeviceFaultState {
            plan,
            launches: 0,
            busy_ms: 0.0,
            batches: 0,
        }
    }

    pub fn plan(&self) -> &DeviceFaultPlan {
        &self.plan
    }

    /// Simulated busy time the device has accumulated (successful launches).
    pub fn busy_ms(&self) -> f64 {
        self.busy_ms
    }

    /// Current thermal slowdown factor (1.0 when cool or no throttle knob).
    pub fn throttle_factor_now(&self) -> f64 {
        match self.plan.throttle_after_ms {
            Some(after) if self.busy_ms >= after => self.plan.throttle_factor,
            _ => 1.0,
        }
    }

    /// Advance the launch counter and price one launch of `base_ms` at
    /// batch size `batch`: either the (possibly throttled) duration, or the
    /// fault the counters landed on. With a no-op plan this is exactly
    /// `base_ms × 1.0` — bit-identical to an un-instrumented run.
    pub fn on_launch(&mut self, base_ms: f64, batch: usize) -> LaunchOutcome {
        self.launches += 1;
        if let Some(limit) = self.plan.mem_pressure_batch {
            if batch > limit {
                return LaunchOutcome::Fault(DeviceFault::OutOfMemory);
            }
        }
        if let Some(n) = self.plan.kernel_fail_first {
            if self.launches <= n {
                return LaunchOutcome::Fault(DeviceFault::KernelFail);
            }
        }
        if let Some(n) = self.plan.kernel_fail_nth {
            if self.launches % n == 0 {
                return LaunchOutcome::Fault(DeviceFault::KernelFail);
            }
        }
        let duration_ms = base_ms * self.throttle_factor_now();
        self.busy_ms += duration_ms;
        LaunchOutcome::Ok { duration_ms }
    }

    /// Advance the batch counter; `true` means the worker processing this
    /// batch must panic now (engine-level chaos for panic-isolation tests).
    pub fn worker_panic_now(&mut self) -> bool {
        self.batches += 1;
        matches!(self.plan.worker_panic_nth, Some(n) if self.batches % n == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_spec() {
        let p = DeviceFaultPlan::parse(
            "kernel_fail_nth=4, kernel_fail_first=2 ,throttle_after_ms=50:1.5,mem_pressure=8,worker_panic_nth=3",
        );
        assert_eq!(p.kernel_fail_nth, Some(4));
        assert_eq!(p.kernel_fail_first, Some(2));
        assert_eq!(p.throttle_after_ms, Some(50.0));
        assert_eq!(p.throttle_factor, 1.5);
        assert_eq!(p.mem_pressure_batch, Some(8));
        assert_eq!(p.worker_panic_nth, Some(3));
        assert!(!p.is_noop());
    }

    #[test]
    fn junk_is_ignored() {
        let p = DeviceFaultPlan::parse(
            "bogus=1,kernel_fail_nth=zero,kernel_fail_nth=0,,=,throttle_after_ms=nan,throttle_after_ms",
        );
        assert!(p.is_noop());
    }

    #[test]
    fn throttle_factor_defaults_to_two() {
        let p = DeviceFaultPlan::parse("throttle_after_ms=10");
        assert_eq!(p.throttle_after_ms, Some(10.0));
        assert_eq!(p.throttle_factor, 2.0);
    }

    #[test]
    fn noop_plan_is_bit_identical() {
        let mut s = DeviceFaultState::new(DeviceFaultPlan::default());
        for base in [0.125, 3.75, 1e-3] {
            assert_eq!(
                s.on_launch(base, 4),
                LaunchOutcome::Ok { duration_ms: base }
            );
        }
        assert!(!s.worker_panic_now());
    }

    #[test]
    fn kernel_fail_nth_counts_launches() {
        let mut s = DeviceFaultState::new(DeviceFaultPlan::parse("kernel_fail_nth=3"));
        let outcomes: Vec<bool> = (0..6)
            .map(|_| matches!(s.on_launch(1.0, 1), LaunchOutcome::Fault(_)))
            .collect();
        assert_eq!(outcomes, vec![false, false, true, false, false, true]);
    }

    #[test]
    fn kernel_fail_first_heals_after_the_window() {
        let mut s = DeviceFaultState::new(DeviceFaultPlan::parse("kernel_fail_first=2"));
        assert!(matches!(
            s.on_launch(1.0, 1),
            LaunchOutcome::Fault(DeviceFault::KernelFail)
        ));
        assert!(matches!(
            s.on_launch(1.0, 1),
            LaunchOutcome::Fault(DeviceFault::KernelFail)
        ));
        assert!(matches!(s.on_launch(1.0, 1), LaunchOutcome::Ok { .. }));
    }

    #[test]
    fn throttling_engages_after_sustained_load() {
        let mut s = DeviceFaultState::new(DeviceFaultPlan::parse("throttle_after_ms=10:3"));
        // cool: full speed
        assert_eq!(s.on_launch(6.0, 1), LaunchOutcome::Ok { duration_ms: 6.0 });
        assert_eq!(s.on_launch(6.0, 1), LaunchOutcome::Ok { duration_ms: 6.0 });
        // 12 ms busy ≥ 10 ms threshold: 3× slower now
        assert_eq!(s.on_launch(6.0, 1), LaunchOutcome::Ok { duration_ms: 18.0 });
        assert_eq!(s.throttle_factor_now(), 3.0);
    }

    #[test]
    fn mem_pressure_faults_large_batches_only() {
        let mut s = DeviceFaultState::new(DeviceFaultPlan::parse("mem_pressure=4"));
        assert!(matches!(s.on_launch(1.0, 4), LaunchOutcome::Ok { .. }));
        let f = s.on_launch(1.0, 5);
        assert_eq!(f, LaunchOutcome::Fault(DeviceFault::OutOfMemory));
        assert!(!DeviceFault::OutOfMemory.is_transient());
        assert!(DeviceFault::KernelFail.is_transient());
    }

    #[test]
    fn worker_panic_counts_batches() {
        let mut s = DeviceFaultState::new(DeviceFaultPlan::parse("worker_panic_nth=2"));
        assert!(!s.worker_panic_now());
        assert!(s.worker_panic_now());
        assert!(!s.worker_panic_now());
        assert!(s.worker_panic_now());
    }
}
