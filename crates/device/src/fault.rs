//! Deterministic fault injection: one plan, one grammar, four failure domains.
//!
//! A fault plan is a comma-separated list of `key=N` items; two knobs take
//! an optional second number after `:`. The CLI reads it once, from
//! `UNIGPU_FAULTS` or `--faults`, and hands each domain its view:
//!
//! | item | domain | effect |
//! |---|---|---|
//! | `kernel_fail_nth=N` | device | every Nth kernel launch transiently fails (after occupying its lane) |
//! | `kernel_fail_first=N` | device | the first N launches all fail, then the device heals |
//! | `throttle_after_ms=M[:F]` | device | after M ms of busy time every launch runs F× slower (F ≥ 1, default 2) |
//! | `mem_pressure=B` | device | launches with batch size > B fail with a non-transient out-of-memory fault |
//! | `worker_panic_nth=N` | device | every Nth *batch* panics the serving worker processing it |
//! | `kill_after_leases=K` | farm worker | the worker dies the moment its Kth lease is granted |
//! | `drop_conn_nth=K` | wire | every Kth outgoing frame kills the connection before a byte is sent |
//! | `corrupt_byte_nth=K` | wire | every Kth outgoing frame has one body byte flipped |
//! | `truncate_frame_nth=K` | wire | every Kth outgoing frame is cut in half, then the connection dies |
//! | `dup_frame_nth=K` | wire | every Kth outgoing frame is written twice |
//! | `delay_frame_nth=K[:MS]` | wire | every Kth outgoing frame is held MS ms (default 0) |
//! | `die_on_submit=N` | fleet replica | the replica dies on its Nth submit |
//!
//! [`FaultPlan`]'s `FromStr` is the only parser: it rejects unknown keys and
//! malformed values, naming the offending item, and its `Display` prints the
//! canonical form, which parses back to the same plan. Everything is
//! counter-based — no RNG — so a faulty run is exactly reproducible, and an
//! empty plan leaves every launch untouched (`base × 1.0`, bit-identical to
//! a fault-free build).

use std::fmt;
use std::str::FromStr;

/// Every knob of every failure domain. Default is no faults.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultPlan {
    /// The kernel-launch and worker-panic knobs a `Server` consumes.
    pub device: DeviceFaultPlan,
    /// The wire knobs every `ChaosStream` of the process consumes.
    pub net: NetFaultPlan,
    /// A farm worker dies when its Kth lease is granted.
    pub kill_after_leases: Option<u64>,
    /// A fleet replica dies on its Nth submit (1-based).
    pub die_on_submit: Option<usize>,
}

/// The device view: what `DeviceFaultState` counts against.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DeviceFaultPlan {
    /// Every Nth launch fails transiently (1-based; `None` = never).
    pub kernel_fail_nth: Option<u64>,
    /// The first N launches all fail, then the device heals.
    pub kernel_fail_first: Option<u64>,
    /// `(M, F)`: once M ms of busy time accumulate, launches run F× slower.
    pub throttle: Option<(f64, f64)>,
    /// Launches with batch size above this fail with an OOM fault.
    pub mem_pressure_batch: Option<usize>,
    /// Every Nth batch panics the worker processing it.
    pub worker_panic_nth: Option<u64>,
}

impl DeviceFaultPlan {
    /// The device knobs of a fault-plan spec. Panics on a malformed spec;
    /// the CLI parses [`FaultPlan`] instead and reports the error.
    pub fn parse(spec: &str) -> DeviceFaultPlan {
        spec.parse::<FaultPlan>()
            .unwrap_or_else(|e| panic!("{e}"))
            .device
    }
}

/// The wire view: what a `ChaosStream` counts outgoing frames against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetFaultPlan {
    /// Kill the connection on every Kth outgoing frame (1-based).
    pub drop_conn_nth: Option<u64>,
    /// Flip one byte in every Kth outgoing frame.
    pub corrupt_byte_nth: Option<u64>,
    /// Cut every Kth outgoing frame in half and kill the connection.
    pub truncate_frame_nth: Option<u64>,
    /// Send every Kth outgoing frame twice.
    pub dup_frame_nth: Option<u64>,
    /// `(K, MS)`: hold every Kth outgoing frame MS ms before sending.
    pub delay_frame_nth: Option<(u64, u64)>,
}

impl NetFaultPlan {
    /// The wire knobs of a fault-plan spec. Panics on a malformed spec;
    /// the CLI parses [`FaultPlan`] instead and reports the error.
    pub fn parse(spec: &str) -> NetFaultPlan {
        spec.parse::<FaultPlan>()
            .unwrap_or_else(|e| panic!("{e}"))
            .net
    }
}

/// Where one knob's value lives, by the shape of that value.
enum Slot<'a> {
    /// `N`, a whole number ≥ 1: a counter period or a budget.
    Count(&'a mut Option<u64>),
    /// `N`, a whole number ≥ the given minimum.
    Size(&'a mut Option<usize>, usize),
    /// `M[:F]`: a finite threshold ≥ 0 and a finite factor ≥ 1 (default 2).
    Throttle(&'a mut Option<(f64, f64)>),
    /// `K[:MS]`: a period ≥ 1 and a delay (default 0).
    Delay(&'a mut Option<(u64, u64)>),
}

/// The grammar: every knob of `p` by key, in the order `Display` prints.
fn slots(p: &mut FaultPlan) -> [(&'static str, Slot<'_>); 12] {
    let (d, n) = (&mut p.device, &mut p.net);
    [
        ("kernel_fail_nth", Slot::Count(&mut d.kernel_fail_nth)),
        ("kernel_fail_first", Slot::Count(&mut d.kernel_fail_first)),
        ("throttle_after_ms", Slot::Throttle(&mut d.throttle)),
        ("mem_pressure", Slot::Size(&mut d.mem_pressure_batch, 0)),
        ("worker_panic_nth", Slot::Count(&mut d.worker_panic_nth)),
        ("kill_after_leases", Slot::Count(&mut p.kill_after_leases)),
        ("drop_conn_nth", Slot::Count(&mut n.drop_conn_nth)),
        ("corrupt_byte_nth", Slot::Count(&mut n.corrupt_byte_nth)),
        ("truncate_frame_nth", Slot::Count(&mut n.truncate_frame_nth)),
        ("dup_frame_nth", Slot::Count(&mut n.dup_frame_nth)),
        ("delay_frame_nth", Slot::Delay(&mut n.delay_frame_nth)),
        ("die_on_submit", Slot::Size(&mut p.die_on_submit, 1)),
    ]
}

fn number<T: FromStr>(v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("`{v}` is not a valid number here"))
}

fn at_least<T: PartialOrd + fmt::Display>(n: T, min: T) -> Result<T, String> {
    if n < min {
        return Err(format!("`{n}` must be at least {min}"));
    }
    Ok(n)
}

fn finite(v: &str) -> Result<f64, String> {
    number(v).and_then(|x: f64| {
        x.is_finite()
            .then_some(x)
            .ok_or_else(|| format!("`{v}` is not finite"))
    })
}

impl Slot<'_> {
    /// Store `first[:second]`, or say what is wrong with it.
    fn set(self, first: &str, second: Option<&str>) -> Result<(), String> {
        let single = || match second {
            None => Ok(first),
            Some(_) => Err("takes one number, not `N:M`".to_string()),
        };
        match self {
            Slot::Count(slot) => *slot = Some(at_least(number(single()?)?, 1)?),
            Slot::Size(slot, min) => *slot = Some(at_least(number(single()?)?, min)?),
            Slot::Throttle(slot) => {
                let factor = second.map_or(Ok(2.0), finite)?;
                *slot = Some((at_least(finite(first)?, 0.0)?, at_least(factor, 1.0)?));
            }
            Slot::Delay(slot) => {
                let ms = second.map_or(Ok(0), number)?;
                *slot = Some((at_least(number(first)?, 1)?, ms));
            }
        }
        Ok(())
    }

    /// The value as the grammar prints it, `None` when the knob is off.
    fn show(&self) -> Option<String> {
        match self {
            Slot::Count(slot) => slot.map(|n| n.to_string()),
            Slot::Size(slot, _) => slot.map(|n| n.to_string()),
            Slot::Throttle(slot) => slot.map(|(ms, factor)| format!("{ms}:{factor}")),
            Slot::Delay(slot) => slot.map(|(k, ms)| format!("{k}:{ms}")),
        }
    }
}

impl FromStr for FaultPlan {
    type Err = String;

    /// Parse `key=N[:M],...`. Blank items are skipped and a repeated key
    /// keeps its last value; anything else unreadable is an error naming
    /// the item.
    fn from_str(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for item in spec.split(',').map(str::trim).filter(|i| !i.is_empty()) {
            let bad = |why: String| format!("invalid fault plan item `{item}`: {why}");
            let (key, value) = item
                .split_once('=')
                .ok_or_else(|| bad("expected `key=value`".into()))?;
            let (key, value) = (key.trim(), value.trim());
            let (first, second) = match value.split_once(':') {
                Some((first, second)) => (first, Some(second)),
                None => (value, None),
            };
            let (_, slot) = slots(&mut plan)
                .into_iter()
                .find(|(k, _)| *k == key)
                .ok_or_else(|| {
                    let known = slots(&mut FaultPlan::default()).map(|(k, _)| k).join(", ");
                    bad(format!("unknown key `{key}` (known: {known})"))
                })?;
            slot.set(first, second).map_err(bad)?;
        }
        Ok(plan)
    }
}

impl fmt::Display for FaultPlan {
    /// The canonical spec: every active knob in grammar order.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut plan = *self;
        let mut sep = "";
        for (key, slot) in slots(&mut plan) {
            if let Some(value) = slot.show() {
                write!(f, "{sep}{key}={value}")?;
                sep = ",";
            }
        }
        Ok(())
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
            ..Default::default()
        }
    }

    /// Current thermal slowdown factor (1.0 when cool or no throttle knob).
    pub fn throttle_factor_now(&self) -> f64 {
        match self.plan.throttle {
            Some((after_ms, factor)) if self.busy_ms >= after_ms => factor,
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
            if self.launches.is_multiple_of(n) {
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
        matches!(self.plan.worker_panic_nth, Some(n) if self.batches.is_multiple_of(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unigpu_telemetry::hash::SplitMix64;

    fn plan(spec: &str) -> FaultPlan {
        spec.parse().unwrap_or_else(|e| panic!("{e}"))
    }

    #[test]
    fn parse_full_spec() {
        let p = plan(
            "kernel_fail_nth=4, kernel_fail_first=2 ,throttle_after_ms=50:1.5,mem_pressure=8,\
             worker_panic_nth=3,kill_after_leases=2,drop_conn_nth=13,corrupt_byte_nth=9,\
             truncate_frame_nth=6,dup_frame_nth=7,delay_frame_nth=5:20,die_on_submit=12,",
        );
        let d = p.device;
        assert_eq!(d.kernel_fail_nth, Some(4));
        assert_eq!(d.kernel_fail_first, Some(2));
        assert_eq!(d.throttle, Some((50.0, 1.5)));
        assert_eq!(d.mem_pressure_batch, Some(8));
        assert_eq!(d.worker_panic_nth, Some(3));
        assert_eq!(p.kill_after_leases, Some(2));
        assert_eq!(p.net.drop_conn_nth, Some(13));
        assert_eq!(p.net.corrupt_byte_nth, Some(9));
        assert_eq!(p.net.truncate_frame_nth, Some(6));
        assert_eq!(p.net.dup_frame_nth, Some(7));
        assert_eq!(p.net.delay_frame_nth, Some((5, 20)));
        assert_eq!(p.die_on_submit, Some(12));
        assert_eq!(
            p.to_string(),
            "kernel_fail_nth=4,kernel_fail_first=2,throttle_after_ms=50:1.5,mem_pressure=8,\
             worker_panic_nth=3,kill_after_leases=2,drop_conn_nth=13,corrupt_byte_nth=9,\
             truncate_frame_nth=6,dup_frame_nth=7,delay_frame_nth=5:20,die_on_submit=12"
        );
        assert!(p != FaultPlan::default() && p.net != NetFaultPlan::default());
        assert!(plan(" , ") == FaultPlan::default() && plan("").to_string().is_empty());
    }

    #[test]
    fn printed_plans_parse_back_to_themselves() {
        for case in 0..500 {
            let mut rng = SplitMix64::new(case);
            let nth = |rng: &mut SplitMix64| rng.chance(0.5).then(|| 1 + rng.next_u64() % 1000);
            let mut p = FaultPlan::default();
            p.device.kernel_fail_nth = nth(&mut rng);
            p.device.kernel_fail_first = nth(&mut rng);
            if rng.chance(0.5) {
                p.device.throttle = Some((rng.f64_in(0.0, 1e7), rng.f64_in(1.0, 8.0)));
            }
            p.device.mem_pressure_batch = rng.chance(0.5).then(|| rng.below(64));
            p.device.worker_panic_nth = nth(&mut rng);
            p.kill_after_leases = nth(&mut rng);
            p.net.drop_conn_nth = nth(&mut rng);
            p.net.corrupt_byte_nth = nth(&mut rng);
            p.net.truncate_frame_nth = nth(&mut rng);
            p.net.dup_frame_nth = nth(&mut rng);
            p.net.delay_frame_nth = nth(&mut rng).map(|k| (k, rng.next_u64() % 100));
            p.die_on_submit = nth(&mut rng).map(|n| n as usize);
            assert_eq!(
                p.to_string().parse::<FaultPlan>(),
                Ok(p),
                "case {case}: {p}"
            );
        }
        // extremes print in full and survive the trip too
        let p = plan("kernel_fail_nth=18446744073709551615,throttle_after_ms=0.000001:1");
        assert_eq!(p.to_string().parse::<FaultPlan>(), Ok(p));
    }

    #[test]
    fn malformed_items_are_rejected_by_name() {
        // the bad item is the last one of each spec
        for spec in [
            "kernal_fail_nth=2",
            "bogus=1",
            "kernel_fail_nth=4,kill_after_leases",
            "corrupt_byte_nth:9/truncate_frame_nth:13",
            "=3",
            "kernel_fail_nth=zero",
            "kernel_fail_nth=-1",
            "kernel_fail_nth=",
            "kernel_fail_nth=3:4",
            "mem_pressure=1.5",
            "delay_frame_nth=5:x",
            "kernel_fail_nth=0",
            "kill_after_leases=0",
            "die_on_submit=0",
            "delay_frame_nth=0:20",
            "throttle_after_ms=10:0.5",
            "throttle_after_ms=10:inf",
            "throttle_after_ms=10:NaN",
            "throttle_after_ms=nan",
            "throttle_after_ms=-1",
        ] {
            let item = spec.rsplit(',').next().unwrap();
            let err = spec.parse::<FaultPlan>().expect_err(spec);
            assert!(err.contains(&format!("item `{item}`")), "{spec}: {err}");
        }
        let err = "kernal_fail_nth=2".parse::<FaultPlan>().unwrap_err();
        assert!(err.contains("unknown key `kernal_fail_nth`"), "{err}");
    }

    #[test]
    fn views_project_the_one_parser() {
        let spec = "kernel_fail_nth=7,throttle_after_ms=5000000:1.5,mem_pressure=6,dup_frame_nth=3";
        let p = plan(spec);
        assert_eq!(DeviceFaultPlan::parse(spec), p.device);
        assert_eq!(NetFaultPlan::parse(spec), p.net);
        assert_eq!(NetFaultPlan::parse(""), NetFaultPlan::default());
    }

    #[test]
    fn throttle_factor_defaults_to_two() {
        assert_eq!(
            DeviceFaultPlan::parse("throttle_after_ms=10").throttle,
            Some((10.0, 2.0))
        );
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
