//! What every workload shares: the run's parameters, the measurement
//! protocol (set-up median, warm-up, timed reps) and the result record.

use crate::alloc;
use crate::catalogue::{END_TO_END, PER_LAYER};
use crate::stats;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Times set-up is repeated for the `setup_s` median. The first one pays the
/// process's first-touch page faults; the median does not.
const SETUP_REPS: usize = 9;

/// Timed reps are repeated until `--seconds` have passed, but at least this
/// often.
const MIN_REPS: usize = 3;

/// One timed rep's cost. A rep is timed in one or more *parts* (one compile,
/// one operator, ...) that every rep of the workload runs in the same order.
#[derive(Debug, Clone, Default)]
pub struct RepCost {
    /// Seconds per part.
    pub parts: Vec<f64>,
    pub allocs: u64,
    /// Operations the rep performed (requests, compiles, trials, ...).
    pub ops: u64,
}

impl RepCost {
    /// Runs `f` as the rep's next timed part, counting its allocations.
    pub fn part<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let before = alloc::snapshot();
        let start = Instant::now();
        let out = f();
        self.parts.push(start.elapsed().as_secs_f64());
        self.allocs += alloc::snapshot().allocs_since(&before);
        out
    }

    pub fn secs(&self) -> f64 {
        self.parts.iter().sum()
    }

    pub fn us_per_op(&self) -> f64 {
        self.secs() * 1e6 / self.ops as f64
    }
}

/// Each part's fastest time over `reps`, summed, in us per operation.
fn fastest_us_per_op(reps: &[RepCost]) -> f64 {
    let parts = reps[0].parts.len();
    assert!(
        reps.iter()
            .all(|r| r.parts.len() == parts && r.ops == reps[0].ops),
        "reps differ in shape"
    );
    let secs: f64 = (0..parts)
        .map(|k| {
            reps.iter()
                .map(|r| r.parts[k])
                .fold(f64::INFINITY, f64::min)
        })
        .sum();
    secs * 1e6 / reps[0].ops as f64
}

/// Mean host time of `f` over `iters` calls, ns — for the per-layer probes
/// of calls too short to time one by one.
pub fn mean_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Scratch directory of this run (artifact caches, tuning logs, dumps),
    /// inside the checkout; removed when the run ends.
    pub work_dir: PathBuf,
    values: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
}

impl Ctx {
    pub fn new(seed: u64, seconds: f64, traced: bool, work_dir: PathBuf) -> Self {
        Ctx {
            seed,
            seconds,
            traced,
            work_dir,
            values: BTreeMap::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Records a metric of the catalogue (end-to-end or per-layer).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|m| m.name == name) || PER_LAYER.iter().any(|m| m.name == name),
            "`{name}` is not in the catalogue"
        );
        assert!(value.is_finite(), "metric `{name}` is {value}");
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Counts operations whose outcome the program itself reports.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// One output check: an attempted operation that fails loudly.
    pub fn check(&mut self, ok: bool, what: impl std::fmt::Display) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            println!("CHECK FAILED: {what}");
        }
    }

    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Runs `setup` [`SETUP_REPS`] times (once in the traced run, which does
    /// not report `setup_s`), keeps the last result and records the median
    /// time as `setup_s`.
    pub fn setup<T>(&mut self, mut setup: impl FnMut() -> T) -> T {
        let reps = if self.traced { 1 } else { SETUP_REPS };
        let mut times = Vec::with_capacity(reps);
        let mut last = None;
        for _ in 0..reps {
            drop(last.take()); // never hold two set-ups' memory at once
            let start = Instant::now();
            last = Some(setup());
            times.push(start.elapsed().as_secs_f64());
        }
        self.set("setup_s", stats::median(&times));
        last.expect("at least one set-up ran")
    }

    /// The measurement protocol. `rep` is one repetition of the workload's
    /// timed section, making its calls through the tracer it is handed.
    ///
    /// One untimed warm-up rep, identical to a timed one, runs first. Then,
    /// with the tracer off, `rep` repeats until `--seconds` have passed and
    /// at least [`MIN_REPS`] times. `host_us_per_op` sums each part's
    /// *fastest* time over the reps: in this sandbox interference only ever
    /// adds time, in bursts lasting seconds, so over ten runs the fastest of
    /// many short reps spreads by 2 % where their median spreads by 17 %
    /// (README, "Sandbox findings"). The median and quartiles of whole reps
    /// are printed beside it. `allocs_per_op` is a
    /// count and takes the median. The traced run stops at [`MIN_REPS`]
    /// untraced reps (`bench.rep_spread`), then runs as many through
    /// `tracer` (`bench.trace_overhead_ratio`, fastest over fastest).
    pub fn measure(&mut self, tracer: &Tracer, mut rep: impl FnMut(&mut Ctx, &Tracer) -> RepCost) {
        let off = Tracer::new(false);
        rep(self, &off); // warm-up
        let start = Instant::now();
        let mut reps = Vec::new();
        while reps.len() < MIN_REPS
            || (!self.traced && start.elapsed().as_secs_f64() < self.seconds)
        {
            reps.push(rep(self, &off));
        }
        let us_per_op: Vec<f64> = reps.iter().map(RepCost::us_per_op).collect();
        let allocs_per_op: Vec<f64> = reps
            .iter()
            .map(|r| r.allocs as f64 / r.ops as f64)
            .collect();
        let fastest = fastest_us_per_op(&reps);
        let spread = stats::iqr_over_median(&us_per_op);
        println!(
            "{} timed reps of {} ops in {} part(s): host us/op fastest {fastest:.4}, q1 {:.4}, median {:.4}, q3 {:.4}, (q3-q1)/median {spread:.4}",
            reps.len(),
            reps[0].ops,
            reps[0].parts.len(),
            stats::percentile(&us_per_op, 0.25),
            stats::median(&us_per_op),
            stats::percentile(&us_per_op, 0.75),
        );
        self.set("host_us_per_op", fastest);
        self.set("allocs_per_op", stats::median(&allocs_per_op));
        self.set("bench.rep_spread", spread);
        if self.traced {
            let traced: Vec<RepCost> = (0..MIN_REPS).map(|_| rep(self, tracer)).collect();
            self.set(
                "bench.trace_overhead_ratio",
                fastest_us_per_op(&traced) / fastest,
            );
        }
    }
}
