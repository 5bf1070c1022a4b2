//! Search strategies over the convolution config space.
//!
//! All tuners implement [`Tuner`]: given a workload, a config space and a
//! measurement budget, return the best configuration found. The flagship is
//! [`ModelBasedTuner`] — the AutoTVM loop: measure a batch → train the GBT
//! surrogate on everything seen → propose the next batch by simulated
//! annealing on the surrogate with ε-greedy exploration.

use crate::features::{conv_features, CONV_FEATURE_DIM};
use crate::gbt::Gbt;
use crate::measure::Measurer;
use unigpu_ops::conv::{ConfigSpace, ConvConfig};
use unigpu_ops::ConvWorkload;
use unigpu_telemetry::hash::SplitMix64;

/// Outcome of a tuning run.
#[derive(Debug, Clone)]
pub struct TuneResult {
    pub best_config: ConvConfig,
    pub best_cost_ms: f64,
    pub trials: usize,
    /// Measured (config index, cost) history in trial order.
    pub history: Vec<(usize, f64)>,
}

/// A search strategy.
pub trait Tuner {
    fn tune(
        &mut self,
        w: &ConvWorkload,
        space: &ConfigSpace,
        measurer: &mut dyn Measurer,
        budget: usize,
    ) -> TuneResult;
}

/// Fold a measurement history into a [`TuneResult`].
///
/// An empty history (zero budget, or an exhausted/empty config space) is not
/// an error: every tuner falls back to [`ConvConfig::default_schedule`] with
/// an infinite cost, so callers can rank it honestly against real results
/// instead of panicking mid-search.
pub(crate) fn finish(history: Vec<(usize, f64)>, space: &ConfigSpace, trials: usize) -> TuneResult {
    match history.iter().min_by(|a, b| a.1.total_cmp(&b.1)) {
        Some(&(best_idx, best_cost)) => TuneResult {
            best_config: space.get(best_idx),
            best_cost_ms: best_cost,
            trials,
            history,
        },
        None => TuneResult {
            best_config: ConvConfig::default_schedule(),
            best_cost_ms: f64::INFINITY,
            trials: 0,
            history,
        },
    }
}

/// Uniform random search.
pub struct RandomTuner {
    rng: SplitMix64,
}

impl RandomTuner {
    pub fn new(seed: u64) -> Self {
        RandomTuner { rng: SplitMix64::new(seed) }
    }
}

impl Tuner for RandomTuner {
    fn tune(
        &mut self,
        w: &ConvWorkload,
        space: &ConfigSpace,
        measurer: &mut dyn Measurer,
        budget: usize,
    ) -> TuneResult {
        let mut history = Vec::with_capacity(budget);
        for _ in 0..budget {
            let idx = self.rng.below(space.len());
            history.push((idx, measurer.measure(w, &space.get(idx))));
        }
        finish(history, space, budget)
    }
}

/// Exhaustive / strided grid search.
pub struct GridTuner;

impl Tuner for GridTuner {
    fn tune(
        &mut self,
        w: &ConvWorkload,
        space: &ConfigSpace,
        measurer: &mut dyn Measurer,
        budget: usize,
    ) -> TuneResult {
        let stride = (space.len() / budget.max(1)).max(1);
        let mut history = Vec::new();
        let mut idx = 0;
        while idx < space.len() && history.len() < budget {
            history.push((idx, measurer.measure(w, &space.get(idx))));
            idx += stride;
        }
        let trials = history.len();
        finish(history, space, trials)
    }
}

/// Mutate one knob of a config index (radix neighbourhood move).
fn mutate(idx: usize, space: &ConfigSpace, rng: &mut SplitMix64) -> usize {
    let radix = space.radix();
    // decompose
    let mut digits = [0; 8];
    let mut rest = idx;
    for (d, &r) in digits.iter_mut().zip(&radix) {
        *d = rest % r;
        rest /= r;
    }
    // re-roll one knob
    let k = rng.below(radix.len());
    digits[k] = rng.below(radix[k]);
    // recompose
    let mut out = 0usize;
    for (d, r) in digits.iter().zip(&radix).rev() {
        out = out * r + d;
    }
    out
}

/// Simulated annealing directly on (noisy) measurements.
pub struct SaTuner {
    rng: SplitMix64,
    pub temperature: f64,
    pub cooling: f64,
}

impl SaTuner {
    pub fn new(seed: u64) -> Self {
        SaTuner { rng: SplitMix64::new(seed), temperature: 1.0, cooling: 0.985 }
    }
}

impl Tuner for SaTuner {
    fn tune(
        &mut self,
        w: &ConvWorkload,
        space: &ConfigSpace,
        measurer: &mut dyn Measurer,
        budget: usize,
    ) -> TuneResult {
        let mut t = self.temperature;
        let mut cur = self.rng.below(space.len());
        let mut cur_cost = measurer.measure(w, &space.get(cur));
        let mut history = vec![(cur, cur_cost)];
        for _ in 1..budget {
            let cand = mutate(cur, space, &mut self.rng);
            let cost = measurer.measure(w, &space.get(cand));
            history.push((cand, cost));
            let accept = cost < cur_cost || {
                let p = ((cur_cost - cost) / (t * cur_cost.max(1e-12))).exp();
                self.rng.f64_in(0.0, 1.0) < p
            };
            if accept {
                cur = cand;
                cur_cost = cost;
            }
            t *= self.cooling;
        }
        finish(history, space, budget)
    }
}

/// The AutoTVM-style model-based tuner: GBT surrogate + SA proposal +
/// ε-greedy batch selection.
pub struct ModelBasedTuner {
    rng: SplitMix64,
    /// Configs measured per outer iteration.
    pub batch: usize,
    /// Fraction of each batch drawn at random (exploration).
    pub epsilon: f64,
    /// SA steps per proposal walk on the surrogate.
    pub sa_steps: usize,
}

impl ModelBasedTuner {
    pub fn new(seed: u64) -> Self {
        ModelBasedTuner { rng: SplitMix64::new(seed), batch: 16, epsilon: 0.2, sa_steps: 128 }
    }

    /// Propose a batch of promising, unmeasured indices by annealing on the
    /// surrogate's predicted cost.
    fn propose(
        &mut self,
        space: &ConfigSpace,
        model: &Gbt,
        w: &ConvWorkload,
        spec: &unigpu_device::DeviceSpec,
        seen: &std::collections::HashSet<usize>,
        count: usize,
    ) -> Vec<usize> {
        let predict = |idx: usize, rng_model: &Gbt| -> f64 {
            let cfg = space.get(idx);
            rng_model.predict(&conv_features(w, &cfg, spec))
        };
        let mut pool: Vec<(usize, f64)> = Vec::with_capacity(self.sa_steps);
        let mut cur = self.rng.below(space.len());
        let mut cur_score = predict(cur, model);
        let mut temp = 1.0f64;
        for _ in 0..self.sa_steps {
            let cand = mutate(cur, space, &mut self.rng);
            let score = predict(cand, model);
            if !seen.contains(&cand) {
                pool.push((cand, score));
            }
            if score < cur_score
                || self.rng.f64_in(0.0, 1.0) < ((cur_score - score) / temp.max(1e-9)).exp()
            {
                cur = cand;
                cur_score = score;
            }
            temp *= 0.97;
        }
        pool.sort_by(|a, b| a.1.total_cmp(&b.1));
        pool.dedup_by_key(|p| p.0);
        // at most as many as are left unseen, or the top-up never ends
        let count = count.min(space.len() - seen.len());
        let mut out: Vec<usize> = pool.into_iter().map(|p| p.0).take(count).collect();
        // top-up with random unseen
        while out.len() < count {
            let idx = self.rng.below(space.len());
            if !seen.contains(&idx) && !out.contains(&idx) {
                out.push(idx);
            }
        }
        out
    }
}

impl Tuner for ModelBasedTuner {
    fn tune(
        &mut self,
        w: &ConvWorkload,
        space: &ConfigSpace,
        measurer: &mut dyn Measurer,
        budget: usize,
    ) -> TuneResult {
        use std::collections::HashSet;
        let spec = measurer.spec().clone();
        let mut history: Vec<(usize, f64)> = Vec::with_capacity(budget);
        let mut seen: HashSet<usize> = HashSet::with_capacity(budget);
        // The surrogate's training set, one row per measured trial: features
        // and log-cost (rank-robust).
        let mut xs: Vec<[f64; CONV_FEATURE_DIM]> = Vec::with_capacity(budget);
        let mut ys: Vec<f64> = Vec::with_capacity(budget);

        // A budget beyond the space ends once every config has been seen.
        while history.len() < budget && seen.len() < space.len() {
            let picks = if history.is_empty() {
                // Warm-up: one random batch.
                assert!(self.batch > 0, "a model-based search measures at least one trial per batch");
                let warm = self.batch.min(budget);
                (0..warm).map(|_| self.rng.below(space.len())).collect()
            } else {
                let model = Gbt::fit(&xs, &ys, 40, 3, 0.25);

                let remaining = budget - history.len();
                let batch = self.batch.min(remaining);
                let n_explore = ((batch as f64) * self.epsilon).round() as usize;
                let n_exploit = batch - n_explore;

                let mut picks = self.propose(space, &model, w, &spec, &seen, n_exploit);
                for _ in 0..n_explore {
                    let idx = self.rng.below(space.len());
                    picks.push(idx);
                }
                picks
            };
            for idx in picks {
                if history.len() >= budget {
                    break;
                }
                seen.insert(idx);
                let cfg = space.get(idx);
                let cost = measurer.measure(w, &cfg);
                history.push((idx, cost));
                xs.push(conv_features(w, &cfg, &spec));
                ys.push(cost.max(1e-9).ln());
            }
        }
        let trials = history.len();
        finish(history, space, trials)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::SimMeasurer;
    use unigpu_device::DeviceSpec;

    fn setup() -> (ConvWorkload, ConfigSpace, SimMeasurer) {
        let w = ConvWorkload::square(1, 128, 128, 28, 3, 1, 1);
        let spec = DeviceSpec::intel_hd505();
        let space = ConfigSpace::build(&w, &spec);
        (w, space, SimMeasurer::new(spec, 0.0, 42))
    }

    /// Brute-force optimum over a strided sample for comparison.
    fn good_reference_cost(w: &ConvWorkload, space: &ConfigSpace, m: &SimMeasurer) -> f64 {
        (0..space.len())
            .step_by(7)
            .map(|i| m.true_cost(w, &space.get(i)))
            .fold(f64::INFINITY, f64::min)
    }

    #[test]
    fn random_tuner_improves_over_default() {
        let (w, space, mut m) = setup();
        let default_cost = m.true_cost(&w, &ConvConfig::default_schedule());
        let r = RandomTuner::new(1).tune(&w, &space, &mut m, 200);
        assert!(r.best_cost_ms < default_cost, "{} vs {default_cost}", r.best_cost_ms);
        assert_eq!(r.trials, 200);
        assert_eq!(r.history.len(), 200);
    }

    #[test]
    fn model_tuner_beats_random_at_equal_budget() {
        let (w, space, mut m) = setup();
        let budget = 96;
        let rnd = RandomTuner::new(3).tune(&w, &space, &mut m, budget);
        let mut m2 = SimMeasurer::new(DeviceSpec::intel_hd505(), 0.0, 43);
        let mb = ModelBasedTuner::new(3).tune(&w, &space, &mut m2, budget);
        assert!(
            mb.best_cost_ms <= rnd.best_cost_ms * 1.05,
            "model {} should be <= random {}",
            mb.best_cost_ms,
            rnd.best_cost_ms
        );
    }

    #[test]
    fn model_tuner_approaches_strided_optimum() {
        let (w, space, mut m) = setup();
        let reference = good_reference_cost(&w, &space, &m);
        let r = ModelBasedTuner::new(7).tune(&w, &space, &mut m, 192);
        assert!(
            r.best_cost_ms <= reference * 1.3,
            "model-based best {} should approach sampled optimum {reference}",
            r.best_cost_ms
        );
    }

    #[test]
    fn sa_tuner_works_under_noise() {
        let (w, space, _) = setup();
        let mut noisy = SimMeasurer::new(DeviceSpec::intel_hd505(), 0.05, 11);
        let r = SaTuner::new(11).tune(&w, &space, &mut noisy, 150);
        let truth = noisy.true_cost(&w, &r.best_config);
        let default_truth = noisy.true_cost(&w, &ConvConfig::default_schedule());
        assert!(truth < default_truth);
    }

    #[test]
    fn grid_tuner_respects_budget() {
        let (w, space, mut m) = setup();
        let r = GridTuner.tune(&w, &space, &mut m, 50);
        assert!(r.trials <= 50);
        assert!(r.best_cost_ms.is_finite());
    }

    #[test]
    fn mutate_stays_in_space() {
        let (_, space, _) = setup();
        let mut rng = SplitMix64::new(0);
        for _ in 0..1000 {
            let idx = rng.below(space.len());
            let m = mutate(idx, &space, &mut rng);
            assert!(m < space.len());
        }
    }

    #[test]
    fn model_tuner_stops_once_a_small_space_is_exhausted() {
        // A depthwise 3×3 on a 1×1 map leaves few configs to try.
        let w = ConvWorkload::depthwise(1, 32, 1, 3, 1, 1);
        let spec = DeviceSpec::intel_hd505();
        let space = ConfigSpace::build(&w, &spec);
        let budget = space.len() + 160;
        let mut m = SimMeasurer::new(spec, 0.0, 42);
        let r = ModelBasedTuner::new(5).tune(&w, &space, &mut m, budget);
        assert_eq!(r.trials, r.history.len(), "trials counts the measurements made");
        assert!(r.trials < budget, "{} trials of a {budget} budget", r.trials);
        let seen: std::collections::HashSet<usize> = r.history.iter().map(|h| h.0).collect();
        assert_eq!(seen.len(), space.len(), "every config is measured before the search ends");
        let best = (0..space.len()).map(|i| m.true_cost(&w, &space.get(i))).fold(f64::INFINITY, f64::min);
        assert_eq!(r.best_cost_ms, best, "at noise 0 the search ends at the optimum");
    }

    #[test]
    fn deterministic_given_seed() {
        let (w, space, _) = setup();
        let run = |seed| {
            let mut m = SimMeasurer::new(DeviceSpec::intel_hd505(), 0.02, 5);
            ModelBasedTuner::new(seed).tune(&w, &space, &mut m, 64).best_cost_ms
        };
        assert_eq!(run(9), run(9));
    }
}
