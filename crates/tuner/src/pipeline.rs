//! End-to-end tuning pipeline: tensor-level search per workload (AutoTVM)
//! followed by graph-level layout selection (GraphTuner), producing the
//! tuning database consumed by the latency estimator.

use crate::dispatch::{DispatchError, Dispatcher, LocalDispatcher, TuneJob};
use crate::graph_tuner::{optimize_chain, ChainLayer, LayerCandidate};
use crate::records::{Database, TuneRecord};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use unigpu_device::DeviceSpec;
use unigpu_graph::{Graph, OpKind, ScheduleProvider};
use unigpu_ops::conv::ConvConfig;
use unigpu_ops::ConvWorkload;
use unigpu_telemetry::{tel_debug, tel_info};

/// Tuning effort knobs. Serializable because the farm protocol ships the
/// budget to remote workers alongside each job batch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TuningBudget {
    /// Measurements per distinct convolution workload.
    pub trials_per_workload: usize,
    /// Relative measurement noise (0 = deterministic).
    pub noise: f64,
    pub seed: u64,
    /// Top-k candidates per layer handed to the graph tuner.
    pub graph_candidates: usize,
}

impl Default for TuningBudget {
    fn default() -> Self {
        TuningBudget { trials_per_workload: 128, noise: 0.0, seed: 2019, graph_candidates: 4 }
    }
}

/// Collect the distinct conv workloads of a graph, in topological order
/// (with repetition order preserved for the chain view).
pub fn conv_workloads(g: &Graph) -> Vec<ConvWorkload> {
    g.nodes
        .iter()
        .filter_map(|n| match &n.op {
            OpKind::Conv2d { w, .. } => Some(*w),
            _ => None,
        })
        .collect()
}

/// Tune every convolution workload of `graph` for `spec` in-process, the
/// workloads spread over the host's lanes by [`LocalDispatcher`]. See
/// [`tune_graph_with`] for the dispatcher-parameterized form this delegates
/// to.
pub fn tune_graph(graph: &Graph, spec: &DeviceSpec, budget: &TuningBudget) -> Database {
    tune_graph_with(graph, spec, budget, &LocalDispatcher, None)
        .expect("local dispatch is infallible")
}

/// Tune every convolution workload of `graph` for `spec` through a
/// [`Dispatcher`].
///
/// Returns the database of best-found schedules. Tensor-level search runs
/// once per *distinct* workload (the database's whole point); the graph
/// tuner then re-selects among each layer's top candidates to minimize
/// kernel + layout-transform cost over the model's conv chain.
///
/// `prior` supports `--resume`: workloads the prior database already covers
/// are not re-dispatched — their record is reused directly (and stands in as
/// the sole layer candidate for the graph DP). Job indices still count all
/// distinct workloads, so a resumed run's seeds match an uninterrupted one.
pub fn tune_graph_with(
    graph: &Graph,
    spec: &DeviceSpec,
    budget: &TuningBudget,
    dispatcher: &dyn Dispatcher,
    prior: Option<&Database>,
) -> Result<Database, DispatchError> {
    let chain_wls = conv_workloads(graph);
    let mut db = Database::new();
    // per distinct workload: (top candidates sorted by cost)
    let mut candidates: HashMap<String, Vec<LayerCandidate>> = HashMap::new();

    // HashSet-keyed dedup: large models repeat blocks, and an O(n²) scan
    // over key strings pays quadratically on ResNet-50-sized graphs.
    let mut seen: HashSet<String> = HashSet::with_capacity(chain_wls.len());
    let mut distinct: Vec<ConvWorkload> = Vec::new();
    for w in &chain_wls {
        if seen.insert(w.key()) {
            distinct.push(*w);
        }
    }

    let mut jobs: Vec<TuneJob> = Vec::new();
    let mut resumed = 0usize;
    for (i, w) in distinct.iter().enumerate() {
        match prior.and_then(|p| p.lookup(&spec.name, w)) {
            Some(rec) => {
                resumed += 1;
                candidates.insert(
                    w.key(),
                    vec![LayerCandidate { config: rec.config, kernel_ms: rec.cost_ms }],
                );
                db.insert(rec.clone());
            }
            None => jobs.push(TuneJob { index: i, workload: *w }),
        }
    }
    if resumed > 0 {
        tel_info!(
            "tuner::pipeline",
            "resuming: {} of {} workload(s) already tuned for {}",
            resumed,
            distinct.len(),
            spec.name
        );
    }

    if !jobs.is_empty() {
        tel_debug!(
            "tuner::pipeline",
            "dispatching {} workload(s) for {} via {}",
            jobs.len(),
            spec.name,
            dispatcher.name()
        );
        for outcome in dispatcher.dispatch(&jobs, spec, budget)? {
            candidates.insert(
                outcome.record.workload.clone(),
                outcome
                    .candidates
                    .iter()
                    .map(|c| LayerCandidate { config: c.config, kernel_ms: c.kernel_ms })
                    .collect(),
            );
            db.insert(outcome.record);
        }
    }

    // ---- graph-level layout DP over the conv chain ----
    if chain_wls.len() >= 2 {
        let layers: Vec<ChainLayer> = chain_wls
            .iter()
            .map(|w| ChainLayer { workload: *w, candidates: candidates[&w.key()].clone() })
            .collect();
        let plan = optimize_chain(&layers, spec);
        // Record the graph-tuned choice per workload (first occurrence wins:
        // repeated workloads overwhelmingly sit in identical neighbourhoods).
        let mut chosen: HashMap<String, (ConvConfig, f64)> = HashMap::new();
        for (layer, &c) in layers.iter().zip(&plan.choice) {
            chosen
                .entry(layer.workload.key())
                .or_insert_with(|| {
                    let cand = &layer.candidates[c];
                    (cand.config, cand.kernel_ms)
                });
        }
        for w in &distinct {
            if let Some(&(config, cost_ms)) = chosen.get(&w.key()) {
                // Replace even if marginally slower at tensor level: the
                // chain total (kernels + transforms) is what the DP minimized.
                db.insert_replace(TuneRecord {
                    device: spec.name.clone(),
                    workload: w.key(),
                    config,
                    cost_ms,
                    trials: budget.trials_per_workload,
                });
            }
        }
    }
    Ok(db)
}

/// [`ScheduleProvider`] backed by a tuning database, with fallback for
/// unknown workloads.
#[derive(Debug, Clone)]
pub struct TunedSchedules {
    db: Database,
}

impl TunedSchedules {
    pub fn new(db: Database) -> Self {
        TunedSchedules { db }
    }

    /// Serialize the tuned state as sorted records — the form a compiled-
    /// model artifact embeds (schedules only; no weights, no graph).
    pub fn to_records(&self) -> Vec<TuneRecord> {
        self.db.records()
    }

    /// Rebuild the provider from artifact records.
    pub fn from_records(records: impl IntoIterator<Item = TuneRecord>) -> Self {
        TunedSchedules { db: Database::from_records(records) }
    }
}

impl ScheduleProvider for TunedSchedules {
    fn conv_config(&self, w: &ConvWorkload, spec: &DeviceSpec) -> ConvConfig {
        self.db
            .lookup(&spec.name, w)
            .map(|r| r.config)
            .unwrap_or_else(|| ConvConfig::fallback_for(w, spec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unigpu_graph::latency::FallbackSchedules;
    use unigpu_graph::{estimate_latency, place, Activation, LatencyOptions, PlacementPolicy};
    use unigpu_device::Platform;
    use unigpu_tensor::{Shape, Tensor};

    fn conv_chain_graph() -> Graph {
        let mut g = Graph::new("chain3");
        let wls = [
            ConvWorkload::square(1, 64, 64, 28, 3, 1, 1),
            ConvWorkload::square(1, 64, 128, 28, 1, 1, 0),
            ConvWorkload::square(1, 128, 128, 28, 3, 1, 1),
        ];
        let mut x = g.add(OpKind::Input { shape: Shape::from(wls[0].input_shape()) }, vec![], "x");
        for (i, w) in wls.iter().enumerate() {
            let k = g.add(OpKind::constant(Tensor::zeros(w.weight_shape())), vec![], format!("w{i}"));
            x = g.add(
                OpKind::Conv2d { w: *w, bias: false, act: Activation::Relu },
                vec![x, k],
                format!("conv{i}"),
            );
        }
        g.mark_output(x);
        g
    }

    #[test]
    fn tuned_database_covers_all_workloads() {
        let g = conv_chain_graph();
        let spec = unigpu_device::DeviceSpec::mali_t860();
        let budget = TuningBudget { trials_per_workload: 48, ..Default::default() };
        let db = tune_graph(&g, &spec, &budget);
        assert_eq!(db.len(), 3);
        for w in conv_workloads(&g) {
            assert!(db.lookup(&spec.name, &w).is_some(), "missing {w}");
        }
    }

    #[test]
    fn tuned_model_is_faster_end_to_end() {
        let g = conv_chain_graph();
        for plat in Platform::all() {
            let budget = TuningBudget { trials_per_workload: 64, ..Default::default() };
            let db = tune_graph(&g, &plat.gpu, &budget);
            let tuned = TunedSchedules::new(db);
            let placed = place(&g, PlacementPolicy::AllGpu);
            let opts = LatencyOptions::default();
            let before = estimate_latency(&placed, &plat, &FallbackSchedules, &opts);
            let after = estimate_latency(&placed, &plat, &tuned, &opts);
            assert!(
                after.total_ms < before.total_ms,
                "{}: tuned {:.3} must beat fallback {:.3}",
                plat.name,
                after.total_ms,
                before.total_ms
            );
        }
    }

    #[test]
    fn tuned_schedules_round_trip_through_records() {
        let g = conv_chain_graph();
        let spec = unigpu_device::DeviceSpec::mali_t860();
        let budget = TuningBudget { trials_per_workload: 32, ..Default::default() };
        let tuned = TunedSchedules::new(tune_graph(&g, &spec, &budget));
        let records = tuned.to_records();
        assert_eq!(records.len(), 3);
        assert!(records.windows(2).all(|p| (&p[0].device, &p[0].workload)
            <= (&p[1].device, &p[1].workload)));
        let back = TunedSchedules::from_records(records);
        for w in conv_workloads(&g) {
            assert_eq!(back.conv_config(&w, &spec), tuned.conv_config(&w, &spec));
        }
    }

    /// Every job tuned on the caller, in job order: the oracle of the lanes.
    struct TuneEach;

    impl Dispatcher for TuneEach {
        fn name(&self) -> String {
            "each".into()
        }

        fn dispatch(
            &self,
            jobs: &[TuneJob],
            spec: &DeviceSpec,
            budget: &TuningBudget,
        ) -> Result<Vec<crate::dispatch::TuneOutcome>, DispatchError> {
            Ok(jobs.iter().map(|j| crate::dispatch::tune_one(j, spec, budget)).collect())
        }
    }

    #[test]
    fn tune_graph_matches_the_tune_one_loop() {
        let g = conv_chain_graph();
        let spec = unigpu_device::DeviceSpec::intel_hd505();
        let budget = TuningBudget { trials_per_workload: 32, ..Default::default() };
        let local = tune_graph(&g, &spec, &budget);
        let each = tune_graph_with(&g, &spec, &budget, &TuneEach, None).unwrap();
        assert_eq!(local.records(), each.records(), "noise=0 ⇒ bit-identical databases");
    }

    #[test]
    fn resume_skips_prior_workloads_and_still_covers_the_graph() {
        let g = conv_chain_graph();
        let spec = unigpu_device::DeviceSpec::mali_t860();
        let budget = TuningBudget { trials_per_workload: 32, ..Default::default() };
        let full = tune_graph(&g, &spec, &budget);

        let wls = conv_workloads(&g);
        let mut prior = Database::new();
        prior.insert(full.lookup(&spec.name, &wls[0]).unwrap().clone());

        let resumed =
            tune_graph_with(&g, &spec, &budget, &LocalDispatcher, Some(&prior)).unwrap();
        assert_eq!(resumed.len(), full.len());
        for w in &wls {
            assert!(resumed.lookup(&spec.name, w).is_some(), "missing {w}");
        }
        // the resumed workload keeps the prior schedule (it was never re-searched)
        assert_eq!(
            resumed.lookup(&spec.name, &wls[0]).unwrap().config,
            prior.lookup(&spec.name, &wls[0]).unwrap().config
        );
    }

    #[test]
    fn fully_resumed_run_dispatches_nothing() {
        let g = conv_chain_graph();
        let spec = unigpu_device::DeviceSpec::mali_t860();
        let budget = TuningBudget { trials_per_workload: 24, ..Default::default() };
        let full = tune_graph(&g, &spec, &budget);

        struct NoDispatch;
        impl crate::dispatch::Dispatcher for NoDispatch {
            fn name(&self) -> String {
                "refuses".into()
            }
            fn dispatch(
                &self,
                jobs: &[crate::dispatch::TuneJob],
                _spec: &unigpu_device::DeviceSpec,
                _budget: &TuningBudget,
            ) -> Result<Vec<crate::dispatch::TuneOutcome>, crate::dispatch::DispatchError> {
                panic!("dispatched {} job(s) on a fully resumed run", jobs.len());
            }
        }
        let resumed = tune_graph_with(&g, &spec, &budget, &NoDispatch, Some(&full)).unwrap();
        assert_eq!(resumed.len(), full.len());
    }

    #[test]
    fn unknown_workloads_fall_back() {
        let provider = TunedSchedules::new(Database::new());
        let w = ConvWorkload::square(1, 16, 16, 10, 3, 1, 1);
        let spec = unigpu_device::DeviceSpec::intel_hd505();
        assert_eq!(provider.conv_config(&w, &spec), ConvConfig::fallback_for(&w, &spec));
    }
}
