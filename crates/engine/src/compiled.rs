//! The engine: compile once, run many.
//!
//! [`Engine`] owns the compilation policy (platform, placement, tuning
//! budget) and the [`ArtifactCache`]; [`Engine::compile`] resolves a model
//! through the cache or runs the full pipeline — graph optimization (§3.2.3
//! fusion + BN folding), device placement (§3.1.2), optional schedule search
//! (§3.2) — and returns a [`CompiledModel`] ready to estimate, execute, and
//! serve. A compiled model is immutable: it keeps the [`Artifact`] it was
//! built or loaded from, and its schedules never change after compile.

use crate::artifact::{
    records_digest, Artifact, ArtifactKey, ArtifactMeta, TuningState, ARTIFACT_KIND, ARTIFACT_VERSION,
};
use crate::cache::{default_artifact_dir, ArtifactCache, CacheStats};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use unigpu_device::{CostTable, DeviceSpec, Platform};
use unigpu_graph::latency::FallbackSchedules;
use unigpu_graph::passes::optimize;
use unigpu_graph::{
    estimate_latency, place, rebatch, Executor, Graph, LatencyOptions, LatencyReport, MemoryPlan,
    OpKind, Placement, PlacementPolicy, ScheduleProvider, Workspace,
};
use unigpu_ops::conv::ConvConfig;
use unigpu_ops::ConvWorkload;
use unigpu_telemetry::{tel_debug, tel_info, MetricsRegistry, SpanRecorder};
use unigpu_tensor::{Shape, Tensor};
use unigpu_tuner::{tune_graph, Database, TuneRecord, TunedSchedules, TuningBudget};

type SharedProvider = Arc<dyn ScheduleProvider + Send + Sync>;

/// Normalizes workload batch to 1 before lookup, so schedules tuned on the
/// single-sample graph serve rebatched graphs (`ConvWorkload::key` embeds
/// the batch, which would otherwise miss on every batched estimate).
struct BatchAgnostic<'a>(&'a dyn ScheduleProvider);

impl ScheduleProvider for BatchAgnostic<'_> {
    fn conv_config(&self, w: &ConvWorkload, spec: &DeviceSpec) -> ConvConfig {
        let mut w1 = *w;
        w1.batch = 1;
        self.0.conv_config(&w1, spec)
    }
}

#[derive(Debug, Clone)]
enum TuningConfig {
    Fallback,
    Tuned,
    Pinned(Database),
}

/// Builder for [`Engine`]; start from [`Engine::builder`].
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    platform: Platform,
    policy: PlacementPolicy,
    opts: LatencyOptions,
    tuning: TuningConfig,
    budget: TuningBudget,
    cache_capacity: usize,
    cache_dir: Option<PathBuf>,
    persist: bool,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        EngineBuilder {
            platform: Platform::deeplens(),
            policy: PlacementPolicy::AllGpu,
            opts: LatencyOptions::default(),
            tuning: TuningConfig::Fallback,
            budget: TuningBudget::default(),
            cache_capacity: 8,
            cache_dir: None,
            persist: true,
        }
    }
}

impl EngineBuilder {
    /// Target platform (default: DeepLens).
    pub fn platform(mut self, p: Platform) -> Self {
        self.platform = p;
        self
    }

    /// Device-placement policy (default: all-GPU).
    pub fn policy(mut self, p: PlacementPolicy) -> Self {
        self.policy = p;
        self
    }

    /// Toggle the §3.1.2 vision-operator optimization in the estimator.
    pub fn vision_optimized(mut self, on: bool) -> Self {
        self.opts.vision_optimized = on;
        self
    }

    /// Tune schedules at compile time with this many trials per workload.
    pub fn tuned(mut self, trials: usize) -> Self {
        self.tuning = TuningConfig::Tuned;
        self.budget.trials_per_workload = trials;
        self
    }

    /// Skip search entirely and serve from a caller-supplied database.
    pub fn tuned_database(mut self, db: Database) -> Self {
        self.tuning = TuningConfig::Pinned(db);
        self
    }

    /// In-memory artifact-cache capacity (default: 8 models).
    pub fn cache_capacity(mut self, n: usize) -> Self {
        self.cache_capacity = n.max(1);
        self
    }

    /// Directory for persisted artifacts (default:
    /// [`default_artifact_dir`]). Implies persistence.
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self.persist = true;
        self
    }

    /// Turn disk persistence on/off (default: on). Off means the cache is
    /// memory-only and artifacts die with the engine.
    pub fn persist(mut self, on: bool) -> Self {
        self.persist = on;
        self
    }

    pub fn build(self) -> Engine {
        let cache = if self.persist {
            let dir = self.cache_dir.unwrap_or_else(default_artifact_dir);
            ArtifactCache::with_dir(self.cache_capacity, dir)
        } else {
            ArtifactCache::new(self.cache_capacity)
        };
        Engine {
            platform: self.platform,
            policy: self.policy,
            opts: self.opts,
            tuning: self.tuning,
            budget: self.budget,
            cache: Mutex::new(cache),
        }
    }
}

/// The serving engine: hold it once, compile many models; the artifact
/// cache sits behind a mutex.
pub struct Engine {
    platform: Platform,
    policy: PlacementPolicy,
    opts: LatencyOptions,
    tuning: TuningConfig,
    budget: TuningBudget,
    cache: Mutex<ArtifactCache>,
}

impl Engine {
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    pub fn cache_stats(&self) -> CacheStats {
        self.cache.lock().expect("artifact cache poisoned").stats()
    }

    fn key_for(&self, model: &Graph) -> ArtifactKey {
        let tuning = match &self.tuning {
            TuningConfig::Fallback => TuningState::Fallback,
            TuningConfig::Tuned => TuningState::Tuned {
                trials: self.budget.trials_per_workload,
            },
            TuningConfig::Pinned(db) => TuningState::Pinned {
                digest: records_digest(&db.records()),
            },
        };
        ArtifactKey::new(model, &self.platform.gpu.name, tuning)
    }

    /// Compile a model, resolving through the artifact cache. Blocks for
    /// the full schedule search when the engine is tuned and the cache
    /// misses.
    pub fn compile(&self, model: &Graph) -> CompiledModel {
        let key = self.key_for(model);
        let cached = self.cached(&key);
        let (g, placed) = self.lower(model);
        if let Some(artifact) = cached {
            tel_debug!(
                "engine",
                "artifact cache hit: {} on {}",
                key.model,
                key.device
            );
            return self.instantiate(key, g, placed, artifact, true);
        }
        let artifact = Arc::new(self.build_artifact(&key, &g, &placed));
        self.cache
            .lock()
            .expect("artifact cache poisoned")
            .put(key.clone(), Arc::clone(&artifact));
        self.instantiate(key, g, placed, artifact, false)
    }

    fn cached(&self, key: &ArtifactKey) -> Option<Arc<Artifact>> {
        self.cache.lock().expect("artifact cache poisoned").get(key)
    }

    /// The graph passes, run once per compile: every later step (schedule
    /// search, pricing, the compiled model) reads this one result.
    fn lower(&self, model: &Graph) -> (Graph, Placement) {
        let g = optimize(model);
        let placed = place(&g, self.policy);
        (g, placed)
    }

    /// Obtain the schedules and price the placed graph on them.
    fn build_artifact(&self, key: &ArtifactKey, g: &Graph, placed: &Placement) -> Artifact {
        let (provider, records): (SharedProvider, Vec<TuneRecord>) = match &self.tuning {
            TuningConfig::Fallback => (Arc::new(FallbackSchedules), Vec::new()),
            TuningConfig::Tuned => {
                tel_info!(
                    "engine",
                    "tuning {} on {} ({} trials/workload)",
                    key.model,
                    key.device,
                    self.budget.trials_per_workload
                );
                let tuned =
                    TunedSchedules::new(tune_graph(g, &self.platform.gpu, &self.budget));
                let records = tuned.to_records();
                (Arc::new(tuned), records)
            }
            TuningConfig::Pinned(db) => {
                let tuned = TunedSchedules::new(db.clone());
                let records = tuned.to_records();
                (Arc::new(tuned), records)
            }
        };
        let report = estimate_latency(placed, &self.platform, provider.as_ref(), &self.opts);
        Artifact {
            meta: artifact_meta(key, placed, &report),
            records,
        }
    }

    /// Materialize a `CompiledModel` from an artifact (cached or fresh) and
    /// the compile's optimized graph and placement.
    fn instantiate(
        &self,
        key: ArtifactKey,
        g: Graph,
        placed: Placement,
        artifact: Arc<Artifact>,
        from_cache: bool,
    ) -> CompiledModel {
        let has_vision = g.nodes.iter().any(|n| n.op.is_vision_control());
        let provider: SharedProvider = if artifact.records.is_empty() {
            // an empty record set always resolves to fallback schedules
            Arc::new(FallbackSchedules)
        } else {
            Arc::new(TunedSchedules::from_records(
                artifact.records.iter().cloned(),
            ))
        };
        CompiledModel {
            inner: Arc::new(CompiledInner {
                key,
                graph: Arc::new(g),
                placement: placed,
                platform: self.platform.clone(),
                policy: self.policy,
                opts: self.opts,
                artifact,
                provider,
                from_cache,
                has_vision,
                batch_cost: Mutex::default(),
                degraded: OnceLock::new(),
                plan: OnceLock::new(),
                workspace: Mutex::default(),
            }),
        }
    }
}

/// The artifact metadata of a placed graph priced as `report`.
fn artifact_meta(key: &ArtifactKey, placed: &Placement, report: &LatencyReport) -> ArtifactMeta {
    ArtifactMeta {
        kind: ARTIFACT_KIND.into(),
        version: ARTIFACT_VERSION,
        model: key.model.clone(),
        fingerprint: key.fingerprint,
        device: key.device.clone(),
        tuning: key.tuning.clone(),
        nodes: placed.graph.nodes.len(),
        total_ms: report.total_ms,
        cost_table: report
            .per_op
            .iter()
            .map(|t| (t.name.clone(), t.ms))
            .collect(),
    }
}

struct CompiledInner {
    key: ArtifactKey,
    /// Optimized (fused, BN-folded) graph at the model's authored batch;
    /// the degraded variant shares it, weights (folded on first run) included.
    graph: Arc<Graph>,
    placement: Placement,
    platform: Platform,
    policy: PlacementPolicy,
    opts: LatencyOptions,
    /// What this model was built or loaded from: the compile-time cost table
    /// and the schedule records. Shared with the degraded variant.
    artifact: Arc<Artifact>,
    /// The schedules `artifact.records` resolve to (shared likewise).
    provider: SharedProvider,
    from_cache: bool,
    has_vision: bool,
    /// Memoized batched-latency estimates, keyed by batch size.
    batch_cost: Mutex<HashMap<usize, f64>>,
    /// The all-CPU variant, derived once for every server of this model.
    degraded: OnceLock<CompiledModel>,
    /// The placed graph's memory plan, made by the first run.
    plan: OnceLock<MemoryPlan>,
    /// The workspace runs reuse: a run takes it and puts it back, and a run
    /// that finds it taken by a concurrent one makes its own.
    workspace: Mutex<Option<Workspace>>,
}

/// A model compiled by [`Engine::compile`]: optimized graph, device
/// placement, schedules, and the compile-time cost table, ready to
/// estimate, execute, and serve. Clones share the same state.
#[derive(Clone)]
pub struct CompiledModel {
    inner: Arc<CompiledInner>,
}

impl CompiledModel {
    pub fn key(&self) -> &ArtifactKey {
        &self.inner.key
    }

    pub fn model(&self) -> &str {
        &self.inner.key.model
    }

    /// True when this compile was served from the artifact cache (memory or
    /// disk) instead of running the pipeline.
    pub fn from_cache(&self) -> bool {
        self.inner.from_cache
    }

    /// True when the model runs on searched or pinned schedules, i.e. its
    /// artifact carries schedule records.
    pub fn is_tuned(&self) -> bool {
        !self.inner.artifact.records.is_empty()
    }

    /// The artifact this model was built or loaded from — exactly what the
    /// engine persisted under its cache key.
    pub fn artifact(&self) -> &Artifact {
        &self.inner.artifact
    }

    pub fn graph(&self) -> &Graph {
        &self.inner.graph
    }

    pub fn placement(&self) -> &Placement {
        &self.inner.placement
    }

    /// Compile-time per-node cost table, (node name, ms).
    pub fn cost_table(&self) -> &[(String, f64)] {
        &self.inner.artifact.meta.cost_table
    }

    /// The compile-time predictions as a [`CostTable`] — the per-node
    /// predicted-latency view the drift monitor compares observations
    /// against.
    pub fn predicted_costs(&self) -> CostTable {
        CostTable::new(self.cost_table().to_vec())
    }

    /// The model's (first) input shape.
    pub fn input_shape(&self) -> Shape {
        self.inner
            .graph
            .nodes
            .iter()
            .find_map(|n| match &n.op {
                OpKind::Input { shape } => Some(shape.clone()),
                _ => None,
            })
            .expect("compiled model has an input node")
    }

    /// Single-sample latency estimate on the compiled placement.
    pub fn estimate(&self) -> LatencyReport {
        estimate_latency(
            &self.inner.placement,
            &self.inner.platform,
            self.inner.provider.as_ref(),
            &self.inner.opts,
        )
    }

    /// Latency of `batch` coalesced requests executed as one launch
    /// sequence, ms. Memoized per batch size; the batched graph reuses the
    /// single-sample schedules (batch-agnostic lookup). Vision-control
    /// graphs (SSD/YOLO heads) pin batch 1, so they price as `batch`
    /// sequential runs — no amortization, which is exactly why serving
    /// batches classification models but not detectors.
    pub fn estimate_batch_ms(&self, batch: usize) -> f64 {
        let batch = batch.max(1);
        if let Some(&ms) = self.batch_costs().get(&batch) {
            return ms;
        }
        let ms = self.compute_batch_ms(batch);
        self.batch_costs().insert(batch, ms);
        ms
    }

    fn batch_costs(&self) -> MutexGuard<'_, HashMap<usize, f64>> {
        self.inner.batch_cost.lock().expect("batch cost poisoned")
    }

    fn compute_batch_ms(&self, batch: usize) -> f64 {
        if batch == 1 {
            return self.estimate().total_ms;
        }
        if self.inner.has_vision {
            return batch as f64 * self.estimate_batch_ms(1);
        }
        let g = rebatch(&self.inner.graph, batch);
        let placed = place(&g, self.inner.policy);
        let batched = BatchAgnostic(self.inner.provider.as_ref());
        estimate_latency(&placed, &self.inner.platform, &batched, &self.inner.opts).total_ms
    }

    /// An all-CPU variant of this model: same optimized graph and schedule
    /// records, re-placed with [`PlacementPolicy::AllCpu`]. This is the
    /// graceful-degradation target the serving layer routes batches to when
    /// the device misbehaves (circuit breaker open, retries exhausted,
    /// out-of-memory) — slower, but it keeps answering. Derived on first
    /// use, so fault-free serving never pays for it, and once per model:
    /// every server and replica shares the one variant, which shares this
    /// model's graph, artifact and schedules.
    pub fn degraded(&self) -> CompiledModel {
        let inner = &self.inner;
        inner
            .degraded
            .get_or_init(|| CompiledModel {
                inner: Arc::new(CompiledInner {
                    key: inner.key.clone(),
                    graph: Arc::clone(&inner.graph),
                    placement: place(&inner.graph, PlacementPolicy::AllCpu),
                    platform: inner.platform.clone(),
                    policy: PlacementPolicy::AllCpu,
                    opts: inner.opts,
                    artifact: Arc::clone(&inner.artifact),
                    provider: Arc::clone(&inner.provider),
                    from_cache: inner.from_cache,
                    has_vision: inner.has_vision,
                    batch_cost: Mutex::default(),
                    degraded: OnceLock::new(),
                    plan: OnceLock::new(),
                    workspace: Mutex::default(),
                }),
            })
            .clone()
    }

    /// Execute the model functionally on real tensors (placement-aware
    /// graph, so `DeviceCopy` boundaries are exercised). Compiling reads no
    /// weight: the first run folds the batch norms, once for this model, its
    /// clones and its degraded variant, and plans the graph's memory. Later
    /// runs reuse that plan and one workspace, and allocate only the tensors
    /// they return.
    pub fn run(&self, inputs: &[Tensor]) -> Vec<Tensor> {
        let graph = &self.inner.placement.graph;
        let plan = self.inner.plan.get_or_init(|| {
            let plan = MemoryPlan::new(graph);
            tel_debug!(
                "engine",
                "memory plan of {}: {} arena floats, liveness bound {}",
                self.model(),
                plan.arena_len(),
                plan.liveness_bound()
            );
            plan
        });
        let kept = self.workspace().take();
        let mut workspace = kept.unwrap_or_else(|| plan.workspace());
        let outputs = Executor.run_planned(graph, plan, &mut workspace, inputs);
        self.workspace().get_or_insert(workspace);
        outputs
    }

    fn workspace(&self) -> MutexGuard<'_, Option<Workspace>> {
        self.inner.workspace.lock().expect("workspace poisoned")
    }

    /// Traced estimate: one span per node plus `exec.*`/`latency.*`
    /// metrics, for Chrome-trace export.
    pub fn trace(&self, spans: &SpanRecorder, metrics: &MetricsRegistry) -> LatencyReport {
        unigpu_graph::estimate_latency_traced(
            &self.inner.placement,
            &self.inner.platform,
            self.inner.provider.as_ref(),
            &self.inner.opts,
            spans,
            metrics,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unigpu_graph::{Activation, Const};

    fn conv_chain(name: &str, layers: usize) -> Graph {
        let mut g = Graph::new(name);
        let w0 = ConvWorkload::square(1, 3, 8, 16, 3, 1, 1);
        let x = g.add(
            OpKind::Input {
                shape: Shape::from(w0.input_shape()),
            },
            vec![],
            "data",
        );
        let mut prev = x;
        let mut in_ch = 3;
        for i in 0..layers {
            let w = ConvWorkload::square(1, in_ch, 8, 16, 3, 1, 1);
            let wt = g.add(
                OpKind::constant(Tensor::zeros(w.weight_shape())),
                vec![],
                format!("w{i}"),
            );
            prev = g.add(
                OpKind::Conv2d {
                    w,
                    bias: false,
                    act: Activation::Relu,
                },
                vec![prev, wt],
                format!("conv{i}"),
            );
            in_ch = 8;
        }
        g.mark_output(prev);
        g
    }

    fn memory_engine() -> Engine {
        Engine::builder()
            .platform(Platform::deeplens())
            .persist(false)
            .build()
    }

    #[test]
    fn compile_matches_primitive_pipeline_and_caches() {
        let g = conv_chain("chain", 2);
        let engine = memory_engine();
        let compiled = engine.compile(&g);
        assert!(!compiled.from_cache());
        assert!(!compiled.is_tuned());

        let placed = place(&optimize(&g), PlacementPolicy::AllGpu);
        let direct = estimate_latency(
            &placed,
            engine.platform(),
            &FallbackSchedules,
            &LatencyOptions::default(),
        );
        assert_eq!(compiled.estimate().total_ms, direct.total_ms);

        let again = engine.compile(&g);
        assert!(again.from_cache());
        assert_eq!(engine.cache_stats().hits, 1);
        assert_eq!(engine.cache_stats().misses, 1);
    }

    #[test]
    fn cost_table_covers_the_placed_graph() {
        let g = conv_chain("chain", 2);
        let compiled = memory_engine().compile(&g);
        let report = compiled.estimate();
        assert_eq!(compiled.cost_table().len(), report.per_op.len());
        let table_total: f64 = compiled.cost_table().iter().map(|(_, ms)| ms).sum();
        assert!((table_total - report.per_op.iter().map(|t| t.ms).sum::<f64>()).abs() < 1e-9);
    }

    #[test]
    fn batched_estimates_are_memoized_and_sublinear() {
        let g = conv_chain("chain", 2);
        let compiled = memory_engine().compile(&g);
        let one = compiled.estimate_batch_ms(1);
        let eight = compiled.estimate_batch_ms(8);
        assert!(eight > one, "more work costs more");
        assert!(
            eight < 8.0 * one,
            "launch amortization makes batching sublinear"
        );
        // memoized: same value back
        assert_eq!(compiled.estimate_batch_ms(8), eight);
    }

    #[test]
    fn degraded_variant_is_all_cpu_and_shares_schedules() {
        let g = conv_chain("chain", 2);
        let compiled = memory_engine().compile(&g);
        let degraded = compiled.degraded();
        assert!(
            degraded
                .placement()
                .device
                .iter()
                .all(|d| *d == unigpu_graph::Device::Cpu),
            "every node re-placed on the CPU"
        );
        assert_eq!(
            degraded.placement().copy_count(),
            0,
            "single-device placement needs no copies"
        );
        assert!(degraded.estimate().total_ms > 0.0);
        assert!(
            degraded.estimate_batch_ms(4) != compiled.estimate_batch_ms(4),
            "CPU pricing differs from the compiled placement"
        );
    }

    #[test]
    fn degraded_variant_of_a_tuned_compile_keeps_its_records() {
        let g = conv_chain("chain", 2);
        let engine = Engine::builder()
            .platform(Platform::deeplens())
            .persist(false)
            .tuned(4)
            .build();
        let compiled = engine.compile(&g);
        assert!(!compiled.artifact().records.is_empty());
        let degraded = compiled.degraded();
        assert_eq!(
            degraded.artifact().records,
            compiled.artifact().records,
            "the all-CPU variant runs the same schedules"
        );
        assert!(degraded.is_tuned());
        assert_ne!(
            degraded.estimate_batch_ms(4),
            compiled.estimate_batch_ms(4),
            "but prices them on the CPU"
        );
    }

    fn weights(g: &Graph) -> Vec<&Const> {
        g.nodes
            .iter()
            .filter_map(|n| match &n.op {
                OpKind::Constant(c) => Some(c),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn every_graph_of_a_compiled_model_shares_the_source_weights() {
        let g = conv_chain("chain", 2);
        let compiled = memory_engine().compile(&g);
        compiled.estimate_batch_ms(4); // rebatch + place: nothing may copy
        let degraded = compiled.degraded();
        for (what, derived) in [
            ("optimized", compiled.graph()),
            ("placed", &compiled.placement().graph),
            ("degraded", &degraded.placement().graph),
        ] {
            let got = weights(derived);
            assert_eq!(got.len(), 2, "{what} keeps both weights");
            for (t, src) in got.iter().zip(weights(&g)) {
                assert!(Const::ptr_eq(t, src), "the {what} graph copied a weight");
            }
        }
    }

    /// Every constant of `g` its source graph does not hold: the folded ones.
    fn folded<'g>(g: &'g Graph, source: &Graph) -> Vec<&'g Const> {
        let source = weights(source);
        weights(g)
            .into_iter()
            .filter(|c| !source.iter().any(|s| Const::ptr_eq(c, s)))
            .collect()
    }

    #[test]
    fn every_graph_of_a_compiled_model_reads_one_folded_tensor() {
        let model = unigpu_models::mobilenet(1, 32, 10);
        let compiled = memory_engine().compile(&model);
        let degraded = compiled.degraded();
        let batched = rebatch(compiled.graph(), 8);
        let graphs = [
            compiled.graph(),
            &compiled.placement().graph,
            &degraded.placement().graph,
            &batched,
        ];
        let per_graph: Vec<Vec<&Const>> = graphs.iter().map(|g| folded(g, &model)).collect();
        assert!(!per_graph[0].is_empty(), "MobileNet folds its batch norms");
        for (g, consts) in per_graph.iter().enumerate() {
            assert_eq!(
                consts.len(),
                per_graph[0].len(),
                "graph {g} keeps every folded constant"
            );
            for (c, first) in consts.iter().zip(&per_graph[0]) {
                assert!(
                    std::ptr::eq(c.value(), first.value()),
                    "graph {g} read a second fold"
                );
            }
        }
    }

    #[test]
    fn threads_racing_the_first_run_get_the_same_bits() {
        let model = unigpu_models::mobilenet(1, 32, 10);
        let compiled = memory_engine().compile(&model);
        let input = Tensor::from_vec(
            compiled.input_shape(),
            (0..3 * 32 * 32)
                .map(|i| (i % 17) as f32 / 8.0 - 1.0)
                .collect(),
        );
        let start = std::sync::Barrier::new(2);
        let outputs: Vec<Vec<Tensor>> = std::thread::scope(|s| {
            let runs: Vec<_> = (0..2)
                .map(|_| {
                    let (m, x, start) = (compiled.clone(), &input, &start);
                    s.spawn(move || {
                        start.wait();
                        m.run(std::slice::from_ref(x))
                    })
                })
                .collect();
            runs.into_iter()
                .map(|r| r.join().expect("run panicked"))
                .collect()
        });
        let bits = |out: &[Tensor]| -> Vec<u32> {
            out.iter()
                .flat_map(|t| t.as_f32().iter().map(|v| v.to_bits()))
                .collect()
        };
        assert_eq!(bits(&outputs[0]), bits(&outputs[1]));
        assert_eq!(bits(&outputs[0]), bits(&compiled.run(&[input])));
    }

    #[test]
    fn the_arena_is_within_15_percent_of_the_liveness_bound_on_every_zoo_model() {
        for entry in unigpu_models::full_zoo() {
            let g = optimize(&(entry.build)(false));
            for policy in [PlacementPolicy::AllGpu, PlacementPolicy::FallbackVision] {
                let plan = MemoryPlan::new(&place(&g, policy).graph);
                let (arena, bound) = (plan.arena_len(), plan.liveness_bound());
                assert!(
                    arena as f64 <= 1.15 * bound as f64,
                    "{} {policy:?}: {arena} arena floats, liveness bound {bound}",
                    entry.name
                );
            }
        }
    }

    #[test]
    fn a_model_and_its_clone_on_two_threads_keep_the_first_runs_bits() {
        let model = unigpu_models::squeezenet(1, 64, 10);
        let compiled = memory_engine().compile(&model);
        let input = Tensor::from_vec(
            compiled.input_shape(),
            (0..3 * 64 * 64)
                .map(|i| (i % 23) as f32 / 11.0 - 1.0)
                .collect(),
        );
        let first = compiled.run(std::slice::from_ref(&input));
        std::thread::scope(|s| {
            for m in [compiled.clone(), compiled.clone()] {
                let (input, first) = (&input, &first);
                s.spawn(move || {
                    for _ in 0..4 {
                        let out = m.run(std::slice::from_ref(input));
                        let bits = |t: &[Tensor]| -> Vec<u32> {
                            t.iter()
                                .flat_map(|t| t.as_f32().iter().map(|v| v.to_bits()))
                                .collect()
                        };
                        assert_eq!(bits(&out), bits(first));
                    }
                });
            }
        });
    }

    #[test]
    fn different_tuning_states_are_distinct_cache_entries() {
        let g = conv_chain("chain", 1);
        let fallback = Engine::builder()
            .platform(Platform::deeplens())
            .persist(false)
            .build();
        let tuned = Engine::builder()
            .platform(Platform::deeplens())
            .persist(false)
            .tuned(4)
            .build();
        assert_ne!(
            fallback.compile(&g).key().tuning,
            tuned.compile(&g).key().tuning
        );
    }
}
