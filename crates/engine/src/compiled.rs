//! The engine: compile once, run many.
//!
//! [`Engine`] owns the compilation policy (platform, placement, tuning
//! budget) and the [`ArtifactCache`]; [`Engine::compile`] resolves a model
//! through the cache or runs the full pipeline — graph optimization (§3.2.3
//! fusion + BN folding), device placement (§3.1.2), optional schedule search
//! (§3.2) — and returns a [`CompiledModel`] ready to estimate, execute, and
//! serve. [`Engine::compile_deferred`] degrades gracefully: the model serves
//! on fallback schedules immediately while tuning proceeds on a background
//! thread, then hot-swaps the tuned schedules in.

use crate::artifact::{
    fingerprint, records_digest, Artifact, ArtifactKey, ArtifactMeta, TuningState, ARTIFACT_KIND,
    ARTIFACT_VERSION,
};
use crate::cache::{default_artifact_dir, ArtifactCache, CacheStats};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock};
use std::thread::JoinHandle;
use unigpu_device::{CostTable, DeviceSpec, Platform};
use unigpu_graph::latency::FallbackSchedules;
use unigpu_graph::passes::optimize;
use unigpu_graph::{
    estimate_latency, place, rebatch, Executor, Graph, LatencyOptions, LatencyReport, OpKind,
    Placement, PlacementPolicy, ScheduleProvider,
};
use unigpu_ops::conv::ConvConfig;
use unigpu_ops::ConvWorkload;
use unigpu_farm::FarmClient;
use unigpu_telemetry::{tel_debug, tel_info, tel_warn, MetricsRegistry, SpanRecorder};
use unigpu_tensor::{Shape, Tensor};
use unigpu_tuner::{tune_graph, tune_graph_with, Database, TuneRecord, TunedSchedules, TuningBudget};

type SharedProvider = Arc<dyn ScheduleProvider + Send + Sync>;

/// Run tensor-level search for `graph`, honouring `UNIGPU_FARM_ADDR`: when
/// set (and non-empty) the search is dispatched to that farm tracker's
/// worker pool — same per-workload seeds, so the database is bit-identical
/// to the in-process one at zero noise. Any farm failure logs a warning and
/// falls back to in-process serial search rather than failing compilation.
fn search_database(graph: &Graph, spec: &DeviceSpec, budget: &TuningBudget) -> Database {
    let addr = std::env::var("UNIGPU_FARM_ADDR").unwrap_or_default();
    if !addr.is_empty() {
        tel_info!("engine", "dispatching schedule search to farm at {addr}");
        // Root the farm batch's trace in the graph fingerprint: the
        // tracker's per-lease spans become children of this context, so a
        // remote tune stitches into the originating compile's trace — and
        // re-compiling the same graph reproduces the same ids.
        let trace = unigpu_telemetry::TraceContext::from_seed(fingerprint(graph));
        let client = FarmClient::new(addr.clone()).with_trace(trace);
        match tune_graph_with(graph, spec, budget, &client, None) {
            Ok(db) => return db,
            Err(e) => {
                tel_warn!("engine", "farm at {addr} failed ({e}); falling back to in-process search");
            }
        }
    }
    tune_graph(graph, spec, budget)
}

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

    /// Full tuning budget (call before [`EngineBuilder::tuned`] if both are
    /// used — `tuned` overrides the trial count).
    pub fn budget(mut self, b: TuningBudget) -> Self {
        self.budget = b;
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
            cache: Arc::new(Mutex::new(cache)),
        }
    }
}

/// The serving engine. Cheap to clone conceptually (hold it once, compile
/// many models); the artifact cache is shared behind a mutex.
pub struct Engine {
    platform: Platform,
    policy: PlacementPolicy,
    opts: LatencyOptions,
    tuning: TuningConfig,
    budget: TuningBudget,
    cache: Arc<Mutex<ArtifactCache>>,
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
    /// misses; see [`Engine::compile_deferred`] for the non-blocking path.
    pub fn compile(&self, model: &Graph) -> CompiledModel {
        let key = self.key_for(model);
        let cached = self
            .cache
            .lock()
            .expect("artifact cache poisoned")
            .get(&key);
        if let Some(artifact) = cached {
            tel_debug!(
                "engine",
                "artifact cache hit: {} on {}",
                key.model,
                key.device
            );
            return self.instantiate(model, key, &artifact, true);
        }
        let artifact = self.build_artifact(model, &key);
        let compiled = self.instantiate(model, key.clone(), &artifact, false);
        self.cache
            .lock()
            .expect("artifact cache poisoned")
            .put(key, artifact);
        compiled
    }

    /// Compile with graceful degradation. Cache hits behave like
    /// [`Engine::compile`]; on a miss with a tuned engine, the model is
    /// returned immediately on fallback schedules while the search runs on
    /// a background thread, which then swaps the tuned schedules in and
    /// persists the artifact. [`CompiledModel::wait_ready`] joins the
    /// search; estimates taken before it finishes simply price the fallback
    /// schedules.
    pub fn compile_deferred(&self, model: &Graph) -> CompiledModel {
        let key = self.key_for(model);
        let cached = self
            .cache
            .lock()
            .expect("artifact cache poisoned")
            .get(&key);
        if let Some(artifact) = cached {
            return self.instantiate(model, key, &artifact, true);
        }
        if !matches!(self.tuning, TuningConfig::Tuned) {
            // fallback/pinned compiles are cheap: nothing to defer
            let artifact = self.build_artifact(model, &key);
            let compiled = self.instantiate(model, key.clone(), &artifact, false);
            self.cache
                .lock()
                .expect("artifact cache poisoned")
                .put(key, artifact);
            return compiled;
        }

        // serve on fallback schedules now, search in the background
        let fallback = Artifact {
            meta: self.meta_for(&key, model, &FallbackSchedules),
            records: Vec::new(),
        };
        let compiled = self.instantiate(model, key.clone(), &fallback, false);

        let inner = Arc::clone(&compiled.inner);
        let cache = Arc::clone(&self.cache);
        let graph = Arc::clone(&compiled.inner.graph); // already optimized
        let platform = self.platform.clone();
        let policy = self.policy;
        let opts = self.opts;
        let budget = self.budget;
        let handle = std::thread::spawn(move || {
            tel_info!(
                "engine",
                "background tuning {} ({} trials/workload)",
                inner.key.model,
                budget.trials_per_workload
            );
            let tuned = TunedSchedules::new(search_database(&graph, &platform.gpu, &budget));
            let records = tuned.to_records();
            let placed = place(&graph, policy);
            let report = estimate_latency(&placed, &platform, &tuned, &opts);
            let meta = ArtifactMeta {
                kind: ARTIFACT_KIND.into(),
                version: ARTIFACT_VERSION,
                model: inner.key.model.clone(),
                fingerprint: inner.key.fingerprint,
                device: inner.key.device.clone(),
                tuning: inner.key.tuning.clone(),
                nodes: placed.graph.nodes.len(),
                total_ms: report.total_ms,
                cost_table: report
                    .per_op
                    .iter()
                    .map(|t| (t.name.clone(), t.ms))
                    .collect(),
            };
            inner.swap_schedules(Arc::new(tuned), records.clone());
            cache
                .lock()
                .expect("artifact cache poisoned")
                .put(inner.key.clone(), Artifact { meta, records });
            tel_info!(
                "engine",
                "tuned schedules swapped in for {}",
                inner.key.model
            );
        });
        *compiled
            .inner
            .pending
            .lock()
            .expect("pending handle poisoned") = Some(handle);
        compiled
    }

    fn meta_for(
        &self,
        key: &ArtifactKey,
        model: &Graph,
        provider: &dyn ScheduleProvider,
    ) -> ArtifactMeta {
        let placed = place(&optimize(model), self.policy);
        let report = estimate_latency(&placed, &self.platform, provider, &self.opts);
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

    /// Run the full pipeline and package the result as an artifact.
    fn build_artifact(&self, model: &Graph, key: &ArtifactKey) -> Artifact {
        let g = optimize(model);
        let placed = place(&g, self.policy);
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
                    TunedSchedules::new(search_database(&g, &self.platform.gpu, &self.budget));
                let records = tuned.to_records();
                (Arc::new(tuned), records)
            }
            TuningConfig::Pinned(db) => {
                let tuned = TunedSchedules::new(db.clone());
                let records = tuned.to_records();
                (Arc::new(tuned), records)
            }
        };
        let report = estimate_latency(&placed, &self.platform, provider.as_ref(), &self.opts);
        Artifact {
            meta: ArtifactMeta {
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
            },
            records,
        }
    }

    /// Materialize a `CompiledModel` from an artifact (cached or fresh).
    fn instantiate(
        &self,
        model: &Graph,
        key: ArtifactKey,
        artifact: &Artifact,
        from_cache: bool,
    ) -> CompiledModel {
        let g = optimize(model);
        let placed = place(&g, self.policy);
        let has_vision = g.nodes.iter().any(|n| n.op.is_vision_control());
        let tuned = !artifact.records.is_empty();
        let provider: SharedProvider = if tuned {
            Arc::new(TunedSchedules::from_records(
                artifact.records.iter().cloned(),
            ))
        } else {
            // an empty record set always resolves to fallback schedules
            Arc::new(FallbackSchedules)
        };
        CompiledModel {
            inner: Arc::new(CompiledInner {
                key,
                graph: Arc::new(g),
                placement: placed,
                platform: self.platform.clone(),
                policy: self.policy,
                opts: self.opts,
                schedules: Arc::new(RwLock::new(ScheduleState {
                    provider,
                    records: artifact.records.clone(),
                    tuned,
                })),
                generation: Arc::new(AtomicU64::new(0)),
                from_cache,
                has_vision,
                cost_table: artifact.meta.cost_table.clone(),
                batch_cost: Mutex::new(BatchCosts::default()),
                degraded: OnceLock::new(),
                pending: Mutex::new(None),
            }),
        }
    }
}

struct ScheduleState {
    provider: SharedProvider,
    records: Vec<TuneRecord>,
    tuned: bool,
}

/// Memoized batched-latency estimates, keyed by batch size, priced on the
/// schedules of one generation.
#[derive(Default)]
struct BatchCosts {
    generation: u64,
    ms: HashMap<usize, f64>,
}

struct CompiledInner {
    key: ArtifactKey,
    /// Optimized (fused, BN-folded) graph at the model's authored batch;
    /// the degraded variant shares it, weights included.
    graph: Arc<Graph>,
    placement: Placement,
    platform: Platform,
    policy: PlacementPolicy,
    opts: LatencyOptions,
    /// Shared with the degraded variant, so both follow a schedule swap.
    schedules: Arc<RwLock<ScheduleState>>,
    /// Counts schedule swaps (shared like `schedules`). Every price derived
    /// from the schedules — `batch_cost`, a server's launch plans — is
    /// stamped with the value it was derived under and dropped once this
    /// has moved.
    generation: Arc<AtomicU64>,
    from_cache: bool,
    has_vision: bool,
    /// Per-node cost table from compile time, (node name, ms).
    cost_table: Vec<(String, f64)>,
    batch_cost: Mutex<BatchCosts>,
    /// The all-CPU variant, derived once for every server of this model.
    degraded: OnceLock<CompiledModel>,
    /// Background tuning thread, when compiled via `compile_deferred`.
    pending: Mutex<Option<JoinHandle<()>>>,
}

impl CompiledInner {
    /// Install new schedules, then move the generation: whoever sees the
    /// new generation also sees the new schedules.
    fn swap_schedules(&self, provider: SharedProvider, records: Vec<TuneRecord>) {
        {
            let mut st = self.schedules.write().expect("schedule state poisoned");
            st.provider = provider;
            st.records = records;
            st.tuned = true;
        }
        self.generation.fetch_add(1, Ordering::SeqCst);
    }
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

    /// True once tuned schedules are active (immediately for a blocking
    /// tuned compile; after the background search for a deferred one).
    pub fn is_tuned(&self) -> bool {
        self.inner
            .schedules
            .read()
            .expect("schedule state poisoned")
            .tuned
    }

    /// Join the background tuning search, if one is running.
    pub fn wait_ready(&self) {
        let handle = self
            .inner
            .pending
            .lock()
            .expect("pending handle poisoned")
            .take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }

    pub fn graph(&self) -> &Graph {
        &self.inner.graph
    }

    pub fn placement(&self) -> &Placement {
        &self.inner.placement
    }

    /// Compile-time per-node cost table, (node name, ms).
    pub fn cost_table(&self) -> &[(String, f64)] {
        &self.inner.cost_table
    }

    /// The compile-time predictions as a [`CostTable`] — the per-node
    /// predicted-latency view the drift monitor compares observations
    /// against.
    pub fn predicted_costs(&self) -> CostTable {
        CostTable::new(self.inner.cost_table.clone())
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

    /// Snapshot of the active schedule records (what a tuned artifact
    /// persists; empty on fallback schedules).
    pub fn schedule_records(&self) -> Vec<TuneRecord> {
        self.inner
            .schedules
            .read()
            .expect("schedule state poisoned")
            .records
            .clone()
    }

    fn provider(&self) -> SharedProvider {
        self.inner
            .schedules
            .read()
            .expect("schedule state poisoned")
            .provider
            .clone()
    }

    /// Single-sample latency estimate on the compiled placement.
    pub fn estimate(&self) -> LatencyReport {
        let p = self.provider();
        estimate_latency(
            &self.inner.placement,
            &self.inner.platform,
            p.as_ref(),
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
        let generation = self.generation();
        if let Some(&ms) = self.batch_costs(generation).ms.get(&batch) {
            return ms;
        }
        let ms = self.compute_batch_ms(batch);
        // a swap while pricing may have left `ms` on the old schedules:
        // keep it only in a memo still stamped with the generation read above
        let mut costs = self.batch_costs(generation);
        if costs.generation == generation {
            costs.ms.insert(batch, ms);
        }
        ms
    }

    /// How many schedule swaps this model has seen; prices derived under an
    /// older value are stale.
    pub(crate) fn generation(&self) -> u64 {
        self.inner.generation.load(Ordering::SeqCst)
    }

    /// The memo, emptied first if it was priced under an older generation.
    fn batch_costs(&self, generation: u64) -> MutexGuard<'_, BatchCosts> {
        let mut costs = self.inner.batch_cost.lock().expect("batch cost poisoned");
        if costs.generation < generation {
            costs.ms.clear();
            costs.generation = generation;
        }
        costs
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
        let p = self.provider();
        let batched = BatchAgnostic(p.as_ref());
        estimate_latency(&placed, &self.inner.platform, &batched, &self.inner.opts).total_ms
    }

    /// An all-CPU variant of this model: same optimized graph and schedule
    /// records, re-placed with [`PlacementPolicy::AllCpu`]. This is the
    /// graceful-degradation target the serving layer routes batches to when
    /// the device misbehaves (circuit breaker open, retries exhausted,
    /// out-of-memory) — slower, but it keeps answering. Derived on first
    /// use, so fault-free serving never pays for it, and once per model:
    /// every server and replica shares the one variant, which shares this
    /// model's graph and live schedules.
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
                    schedules: Arc::clone(&inner.schedules),
                    generation: Arc::clone(&inner.generation),
                    from_cache: inner.from_cache,
                    has_vision: inner.has_vision,
                    cost_table: inner.cost_table.clone(),
                    batch_cost: Mutex::new(BatchCosts::default()),
                    degraded: OnceLock::new(),
                    pending: Mutex::new(None),
                }),
            })
            .clone()
    }

    /// Execute the model functionally on real tensors (placement-aware
    /// graph, so `DeviceCopy` boundaries are exercised).
    pub fn run(&self, inputs: &[Tensor]) -> Vec<Tensor> {
        Executor.run(&self.inner.placement.graph, inputs)
    }

    /// Traced estimate: one span per node plus `exec.*`/`latency.*`
    /// metrics, for Chrome-trace export.
    pub fn trace(&self, spans: &SpanRecorder, metrics: &MetricsRegistry) -> LatencyReport {
        let p = self.provider();
        unigpu_graph::estimate_latency_traced(
            &self.inner.placement,
            &self.inner.platform,
            p.as_ref(),
            &self.inner.opts,
            spans,
            metrics,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unigpu_graph::Activation;

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
    fn deferred_compile_serves_fallback_then_swaps_tuned_in() {
        let g = conv_chain("deferred", 1);
        let engine = Engine::builder()
            .platform(Platform::deeplens())
            .persist(false)
            .tuned(8)
            .build();
        let compiled = engine.compile_deferred(&g);
        assert!(!compiled.from_cache());
        // usable immediately on fallback schedules
        assert!(compiled.estimate().total_ms > 0.0);
        compiled.wait_ready();
        assert!(compiled.is_tuned());
        assert!(!compiled.schedule_records().is_empty());
        assert!(compiled.estimate().total_ms > 0.0);
        // the background thread published the artifact: next compile hits
        let again = engine.compile(&g);
        assert!(again.from_cache());
        assert!(again.is_tuned());
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
    fn every_graph_of_a_compiled_model_shares_the_source_weights() {
        fn weights(g: &Graph) -> Vec<&Arc<Tensor>> {
            g.nodes
                .iter()
                .filter_map(|n| match &n.op {
                    OpKind::Constant(t) => Some(t),
                    _ => None,
                })
                .collect()
        }
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
                assert!(Arc::ptr_eq(t, src), "the {what} graph copied a weight");
            }
        }
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
