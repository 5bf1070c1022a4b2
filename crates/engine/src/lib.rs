//! # unigpu-engine
//!
//! The serving subsystem: the deployment story on top of the paper's
//! optimization pipeline. Three pieces:
//!
//! * [`artifact`] — compile a model *once* into an [`Artifact`] (optimized
//!   graph identity, placement cost table, tuned schedule records) with
//!   JSONL persistence, so minutes of schedule search amortize across
//!   processes;
//! * [`cache`] — a bounded LRU [`ArtifactCache`] over artifacts; eviction
//!   drops memory only, corrupt disk artifacts are deleted and recompiled,
//!   never crashed on;
//! * [`compiled`]/[`serve`]/[`server`] — the [`Engine`]/[`CompiledModel`]
//!   API and the event-driven request scheduler: concurrent requests
//!   coalesce into same-shape batches (bounded size and simulated-clock
//!   wait window) and execute on the simulated multi-stream device
//!   timeline, with formation, launch, and readback/accounting overlapped
//!   through one event queue so several batches are in flight per device
//!   (continuous batching). Per-request queueing/latency and aggregate
//!   throughput flow through telemetry. The scheduler is hardened for
//!   production failure modes: bounded admission with load shedding,
//!   per-request deadlines, device-fault retry with an all-CPU degraded
//!   fallback, a circuit breaker, and panic-isolated batch execution.
//!
//! Typical use:
//!
//! ```text
//! let engine = Engine::builder().platform(Platform::jetson_nano()).tuned(64).build();
//! let compiled = engine.compile(&model);      // second process: cache hit
//! let report = compiled.estimate();           // single-sample latency
//! let mut server = compiled.server(&ServeConfig::builder().concurrency(2).build()?);
//! for r in requests { server.submit(r); }     // streaming; poll()/drain() mid-run
//! let served = server.shutdown();             // final ServeReport
//! ```

pub mod artifact;
mod breaker;
pub mod cache;
pub mod compiled;
pub mod serve;
pub mod server;

pub use artifact::{
    fingerprint, records_digest, Artifact, ArtifactKey, ArtifactMeta, TuningState, ARTIFACT_KIND,
    ARTIFACT_VERSION,
};
pub use cache::{default_artifact_dir, ArtifactCache, CacheStats};
pub use compiled::{CompiledModel, Engine, EngineBuilder};
pub use serve::{
    uniform_requests, Admission, ConfigError, Formation, InferenceRequest, RequestQueue,
    RequestResult, ServeConfig, ServeConfigBuilder, ServeReport, LANE_CONTROL, LANE_WORKER_BASE,
};
pub use server::{serve_phase_sequential, Server};
