//! Shared by the engine's integration suites.

use unigpu_engine::{CompiledModel, InferenceRequest, ServeConfig, ServeReport};
use unigpu_telemetry::{MetricsRegistry, SpanRecorder};

/// Submit a pre-collected request set in arrival order and shut down.
pub fn serve(
    compiled: &CompiledModel,
    requests: Vec<InferenceRequest>,
    cfg: &ServeConfig,
    spans: &SpanRecorder,
    metrics: &MetricsRegistry,
) -> ServeReport {
    let mut server = compiled.server_with(cfg, spans, metrics);
    for r in requests {
        server.submit(r);
    }
    server.shutdown()
}
