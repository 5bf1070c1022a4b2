//! The benchmark's contract, in one place: workloads, end-to-end metrics
//! with their bounds, per-layer metrics. `BENCHMARK.json` at the repo root
//! is generated from here (`unigpu-benchmark manifest`) and a test keeps the
//! two equal; README.md explains every entry.

/// Seconds one run measures for (`--seconds`); `run_seconds` in the manifest.
pub const RUN_SECONDS: u64 = 10;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "serve_steady",
        why: "MobileNet1.0 behind one Server at 0.7 of capacity, no faults: the engine::server event loop does nearly all the work, compile/tuner/fleet almost none",
    },
    Workload {
        name: "serve_chaos",
        why: "same server under bursts at 2x capacity, bounded queue, deadlines and device faults: admission, deadline, retry, degrade and breaker paths, which serve_steady never takes",
    },
    Workload {
        name: "compile_zoo",
        why: "cold then warm Engine::compile of three models on three platforms: graph passes, placement, estimator and artifact cache do the work, the server none",
    },
    Workload {
        name: "tune_zoo",
        why: "tune_graph at the default 128 trials per workload on three GPUs: tuner, device cost model and conv profiles do the work, which compile_zoo bypasses with fallback schedules",
    },
    Workload {
        name: "fleet_wire",
        why: "SqueezeNet1.0 behind a pow2 Router over four LocalReplicas with one death, plus each request's frames through Framed v2: router, failover and codec, which serve_steady bypasses",
    },
    Workload {
        name: "exec_functional",
        why: "CompiledModel::run on real tensors plus the four vision operators: the only workload where ops and device::exec compute values and not prices",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

use Better::{Higher, Lower};

/// Every workload reports every one of these with `--trace 0`; README.md
/// says what each means on each workload. Bounds follow the widest spread
/// ((q3 - q1) / median over ten runs, ten seeds) seen on any workload while
/// the benchmark was written: host time 4-13 % (bound at the contract's
/// maximum), peak heap 8 %, p99 2.6 %, everything else under 0.3 %.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "host_us_per_op",
        unit: "us",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "allocs_per_op",
        unit: "count",
        better: Lower,
        bound: 0.02,
    },
    EndToEnd {
        name: "peak_heap_mb",
        unit: "MB",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "served_ratio",
        unit: "ratio",
        better: Higher,
        bound: 0.02,
    },
    EndToEnd {
        name: "sim_p50_ms",
        unit: "sim_ms",
        better: Lower,
        bound: 0.02,
    },
    EndToEnd {
        name: "sim_p99_ms",
        unit: "sim_ms",
        better: Lower,
        bound: 0.1,
    },
    EndToEnd {
        name: "sim_goodput_rps",
        unit: "sim_rps",
        better: Higher,
        bound: 0.05,
    },
    EndToEnd {
        name: "sim_speedup_vs_vendor",
        unit: "x",
        better: Higher,
        bound: 0.01,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn pl(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Every workload reports every one of these with `--trace 1`; a metric of a
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: &[PerLayer] = &[
    pl("models.build_ms", "ms", Lower),
    pl("tensor.graph_clone_ms", "ms", Lower),
    pl("tensor.layout_transform_ms", "ms", Lower),
    pl("graph.fold_bn_ms", "ms", Lower),
    pl("graph.fuse_ms", "ms", Lower),
    pl("graph.place_ms", "ms", Lower),
    pl("graph.estimate_ms", "ms", Lower),
    pl("graph.rebatch_ms", "ms", Lower),
    pl("graph.optimized_nodes", "count", Lower),
    pl("graph.exec_ms", "ms", Lower),
    pl("device.kernel_time_ns", "ns", Lower),
    pl("device.timeline_schedule_ns", "ns", Lower),
    pl("device.fault_decide_ns", "ns", Lower),
    pl("device.dispatch_ns_per_group", "ns", Lower),
    pl("ir.lower_us", "us", Lower),
    pl("ir.features_us", "us", Lower),
    pl("ops.conv_ref_ms", "ms", Lower),
    pl("ops.dense_ms", "ms", Lower),
    pl("ops.argsort_ms", "ms", Lower),
    pl("ops.scan_ms", "ms", Lower),
    pl("ops.nms_ms", "ms", Lower),
    pl("ops.roi_align_ms", "ms", Lower),
    pl("ops.conv_share", "ratio", Lower),
    pl("tuner.random_trials_per_s", "1/s", Higher),
    pl("tuner.sa_trials_per_s", "1/s", Higher),
    pl("tuner.model_trials_per_s", "1/s", Higher),
    pl("tuner.gbt_fit_ms", "ms", Lower),
    pl("tuner.gbt_predict_ns", "ns", Lower),
    pl("tuner.measure_ns", "ns", Lower),
    pl("tuner.graph_tuner_ms", "ms", Lower),
    pl("tuner.trials_to_5pct", "count", Lower),
    pl("tuner.distinct_workloads", "count", Lower),
    pl("tuner.db_roundtrip_ms", "ms", Lower),
    pl("engine.compile_cold_ms", "ms", Lower),
    pl("engine.compile_warm_ms", "ms", Lower),
    pl("engine.fingerprint_ms", "ms", Lower),
    pl("engine.artifact_save_ms", "ms", Lower),
    pl("engine.artifact_load_ms", "ms", Lower),
    pl("engine.cache_hit_ns", "ns", Lower),
    pl("engine.estimate_batch_cold_ms", "ms", Lower),
    pl("engine.server_new_us", "us", Lower),
    pl("engine.submit_ns", "ns", Lower),
    pl("engine.drain_ns_per_req", "ns", Lower),
    pl("engine.shutdown_ms", "ms", Lower),
    pl("engine.mean_batch_size", "count", Higher),
    pl("engine.batches", "count", Lower),
    pl("engine.continuous_joins", "count", Higher),
    pl("engine.device_idle_fraction", "ratio", Lower),
    pl("engine.queue_ms_p50", "sim_ms", Lower),
    pl("engine.trace_sampled_ratio", "ratio", Lower),
    pl("engine.trace_full_ratio", "ratio", Lower),
    pl("engine.shed", "count", Lower),
    pl("engine.expired", "count", Lower),
    pl("engine.retries", "count", Lower),
    pl("engine.degraded_batches", "count", Lower),
    pl("engine.breaker_trips", "count", Lower),
    pl("engine.recorder_dumps", "count", Lower),
    pl("engine.digest_reps_equal", "count", Higher),
    pl("telemetry.span_ns", "ns", Lower),
    pl("telemetry.counter_ns", "ns", Lower),
    pl("telemetry.histogram_ns", "ns", Lower),
    pl("telemetry.recorder_push_ns", "ns", Lower),
    pl("telemetry.prometheus_ms", "ms", Lower),
    pl("telemetry.chrome_export_ms", "ms", Lower),
    pl("telemetry.json_validate_mb_s", "MB/s", Higher),
    pl("farm.encode_ns", "ns", Lower),
    pl("farm.decode_ns", "ns", Lower),
    pl("farm.crc32_mb_s", "MB/s", Higher),
    pl("farm.frame_bytes", "count", Lower),
    pl("farm.v1_frames_per_s", "1/s", Higher),
    pl("farm.chaos_passthrough_ratio", "ratio", Lower),
    pl("fleet.route_ns", "ns", Lower),
    pl("fleet.route_ns_short", "ns", Lower),
    pl("fleet.route_scaling_ratio", "ratio", Lower),
    pl("fleet.replica_submit_ns", "ns", Lower),
    pl("fleet.finish_ms", "ms", Lower),
    pl("fleet.rerouted", "count", Lower),
    pl("fleet.replica_share_max", "ratio", Lower),
    pl("fleet.remote_rtt_us", "us", Lower),
    pl("fleet.replication_ms", "ms", Lower),
    pl("baselines.vendor_ms", "ms", Lower),
    pl("bench.trace_overhead_ratio", "ratio", Lower),
    pl("bench.generator_lag_ms", "ms", Lower),
    pl("bench.rep_spread", "ratio", Lower),
    // Self time per layer from the spans of the traced run.
    pl("models.self_ms", "ms", Lower),
    pl("tensor.self_ms", "ms", Lower),
    pl("graph.self_ms", "ms", Lower),
    pl("device.self_ms", "ms", Lower),
    pl("ir.self_ms", "ms", Lower),
    pl("ops.self_ms", "ms", Lower),
    pl("tuner.self_ms", "ms", Lower),
    pl("engine.self_ms", "ms", Lower),
    pl("telemetry.self_ms", "ms", Lower),
    pl("farm.self_ms", "ms", Lower),
    pl("fleet.self_ms", "ms", Lower),
    pl("baselines.self_ms", "ms", Lower),
];

fn json_str(s: &str) -> String {
    serde_json::to_string(s).expect("strings serialize")
}

/// `BENCHMARK.json`, exactly the keys the driver's contract names.
pub fn manifest_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows = |rows: Vec<String>| rows.join(",\n");
    out.push_str("  \"workloads\": [\n");
    out.push_str(&rows(
        WORKLOADS
            .iter()
            .map(|w| {
                format!(
                    "    {{\"name\": {}, \"why\": {}}}",
                    json_str(w.name),
                    json_str(w.why)
                )
            })
            .collect(),
    ));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    out.push_str(&rows(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                    json_str(m.name),
                    json_str(m.unit),
                    json_str(m.better.as_str()),
                    m.bound
                )
            })
            .collect(),
    ));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    out.push_str(&rows(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                    json_str(m.name),
                    json_str(m.unit),
                    json_str(m.better.as_str())
                )
            })
            .collect(),
    ));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// The layers (crates) a span name's prefix may name.
    const LAYERS: &[&str] = &[
        "models",
        "tensor",
        "graph",
        "device",
        "ir",
        "ops",
        "tuner",
        "engine",
        "telemetry",
        "farm",
        "fleet",
        "baselines",
    ];

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn catalogue_is_within_the_contracts_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names = HashSet::new();
        for w in WORKLOADS {
            assert!(valid_name(w.name) && names.insert(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why has {} chars",
                w.name,
                w.why.len()
            );
        }
        for m in END_TO_END {
            assert!(valid_name(m.name) && names.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.unit);
            assert!((0.0..=0.25).contains(&m.bound));
        }
        for m in PER_LAYER {
            assert!(valid_name(m.name) && names.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.unit);
            let layer = m.name.split('.').next().unwrap();
            assert!(layer == "bench" || LAYERS.contains(&layer), "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert!(setup.unit == "s" && setup.better == Lower);
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!(manifest_json().len() <= 64 * 1024);
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest_json(),
            "regenerate with `unigpu-benchmark manifest > BENCHMARK.json`"
        );
        let doc: serde_json::Value = serde_json::from_str(&committed).expect("valid JSON");
        assert_eq!(doc["workloads"].as_array().unwrap().len(), WORKLOADS.len());
    }
}
