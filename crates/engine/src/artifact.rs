//! Compiled-model artifacts.
//!
//! `Engine::compile` turns a model into an [`Artifact`]: the metadata of the
//! optimized/placed graph (identity, estimated cost, per-node cost table)
//! plus the tuned schedule records needed to re-instantiate its
//! [`ScheduleProvider`](unigpu_graph::ScheduleProvider). Artifacts serialize
//! to JSON lines — one metadata line followed by one line per tuning record,
//! the same AutoTVM-log style the tuner database uses — so a model compiled
//! (and possibly tuned for minutes) in one process is a file read in the
//! next.

use serde::{Deserialize, Serialize};
use std::path::Path;
use unigpu_graph::{Graph, OpKind};
use unigpu_telemetry::hash::Fnv1a;
use unigpu_tuner::TuneRecord;

/// Bump when the artifact layout changes; readers reject other versions.
pub const ARTIFACT_VERSION: u32 = 1;

/// Marker distinguishing artifact files from plain tuning databases.
pub const ARTIFACT_KIND: &str = "unigpu-artifact";

/// How an artifact's schedules were obtained. Part of the cache key: a
/// fallback compile and a 128-trial tuned compile of the same model are
/// different artifacts.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TuningState {
    /// TVM-style fallback schedules — no search, compile is cheap.
    Fallback,
    /// Schedule search with this many trials per convolution workload.
    Tuned { trials: usize },
    /// Caller-supplied database, identified by a digest of its records.
    Pinned { digest: u64 },
}

impl TuningState {
    /// Filesystem-safe tag used in artifact file names.
    pub fn tag(&self) -> String {
        match self {
            TuningState::Fallback => "fallback".into(),
            TuningState::Tuned { trials } => format!("tuned{trials}"),
            TuningState::Pinned { digest } => format!("pinned{digest:016x}"),
        }
    }
}

/// Cache key for a compiled model: model identity (name + structural
/// fingerprint), target device, and tuning state.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ArtifactKey {
    pub model: String,
    /// Structural fingerprint of the *source* graph (see [`fingerprint`]).
    pub fingerprint: u64,
    /// GPU device name (`DeviceSpec::name`) the schedules target.
    pub device: String,
    pub tuning: TuningState,
}

impl ArtifactKey {
    pub fn new(model: &Graph, device: &str, tuning: TuningState) -> Self {
        ArtifactKey {
            model: model.name.clone(),
            fingerprint: fingerprint(model),
            device: device.to_string(),
            tuning,
        }
    }

    /// Filesystem-safe file stem for this key.
    pub fn slug(&self) -> String {
        format!(
            "{}__{}__{:016x}__{}",
            slugify(&self.model),
            slugify(&self.device),
            self.fingerprint,
            self.tuning.tag()
        )
    }
}

fn slugify(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

/// FNV-1a over the graph structure: model name, per-node operator kind,
/// convolution workload key, input wiring, inferred output shape, and the
/// graph outputs. Deliberately *not* `DefaultHasher` (unstable across
/// processes/releases). A constant contributes its shape only, so
/// fingerprinting reads no weight and never forces a folded one; weight
/// *values* do not affect scheduling, so structure is the right identity for
/// schedule reuse.
pub fn fingerprint(g: &Graph) -> u64 {
    let shapes = g.infer_shapes();
    let mut h = Fnv1a::new();
    h.update(g.name.as_bytes());
    for (n, shape) in g.nodes.iter().zip(&shapes) {
        h.update(&[0xff]); // node separator
        h.update(n.op.name().as_bytes());
        if let OpKind::Conv2d { w, .. } = &n.op {
            h.update(w.key().as_bytes());
        }
        for &i in &n.inputs {
            h.update(&(i as u64).to_le_bytes());
        }
        for &d in shape.dims() {
            h.update(&(d as u64).to_le_bytes());
        }
    }
    for &o in &g.outputs {
        h.update(&(o as u64).to_le_bytes());
    }
    h.finish()
}

/// Digest of a set of tuning records (for [`TuningState::Pinned`] keys).
/// Relies on `serde_json` emitting struct fields in declaration order, which
/// is deterministic for a fixed build.
pub fn records_digest(records: &[TuneRecord]) -> u64 {
    let mut h = Fnv1a::new();
    for r in records {
        h.update(
            serde_json::to_string(r)
                .expect("record serializes")
                .as_bytes(),
        );
        h.update(&[0xff]);
    }
    h.finish()
}

/// First line of a serialized artifact: everything except the records.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ArtifactMeta {
    /// Always [`ARTIFACT_KIND`]; guards against reading unrelated JSONL.
    pub kind: String,
    pub version: u32,
    pub model: String,
    pub fingerprint: u64,
    pub device: String,
    pub tuning: TuningState,
    /// Node count of the optimized, placed graph.
    pub nodes: usize,
    /// Estimated single-sample latency at compile time, ms.
    pub total_ms: f64,
    /// Precomputed per-node cost table of the placed graph: (node name, ms).
    pub cost_table: Vec<(String, f64)>,
}

/// A compiled-model artifact: metadata plus the tuned schedule records.
#[derive(Debug, Clone)]
pub struct Artifact {
    pub meta: ArtifactMeta,
    pub records: Vec<TuneRecord>,
}

impl Artifact {
    /// The cache key this artifact answers to.
    pub fn key(&self) -> ArtifactKey {
        ArtifactKey {
            model: self.meta.model.clone(),
            fingerprint: self.meta.fingerprint,
            device: self.meta.device.clone(),
            tuning: self.meta.tuning.clone(),
        }
    }

    /// Serialize: one metadata line, then one line per record.
    pub fn to_jsonl(&self) -> String {
        let mut out = serde_json::to_string(&self.meta).expect("meta serializes");
        out.push('\n');
        for r in &self.records {
            out.push_str(&serde_json::to_string(r).expect("record serializes"));
            out.push('\n');
        }
        out
    }

    /// Strict parse of [`Artifact::to_jsonl`] output. Any malformed line —
    /// including a truncated record tail — fails the whole artifact, so
    /// callers fall back to recompiling instead of serving half a schedule
    /// set.
    pub fn from_jsonl(s: &str) -> Result<Artifact, String> {
        let mut lines = s.lines().filter(|l| !l.trim().is_empty());
        let meta_line = lines.next().ok_or_else(|| "empty artifact".to_string())?;
        let meta: ArtifactMeta =
            serde_json::from_str(meta_line).map_err(|e| format!("bad metadata line: {e}"))?;
        if meta.kind != ARTIFACT_KIND {
            return Err(format!("not an artifact (kind {:?})", meta.kind));
        }
        if meta.version != ARTIFACT_VERSION {
            return Err(format!(
                "artifact version {} (this build reads {ARTIFACT_VERSION})",
                meta.version
            ));
        }
        let mut records = Vec::new();
        for line in lines {
            records.push(serde_json::from_str(line).map_err(|e| format!("bad record: {e}"))?);
        }
        Ok(Artifact { meta, records })
    }

    /// Persist atomically: write to a sibling temp file, flush it to disk,
    /// then rename over `path`. A crash mid-write leaves either the old
    /// artifact or a stray `.tmp` — never a truncated JSONL that readers
    /// would have to heal from.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(format!(".{}.tmp", std::process::id()));
        let tmp = std::path::PathBuf::from(tmp);
        let result = (|| {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(self.to_jsonl().as_bytes())?;
            f.sync_all()?;
            std::fs::rename(&tmp, path)
        })();
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        result
    }

    /// Strict load; IO and parse failures both surface as the error string,
    /// letting the cache treat them uniformly as "corrupt, recompile".
    pub fn load(path: &Path) -> Result<Artifact, String> {
        let s = std::fs::read_to_string(path).map_err(|e| format!("read failed: {e}"))?;
        Artifact::from_jsonl(&s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unigpu_graph::Activation;
    use unigpu_ops::conv::ConvConfig;
    use unigpu_ops::ConvWorkload;
    use unigpu_tensor::{Shape, Tensor};

    fn tiny_graph(name: &str, channels: usize) -> Graph {
        let mut g = Graph::new(name);
        let w = ConvWorkload::square(1, 3, channels, 8, 3, 1, 1);
        let x = g.add(
            OpKind::Input {
                shape: Shape::from(w.input_shape()),
            },
            vec![],
            "data",
        );
        let wt = g.add(
            OpKind::constant(Tensor::zeros(w.weight_shape())),
            vec![],
            "w0",
        );
        let conv = g.add(
            OpKind::Conv2d {
                w,
                bias: false,
                act: Activation::Relu,
            },
            vec![x, wt],
            "conv0",
        );
        g.mark_output(conv);
        g
    }

    #[test]
    fn fingerprint_is_stable_and_structure_sensitive() {
        let a = tiny_graph("m", 8);
        assert_eq!(fingerprint(&a), fingerprint(&tiny_graph("m", 8)));
        // different conv workload → different fingerprint
        assert_ne!(fingerprint(&a), fingerprint(&tiny_graph("m", 16)));
        // different model name → different fingerprint
        assert_ne!(fingerprint(&a), fingerprint(&tiny_graph("m2", 8)));
    }

    fn sample_artifact() -> Artifact {
        let g = tiny_graph("m", 8);
        let w = ConvWorkload::square(1, 3, 8, 8, 3, 1, 1);
        Artifact {
            meta: ArtifactMeta {
                kind: ARTIFACT_KIND.into(),
                version: ARTIFACT_VERSION,
                model: "m".into(),
                fingerprint: fingerprint(&g),
                device: "dev".into(),
                tuning: TuningState::Tuned { trials: 4 },
                nodes: 2,
                total_ms: 1.5,
                cost_table: vec![("conv0".into(), 1.5)],
            },
            records: vec![TuneRecord {
                device: "dev".into(),
                workload: w.key(),
                config: ConvConfig::default_schedule(),
                cost_ms: 1.5,
                trials: 4,
            }],
        }
    }

    #[test]
    fn jsonl_round_trip() {
        let a = sample_artifact();
        let back = Artifact::from_jsonl(&a.to_jsonl()).unwrap();
        assert_eq!(back.key(), a.key());
        assert_eq!(back.records.len(), 1);
        assert_eq!(back.meta.cost_table, a.meta.cost_table);
    }

    #[test]
    fn corrupt_artifacts_are_rejected_wholesale() {
        assert!(Artifact::from_jsonl("").is_err());
        assert!(Artifact::from_jsonl("not json at all").is_err());
        // a valid tuning-db line is not an artifact (wrong shape → parse error)
        let a = sample_artifact();
        let rec_only = serde_json::to_string(&a.records[0]).unwrap();
        assert!(Artifact::from_jsonl(&rec_only).is_err());
        // truncated record tail fails strictly
        let mut text = a.to_jsonl();
        text.push_str("{\"device\":\"dev\",\"workl");
        assert!(Artifact::from_jsonl(&text).is_err());
    }

    #[test]
    fn version_and_kind_are_enforced() {
        let mut a = sample_artifact();
        a.meta.version = ARTIFACT_VERSION + 1;
        assert!(Artifact::from_jsonl(&a.to_jsonl()).is_err());
        let mut b = sample_artifact();
        b.meta.kind = "something-else".into();
        assert!(Artifact::from_jsonl(&b.to_jsonl()).is_err());
    }

    #[test]
    fn slug_is_filesystem_safe() {
        let g = tiny_graph("ResNet50_v1", 8);
        let key = ArtifactKey::new(&g, "Intel HD 505", TuningState::Fallback);
        assert!(key
            .slug()
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_'));
        assert!(key.slug().contains("fallback"));
    }
}
