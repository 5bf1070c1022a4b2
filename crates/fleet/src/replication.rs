//! Warm artifact replication.
//!
//! Compiling (let alone tuning) a model once per replica wastes exactly
//! the work the artifact cache exists to save: schedules depend on the
//! *device*, not the replica, so every replica simulating the same GPU can
//! serve from one compile. This module takes the [`Artifact`] a
//! [`CompiledModel`] was built from and seeds peer caches with it — over a
//! directory for in-process pools, or as a JSONL frame payload for remote
//! replicas (see [`FleetFrame::PushArtifact`]) — so a cold peer's
//! `Engine::compile` becomes a disk hit (`from_cache() == true`).
//!
//! [`FleetFrame::PushArtifact`]: crate::proto::FleetFrame::PushArtifact

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io;
use std::path::Path;
use unigpu_engine::{Artifact, ArtifactCache, CompiledModel};

use crate::replica::ReplicaLink;

/// The artifact `Engine::compile` persisted for `compiled`, without
/// touching the engine's cache. This is what replication ships to peers.
pub fn artifact_of(compiled: &CompiledModel) -> Artifact {
    compiled.artifact().clone()
}

/// Seed a replica's artifact-cache directory with `artifact`, so the
/// replica's next compile of the same (model, device, tuning) key is a
/// disk hit instead of a recompilation.
pub fn store_in_dir(dir: &Path, artifact: &Artifact) {
    let mut cache = ArtifactCache::with_dir(1, dir);
    cache.put(artifact.key(), artifact.clone());
}

/// Parse a pushed JSONL payload and store it in `dir`. Returns `false`
/// (not an IO error) on a malformed payload: a bad push must never take
/// the replica down, only leave it cold.
pub fn store_jsonl_in_dir(dir: &Path, jsonl: &str) -> bool {
    match Artifact::from_jsonl(jsonl) {
        Ok(artifact) => {
            store_in_dir(dir, &artifact);
            true
        }
        Err(_) => false,
    }
}

/// Warm a remote pool, then load the model everywhere. The first replica
/// of each device class loads cold (compiling if its cache is empty) and
/// donates its artifact; every later same-device replica receives a
/// `PushArtifact` *before* its `Load`, so it comes up warm. Returns each
/// replica's warm flag, in pool order.
pub fn warm_remote_pool(
    replicas: &mut [crate::router::RemoteReplica],
    model: &str,
) -> io::Result<Vec<bool>> {
    let mut donor_jsonl: HashMap<String, String> = HashMap::new();
    let mut warm = Vec::with_capacity(replicas.len());
    for replica in replicas.iter_mut() {
        let device = replica.device().to_string();
        if let Some(jsonl) = donor_jsonl.get(&device) {
            replica.push_artifact(jsonl)?;
        }
        let (is_warm, _predicted_ms) = replica.load(model)?;
        if let Entry::Vacant(slot) = donor_jsonl.entry(device) {
            slot.insert(replica.fetch_artifact()?);
        }
        warm.push(is_warm);
    }
    Ok(warm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use unigpu_device::Platform;
    use unigpu_engine::Engine;
    use unigpu_graph::{Activation, Graph, OpKind};
    use unigpu_ops::ConvWorkload;
    use unigpu_tensor::{Shape, Tensor};

    fn tiny_graph() -> Graph {
        let mut g = Graph::new("replication-test");
        let w = ConvWorkload::square(1, 3, 8, 8, 3, 1, 1);
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

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!(
            "unigpu-fleet-replication-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn rebuilt_artifact_matches_the_compile() {
        let engine = Engine::builder()
            .platform(Platform::deeplens())
            .persist(false)
            .build();
        let compiled = engine.compile(&tiny_graph());
        let artifact = artifact_of(&compiled);
        assert_eq!(&artifact.key(), compiled.key());
        assert_eq!(artifact.meta.cost_table, compiled.cost_table());
        assert_eq!(artifact.meta.nodes, compiled.placement().graph.nodes.len());
        // survives the wire form round trip intact
        let back = Artifact::from_jsonl(&artifact.to_jsonl()).unwrap();
        assert_eq!(back.key(), artifact.key());
        assert_eq!(back.records.len(), artifact.records.len());
    }

    #[test]
    fn artifact_of_is_what_the_engine_persisted() {
        let g = tiny_graph();
        let dir = temp_dir("persisted");
        let persisted = |c: &CompiledModel| {
            std::fs::read_to_string(dir.join(format!("{}.jsonl", c.key().slug())))
                .expect("the compile persisted its artifact")
        };
        let engine = |trials: Option<usize>| {
            let b = Engine::builder().platform(Platform::deeplens()).cache_dir(&dir);
            match trials {
                Some(n) => b.tuned(n),
                None => b,
            }
            .build()
        };
        let fallback = engine(None).compile(&g);
        let tuned = engine(Some(4)).compile(&g);
        assert!(!fallback.is_tuned() && tuned.is_tuned());
        // a fresh engine over the same directory: a disk hit
        let hit = engine(Some(4)).compile(&g);
        assert!(hit.from_cache());
        for c in [&fallback, &tuned, &hit] {
            assert_eq!(artifact_of(c).to_jsonl(), persisted(c), "{:?}", c.key().tuning);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pushed_artifact_turns_a_cold_peer_warm() {
        let g = tiny_graph();
        let donor = Engine::builder()
            .platform(Platform::deeplens())
            .persist(false)
            .build();
        let compiled = donor.compile(&g);
        assert!(!compiled.from_cache());

        let peer_dir = temp_dir("warm");
        assert!(store_jsonl_in_dir(&peer_dir, &artifact_of(&compiled).to_jsonl()));
        let peer = Engine::builder()
            .platform(Platform::deeplens())
            .cache_dir(&peer_dir)
            .build();
        let warm = peer.compile(&g);
        assert!(warm.from_cache(), "peer must hit the replicated artifact");
        assert_eq!(warm.cost_table(), compiled.cost_table());
        let _ = std::fs::remove_dir_all(&peer_dir);
    }

    #[test]
    fn malformed_push_is_refused_not_fatal() {
        let dir = temp_dir("bad");
        assert!(!store_jsonl_in_dir(&dir, "{ not an artifact"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replication_does_not_cross_device_classes() {
        let g = tiny_graph();
        let donor = Engine::builder()
            .platform(Platform::deeplens())
            .persist(false)
            .build();
        let artifact = artifact_of(&donor.compile(&g));

        // a Mali replica seeded with an Intel artifact stays cold: the key
        // embeds the device name, so the lookup misses
        let dir = temp_dir("cross");
        store_in_dir(&dir, &artifact);
        let peer = Engine::builder()
            .platform(Platform::aisage())
            .cache_dir(&dir)
            .build();
        assert!(!peer.compile(&g).from_cache());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
