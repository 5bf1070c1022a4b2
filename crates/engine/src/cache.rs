//! The artifact cache: bounded in-memory LRU over [`Artifact`]s with
//! optional JSONL persistence.
//!
//! Eviction only drops the in-memory copy — the on-disk file survives, so a
//! later `get` for an evicted key comes back as a disk hit rather than a
//! recompile. Corrupt or mismatched disk artifacts are deleted and reported
//! as misses; the engine recompiles instead of crashing on a bad file.

use crate::artifact::{Artifact, ArtifactKey};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use unigpu_telemetry::{tel_debug, tel_warn};

/// Default artifact directory: `artifacts/` under [`unigpu_tuner::db_dir`]
/// (the tuning database lives alongside, under the same root).
pub fn default_artifact_dir() -> PathBuf {
    unigpu_tuner::db_dir().join("artifacts")
}

/// Cache traffic counters, readable via [`ArtifactCache::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// In-memory hits.
    pub hits: usize,
    /// Served from disk after a memory miss (cross-process reuse).
    pub disk_hits: usize,
    /// Not found anywhere: the caller compiles.
    pub misses: usize,
    /// In-memory entries dropped by the LRU bound.
    pub evictions: usize,
    /// Corrupt or mismatched disk artifacts deleted.
    pub corrupt: usize,
}

/// LRU cache of compiled-model artifacts.
#[derive(Debug)]
pub struct ArtifactCache {
    capacity: usize,
    dir: Option<PathBuf>,
    entries: HashMap<ArtifactKey, Arc<Artifact>>,
    /// Recency order, most recently used last.
    order: Vec<ArtifactKey>,
    stats: CacheStats,
}

impl ArtifactCache {
    /// Memory-only cache holding at most `capacity` artifacts.
    pub fn new(capacity: usize) -> Self {
        ArtifactCache {
            capacity: capacity.max(1),
            dir: None,
            entries: HashMap::new(),
            order: Vec::new(),
            stats: CacheStats::default(),
        }
    }

    /// Cache backed by a directory of `<key-slug>.jsonl` files.
    pub fn with_dir(capacity: usize, dir: impl Into<PathBuf>) -> Self {
        let mut c = ArtifactCache::new(capacity);
        c.dir = Some(dir.into());
        c
    }

    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// In-memory entry count (disk may hold more).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn path_for(&self, key: &ArtifactKey) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(format!("{}.jsonl", key.slug())))
    }

    fn touch(&mut self, key: &ArtifactKey) {
        self.order.retain(|k| k != key);
        self.order.push(key.clone());
    }

    /// Look up an artifact: memory first, then disk. A disk artifact is
    /// validated against the key it claims to be; corrupt or mismatched
    /// files are deleted and counted, never propagated.
    pub fn get(&mut self, key: &ArtifactKey) -> Option<Arc<Artifact>> {
        if let Some(a) = self.entries.get(key) {
            let a = Arc::clone(a);
            self.stats.hits += 1;
            self.touch(key);
            return Some(a);
        }
        if let Some(path) = self.path_for(key) {
            if path.exists() {
                match Artifact::load(&path) {
                    Ok(a) if a.key() == *key => {
                        tel_debug!(
                            "engine::cache",
                            "disk hit for {} [{}]",
                            key.model,
                            key.tuning.tag()
                        );
                        self.stats.disk_hits += 1;
                        let a = Arc::new(a);
                        self.insert_mem(key.clone(), Arc::clone(&a));
                        return Some(a);
                    }
                    Ok(_) => {
                        tel_warn!(
                            "engine::cache",
                            "artifact {} does not match its key (stale or renamed); recompiling",
                            path.display()
                        );
                        self.stats.corrupt += 1;
                        std::fs::remove_file(&path).ok();
                    }
                    Err(e) => {
                        tel_warn!(
                            "engine::cache",
                            "corrupt artifact {}: {e}; recompiling",
                            path.display()
                        );
                        self.stats.corrupt += 1;
                        std::fs::remove_file(&path).ok();
                    }
                }
            }
        }
        self.stats.misses += 1;
        None
    }

    /// Insert an artifact, persisting it when a directory is configured.
    /// Persistence failures degrade to memory-only caching with a warning.
    pub fn put(&mut self, key: ArtifactKey, artifact: impl Into<Arc<Artifact>>) {
        let artifact = artifact.into();
        if let Some(path) = self.path_for(&key) {
            if let Some(parent) = path.parent() {
                std::fs::create_dir_all(parent).ok();
            }
            if let Err(e) = artifact.save(&path) {
                tel_warn!(
                    "engine::cache",
                    "failed to persist artifact {}: {e}",
                    path.display()
                );
            }
        }
        self.insert_mem(key, artifact);
    }

    fn insert_mem(&mut self, key: ArtifactKey, artifact: Arc<Artifact>) {
        self.entries.insert(key.clone(), artifact);
        self.touch(&key);
        while self.entries.len() > self.capacity {
            let victim = self.order.remove(0);
            self.entries.remove(&victim);
            self.stats.evictions += 1;
            // the disk copy (if any) survives eviction deliberately
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{ArtifactMeta, TuningState, ARTIFACT_KIND, ARTIFACT_VERSION};

    fn artifact(model: &str, fp: u64) -> Artifact {
        Artifact {
            meta: ArtifactMeta {
                kind: ARTIFACT_KIND.into(),
                version: ARTIFACT_VERSION,
                model: model.into(),
                fingerprint: fp,
                device: "dev".into(),
                tuning: TuningState::Fallback,
                nodes: 1,
                total_ms: 1.0,
                cost_table: vec![],
            },
            records: vec![],
        }
    }

    fn key(model: &str, fp: u64) -> ArtifactKey {
        artifact(model, fp).key()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("unigpu_engine_cache_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = ArtifactCache::new(2);
        assert!(c.get(&key("a", 1)).is_none());
        c.put(key("a", 1), artifact("a", 1));
        c.put(key("b", 2), artifact("b", 2));
        assert!(c.get(&key("a", 1)).is_some()); // bumps `a` over `b`
        c.put(key("c", 3), artifact("c", 3)); // evicts `b`
        assert!(c.get(&key("b", 2)).is_none());
        assert!(c.get(&key("a", 1)).is_some());
        assert!(c.get(&key("c", 3)).is_some());
        let s = c.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.misses, 2); // initial `a`, evicted `b`
        assert_eq!(s.hits, 3); // `a` twice, `c` once
    }

    #[test]
    fn disk_survives_eviction_and_fresh_caches() {
        let dir = temp_dir("disk");
        {
            let mut c = ArtifactCache::with_dir(1, &dir);
            c.put(key("a", 1), artifact("a", 1));
            c.put(key("b", 2), artifact("b", 2)); // evicts `a` from memory
            assert_eq!(c.stats().evictions, 1);
            // ...but `a`'s file is still there
            let back = c.get(&key("a", 1)).expect("disk hit");
            assert_eq!(back.meta.model, "a");
            assert_eq!(c.stats().disk_hits, 1);
        }
        // a brand-new cache over the same directory sees everything
        let mut fresh = ArtifactCache::with_dir(4, &dir);
        assert!(fresh.get(&key("a", 1)).is_some());
        assert!(fresh.get(&key("b", 2)).is_some());
        assert_eq!(fresh.stats().disk_hits, 2);
        assert_eq!(fresh.stats().hits, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_disk_artifact_is_deleted_and_reported_as_miss() {
        let dir = temp_dir("corrupt");
        let mut c = ArtifactCache::with_dir(4, &dir);
        let k = key("a", 1);
        c.put(k.clone(), artifact("a", 1));
        let path = dir.join(format!("{}.jsonl", k.slug()));
        assert!(path.exists());
        std::fs::write(&path, "{ not an artifact").unwrap();

        let mut fresh = ArtifactCache::with_dir(4, &dir);
        assert!(fresh.get(&k).is_none());
        assert_eq!(fresh.stats().corrupt, 1);
        assert_eq!(fresh.stats().misses, 1);
        assert!(!path.exists(), "corrupt file removed");
        // recompile path: put works again and the next get hits
        fresh.put(k.clone(), artifact("a", 1));
        assert!(fresh.get(&k).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn persistence_is_atomic_no_temp_files_linger() {
        let dir = temp_dir("atomic");
        let mut c = ArtifactCache::with_dir(4, &dir);
        let k = key("a", 1);
        // a stray temp file from a crashed writer must not confuse anything
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("stale-crash-leftover.tmp"), "half-written garbage").unwrap();
        c.put(k.clone(), artifact("a", 1));
        let path = dir.join(format!("{}.jsonl", k.slug()));
        assert!(path.exists());
        // the save itself left no temp file behind (only the stale one)
        let tmp_files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert_eq!(
            tmp_files,
            vec!["stale-crash-leftover.tmp".to_string()],
            "atomic save leaves no temp files of its own"
        );
        // the artifact round-trips intact despite the stray temp file
        let mut fresh = ArtifactCache::with_dir(4, &dir);
        assert!(fresh.get(&k).is_some());
        assert_eq!(fresh.stats().corrupt, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mismatched_disk_artifact_is_rejected() {
        let dir = temp_dir("mismatch");
        let mut c = ArtifactCache::with_dir(4, &dir);
        let k = key("a", 1);
        // write a *valid* artifact under `a`'s file name, but for a
        // different fingerprint (simulates a stale rename)
        let path = dir.join(format!("{}.jsonl", k.slug()));
        std::fs::create_dir_all(&dir).unwrap();
        artifact("a", 99).save(&path).unwrap();
        assert!(c.get(&k).is_none());
        assert_eq!(c.stats().corrupt, 1);
        assert!(!path.exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
