//! The tuning-record database.
//!
//! §3.2.3: "doing tensor-level search is costly particularly at the edge
//! devices ... In order to prevent replicated searching in the future, we
//! maintain a database to store the results for every convolution workload
//! on each hardware platform." Records serialize to JSON lines, mirroring
//! AutoTVM's log format.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::PathBuf;
use unigpu_ops::conv::ConvConfig;
use unigpu_ops::ConvWorkload;

/// The tuning cache directory: `UNIGPU_DB_DIR`, defaulting to
/// `target/tuning`, and the only reader of that variable. Holds the
/// engine's artifact cache (`artifacts/`) and the per-device databases
/// ([`device_db_path`]) that `unigpu tune --resume` reads back.
pub fn db_dir() -> PathBuf {
    let dir = std::env::var("UNIGPU_DB_DIR").unwrap_or_else(|_| "target/tuning".into());
    PathBuf::from(dir)
}

/// Filesystem-safe slug of a device name (`Intel HD Graphics 505` →
/// `intel_hd_graphics_505`).
fn device_slug(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '_' })
        .collect()
}

/// Canonical on-disk database path for a device, under [`db_dir`] — the
/// file `unigpu tune --resume` consults and folds its results into.
pub fn device_db_path(device: &str) -> PathBuf {
    db_dir().join(format!("{}.jsonl", device_slug(device)))
}

/// One tuning outcome: the best schedule found for a workload on a device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuneRecord {
    /// Device name (`DeviceSpec::name`).
    pub device: String,
    /// Workload key (`ConvWorkload::key()`).
    pub workload: String,
    pub config: ConvConfig,
    pub cost_ms: f64,
    /// Measurements spent finding it.
    pub trials: usize,
}

/// In-memory database keyed by `(device, workload)`, with JSON persistence.
#[derive(Debug, Clone, Default)]
pub struct Database {
    records: HashMap<(String, String), TuneRecord>,
}

impl Database {
    pub fn new() -> Self {
        Database::default()
    }

    /// Insert / overwrite-if-better a record.
    pub fn insert(&mut self, rec: TuneRecord) {
        let key = (rec.device.clone(), rec.workload.clone());
        match self.records.get(&key) {
            Some(old) if old.cost_ms <= rec.cost_ms => {}
            _ => {
                self.records.insert(key, rec);
            }
        }
    }

    /// Insert unconditionally, replacing any existing record (used by the
    /// graph tuner, whose choice may be tensor-level-slower but chain-level
    /// faster once transform costs are counted).
    pub fn insert_replace(&mut self, rec: TuneRecord) {
        self.records
            .insert((rec.device.clone(), rec.workload.clone()), rec);
    }

    /// Look up the best known config for a workload on a device.
    pub fn lookup(&self, device: &str, w: &ConvWorkload) -> Option<&TuneRecord> {
        self.records.get(&(device.to_string(), w.key()))
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All records in deterministic `(device, workload)` order — the
    /// serialization surface used by compiled-model artifacts.
    pub fn records(&self) -> Vec<TuneRecord> {
        let mut recs: Vec<TuneRecord> = self.records.values().cloned().collect();
        recs.sort_by(|a, b| (&a.device, &a.workload).cmp(&(&b.device, &b.workload)));
        recs
    }

    /// Rebuild a database from serialized records (keeps the best per key).
    pub fn from_records(records: impl IntoIterator<Item = TuneRecord>) -> Self {
        let mut db = Database::new();
        for r in records {
            db.insert(r);
        }
        db
    }

    /// Serialize to JSON lines (one record per line, AutoTVM-log style).
    pub fn to_json_lines(&self) -> String {
        let mut recs: Vec<&TuneRecord> = self.records.values().collect();
        recs.sort_by(|a, b| (&a.device, &a.workload).cmp(&(&b.device, &b.workload)));
        recs.iter()
            .map(|r| serde_json::to_string(r).expect("record serializes"))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Parse JSON lines produced by [`Database::to_json_lines`].
    pub fn from_json_lines(s: &str) -> Result<Self, serde_json::Error> {
        let mut db = Database::new();
        for line in s.lines().filter(|l| !l.trim().is_empty()) {
            db.insert(serde_json::from_str(line)?);
        }
        Ok(db)
    }

    /// Persist to a file.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json_lines())
    }

    /// Load from a file.
    pub fn load(path: &std::path::Path) -> std::io::Result<Self> {
        let s = std::fs::read_to_string(path)?;
        Self::from_json_lines(&s)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Load leniently: keep every parseable record and report what was
    /// skipped, instead of discarding the whole database on one corrupt
    /// line. A missing file yields an empty database with no errors.
    pub fn load_recovering(path: &std::path::Path) -> (Self, LoadRecovery) {
        let mut db = Database::new();
        let mut recovery = LoadRecovery::default();
        let Ok(s) = std::fs::read_to_string(path) else {
            return (db, recovery);
        };
        for line in s.lines().filter(|l| !l.trim().is_empty()) {
            match serde_json::from_str(line) {
                Ok(rec) => {
                    db.insert(rec);
                    recovery.recovered += 1;
                }
                Err(e) => {
                    recovery.skipped += 1;
                    if recovery.first_error.is_none() {
                        recovery.first_error = Some(e.to_string());
                    }
                }
            }
        }
        (db, recovery)
    }
}

/// What a lenient [`Database::load_recovering`] managed to salvage.
#[derive(Debug, Clone, Default)]
pub struct LoadRecovery {
    /// Records successfully parsed and inserted.
    pub recovered: usize,
    /// Corrupt lines dropped.
    pub skipped: usize,
    /// Parse error of the first corrupt line.
    pub first_error: Option<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(dev: &str, w: &ConvWorkload, cost: f64) -> TuneRecord {
        TuneRecord {
            device: dev.into(),
            workload: w.key(),
            config: ConvConfig::default_schedule(),
            cost_ms: cost,
            trials: 10,
        }
    }

    #[test]
    fn insert_keeps_best() {
        let w = ConvWorkload::square(1, 8, 8, 8, 3, 1, 1);
        let mut db = Database::new();
        db.insert(rec("dev", &w, 5.0));
        db.insert(rec("dev", &w, 9.0)); // worse: ignored
        assert_eq!(db.lookup("dev", &w).unwrap().cost_ms, 5.0);
        db.insert(rec("dev", &w, 2.0)); // better: replaces
        assert_eq!(db.lookup("dev", &w).unwrap().cost_ms, 2.0);
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn per_device_isolation() {
        let w = ConvWorkload::square(1, 8, 8, 8, 3, 1, 1);
        let mut db = Database::new();
        db.insert(rec("intel", &w, 1.0));
        db.insert(rec("mali", &w, 2.0));
        assert_eq!(db.len(), 2);
        assert_eq!(db.lookup("mali", &w).unwrap().cost_ms, 2.0);
        assert!(db.lookup("nvidia", &w).is_none());
    }

    #[test]
    fn json_round_trip() {
        let w1 = ConvWorkload::square(1, 8, 16, 8, 3, 1, 1);
        let w2 = ConvWorkload::depthwise(1, 32, 56, 3, 1, 1);
        let mut db = Database::new();
        db.insert(rec("intel", &w1, 1.5));
        db.insert(rec("intel", &w2, 0.5));
        let text = db.to_json_lines();
        let back = Database::from_json_lines(&text).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.lookup("intel", &w2).unwrap().cost_ms, 0.5);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("unigpu_db_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("records.jsonl");
        let w = ConvWorkload::square(1, 4, 4, 4, 1, 1, 0);
        let mut db = Database::new();
        db.insert(rec("nano", &w, 3.25));
        db.save(&path).unwrap();
        let back = Database::load(&path).unwrap();
        assert_eq!(back.lookup("nano", &w).unwrap().cost_ms, 3.25);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_json_errors() {
        assert!(Database::from_json_lines("not json").is_err());
    }

    #[test]
    fn load_recovering_salvages_good_lines() {
        let dir = std::env::temp_dir().join("unigpu_db_recover_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corrupt.jsonl");
        let w = ConvWorkload::square(1, 8, 8, 8, 3, 1, 1);
        let mut db = Database::new();
        db.insert(rec("dev", &w, 1.25));
        let mut text = db.to_json_lines();
        text.push_str("\n{ this line is corrupt\n");
        std::fs::write(&path, text).unwrap();

        assert!(Database::load(&path).is_err(), "strict load still fails");
        let (recovered, recovery) = Database::load_recovering(&path);
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovery.recovered, 1);
        assert_eq!(recovery.skipped, 1);
        assert!(recovery.first_error.is_some());
        assert_eq!(recovered.lookup("dev", &w).unwrap().cost_ms, 1.25);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_recovering_salvages_a_truncated_final_line() {
        // the crash-mid-write shape: a full record, then a record cut off
        // partway through (no trailing newline)
        let dir = std::env::temp_dir().join("unigpu_db_truncate_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("truncated.jsonl");
        let w1 = ConvWorkload::square(1, 8, 8, 8, 3, 1, 1);
        let w2 = ConvWorkload::depthwise(1, 32, 56, 3, 1, 1);
        let mut db = Database::new();
        db.insert(rec("dev", &w1, 1.25));
        db.insert(rec("dev", &w2, 2.5));
        let text = db.to_json_lines();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let last = lines[1];
        let truncated = format!("{}\n{}", lines[0], &last[..last.len() / 2]);
        std::fs::write(&path, truncated).unwrap();

        assert!(Database::load(&path).is_err(), "strict load still fails");
        let (recovered, recovery) = Database::load_recovering(&path);
        assert_eq!(recovery.recovered, 1, "the intact line survives");
        assert_eq!(recovery.skipped, 1, "the truncated tail is dropped");
        assert!(recovery.first_error.is_some());
        assert_eq!(recovered.len(), 1);
        assert!(
            recovered.lookup("dev", &w1).is_some() || recovered.lookup("dev", &w2).is_some(),
            "whichever record serialized first is recovered"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_recovering_missing_file_is_empty_and_clean() {
        let (db, recovery) = Database::load_recovering(std::path::Path::new(
            "/nonexistent/unigpu/records.jsonl",
        ));
        assert!(db.is_empty());
        assert_eq!(recovery.recovered + recovery.skipped, 0);
        assert!(recovery.first_error.is_none());
    }
}
