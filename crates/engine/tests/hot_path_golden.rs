//! Byte-for-byte safety net under the serve hot path: everything a run of
//! the benchmark's pinned steady and chaos configs makes observable —
//! `ServeReport::digest`, every flight-recorder dump, the Chrome-trace
//! export and the metrics exposition — must equal the files under
//! `tests/golden/`, captured before the hot path was made allocation-free.
//!
//! On a mismatch the actual bytes are written under the system temp
//! directory (the failure message names the file), so an intended change is
//! re-captured by copying them over the goldens.

mod common;

use common::Pinned;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use unigpu_engine::{InferenceRequest, ServeConfig, ServeReport, LANE_CONTROL, LANE_WORKER_BASE};
use unigpu_telemetry::{to_prometheus, ChromeTrace, MetricsRegistry, SpanRecorder};

fn pinned() -> &'static Pinned {
    static PINNED: OnceLock<Pinned> = OnceLock::new();
    PINNED.get_or_init(Pinned::mobilenet)
}

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("unigpu-hot-path-golden-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Comparisons of one test against `tests/golden/`; every mismatch is
/// collected (and its actual bytes written out) before the test fails.
#[derive(Default)]
struct Goldens {
    mismatched: Vec<String>,
}

impl Goldens {
    fn check(&mut self, name: &str, actual: &[u8]) {
        let expected = std::fs::read(golden_dir().join(name)).unwrap_or_default();
        if expected != actual {
            let out = actual_dir().join(name);
            std::fs::create_dir_all(out.parent().expect("golden names are relative files"))
                .and_then(|_| std::fs::write(&out, actual))
                .expect("write the actual bytes");
            self.mismatched.push(name.to_string());
        }
    }

    fn finish(self) {
        assert!(
            self.mismatched.is_empty(),
            "{:?} differ from their goldens; actual bytes under {}",
            self.mismatched,
            actual_dir().display()
        );
    }
}

fn actual_dir() -> PathBuf {
    std::env::temp_dir().join("unigpu-hot-path-golden-actual")
}

fn run(cfg: &ServeConfig, requests: Vec<InferenceRequest>) -> (ServeReport, SpanRecorder, MetricsRegistry) {
    let spans = SpanRecorder::new();
    let metrics = MetricsRegistry::new();
    let report = common::serve(&pinned().compiled, requests, cfg, &spans, &metrics);
    (report, spans, metrics)
}

#[test]
fn steady_and_chaos_digests_match_the_goldens() {
    let p = pinned();
    let (steady, _, _) = run(&p.steady_cfg(), p.steady_requests(20_000));
    assert_eq!(steady.results.len(), 20_000, "steady load serves everything");
    let mut goldens = Goldens::default();
    goldens.check("steady.digest", format!("{:016x}\n", steady.digest()).as_bytes());

    let (chaos, _, _) = run(&p.chaos_cfg(), p.chaos_requests(20_000));
    assert_eq!(chaos.lost(), 0);
    for (path, count) in [
        ("shed", chaos.shed.len()),
        ("expired", chaos.expired.len()),
        ("retries", chaos.retries),
        ("degraded_batches", chaos.degraded_batches),
        ("breaker_trips", chaos.breaker_trips),
    ] {
        assert!(count > 0, "the chaos config no longer exercises `{path}`");
    }
    goldens.check("chaos.digest", format!("{:016x}\n", chaos.digest()).as_bytes());
    goldens.finish();
}

#[test]
fn chaos_recorder_dumps_match_the_goldens() {
    let p = pinned();
    let dir = scratch("dumps");
    let cfg = ServeConfig {
        recorder_dump_dir: Some(dir.clone()),
        ..p.chaos_cfg()
    };
    let (report, _, _) = run(&cfg, p.chaos_requests(5_000));
    let mut goldens = Goldens::default();
    let mut names = Vec::new();
    for path in &report.recorder_dumps {
        let name = path.file_name().and_then(|n| n.to_str()).expect("utf-8 dump name");
        goldens.check(
            &format!("chaos_dumps/{name}"),
            &std::fs::read(path).expect("dump readable"),
        );
        names.push(name.to_string());
    }
    goldens.finish();
    let mut golden: Vec<String> = std::fs::read_dir(golden_dir().join("chaos_dumps"))
        .expect("golden dump directory")
        .map(|e| e.expect("dir entry").file_name().into_string().expect("utf-8 name"))
        .collect();
    golden.sort();
    names.sort();
    assert_eq!(names, golden, "the run wrote exactly the golden set of dumps");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn traced_chaos_export_matches_the_goldens() {
    let p = pinned();
    let cfg = ServeConfig {
        trace_sample_every: 1,
        ..p.chaos_cfg()
    };
    let (report, spans, metrics) = run(&cfg, p.chaos_requests(600));
    let snapshot = metrics.snapshot();
    let mut trace = ChromeTrace::new();
    trace.name_lane(LANE_CONTROL, "control (retries / breaker)");
    for w in 0..cfg.concurrency {
        trace.name_lane(LANE_WORKER_BASE + w as u32, format!("worker {w}"));
    }
    trace.add_spans(&spans.spans());
    trace.add_metrics(&snapshot, report.makespan_ms * 1000.0);
    // the device timeline's own lanes, clear of the worker lanes
    report.timeline.add_to_trace(&mut trace, 32);
    let mut goldens = Goldens::default();
    goldens.check("chaos_trace.json", trace.to_json().as_bytes());
    goldens.check("chaos_metrics.prom", to_prometheus(&snapshot).as_bytes());
    goldens.finish();
}
