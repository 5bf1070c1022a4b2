//! Leveled event logger with an `UNIGPU_LOG` environment filter and
//! pluggable sinks.
//!
//! The filter syntax is a comma-separated list: a bare level sets the
//! default (`UNIGPU_LOG=debug`), and `target=level` entries override by
//! target prefix (`UNIGPU_LOG=warn,tuner=trace`). The default level is
//! `warn`, so tests and benchmarks stay silent unless asked.
//!
//! ```
//! use unigpu_telemetry::{tel_info, tel_warn};
//! tel_warn!("doc", "something odd: {}", 42);
//! tel_info!("doc", "progress line"); // silent unless UNIGPU_LOG >= info
//! ```

use std::fs::File;
use std::io::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Severity, ordered from most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    Error,
    Warn,
    Info,
    Debug,
    Trace,
}

impl Level {
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "ERROR",
            Level::Warn => "WARN",
            Level::Info => "INFO",
            Level::Debug => "DEBUG",
            Level::Trace => "TRACE",
        }
    }

    /// Parse a level name (case-insensitive). `off` maps to `None`.
    pub fn parse(s: &str) -> Option<Option<Level>> {
        match s.trim().to_ascii_lowercase().as_str() {
            "error" => Some(Some(Level::Error)),
            "warn" | "warning" => Some(Some(Level::Warn)),
            "info" => Some(Some(Level::Info)),
            "debug" => Some(Some(Level::Debug)),
            "trace" => Some(Some(Level::Trace)),
            "off" | "none" => Some(None),
            _ => None,
        }
    }
}

/// One log event.
#[derive(Debug, Clone)]
pub struct LogRecord {
    /// Microseconds since the logger was created.
    pub ts_us: f64,
    pub level: Level,
    /// Subsystem emitting the event (e.g. `"tuner"`, `"bench::harness"`).
    pub target: String,
    pub message: String,
}

/// Where log records go. Sinks must tolerate concurrent calls.
pub trait LogSink: Send + Sync {
    fn log(&self, record: &LogRecord);
}

/// Human-readable sink writing to stderr.
#[derive(Debug, Default)]
pub struct StderrSink;

impl LogSink for StderrSink {
    fn log(&self, r: &LogRecord) {
        eprintln!(
            "[unigpu {:<5} {}] {}",
            r.level.as_str(),
            r.target,
            r.message
        );
    }
}

/// Machine-readable sink appending one JSON object per line to a file.
#[derive(Debug)]
pub struct JsonlSink {
    file: Mutex<File>,
}

impl JsonlSink {
    pub fn create(path: &Path) -> std::io::Result<Self> {
        Ok(JsonlSink {
            file: Mutex::new(File::create(path)?),
        })
    }
}

impl LogSink for JsonlSink {
    fn log(&self, r: &LogRecord) {
        let mut line = String::with_capacity(r.message.len() + 64);
        line.push('{');
        crate::json::write_key(&mut line, "ts_us");
        crate::json::write_f64(&mut line, r.ts_us);
        line.push(',');
        crate::json::write_key(&mut line, "level");
        crate::json::write_str(&mut line, r.level.as_str());
        line.push(',');
        crate::json::write_key(&mut line, "target");
        crate::json::write_str(&mut line, &r.target);
        line.push(',');
        crate::json::write_key(&mut line, "message");
        crate::json::write_str(&mut line, &r.message);
        line.push('}');
        let mut f = self.file.lock().expect("jsonl sink poisoned");
        let _ = writeln!(f, "{line}");
    }
}

/// Parsed `UNIGPU_LOG` filter.
#[derive(Debug, Clone)]
struct Filter {
    /// `None` = everything off.
    default: Option<Level>,
    /// `(target-prefix, level)` overrides; longest prefix wins.
    overrides: Vec<(String, Option<Level>)>,
}

impl Filter {
    fn parse(spec: &str) -> Filter {
        let mut filter = Filter {
            default: Some(Level::Warn),
            overrides: Vec::new(),
        };
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            if let Some((target, level)) = part.split_once('=') {
                if let Some(lv) = Level::parse(level) {
                    filter.overrides.push((target.trim().to_string(), lv));
                }
            } else if let Some(lv) = Level::parse(part) {
                filter.default = lv;
            }
        }
        // longest prefix first
        filter
            .overrides
            .sort_by_key(|o| std::cmp::Reverse(o.0.len()));
        filter
    }

    fn level_for(&self, target: &str) -> Option<Level> {
        for (prefix, lv) in &self.overrides {
            if target.starts_with(prefix.as_str()) {
                return *lv;
            }
        }
        self.default
    }

    fn enabled(&self, level: Level, target: &str) -> bool {
        match self.level_for(target) {
            Some(max) => level <= max,
            None => false,
        }
    }
}

/// A leveled logger: filter + sink list, both fixed at construction.
pub struct Logger {
    epoch: Instant,
    filter: Filter,
    sinks: Vec<Arc<dyn LogSink>>,
}

impl std::fmt::Debug for Logger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Logger")
            .field("filter", &self.filter)
            .finish_non_exhaustive()
    }
}

impl Logger {
    /// Logger with the given filter spec and a pretty stderr sink.
    pub fn with_spec(spec: &str) -> Logger {
        Logger {
            epoch: Instant::now(),
            filter: Filter::parse(spec),
            sinks: vec![Arc::new(StderrSink)],
        }
    }

    /// Logger configured from the `UNIGPU_LOG` environment variable.
    pub fn from_env() -> Logger {
        Logger::with_spec(&std::env::var("UNIGPU_LOG").unwrap_or_default())
    }

    /// Would a record at `level` for `target` be emitted?
    pub fn enabled(&self, level: Level, target: &str) -> bool {
        self.filter.enabled(level, target)
    }

    /// Emit a record (after the filter check).
    pub fn log(&self, level: Level, target: &str, args: std::fmt::Arguments<'_>) {
        if !self.enabled(level, target) {
            return;
        }
        let record = LogRecord {
            ts_us: self.epoch.elapsed().as_secs_f64() * 1e6,
            level,
            target: target.to_string(),
            message: args.to_string(),
        };
        for sink in &self.sinks {
            sink.log(&record);
        }
    }
}

/// The process-wide logger, initialized lazily from `UNIGPU_LOG`.
pub fn global() -> &'static Logger {
    static GLOBAL: OnceLock<Logger> = OnceLock::new();
    GLOBAL.get_or_init(Logger::from_env)
}

/// Log through the global logger (used by the `tel_*!` macros).
pub fn log(level: Level, target: &str, args: std::fmt::Arguments<'_>) {
    global().log(level, target, args);
}

#[macro_export]
macro_rules! tel_error {
    ($target:expr, $($arg:tt)*) => {
        $crate::log::log($crate::log::Level::Error, $target, format_args!($($arg)*))
    };
}

#[macro_export]
macro_rules! tel_warn {
    ($target:expr, $($arg:tt)*) => {
        $crate::log::log($crate::log::Level::Warn, $target, format_args!($($arg)*))
    };
}

#[macro_export]
macro_rules! tel_info {
    ($target:expr, $($arg:tt)*) => {
        $crate::log::log($crate::log::Level::Info, $target, format_args!($($arg)*))
    };
}

#[macro_export]
macro_rules! tel_debug {
    ($target:expr, $($arg:tt)*) => {
        $crate::log::log($crate::log::Level::Debug, $target, format_args!($($arg)*))
    };
}

#[macro_export]
macro_rules! tel_trace {
    ($target:expr, $($arg:tt)*) => {
        $crate::log::log($crate::log::Level::Trace, $target, format_args!($($arg)*))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sink that captures records for assertions.
    #[derive(Default)]
    struct Capture {
        records: Mutex<Vec<LogRecord>>,
    }

    impl LogSink for Capture {
        fn log(&self, r: &LogRecord) {
            self.records.lock().unwrap().push(r.clone());
        }
    }

    #[test]
    fn default_level_is_warn() {
        let f = Filter::parse("");
        assert!(f.enabled(Level::Error, "x"));
        assert!(f.enabled(Level::Warn, "x"));
        assert!(!f.enabled(Level::Info, "x"));
    }

    #[test]
    fn bare_level_sets_default() {
        let f = Filter::parse("debug");
        assert!(f.enabled(Level::Debug, "x"));
        assert!(!f.enabled(Level::Trace, "x"));
    }

    #[test]
    fn target_overrides_win_by_longest_prefix() {
        let f = Filter::parse("warn,tuner=trace,tuner::gbt=error");
        assert!(f.enabled(Level::Trace, "tuner::pipeline"));
        assert!(!f.enabled(Level::Warn, "tuner::gbt"));
        assert!(f.enabled(Level::Error, "tuner::gbt"));
        assert!(!f.enabled(Level::Info, "bench"));
    }

    #[test]
    fn off_silences_everything() {
        let f = Filter::parse("off");
        assert!(!f.enabled(Level::Error, "x"));
    }

    #[test]
    fn garbage_spec_falls_back_to_warn() {
        let f = Filter::parse("loud,tuner=shouty");
        assert!(f.enabled(Level::Warn, "tuner"));
        assert!(!f.enabled(Level::Info, "tuner"));
    }

    #[test]
    fn logger_routes_to_sinks_after_filtering() {
        let mut logger = Logger::with_spec("info");
        let cap = Arc::new(Capture::default());
        // replace the stderr sink to keep test output clean
        logger.sinks = vec![cap.clone()];
        logger.log(Level::Info, "t", format_args!("hello {}", 1));
        logger.log(Level::Debug, "t", format_args!("filtered"));
        let records = cap.records.lock().unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].message, "hello 1");
        assert_eq!(records[0].target, "t");
    }

    #[test]
    fn jsonl_sink_writes_valid_lines() {
        let dir = std::env::temp_dir().join("unigpu_telemetry_log_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let mut logger = Logger::with_spec("trace");
        logger.sinks = vec![Arc::new(JsonlSink::create(&path).unwrap())];
        logger.log(Level::Warn, "a\"b", format_args!("line\nbreak"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"level\":\"WARN\""));
        assert!(text.contains("\\n"));
        assert!(text.contains("a\\\"b"));
        assert_eq!(text.lines().count(), 1);
        std::fs::remove_file(&path).ok();
    }
}
