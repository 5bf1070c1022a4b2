//! `suite` and `check-repeat`: every workload, each in a child process of
//! this same binary, so no workload inherits another's heap or caches.

use crate::catalogue::{Better, END_TO_END, RUN_SECONDS, WORKLOADS};
use crate::{out_dir, stats, DEFAULT_SEED};
use serde_json::Value;
use std::collections::BTreeMap;
use std::process::Command;

struct SuiteArgs {
    seed: u64,
    seconds: u64,
}

fn parse(args: &[String]) -> Result<SuiteArgs, String> {
    let mut out = SuiteArgs {
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = value
            .parse::<u64>()
            .map_err(|_| format!("{flag}: `{value}` is not a whole number"));
        match flag.as_str() {
            "--seed" => out.seed = number?,
            "--seconds" => out.seconds = number?,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(out)
}

/// One child run's result line.
struct Run {
    correct: bool,
    line: String,
    metrics: BTreeMap<String, f64>,
}

/// Runs one workload in a child process, echoing its output, and parses the
/// JSON object it prints last.
fn run_child(workload: &str, args: &SuiteArgs, traced: bool) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .output() // waits for the child to end
        .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (body, line) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    println!("{body}");
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    if !output.status.success() {
        return Err(format!("the {workload} run exited with {}", output.status));
    }
    let doc: Value = serde_json::from_str(line)
        .map_err(|e| format!("{workload}: bad result line ({e}): {line}"))?;
    let mut metrics = BTreeMap::new();
    if let Value::Object(entries) = &doc["metrics"] {
        for (name, m) in entries {
            metrics.insert(
                name.clone(),
                m["value"]
                    .as_f64()
                    .ok_or_else(|| format!("{workload}: `{name}` has no value"))?,
            );
        }
    }
    Ok(Run {
        correct: doc["correct"].as_bool() == Some(true),
        line: line.to_owned(),
        metrics,
    })
}

/// Every workload untraced, then every workload traced; the result lines go
/// to `out/results.json`, the traces to `out/trace-<workload>.json`.
pub fn suite(args: &[String]) -> Result<bool, String> {
    let args = parse(args)?;
    let mut all_correct = true;
    let mut rows = Vec::new();
    for traced in [false, true] {
        for w in WORKLOADS {
            println!("==== {} (trace {}) ====", w.name, traced as u8);
            let run = run_child(w.name, &args, traced)?;
            all_correct &= run.correct;
            rows.push(format!(
                "    {{\"workload\": \"{}\", \"trace\": {}, \"result\": {}}}",
                w.name, traced as u8, run.line
            ));
        }
    }
    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let path = out.join("results.json");
    let doc = format!(
        "{{\n  \"seed\": {},\n  \"seconds\": {},\n  \"runs\": [\n{}\n  ]\n}}\n",
        args.seed,
        args.seconds,
        rows.join(",\n")
    );
    std::fs::write(&path, doc).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "==== results written to {}; every output check passed: {all_correct} ====",
        path.display()
    );
    if all_correct {
        Ok(true)
    } else {
        Err("an output check failed".into())
    }
}

/// Metrics that the same seed must reproduce exactly: the simulated clock
/// and the outcome counts.
fn exact(metric: &str) -> bool {
    metric.starts_with("sim_") || metric == "served_ratio"
}

/// Runs of each workload per set in `check-repeat`. A bound applies to the
/// median over a set's runs, as the driver applies it over ten: single runs
/// of a 20 ms set-up differ by more than any bound when the machine changes
/// pace between them.
const RUNS_PER_SET: usize = 3;

/// Two untraced sets of the same code and seed, alternating so both see the
/// same stretch of machine time. Every simulated-clock metric must be
/// identical in every run; every other metric's median over the second set
/// may be worse than over the first by at most its bound.
pub fn check_repeat(args: &[String]) -> Result<bool, String> {
    let args = parse(args)?;
    // sets[set][workload][metric] = one value per run
    let mut sets = [
        vec![BTreeMap::new(); WORKLOADS.len()],
        vec![BTreeMap::new(); WORKLOADS.len()],
    ];
    for round in 1..=RUNS_PER_SET {
        for (set, values) in sets.iter_mut().enumerate() {
            for (w, values) in WORKLOADS.iter().zip(values.iter_mut()) {
                println!("==== round {round}, set {}: {} ====", set + 1, w.name);
                let run = run_child(w.name, &args, false)?;
                if !run.correct {
                    return Err(format!("an output check of {} failed", w.name));
                }
                for (name, value) in run.metrics {
                    values.entry(name).or_insert_with(Vec::new).push(value);
                }
            }
        }
    }
    println!(
        "==== repeatability, seed {}, medians of {RUNS_PER_SET} runs ====",
        args.seed
    );
    println!(
        "{:<16} {:<22} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    let mut misses = 0;
    for (i, w) in WORKLOADS.iter().enumerate() {
        for m in END_TO_END {
            let (first, second) = (&sets[0][i][m.name], &sets[1][i][m.name]);
            let (a, b) = (stats::median(first), stats::median(second));
            let worse_by = match m.better {
                Better::Lower => (b - a) / a,
                Better::Higher => (a - b) / a,
            };
            let ok = if exact(m.name) {
                first.iter().chain(second).all(|v| *v == first[0])
            } else {
                worse_by <= m.bound
            };
            misses += usize::from(!ok);
            println!(
                "{:<16} {:<22} {a:>16.6} {b:>16.6} {:>8.2}% {:>6.0}%  {}",
                w.name,
                m.name,
                worse_by * 100.0,
                if exact(m.name) { 0.0 } else { m.bound * 100.0 },
                if ok { "ok" } else { "MISS" }
            );
        }
    }
    if misses == 0 {
        Ok(true)
    } else {
        Err(format!("{misses} metric(s) outside their bound"))
    }
}
