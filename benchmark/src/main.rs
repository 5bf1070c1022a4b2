//! The unigpu benchmark: one process per workload, driven by `run.sh`.
//!
//! `unigpu-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! measures one workload and prints every metric by name with its unit, then
//! one JSON object as the last line of stdout. `manifest` prints
//! `BENCHMARK.json`; `suite` and `check-repeat` run every workload, each in
//! a child process of its own. See README.md for the protocol.

mod alloc;
mod catalogue;
mod gen;
mod harness;
mod stats;
mod suite;
mod trace;
mod workloads;

use catalogue::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use harness::Ctx;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Default `--seed`; 7 is the held-out seed no size or bound was chosen on.
const DEFAULT_SEED: u64 = 2019;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: unigpu-benchmark --workload <{}> [--seed <u64>] [--seconds <n>] [--trace <0|1>]\n\
         \x20      unigpu-benchmark manifest | suite [--seed n] [--seconds n] | check-repeat [--seed n] [--seconds n]",
        names.join("|")
    )
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        traced: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => run.workload = value.clone(),
            "--seed" => {
                run.seed = value
                    .parse()
                    .map_err(|_| format!("--seed: `{value}` is not a u64"))?
            }
            "--seconds" => {
                run.seconds = value
                    .parse()
                    .map_err(|_| format!("--seconds: `{value}` is not a number"))?;
                if !(run.seconds > 0.0 && run.seconds <= 60.0) {
                    return Err(format!("--seconds: {value} is outside (0, 60]"));
                }
            }
            "--trace" => {
                run.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: `{value}` is not 0 or 1")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(run)
}

/// Where traces, results and scratch go: `$UNIGPU_BENCH_OUT` (run.sh points
/// it at `benchmark/out`), else `benchmark/out` under the current directory.
pub fn out_dir() -> PathBuf {
    std::env::var_os("UNIGPU_BENCH_OUT")
        .map_or_else(|| PathBuf::from("benchmark/out"), PathBuf::from)
}

fn run_workload(run: &RunArgs) -> Result<bool, String> {
    if !WORKLOADS.iter().any(|w| w.name == run.workload) {
        return Err(format!("unknown workload `{}`\n{}", run.workload, usage()));
    }
    let out = out_dir();
    let work_dir = out.join(format!("work-{}-{}", run.workload, std::process::id()));
    std::fs::create_dir_all(&work_dir)
        .map_err(|e| format!("cannot create {}: {e}", work_dir.display()))?;
    // Tuning logs and default artifact caches go where the crates' own
    // `UNIGPU_DB_DIR` convention says; keep that inside this run's scratch.
    std::env::set_var("UNIGPU_DB_DIR", work_dir.join("db"));

    let tracer = Tracer::new(run.traced);
    let mut ctx = Ctx::new(run.seed, run.seconds, run.traced, work_dir.clone());
    println!(
        "workload {} seed {} seconds {} trace {} threads 1 (available parallelism {})",
        run.workload,
        run.seed,
        run.seconds,
        run.traced as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    match run.workload.as_str() {
        "serve_steady" => workloads::serve::steady(&mut ctx, &tracer),
        "serve_chaos" => workloads::serve::chaos(&mut ctx, &tracer),
        "compile_zoo" => workloads::compile_zoo::run(&mut ctx, &tracer),
        "tune_zoo" => workloads::tune_zoo::run(&mut ctx, &tracer),
        "fleet_wire" => workloads::fleet_wire::run(&mut ctx, &tracer),
        "exec_functional" => workloads::exec_functional::run(&mut ctx, &tracer),
        _ => unreachable!("checked against WORKLOADS above"),
    }
    ctx.set("peak_heap_mb", alloc::peak_mb());

    if run.traced {
        let self_ms = tracer.layer_self_ms();
        for m in PER_LAYER {
            if let Some(layer) = m.name.strip_suffix(".self_ms") {
                ctx.set(m.name, self_ms.get(layer).copied().unwrap_or(0.0));
            }
        }
        let path = out.join(format!("trace-{}.json", run.workload));
        std::fs::write(&path, tracer.to_chrome_json(&run.workload))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("{} spans written to {}", tracer.len(), path.display());
    }
    let _ = std::fs::remove_dir_all(&work_dir);

    // Every metric by name, with its unit; then the one-line JSON result.
    let mut metrics = Vec::new();
    if run.traced {
        for m in PER_LAYER {
            // A layer this workload does not exercise reads 0.
            metrics.push((m.name, m.unit, ctx.get(m.name).unwrap_or(0.0)));
        }
    } else {
        for m in END_TO_END {
            let value = ctx
                .get(m.name)
                .ok_or_else(|| format!("workload {} produced no `{}`", run.workload, m.name))?;
            metrics.push((m.name, m.unit, value));
        }
    }
    for (name, unit, value) in &metrics {
        println!("{name} = {value} {unit}");
    }
    let correct = ctx.failed() == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ctx.attempted().max(1),
        ctx.failed(),
        body.join(", ")
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", catalogue::manifest_json());
            Ok(true)
        }
        Some("suite") => suite::suite(&args[1..]),
        Some("check-repeat") => suite::check_repeat(&args[1..]),
        Some("--help") | Some("-h") | None => Err(usage()),
        Some(_) => parse_run_args(&args).and_then(|run| run_workload(&run)),
    };
    match result {
        // A run whose checks failed still prints its result and exits 0:
        // `correct: false` is the verdict, not a crash.
        Ok(_) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
