//! The `unigpu` binary's argument handling: a malformed numeric flag, a
//! value flag given without its value, a fault plan item it cannot read or
//! an unknown target or flag exits with code 2 and names it, instead of
//! silently running with the default; a command that starts with a flag runs its
//! default model; `estimate` prints an empty vision sum as `0.00`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Run the CLI with `args` under the fault plan `faults`, its artifact and
/// tuning files under `db`.
fn run(db: &Path, faults: &str, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_unigpu"))
        .args(args)
        .env("UNIGPU_DB_DIR", db)
        .env("UNIGPU_FAULTS", faults)
        .env_remove("UNIGPU_LOG")
        .output()
        .expect("the unigpu binary runs")
}

fn temp_db(tag: &str) -> PathBuf {
    let db = std::env::temp_dir().join(format!("unigpu-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&db);
    db
}

/// Run the CLI with `args` under `UNIGPU_FAULTS=faults`, its artifact and
/// tuning files under a fresh temp dir.
fn unigpu_under(faults: &str, tag: &str, args: &[&str]) -> Output {
    let db = temp_db(tag);
    let out = run(&db, faults, args);
    let _ = std::fs::remove_dir_all(&db);
    out
}

fn unigpu(tag: &str, args: &[&str]) -> Output {
    unigpu_under("", tag, args)
}

fn assert_rejected(out: &Output, message: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(message), "expected `{message}` in stderr: {stderr}");
    assert!(out.stdout.is_empty(), "nothing may run: {}", String::from_utf8_lossy(&out.stdout));
}

fn assert_prints(out: &Output, prefix: &str) {
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.starts_with(prefix), "expected stdout to start with `{prefix}`: {stdout}");
}

#[test]
fn serve_rejects_a_malformed_request_count() {
    let out = unigpu("serve", &["serve", "MobileNet1.0", "--requests", "abc"]);
    assert_rejected(&out, "invalid value `abc` for --requests");
}

#[test]
fn serve_rejects_a_value_flag_given_without_its_value() {
    let out = unigpu("no-value", &["serve", "MobileNet1.0", "--requests"]);
    assert_rejected(&out, "missing value for --requests");
}

#[test]
fn serve_rejects_a_misspelled_fault_plan_key() {
    let out = unigpu("typo", &["serve", "MobileNet1.0", "--faults", "kernal_fail_nth=2"]);
    assert_rejected(&out, "--faults: invalid fault plan item `kernal_fail_nth=2`: unknown key");
}

#[test]
fn serve_rejects_an_unknown_key_in_unigpu_faults() {
    let out = unigpu_under("bogus=1", "bogus", &["serve"]);
    assert_rejected(&out, "UNIGPU_FAULTS: invalid fault plan item `bogus=1`");
}

#[test]
fn serve_rejects_the_retired_slash_separated_plan_syntax() {
    let plan = "drop_conn_nth:11/dup_frame_nth:7";
    let out = unigpu_under(plan, "slash", &["serve", "MobileNet1.0", "--requests", "4"]);
    assert_rejected(&out, &format!("invalid fault plan item `{plan}`: expected `key=value`"));
}

#[test]
fn fleet_router_rejects_a_malformed_seed_before_connecting() {
    let out = unigpu("router", &["fleet", "router", "--replica", "x", "--seed", "z"]);
    assert_rejected(&out, "invalid value `z` for --seed");
}

#[test]
fn estimate_without_a_model_estimates_the_default() {
    let out = unigpu("estimate", &["estimate", "--platform", "nano"]);
    assert_prints(&out, "ResNet50_v1 on Nvidia Jetson Nano:");
}

#[test]
fn estimate_of_a_classifier_prints_a_positive_zero_vision_time() {
    let out = unigpu(
        "estimate-vision",
        &["estimate", "SqueezeNet1.0", "--platform", "nano"],
    );
    assert_prints(&out, "SqueezeNet1.0 on Nvidia Jetson Nano:");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains(", vision 0.00 ms,"), "{stdout}");
}

#[test]
fn profile_without_a_model_profiles_the_default() {
    let out = unigpu("profile", &["profile", "--device", "nano"]);
    assert_prints(&out, "MobileNet1.0 on Nvidia Jetson Nano:");
}

#[test]
fn dot_without_a_model_draws_the_default() {
    let out = unigpu("dot", &["dot"]);
    assert_prints(&out, "digraph");
}

/// A flag no command reads, a retired one among them, fails the run before
/// it starts: `--x` was once ignored by `dot`, `--bogus-flag 3` by
/// `estimate`, and `tune --jobs N` sized a thread pool the lanes replaced.
#[test]
fn every_command_rejects_an_unknown_flag() {
    let cases: [&[&str]; 7] = [
        &["estimate", "SqueezeNet1.0", "--bogus-flag", "3"],
        &["tune", "SqueezeNet1.0", "--jobs", "2"],
        &["dot", "--x"],
        &[
            "serve",
            "MobileNet1.0",
            "--requests",
            "4",
            "--kernel-fail-first",
            "4",
        ],
        &[
            "fleet",
            "router",
            "--replica",
            "x",
            "--model",
            "SqueezeNet1.0",
            "--trace",
            "t.json",
        ],
        &["codegen", "--targets", "cuda"],
        &["paper", "--json"],
    ];
    for args in cases {
        let flag = args.iter().rev().find(|a| a.starts_with("--")).unwrap();
        let out = unigpu("unknown-flag", args);
        assert_rejected(&out, &format!("unknown flag {flag}"));
    }
}

#[test]
fn codegen_rejects_an_unknown_target() {
    let out = unigpu("codegen", &["codegen", "--target", "vulkan"]);
    assert_rejected(&out, "unknown target `vulkan` (use opencl|cuda)");
}

/// `unigpu paper` reads no on-disk state: with a tuning database and a
/// tuned artifact already under `UNIGPU_DB_DIR` it still prints the
/// committed tables byte for byte.
#[test]
fn paper_prints_the_committed_tables_over_a_populated_db_dir() {
    let db = temp_db("paper");
    for args in [
        &["tune", "SqueezeNet1.0", "--trials", "4", "--resume"][..],
        &["estimate", "SqueezeNet1.0", "--tuned", "--trials", "4"],
    ] {
        assert!(run(&db, "", args).status.success(), "{args:?} populates {}", db.display());
    }
    let out = run(&db, "", &["paper"]);
    let _ = std::fs::remove_dir_all(&db);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(
        out.stdout == include_bytes!("../PAPER_TABLES.json"),
        "`unigpu paper` differs from PAPER_TABLES.json; regenerate it with \
         `cargo run --release -- paper > PAPER_TABLES.json`"
    );
}
