//! The `unigpu` binary refuses malformed numeric flags: a value that does not
//! parse exits with code 2 and names the flag, instead of silently running
//! with the default.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Run the CLI with `args`, its artifact and tuning files under a fresh
/// temp dir.
fn unigpu(tag: &str, args: &[&str]) -> Output {
    let db: PathBuf = std::env::temp_dir().join(format!("unigpu-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&db);
    let out = Command::new(env!("CARGO_BIN_EXE_unigpu"))
        .args(args)
        .env("UNIGPU_DB_DIR", &db)
        .env_remove("UNIGPU_LOG")
        .output()
        .expect("the unigpu binary runs");
    let _ = std::fs::remove_dir_all(&db);
    out
}

fn assert_rejected(out: &Output, message: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(message), "expected `{message}` in stderr: {stderr}");
    assert!(out.stdout.is_empty(), "nothing may run: {}", String::from_utf8_lossy(&out.stdout));
}

#[test]
fn serve_rejects_a_malformed_request_count() {
    let out = unigpu("serve", &["serve", "MobileNet1.0", "--requests", "abc"]);
    assert_rejected(&out, "invalid value `abc` for --requests");
}

#[test]
fn fleet_router_rejects_a_malformed_seed_before_connecting() {
    let out = unigpu("router", &["fleet", "router", "--replica", "x", "--seed", "z"]);
    assert_rejected(&out, "invalid value `z` for --seed");
}
