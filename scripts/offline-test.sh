#!/usr/bin/env bash
# Runs the product's own test suites where there is no crate registry.
#
# Copies the working tree to target/offline-ws/ and, in the copy only, drops
# the proptest/criterion dev-dependencies and redirects the remaining external
# crates to the std-only shims under benchmark/shims/ (the same
# [patch.crates-io] table benchmark/Cargo.toml uses). The sources compile
# verbatim; nothing outside target/ is edited.
#
# Usage: scripts/offline-test.sh
set -euo pipefail
cd "$(dirname "$0")/.."

ws=target/offline-ws
mkdir -p "$ws"
# the copy keeps its own target/ between runs, so rebuilds are incremental
find "$ws" -mindepth 1 -maxdepth 1 ! -name target -exec rm -rf {} +
tar -cf - --exclude=./target --exclude=./benchmark/target --exclude=./benchmark/out \
  --exclude=./.git --exclude=./.bench_build . | tar -xf - -C "$ws"
cd "$ws"

find . -name Cargo.toml -not -path './target/*' -not -path './benchmark/*' \
  -exec sed -i -E '/^(proptest|criterion)\b/d' {} +
sed -i 's|^members = \["crates/\*"\]$|&\nexclude = ["crates/bench", "benchmark"]|' Cargo.toml
grep -q '^exclude = ' Cargo.toml || { echo "error: root Cargo.toml has no members line to extend"; exit 1; }
{
  echo
  sed -n '/^\[patch\.crates-io\]$/,/^$/p' benchmark/Cargo.toml | sed 's|"shims/|"benchmark/shims/|'
} >> Cargo.toml

echo "==> skipped (cannot build offline):"
echo "    proptest suites: crates/{graph,ir,tensor,device}/tests/*.rs (no proptest shim)"
echo "    crates/telemetry/tests/{chrome_roundtrip,exposition}.rs (need serde_json::Value API the shim lacks)"
echo "    crates/bench (criterion benches)"

libs=(telemetry tensor device ir ops graph tuner farm engine fleet models baselines)
echo "==> unit tests: ${libs[*]}"
cargo test --offline -q --no-fail-fast --lib "${libs[@]/#/--package=unigpu-}"

for crate in ops engine farm fleet; do
  echo "==> integration suites: unigpu-$crate"
  cargo test --offline -q --no-fail-fast -p "unigpu-$crate" --test '*'
done

echo "==> root suites: paper_claims end_to_end"
cargo test --offline -q --no-fail-fast -p unigpu --test paper_claims --test end_to_end

echo "==> cargo build --bins --examples"
cargo build --offline -q -p unigpu --bins --examples

echo "offline-test: ok"
