#!/usr/bin/env bash
# Local CI gate: build, tests, formatting, lints, and output hygiene.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test -q --workspace

echo "==> functional bit-identity gate (release codegen)"
# `cargo test` above builds at opt-level 2; the kernels' bit-for-bit contracts
# (conv2d_ref == scalar oracle == spatial pack, roi_align == per-channel loop,
# max_pool2d == its scalar loop, the packed-key sort == a total_cmp sort,
# the slice forms of batch norm, upsample, priors and the two detectors,
# vision and end-to-end output digests) must also hold under the optimizer
# that ships, and so must the lane pool's (every group once, inline bits ==
# pooled bits, a lane's panic re-raised on its caller).
cargo test -q --release -p unigpu-device --lib -- exec
cargo test -q --release -p unigpu-ops --lib -- conv::reference nn::pool nn::norm nn::eltwise vision::roi_align vision::sort vision::nms vision::multibox vision::yolo
cargo test -q --release -p unigpu-ops --test prop_conv --test prop_vision --test vision_golden
cargo test -q --release -p unigpu-engine --test functional_golden

echo "==> tuner suite on one lane"
# `tune_graph` spreads its jobs over the lane pool; pinned to one CPU the
# pool has no workers and every dispatch runs inline, which must pass too.
taskset -c 0 cargo test -q -p unigpu-tuner

echo "==> cargo fmt --check"
# The telemetry crate is held to rustfmt; the rest of the tree predates
# formatting enforcement, so workspace-wide drift is reported but advisory.
cargo fmt -p unigpu-telemetry -- --check
if ! cargo fmt --all -- --check > /dev/null 2>&1; then
  echo "note: rustfmt drift outside crates/telemetry (advisory, not fatal)"
fi

echo "==> cargo clippy"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> output hygiene"
# Library code must log through the telemetry layer (tel_error!..tel_trace!),
# not raw stdio. Sanctioned call sites:
#   eprintln! : src/main.rs (CLI usage/errors),
#               crates/telemetry/src/log.rs (the logger's stderr sink)
#   println!  : src/main.rs (CLI output)
# examples/ and tests/ are not scanned.
fail=0

stray_eprintln=$(grep -rn --include='*.rs' 'eprintln!' crates src \
  | grep -v '^crates/telemetry/src/log\.rs:' \
  | grep -v '^src/main\.rs:' || true)
if [ -n "$stray_eprintln" ]; then
  echo "error: raw eprintln! outside sanctioned sinks — use tel_warn!/tel_info! etc.:"
  echo "$stray_eprintln"
  fail=1
fi

stray_println=$(grep -rnP --include='*.rs' '(?<!e)println!' crates src \
  | grep -v '^src/main\.rs:' || true)
if [ -n "$stray_println" ]; then
  echo "error: raw println! outside sanctioned sinks — use the telemetry logger:"
  echo "$stray_println"
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  exit 1
fi

echo "==> unsafe gate"
# The product holds one `unsafe` site: the lane pool's lifetime erasure in
# crates/device/src/exec.rs, under its `// SAFETY:` argument. Test code may
# hold more (the counting allocators under crates/*/tests/); a file's unit
# tests, from its `#[cfg(test)]` line to its end, are not scanned.
unsafe_sites=$(find crates src examples -name '*.rs' -not -path 'crates/*/tests/*' -not -path '*/target/*' \
  | sort | while read -r f; do
    sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nw 'unsafe' | sed "s|^|$f:|" || true
  done)
pool_site='crates/device/src/exec.rs'
if [ "$(printf '%s\n' "$unsafe_sites" | grep -c .)" -ne 1 ] ||
  ! printf '%s\n' "$unsafe_sites" | grep -q "^$pool_site:"; then
  echo "error: 'unsafe' outside the lane pool's one site in $pool_site:"
  echo "$unsafe_sites"
  exit 1
fi
if ! grep -B12 -w 'unsafe' "$pool_site" | grep -q '// SAFETY:'; then
  echo "error: the lane pool's unsafe site in $pool_site lost its // SAFETY: argument"
  exit 1
fi
echo "unsafe gate: $unsafe_sites"

echo "==> pub audit"
# Every `pub` item needs a caller outside tests (scripts/pub-audit.allow
# lists the few kept on purpose).
bash scripts/pub-audit.sh

# Every output left in $UNIGPU_DB_DIR must have a reader. The allowed
# top-level entries are `artifacts/` (the engine's artifact cache, read back
# by every compile) and `<device>.jsonl` files (the per-device tuning
# database `unigpu tune --resume` reads back). Anything else is written and
# never read: fail.
check_db_dirs() {
  local dir entry name
  for dir in "$@"; do
    [ -d "$dir" ] || continue
    for entry in "$dir"/* "$dir"/.[!.]*; do
      [ -e "$entry" ] || continue
      name=$(basename "$entry")
      if { [ "$name" = artifacts ] && [ -d "$entry" ]; } ||
        { [[ "$name" == *.jsonl ]] && [ -f "$entry" ]; }; then
        continue
      fi
      echo "error: $dir holds '$name', which nothing reads back"
      exit 1
    done
  done
}

echo "==> farm loopback smoke test and dispatch parity gate"
# Tracker + two workers on an ephemeral loopback port; a farm-dispatched
# tune must complete and write a populated database, byte-identical to the
# in-process tune on every lane and on one lane (`taskset -c 0`).
farm_tmp=$(mktemp -d)
tracker_pid=""
worker1_pid=""
worker2_pid=""
cleanup_farm() {
  for p in "$tracker_pid" "$worker1_pid" "$worker2_pid"; do
    if [ -n "$p" ]; then
      kill "$p" 2>/dev/null || true
    fi
  done
  rm -rf "$farm_tmp"
}
trap cleanup_farm EXIT
./target/release/unigpu farm tracker --listen 127.0.0.1:0 \
  --port-file "$farm_tmp/addr" > "$farm_tmp/tracker.log" 2>&1 &
tracker_pid=$!
for _ in $(seq 1 100); do
  [ -s "$farm_tmp/addr" ] && break
  sleep 0.1
done
if [ ! -s "$farm_tmp/addr" ]; then
  echo "error: tracker never wrote its port file"
  cat "$farm_tmp/tracker.log" || true
  exit 1
fi
addr=$(cat "$farm_tmp/addr")
UNIGPU_DB_DIR="$farm_tmp/w1db" ./target/release/unigpu farm worker --tracker "$addr" \
  --device deeplens --name ci-w1 > "$farm_tmp/w1.log" 2>&1 &
worker1_pid=$!
UNIGPU_DB_DIR="$farm_tmp/w2db" ./target/release/unigpu farm worker --tracker "$addr" \
  --device deeplens --name ci-w2 > "$farm_tmp/w2.log" 2>&1 &
worker2_pid=$!
UNIGPU_DB_DIR="$farm_tmp/db" ./target/release/unigpu tune SqueezeNet1.0 \
  --platform deeplens --trials 8 --farm "$addr" --out "$farm_tmp/farm.jsonl"
if [ ! -s "$farm_tmp/farm.jsonl" ]; then
  echo "error: farm tune produced no database"
  exit 1
fi
if ! grep -q '"workload"' "$farm_tmp/farm.jsonl"; then
  echo "error: farm database contains no records"
  exit 1
fi
echo "farm smoke test: $(wc -l < "$farm_tmp/farm.jsonl") record line(s) tuned via $addr"
UNIGPU_DB_DIR="$farm_tmp/db" ./target/release/unigpu tune SqueezeNet1.0 \
  --platform deeplens --trials 8 --out "$farm_tmp/lanes.jsonl" > /dev/null
UNIGPU_DB_DIR="$farm_tmp/db" taskset -c 0 ./target/release/unigpu tune SqueezeNet1.0 \
  --platform deeplens --trials 8 --out "$farm_tmp/one_lane.jsonl" > /dev/null
for db in lanes one_lane; do
  if ! cmp "$farm_tmp/farm.jsonl" "$farm_tmp/$db.jsonl"; then
    echo "error: the $db database differs from the farm's"
    exit 1
  fi
done
echo "dispatch parity: farm, all-lanes and one-lane databases identical"
check_db_dirs "$farm_tmp/db" "$farm_tmp/w1db" "$farm_tmp/w2db"
cleanup_farm
trap - EXIT

echo "==> serving chaos smoke test"
# Serving under a fixed deterministic fault plan (kernel failures, thermal
# throttling, an injected worker panic) with a bounded queue and deadlines
# must exit 0 with every request accounted for — zero lost.
chaos_tmp=$(mktemp -d)
trap 'rm -rf "$chaos_tmp"' EXIT
if ! UNIGPU_DB_DIR="$chaos_tmp/db" \
    UNIGPU_FAULTS="kernel_fail_first=4,kernel_fail_nth=9,throttle_after_ms=2:1.5,worker_panic_nth=6" \
    ./target/release/unigpu serve MobileNet1.0 --platform deeplens \
    --requests 48 --concurrency 2 --batch 4 --queue-cap 64 --deadline-ms 400 \
    > "$chaos_tmp/serve.log" 2>&1; then
  echo "error: serve exited non-zero under the chaos fault plan"
  cat "$chaos_tmp/serve.log"
  exit 1
fi
if ! grep -q '(0 lost)' "$chaos_tmp/serve.log"; then
  echo "error: chaos serve lost requests (accounting did not balance):"
  cat "$chaos_tmp/serve.log"
  exit 1
fi
if ! grep -q '^accounting: 48 offered' "$chaos_tmp/serve.log"; then
  echo "error: chaos serve accounting line missing or wrong offered count:"
  cat "$chaos_tmp/serve.log"
  exit 1
fi
grep '^accounting:' "$chaos_tmp/serve.log"
check_db_dirs "$chaos_tmp/db"
rm -rf "$chaos_tmp"
trap - EXIT

echo "==> determinism gate"
# The event-driven scheduler must be replayable: two zero-noise runs of the
# same workload (fresh artifact dirs, no fault plan) print byte-identical
# ServeReport digests.
det_tmp=$(mktemp -d)
trap 'rm -rf "$det_tmp"' EXIT
for run in 1 2; do
  if ! UNIGPU_DB_DIR="$det_tmp/db$run" ./target/release/unigpu serve MobileNet1.0 \
      --platform deeplens --requests 48 --concurrency 2 --batch 4 \
      > "$det_tmp/run$run.log" 2>&1; then
    echo "error: determinism serve run $run exited non-zero"
    cat "$det_tmp/run$run.log"
    exit 1
  fi
done
d1=$(grep '^digest:' "$det_tmp/run1.log" || true)
d2=$(grep '^digest:' "$det_tmp/run2.log" || true)
if [ -z "$d1" ] || [ "$d1" != "$d2" ]; then
  echo "error: zero-noise serve runs are not byte-identical: '$d1' vs '$d2'"
  exit 1
fi
echo "determinism gate: '$d1' reproduced across runs"
rm -rf "$det_tmp"
trap - EXIT

echo "==> metrics endpoint smoke test"
# The chaos serve again, now with the exposition endpoint live: scrape once
# mid-run and once after drain (--hold-ms keeps the endpoint up past the
# final report), assert the Prometheus text parses, accounting still
# balances, and the scraped completion count matches the report. The
# deadline is looser than the smoke test's 400 ms, which untuned MobileNet1.0
# on DeepLens never meets: the latency histogram needs completions.
metrics_tmp=$(mktemp -d)
serve_pid=""
cleanup_metrics() {
  if [ -n "$serve_pid" ]; then
    kill "$serve_pid" 2>/dev/null || true
  fi
  rm -rf "$metrics_tmp"
}
trap cleanup_metrics EXIT
UNIGPU_DB_DIR="$metrics_tmp/db" \
  UNIGPU_FAULTS="kernel_fail_first=4,kernel_fail_nth=9,throttle_after_ms=2:1.5,worker_panic_nth=6" \
  ./target/release/unigpu serve MobileNet1.0 --platform deeplens \
  --requests 48 --concurrency 2 --batch 4 --queue-cap 64 --deadline-ms 2000 \
  --metrics-addr 127.0.0.1:0 --port-file "$metrics_tmp/addr" --hold-ms 60000 \
  > "$metrics_tmp/serve.log" 2>&1 &
serve_pid=$!
for _ in $(seq 1 100); do
  [ -s "$metrics_tmp/addr" ] && break
  sleep 0.1
done
if [ ! -s "$metrics_tmp/addr" ]; then
  echo "error: serve never wrote its metrics port file"
  cat "$metrics_tmp/serve.log" || true
  exit 1
fi
maddr=$(cat "$metrics_tmp/addr")
scrape() { # $1 = path, $2 = output file (bash /dev/tcp — no curl needed)
  exec 3<>"/dev/tcp/${maddr%:*}/${maddr##*:}"
  printf 'GET %s HTTP/1.0\r\n\r\n' "$1" >&3
  cat <&3 > "$2"
  exec 3<&- 3>&-
}
# mid-run scrape: whatever the counters hold right now, the format parses
scrape /metrics "$metrics_tmp/mid.txt"
if ! grep -q '^HTTP/1.0 200 OK' "$metrics_tmp/mid.txt"; then
  echo "error: mid-run scrape did not return 200:"
  cat "$metrics_tmp/mid.txt"
  exit 1
fi
# wait for the drain (the final accounting line), then scrape the settled state
for _ in $(seq 1 600); do
  grep -q '^accounting:' "$metrics_tmp/serve.log" && break
  sleep 0.1
done
if ! grep -q '(0 lost)' "$metrics_tmp/serve.log"; then
  echo "error: chaos serve with metrics endpoint lost requests:"
  cat "$metrics_tmp/serve.log"
  exit 1
fi
scrape /metrics "$metrics_tmp/final.txt"
scrape /metrics.json "$metrics_tmp/final.json"
kill "$serve_pid" 2>/dev/null || true
serve_pid=""
if ! grep -q '^# TYPE engine_latency_ms histogram' "$metrics_tmp/final.txt"; then
  echo "error: drained scrape is missing the latency histogram:"
  cat "$metrics_tmp/final.txt"
  exit 1
fi
if ! grep -q '"histograms"' "$metrics_tmp/final.json"; then
  echo "error: JSON exposition variant missing histograms:"
  cat "$metrics_tmp/final.json"
  exit 1
fi
completed=$(sed -n 's/^accounting: [0-9]* offered = \([0-9]*\) completed.*/\1/p' "$metrics_tmp/serve.log")
scraped=$(awk '$1 == "engine_latency_ms_count" { print $2 }' "$metrics_tmp/final.txt")
scraped_requests=$(awk '$1 == "engine_requests" { print $2 }' "$metrics_tmp/final.txt")
if [ -z "$completed" ] || [ "$scraped" != "$completed" ] || [ "$scraped_requests" != "$completed" ]; then
  echo "error: scraped completion count ($scraped / $scraped_requests) != report ($completed)"
  cat "$metrics_tmp/final.txt"
  exit 1
fi
echo "metrics smoke test: scraped $scraped completions from $maddr, accounting balanced"
# this chaos serve completes requests, so its drift verdict is miscalibrated
check_db_dirs "$metrics_tmp/db"
cleanup_metrics
trap - EXIT

echo "==> flight recorder gate"
# The chaos plan again, now with the flight recorder dumping: the run must
# leave at least one dump, every dump must be valid JSON, and two zero-noise
# runs must leave byte-identical shutdown dumps (the recorder runs entirely
# on the simulated clock — no wall time or RNG may leak into a dump).
rec_tmp=$(mktemp -d)
trap 'rm -rf "$rec_tmp"' EXIT
if ! UNIGPU_DB_DIR="$rec_tmp/db" \
    UNIGPU_FAULTS="kernel_fail_first=4,kernel_fail_nth=9,throttle_after_ms=2:1.5,worker_panic_nth=6" \
    ./target/release/unigpu serve MobileNet1.0 --platform deeplens \
    --requests 48 --concurrency 2 --batch 4 --queue-cap 64 --deadline-ms 400 \
    --recorder-dump-dir "$rec_tmp/dumps" \
    --alert-rules 'burn:engine.slo.burn_rate>1,trip:engine.breaker_trips>0' \
    > "$rec_tmp/serve.log" 2>&1; then
  echo "error: chaos serve with a recorder dump dir exited non-zero"
  cat "$rec_tmp/serve.log"
  exit 1
fi
dump_count=$(find "$rec_tmp/dumps" -name 'dump-*.json' 2>/dev/null | wc -l)
if [ "$dump_count" -lt 1 ]; then
  echo "error: chaos serve produced no recorder dumps"
  cat "$rec_tmp/serve.log"
  exit 1
fi
for d in "$rec_tmp/dumps"/dump-*.json; do
  if command -v python3 > /dev/null 2>&1; then
    if ! python3 -m json.tool "$d" > /dev/null 2>&1; then
      echo "error: recorder dump is not valid JSON: $d"
      cat "$d"
      exit 1
    fi
  elif ! grep -q '"trigger"' "$d" || ! grep -q '"events"' "$d"; then
    echo "error: recorder dump is missing its trigger/events fields: $d"
    cat "$d"
    exit 1
  fi
done
for run in 1 2; do
  if ! UNIGPU_DB_DIR="$rec_tmp/det$run/db" ./target/release/unigpu serve MobileNet1.0 \
      --platform deeplens --requests 48 --concurrency 2 --batch 4 \
      --recorder-dump-dir "$rec_tmp/det$run/dumps" \
      > "$rec_tmp/det$run.log" 2>&1; then
    echo "error: zero-noise recorder run $run exited non-zero"
    cat "$rec_tmp/det$run.log"
    exit 1
  fi
done
if ! cmp -s "$rec_tmp/det1/dumps/dump-000000-shutdown.json" \
            "$rec_tmp/det2/dumps/dump-000000-shutdown.json"; then
  echo "error: zero-noise recorder dumps differ between runs:"
  diff "$rec_tmp/det1/dumps/dump-000000-shutdown.json" \
       "$rec_tmp/det2/dumps/dump-000000-shutdown.json" || true
  exit 1
fi
echo "flight recorder gate: $dump_count chaos dump(s) valid, shutdown dump reproduced byte-identically"
rm -rf "$rec_tmp"
trap - EXIT

echo "==> fleet loopback smoke test"
# Router + three heterogeneous replica processes on ephemeral loopback
# ports. The fast replica is killed mid-traffic on a deterministic submit
# counter (the plan key die_on_submit) while another replica runs under a
# UNIGPU_FAULTS plan that trips its breaker; the router must fail the dead replica's backlog over and
# print a balanced fleet accounting line — zero lost.
fleet_tmp=$(mktemp -d)
fleet_pids=()
cleanup_fleet() {
  for p in "${fleet_pids[@]:-}"; do
    if [ -n "$p" ]; then
      kill "$p" 2>/dev/null || true
    fi
  done
  rm -rf "$fleet_tmp"
}
trap cleanup_fleet EXIT
start_replica() { # $1=file-tag $2=replica-name $3=device $4=fault-plan $5... extra flags
  # tag names the per-process files; name is the replica's protocol name
  # (kept identical across determinism runs — it feeds the fleet digest)
  local tag=$1 name=$2 device=$3 env_plan=$4
  shift 4
  env ${env_plan:+UNIGPU_FAULTS="$env_plan"} UNIGPU_DB_DIR="$fleet_tmp/db-$tag" \
    ./target/release/unigpu fleet replica --listen 127.0.0.1:0 \
    --device "$device" --name "$name" --port-file "$fleet_tmp/$tag.port" \
    --cache-dir "$fleet_tmp/cache-$tag" "$@" \
    > "$fleet_tmp/$tag.log" 2>&1 &
  fleet_pids+=($!)
  for _ in $(seq 1 100); do
    [ -s "$fleet_tmp/$tag.port" ] && break
    sleep 0.1
  done
  if [ ! -s "$fleet_tmp/$tag.port" ]; then
    echo "error: fleet replica $tag never wrote its port file"
    cat "$fleet_tmp/$tag.log" || true
    exit 1
  fi
}
# victim: the fastest device, so its kill counter is reached early and the
# death lands mid-traffic with a populated backlog to fail over
start_replica chaos-r0 r0 deeplens "die_on_submit=12"
start_replica chaos-r1 r1 aisage "kernel_fail_first=4" --queue-cap 16 --deadline-ms 2000
start_replica chaos-r2 r2 nano "" --queue-cap 16 --deadline-ms 2000
if ! ./target/release/unigpu fleet router \
    --replica "$(cat "$fleet_tmp/chaos-r0.port")" \
    --replica "$(cat "$fleet_tmp/chaos-r1.port")" \
    --replica "$(cat "$fleet_tmp/chaos-r2.port")" \
    --model SqueezeNet1.0 --requests 96 > "$fleet_tmp/router.log" 2>&1; then
  echo "error: fleet router exited non-zero under the chaos plan"
  cat "$fleet_tmp/router.log"
  exit 1
fi
if ! grep -q '(0 lost)' "$fleet_tmp/router.log"; then
  echo "error: fleet chaos run lost requests (accounting did not balance):"
  cat "$fleet_tmp/router.log"
  exit 1
fi
if ! grep -q 'offered=96' "$fleet_tmp/router.log"; then
  echo "error: fleet accounting line missing or wrong offered count:"
  cat "$fleet_tmp/router.log"
  exit 1
fi
if ! grep -q 'deaths=1' "$fleet_tmp/router.log"; then
  echo "error: the deterministic replica kill was not observed:"
  cat "$fleet_tmp/router.log"
  exit 1
fi
grep '^fleet accounting:' "$fleet_tmp/router.log"
# zero-noise determinism: two clean fleet runs (fresh caches, no faults,
# no kill) over a warm-replicating two-device pool must print identical
# fleet digests, and the same-device peer must come up warm
for run in 1 2; do
  fleet_pids=()
  start_replica "det$run-r0" r0 deeplens ""
  start_replica "det$run-r1" r1 deeplens ""
  start_replica "det$run-r2" r2 nano ""
  if ! ./target/release/unigpu fleet router \
      --replica "$(cat "$fleet_tmp/det$run-r0.port")" \
      --replica "$(cat "$fleet_tmp/det$run-r1.port")" \
      --replica "$(cat "$fleet_tmp/det$run-r2.port")" \
      --model SqueezeNet1.0 --requests 48 > "$fleet_tmp/det$run.log" 2>&1; then
    echo "error: zero-noise fleet run $run exited non-zero"
    cat "$fleet_tmp/det$run.log"
    exit 1
  fi
  if ! grep -q 'warm (replicated artifact)' "$fleet_tmp/det$run.log"; then
    echo "error: fleet run $run never warm-replicated the same-device peer:"
    cat "$fleet_tmp/det$run.log"
    exit 1
  fi
done
f1=$(grep '^fleet digest:' "$fleet_tmp/det1.log" || true)
f2=$(grep '^fleet digest:' "$fleet_tmp/det2.log" || true)
if [ -z "$f1" ] || [ "$f1" != "$f2" ]; then
  echo "error: zero-noise fleet runs are not byte-identical: '$f1' vs '$f2'"
  exit 1
fi
echo "fleet smoke test: chaos accounting balanced, '$f1' reproduced across runs"
cleanup_fleet
trap - EXIT

echo "==> fleet net-chaos gate"
# The wire itself as the failure domain: replicas run under a
# UNIGPU_FAULTS plan that corrupts and truncates their frames, the
# router under one that drops connections and duplicates frames. Fault
# placement is deliberate — router-side frames carry the session token
# (which embeds an ephemeral port), so only content-independent faults go
# on the router side; replica frames are address-free, so corruption
# there is run-to-run deterministic. The guarantee under all of it:
# accounting balances, zero duplicate completions, and the fleet digest
# is byte-identical to a quiet-wire run — chaos shakes the transport,
# never the outcome.
net_tmp=$(mktemp -d)
net_pids=()
cleanup_net() {
  for p in "${net_pids[@]:-}"; do
    if [ -n "$p" ]; then
      kill "$p" 2>/dev/null || true
    fi
  done
  rm -rf "$net_tmp"
}
trap cleanup_net EXIT
start_net_replica() { # $1=file-tag $2=replica-name $3=device $4=net-plan
  local tag=$1 name=$2 device=$3 net_plan=$4
  env ${net_plan:+UNIGPU_FAULTS="$net_plan"} UNIGPU_DB_DIR="$net_tmp/db-$tag" \
    ./target/release/unigpu fleet replica --listen 127.0.0.1:0 \
    --device "$device" --name "$name" --port-file "$net_tmp/$tag.port" \
    --cache-dir "$net_tmp/cache-$tag" --queue-cap 16 --deadline-ms 2000 \
    > "$net_tmp/$tag.log" 2>&1 &
  net_pids+=($!)
  for _ in $(seq 1 100); do
    [ -s "$net_tmp/$tag.port" ] && break
    sleep 0.1
  done
  if [ ! -s "$net_tmp/$tag.port" ]; then
    echo "error: net-chaos replica $tag never wrote its port file"
    cat "$net_tmp/$tag.log" || true
    exit 1
  fi
}
replica_plan="corrupt_byte_nth=9,truncate_frame_nth=13"
router_plan="drop_conn_nth=11,dup_frame_nth=7"
for run in quiet chaos1 chaos2; do
  net_pids=()
  if [ "$run" = quiet ]; then rp=""; rtp=""; else rp=$replica_plan; rtp=$router_plan; fi
  start_net_replica "$run-r0" r0 deeplens "$rp"
  start_net_replica "$run-r1" r1 deeplens "$rp"
  if ! env ${rtp:+UNIGPU_FAULTS="$rtp"} ./target/release/unigpu fleet router \
      --replica "$(cat "$net_tmp/$run-r0.port")" \
      --replica "$(cat "$net_tmp/$run-r1.port")" \
      --model SqueezeNet1.0 --requests 64 > "$net_tmp/$run.log" 2>&1; then
    echo "error: fleet router exited non-zero in net-chaos run $run"
    cat "$net_tmp/$run.log"
    exit 1
  fi
  if ! grep -q 'duplicates=0 (0 lost)' "$net_tmp/$run.log"; then
    echo "error: net-chaos run $run lost or duplicated requests:"
    cat "$net_tmp/$run.log"
    exit 1
  fi
  if ! grep -q 'offered=64' "$net_tmp/$run.log"; then
    echo "error: net-chaos run $run accounting line missing or wrong offered count:"
    cat "$net_tmp/$run.log"
    exit 1
  fi
done
# the quiet wire must leave no transport counters; the noisy wire must
# have actually hurt — and been survived via reconnect-with-resume
if grep -q '^fleet net:' "$net_tmp/quiet.log"; then
  echo "error: quiet run reported nonzero net counters:"
  cat "$net_tmp/quiet.log"
  exit 1
fi
for run in chaos1 chaos2; do
  if ! grep -q '^fleet net: reconnects=[1-9]' "$net_tmp/$run.log"; then
    echo "error: net-chaos run $run never reconnected (plan did not bite?):"
    cat "$net_tmp/$run.log"
    exit 1
  fi
done
nq=$(grep '^fleet digest:' "$net_tmp/quiet.log" || true)
n1=$(grep '^fleet digest:' "$net_tmp/chaos1.log" || true)
n2=$(grep '^fleet digest:' "$net_tmp/chaos2.log" || true)
if [ -z "$nq" ] || [ "$n1" != "$n2" ] || [ "$n1" != "$nq" ]; then
  echo "error: wire chaos leaked into fleet outcomes: quiet='$nq' chaos='$n1'/'$n2'"
  exit 1
fi
grep '^fleet net:' "$net_tmp/chaos1.log"
echo "fleet net-chaos gate: '$nq' held under wire faults, exactly-once preserved"
cleanup_net
trap - EXIT

echo "==> hot-path allocation gates"
# `allocs_per_op` is a count the benchmark process makes of itself, so it
# repeats exactly and the gates are exact, not timing bands. The budgets are
# DESIGN.md's ("Host hot path"); crates/{engine,fleet}/tests/alloc_budget.rs
# hold the same lines per submit, per route and per frame. One compile_zoo
# operation is a cold and a warm compile of one model on one platform, which
# read no weight (crates/engine/tests/compile_bytes.rs). One tune_zoo
# operation is one measured trial of the model-based search: a refit every 16
# trials allocates once per buffer, not once per tree, and most of the rest is
# the kernel name each simulated measurement formats (crates/tuner/tests/
# tune_allocs.rs pins a warm search). One exec_functional operation is one
# warm SqueezeNet inference (it computes in the workspace the compiled model
# keeps, and allocates only its returned Vec and the one tensor's shape and
# data: 3) plus one pass of the four vision operators (24); the count repeats
# exactly, and crates/engine/tests/run_allocs.rs pins the inference's share.
for gate in serve_steady:4 fleet_wire:3 compile_zoo:7000 tune_zoo:6 exec_functional:27; do
  workload=${gate%:*} alloc_budget=${gate#*:}
  allocs=$(bash benchmark/run.sh --workload "$workload" --seconds 3 --trace 0 \
    | sed -n 's/^allocs_per_op = \([0-9.eE+-]*\) count$/\1/p')
  if [ -z "$allocs" ] || ! awk -v a="$allocs" -v b="$alloc_budget" 'BEGIN { exit !(a <= b) }'; then
    echo "error: $workload makes '${allocs:-?}' heap allocations per operation; the budget is $alloc_budget"
    exit 1
  fi
  echo "$workload: $allocs allocations per operation (budget $alloc_budget)"
done

echo "ci: all gates passed"
