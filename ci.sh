#!/bin/sh
# Offline CI gate: formatting, lints, docs, build, full test suite,
# and an end-to-end trace round-trip smoke.
# Run from the repository root; no network access required.
set -eu

echo "== cargo fmt --check =="
cargo fmt --all -- --check
# The per-family CLI tests are include!d into `cli::tests`, out of
# cargo fmt's reach (ADR 0009).
rustfmt --edition 2021 --check src/cli/*_tests.rs

echo "== cargo clippy -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (no deps, warnings denied) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== cargo build (release, all targets) =="
cargo build --release --workspace --all-targets

echo "== cargo test =="
cargo test --workspace --release -q

echo "== trace round-trip smoke =="
# A live run's report and its offline reconstruction from the JSONL
# trace must agree line for line on the headline metrics and the
# counter block (see docs/OBSERVABILITY.md).
smoke_dir=$(mktemp -d)
listen_pid=""
idle_pid=""
trap 'for pid in $listen_pid $idle_pid; do kill "$pid" 2>/dev/null || true; done; rm -rf "$smoke_dir"' EXIT
./target/release/dbr simulate 2 8 --messages 5000 --metrics \
    --trace "$smoke_dir/run.jsonl" > "$smoke_dir/live.txt"
./target/release/dbr trace summary "$smoke_dir/run.jsonl" > "$smoke_dir/offline.txt"
for key in "delivered:" "dropped:" "mean hops:" "mean latency:" "max latency:" "messages:"; do
    live_line=$(grep -F "$key" "$smoke_dir/live.txt" | head -n 1)
    offline_line=$(grep -F "$key" "$smoke_dir/offline.txt" | head -n 1)
    if [ -z "$live_line" ] || [ "$live_line" != "$offline_line" ]; then
        echo "trace smoke mismatch for '$key':"
        echo "  live:    $live_line"
        echo "  offline: $offline_line"
        exit 1
    fi
done
echo "live report and offline reconstruction agree"

echo "== metrics scrape smoke =="
# A live run with --listen serves Prometheus text over loopback; the
# bound address (port 0: OS-assigned) is announced on stderr.
./target/release/dbr simulate 2 8 --messages 2000 --router alg2 \
    --listen 127.0.0.1:0 \
    > "$smoke_dir/listen.txt" 2> "$smoke_dir/listen.err" &
listen_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's|^listening on http://\([^/]*\)/metrics$|\1|p' \
        "$smoke_dir/listen.err")
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "scrape smoke: server never announced its address"
    cat "$smoke_dir/listen.err"
    exit 1
fi
# Poll until the run has finished (the endpoint serves during the run
# too, so early scrapes may see partial counts).
scrape_ok=""
for _ in $(seq 1 100); do
    curl -fsS "http://$addr/metrics" > "$smoke_dir/scrape.txt" || true
    if grep -q '^dbr_sim_delivered_total 2000$' "$smoke_dir/scrape.txt"; then
        scrape_ok=1
        break
    fi
    sleep 0.1
done
if [ -z "$scrape_ok" ]; then
    echo "scrape smoke: dbr_sim_delivered_total never reached 2000"
    cat "$smoke_dir/scrape.txt"
    exit 1
fi
for family in "dbr_sim_injected_total 2000" "dbr_link_forward_total{"; do
    if ! grep -qF "$family" "$smoke_dir/scrape.txt"; then
        echo "scrape smoke: /metrics lacks '$family'"
        cat "$smoke_dir/scrape.txt"
        exit 1
    fi
done
# The run's registry carries its own families only: no process-wide
# counters ride along.
if grep -q '^dbr_core_' "$smoke_dir/scrape.txt"; then
    echo "scrape smoke: /metrics carries process-wide dbr_core_ counters"
    exit 1
fi
# A client that connects and sends nothing holds one connection thread
# of its own: /healthz still answers at once.
sleep 8 | curl -s "telnet://$addr" > /dev/null 2>&1 &
idle_pid=$!
sleep 0.5
if ! curl -fsS --max-time 2 "http://$addr/healthz" | grep -q ok; then
    echo "scrape smoke: /healthz stalled behind an idle connection"
    exit 1
fi
kill "$idle_pid" 2>/dev/null || true
idle_pid=""
kill "$listen_pid" 2>/dev/null || true
wait "$listen_pid" 2>/dev/null || true
listen_pid=""
echo "loopback /metrics scrape serves the unified registry"

echo "== flight recorder round-trip smoke =="
# A faulty node provokes a drop burst; the dumped pre-anomaly window
# must parse through the offline trace toolkit with a per-reason drop
# breakdown.
./target/release/dbr simulate 2 6 --messages 400 --router alg2 \
    --workload burst --faults 000000 --flight-recorder "$smoke_dir/flight.jsonl" \
    > "$smoke_dir/flight.txt"
grep -qF "flight recorder: " "$smoke_dir/flight.txt"
grep -qF "window dumped to" "$smoke_dir/flight.txt"
./target/release/dbr trace summary "$smoke_dir/flight.jsonl" \
    > "$smoke_dir/flight_summary.txt"
grep -qF "dropped (" "$smoke_dir/flight_summary.txt"
grep -qF "dropped:      " "$smoke_dir/flight_summary.txt"
echo "flight-recorder dump round-trips through dbr trace summary"

echo "== fault localization smoke =="
# One faulty node in a DG(2,8) zipf run; the identifying-code monitor
# placement must decode it exactly — live during the run and again
# offline from the recorded trace alone (see docs/OBSERVABILITY.md
# "Localizing faults").
./target/release/dbr simulate 2 8 --messages 4000 --workload zipf \
    --faults 00110101 --monitors identifying \
    --trace "$smoke_dir/localize.jsonl" > "$smoke_dir/localize_live.txt"
grep -qF "verdict:   exact — faulty node 00110101" "$smoke_dir/localize_live.txt"
./target/release/dbr localize 2 8 "$smoke_dir/localize.jsonl" \
    --monitors identifying > "$smoke_dir/localize.txt"
grep -qF "verdict:   exact — faulty node 00110101" "$smoke_dir/localize.txt"
echo "identifying-code monitors localize the injected fault exactly"

echo "== sharded determinism smoke =="
# The sharded simulator's contract: for the same seed, the CLI report,
# the JSONL trace, and the metrics block are byte-identical no matter
# how many shards and threads execute it (the in-crate tests cover the
# full grid; this drives it end to end through the CLI).
# Both runs write the same trace paths so the printed reports (which
# name them) stay byte-comparable; the first run's files are copied
# aside. The --progress lines (stderr) and the Chrome trace are
# compared too.
./target/release/dbr simulate 2 8 --messages 3000 --shards 1 --threads 1 \
    --metrics --trace "$smoke_dir/shard.jsonl" --progress 500 \
    --chrome-trace "$smoke_dir/shard.json" \
    > "$smoke_dir/shard11.txt" 2> "$smoke_dir/shard11.err"
cp "$smoke_dir/shard.jsonl" "$smoke_dir/shard11.jsonl"
cp "$smoke_dir/shard.json" "$smoke_dir/shard11.json"
./target/release/dbr simulate 2 8 --messages 3000 --shards 4 --threads 4 \
    --metrics --trace "$smoke_dir/shard.jsonl" --progress 500 \
    --chrome-trace "$smoke_dir/shard.json" \
    > "$smoke_dir/shard44.txt" 2> "$smoke_dir/shard44.err"
cmp "$smoke_dir/shard11.txt" "$smoke_dir/shard44.txt"
cmp "$smoke_dir/shard11.jsonl" "$smoke_dir/shard.jsonl"
cmp "$smoke_dir/shard11.err" "$smoke_dir/shard44.err"
cmp "$smoke_dir/shard11.json" "$smoke_dir/shard.json"
echo "1 shard / 1 thread and 4 shards / 4 threads agree byte for byte"
# A Zipf burst dense enough that shard pairs exchange thousands of
# entries per window (the bounded ring mailboxes of earlier versions
# spilled tens of thousands of them here).
./target/release/dbr simulate 2 10 --messages 50000 --workload zipf \
    --shards 1 --threads 1 --metrics > "$smoke_dir/burst11.txt"
./target/release/dbr simulate 2 10 --messages 50000 --workload zipf \
    --shards 8 --threads 2 --metrics > "$smoke_dir/burst82.txt"
cmp "$smoke_dir/burst11.txt" "$smoke_dir/burst82.txt"
echo "a 50,000-message zipf burst agrees at 1x1 and 8 shards / 2 threads"

echo "== next-hop tier smoke =="
# The compressed shift-prediction tier must reproduce the dense
# table's run byte for byte, across shard/thread counts, on a skewed
# workload (see docs/SCALING.md and ADR 0006).
./target/release/dbr simulate 2 8 --messages 3000 --workload zipf \
    --shards 1 --threads 1 --next-hop dense --metrics \
    > "$smoke_dir/tier_dense.txt"
./target/release/dbr simulate 2 8 --messages 3000 --workload zipf \
    --shards 4 --threads 4 --next-hop compressed --metrics \
    > "$smoke_dir/tier_compressed.txt"
cmp "$smoke_dir/tier_dense.txt" "$smoke_dir/tier_compressed.txt"
echo "dense 1x1 and compressed 4x4 agree byte for byte"

echo "== engine profiler smoke =="
# `dbr profile` must observe without perturbing: its headline report
# is byte-identical to an unprofiled `dbr simulate` of the same
# configuration, and the JSON export carries the documented schema
# (see docs/OBSERVABILITY.md "Profiling the engine").
./target/release/dbr simulate 2 6 --messages 2000 --shards 4 --threads 2 \
    --seed 7 > "$smoke_dir/plain.txt"
./target/release/dbr profile 2 6 --messages 2000 --shards 4 --threads 2 \
    --seed 7 --profile-out "$smoke_dir/profile.json" > "$smoke_dir/profiled.txt"
head -n 7 "$smoke_dir/plain.txt" > "$smoke_dir/plain_head.txt"
head -n 7 "$smoke_dir/profiled.txt" > "$smoke_dir/profiled_head.txt"
cmp "$smoke_dir/plain_head.txt" "$smoke_dir/profiled_head.txt"
grep -qF "== engine profile ==" "$smoke_dir/profiled.txt"
for key in '"schema": "dbr-engine-profile/v1"' '"phases": [' \
    '"critical_paths": [' '"imbalance": {' '"sampler": {'; do
    if ! grep -qF "$key" "$smoke_dir/profile.json"; then
        echo "profiler smoke: profile JSON lacks '$key'"
        cat "$smoke_dir/profile.json"
        exit 1
    fi
done
echo "profiled report matches the unprofiled run; profile JSON schema present"

echo "== query service smoke =="
# The query service end to end over loopback, with one shard and with
# two: concurrent clients get correct answers, malformed queries
# get typed 400s, unknown endpoints 404, the scrape carries the
# dbr_service_* families, and /quitquitquit shuts down cleanly with an
# end-of-run metrics dump on stdout (see docs/OBSERVABILITY.md
# "Serving traffic").
# Starts `dbr serve 2 --threads N` and sets listen_pid and addr; its
# stdout and stderr go to $smoke_dir/serve.txt and serve.err.
start_serve() {
    ./target/release/dbr serve 2 --listen 127.0.0.1:0 --threads "$1" \
        > "$smoke_dir/serve.txt" 2> "$smoke_dir/serve.err" &
    listen_pid=$!
    addr=""
    for _ in $(seq 1 100); do
        addr=$(sed -n 's|^listening on http://\([^/]*\)/metrics$|\1|p' \
            "$smoke_dir/serve.err")
        [ -n "$addr" ] && break
        sleep 0.1
    done
    if [ -z "$addr" ]; then
        echo "serve smoke: server never announced its address"
        cat "$smoke_dir/serve.err"
        exit 1
    fi
}
# Four concurrent curl loops: every answer must be the engine's.
concurrent_clients() {
    client_pids=""
    for _ in 1 2 3 4; do
        {
            for _ in 1 2 3 4 5 6 7 8; do
                curl -fsS "http://$addr/distance?x=00000000&y=11111111"
                curl -fsS "http://$addr/route?x=00000000&y=11111111"
            done
        } > /dev/null &
        client_pids="$client_pids $!"
    done
    for pid in $client_pids; do
        wait "$pid" || { echo "serve smoke: a client batch failed"; exit 1; }
    done
}
# One shard: all four client loops contend on one cache lock.
start_serve 1
concurrent_clients
curl -fsS "http://$addr/quitquitquit" | grep -q "shutting down"
wait "$listen_pid" || { echo "serve smoke: --threads 1 serve exited non-zero"; exit 1; }
listen_pid=""
start_serve 2
concurrent_clients
dist=$(curl -fsS "http://$addr/distance?x=00000000&y=11111111")
if [ "$dist" != "8" ]; then
    echo "serve smoke: distance(00000000,11111111) = '$dist', want 8"
    exit 1
fi
# Typed errors: bad digit -> 400 with a JSON kind, unknown path -> 404.
code=$(curl -s -o "$smoke_dir/serve_400.txt" -w '%{http_code}' \
    "http://$addr/distance?x=012&y=000")
[ "$code" = "400" ] || { echo "serve smoke: bad digit gave $code, want 400"; exit 1; }
grep -qF '"error":"bad-address"' "$smoke_dir/serve_400.txt"
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/frobnicate")
[ "$code" = "404" ] || { echo "serve smoke: unknown path gave $code, want 404"; exit 1; }
# The scrape carries the service families with real counts.
curl -fsS "http://$addr/metrics" > "$smoke_dir/serve_scrape.txt"
for family in "dbr_service_requests_total{" "dbr_service_errors_total{" \
    "dbr_service_cache_total{" "dbr_service_latency_ns_count{" \
    "dbr_service_solves_total{"; do
    if ! grep -qF "$family" "$smoke_dir/serve_scrape.txt"; then
        echo "serve smoke: /metrics lacks '$family'"
        cat "$smoke_dir/serve_scrape.txt"
        exit 1
    fi
done
if ! grep -E '^dbr_service_requests_total\{[^}]*\} [1-9]' \
    "$smoke_dir/serve_scrape.txt" > /dev/null; then
    echo "serve smoke: dbr_service_requests_total never counted a request"
    exit 1
fi
# k = 8 is below the Auto crossover: the clients' first miss ran a
# bit-parallel solve.
if ! grep -E '^dbr_service_solves_total\{engine="bit-parallel"\} [1-9]' \
    "$smoke_dir/serve_scrape.txt" > /dev/null; then
    echo "serve smoke: dbr_service_solves_total never counted a bit-parallel solve"
    exit 1
fi
curl -fsS "http://$addr/quitquitquit" | grep -q "shutting down"
wait "$listen_pid" || { echo "serve smoke: serve exited non-zero"; exit 1; }
listen_pid=""
# The end-of-run dump on stdout repeats the registry, cache stats
# included.
grep -qF "dbr_service_cache_total{" "$smoke_dir/serve.txt"
echo "query service answers, sheds typed errors, scrapes, and drains cleanly"

echo "== batched query kernel smoke =="
# Batch mode routes `route`/`distance` through the destination-major
# kernel (see docs/PERFORMANCE.md "Amortized destination-major
# evaluation"). On a mixed-destination file — hot sinks repeated across
# many sources plus singleton tails — its output must match one dbr
# invocation per pair, and must be byte-identical across --threads
# values (the chunk geometry, not the worker count, fixes the output).
batch_file="$smoke_dir/batch_pairs.txt"
: > "$batch_file"
for x in 00000000 01100110 10101010 11110000 00001111 11011011; do
    for y in 10110001 10110001 01001110 11111111; do
        printf '%s %s\n' "$x" "$y" >> "$batch_file"
    done
done
# Radix 2's largest sweep floor is 24 sources, on one-word diagonals, so
# one k=8 destination with 25 sources puts a group on the suffix-automaton
# tier. k=64 and k=65 lines cross the one-u64 boundary, each with a group
# above its floor (24 and 4), a group of 3 below it, and singletons.
s56=$(printf '0011101%.0s' 1 2 3 4 5 6 7 8)
t56=$(printf '10010110%.0s' 1 2 3 4 5 6 7)
for a in 000 011 101 110 111; do
    for b in 00110 10011 11100 00001 01010; do
        printf '%s %s\n' "$a$b" 01101001 >> "$batch_file"
        printf '%s %s\n' "$a$b$s56" "01101001$t56" >> "$batch_file"
    done
done
for p in 000000000 011011011 101101101 110110110 111000111; do
    printf '%s %s\n' "$p$s56" "100111010$t56" >> "$batch_file"
done
for p in 00000000 10110001 11111111; do
    printf '%s %s\n' "$p$s56" "$p$t56" >> "$batch_file"
    printf '%s %s\n' "$p$t56" "11100110$s56" >> "$batch_file"
    printf '%s %s\n' "1$p$s56" "0$p$t56" >> "$batch_file"
    printf '%s %s\n' "0$p$t56" "010101010$s56" >> "$batch_file"
done
./target/release/dbr distance 2 --batch "$batch_file" > "$smoke_dir/batch_dist.txt"
: > "$smoke_dir/scalar_dist.txt"
while read -r x y; do
    ./target/release/dbr distance 2 "$x" "$y" >> "$smoke_dir/scalar_dist.txt"
done < "$batch_file"
cmp "$smoke_dir/batch_dist.txt" "$smoke_dir/scalar_dist.txt"
./target/release/dbr route 2 --batch "$batch_file" > "$smoke_dir/batch_route.txt"
: > "$smoke_dir/scalar_route.txt"
while read -r x y; do
    one=$(./target/release/dbr route 2 "$x" "$y")
    d=$(printf '%s\n' "$one" | sed -n 's/^distance: //p')
    r=$(printf '%s\n' "$one" | sed -n 's/^route:    //p')
    printf '%s %s\n' "$d" "$r" >> "$smoke_dir/scalar_route.txt"
done < "$batch_file"
cmp "$smoke_dir/batch_route.txt" "$smoke_dir/scalar_route.txt"
./target/release/dbr distance 2 --batch "$batch_file" --directed \
    > "$smoke_dir/batch_dist_dir.txt"
: > "$smoke_dir/scalar_dist_dir.txt"
while read -r x y; do
    ./target/release/dbr distance 2 "$x" "$y" --directed \
        >> "$smoke_dir/scalar_dist_dir.txt"
done < "$batch_file"
cmp "$smoke_dir/batch_dist_dir.txt" "$smoke_dir/scalar_dist_dir.txt"
for dir_flag in "" "--directed"; do
    # shellcheck disable=SC2086
    ./target/release/dbr distance 2 --batch "$batch_file" --threads 1 $dir_flag \
        > "$smoke_dir/batch_t1.txt"
    # shellcheck disable=SC2086
    ./target/release/dbr distance 2 --batch "$batch_file" --threads 4 $dir_flag \
        > "$smoke_dir/batch_t4.txt"
    cmp "$smoke_dir/batch_t1.txt" "$smoke_dir/batch_t4.txt"
done
echo "batched and per-pair answers agree; output is thread-count invariant"

echo "== bench regression smoke =="
# Reruns the distance-engine bench and fails if any series regressed
# more than 30% against the checked-in BENCH_results.json.
sh bench.sh --check

echo "CI OK"
