#!/bin/sh
# Regenerates BENCH_results.json from the micro-benchmark binaries'
# --json mode (median ns/call per engine and algorithm). Run from the
# repository root; no network access required. The file is checked in
# so reviewers can compare machines and spot regressions.
#
# `bench.sh --check` reruns the distance-engine and simulator benches
# and compares them against the checked-in BENCH_results.json with the
# bench_check binary, failing if any series regressed more than 30%.
# The simulator bench additionally self-gates: serving /metrics
# scrapes at 4 Hz must not steal more than 2% of the simulator's CPU
# (--max-scrape-overhead-pct, see docs/OBSERVABILITY.md), and the
# sharded-simulator scaling bench requires >= 1.8x throughput at 4
# threads over 1 (--min-speedup-4t; self-skipped on hosts with fewer
# than 4 cores, where that floor is physically unreachable — the skip
# and its reason land in the emitted JSON as a "skipped" field) and
# caps the engine profiler's cost at default sampling to 2% over an
# unprofiled run while asserting profiling perturbs no output
# (--max-profile-overhead-pct, see docs/OBSERVABILITY.md "Profiling
# the engine"). The query-service bench likewise self-gates: the
# four-shard service must beat the one-shard baseline on QPS
# (--min-qps-ratio; self-skipped on single-core hosts, where no two
# connection threads contend for a shard lock). Speedup and QPS
# are higher-is-better series, so those benches are compared ns-only
# (--ns-only) under bench_check's lower-is-better rule. The monitor
# bench self-gates identifying-code fault monitors to at most 2%
# ns/msg over a monitors-off run (--max-monitor-overhead-pct, see
# docs/OBSERVABILITY.md "Localizing faults"). The batched-query bench
# self-gates the destination-major kernel to >= 3x the scalar loop on
# undirected destination-skewed batches (--min-batch-speedup, see
# docs/PERFORMANCE.md "Amortized destination-major evaluation").
# ci.sh runs this as its performance smoke.
set -eu

out=BENCH_results.json

if [ "${1:-}" = "--check" ]; then
    cargo build --release -q -p debruijn-bench \
        --bench distance_engines --bench simulation_throughput \
        --bench simulation_scaling --bench service_throughput \
        --bench monitor_overhead --bench batched_query --bin bench_check
    tmp=$(mktemp)
    trap 'rm -f "$tmp"' EXIT
    dist_line=$(cargo bench -q -p debruijn-bench --bench distance_engines -- --json)
    batch_line=$(cargo bench -q -p debruijn-bench --bench batched_query -- \
        --json --min-batch-speedup 3)
    sim_line=$(cargo bench -q -p debruijn-bench --bench simulation_throughput -- \
        --json --max-scrape-overhead-pct 2)
    scale_line=$(cargo bench -q -p debruijn-bench --bench simulation_scaling -- \
        --json --ns-only --min-speedup-4t 1.8 --max-profile-overhead-pct 2)
    service_line=$(cargo bench -q -p debruijn-bench --bench service_throughput -- \
        --json --ns-only --min-qps-ratio 1.0)
    monitor_line=$(cargo bench -q -p debruijn-bench --bench monitor_overhead -- \
        --json --max-monitor-overhead-pct 2)
    {
        printf '[\n'
        printf '%s,\n' "$dist_line"
        printf '%s,\n' "$batch_line"
        printf '%s,\n' "$sim_line"
        printf '%s,\n' "$scale_line"
        printf '%s,\n' "$service_line"
        printf '%s' "$monitor_line"
        printf '\n]\n'
    } > "$tmp"
    cargo run --release -q -p debruijn-bench --bin bench_check -- "$out" "$tmp"
    exit 0
fi

cargo build --release -q -p debruijn-bench \
    --bench distance_engines \
    --bench routing_algorithms \
    --bench batched_query \
    --bench simulation_throughput \
    --bench simulation_scaling \
    --bench service_throughput \
    --bench monitor_overhead

{
    printf '[\n'
    first=1
    for bench in distance_engines routing_algorithms batched_query simulation_throughput simulation_scaling service_throughput monitor_overhead; do
        line=$(cargo bench -q -p debruijn-bench --bench "$bench" -- --json)
        if [ "$first" -eq 1 ]; then first=0; else printf ',\n'; fi
        printf '%s' "$line"
    done
    printf '\n]\n'
} > "$out"

echo "wrote $out"
