#!/usr/bin/env bash
# bench.sh — run the query/build benchmark suite plus the kernel
# microbenchmarks, the pooled-scratch footprint gauge, the shard-sweep
# gauge, the resilience gauge, the multi-core parallel-throughput gauge
# and the network-serving load test, and emit a JSON snapshot for the
# performance trajectory
# (BENCH_PR<N>.json at the repo root). The snapshot includes a
# seed / PR6 / PR7 / PR9 comparison table (historical columns are read
# from the checked-in BENCH_PR9.json; PR10 numbers are this run), a
# "kernels" section (the scalar-vs-accelerated distance-kernel dimension
# sweep with speedup and accelerated GB/s), a "parallel" section
# (aggregate NNIS sampling throughput at GOMAXPROCS ∈ {1, 2, 4}), a
# "serve" section (the `-exp serve` loopback fleet load test:
# p50/p90/p99/p999 latency from the obs histogram, qps, queries/hour,
# kill/readmission outcome) with its full "serve_hist" bucket dump, plus
# the footprint / shard_sweep / resilience sections carried from earlier
# PRs (resilience now reports p50/p90/p99/p999 from the same histogram).
#
# Usage: scripts/bench.sh [output.json] [benchtime]
#   output.json  defaults to BENCH_PR10.json
#   benchtime    defaults to 1s (passed to -benchtime)
# Env:
#   FAIRNN_FOOTPRINT_N         points for the footprint gauge (default 1000000)
#   FAIRNN_FOOTPRINT_QUERIERS  burst width for the gauge (default 64)
#   FAIRNN_SHARD_N             points for the shard sweep (default 1000000)
#   FAIRNN_SHARD_SWEEP         shard counts for the sweep (default "1 2 4 8")
#   FAIRNN_RES_N               points for the resilience gauge (default 200000)
#   FAIRNN_RES_REPS            timed draws per state (default 2000)
#   FAIRNN_PAR_N               points for the parallel gauge (default 8000)
#   FAIRNN_PAR_DRAWS           SampleK(100) calls per worker (default 25)
#   FAIRNN_PAR_SWEEP           GOMAXPROCS sweep (default "1 2 4")
#   FAIRNN_SERVE_SHARDS        server fleet size for the serve load test (default 4)
#   FAIRNN_SERVE_SEED          seed for the serve load test (default 0 = harness default)
set -euo pipefail

cd "$(dirname "$0")/.."

OUT="${1:-BENCH_PR10.json}"
BENCHTIME="${2:-1s}"
SERVE_SHARDS="${FAIRNN_SERVE_SHARDS:-4}"
SERVE_SEED="${FAIRNN_SERVE_SEED:-0}"
FOOTPRINT_N="${FAIRNN_FOOTPRINT_N:-1000000}"
FOOTPRINT_QUERIERS="${FAIRNN_FOOTPRINT_QUERIERS:-64}"
SHARD_N="${FAIRNN_SHARD_N:-1000000}"
SHARD_SWEEP="${FAIRNN_SHARD_SWEEP:-1 2 4 8}"
RES_N="${FAIRNN_RES_N:-200000}"
RES_REPS="${FAIRNN_RES_REPS:-2000}"
PAR_N="${FAIRNN_PAR_N:-8000}"
PAR_DRAWS="${FAIRNN_PAR_DRAWS:-25}"
PAR_SWEEP="${FAIRNN_PAR_SWEEP:-1 2 4}"

# End-to-end query/build benches (root package).
ROOT_PATTERN='BenchmarkQuerySamplerNNS|BenchmarkQuerySampleRepeated|BenchmarkQueryIndependentNNIS$|BenchmarkQueryIndependentNNISParallel|BenchmarkQueryIndependentSampleK100|BenchmarkQueryStandardLSH|BenchmarkQueryNaiveFair|BenchmarkQueryFilterIndependent$|BenchmarkQueryFilterSampleK100|BenchmarkBuildSampler|BenchmarkBuildIndependent|BenchmarkBuildFilterIndependent'
# Kernel microbenches (internal packages): the segment report that the
# merged cursor accelerates, the distance-kernel dimension sweep (each
# dimension runs a scalar and an accel sub-benchmark), and the
# memo lookup.
MICRO_PATTERN='BenchmarkSegmentNear|BenchmarkSquaredEuclidean|BenchmarkDot$|BenchmarkEuclideanSqrt|BenchmarkNearCached'

RAW="$(mktemp)"
FOOT="$(mktemp)"
SWEEP="$(mktemp)"
RES="$(mktemp)"
PAR="$(mktemp)"
SERVE="$(mktemp)"
trap 'rm -f "$RAW" "$FOOT" "$SWEEP" "$RES" "$PAR" "$SERVE"' EXIT

go test -run '^$' -bench "$ROOT_PATTERN" -benchmem -benchtime "$BENCHTIME" . | tee "$RAW"
go test -run '^$' -bench "$MICRO_PATTERN" -benchmem -benchtime "$BENCHTIME" \
	./internal/core ./internal/vector | tee -a "$RAW"

# Pooled-scratch footprint gauge: retained bytes after a burst of
# FOOTPRINT_QUERIERS concurrent checkouts at FOOTPRINT_N/4 and FOOTPRINT_N
# points.
FAIRNN_FOOTPRINT_N="$FOOTPRINT_N" FAIRNN_FOOTPRINT_QUERIERS="$FOOTPRINT_QUERIERS" \
	go test -run 'TestPooledScratchFootprintGauge' -count=1 -v ./internal/core | tee "$FOOT"

# Shard sweep: sharded build + Sample + SampleK(100) wall times across
# SHARD_SWEEP shard counts at SHARD_N points.
FAIRNN_SHARD_N="$SHARD_N" FAIRNN_SHARD_SWEEP="$SHARD_SWEEP" \
	go test -run 'TestShardSweepGauge' -count=1 -v ./internal/shard | tee "$SWEEP"

# Resilience gauge: p50/p90/p99/p999 single-draw latency (obs
# histogram), healthy vs 1-of-8 shards force-failed under degraded mode.
FAIRNN_RES_N="$RES_N" FAIRNN_RES_REPS="$RES_REPS" \
	go test -run 'TestResilienceGauge' -count=1 -v ./internal/shard | tee "$RES"

# Parallel-throughput gauge: aggregate Section 5 sampling throughput with
# W workers at GOMAXPROCS = W across PAR_SWEEP.
FAIRNN_PAR_N="$PAR_N" FAIRNN_PAR_DRAWS="$PAR_DRAWS" FAIRNN_PAR_SWEEP="$PAR_SWEEP" \
	go test -run 'TestParallelThroughputGauge' -count=1 -v -timeout 1200s . | tee "$PAR"

# Network-serving load test: loopback fairnn-server fleet + concurrent
# Connect clients with a mid-run kill/restart; emits one SERVE key=value
# line with p50/p90/p99/p999 latency, qps and queries/hour, plus
# SERVE_HIST lines dumping the latency histogram buckets.
go run ./cmd/fairnn -exp serve -shards "$SERVE_SHARDS" -seed "$SERVE_SEED" | tee "$SERVE"

awk -v out="$OUT" -v benchtime="$BENCHTIME" -v pr9json="BENCH_PR9.json" -v footfile="$FOOT" -v sweepfile="$SWEEP" -v resfile="$RES" -v parfile="$PAR" -v servefile="$SERVE" '
BEGIN {
    # Historical columns from BENCH_PR9.json: its "comparison" table
    # carries seed_ns_op, pr6_ns_op, pr7_ns_op and pr9_ns_op; its
    # "benchmarks" ns_op entries fill pr9 for benches outside the
    # comparison set. The file is pretty-printed (one key per line), so
    # track the most recent "name" and attach subsequent metric lines to
    # it. The comparison rows of BENCH_PR9.json are emitted on a single
    # line each, so also match metric keys on the name line itself.
    cur = ""
    while ((getline line < pr9json) > 0) {
        if (line ~ /"name":/) {
            cur = line; sub(/.*"name": "/, "", cur); sub(/".*/, "", cur)
        }
        if (cur == "") continue
        if (line ~ /"seed_ns_op":/) {
            v = line; sub(/.*"seed_ns_op": /, "", v); sub(/[,}].*/, "", v)
            seed_ns[cur] = v
        }
        if (line ~ /"pr6_ns_op":/) {
            v = line; sub(/.*"pr6_ns_op": /, "", v); sub(/[,}].*/, "", v)
            pr6_ns[cur] = v
        }
        if (line ~ /"pr7_ns_op":/) {
            v = line; sub(/.*"pr7_ns_op": /, "", v); sub(/[,}].*/, "", v)
            pr7_ns[cur] = v
        }
        if (line ~ /"pr9_ns_op":/) {
            v = line; sub(/.*"pr9_ns_op": /, "", v); sub(/[,}].*/, "", v)
            pr9_ns[cur] = v
        } else if (line ~ /"ns_op":/) {
            v = line; sub(/.*"ns_op": /, "", v); sub(/[,}].*/, "", v)
            if (!(cur in pr9_ns)) pr9_ns[cur] = v
        }
    }
    close(pr9json)
    # Footprint gauge lines: FOOTPRINT n=... queriers=...
    # retained_bytes=... per_querier_bytes=...
    nf = 0
    while ((getline line < footfile) > 0) {
        if (line !~ /^FOOTPRINT /) continue
        np = split(line, parts, " ")
        row = "    {"
        first_kv = 1
        for (i = 2; i <= np; i++) {
            split(parts[i], kv, "=")
            pair = sprintf("\"%s\": %s", kv[1], kv[2])
            row = row (first_kv ? "" : ", ") pair
            first_kv = 0
        }
        foot[nf++] = row "}"
    }
    close(footfile)
    # Shard sweep lines: SHARDSWEEP shards=1 n=... build_ms=...
    # sample_ns=... samplek100_ns=...
    nsweep = 0
    while ((getline line < sweepfile) > 0) {
        if (line !~ /^SHARDSWEEP /) continue
        np = split(line, parts, " ")
        row = "    {"
        first_kv = 1
        for (i = 2; i <= np; i++) {
            split(parts[i], kv, "=")
            row = row (first_kv ? "" : ", ") sprintf("\"%s\": %s", kv[1], kv[2])
            first_kv = 0
        }
        sweep[nsweep++] = row "}"
    }
    close(sweepfile)
    # Resilience gauge lines: RESILIENCE state=healthy shards=8 n=...
    # reps=... p50_ns=... p99_ns=...
    nres = 0
    while ((getline line < resfile) > 0) {
        if (line !~ /^RESILIENCE /) continue
        np = split(line, parts, " ")
        row = "    {"
        first_kv = 1
        for (i = 2; i <= np; i++) {
            split(parts[i], kv, "=")
            if (kv[1] == "state")
                pair = sprintf("\"state\": \"%s\"", kv[2])
            else
                pair = sprintf("\"%s\": %s", kv[1], kv[2])
            row = row (first_kv ? "" : ", ") pair
            first_kv = 0
        }
        res[nres++] = row "}"
    }
    close(resfile)
    # Parallel gauge lines: PARALLEL gomaxprocs=1 workers=1 samples=...
    # secs=... samples_per_sec=... speedup_vs_first=...
    npar = 0
    while ((getline line < parfile) > 0) {
        if (line !~ /^PARALLEL /) continue
        np = split(line, parts, " ")
        row = "    {"
        first_kv = 1
        for (i = 2; i <= np; i++) {
            split(parts[i], kv, "=")
            row = row (first_kv ? "" : ", ") sprintf("\"%s\": %s", kv[1], kv[2])
            first_kv = 0
        }
        par[npar++] = row "}"
    }
    close(parfile)
    # Serve load-test lines: one SERVE line (queries=... ok=...
    # p50_us=... p90_us=... p99_us=... p999_us=... qps=...
    # queries_per_hour=... killed=true readmitted=true; killed and
    # readmitted are bare JSON booleans, everything else numeric), plus
    # SERVE_HIST bucket-dump lines (le_us=... count=..., le_us 0 = the
    # overflow bucket).
    serve_row = ""
    nhist = 0
    while ((getline line < servefile) > 0) {
        if (line ~ /^SERVE_HIST /) {
            np = split(line, parts, " ")
            row = "    {"
            first_kv = 1
            for (i = 2; i <= np; i++) {
                split(parts[i], kv, "=")
                row = row (first_kv ? "" : ", ") sprintf("\"%s\": %s", kv[1], kv[2])
                first_kv = 0
            }
            serve_hist[nhist++] = row "}"
            continue
        }
        if (line !~ /^SERVE /) continue
        np = split(line, parts, " ")
        serve_row = "{"
        first_kv = 1
        for (i = 2; i <= np; i++) {
            split(parts[i], kv, "=")
            serve_row = serve_row (first_kv ? "" : ", ") sprintf("\"%s\": %s", kv[1], kv[2])
            first_kv = 0
        }
        serve_row = serve_row "}"
    }
    close(servefile)
}
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    ns = ""; bytes = ""; allocs = ""
    for (i = 2; i <= NF; i++) {
        if ($(i+1) == "ns/op")     ns = $i
        if ($(i+1) == "B/op")      bytes = $i
        if ($(i+1) == "allocs/op") allocs = $i
    }
    if (ns != "") {
        cur_ns[name] = ns
        row = sprintf("    {\"name\": \"%s\", \"ns_op\": %s", name, ns)
        if (bytes != "")  row = row sprintf(", \"bytes_op\": %s", bytes)
        if (allocs != "") row = row sprintf(", \"allocs_op\": %s", allocs)
        row = row "}"
        lines[n++] = row
        # Kernel dimension-sweep sub-benches:
        # BenchmarkDot/d=128/accel, BenchmarkSquaredEuclidean/d=64/scalar.
        if (name ~ /^Benchmark(Dot|SquaredEuclidean)\/d=[0-9]+\/(scalar|accel)$/) {
            kern = (name ~ /^BenchmarkDot\//) ? "dot" : "squared_euclidean"
            d = name; sub(/.*\/d=/, "", d); sub(/\/.*/, "", d)
            tier = name; sub(/.*\//, "", tier)
            kd_ns[kern, d, tier] = ns
            key = kern SUBSEP d
            if (!(key in kd_seen)) { kd_seen[key] = 1; kd_order[nkd++] = key }
        }
    }
}
END {
    printf "{\n  \"pr\": 10,\n  \"benchtime\": \"%s\",\n", benchtime > out
    printf "  \"note\": \"seed/pr6/pr7/pr9 columns are historical (from BENCH_PR9.json); pr10 columns are this run. kernels = the distance-kernel dimension sweep: scalar is the portable 4-way-unrolled Go loop, accel the AVX2+FMA assembly path (16 float64/iter, 4 FMA chains); accel_gbps counts both operand vectors (16 bytes per dimension). parallel = aggregate Section 5 SampleK(100) throughput with W workers at GOMAXPROCS=W. serve = the -exp serve network load test: a loopback fairnn-server fleet behind Connect, concurrent clients, one shard killed mid-run and restarted after; latencies are per-query wall times over real sockets, so they measure the wire round-trips, not the sampler. serve quantiles (p50/p90/p99/p999) and the resilience gauge are read from the shared obs log-spaced histogram, so they are bucket-interpolated — identical in kind to what a /metrics scrape of the serving fleet would yield; serve_hist is the full non-empty bucket dump (le_us 0 = overflow bucket). Cross-column deltas in the comparison table carry the usual caveat for this 1-core box: single-run snapshots have ~20 percent noise, trust interleaved medians (the PR5/PR6 notes record two such A/Bs measuring parity where snapshots suggested regressions). Regenerate with scripts/bench.sh.\",\n" >> out
    printf "  \"comparison\": [\n" >> out
    m = split("BenchmarkBuildSampler BenchmarkBuildIndependent BenchmarkQuerySamplerNNS BenchmarkQueryIndependentNNIS BenchmarkQueryIndependentSampleK100 BenchmarkQueryFilterIndependent", keys, " ")
    first = 1
    for (i = 1; i <= m; i++) {
        k = keys[i]
        if (!(k in cur_ns)) continue
        row = sprintf("    {\"name\": \"%s\"", k)
        if (k in seed_ns) row = row sprintf(", \"seed_ns_op\": %s", seed_ns[k])
        if (k in pr6_ns)  row = row sprintf(", \"pr6_ns_op\": %s", pr6_ns[k])
        if (k in pr7_ns)  row = row sprintf(", \"pr7_ns_op\": %s", pr7_ns[k])
        if (k in pr9_ns)  row = row sprintf(", \"pr9_ns_op\": %s", pr9_ns[k])
        row = row sprintf(", \"pr10_ns_op\": %s", cur_ns[k])
        if (k in pr9_ns && cur_ns[k]+0 > 0)
            row = row sprintf(", \"speedup_vs_pr9\": %.2f", pr9_ns[k] / cur_ns[k])
        row = row "}"
        if (!first) printf ",\n" >> out
        printf "%s", row >> out
        first = 0
    }
    printf "\n  ],\n  \"kernels\": [\n" >> out
    first = 1
    for (i = 0; i < nkd; i++) {
        split(kd_order[i], kd, SUBSEP)
        kern = kd[1]; d = kd[2]
        s = kd_ns[kern, d, "scalar"]; a = kd_ns[kern, d, "accel"]
        row = sprintf("    {\"kernel\": \"%s\", \"dim\": %s", kern, d)
        if (s != "") row = row sprintf(", \"scalar_ns_op\": %s", s)
        if (a != "") {
            row = row sprintf(", \"accel_ns_op\": %s", a)
            if (a+0 > 0) row = row sprintf(", \"accel_gbps\": %.2f", 16 * d / a)
        }
        if (s != "" && a != "" && a+0 > 0)
            row = row sprintf(", \"speedup\": %.2f", s / a)
        row = row "}"
        if (!first) printf ",\n" >> out
        printf "%s", row >> out
        first = 0
    }
    printf "\n  ],\n  \"parallel\": [\n" >> out
    for (i = 0; i < npar; i++) printf "%s%s\n", par[i], (i < npar-1 ? "," : "") >> out
    printf "  ]" >> out
    printf ",\n  \"footprint\": [\n" >> out
    for (i = 0; i < nf; i++) printf "%s%s\n", foot[i], (i < nf-1 ? "," : "") >> out
    printf "  ]" >> out
    printf ",\n  \"shard_sweep\": [\n" >> out
    for (i = 0; i < nsweep; i++) printf "%s%s\n", sweep[i], (i < nsweep-1 ? "," : "") >> out
    printf "  ]" >> out
    printf ",\n  \"resilience\": [\n" >> out
    for (i = 0; i < nres; i++) printf "%s%s\n", res[i], (i < nres-1 ? "," : "") >> out
    printf "  ]" >> out
    if (serve_row != "")
        printf ",\n  \"serve\": %s", serve_row >> out
    if (nhist > 0) {
        printf ",\n  \"serve_hist\": [\n" >> out
        for (i = 0; i < nhist; i++) printf "%s%s\n", serve_hist[i], (i < nhist-1 ? "," : "") >> out
        printf "  ]" >> out
    }
    printf ",\n  \"benchmarks\": [\n" >> out
    for (i = 0; i < n; i++) printf "%s%s\n", lines[i], (i < n-1 ? "," : "") >> out
    printf "  ]\n}\n" >> out
}
' "$RAW"

echo "wrote $OUT"
