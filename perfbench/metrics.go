package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"

	"fairnn/internal/core"
	"fairnn/internal/vector"
)

// metricDef names one reported metric. moves says what the metric
// measures and, for a per-layer metric, which end-to-end metric on
// which workload it should move.
type metricDef struct {
	name, unit, moves string
}

// e2eMetrics are reported by every --trace 0 run. A failed op (a
// no-sample on a query whose exact ball is non-empty, or a typed error)
// is carried by the result's attempted/failed counts; fail_frac is
// printed in the report lines but is not a metric of its own, since it
// is 0 on a healthy run.
var e2eMetrics = []metricDef{
	{"setup_s", "s", "median time from generated inputs to a ready index (served: to a connected fleet)"},
	{"latency_p50_ms", "ms", "per-op latency p50 over the load phase"},
	{"latency_p90_ms", "ms", "per-op latency p90 over the load phase"},
	{"throughput_ops_s", "1/s", "ops completed per second over the load phase"},
	{"index_mb", "MB", "median live heap after build and GC, minus the heap before"},
}

// layerMetrics are reported by every --trace 1 run. A layer that a
// workload never enters reports 0 there.
var layerMetrics = []metricDef{
	{"core.arm_ms", "ms", "BeginShardPlan (resolve + estimate); moves latency_p50_ms on set-sample, not on vec-filter"},
	{"lsh.sign_us", "us", "Signer.Sign of a query; moves latency_p50_ms on set-sample"},
	{"lsh.recall", "ratio", "near points colliding with the query in some table over the exact ball size; an LSH parameter property, bounds what any draw can reach"},
	{"lsh.buckets_per_query", "count", "QueryStats.BucketsScanned during arm; moves latency_p50_ms on set-sample"},
	{"sketch.ids_per_query", "count", "bucket entries colliding with the query (PointsInspected of a full-range report on a fresh plan); moves latency_p50_ms on set-sample"},
	{"sketch.estimate_ratio", "ratio", "estimate s-hat over exact ball size; moves latency_p50_ms on set-sample"},
	{"core.rounds_per_draw", "count", "rejection rounds per draw; moves throughput_ops_s on set-sample and latency_p50_ms on served"},
	{"core.accept_ratio", "ratio", "draws found per round; moves throughput_ops_s on set-sample and latency_p50_ms on served"},
	{"core.memo_hit_ratio", "ratio", "memo hits per near test; moves throughput_ops_s on set-sample and latency_p50_ms on served"},
	{"core.merged_frac", "ratio", "share of ops that built the merged cursor; moves throughput_ops_s on set-sample and latency_p50_ms on served"},
	{"core.clamped_frac", "ratio", "share of ops in which an acceptance probability was clamped; moves throughput_ops_s on set-sample and latency_p50_ms on served"},
	{"rank.segment_us", "us", "ShardPlan.SegmentNearAt on seeded segments of armed plans; moves throughput_ops_s on set-sample"},
	{"vector.score_evals_per_draw", "count", "vector similarity evaluations per draw; moves latency_p50_ms on vec-filter, not on set-sample"},
	{"vector.dot_ns", "ns", "vector.Dot at the workload's d; moves latency_p50_ms on vec-filter, not on set-sample"},
	{"filter.plan_ms", "ms", "RecalledBall (filter plan + enumeration); moves latency_p50_ms on vec-filter"},
	{"filter.evals_per_query", "count", "QueryStats.FilterEvals per op; moves latency_p50_ms on vec-filter"},
	{"filter.buckets_per_query", "count", "QueryStats.BucketsScanned per op; moves latency_p50_ms on vec-filter"},
	{"wire.rpcs_per_query", "count", "request/response round trips per query; moves latency_p50_ms and latency_p90_ms on served"},
	{"wire.rtt_us", "us", "mean client round trip per RPC; moves latency_p50_ms and latency_p90_ms on served"},
	{"wire.server_us", "us", "mean server handling time per RPC; moves latency_p50_ms and latency_p90_ms on served"},
	{"wire.bytes_per_query", "B", "bytes on the fleet's sockets per query; moves latency_p50_ms and latency_p90_ms on served"},
	{"wire.overhead_ms", "ms", "served p50 minus the in-process twin's p50 on the same queries; moves latency_p50_ms on served"},
	{"shard.op_ms", "ms", "mean backend seam call (arm/segment/pick); moves latency_p50_ms and latency_p90_ms on served"},
	{"core.retained_scratch_kb", "KB", "RetainedScratchBytes after the run; moves index_mb"},
	{"obs.overhead_frac", "ratio", "1 - closed-loop throughput with the obs registry attached / without (served: client side)"},
}

// newLayerValues returns a value map with every per-layer metric at 0,
// for a workload to fill in the layers it exercises.
func newLayerValues() map[string]float64 {
	v := make(map[string]float64, len(layerMetrics))
	for _, m := range layerMetrics {
		v[m.name] = 0
	}
	return v
}

// fingerprint describes the box a run measured: core counts, CPU model,
// Go version and the vector kernel tier.
func fingerprint() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d cpu=%q go=%s accel=%v FAIRNN_NOASM=%q",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(),
		vector.Accelerated(), os.Getenv("FAIRNN_NOASM"))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// opStats accumulates the QueryStats of one client's traced ops.
type opStats struct {
	ops, draws, found, rounds, evals, hits, merged, clamped, buckets, filterEvals int
}

func (a *opStats) add(st *core.QueryStats, draws, found int) {
	a.ops++
	a.draws += draws
	a.found += found
	a.rounds += st.Rounds
	a.evals += st.ScoreEvals
	a.hits += st.ScoreCacheHits
	a.buckets += st.BucketsScanned
	a.filterEvals += st.FilterEvals
	if st.CursorMerged {
		a.merged++
	}
	if st.Clamped {
		a.clamped++
	}
}

func sumStats(per []opStats) opStats {
	var t opStats
	for _, a := range per {
		t.ops += a.ops
		t.draws += a.draws
		t.found += a.found
		t.rounds += a.rounds
		t.evals += a.evals
		t.hits += a.hits
		t.merged += a.merged
		t.clamped += a.clamped
		t.buckets += a.buckets
		t.filterEvals += a.filterEvals
	}
	return t
}

// coreValues fills the rejection-loop metrics.
func (t opStats) coreValues(v map[string]float64) {
	v["core.rounds_per_draw"] = ratio(t.rounds, t.draws)
	v["core.accept_ratio"] = ratio(t.found, t.rounds)
	v["core.memo_hit_ratio"] = ratio(t.hits, t.hits+t.evals)
	v["core.merged_frac"] = ratio(t.merged, t.ops)
	v["core.clamped_frac"] = ratio(t.clamped, t.ops)
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
