package main

import (
	"math/rand/v2"
	"time"

	"fairnn/internal/core"
)

// armProbe accumulates one-call-at-a-time timings of the Section 4
// layers of an Independent structure, taken outside the load phase.
type armProbe struct {
	arm, seg                 time.Duration
	arms, segs, buckets, ids int
}

// segsPerPlan is how many seeded segments each armed plan reports.
const segsPerPlan = 8

// probeArm arms a plan for q (resolve + count-distinct estimate), times
// segsPerPlan seeded segment reports on it, and takes one full-range
// report on a freshly armed plan (see recalledNear). It returns the
// estimate ŝ and the number of near points the structure recalls for q.
func probeArm[P any](a *armProbe, idx *core.Independent[P], q P, r *rand.Rand) (est float64, recalled int) {
	var plan core.ShardPlan[P]
	var st core.QueryStats
	t0 := time.Now()
	idx.BeginShardPlan(&plan, q, &st)
	a.arm += time.Since(t0)
	a.arms++
	a.buckets += st.BucketsScanned
	est = plan.Estimate()
	if k := plan.Segments(); k > 0 {
		for s := 0; s < segsPerPlan; s++ {
			h := r.IntN(k)
			t0 := time.Now()
			plan.SegmentNearAt(h, k, &st)
			a.seg += time.Since(t0)
			a.segs++
		}
	}
	plan.Close()
	ids, inspected := recalledNear(idx, q)
	a.ids += inspected
	return est, len(ids)
}

// recalledNear returns the distinct near points of q that collide with
// it in some table (shard-local ids): the support of the structure's
// draws for q. It takes them from one full-range segment report on a
// freshly armed plan, whose PointsInspected also counts the bucket
// entries colliding with q, which are the ids the count-distinct
// estimate hashes when no bucket holds a stored sketch.
func recalledNear[P any](idx *core.Independent[P], q P) (ids []int32, inspected int) {
	var plan core.ShardPlan[P]
	var st core.QueryStats
	idx.BeginShardPlan(&plan, q, &st)
	st.PointsInspected = 0
	n := plan.SegmentNearAt(0, 1, &st)
	for i := 0; i < n; i++ {
		ids = append(ids, plan.PickAt(i))
	}
	plan.Close()
	return ids, st.PointsInspected
}

// values fills the arm-side metrics; perQuery is how many probe arms
// make up one query (one per shard the query fans out to).
func (a *armProbe) values(v map[string]float64, perQuery int) {
	q := float64(a.arms) / float64(perQuery)
	v["core.arm_ms"] = ms(a.arm) / float64(a.arms)
	v["rank.segment_us"] = 1000 * ms(a.seg) / float64(max(a.segs, 1))
	v["lsh.buckets_per_query"] = float64(a.buckets) / q
	v["sketch.ids_per_query"] = float64(a.ids) / q
}

// signUs times Signer.Sign over the queries, in microseconds per call.
func signUs[P any](sign func(P), queries []P, passes int) float64 {
	t0 := time.Now()
	for pass := 0; pass < passes; pass++ {
		for _, q := range queries {
			sign(q)
		}
	}
	return 1000 * ms(time.Since(t0)) / float64(passes*len(queries))
}
