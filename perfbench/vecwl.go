package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"fairnn"
	"fairnn/internal/core"
	"fairnn/internal/dataset"
	"fairnn/internal/vector"
)

// The vec-filter workload: a Section 5 VecIndependent over topic-clustered
// recommender embeddings (4000 items, d=128, 16 topics), queried by
// generated user vectors: every one of the vecUsers whose ball is not
// empty, in a seeded order, so the mix of query costs is the same for
// every seed.
const (
	vecItems     = 4000
	vecUsers     = 2048
	vecDim       = 128
	vecTopics    = 16
	vecSpread    = 0.08
	vecAlpha     = 0.6
	vecBeta      = 0.35
	vecDataSeed  = 0xe3b
	vecIndexSeed = 0xf17
	vecWarmup    = 32
	// vecPlanProbes is how many pool queries the filter plan probe times.
	vecPlanProbes = 64
	// vecSlack absorbs rounding differences between the index's batched
	// kernels and the check's own dot product at the α boundary.
	vecSlack = 1e-9
)

type vecFixture struct {
	items []fairnn.Vec
	pool  []fairnn.Vec // query user vectors, each with a non-empty ball
	balls [][]int32
}

func newVecFixture(seed uint64) (*vecFixture, error) {
	e := dataset.NewEmbeddings(dataset.EmbeddingsConfig{
		Items: vecItems, Users: vecUsers, Dim: vecDim, Topics: vecTopics, Spread: vecSpread, Seed: vecDataSeed,
	})
	f := &vecFixture{items: e.Items}
	exact := fairnn.NewVecExact(f.items, vecAlpha, 1)
	for _, u := range clientRand(seed, "vec-pool", 0).Perm(len(e.Users)) {
		ball := exact.Ball(e.Users[u], nil)
		if len(ball) == 0 {
			continue
		}
		f.pool = append(f.pool, e.Users[u])
		f.balls = append(f.balls, ball)
	}
	if len(f.pool) == 0 {
		return nil, errors.New("no user vector has a non-empty ball")
	}
	return f, nil
}

func buildVecIndex(f *vecFixture, reg *fairnn.Registry) (*fairnn.VecIndependent, error) {
	return fairnn.NewVecIndependent(f.items, vecAlpha, vecBeta, fairnn.VecOptions{Obs: reg}, vecIndexSeed)
}

func runVec(cfg runConfig) (*report, error) {
	f, err := newVecFixture(cfg.seed)
	if err != nil {
		return nil, err
	}
	var setup, mb []float64
	var idx *fairnn.VecIndependent
	for i := 0; i < setupRounds; i++ {
		secs, heap, keep, err := measureBuild(func() (any, error) { return buildVecIndex(f, nil) })
		if err != nil {
			return nil, err
		}
		setup, mb, idx = append(setup, secs), append(mb, heap), keep.(*fairnn.VecIndependent)
	}
	fmt.Printf("setup: %d items d=%d, %d pool queries, ball sizes %s, %d banks\n",
		len(f.items), vecDim, len(f.pool), sizeRange(f.balls), idx.Banks())

	op := func(idx *fairnn.VecIndependent, acc []opStats) opFunc {
		return func(c int, r *rand.Rand) outcome {
			qi := r.IntN(len(f.pool))
			q := f.pool[qi]
			var st *core.QueryStats
			if acc != nil {
				st = &core.QueryStats{}
			}
			o := outcome{start: time.Now()}
			id, ok := idx.Sample(q, st)
			o.end = time.Now()
			o.failed = !ok
			if ok {
				if s := fairnn.Dot(f.items[id], q); s < vecAlpha-vecSlack {
					o.err = fmt.Errorf("far answer: item %d at similarity %.6f < α=%g", id, s, vecAlpha)
				}
			}
			if acc != nil {
				acc[c].add(st, 1, boolInt(ok))
			}
			return o
		}
	}
	warm := func(idx *fairnn.VecIndependent) {
		r, run := clientRand(cfg.seed, "warmup", 0), op(idx, nil)
		for range vecWarmup {
			run(0, r)
		}
	}
	warm(idx)

	rep := &report{}
	if !cfg.trace {
		ls := closedLoop(cfg.seed, "load", clients, cfg.dur, op(idx, nil))
		rep.record(ls)
		rep.values = e2eValues(setup, mb, ls)
	} else {
		reg := fairnn.NewRegistry()
		obsIdx, err := buildVecIndex(f, reg)
		if err != nil {
			return nil, err
		}
		warm(obsIdx)
		found0 := counterValue(reg, "fairnn_draws_found_total", "filter")
		draws0 := counterValue(reg, "fairnn_draws_total", "filter")
		acc := make([]opStats, clients)
		plain, traced := alternate(cfg.dur/2, closedPhase(cfg.seed, op(idx, nil)), closedPhase(cfg.seed, op(obsIdx, acc)))
		rep.record(plain)
		rep.record(traced)
		tot := sumStats(acc)
		v := newLayerValues()
		tot.coreValues(v)
		v["obs.overhead_frac"] = 1 - traced.throughput()/plain.throughput()
		v["vector.score_evals_per_draw"] = ratio(tot.evals, tot.draws)
		v["filter.evals_per_query"] = ratio(tot.filterEvals, tot.ops)
		v["filter.buckets_per_query"] = ratio(tot.buckets, tot.ops)
		probeVecLayers(f, idx, v)
		v["core.retained_scratch_kb"] = float64(idx.RetainedScratchBytes()) / 1024
		rep.values = v
		rep.crossCheck(reg, "filter", found0, draws0, tot)
		fmt.Printf("trace: %d plain ops at %.1f/s, %d traced ops at %.1f/s\n",
			plain.attempted, plain.throughput(), traced.attempted, traced.throughput())
	}

	// SampleK builds the deterministic query plan once and runs Sample's
	// rejection loop per draw, so its draws share Sample's distribution.
	for qi := 0; qi < min(chiQueries, len(f.pool)); qi++ {
		n := chiDrawsPerCell * len(f.balls[qi])
		got := idx.SampleK(f.pool[qi], n, nil)
		checkUniform(rep, fmt.Sprintf("vec pool query %d", qi), f.balls[qi], got, n)
	}
	return rep, nil
}

// probeVecLayers times the Section 5 filter plan (RecalledBall: filter
// evaluation plus bucket enumeration) on every pool query, and the
// vector dot kernel at the workload's d.
func probeVecLayers(f *vecFixture, idx *fairnn.VecIndependent, v map[string]float64) {
	probes := f.pool[:min(vecPlanProbes, len(f.pool))]
	var plan time.Duration
	for _, q := range probes {
		var st core.QueryStats
		t0 := time.Now()
		idx.RecalledBall(q, &st)
		plan += time.Since(t0)
	}
	v["filter.plan_ms"] = ms(plan) / float64(len(probes))

	// The dot probe cycles over 16 items and 16 queries (32 KiB at d=128),
	// so it times the kernel rather than memory.
	const dots, span = 1 << 20, 16
	sink := 0.0
	t0 := time.Now()
	for i := 0; i < dots; i++ {
		sink += vector.Dot(f.items[i%span], f.pool[(i/span)%min(span, len(f.pool))])
	}
	el := time.Since(t0)
	if sink == 0 {
		fmt.Println("dot probe: zero sum")
	}
	v["vector.dot_ns"] = float64(el.Nanoseconds()) / dots
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
