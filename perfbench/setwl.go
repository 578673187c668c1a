package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"fairnn"
	"fairnn/internal/core"
	"fairnn/internal/dataset"
	"fairnn/internal/lsh"
	"fairnn/internal/rng"
)

// The set-sample workload: the Last.FM-like user sets (1892 users) in a
// Section 4 SetIndependent at Jaccard radius 0.2, queried by
// "interesting" users (at least setMinNeighbours other users at
// J ≥ 0.2) drawn from the seed. The pool holds every interesting user
// in a seeded order, so the mix of query costs is the same for every
// seed; the seed picks the op sequence and which users the warm-up,
// the probes and the uniformity check take (the head of the pool).
const (
	setRadius        = 0.2
	setMinNeighbours = 20
	setIndexSeed     = 0x5e75
	// setProbeQueries is how many pool queries the warm-up and the
	// traced layer probes run.
	setProbeQueries = 128
)

// setFixture is the generated input of set-sample.
type setFixture struct {
	sets  []fairnn.Set
	pool  []int     // query users
	balls [][]int32 // exact ball of each pool query
}

func newSetFixture(seed uint64) (*setFixture, error) {
	f := &setFixture{sets: dataset.Generate(dataset.LastFMLike())}
	f.pool = dataset.InterestingQueries(f.sets, setRadius, setMinNeighbours, len(f.sets), seed)
	if len(f.pool) == 0 {
		return nil, errors.New("no interesting set queries")
	}
	exact := fairnn.NewSetExact(f.sets, setRadius, 1)
	for _, u := range f.pool {
		f.balls = append(f.balls, exact.Ball(f.sets[u], nil))
	}
	return f, nil
}

func buildSetIndex(f *setFixture, reg *fairnn.Registry) (*fairnn.SetIndependent, error) {
	return fairnn.NewSetIndependent(f.sets, setRadius, fairnn.IndependentOptions{Obs: reg}, fairnn.Config{Seed: setIndexSeed})
}

// runSet runs set-sample: one Sample per op.
func runSet(cfg runConfig) (*report, error) {
	f, err := newSetFixture(cfg.seed)
	if err != nil {
		return nil, err
	}
	var setup, mb []float64
	var idx *fairnn.SetIndependent
	for i := 0; i < setupRounds; i++ {
		secs, heap, keep, err := measureBuild(func() (any, error) { return buildSetIndex(f, nil) })
		if err != nil {
			return nil, err
		}
		setup, mb, idx = append(setup, secs), append(mb, heap), keep.(*fairnn.SetIndependent)
	}
	fmt.Printf("setup: %d users, %d pool queries, ball sizes %s, params %+v\n",
		len(f.sets), len(f.pool), sizeRange(f.balls), idx.Params())

	rep := &report{}
	// op draws from idx; with acc non-nil it also collects QueryStats.
	op := func(idx *fairnn.SetIndependent, acc []opStats) opFunc {
		return func(c int, r *rand.Rand) outcome {
			qi := r.IntN(len(f.pool))
			q := f.sets[f.pool[qi]]
			var st *core.QueryStats
			if acc != nil {
				st = &core.QueryStats{}
			}
			o := outcome{start: time.Now()}
			id, ok := idx.Sample(q, st)
			o.end = time.Now()
			o.failed = !ok
			if ok {
				if j := fairnn.Jaccard(f.sets[id], q); j < setRadius {
					o.err = fmt.Errorf("far answer: user %d at J=%.4f from query user %d", id, j, f.pool[qi])
				}
			}
			if acc != nil {
				acc[c].add(st, 1, boolInt(ok))
			}
			return o
		}
	}
	warm := func(idx *fairnn.SetIndependent) {
		r, run := clientRand(cfg.seed, "warmup", 0), op(idx, nil)
		for range min(setProbeQueries, len(f.pool)) {
			run(0, r)
		}
	}
	warm(idx)

	if !cfg.trace {
		ls := closedLoop(cfg.seed, "load", clients, cfg.dur, op(idx, nil))
		rep.record(ls)
		rep.values = e2eValues(setup, mb, ls)
	} else {
		reg := fairnn.NewRegistry()
		obsIdx, err := buildSetIndex(f, reg)
		if err != nil {
			return nil, err
		}
		warm(obsIdx)
		// Warm-up draws went into the registry; the cross-check counts
		// from here on.
		found0 := counterValue(reg, "fairnn_draws_found_total", "core")
		draws0 := counterValue(reg, "fairnn_draws_total", "core")
		acc := make([]opStats, clients)
		plain, traced := alternate(cfg.dur/2, closedPhase(cfg.seed, op(idx, nil)), closedPhase(cfg.seed, op(obsIdx, acc)))
		rep.record(plain)
		rep.record(traced)
		tot := sumStats(acc)
		v := newLayerValues()
		tot.coreValues(v)
		v["obs.overhead_frac"] = 1 - traced.throughput()/plain.throughput()
		probeSetLayers(cfg.seed, f, idx, v)
		v["core.retained_scratch_kb"] = float64(idx.RetainedScratchBytes()) / 1024
		rep.values = v

		rep.crossCheck(reg, "core", found0, draws0, tot)
		fmt.Printf("trace: %d plain ops at %.1f/s, %d traced ops at %.1f/s\n",
			plain.attempted, plain.throughput(), traced.attempted, traced.throughput())
	}

	chiSquareSet(f, idx, rep)
	return rep, nil
}

// probeSetLayers times the Section 4 layers one call at a time on the
// pool queries: the arm (resolve + count-distinct estimate), segment
// reports of the armed plans, and query signing.
func probeSetLayers(seed uint64, f *setFixture, idx *fairnn.SetIndependent, v map[string]float64) {
	const passes = 2
	r := clientRand(seed, "probe", 0)
	var a armProbe
	var estRatio, recall float64
	queries := make([]fairnn.Set, min(setProbeQueries, len(f.pool)))
	for qi := range queries {
		queries[qi] = f.sets[f.pool[qi]]
	}
	for pass := 0; pass < passes; pass++ {
		for qi, q := range queries {
			est, recalled := probeArm(&a, idx, q, r)
			estRatio += est / float64(len(f.balls[qi]))
			recall += float64(recalled) / float64(len(f.balls[qi]))
		}
	}
	a.values(v, 1)
	v["sketch.estimate_ratio"] = estRatio / float64(a.arms)
	v["lsh.recall"] = recall / float64(a.arms)

	p := idx.Params()
	signer := lsh.NewSigner[fairnn.Set](lsh.OneBitMinHash{}, p.K*p.L, rng.New(seed))
	out := make([]uint64, signer.Size())
	v["lsh.sign_us"] = signUs(func(q fairnn.Set) { signer.Sign(q, out) }, queries, 40)
}

// chiSquareSet draws from the first few pool queries (the pool order is
// seeded) and tests the draws for uniformity over the exact ball. The
// draws come from SampleK: it arms the query once and runs the same
// rejection loop as Sample for every draw, and arming is deterministic
// per query, so Sample and SampleK draw from the same distribution.
func chiSquareSet(f *setFixture, idx *fairnn.SetIndependent, rep *report) {
	for qi := 0; qi < min(chiQueries, len(f.pool)); qi++ {
		ball := f.balls[qi]
		n := chiDrawsPerCell * len(ball)
		got := idx.SampleK(f.sets[f.pool[qi]], n, nil)
		checkUniform(rep, fmt.Sprintf("set user %d", f.pool[qi]), ball, got, n)
	}
}

func sizeRange(balls [][]int32) string {
	lo, hi := -1, 0
	for _, b := range balls {
		if lo < 0 || len(b) < lo {
			lo = len(b)
		}
		hi = max(hi, len(b))
	}
	return fmt.Sprintf("%d..%d", lo, hi)
}
