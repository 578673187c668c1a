package main

import (
	"fmt"
	"sync"

	"fairnn"
	"fairnn/internal/stats"
)

// The uniformity check: after the timed phase, chiQueries seeded
// queries each get chiDrawsPerCell draws per point of their exact ball,
// and a chi-squared test against the uniform distribution over the ball
// must not reject at chiAlpha. The level is small enough that a correct
// sampler essentially never fails it, while a sampler biased the way
// plain LSH is (toward the closest points) fails it at once.
const (
	chiQueries      = 3
	chiDrawsPerCell = 10
	chiAlpha        = 1e-6
)

// checkUniform records a violation when got falls well short of want
// draws or is not uniform over ball (an id outside ball counts against
// uniformity). ball is the query's exact ball, or on served the part of
// it the fleet recalls.
func checkUniform(rep *report, what string, ball, got []int32, want int) {
	if len(ball) == 0 {
		rep.violate("%s: empty ball in the uniformity check", what)
		return
	}
	if len(got) < want*9/10 {
		rep.violate("%s: only %d of %d uniformity-check draws returned a sample", what, len(got), want)
		return
	}
	freq := stats.NewFrequency()
	for _, id := range got {
		freq.Observe(id)
	}
	chi2, p := freq.ChiSquareUniform(ball)
	fmt.Printf("uniformity: %s ball=%d draws=%d chi2=%.1f p=%.3g\n", what, len(ball), len(got), chi2, p)
	if p < chiAlpha {
		rep.violate("%s: draws are not uniform over the ball (chi2=%.1f over %d cells, p=%.3g)", what, chi2, len(ball), p)
	}
}

// counterValue reads a layer-labelled counter back out of reg.
func counterValue(reg *fairnn.Registry, name, layer string) uint64 {
	return reg.Counter(name, fairnn.MetricLabels("layer", layer), "").Value()
}

// record adds a load phase's op counts and its correctness violation.
func (r *report) record(ls loadStats) {
	if ls.err != nil {
		r.violate("%v", ls.err)
	}
	r.attempted += ls.attempted
	r.failed += ls.failed
	fmt.Printf("load: %d ops (%d failed, fail_frac %.4g) in %.2fs\n",
		ls.attempted, ls.failed, ratio(ls.failed, ls.attempted), ls.elapsed.Seconds())
}

// crossCheck compares the draw-loop counters a layer exported into reg
// (net of the readings found0/draws0 taken before the traced ops) with
// the benchmark's own counts of the traced ops.
func (r *report) crossCheck(reg *fairnn.Registry, layer string, found0, draws0 uint64, tot opStats) {
	found := counterValue(reg, "fairnn_draws_found_total", layer) - found0
	draws := counterValue(reg, "fairnn_draws_total", layer) - draws0
	fmt.Printf("obs cross-check (%s): fairnn_draws_found_total %d, counted %d; fairnn_draws_total %d, counted %d\n",
		layer, found, tot.found, draws, tot.draws)
	if found != uint64(tot.found) || draws != uint64(tot.draws) {
		r.violate("obs counters of layer %s disagree with the benchmark's counts", layer)
	}
}

// drawConcurrently collects n draws from draw(k), which returns up to k
// draws, split across the load's client goroutines.
func drawConcurrently(n int, draw func(k int) []int32) []int32 {
	parts := make([][]int32, clients)
	var wg sync.WaitGroup
	for c := range parts {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			parts[c] = draw(n/clients + boolInt(c < n%clients))
		}(c)
	}
	wg.Wait()
	var out []int32
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}
