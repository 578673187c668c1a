package fairnn_test

import (
	"testing"

	"fairnn"
	"fairnn/internal/dataset"
)

// This file pins the observability contract at the façade: an attached
// telemetry registry changes cost only, never output (same-seed sample
// streams stay bit-identical to an unobserved twin), and a fully
// enabled registry keeps the Sample hot path allocation-free.

// drawStats pulls n Sample ids with a reused QueryStats for stream +
// stats comparison.
func drawStats[P any](s fairnn.Sampler[P], q P, n int) ([]int32, fairnn.QueryStats) {
	out := make([]int32, 0, n)
	var st fairnn.QueryStats
	for i := 0; i < n; i++ {
		if id, ok := s.Sample(q, &st); ok {
			out = append(out, id)
		} else {
			out = append(out, -1)
		}
	}
	return out, st
}

// TestObserveBitEquivalence builds twin samplers — one bare, one with a
// live registry (and, where sharded, trace sampling) — over every
// instrumented construction, and requires identical
// sample streams and per-query counters. The registry must also have
// actually recorded draws, so the test cannot pass with telemetry
// silently disconnected.
func TestObserveBitEquivalence(t *testing.T) {
	sets, q := smallSets()
	w := dataset.NewPlantedBall(dataset.PlantedBallConfig{
		N: 400, Dim: 24, Alpha: 0.8, Beta: 0.4, BallSize: 12, MidSize: 40, Seed: 9,
	})
	const draws = 200

	check := func(t *testing.T, got, want []int32, gotSt, wantSt fairnn.QueryStats) {
		t.Helper()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("draw %d diverged: observed %d, bare %d", i, got[i], want[i])
			}
		}
		if gotSt.Rounds != wantSt.Rounds || gotSt.ScoreEvals != wantSt.ScoreEvals ||
			gotSt.ScoreCacheHits != wantSt.ScoreCacheHits || gotSt.BatchScored != wantSt.BatchScored {
			t.Fatalf("final QueryStats diverged: observed {rounds=%d evals=%d hits=%d batch=%d}, bare {rounds=%d evals=%d hits=%d batch=%d}",
				gotSt.Rounds, gotSt.ScoreEvals, gotSt.ScoreCacheHits, gotSt.BatchScored,
				wantSt.Rounds, wantSt.ScoreEvals, wantSt.ScoreCacheHits, wantSt.BatchScored)
		}
	}
	recorded := func(t *testing.T, reg *fairnn.Registry, layer string) {
		t.Helper()
		c := reg.Counter("fairnn_draws_total", fairnn.MetricLabels("layer", layer), "")
		if c.Value() == 0 {
			t.Fatalf("registry recorded no draws for layer %q", layer)
		}
	}

	// The unsharded cases are named for the compact memo table they run on.
	t.Run("set-nnis-compact", func(t *testing.T) {
		bare, err := fairnn.NewSet(sets, fairnn.Radius(0.6), fairnn.WithSeed(23))
		if err != nil {
			t.Fatal(err)
		}
		reg := fairnn.NewRegistry()
		obsd, err := fairnn.NewSet(sets, fairnn.Radius(0.6), fairnn.WithSeed(23), fairnn.Observe(reg))
		if err != nil {
			t.Fatal(err)
		}
		want, wantSt := drawStats[fairnn.Set](bare, q, draws)
		got, gotSt := drawStats[fairnn.Set](obsd, q, draws)
		check(t, got, want, gotSt, wantSt)
		recorded(t, reg, "core")
	})
	t.Run("vec-filter-compact", func(t *testing.T) {
		bare, err := fairnn.NewVec(w.Points, fairnn.Radius(0.8), fairnn.Algorithm(fairnn.Filter),
			fairnn.WithBeta(0.4), fairnn.WithSeed(47))
		if err != nil {
			t.Fatal(err)
		}
		reg := fairnn.NewRegistry()
		obsd, err := fairnn.NewVec(w.Points, fairnn.Radius(0.8), fairnn.Algorithm(fairnn.Filter),
			fairnn.WithBeta(0.4), fairnn.WithSeed(47), fairnn.Observe(reg))
		if err != nil {
			t.Fatal(err)
		}
		want, wantSt := drawStats[fairnn.Vec](bare, w.Query, draws)
		got, gotSt := drawStats[fairnn.Vec](obsd, w.Query, draws)
		check(t, got, want, gotSt, wantSt)
		recorded(t, reg, "filter")
	})

	for _, S := range []int{1, 4} {
		t.Run(map[int]string{1: "sharded-1", 4: "sharded-4"}[S], func(t *testing.T) {
			bare, err := fairnn.NewSet(sets, fairnn.Radius(0.6), fairnn.WithSeed(31), fairnn.WithShards(S))
			if err != nil {
				t.Fatal(err)
			}
			reg := fairnn.NewRegistry()
			obsd, err := fairnn.NewSet(sets, fairnn.Radius(0.6), fairnn.WithSeed(31), fairnn.WithShards(S),
				fairnn.Observe(reg), fairnn.WithTraceSampling(3))
			if err != nil {
				t.Fatal(err)
			}
			want, wantSt := drawStats[fairnn.Set](bare, q, draws)
			got, gotSt := drawStats[fairnn.Set](obsd, q, draws)
			check(t, got, want, gotSt, wantSt)
			recorded(t, reg, "shard")
			trc := reg.Tracer()
			if trc == nil {
				t.Fatal("WithTraceSampling left the registry without a tracer")
			}
			if trc.Sampled() == 0 {
				t.Fatalf("no query traced across %d draws at everyN=3", draws)
			}
			if len(trc.Recent()) == 0 {
				t.Fatal("trace ring is empty despite sampled queries")
			}
		})
	}
}

// TestObserveSampleZeroAlloc is the cost half of the contract: with a
// fully enabled metrics registry attached, the steady-state Sample path
// still performs zero heap allocations — instruments are preallocated at
// registration and recording is lock-free.
func TestObserveSampleZeroAlloc(t *testing.T) {
	sets, q := smallSets()
	var st fairnn.QueryStats

	reg := fairnn.NewRegistry()
	s, err := fairnn.NewSet(sets, fairnn.Radius(0.6), fairnn.WithSeed(23), fairnn.Observe(reg))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ { // warm the pooled querier
		s.Sample(q, &st)
	}
	if n := testing.AllocsPerRun(200, func() { s.Sample(q, &st) }); n != 0 {
		t.Errorf("unsharded observed Sample allocates %v/op, want 0", n)
	}

	sreg := fairnn.NewRegistry()
	sh, err := fairnn.NewSet(sets, fairnn.Radius(0.6), fairnn.WithSeed(31), fairnn.WithShards(4), fairnn.Observe(sreg))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		sh.Sample(q, &st)
	}
	if n := testing.AllocsPerRun(200, func() { sh.Sample(q, &st) }); n != 0 {
		t.Errorf("sharded observed Sample allocates %v/op, want 0", n)
	}
	if c := sreg.Counter("fairnn_draws_total", fairnn.MetricLabels("layer", "shard"), ""); c.Value() == 0 {
		t.Fatal("alloc oracle ran with an idle registry")
	}
}

// TestClampedDrawsExported pins fairnn_draws_clamped_total: every draw
// whose QueryStats reports a clamped acceptance probability is counted
// once under its layer — the weighted sampler's weight above wMax, and a
// λ too small for the Section 4 segment counts, unsharded and sharded —
// and a construction that never clamps leaves the counter at zero.
func TestClampedDrawsExported(t *testing.T) {
	sets, q := smallSets()
	tiny := fairnn.WithIndependentOptions(fairnn.IndependentOptions{Lambda: 1})
	for _, tc := range []struct {
		name, layer string
		opts        []fairnn.Option
		wantClamps  bool
	}{
		{"weighted-over-wmax", "core", []fairnn.Option{fairnn.Algorithm(fairnn.Weighted),
			fairnn.WithWeight(func(float64) float64 { return 2 }, 1)}, true},
		{"weighted-within-wmax", "core", []fairnn.Option{fairnn.Algorithm(fairnn.Weighted),
			fairnn.WithWeight(func(sim float64) float64 { return sim }, 1)}, false},
		{"nnis-tiny-lambda", "core", []fairnn.Option{tiny}, true},
		{"sharded-tiny-lambda", "shard", []fairnn.Option{tiny, fairnn.WithShards(1)}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := fairnn.NewRegistry()
			opts := append([]fairnn.Option{fairnn.Radius(0.6), fairnn.WithSeed(19), fairnn.Observe(reg)}, tc.opts...)
			s, err := fairnn.NewSet(sets, opts...)
			if err != nil {
				t.Fatal(err)
			}
			clamped := 0
			for i := 0; i < 200; i++ {
				var st fairnn.QueryStats
				if _, ok := s.Sample(q, &st); !ok {
					t.Fatal("no sample")
				}
				if st.Clamped {
					clamped++
				}
			}
			got := reg.Counter("fairnn_draws_clamped_total", fairnn.MetricLabels("layer", tc.layer), "").Value()
			if got != uint64(clamped) {
				t.Fatalf("fairnn_draws_clamped_total{layer=%q} = %d, want %d (QueryStats.Clamped draws)", tc.layer, got, clamped)
			}
			if (clamped > 0) != tc.wantClamps {
				t.Fatalf("%d of 200 draws clamped; want clamps = %v", clamped, tc.wantClamps)
			}
		})
	}
}
