package core

// Tests for the batched candidate-scoring seam: Space.ScoreSqBatch routed
// through rankedBase.keepNear (Section 4) and the blocked existence scan
// of the Section 5 sampler. The seam's contract is that batching changes
// cost, never output: within one build the batched and per-candidate
// paths must produce bit-identical sample streams and identical counters,
// and the accelerated kernel tier must either reproduce the portable
// stream exactly or — where last-bit FP divergence flips a verdict — keep
// the output distribution uniform on the ball (the chi-squared oracle the
// repo uses for every stream-affecting change).

import (
	"slices"
	"testing"

	"fairnn/internal/lsh"
	"fairnn/internal/stats"
	"fairnn/internal/vector"
)

// euclideanBall adapts the planted inner-product workload to the ℓ2
// space: unit vectors satisfy ‖p−q‖² = 2−2⟨p,q⟩, so the radius-r ball at
// r = √(2−2α) is exactly the planted ⟨p,q⟩ ≥ α ball.
func euclideanBall(t *testing.T, seed uint64) ([]vector.Vec, vector.Vec, float64) {
	t.Helper()
	w := plantedWorkload(t, 400, 24, 60, 0.8, 0.3, seed)
	radius := 0.632455532033676 // √(2−2·0.8), strictly separating ball and band
	return w.Points, w.Query, radius
}

// newEuclideanIndependent builds the Section 4 sampler over the ℓ2 space,
// optionally with the batch seam stripped (ScoreSqBatch = nil), so the
// batched and per-candidate scoring paths can be compared on otherwise
// identical structures.
func newEuclideanIndependent(t *testing.T, batch bool, seed uint64) (*Independent[vector.Vec], vector.Vec) {
	t.Helper()
	pts, q, radius := euclideanBall(t, 307)
	space := Euclidean()
	if !batch {
		space.ScoreSqBatch = nil
	}
	d, err := NewIndependent[vector.Vec](space, lsh.Euclidean{Dim: len(q), W: 2 * radius}, lsh.Params{K: 2, L: 12}, pts, radius, IndependentOptions{}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return d, q
}

// TestBatchSeamIdenticalStreams pins the seam's core invariant: stripping
// ScoreSqBatch (forcing per-candidate nearCached) changes neither any
// sample nor any counter.
func TestBatchSeamIdenticalStreams(t *testing.T) {
	// The subtest is named for the compact memo table it runs on.
	t.Run("compact", func(t *testing.T) {
		batched, q := newEuclideanIndependent(t, true, 311)
		plain, _ := newEuclideanIndependent(t, false, 311)
		sawBatch := false
		for i := 0; i < 150; i++ {
			var bst, pst QueryStats
			gotID, gotOK := batched.Sample(q, &bst)
			wantID, wantOK := plain.Sample(q, &pst)
			if gotID != wantID || gotOK != wantOK {
				t.Fatalf("Sample #%d: batched (%d, %v), plain (%d, %v)", i, gotID, gotOK, wantID, wantOK)
			}
			if bst.ScoreEvals != pst.ScoreEvals || bst.ScoreCacheHits != pst.ScoreCacheHits ||
				bst.PointsInspected != pst.PointsInspected || bst.MemoProbes != pst.MemoProbes {
				t.Fatalf("Sample #%d counters diverged: batched %+v, plain %+v", i, bst, pst)
			}
			if pst.BatchScored != 0 {
				t.Fatalf("plain path reported BatchScored = %d", pst.BatchScored)
			}
			if bst.BatchScored > bst.ScoreEvals {
				t.Fatalf("BatchScored %d exceeds ScoreEvals %d", bst.BatchScored, bst.ScoreEvals)
			}
			sawBatch = sawBatch || bst.BatchScored > 0
		}
		for i := 0; i < 25; i++ {
			var bst QueryStats
			got := batched.SampleK(q, 20, &bst)
			want := plain.SampleK(q, 20, nil)
			if !slices.Equal(got, want) {
				t.Fatalf("SampleK #%d: batched %v, plain %v", i, got, want)
			}
			sawBatch = sawBatch || bst.BatchScored > 0
		}
		if !sawBatch {
			t.Error("batched structure never exercised the batch path (BatchScored stayed 0)")
		}
	})
}

// TestKeepNearMatchesNearCached is the direct parity test of the
// two-pass block filter against the per-candidate memoized path: same
// verdicts, same counters, same memo contents afterwards — for block
// sizes on either side of batchMinCandidates.
func TestKeepNearMatchesNearCached(t *testing.T) {
	// The subtest is named for the compact memo table it runs on.
	t.Run("compact", func(t *testing.T) {
		a, q := newEuclideanIndependent(t, true, 313)
		b, _ := newEuclideanIndependent(t, true, 313)
		for _, block := range []int{1, batchMinCandidates - 1, batchMinCandidates, 64, 400} {
			qa, qb := a.base.getQuerier(), b.base.getQuerier()
			var sta, stb QueryStats
			ids := make([]int32, 0, block)
			for id := 0; id < block && id < a.N(); id++ {
				ids = append(ids, int32(id))
			}
			// Repeat the block so the second pass hits the memo.
			for pass := 0; pass < 2; pass++ {
				got := a.base.keepNear(q, qa, slices.Clone(ids), &sta)
				want := qb.cand[:0]
				for _, id := range ids {
					if b.base.nearCached(q, qb, id, &stb) {
						want = append(want, id)
					}
				}
				qb.cand = want[:0]
				if !slices.Equal(got, want) {
					t.Fatalf("block %d pass %d: keepNear %v, nearCached %v", block, pass, got, want)
				}
				if sta.ScoreEvals != stb.ScoreEvals || sta.ScoreCacheHits != stb.ScoreCacheHits || sta.MemoProbes != stb.MemoProbes {
					t.Fatalf("block %d pass %d counters diverged: keepNear %+v, nearCached %+v", block, pass, sta, stb)
				}
			}
			a.base.putQuerier(qa)
			b.base.putQuerier(qb)
		}
	})
}

// TestAccelVsPortableStreams compares whole sample streams across kernel
// tiers. The tiers' FP reduction orders differ, so bit-equality of the
// streams is expected but not guaranteed; when they diverge, the
// accelerated stream must still be uniform on the sampled support
// (p ≥ 1e-4 under the chi-squared oracle), which is the actual
// correctness contract of the sampler.
func TestAccelVsPortableStreams(t *testing.T) {
	if !vector.AccelAvailable() {
		t.Skip("accelerated kernels unavailable in this build")
	}
	prev := vector.Accelerated()
	t.Cleanup(func() { vector.SetAccelerated(prev) })

	const draws = 400
	vector.SetAccelerated(false)
	portable, q := newEuclideanIndependent(t, true, 317)
	portableStream := portable.SampleK(q, draws, nil)

	vector.SetAccelerated(true)
	accel, _ := newEuclideanIndependent(t, true, 317)
	accelStream := accel.SampleK(q, draws, nil)

	if slices.Equal(portableStream, accelStream) {
		return // bit-identical across tiers — the strong outcome
	}
	t.Logf("streams diverged across kernel tiers; falling back to the chi-squared oracle")
	freq := stats.NewFrequency()
	const reps = 20000
	for i := 0; i < reps; i++ {
		id, ok := accel.Sample(q, nil)
		if !ok {
			t.Fatal("accelerated sampler failed on the planted ball")
		}
		freq.Observe(id)
	}
	// The support of the portable stream is the recalled ball of this
	// build (every recalled near point appears with overwhelming
	// probability in 20k draws); the accelerated sampler must be uniform
	// over it.
	support := slices.Clone(portableStream)
	for i := 0; i < reps; i++ {
		id, ok := portable.Sample(q, nil)
		if !ok {
			t.Fatal("portable sampler failed on the planted ball")
		}
		support = append(support, id)
	}
	slices.Sort(support)
	domain := slices.Compact(support)
	if _, p := freq.ChiSquareUniform(domain); p < 1e-4 {
		t.Errorf("accelerated stream not uniform on the recalled ball: p = %v", p)
	}
}

// TestFilterAccelVsPortableStreams is the Section 5 analogue: the blocked
// existence scan plus batched signing must reproduce the portable stream
// across kernel tiers, or stay uniform on the recalled ball (which the
// filter structure exposes exactly via RecalledBall).
func TestFilterAccelVsPortableStreams(t *testing.T) {
	if !vector.AccelAvailable() {
		t.Skip("accelerated kernels unavailable in this build")
	}
	prev := vector.Accelerated()
	t.Cleanup(func() { vector.SetAccelerated(prev) })

	w := plantedWorkload(t, 300, 16, 40, 0.8, 0.5, 331)
	mk := func() *FilterIndependent {
		fi, err := NewFilterIndependent(w.Points, 0.8, 0.5, FilterIndependentOptions{}, 337)
		if err != nil {
			t.Fatal(err)
		}
		return fi
	}
	const draws = 400
	vector.SetAccelerated(false)
	portable := mk()
	portableStream := portable.SampleK(w.Query, draws, nil)

	vector.SetAccelerated(true)
	accel := mk()
	accelStream := accel.SampleK(w.Query, draws, nil)

	if slices.Equal(portableStream, accelStream) {
		return
	}
	t.Logf("filter streams diverged across kernel tiers; falling back to the chi-squared oracle")
	domain := accel.RecalledBall(w.Query, nil)
	if len(domain) == 0 {
		t.Fatal("empty recalled ball")
	}
	freq := stats.NewFrequency()
	for i := 0; i < 20000; i++ {
		id, ok := accel.Sample(w.Query, nil)
		if !ok {
			t.Fatal("accelerated filter sampler failed on the planted ball")
		}
		freq.Observe(id)
	}
	if _, p := freq.ChiSquareUniform(domain); p < 1e-4 {
		t.Errorf("accelerated filter stream not uniform on the recalled ball: p = %v", p)
	}
}
