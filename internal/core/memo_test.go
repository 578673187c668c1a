package core

// Tests for the memoized Section 4 rejection loop: the merged candidate
// cursor must report exactly the candidates the per-bucket range reports
// find, the epoch-stamped near-cache must bound distance evaluations
// without touching the output distribution, and the bulk SampleKInto path
// must stay allocation-free and race-clean.

import (
	"slices"
	"sync"
	"testing"

	"fairnn/internal/lsh"
	"fairnn/internal/rng"
	"fairnn/internal/stats"
)

// modFamily hashes ints by a per-function random modulus, giving each
// table genuinely different bucket contents (unlike allCollide) so the
// k-way merge and deduplication are exercised for real.
type modFamily struct{}

func (modFamily) New(r *rng.Source) lsh.Func[int] {
	m := 2 + r.Intn(4)
	return func(p int) uint64 { return uint64(p % m) }
}

func (modFamily) CollisionProb(float64) float64 { return 0.5 }

// TestSegmentNearMergedMatchesDirect pins the core equivalence of the
// merged cursor: for every segment [lo, hi), the merged view must report
// exactly the distinct near candidates that the legacy L-range-report
// path reports.
func TestSegmentNearMergedMatchesDirect(t *testing.T) {
	const n = 96
	d, err := NewIndependent[int](intSpace(), modFamily{}, lsh.Params{K: 1, L: 5}, lineDataset(n), 30, IndependentOptions{}, 71)
	if err != nil {
		t.Fatal(err)
	}
	segs := [][2]int32{{0, int32(n)}, {0, 7}, {5, 20}, {40, 41}, {90, 96}, {17, 17}, {60, 80}}

	direct := func(lo, hi int32) []int32 {
		qr := d.base.getQuerier()
		defer d.base.putQuerier(qr)
		d.base.resolve(0, qr, nil)
		if qr.isMerged {
			t.Fatal("fresh querier must start unmerged")
		}
		out := slices.Clone(d.segmentNear(0, qr, lo, hi, nil))
		slices.Sort(out)
		return out
	}
	merged := func(lo, hi int32) []int32 {
		qr := d.base.getQuerier()
		defer d.base.putQuerier(qr)
		d.base.resolve(0, qr, nil)
		d.base.materializeMerged(qr, nil)
		out := slices.Clone(d.segmentNear(0, qr, lo, hi, nil))
		slices.Sort(out)
		return out
	}
	for _, seg := range segs {
		want := direct(seg[0], seg[1])
		got := merged(seg[0], seg[1])
		if !slices.Equal(got, want) {
			t.Errorf("segment [%d,%d): merged %v, direct %v", seg[0], seg[1], got, want)
		}
	}
}

// TestMergedCursorDedupAndOrder checks the materialized view itself:
// strictly ascending ranks, no duplicate ids, and exactly the union of
// the resolved buckets.
func TestMergedCursorDedupAndOrder(t *testing.T) {
	const n = 80
	d, err := NewIndependent[int](intSpace(), modFamily{}, lsh.Params{K: 1, L: 4}, lineDataset(n), 10, IndependentOptions{}, 73)
	if err != nil {
		t.Fatal(err)
	}
	qr := d.base.getQuerier()
	defer d.base.putQuerier(qr)
	d.base.resolve(0, qr, nil)
	union := map[int32]bool{}
	for _, b := range qr.buckets {
		if b == nil {
			continue
		}
		for _, id := range b.IDs() {
			union[id] = true
		}
	}
	d.base.materializeMerged(qr, nil)
	if len(qr.mergedIDs) != len(union) {
		t.Fatalf("merged %d ids, union has %d", len(qr.mergedIDs), len(union))
	}
	for i, id := range qr.mergedIDs {
		if !union[id] {
			t.Errorf("merged id %d not in bucket union", id)
		}
		if qr.mergedRanks[i] != d.base.asg.Of(id) {
			t.Errorf("merged rank of %d is %d, want %d", id, qr.mergedRanks[i], d.base.asg.Of(id))
		}
		if i > 0 && qr.mergedRanks[i-1] >= qr.mergedRanks[i] {
			t.Errorf("ranks not strictly ascending at %d", i)
		}
	}
}

// TestResolveInvalidatesMergedCursor pins the epoch discipline: resolve
// must drop the previous query's merged view and restart the adaptive
// meter, so a pooled querier can never serve stale candidates.
func TestResolveInvalidatesMergedCursor(t *testing.T) {
	d := newLineIndependent(t, 64, 9, 81)
	qr := d.base.getQuerier()
	defer d.base.putQuerier(qr)
	d.base.resolve(0, qr, nil)
	d.base.materializeMerged(qr, nil)
	if !qr.isMerged {
		t.Fatal("materializeMerged did not mark the querier merged")
	}
	d.base.resolve(1, qr, nil)
	if qr.isMerged || qr.rangeWork != 0 {
		t.Errorf("resolve left merged=%v rangeWork=%d, want false/0", qr.isMerged, qr.rangeWork)
	}
	if qr.mergeCost <= 0 {
		t.Errorf("mergeCost = %d, want positive (non-empty buckets)", qr.mergeCost)
	}
}

// TestMemoizedDistributionPreserved is the seeded statistical regression
// for the memoization layers: Sample and SampleK frequencies over a fixed dataset must stay uniform on the exact ball
// (chi-squared), the support must equal the ball exactly, and the run
// must actually exercise the merged cursor and the near-cache (otherwise
// the test would vacuously pass on the legacy path).
func TestMemoizedDistributionPreserved(t *testing.T) {
	// The subtest is named for the compact memo table it runs on.
	t.Run("compact", func(t *testing.T) {
		const n, ballSize = 64, 8
		d, err := NewIndependent[int](intSpace(), allCollide{}, lsh.Params{K: 1, L: 3}, lineDataset(n), float64(ballSize-1), IndependentOptions{}, 83)
		if err != nil {
			t.Fatal(err)
		}
		domain := domainInts(ballSize)

		// Single-sample path.
		var st QueryStats
		freq := stats.NewFrequency()
		const reps = 20000
		for i := 0; i < reps; i++ {
			id, ok := d.Sample(0, &st)
			if !ok {
				t.Fatal("query failed with perfect recall")
			}
			if d.Point(id) > ballSize-1 {
				t.Fatalf("far point %d returned", d.Point(id))
			}
			freq.Observe(id)
		}
		if tv := tvUniform(freq, domain); tv > 0.03 {
			t.Errorf("Sample TV = %v, want < 0.03", tv)
		}
		if _, p := freq.ChiSquareUniform(domain); p < 1e-4 {
			t.Errorf("Sample chi-square rejects uniformity: p = %v", p)
		}
		if len(freq.Support()) != ballSize {
			t.Errorf("Sample support = %d, want the exact ball %d", len(freq.Support()), ballSize)
		}

		// Bulk path: SampleK draws share one near-cache epoch and (once the
		// meter trips) one merged cursor; the union over batches must stay
		// uniform and the memo layers must have fired.
		var kst QueryStats
		kfreq := stats.NewFrequency()
		dst := make([]int32, 0, 40)
		for i := 0; i < 1200; i++ {
			dst = d.SampleKInto(0, 40, dst, &kst)
			for _, id := range dst {
				if d.Point(id) > ballSize-1 {
					t.Fatalf("far point %d returned by SampleK", d.Point(id))
				}
				kfreq.Observe(id)
			}
		}
		if tv := tvUniform(kfreq, domain); tv > 0.03 {
			t.Errorf("SampleK TV = %v, want < 0.03", tv)
		}
		if _, p := kfreq.ChiSquareUniform(domain); p < 1e-4 {
			t.Errorf("SampleK chi-square rejects uniformity: p = %v", p)
		}
		if len(kfreq.Support()) != ballSize {
			t.Errorf("SampleK support = %d, want the exact ball %d", len(kfreq.Support()), ballSize)
		}
		if !kst.CursorMerged {
			t.Error("SampleK(40) never materialized the merged cursor; the memoized path was not exercised")
		}
		if kst.ScoreCacheHits == 0 {
			t.Error("near-cache recorded no hits across SampleK rounds")
		}
		if kst.MemoProbes < kst.ScoreCacheHits {
			t.Errorf("MemoProbes = %d below ScoreCacheHits = %d; every hit is a probe", kst.MemoProbes, kst.ScoreCacheHits)
		}
	})
}

// TestNearCacheBoundsScoreEvals pins the memoization guarantee itself:
// one logical query scores each distinct candidate at most once, so
// ScoreEvals per SampleK call is bounded by n no matter how many
// rejection rounds run.
func TestNearCacheBoundsScoreEvals(t *testing.T) {
	const n = 64
	d := newLineIndependent(t, n, 7, 89)
	for i := 0; i < 20; i++ {
		var st QueryStats
		d.SampleK(0, 50, &st)
		if st.ScoreEvals > n {
			t.Fatalf("SampleK scored %d times, want <= n = %d (near-cache must dedupe)", st.ScoreEvals, n)
		}
	}
	var st QueryStats
	if _, ok := d.Sample(0, &st); !ok {
		t.Fatal("query failed")
	}
	if st.ScoreEvals > n {
		t.Errorf("Sample scored %d times, want <= n = %d", st.ScoreEvals, n)
	}
}

// TestSampleKZeroAllocs asserts the bulk-path perf contract: with a
// recycled destination buffer, steady-state SampleKInto performs zero
// heap allocations even though each call runs many rejection rounds.
func TestSampleKZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; alloc counts are not meaningful")
	}
	d := newLineIndependent(t, 64, 7, 97)
	dst := make([]int32, 0, 32)
	for i := 0; i < 50; i++ {
		dst = d.SampleKInto(0, 16, dst, nil)
	}
	if n := testing.AllocsPerRun(200, func() { dst = d.SampleKInto(0, 16, dst, nil) }); n != 0 {
		t.Errorf("Independent.SampleKInto allocs/op = %v, want 0", n)
	}

	s, err := NewSampler[int](intSpace(), allCollide{}, lsh.Params{K: 2, L: 4}, lineDataset(64), 7, 97)
	if err != nil {
		t.Fatal(err)
	}
	sdst := make([]int32, 0, 32)
	for i := 0; i < 50; i++ {
		sdst = s.SampleKInto(0, 8, sdst, nil)
	}
	if n := testing.AllocsPerRun(200, func() { sdst = s.SampleKInto(0, 8, sdst, nil) }); n != 0 {
		t.Errorf("Sampler.SampleKInto allocs/op = %v, want 0", n)
	}
}

// TestConcurrentSampleKIntoSharedPool stress-tests the querier pool under
// -race: many goroutines interleave bulk and single-sample queries on one
// structure, each with a private destination buffer; every output must
// stay inside the ball.
func TestConcurrentSampleKIntoSharedPool(t *testing.T) {
	const ballSize = 6
	d := newLineIndependent(t, 48, float64(ballSize-1), 101)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]int32, 0, 16)
			for i := 0; i < 150; i++ {
				dst = d.SampleKInto(0, 10, dst, nil)
				for _, id := range dst {
					if d.Point(id) > ballSize-1 {
						t.Errorf("far point %d returned", d.Point(id))
						return
					}
				}
				if i%3 == 0 {
					if _, ok := d.Sample(0, nil); !ok {
						t.Error("interleaved Sample failed")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestSamplerSampleKIntoMatchesSampleK pins that the Section 3 bulk
// variant (merged through the pooled rank.Merger) returns exactly the
// deterministic k-smallest-rank answer of SampleK.
func TestSamplerSampleKIntoMatchesSampleK(t *testing.T) {
	s, err := NewSampler[int](intSpace(), modFamily{}, lsh.Params{K: 1, L: 5}, lineDataset(96), 30, 103)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 3, 10, 200} {
		want := s.SampleK(0, k, nil)
		got := s.SampleKInto(0, k, nil, nil)
		if !slices.Equal(got, want) {
			t.Errorf("k=%d: SampleKInto %v, SampleK %v", k, got, want)
		}
	}
}
