package core

// Tests for the memory discipline: the compact memo table must survive
// epoch recycling and growth, the bounded querier pool must cap burst
// memory, retained scratch must not grow with n, and the whole memo path
// must be race-clean, and pooled or fresh memo tables must yield the
// same same-seed streams (the full streams and counters are also pinned
// by the golden digests, TestGoldenStreams in the fairnn package).

import (
	"math"
	"slices"
	"sync"
	"testing"

	"fairnn/internal/lsh"
	"fairnn/internal/rng"
	"fairnn/internal/vector"
)

// TestCompactMemoTable unit-tests the open-addressing stamped table in
// word mode (the similarity-memo layout, with the packed key+stamp slot
// word and a parallel value array): lookups within an epoch, invisibility
// across epochs, overwrite semantics, and geometric growth well past the
// seed capacity (forcing collision chains and reinsertion).
func TestCompactMemoTable(t *testing.T) {
	m := &compactMemo{wordVals: true}
	m.reset()
	if _, ok := m.get(7); ok {
		t.Fatal("empty table reported a hit")
	}
	m.put(7, 42)
	if v, ok := m.get(7); !ok || v != 42 {
		t.Fatalf("get(7) = (%d, %v), want (42, true)", v, ok)
	}
	m.put(7, 43)
	if v, _ := m.get(7); v != 43 {
		t.Fatalf("overwrite: get(7) = %d, want 43", v)
	}
	if m.live != 1 {
		t.Fatalf("live = %d after overwrite, want 1", m.live)
	}

	// Fill far beyond the seed capacity: every key must stay retrievable
	// through multiple growth/reinsertion cycles.
	const keys = 10 * compactMemoMinCap
	for i := int32(0); i < keys; i++ {
		m.put(i, uint64(i)*3)
	}
	for i := int32(0); i < keys; i++ {
		if v, ok := m.get(i); !ok || v != uint64(i)*3 {
			t.Fatalf("after growth get(%d) = (%d, %v), want (%d, true)", i, v, ok, uint64(i)*3)
		}
	}

	// A new epoch makes everything invisible without clearing...
	m.reset()
	for i := int32(0); i < keys; i++ {
		if _, ok := m.get(i); ok {
			t.Fatalf("stale entry %d visible after reset", i)
		}
	}
	// ...and the capacity is recycled for the next query.
	m.put(3, 9)
	if v, ok := m.get(3); !ok || v != 9 {
		t.Fatalf("post-reset put/get = (%d, %v), want (9, true)", v, ok)
	}

	// shrink obeys the budget in both directions.
	m.shrink(1 << 30)
	if m.slots == nil {
		t.Fatal("shrink freed a table within budget")
	}
	m.shrink(0)
	if m.slots != nil {
		t.Fatal("shrink kept a table past the budget")
	}
	m.reset()
	m.put(5, 1) // must reallocate lazily after shrink
	if v, ok := m.get(5); !ok || v != 1 {
		t.Fatalf("post-shrink put/get = (%d, %v), want (1, true)", v, ok)
	}
}

// TestCompactMemoBitMode covers the packed near-cache layout: the verdict
// bit rides inside the slot word (no value array at all), so the table is
// 8 B/slot while keeping the full get/put/overwrite/epoch semantics.
func TestCompactMemoBitMode(t *testing.T) {
	m := &compactMemo{}
	m.reset()
	for i := int32(0); i < 3*compactMemoMinCap; i++ {
		m.put(i, uint64(i)&1)
	}
	if m.vals != nil {
		t.Fatal("bit mode allocated a value array")
	}
	for i := int32(0); i < 3*compactMemoMinCap; i++ {
		if v, ok := m.get(i); !ok || v != uint64(i)&1 {
			t.Fatalf("get(%d) = (%d, %v), want (%d, true)", i, v, ok, uint64(i)&1)
		}
	}
	m.put(7, 0) // overwrite flips the packed bit
	if v, ok := m.get(7); !ok || v != 0 {
		t.Fatalf("overwrite get(7) = (%d, %v), want (0, true)", v, ok)
	}
	if got := m.retainedBytes(); got != compactMemoBitSlotBytes*len(m.slots) {
		t.Fatalf("retainedBytes = %d, want %d per slot", got, compactMemoBitSlotBytes)
	}
	m.reset()
	if _, ok := m.get(3); ok {
		t.Fatal("stale bit-mode entry visible after reset")
	}
	// Negative-looking ids (high bit set) must round-trip through the
	// 32-bit packed key.
	m.put(-2, 1)
	if v, ok := m.get(-2); !ok || v != 1 {
		t.Fatalf("get(-2) = (%d, %v), want (1, true)", v, ok)
	}
	if _, ok := m.get(2); ok {
		t.Fatal("id 2 aliased id -2 in the packed key")
	}
}

// TestCompactMemoEpochWrap pins the 31-bit packed stamp's wrap handling:
// when the epoch reaches the packing limit, reset must clear the table
// and restart at 1 so no pre-wrap entry can ever read as live again.
func TestCompactMemoEpochWrap(t *testing.T) {
	for _, wordVals := range []bool{false, true} {
		m := &compactMemo{wordVals: wordVals}
		m.epoch = compactMemoEpochMax - 2
		m.reset() // epoch = max-1, the last representable stamp
		m.put(11, 1)
		if v, ok := m.get(11); !ok || v != 1 {
			t.Fatalf("wordVals=%v: pre-wrap get = (%d, %v)", wordVals, v, ok)
		}
		m.reset() // would be max: must clear and restart at 1
		if m.epoch != 1 {
			t.Fatalf("wordVals=%v: post-wrap epoch = %d, want 1", wordVals, m.epoch)
		}
		if _, ok := m.get(11); ok {
			t.Fatalf("wordVals=%v: pre-wrap entry visible after wrap", wordVals)
		}
		m.put(13, 1)
		if v, ok := m.get(13); !ok || v != 1 {
			t.Fatalf("wordVals=%v: post-wrap put/get = (%d, %v)", wordVals, v, ok)
		}
	}
}

// TestCompactMemoAdversarialCollisions drives ids that all hash to nearby
// slots (multiples of the capacity stride collide under the mask) to
// exercise long linear-probe chains.
func TestCompactMemoAdversarialCollisions(t *testing.T) {
	m := &compactMemo{wordVals: true}
	m.reset()
	ids := make([]int32, 48)
	for i := range ids {
		ids[i] = int32(i * compactMemoMinCap)
		m.put(ids[i], uint64(i))
	}
	for i, id := range ids {
		if v, ok := m.get(id); !ok || v != uint64(i) {
			t.Fatalf("collision chain lost id %d: (%d, %v)", id, v, ok)
		}
	}
}

// memoConfigs are the two memo lifetimes the stream test compares: a
// pooled querier whose table survives across checkouts with no trimming,
// and no retention at all, so every checkout starts from a fresh table.
var memoConfigs = [2]MemoOptions{
	{ScratchBudget: -1},
	{MaxRetainedQueriers: -1},
}

// newMemoIndependent builds the Section 4 structure with the given memo
// options over a multi-bucket family (modFamily), so the rejection loop,
// the merged cursor, and the memo all do real work.
func newMemoIndependent(t *testing.T, memo MemoOptions, seed uint64) *Independent[int] {
	t.Helper()
	opts := IndependentOptions{Memo: memo}
	d, err := NewIndependent[int](intSpace(), modFamily{}, lsh.Params{K: 1, L: 5}, lineDataset(128), 20, opts, seed)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestMemoBackendsIdenticalStreams is the seeded drop-in property of the
// memo: with identical seeds, a build whose memo tables are pooled and
// reused across queries and a build that starts every query from a fresh
// table must emit bit-identical sample streams — how the memo is kept may
// change cost, never output. Covered: Independent (NNIS Sample +
// SampleK), Sampler (NNS Sample + SampleK), Weighted, and
// FilterIndependent (Sample + SampleK over planted vectors).
func TestMemoBackendsIdenticalStreams(t *testing.T) {
	t.Run("nnis", func(t *testing.T) {
		pooled := newMemoIndependent(t, memoConfigs[0], 211)
		fresh := newMemoIndependent(t, memoConfigs[1], 211)
		for i := 0; i < 200; i++ {
			q := i % 96
			wantID, wantOK := pooled.Sample(q, nil)
			gotID, gotOK := fresh.Sample(q, nil)
			if wantID != gotID || wantOK != gotOK {
				t.Fatalf("Sample(%d) #%d: fresh (%d, %v), pooled (%d, %v)", q, i, gotID, gotOK, wantID, wantOK)
			}
		}
		for i := 0; i < 30; i++ {
			want := pooled.SampleK(5, 25, nil)
			got := fresh.SampleK(5, 25, nil)
			if !slices.Equal(got, want) {
				t.Fatalf("SampleK #%d: fresh %v, pooled %v", i, got, want)
			}
		}
		if pooled.RetainedQueriers() == 0 || fresh.RetainedQueriers() != 0 {
			t.Fatalf("retained queriers: pooled %d, fresh %d; want > 0 and 0", pooled.RetainedQueriers(), fresh.RetainedQueriers())
		}
	})

	t.Run("nns", func(t *testing.T) {
		mk := func(memo MemoOptions) *Sampler[int] {
			s, err := NewSamplerMemo[int](intSpace(), modFamily{}, lsh.Params{K: 1, L: 5}, lineDataset(128), 20, memo, 223)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		pooled, fresh := mk(memoConfigs[0]), mk(memoConfigs[1])
		for q := 0; q < 60; q++ {
			wantID, wantOK := pooled.Sample(q, nil)
			gotID, gotOK := fresh.Sample(q, nil)
			if wantID != gotID || wantOK != gotOK {
				t.Fatalf("Sample(%d): fresh (%d, %v), pooled (%d, %v)", q, gotID, gotOK, wantID, wantOK)
			}
			if want, got := pooled.SampleK(q, 10, nil), fresh.SampleK(q, 10, nil); !slices.Equal(got, want) {
				t.Fatalf("SampleK(%d): fresh %v, pooled %v", q, got, want)
			}
		}
	})

	t.Run("weighted", func(t *testing.T) {
		mk := func(memo MemoOptions) *Weighted[int] {
			opts := IndependentOptions{Memo: memo}
			w, err := NewWeighted[int](intSpace(), modFamily{}, lsh.Params{K: 1, L: 4}, lineDataset(96), 15,
				func(score float64) float64 { return 1 / (1 + score) }, 1, opts, 227)
			if err != nil {
				t.Fatal(err)
			}
			return w
		}
		pooled, fresh := mk(memoConfigs[0]), mk(memoConfigs[1])
		for i := 0; i < 150; i++ {
			q := i % 70
			wantID, wantOK := pooled.Sample(q, nil)
			gotID, gotOK := fresh.Sample(q, nil)
			if wantID != gotID || wantOK != gotOK {
				t.Fatalf("Weighted.Sample(%d) #%d: fresh (%d, %v), pooled (%d, %v)", q, i, gotID, gotOK, wantID, wantOK)
			}
		}
	})

	t.Run("filter", func(t *testing.T) {
		w := plantedWorkload(t, 250, 12, 40, 0.8, 0.5, 229)
		mk := func(memo MemoOptions) *FilterIndependent {
			opts := FilterIndependentOptions{Memo: memo}
			fi, err := NewFilterIndependent(w.Points, 0.8, 0.5, opts, 233)
			if err != nil {
				t.Fatal(err)
			}
			return fi
		}
		pooled, fresh := mk(memoConfigs[0]), mk(memoConfigs[1])
		for i := 0; i < 120; i++ {
			wantID, wantOK := pooled.Sample(w.Query, nil)
			gotID, gotOK := fresh.Sample(w.Query, nil)
			if wantID != gotID || wantOK != gotOK {
				t.Fatalf("Filter.Sample #%d: fresh (%d, %v), pooled (%d, %v)", i, gotID, gotOK, wantID, wantOK)
			}
		}
		for i := 0; i < 20; i++ {
			want := pooled.SampleK(w.Query, 30, nil)
			got := fresh.SampleK(w.Query, 30, nil)
			if !slices.Equal(got, want) {
				t.Fatalf("Filter.SampleK #%d: fresh %v, pooled %v", i, got, want)
			}
		}
	})
}

// TestCompactSimMemoExactBits pins that round-tripping similarities
// through Float64bits in the compact table is exact: memoized repeats
// must equal the directly computed inner product bit for bit.
func TestCompactSimMemoExactBits(t *testing.T) {
	w := plantedWorkload(t, 200, 10, 30, 0.8, 0.5, 239)
	fi, err := NewFilterIndependent(w.Points, 0.8, 0.5, FilterIndependentOptions{}, 241)
	if err != nil {
		t.Fatal(err)
	}
	qr := fi.getQuerier()
	defer fi.putQuerier(qr)
	var st QueryStats
	for id := int32(0); id < 50; id++ {
		first := fi.simOf(qr, w.Query, id, &st)
		memoized := fi.simOf(qr, w.Query, id, &st)
		direct := vector.Dot(w.Query, fi.Point(id))
		if math.Float64bits(first) != math.Float64bits(direct) || math.Float64bits(memoized) != math.Float64bits(direct) {
			t.Fatalf("id %d: first %x memoized %x direct %x", id, math.Float64bits(first), math.Float64bits(memoized), math.Float64bits(direct))
		}
	}
	if st.ScoreCacheHits != 50 {
		t.Fatalf("ScoreCacheHits = %d, want 50", st.ScoreCacheHits)
	}
	if st.MemoProbes == 0 {
		t.Fatal("sim memo recorded no probes")
	}
}

// TestQuerierPoolBurstBounded is the burst-memory regression: after G
// concurrent queries on one structure, the pool must retain at most
// MaxRetainedQueriers queriers — not G — so the steady-state footprint is
// independent of the burst width.
func TestQuerierPoolBurstBounded(t *testing.T) {
	const retain = 3
	opts := IndependentOptions{Memo: MemoOptions{MaxRetainedQueriers: retain}}
	d, err := NewIndependent[int](intSpace(), modFamily{}, lsh.Params{K: 1, L: 4}, lineDataset(256), 30, opts, 251)
	if err != nil {
		t.Fatal(err)
	}
	const burst = 32
	var (
		start sync.WaitGroup
		done  sync.WaitGroup
		gate  = make(chan struct{})
	)
	for g := 0; g < burst; g++ {
		start.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			start.Done()
			<-gate // maximize checkout overlap
			for i := 0; i < 20; i++ {
				d.Sample(i, nil)
			}
		}()
	}
	start.Wait()
	close(gate)
	done.Wait()
	if got := d.RetainedQueriers(); got > retain {
		t.Fatalf("pool retained %d queriers after a %d-goroutine burst, want <= %d", got, burst, retain)
	}
	// Each retained querier pins at most a near-cache sized to the n
	// distinct candidates it touched (8 B per slot at ≤ ¾ load) plus
	// small candidate buffers; the total must be far below what the burst
	// would have pinned unbounded.
	perQuerier := 2*8*d.N() + 4096
	if got := d.RetainedScratchBytes(); got > retain*perQuerier {
		t.Fatalf("retained scratch %d B, want <= %d B", got, retain*perQuerier)
	}
}

// TestPutQuerierTrimsOversizedScratch pins the ScratchBudget discipline:
// a querier whose memo grew past the budget must come back to the pool
// with the oversized backing arrays freed.
func TestPutQuerierTrimsOversizedScratch(t *testing.T) {
	opts := IndependentOptions{Memo: MemoOptions{
		MaxRetainedQueriers: 4,
		ScratchBudget:       compactMemoBitSlotBytes * compactMemoMinCap, // one seed near-cache table exactly
	}}
	d, err := NewIndependent[int](intSpace(), allCollide{}, lsh.Params{K: 1, L: 2}, lineDataset(4096), 4000, opts, 257)
	if err != nil {
		t.Fatal(err)
	}
	// allCollide + a huge radius + a bulk draw makes one checkout touch
	// thousands of distinct candidates, forcing the memo table well
	// past the seed capacity and the candidate buffers past the budget.
	if got := d.SampleK(0, 200, nil); len(got) == 0 {
		t.Fatal("bulk query failed")
	}
	if got := d.RetainedScratchBytes(); got > opts.Memo.ScratchBudget {
		t.Fatalf("retained scratch %d B after Put, want <= budget %d B", got, opts.Memo.ScratchBudget)
	}
	// The trimmed querier must still serve queries correctly.
	if _, ok := d.Sample(0, nil); !ok {
		t.Fatal("query failed after trim")
	}
}

// TestFilterTrimEnforcesSummedBudget pins the Section 5 side of the
// budget contract: the fiQuerier's total footprint — similarity memo,
// rejection working set, plan buffers, and filter scratch together —
// must come back under ScratchBudget after Put, and the trimmed querier
// must keep answering correctly.
func TestFilterTrimEnforcesSummedBudget(t *testing.T) {
	w := plantedWorkload(t, 400, 12, 60, 0.8, 0.5, 277)
	const budget = 2048
	opts := FilterIndependentOptions{Memo: MemoOptions{
		MaxRetainedQueriers: 4,
		ScratchBudget:       budget,
	}}
	fi, err := NewFilterIndependent(w.Points, 0.8, 0.5, opts, 279)
	if err != nil {
		t.Fatal(err)
	}
	if got := fi.SampleK(w.Query, 100, nil); len(got) == 0 {
		t.Fatal("bulk query failed")
	}
	if got := fi.RetainedScratchBytes(); got > budget {
		t.Fatalf("retained scratch %d B after Put, want <= summed budget %d B", got, budget)
	}
	if _, ok := fi.Sample(w.Query, nil); !ok {
		t.Fatal("query failed after trim")
	}
}

// TestCompactPathConcurrentRace stress-tests the memo path under -race:
// interleaved Sample/SampleKInto across goroutines on a shared structure
// with a small retention cap, with outputs checked against the ball.
func TestCompactPathConcurrentRace(t *testing.T) {
	const ballSize = 8
	opts := IndependentOptions{Memo: MemoOptions{MaxRetainedQueriers: 2}}
	d, err := NewIndependent[int](intSpace(), allCollide{}, lsh.Params{K: 1, L: 3}, lineDataset(64), float64(ballSize-1), opts, 263)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]int32, 0, 16)
			for i := 0; i < 120; i++ {
				dst = d.SampleKInto(0, 8, dst, nil)
				for _, id := range dst {
					if d.Point(id) > ballSize-1 {
						t.Errorf("far point %d returned", d.Point(id))
						return
					}
				}
				if _, ok := d.Sample(0, nil); !ok {
					t.Error("interleaved Sample failed")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestCompactScratchSublinear is the CI smoke for the o(n) contract: on a
// bucketed dataset each query touches O(L·bucket) distinct candidates, so
// the scratch pooled after an identical burst must not grow with n.
// Quadrupling n must leave the retained bytes essentially unchanged (an
// O(n) memo would quadruple them), and the per-querier footprint must stay
// far below n bytes. The burst is simulated deterministically (see
// burstScratch): each of the 8 pool slots is populated by a real query and
// held checked out so the later slots cannot reuse it, exactly the steady
// state after an 8-wide concurrent burst.
func TestCompactScratchSublinear(t *testing.T) {
	const n, queriers = 25_000, 8
	small := retainedAfterBurst(t, n, queriers)
	large := retainedAfterBurst(t, 4*n, queriers)
	if 4*large > 5*small {
		t.Fatalf("retained scratch grew with n: %d B at n = %d, %d B at n = %d; want <= 1.25x", small, n, large, 4*n)
	}
	if perQuerier := large / queriers; perQuerier > n {
		t.Fatalf("per-querier scratch = %d B at n = %d; want o(n)", perQuerier, 4*n)
	}
}

// retainedAfterBurst builds the Section 4 structure over n line points
// with 64-wide chunk buckets and reports the scratch retained after an
// identical `queriers`-wide burst (see burstScratch).
func retainedAfterBurst(t testing.TB, n, queriers int) int {
	t.Helper()
	opts := IndependentOptions{Memo: MemoOptions{MaxRetainedQueriers: queriers}}
	d, err := NewIndependent[int](intSpace(), chunkFamily{width: 64}, lsh.Params{K: 1, L: 4}, lineDataset(n), 40, opts, 269)
	if err != nil {
		t.Fatal(err)
	}
	bytes, retained := burstScratch(d, queriers)
	if retained != queriers {
		t.Fatalf("n = %d: retained %d queriers, want %d", n, retained, queriers)
	}
	return bytes
}

// burstScratch populates exactly `queriers` pooled queriers with real
// query work and reports (RetainedScratchBytes, RetainedQueriers). Each
// round runs one bulk query — which checks a querier out of the (empty)
// pool, does real memo work, and returns it — and then holds that querier
// checked out so the next round must allocate a fresh one; finally all
// held queriers go back. This reproduces, deterministically, the pool
// state after `queriers` concurrent checkouts.
func burstScratch[P any](d *Independent[P], queriers int) (bytes, retained int) {
	held := make([]*querier, 0, queriers)
	pts := d.base.points
	for i := 0; i < queriers; i++ {
		d.SampleK(pts[(i*37)%len(pts)], 8, nil)
		held = append(held, d.base.getQuerier())
	}
	for _, qr := range held {
		d.base.putQuerier(qr)
	}
	return d.RetainedScratchBytes(), d.base.pool.Retained()
}

// chunkFamily buckets the integer line into fixed-width chunks — a
// realistic bucket-size profile (each query touches O(L·width) distinct
// candidates, not O(n)) for the footprint tests.
type chunkFamily struct{ width int }

func (f chunkFamily) New(r *rng.Source) lsh.Func[int] {
	off := r.Intn(f.width)
	w := f.width
	return func(p int) uint64 { return uint64((p + off) / w) }
}

func (chunkFamily) CollisionProb(float64) float64 { return 0.9 }

// TestSamplerRetainsNoMemo pins the lazy memo allocation: the Section 3
// sampler never consults the near-cache, so its pooled queriers must
// retain 0 memo bytes.
func TestSamplerRetainsNoMemo(t *testing.T) {
	const n = 50_000
	s, err := NewSampler[int](intSpace(), chunkFamily{width: 32}, lsh.Params{K: 1, L: 3}, lineDataset(n), 10, 271)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		s.Sample(i, nil)
		s.SampleK(i, 5, nil)
	}
	if s.base.RetainedQueriers() == 0 {
		t.Fatal("Sampler pooled no queriers")
	}
	memo := 0
	s.base.pool.Fold(func(qr *querier) { memo += qr.near.retainedBytes() })
	if memo != 0 {
		t.Fatalf("Sampler queriers retain %d memo bytes; the near-cache must stay unallocated", memo)
	}
}
