package core

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"fairnn/internal/lsh"
	"fairnn/internal/rank"
	"fairnn/internal/rng"
	"fairnn/internal/sketch"
)

// rankedTable is one LSH table whose buckets are kept sorted by rank — the
// shared substrate of the Section 3 and Section 4 data structures.
type rankedTable struct {
	buckets map[uint64]*rank.Bucket
}

// rankedBase holds everything the rank-permutation data structures share:
// the indexed points, the space, the batched LSH signer covering g_1..g_L,
// the rank assignment and the rank-sorted buckets. After construction the
// base is read-only (except for the rank swaps of Appendix A, which are the
// caller's concurrency responsibility) and safe for concurrent queries:
// per-query mutable state lives in pooled queriers and per-query RNG
// streams are split from the seed via an atomic query counter.
//
//fairnn:frozen
type rankedBase[P any] struct {
	space  Space[P]
	points []P
	radius float64
	params lsh.Params
	signer *lsh.Signer[P]
	tables []rankedTable
	asg    *rank.Assignment
	// nearFn is the resolved near predicate of the space at the build
	// radius; Distance spaces with a ScoreSq kernel compare squared
	// scores against r², skipping one math.Sqrt per candidate.
	nearFn func(a, b P) bool
	// batchScore, when non-nil, fills out[k] with ScoreSq(q, points[ids[k]])
	// for a whole candidate block per call (resolved from Space.ScoreSqBatch
	// at build time; keepNear compares the results against r2). Nil on
	// spaces without a batch kernel — keepNear then falls back to
	// per-candidate nearCached calls.
	batchScore func(q P, ids []int32, out []float64)
	// r2 is radius² — the threshold batchScore results are compared to;
	// bit-identical to the squared comparison inside nearFn.
	r2 float64
	// memo is the resolved memory discipline: how many queriers the pool
	// retains across checkouts and how much scratch each may keep.
	memo MemoOptions

	qseed uint64
	qctr  atomic.Uint64
	pool  BoundedPool[querier]
}

// querier is the reusable per-query scratch: the L·K raw signature, the L
// bucket keys and bucket pointers, a candidate buffer, the k-way-merge
// heap, an optional count-distinct counter (Section 4), and a dedicated
// RNG stream reseeded per query. Steady-state queries touch only this
// struct and therefore allocate nothing.
//
// Two memo structures make the Section 4 rejection loop cheap to repeat:
//
//   - near-cache: a compactMemo of tri-state verdicts (unknown / near /
//     far). Its epoch is bumped once per checkout (one logical Sample or
//     SampleK), so entries from earlier queries read as "unknown" without
//     any clearing. Each distinct candidate is therefore distance-scored
//     at most once per Sample and at most once across an entire SampleK,
//     and stale entries can never leak into the current query. The table
//     is sized to the query's live candidate count — o(n) by
//     construction — and allocated lazily on first use.
//   - merged cursor: mergedIDs/mergedRanks hold the deduplicated k-way
//     merge of all L resolved buckets, in ascending rank order. It is
//     materialized lazily — only once the rejection loop's cumulative
//     range-report work (rangeWork) exceeds the one-time merge cost
//     (mergeCost ≈ total bucket entries), so short queries keep the
//     cheap per-bucket path. resolve() invalidates it.
type querier struct {
	sig     []uint64
	keys    []uint64
	keys2   []uint64
	buckets []*rank.Bucket
	cand    []int32
	merger  rank.Merger
	counter sketch.Counter
	rng     rng.Source

	// near-cache (see memo.go).
	near compactMemo

	// batched-scoring scratch (keepNear): memo-miss ids pending a score,
	// per-candidate verdicts, and the kernel output block. All recycled
	// across queries, so the batch path keeps the zero-alloc steady state.
	pend     []int32
	verd     []uint8
	scoreOut []float64

	// merged candidate cursor + adaptive-merge accounting.
	mergedIDs   []int32
	mergedRanks []int32
	isMerged    bool
	rangeWork   int
	mergeCost   int

	// mstats is the telemetry scratch stats record: when a metrics
	// registry is attached and the caller passed a nil *QueryStats, the
	// draw loop counts into this record instead so the per-draw deltas
	// can still be observed. Reset (by value assignment — its slice
	// fields are unused on unsharded paths) at the top of each draw.
	mstats QueryStats
}

// scratchBytes reports the querier's retained backing-array footprint:
// the memo table plus the candidate-sized buffers that can grow with the
// query (the fixed L-sized key/bucket slices are negligible).
//
//fairnn:noalloc
func (qr *querier) scratchBytes() int {
	return qr.near.retainedBytes() +
		4*(cap(qr.cand)+cap(qr.mergedIDs)+cap(qr.mergedRanks)) +
		4*cap(qr.pend) + cap(qr.verd) + 8*cap(qr.scoreOut)
}

// trim enforces the pool's scratch budget — on the querier's summed
// footprint, so one retained querier can never pin a multiple of the
// budget — before it is retained. The candidate buffers are freed first
// (they regrow lazily and cheaply); the memo survives whenever it fits
// the budget on its own, and frees itself otherwise.
//
//fairnn:noalloc
func (qr *querier) trim(budget int) {
	if qr.scratchBytes() <= budget {
		return
	}
	qr.cand = nil
	qr.mergedIDs, qr.mergedRanks = nil, nil
	qr.isMerged = false
	qr.pend, qr.verd, qr.scoreOut = nil, nil, nil
	qr.near.shrink(budget)
}

func newRankedBase[P any](space Space[P], family lsh.Family[P], params lsh.Params, points []P, radius float64, memo MemoOptions, r *rng.Source) (*rankedBase[P], error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if len(points) == 0 {
		return nil, errors.New("core: empty point set")
	}
	if space.Score == nil {
		return nil, errors.New("core: space has nil Score")
	}
	b := &rankedBase[P]{
		space:  space,
		points: points,
		radius: radius,
		params: params,
		nearFn: space.Nearness(radius),
		memo:   memo.withDefaults(),
	}
	// Resolve the batched scoring seam only when it is guaranteed to agree
	// bit-for-bit with nearFn: a Distance space whose nearFn is the
	// squared comparison (ScoreSq non-nil, radius ≥ 0) and that supplies
	// the matching batch kernel.
	if space.Kind == Distance && space.ScoreSq != nil && space.ScoreSqBatch != nil && radius >= 0 {
		sqb := space.ScoreSqBatch
		b.batchScore = func(q P, ids []int32, out []float64) { sqb(q, points, ids, out) }
		b.r2 = radius * radius
	}
	b.pool.SetCap(b.memo.MaxRetainedQueriers)
	// Draw order matters for seed-compatibility: the rank permutation comes
	// first (as in the original per-closure construction), then the hash
	// functions, then the per-query stream seed.
	b.asg = rank.NewAssignment(len(points), r)
	b.signer = lsh.NewSigner(family, params.L*params.K, r)
	b.qseed = r.Uint64()

	n := len(points)
	L, K := params.L, params.K
	// Pass 1 (parallel over points): one single-pass signature per point,
	// reduced to its L bucket keys. This replaces n·L·K full-point scans
	// with n scans. A panic in the family's hash of one poisoned point is
	// recovered at worker level and surfaced as a BuildError naming the
	// point, instead of killing the process from a build goroutine.
	var buildErr buildErrSlot
	allKeys := make([]uint64, n*L)
	parallelRange(n, func(lo, hi int) {
		cur := lo
		defer buildErr.capture(&cur, nil)
		sig := make([]uint64, L*K)
		for p := lo; p < hi; p++ {
			cur = p
			b.signer.Sign(points[p], sig)
			lsh.CombineKeys(sig, K, allKeys[p*L:(p+1)*L])
		}
	})
	if err := buildErr.err(); err != nil {
		return nil, err
	}
	// Pass 2 (parallel over tables): group ids by key and sort each bucket
	// by rank. Tables are independent, so this parallelizes cleanly.
	b.tables = make([]rankedTable, L)
	parallelRange(L, func(lo, hi int) {
		cur := lo
		defer buildErr.capture(nil, &cur)
		for i := lo; i < hi; i++ {
			cur = i
			groups := make(map[uint64][]int32)
			for p := 0; p < n; p++ {
				key := allKeys[p*L+i]
				groups[key] = append(groups[key], int32(p))
			}
			buckets := make(map[uint64]*rank.Bucket, len(groups))
			for key, ids := range groups {
				buckets[key] = rank.NewBucket(ids, b.asg)
			}
			b.tables[i] = rankedTable{buckets: buckets}
		}
	})
	if err := buildErr.err(); err != nil {
		return nil, err
	}
	return b, nil
}

// buildErrSlot collects the first BuildError recovered across build
// workers. capture is deferred at worker top level: point/table track the
// worker's in-flight index, so the error names the exact input that
// poisoned the build.
type buildErrSlot struct {
	mu sync.Mutex
	e  *BuildError
}

func (s *buildErrSlot) capture(point, table *int) {
	r := recover()
	if r == nil {
		return
	}
	p, t := -1, -1
	if point != nil {
		p = *point
	}
	if table != nil {
		t = *table
	}
	s.mu.Lock()
	if s.e == nil {
		s.e = newBuildError(-1, p, t, r)
	}
	s.mu.Unlock()
}

func (s *buildErrSlot) err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.e == nil {
		return nil
	}
	return s.e
}

// ParallelRange is the exported form of parallelRange, for sibling
// internal packages that fan work out the same way (internal/shard's
// build and per-shard arm loops) instead of growing their own copy of
// the worker pattern.
//
//fairnn:noalloc
//fairnn:fanout-safe delegates to parallelRange
func ParallelRange(n int, fn func(lo, hi int)) { parallelRange(n, fn) }

// parallelRange splits [0, n) into contiguous chunks executed by up to
// GOMAXPROCS workers. fn must be safe to call concurrently on disjoint
// ranges. Small inputs run inline.
//
// Panic containment: a panic inside fn on a worker goroutine would kill
// the whole process (no caller can recover another goroutine's panic), so
// workers recover it into a *PanicError — every sibling drains normally,
// the WaitGroup resolves, nothing leaks — and the first one is re-thrown
// on the calling goroutine, where it behaves like a panic from an inline
// call: deferred recovers in the caller (the build passes, the sharded
// arm fan-out, the façade batch helpers) see it and turn it into a typed
// error. Inline execution (one worker) panics in place, which is the
// same observable contract.
//
//fairnn:noalloc
//fairnn:fanout-safe contains worker panics via the deferred recover and re-panics once on the caller
func parallelRange(n int, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	var panicked atomic.Pointer[PanicError]
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		//fairnn:allocok this IS the fan-out: workers>1 only on arm/build paths, never the steady-state draw
		go func(lo, hi int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					pe, ok := r.(*PanicError)
					if !ok {
						pe = NewPanicError(r)
					}
					panicked.CompareAndSwap(nil, pe)
				}
			}()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	if pe := panicked.Load(); pe != nil {
		panic(pe)
	}
}

// getQuerier checks a querier out of the pool (allocating buffers only on
// first use) and reseeds its RNG with a fresh per-query stream derived from
// the atomic query counter — concurrent queries therefore consume disjoint,
// deterministic randomness. Each checkout advances the near-cache epoch,
// so memoized near/far verdicts are scoped to exactly one logical query
// (a Sample, or all k loops of one SampleK).
//
//fairnn:noalloc
func (b *rankedBase[P]) getQuerier() *querier {
	qr := b.pool.Get()
	if qr == nil {
		qr = &querier{
			sig:     make([]uint64, b.params.L*b.params.K),
			keys:    make([]uint64, b.params.L),
			keys2:   make([]uint64, b.params.L),
			buckets: make([]*rank.Bucket, b.params.L),
			cand:    make([]int32, 0, 64),
		}
	}
	qr.near.reset()
	qr.rng.Seed(b.qseed ^ rng.Mix64(b.qctr.Add(1)))
	return qr
}

// putQuerier returns scratch to the bounded pool: oversized scratch is
// trimmed to the budget first, and queriers beyond the retention cap are
// dropped entirely — a one-time concurrency burst therefore cannot pin
// O(burst·n) memory for the process lifetime.
//
//fairnn:noalloc
func (b *rankedBase[P]) putQuerier(qr *querier) {
	qr.trim(b.memo.ScratchBudget)
	b.pool.Put(qr)
}

// RetainedScratchBytes reports the total backing-array footprint of the
// currently pooled queriers — the steady-state scratch memory this
// structure pins between queries (the bench footprint gauge).
func (b *rankedBase[P]) RetainedScratchBytes() int {
	total := 0
	b.pool.Fold(func(qr *querier) { total += qr.scratchBytes() })
	return total
}

// RetainedQueriers reports how many queriers the pool currently holds.
func (b *rankedBase[P]) RetainedQueriers() int { return b.pool.Retained() }

// validQuery is the query check of every rankedBase entry point (see
// Space.QueryOK).
//
//fairnn:noalloc
func (b *rankedBase[P]) validQuery(q P, st *QueryStats) bool {
	return b.space.ValidQuery(q, b.points, st)
}

// resolve hashes q once — one single-pass signature reduced to L bucket
// keys — and fills qr.keys and qr.buckets, charging one bucket lookup per
// table. Query paths that probe the same buckets many times (the Section 4
// rejection loop) or need the keys again (sketch lookup, Appendix A swaps)
// read them from the querier instead of re-hashing.
//
//fairnn:noalloc
func (b *rankedBase[P]) resolve(q P, qr *querier, st *QueryStats) {
	b.signer.Sign(q, qr.sig)
	lsh.CombineKeys(qr.sig, b.params.K, qr.keys)
	total := 0
	for i := range qr.buckets {
		st.bucket()
		bucket := b.tables[i].buckets[qr.keys[i]]
		qr.buckets[i] = bucket
		if bucket != nil {
			total += bucket.Len()
		}
	}
	// Invalidate the merged cursor and restart the adaptive-merge meter:
	// the one-time merge cost is proportional to the total (multiplicity-
	// counted) bucket size.
	qr.isMerged = false
	qr.rangeWork = 0
	qr.mergeCost = total
}

// materializeMerged k-way-merges the resolved buckets into the querier's
// deduplicated (rank, id) arrays. Buffers are recycled across queries, so
// steady-state materialization allocates nothing.
//
//fairnn:noalloc
func (b *rankedBase[P]) materializeMerged(qr *querier, st *QueryStats) {
	qr.mergedIDs, qr.mergedRanks = rank.MergeDedup(&qr.merger, qr.buckets, qr.mergedIDs[:0], qr.mergedRanks[:0])
	qr.isMerged = true
	st.merged()
}

// keysInto writes the L bucket keys of p into keys without touching
// qr.keys (used when two points' keys are needed at once).
func (b *rankedBase[P]) keysInto(p P, qr *querier, keys []uint64) {
	b.signer.Sign(p, qr.sig)
	lsh.CombineKeys(qr.sig, b.params.K, keys)
}

// N returns the number of indexed points.
//
//fairnn:noalloc
func (b *rankedBase[P]) N() int { return len(b.points) }

// Radius returns the query radius/similarity threshold r.
func (b *rankedBase[P]) Radius() float64 { return b.radius }

// Params returns the LSH parameters in use.
func (b *rankedBase[P]) Params() lsh.Params { return b.params }

// Point returns the indexed point with the given id.
func (b *rankedBase[P]) Point(id int32) P { return b.points[id] }

// near reports whether point id is within the radius of q, charging one
// score evaluation to st.
//
//fairnn:noalloc
func (b *rankedBase[P]) near(q P, id int32, st *QueryStats) bool {
	st.score()
	return b.nearFn(q, b.points[id])
}

// nearCached is near routed through the querier's epoch-stamped memo
// table: each distinct id is scored at most once per epoch (one logical
// query); repeat lookups are answered from the cache and charged to
// st.ScoreCacheHits, and every lookup is charged to st.MemoProbes.
// Distances are deterministic, so memoization cannot change any query's
// output distribution — only its cost.
func (b *rankedBase[P]) nearCached(q P, qr *querier, id int32, st *QueryStats) bool {
	st.memoProbe()
	if v, ok := qr.near.get(id); ok {
		st.cacheHit()
		return v == 1
	}
	isNear := b.near(q, id, st)
	var v uint64
	if isNear {
		v = 1
	}
	qr.near.put(id, v)
	return isNear
}

// batchMinCandidates is the block size below which keepNear's two-pass
// batch path costs more than it saves; smaller blocks take the
// per-candidate path.
const batchMinCandidates = 8

// verdPending marks a keepNear slot whose candidate missed the memo and
// awaits its batched score (the memoized verdicts are 0 = far, 1 = near).
const verdPending uint8 = 2

// keepNear filters ids in place, keeping exactly the candidates within the
// radius of q, and returns the kept prefix. It is equivalent to filtering
// with nearCached per id — same verdicts (bit-identical threshold
// comparison), same memo contents afterwards, same QueryStats counters —
// but when the space has a batch kernel it scores all memo misses of the
// block with one batchScore call: pass 1 probes the memo and collects the
// misses into qr.pend, pass 2 scores them into qr.scoreOut, writes the
// verdicts back into the memo and compacts the survivors. Misses scored
// this way are additionally counted in st.BatchScored.
//
//fairnn:noalloc
func (b *rankedBase[P]) keepNear(q P, qr *querier, ids []int32, st *QueryStats) []int32 {
	if b.batchScore == nil || len(ids) < batchMinCandidates {
		kept := ids[:0]
		for _, id := range ids {
			if b.nearCached(q, qr, id, st) {
				kept = append(kept, id)
			}
		}
		return kept
	}
	if cap(qr.verd) < len(ids) {
		qr.verd = make([]uint8, len(ids))
	}
	verd := qr.verd[:len(ids)]
	pend := qr.pend[:0]
	for i, id := range ids {
		st.memoProbe()
		if v, ok := qr.near.get(id); ok {
			st.cacheHit()
			verd[i] = uint8(v)
		} else {
			verd[i] = verdPending
			pend = append(pend, id)
		}
	}
	if len(pend) > 0 {
		if cap(qr.scoreOut) < len(pend) {
			qr.scoreOut = make([]float64, len(pend))
		}
		out := qr.scoreOut[:len(pend)]
		b.batchScore(q, pend, out)
		if st != nil {
			st.ScoreEvals += len(pend)
			st.BatchScored += len(pend)
		}
		j := 0
		for i := range verd {
			if verd[i] != verdPending {
				continue
			}
			var v uint64
			if out[j] <= b.r2 {
				v = 1
			}
			verd[i] = uint8(v)
			qr.near.put(pend[j], v)
			j++
		}
	}
	qr.pend = pend
	kept := ids[:0]
	for i, id := range ids {
		if verd[i] == 1 {
			kept = append(kept, id)
		}
	}
	return kept
}

// TotalBucketEntries returns L·n, the table space in point references.
func (b *rankedBase[P]) TotalBucketEntries() int { return b.params.L * len(b.points) }
