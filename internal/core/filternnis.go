package core

import (
	"context"
	"errors"
	"iter"
	"math"
	"sync/atomic"
	"time"

	"fairnn/internal/filter"
	"fairnn/internal/obs"
	"fairnn/internal/rng"
	"fairnn/internal/vector"
)

// FilterIndependentOptions tunes the Section 5 α-NNIS structure.
type FilterIndependentOptions struct {
	// Eps is the per-bank failure parameter ε of f(α, ε). Default 0.1.
	Eps float64
	// L is the number of independent banks, Θ(log n). Default ⌈1.5·log₂ n⌉.
	L int
	// M1T and T override the bank geometry (0 → paper defaults).
	M1T, T int
	// MaxRounds caps the rejection loop per query as a safety net; the
	// loop terminates with probability 1 whenever a near point exists.
	// Default 0 means 200·(L+1)·(K+1) rounds, far beyond the expected
	// O((b_β/b_α)·log n).
	MaxRounds int
	// Memo is the per-query memory discipline: how many queriers the
	// pool retains across checkouts and how much scratch each may keep.
	Memo MemoOptions
	// Obs, when non-nil, registers the draw-loop telemetry bundle
	// (layer="filter") and records into it on every draw. A nil
	// registry is contractually invisible (bit-identical streams, zero
	// allocations), and the enabled record path is zero-alloc too.
	Obs *obs.Registry
}

func (o FilterIndependentOptions) withDefaults(n int) FilterIndependentOptions {
	if o.Eps <= 0 {
		o.Eps = 0.1
	}
	if o.L <= 0 {
		o.L = int(math.Ceil(1.5 * math.Log2(float64(n)+1)))
		if o.L < 3 {
			o.L = 3
		}
	}
	return o
}

// FilterIndependent solves the α-NNIS problem (Section 5.2): L = Θ(log n)
// independent filter banks, each storing every point exactly once, so the
// total space is nearly linear. A query enumerates the above-threshold
// buckets of all banks, verifies that a near point exists, then repeatedly
// draws a uniform bucket entry, deletes far points lazily, and accepts a
// near point p with probability 1/c_p, where c_p is the number of selected
// buckets containing p. The multiplicity correction makes every near point
// equally likely per round, hence the output is uniform on B_S(q, α)
// (Theorem 4), and fresh per-query randomness makes outputs independent.
// Queries are safe for concurrent use: banks are read-only after
// construction, per-query scratch (the plan, the similarity memo, the
// rejection-loop working set) comes from a capped pool — at most
// opts.Memo.MaxRetainedQueriers queriers are retained across checkouts,
// trimmed to opts.Memo.ScratchBudget bytes each — and sampling
// randomness comes from per-query streams split off the seed by an
// atomic counter. Steady-state queries perform zero heap allocations.
type FilterIndependent struct {
	points []vector.Vec
	alpha  float64
	beta   float64
	opts   FilterIndependentOptions
	memo   MemoOptions
	banks  []*filter.Bank
	qseed  uint64
	qctr   atomic.Uint64
	pool   BoundedPool[fiQuerier]
	met    *obs.QueryMetrics
}

// NewFilterIndependent indexes unit vectors for inner-product threshold
// alpha with far threshold beta (−1 < beta < alpha < 1). A point with a
// NaN or ±Inf coordinate is rejected with ErrNonFinite.
func NewFilterIndependent(points []vector.Vec, alpha, beta float64, opts FilterIndependentOptions, seed uint64) (*FilterIndependent, error) {
	if len(points) == 0 {
		return nil, errors.New("core: empty point set")
	}
	if err := CheckFinite(points); err != nil {
		return nil, err
	}
	opts = opts.withDefaults(len(points))
	src := rng.New(seed)
	params := filter.Params{Alpha: alpha, Beta: beta, Eps: opts.Eps, M1T: opts.M1T, T: opts.T}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	banks := make([]*filter.Bank, opts.L)
	for i := range banks {
		b, err := filter.NewBank(points, params, src.Split())
		if err != nil {
			return nil, err
		}
		banks[i] = b
	}
	f := &FilterIndependent{
		points: points,
		alpha:  alpha,
		beta:   beta,
		opts:   opts,
		memo:   opts.Memo.withDefaults(),
		banks:  banks,
		qseed:  src.Uint64(),
		met:    obs.NewQueryMetrics(opts.Obs, "filter"),
	}
	f.pool.SetCap(f.memo.MaxRetainedQueriers)
	return f, nil
}

// N returns the number of indexed points.
func (f *FilterIndependent) N() int { return len(f.points) }

// Size returns the number of indexed points (the Sampler contract).
func (f *FilterIndependent) Size() int { return len(f.points) }

// Alpha returns the near threshold.
func (f *FilterIndependent) Alpha() float64 { return f.alpha }

// Beta returns the far threshold.
func (f *FilterIndependent) Beta() float64 { return f.beta }

// Banks returns the number of independent banks L.
func (f *FilterIndependent) Banks() int { return len(f.banks) }

// Point returns the indexed point with the given id.
func (f *FilterIndependent) Point(id int32) vector.Vec { return f.points[id] }

// bucketRef identifies one selected bucket: bank index and packed key.
type bucketRef struct {
	bank int32
	key  uint64
}

// fiQuerier is the pooled per-query scratch of the Section 5 sampler,
// mirroring the rankedBase querier pattern: the deterministic query plan
// (selected bucket refs and their stored id slices), an epoch-stamped
// similarity memo so ⟨q, p⟩ is computed at most once per query across the
// existence check and every rejection round (and across all k loops of a
// SampleK), and the rejection loop's mutable working set (flat candidate
// copy, Fenwick tree, shuffle order). Steady-state queries touch only
// this struct and therefore allocate nothing. The memo is a compact o(n)
// stamped hash table (see memo.go).
type fiQuerier struct {
	refs    []bucketRef
	master  [][]int32
	total   int
	scratch filter.QueryScratch

	// similarity memo; values are math.Float64bits(⟨q, p_id⟩).
	sim compactMemo

	// rejection-loop working set.
	flat     []int32
	contents [][]int32
	fw       fenwick
	order    []int32
	rng      rng.Source

	// blocked existence-scan scratch (simBlock): memo-miss ids, the
	// batched kernel output, and the per-position sims of one block.
	pend     []int32
	batchOut []float64
	vals     []float64

	// mstats collects per-draw counter deltas for the telemetry bundle
	// when the caller passed a nil *QueryStats (see querier.mstats).
	mstats QueryStats
}

// scratchBytes reports the querier's retained backing-array footprint:
// the memo plus the candidate-sized rejection working set and the filter
// evaluation scratch.
//
//fairnn:noalloc
func (qr *fiQuerier) scratchBytes() int {
	return qr.sim.retainedBytes() +
		4*(cap(qr.flat)+cap(qr.order)+cap(qr.pend)) +
		16*cap(qr.refs) + 24*(cap(qr.master)+cap(qr.contents)) +
		8*(cap(qr.fw.tree)+cap(qr.batchOut)+cap(qr.vals)) +
		qr.scratch.RetainedBytes()
}

// trim enforces the pool's scratch budget — on the querier's summed
// footprint, so one retained querier can never pin a multiple of the
// budget — before it is retained. The working-set buffers are freed
// first (they regrow lazily); the similarity memo survives whenever it
// fits the budget on its own, and frees itself otherwise.
//
//fairnn:noalloc
func (qr *fiQuerier) trim(budget int) {
	if qr.scratchBytes() <= budget {
		return
	}
	qr.flat, qr.order = nil, nil
	qr.refs, qr.master, qr.contents = nil, nil, nil
	qr.pend, qr.batchOut, qr.vals = nil, nil, nil
	qr.fw = fenwick{}
	qr.scratch.Trim(0)
	qr.sim.shrink(budget)
}

// getQuerier checks scratch out of the pool and advances the similarity-
// memo epoch (one checkout = one logical query).
//
//fairnn:noalloc
func (f *FilterIndependent) getQuerier() *fiQuerier {
	qr := f.pool.Get()
	if qr == nil {
		qr = &fiQuerier{sim: compactMemo{wordVals: true}}
	}
	qr.sim.reset()
	return qr
}

// putQuerier returns scratch to the bounded pool, trimming oversized
// buffers first and dropping queriers beyond the retention cap (the same
// burst-memory discipline as rankedBase.putQuerier).
//
//fairnn:noalloc
func (f *FilterIndependent) putQuerier(qr *fiQuerier) {
	qr.trim(f.memo.ScratchBudget)
	f.pool.Put(qr)
}

// RetainedScratchBytes reports the backing-array footprint of the pooled
// per-query scratch this structure currently pins between queries.
func (f *FilterIndependent) RetainedScratchBytes() int {
	total := 0
	f.pool.Fold(func(qr *fiQuerier) { total += qr.scratchBytes() })
	return total
}

// RetainedQueriers reports how many queriers the pool currently holds.
func (f *FilterIndependent) RetainedQueriers() int { return f.pool.Retained() }

// validQuery is the query check of every entry point: the inner-product
// space's QueryOK (indexed dimension, finite coordinates).
//
//fairnn:noalloc
func (f *FilterIndependent) validQuery(q vector.Vec, st *QueryStats) bool {
	return InnerProduct().ValidQuery(q, f.points, st)
}

// buildPlan gathers the selected buckets of all banks for one query into
// the querier. The plan is deterministic given (structure, query): all
// sampling randomness lives in the rejection loop, so one plan can serve
// many independent samples.
//
//fairnn:noalloc
func (f *FilterIndependent) buildPlan(q vector.Vec, qr *fiQuerier, st *QueryStats) {
	qr.refs = qr.refs[:0]
	qr.master = qr.master[:0]
	qr.total = 0
	for l, bank := range f.banks {
		bp := bank.QueryInto(q, &qr.scratch)
		st.filters(bp.FilterEvals)
		for _, key := range bp.Keys {
			st.bucket()
			qr.refs = append(qr.refs, bucketRef{bank: int32(l), key: key})
			ids := bank.Bucket(key)
			qr.master = append(qr.master, ids)
			qr.total += len(ids)
		}
	}
}

// simOf returns ⟨q, p_id⟩ through the epoch-stamped memo: each candidate
// is scored at most once per query; every lookup is charged to
// st.MemoProbes and repeats to st.ScoreCacheHits.
//
//fairnn:noalloc
func (f *FilterIndependent) simOf(qr *fiQuerier, q vector.Vec, id int32, st *QueryStats) float64 {
	st.memoProbe()
	if v, ok := qr.sim.get(id); ok {
		st.cacheHit()
		return math.Float64frombits(v)
	}
	st.score()
	s := vector.Dot(q, f.points[id])
	qr.sim.put(id, math.Float64bits(s))
	return s
}

// fiBatchBlock is the scoring block of the existence scan: candidates are
// memo-probed and kernel-scored this many at a time. Large enough to
// amortize kernel dispatch, small enough that an early near hit wastes at
// most one block of speculative scores. At most 64: simBlock tracks a
// block's pending slots in one uint64 mask.
const fiBatchBlock = 64

// simBlock fills qr.vals[k] = ⟨q, p_ids[k]⟩ for one block of at most
// fiBatchBlock candidates and returns the filled slice. Memo hits are
// read back (charged to st.ScoreCacheHits, exactly like simOf); misses
// are gathered into qr.pend, scored with one batched kernel call
// (bit-identical to the per-pair vector.Dot on either kernel tier),
// memoized, and charged to st.ScoreEvals and st.BatchScored. A bit mask
// marks the pending slots between the two passes, so no score value is
// reserved as a sentinel: even a NaN similarity (an overflowing dot
// product; non-finite coordinates are refused at build and query time)
// is memoized and read back like any other.
//
//fairnn:noalloc
func (f *FilterIndependent) simBlock(qr *fiQuerier, q vector.Vec, ids []int32, st *QueryStats) []float64 {
	if cap(qr.vals) < len(ids) {
		qr.vals = make([]float64, len(ids))
	}
	vals := qr.vals[:len(ids)]
	pend := qr.pend[:0]
	var pending uint64 // bit k set: ids[k] missed the memo
	for k, id := range ids {
		st.memoProbe()
		if v, ok := qr.sim.get(id); ok {
			st.cacheHit()
			vals[k] = math.Float64frombits(v)
		} else {
			pending |= 1 << k
			pend = append(pend, id)
		}
	}
	if len(pend) > 0 {
		if cap(qr.batchOut) < len(pend) {
			qr.batchOut = make([]float64, len(pend))
		}
		out := qr.batchOut[:len(pend)]
		vector.DotBatchIDs(q, f.points, pend, out)
		if st != nil {
			st.ScoreEvals += len(pend)
			st.BatchScored += len(pend)
		}
		j := 0
		for k := range vals {
			if pending&(1<<k) == 0 {
				continue
			}
			id, s := pend[j], out[j]
			vals[k] = s
			qr.sim.put(id, math.Float64bits(s))
			j++
		}
	}
	qr.pend = pend
	return vals
}

// multiplicity returns c_p: in how many selected buckets point id occurs.
// Each bank stores a point exactly once (under KeyOf), so one pass over
// the selected refs suffices — no per-query set structure needed.
//
//fairnn:noalloc
func (f *FilterIndependent) multiplicity(qr *fiQuerier, id int32) int {
	c := 0
	for _, ref := range qr.refs {
		if f.banks[ref.bank].KeyOf(id) == ref.key {
			c++
		}
	}
	return c
}

// QueryNN is the plain (α, β)-NN query of Section 5.1/Theorem 3 run on all
// banks: it returns the first candidate with inner product ≥ beta, scanning
// the selected buckets (in stored order). ok=false when no such point is in
// any candidate bucket or q is malformed.
func (f *FilterIndependent) QueryNN(q vector.Vec, st *QueryStats) (id int32, ok bool) {
	if !f.validQuery(q, st) {
		return 0, false
	}
	qr := f.getQuerier()
	defer f.putQuerier(qr)
	for _, bank := range f.banks {
		bp := bank.QueryInto(q, &qr.scratch)
		st.filters(bp.FilterEvals)
		for _, key := range bp.Keys {
			st.bucket()
			for _, cand := range bank.Bucket(key) {
				st.point()
				st.score()
				if vector.Dot(q, f.points[cand]) >= f.beta {
					st.found(true)
					return cand, true
				}
			}
		}
	}
	st.found(false)
	return 0, false
}

// Sample returns a uniform, independent sample from B_S(q, α) = {p : ⟨p,q⟩ ≥ α},
// or ok=false when no near point appears in the selected buckets or q is
// malformed (SampleContext tells these apart).
//
//fairnn:noalloc
func (f *FilterIndependent) Sample(q vector.Vec, st *QueryStats) (id int32, ok bool) {
	id, err := f.SampleContext(context.Background(), q, st)
	return id, err == nil
}

// SampleContext is the one query entry sequence (Sample delegates here
// with context.Background(), so the two entry points cannot diverge):
// the rejection loop polls ctx.Err() every ctxCheckRounds rounds, so a
// query spinning on a mid-heavy (β, α) workload returns ctx's error
// within one check interval instead of burning its MaxRounds budget. A
// failed (but uncanceled) query returns ErrNoSample and a malformed one
// ErrBadQuery. The poll draws no randomness and the Background path
// allocates nothing, so Sample's draw order, output and zero-allocation
// steady state are unchanged.
//
//fairnn:noalloc
func (f *FilterIndependent) SampleContext(ctx context.Context, q vector.Vec, st *QueryStats) (int32, error) {
	if !f.validQuery(q, st) {
		return 0, ErrBadQuery
	}
	qr := f.getQuerier()
	defer f.putQuerier(qr)
	f.buildPlan(q, qr, st)
	id, ok := f.sampleFromPlan(ctx, q, qr, st)
	return sampleCtxResult(ctx, id, ok)
}

// Samples returns an unbounded stream of independent uniform samples from
// B_S(q, α). The deterministic query plan is built once per stream and
// the similarity memo carries across draws (the SampleK amortization,
// without a bounded output buffer). The stream ends when the consumer
// breaks, when ctx is done (yielding ctx.Err() once), or when a draw
// fails (yielding ErrNoSample; ErrBadQuery for a malformed query).
func (f *FilterIndependent) Samples(ctx context.Context, q vector.Vec) iter.Seq2[int32, error] {
	return func(yield func(int32, error) bool) {
		if !f.validQuery(q, nil) {
			yield(0, ErrBadQuery)
			return
		}
		qr := f.getQuerier()
		defer f.putQuerier(qr)
		f.buildPlan(q, qr, nil)
		for {
			id, ok := f.sampleFromPlan(ctx, q, qr, nil)
			id, err := sampleCtxResult(ctx, id, ok)
			if err != nil {
				yield(0, err)
				return
			}
			if !yield(id, nil) {
				return
			}
		}
	}
}

// sampleFromPlan is the telemetry choke point around drawFromPlan:
// without a registry it is a tail call (the disabled path pays nothing);
// with one it times the draw and records the rejection-loop deltas,
// counting into the querier's scratch stats when the caller passed nil.
// Metrics writes are observational and draw no randomness, so same-seed
// streams stay bit-identical either way.
//
//fairnn:noalloc
func (f *FilterIndependent) sampleFromPlan(ctx context.Context, q vector.Vec, qr *fiQuerier, st *QueryStats) (int32, bool) {
	m := f.met
	if m == nil {
		return f.drawFromPlan(ctx, q, qr, st)
	}
	if st == nil {
		qr.mstats = QueryStats{}
		st = &qr.mstats
	}
	preRounds, preHits := st.Rounds, st.ScoreCacheHits
	preBatch, preEvals := st.BatchScored, st.ScoreEvals
	t0 := time.Now()
	id, ok := f.drawFromPlan(ctx, q, qr, st)
	// The Section 5 acceptance probability 1/c_p never exceeds 1, so a
	// filter draw is never clamped.
	m.ObserveDraw(time.Since(t0), ok, st.Rounds-preRounds, st.ScoreCacheHits-preHits,
		st.BatchScored-preBatch, st.ScoreEvals-preEvals, false, false)
	return id, ok
}

// drawFromPlan runs one existence check plus rejection loop against the
// querier's prepared plan. Each call seeds a fresh per-query randomness
// stream, so repeated calls on the same plan produce independent samples —
// the plan itself carries no randomness. The rejection loop polls
// ctx.Err() every ctxCheckRounds rounds and exits with ok=false when the
// context is done; the poll draws no randomness, so the output stream
// under an uncanceled context is unchanged.
//
//fairnn:noalloc
func (f *FilterIndependent) drawFromPlan(ctx context.Context, q vector.Vec, qr *fiQuerier, st *QueryStats) (int32, bool) {
	if qr.total == 0 {
		st.found(false)
		return 0, false
	}
	qr.rng.Seed(f.qseed ^ rng.Mix64(f.qctr.Add(1)))
	// Existence check (the paper runs the standard query first): scan
	// buckets in random order, stop at the first near point. Similarities
	// are memoized in the querier — the rejection loop revisits them.
	order := qr.order[:0]
	for i := range qr.refs {
		order = append(order, int32(i))
	}
	qr.order = order
	qr.rng.ShuffleInt32(order)
	// The scan scores candidates one fiBatchBlock at a time through
	// simBlock, checking the threshold in stored order afterwards, and
	// stops at the first block containing a near point. The candidate
	// visit order and the verdicts are identical to a per-candidate scan
	// (no randomness is involved and block scoring is bit-identical to
	// per-pair scoring); the only difference is speculative work — up to
	// one block of extra scores past the first near point, all memoized
	// and reused by the rejection loop.
	exists := false
	for _, bi := range order {
		ids := qr.master[bi]
		for off := 0; off < len(ids) && !exists; off += fiBatchBlock {
			end := min(off+fiBatchBlock, len(ids))
			vals := f.simBlock(qr, q, ids[off:end], st)
			for k := range vals {
				st.point()
				if vals[k] >= f.alpha {
					exists = true
					break
				}
			}
		}
		if exists {
			break
		}
	}
	if !exists {
		st.found(false)
		return 0, false
	}
	// Rejection loop with lazy far-point deletion (steps A–D), run on a
	// per-call mutable copy so the structure itself stays untouched (the
	// paper restores removed far points after reporting; copying achieves
	// the same at the same asymptotic cost as the existence scan). The
	// copy lives in one flat recycled buffer sub-sliced per bucket.
	if cap(qr.flat) < qr.total {
		qr.flat = make([]int32, qr.total)
	}
	flat := qr.flat[:qr.total]
	contents := qr.contents[:0]
	off := 0
	for _, ids := range qr.master {
		n := copy(flat[off:off+len(ids)], ids)
		contents = append(contents, flat[off:off+n:off+n])
		off += n
	}
	qr.contents = contents[:0]
	qr.fw.init(contents)
	maxRounds := f.opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 200 * (len(f.banks) + 1) * (qr.total + 1)
	}
	for round := 0; round < maxRounds; round++ {
		st.round()
		if round%ctxCheckRounds == ctxCheckRounds-1 && ctx.Err() != nil {
			st.found(false)
			return 0, false
		}
		total := qr.fw.total()
		if total == 0 {
			break // only far points remained and all were deleted
		}
		pos := qr.rng.Intn(total)
		bi, o := qr.fw.find(pos)
		cand := contents[bi][o]
		sim := f.simOf(qr, q, cand, st)
		switch {
		case sim >= f.alpha:
			cp := f.multiplicity(qr, cand)
			if cp < 1 {
				cp = 1 // the bucket we drew from always counts
			}
			if qr.rng.Bernoulli(1 / float64(cp)) {
				st.found(true)
				return cand, true
			}
		case sim < f.beta:
			// Far point: delete lazily from this bucket copy.
			ids := contents[bi]
			last := len(ids) - 1
			ids[o] = ids[last]
			contents[bi] = ids[:last]
			qr.fw.add(bi, -1)
		default:
			// (β, α)-point: stays, costs a round (accounted by Theorem 4's
			// b_β/b_α factor).
		}
	}
	st.found(false)
	return 0, false
}

// RecalledBall returns the distinct near points (⟨p, q⟩ ≥ α) present in
// the query's selected buckets — the portion of the true ball the structure
// can sample from. The plan is deterministic per (structure, query), so
// this is the exact support of Sample's output distribution (empty for a
// malformed q).
func (f *FilterIndependent) RecalledBall(q vector.Vec, st *QueryStats) []int32 {
	if !f.validQuery(q, st) {
		return nil
	}
	qr := f.getQuerier()
	defer f.putQuerier(qr)
	f.buildPlan(q, qr, st)
	seen := make(map[int32]struct{})
	var out []int32
	for _, ids := range qr.master {
		for _, id := range ids {
			if _, ok := seen[id]; ok {
				continue
			}
			seen[id] = struct{}{}
			if f.simOf(qr, q, id, st) >= f.alpha {
				out = append(out, id)
			}
		}
	}
	return out
}

// SampleK returns k independent with-replacement samples from B_S(q, α).
// The deterministic query plan is built once and reused, and the
// similarity memo carries over between draws; each draw uses fresh
// randomness, so the samples remain mutually independent.
func (f *FilterIndependent) SampleK(q vector.Vec, k int, st *QueryStats) []int32 {
	if k <= 0 {
		return nil
	}
	return f.SampleKInto(q, k, make([]int32, 0, k), st)
}

// SampleKInto is SampleK writing into dst (reset to length zero and grown
// as needed), the zero-allocation bulk variant. A malformed q yields no
// samples.
//
//fairnn:noalloc
func (f *FilterIndependent) SampleKInto(q vector.Vec, k int, dst []int32, st *QueryStats) []int32 {
	dst = dst[:0]
	if k <= 0 || !f.validQuery(q, st) {
		return dst
	}
	qr := f.getQuerier()
	defer f.putQuerier(qr)
	f.buildPlan(q, qr, st)
	for i := 0; i < k; i++ {
		if id, ok := f.sampleFromPlan(context.Background(), q, qr, st); ok {
			dst = append(dst, id)
		}
	}
	return dst
}

// fenwick is a binary-indexed tree over bucket sizes supporting weighted
// uniform selection of a (bucket, offset) pair and point deletions. init
// recycles the tree slice, so a pooled fenwick allocates only on growth.
type fenwick struct {
	tree []int
	n    int
	sum  int
}

// init (re)builds the tree over the bucket sizes of contents, reusing the
// backing array when capacity allows.
//
//fairnn:noalloc
func (f *fenwick) init(contents [][]int32) {
	n := len(contents)
	if cap(f.tree) < n+1 {
		f.tree = make([]int, n+1)
	} else {
		f.tree = f.tree[:n+1]
		clear(f.tree)
	}
	f.n = n
	f.sum = 0
	for i, c := range contents {
		f.add(i, len(c))
	}
}

// add adds delta to the size of bucket i.
//
//fairnn:noalloc
func (f *fenwick) add(i, delta int) {
	f.sum += delta
	for j := i + 1; j <= f.n; j += j & (-j) {
		f.tree[j] += delta
	}
}

// total returns the sum of all bucket sizes.
//
//fairnn:noalloc
func (f *fenwick) total() int { return f.sum }

// find locates the bucket containing global position v (0-based) and
// returns (bucket index, offset within bucket).
//
//fairnn:noalloc
func (f *fenwick) find(v int) (bucket, offset int) {
	idx := 0
	bit := 1
	for bit<<1 <= f.n {
		bit <<= 1
	}
	rem := v
	for ; bit > 0; bit >>= 1 {
		next := idx + bit
		if next <= f.n && f.tree[next] <= rem {
			idx = next
			rem -= f.tree[next]
		}
	}
	return idx, rem
}
