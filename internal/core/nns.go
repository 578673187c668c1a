package core

import (
	"context"
	"iter"

	"fairnn/internal/lsh"
	"fairnn/internal/rng"
)

// Sampler is the Section 3 data structure for the r-near neighbor sampling
// problem (r-NNS): points receive ranks from a random permutation that is
// independent of the LSH construction, buckets are stored in ascending rank
// order, and a query returns the minimum-rank near point across its L
// buckets. Because every point of B_S(q, r) is equally likely to hold the
// minimum rank, the output is a uniform sample from the ball (Theorem 1),
// conditioned on the high-probability event that the LSH tables recall the
// whole ball.
//
// Sampler additionally implements Section 3.1: SampleK returns k points
// without replacement (the k smallest ranks), and SampleRepeated implements
// the Appendix A rank-perturbation scheme that makes repetitions of a single
// query independent (Theorem 5).
//
// Sample and SampleK are safe for concurrent use: they read the immutable
// index through pooled per-query scratch. SampleRepeated mutates ranks and
// must not run concurrently with any other query.
type Sampler[P any] struct {
	base *rankedBase[P]
}

// NewSampler builds the Section 3 structure over points with the given LSH
// family and (K, L) parameters. radius is the threshold r (a distance or a
// similarity depending on space.Kind). All randomness derives from seed.
func NewSampler[P any](space Space[P], family lsh.Family[P], params lsh.Params, points []P, radius float64, seed uint64) (*Sampler[P], error) {
	return NewSamplerMemo(space, family, params, points, radius, MemoOptions{}, seed)
}

// NewSamplerMemo is NewSampler with an explicit per-query memory
// discipline (querier-pool retention cap and scratch budget; the Section 3
// query path never consults the near-cache, whose table is allocated
// lazily, so it retains no memo bytes).
func NewSamplerMemo[P any](space Space[P], family lsh.Family[P], params lsh.Params, points []P, radius float64, memo MemoOptions, seed uint64) (*Sampler[P], error) {
	src := rng.New(seed)
	base, err := newRankedBase(space, family, params, points, radius, memo, src)
	if err != nil {
		return nil, err
	}
	return &Sampler[P]{base: base}, nil
}

// N returns the number of indexed points.
func (s *Sampler[P]) N() int { return s.base.N() }

// Size returns the number of indexed points (the Sampler contract).
func (s *Sampler[P]) Size() int { return s.base.N() }

// Radius returns the threshold r.
func (s *Sampler[P]) Radius() float64 { return s.base.Radius() }

// Params returns the LSH parameters in use.
func (s *Sampler[P]) Params() lsh.Params { return s.base.Params() }

// Point returns the indexed point with the given id.
func (s *Sampler[P]) Point(id int32) P { return s.base.Point(id) }

// RetainedScratchBytes reports the backing-array footprint of the pooled
// per-query scratch this structure currently pins between queries.
func (s *Sampler[P]) RetainedScratchBytes() int { return s.base.RetainedScratchBytes() }

// Sample returns the id of a uniform sample from B_S(q, r), or ok=false if
// no near point collides with q in any table or q is malformed. The query
// is deterministic given the data structure (Definition 1 does not
// require independence); use Independent or SampleRepeated for
// independent outputs.
//
//fairnn:noalloc
func (s *Sampler[P]) Sample(q P, st *QueryStats) (id int32, ok bool) {
	if !s.base.validQuery(q, st) {
		return 0, false
	}
	qr := s.base.getQuerier()
	defer s.base.putQuerier(qr)
	s.base.resolve(q, qr, st)
	minRank := int32(-1)
	var minID int32
	for _, bucket := range qr.buckets {
		if bucket == nil {
			continue
		}
		// Scan in ascending rank order until the first near point; an
		// earlier-discovered global minimum lets us stop the scan as soon
		// as ranks exceed it. Ranks are read from the bucket's inline rank
		// array — no Assignment indirection.
		ids := bucket.IDs()
		ranks := bucket.Ranks()
		for i, cand := range ids {
			st.point()
			r := ranks[i]
			if minRank >= 0 && r >= minRank {
				break
			}
			if s.base.near(q, cand, st) {
				minRank = r
				minID = cand
				break
			}
		}
	}
	if minRank < 0 {
		st.found(false)
		return 0, false
	}
	st.found(true)
	return minID, true
}

// SampleContext is Sample under a context. The Section 3 query is a
// bounded bucket scan with no rejection loop, so cancellation is checked
// once up front; a failed (but uncanceled) query returns ErrNoSample and
// a malformed one ErrBadQuery. With context.Background() the output is
// identical to Sample.
//
//fairnn:noalloc
func (s *Sampler[P]) SampleContext(ctx context.Context, q P, st *QueryStats) (int32, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if !s.base.validQuery(q, st) {
		return 0, ErrBadQuery
	}
	id, ok := s.Sample(q, st)
	return sampleCtxResult(ctx, id, ok)
}

// Samples returns a stream of samples from B_S(q, r). The Section 3
// structure is deterministic per build (Definition 1 does not require
// independence), so the stream repeats the same minimum-rank point — use
// Independent (or SampleRepeated, which mutates the index) for
// independent streams. The stream ends when the consumer breaks, ctx is
// done, or the query fails (ErrNoSample).
func (s *Sampler[P]) Samples(ctx context.Context, q P) iter.Seq2[int32, error] {
	return streamOf(ctx, func(ctx context.Context) (int32, error) {
		return s.SampleContext(ctx, q, nil)
	})
}

// SampleK returns up to k ids sampled uniformly without replacement from
// B_S(q, r): the k near points with the smallest ranks among the candidates
// (Section 3.1). Fewer than k ids are returned when the recalled ball is
// smaller than k. The result is in ascending rank order.
func (s *Sampler[P]) SampleK(q P, k int, st *QueryStats) []int32 {
	if k <= 0 {
		return nil
	}
	return s.SampleKInto(q, k, make([]int32, 0, k), st)
}

// SampleKInto is SampleK writing into dst (reset to length zero and grown
// as needed), for callers amortizing the output buffer across queries.
// The k-way merge over the L rank-sorted buckets streams through the
// querier's pooled rank.Merger, so the steady state allocates nothing. A
// malformed q yields no samples.
//
//fairnn:noalloc
func (s *Sampler[P]) SampleKInto(q P, k int, dst []int32, st *QueryStats) []int32 {
	dst = dst[:0]
	if k <= 0 || !s.base.validQuery(q, st) {
		return dst
	}
	qr := s.base.getQuerier()
	defer s.base.putQuerier(qr)
	s.base.resolve(q, qr, st)
	qr.merger.Reset(qr.buckets)
	lastID := int32(-1)
	for len(dst) < k {
		id, _, ok := qr.merger.Next()
		if !ok {
			break
		}
		st.point()
		if id == lastID {
			continue // duplicate across tables (equal ranks are adjacent)
		}
		lastID = id
		if s.base.near(q, id, st) {
			dst = append(dst, id)
		}
	}
	st.found(len(dst) > 0)
	return dst
}

// SampleRepeated implements Appendix A: it returns a uniform sample from
// B_S(q, r) and then perturbs the permutation by swapping the rank of the
// returned point with a uniformly random rank in {rank(x), ..., n-1},
// updating every affected bucket. Repetitions of the *same* query are then
// mutually independent (Theorem 5). Note the paper's caveat: this does not
// solve the general r-NNIS problem across different queries — use
// Independent for that. SampleRepeated mutates the rank permutation and is
// therefore NOT safe for concurrent use with any other query.
func (s *Sampler[P]) SampleRepeated(q P, st *QueryStats) (id int32, ok bool) {
	id, ok = s.Sample(q, st)
	if !ok {
		return 0, false
	}
	qr := s.base.getQuerier()
	defer s.base.putQuerier(qr)
	rx := s.base.asg.Of(id)
	n := int32(s.base.N())
	target := rx + int32(qr.rng.Intn(int(n-rx)))
	other := s.base.asg.IDAt(target)
	s.swapRanks(id, other, qr)
	return id, true
}

// swapRanks exchanges the ranks of two points and restores the rank-order
// invariant of every bucket containing either point. Buckets are located by
// re-hashing the points (one single-pass signature each).
func (s *Sampler[P]) swapRanks(x, y int32, qr *querier) {
	if x == y {
		return
	}
	px, py := s.base.points[x], s.base.points[y]
	s.base.keysInto(px, qr, qr.keys)
	s.base.keysInto(py, qr, qr.keys2)
	// Remove both points from their buckets while the old ranks are live.
	for i := 0; i < s.base.params.L; i++ {
		s.base.tables[i].buckets[qr.keys[i]].Remove(s.base.asg, x)
		s.base.tables[i].buckets[qr.keys2[i]].Remove(s.base.asg, y)
	}
	s.base.asg.Swap(x, y)
	// Re-insert under the new ranks.
	for i := 0; i < s.base.params.L; i++ {
		s.base.tables[i].buckets[qr.keys[i]].Insert(s.base.asg, x)
		s.base.tables[i].buckets[qr.keys2[i]].Insert(s.base.asg, y)
	}
}

// SampleKWithReplacement returns k ids sampled independently (with
// replacement) from B_S(q, r) by repeating SampleRepeated k times
// (Section 3.1). ok=false entries are skipped, so fewer than k ids may be
// returned when recall fails.
func (s *Sampler[P]) SampleKWithReplacement(q P, k int, st *QueryStats) []int32 {
	out := make([]int32, 0, k)
	for i := 0; i < k; i++ {
		if id, ok := s.SampleRepeated(q, st); ok {
			out = append(out, id)
		}
	}
	return out
}

// rankInvariantOK verifies that every bucket is still sorted by rank and
// the assignment is a bijection; exposed for tests via export_test.go.
func (s *Sampler[P]) rankInvariantOK() bool {
	if !s.base.asg.Valid() {
		return false
	}
	for _, t := range s.base.tables {
		for _, b := range t.buckets {
			if !b.Sorted(s.base.asg) {
				return false
			}
		}
	}
	return true
}
