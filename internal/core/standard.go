package core

import (
	"context"
	"errors"
	"iter"
	"sync"
	"sync/atomic"

	"fairnn/internal/lsh"
	"fairnn/internal/rng"
)

// Standard is the classic LSH data structure of Section 2.2 — the baseline
// whose output distribution the paper shows to be unfair. Buckets keep
// points in a fixed (shuffled-at-build) order; a query scans its buckets
// and returns the first near point it meets, so points with higher
// collision probability (closer to the query) are systematically
// overrepresented.
//
// Standard also hosts the two fair-by-postprocessing baselines used in the
// Section 6 experiments:
//
//   - NaiveFairSample ("fair LSH" in Figure 1): collect all candidates in
//     the L buckets, deduplicate, keep the r-near ones, return one uniformly.
//   - ApproxFairSample (Section 6.2): same, but keep every point with
//     similarity at least the *approximate* threshold (cr), reproducing the
//     approximate-neighborhood semantics of Har-Peled and Mahabadi.
//
// All query methods are safe for concurrent use: the index is read-only
// after construction and query randomness comes from per-query streams
// split off the seed by an atomic counter. The early-exit scans (Query,
// QueryANN) hash one table at a time — a single pass over the query per
// table via the signature engine — so an exit after table i pays only
// (i+1)·K hash evaluations.
type Standard[P any] struct {
	space  Space[P]
	points []P
	radius float64
	params lsh.Params
	signer *lsh.Signer[P]
	tables []map[uint64][]int32

	qseed uint64
	qctr  atomic.Uint64
	pool  sync.Pool // *stdQuerier
}

// stdQuerier is the reusable per-query scratch of the baseline structure:
// a K-wide raw-signature buffer for lazy per-table keys and a per-query
// RNG stream.
type stdQuerier struct {
	sig []uint64
	rng rng.Source
}

// NewStandard builds the baseline structure. Bucket contents are shuffled
// once at construction (this matches practical implementations and the
// paper's observation that bias persists even under randomized orders).
func NewStandard[P any](space Space[P], family lsh.Family[P], params lsh.Params, points []P, radius float64, seed uint64) (*Standard[P], error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if len(points) == 0 {
		return nil, errors.New("core: empty point set")
	}
	src := rng.New(seed)
	s := &Standard[P]{
		space:  space,
		points: points,
		radius: radius,
		params: params,
		signer: lsh.NewSigner(family, params.L*params.K, src),
		tables: make([]map[uint64][]int32, params.L),
	}
	n := len(points)
	L, K := params.L, params.K
	allKeys := make([]uint64, n*L)
	parallelRange(n, func(lo, hi int) {
		sig := make([]uint64, L*K)
		for p := lo; p < hi; p++ {
			s.signer.Sign(points[p], sig)
			lsh.CombineKeys(sig, K, allKeys[p*L:(p+1)*L])
		}
	})
	for i := 0; i < L; i++ {
		b := make(map[uint64][]int32)
		for p := 0; p < n; p++ {
			key := allKeys[p*L+i]
			b[key] = append(b[key], int32(p))
		}
		for _, ids := range b {
			src.ShuffleInt32(ids)
		}
		s.tables[i] = b
	}
	s.qseed = src.Uint64()
	return s, nil
}

func (s *Standard[P]) getQuerier() *stdQuerier {
	qr, _ := s.pool.Get().(*stdQuerier)
	if qr == nil {
		qr = &stdQuerier{sig: make([]uint64, s.params.K)}
	}
	qr.rng.Seed(s.qseed ^ rng.Mix64(s.qctr.Add(1)))
	return qr
}

func (s *Standard[P]) putQuerier(qr *stdQuerier) { s.pool.Put(qr) }

// keyOf computes the bucket key of q in table i: one pass over q's
// elements for that table's K functions.
func (s *Standard[P]) keyOf(i int, q P, qr *stdQuerier) uint64 {
	s.signer.SignRange(q, i*s.params.K, (i+1)*s.params.K, qr.sig)
	return lsh.TableKey(qr.sig)
}

// N returns the number of indexed points.
func (s *Standard[P]) N() int { return len(s.points) }

// Size returns the number of indexed points (the Sampler contract).
func (s *Standard[P]) Size() int { return len(s.points) }

// Radius returns the threshold r.
func (s *Standard[P]) Radius() float64 { return s.radius }

// Params returns the LSH parameters in use.
func (s *Standard[P]) Params() lsh.Params { return s.params }

// Point returns the indexed point with the given id.
func (s *Standard[P]) Point(id int32) P { return s.points[id] }

func (s *Standard[P]) near(q P, id int32, thr float64, st *QueryStats) bool {
	st.score()
	return s.space.Near(s.space.Score(q, s.points[id]), thr)
}

// Query returns the first r-near point found while scanning the query's
// buckets table by table — the standard, biased LSH query.
func (s *Standard[P]) Query(q P, st *QueryStats) (id int32, ok bool) {
	qr := s.getQuerier()
	defer s.putQuerier(qr)
	for i := 0; i < s.params.L; i++ {
		st.bucket()
		for _, cand := range s.tables[i][s.keyOf(i, q, qr)] {
			st.point()
			if s.near(q, cand, s.radius, st) {
				st.found(true)
				return cand, true
			}
		}
	}
	st.found(false)
	return 0, false
}

// QueryRandomTableOrder scans tables in a fresh random order. The paper
// notes (Section 2.2) that the output remains biased even under such
// randomization; the experiments use this to demonstrate exactly that.
func (s *Standard[P]) QueryRandomTableOrder(q P, st *QueryStats) (id int32, ok bool) {
	qr := s.getQuerier()
	defer s.putQuerier(qr)
	order := qr.rng.Perm(s.params.L)
	for _, i := range order {
		st.bucket()
		for _, cand := range s.tables[i][s.keyOf(int(i), q, qr)] {
			st.point()
			if s.near(q, cand, s.radius, st) {
				st.found(true)
				return cand, true
			}
		}
	}
	st.found(false)
	return 0, false
}

// QueryANN is the textbook (c, r)-approximate near neighbor query: it
// returns the first cr-near point and gives up after inspecting more than
// 3L far points (Section 2.2, following Indyk–Motwani). crRadius is the
// relaxed threshold (c·r for distances, c·r with c<1 for similarities).
func (s *Standard[P]) QueryANN(q P, crRadius float64, st *QueryStats) (id int32, ok bool) {
	qr := s.getQuerier()
	defer s.putQuerier(qr)
	farBudget := 3 * s.params.L
	for i := 0; i < s.params.L; i++ {
		st.bucket()
		for _, cand := range s.tables[i][s.keyOf(i, q, qr)] {
			st.point()
			if s.near(q, cand, crRadius, st) {
				st.found(true)
				return cand, true
			}
			farBudget--
			if farBudget <= 0 {
				st.found(false)
				return 0, false
			}
		}
	}
	st.found(false)
	return 0, false
}

// Candidates returns the deduplicated union of q's buckets (the set S_q),
// in unspecified order, charging the scan to st.
func (s *Standard[P]) Candidates(q P, st *QueryStats) []int32 {
	qr := s.getQuerier()
	defer s.putQuerier(qr)
	return s.candidates(q, qr, st)
}

// candidates is the query check of the candidate-based entry points: a
// malformed q recalls nothing.
func (s *Standard[P]) candidates(q P, qr *stdQuerier, st *QueryStats) []int32 {
	if !s.space.ValidQuery(q, s.points, st) {
		return nil
	}
	seen := make(map[int32]struct{})
	var out []int32
	for i := 0; i < s.params.L; i++ {
		st.bucket()
		for _, cand := range s.tables[i][s.keyOf(i, q, qr)] {
			st.point()
			if _, ok := seen[cand]; ok {
				continue
			}
			seen[cand] = struct{}{}
			out = append(out, cand)
		}
	}
	return out
}

// Sample fulfills the Sampler contract with the structure's fair-by-
// postprocessing baseline: it is NaiveFairSample (uniform over the
// recalled r-near candidates). The biased first-hit scan stays available
// as Query/QueryRandomTableOrder.
func (s *Standard[P]) Sample(q P, st *QueryStats) (id int32, ok bool) {
	return s.NaiveFairSample(q, st)
}

// SampleK returns k independent with-replacement draws of Sample. The
// recalled near candidates are deterministic per (structure, query), so
// they are collected once and the k uniform draws share one per-query
// randomness stream — O(candidates + k) instead of k bucket rescans,
// with the same output distribution as repeated NaiveFairSample.
func (s *Standard[P]) SampleK(q P, k int, st *QueryStats) []int32 {
	if k <= 0 {
		return nil
	}
	return s.SampleKInto(q, k, make([]int32, 0, k), st)
}

// SampleKInto is SampleK writing into dst (reset to length zero), for
// callers amortizing the output buffer.
func (s *Standard[P]) SampleKInto(q P, k int, dst []int32, st *QueryStats) []int32 {
	dst = dst[:0]
	if k <= 0 {
		return dst
	}
	qr := s.getQuerier()
	defer s.putQuerier(qr)
	cands := s.candidates(q, qr, st)
	kept := cands[:0]
	for _, cand := range cands {
		if s.near(q, cand, s.radius, st) {
			kept = append(kept, cand)
		}
	}
	if len(kept) == 0 {
		st.found(false)
		return dst
	}
	st.found(true)
	for i := 0; i < k; i++ {
		dst = append(dst, kept[qr.rng.Intn(len(kept))])
	}
	return dst
}

// SampleContext is Sample under a context. The naive fair scan is a
// bounded pass over the query's buckets, so cancellation is checked once
// up front; a failed (but uncanceled) query returns ErrNoSample and a
// malformed one ErrBadQuery.
func (s *Standard[P]) SampleContext(ctx context.Context, q P, st *QueryStats) (int32, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if !s.space.ValidQuery(q, s.points, st) {
		return 0, ErrBadQuery
	}
	id, ok := s.Sample(q, st)
	return sampleCtxResult(ctx, id, ok)
}

// Samples returns a stream of independent naive fair samples; it ends
// when the consumer breaks, ctx is done, or a draw fails (ErrNoSample).
func (s *Standard[P]) Samples(ctx context.Context, q P) iter.Seq2[int32, error] {
	return streamOf(ctx, func(ctx context.Context) (int32, error) {
		return s.SampleContext(ctx, q, nil)
	})
}

// RetainedScratchBytes reports the pooled per-query scratch this
// structure pins between queries. The baseline keeps only a fixed K-word
// signature buffer per querier in an uninspectable sync.Pool, so it
// reports 0 — the candidate collections of the fair baselines are
// allocated per call and never retained.
func (s *Standard[P]) RetainedScratchBytes() int { return 0 }

// NaiveFairSample collects all candidates, keeps those within radius, and
// returns one uniformly at random — the "fair LSH" reference implementation
// of Section 6.1. Its cost scales with the neighborhood size, which is
// exactly the inefficiency Sections 3–5 remove.
func (s *Standard[P]) NaiveFairSample(q P, st *QueryStats) (id int32, ok bool) {
	return s.uniformAmong(q, s.radius, st)
}

// ApproxFairSample keeps every candidate with score meeting the relaxed
// threshold (cr) and samples uniformly among them — the approximate
// neighborhood semantics studied in Section 6.2. The returned point may be
// a (c, r)-near point rather than an r-near one.
func (s *Standard[P]) ApproxFairSample(q P, crRadius float64, st *QueryStats) (id int32, ok bool) {
	return s.uniformAmong(q, crRadius, st)
}

func (s *Standard[P]) uniformAmong(q P, thr float64, st *QueryStats) (int32, bool) {
	qr := s.getQuerier()
	defer s.putQuerier(qr)
	cands := s.candidates(q, qr, st)
	kept := cands[:0]
	for _, cand := range cands {
		if s.near(q, cand, thr, st) {
			kept = append(kept, cand)
		}
	}
	if len(kept) == 0 {
		st.found(false)
		return 0, false
	}
	st.found(true)
	return kept[qr.rng.Intn(len(kept))], true
}

// RecalledBall returns the r-near candidates of q (deduplicated), i.e. the
// portion of the true ball that the tables recall. Used by experiments to
// separate recall failures from fairness effects.
func (s *Standard[P]) RecalledBall(q P, st *QueryStats) []int32 {
	cands := s.Candidates(q, st)
	kept := cands[:0]
	for _, cand := range cands {
		if s.near(q, cand, s.radius, st) {
			kept = append(kept, cand)
		}
	}
	return kept
}
