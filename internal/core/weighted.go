package core

import (
	"context"
	"errors"
	"iter"
	"sync/atomic"

	"fairnn/internal/lsh"
	"fairnn/internal/rng"
)

// WeightFunc maps a score (distance or similarity) to a non-negative
// sampling weight. Weights let applications interpolate between exact
// fairness (constant weight) and classic proximity bias (weight increasing
// in similarity) — the weighted case the paper leaves as future work in
// Section 1.3 ("in the case of a recommender system, we might want to
// consider a weighted case where closer points are more likely to be
// returned").
type WeightFunc func(score float64) float64

// Weighted samples points from B_S(q, r) with probability proportional to
// a user-supplied weight of their score. It composes the Section 4
// independent uniform sampler with rejection: draw p uniformly from the
// ball, accept with probability w(score(p))/wMax. Acceptance preserves
// independence across queries because every draw uses fresh randomness.
//
// For the constant weight function this degenerates to the r-NNIS sampler;
// the expected number of uniform draws per output is wMax / avg weight.
type Weighted[P any] struct {
	inner  *Independent[P]
	weight WeightFunc
	wMax   float64
	qseed  uint64
	qctr   atomic.Uint64
	// MaxDraws caps rejection rounds per sample (default 64·wMax/wMin
	// heuristic replaced by a flat 10 000; the cap only triggers for
	// pathological weight functions).
	maxDraws int
}

// NewWeighted wraps an Independent sampler built over the same
// configuration. wMax must upper-bound weight over the score range of
// near points; weights above wMax are clamped (and reported via
// QueryStats.Clamped).
func NewWeighted[P any](space Space[P], family lsh.Family[P], params lsh.Params, points []P, radius float64, weight WeightFunc, wMax float64, opts IndependentOptions, seed uint64) (*Weighted[P], error) {
	if weight == nil {
		return nil, errors.New("core: nil weight function")
	}
	if wMax <= 0 {
		return nil, errors.New("core: wMax must be positive")
	}
	inner, err := NewIndependent(space, family, params, points, radius, opts, seed)
	if err != nil {
		return nil, err
	}
	return &Weighted[P]{
		inner:    inner,
		weight:   weight,
		wMax:     wMax,
		qseed:    seed ^ 0x5eed5eed5eed5eed,
		maxDraws: 10000,
	}, nil
}

// N returns the number of indexed points.
func (w *Weighted[P]) N() int { return w.inner.N() }

// Size returns the number of indexed points (the Sampler contract).
func (w *Weighted[P]) Size() int { return w.inner.N() }

// Point returns the indexed point with the given id.
func (w *Weighted[P]) Point(id int32) P { return w.inner.Point(id) }

// Independent exposes the wrapped uniform sampler.
func (w *Weighted[P]) Independent() *Independent[P] { return w.inner }

// RetainedScratchBytes reports the pooled per-query scratch of the
// wrapped sampler (the weighted layer itself keeps no pooled state — its
// acceptance randomness lives on the stack), so the opts.Memo discipline
// passed at construction bounds this structure's burst memory too.
func (w *Weighted[P]) RetainedScratchBytes() int { return w.inner.RetainedScratchBytes() }

// Sample returns a point p from B_S(q, r) with probability proportional to
// weight(score(q, p)), independently across calls.
func (w *Weighted[P]) Sample(q P, st *QueryStats) (id int32, ok bool) {
	id, err := w.SampleContext(context.Background(), q, st)
	return id, err == nil
}

// SampleContext is the one acceptance-loop body (Sample delegates here
// with context.Background(), so the two entry points cannot diverge):
// cancellation propagates into the wrapped sampler's rejection loop on
// every draw, and a failed (but uncanceled) query returns ErrNoSample.
// The acceptance randomness is a stack-local stream split off the seed by
// the atomic query counter, so concurrent calls are safe and independent.
func (w *Weighted[P]) SampleContext(ctx context.Context, q P, st *QueryStats) (int32, error) {
	var qsrc rng.Source
	qsrc.Seed(w.qseed ^ rng.Mix64(w.qctr.Add(1)))
	for draw := 0; draw < w.maxDraws; draw++ {
		cand, err := w.inner.SampleContext(ctx, q, st)
		if err != nil {
			return 0, err
		}
		st.score()
		score := w.inner.base.space.Score(q, w.inner.base.points[cand])
		wgt := w.weight(score)
		if wgt < 0 {
			wgt = 0
		}
		p := wgt / w.wMax
		if p > 1 {
			st.clamp()
			w.inner.met.ObserveClamp()
			p = 1
		}
		if qsrc.Bernoulli(p) {
			st.found(true)
			return cand, nil
		}
	}
	st.found(false)
	return sampleCtxResult(ctx, 0, false)
}

// Samples returns an unbounded stream of independent weighted samples; it
// ends when the consumer breaks, ctx is done, or a draw fails
// (ErrNoSample).
func (w *Weighted[P]) Samples(ctx context.Context, q P) iter.Seq2[int32, error] {
	return streamOf(ctx, func(ctx context.Context) (int32, error) {
		return w.SampleContext(ctx, q, nil)
	})
}

// SampleK returns k independent weighted samples (with replacement).
func (w *Weighted[P]) SampleK(q P, k int, st *QueryStats) []int32 {
	if k <= 0 {
		return nil
	}
	return w.SampleKInto(q, k, make([]int32, 0, k), st)
}

// SampleKInto is SampleK writing into dst (reset to length zero), for
// callers amortizing the output buffer.
func (w *Weighted[P]) SampleKInto(q P, k int, dst []int32, st *QueryStats) []int32 {
	dst = dst[:0]
	for i := 0; i < k; i++ {
		if id, ok := w.Sample(q, st); ok {
			dst = append(dst, id)
		}
	}
	return dst
}
