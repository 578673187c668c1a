package core

import (
	"context"
	"iter"
	"sync/atomic"

	"fairnn/internal/rng"
)

// Exact is the linear-scan ground truth: it computes B_S(q, r) exactly and
// samples from it uniformly. It exists to validate the fairness of the
// sub-linear structures and to provide the trivial baseline whose query
// time the paper's constructions beat. Queries are safe for concurrent use
// (per-query randomness streams).
type Exact[P any] struct {
	space  Space[P]
	points []P
	radius float64
	qseed  uint64
	qctr   atomic.Uint64
}

// NewExact builds the ground-truth scanner.
func NewExact[P any](space Space[P], points []P, radius float64, seed uint64) *Exact[P] {
	return &Exact[P]{space: space, points: points, radius: radius, qseed: seed}
}

// Ball returns the ids of all points within radius of q (none when q is
// malformed; see Space.QueryOK).
func (e *Exact[P]) Ball(q P, st *QueryStats) []int32 {
	if !e.space.ValidQuery(q, e.points, st) {
		return nil
	}
	var out []int32
	for id := range e.points {
		st.point()
		st.score()
		if e.space.Near(e.space.Score(q, e.points[id]), e.radius) {
			out = append(out, int32(id))
		}
	}
	return out
}

// BallSize returns b_S(q, r) = |B_S(q, r)|.
func (e *Exact[P]) BallSize(q P, st *QueryStats) int { return len(e.Ball(q, st)) }

// BallSizeAt returns |B_S(q, thr)| for an arbitrary threshold; the Q3
// experiment uses it to compute b_cr/b_r ratios.
func (e *Exact[P]) BallSizeAt(q P, thr float64) int {
	n := 0
	for id := range e.points {
		if e.space.Near(e.space.Score(q, e.points[id]), thr) {
			n++
		}
	}
	return n
}

// Sample returns a uniform sample from the exact ball.
func (e *Exact[P]) Sample(q P, st *QueryStats) (id int32, ok bool) {
	ball := e.Ball(q, st)
	if len(ball) == 0 {
		st.found(false)
		return 0, false
	}
	var qsrc rng.Source
	qsrc.Seed(e.qseed ^ rng.Mix64(e.qctr.Add(1)))
	st.found(true)
	return ball[qsrc.Intn(len(ball))], true
}

// SampleK returns k independent with-replacement uniform samples from the
// exact ball. The ball is computed with one linear scan and the k draws
// come from one per-query randomness stream, so the cost is O(n + k)
// rather than k rescans.
func (e *Exact[P]) SampleK(q P, k int, st *QueryStats) []int32 {
	if k <= 0 {
		return nil
	}
	return e.SampleKInto(q, k, make([]int32, 0, k), st)
}

// SampleKInto is SampleK writing into dst (reset to length zero), for
// callers amortizing the output buffer.
func (e *Exact[P]) SampleKInto(q P, k int, dst []int32, st *QueryStats) []int32 {
	dst = dst[:0]
	if k <= 0 {
		return dst
	}
	ball := e.Ball(q, st)
	if len(ball) == 0 {
		st.found(false)
		return dst
	}
	var qsrc rng.Source
	qsrc.Seed(e.qseed ^ rng.Mix64(e.qctr.Add(1)))
	for i := 0; i < k; i++ {
		dst = append(dst, ball[qsrc.Intn(len(ball))])
	}
	st.found(true)
	return dst
}

// SampleContext is Sample under a context. The exact scan is a single
// bounded pass over the points, so cancellation is checked once up front;
// an empty ball returns ErrNoSample and a malformed query ErrBadQuery.
func (e *Exact[P]) SampleContext(ctx context.Context, q P, st *QueryStats) (int32, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if !e.space.ValidQuery(q, e.points, st) {
		return 0, ErrBadQuery
	}
	id, ok := e.Sample(q, st)
	return sampleCtxResult(ctx, id, ok)
}

// Samples returns an unbounded stream of independent uniform samples from
// the exact ball; it ends when the consumer breaks, ctx is done, or the
// ball is empty (ErrNoSample).
func (e *Exact[P]) Samples(ctx context.Context, q P) iter.Seq2[int32, error] {
	return streamOf(ctx, func(ctx context.Context) (int32, error) {
		return e.SampleContext(ctx, q, nil)
	})
}

// RetainedScratchBytes reports the pooled per-query scratch this
// structure pins between queries: the exact scanner keeps none.
func (e *Exact[P]) RetainedScratchBytes() int { return 0 }

// Point returns the indexed point with the given id.
func (e *Exact[P]) Point(id int32) P { return e.points[id] }

// N returns the number of indexed points.
func (e *Exact[P]) N() int { return len(e.points) }

// Size returns the number of indexed points (the Sampler contract).
func (e *Exact[P]) Size() int { return len(e.points) }
