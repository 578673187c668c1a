package core

import (
	"context"
	"errors"
	"iter"
)

// This file is the context-aware query surface shared by every sampler:
// SampleContext (one cancellable draw) and Samples (an unbounded
// cancellable stream, Go 1.23 iter.Seq2). Both are thin shims over the
// same query paths as Sample/SampleK — they draw randomness in exactly
// the same order, so a SampleContext under context.Background() returns
// bit-identical ids to Sample at the same point of a seed's stream.
//
// Cancellation is checked inside the Section 4/5 rejection loops every
// ctxCheckRounds rounds (an amortized ctx.Err() call, preserving the
// zero-allocation steady state), so a query spinning under an adversarial
// workload returns context.Canceled / context.DeadlineExceeded within one
// check interval instead of exhausting its rejection budget.

// ErrNoSample is returned by SampleContext (and yielded by Samples) when
// the structure finds no near point for the query: the recalled ball is
// empty, or a rejection budget was exhausted (a probability-≤δ event
// under the paper's constants). It corresponds exactly to ok=false from
// Sample.
var ErrNoSample = errors.New("core: no near point sampled")

// ErrBadQuery is returned by SampleContext (and yielded by Samples) when
// the query is malformed for the index (see Space.QueryOK): a set that is
// not strictly increasing, or a vector of the wrong dimension or with a
// NaN/±Inf coordinate. Sample and SampleK return no sample for such a
// query.
var ErrBadQuery = errors.New("core: malformed query")

// ErrNonFinite is returned at construction when an indexed vector has a
// NaN or ±Inf coordinate; the error message names the point.
var ErrNonFinite = errors.New("core: non-finite vector coordinate")

// ctxCheckRounds is the rejection-loop cancellation granularity: loops
// poll ctx.Err() once per this many rounds. A round is a few hundred
// nanoseconds, so cancellation latency stays in the tens of microseconds
// while the steady-state cost of polling is amortized to noise.
const ctxCheckRounds = 64

// sampleCtxResult translates a (id, ok) sample outcome into the
// SampleContext contract, giving cancellation priority: a query that was
// canceled mid-loop reports the context error even if it also failed to
// find a point.
//
//fairnn:noalloc
func sampleCtxResult(ctx context.Context, id int32, ok bool) (int32, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if !ok {
		return 0, ErrNoSample
	}
	return id, nil
}

// streamOf adapts a draw function into the Samples contract: an unbounded
// iter.Seq2 stream that yields ids until the consumer stops, the context
// is done, or a draw fails (ErrNoSample). A non-nil error is yielded once
// and terminates the stream.
func streamOf(ctx context.Context, draw func(ctx context.Context) (int32, error)) iter.Seq2[int32, error] {
	return func(yield func(int32, error) bool) {
		for {
			id, err := draw(ctx)
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
