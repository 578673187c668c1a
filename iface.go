package fairnn

import (
	"context"
	"iter"

	"fairnn/internal/core"
)

// This file is the polymorphic query contract of the library. Every
// public sampler — all Section 3/4/5 structures, the baselines, and the
// extensions — answers the same question (draw samples from B_S(q, r)),
// so they all satisfy one interface. Middleware (metrics, tracing,
// sharded fan-out, reservoir consumers) is written once against
// Sampler[P] and works with any construction.

// ErrNoSample is returned by SampleContext (and yielded once by Samples)
// when a query finds no near point: the recalled ball is empty, or a
// rejection budget was exhausted (a probability-≤δ event under the
// paper's constants). It corresponds exactly to ok=false from Sample.
var ErrNoSample = core.ErrNoSample

// ErrBadQuery is returned by SampleContext (and yielded once by Samples)
// for a malformed query: a Set that is not strictly increasing, or a Vec
// of the wrong dimension or with a NaN/±Inf coordinate. Sample and
// SampleK return no sample for it instead of panicking.
var ErrBadQuery = core.ErrBadQuery

// Sampler is the uniform near-neighbor sampling contract shared by every
// structure in the library (P is the point type: Set or Vec).
//
// The methods split into three groups:
//
//   - Plain queries: Sample draws one id from B_S(q, r) (ok=false when
//     nothing near is recalled or q is malformed); SampleK draws k — with
//     or without replacement depending on the structure, see each type's
//     docs — and SampleKInto is its zero-allocation variant into dst.
//   - Context-aware queries: SampleContext is Sample under a context —
//     the Section 4/5 rejection loops poll ctx.Err() every few dozen
//     rounds, so a query spinning under deadline pressure returns
//     context.DeadlineExceeded (or context.Canceled) within one check
//     interval; a failed but uncanceled query returns ErrNoSample, and a
//     malformed query ErrBadQuery.
//     Samples returns an unbounded sample stream (Go 1.23 iterator) with
//     no output buffer — the natural shape for online audits and
//     reservoir consumers; the stream ends when the consumer breaks, ctx
//     is done, or a draw fails.
//   - Introspection: Size is the number of indexed points and
//     RetainedScratchBytes the pooled per-query scratch the structure
//     currently pins between queries (0 for structures that retain
//     none).
//
// Whether outputs are independent across draws depends on the structure
// (SetIndependent, VecSamplerIndependent, VecIndependent, SetWeighted,
// SetExact and SetStandard's naive fair baseline are; SetSampler and
// SetDynamic are deterministic per build), exactly as with Sample.
// All implementations are safe for concurrent use on the query paths
// (SetDynamic streams must not overlap Insert/Delete).
type Sampler[P any] interface {
	Sample(q P, st *QueryStats) (id int32, ok bool)
	SampleK(q P, k int, st *QueryStats) []int32
	SampleKInto(q P, k int, dst []int32, st *QueryStats) []int32
	SampleContext(ctx context.Context, q P, st *QueryStats) (id int32, err error)
	Samples(ctx context.Context, q P) iter.Seq2[int32, error]
	Size() int
	RetainedScratchBytes() int
}

// Compile-time conformance: every public sampler type satisfies the
// Sampler interface.
var (
	_ Sampler[Set] = (*SetSampler)(nil)
	_ Sampler[Set] = (*SetIndependent)(nil)
	_ Sampler[Set] = (*SetStandard)(nil)
	_ Sampler[Set] = (*SetExact)(nil)
	_ Sampler[Set] = (*SetWeighted)(nil)
	_ Sampler[Set] = (*SetMultiRadius)(nil)
	_ Sampler[Set] = (*SetDynamic)(nil)
	_ Sampler[Set] = (*Sharded[Set])(nil)
	_ Sampler[Vec] = (*VecSampler)(nil)
	_ Sampler[Vec] = (*VecSamplerIndependent)(nil)
	_ Sampler[Vec] = (*VecIndependent)(nil)
	_ Sampler[Vec] = (*VecExact)(nil)
	_ Sampler[Vec] = (*Sharded[Vec])(nil)
)
