// Package fairnn is a Go implementation of the fair near-neighbor data
// structures from Aumüller, Pagh and Silvestri, "Fair Near Neighbor Search:
// Independent Range Sampling in High Dimensions" (PODS 2020).
//
// The r-near neighbor sampling problem asks for a data structure that, for
// a query q, returns a point sampled uniformly at random from the ball
// B_S(q, r) = {p ∈ S : D(p, q) ≤ r}. Standard LSH indexes are biased: the
// probability of reporting a point grows with its similarity to the query.
// This package provides the paper's unbiased alternatives:
//
//   - SetSampler (Section 3): uniform sampling via a random rank
//     permutation over LSH buckets. Deterministic per build; supports
//     k-samples without replacement and a rank-perturbation mode
//     (Appendix A) that makes repetitions of one query independent.
//   - SetIndependent (Section 4): fully independent uniform sampling
//     (the r-NNIS problem) using per-bucket rank indices and mergeable
//     count-distinct sketches.
//   - VecIndependent (Section 5): independent uniform sampling under inner
//     product similarity in nearly-linear space, built on locality-
//     sensitive filters.
//   - SetStandard: the classic biased LSH baseline, plus the naive fair
//     and approximate-neighborhood samplers used in the paper's
//     experimental comparison.
//
// Points are either item sets (Jaccard similarity; type Set) or unit
// vectors (inner product; type Vec). The underlying generic implementations
// in internal/core work for any metric with an LSH family.
//
// # One contract, many constructions
//
// Every structure in the library answers the same question — draw samples
// from B_S(q, r) — so they all satisfy the generic Sampler interface:
// Sample / SampleK / SampleKInto, the context-aware SampleContext and
// streaming Samples, plus Size and RetainedScratchBytes introspection.
// Middleware (metrics, tracing, sharded fan-out, reservoir consumers) is
// written once against Sampler[Set] or Sampler[Vec] and works with any
// construction.
//
// Construction goes through one functional-options builder per point
// type:
//
//	s, err := fairnn.NewSet(points,
//	    fairnn.Radius(0.5),
//	    fairnn.Algorithm(fairnn.NNIS), // the default
//	    fairnn.WithSeed(7),
//	)
//	v, err := fairnn.NewVec(vecs,
//	    fairnn.Radius(0.8),                 // alpha
//	    fairnn.Algorithm(fairnn.Filter),    // Section 5
//	    fairnn.WithBeta(0.5),
//	)
//
// Option validation returns typed errors (ErrBadRadius, ErrNoPoints,
// ErrDimMismatch, ErrNonFinite, ErrBadOption) matched with errors.Is. The legacy
// constructors (NewSetSampler, NewSetIndependent, ...) remain fully
// supported — the builder delegates to them, so a builder-made sampler
// produces bit-identical same-seed sample streams to its legacy twin.
//
// # Cancellation and streaming
//
// SampleContext runs one draw under a context: the Section 4/5 rejection
// loops poll ctx.Err() every few dozen rounds (amortized — the
// zero-allocation steady state is preserved), so a query spinning under
// an adversarial workload returns context.Canceled or
// context.DeadlineExceeded within one check interval; a failed but
// uncanceled query returns ErrNoSample, a malformed one ErrBadQuery.
// Samples returns an unbounded independent sample stream as a Go
// iterator with no output buffer:
//
//	for id, err := range s.Samples(ctx, q) {
//	    if err != nil { break } // ctx done, or ErrNoSample
//	    consume(id)
//	}
//
// The stream shares one query plan (and one memo epoch) across all its
// draws, exactly like SampleK. SampleBatchContext and SampleKBatchContext
// are the cancellation-aware bulk fan-outs.
//
// # Sharding
//
// WithShards(s) partitions the point set across s shards — round-robin by
// default, or by a seeded index hash via
// WithPartitioner(HashPartitioner(seed)) — and builds one Section 4
// structure per shard, in parallel. The resulting Sharded sampler answers
// the full Sampler contract with ids in the global index space of the
// original point slice (the shard→global translation tables are built
// once at construction).
//
// Uniformity over the union is not free: shards hold different numbers of
// near neighbors of q, so picking a shard uniformly and sampling inside
// it would be biased toward points in sparse shards. Sharded instead uses
// the paper's union-of-buckets machinery: each query estimates every
// shard's near count from its count-distinct sketches, picks a shard with
// probability proportional to the estimate (concretely, a segment
// uniformly at random from the union of all shards' rank-segment pools),
// counts the segment's near points exactly, and accepts with probability
// λ_q,h/λ under one λ shared by all shards. Per round, the probability of
// emitting any particular near point is 1/(λ·Σk) — independent of which
// shard holds it and of all the estimates — so every accepted draw is
// exactly uniform over the union ball and successive draws are
// independent (Theorem 2 lifted to the partitioned index); the rejection
// step absorbs all sketch-estimate error. All randomness of one logical
// query flows from a single stream split off the seed, so outputs are
// deterministic per query index no matter how the per-shard work is
// scheduled; with WithShards(1) the sharded sampler is bit-identical —
// same-seed streams and all — to the unsharded sampler it wraps.
//
// On sharded queries, QueryStats reports per-shard rejection rounds
// (ShardRounds), per-shard estimates (ShardEstimates) and the shard that
// produced the sample (ShardChosen). Sharding wraps read-only samplers
// only: combining WithShards with Algorithm(Dynamic) returns
// ErrShardedDynamic (a mutable shard would silently skew the union
// distribution); keep one unsharded SetDynamic for a mutable working set
// and rebuild the sharded index offline.
//
// # Resilience
//
// Each shard of a sharded sampler is an explicit failure domain behind a
// per-shard backend seam: the three per-shard operations of a query —
// arming (estimate + plan setup), per-round segment reports, and the
// final point pick — go through an interface an RPC backend can later
// implement, and the in-process backend the library ships wraps today's
// per-shard structures with zero overhead. On top of that seam sits an
// opt-in resilience policy, assembled with builder options on sharded
// builds only (they return ErrBadOption without WithShards):
//
//   - WithShardDeadline(d) bounds every per-shard call attempt with a
//     context deadline.
//   - WithShardRetry(n) retries a failed call up to n times under capped
//     exponential backoff with full jitter (WithShardBackoff tunes the
//     base and cap). Backoff randomness comes from a derived substream,
//     never the query's own sample stream.
//   - WithDegradedMode() opts into graceful degradation: a shard that
//     exhausts its deadline/retry budget is excluded from the union pool
//     and the query proceeds over the survivors. The two-stage draw's
//     per-round emit probability, 1/(λ·Σk), never depended on which
//     shards contribute — so a degraded answer is still exactly uniform,
//     over the surviving shards' union ball. Degraded answers are not
//     errors; they are reported on QueryStats.Degraded (DegradedInfo:
//     lost shards, lost point count, estimated surviving coverage of the
//     union ball). Without degraded mode the query fails fast with a
//     typed *ShardError naming the shard, operation and cause — match
//     the whole family with errors.Is(err, ErrDegraded).
//
// Exhausted shards land in a per-sampler health registry that fails fast
// (skipping the dead shard without paying its deadline again) and probes
// it for re-admission every WithShardProbeEvery(n)-th query it would
// have served; a probe that arms successfully restores the shard. Health
// is observable via Sharded.Health. With no faults and no resilience
// options the plain query path is untouched: zero allocations, and
// same-seed streams bit-identical to a policy-free build — an idle
// injector or an un-triggered policy is contractually invisible.
//
// Worker panics are contained everywhere the library fans out: parallel
// shard builds surface a typed *BuildError naming the shard and point
// (wrapping a *PanicError with the worker's stack) instead of crashing
// the process; SampleBatch re-panics a worker panic on the caller's
// goroutine as a catchable *PanicError after draining the batch; the
// context batch variants return it as the batch error; and a panic
// inside a resilient per-shard call is just another failed attempt.
//
// WithFaultInjection(inj) interposes a deterministic fault harness
// (tests only) on every backend call of a sharded sampler: a
// FaultInjector built from NewFaultInjector(shards, seed, specs...)
// injects latency, transient errors, stalls and panics per FaultSpec,
// with every decision a pure function of (seed, shard, operation, call
// ordinal) — a schedule that kills shard 2's third arm call kills it on
// every run, under the race detector, at any GOMAXPROCS. The fairnn
// command's "-exp chaos" runs seeded random schedules end to end — both
// injected faults in process and real kill/restart cycles against live
// loopback servers.
//
// # Serving
//
// The serving subsystem runs a sharded sampler's backends out of
// process, over a versioned length-prefixed binary protocol on TCP
// (internal/wire; stdlib only, pipelined requests, propagated
// deadlines, typed error codes). cmd/fairnn-server builds one shard's
// Section 4 structure from a shared deterministic spec and serves the
// three backend operations; internal/shard.Connect dials one server per
// shard and assembles a Sharded sampler whose remote backends sit
// behind the same Backend seam — so deadlines, retries, degraded mode,
// the health registry and fault injection from the Resilience section
// apply over the wire unchanged.
//
// The servers hold no randomness: arming mirrors the (ŝ, k0) estimate
// state back to the client, segment requests carry the client's halving
// state, and the pick request carries an index drawn client-side from
// the query's own stream. A fault-free network fleet therefore emits
// same-seed sample streams bit-identical to the in-process sampler over
// the same build, and killing a server process degrades exactly like an
// in-process shard loss: answers stay exactly uniform over the
// survivors' union ball, the loss lands on QueryStats.Degraded, and a
// restarted server — its build identity re-verified at the redial
// handshake — is probed back in by the health registry. Connections
// cross-check the whole fleet's build identity (global point count, λ,
// Σ budget, radius, shard index and count, point codec) at the
// handshake, so a mis-assembled or mixed-build fleet fails loudly at
// Connect instead of sampling from a subtly wrong distribution. The
// fairnn command's "-exp serve" load-tests a loopback fleet end to end
// and reports full latency histograms (p50/p90/p99/p999), throughput,
// and the sampler's health registry over a wire endpoint of its own.
//
// # Observability
//
// Observe(r) attaches a telemetry Registry (NewRegistry) to a sampler;
// every instrument watches a specific invariant of the construction:
//
//   - fairnn_rejection_rounds_total against fairnn_draws_total is the
//     rejection-loop round count per draw — the paper's λ/Σ resolution
//     made visible. Theorem 2's accounting keeps expected rounds O(1)
//     when the per-query near-count estimate resolves correctly; a
//     drifting rounds-per-draw ratio is the earliest sign a build's
//     estimate quality has degraded.
//   - fairnn_memo_hits_total and fairnn_batch_scored_total split the
//     scoring work between the per-query memo and the batched distance
//     kernels; together with fairnn_score_evals_total they watch the
//     "each candidate scored at most once per Sample" memoization
//     contract.
//   - fairnn_degraded_draws_total counts draws answered from a
//     survivors-only union ball. Each such draw is still exactly
//     uniform — over a smaller population — so this counter is the
//     operator's measure of how often answers carried that asterisk.
//   - fairnn_draws_clamped_total counts draws whose acceptance
//     probability exceeded 1 and was clamped (QueryStats.Clamped): the
//     one event that breaks exact uniformity, so it stays at zero.
//   - fairnn_shard_op_latency_seconds / _errors_total / _retries_total
//     (labeled by shard and arm/segment/pick), the backoff counters,
//     and fairnn_shard_health_down_total / _readmit_total watch the
//     resilience policy itself: which failure domains are paying the
//     deadline/retry budget and how often the health registry cycles a
//     shard out and back in.
//   - The wire client and server register per-op request latency,
//     redials, deadline sheds, refused-while-draining counts, and
//     active plan/connection gauges — the serving section's drain and
//     shed behavior as numbers instead of anecdotes.
//
// WithTraceSampling(everyN) additionally captures, for one query in
// everyN, the full span tree across the sharded backend seam — the arm
// fan-out, each shard's segment reports and point picks, annotated with
// retries, degraded transitions, and failure notes — retained in the
// registry's trace ring (Registry.Tracer, TraceRing.Recent). The
// trace-or-not decision is a pure hash of the query's stream seed in a
// derived substream, a discipline the rngstream analyzer enforces
// statically: sampling decisions drawn from the query's own RNG stream
// would shift every subsequent draw.
//
// The whole subsystem honors the idle-invisibility contract the fault
// injector set: no Observe (a nil registry) means bit-identical
// same-seed sample streams and zero extra allocations on the Sample hot
// path — and an attached registry changes cost only, never output.
// Both halves are pinned by CI oracles (stream-equality tests and
// testing.AllocsPerRun with a fully enabled registry). For operators,
// fairnn-server's -obs flag serves the registry as /metrics (Prometheus
// text format) plus the standard /debug/pprof profiles on a separate
// listener, and MetricsHandler mounts the same exposition in any
// process embedding the library.
//
// # Concurrency
//
// All indexes are immutable after construction and their query methods are
// safe for concurrent use: per-query scratch (bucket keys, candidate
// buffers, sketch accumulators, memo tables) is pooled, and each query
// draws its randomness from a dedicated stream split off the seed by an
// atomic query counter, so concurrent queries remain uniform and mutually
// independent. Steady-state queries on the Section 3, Section 4 and
// Section 5 structures perform zero heap allocations. Two exceptions
// mutate the index and must not run concurrently with any other call:
// SetSampler.SampleRepeated (Appendix A rank perturbation) and
// SetDynamic's Insert/Delete. Hashing is served by a batched signature
// engine that computes all L·K hash values of a point in a single pass
// over its elements; see SampleBatch/SampleKBatch for a ready-made
// bulk-query fan-out.
//
// The rejection-sampling queries are memoized per query: each distinct
// candidate is distance-scored at most once per Sample (and once across
// an entire SampleK — the paper's independence guarantees need fresh
// randomness per sample, not fresh distance evaluations, so results are
// exact), and long rejection loops adaptively merge their LSH buckets
// into one deduplicated rank-sorted cursor. Every SampleK has a
// SampleKInto(q, k, dst, st) variant that recycles the caller's output
// buffer for a zero-allocation steady state.
//
// # Memory budget
//
// Pooled per-query scratch is bounded. The memo table backing the
// rejection-loop caches is a compact open-addressing table with
// epoch-stamped slots, sized to the query's live candidate set (8 bytes
// per slot for near/far verdicts, 16 for memoized similarities), so it
// is o(n) by construction and allocated only once a query consults it.
// MemoOptions (the Memo field of Config, VecConfig, IndependentOptions
// and VecOptions) bounds how much of that scratch outlives a query: each
// index retains at most MemoOptions.MaxRetainedQueriers queriers across
// checkouts, and frees a querier's scratch on release when it exceeds
// MemoOptions.ScratchBudget bytes (default 32 MiB). A one-time burst of G
// concurrent queries therefore never pins O(G·n) memory for the process
// lifetime. Memoization affects only cost, never any sampler's output
// distribution; QueryStats.MemoProbes and ScoreCacheHits make the memo
// behavior observable per query, and each structure's
// RetainedScratchBytes reports what its pool currently pins.
//
// # Performance
//
// Distance scoring — the inner loop of every rejection sampler — runs on
// a two-tier kernel stack. The portable tier is straight-line Go
// (4-way-unrolled dot product and squared ℓ2 distance) and compiles
// everywhere. On amd64 hosts with AVX2+FMA, an assembly tier processes
// 16 float64 lanes per iteration across four independent FMA
// accumulator chains; the CPU features are probed once at startup and
// the faster tier is selected automatically. Batched variants score a
// whole block of candidates against one query in a single call, and the
// query pipeline is organized around them: the Section 4 sampler
// filters its memo-miss candidates per block through the optional
// ScoreSqBatch seam of its metric space, the Section 5 sampler runs its
// existence scan and filter evaluations over fixed-size blocks, and the
// hash-signing engines compute their projection rows through the same
// batched kernels. Batching and acceleration change cost only, never
// output: within one build the batched and per-candidate paths produce
// bit-identical sample streams and identical QueryStats counters
// (ScoreEvals, ScoreCacheHits, MemoProbes), with BatchScored counting
// how many of the scores went through a batched call.
//
// The portable tier remains fully supported: building with the purego
// (or noasm) build tag compiles the assembly out, and setting the
// FAIRNN_NOASM environment variable before process start disables it at
// runtime on binaries that carry it. The two tiers reduce floating-
// point sums in different orders, so across tiers streams are expected —
// but not guaranteed — to be bit-identical; where a last-bit difference
// flips a threshold verdict, the sampler's actual contract (uniformity
// on the ball) still holds and is pinned by the repo's chi-squared
// stream tests. End to end the accelerated tier pays at build time: on
// perfbench vec-filter (4000 points, d = 128; 4 interleaved run pairs,
// seeds 401–404, 2-core amd64) setup takes 1.8–2.1 s against 5.6–6.1 s
// with FAIRNN_NOASM=1, and query p50 latency is unchanged.
//
// # Static guarantees
//
// The contracts above are enforced twice. At run time, CI oracles
// measure them directly: testing.AllocsPerRun pins the zero-allocation
// steady state, chi-squared tests pin stream uniformity, and the fault
// harness pins idle-injector bit-equivalence. At compile time, the
// fairnnlint analyzer suite (cmd/fairnnlint, built on internal/analysis)
// rejects the code shapes that would erode those oracles between
// measurements:
//
//   - rngstream: math/rand never appears outside tests, RNG sources are
//     constructed only at build time, and every mid-query seed derives
//     from the stream-splitting mixer — so per-query streams stay
//     deterministic and mutually independent.
//   - noalloc: functions marked //fairnn:noalloc (the steady-state query
//     path) contain no allocating constructs, transitively; escapes are
//     explicit //fairnn:allocok lines with a reviewable reason.
//   - ctxpoll: unbounded loops in context-taking functions poll
//     cancellation, keeping the SampleContext latency bound honest.
//   - frozenindex: types marked //fairnn:frozen (the immutable
//     post-construction indexes) are never field-assigned outside
//     construction or //fairnn:mutates-annotated methods, and package
//     initializers never read variables that func init assigns.
//   - panicfanout: every goroutine launch recovers or routes through a
//     //fairnn:fanout-safe helper, so a worker panic is a typed error,
//     not a process crash.
//
// The suite runs standalone (go run ./cmd/fairnnlint ./...) or through
// go vet -vettool, and scripts/lint.sh wires both into CI. It is
// standard-library only; the module stays dependency-free.
//
// Memo precedence gotcha: structures that take both a Config/VecConfig
// and an IndependentOptions/VecOptions read the memo discipline from both
// (opts.Memo wins over cfg.Memo). "Wins" is decided by comparison against
// the MemoOptions zero value, so a zeroed opts.Memo does NOT override a
// non-zero cfg.Memo — it defers to it. This is harmless (the zero value
// is the default discipline) but means an explicit
// "opts.Memo = MemoOptions{}" cannot reset a Config-level choice; set the
// desired values explicitly instead. The options builder has the same
// rule between WithMemo and the Memo field of
// WithIndependentOptions/WithVecOptions.
//
// All structures are deterministic given their seed: a fixed sequence of
// single-goroutine queries is reproducible, while concurrent queries are
// deterministic up to scheduling (each query's stream is fixed by its
// arrival index).
package fairnn

import (
	"fairnn/internal/core"
	"fairnn/internal/lsh"
	"fairnn/internal/set"
	"fairnn/internal/vector"
)

// Set is a point for Jaccard similarity: a sorted set of item ids.
type Set = set.Set

// Vec is a point for inner-product similarity: a dense vector (callers
// should normalize to unit length; see vector helpers below).
type Vec = vector.Vec

// QueryStats carries per-query cost counters; pass nil when not needed.
type QueryStats = core.QueryStats

// PanicError is a panic recovered by the library's containment layer
// (worker fan-outs, resilient shard calls), with the panicking
// goroutine's stack captured; recover it from error chains with
// errors.As.
type PanicError = core.PanicError

// BuildError is a construction failure caused by a panic inside a
// parallel-build worker, naming the shard (when sharded) and the point
// or table being processed. It wraps the underlying *PanicError.
type BuildError = core.BuildError

// Params are the classic LSH (K, L) parameters.
type Params = lsh.Params

// SetSampler solves r-NNS for Jaccard similarity (Section 3).
type SetSampler = core.Sampler[set.Set]

// SetIndependent solves r-NNIS for Jaccard similarity (Section 4).
type SetIndependent = core.Independent[set.Set]

// SetStandard is the classic biased LSH structure plus the fair-by-
// postprocessing baselines (Section 2.2 / Section 6).
type SetStandard = core.Standard[set.Set]

// SetExact is the linear-scan ground truth for Jaccard similarity.
type SetExact = core.Exact[set.Set]

// VecIndependent solves α-NNIS for inner-product similarity in nearly-
// linear space (Section 5).
type VecIndependent = core.FilterIndependent

// IndependentOptions tunes SetIndependent; the zero value follows the paper.
type IndependentOptions = core.IndependentOptions

// VecOptions tunes VecIndependent; the zero value follows the paper.
type VecOptions = core.FilterIndependentOptions

// MemoOptions is the per-query memory discipline shared by all samplers:
// the querier-pool retention cap and the per-querier scratch budget (see
// the package's "Memory budget" section). The zero value is the default
// discipline.
type MemoOptions = core.MemoOptions

// Config controls LSH parameter selection for the set-based structures.
// The zero value reproduces the paper's experimental setup: 1-bit MinHash,
// K chosen so that at most FarBudget points at similarity FarSim are
// expected to collide, and L chosen for Recall at the query radius.
type Config struct {
	// K and L override automatic parameter selection when both are > 0.
	K, L int
	// FullMinHash uses full 64-bit MinHash bucket keys instead of the
	// 1-bit scheme of Li and König. Full keys expose the clustered-
	// neighborhood correlations studied in Section 6.2.
	FullMinHash bool
	// FarSim is the "far" similarity for ChooseK (default 0.1).
	FarSim float64
	// FarBudget is the expected number of far collisions (default 5).
	FarBudget float64
	// Recall is the target recall at the radius for ChooseL (default 0.99).
	Recall float64
	// Seed drives all randomness (default 1).
	Seed uint64
	// Memo is the per-query memory discipline (querier retention cap,
	// scratch budget). For structures that also
	// take an IndependentOptions/VecOptions, an explicitly set
	// opts.Memo wins over this field.
	Memo MemoOptions
}

func (c Config) family() lsh.Family[set.Set] {
	if c.FullMinHash {
		return lsh.MinHash{}
	}
	return lsh.OneBitMinHash{}
}

// withDefaults resolves the zero-value fields to their documented
// defaults — the one place the set-side defaults live (NewSetMultiRadius
// reuses the resolved copy for its per-radius parameter choice).
func (c Config) withDefaults() Config {
	c.FarSim = orDefault(c.FarSim, 0.1)
	c.FarBudget = orDefault(c.FarBudget, 5)
	c.Recall = orDefault(c.Recall, 0.99)
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// paramsAt picks (K, L) for one radius: the explicit override when both
// are set, automatic ChooseK/ChooseL otherwise. c must already carry its
// defaults.
func (c Config) paramsAt(n int, radius float64) lsh.Params {
	if c.K > 0 && c.L > 0 {
		return lsh.Params{K: c.K, L: c.L}
	}
	fam := c.family()
	k := lsh.ChooseK[set.Set](fam, n, c.FarSim, c.FarBudget)
	l := lsh.ChooseL[set.Set](fam, k, radius, c.Recall)
	return lsh.Params{K: k, L: l}
}

func (c Config) resolve(n int, radius float64) (lsh.Family[set.Set], lsh.Params, uint64) {
	c = c.withDefaults()
	return c.family(), c.paramsAt(n, radius), c.Seed
}

// orDefault substitutes def for an unset (≤ 0) numeric config field — the
// one shared default-resolution helper behind Config.withDefaults and
// VecConfig.withDefaults.
func orDefault(v, def float64) float64 {
	if v <= 0 {
		return def
	}
	return v
}

// memoOr resolves the memo precedence: an explicitly set opts-level memo
// wins; otherwise the config-level default applies. Note the zero-value
// gotcha this implies: opts.Memo counts as "explicitly set" only when it
// differs from the MemoOptions zero value, so passing a zeroed
// MemoOptions in opts defers to the Config-level Memo rather than
// overriding it (the two have identical semantics anyway — the zero
// value is the default discipline).
func memoOr(opts, cfg MemoOptions) MemoOptions {
	if opts == (MemoOptions{}) {
		return cfg
	}
	return opts
}

// NewSetSampler indexes the sets for uniform r-near neighbor sampling under
// Jaccard similarity (radius is the minimum similarity r).
func NewSetSampler(sets []Set, radius float64, cfg Config) (*SetSampler, error) {
	fam, params, seed := cfg.resolve(len(sets), radius)
	return core.NewSamplerMemo[set.Set](core.Jaccard(), fam, params, sets, radius, cfg.Memo, seed)
}

// NewSetIndependent indexes the sets for independent uniform r-near
// neighbor sampling (the r-NNIS problem) under Jaccard similarity.
func NewSetIndependent(sets []Set, radius float64, opts IndependentOptions, cfg Config) (*SetIndependent, error) {
	fam, params, seed := cfg.resolve(len(sets), radius)
	opts.Memo = memoOr(opts.Memo, cfg.Memo)
	return core.NewIndependent[set.Set](core.Jaccard(), fam, params, sets, radius, opts, seed)
}

// NewSetStandard indexes the sets with the classic biased LSH structure.
func NewSetStandard(sets []Set, radius float64, cfg Config) (*SetStandard, error) {
	fam, params, seed := cfg.resolve(len(sets), radius)
	return core.NewStandard[set.Set](core.Jaccard(), fam, params, sets, radius, seed)
}

// NewSetExact builds the linear-scan ground truth (radius is the minimum
// Jaccard similarity).
func NewSetExact(sets []Set, radius float64, seed uint64) *SetExact {
	return core.NewExact[set.Set](core.Jaccard(), sets, radius, seed)
}

// NewVecIndependent indexes unit vectors for independent uniform sampling
// from {p : ⟨p, q⟩ ≥ alpha}, with far threshold beta (Section 5).
func NewVecIndependent(points []Vec, alpha, beta float64, opts VecOptions, seed uint64) (*VecIndependent, error) {
	return core.NewFilterIndependent(points, alpha, beta, opts, seed)
}

// Jaccard returns the Jaccard similarity of two sets.
func Jaccard(a, b Set) float64 { return set.Jaccard(a, b) }

// SetFromSlice builds a Set from arbitrary items (sorted, deduplicated).
func SetFromSlice(items []uint32) Set { return set.FromSlice(items) }

// Dot returns the inner product of two vectors.
func Dot(a, b Vec) float64 { return vector.Dot(a, b) }

// Normalize scales v to unit length in place and returns it.
func Normalize(v Vec) Vec { return vector.Normalize(v) }
