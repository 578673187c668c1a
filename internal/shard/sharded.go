package shard

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"math/bits"
	"runtime"
	"sync/atomic"
	"time"

	"fairnn/internal/core"
	"fairnn/internal/fault"
	"fairnn/internal/lsh"
	"fairnn/internal/obs"
	"fairnn/internal/rng"
)

// ctxCheckRounds is the rejection-loop cancellation granularity, kept
// equal to the unsharded loop's (internal/core/context.go) so a
// single-shard sharded query checks — and therefore draws and returns —
// exactly like the structure it wraps.
const ctxCheckRounds = 64

// Sharded is a fair sampler over a point set partitioned across S
// shards, each backed by its own Section 4 (r-NNIS) structure. It
// satisfies the façade's full Sampler contract.
//
// A query arms one ShardPlan per shard (hashing q in the shard's tables
// and merging its count-distinct sketches into the per-shard estimate
// ŝ_j), then repeats the two-stage round: pick a segment uniformly from
// the union of all shards' segment pools — i.e. shard j with probability
// k_j/Σk, k_j ∝ ŝ_j — count the segment's near points exactly, accept
// with probability λ_q,h/λ, and return a uniform near point of the
// accepted segment, translated to its global id. Each accepted round is
// exactly uniform over the union ball for any segment-count vector (the
// rejection step absorbs all estimate error; see
// internal/core/shardplan.go), and every draw spends fresh randomness,
// so consecutive outputs are independent — Theorem 2 lifted to the
// partitioned index.
//
// Each shard is an explicit failure domain: every per-shard operation
// crosses the Backend seam and, when a Resilience policy (or a fault
// injector) is configured, runs under per-attempt deadlines, bounded
// jittered retries, panic containment, and the health registry's
// fail-fast gate. A shard that exhausts its budget either fails the
// query with a typed *ShardError or — in degraded mode — leaves the
// union pool, and the same per-round arithmetic above makes every
// accepted draw exactly uniform over the *surviving* shards' union ball
// (the loss is reported on QueryStats.Degraded). With the policy zero
// and no injector, queries take the direct path: no wrappers, no extra
// randomness, no allocations — bit-identical to the pre-resilience
// sampler.
//
// All randomness of one logical query (a Sample, or all draws of one
// SampleK or Samples stream) comes from a single stream split off the
// seed by an atomic query counter, so outputs are deterministic per
// (structure, query index) no matter how the per-shard resolve work is
// scheduled across workers. With S=1 the stream, the wrapped structure
// and the round arithmetic all coincide with the unsharded sampler's, so
// a one-shard Sharded is bit-identical to the Independent it wraps.
// Backoff jitter is drawn from a per-(query, shard, op) substream
// derived from the same seed — never from the query's main stream — so
// fault-free queries stay bit-identical even with retries configured.
//
// Query methods are safe for concurrent use: per-shard scratch comes
// from each shard's bounded querier pool and sessions are pooled the
// same way. Steady-state Sample performs zero heap allocations.
type Sharded[P any] struct {
	shards   []*core.Independent[P]
	backends []Backend[P]
	toGlobal [][]int32 // per shard: local id -> global id
	lambda   float64
	sigma    int
	partName string
	size     int
	// floorGrace is ⌈log₂ S⌉: the number of extra Σ-periods a draw spends
	// at the all-ones segment floor before giving up. The unsharded loop
	// ends with one Σ-period each at k = ..., 2, 1; with S live shards the
	// pool cannot shrink below S, so those final periods — which carry
	// most of the loop's tail success mass — are unreachable. Holding the
	// floor for ⌈log₂ S⌉ extra periods restores the unsharded failure
	// probability δ, and is exactly zero extra periods at S=1 (the
	// bit-compatibility contract).
	floorGrace int

	// res is the resolved resilience policy; resOn routes queries through
	// the resilient call path and is set when any policy field is non-zero
	// or a fault injector is configured.
	res   Resilience
	resOn bool
	// health is the per-sampler shard health registry (see health.go).
	health *healthRegistry
	inj    *fault.Injector

	// met is the shard-layer instrument bundle (nil without a registry —
	// contractually invisible); trc is the sampled per-query tracer (nil
	// when tracing is off).
	met *shardMetrics
	trc *obs.Tracer

	qseed uint64
	qctr  atomic.Uint64

	// pool is the capped session free list (the querier-pool discipline,
	// one level up, on core's shared BoundedPool): sessions beyond the cap
	// are dropped for the GC, so a concurrency burst cannot pin scratch
	// forever.
	pool core.BoundedPool[session[P]]
}

// session is the pooled per-query scratch of the sharded fan-out: one
// armed plan per shard, the query's single RNG stream, the per-worker
// stats used by the parallel arm barrier, and the resilience scratch —
// which shards this query has lost, their last-known estimates, the arm
// errors, and the backoff-jitter seed (kept here so a stats-enabled bulk
// query stays allocation-free in steady state).
type session[P any] struct {
	plans []core.ShardPlan[P]
	rng   rng.Source
	subs  []core.QueryStats
	// dead marks shards this query has lost (arm failure or mid-draw
	// budget exhaustion); est remembers a lost shard's per-query estimate
	// ŝ_j when it armed before dying (-1 = unknown), errs the arm errors.
	// All three are untouched on the plain (resilience-off) path.
	dead   []bool
	est    []float64
	errs   []error
	boSeed uint64
	// trace is non-nil for the 1-in-N sampled queries (see obs.Tracer);
	// the decision is a pure hash of the query seed, never a stream draw.
	trace *obs.Trace
	// mstats collects per-draw counter deltas for the telemetry bundle
	// when the caller passed a nil *core.QueryStats.
	mstats core.QueryStats
}

// Config collects the build-time knobs of a sharded sampler beyond the
// data itself. The zero value of every field is valid: RoundRobin
// partitioning, zero resilience (the direct query path), no injector.
type Config struct {
	// Shards is the shard count S (must be ≥ 1).
	Shards int
	// Partitioner assigns points to shards; nil defaults to RoundRobin.
	Partitioner Partitioner
	// Seed derives every shard's structure seed and the query streams.
	Seed uint64
	// Resilience is the per-shard-call fault-tolerance policy.
	Resilience Resilience
	// Injector, when non-nil, interposes the fault-injection harness on
	// every backend call (tests only; must be built for the same shard
	// count).
	Injector *fault.Injector
	// Obs, when non-nil, registers the shard-layer telemetry bundle
	// (draw loop, per-(shard, op) backend-call latency, retries, backoff,
	// health transitions) and records into it. A nil registry is
	// contractually invisible: bit-identical streams, zero allocations.
	Obs *obs.Registry
	// TraceEveryN, with Obs set, samples roughly one query in N into the
	// registry's tracer (structured span trees over the backend seam);
	// 0 disables tracing. The sampling decision is a pure hash of the
	// query seed through a derived substream — never a stream draw.
	TraceEveryN int
}

// Build partitions points across shards with part (nil defaults to
// RoundRobin) and constructs one Section 4 structure per shard with the
// zero resilience policy — the historical constructor, kept as the
// direct path's entry point. See BuildConfig for the full set of knobs.
func Build[P any](space core.Space[P], family lsh.Family[P], paramsFor func(shardSize int) lsh.Params, points []P, radius float64, opts core.IndependentOptions, shards int, part Partitioner, seed uint64) (*Sharded[P], error) {
	return BuildConfig(space, family, paramsFor, points, radius, opts, Config{Shards: shards, Partitioner: part, Seed: seed})
}

// BuildConfig builds a sharded sampler: points are partitioned across
// cfg.Shards shards and one Section 4 structure is constructed per
// shard, in parallel across up to GOMAXPROCS workers. paramsFor chooses
// the LSH (K, L) for one shard from its point count — each shard tunes
// to its own size. opts is resolved once against the global point count,
// so every shard shares one λ and one Σ budget (the acceptance test must
// be identical across shards for the union draw to be uniform); per-shard
// structures get distinct derived seeds, so LSH recall failures are
// independent across shards, and shard 0's seed equals the global seed —
// with S=1 the build is bit-identical to the unsharded constructor's.
//
// A panic inside a build worker does not crash the process: it is
// recovered with its stack and surfaced as a typed *core.BuildError
// naming the shard and, when point-scoped, the offending point index.
func BuildConfig[P any](space core.Space[P], family lsh.Family[P], paramsFor func(shardSize int) lsh.Params, points []P, radius float64, opts core.IndependentOptions, cfg Config) (*Sharded[P], error) {
	n := len(points)
	shards := cfg.Shards
	if shards < 1 {
		return nil, fmt.Errorf("shard: shard count %d < 1", shards)
	}
	if n == 0 {
		return nil, errors.New("shard: empty point set")
	}
	if shards > n {
		return nil, fmt.Errorf("shard: %d shards over %d points leaves shards empty", shards, n)
	}
	if cfg.Injector != nil && cfg.Injector.Shards() != shards {
		return nil, fmt.Errorf("shard: fault injector built for %d shards, sampler has %d", cfg.Injector.Shards(), shards)
	}
	part := cfg.Partitioner
	if part == nil {
		part = RoundRobin{}
	}
	opts = opts.Resolved(n)

	local := make([][]P, shards)
	toGlobal := make([][]int32, shards)
	for i, p := range points {
		j := part.Assign(i, n, shards)
		if j < 0 || j >= shards {
			return nil, fmt.Errorf("shard: partitioner %q assigned point %d to shard %d of %d", part.Name(), i, j, shards)
		}
		local[j] = append(local[j], p)
		toGlobal[j] = append(toGlobal[j], int32(i))
	}
	for j := range local {
		if len(local[j]) == 0 {
			return nil, fmt.Errorf("shard: partitioner %q left shard %d empty (use fewer shards or RoundRobin)", part.Name(), j)
		}
	}

	s := &Sharded[P]{
		shards:     make([]*core.Independent[P], shards),
		toGlobal:   toGlobal,
		lambda:     float64(opts.Lambda),
		sigma:      opts.SigmaBudget,
		partName:   part.Name(),
		size:       n,
		floorGrace: bits.Len(uint(shards - 1)),
		res:        cfg.Resilience.withDefaults(),
		resOn:      cfg.Resilience.enabled() || cfg.Injector != nil,
		inj:        cfg.Injector,
	}
	s.health = newHealthRegistry(shards, s.res.ProbeEvery)
	s.met = newShardMetrics(cfg.Obs, shards)
	if cfg.TraceEveryN > 0 {
		s.trc = cfg.Obs.EnableTracing(cfg.TraceEveryN, traceRingCapacity)
	}
	errs := make([]error, shards)
	fanOut(shards, func(j int) {
		defer func() {
			// Containment for panics outside core's own build passes
			// (paramsFor, partition-sized allocations): name the shard,
			// keep the fan-out draining, fail the build with a typed
			// error instead of killing the process.
			if r := recover(); r != nil {
				errs[j] = shardBuildPanic(j, r)
			}
		}()
		d, err := core.NewIndependent(space, family, paramsFor(len(local[j])), local[j], radius, opts, ShardSeed(cfg.Seed, j))
		var be *core.BuildError
		if errors.As(err, &be) {
			be.Shard = j
		}
		s.shards[j], errs[j] = d, err
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	s.backends = make([]Backend[P], shards)
	for j := range s.backends {
		var b Backend[P] = &inProc[P]{d: s.shards[j]}
		if cfg.Injector != nil {
			b = &faultBackend[P]{next: b, inj: cfg.Injector, shard: j}
		}
		s.backends[j] = b
	}
	s.qseed = s.shards[0].QueryStreamSeed()
	// One retention knob governs both pooling layers: the session pool
	// honors the same (resolved) MaxRetainedQueriers as each shard's
	// querier pool.
	s.pool.SetCap(opts.Memo.Resolved().MaxRetainedQueriers)
	return s, nil
}

// shardBuildPanic wraps a panic recovered from a shard-build worker into
// a *core.BuildError naming the shard (reusing an already-captured
// *core.PanicError rather than double-wrapping).
func shardBuildPanic(j int, recovered any) error {
	pe, ok := recovered.(*core.PanicError)
	if !ok {
		pe = core.NewPanicError(recovered)
	}
	return &core.BuildError{Shard: j, Point: -1, Table: -1, Err: pe}
}

// fanOut runs fn(0..n-1) across up to min(GOMAXPROCS, n) workers via
// core.ParallelRange (one shared worker pattern instead of a private
// copy). With one worker it runs inline, spawning nothing. A worker
// panic is contained by ParallelRange and re-panicked on the caller's
// goroutine as a *core.PanicError.
//
//fairnn:noalloc
//fairnn:fanout-safe delegates containment to core.ParallelRange
func fanOut(n int, fn func(i int)) {
	//fairnn:allocok one fan-out closure per parallel arm, not on the steady-state draw path
	core.ParallelRange(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// Size returns the total number of indexed points across shards.
func (s *Sharded[P]) Size() int { return s.size }

// Shards returns the shard count S.
func (s *Sharded[P]) Shards() int { return len(s.backends) }

// ShardSizes returns the per-shard point counts (a fresh slice).
func (s *Sharded[P]) ShardSizes() []int {
	sizes := make([]int, len(s.backends))
	for j, b := range s.backends {
		sizes[j] = b.N()
	}
	return sizes
}

// PartitionerName reports the partitioning scheme the index was built
// with.
func (s *Sharded[P]) PartitionerName() string { return s.partName }

// Lambda returns the shared per-segment cap λ of the acceptance test.
func (s *Sharded[P]) Lambda() int { return int(s.lambda) }

// ResiliencePolicy returns the resolved resilience policy the sampler
// was built with (defaults filled in; the zero policy resolves its
// backoff/probe fields but still disables the resilient path).
func (s *Sharded[P]) ResiliencePolicy() Resilience { return s.res }

// Point returns the indexed point with the given global id. It is only
// available on an in-process sampler: a network-connected one holds no
// points (they live on the servers), and introspection there belongs to
// the serving side.
func (s *Sharded[P]) Point(id int32) P {
	if s.shards == nil {
		panic("shard: Point is not available on a network-connected sampler (points live on the servers)")
	}
	// Global ids are dense in [0, n); locate the owning shard by scanning
	// the translation tables (introspection only — queries never call this).
	for j, ids := range s.toGlobal {
		lo, hi := 0, len(ids)
		for lo < hi {
			mid := (lo + hi) / 2
			if ids[mid] < id {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(ids) && ids[lo] == id {
			return s.shards[j].Point(int32(lo))
		}
	}
	panic("shard: id out of range")
}

// RetainedScratchBytes sums the pooled per-query scratch every shard
// currently pins between queries.
func (s *Sharded[P]) RetainedScratchBytes() int {
	total := 0
	for _, b := range s.backends {
		total += b.RetainedScratchBytes()
	}
	return total
}

// begin checks out a session, seeds the query's single RNG stream from
// the atomic query counter, and arms one plan per shard — in parallel
// across workers when parallel is set (the SampleK bulk path; arming
// draws no randomness, so scheduling cannot change any output). Per-shard
// cost counters land in st; st.ShardEstimates records each ŝ_j and
// st.SketchEstimate their sum. Under a resilience policy each arm runs
// through callShard; an error return means the query cannot proceed (a
// *ShardError with degradation off, or ErrDegraded when every shard was
// lost) and no session is retained. On in-process shards a malformed q
// returns core.ErrBadQuery before the query counter advances.
//
//fairnn:noalloc
func (s *Sharded[P]) begin(ctx context.Context, q P, st *core.QueryStats, parallel bool) (*session[P], error) {
	if s.shards != nil && !s.shards[0].ValidQuery(q, st) {
		return nil, core.ErrBadQuery
	}
	ses := s.pool.Get()
	if ses == nil {
		n := len(s.backends)
		ses = &session[P]{
			plans: make([]core.ShardPlan[P], n),
			dead:  make([]bool, n),
			est:   make([]float64, n),
			errs:  make([]error, n),
		}
	}
	seed := s.qseed ^ rng.Mix64(s.qctr.Add(1))
	ses.rng.Seed(seed)
	ses.boSeed = rng.Mix64(seed ^ 0xb0ff5eed)
	ses.trace = nil
	if t := s.trc; t != nil && t.ShouldSample(seed) {
		// The 1-in-N traced path may allocate; the decision above is a
		// pure hash of the seed, so untraced queries are untouched.
		ses.trace = t.Start(seed)
	}
	if st != nil {
		st.Degraded.LostShards = st.Degraded.LostShards[:0]
		st.Degraded.LostPoints = 0
		st.Degraded.Coverage = 0
	}
	if s.resOn {
		for j := range ses.dead {
			ses.dead[j] = false
			ses.est[j] = -1
			ses.errs[j] = nil
		}
	}
	if parallel && runtime.GOMAXPROCS(0) > 1 && len(s.backends) > 1 {
		// QueryStats is not safe for concurrent mutation: workers fill
		// per-shard stats (session-pooled), folded into st after the
		// barrier.
		var sub []core.QueryStats
		if st != nil {
			if cap(ses.subs) < len(s.backends) {
				ses.subs = make([]core.QueryStats, len(s.backends))
			}
			sub = ses.subs[:len(s.backends)]
			for j := range sub {
				sub[j] = core.QueryStats{}
			}
		}
		fanOut(len(s.backends), func(j int) {
			var sj *core.QueryStats
			if sub != nil {
				sj = &sub[j]
			}
			s.armShard(ctx, ses, j, q, sj)
		})
		for j := range sub {
			st.Merge(sub[j])
		}
	} else {
		for j := range ses.plans {
			s.armShard(ctx, ses, j, q, st)
		}
	}
	if s.resOn {
		if err := s.armVerdict(ses); err != nil {
			s.release(ses)
			return nil, err
		}
	}
	if st != nil {
		if cap(st.ShardRounds) < len(ses.plans) {
			st.ShardRounds = make([]int, len(ses.plans))
		} else {
			st.ShardRounds = st.ShardRounds[:len(ses.plans)]
			clear(st.ShardRounds)
		}
		if cap(st.ShardEstimates) < len(ses.plans) {
			st.ShardEstimates = make([]float64, len(ses.plans))
		} else {
			st.ShardEstimates = st.ShardEstimates[:len(ses.plans)]
		}
		total := 0.0
		for j := range ses.plans {
			st.ShardEstimates[j] = ses.plans[j].Estimate()
			total += ses.plans[j].Estimate()
		}
		st.SketchEstimate = total
		if s.resOn {
			s.noteDegraded(ses, st)
		}
	}
	return ses, nil
}

// armShard arms shard j's plan: a direct backend call on the plain path,
// or callShard's deadline/retry/health envelope under a policy. A shard
// that cannot be armed is recorded dead in the session with its error;
// the verdict (fail the query vs degrade) is taken by the caller after
// all shards report, so the parallel fan-out never short-circuits.
//
//fairnn:noalloc
func (s *Sharded[P]) armShard(ctx context.Context, ses *session[P], j int, q P, st *core.QueryStats) {
	var sp *obs.Span
	if ses.trace != nil {
		sp = ses.trace.Begin("arm", j)
	}
	if !s.resOn {
		m := s.met
		if m == nil && sp == nil {
			_ = s.backends[j].Arm(ctx, &ses.plans[j], q, st)
			return
		}
		t0 := time.Now()
		err := s.backends[j].Arm(ctx, &ses.plans[j], q, st)
		m.opOK(j, opArm, time.Since(t0))
		if sp != nil {
			sp.Done(err)
		}
		return
	}
	//fairnn:allocok resilience envelope: the resOn path trades one closure per call for panic/deadline containment
	err := s.callShard(ctx, ses, j, "arm", opArm, saltArm, sp, func(actx context.Context) error {
		// Each attempt re-arms from a clean plan: a prior attempt may
		// have panicked or timed out partway through arming.
		ses.plans[j].Abort()
		return s.backends[j].Arm(actx, &ses.plans[j], q, st)
	})
	if sp != nil {
		sp.Done(err)
	}
	if err != nil {
		ses.plans[j].Abort()
		ses.dead[j] = true
		ses.errs[j] = err
		return
	}
	ses.est[j] = ses.plans[j].Estimate()
	if s.health.ok(j, ses.est[j]) {
		s.met.readmitted()
	}
}

// armVerdict decides what an arm round with failures means: with
// degradation off, the first shard's error fails the query; with it on,
// the query proceeds over the survivors unless none remain.
//
//fairnn:noalloc
func (s *Sharded[P]) armVerdict(ses *session[P]) error {
	var first error
	live := false
	for j := range ses.dead {
		if ses.dead[j] {
			if first == nil {
				first = ses.errs[j]
			}
		} else {
			live = true
		}
	}
	if first == nil {
		return nil
	}
	if !s.res.Degraded {
		return first
	}
	if !live {
		return ErrDegraded
	}
	return nil
}

// noteDegraded refreshes st.Degraded from the session's dead set: the
// lost shards, their total point count, and the coverage fraction — the
// survivors' summed per-query estimates over the estimated union total,
// where a lost shard contributes its own per-query ŝ_j when it armed
// before dying, its last health-registry estimate when another query
// armed it, and a point-share density extrapolation otherwise.
//
//fairnn:noalloc
func (s *Sharded[P]) noteDegraded(ses *session[P], st *core.QueryStats) {
	if st == nil {
		return
	}
	st.Degraded.LostShards = st.Degraded.LostShards[:0]
	liveEst, lostEst := 0.0, 0.0
	livePts, lostPts := 0, 0
	for j := range ses.dead {
		if ses.dead[j] {
			st.Degraded.LostShards = append(st.Degraded.LostShards, j)
			lostPts += s.backends[j].N()
		} else {
			liveEst += ses.plans[j].Estimate()
			livePts += s.backends[j].N()
		}
	}
	st.Degraded.LostPoints = lostPts
	if len(st.Degraded.LostShards) == 0 {
		st.Degraded.Coverage = 0
		return
	}
	for j := range ses.dead {
		if !ses.dead[j] {
			continue
		}
		if ses.est[j] >= 0 {
			lostEst += ses.est[j]
		} else if e, ok := s.health.lastEstimate(j); ok {
			lostEst += e
		} else if livePts > 0 {
			lostEst += liveEst / float64(livePts) * float64(s.backends[j].N())
		}
	}
	if total := liveEst + lostEst; total > 0 {
		st.Degraded.Coverage = liveEst / total
	} else {
		st.Degraded.Coverage = 1
	}
}

// loseShard handles a shard whose budget was exhausted mid-draw. With
// degradation off the cause fails the query. In degraded mode the shard
// leaves the union pool — its per-query estimate is remembered for the
// coverage fraction, its plan aborted so the stale segment weight cannot
// re-enter the pool — and the draw continues over the survivors: the
// returned total is the surviving pool's segment count. Losing the last
// live shard returns ErrDegraded.
//
//fairnn:noalloc
func (s *Sharded[P]) loseShard(ses *session[P], j int, st *core.QueryStats, cause error) (int, error) {
	if !s.res.Degraded {
		return 0, cause
	}
	if !ses.dead[j] {
		ses.dead[j] = true
		ses.est[j] = ses.plans[j].Estimate()
		ses.plans[j].Abort()
		s.met.lost()
	}
	s.noteDegraded(ses, st)
	total := 0
	live := false
	for i := range ses.plans {
		if !ses.dead[i] {
			live = true
			total += ses.plans[i].Segments()
		}
	}
	if !live {
		return 0, ErrDegraded
	}
	return total, nil
}

// segmentNearResilient is SegmentNear through callShard's envelope.
//
//fairnn:noalloc
func (s *Sharded[P]) segmentNearResilient(ctx context.Context, ses *session[P], j, h int, st *core.QueryStats, sp *obs.Span) (int, error) {
	n := 0
	//fairnn:allocok resilience envelope: the resOn path trades one closure per call for panic/deadline containment
	err := s.callShard(ctx, ses, j, "segment", opSegment, saltSegment, sp, func(actx context.Context) error {
		v, err := s.backends[j].SegmentNear(actx, &ses.plans[j], h, st)
		n = v
		return err
	})
	return n, err
}

// pickResilient is Pick through callShard's envelope.
//
//fairnn:noalloc
func (s *Sharded[P]) pickResilient(ctx context.Context, ses *session[P], j int, sp *obs.Span) (int32, error) {
	var id int32
	//fairnn:allocok resilience envelope: the resOn path trades one closure per call for panic/deadline containment
	err := s.callShard(ctx, ses, j, "pick", opPick, saltPick, sp, func(actx context.Context) error {
		v, err := s.backends[j].Pick(actx, &ses.plans[j], &ses.rng)
		id = v
		return err
	})
	return id, err
}

// release closes every plan (returning the shards' pooled queriers) and
// recycles the session.
//
//fairnn:noalloc
func (s *Sharded[P]) release(ses *session[P]) {
	if ses.trace != nil {
		s.trc.Publish(ses.trace)
		ses.trace = nil
	}
	for j := range ses.plans {
		ses.plans[j].Close()
	}
	s.pool.Put(ses)
}

// drawResolved is the telemetry choke point around drawOnce: without a
// registry it is a tail call (the disabled path pays nothing); with one
// it times the draw and records outcome, rejection-round and scoring
// deltas, degradation and acceptance clamping into the layer="shard"
// bundle, counting into
// the session's scratch stats when the caller passed nil. Metrics
// writes are observational and draw no randomness, so same-seed streams
// stay bit-identical either way.
//
//fairnn:noalloc
func (s *Sharded[P]) drawResolved(ctx context.Context, ses *session[P], st *core.QueryStats) (int32, bool, error) {
	m := s.met
	if m == nil {
		return s.drawOnce(ctx, ses, st)
	}
	if st == nil {
		ses.mstats = core.QueryStats{}
		st = &ses.mstats
	}
	preRounds, preHits := st.Rounds, st.ScoreCacheHits
	preBatch, preEvals := st.BatchScored, st.ScoreEvals
	degraded := false
	if s.resOn {
		for j := range ses.dead {
			if ses.dead[j] {
				degraded = true
				break
			}
		}
	}
	// Clamped is sticky across draws: clear it for this draw and OR the
	// earlier value back (see core's sampleResolved).
	preClamped := st.Clamped
	st.Clamped = false
	t0 := time.Now()
	id, ok, err := s.drawOnce(ctx, ses, st)
	clamped := st.Clamped
	st.Clamped = preClamped || clamped
	if !degraded && s.resOn {
		// A shard lost during this draw degrades it too.
		for j := range ses.dead {
			if ses.dead[j] {
				degraded = true
				break
			}
		}
	}
	m.draw.ObserveDraw(time.Since(t0), ok, st.Rounds-preRounds, st.ScoreCacheHits-preHits,
		st.BatchScored-preBatch, st.ScoreEvals-preEvals, degraded, clamped)
	return id, ok, err
}

// drawOnce runs one two-stage rejection draw against an armed
// session. The round structure — counter, ctx poll cadence, segment
// pick, Σ-budget halving order, acceptance clamp — mirrors the unsharded
// sampleResolved exactly, so with S=1 the randomness is spent call for
// call on the same stream. A non-nil error reports a shard failure the
// policy could not absorb (degradation off, or the last live shard
// lost); ok=false with a nil error is the ordinary no-sample outcome.
//
//fairnn:noalloc
func (s *Sharded[P]) drawOnce(ctx context.Context, ses *session[P], st *core.QueryStats) (int32, bool, error) {
	for j := range ses.plans {
		ses.plans[j].ResetDraw()
	}
	total := 0
	for j := range ses.plans {
		total += ses.plans[j].Segments()
	}
	if st != nil {
		st.ShardChosen = -1
	}
	if total == 0 {
		if st != nil {
			st.Found = false
		}
		return 0, false, nil
	}
	sigmaFail := 0
	grace := s.floorGrace
	for rounds := 0; total >= 1; {
		if st != nil {
			st.Rounds++
		}
		rounds++
		if rounds%ctxCheckRounds == 0 && ctx.Err() != nil {
			if st != nil {
				st.Found = false
			}
			return 0, false, nil
		}
		// One uniform pick over the union segment pool = shard j with
		// probability k_j/Σk, then a uniform segment h inside shard j.
		u := ses.rng.Intn(total)
		j := 0
		for u >= ses.plans[j].Segments() {
			u -= ses.plans[j].Segments()
			j++
		}
		if st != nil && j < len(st.ShardRounds) {
			st.ShardRounds[j]++
		}
		var sp *obs.Span
		if ses.trace != nil {
			sp = ses.trace.Begin("segment", j)
		}
		var lqh int
		if s.resOn {
			n, err := s.segmentNearResilient(ctx, ses, j, u, st, sp)
			if err != nil {
				if sp != nil {
					sp.Note("shard lost: leaving union pool")
					sp.Done(err)
				}
				total, err = s.loseShard(ses, j, st, err)
				if err != nil {
					if st != nil {
						st.Found = false
					}
					return 0, false, err
				}
				if total == 0 {
					break
				}
				// The failed round spent no Σ budget: the call reported
				// nothing about near density, so sigmaFail is untouched.
				continue
			}
			lqh = n
		} else {
			lqh, _ = s.backends[j].SegmentNear(ctx, &ses.plans[j], u, st)
		}
		if sp != nil {
			sp.Done(nil)
		}
		sigmaFail++
		if sigmaFail >= s.sigma {
			// Σ-budget exhausted: shrink the pool. Two invariants guard
			// the halving — both no-ops at S=1, so bit-compatibility is
			// untouched:
			//
			//   - A shard at k=1 is floored there while any other shard
			//     still has k>1. The per-round emit probability 1/(λ·Σk)
			//     is uniform over the union only while every shard keeps
			//     k_j ≥ 1; letting a small-estimate shard fall to 0 ahead
			//     of the rest would erase its ball from all later periods
			//     and bias the output against it. Shards therefore leave
			//     the pool only all together, from the all-ones floor.
			//   - At the all-ones floor a halving would zero the whole
			//     pool; the floor grace is spent first (see the field doc
			//     — this is where the unsharded loop's k<S tail periods
			//     are recovered).
			maxSeg := 0
			for i := range ses.plans {
				if k := ses.plans[i].Segments(); k > maxSeg {
					maxSeg = k
				}
			}
			switch {
			case maxSeg > 1:
				for i := range ses.plans {
					if ses.plans[i].Segments() > 1 {
						ses.plans[i].Halve()
					}
				}
				total = 0
				for i := range ses.plans {
					total += ses.plans[i].Segments()
				}
			case grace > 0:
				grace--
			default:
				for i := range ses.plans {
					ses.plans[i].Halve()
				}
				total = 0
			}
			sigmaFail = 0
		}
		if lqh == 0 {
			continue
		}
		p := float64(lqh) / s.lambda
		if p > 1 {
			if st != nil {
				st.Clamped = true
			}
			p = 1
		}
		if ses.rng.Bernoulli(p) {
			var psp *obs.Span
			if ses.trace != nil {
				psp = ses.trace.Begin("pick", j)
			}
			var local int32
			if s.resOn {
				v, err := s.pickResilient(ctx, ses, j, psp)
				if err != nil {
					if psp != nil {
						psp.Note("shard lost: leaving union pool")
						psp.Done(err)
					}
					total, err = s.loseShard(ses, j, st, err)
					if err != nil {
						if st != nil {
							st.Found = false
						}
						return 0, false, err
					}
					if total == 0 {
						break
					}
					continue
				}
				local = v
			} else {
				local, _ = s.backends[j].Pick(ctx, &ses.plans[j], &ses.rng)
			}
			if psp != nil {
				psp.Done(nil)
			}
			if st != nil {
				st.FinalK = total
				st.ShardChosen = j
				st.Found = true
			}
			return s.toGlobal[j][local], true, nil
		}
	}
	if st != nil {
		st.Found = false
	}
	return 0, false, nil
}

// Sample returns a uniform, independent sample from the union ball
// B_S(q, r), or ok=false when no shard recalls a near point, the
// rejection budget is exhausted (a probability-≤δ event under the
// paper's constants), a shard failure the resilience policy could not
// absorb, or a malformed q — use SampleContext for the typed error.
//
//fairnn:noalloc
func (s *Sharded[P]) Sample(q P, st *core.QueryStats) (id int32, ok bool) {
	id, err := s.SampleContext(context.Background(), q, st)
	return id, err == nil
}

// SampleContext is Sample under a context: the rejection loop polls
// ctx.Err() every ctxCheckRounds rounds, and a failed but uncanceled
// query returns ErrNoSample (the Sampler contract) and a malformed one
// core.ErrBadQuery. Shard failures
// surface as a *ShardError (degradation off) or ErrDegraded (every
// shard lost); both match errors.Is(err, ErrDegraded).
//
//fairnn:noalloc
func (s *Sharded[P]) SampleContext(ctx context.Context, q P, st *core.QueryStats) (int32, error) {
	ses, err := s.begin(ctx, q, st, false)
	if err != nil {
		return 0, err
	}
	defer s.release(ses)
	id, ok, derr := s.drawResolved(ctx, ses, st)
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if derr != nil {
		return 0, derr
	}
	if !ok {
		return 0, core.ErrNoSample
	}
	return id, nil
}

// SampleK returns k independent with-replacement samples from the union
// ball. Shards are resolved and estimated once — fanned out across
// workers — and all k rejection loops share the per-shard plans,
// near-caches and merged cursors, so hashing, sketch merging and every
// distinct distance evaluation are paid once, not k times.
func (s *Sharded[P]) SampleK(q P, k int, st *core.QueryStats) []int32 {
	if k <= 0 {
		return nil
	}
	return s.SampleKInto(q, k, make([]int32, 0, k), st)
}

// SampleKInto is SampleK writing into dst (reset to length zero and
// grown as needed), the bulk variant that amortizes the output buffer.
// A shard failure the policy cannot absorb ends the bulk early with the
// draws collected so far (st records the degradation, if any); callers
// needing the typed error should use SampleContext per draw.
//
//fairnn:noalloc
func (s *Sharded[P]) SampleKInto(q P, k int, dst []int32, st *core.QueryStats) []int32 {
	dst = dst[:0]
	if k <= 0 {
		return dst
	}
	ses, err := s.begin(context.Background(), q, st, true)
	if err != nil {
		return dst
	}
	defer s.release(ses)
	for i := 0; i < k; i++ {
		id, ok, err := s.drawResolved(context.Background(), ses, st)
		if err != nil {
			break
		}
		if ok {
			dst = append(dst, id)
		}
	}
	return dst
}

// Samples returns an unbounded stream of independent uniform samples
// from the union ball. Shards are resolved and estimated once per
// stream; every yielded id costs one two-stage rejection loop on the
// shared plans. The stream ends when the consumer breaks, ctx is done
// (yielding ctx.Err() once), a draw fails (yielding ErrNoSample), or a
// shard failure the policy cannot absorb occurs (yielding the typed
// error).
func (s *Sharded[P]) Samples(ctx context.Context, q P) iter.Seq2[int32, error] {
	return func(yield func(int32, error) bool) {
		ses, err := s.begin(ctx, q, nil, false)
		if err != nil {
			yield(0, err)
			return
		}
		defer s.release(ses)
		for {
			id, ok, derr := s.drawResolved(ctx, ses, nil)
			if err := ctx.Err(); err != nil {
				yield(0, err)
				return
			}
			if derr != nil {
				yield(0, derr)
				return
			}
			if !ok {
				yield(0, core.ErrNoSample)
				return
			}
			if !yield(id, nil) {
				return
			}
		}
	}
}
