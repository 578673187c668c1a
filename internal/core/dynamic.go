package core

import (
	"context"
	"errors"
	"iter"
	"math"
	"sort"
	"sync"

	"fairnn/internal/lsh"
	"fairnn/internal/rng"
)

// ErrCapacity is returned by Dynamic.Insert once the structure has
// assigned every representable int32 id.
var ErrCapacity = errors.New("core: dynamic index full (2³¹−1 ids assigned)")

// Dynamic is an insert/delete-capable variant of the Section 3 sampler.
// The original IRS line of work (Hu–Qiao–Tao, discussed in Section 1.2)
// treats the dynamic setting as primary; the paper's static construction
// uses integer ranks from one global permutation, which cannot absorb
// insertions cheaply. Dynamic replaces ranks with i.i.d. uniform [0,1)
// *priorities*: the minimum-priority near point is still a uniform sample
// from the ball (any ball member is the argmin with equal probability),
// and a fresh point just draws a fresh priority — O(1) rank maintenance,
// no global renumbering.
//
// Query semantics match Sampler.Sample: deterministic per structure state
// (Definition 1; rebuild or use Independent for independence guarantees).
// Deletions tombstone the slot; buckets drop the id eagerly. Concurrent
// Samples are safe (per-call pooled scratch); Insert and Delete mutate the
// tables and must not run concurrently with any other call.
type Dynamic[P any] struct {
	space  Space[P]
	radius float64
	params lsh.Params
	signer *lsh.Signer[P]
	// pool holds *dynScratch hashing buffers; Sample may run concurrently
	// with other Samples (but not with Insert/Delete, which mutate the
	// tables), so per-call scratch comes from here.
	pool   sync.Pool
	points []P
	alive  []bool
	prio   []float64
	// tables[i] maps bucket keys to ids sorted by ascending priority.
	tables []map[uint64][]int32
	src    *rng.Source
	live   int
}

// dynScratch is the single-pass hashing buffer of one Dynamic operation.
type dynScratch struct {
	sig  []uint64
	keys []uint64
}

// NewDynamic builds an empty dynamic sampler; add points with Insert.
func NewDynamic[P any](space Space[P], family lsh.Family[P], params lsh.Params, radius float64, seed uint64) (*Dynamic[P], error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if space.Score == nil {
		return nil, errors.New("core: space has nil Score")
	}
	src := rng.New(seed)
	d := &Dynamic[P]{
		space:  space,
		radius: radius,
		params: params,
		signer: lsh.NewSigner(family, params.L*params.K, src),
		tables: make([]map[uint64][]int32, params.L),
		src:    src,
	}
	for i := 0; i < params.L; i++ {
		d.tables[i] = make(map[uint64][]int32)
	}
	return d, nil
}

// N returns the number of live points.
func (d *Dynamic[P]) N() int { return d.live }

// Size returns the number of live points (the Sampler contract).
func (d *Dynamic[P]) Size() int { return d.live }

// RetainedScratchBytes reports the pooled per-query scratch this
// structure pins between queries. The dynamic sampler keeps only
// fixed-size hashing buffers per querier in an uninspectable sync.Pool,
// so it reports 0.
func (d *Dynamic[P]) RetainedScratchBytes() int { return 0 }

// Point returns the point with the given id; the id must be live.
func (d *Dynamic[P]) Point(id int32) P { return d.points[id] }

// Alive reports whether id is currently indexed.
func (d *Dynamic[P]) Alive(id int32) bool {
	return int(id) < len(d.alive) && d.alive[id]
}

// Insert adds a point and returns its id. Cost: L bucket insertions.
// Ids are int32, so the structure holds at most 2³¹−1 slots (live or
// tombstoned); further inserts return ErrCapacity instead of silently
// wrapping the id past 2³¹ into already-assigned (or negative) territory.
func (d *Dynamic[P]) Insert(p P) (int32, error) {
	if len(d.points) >= math.MaxInt32 {
		return 0, ErrCapacity
	}
	id := int32(len(d.points))
	d.points = append(d.points, p)
	d.alive = append(d.alive, true)
	d.prio = append(d.prio, d.src.Float64())
	sc := d.resolveKeys(p)
	defer d.putScratch(sc)
	for i := 0; i < d.params.L; i++ {
		key := sc.keys[i]
		d.tables[i][key] = d.bucketInsert(d.tables[i][key], id)
	}
	d.live++
	return id, nil
}

// resolveKeys computes all L bucket keys of p in one pass over p, using
// pooled scratch; callers must putScratch the result when done.
func (d *Dynamic[P]) resolveKeys(p P) *dynScratch {
	sc, _ := d.pool.Get().(*dynScratch)
	if sc == nil {
		sc = &dynScratch{
			sig:  make([]uint64, d.params.L*d.params.K),
			keys: make([]uint64, d.params.L),
		}
	}
	d.signer.Sign(p, sc.sig)
	lsh.CombineKeys(sc.sig, d.params.K, sc.keys)
	return sc
}

func (d *Dynamic[P]) putScratch(sc *dynScratch) { d.pool.Put(sc) }

// bucketInsert places id into ids keeping ascending priority order.
func (d *Dynamic[P]) bucketInsert(ids []int32, id int32) []int32 {
	p := d.prio[id]
	pos := sort.Search(len(ids), func(i int) bool { return d.prio[ids[i]] >= p })
	ids = append(ids, 0)
	copy(ids[pos+1:], ids[pos:])
	ids[pos] = id
	return ids
}

// Delete removes id from the index. Returns false when id was not live.
func (d *Dynamic[P]) Delete(id int32) bool {
	if !d.Alive(id) {
		return false
	}
	p := d.points[id]
	sc := d.resolveKeys(p)
	defer d.putScratch(sc)
	for i := 0; i < d.params.L; i++ {
		key := sc.keys[i]
		ids := d.tables[i][key]
		pr := d.prio[id]
		pos := sort.Search(len(ids), func(j int) bool { return d.prio[ids[j]] >= pr })
		for pos < len(ids) && ids[pos] != id {
			pos++ // ties on priority are measure-zero but handled anyway
		}
		if pos < len(ids) {
			d.tables[i][key] = append(ids[:pos], ids[pos+1:]...)
		}
	}
	d.alive[id] = false
	d.live--
	return true
}

// Sample returns the minimum-priority near point across q's buckets — a
// uniform sample from the recalled ball, exactly as in Theorem 1 with
// priorities playing the role of ranks. ok=false also for a malformed q.
func (d *Dynamic[P]) Sample(q P, st *QueryStats) (id int32, ok bool) {
	if !d.space.ValidQuery(q, d.points, st) {
		return 0, false
	}
	best := int32(-1)
	bestPrio := 2.0
	sc := d.resolveKeys(q)
	defer d.putScratch(sc)
	for i := 0; i < d.params.L; i++ {
		st.bucket()
		for _, cand := range d.tables[i][sc.keys[i]] {
			st.point()
			if d.prio[cand] >= bestPrio {
				break // sorted by priority: nothing better in this bucket
			}
			st.score()
			if d.space.Near(d.space.Score(q, d.points[cand]), d.radius) {
				best = cand
				bestPrio = d.prio[cand]
				break
			}
		}
	}
	if best < 0 {
		st.found(false)
		return 0, false
	}
	st.found(true)
	return best, true
}

// SampleK returns up to k distinct near points with the smallest
// priorities across q's buckets — the without-replacement analogue of
// Sampler.SampleK with priorities playing the role of ranks. Fewer than k
// ids are returned when the recalled ball is smaller. The result is in
// ascending priority order.
func (d *Dynamic[P]) SampleK(q P, k int, st *QueryStats) []int32 {
	if k <= 0 {
		return nil
	}
	return d.SampleKInto(q, k, make([]int32, 0, k), st)
}

// SampleKInto is SampleK writing into dst (reset to length zero and grown
// as needed), for callers amortizing the output buffer. A malformed q
// yields no samples.
func (d *Dynamic[P]) SampleKInto(q P, k int, dst []int32, st *QueryStats) []int32 {
	dst = dst[:0]
	if k <= 0 || !d.space.ValidQuery(q, d.points, st) {
		return dst
	}
	sc := d.resolveKeys(q)
	defer d.putScratch(sc)
	// Collect the distinct near candidates across buckets, then keep the
	// k smallest priorities. Buckets are priority-sorted, so each bucket
	// contributes at most its first k near points.
	for i := 0; i < d.params.L; i++ {
		st.bucket()
		nearSeen := 0
		for _, cand := range d.tables[i][sc.keys[i]] {
			if nearSeen >= k {
				break
			}
			st.point()
			st.score()
			if d.space.Near(d.space.Score(q, d.points[cand]), d.radius) {
				nearSeen++
				dst = append(dst, cand)
			}
		}
	}
	// Sort by (priority, id): the id tie-break keeps duplicates of one
	// point adjacent even when two distinct points drew equal float64
	// priorities (measure-zero per pair, but likely somewhere at large n —
	// the same tie Delete handles explicitly).
	sort.Slice(dst, func(a, b int) bool {
		pa, pb := d.prio[dst[a]], d.prio[dst[b]]
		if pa != pb {
			return pa < pb
		}
		return dst[a] < dst[b]
	})
	// Deduplicate (a point appears in up to L buckets) and truncate to k.
	kept := dst[:0]
	var last int32 = -1
	for _, id := range dst {
		if id == last {
			continue
		}
		last = id
		kept = append(kept, id)
		if len(kept) == k {
			break
		}
	}
	st.found(len(kept) > 0)
	return kept
}

// SampleContext is Sample under a context. The dynamic query is a bounded
// priority scan with no rejection loop, so cancellation is checked once
// up front; a failed (but uncanceled) query returns ErrNoSample and a
// malformed one ErrBadQuery.
func (d *Dynamic[P]) SampleContext(ctx context.Context, q P, st *QueryStats) (int32, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if !d.space.ValidQuery(q, d.points, st) {
		return 0, ErrBadQuery
	}
	id, ok := d.Sample(q, st)
	return sampleCtxResult(ctx, id, ok)
}

// Samples returns a stream of samples from the recalled ball. Like the
// Section 3 sampler, Dynamic is deterministic per structure state, so the
// stream repeats the same minimum-priority point until the index mutates;
// it ends when the consumer breaks, ctx is done, or the query fails
// (ErrNoSample). The stream must not be consumed concurrently with
// Insert/Delete.
func (d *Dynamic[P]) Samples(ctx context.Context, q P) iter.Seq2[int32, error] {
	return streamOf(ctx, func(ctx context.Context) (int32, error) {
		return d.SampleContext(ctx, q, nil)
	})
}

// invariantOK verifies bucket priority-ordering and liveness bookkeeping
// (for property tests).
func (d *Dynamic[P]) invariantOK() bool {
	liveCount := 0
	for _, a := range d.alive {
		if a {
			liveCount++
		}
	}
	if liveCount != d.live {
		return false
	}
	for _, table := range d.tables {
		for _, ids := range table {
			for j := range ids {
				if !d.alive[ids[j]] {
					return false
				}
				if j > 0 && d.prio[ids[j-1]] > d.prio[ids[j]] {
					return false
				}
			}
		}
	}
	return true
}
