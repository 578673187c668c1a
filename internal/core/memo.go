package core

import (
	"runtime"
	"sync"
)

// This file is the per-query memo and the bounded querier pool.
//
// The rejection loops memoize deterministic distance verdicts per query,
// so each distinct candidate is scored at most once per logical query.
// Two structures keep that memo's memory bounded:
//
//   - compactMemo: an open-addressing stamped hash table sized to the
//     query's *live* candidate count. A query touches at most
//     O(L·bucket) distinct candidates, so the retained scratch is o(n) by
//     construction, at the price of one multiplicative hash per lookup.
//     Memoization only caches deterministic verdicts, so it can change
//     cost but never any sampler's output distribution (Theorem 2 needs
//     fresh randomness per sample, not fresh distance evaluations).
//   - BoundedPool: a capped free list replacing the unbounded sync.Pool.
//     Get beyond the retained set allocates as before, but Put drops
//     queriers past MaxRetainedQueriers and frees oversized scratch past
//     ScratchBudget, so a one-time concurrency burst never pins
//     O(burst·n) memory.

// DefaultScratchBudget caps the scratch a pooled querier may retain
// (32 MiB — far above what a typical query's memo and candidate buffers
// need, so the budget only trims pathological growth).
const DefaultScratchBudget = 32 << 20

// MemoOptions is the memory-discipline knob shared by all pooled query
// paths (Sections 3, 4 and 5). The zero value is the default discipline.
type MemoOptions struct {
	// MaxRetainedQueriers caps how many per-query scratch structs one
	// index keeps pooled across checkouts; excess queriers from a
	// concurrency burst are garbage-collected instead of pinned. 0 means
	// max(4, 2·GOMAXPROCS). Negative means 0 (retain nothing).
	MaxRetainedQueriers int
	// ScratchBudget is the byte budget one pooled querier may retain
	// (summed across its memo table and candidate buffers); oversized
	// scratch is freed on Put. 0 means DefaultScratchBudget. Negative
	// means unlimited.
	ScratchBudget int
}

// Resolved returns o with zero fields resolved to their documented
// defaults — the knob values a structure built from o actually runs
// with. The sharded sampler sizes its session pool from the resolved
// MaxRetainedQueriers, so one retention knob governs both pooling
// layers.
func (o MemoOptions) Resolved() MemoOptions { return o.withDefaults() }

// withDefaults resolves zero fields to their documented defaults.
func (o MemoOptions) withDefaults() MemoOptions {
	if o.MaxRetainedQueriers == 0 {
		o.MaxRetainedQueriers = 2 * runtime.GOMAXPROCS(0)
		if o.MaxRetainedQueriers < 4 {
			o.MaxRetainedQueriers = 4
		}
	} else if o.MaxRetainedQueriers < 0 {
		o.MaxRetainedQueriers = 0
	}
	switch {
	case o.ScratchBudget == 0:
		o.ScratchBudget = DefaultScratchBudget
	case o.ScratchBudget < 0:
		o.ScratchBudget = int(^uint(0) >> 1)
	}
	return o
}

// compactMemoMinCap is the seed capacity (slots, power of two) of a
// compact table; 64 slots cover most rejection loops without growth.
const compactMemoMinCap = 64

// Per-slot footprint after packing: one uint64 holds key, stamp and the
// verdict bit, so the bit-mode table (the near-cache) is 8 B/slot and the
// word-mode table (the similarity memo) adds an 8 B value array for
// 16 B/slot — down from the 20 B/slot of the unpacked
// (int32 key + uint64 stamp + uint64 value) layout.
const (
	compactMemoBitSlotBytes  = 8
	compactMemoWordSlotBytes = 16
)

// compactMemoEpochMax bounds the packed 31-bit stamp; reset clears the
// table and restarts at 1 when the epoch would reach it, so a wrapped
// stamp can never resurrect a stale entry.
const compactMemoEpochMax = 1 << 31

// compactMemo is the per-query memo: a stamped id → word store whose
// entries live exactly one epoch (one logical query — a Sample, or all k
// loops of one SampleK). Callers encode their verdict in the word: the
// near-cache stores 0/1, the similarity memo stores math.Float64bits.
//
// It is an open-addressing (linear-probing) hash table over ids whose
// slots are epoch-stamped — a slot is live iff its stamp equals the
// current epoch, so reset invalidates the whole table in O(1) with no
// clearing. Within one epoch no entry is ever deleted, so probe chains
// stay intact. Capacity is a power of two, grown geometrically at ¾ load
// and recycled across checkouts; a query touching C distinct candidates
// retains Θ(C) slots, independent of n.
//
// Each slot packs (key, stamp) — and, in bit mode, the verdict — into one
// word:
//
//	stamp(31 bits) << 33 | verdict(1 bit) << 32 | key(32 bits)
//
// In bit mode (the near-cache, wordVals=false) that one word is the whole
// slot; in word mode (the similarity memo, wordVals=true) a parallel vals
// array carries the full 64-bit value and the packed verdict bit is
// unused. A slot word of 0 is empty: the epoch lives in [1, 2^31) (reset
// bumps it before first use and wraps it by clearing), so stamp 0 is
// never current.
type compactMemo struct {
	slots    []uint64
	vals     []uint64 // nil in bit mode
	wordVals bool
	mask     uint64
	live     int
	epoch    uint64
}

// memoHash spreads an id over the table (Fibonacci multiplicative hash;
// the mask keeps the low bits, so the constant's high-entropy product is
// shifted down by the caller via mask on a power-of-two capacity).
//
//fairnn:noalloc
func memoHash(id int32) uint64 {
	return uint64(uint32(id)) * 0x9e3779b97f4a7c15 >> 13
}

// get returns the value stored for id in the current epoch.
//
//fairnn:noalloc
func (m *compactMemo) get(id int32) (uint64, bool) {
	if m.slots == nil {
		return 0, false
	}
	key := uint64(uint32(id))
	for i := memoHash(id) & m.mask; ; i = (i + 1) & m.mask {
		s := m.slots[i]
		if s>>33 != m.epoch {
			return 0, false
		}
		if s&0xffffffff == key {
			if m.wordVals {
				return m.vals[i], true
			}
			return s >> 32 & 1, true
		}
	}
}

// put stores val for id in the current epoch, growing the table at ¾ load.
//
//fairnn:noalloc
func (m *compactMemo) put(id int32, val uint64) {
	if m.slots == nil || 4*(m.live+1) > 3*len(m.slots) {
		m.grow()
	}
	key := uint64(uint32(id))
	packed := m.epoch<<33 | (val&1)<<32 | key
	for i := memoHash(id) & m.mask; ; i = (i + 1) & m.mask {
		s := m.slots[i]
		if s>>33 != m.epoch {
			m.slots[i] = packed
			if m.wordVals {
				m.vals[i] = val
			}
			m.live++
			return
		}
		if s&0xffffffff == key {
			m.slots[i] = packed
			if m.wordVals {
				m.vals[i] = val
			}
			return
		}
	}
}

// grow doubles the capacity (or seeds it) and reinserts the live entries
// of the current epoch; stale slots are dropped, so the table tracks the
// current query's candidate count rather than its historical maximum.
//
//fairnn:noalloc
func (m *compactMemo) grow() {
	newCap := compactMemoMinCap
	if len(m.slots) > 0 {
		newCap = 2 * len(m.slots)
	}
	oldSlots, oldVals := m.slots, m.vals
	m.slots = make([]uint64, newCap) //fairnn:allocok grow-on-demand under put's load-factor guard; pooled tables reach a fixed capacity
	if m.wordVals {
		m.vals = make([]uint64, newCap) //fairnn:allocok same grow-on-demand as slots
	}
	m.mask = uint64(newCap - 1)
	m.live = 0
	for i, s := range oldSlots {
		if s>>33 == m.epoch {
			val := s >> 32 & 1
			if m.wordVals {
				val = oldVals[i]
			}
			m.put(int32(uint32(s)), val)
		}
	}
}

// reset starts a new epoch; the epoch starts at 0 and is bumped before
// first use (every checkout resets), so zeroed slots can never read as
// live. The packed stamp is 31 bits: when the epoch would reach the
// packing limit the table is cleared outright and the epoch restarts at 1
// — one O(capacity) clear per 2³¹ checkouts, never a stale hit.
//
//fairnn:noalloc
func (m *compactMemo) reset() {
	m.epoch++
	if m.epoch >= compactMemoEpochMax {
		clear(m.slots)
		m.epoch = 1
	}
	m.live = 0
}

// retainedBytes reports the backing-array footprint (for the pool's
// scratch budget and the footprint gauge).
//
//fairnn:noalloc
func (m *compactMemo) retainedBytes() int { return 8 * (len(m.slots) + len(m.vals)) }

// shrink frees backing storage when retainedBytes exceeds maxBytes; the
// table stays usable and reallocates lazily on the next put.
//
//fairnn:noalloc
func (m *compactMemo) shrink(maxBytes int) {
	if m.retainedBytes() > maxBytes {
		m.slots, m.vals = nil, nil
		m.mask, m.live = 0, 0
	}
}

// BoundedPool is the capped querier free list: a mutex-guarded stack that
// retains at most cap items. Get returns nil when empty (the caller
// allocates); Put beyond the cap drops the item for the garbage collector.
// The lock is held for a few instructions per query — negligible against
// the ms-scale queries it brackets — and, unlike sync.Pool, the retained
// set is inspectable (fold), which backs RetainedScratchBytes and the
// bench footprint gauge.
type BoundedPool[T any] struct {
	mu    sync.Mutex
	items []*T
	cap   int
}

// setCap fixes the retention cap (called once at construction).
func (p *BoundedPool[T]) SetCap(c int) { p.cap = c }

// get pops a retained item, or returns nil when none is available.
//
//fairnn:noalloc
func (p *BoundedPool[T]) Get() *T {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.items); n > 0 {
		it := p.items[n-1]
		p.items[n-1] = nil
		p.items = p.items[:n-1]
		return it
	}
	return nil
}

// put retains the item unless the cap is reached; it reports whether the
// item was kept.
//
//fairnn:noalloc
func (p *BoundedPool[T]) Put(it *T) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.items) >= p.cap {
		return false
	}
	p.items = append(p.items, it)
	return true
}

// retained returns how many items the pool currently holds.
func (p *BoundedPool[T]) Retained() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.items)
}

// fold calls fn on every retained item under the pool lock (accounting
// only; fn must not check items out).
func (p *BoundedPool[T]) Fold(fn func(*T)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, it := range p.items {
		fn(it)
	}
}
