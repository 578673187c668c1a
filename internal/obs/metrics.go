package obs

import "time"

// QueryMetrics is the shared instrument bundle of a sampler's rejection
// loop — the Section 4 and Section 5 draw loops and the sharded union
// draw all record the same vocabulary, distinguished by the layer
// label. Every field tolerates nil (the whole bundle is nil when
// telemetry is off), and ObserveDraw is zero-alloc, so the bundle can
// sit directly on the Sample hot path.
type QueryMetrics struct {
	// Draws counts logical draw attempts (one Sample, or one iteration
	// of a SampleK / Samples stream).
	Draws *Counter
	// Found / NoSample split draws by outcome.
	Found    *Counter
	NoSample *Counter
	// Rounds counts rejection-loop rounds; Rejections counts the rounds
	// that did not emit the accepted point (rounds − 1 on success, all
	// rounds on failure) — the direct observable of the paper's λ/Σ
	// resolution quality.
	Rounds     *Counter
	Rejections *Counter
	// MemoHits counts similarity-memo reuse; BatchScored counts scores
	// that went through a batched kernel call; ScoreEvals counts fresh
	// distance evaluations.
	MemoHits    *Counter
	BatchScored *Counter
	ScoreEvals  *Counter
	// Degraded counts draws answered over a reduced shard set.
	Degraded *Counter
	// Clamped counts draws in which an acceptance probability exceeded 1
	// and was clamped — the one event that breaks exact uniformity, so a
	// non-zero rate means the fairness guarantee is not holding exactly.
	Clamped *Counter
	// Latency is the per-draw wall-time histogram.
	Latency *Histogram
}

// NewQueryMetrics registers the draw-loop bundle under the given layer
// label ("core", "filter", "shard"). Returns nil on a nil registry.
func NewQueryMetrics(r *Registry, layer string) *QueryMetrics {
	if r == nil {
		return nil
	}
	l := Labels("layer", layer)
	return &QueryMetrics{
		Draws:       r.Counter("fairnn_draws_total", l, "logical sample draws attempted"),
		Found:       r.Counter("fairnn_draws_found_total", l, "draws that returned a sample"),
		NoSample:    r.Counter("fairnn_draws_nosample_total", l, "draws that found no near point"),
		Rounds:      r.Counter("fairnn_rejection_rounds_total", l, "rejection-loop rounds executed"),
		Rejections:  r.Counter("fairnn_rejections_total", l, "rejection-loop rounds that did not emit the sample"),
		MemoHits:    r.Counter("fairnn_memo_hits_total", l, "similarity-memo cache hits"),
		BatchScored: r.Counter("fairnn_batch_scored_total", l, "distance scores computed through batched kernels"),
		ScoreEvals:  r.Counter("fairnn_score_evals_total", l, "fresh distance evaluations"),
		Degraded:    r.Counter("fairnn_degraded_draws_total", l, "draws answered over a reduced shard set"),
		Clamped:     r.Counter("fairnn_draws_clamped_total", l, "draws whose acceptance probability exceeded 1 and was clamped"),
		Latency:     r.Histogram("fairnn_draw_latency_seconds", l, "per-draw wall time"),
	}
}

// ObserveDraw records one finished draw: outcome, rejection-loop round
// count, memo/batch/score deltas, degradation, acceptance clamping, and
// wall time. Zero allocations; no-op on a nil bundle.
//
//fairnn:noalloc
func (m *QueryMetrics) ObserveDraw(d time.Duration, found bool, rounds, memoHits, batchScored, scoreEvals int, degraded, clamped bool) {
	if m == nil {
		return
	}
	m.Draws.Inc()
	rejected := rounds
	if found {
		m.Found.Inc()
		rejected--
	} else {
		m.NoSample.Inc()
	}
	m.Rounds.AddInt(rounds)
	m.Rejections.AddInt(rejected)
	m.MemoHits.AddInt(memoHits)
	m.BatchScored.AddInt(batchScored)
	m.ScoreEvals.AddInt(scoreEvals)
	if degraded {
		m.Degraded.Inc()
	}
	if clamped {
		m.Clamped.Inc()
	}
	m.Latency.Observe(d)
}

// ObserveClamp records a clamp in an acceptance step layered on top of an
// already-observed draw (the weighted sampler's weight/wMax test). No-op
// on a nil bundle.
//
//fairnn:noalloc
func (m *QueryMetrics) ObserveClamp() {
	if m != nil {
		m.Clamped.Inc()
	}
}
