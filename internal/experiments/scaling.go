package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"fairnn/internal/core"
	"fairnn/internal/dataset"
	"fairnn/internal/filter"
	"fairnn/internal/lsh"
	"fairnn/internal/shard"
	"fairnn/internal/vector"
)

// ScalingConfig parameterizes the Section 5 scaling experiment: Theorems 3
// and 4 claim n^ρ+o(1) query cost and linear space for the filter-based
// structure, with ρ = (1-α²)(1-β²)/(1-αβ)². We plant identical query
// workloads at geometrically growing n and fit the empirical growth
// exponent of the per-query candidate work, comparing against the exact
// linear scan (exponent 1).
type ScalingConfig struct {
	// Ns are the dataset sizes (geometric grid recommended).
	Ns []int
	// Dim is the vector dimensionality.
	Dim int
	// Alpha and Beta are the similarity thresholds.
	Alpha, Beta float64
	// BallSize and MidSize are held constant across n so that only the
	// background (far-point) work scales.
	BallSize, MidSize int
	// QueriesPerN is the number of measured queries per size.
	QueriesPerN int
	Seed        uint64
	// Shards, when > 0, additionally builds a sharded Section 4 sampler
	// (SimHash over the same vectors, partitioned round-robin across
	// Shards shards) at every n and reports its build and query wall
	// times — the shard-count sweep of the scaling experiment (the CLI's
	// -shards flag lands here).
	Shards int
}

// DefaultScaling uses α=0.8, β=0.5 (ρ ≈ 0.75) over n = 1k..8k.
func DefaultScaling() ScalingConfig {
	return ScalingConfig{
		Ns:          []int{1000, 2000, 4000, 8000},
		Dim:         32,
		Alpha:       0.8,
		Beta:        0.5,
		BallSize:    16,
		MidSize:     48,
		QueriesPerN: 30,
		Seed:        666,
	}
}

// ScalingRow is the measurement at one dataset size.
type ScalingRow struct {
	N int
	// Candidates is the mean number of bucket entries inspected per query
	// (the n^ρ-scaling quantity of Lemma 3).
	Candidates float64
	// FilterEvals is the mean number of filter inner products per query.
	FilterEvals float64
	// Micros is the mean wall time per query.
	Micros float64
	// ExactMicros is the mean wall time of the linear-scan baseline.
	ExactMicros float64
	// SpaceRefs counts stored point references across banks (linear-space
	// check: must equal L·n exactly).
	SpaceRefs int
	Banks     int
	// ShardedBuildMicros and ShardedMicros are the sharded Section 4
	// sampler's build and mean per-query wall times (populated only when
	// Config.Shards > 0).
	ShardedBuildMicros float64
	ShardedMicros      float64
}

// ScalingResult carries the series and fitted exponents.
type ScalingResult struct {
	Config ScalingConfig
	Rho    float64 // theoretical exponent
	Rows   []ScalingRow
	// CandidateExponent is the least-squares slope of log(candidates)
	// vs log(n); Theorem 3 predicts ≈ ρ + o(1), and in particular < 1.
	CandidateExponent float64
	// ExactExponent is the slope for the linear scan (≈ 1).
	ExactExponent float64
}

// RunScaling executes the experiment.
func RunScaling(cfg ScalingConfig) (*ScalingResult, error) {
	res := &ScalingResult{Config: cfg, Rho: filter.Rho(cfg.Alpha, cfg.Beta)}
	for _, n := range cfg.Ns {
		w := dataset.NewPlantedBall(dataset.PlantedBallConfig{
			N: n, Dim: cfg.Dim, Alpha: cfg.Alpha, Beta: cfg.Beta,
			BallSize: cfg.BallSize, MidSize: cfg.MidSize,
			Seed: cfg.Seed + uint64(n),
		})
		fi, err := core.NewFilterIndependent(w.Points, cfg.Alpha, cfg.Beta, core.FilterIndependentOptions{}, cfg.Seed+uint64(n)*7)
		if err != nil {
			return nil, err
		}
		exact := core.NewExact[vector.Vec](core.InnerProduct(), w.Points, cfg.Alpha, cfg.Seed)
		var cand, evals, micros, exactMicros float64
		for qi := 0; qi < cfg.QueriesPerN; qi++ {
			var st core.QueryStats
			start := time.Now()
			fi.Sample(w.Query, &st)
			micros += float64(time.Since(start).Nanoseconds()) / 1000
			cand += float64(st.PointsInspected + st.Rounds)
			evals += float64(st.FilterEvals)
			start = time.Now()
			exact.Sample(w.Query, nil)
			exactMicros += float64(time.Since(start).Nanoseconds()) / 1000
		}
		q := float64(cfg.QueriesPerN)
		row := ScalingRow{
			N:           n,
			Candidates:  cand / q,
			FilterEvals: evals / q,
			Micros:      micros / q,
			ExactMicros: exactMicros / q,
			SpaceRefs:   fi.Banks() * n,
			Banks:       fi.Banks(),
		}
		if cfg.Shards > 0 {
			build, query, err := shardedPoint(cfg, w, n)
			if err != nil {
				return nil, err
			}
			row.ShardedBuildMicros, row.ShardedMicros = build, query
		}
		res.Rows = append(res.Rows, row)
	}
	res.CandidateExponent = fitExponent(res.Rows, func(r ScalingRow) float64 { return r.Candidates })
	res.ExactExponent = fitExponent(res.Rows, func(r ScalingRow) float64 { return r.ExactMicros })
	return res, nil
}

// shardedPoint measures the sharded Section 4 sampler (SimHash over the
// same planted vectors, round-robin across cfg.Shards shards) at one
// dataset size: build wall time and mean Sample wall time, in µs. LSH
// parameters are chosen per shard from its point count, exactly as the
// façade constructor does.
func shardedPoint(cfg ScalingConfig, w dataset.PlantedBall, n int) (buildMicros, queryMicros float64, err error) {
	fam := lsh.SimHash{Dim: cfg.Dim}
	paramsFor := func(shardSize int) lsh.Params {
		k := lsh.ChooseK[vector.Vec](fam, shardSize, 0, 5)
		l := lsh.ChooseL[vector.Vec](fam, k, cfg.Alpha, 0.99)
		return lsh.Params{K: k, L: l}
	}
	start := time.Now()
	sh, err := shard.Build[vector.Vec](core.InnerProduct(), fam, paramsFor, w.Points, cfg.Alpha,
		core.IndependentOptions{}, cfg.Shards, shard.RoundRobin{}, cfg.Seed+uint64(n)*13)
	if err != nil {
		return 0, 0, err
	}
	buildMicros = float64(time.Since(start).Nanoseconds()) / 1000
	start = time.Now()
	for qi := 0; qi < cfg.QueriesPerN; qi++ {
		sh.Sample(w.Query, nil)
	}
	queryMicros = float64(time.Since(start).Nanoseconds()) / 1000 / float64(cfg.QueriesPerN)
	return buildMicros, queryMicros, nil
}

// fitExponent returns the least-squares slope of log(metric) vs log(n).
func fitExponent(rows []ScalingRow, metric func(ScalingRow) float64) float64 {
	var xs, ys []float64
	for _, r := range rows {
		v := metric(r)
		if v <= 0 {
			continue
		}
		xs = append(xs, math.Log(float64(r.N)))
		ys = append(ys, math.Log(v))
	}
	n := float64(len(xs))
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}

// Render writes the table (plus the sharded columns when the sweep ran).
func (r *ScalingResult) Render(w io.Writer) error {
	sharded := r.Config.Shards > 0
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		cells := []string{
			fmt.Sprintf("%d", row.N),
			f2(row.Candidates),
			f2(row.FilterEvals),
			f2(row.Micros),
			f2(row.ExactMicros),
			fmt.Sprintf("%d", row.SpaceRefs),
			fmt.Sprintf("%d", row.Banks),
		}
		if sharded {
			cells = append(cells, f2(row.ShardedBuildMicros), f2(row.ShardedMicros))
		}
		rows = append(rows, cells)
	}
	header := []string{"n", "candidates/query", "filter evals", "mean µs", "exact µs", "space refs", "banks"}
	title := fmt.Sprintf("Section 5 scaling (α=%.2f β=%.2f, theoretical ρ=%.3f): query work vs n", r.Config.Alpha, r.Config.Beta, r.Rho)
	if sharded {
		header = append(header, fmt.Sprintf("S=%d build µs", r.Config.Shards), fmt.Sprintf("S=%d µs", r.Config.Shards))
		title += fmt.Sprintf(" (+ sharded Section 4, S=%d)", r.Config.Shards)
	}
	if err := WriteTable(w, title, header, rows); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "\nfitted exponents: candidates ~ n^%.2f (theory ρ=%.2f, sub-linear), exact scan ~ n^%.2f\n",
		r.CandidateExponent, r.Rho, r.ExactExponent)
	return err
}
