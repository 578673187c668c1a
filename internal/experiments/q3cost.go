package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"fairnn/internal/core"
	"fairnn/internal/dataset"
	"fairnn/internal/lsh"
	"fairnn/internal/set"
	"fairnn/internal/stats"
	"fairnn/internal/vector"
)

// CostConfig parameterizes the Q3 cost-accounting experiment (§6.3
// discussion plus Theorems 1, 2): what is the additional computational
// price of exact fairness, measured in points inspected, similarity
// evaluations and wall time per query, for every sampler in the library.
type CostConfig struct {
	Dataset dataset.SetConfig
	// Radius is the similarity threshold r.
	Radius float64
	// Queries and RepsPerQuery shape the measurement.
	Queries      int
	RepsPerQuery int
	// MinSim and MinNeighbors define "interesting" queries (zero values
	// select the paper's 0.2 / 40).
	MinSim       float64
	MinNeighbors int
	// FarSim/FarBudget/Recall drive K/L selection.
	FarSim    float64
	FarBudget float64
	Recall    float64
	Seed      uint64
}

// DefaultCost uses the Last.FM-like workload at r = 0.2.
func DefaultCost() CostConfig {
	return CostConfig{
		Dataset:      dataset.LastFMLike(),
		Radius:       0.2,
		Queries:      25,
		RepsPerQuery: 40,
		FarSim:       0.1,
		FarBudget:    5,
		Recall:       0.99,
		Seed:         464,
	}
}

// CostRow is one method's aggregate cost.
type CostRow struct {
	Method          string
	MeanInspected   float64 // bucket entries touched per query
	MeanScoreEvals  float64 // similarity computations per query
	MeanBatchScored float64 // score evals issued through a batched kernel call
	MeanRounds      float64 // rejection rounds (Sections 4/5)
	MeanMicros      float64 // wall time per query, microseconds
	MedianMicros    float64
	FoundRate       float64
}

// CostResult carries the table.
type CostResult struct {
	Config   CostConfig
	Params   lsh.Params
	N        int
	MeanBall float64
	Rows     []CostRow
}

type costProbe struct {
	name string
	run  func(q set.Set, st *core.QueryStats) bool
}

// RunCost executes the experiment.
func RunCost(cfg CostConfig) (*CostResult, error) {
	sets := dataset.Generate(cfg.Dataset)
	minSim, minNb := cfg.MinSim, cfg.MinNeighbors
	if minSim <= 0 {
		minSim = 0.2
	}
	if minNb <= 0 {
		minNb = 40
	}
	queries := dataset.InterestingQueries(sets, minSim, minNb, cfg.Queries, cfg.Seed)
	if len(queries) == 0 {
		return nil, fmt.Errorf("q3cost: no interesting queries")
	}
	k := lsh.ChooseK[set.Set](lsh.OneBitMinHash{}, len(sets), cfg.FarSim, cfg.FarBudget)
	l := lsh.ChooseL[set.Set](lsh.OneBitMinHash{}, k, cfg.Radius, cfg.Recall)
	params := lsh.Params{K: k, L: l}
	space := core.Jaccard()

	std, err := core.NewStandard[set.Set](space, lsh.OneBitMinHash{}, params, sets, cfg.Radius, cfg.Seed+11)
	if err != nil {
		return nil, err
	}
	smp, err := core.NewSampler[set.Set](space, lsh.OneBitMinHash{}, params, sets, cfg.Radius, cfg.Seed+13)
	if err != nil {
		return nil, err
	}
	ind, err := core.NewIndependent[set.Set](space, lsh.OneBitMinHash{}, params, sets, cfg.Radius, core.IndependentOptions{}, cfg.Seed+17)
	if err != nil {
		return nil, err
	}
	exact := core.NewExact[set.Set](space, sets, cfg.Radius, cfg.Seed+19)

	var meanBall float64
	for _, q := range queries {
		meanBall += float64(exact.BallSize(sets[q], nil))
	}
	meanBall /= float64(len(queries))

	probes := []costProbe{
		{"standard LSH (first hit)", func(q set.Set, st *core.QueryStats) bool {
			_, ok := std.Query(q, st)
			return ok
		}},
		{"naive fair (collect all)", func(q set.Set, st *core.QueryStats) bool {
			_, ok := std.NaiveFairSample(q, st)
			return ok
		}},
		{"Section 3 NNS (min rank)", func(q set.Set, st *core.QueryStats) bool {
			_, ok := smp.Sample(q, st)
			return ok
		}},
		{"Appendix A (rank swap)", func(q set.Set, st *core.QueryStats) bool {
			_, ok := smp.SampleRepeated(q, st)
			return ok
		}},
		{"Section 4 NNIS (segments)", func(q set.Set, st *core.QueryStats) bool {
			_, ok := ind.Sample(q, st)
			return ok
		}},
		{"exact scan (ground truth)", func(q set.Set, st *core.QueryStats) bool {
			_, ok := exact.Sample(q, st)
			return ok
		}},
	}

	res := &CostResult{Config: cfg, Params: params, N: len(sets), MeanBall: meanBall}
	for _, p := range probes {
		res.Rows = append(res.Rows, measureProbe(p.name, len(queries)*cfg.RepsPerQuery,
			func(i int, st *core.QueryStats) bool {
				return p.run(sets[queries[i/cfg.RepsPerQuery]], st)
			}))
	}

	// Vector probes on a planted ℓ2/inner-product workload: the set
	// samplers above never batch (Jaccard has no batch kernel), so these
	// two rows are where the batched-scoring column is live — the ℓ2 NNIS
	// scores memo-miss candidate blocks through Space.ScoreSqBatch and the
	// Section 5 sampler runs its blocked existence scan.
	ball := dataset.NewPlantedBall(dataset.PlantedBallConfig{
		N: 4000, Dim: 32, Alpha: 0.8, Beta: 0.5,
		BallSize: 40, MidSize: 160, Seed: cfg.Seed + 31,
	})
	radius := math.Sqrt(2 - 2*0.8)
	vecInd, err := core.NewIndependent[vector.Vec](core.Euclidean(), lsh.Euclidean{Dim: 32, W: 2 * radius},
		lsh.Params{K: 2, L: 12}, ball.Points, radius, core.IndependentOptions{}, cfg.Seed+37)
	if err != nil {
		return nil, err
	}
	fi, err := core.NewFilterIndependent(ball.Points, 0.8, 0.5, core.FilterIndependentOptions{}, cfg.Seed+41)
	if err != nil {
		return nil, err
	}
	reps := len(queries) * cfg.RepsPerQuery
	res.Rows = append(res.Rows,
		measureProbe("ℓ2 NNIS (batched kernels)", reps, func(i int, st *core.QueryStats) bool {
			_, ok := vecInd.Sample(ball.Query, st)
			return ok
		}),
		measureProbe("Section 5 α-NNIS (filters)", reps, func(i int, st *core.QueryStats) bool {
			_, ok := fi.Sample(ball.Query, st)
			return ok
		}))
	return res, nil
}

// measureProbe runs one probe `total` times and aggregates its counters.
func measureProbe(name string, total int, run func(i int, st *core.QueryStats) bool) CostRow {
	var inspected, scores, batched, rounds, micros []float64
	found := 0
	for i := 0; i < total; i++ {
		var st core.QueryStats
		start := time.Now()
		ok := run(i, &st)
		el := float64(time.Since(start).Nanoseconds()) / 1000.0
		if ok {
			found++
		}
		inspected = append(inspected, float64(st.PointsInspected))
		scores = append(scores, float64(st.ScoreEvals))
		batched = append(batched, float64(st.BatchScored))
		rounds = append(rounds, float64(st.Rounds))
		micros = append(micros, el)
	}
	return CostRow{
		Method:          name,
		MeanInspected:   stats.Summarize(inspected).Mean,
		MeanScoreEvals:  stats.Summarize(scores).Mean,
		MeanBatchScored: stats.Summarize(batched).Mean,
		MeanRounds:      stats.Summarize(rounds).Mean,
		MeanMicros:      stats.Summarize(micros).Mean,
		MedianMicros:    stats.Quantile(micros, 0.5),
		FoundRate:       float64(found) / float64(total),
	}
}

// Render writes the table.
func (r *CostResult) Render(w io.Writer) error {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Method,
			f2(row.MeanInspected),
			f2(row.MeanScoreEvals),
			f2(row.MeanBatchScored),
			f2(row.MeanRounds),
			f2(row.MeanMicros),
			f2(row.MedianMicros),
			f2(row.FoundRate),
		})
	}
	if err := WriteTable(w,
		fmt.Sprintf("Q3 cost (n=%d, r=%.2f, K=%d, L=%d, mean ball=%.1f): per-query cost of fairness", r.N, r.Config.Radius, r.Params.K, r.Params.L, r.MeanBall),
		[]string{"method", "inspected", "score evals", "batch scored", "rounds", "mean µs", "median µs", "found"},
		rows); err != nil {
		return err
	}
	return nil
}
