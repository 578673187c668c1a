package experiments

import (
	"fmt"
	"io"
	"math"

	"fairnn/internal/core"
	"fairnn/internal/dataset"
	"fairnn/internal/lsh"
	"fairnn/internal/set"
	"fairnn/internal/shard"
	"fairnn/internal/stats"
)

// ValidateConfig parameterizes the theory-check experiment: empirical
// verification of the fairness theorems (1, 2, 4, 5) on a workload with a
// known ground-truth ball. For each structure it reports the
// total-variation distance of the output distribution from uniform over
// the recalled ball, the χ² p-value, and — for the independent samplers —
// the TV of the consecutive-pair distribution from the product measure.
type ValidateConfig struct {
	// Users sizes the clustered set workload.
	Users int
	// Radius is the Jaccard threshold.
	Radius float64
	// Samples per structure.
	Samples int
	Seed    uint64
	// Shards, when > 0, adds a sharded Section 4 row: the same workload
	// partitioned round-robin across Shards shards, so the uniformity and
	// independence checks cover the two-stage union draw (the CLI's
	// -shards flag lands here).
	Shards int
}

// DefaultValidate returns a configuration that runs in a few seconds.
func DefaultValidate() ValidateConfig {
	return ValidateConfig{Users: 500, Radius: 0.2, Samples: 20000, Seed: 565}
}

// ValidateRow is one structure's empirical fairness check.
type ValidateRow struct {
	Structure string
	Theorem   string
	BallSize  int
	TV        float64
	ChiP      float64
	// PairTV is the TV of consecutive output pairs from uniform²; NaN for
	// structures without an independence guarantee.
	PairTV float64
	// HasPair reports whether PairTV applies.
	HasPair bool
	// NoiseTV and PairNoiseTV are the expected TV of a *perfectly uniform*
	// sampler at this sample size (≈ sqrt(m/(2πN)) for m cells): an
	// empirical TV at or below this floor is indistinguishable from exact
	// uniformity.
	NoiseTV     float64
	PairNoiseTV float64
}

// noiseFloor returns the expected TV distance between the empirical
// distribution of n uniform samples over m cells and the uniform law.
func noiseFloor(m, n int) float64 {
	if n == 0 {
		return 0
	}
	return math.Sqrt(float64(m) / (2 * math.Pi * float64(n)))
}

// ValidateResult carries the table.
type ValidateResult struct {
	Config ValidateConfig
	Rows   []ValidateRow
}

// RunValidate executes the checks.
func RunValidate(cfg ValidateConfig) (*ValidateResult, error) {
	dcfg := dataset.LastFMLike()
	dcfg.Users = cfg.Users
	dcfg.Communities = max(4, cfg.Users/50)
	sets := dataset.Generate(dcfg)
	queries := dataset.InterestingQueries(sets, cfg.Radius, 10, 1, cfg.Seed)
	if len(queries) == 0 {
		return nil, fmt.Errorf("validate: no suitable query")
	}
	q := sets[queries[0]]
	space := core.Jaccard()
	k := lsh.ChooseK[set.Set](lsh.OneBitMinHash{}, len(sets), 0.1, 5)
	l := lsh.ChooseL[set.Set](lsh.OneBitMinHash{}, k, cfg.Radius, 0.999)
	params := lsh.Params{K: k, L: l}

	exact := core.NewExact[set.Set](space, sets, cfg.Radius, cfg.Seed)
	ball := exact.Ball(q, nil)
	ballIndex := make(map[int32]int32, len(ball))
	for i, id := range ball {
		ballIndex[id] = int32(i)
	}
	b := len(ball)

	res := &ValidateResult{Config: cfg}

	observe := func(name, theorem string, hasPair bool, sample func() (int32, bool)) {
		freq := stats.NewFrequency()
		pair := stats.NewFrequency()
		prev := int32(-1)
		for i := 0; i < cfg.Samples; i++ {
			id, ok := sample()
			if !ok {
				continue
			}
			freq.Observe(id)
			if pi, inBall := ballIndex[id]; inBall && hasPair {
				if prev >= 0 {
					pair.Observe(prev*int32(b) + pi)
				}
				prev = pi
			}
		}
		_, chiP := freq.ChiSquareUniform(ball)
		row := ValidateRow{
			Structure: name,
			Theorem:   theorem,
			BallSize:  b,
			TV:        freq.TVFromUniform(ball),
			ChiP:      chiP,
			HasPair:   hasPair,
			NoiseTV:   noiseFloor(b, freq.Total()),
		}
		if hasPair {
			pairDomain := make([]int32, b*b)
			for i := range pairDomain {
				pairDomain[i] = int32(i)
			}
			row.PairTV = pair.TVFromUniform(pairDomain)
			row.PairNoiseTV = noiseFloor(b*b, pair.Total())
		}
		res.Rows = append(res.Rows, row)
	}

	// Theorem 5: Appendix A rank-perturbation on a single repeated query.
	smp, err := core.NewSampler[set.Set](space, lsh.OneBitMinHash{}, params, sets, cfg.Radius, cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	observe("Section 3 + Appendix A (SampleRepeated)", "Thm 5", true, func() (int32, bool) {
		return smp.SampleRepeated(q, nil)
	})

	// Theorem 2: the Section 4 NNIS structure.
	ind, err := core.NewIndependent[set.Set](space, lsh.OneBitMinHash{}, params, sets, cfg.Radius, core.IndependentOptions{}, cfg.Seed+2)
	if err != nil {
		return nil, err
	}
	observe("Section 4 (Independent)", "Thm 2", true, func() (int32, bool) {
		return ind.Sample(q, nil)
	})

	// Theorem 2 across a partitioned index: the sharded union draw must be
	// just as uniform and independent as the single structure.
	if cfg.Shards > 0 {
		sh, err := shard.Build[set.Set](space, lsh.OneBitMinHash{},
			func(int) lsh.Params { return params }, sets, cfg.Radius,
			core.IndependentOptions{}, cfg.Shards, shard.RoundRobin{}, cfg.Seed+5)
		if err != nil {
			return nil, err
		}
		observe(fmt.Sprintf("Sharded Section 4 (S=%d)", cfg.Shards), "Thm 2", true, func() (int32, bool) {
			return sh.Sample(q, nil)
		})
	}

	// Baseline contrast: the biased standard query (no theorem — shows
	// what failure looks like).
	std, err := core.NewStandard[set.Set](space, lsh.OneBitMinHash{}, params, sets, cfg.Radius, cfg.Seed+3)
	if err != nil {
		return nil, err
	}
	observe("standard LSH (biased baseline)", "—", false, func() (int32, bool) {
		return std.QueryRandomTableOrder(q, nil)
	})

	// Naive fair baseline (uniform but linear in the candidate set).
	observe("naive fair (collect all)", "—", false, func() (int32, bool) {
		return std.NaiveFairSample(q, nil)
	})
	return res, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Render writes the table.
func (r *ValidateResult) Render(w io.Writer) error {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		pairCell, pairFloor := "n/a", "n/a"
		if row.HasPair {
			pairCell = f(row.PairTV)
			pairFloor = f(row.PairNoiseTV)
		}
		rows = append(rows, []string{
			row.Structure, row.Theorem,
			fmt.Sprintf("%d", row.BallSize),
			f(row.TV), f(row.NoiseTV), f(row.ChiP), pairCell, pairFloor,
		})
	}
	return WriteTable(w,
		fmt.Sprintf("Theory check (n=%d, r=%.2f, %d samples): uniformity and independence", r.Config.Users, r.Config.Radius, r.Config.Samples),
		[]string{"structure", "theorem", "ball", "TV vs uniform", "noise floor", "chi2 p", "pair TV", "pair floor"},
		rows)
}
