package fairnn

import (
	"fairnn/internal/core"
	"fairnn/internal/lsh"
	"fairnn/internal/set"
	"fairnn/internal/vector"
)

// This file extends the façade with the vector-space samplers (SimHash-
// backed Sections 3/4 for angular similarity), the weighted sampler (the
// paper's future-work direction, Section 1.3) and the multi-radius
// adaptive sampler (the parameterless direction from the conclusion).

// VecSampler solves r-NNS for inner-product similarity of unit vectors
// using the Section 3 construction over a SimHash family.
type VecSampler = core.Sampler[vector.Vec]

// VecSamplerIndependent solves r-NNIS for inner-product similarity using
// the Section 4 construction over a SimHash family (the LSH-table
// counterpart of VecIndependent's filter approach; super-linear space but
// distance-agnostic).
type VecSamplerIndependent = core.Independent[vector.Vec]

// SetWeighted samples near neighbors with probability proportional to a
// weight of their similarity (Section 1.3's weighted case).
type SetWeighted = core.Weighted[set.Set]

// SetMultiRadius samples from the tightest non-empty ball over a radius
// grid (the parameterless direction from the paper's conclusion).
type SetMultiRadius = core.MultiRadius[set.Set]

// WeightFunc maps a similarity (or distance) to a non-negative weight.
type WeightFunc = core.WeightFunc

// VecConfig controls LSH parameter selection for the vector structures.
type VecConfig struct {
	// K and L override automatic selection when both are > 0.
	K, L int
	// Dim is the vector dimensionality (required for auto selection).
	Dim int
	// FarSim is the "far" inner product for ChooseK (default 0.0).
	FarSim float64
	// FarBudget is the expected number of far collisions (default 5).
	FarBudget float64
	// Recall is the target recall at alpha for ChooseL (default 0.99).
	Recall float64
	// CrossPolytope selects the cross-polytope family instead of SimHash.
	CrossPolytope bool
	// Seed drives all randomness (default 1).
	Seed uint64
	// Memo is the per-query memory discipline (querier retention cap,
	// scratch budget); an explicitly set
	// opts.Memo wins over this field.
	Memo MemoOptions
}

// withDefaults resolves the zero-value fields to their documented
// defaults (the vector twin of Config.withDefaults; FarSim's default
// inner product is 0, so it needs no resolution).
func (c VecConfig) withDefaults() VecConfig {
	c.FarBudget = orDefault(c.FarBudget, 5)
	c.Recall = orDefault(c.Recall, 0.99)
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

func (c VecConfig) family() lsh.Family[vector.Vec] {
	if c.CrossPolytope {
		return lsh.CrossPolytope{Dim: c.Dim}
	}
	return lsh.SimHash{Dim: c.Dim}
}

// paramsAt picks (K, L) for one point count at the threshold alpha: the
// explicit override when both are set, automatic ChooseK/ChooseL
// otherwise (the vector twin of Config.paramsAt — the sharded builder
// calls it once per shard size). c must already carry its defaults.
func (c VecConfig) paramsAt(n int, alpha float64) lsh.Params {
	if c.K > 0 && c.L > 0 {
		return lsh.Params{K: c.K, L: c.L}
	}
	fam := c.family()
	k := lsh.ChooseK[vector.Vec](fam, n, c.FarSim, c.FarBudget)
	l := lsh.ChooseL[vector.Vec](fam, k, alpha, c.Recall)
	return lsh.Params{K: k, L: l}
}

func (c VecConfig) resolve(n int, alpha float64) (lsh.Family[vector.Vec], lsh.Params, uint64) {
	c = c.withDefaults()
	return c.family(), c.paramsAt(n, alpha), c.Seed
}

// NewVecSampler indexes unit vectors for uniform sampling from
// {p : ⟨p, q⟩ ≥ alpha} via the Section 3 LSH construction.
func NewVecSampler(points []Vec, alpha float64, cfg VecConfig) (*VecSampler, error) {
	if cfg.Dim == 0 && len(points) > 0 {
		cfg.Dim = len(points[0])
	}
	fam, params, seed := cfg.resolve(len(points), alpha)
	return core.NewSamplerMemo[vector.Vec](core.InnerProduct(), fam, params, points, alpha, cfg.Memo, seed)
}

// NewVecSamplerIndependent indexes unit vectors for independent uniform
// sampling via the Section 4 LSH construction.
func NewVecSamplerIndependent(points []Vec, alpha float64, opts IndependentOptions, cfg VecConfig) (*VecSamplerIndependent, error) {
	if cfg.Dim == 0 && len(points) > 0 {
		cfg.Dim = len(points[0])
	}
	fam, params, seed := cfg.resolve(len(points), alpha)
	opts.Memo = memoOr(opts.Memo, cfg.Memo)
	return core.NewIndependent[vector.Vec](core.InnerProduct(), fam, params, points, alpha, opts, seed)
}

// NewSetWeighted indexes the sets for weighted near-neighbor sampling:
// each near neighbor p is returned with probability proportional to
// weight(Jaccard(q, p)). wMax must upper-bound the weight over [radius, 1].
func NewSetWeighted(sets []Set, radius float64, weight WeightFunc, wMax float64, opts IndependentOptions, cfg Config) (*SetWeighted, error) {
	fam, params, seed := cfg.resolve(len(sets), radius)
	opts.Memo = memoOr(opts.Memo, cfg.Memo)
	return core.NewWeighted[set.Set](core.Jaccard(), fam, params, sets, radius, weight, wMax, opts, seed)
}

// NewSetMultiRadius indexes the sets at every similarity threshold in
// radii; queries sample from the tightest non-empty ball. The family and
// seed come straight from the resolved Config (no placeholder radius is
// involved) and each grid radius picks its own (K, L) through the same
// shared default resolution as the single-radius constructors.
func NewSetMultiRadius(sets []Set, radii []float64, opts IndependentOptions, cfg Config) (*SetMultiRadius, error) {
	cfg = cfg.withDefaults()
	opts.Memo = memoOr(opts.Memo, cfg.Memo)
	paramsFor := func(r float64) lsh.Params { return cfg.paramsAt(len(sets), r) }
	return core.NewMultiRadius[set.Set](core.Jaccard(), cfg.family(), paramsFor, sets, radii, opts, cfg.Seed)
}

// VecExact is the linear-scan ground truth for inner-product similarity
// (the vector twin of SetExact).
type VecExact = core.Exact[vector.Vec]

// NewVecExact builds the linear-scan ground truth over unit vectors
// (alpha is the minimum inner product).
func NewVecExact(points []Vec, alpha float64, seed uint64) *VecExact {
	return core.NewExact[vector.Vec](core.InnerProduct(), points, alpha, seed)
}

// SetDynamic is the insert/delete-capable fair sampler over item sets
// (uniform over the recalled ball via i.i.d. priorities; see
// internal/core.Dynamic for the construction).
type SetDynamic = core.Dynamic[set.Set]

// NewSetDynamic builds an empty dynamic sampler for Jaccard similarity;
// index points with Insert and retire them with Delete.
func NewSetDynamic(radius float64, expectedN int, cfg Config) (*SetDynamic, error) {
	if expectedN < 2 {
		expectedN = 2
	}
	fam, params, seed := cfg.resolve(expectedN, radius)
	return core.NewDynamic[set.Set](core.Jaccard(), fam, params, radius, seed)
}
