package fairnn_test

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"fairnn"
	"fairnn/internal/dataset"
)

// This file pins the public query boundary: a malformed query gets
// ErrBadQuery from the context-aware entry points and no sample from the
// plain ones — never a panic, never a silent "no sample" that looks like
// an empty ball — and construction rejects non-finite vectors with a
// typed error naming the point. The fuzz targets drive arbitrary queries
// through Sample and check every answer against the exact ball.

// checkBadQuery asserts the malformed-query contract on every entry point
// of s.
func checkBadQuery[P any](t *testing.T, s fairnn.Sampler[P], q P) {
	t.Helper()
	var st fairnn.QueryStats
	if id, ok := s.Sample(q, &st); ok {
		t.Errorf("Sample returned %d for a malformed query", id)
	}
	if st.Found {
		t.Error("QueryStats.Found set for a malformed query")
	}
	if got := s.SampleK(q, 5, nil); len(got) != 0 {
		t.Errorf("SampleK returned %v for a malformed query", got)
	}
	if got := s.SampleKInto(q, 5, make([]int32, 0, 5), nil); len(got) != 0 {
		t.Errorf("SampleKInto returned %v for a malformed query", got)
	}
	if _, err := s.SampleContext(context.Background(), q, nil); !errors.Is(err, fairnn.ErrBadQuery) {
		t.Errorf("SampleContext error = %v, want ErrBadQuery", err)
	}
	for _, err := range s.Samples(context.Background(), q) {
		if !errors.Is(err, fairnn.ErrBadQuery) {
			t.Errorf("Samples yielded %v first, want ErrBadQuery", err)
		}
		break
	}
}

// TestBadSetQueryTyped: a non-canonical set query ({3,1,2,2}) used to
// return (0, false) — indistinguishable from an empty ball — while its
// canonical form {1,2,3} samples. Every set construction must now report
// it as ErrBadQuery.
func TestBadSetQueryTyped(t *testing.T) {
	sets := []fairnn.Set{
		fairnn.SetFromSlice([]uint32{1, 2, 3}),
		fairnn.SetFromSlice([]uint32{1, 2, 3, 4}),
		fairnn.SetFromSlice([]uint32{7, 8, 9}),
		fairnn.SetFromSlice([]uint32{10, 11, 12}),
	}
	good := fairnn.SetFromSlice([]uint32{1, 2, 3})
	bad := fairnn.Set{3, 1, 2, 2}
	for _, tc := range []struct {
		name string
		opts []fairnn.Option
	}{
		{"nnis", []fairnn.Option{fairnn.Radius(0.5)}},
		{"nns", []fairnn.Option{fairnn.Radius(0.5), fairnn.Algorithm(fairnn.NNS)}},
		{"standard", []fairnn.Option{fairnn.Radius(0.5), fairnn.Algorithm(fairnn.Standard)}},
		{"exact", []fairnn.Option{fairnn.Radius(0.5), fairnn.Algorithm(fairnn.Exact)}},
		{"weighted", []fairnn.Option{fairnn.Radius(0.5), fairnn.Algorithm(fairnn.Weighted),
			fairnn.WithWeight(func(sim float64) float64 { return sim }, 1)}},
		{"multiradius", []fairnn.Option{fairnn.Algorithm(fairnn.MultiRadius), fairnn.WithRadii(0.9, 0.5)}},
		{"dynamic", []fairnn.Option{fairnn.Radius(0.5), fairnn.Algorithm(fairnn.Dynamic)}},
		{"sharded", []fairnn.Option{fairnn.Radius(0.5), fairnn.WithShards(2)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := fairnn.NewSet(sets, append(tc.opts, fairnn.WithSeed(3))...)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.SampleContext(context.Background(), good, nil); err != nil {
				t.Fatalf("canonical query: %v", err)
			}
			checkBadQuery(t, s, bad)
		})
	}
}

// TestBadVecQueryTyped: a query of the wrong dimension used to panic
// ("vector: dimension mismatch") inside hashing or scoring; a NaN or ±Inf
// coordinate is malformed too. Every vector construction must report
// both as ErrBadQuery without panicking.
func TestBadVecQueryTyped(t *testing.T) {
	pts := []fairnn.Vec{
		fairnn.Normalize(fairnn.Vec{1, 0, 0, 0}),
		fairnn.Normalize(fairnn.Vec{1, 0.1, 0, 0}),
		fairnn.Normalize(fairnn.Vec{0, 1, 0, 0}),
		fairnn.Normalize(fairnn.Vec{0, 0, 1, 0}),
		fairnn.Normalize(fairnn.Vec{0, 0, 0, 1}),
	}
	good := fairnn.Vec{1, 0, 0, 0}
	for _, tc := range []struct {
		name string
		opts []fairnn.Option
	}{
		{"nnis", []fairnn.Option{fairnn.Radius(0.6)}},
		{"nns", []fairnn.Option{fairnn.Radius(0.6), fairnn.Algorithm(fairnn.NNS)}},
		{"filter", []fairnn.Option{fairnn.Radius(0.6), fairnn.Algorithm(fairnn.Filter), fairnn.WithBeta(0.2)}},
		{"exact", []fairnn.Option{fairnn.Radius(0.6), fairnn.Algorithm(fairnn.Exact)}},
		{"sharded", []fairnn.Option{fairnn.Radius(0.6), fairnn.WithShards(2)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := fairnn.NewVec(pts, append(tc.opts, fairnn.WithSeed(5))...)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.SampleContext(context.Background(), good, nil); err != nil && !errors.Is(err, fairnn.ErrNoSample) {
				t.Fatalf("well-formed query: %v", err)
			}
			for _, bad := range []fairnn.Vec{{1, 0}, {1, 0, 0, 0, 0}, {math.NaN(), 0, 0, 0}, {math.Inf(-1), 0, 0, 0}} {
				checkBadQuery(t, s, bad)
			}
		})
	}
}

// TestNewVecRejectsNonFinite: NaN/±Inf coordinates used to be accepted at
// build; they now fail with ErrNonFinite naming the point.
func TestNewVecRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		pts := []fairnn.Vec{{1, 0, 0}, {0, 1, 0}, {0, bad, 0}}
		for _, algo := range []fairnn.Option{
			fairnn.Algorithm(fairnn.NNIS),
			fairnn.Algorithm(fairnn.Exact),
		} {
			_, err := fairnn.NewVec(pts, fairnn.Radius(0.5), algo)
			if !errors.Is(err, fairnn.ErrNonFinite) {
				t.Fatalf("coordinate %v: error = %v, want ErrNonFinite", bad, err)
			}
			if want := "point 2 coordinate 1"; !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not name %q", err, want)
			}
		}
		_, err := fairnn.NewVec(pts, fairnn.Radius(0.5), fairnn.Algorithm(fairnn.Filter), fairnn.WithBeta(0.2))
		if !errors.Is(err, fairnn.ErrNonFinite) {
			t.Fatalf("Filter, coordinate %v: error = %v, want ErrNonFinite", bad, err)
		}
		if _, err := fairnn.NewVecIndependent(pts, 0.5, 0.2, fairnn.VecOptions{}, 1); !errors.Is(err, fairnn.ErrNonFinite) {
			t.Fatalf("NewVecIndependent, coordinate %v: error = %v, want ErrNonFinite", bad, err)
		}
	}
}

// fuzzSets is the indexed workload of FuzzSampleSet: the samplers under
// test plus the exact ground truth at the same radius.
var fuzzSets = sync.OnceValues(func() ([]fairnn.Sampler[fairnn.Set], *fairnn.SetExact) {
	cfg := dataset.LastFMLike()
	cfg.Users = 200
	cfg.Communities = 6
	sets := dataset.Generate(cfg)
	var samplers []fairnn.Sampler[fairnn.Set]
	for _, opts := range [][]fairnn.Option{
		{fairnn.Radius(0.2)},
		{fairnn.Radius(0.2), fairnn.Algorithm(fairnn.NNS)},
		{fairnn.Radius(0.2), fairnn.WithShards(3)},
	} {
		s, err := fairnn.NewSet(sets, append(opts, fairnn.WithSeed(11))...)
		if err != nil {
			panic(err)
		}
		samplers = append(samplers, s)
	}
	return samplers, fairnn.NewSetExact(sets, 0.2, 1)
})

// FuzzSampleSet drives arbitrary item lists — unsorted, duplicated,
// empty — through Sample on the public set samplers. Properties: no
// panic; every returned id lies within r of q according to Exact.
func FuzzSampleSet(f *testing.F) {
	f.Add([]byte{3, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0}) // {3,1,2,2}
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0})             // {1,2,3}
	f.Add([]byte{})
	samplers, exact := fuzzSets()
	for _, id := range []int32{0, 17, 99} {
		var b []byte
		for _, it := range exact.Point(id) {
			b = binary.LittleEndian.AppendUint32(b, it)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		q := make(fairnn.Set, 0, len(raw)/4)
		for i := 0; i+4 <= len(raw); i += 4 {
			q = append(q, binary.LittleEndian.Uint32(raw[i:]))
		}
		ball := exact.Ball(q, nil)
		for _, s := range samplers {
			if id, ok := s.Sample(q, nil); ok && !slices.Contains(ball, id) {
				t.Fatalf("Sample(%v) = %d, outside the exact ball", q, id)
			}
		}
	})
}

// fuzzVecs is the indexed workload of FuzzSampleVec, with the planted
// query as the exact ground truth's reference.
var fuzzVecs = sync.OnceValues(func() ([]fairnn.Sampler[fairnn.Vec], *dataset.PlantedBall) {
	w := dataset.NewPlantedBall(dataset.PlantedBallConfig{
		N: 300, Dim: 8, Alpha: 0.8, Beta: 0.4, BallSize: 12, MidSize: 30, Seed: 13,
	})
	var samplers []fairnn.Sampler[fairnn.Vec]
	for _, opts := range [][]fairnn.Option{
		{fairnn.Radius(0.8)},
		{fairnn.Radius(0.8), fairnn.Algorithm(fairnn.Filter), fairnn.WithBeta(0.4)},
		{fairnn.Radius(0.8), fairnn.WithShards(2)},
	} {
		s, err := fairnn.NewVec(w.Points, append(opts, fairnn.WithSeed(15))...)
		if err != nil {
			panic(err)
		}
		samplers = append(samplers, s)
	}
	return samplers, &w
})

// FuzzSampleVec drives arbitrary float64 coordinates — any dimension,
// NaN, ±Inf, huge magnitudes — through Sample on the public vector
// samplers. Properties: no panic; every returned id lies within r of q
// according to Exact.
func FuzzSampleVec(f *testing.F) {
	samplers, w := fuzzVecs()
	exact := fairnn.NewVecExact(w.Points, 0.8, 1)
	enc := func(v ...float64) []byte {
		var b []byte
		for _, x := range v {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add(enc(w.Query...))
	f.Add(enc(1, 0))
	f.Add(enc(math.NaN(), 0, 0, 0, 0, 0, 0, 0))
	f.Add(enc(1e308, -1e308, 1e308, -1e308, 1e308, -1e308, 1e308, -1e308))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		q := make(fairnn.Vec, 0, len(raw)/8)
		for i := 0; i+8 <= len(raw); i += 8 {
			q = append(q, math.Float64frombits(binary.LittleEndian.Uint64(raw[i:])))
		}
		ball := exact.Ball(q, nil)
		for _, s := range samplers {
			if id, ok := s.Sample(q, nil); ok && !slices.Contains(ball, id) {
				t.Fatalf("Sample(%v) = %d, outside the exact ball", q, id)
			}
		}
	})
}
