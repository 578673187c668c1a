package fairnn_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"fairnn"
	"fairnn/internal/dataset"
)

// Golden same-seed stream digests: the regression oracle that makes
// deleting code safe. For every pinned construction the test replays a
// fixed query script — repeated Sample calls and SampleK(q, 100) — and
// hashes the returned ids together with every QueryStats counter of every
// call. Any change to a sample stream, to the cost accounting (score
// evaluations, memo probes and hits, rounds, estimates), or to the
// sharded per-shard records changes a digest.
//
// Regenerate (only for a deliberate, chi-squared-gated stream change):
//
//	go test -run TestGoldenStreams -update-golden .

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_streams.txt from the current code")

const goldenPath = "testdata/golden_streams.txt"

// goldenCase is one pinned construction plus its query script.
type goldenCase struct {
	name string
	run  func(t *testing.T) goldenParts
}

// goldenParts is the replayed transcript of one case, split so a failure
// names which part moved.
type goldenParts struct {
	sample, sampleK, stats strings.Builder
}

// goldenSets is a small Last.FM-like workload with its seeded query list.
var goldenSets = sync.OnceValues(func() ([]fairnn.Set, []fairnn.Set) {
	cfg := dataset.LastFMLike()
	cfg.Users = 320
	cfg.Communities = 8
	sets := dataset.Generate(cfg)
	var qs []fairnn.Set
	for _, i := range dataset.InterestingQueries(sets, 0.2, 10, 6, 3) {
		qs = append(qs, sets[i])
	}
	return sets, qs
})

// statsLine renders every QueryStats counter, floats as exact bits.
func statsLine(st *fairnn.QueryStats) string {
	est := make([]string, len(st.ShardEstimates))
	for i, e := range st.ShardEstimates {
		est[i] = fmt.Sprintf("%x", math.Float64bits(e))
	}
	return fmt.Sprintf("buckets=%d inspected=%d evals=%d batch=%d hits=%d probes=%d merged=%t rounds=%d est=%x finalK=%d filter=%d clamped=%t found=%t shardRounds=%v shardEst=%v chosen=%d lost=%v lostPts=%d cov=%x\n",
		st.BucketsScanned, st.PointsInspected, st.ScoreEvals, st.BatchScored,
		st.ScoreCacheHits, st.MemoProbes, st.CursorMerged, st.Rounds,
		math.Float64bits(st.SketchEstimate), st.FinalK, st.FilterEvals,
		st.Clamped, st.Found, st.ShardRounds, est, st.ShardChosen,
		st.Degraded.LostShards, st.Degraded.LostPoints, math.Float64bits(st.Degraded.Coverage))
}

// replay runs the fixed script: four Sample calls per query, then
// SampleK(q, 100) on the first three queries, each with a fresh
// QueryStats.
func replay[P any](s fairnn.Sampler[P], qs []P) goldenParts {
	var g goldenParts
	for qi, q := range qs {
		for rep := 0; rep < 4; rep++ {
			var st fairnn.QueryStats
			id, ok := s.Sample(q, &st)
			fmt.Fprintf(&g.sample, "%d.%d %d %t\n", qi, rep, id, ok)
			g.stats.WriteString(statsLine(&st))
		}
	}
	for qi := 0; qi < 3 && qi < len(qs); qi++ {
		var st fairnn.QueryStats
		ids := s.SampleK(qs[qi], 100, &st)
		fmt.Fprintf(&g.sampleK, "%d %v\n", qi, ids)
		g.stats.WriteString(statsLine(&st))
	}
	return g
}

func goldenCases() []goldenCase {
	setCase := func(name string, opts ...fairnn.Option) goldenCase {
		return goldenCase{name, func(t *testing.T) goldenParts {
			sets, qs := goldenSets()
			opts = append(opts, fairnn.WithSeed(17))
			s, err := fairnn.NewSet(sets, opts...)
			if err != nil {
				t.Fatal(err)
			}
			return replay(s, qs)
		}}
	}
	return []goldenCase{
		setCase("set-nnis", fairnn.Radius(0.2)),
		setCase("set-nns", fairnn.Radius(0.2), fairnn.Algorithm(fairnn.NNS)),
		setCase("set-weighted", fairnn.Radius(0.2), fairnn.Algorithm(fairnn.Weighted),
			fairnn.WithWeight(func(sim float64) float64 { return sim }, 1)),
		setCase("set-multiradius", fairnn.Algorithm(fairnn.MultiRadius), fairnn.WithRadii(0.3, 0.2)),
		setCase("set-sharded-s1", fairnn.Radius(0.2), fairnn.WithShards(1)),
		setCase("set-sharded-s4", fairnn.Radius(0.2), fairnn.WithShards(4)),
		{"vec-filter", func(t *testing.T) goldenParts {
			w := dataset.NewPlantedBall(dataset.PlantedBallConfig{
				N: 600, Dim: 32, Alpha: 0.8, Beta: 0.5, BallSize: 20, MidSize: 60, Seed: 5,
			})
			s, err := fairnn.NewVec(w.Points, fairnn.Radius(0.8), fairnn.Algorithm(fairnn.Filter),
				fairnn.WithBeta(0.5), fairnn.WithSeed(9))
			if err != nil {
				t.Fatal(err)
			}
			return replay(s, []fairnn.Vec{w.Query, w.Points[w.BallIDs[0]], w.Points[w.MidIDs[0]]})
		}},
	}
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:16])
}

// readGolden parses "case part digest" lines.
func readGolden(t *testing.T) map[string]string {
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			t.Fatalf("malformed golden line %q", line)
		}
		want[fields[0]+" "+fields[1]] = fields[2]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestGoldenStreams pins same-seed Sample ids, SampleK(q, 100) ids and
// every QueryStats counter of set NNIS, NNS, Weighted, MultiRadius, the
// Section 5 vector Filter, and the sharded sampler at S ∈ {1, 4}.
func TestGoldenStreams(t *testing.T) {
	got := map[string]string{}
	for _, c := range goldenCases() {
		g := c.run(t)
		got[c.name+" sample"] = digest(g.sample.String())
		got[c.name+" samplek"] = digest(g.sampleK.String())
		got[c.name+" stats"] = digest(g.stats.String())
	}
	if *updateGolden {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		b.WriteString("# Same-seed stream digests (see golden_test.go); regenerate with -update-golden.\n")
		for _, k := range keys {
			fmt.Fprintf(&b, "%s %s\n", k, got[k])
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t)
	for k, w := range want {
		if _, ok := got[k]; !ok {
			t.Errorf("golden entry %q has no case", k)
		} else if got[k] != w {
			t.Errorf("%s: digest %s, golden %s", k, got[k], w)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("case %q missing from %s", k, goldenPath)
		}
	}
}
