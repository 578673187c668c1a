package core

// The pooled-scratch footprint gauge behind scripts/bench.sh: it measures
// the bytes an index pins between queries after a wide concurrent burst,
// at n/4 and at n indexed points, and prints machine-parseable FOOTPRINT
// lines that the bench script folds into its JSON snapshot. It doubles as
// a regression test for the o(n) scratch contract: the retained bytes
// must not grow with n.
//
// Knobs (env): FAIRNN_FOOTPRINT_N (indexed points, default 65536 so the
// regular test run stays light; bench.sh sets 1000000) and
// FAIRNN_FOOTPRINT_QUERIERS (burst width, default 64).

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"fairnn/internal/lsh"
)

func envInt(name string, def int) int {
	if s := os.Getenv(name); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return def
}

// TestPooledScratchFootprintGauge builds the Section 4 structure at
// gauge scale, populates exactly `queriers` pooled queriers through real
// bulk queries (see burstScratch — the deterministic equivalent of a
// `queriers`-goroutine burst), and reports the retained footprint at n/4
// and at n points. Quadrupling n must leave it essentially unchanged: an
// O(n) memo would quadruple it.
func TestPooledScratchFootprintGauge(t *testing.T) {
	n := envInt("FAIRNN_FOOTPRINT_N", 65536)
	queriers := envInt("FAIRNN_FOOTPRINT_QUERIERS", 64)
	measure := func(n int) int {
		bytes := retainedAfterBurst(t, n, queriers)
		fmt.Printf("FOOTPRINT n=%d queriers=%d retained_bytes=%d per_querier_bytes=%d\n",
			n, queriers, bytes, bytes/queriers)
		return bytes
	}
	small, large := measure(n/4), measure(n)
	if 4*large > 5*small {
		t.Fatalf("retained scratch grew with n after a %d-querier burst: %d B at n = %d, %d B at n = %d; want <= 1.25x",
			queriers, small, n/4, large, n)
	}
}

// BenchmarkNearCached isolates the memo lookup on the rejection loop's
// hot path: repeated nearCached hits on one querier. The first visit per
// id scores the distance; steady state is all cache hits.
func BenchmarkNearCached(b *testing.B) {
	const n = 4096
	d, err := NewIndependent[int](intSpace(), chunkFamily{width: 64}, lsh.Params{K: 1, L: 4}, lineDataset(n), 40, IndependentOptions{}, 283)
	if err != nil {
		b.Fatal(err)
	}
	qr := d.base.getQuerier()
	defer d.base.putQuerier(qr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.base.nearCached(0, qr, int32(i%256), nil)
	}
}
