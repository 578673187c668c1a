package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"time"
)

// clients is the load concurrency of every workload: one process, at
// most two client goroutines.
const clients = 2

// outcome is one finished op: when the call started and returned (the
// output check runs after end and is not timed), and whether it failed.
// err is a correctness violation; it stops the load.
type outcome struct {
	start, end time.Time
	failed     bool
	err        error
}

// opFunc runs one op on client c; r is the client's own stream.
type opFunc func(c int, r *rand.Rand) outcome

// loadStats aggregates one load phase.
type loadStats struct {
	lats      []time.Duration // per op
	attempted int
	failed    int
	elapsed   time.Duration
	err       error
}

func (s loadStats) throughput() float64 { return float64(s.attempted) / s.elapsed.Seconds() }

// clientRand returns client c's stream for a phase of the run.
func clientRand(seed uint64, phase string, c int) *rand.Rand {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(phase); i++ {
		h = (h ^ uint64(phase[i])) * 1099511628211
	}
	return rand.New(rand.NewPCG(seed, h+uint64(c)))
}

// closedLoop runs fn on the given number of clients, each issuing its
// next op as soon as the previous one returns, for d.
func closedLoop(seed uint64, phase string, nclients int, d time.Duration, fn opFunc) loadStats {
	per := make([]loadStats, nclients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < nclients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := clientRand(seed, phase, c)
			st := &per[c]
			for time.Now().Before(deadline) {
				o := fn(c, r)
				st.attempted++
				st.lats = append(st.lats, o.end.Sub(o.start))
				if o.failed {
					st.failed++
				}
				if o.err != nil {
					st.err = o.err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return merge(per, time.Since(start))
}

func merge(per []loadStats, elapsed time.Duration) loadStats {
	out := loadStats{elapsed: elapsed}
	for _, s := range per {
		out.lats = append(out.lats, s.lats...)
		out.attempted += s.attempted
		out.failed += s.failed
		if out.err == nil {
			out.err = s.err
		}
	}
	return out
}

// quantileMs returns the q-quantile of ds in milliseconds (nearest rank
// on the sorted values).
func quantileMs(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return ms(s[min(max(i, 0), len(s)-1)])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// setupRounds is how many times a run builds its index; the reported
// setup_s and index_mb are the medians. servedSetupRounds is the same
// for the served fleet, which takes some 40 ms to stand up, so more
// rounds steady its median at no real cost.
const (
	setupRounds       = 3
	servedSetupRounds = 11
)

// measureBuild runs build, returning its wall time and the growth of the
// live heap across it (after a forced GC on both sides). keep must hold
// everything the build produced until the second reading.
func measureBuild(build func() (keep any, err error)) (secs, mb float64, keep any, err error) {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	before := m.HeapAlloc
	t0 := time.Now()
	keep, err = build()
	secs = time.Since(t0).Seconds()
	if err != nil {
		return 0, 0, nil, err
	}
	runtime.GC()
	runtime.ReadMemStats(&m)
	runtime.KeepAlive(keep)
	mb = (float64(m.HeapAlloc) - float64(before)) / (1 << 20)
	return secs, mb, keep, nil
}

// e2eValues assembles the end-to-end metrics of one load phase, each
// over all of its ops, and the medians over the builds. The tail figure
// is the p90: a run holds a few thousand ops, so its p99 is set by a few
// dozen of them, and on a shared box one short stall of the host lands
// on that many; the p99 swung between runs of the same code where the
// p90 held.
func e2eValues(setup, mb []float64, ls loadStats) map[string]float64 {
	fmt.Printf("latency: %d samples; setup: %d builds\n", len(ls.lats), len(setup))
	fmt.Printf("p99 over the whole phase: %.4f ms\n", quantileMs(ls.lats, 0.99))
	return map[string]float64{
		"setup_s":          median(setup),
		"index_mb":         median(mb),
		"latency_p50_ms":   quantileMs(ls.lats, 0.5),
		"latency_p90_ms":   quantileMs(ls.lats, 0.9),
		"throughput_ops_s": ls.throughput(),
	}
}

// phaseFunc runs one load phase of duration d; phase names its streams.
type phaseFunc func(phase string, d time.Duration) loadStats

// closedPhase runs fn closed loop on every client.
func closedPhase(seed uint64, fn opFunc) phaseFunc {
	return func(phase string, d time.Duration) loadStats {
		return closedLoop(seed, phase, clients, d, fn)
	}
}

// alternate splits total into interleaved slices of a plain and a
// traced phase, so both see the same drift in the box's speed, and
// returns each side's merged stats.
func alternate(total time.Duration, plainRun, tracedRun phaseFunc) (plain, traced loadStats) {
	const pairs = 4
	slice := total / (2 * pairs)
	var ps, ts []loadStats
	for i := 0; i < pairs; i++ {
		if i%2 == 0 {
			ps = append(ps, plainRun(fmt.Sprintf("plain%d", i), slice))
			ts = append(ts, tracedRun(fmt.Sprintf("traced%d", i), slice))
		} else {
			ts = append(ts, tracedRun(fmt.Sprintf("traced%d", i), slice))
			ps = append(ps, plainRun(fmt.Sprintf("plain%d", i), slice))
		}
	}
	return mergePhases(ps), mergePhases(ts)
}

func mergePhases(phases []loadStats) loadStats {
	var el time.Duration
	for _, p := range phases {
		el += p.elapsed
	}
	return merge(phases, el)
}
