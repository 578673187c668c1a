package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"strconv"
	"sync"
	"time"

	"fairnn"
	"fairnn/internal/core"
	"fairnn/internal/lsh"
	"fairnn/internal/rng"
	"fairnn/internal/servefix"
	"fairnn/internal/shard"
	"fairnn/internal/wire"
)

// The served workload: a healthy loopback fleet of two wire.Server
// shards over the servefix line spec (the integers 0..n-1 under absolute
// distance), behind shard.Connect, driven closed loop by the
// benchmark's clients over one connection per shard.
const (
	servedN         = 100_000
	servedShards    = 2
	servedRadius    = 40
	servedFleetSeed = 0x5e7d
	servedWarmup    = 50
	// twinQueries is how many queries the wire-overhead comparison runs
	// one at a time on the fleet and on its in-process twin.
	twinQueries = 200
	// armProbeQueries is how many seeded queries the shard arm probe
	// runs on each shard structure.
	armProbeQueries = 256
	// servedChiDrawsPerCell is the uniformity check's draws per point.
	servedChiDrawsPerCell = 5
)

func servedSpec() servefix.Spec {
	return servefix.Spec{Dataset: "line", N: servedN, Shards: servedShards, Seed: servedFleetSeed, Radius: servedRadius}
}

// fleet is a running loopback fleet and the Connect sampler over it.
type fleet struct {
	idx   []*core.Independent[int] // the servers' shard structures
	srvs  []*wire.Server[int]
	sock  *sockCounter
	addrs []string
	s     *shard.Sharded[int]
	wg    sync.WaitGroup
}

// startFleet builds every shard, serves each on its own loopback
// listener and connects a sampler. With reg non-nil the servers and the
// client record into it.
func startFleet(reg *fairnn.Registry) (*fleet, error) {
	sp := servedSpec()
	f := &fleet{sock: &sockCounter{}}
	for j := 0; j < sp.Shards; j++ {
		d, meta, err := servefix.BuildLineShard(sp, j)
		if err != nil {
			f.close()
			return nil, err
		}
		srv := wire.NewServer[int](d, wire.IntCodec{}, meta, nil)
		srv.Observe(reg)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, err
		}
		f.idx = append(f.idx, d)
		f.srvs = append(f.srvs, srv)
		f.addrs = append(f.addrs, ln.Addr().String())
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			_ = srv.Serve(&countingListener{Listener: ln, c: f.sock}) // returns once Close stops it
		}()
	}
	s, err := f.connect(reg)
	if err != nil {
		f.close()
		return nil, err
	}
	f.s = s
	return f, nil
}

// connect dials the fleet: one connection per shard.
func (f *fleet) connect(reg *fairnn.Registry) (*shard.Sharded[int], error) {
	return shard.Connect[int](wire.IntCodec{}, f.addrs, shard.RemoteConfig{
		Partitioner: servedSpec().Partitioner(),
		DialTimeout: 2 * time.Second,
		Obs:         reg,
	})
}

// close stops the client and the servers and waits for every Serve loop.
func (f *fleet) close() {
	if f.s != nil {
		f.s.Close()
	}
	for _, srv := range f.srvs {
		srv.Close()
	}
	f.wg.Wait()
}

// servedOp is one Sample on s for a query point drawn from r; with acc
// non-nil it also collects QueryStats.
func servedOp(s *shard.Sharded[int], acc []opStats) opFunc {
	return func(c int, r *rand.Rand) outcome {
		q := r.IntN(servedN)
		var st *core.QueryStats
		if acc != nil {
			st = &core.QueryStats{}
		}
		o := outcome{start: time.Now()}
		id, err := s.SampleContext(context.Background(), q, st)
		o.end = time.Now()
		o.failed, o.err = checkServed(q, id, err)
		if acc != nil {
			acc[c].add(st, 1, boolInt(err == nil))
		}
		return o
	}
}

// checkServed classifies one served answer: a far point or an untyped
// error is a violation; a no-sample or a typed shard error is a failed
// op (every query's ball holds at least radius+1 points).
func checkServed(q int, id int32, err error) (failed bool, violation error) {
	switch {
	case err == nil:
		if d := int(id) - q; d > servedRadius || d < -servedRadius {
			return false, fmt.Errorf("far answer: point %d for query %d (r=%d)", id, q, servedRadius)
		}
		return false, nil
	case errors.Is(err, core.ErrNoSample), errors.Is(err, shard.ErrDegraded):
		return true, nil
	}
	return true, fmt.Errorf("untyped error for query %d: %w", q, err)
}

func runServed(cfg runConfig) (*report, error) {
	var reg *fairnn.Registry
	if cfg.trace {
		reg = fairnn.NewRegistry()
	}
	var setup, mb []float64
	var fl *fleet
	for i := 0; i < servedSetupRounds; i++ {
		if fl != nil {
			fl.close()
		}
		secs, heap, keep, err := measureBuild(func() (any, error) { return startFleet(reg) })
		if err != nil {
			return nil, err
		}
		setup, mb, fl = append(setup, secs), append(mb, heap), keep.(*fleet)
	}
	defer fl.close()
	fmt.Printf("setup: line n=%d, %d shards at %v, r=%d, %d clients closed loop\n", servedN, servedShards, fl.addrs, servedRadius, clients)

	warm, wr := servedOp(fl.s, nil), clientRand(cfg.seed, "warmup", 0)
	for range servedWarmup {
		warm(0, wr)
	}

	rep := &report{}
	if !cfg.trace {
		ls := closedLoop(cfg.seed, "load", clients, cfg.dur, servedOp(fl.s, nil))
		rep.record(ls)
		rep.values = e2eValues(setup, mb, ls)
	} else {
		v := newLayerValues()
		if err := traceServed(cfg, fl, reg, rep, v); err != nil {
			return nil, err
		}
		probeServedLayers(cfg.seed, fl, v)
		rep.values = v
	}

	checkServedUniform(cfg.seed, fl, rep)
	return rep, nil
}

// traceServed measures the served layers: the obs overhead on
// closed-loop throughput, a traced closed-loop phase, and the wire
// overhead against the in-process twin.
func traceServed(cfg runConfig, fl *fleet, reg *fairnn.Registry, rep *report, v map[string]float64) error {
	// The overhead comparison alternates a telemetry-free client with an
	// observed one (the servers record into reg in both). One client is
	// connected at a time, so the load never holds more than two
	// connections.
	fl.s.Close()
	fl.s = nil
	connected := func(r *fairnn.Registry) phaseFunc {
		return func(phase string, d time.Duration) loadStats {
			s, err := fl.connect(r)
			if err != nil {
				return loadStats{err: err, elapsed: d}
			}
			defer s.Close()
			return closedLoop(cfg.seed, phase, clients, d, servedOp(s, nil))
		}
	}
	plain, traced := alternate(cfg.dur/2, connected(nil), connected(reg))
	rep.record(plain)
	rep.record(traced)
	v["obs.overhead_frac"] = 1 - traced.throughput()/plain.throughput()

	s, err := fl.connect(reg)
	if err != nil {
		return err
	}
	fl.s = s
	found0 := counterValue(reg, "fairnn_draws_found_total", "shard")
	draws0 := counterValue(reg, "fairnn_draws_total", "shard")
	before := readWire(reg, fl)
	acc := make([]opStats, clients)
	ls := closedLoop(cfg.seed, "trace", clients, cfg.dur/2, servedOp(s, acc))
	rep.record(ls)
	d := readWire(reg, fl).sub(before)
	tot := sumStats(acc)
	tot.coreValues(v)
	rep.crossCheck(reg, "shard", found0, draws0, tot)

	queries := float64(ls.attempted)
	v["wire.rpcs_per_query"] = float64(d.frames) / queries
	v["wire.bytes_per_query"] = float64(d.bytes) / queries
	v["wire.rtt_us"] = d.client.meanUs()
	v["wire.server_us"] = d.server.meanUs()
	v["shard.op_ms"] = d.shard.meanUs() / 1000
	fmt.Printf("obs cross-check (wire): fairnn_client_request_seconds count %d, request frames on the sockets %d\n", d.client.n, d.frames)
	if d.client.n != d.frames {
		rep.violate("fairnn_client_request_seconds counted %d requests, the sockets carried %d", d.client.n, d.frames)
	}

	// Wire overhead: the same queries one at a time through the fleet
	// and through its in-process twin.
	twin, err := servefix.InProcLine(servedSpec(), shard.Config{})
	if err != nil {
		return err
	}
	var remote, inproc []time.Duration
	qr := clientRand(cfg.seed, "twin", 0)
	for i := 0; i < twinQueries; i++ {
		q := qr.IntN(servedN)
		for _, side := range []struct {
			s    *shard.Sharded[int]
			lats *[]time.Duration
		}{{fl.s, &remote}, {twin, &inproc}} {
			t0 := time.Now()
			id, err := side.s.SampleContext(context.Background(), q, nil)
			*side.lats = append(*side.lats, time.Since(t0))
			if _, bad := checkServed(q, id, err); bad != nil {
				rep.violate("%v", bad)
			}
		}
	}
	v["wire.overhead_ms"] = quantileMs(remote, 0.5) - quantileMs(inproc, 0.5)
	var retained int
	for _, d := range fl.idx {
		retained += d.RetainedScratchBytes()
	}
	v["core.retained_scratch_kb"] = float64(retained+fl.s.RetainedScratchBytes()) / 1024
	return nil
}

// probeServedLayers times the Section 4 layers on the servers' shard
// structures directly, for seeded queries: each query arms every shard.
func probeServedLayers(seed uint64, fl *fleet, v map[string]float64) {
	r := clientRand(seed, "probe", 0)
	queries := make([]int, armProbeQueries)
	var a armProbe
	var estRatio, recall float64
	for i := range queries {
		q := r.IntN(servedN)
		queries[i] = q
		var est float64
		var recalled int
		for _, d := range fl.idx {
			e, n := probeArm(&a, d, q, r)
			est, recalled = est+e, recalled+n
		}
		ball := float64(lineBallSize(q))
		estRatio += est / ball
		recall += float64(recalled) / ball
	}
	a.values(v, len(fl.idx))
	v["sketch.estimate_ratio"] = estRatio / float64(len(queries))
	v["lsh.recall"] = recall / float64(len(queries))

	p := fl.idx[0].Params()
	signer := lsh.NewSigner[int](servefix.LineFamily{Width: 64}, p.K*p.L, rng.New(seed))
	out := make([]uint64, signer.Size())
	v["lsh.sign_us"] = signUs(func(q int) { signer.Sign(q, out) }, queries, 200)
}

// lineBallSize is |B(q, r)| on the line 0..n-1.
func lineBallSize(q int) int {
	return min(q+servedRadius, servedN-1) - max(q-servedRadius, 0) + 1
}

// checkServedUniform draws through the fleet for a few seeded queries
// and tests the draws for uniformity over the near points the shards
// recall for the query. The line fixture's tables (chunks of width 64,
// one function per table, four tables per shard) do not recall every
// point of a radius-40 ball, so the support of the draws can be a
// strict subset of the exact ball; the check confirms the recalled
// points lie in the exact ball and prints the recall.
func checkServedUniform(seed uint64, fl *fleet, rep *report) {
	sp := servedSpec()
	part := sp.Partitioner()
	toGlobal := make([][]int32, sp.Shards)
	for i := 0; i < sp.N; i++ {
		j := part.Assign(i, sp.N, sp.Shards)
		toGlobal[j] = append(toGlobal[j], int32(i))
	}
	exact := core.NewExact(servefix.LineSpace(), sp.LinePoints(), servedRadius, 1)
	r := clientRand(seed, "chi", 0)
	for i := 0; i < chiQueries; i++ {
		q := r.IntN(servedN)
		ball := exact.Ball(q, nil)
		var support []int32
		for j, d := range fl.idx {
			local, _ := recalledNear(d, q)
			for _, id := range local {
				support = append(support, toGlobal[j][id])
			}
		}
		for _, id := range support {
			if d := int(id) - q; d > servedRadius || d < -servedRadius {
				rep.violate("served query %d: recalled point %d lies outside the exact ball", q, id)
			}
		}
		fmt.Printf("recall: served query %d recalls %d of its %d-point exact ball\n", q, len(support), len(ball))
		// Each served draw costs some 175 round trips, so the fleet gets
		// servedChiDrawsPerCell draws per cell, the textbook minimum for
		// the chi-squared approximation.
		n := servedChiDrawsPerCell * len(support)
		got := drawConcurrently(n, func(k int) []int32 { return fl.s.SampleK(q, k, nil) })
		checkUniform(rep, fmt.Sprintf("served query %d", q), support, got, n)
	}
}

// latSum is a count and a nanosecond sum read from obs histograms.
type latSum struct{ n, nanos int64 }

func (l latSum) meanUs() float64 {
	if l.n == 0 {
		return 0
	}
	return float64(l.nanos) / float64(l.n) / 1000
}

// wireReading is a snapshot of the served layers' counters.
type wireReading struct {
	client, server, shard latSum
	frames, bytes         int64
}

func (w wireReading) sub(b wireReading) wireReading {
	return wireReading{
		client: latSum{w.client.n - b.client.n, w.client.nanos - b.client.nanos},
		server: latSum{w.server.n - b.server.n, w.server.nanos - b.server.nanos},
		shard:  latSum{w.shard.n - b.shard.n, w.shard.nanos - b.shard.nanos},
		frames: w.frames - b.frames,
		bytes:  w.bytes - b.bytes,
	}
}

// planOps are the per-query request/response operations of the
// protocol: arm, segment report and pick.
var planOps = []string{"arm", "segment", "pick"}

// readWire reads the client, server and shard-seam latency histograms
// of every shard and op, and the benchmark's own socket counters.
func readWire(reg *fairnn.Registry, fl *fleet) wireReading {
	var w wireReading
	read := func(dst *latSum, name, shard, op string) {
		h := reg.Histogram(name, fairnn.MetricLabels("shard", shard, "op", op), "")
		dst.n += int64(h.Count())
		dst.nanos += h.Sum()
	}
	for j := range fl.idx {
		js := strconv.Itoa(j)
		for _, op := range planOps {
			read(&w.client, "fairnn_client_request_seconds", js, op)
			read(&w.server, "fairnn_server_request_seconds", js, op)
			read(&w.shard, "fairnn_shard_op_latency_seconds", js, op)
		}
	}
	w.frames, w.bytes = fl.sock.frames.Load(), fl.sock.bytes.Load()
	return w
}
