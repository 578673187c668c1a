// Command perfbench is the repository benchmark. For one workload it
// generates the inputs from a seed, builds the index (or a loopback
// server fleet), drives the samplers through their public entry points
// for a fixed time, checks every answer, and prints the metrics as one
// JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload set-sample --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1
// it reports the per-layer metrics instead (metrics.go lists them with
// the end-to-end metric each one should move). The benchmark adds no
// instrumentation to the program: it times calls into each layer's
// exported entry points and reads QueryStats and the obs instruments
// the library already exports.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed  uint64
	dur   time.Duration
	trace bool
}

// report is a workload's outcome: op counts, the metric values (keyed
// by the names in e2eMetrics or layerMetrics) and every correctness
// violation found.
type report struct {
	attempted, failed int
	values            map[string]float64
	violations        []string
}

func (r *report) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig) (*report, error){
	"set-sample": runSet,
	"vec-filter": runVec,
	"served":     runServed,
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 10, "measured duration of the load phase")
		trace   = flag.Int("trace", 0, "1 reports the per-layer metrics instead of the end-to-end ones")
	)
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg := runConfig{seed: *seed, dur: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1}

	fmt.Printf("box: %s\n", fingerprint())
	fmt.Printf("workload: %s seed=%d seconds=%g trace=%v\n", *name, cfg.seed, *seconds, cfg.trace)
	rep, err := wl(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	names := e2eMetrics
	if cfg.trace {
		names = layerMetrics
	}
	res := result{Correct: len(rep.violations) == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	for _, m := range names {
		v, ok := rep.values[m.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not report %s\n", *name, m.name)
			return 1
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		fmt.Printf("metric %-28s %14.6g %-6s  %s\n", m.name, v, m.unit, m.moves)
	}
	if rep.attempted < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %s attempted no operations\n", *name)
		return 1
	}
	for _, v := range rep.violations {
		fmt.Printf("VIOLATION: %s\n", v)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	out := make([]string, 0, len(workloads))
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
