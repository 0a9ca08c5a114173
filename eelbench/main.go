// Command eelbench is the repository's end-to-end benchmark.  It
// drives three closed-loop workloads in one process each — edit-stream
// (the instrument path on a stream of distinct binaries), serve-repeat
// (an in-process eeld server with one client over a small corpus),
// and run-hot (the emulator on edited hot-loop programs) — checks
// every timed operation's output, and prints one JSON result line:
//
//	go build -o eelbench . && ./eelbench --workload edit-stream --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the run is split into an untraced and a traced half, the
// traced half attributes each operation's time and allocations to the
// layers it calls, and the result carries the per-layer metrics (the
// spans are written as Chrome-trace JSON to --trace-out).  --runs N
// repeats the run N times with consecutive seeds in child processes
// and prints each metric's median, quartiles and spread.  See
// README.md for the workloads, metrics and measured spreads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options configures one run.
type options struct {
	workload string
	seed     int64
	// phase is the timed phase's length; a traced run spends it
	// twice, untraced then traced.
	phase time.Duration
	trace bool
	// traceOut receives the traced half's spans.
	traceOut string
	// minOps is the least number of operations a timed phase runs,
	// whatever its length: enough for p95 to have ten samples beyond
	// it, and the fixed prefix the deterministic metrics are taken
	// over.
	minOps int
	// setupRounds is how many times set-up is repeated (setup_s is
	// their median).
	setupRounds int
}

// rounds is how many set-up rounds the run makes: a traced run
// reports no setup_s, so one is enough there.
func (o options) rounds() int {
	if o.trace {
		return 1
	}
	return o.setupRounds
}

var workloads = map[string]func(options) (*result, error){
	"edit-stream":  runEditStream,
	"serve-repeat": runServeRepeat,
	"run-hot":      runHot,
}

func main() {
	var (
		o       options
		seconds float64
		trace   int
		runs    int
	)
	flag.StringVar(&o.workload, "workload", "", "edit-stream, serve-repeat or run-hot")
	flag.Int64Var(&o.seed, "seed", 1, "input seed (the same seed gives the same inputs)")
	flag.Float64Var(&seconds, "seconds", 20, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a traced run")
	flag.StringVar(&o.traceOut, "trace-out", "", "Chrome-trace JSON output of a traced run (default .bench_build/trace/<workload>-<seed>.json)")
	flag.IntVar(&runs, "runs", 0, "steadiness mode: run N times with seeds seed..seed+N-1 and summarize")
	flag.Parse()

	o.trace = trace == 1
	o.minOps, o.setupRounds = 200, 3
	o.phase = time.Duration(seconds * float64(time.Second))
	run, ok := workloads[o.workload]
	if !ok || seconds < 0 {
		fmt.Fprintf(os.Stderr, "eelbench: unknown workload %q or bad settings\n", o.workload)
		flag.Usage()
		os.Exit(2)
	}
	if runs > 0 {
		if err := steady(o, seconds, trace, runs); err != nil {
			fmt.Fprintln(os.Stderr, "eelbench:", err)
			os.Exit(1)
		}
		return
	}
	if o.trace && o.traceOut == "" {
		o.traceOut = filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-%d.json", o.workload, o.seed))
	}

	start := time.Now()
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "eelbench:", err)
		os.Exit(1)
	}
	printHost(os.Stderr, start)
	fmt.Fprintf(os.Stderr, "inputs passed over as not usable: %d\n", skippedInputs)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "eelbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
