package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// steady runs the workload n times, each in its own process with the
// next seed, and prints every metric's median, quartiles and spread —
// the figures the benchmark's bounds are set from.  Quartiles follow
// Python's statistics.quantiles(values, n=4).
func steady(o options, seconds float64, trace, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < n; i++ {
		seed := o.seed + int64(i)
		cmd := exec.Command(self, "--workload", o.workload, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return fmt.Errorf("seed %d: result line: %w", seed, err)
		}
		fmt.Printf("seed %d: correct=%v attempted=%d failed=%d\n", seed, res.Correct, res.Attempted, res.Failed)
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-28s %-6s %12s %12s %12s %12s %12s %9s %9s\n",
		"metric", "unit", "median", "q1", "q3", "min", "max", "iqr/med", "range/med")
	for _, name := range names {
		v := values[name]
		q1, q2, q3 := quartiles(v)
		lo, hi := minMax(v)
		fmt.Printf("%-28s %-6s %12.6g %12.6g %12.6g %12.6g %12.6g %9.4f %9.4f\n",
			name, units[name], q2, q1, q3, lo, hi, ratio(q3-q1, q2), ratio(hi-lo, q2))
	}
	return nil
}

// quartiles matches Python's statistics.quantiles(data, n=4) with its
// default exclusive method.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = min(max(j, 1), ld-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}
