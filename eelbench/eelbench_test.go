package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// short is a quick run: one set-up round and a handful of operations.
func short(workload string, seed int64, trace bool, dir string) options {
	return options{
		workload:    workload,
		seed:        seed,
		trace:       trace,
		traceOut:    filepath.Join(dir, workload+".json"),
		minOps:      6,
		setupRounds: 1,
	}
}

// refusedSeeds are the known refusals: at 60 routines, progen's
// default-config seeds 194, 312 and 418 have an indirect transfer
// through a register the editor reserves, so the editor refuses them.
var refusedSeeds = []int64{194, 312, 418}

// TestRefusedInputCountsAsFailure pins that an operation the editor
// refuses counts against the attempts, not dropped.
func TestRefusedInputCountsAsFailure(t *testing.T) {
	orig, raw, err := generate(editConfig(refusedSeeds[0]))
	if err != nil {
		t.Fatal(err)
	}
	var p editPhase
	p.step(orig, raw, true, nil)
	if p.log.attempted != 1 || p.log.failed != 1 || p.wrong != 0 || p.ledgerOK != 0 {
		t.Fatalf("attempted %d failed %d wrong %d ledger %d; want 1 1 0 0",
			p.log.attempted, p.log.failed, p.wrong, p.ledgerOK)
	}
	if got := p.log.percentileMS(95); got != 0 {
		t.Fatalf("a refused operation's latency %g ms entered the percentiles", got)
	}
}

// TestUsableRejectsRefusedInputs checks that the input streams pass
// over every known refusal, and that the editor accepts what they
// draw.
func TestUsableRejectsRefusedInputs(t *testing.T) {
	for _, s := range refusedSeeds {
		f, raw, err := generate(editConfig(s))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := edit(raw, nil); err != nil && usable(f) {
			t.Errorf("progen seed %d: refused by the editor but usable: %v", s, err)
		}
	}
	in := editInputs(1, streamEdit)
	for i := 0; i < 20; i++ {
		_, raw, err := in.draw()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := edit(raw, nil); err != nil {
			t.Fatalf("input %d: %v", i, err)
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the results must match.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// checkNames requires res to carry exactly the metrics in want.
func checkNames(t *testing.T, label string, res *result, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json lists %d", label, len(res.Metrics), len(want))
	}
	for _, w := range want {
		m, ok := res.Metrics[w.Name]
		if !ok || m.Unit != w.Unit {
			t.Errorf("%s: metric %s = %+v, want unit %s", label, w.Name, m, w.Unit)
		}
	}
}

// TestExactRepeat runs every workload twice with one seed, untraced
// and traced: the deterministic metrics must repeat bit for bit, and
// every metric BENCHMARK.json names must be reported with its unit.
func TestExactRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload four times")
	}
	spec := loadSpec(t)
	exact := map[string][]string{
		"edit-stream":  {"edit_text_ratio", "edit_insts_ratio", "pipeline.routines", "qpt.counters", "spawn.decodes"},
		"serve-repeat": {"edit_text_ratio", "edit_insts_ratio"},
		"run-hot":      {"edit_text_ratio", "edit_insts_ratio", "sim.insts"},
	}
	dir := t.TempDir()
	for _, w := range spec.Workloads {
		var got [2]map[string]float64
		for i := range got {
			got[i] = map[string]float64{}
			for _, trace := range []bool{false, true} {
				res, err := workloads[w.Name](short(w.Name, 1, trace, dir))
				if err != nil {
					t.Fatalf("%s: %v", w.Name, err)
				}
				if !res.Correct || res.Attempted < 6 {
					t.Fatalf("%s: correct %v attempted %d", w.Name, res.Correct, res.Attempted)
				}
				if trace {
					checkNames(t, w.Name+" traced", res, spec.PerLayer)
				} else {
					checkNames(t, w.Name, res, spec.EndToEnd)
				}
				for name, m := range res.Metrics {
					got[i][name] = m.Value
				}
			}
		}
		for _, name := range exact[w.Name] {
			a, b := got[0][name], got[1][name]
			if a != b || a == 0 {
				t.Errorf("%s: %s is %v then %v; want one non-zero value", w.Name, name, a, b)
			}
		}
	}
}

// TestSeedsGiveDisjointInputs checks that another benchmark seed
// yields another corpus, and that each use of a seed draws its own.
func TestSeedsGiveDisjointInputs(t *testing.T) {
	seen := map[string]int64{}
	for _, seed := range []int64{1, 2} {
		for _, stream := range []int{streamEdit, streamWarm, streamServe, streamHot} {
			s := inputSeed(seed, stream, 0)
			_, raw, err := generate(editConfig(s))
			if err != nil {
				t.Fatal(err)
			}
			if prev, dup := seen[string(raw)]; dup {
				t.Fatalf("progen seeds %d and %d gave the same program", prev, s)
			}
			seen[string(raw)] = s
		}
	}
	a, _, _ := generate(editConfig(inputSeed(1, streamEdit, 0)))
	b, _, _ := generate(editConfig(inputSeed(1, streamEdit, 0)))
	if !bytes.Equal(a.Text().Data, b.Text().Data) {
		t.Fatal("one seed gave two different programs")
	}
}

// TestQuartilesMatchPython pins the steadiness summary to Python's
// statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
