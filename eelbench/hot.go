package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"eel/internal/binfile"
	"eel/internal/progen"
	"eel/internal/telemetry"
)

const (
	// hotCorpus is the number of edited hot-loop programs run-hot
	// cycles through.
	hotCorpus = 48
	// hotInsts is the executed-instruction count each original
	// hot-loop program is sized to, so every operation is of one size
	// (the edited program executes about twice as many).
	hotInsts = 150_000
)

func hotConfig(s int64, loops int) progen.Config {
	c := progen.DefaultConfig(s)
	c.Routines = 10
	c.HotLoop = loops
	return c
}

// hotInput is one corpus program, edited during set-up.
type hotInput struct {
	orig   *binfile.File
	edited *binfile.File // nil when the editor refused the program
	first  *execution    // the set-up run of the edited program
	ref    *execution    // the original on the interpreter
}

// hotSetup edits a fresh corpus and runs each edited program once,
// which compiles its hot routines cold; set-up round r's corpus is
// its own.
func hotSetup(seed int64, r int) ([]*hotInput, time.Duration, error) {
	corpus := make([]*hotInput, hotCorpus)
	raws := make([][]byte, hotCorpus)
	in := &inputs{seed: seed, stream: streamHot + r, gen: func(s int64) (*binfile.File, []byte, error) {
		return sized(func(loops int) progen.Config { return hotConfig(s, loops) }, hotInsts)
	}}
	for i := range corpus {
		f, raw, err := in.draw()
		if err != nil {
			return nil, 0, err
		}
		corpus[i], raws[i] = &hotInput{orig: f}, raw
	}
	t0 := time.Now()
	for i, in := range corpus {
		ed, err := edit(raws[i], nil)
		if err != nil {
			continue // refused: every operation on it fails and is counted
		}
		if in.edited, err = binfile.Read(ed.image); err != nil {
			return nil, 0, err
		}
		if in.first, err = run(in.edited, "routine", nil); err != nil {
			return nil, 0, fmt.Errorf("set-up run: %w", err)
		}
	}
	return corpus, time.Since(t0), nil
}

// hotPhase accumulates one timed phase of run-hot.
type hotPhase struct {
	log      opLog
	wrong    int
	wall     time.Duration
	simInsts uint64
	simNS    int64

	// Over the phase's first minOps operations, which repeat exactly.
	ledgerOK    int
	ledgerInsts uint64

	k       countersSum
	counted int
}

// countersSum adds up the emulator's per-run activity counters.
type countersSum struct {
	compiled, promotions, deopts     uint64
	chainHits, chainMisses           uint64
	icHits, icMisses, victims, trace uint64
}

func (s *countersSum) add(x *execution) {
	s.compiled += x.k.RoutinesCompiled
	s.promotions += x.k.TierPromotions
	s.deopts += x.k.RoutineDeopts
	s.chainHits += x.k.ChainHits
	s.chainMisses += x.k.ChainMisses
	s.icHits += x.k.ICHits
	s.icMisses += x.k.ICMisses
	s.victims += x.k.VictimHits
	s.trace += x.k.Traces
}

// hotRun runs edited corpus programs round robin, each to halt on the
// tools' default engine, until the phase is long enough.
func hotRun(o options, corpus []*hotInput, clock *layerClock) *hotPhase {
	p := &hotPhase{}
	runtime.GC()
	start := time.Now()
	for i := 0; !phaseDone(o, time.Since(start), i); i++ {
		in := corpus[i%len(corpus)]
		if in.edited == nil {
			p.log.add(0, false)
			continue
		}
		var x *execution
		d, err := clock.op(func() (err error) {
			x, err = run(in.edited, "routine", clock)
			return err
		})
		if err != nil || !x.same(in.ref) || x.insts != in.first.insts {
			p.wrong++
			fmt.Fprintf(os.Stderr, "run-hot: operation %d differs from the reference (%v)\n", i, err)
			p.log.add(d, false)
			continue
		}
		p.log.add(d, true)
		p.simInsts += x.insts
		p.simNS += x.runNS
		p.k.add(x)
		p.counted++
		if i < o.minOps {
			p.ledgerOK++
			p.ledgerInsts += x.insts
		}
	}
	p.wall = time.Since(start)
	return p
}

// runHot is the run-hot workload: one in-process caller runs edited
// hot-loop programs on the emulator.  Load, analysis and editing
// happen only in set-up, so the emulator does all the timed work.
func runHot(o options) (*result, error) {
	var setup []float64
	var corpus []*hotInput
	for r := 0; r < o.rounds(); r++ {
		c, d, err := hotSetup(o.seed, r)
		if err != nil {
			return nil, err
		}
		setup = append(setup, d.Seconds())
		corpus = c
	}
	// Reference behaviour on the interpreter, outside set-up and timing.
	correct := true
	var origText, editText int64
	var origInsts, editInsts uint64
	origs := make([]*binfile.File, len(corpus))
	for i, in := range corpus {
		origs[i] = in.orig
	}
	refs, err := references(origs)
	if err != nil {
		return nil, err
	}
	for i, in := range corpus {
		ref := refs[i]
		in.ref = ref
		if in.edited == nil {
			continue
		}
		if !in.first.same(ref) {
			correct = false
		}
		origText += int64(textBytes(in.orig))
		editText += int64(textBytes(in.edited))
		origInsts += ref.insts
		editInsts += in.first.insts
	}

	if o.trace {
		return hotTraced(o, corpus, correct)
	}
	resetPeakRSS()
	p := hotRun(o, corpus, nil)
	m := p.log.endToEnd(p.wall, peakRSSMiB())
	m["setup_s"] = metric{median(setup), "s"}
	m["sim_minsts_per_s"] = metric{ratio(float64(p.simInsts), float64(p.simNS)) * 1e3, "M/s"}
	m["edit_text_ratio"] = metric{ratio(float64(editText), float64(origText)), "ratio"}
	m["edit_insts_ratio"] = metric{ratio(float64(editInsts), float64(origInsts)), "ratio"}
	return &result{Correct: correct && p.wrong == 0, Attempted: p.log.attempted, Failed: p.log.failed, Metrics: m}, nil
}

// hotTraced runs half the phase untraced and half traced and reports
// the traced half's per-layer metrics.
func hotTraced(o options, corpus []*hotInput, correct bool) (*result, error) {
	o.phase /= 2
	plain := hotRun(o, corpus, nil)
	tr := telemetry.NewTracer()
	clock := newLayerClock(tr)
	p := hotRun(o, corpus, clock)
	if err := writeTrace(tr, o.traceOut); err != nil {
		return nil, err
	}
	v := map[string]float64{}
	clockLayers(v, clock)
	n := float64(p.counted)
	v["sim.insts"] = ratio(float64(p.ledgerInsts), float64(p.ledgerOK))
	v["sim.routines_compiled"] = ratio(float64(p.k.compiled), n)
	v["sim.tier_promotions"] = ratio(float64(p.k.promotions), n)
	v["sim.routine_deopts"] = ratio(float64(p.k.deopts), n)
	v["sim.chain_hit_frac"] = ratio(float64(p.k.chainHits), float64(p.k.chainHits+p.k.chainMisses))
	v["sim.ic_hit_frac"] = ratio(float64(p.k.icHits), float64(p.k.icHits+p.k.icMisses))
	v["sim.victim_hits"] = ratio(float64(p.k.victims), n)
	v["sim.traces"] = ratio(float64(p.k.trace), n)
	v["trace.untraced_ops_per_s"] = ratio(float64(plain.log.attempted-plain.log.failed), plain.wall.Seconds())
	v["trace.traced_ops_per_s"] = ratio(float64(p.log.attempted-p.log.failed), p.wall.Seconds())
	return &result{
		Correct:   correct && plain.wrong == 0 && p.wrong == 0,
		Attempted: plain.log.attempted + p.log.attempted,
		Failed:    plain.log.failed + p.log.failed,
		Metrics:   layerMetrics(v),
	}, nil
}
