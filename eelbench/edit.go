package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"eel/internal/binfile"
	"eel/internal/telemetry"
)

// warmEdits is the number of distinct binaries one edit-stream set-up
// round edits before timing starts.
const warmEdits = 10

// editPhase accumulates one timed phase of edit-stream.  Every
// operation edits a distinct binary; generating it beforehand and
// checking the edited image afterwards are outside the operation's
// time, so the phase's length is the sum of operation times.
type editPhase struct {
	log   opLog
	wrong int // edited images whose behaviour differed from the original's

	// Emulation during the output checks (both images of every op).
	simInsts uint64
	simNS    int64

	// Over the phase's first minOps operations only, so they repeat
	// exactly for a seed whatever the host's speed.
	ledgerOK                        int
	origText, editText              int64
	origInsts, editInsts            uint64
	decodes, interned               uint64
	routines, counters, sites, spil int
}

// step runs one edit-stream operation on the program orig, whose
// container bytes are raw; ledger says whether it counts towards the
// deterministic metrics.
func (p *editPhase) step(orig *binfile.File, raw []byte, ledger bool, clock *layerClock) {
	var ed *edited
	d, err := clock.op(func() (err error) {
		ed, err = edit(raw, clock)
		return err
	})
	if err != nil {
		// Refused by the editor: counted against the attempts, never
		// replaced by another input.
		p.log.add(d, false)
		return
	}
	ref, got, text, err := p.check(orig, ed.image)
	if err != nil {
		p.wrong++
		fmt.Fprintf(os.Stderr, "edit-stream: operation %d: %v\n", p.log.attempted, err)
		p.log.add(d, false)
		return
	}
	p.log.add(d, true)
	if ledger {
		p.ledgerOK++
		p.origText += int64(textBytes(orig))
		p.editText += int64(text)
		p.origInsts += ref.insts
		p.editInsts += got.insts
		p.decodes += ed.decodes
		p.interned += ed.interned
		p.routines += ed.routines
		p.counters += ed.counters
		p.sites += ed.sites
		p.spil += ed.spilled
	}
}

// check runs the original and the edited image on the default engine
// and requires the same exit code and output.  It returns both runs
// and the edited text's size.
func (p *editPhase) check(orig *binfile.File, image []byte) (ref, got *execution, text int, err error) {
	f, err := binfile.Read(image)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("edited image does not parse: %w", err)
	}
	if ref, err = run(orig, "routine", nil); err != nil {
		return nil, nil, 0, fmt.Errorf("original: %w", err)
	}
	if got, err = run(f, "routine", nil); err != nil {
		return nil, nil, 0, fmt.Errorf("edited: %w", err)
	}
	p.simInsts += ref.insts + got.insts
	p.simNS += ref.runNS + got.runNS
	if !ref.same(got) {
		return nil, nil, 0, fmt.Errorf("edited exit %d, output %q; original exit %d, output %q",
			got.exit, got.output, ref.exit, ref.output)
	}
	return ref, got, textBytes(f), nil
}

// editInputs is the stream of edit-stream programs.
func editInputs(seed int64, stream int) *inputs {
	return &inputs{seed: seed, stream: stream, gen: func(s int64) (*binfile.File, []byte, error) {
		return generate(editConfig(s))
	}}
}

// editRun runs one edit-stream phase until it is long enough.
func editRun(o options, clock *layerClock) (*editPhase, error) {
	p := &editPhase{}
	in := editInputs(o.seed, streamEdit)
	runtime.GC()
	for i := 0; !phaseDone(o, p.log.busy, i); i++ {
		orig, raw, err := in.draw()
		if err != nil {
			return nil, err
		}
		p.step(orig, raw, i < o.minOps, clock)
	}
	return p, nil
}

// runEditStream is the edit-stream workload: one in-process caller
// edits a distinct progen binary per operation along eeld's
// instrument path.  Decode, load and analysis dominate and nothing is
// reused across operations.
func runEditStream(o options) (*result, error) {
	var setup []float64
	warm := editInputs(o.seed, streamWarm)
	for r := 0; r < o.rounds(); r++ {
		raws := make([][]byte, warmEdits)
		for i := range raws {
			var err error
			if _, raws[i], err = warm.draw(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		for _, raw := range raws {
			// A refused warm-up input still warms the path up to the
			// refusal; set-up has no operations to count it against.
			_, _ = edit(raw, nil)
		}
		setup = append(setup, time.Since(t0).Seconds())
	}

	if o.trace {
		return editTraced(o)
	}
	resetPeakRSS()
	p, err := editRun(o, nil)
	if err != nil {
		return nil, err
	}
	m := p.log.endToEnd(p.log.busy, peakRSSMiB())
	m["setup_s"] = metric{median(setup), "s"}
	m["sim_minsts_per_s"] = metric{ratio(float64(p.simInsts), float64(p.simNS)) * 1e3, "M/s"}
	m["edit_text_ratio"] = metric{ratio(float64(p.editText), float64(p.origText)), "ratio"}
	m["edit_insts_ratio"] = metric{ratio(float64(p.editInsts), float64(p.origInsts)), "ratio"}
	return &result{Correct: p.wrong == 0, Attempted: p.log.attempted, Failed: p.log.failed, Metrics: m}, nil
}

// editTraced runs half the phase untraced and half traced, over the
// same inputs, and reports the traced half's per-layer metrics.
func editTraced(o options) (*result, error) {
	o.phase /= 2
	plain, err := editRun(o, nil)
	if err != nil {
		return nil, err
	}
	tr := telemetry.NewTracer()
	clock := newLayerClock(tr)
	p, err := editRun(o, clock)
	if err != nil {
		return nil, err
	}
	if err := writeTrace(tr, o.traceOut); err != nil {
		return nil, err
	}
	v := map[string]float64{}
	clockLayers(v, clock)
	n := float64(p.ledgerOK)
	v["spawn.decodes"] = ratio(float64(p.decodes), n)
	v["spawn.interned"] = ratio(float64(p.interned), n)
	v["pipeline.routines"] = ratio(float64(p.routines), n)
	v["qpt.counters"] = ratio(float64(p.counters), n)
	v["core.spill_frac"] = ratio(float64(p.spil), float64(p.sites))
	v["trace.untraced_ops_per_s"] = ratio(float64(plain.log.attempted-plain.log.failed), plain.log.busy.Seconds())
	v["trace.traced_ops_per_s"] = ratio(float64(p.log.attempted-p.log.failed), p.log.busy.Seconds())
	return &result{
		Correct:   plain.wrong == 0 && p.wrong == 0,
		Attempted: plain.log.attempted + p.log.attempted,
		Failed:    plain.log.failed + p.log.failed,
		Metrics:   layerMetrics(v),
	}, nil
}
