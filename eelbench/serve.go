package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"eel/internal/binfile"
	"eel/internal/eeld"
	"eel/internal/progen"
	"eel/internal/telemetry"
)

const (
	// serveCorpus is the serve-repeat corpus size: default-config
	// programs plus one self-modifying program, whose verify runs
	// drive the emulator's invalidate and deopt path.  Eight keeps the
	// server's heap, and with it collection time, small.
	serveCorpus = 8
	// serveInsts is the executed-instruction count each original
	// corpus program is sized to, so verify requests are of one size.
	serveInsts = 40_000
)

// Request kinds, in the order each client cycles through them.
const (
	kindAnalyze = iota
	kindInstrument
	kindVerify
	nKinds
)

var kindNames = [nKinds]string{"analyze", "instrument", "verify"}

// serveInput is one corpus binary with the responses the set-up pass
// got for it; every timed response must agree with them.
type serveInput struct {
	file *binfile.File
	raw  []byte

	routines, errors int
	image            []byte // instrumented binary; nil when refused
	origInsts        uint64
	editedInsts      uint64
	ref              *execution // the original on the interpreter
}

func serveConfig(s int64, selfMod bool, loops int) progen.Config {
	c := progen.DefaultConfig(s)
	c.SelfMod = selfMod
	c.HotLoop = loops
	return c
}

// serveRequest is one timed request's record.
type serveRequest struct {
	kind       int
	lat        time.Duration
	ok         bool
	wrong      bool
	queue, run int64
	hits, miss uint64
	insts      uint64 // simulated instructions of a verify request
}

// server is an in-process eeld server with its HTTP transport.
type server struct {
	srv *eeld.Server
	tr  *http.Transport
}

func startServer() (*server, error) {
	srv, err := eeld.New(eeld.Config{})
	if err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		return nil, err
	}
	return &server{srv: srv, tr: &http.Transport{}}, nil
}

func (s *server) client(name string) *eeld.Client {
	return &eeld.Client{Base: "http://" + s.srv.Addr(), Name: name, HTTP: &http.Client{Transport: s.tr}}
}

// stop drains the server and closes the client connections.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.tr.CloseIdleConnections()
	return s.srv.Drain(ctx)
}

// do sends one request of kind for in and checks the response against
// the set-up pass's.  A refusal fails the request; a response that
// disagrees is also wrong.
func do(ctx context.Context, c *eeld.Client, kind int, in *serveInput) (ok, wrong bool, insts uint64) {
	switch kind {
	case kindAnalyze:
		r, err := c.Analyze(ctx, &eeld.AnalyzeRequest{Binary: in.raw})
		if err != nil {
			return false, false, 0
		}
		wrong = r.Routines != in.routines || r.Errors != in.errors
	case kindInstrument:
		r, err := c.Instrument(ctx, &eeld.InstrumentRequest{Binary: in.raw})
		if err != nil {
			return false, false, 0
		}
		_, perr := binfile.Read(r.Binary)
		wrong = perr != nil || !bytes.Equal(r.Binary, in.image)
	case kindVerify:
		r, err := c.Verify(ctx, &eeld.VerifyRequest{Binary: in.raw})
		if err != nil {
			return false, false, 0
		}
		wrong = !r.OK || r.OrigExit != in.ref.exit || r.OrigInsts != in.origInsts || r.EditedInsts != in.editedInsts
		insts = r.OrigInsts + r.EditedInsts
	}
	return !wrong, wrong, insts
}

// warmPass sends every (binary, request kind) pair once, recording
// the responses the timed requests are checked against.
func warmPass(ctx context.Context, c *eeld.Client, corpus []*serveInput) error {
	for _, in := range corpus {
		a, err := c.Analyze(ctx, &eeld.AnalyzeRequest{Binary: in.raw})
		if err != nil {
			return fmt.Errorf("set-up analyze: %w", err)
		}
		in.routines, in.errors = a.Routines, a.Errors
		// The editor may refuse a binary; its timed instrument and
		// verify requests then fail and are counted.
		if r, err := c.Instrument(ctx, &eeld.InstrumentRequest{Binary: in.raw}); err == nil {
			in.image = r.Binary
		}
		if v, err := c.Verify(ctx, &eeld.VerifyRequest{Binary: in.raw}); err == nil {
			in.origInsts, in.editedInsts = v.OrigInsts, v.EditedInsts
		}
	}
	return nil
}

// serveSetup starts a fresh server and warms it with one pass over a
// fresh corpus; set-up round r's corpus is its own.
func serveSetup(seed int64, r int) (*server, []*serveInput, time.Duration, error) {
	corpus := make([]*serveInput, serveCorpus)
	in := &inputs{seed: seed, stream: streamServe + r}
	for i := range corpus {
		selfMod := i == serveCorpus-1
		in.gen = func(s int64) (*binfile.File, []byte, error) {
			return sized(func(loops int) progen.Config { return serveConfig(s, selfMod, loops) }, serveInsts)
		}
		f, raw, err := in.draw()
		if err != nil {
			return nil, nil, 0, err
		}
		corpus[i] = &serveInput{file: f, raw: raw}
	}
	t0 := time.Now()
	s, err := startServer()
	if err != nil {
		return nil, nil, 0, err
	}
	if err := warmPass(context.Background(), s.client("setup"), corpus); err != nil {
		_ = s.stop()
		return nil, nil, 0, err
	}
	return s, corpus, time.Since(t0), nil
}

// servePhase drives one closed-loop client until the phase is long
// enough, cycling analyze → instrument → verify over the corpus.
func servePhase(o options, s *server, corpus []*serveInput, tr *telemetry.Tracer) ([]serveRequest, time.Duration, uint32) {
	var (
		recs []serveRequest
		ms   runtime.MemStats
		sum  eeld.RequestSummary
	)
	cl := s.client("client")
	cl.OnSummary = func(rs eeld.RequestSummary) { sum = rs }
	ctx := context.Background()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	gc0 := ms.NumGC
	start := time.Now()
	for j := 0; !phaseDone(o, time.Since(start), j); j++ {
		in := corpus[(j/nKinds)%serveCorpus]
		kind := j % nKinds
		span := tr.BeginTID("eeld."+kindNames[kind], "client", 1)
		sum = eeld.RequestSummary{}
		t0 := time.Now()
		ok, wrong, insts := do(ctx, cl, kind, in)
		lat := time.Since(t0)
		span.Arg("queue_ns", sum.QueueNS)
		span.Arg("run_ns", sum.RunNS)
		span.End()
		recs = append(recs, serveRequest{
			kind: kind, lat: lat, ok: ok, wrong: wrong,
			queue: sum.QueueNS, run: sum.RunNS, hits: sum.CacheHits, miss: sum.CacheMisses, insts: insts,
		})
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&ms)
	return recs, wall, ms.NumGC - gc0
}

// runServeRepeat is the serve-repeat workload: an in-process eeld
// server (zero-value Config, memory cache) on loopback and one client
// over a small fixed corpus.  A second client would saturate both
// CPUs of a two-CPU host, which tripled the run-to-run spread.  After set-up every routine
// analysis is a cache hit, so the time goes to per-request load and
// decode, editing, the verify runs, JSON/HTTP and scheduling.
func runServeRepeat(o options) (*result, error) {
	var (
		setup  []float64
		s      *server
		corpus []*serveInput
	)
	rounds := o.rounds()
	for r := 0; r < rounds; r++ {
		srv, c, d, err := serveSetup(o.seed, r)
		if err != nil {
			return nil, err
		}
		setup = append(setup, d.Seconds())
		if r < rounds-1 {
			if err := srv.stop(); err != nil {
				return nil, err
			}
			continue
		}
		s, corpus = srv, c
	}
	if err := serveReferences(corpus); err != nil {
		_ = s.stop()
		return nil, err
	}
	if o.trace {
		res, err := serveTraced(o, s, corpus)
		if serr := s.stop(); err == nil && serr != nil {
			err = serr
		}
		return res, err
	}

	resetPeakRSS()
	recs, wall, _ := servePhase(o, s, corpus, nil)
	rssMiB := peakRSSMiB()
	if err := s.stop(); err != nil {
		return nil, err
	}
	res, log := tally(recs)

	// The emulator runs inside the verify jobs, where it cannot be
	// timed from outside, so the rate here is the simulated
	// instructions the timed verify requests delivered per second.
	var simInsts uint64
	for _, r := range recs {
		if r.kind == kindVerify && r.ok {
			simInsts += r.insts
		}
	}
	var origText, editText int64
	var origInsts, editInsts uint64
	for _, in := range corpus {
		if in.image == nil {
			continue
		}
		if in.origInsts != in.ref.insts {
			res.Correct = false // the server's emulator disagrees with the interpreter
		}
		f, err := binfile.Read(in.image)
		if err != nil {
			return nil, err
		}
		origText += int64(textBytes(in.file))
		editText += int64(textBytes(f))
		origInsts += in.origInsts
		editInsts += in.editedInsts
	}

	m := log.endToEnd(wall, rssMiB)
	m["setup_s"] = metric{median(setup), "s"}
	m["sim_minsts_per_s"] = metric{float64(simInsts) / wall.Seconds() / 1e6, "M/s"}
	m["edit_text_ratio"] = metric{ratio(float64(editText), float64(origText)), "ratio"}
	m["edit_insts_ratio"] = metric{ratio(float64(editInsts), float64(origInsts)), "ratio"}
	res.Metrics = m
	return res, nil
}

// serveReferences runs the corpus's originals on the interpreter,
// outside set-up and timing.
func serveReferences(corpus []*serveInput) error {
	files := make([]*binfile.File, len(corpus))
	for i, in := range corpus {
		files[i] = in.file
	}
	refs, err := references(files)
	if err != nil {
		return err
	}
	for i, in := range corpus {
		in.ref = refs[i]
	}
	return nil
}

// tally turns request records into the result's counts and an opLog.
func tally(recs []serveRequest) (*result, *opLog) {
	res := &result{Correct: true}
	log := &opLog{}
	for _, r := range recs {
		log.add(r.lat, r.ok)
		if r.wrong {
			res.Correct = false
		}
	}
	res.Attempted, res.Failed = log.attempted, log.failed
	return res, log
}

// serveTraced runs half the phase untraced and half with client spans,
// and reports where the traced half's request time went according to
// eeld's X-Eel-Queue-Ns/X-Eel-Run-Ns headers and cache fields.
func serveTraced(o options, s *server, corpus []*serveInput) (*result, error) {
	o.phase /= 2
	plain, plainWall, _ := servePhase(o, s, corpus, nil)
	tr := telemetry.NewTracer()
	recs, wall, gcs := servePhase(o, s, corpus, tr)
	if err := writeTrace(tr, o.traceOut); err != nil {
		return nil, err
	}
	v := map[string]float64{}
	var queue, runNS, transport int64
	var hits, miss uint64
	byKind := [nKinds][]float64{}
	done := 0
	for _, r := range recs {
		if !r.ok {
			continue
		}
		done++
		queue += r.queue
		runNS += r.run
		transport += r.lat.Nanoseconds() - r.queue - r.run
		hits += r.hits
		miss += r.miss
		byKind[r.kind] = append(byKind[r.kind], float64(r.lat.Nanoseconds())/1e6)
	}
	n := float64(done)
	v["eeld.queue_ms"] = ratio(float64(queue)/1e6, n)
	v["eeld.run_ms"] = ratio(float64(runNS)/1e6, n)
	v["eeld.transport_ms"] = ratio(float64(transport)/1e6, n)
	for k, lats := range byKind {
		v["eeld."+kindNames[k]+"_p50_ms"] = median(lats)
	}
	v["pipeline.cache_hit_frac"] = ratio(float64(hits), float64(hits+miss))
	v["go.gc_cycles"] = ratio(float64(gcs), float64(len(recs)))
	plainRes, _ := tally(plain)
	res, _ := tally(recs)
	v["trace.untraced_ops_per_s"] = float64(plainRes.Attempted-plainRes.Failed) / plainWall.Seconds()
	v["trace.traced_ops_per_s"] = float64(res.Attempted-res.Failed) / wall.Seconds()
	res.Correct = res.Correct && plainRes.Correct
	res.Attempted += plainRes.Attempted
	res.Failed += plainRes.Failed
	res.Metrics = layerMetrics(v)
	return res, nil
}
