package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	_ "eel/internal/aout" // register the a.out container progen emits

	"eel/internal/binfile"
	"eel/internal/core"
	"eel/internal/pipeline"
	"eel/internal/progen"
	"eel/internal/qpt"
	"eel/internal/sim"
	"eel/internal/toolmain"
)

// Input streams keep each use of a benchmark seed's inputs disjoint:
// the timed edit stream, the warm-up edits, and each set-up round's
// serve and hot corpora draw progen seeds from their own ranges, and
// benchmark seeds a million apart never share a program.
const (
	streamEdit = iota
	streamWarm
	streamServe // + set-up round
	streamHot   = streamServe + 16
)

// inputSeed is the progen seed of input i of stream for the
// benchmark seed.
func inputSeed(seed int64, stream, i int) int64 {
	return seed*1_000_000 + int64(stream)*10_000 + int64(i)
}

// usable reports whether f may be a benchmark input: its text holds no
// word that decodes as a SPARC jmpl through %g6 or %g7.  The editor
// reserves that pair as scratch and refuses an indirect transfer it
// cannot tell from data when one of them is an operand ("indirect
// transfer uses reserved scratch register"); progen's code never uses
// them, but its data tables in text sometimes look like such a jump.
// The benchmark draws only inputs on which no operation fails, so it
// passes over these programs (about 2%, a superset of the refused
// ones) and counts them on standard error.
func usable(f *binfile.File) bool {
	t := f.Text()
	if t == nil {
		return true
	}
	for i := 0; i+4 <= len(t.Data); i += 4 {
		w := binary.BigEndian.Uint32(t.Data[i:])
		if w>>30 != 2 || (w>>19)&0x3f != 0x38 { // not jmpl
			continue
		}
		rs1, rs2, imm := (w>>14)&31, w&31, (w>>13)&1 == 1
		if rs1 == 6 || rs1 == 7 || !imm && (rs2 == 6 || rs2 == 7) {
			return false
		}
	}
	return true
}

// inputs draws one stream's programs in order, passing over those
// usable rejects.  gen builds the program for a progen seed.
type inputs struct {
	seed   int64
	stream int
	next   int // index in the stream of the next progen seed to try
	gen    func(s int64) (*binfile.File, []byte, error)
}

// skippedInputs counts the programs every stream passed over.
var skippedInputs int

func (in *inputs) draw() (*binfile.File, []byte, error) {
	for {
		s := inputSeed(in.seed, in.stream, in.next)
		in.next++
		f, raw, err := in.gen(s)
		if err != nil {
			return nil, nil, err
		}
		if usable(f) {
			return f, raw, nil
		}
		skippedInputs++
	}
}

// editConfig is the edit-stream program: progen's default
// configuration at 60 routines.
func editConfig(s int64) progen.Config {
	c := progen.DefaultConfig(s)
	c.Routines = 60
	return c
}

// generate builds a program and its container bytes.
func generate(c progen.Config) (*binfile.File, []byte, error) {
	p, err := progen.Generate(c)
	if err != nil {
		return nil, nil, err
	}
	raw, err := binfile.Write(p.File)
	if err != nil {
		return nil, nil, fmt.Errorf("progen seed %d: %w", c.Seed, err)
	}
	return p.File, raw, nil
}

// sized generates the program cfg describes with the HotLoop trip
// count that makes it execute about target instructions, so that a
// corpus's programs are of one size.  Two probe runs, at one and two
// trips, give the instructions per trip and the fixed remainder; a
// program whose remainder alone exceeds target keeps one trip.
func sized(cfg func(loops int) progen.Config, target uint64) (*binfile.File, []byte, error) {
	probe := func(loops int) (uint64, error) {
		f, _, err := generate(cfg(loops))
		if err != nil {
			return 0, err
		}
		x, err := run(f, "routine", nil)
		if err != nil {
			return 0, fmt.Errorf("progen seed %d: %w", cfg(loops).Seed, err)
		}
		return x.insts, nil
	}
	one, err := probe(1)
	if err != nil {
		return nil, nil, err
	}
	two, err := probe(2)
	if err != nil {
		return nil, nil, err
	}
	perTrip := two - one
	loops := 1
	if fixed := one - perTrip; perTrip > 0 && fixed < target {
		loops = max(1, int((target-fixed)/perTrip))
	}
	return generate(cfg(loops))
}

// maxSteps bounds every emulator run; every generated program halts
// far below it.
const maxSteps = 500_000_000

// execution is one emulator run's observable behaviour plus its cost.
type execution struct {
	exit   uint32
	output []byte
	insts  uint64
	runNS  int64 // host time inside sim's Run
	k      sim.Counters
}

func (x *execution) same(y *execution) bool {
	return x.exit == y.exit && bytes.Equal(x.output, y.output)
}

// run executes f to halt on the named engine ("routine" is the tools'
// default, "interp" the reference interpreter).
func run(f *binfile.File, engine string, clock *layerClock) (*execution, error) {
	var out bytes.Buffer
	var cpu *sim.CPU
	x := &execution{}
	_ = clock.call("sim.load", func() error {
		cpu = sim.LoadFile(f, &out)
		return nil
	})
	toolmain.ConfigureEngine(cpu, engine)
	t1 := time.Now()
	err := clock.call("sim.run", func() error { return cpu.Run(maxSteps) })
	x.runNS = time.Since(t1).Nanoseconds()
	if err != nil {
		return nil, err
	}
	if !cpu.Halted {
		return nil, fmt.Errorf("program did not halt within %d steps", maxSteps)
	}
	x.exit, x.output, x.insts, x.k = cpu.ExitCode, out.Bytes(), cpu.InstCount, cpu.Counters()
	return x, nil
}

// references runs every program to halt on the interpreter, two at a
// time, giving the behaviour each edited program must reproduce.
func references(files []*binfile.File) ([]*execution, error) {
	refs := make([]*execution, len(files))
	errs := make([]error, len(files))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				refs[i], errs[i] = run(files[i], "interp", nil)
			}
		}()
	}
	for i := range files {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("reference run: %w", err)
		}
	}
	return refs, nil
}

// edited is the outcome of one pass along eeld's instrument path.
type edited struct {
	image    []byte
	decodes  uint64 // instructions decoded by the executable's decoder
	interned uint64 // distinct instruction objects it interned
	routines int    // routines analyzed, hidden ones included
	counters int    // edge counters qpt placed
	sites    int    // snippet instantiations
	spilled  int    // of which needed spill wrapping
}

// edit runs one binary along eeld's instrument path — container
// parse, load (decode and symbol refinement), whole-program analysis
// without dominators or loops, qpt's full edge profiling, layout of
// the edited program, container encode — timing each layer on clock.
func edit(raw []byte, clock *layerClock) (*edited, error) {
	var (
		f   *binfile.File
		e   *core.Executable
		q   *qpt.Result
		out *binfile.File
		res = &edited{}
		err error
	)
	if err = clock.call("binfile.read", func() (err error) {
		f, err = binfile.Read(raw)
		return err
	}); err != nil {
		return nil, err
	}
	if err = clock.call("core.load", func() (err error) {
		if e, err = core.NewExecutable(f); err != nil {
			return err
		}
		return e.ReadContents()
	}); err != nil {
		return nil, err
	}
	if err = clock.call("pipeline.analyze", func() error {
		a, err := pipeline.AnalyzeAll(e, pipeline.Options{NoDominators: true, NoLoops: true})
		if err == nil {
			res.routines = a.Stats.Routines
		}
		return err
	}); err != nil {
		return nil, err
	}
	if err = clock.call("qpt.instrument", func() (err error) {
		q, err = qpt.Instrument(e, qpt.Full)
		return err
	}); err != nil {
		return nil, err
	}
	if err = clock.call("core.build", func() (err error) {
		out, err = e.BuildEdited()
		return err
	}); err != nil {
		return nil, err
	}
	if err = clock.call("binfile.write", func() (err error) {
		res.image, err = binfile.Write(out)
		return err
	}); err != nil {
		return nil, err
	}
	res.decodes, res.interned = e.Dec.SharingStats()
	res.counters = len(q.Counters)
	res.sites, res.spilled = e.Stats.Sites, e.Stats.Spilled
	return res, nil
}

// textBytes is the size of an image's text section.
func textBytes(f *binfile.File) int {
	if t := f.Text(); t != nil {
		return len(t.Data)
	}
	return 0
}
