package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"eel/internal/telemetry"
)

// opLog accumulates a timed phase's operations.  A failed or refused
// operation counts as attempted and failed; the latency percentiles
// are those of the completed operations.
type opLog struct {
	attempted, failed int
	lat               []float64 // completed operations, seconds
	busy              time.Duration
}

func (l *opLog) add(d time.Duration, ok bool) {
	l.attempted++
	l.busy += d
	if !ok {
		l.failed++
		return
	}
	l.lat = append(l.lat, d.Seconds())
}

// percentileMS returns the p-th percentile latency in ms by nearest
// rank.
func (l *opLog) percentileMS(p float64) float64 {
	if len(l.lat) == 0 {
		return 0
	}
	s := append([]float64(nil), l.lat...)
	sort.Float64s(s)
	i := max(int(math.Ceil(p/100*float64(len(s))))-1, 0)
	return s[i] * 1e3
}

// endToEnd returns the throughput, latency and memory metrics every
// workload shares.  wall is the timed phase's length and rssMiB its
// peak resident set.
func (l *opLog) endToEnd(wall time.Duration, rssMiB float64) map[string]metric {
	return map[string]metric{
		"ops_per_s":   {float64(l.attempted-l.failed) / wall.Seconds(), "1/s"},
		"op_p50_ms":   {l.percentileMS(50), "ms"},
		"op_p95_ms":   {l.percentileMS(95), "ms"},
		"peak_rss_mb": {rssMiB, "MiB"},
	}
}

// phaseDone reports whether a closed-loop phase has run long enough:
// its length has passed and it has run at least minOps operations.
func phaseDone(o options, spent time.Duration, ops int) bool {
	return spent >= o.phase && ops >= o.minOps
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMiB is the resident-set high-water mark (VmHWM) since the
// last resetPeakRSS, falling back to getrusage's ru_maxrss — the
// process's peak — where /proc is unavailable.
func peakRSSMiB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// resetPeakRSS starts a fresh resident-set high-water mark at the
// live heap, so peakRSSMiB covers the timed phase rather than set-up.
// Where the kernel refuses the reset, the mark stays the process's.
func resetPeakRSS() {
	runtime.GC()
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets VmHWM to the current RSS (Linux 4.0+).
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// printHost writes the context that makes a contended run visible:
// CPUs, GOMAXPROCS, Go version, and CPU seconds per wall second.
func printHost(w io.Writer, start time.Time) {
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d go=%s cpu/wall=%.2f\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(),
		cpuSeconds()/time.Since(start).Seconds())
}

// layerClock attributes an operation's time and heap allocations to
// the layers it calls.  Each call is timed from outside the layer,
// recorded as a span on the tracer, and bracketed by MemStats reads
// whose deltas give the layer's allocations.  A nil clock just calls
// through, so untraced operations pay nothing.
type layerClock struct {
	tr     *telemetry.Tracer
	ms     runtime.MemStats
	layers map[string]*layerStat
	ops    int
	opNS   int64
	gcs    uint32
}

type layerStat struct {
	ns            int64
	allocs, bytes uint64
}

func newLayerClock(tr *telemetry.Tracer) *layerClock {
	return &layerClock{tr: tr, layers: map[string]*layerStat{}}
}

// call runs fn as layer name's part of the current operation.
func (c *layerClock) call(name string, fn func() error) error {
	if c == nil {
		return fn()
	}
	runtime.ReadMemStats(&c.ms)
	allocs, bytes := c.ms.Mallocs, c.ms.TotalAlloc
	span := c.tr.Begin(name, "layer")
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	span.End()
	runtime.ReadMemStats(&c.ms)
	s := c.layers[name]
	if s == nil {
		s = &layerStat{}
		c.layers[name] = s
	}
	s.ns += d.Nanoseconds()
	s.allocs += c.ms.Mallocs - allocs
	s.bytes += c.ms.TotalAlloc - bytes
	return err
}

// op runs one whole operation under an "op" span and adds its wall
// time and GC cycles to the clock's totals.
func (c *layerClock) op(fn func() error) (time.Duration, error) {
	if c == nil {
		t0 := time.Now()
		err := fn()
		return time.Since(t0), err
	}
	runtime.ReadMemStats(&c.ms)
	gc0 := c.ms.NumGC
	span := c.tr.Begin("op", "op")
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	span.End()
	runtime.ReadMemStats(&c.ms)
	c.ops++
	c.opNS += d.Nanoseconds()
	c.gcs += c.ms.NumGC - gc0
	return d, err
}

// perOpMS is layer name's mean time per operation in ms.
func (c *layerClock) perOpMS(name string) float64 {
	if s := c.layers[name]; s != nil {
		return ratio(float64(s.ns)/1e6, float64(c.ops))
	}
	return 0
}

func (c *layerClock) perOpAllocs(name string) float64 {
	if s := c.layers[name]; s != nil {
		return ratio(float64(s.allocs), float64(c.ops))
	}
	return 0
}

func (c *layerClock) perOpKiB(name string) float64 {
	if s := c.layers[name]; s != nil {
		return ratio(float64(s.bytes)/1024, float64(c.ops))
	}
	return 0
}

// unattributedMS is the mean operation wall time no layer accounts
// for: glue between the calls plus the clock's own reads.  Layer
// times plus this remainder equal the operation's wall time.
func (c *layerClock) unattributedMS() float64 {
	var sum int64
	for _, s := range c.layers {
		sum += s.ns
	}
	return ratio(float64(c.opNS-sum)/1e6, float64(c.ops))
}

// writeTrace writes the tracer's spans as Chrome-trace JSON.
func writeTrace(tr *telemetry.Tracer, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return tr.WriteFile(path)
}
