package main

import (
	"fmt"
	"math"
	"runtime"
)

// metricDef mirrors one entry of BENCHMARK.json; the smoke test holds the
// two lists together.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

// endToEnd are the metrics a user of the system would see, reported for
// every workload by the untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_tail_ms", "ms", "lower", 0.25},
	{"goodput_ops_s", "1/s", "higher", 0.25},
	{"ok_share", "ratio", "higher", 0.001},
}

// opResult is one foreground operation of a measured pass.
type opResult struct {
	latencyMs float64
	ok        bool // completed, and its answer verified
}

// pass is what one run over a workload's fixed operation list produced.
type pass struct {
	wallS  float64    // first operation due → last operation complete
	fg     []opResult // foreground operations, in list order
	bgDone int        // background operations attempted
	bgFail int        // … of which failed, were refused or were wrong
	lateMs []float64  // open loop only: how late each operation was sent
}

func (p *pass) attempted() int { return len(p.fg) + p.bgDone }

func (p *pass) failed() int {
	n := p.bgFail
	for _, o := range p.fg {
		if !o.ok {
			n++
		}
	}
	return n
}

func (p *pass) latencies() []float64 {
	xs := make([]float64, len(p.fg))
	for i, o := range p.fg {
		xs[i] = o.latencyMs
	}
	return xs
}

// endToEndMetrics turns a pass into the end-to-end metrics. A failed
// operation keeps its latency in the sample (it occupied the system that
// long) but misses the limit, so it never counts as goodput.
func (d *workloadDef) endToEndMetrics(p *pass, setupS float64) (map[string]float64, error) {
	lat := p.latencies()
	tail, err := percentile(lat, d.tail)
	if err != nil {
		return nil, fmt.Errorf("%s: op_tail_ms: %w", d.name, err)
	}
	good := 0
	for _, o := range p.fg {
		if o.ok && o.latencyMs <= d.limitMs {
			good++
		}
	}
	return map[string]float64{
		"setup_s":       setupS,
		"wall_s":        p.wallS,
		"op_p50_ms":     median(lat),
		"op_tail_ms":    tail,
		"goodput_ops_s": float64(good) / p.wallS,
		"ok_share":      1 - float64(p.failed())/float64(p.attempted()),
	}, nil
}

// workload is one running instance of a workloadDef: its inputs, whatever
// servers it needs, and the operation list, all made from the seed.
type workload interface {
	// setUp generates inputs, starts contexts, servers and clusters, loads
	// caches and runs the warm-up operations. It is what setup_s times.
	setUp() error
	// measure runs the operation list untraced and verifies every answer
	// after the clock has stopped.
	measure() (*pass, error)
	// trace runs the traced pass — a fifth of the list with a span around
	// every call into a layer — and returns the per-layer metrics this
	// workload's layers produced; layers it never enters are absent. probes
	// holds the machine and kernel probes taken just before.
	trace(rec *recorder, probes map[string]float64) (map[string]float64, error)
	tearDown()
}

// workloadDef is one row of the workload table. Everything here is frozen:
// nothing adapts at run time, so both sides of a comparison get the same
// load.
type workloadDef struct {
	name, why string
	// opsPerSecond is the number of foreground operations per second of
	// --seconds, calibrated on the seed commit so the measured part lasts
	// about --seconds there. The count is fixed, the time is not.
	opsPerSecond float64
	// tail is the percentile op_tail_ms reports: the highest of the ladder
	// that leaves ≥10 samples beyond it at the calibrated count — lower on the
	// two serve workloads, where that percentile did not repeat from run to
	// run (README.md).
	tail float64
	// limitMs is the latency limit goodput counts against: 3× the seed
	// commit's foreground p50 (10× on the serve workloads).
	limitMs float64
	// prefaultMB is how much memory the process touches and releases before
	// anything is timed: about 1.3× the workload's peak footprint on the
	// seed commit (see prefault).
	prefaultMB int
	make       func(cfg runConfig) workload
}

// runConfig is what the command line hands a workload.
type runConfig struct {
	seed         int64
	count        int // foreground operations
	scratch      string
	noBackground bool // diagnostic: serve_mixed without its background load
	traceAll     bool // short pass: trace the whole list, not a fifth of it
}

// traced is the number of foreground operations the traced pass runs.
func (c runConfig) traced() int {
	if c.traceAll {
		return c.count
	}
	return max(3, c.count/5)
}

func (d *workloadDef) count(seconds float64) int {
	return max(1, int(math.Round(d.opsPerSecond*seconds)))
}

func nproc() int { return runtime.GOMAXPROCS(0) }
