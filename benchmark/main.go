// Command benchmark is the one benchmark of the exadla stack: seven
// workloads, six end-to-end metrics and a per-layer ledger, all measured
// from outside through public functions. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times a run sets the workload up; setup_s is the
// median, so one slow start (a cold page cache, a busy neighbour) does not
// decide it.
const setupReps = 3

// workloads is the frozen workload table. Counts, limits and percentiles
// were calibrated once on the seed commit (README.md has the numbers).
var workloads = []workloadDef{
	{name: "chol_large", prefaultMB: 256, opsPerSecond: 16, tail: 0.90, limitMs: 150, make: newLibWorkload("chol_large"),
		why: "kernel-bound: blas GEMM/SYRK/TRSM at nb do >90% of the work and the DAG is wide; where a kernel, packing or tile-kernel gain must show"},
	{name: "lu_large", prefaultMB: 256, opsPerSecond: 10, tail: 0.90, limitMs: 225, make: newLibWorkload("lu_large"),
		why: "same core/sched/blas layers, but the serial panel and row swaps sit on the critical path; a kernel-only gain moves this less than chol_large"},
	{name: "ls_tall", prefaultMB: 256, opsPerSecond: 11, tail: 0.90, limitMs: 250, make: newLibWorkload("ls_tall"),
		why: "tall-skinny QR: the geqrt/tsqrt panel chain is the critical path; the third tiled DAG encoding, so it needs its own gate"},
	{name: "mixed_spd", prefaultMB: 256, opsPerSecond: 7, tail: 0.85, limitMs: 420, make: newLibWorkload("mixed_spd"),
		why: "time to a 1e-12 solution through internal/mixed (serial float32 lapack plus refinement); bypasses core, sched and tile, so f64 kernel work must not move it"},
	{name: "serve_mixed", prefaultMB: 768, opsPerSecond: 240, tail: 0.70, limitMs: 26, make: newServeWorkload(true, 240),
		why: "the service as deployed: tiny batched solves and warm cached solves at 240/s with cold factorizations in the background; admission, queues, lanes, batcher, cache and HTTP decode all on the path"},
	{name: "serve_cold", prefaultMB: 512, opsPerSecond: 25, tail: 0.90, limitMs: 40, make: newServeWorkload(false, 25),
		why: "the serve layer used the other way round: every request uploads a unique operator, misses and evicts; upload-decode, fingerprint, tile conversion and factorization are the cost"},
	{name: "dist_chol", prefaultMB: 256, opsPerSecond: 7, tail: 0.85, limitMs: 390, make: newDistWorkload,
		why: "internal/dist does most of the work: leases, gob encoding, tile fetch/commit, CRC and parity over loopback net/rpc; local kernels are a small share of the makespan"},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run (one of the names in BENCHMARK.json; with -repeat also a comma list or \"all\")")
		seed     = flag.Int64("seed", 1, "seed all inputs and schedules are generated from")
		seconds  = flag.Float64("seconds", 10, "nominal length of the measured part; scales the fixed operation count")
		traced   = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from the traced run")
		repeat   = flag.Int("repeat", 0, "self-check: run the selected workloads this many times and hold each metric's spread against its bound")
		traceOut = flag.String("trace-out", "", "where the traced run writes its spans as Chrome trace JSON (default <scratch>/trace-<workload>.json)")
		scratch  = flag.String("scratch", ".bench_build", "directory for everything the run writes")
		spec     = flag.String("spec", "BENCHMARK.json", "benchmark definition the self-check reads bounds from")
		noBG     = flag.Bool("no-background", false, "diagnostic: serve_mixed without its background factorizations")
		printDef = flag.Bool("print-spec", false, "print BENCHMARK.json as the tables in this program define it, and exit")
	)
	flag.Parse()
	if *printDef {
		if err := printSpec(os.Stdout, *seconds); err != nil {
			fatal(err)
		}
		return
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fatal(err)
	}
	if *repeat > 0 {
		if err := selfCheck(*name, *repeat, *seed, *seconds, *spec, *scratch); err != nil {
			fatal(err)
		}
		return
	}
	def := findWorkload(*name)
	if def == nil {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	cfg := runConfig{seed: *seed, count: def.count(*seconds), scratch: *scratch, noBackground: *noBG}
	fmt.Printf("workload %s seed %d count %d GOMAXPROCS %d host.cpus %d\n", def.name, cfg.seed, cfg.count, nproc(), runtime.NumCPU())
	d, err := prefault(def.prefaultMB)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("prefault %d MB in %.3f s (outside every metric)\n", def.prefaultMB, d.Seconds())
	var res *result
	if *traced != 0 {
		out := *traceOut
		if out == "" {
			out = filepath.Join(*scratch, "trace-"+def.name+".json")
		}
		var probes map[string]float64
		if probes, err = runProbes(cfg.seed); err == nil {
			res, err = runTraced(def, cfg, probes, out)
		}
	} else {
		res, err = runUntraced(def, cfg)
	}
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// shortPass sets another workload up, takes its traced pass without
// recording spans, and tears it down.
func shortPass(def *workloadDef, cfg runConfig, probes map[string]float64) (map[string]float64, error) {
	w := def.make(cfg)
	defer w.tearDown()
	if err := w.setUp(); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	return w.trace(nil, probes)
}

// prefault touches mb MiB of fresh anonymous memory and gives it straight
// back to the kernel. On the VMs this benchmark runs in, the first touch of
// a page the guest has never used costs ~17 µs against ~2 µs for a page it
// has; a workload whose memory grows would otherwise time the hypervisor's
// page faults in whichever runs happen to come first. Touching the
// workload's peak footprint up front puts every run on the second kind.
func prefault(mb int) (time.Duration, error) {
	if mb <= 0 {
		return 0, nil
	}
	t := time.Now()
	b, err := syscall.Mmap(-1, 0, mb<<20, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return 0, fmt.Errorf("prefault: %w", err)
	}
	for i := 0; i < len(b); i += 4096 {
		b[i] = 1
	}
	if err := syscall.Munmap(b); err != nil {
		return 0, fmt.Errorf("prefault: %w", err)
	}
	return time.Since(t), nil
}

// currentRSSMB reads the resident set size from /proc (0 where there is no
// such file). The peak getrusage reports would only show the prefault; the
// Go heap gives memory back slowly, so the size at the end is close to the
// peak of the workload proper.
func currentRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	var size, resident float64
	if _, err := fmt.Sscan(string(raw), &size, &resident); err != nil {
		return 0
	}
	return resident * float64(os.Getpagesize()) / (1 << 20)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// runUntraced sets the workload up setupReps times, measures the last
// instance and reports the end-to-end metrics.
func runUntraced(def *workloadDef, cfg runConfig) (*result, error) {
	var w workload
	setups := make([]float64, setupReps)
	for r := range setups {
		w = def.make(cfg)
		t := time.Now()
		err := w.setUp()
		setups[r] = time.Since(t).Seconds()
		if err != nil {
			w.tearDown()
			return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
		if r < setupReps-1 {
			w.tearDown()
		}
	}
	defer w.tearDown()
	p, err := w.measure()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", def.name, err)
	}
	m, err := def.endToEndMetrics(p, median(setups))
	if err != nil {
		return nil, err
	}
	n := len(p.fg)
	fmt.Printf("set-ups %.3f s; %d operations (%d foreground), %d failed\n", setups, p.attempted(), n, p.failed())
	fmt.Println(timing("op p50", m["op_p50_ms"], n), "|", timing(fmt.Sprintf("op p%g", 100*def.tail), m["op_tail_ms"], n),
		"|", fmt.Sprintf("limit %g ms", def.limitMs))
	if len(p.lateMs) > 0 {
		// With nproc connections a stalled server also stalls the senders,
		// and latency from the due time charges that correctly. What makes a
		// run invalid is a generator that is behind most of the time.
		late := median(p.lateMs)
		fmt.Println(timing("generator lateness p50", late, len(p.lateMs)))
		if late >= m["op_p50_ms"] {
			fmt.Println("INVALID RUN: the load generator ran behind schedule for most operations")
		}
	}
	fmt.Printf("RSS after the run %.0f MB\n", currentRSSMB())
	lat := p.latencies()
	fmt.Printf("foreground latency (n=%d):", n)
	for _, q := range tailLadder {
		if v, err := percentile(lat, q); err == nil { // the helper refuses what n cannot support
			fmt.Printf(" p%g %.3f", 100*q, v)
		}
	}
	fmt.Println(" ms")
	fmt.Printf("foreground operations slower than %d× the median: %.2f%%\n", holFactor, 100*shareAbove(lat, holFactor*m["op_p50_ms"]))
	res := &result{Correct: p.failed() == 0, Attempted: p.attempted(), Failed: p.failed(), Metrics: map[string]metricValue{}}
	for _, d := range endToEnd {
		res.Metrics[d.name] = metricValue{m[d.name], d.unit}
		fmt.Printf("  %-16s %12.6g %s\n", d.name, m[d.name], d.unit)
	}
	return res, nil
}

// runTraced runs the workload's traced pass and reports every per-layer
// metric: the probes as given, the rest from the pass; a layer the workload
// never enters reads 0.
func runTraced(def *workloadDef, cfg runConfig, probes map[string]float64, traceOut string) (*result, error) {
	w := def.make(cfg)
	defer w.tearDown()
	if err := w.setUp(); err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
	}
	rec := newRecorder()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	layer, err := w.trace(rec, probes)
	if err != nil {
		return nil, fmt.Errorf("%s: traced pass: %w", def.name, err)
	}
	runtime.ReadMemStats(&m1)
	for _, o := range layerOwners {
		if o.workload == def.name {
			continue
		}
		short, err := shortPass(findWorkload(o.workload), runConfig{seed: cfg.seed, count: o.count, scratch: cfg.scratch, traceAll: true}, probes)
		if err != nil {
			return nil, fmt.Errorf("%s: short pass of %s: %w", def.name, o.workload, err)
		}
		for name, v := range short {
			for _, prefix := range o.prefixes {
				if _, own := layer[name]; !own && strings.HasPrefix(name, prefix) {
					layer[name] = v
				}
			}
		}
	}
	tracedOps := float64(cfg.traced())
	layer["proc.rss_mb"] = currentRSSMB()
	layer["proc.alloc_mb_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6 / tracedOps
	layer["proc.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	if err := rec.writeChrome(traceOut); err != nil {
		return nil, err
	}
	_, self := rec.selfTimes()
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Println("self time per span name (trace in", traceOut+"):")
	for _, name := range names {
		fmt.Printf("  %-32s %10.3f ms\n", name, msOf(self[name]))
	}
	res := &result{Correct: true, Attempted: int(tracedOps), Metrics: map[string]metricValue{}}
	for _, d := range perLayer {
		v, ok := probes[d.name]
		if !ok {
			v = layer[d.name]
		}
		res.Metrics[d.name] = metricValue{v, d.unit}
		fmt.Printf("  %-32s %12.6g %s\n", d.name, v, d.unit)
	}
	return res, nil
}
