// Command exabench regenerates the reproduction's experiment suite — E1–E8
// (see DESIGN.md for the mapping to the keynote's claims), the E9–E13
// extensions, the A2–A3 ablations and the fault-injection demos — printing
// one table or series per experiment.
//
// Usage:
//
//	exabench -exp e1          # one experiment
//	exabench -exp faults      # the fault demos (E11 is their distributed act)
//	exabench -exp all         # the full suite
//	exabench -exp e1 -quick   # smaller sizes for a fast sanity pass
//	exabench -json            # strong-scaling sweep → BENCH_scale.json
//	exabench -serve           # solve-service load benchmark → BENCH_serve.json
//	exabench -benchdiff BASE  # diff a report against a baseline, fail on regression
//	                          # (dispatches on the baseline's benchmark kind)
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"exadla/internal/metrics"
	"exadla/internal/obs"
)

type experiment struct {
	name  string
	title string
	run   func(quick bool)
}

var experiments = []experiment{
	{"e1", "E1: tile/DAG Cholesky vs fork-join — scaling with workers", runE1},
	{"e2", "E2: idle time and utilization — dataflow vs fork-join traces", runE2},
	{"e3", "E3: mixed-precision iterative refinement vs full FP64", runE3},
	{"e4", "E4: communication-avoiding TSQR vs Householder QR", runE4},
	{"e5", "E5: tile-size sweep and autotuner", runE5},
	{"e6", "E6: ABFT overhead and fault recovery", runE6},
	{"e7", "E7: batched small factorizations vs one-at-a-time loop", runE7},
	{"e8", "E8: randomized least squares vs tile QR", runE8},
	{"e9", "E9 (extension): the precision ladder — fp16 vs fp32 refinement", runE9},
	{"e10", "E10 (extension): communication volume on a process grid", runE10},
	{"e11", "E11 (extension): distributed chaos sweep", distFaultSweep},
	{"e12", "E12 (extension): merged cluster trace under chaos", runE12},
	{"e13", "E13 (extension): straggler sweep — speculative execution off vs on", runE13},
	{"a2", "A2 (ablation): scheduler priorities on/off", runA2},
	{"a3", "A3 (ablation): flat vs tree tile QR — panel critical path", runA3},
	{"faults", "fault injection: chaos retries, ABFT recovery, hard faults, checkpoint/restart", runFaults},
}

func main() {
	exp := flag.String("exp", "all", "experiment to run: "+experimentNames())
	quick := flag.Bool("quick", false, "use reduced sizes for a fast pass")
	showMetrics := flag.Bool("metrics", false, "collect runtime metrics and dump a JSON snapshot per experiment")
	jsonBench := flag.Bool("json", false, "run the strong-scaling sweep and write BENCH_scale.json")
	serveBench := flag.Bool("serve", false, "run the solve-service load benchmark and write BENCH_serve.json")
	serveAddr := flag.String("serve-addr", "", "pin the -serve load-phase server to this host:port so its /metrics can be watched live (default: ephemeral)")
	benchDiff := flag.String("benchdiff", "", "compare the scaling report named by -benchnew against this baseline JSON and exit non-zero on regressions")
	benchNew := flag.String("benchnew", "BENCH_scale.json", "scaling report compared against the -benchdiff baseline")
	benchTol := flag.Float64("benchtol", 0.10, "relative tolerance for -benchdiff speedup regressions")
	benchMissing := flag.String("benchmissing", "", "comma-separated op/n<N>/nb<NB> baseline entries the new report may omit (e.g. full-mode sizes in a -quick run)")
	obsAddr := flag.String("obs", "", "serve live observability (metrics, healthz, pprof) on this host:port while the suite runs")
	flag.Parse()

	if *benchDiff != "" {
		if err := runBenchDiff(*benchDiff, *benchNew, *benchTol, *benchMissing); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *showMetrics {
		metrics.Enable()
	}
	if *obsAddr != "" {
		srv, err := obs.Start(*obsAddr, obs.Options{})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("observability server listening on http://%s\n", srv.Addr())
	}
	if *jsonBench {
		fmt.Printf("\n=== kernel benchmarks (JSON artifacts) ===\n\n")
		if err := benchScaleJSON(*quick); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *serveBench {
		fmt.Printf("\n=== solve service: open-loop load, factor cache, batched fast path ===\n\n")
		if err := runServeBench(*quick, *serveAddr); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	want := strings.ToLower(*exp)
	ran := false
	for _, e := range experiments {
		if want != "all" && want != e.name {
			continue
		}
		ran = true
		fmt.Printf("\n=== %s ===\n\n", e.title)
		e.run(*quick)
		if *showMetrics {
			dumpMetrics(e.name)
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; valid: %s\n", *exp, experimentNames())
		os.Exit(2)
	}
}

// experimentNames lists the valid -exp values: the experiments table's
// names, then "all".
func experimentNames() string {
	names := make([]string, 0, len(experiments)+1)
	for _, e := range experiments {
		names = append(names, e.name)
	}
	return strings.Join(append(names, "all"), ", ")
}

// dumpMetrics prints the accumulated metrics snapshot for one experiment as
// a single JSON document, then zeroes the registry so the next experiment
// starts from a clean slate.
func dumpMetrics(name string) {
	fmt.Printf("\n--- metrics[%s] ---\n", name)
	snap := metrics.Default().Snapshot()
	if err := snap.WriteJSON(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "metrics: %v\n", err)
	}
	fmt.Println()
	metrics.Reset()
}

// table is a minimal fixed-width table printer.
type table struct {
	headers []string
	rows    [][]string
}

func newTable(headers ...string) *table { return &table{headers: headers} }

func (t *table) add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = formatFloat(v)
		case int:
			row[i] = fmt.Sprintf("%d", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

func formatFloat(v float64) string {
	av := v
	if av < 0 {
		av = -av
	}
	switch {
	case v == 0:
		return "0"
	case av >= 1e5 || av < 1e-3:
		return fmt.Sprintf("%.3g", v)
	case av >= 100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

func (t *table) print() {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		var sb strings.Builder
		for i, c := range cells {
			fmt.Fprintf(&sb, "%-*s", widths[i]+2, c)
		}
		fmt.Println(strings.TrimRight(sb.String(), " "))
	}
	line(t.headers)
	seps := make([]string, len(t.headers))
	for i, w := range widths {
		seps[i] = strings.Repeat("-", w)
	}
	line(seps)
	for _, r := range t.rows {
		line(r)
	}
}

// pick returns a by quick-mode.
func pick[T any](quick bool, q, full T) T {
	if quick {
		return q
	}
	return full
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
